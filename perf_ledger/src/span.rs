//! In-memory span recorder for the benchmark's own boundaries.
//!
//! Spans are recorded around each call into a layer's public functions
//! (tracing *inside* the program is a later change). A span is
//! `{name, start_ns, end_ns, parent, sim_id}`; spans of one simulation
//! share a `sim_id`. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for the root).
    pub parent: Option<usize>,
    /// The simulation the span belongs to, for per-simulation spans.
    pub sim_id: Option<u64>,
}

/// Records spans in memory; written out when the run ends.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            sim_id: None,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a leaf span under the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Adds an already-measured interval (an aggregated or per-simulation
    /// span observed elsewhere) under `parent`, clamped into the parent's
    /// interval so the tree stays well-nested.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: usize,
        start_ns: u64,
        duration_ns: u64,
        sim_id: Option<u64>,
    ) -> usize {
        let (lo, hi) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        let start_ns = start_ns.clamp(lo, hi);
        let end_ns = start_ns.saturating_add(duration_ns).min(hi);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            sim_id,
        });
        self.spans.len() - 1
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of one span, seconds.
    pub fn secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Summed duration of every span called `name`, seconds (0 if none).
    pub fn total_secs(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Self time of a span: its duration minus the union of the intervals
    /// its direct children cover (children of different simulations may
    /// overlap each other), seconds.
    pub fn self_secs(&self, id: usize) -> f64 {
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = self.spans[id].start_ns;
        for (start, end) in kids {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let total = self.spans[id].end_ns - self.spans[id].start_ns;
        total.saturating_sub(covered) as f64 * 1e-9
    }

    /// Checks that every span is closed, lies inside its parent's interval
    /// and refers to an earlier span as parent.
    pub fn check_nested(&self) -> Result<(), String> {
        if !self.stack.is_empty() {
            return Err(format!("{} spans still open", self.stack.len()));
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} `{}` ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                if p >= i {
                    return Err(format!("span {i} `{}` has a later parent {p}", s.name));
                }
                let parent = &self.spans[p];
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {i} `{}` leaves its parent `{}`",
                        s.name, parent.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// The trace file: one JSON object with a `spans` array.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sim = s.sim_id.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"sim_id\":{sim}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = t.begin("root");
        t.end(root);
        t.spans[root].start_ns = 0;
        t.spans[root].end_ns = 100;
        // Two overlapping children (different simulations) and a gap.
        t.add("a", root, 10, 30, Some(0));
        t.add("b", root, 20, 40, Some(1));
        t.add("c", root, 80, 10, None);
        assert_eq!(t.self_secs(root), (100 - 50 - 10) as f64 * 1e-9);
        t.check_nested().unwrap();
    }

    #[test]
    fn added_spans_are_clamped_into_their_parent() {
        let mut t = Tracer::new();
        let root = t.begin("root");
        t.end(root);
        t.spans[root].start_ns = 50;
        t.spans[root].end_ns = 100;
        let id = t.add("late", root, 90, 1000, None);
        assert_eq!((t.spans[id].start_ns, t.spans[id].end_ns), (90, 100));
        t.check_nested().unwrap();
    }

    #[test]
    fn nesting_and_json() {
        let mut t = Tracer::new();
        let root = t.begin("wall");
        let v = t.span("core.run", || 7);
        t.end(root);
        assert_eq!(v, 7);
        t.check_nested().unwrap();
        assert_eq!(t.spans()[1].parent, Some(root));
        let json = t.to_json("w");
        let parsed = serde_json::parse_value(&json).expect("trace is valid JSON");
        assert!(matches!(parsed, serde::Value::Map(_)));
    }
}
