//! Chrome `trace_event` timeline exporter.
//!
//! [`ChromeTraceWriter`] is an [`Observer`] that renders the *simulated*
//! timeline — not the simulator's wall clock — in the Chrome trace-event
//! JSON format, loadable directly in Perfetto (<https://ui.perfetto.dev>)
//! or `chrome://tracing`. Layout:
//!
//! - **pid 1 "cluster"** — one thread per node. Job executions are
//!   complete slices (`ph:"X"`, name `job3 ×4` where ×4 is the allocation
//!   size); a reconfiguration closes the job's slices and reopens them at
//!   the new size, so resizes are visible as slice boundaries. Node
//!   downtime is a `down` slice. Thread 0 carries an `allocated_nodes`
//!   counter track (`ph:"C"`).
//! - **pid 2 "scheduler"** — every scheduler invocation as an instant
//!   event (`ph:"i"`) with reason / decision counts in `args`, plus
//!   reconfiguration markers.
//! - **pid 3 "simulator"** — flow-engine re-solves (instants with the
//!   solved component size), merged from the telemetry timeline buffer if
//!   one was attached.
//!
//! Timestamps are simulated seconds scaled to microseconds (the format's
//! unit). Everything emitted is deterministic: two runs of the same
//! scenario produce byte-identical traces, which the golden test pins.

use std::collections::HashMap;
use std::io::Write;

use elastisim_telemetry::Telemetry;
use serde::Value;

use crate::observe::{Observer, SimEvent};

const PID_CLUSTER: f64 = 1.0;
const PID_SCHEDULER: f64 = 2.0;
const PID_SIMULATOR: f64 = 3.0;

/// Seconds → trace-event microseconds.
fn us(t: f64) -> f64 {
    t * 1e6
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// Writes the simulated timeline as Chrome trace-event JSON.
pub struct ChromeTraceWriter {
    /// The document is written once, at finish (or drop).
    out: Box<dyn Write + Send>,
    telemetry: Telemetry,
    /// Emitted metadata + closed events, in deterministic order.
    events: Vec<Value>,
    /// Open job slice per (job, node): start time and current size label.
    open: HashMap<(u64, u32), (f64, u32)>,
    /// Open downtime slice per node.
    open_down: HashMap<u32, f64>,
    /// Node threads already announced via metadata.
    named_nodes: std::collections::BTreeSet<u32>,
    /// Currently allocated node count (drives the counter track).
    allocated: i64,
    finished: bool,
}

impl ChromeTraceWriter {
    /// Wraps any writer. `telemetry` supplies the flow-engine timeline at
    /// finish; pass a disabled handle to skip the simulator track.
    pub fn new(out: impl Write + Send + 'static, telemetry: Telemetry) -> Self {
        let mut w = ChromeTraceWriter {
            out: Box::new(out),
            telemetry,
            events: Vec::new(),
            open: HashMap::new(),
            open_down: HashMap::new(),
            named_nodes: std::collections::BTreeSet::new(),
            allocated: 0,
            finished: false,
        };
        w.push_process_meta(PID_CLUSTER, "cluster");
        w.push_process_meta(PID_SCHEDULER, "scheduler");
        w.push_process_meta(PID_SIMULATOR, "simulator");
        w.push_thread_meta(PID_CLUSTER, 0.0, "allocation");
        w.push_thread_meta(PID_SCHEDULER, 1.0, "invocations");
        w.push_thread_meta(PID_SIMULATOR, 1.0, "flow");
        w
    }

    /// Creates (truncating) a buffered trace file at `path`, written at
    /// finish. The file is created here so path errors surface at attach
    /// time, not at the end of a long run.
    pub fn create(path: &std::path::Path, telemetry: Telemetry) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(ChromeTraceWriter::new(
            std::io::BufWriter::new(file),
            telemetry,
        ))
    }

    fn push_process_meta(&mut self, pid: f64, name: &str) {
        self.events.push(map(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::Num(pid)),
            ("tid", Value::Num(0.0)),
            ("args", map(vec![("name", Value::Str(name.into()))])),
        ]));
    }

    fn push_thread_meta(&mut self, pid: f64, tid: f64, name: &str) {
        self.events.push(map(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::Num(pid)),
            ("tid", Value::Num(tid)),
            ("args", map(vec![("name", Value::Str(name.into()))])),
        ]));
    }

    /// Node threads are tid = node index + 1 (tid 0 is the counter track).
    fn node_tid(&mut self, node: u32) -> f64 {
        if self.named_nodes.insert(node) {
            self.push_thread_meta(PID_CLUSTER, node as f64 + 1.0, &format!("node{node}"));
        }
        node as f64 + 1.0
    }

    fn push_slice(&mut self, name: String, tid: f64, from: f64, to: f64, args: Value) {
        self.events.push(map(vec![
            ("name", Value::Str(name)),
            ("ph", Value::Str("X".into())),
            ("pid", Value::Num(PID_CLUSTER)),
            ("tid", Value::Num(tid)),
            ("ts", Value::Num(us(from))),
            ("dur", Value::Num(us(to) - us(from))),
            ("args", args),
        ]));
    }

    fn push_instant(&mut self, name: String, pid: f64, tid: f64, time: f64, args: Value) {
        self.events.push(map(vec![
            ("name", Value::Str(name)),
            ("ph", Value::Str("i".into())),
            ("s", Value::Str("t".into())),
            ("pid", Value::Num(pid)),
            ("tid", Value::Num(tid)),
            ("ts", Value::Num(us(time))),
            ("args", args),
        ]));
    }

    fn push_counter(&mut self, time: f64) {
        self.events.push(map(vec![
            ("name", Value::Str("allocated_nodes".into())),
            ("ph", Value::Str("C".into())),
            ("pid", Value::Num(PID_CLUSTER)),
            ("tid", Value::Num(0.0)),
            ("ts", Value::Num(us(time))),
            (
                "args",
                map(vec![("nodes", Value::Num(self.allocated as f64))]),
            ),
        ]));
    }

    fn open_job(&mut self, job: u64, node: u32, time: f64, size: u32) {
        self.node_tid(node);
        self.open.insert((job, node), (time, size));
    }

    fn close_job_slice(&mut self, job: u64, node: u32, time: f64) {
        if let Some((from, size)) = self.open.remove(&(job, node)) {
            let tid = self.node_tid(node);
            self.push_slice(
                format!("job{job} \u{00d7}{size}"),
                tid,
                from,
                time,
                map(vec![
                    ("job", Value::Num(job as f64)),
                    ("nodes", Value::Num(size as f64)),
                ]),
            );
        }
    }

    /// All nodes currently holding a slice of `job`, ascending.
    fn nodes_of(&self, job: u64) -> Vec<u32> {
        let mut nodes: Vec<u32> = self
            .open
            .keys()
            .filter(|&&(j, _)| j == job)
            .map(|&(_, n)| n)
            .collect();
        nodes.sort_unstable();
        nodes
    }
}

impl Observer for ChromeTraceWriter {
    fn on_event(&mut self, event: &SimEvent) {
        match event {
            SimEvent::JobStarted { time, job, nodes } => {
                for node in nodes {
                    self.open_job(job.0, node.0, *time, nodes.len() as u32);
                }
                self.allocated += nodes.len() as i64;
                self.push_counter(*time);
            }
            SimEvent::JobReconfigured {
                time,
                job,
                added,
                removed,
                new_size,
            } => {
                // Close every slice of the job and reopen at the new size,
                // so the resize shows as a boundary on retained nodes too.
                let mut nodes = self.nodes_of(job.0);
                for &node in &nodes {
                    self.close_job_slice(job.0, node, *time);
                }
                nodes.retain(|n| !removed.iter().any(|r| r.0 == *n));
                nodes.extend(added.iter().map(|n| n.0));
                nodes.sort_unstable();
                for &node in &nodes {
                    self.open_job(job.0, node, *time, *new_size);
                }
                self.allocated += added.len() as i64 - removed.len() as i64;
                self.push_counter(*time);
                self.push_instant(
                    format!("reconfigure job{}", job.0),
                    PID_SCHEDULER,
                    1.0,
                    *time,
                    map(vec![
                        ("job", Value::Num(job.0 as f64)),
                        ("new_size", Value::Num(*new_size as f64)),
                        ("added", Value::Num(added.len() as f64)),
                        ("removed", Value::Num(removed.len() as f64)),
                    ]),
                );
            }
            SimEvent::JobCompleted {
                time,
                job,
                outcome,
                released,
            } => {
                for node in released {
                    self.close_job_slice(job.0, node.0, *time);
                }
                self.allocated -= released.len() as i64;
                if !released.is_empty() {
                    self.push_counter(*time);
                }
                let _ = outcome;
            }
            SimEvent::NodeFailed { time, node } => {
                self.node_tid(node.0);
                self.open_down.insert(node.0, *time);
            }
            SimEvent::NodeRepaired { time, node } => {
                if let Some(from) = self.open_down.remove(&node.0) {
                    let tid = self.node_tid(node.0);
                    self.push_slice(
                        "down".into(),
                        tid,
                        from,
                        *time,
                        map(vec![("node", Value::Num(node.0 as f64))]),
                    );
                }
            }
            SimEvent::SchedulerInvoked {
                time,
                reason,
                decisions,
                applied,
            } => {
                self.push_instant(
                    format!("invoke: {reason}"),
                    PID_SCHEDULER,
                    1.0,
                    *time,
                    map(vec![
                        ("reason", Value::Str(reason.clone())),
                        ("decisions", Value::Num(*decisions as f64)),
                        ("applied", Value::Num(*applied as f64)),
                    ]),
                );
            }
            SimEvent::JobSubmitted { .. }
            | SimEvent::DecisionRejected { .. }
            | SimEvent::Warning { .. } => {}
        }
    }

    fn finish(&mut self, horizon: f64) -> Result<(), String> {
        self.finished = true;
        // Close anything an aborted run left open.
        let mut dangling: Vec<(u64, u32)> = self.open.keys().copied().collect();
        dangling.sort_unstable();
        for (job, node) in dangling {
            self.close_job_slice(job, node, horizon.max(self.open[&(job, node)].0));
        }
        let mut down: Vec<(u32, f64)> = self.open_down.drain().collect();
        down.sort_unstable_by_key(|entry| entry.0);
        for (node, from) in down {
            let tid = self.node_tid(node);
            self.push_slice(
                "down".into(),
                tid,
                from,
                horizon.max(from),
                map(vec![("node", Value::Num(node as f64))]),
            );
        }
        // Merge the flow-engine timeline captured by telemetry.
        for ev in self.telemetry.take_timeline() {
            self.push_instant(
                ev.name.to_string(),
                PID_SIMULATOR,
                1.0,
                ev.sim_time,
                map(vec![("detail", Value::Str(ev.detail))]),
            );
        }
        let doc = map(vec![
            ("traceEvents", Value::Seq(std::mem::take(&mut self.events))),
            ("displayTimeUnit", Value::Str("ms".into())),
            (
                "otherData",
                map(vec![("generator", Value::Str("elastisim".into()))]),
            ),
        ]);
        let json = serde_json::to_string_pretty(&doc).expect("trace serialization cannot fail");
        writeln!(self.out, "{json}").map_err(|e| format!("chrome trace write failed: {e}"))?;
        self.out
            .flush()
            .map_err(|e| format!("chrome trace flush failed: {e}"))
    }
}

impl Drop for ChromeTraceWriter {
    fn drop(&mut self) {
        // Durability for runs that abort before `finish`: emit whatever was
        // collected so the trace file is never silently empty.
        if !self.finished {
            if let Err(e) = self.finish(0.0) {
                eprintln!("{e}");
            }
        }
    }
}
