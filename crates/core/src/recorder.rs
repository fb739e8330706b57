//! Flight recorder: a bounded ring of recent [`SimEvent`]s for post-mortems.
//!
//! When a run dies — a scheduler panic, a fatal [`SimError`], an invariant
//! violation — the one-line error message says *what* happened but not
//! what the simulation was doing. The flight recorder keeps the last N
//! events of the observer stream in a fixed-size ring; on failure the
//! campaign executor (or the CLI) dumps the ring, the run's identity, and
//! the telemetry snapshot as one structured JSON document
//! ([`FlightRecorder::write_postmortem`]), turning an ephemeral fuzzer or
//! production failure into a diagnosable artifact.
//!
//! Like [`InvariantChecker`](crate::InvariantChecker), the recorder is a
//! handle around `Arc<Mutex<…>>`: [`FlightRecorder::observer`] hands the
//! simulation a recording observer while the caller keeps the handle, so
//! the ring survives `Simulation::try_run` consuming the simulation — and
//! survives the panic that made the dump necessary (locks forgive
//! poisoning). The observer buffers its tail locally and publishes it to
//! the shared ring on drop — which happens during panic unwinding too —
//! so the per-event path touches no lock and no shared state. Recording
//! never feeds back into simulation decisions, so reports are
//! byte-identical with or without a recorder attached.
//!
//! [`SimError`]: crate::SimError

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use elastisim_telemetry::log::{field, Logger};
use elastisim_telemetry::MetricsSnapshot;
use serde::Value;

use crate::observe::{Observer, SimEvent};

/// Format tag stamped into every post-mortem document.
pub const POSTMORTEM_FORMAT: &str = "pm1";

/// Ring capacity: enough tail to see the scheduling decisions leading
/// into a failure without post-mortems growing unbounded.
pub const RING_CAPACITY: usize = 256;

struct RecorderState {
    ring: VecDeque<SimEvent>,
    seen: u64,
}

/// Bounded ring-buffer of the most recent simulation events.
///
/// Cheap to clone; clones share the ring. See the module docs for the
/// intended panic-surviving usage pattern.
#[derive(Clone)]
pub struct FlightRecorder {
    state: Arc<Mutex<RecorderState>>,
}

fn lock(state: &Mutex<RecorderState>) -> MutexGuard<'_, RecorderState> {
    state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Appends `event` to a ring holding at most [`RING_CAPACITY`] events.
fn push_bounded(ring: &mut VecDeque<SimEvent>, event: SimEvent) {
    if ring.len() == RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(event);
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// A recorder keeping the last [`RING_CAPACITY`] events.
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            state: Arc::new(Mutex::new(RecorderState {
                ring: VecDeque::with_capacity(RING_CAPACITY),
                seen: 0,
            })),
        }
    }

    /// A boxed observer feeding this recorder, for
    /// [`Simulation::add_observer`](crate::Simulation::add_observer).
    ///
    /// The observer buffers events in a ring it owns — no lock, no shared
    /// state on the per-event path — and publishes into this handle's
    /// shared ring when it is dropped. Dropping is exactly when the tail
    /// becomes readable: a completed or failed `try_run` has consumed the
    /// simulation (observers and all), and a panicking run drops its
    /// observers during unwinding, before `catch_unwind` returns to the
    /// code that dumps the post-mortem. Readers that hold an observer
    /// directly (tests, custom harnesses) must drop it before inspecting
    /// the handle.
    pub fn observer(&self) -> Box<dyn Observer> {
        Box::new(RecorderObserver {
            ring: VecDeque::with_capacity(RING_CAPACITY),
            seen: 0,
            recorder: self.clone(),
        })
    }

    /// Total events observed, including those evicted from the ring.
    pub fn events_seen(&self) -> u64 {
        lock(&self.state).seen
    }

    /// The retained tail of the event stream, oldest first.
    pub fn events(&self) -> Vec<SimEvent> {
        lock(&self.state).ring.iter().cloned().collect()
    }

    /// Renders a structured post-mortem document.
    ///
    /// * `reason` — machine-readable failure class (`"panicked"`,
    ///   `"sim_error"`, `"invariant_violation"`);
    /// * `message` — the human-readable error;
    /// * `context` — run identity (campaign id, fingerprint, run id,
    ///   scheduler, …), emitted in the given order;
    /// * `metrics` — the run's telemetry snapshot at time of death.
    ///
    /// The document is pretty-printed JSON tagged with
    /// [`POSTMORTEM_FORMAT`] and carries the ring (`events`, oldest
    /// first), the total `events_seen`, and the `ring_capacity` so
    /// consumers can tell a complete stream from a truncated tail.
    pub fn postmortem_json(
        &self,
        reason: &str,
        message: &str,
        context: &[(&str, Value)],
        metrics: &MetricsSnapshot,
    ) -> String {
        let st = lock(&self.state);
        let mut map = vec![
            (
                "postmortem".to_owned(),
                Value::Str(POSTMORTEM_FORMAT.to_owned()),
            ),
            ("reason".to_owned(), Value::Str(reason.to_owned())),
            ("message".to_owned(), Value::Str(message.to_owned())),
        ];
        for (k, v) in context {
            map.push(((*k).to_owned(), v.clone()));
        }
        map.push(("events_seen".to_owned(), Value::Num(st.seen as f64)));
        map.push(("ring_capacity".to_owned(), Value::Num(RING_CAPACITY as f64)));
        let events: Vec<Value> = st
            .ring
            .iter()
            .map(|e| serde::to_value(e).expect("SimEvent serializes"))
            .collect();
        map.push(("events".to_owned(), Value::Seq(events)));
        map.push((
            "metrics".to_owned(),
            serde::to_value(metrics).expect("snapshot serializes"),
        ));
        serde_json::to_string_pretty(&Value::Map(map)).expect("postmortem serializes")
    }

    /// Writes the [`postmortem_json`](Self::postmortem_json) document to
    /// `path`, creating its directory, and logs `postmortem_written` (with
    /// the path) or `postmortem_write_failed` (with the error) on `logger`.
    /// A failed dump is logged and swallowed, so diagnostics never mask
    /// the failure they describe. Returns the path when the file was
    /// written.
    pub fn write_postmortem(
        &self,
        path: &Path,
        reason: &str,
        message: &str,
        context: &[(&str, Value)],
        metrics: &MetricsSnapshot,
        logger: &Logger,
    ) -> Option<PathBuf> {
        let json = self.postmortem_json(reason, message, context, metrics);
        let dir = path.parent().unwrap_or(Path::new(""));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, json.as_bytes()));
        match written {
            Ok(()) => {
                logger.error(
                    "postmortem_written",
                    &[field("path", path.display().to_string())],
                );
                Some(path.to_path_buf())
            }
            Err(e) => {
                logger.error("postmortem_write_failed", &[field("error", e.to_string())]);
                None
            }
        }
    }
}

struct RecorderObserver {
    /// Locally owned tail: always holds the last [`RING_CAPACITY`] events this
    /// observer saw, so it can replace the shared ring wholesale on drop.
    ring: VecDeque<SimEvent>,
    seen: u64,
    recorder: FlightRecorder,
}

impl Observer for RecorderObserver {
    fn on_event(&mut self, event: &SimEvent) {
        push_bounded(&mut self.ring, event.clone());
        self.seen += 1;
    }
}

impl Drop for RecorderObserver {
    fn drop(&mut self) {
        // Publish the buffered tail. Runs on normal completion (`try_run`
        // consumes the simulation) and during panic unwinding alike; the
        // lock forgives poisoning, so this cannot double-panic.
        let mut st = lock(&self.recorder.state);
        st.seen += self.seen;
        for event in self.ring.drain(..) {
            push_bounded(&mut st.ring, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invoked(time: f64, i: usize) -> SimEvent {
        SimEvent::SchedulerInvoked {
            time,
            reason: format!("r{i}"),
            decisions: i,
            applied: 0,
        }
    }

    /// Feeds `n` events through one observer of `rec` and publishes them.
    fn record(rec: &FlightRecorder, n: usize) {
        let mut obs = rec.observer();
        for i in 0..n {
            obs.on_event(&invoked(i as f64, i));
        }
        // The observer publishes its buffered tail on drop.
        drop(obs);
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let rec = FlightRecorder::new();
        record(&rec, RING_CAPACITY + 2);
        assert_eq!(rec.events_seen(), RING_CAPACITY as u64 + 2);
        let tail = rec.events();
        assert_eq!(tail.len(), RING_CAPACITY);
        assert_eq!(tail[0].time(), 2.0);
        assert_eq!(tail[RING_CAPACITY - 1].time(), (RING_CAPACITY + 1) as f64);
    }

    #[test]
    fn clones_share_the_ring() {
        let rec = FlightRecorder::new();
        record(&rec.clone(), 1);
        assert_eq!(rec.events_seen(), 1);
    }

    #[test]
    fn postmortem_is_structured_json() {
        let rec = FlightRecorder::new();
        record(&rec, RING_CAPACITY + 2);
        let t = elastisim_telemetry::Telemetry::enabled();
        t.counter_add("des.events_delivered", 4);
        let json = rec.postmortem_json(
            "panicked",
            "scheduler exploded",
            &[
                ("run_id", Value::Num(3.0)),
                ("fingerprint", Value::Str("sfp1-abc".to_owned())),
            ],
            &t.snapshot(),
        );
        let parsed = serde_json::parse_value(&json).expect("valid JSON");
        let Value::Map(mut map) = parsed else {
            panic!("postmortem is not an object");
        };
        assert_eq!(
            serde::map_take(&mut map, "postmortem"),
            Some(Value::Str(POSTMORTEM_FORMAT.to_owned()))
        );
        assert_eq!(
            serde::map_take(&mut map, "reason"),
            Some(Value::Str("panicked".to_owned()))
        );
        assert_eq!(serde::map_take(&mut map, "run_id"), Some(Value::Num(3.0)));
        assert_eq!(
            serde::map_take(&mut map, "events_seen"),
            Some(Value::Num((RING_CAPACITY + 2) as f64))
        );
        assert_eq!(
            serde::map_take(&mut map, "ring_capacity"),
            Some(Value::Num(RING_CAPACITY as f64))
        );
        let Some(Value::Seq(events)) = serde::map_take(&mut map, "events") else {
            panic!("events missing");
        };
        assert_eq!(events.len(), RING_CAPACITY);
        let Some(Value::Map(metrics)) = serde::map_take(&mut map, "metrics") else {
            panic!("metrics missing");
        };
        assert!(metrics.iter().any(|(k, _)| k == "counters"));
    }

    #[test]
    fn recorder_survives_a_panicking_holder() {
        let rec = FlightRecorder::new();
        let clone = rec.clone();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut obs = clone.observer();
            obs.on_event(&invoked(0.0, 0));
            panic!("simulated run panic");
        }));
        // Unwinding published the tail, and the ring is still usable.
        record(&rec, 1);
        assert_eq!(rec.events_seen(), 2);
        assert!(!rec
            .postmortem_json("panicked", "boom", &[], &MetricsSnapshot::default())
            .is_empty());
    }

    /// A shared log buffer, readable after the logger is done with it.
    #[derive(Clone, Default)]
    struct LogBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for LogBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_postmortem_writes_the_dump_or_logs_why_not() {
        let dir = std::env::temp_dir().join(format!("elastisim-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new();
        record(&rec, 3);
        let log = LogBuf::default();
        let logger = Logger::to_writer(log.clone(), elastisim_telemetry::log::Level::Debug);
        let metrics = MetricsSnapshot::default();
        let path = dir.join("nested").join("pm.json");
        let written = rec.write_postmortem(&path, "sim_error", "boom", &[], &metrics, &logger);
        assert_eq!(written.as_deref(), Some(path.as_path()));
        let dump = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            dump,
            rec.postmortem_json("sim_error", "boom", &[], &metrics)
        );
        // A path under a regular file cannot be created: logged, not raised.
        let blocked = path.join("pm.json");
        let written = rec.write_postmortem(&blocked, "sim_error", "boom", &[], &metrics, &logger);
        assert_eq!(written, None);
        let text = String::from_utf8(log.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains(r#""event":"postmortem_written""#), "{text}");
        assert!(
            text.contains(r#""event":"postmortem_write_failed""#),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
