//! Typed simulation events and the observer bus.
//!
//! The engine announces every externally meaningful state change as a
//! [`SimEvent`] on an internal bus. The built-in report statistics —
//! utilization change points, the Gantt trace, structured warnings — are
//! collectors listening on that bus, and user code can attach further
//! [`Observer`]s (e.g. the [`EventTraceWriter`] that streams the run as
//! JSON lines) via [`crate::Simulation::add_observer`] before running.
//!
//! Events are serde-serializable with an `"event"` discriminator tag, so a
//! JSONL event trace doubles as a machine-readable run log.

use std::collections::HashMap;
use std::io::Write;

use elastisim_platform::NodeId;
use elastisim_workload::JobId;
use serde::{Deserialize, Serialize};

use crate::stats::{GanttEntry, Outcome, UtilizationSeries, Warning, WarningKind};

/// One externally observable state change, stamped with simulated time.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum SimEvent {
    /// A job reached its submit time and entered the queue.
    JobSubmitted {
        /// Simulated time, seconds.
        time: f64,
        /// The submitted job.
        job: JobId,
    },
    /// A pending job started on an allocation.
    JobStarted {
        /// Simulated time, seconds.
        time: f64,
        /// The started job.
        job: JobId,
        /// The nodes allocated to it.
        nodes: Vec<NodeId>,
    },
    /// A reconfiguration was applied to a running job.
    JobReconfigured {
        /// Simulated time, seconds.
        time: f64,
        /// The reconfigured job.
        job: JobId,
        /// Nodes added to the allocation.
        added: Vec<NodeId>,
        /// Nodes removed from the allocation.
        removed: Vec<NodeId>,
        /// Allocation size after the change.
        new_size: u32,
    },
    /// A job left the system, releasing its allocation.
    JobCompleted {
        /// Simulated time, seconds.
        time: f64,
        /// The finished job.
        job: JobId,
        /// How it ended.
        outcome: Outcome,
        /// The nodes it held at the end (empty if it never started).
        released: Vec<NodeId>,
    },
    /// A node failed and is out of service.
    NodeFailed {
        /// Simulated time, seconds.
        time: f64,
        /// The failed node.
        node: NodeId,
    },
    /// A failed node was repaired and returned to service.
    NodeRepaired {
        /// Simulated time, seconds.
        time: f64,
        /// The repaired node.
        node: NodeId,
    },
    /// The engine rejected a scheduler decision as invalid.
    DecisionRejected {
        /// Simulated time, seconds.
        time: f64,
        /// The job the decision concerned.
        job: JobId,
        /// Why the decision was rejected.
        reason: String,
    },
    /// A lifecycle warning not tied to a decision (cancellations, stalls).
    Warning {
        /// Simulated time, seconds.
        time: f64,
        /// The job concerned, if any.
        #[serde(default)]
        job: Option<JobId>,
        /// Warning category.
        kind: WarningKind,
        /// Human-readable description.
        message: String,
    },
    /// The scheduler was invoked. Carries only deterministic facts (no
    /// wall-clock latency — that lives in the telemetry registry), so the
    /// event stream stays byte-identical across machines.
    SchedulerInvoked {
        /// Simulated time, seconds.
        time: f64,
        /// Why the scheduler ran (e.g. `periodic`, `submitted:job3`).
        reason: String,
        /// Number of decisions it returned.
        decisions: usize,
        /// Number of decisions the engine accepted (the rest were
        /// rejected as invalid).
        applied: usize,
    },
}

impl SimEvent {
    /// The simulated time the event carries.
    pub fn time(&self) -> f64 {
        match self {
            SimEvent::JobSubmitted { time, .. }
            | SimEvent::JobStarted { time, .. }
            | SimEvent::JobReconfigured { time, .. }
            | SimEvent::JobCompleted { time, .. }
            | SimEvent::NodeFailed { time, .. }
            | SimEvent::NodeRepaired { time, .. }
            | SimEvent::DecisionRejected { time, .. }
            | SimEvent::Warning { time, .. }
            | SimEvent::SchedulerInvoked { time, .. } => *time,
        }
    }
}

/// A listener on the simulation's event stream.
///
/// Observers are `Send` because a whole simulation run — observers
/// included — is a unit of work the campaign executor moves across
/// worker threads. Single-run observers still see events strictly in
/// emission order from one thread at a time.
pub trait Observer: Send {
    /// Called once per event, in emission order.
    fn on_event(&mut self, event: &SimEvent);

    /// Called once when the simulation ends (`horizon` is the latest job
    /// end time). Flush buffers here and report any deferred I/O failure;
    /// the error surfaces from the run as [`crate::SimError::Observer`].
    /// The default does nothing and succeeds.
    fn finish(&mut self, _horizon: f64) -> Result<(), String> {
        Ok(())
    }
}

/// Streams every event as one JSON line — a machine-readable run log.
///
/// Durability: the first write error is remembered and returned from
/// [`Observer::finish`] (subsequent events are dropped rather than
/// aborting the simulation mid-run), and the writer flushes both on
/// `finish` and on drop, so a trace is complete even if the run aborts
/// between the last event and `finish`. On top of that, the writer
/// flushes every 256 events, so a long-running campaign's trace can be
/// tailed live instead of only materializing at the end of the run.
pub struct EventTraceWriter {
    out: Box<dyn Write + Send>,
    /// First write error, kept until `finish` surfaces it.
    failed: Option<String>,
    finished: bool,
    /// Events written since the last flush.
    since_flush: usize,
}

impl EventTraceWriter {
    /// Periodic-flush interval, in events.
    const FLUSH_EVERY: usize = 256;

    /// Wraps any writer (a file, a `Vec<u8>`, a pipe).
    pub fn new(out: impl Write + Send + 'static) -> Self {
        EventTraceWriter {
            out: Box::new(out),
            failed: None,
            finished: false,
            since_flush: 0,
        }
    }

    /// Creates (truncating) a trace file at `path`, buffered.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(EventTraceWriter::new(std::io::BufWriter::new(file)))
    }
}

impl Observer for EventTraceWriter {
    fn on_event(&mut self, event: &SimEvent) {
        if self.failed.is_some() {
            return;
        }
        let line = serde_json::to_string(event).expect("event serialization cannot fail");
        if let Err(e) = writeln!(self.out, "{line}") {
            self.failed = Some(format!("event trace write failed, trace truncated: {e}"));
            return;
        }
        self.since_flush += 1;
        if self.since_flush >= Self::FLUSH_EVERY {
            self.since_flush = 0;
            if let Err(e) = self.out.flush() {
                self.failed = Some(format!("event trace flush failed, trace truncated: {e}"));
            }
        }
    }

    fn finish(&mut self, _horizon: f64) -> Result<(), String> {
        self.finished = true;
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        self.out
            .flush()
            .map_err(|e| format!("event trace flush failed: {e}"))
    }
}

impl Drop for EventTraceWriter {
    fn drop(&mut self) {
        // Last-resort durability for runs that abort before `finish`:
        // flush buffered lines, reporting (not panicking) on failure.
        if !self.finished && self.failed.is_none() {
            if let Err(e) = self.out.flush() {
                eprintln!("event trace flush failed on drop: {e}");
            }
        }
    }
}

/// Wraps an observer, recording the wall-clock cost of each `on_event`
/// into the named telemetry time histogram — used to measure the
/// invariant checker's overhead without touching its code.
pub struct TimedObserver {
    inner: Box<dyn Observer>,
    telemetry: elastisim_telemetry::Telemetry,
    metric: &'static str,
}

impl TimedObserver {
    /// Wraps `inner`; each `on_event` is timed into `metric`.
    pub fn new(
        inner: Box<dyn Observer>,
        telemetry: elastisim_telemetry::Telemetry,
        metric: &'static str,
    ) -> Self {
        TimedObserver {
            inner,
            telemetry,
            metric,
        }
    }
}

impl Observer for TimedObserver {
    fn on_event(&mut self, event: &SimEvent) {
        let _span = self.telemetry.span(self.metric);
        self.inner.on_event(event);
    }

    fn finish(&mut self, horizon: f64) -> Result<(), String> {
        self.inner.finish(horizon)
    }
}

/// Maintains the allocated-node change-point series.
pub(crate) struct UtilizationCollector {
    series: UtilizationSeries,
    allocated: u32,
}

impl UtilizationCollector {
    fn new() -> Self {
        let mut series = UtilizationSeries::default();
        series.record(0.0, 0);
        UtilizationCollector {
            series,
            allocated: 0,
        }
    }
}

impl Observer for UtilizationCollector {
    fn on_event(&mut self, event: &SimEvent) {
        match event {
            SimEvent::JobStarted { time, nodes, .. } => {
                self.allocated += nodes.len() as u32;
                self.series.record(*time, self.allocated);
            }
            SimEvent::JobReconfigured {
                time,
                added,
                removed,
                ..
            } => {
                self.allocated = self.allocated + added.len() as u32 - removed.len() as u32;
                self.series.record(*time, self.allocated);
            }
            SimEvent::JobCompleted { time, released, .. } => {
                self.allocated -= released.len() as u32;
                self.series.record(*time, self.allocated);
            }
            _ => {}
        }
    }
}

/// Builds the Gantt trace from start/reconfigure/complete events.
pub(crate) struct GanttCollector {
    enabled: bool,
    open: HashMap<(JobId, NodeId), f64>,
    entries: Vec<GanttEntry>,
}

impl GanttCollector {
    fn new(enabled: bool) -> Self {
        GanttCollector {
            enabled,
            open: HashMap::new(),
            entries: Vec::new(),
        }
    }

    fn open(&mut self, job: JobId, node: NodeId, now: f64) {
        if self.enabled {
            self.open.insert((job, node), now);
        }
    }

    fn close(&mut self, job: JobId, node: NodeId, now: f64) {
        if let Some(from) = self.open.remove(&(job, node)) {
            self.entries.push(GanttEntry {
                job,
                node,
                from,
                to: now,
            });
        }
    }

    /// Closes intervals left open by an aborted run at `horizon` and
    /// returns the sorted trace.
    fn finish(mut self, horizon: f64) -> Vec<GanttEntry> {
        let open: Vec<((JobId, NodeId), f64)> = self.open.drain().collect();
        for ((job, node), from) in open {
            self.entries.push(GanttEntry {
                job,
                node,
                from,
                to: horizon.max(from),
            });
        }
        self.entries.sort_by(|a, b| {
            a.from
                .total_cmp(&b.from)
                .then(a.job.cmp(&b.job))
                .then(a.node.cmp(&b.node))
        });
        self.entries
    }
}

impl Observer for GanttCollector {
    fn on_event(&mut self, event: &SimEvent) {
        match event {
            SimEvent::JobStarted { time, job, nodes } => {
                for &node in nodes {
                    self.open(*job, node, *time);
                }
            }
            SimEvent::JobReconfigured {
                time,
                job,
                added,
                removed,
                ..
            } => {
                for &node in removed {
                    self.close(*job, node, *time);
                }
                for &node in added {
                    self.open(*job, node, *time);
                }
            }
            SimEvent::JobCompleted {
                time,
                job,
                released,
                ..
            } => {
                for &node in released {
                    self.close(*job, node, *time);
                }
            }
            _ => {}
        }
    }
}

/// Turns rejection and warning events into structured [`Warning`]s.
pub(crate) struct WarningCollector {
    warnings: Vec<Warning>,
}

impl Observer for WarningCollector {
    fn on_event(&mut self, event: &SimEvent) {
        match event {
            SimEvent::DecisionRejected { time, job, reason } => self.warnings.push(Warning {
                time: *time,
                job: Some(*job),
                kind: WarningKind::DecisionRejected,
                message: reason.clone(),
            }),
            SimEvent::Warning {
                time,
                job,
                kind,
                message,
            } => self.warnings.push(Warning {
                time: *time,
                job: *job,
                kind: *kind,
                message: message.clone(),
            }),
            _ => {}
        }
    }
}

/// The engine's event bus: the three report collectors plus any externally
/// attached observers, all receiving every event in emission order.
pub(crate) struct EventBus {
    util: UtilizationCollector,
    gantt: GanttCollector,
    warnings: WarningCollector,
    external: Vec<Box<dyn Observer>>,
}

impl EventBus {
    pub(crate) fn new(record_gantt: bool) -> Self {
        EventBus {
            util: UtilizationCollector::new(),
            gantt: GanttCollector::new(record_gantt),
            warnings: WarningCollector {
                warnings: Vec::new(),
            },
            external: Vec::new(),
        }
    }

    pub(crate) fn add_observer(&mut self, observer: Box<dyn Observer>) {
        self.external.push(observer);
    }

    pub(crate) fn emit(&mut self, event: SimEvent) {
        self.util.on_event(&event);
        self.gantt.on_event(&event);
        self.warnings.on_event(&event);
        for obs in &mut self.external {
            obs.on_event(&event);
        }
    }

    /// Finishes every collector and returns the report pieces:
    /// `(utilization, gantt, warnings)`. Every external observer's
    /// `finish` runs (so all of them get to flush) before the first
    /// failure, if any, is reported.
    pub(crate) fn into_parts(
        mut self,
        horizon: f64,
    ) -> Result<(UtilizationSeries, Vec<GanttEntry>, Vec<Warning>), String> {
        let mut first_err = None;
        for obs in &mut self.external {
            if let Err(e) = obs.finish(horizon) {
                first_err.get_or_insert(e);
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok((
            self.util.series,
            self.gantt.finish(horizon),
            self.warnings.warnings,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(time: f64, job: u64, nodes: &[u32]) -> SimEvent {
        SimEvent::JobStarted {
            time,
            job: JobId(job),
            nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
        }
    }

    fn completed(time: f64, job: u64, nodes: &[u32]) -> SimEvent {
        SimEvent::JobCompleted {
            time,
            job: JobId(job),
            outcome: Outcome::Completed,
            released: nodes.iter().map(|&n| NodeId(n)).collect(),
        }
    }

    #[test]
    fn bus_collects_utilization_and_gantt() {
        let mut bus = EventBus::new(true);
        bus.emit(started(10.0, 1, &[0, 1]));
        bus.emit(SimEvent::JobReconfigured {
            time: 20.0,
            job: JobId(1),
            added: vec![NodeId(2)],
            removed: vec![NodeId(0)],
            new_size: 2,
        });
        bus.emit(completed(30.0, 1, &[1, 2]));
        let (util, gantt, warnings) = bus.into_parts(30.0).unwrap();
        assert_eq!(util.points, vec![(0.0, 0), (10.0, 2), (30.0, 0)]);
        // Three intervals: node0 [10,20], node1 [10,30], node2 [20,30].
        assert_eq!(gantt.len(), 3);
        assert_eq!(gantt[0].node, NodeId(0));
        assert_eq!(gantt[0].to, 20.0);
        assert!(warnings.is_empty());
    }

    #[test]
    fn gantt_disabled_records_nothing() {
        let mut bus = EventBus::new(false);
        bus.emit(started(0.0, 1, &[0]));
        bus.emit(completed(5.0, 1, &[0]));
        let (_, gantt, _) = bus.into_parts(5.0).unwrap();
        assert!(gantt.is_empty());
    }

    #[test]
    fn aborted_run_closes_open_intervals_at_horizon() {
        let mut bus = EventBus::new(true);
        bus.emit(started(10.0, 1, &[0]));
        let (_, gantt, _) = bus.into_parts(42.0).unwrap();
        assert_eq!(gantt.len(), 1);
        assert_eq!(gantt[0].to, 42.0);
    }

    #[test]
    fn warning_events_become_structured_warnings() {
        let mut bus = EventBus::new(false);
        bus.emit(SimEvent::DecisionRejected {
            time: 1.0,
            job: JobId(3),
            reason: "start: job3 given non-free nodes".into(),
        });
        bus.emit(SimEvent::Warning {
            time: 2.0,
            job: None,
            kind: WarningKind::NoProgress,
            message: "scheduler made no progress".into(),
        });
        let (_, _, warnings) = bus.into_parts(2.0).unwrap();
        assert_eq!(warnings.len(), 2);
        assert_eq!(warnings[0].kind, WarningKind::DecisionRejected);
        assert_eq!(warnings[0].job, Some(JobId(3)));
        assert_eq!(warnings[0].to_string(), "start: job3 given non-free nodes");
        assert_eq!(warnings[1].kind, WarningKind::NoProgress);
        assert_eq!(warnings[1].job, None);
    }

    #[test]
    fn external_observers_see_every_event() {
        struct Counter(std::sync::Arc<std::sync::Mutex<usize>>);
        impl Observer for Counter {
            fn on_event(&mut self, _: &SimEvent) {
                *self.0.lock().unwrap() += 1;
            }
        }
        let count = std::sync::Arc::new(std::sync::Mutex::new(0));
        let mut bus = EventBus::new(false);
        bus.add_observer(Box::new(Counter(count.clone())));
        bus.emit(started(0.0, 1, &[0]));
        bus.emit(completed(1.0, 1, &[0]));
        bus.into_parts(1.0).unwrap();
        assert_eq!(*count.lock().unwrap(), 2);
    }

    #[test]
    fn event_trace_writer_emits_tagged_json_lines() {
        use std::io::Read;
        let path =
            std::env::temp_dir().join(format!("elastisim-trace-{}.jsonl", std::process::id()));
        let mut writer = EventTraceWriter::create(&path).unwrap();
        writer.on_event(&started(0.0, 7, &[1]));
        writer.on_event(&SimEvent::NodeFailed {
            time: 3.5,
            node: NodeId(1),
        });
        writer.finish(3.5).unwrap();
        drop(writer);
        let mut text = String::new();
        std::fs::File::open(&path)
            .unwrap()
            .read_to_string(&mut text)
            .unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains(r#""event":"job_started""#),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains(r#""event":"node_failed""#),
            "{}",
            lines[1]
        );
        // Lines parse back into events.
        let back: SimEvent = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(
            back,
            SimEvent::NodeFailed {
                time: 3.5,
                node: NodeId(1)
            }
        );
    }

    /// A sink shared with the test so flushes through a `BufWriter` are
    /// observable after the writer is gone.
    #[derive(Clone, Default)]
    struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl SharedSink {
        fn contents(&self) -> Vec<u8> {
            self.0.lock().unwrap().clone()
        }
    }

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A writer that fails every operation.
    struct BrokenSink;

    impl Write for BrokenSink {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn event_trace_write_errors_surface_from_finish() {
        let mut writer = EventTraceWriter::new(BrokenSink);
        writer.on_event(&started(0.0, 1, &[0]));
        writer.on_event(&completed(1.0, 1, &[0])); // dropped, not retried
        let err = writer.finish(1.0).unwrap_err();
        assert!(err.contains("disk full"), "{err}");
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn event_trace_write_errors_fail_the_run() {
        use crate::SimError;
        let mut bus = EventBus::new(false);
        bus.add_observer(Box::new(EventTraceWriter::new(BrokenSink)));
        bus.emit(started(0.0, 1, &[0]));
        let err = bus.into_parts(1.0).unwrap_err();
        let sim_err = SimError::Observer { message: err };
        assert!(sim_err.to_string().contains("disk full"), "{sim_err}");
    }

    #[test]
    fn event_trace_writer_flushes_buffered_lines_on_drop() {
        let sink = SharedSink::default();
        let mut writer = EventTraceWriter::new(std::io::BufWriter::new(sink.clone()));
        writer.on_event(&started(0.0, 7, &[1]));
        // The line is small enough to still sit in the BufWriter.
        drop(writer);
        let text = String::from_utf8(sink.contents()).unwrap();
        assert!(text.contains(r#""event":"job_started""#), "{text}");
    }

    #[test]
    fn event_trace_writer_flushes_periodically_mid_run() {
        let sink = SharedSink::default();
        // A buffer large enough that it never spills on its own, so every
        // line that reaches the sink was flushed by the writer.
        let buffered = std::io::BufWriter::with_capacity(1 << 20, sink.clone());
        let mut writer = EventTraceWriter::new(buffered);
        let every = EventTraceWriter::FLUSH_EVERY as u64;
        for i in 0..every - 1 {
            writer.on_event(&started(i as f64, i, &[0]));
        }
        // One event short of the interval: everything still sits in the
        // BufWriter.
        assert!(sink.contents().is_empty());
        writer.on_event(&started((every - 1) as f64, every - 1, &[0]));
        // The event that reaches the interval makes the lines visible live.
        let lines = |sink: &SharedSink| String::from_utf8(sink.contents()).unwrap().lines().count();
        assert_eq!(lines(&sink), every as usize);
        // And the interval re-arms rather than flushing every event after.
        writer.on_event(&started(every as f64, every, &[0]));
        assert_eq!(lines(&sink), every as usize);
        writer.finish(every as f64 + 1.0).unwrap();
        assert_eq!(lines(&sink), every as usize + 1);
    }

    #[test]
    fn events_roundtrip_through_json() {
        let events = vec![
            SimEvent::JobSubmitted {
                time: 0.0,
                job: JobId(1),
            },
            started(1.0, 1, &[0, 1]),
            SimEvent::JobReconfigured {
                time: 2.0,
                job: JobId(1),
                added: vec![NodeId(2)],
                removed: vec![],
                new_size: 3,
            },
            completed(3.0, 1, &[0, 1, 2]),
            SimEvent::NodeRepaired {
                time: 4.0,
                node: NodeId(0),
            },
            SimEvent::DecisionRejected {
                time: 5.0,
                job: JobId(2),
                reason: "start: job2 is not pending".into(),
            },
            SimEvent::Warning {
                time: 6.0,
                job: Some(JobId(2)),
                kind: WarningKind::TaskFailed,
                message: "job2: task `t` failed".into(),
            },
        ];
        for ev in events {
            let json = serde_json::to_string(&ev).unwrap();
            let back: SimEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ev);
            assert_eq!(back.time(), ev.time());
        }
    }
}
