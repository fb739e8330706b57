//! Benchmark-side probes attached only on traced repetitions: a timing
//! decorator around the scheduling algorithm and an event-counting
//! observer. Both are result-neutral (pinned by `tests/selftest.rs`).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use elastisim::{Observer, Outcome, SimEvent};
use elastisim_sched::{Decision, Invocation, Scheduler, SystemView};

/// What a [`TimedScheduler`] saw. Plain statistics, so `Relaxed` suffices.
#[derive(Default, Debug)]
pub struct SchedStats {
    /// Calls to `Scheduler::schedule`.
    pub invocations: AtomicU64,
    /// Nanoseconds spent inside them.
    pub nanos: AtomicU64,
    /// Decisions returned.
    pub decisions: AtomicU64,
    /// Calls that returned no decision.
    pub empty: AtomicU64,
    /// Summed `SystemView::jobs` lengths, for the mean view size.
    pub view_jobs: AtomicU64,
}

impl SchedStats {
    /// Adds `other`'s totals into `self`.
    pub fn absorb(&self, other: &SchedStats) {
        for (mine, theirs) in [
            (&self.invocations, &other.invocations),
            (&self.nanos, &other.nanos),
            (&self.decisions, &other.decisions),
            (&self.empty, &other.empty),
            (&self.view_jobs, &other.view_jobs),
        ] {
            mine.fetch_add(theirs.load(Relaxed), Relaxed);
        }
    }
}

/// Times every call into the wrapped algorithm, from outside it.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    stats: Arc<SchedStats>,
}

impl TimedScheduler {
    /// Wraps `inner`, accumulating into `stats`.
    pub fn new(inner: Box<dyn Scheduler>, stats: Arc<SchedStats>) -> Self {
        TimedScheduler { inner, stats }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, view: &SystemView, why: Invocation) -> Vec<Decision> {
        let start = Instant::now();
        let decisions = self.inner.schedule(view, why);
        let nanos = start.elapsed().as_nanos() as u64;
        let s = &self.stats;
        s.invocations.fetch_add(1, Relaxed);
        s.nanos.fetch_add(nanos, Relaxed);
        s.decisions.fetch_add(decisions.len() as u64, Relaxed);
        s.empty.fetch_add(decisions.is_empty() as u64, Relaxed);
        s.view_jobs.fetch_add(view.jobs.len() as u64, Relaxed);
        decisions
    }
}

/// What a [`CountingObserver`] saw.
#[derive(Default, Debug)]
pub struct EventCounts {
    /// Every `SimEvent` emitted.
    pub events: AtomicU64,
    /// Applied reconfigurations.
    pub reconfigs: AtomicU64,
    /// Jobs that ended any other way than completing.
    pub killed: AtomicU64,
}

/// Counts the simulation's externally observable events.
pub struct CountingObserver(pub Arc<EventCounts>);

impl Observer for CountingObserver {
    fn on_event(&mut self, event: &SimEvent) {
        self.0.events.fetch_add(1, Relaxed);
        match event {
            SimEvent::JobReconfigured { .. } => {
                self.0.reconfigs.fetch_add(1, Relaxed);
            }
            SimEvent::JobCompleted { outcome, .. } if *outcome != Outcome::Completed => {
                self.0.killed.fetch_add(1, Relaxed);
            }
            _ => {}
        }
    }
}
