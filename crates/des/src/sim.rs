//! The discrete-event simulator driver.
//!
//! [`Simulator`] combines the deterministic event queue with the flow-level
//! resource model. Users interact through an *inverted* control flow that
//! sidesteps callback-borrowing problems: every timer and every activity
//! carries a user-defined payload `E`, and [`Simulator::step`] hands back
//! `(time, payload)` pairs in deterministic order. The caller owns the world
//! state and mutates it between steps:
//!
//! ```
//! use elastisim_des::{Simulator, ActivitySpec, Time};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick, ComputeDone }
//!
//! let mut sim = Simulator::new();
//! let cpu = sim.add_resource(100.0); // 100 flop/s
//! sim.schedule_at(Time::from_secs(1.0), Ev::Tick);
//! sim.start_activity(ActivitySpec::new(500.0, [cpu]), Ev::ComputeDone);
//!
//! assert!(matches!(sim.step(), Some((t, Ev::Tick)) if t == Time::from_secs(1.0)));
//! assert!(matches!(sim.step(), Some((t, Ev::ComputeDone)) if t == Time::from_secs(5.0)));
//! assert!(sim.step().is_none());
//! ```

use std::collections::{HashMap, VecDeque};

use elastisim_telemetry::{LogHistogram, Telemetry};

use crate::flow::{ActivityId, ActivitySpec, FlowNetwork, ResourceId, SolveKind};
use crate::queue::{EntryId, EventQueue};
use crate::time::Time;

/// Handle to a scheduled timer, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId(EntryId);

enum Internal<E> {
    User(E),
    /// Wake-up at a predicted flow completion instant.
    FlowWake,
}

/// Sampling cadence for the per-recompute *histograms* (re-solve wall
/// time, solved-activity counts, queue depth): only every Nth refresh
/// records them. Counters (`flow.resolves_*`) stay exact — they are
/// single integer increments — but histogram records touch several cache
/// lines each and the timing one reads the clock twice, which together
/// would dominate small simulations if paid on every recompute. Power of
/// two, so the cadence check compiles to a mask.
const FLOW_STATS_SAMPLE: u64 = 8;

/// Locally-batched flow/queue statistics, published to the telemetry
/// registry in one burst by [`Simulator::flush_telemetry`]. Recording
/// into plain fields costs a few arithmetic ops per re-solve; registry
/// calls each take a mutex plus a map lookup, which dominates small
/// simulations when paid per recompute.
#[derive(Default)]
struct FlowStats {
    /// Refresh calls so far, driving the sample cadence.
    refreshes: u64,
    /// Wall time per re-solve, sampled 1-in-[`FLOW_STATS_SAMPLE`] (its
    /// `count` is the sample count, not the recompute count — same for
    /// the other histograms here).
    resolve_seconds: LogHistogram,
    resolve_activities: LogHistogram,
    resolves_full: u64,
    resolves_partial: u64,
    queue_depth: LogHistogram,
}

/// A discrete-event simulator with flow-level resource sharing.
///
/// `E` is the caller's event payload type; it is returned verbatim when the
/// timer fires or the activity completes.
pub struct Simulator<E> {
    now: Time,
    queue: EventQueue<Internal<E>>,
    flow: FlowNetwork,
    payloads: HashMap<ActivityId, E>,
    ready: VecDeque<E>,
    /// Pending flow wake-up and the instant it is scheduled for; the time
    /// lets `refresh_flow` skip the cancel + re-push when a recompute left
    /// the predicted completion unchanged.
    flow_timer: Option<(EntryId, Time)>,
    events_delivered: u64,
    /// Simulator-internals metrics (disabled by default: a no-op handle).
    telemetry: Telemetry,
    /// Batched per-recompute statistics awaiting a flush.
    stats: FlowStats,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates a simulator at time zero with no resources.
    pub fn new() -> Self {
        Simulator {
            now: Time::ZERO,
            queue: EventQueue::new(),
            flow: FlowNetwork::new(),
            payloads: HashMap::new(),
            ready: VecDeque::new(),
            flow_timer: None,
            events_delivered: 0,
            telemetry: Telemetry::disabled(),
            stats: FlowStats::default(),
        }
    }

    /// Attaches a telemetry handle; flow re-solves and event-queue depth
    /// are recorded through it. The default handle is disabled (no-op).
    ///
    /// Per-recompute statistics are batched locally and only reach the
    /// registry when [`flush_telemetry`](Self::flush_telemetry) runs —
    /// the engine does this at end of run; raw `Simulator` users should
    /// flush before snapshotting the handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Publishes the locally-batched flow/queue statistics (re-solve
    /// timings, solve-kind counts, queue depth)
    /// to the attached telemetry handle. Each call publishes only what
    /// accumulated since the previous one, so flushing twice never
    /// double-counts; a disabled handle makes this a no-op.
    pub fn flush_telemetry(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let stats = std::mem::take(&mut self.stats);
        self.telemetry
            .observe_batch("flow.resolve_seconds", &stats.resolve_seconds);
        self.telemetry
            .observe_batch("flow.resolve_activities", &stats.resolve_activities);
        if stats.resolves_full > 0 {
            self.telemetry
                .counter_add("flow.resolves_full", stats.resolves_full);
        }
        if stats.resolves_partial > 0 {
            self.telemetry
                .counter_add("flow.resolves_partial", stats.resolves_partial);
        }
        self.telemetry
            .observe_batch("des.queue.depth", &stats.queue_depth);
    }

    /// How many times the event-queue heap compacted away cancelled
    /// entries (telemetry counter `des.queue.compactions`).
    pub fn queue_compactions(&self) -> u64 {
        self.queue.compactions()
    }

    /// Live (scheduled, not yet fired or cancelled) event-queue entries
    /// (telemetry gauge `des.queue.live_entries`).
    pub fn queue_live_entries(&self) -> usize {
        self.queue.len()
    }

    /// Cancelled entries still occupying heap slots awaiting a pop-skip or
    /// compaction (telemetry gauge `des.queue.cancelled_entries`).
    pub fn queue_cancelled_entries(&self) -> usize {
        self.queue.cancelled_len()
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of user events delivered so far.
    pub fn events_delivered(&self) -> u64 {
        self.events_delivered
    }

    /// Number of sharing-fixed-point recomputations performed so far.
    pub fn recompute_count(&self) -> u64 {
        self.flow.recompute_count()
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Schedules `payload` at absolute time `t` (must not be in the past).
    pub fn schedule_at(&mut self, t: Time, payload: E) -> TimerId {
        assert!(
            t >= self.now,
            "cannot schedule in the past: {t} < {}",
            self.now
        );
        TimerId(self.queue.push(t, Internal::User(payload)))
    }

    /// Cancels a timer; `true` if it had not fired yet.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        self.queue.cancel(id.0)
    }

    // ------------------------------------------------------------------
    // Resources and activities
    // ------------------------------------------------------------------

    /// Adds a shared resource (capacity in work-units per second).
    pub fn add_resource(&mut self, capacity: f64) -> ResourceId {
        self.flow.add_resource(capacity)
    }

    /// Current capacity of a resource.
    pub fn capacity(&self, id: ResourceId) -> f64 {
        self.flow.capacity(id)
    }

    /// Starts an activity whose completion delivers `payload`.
    pub fn start_activity(&mut self, spec: ActivitySpec, payload: E) -> ActivityId {
        self.flow.advance_to(self.now);
        let id = self.flow.start(spec);
        self.payloads.insert(id, payload);
        self.refresh_flow();
        id
    }

    /// Cancels an activity, returning `(remaining work, payload)`, or
    /// `None` if it already completed.
    pub fn cancel_activity(&mut self, id: ActivityId) -> Option<(f64, E)> {
        self.flow.advance_to(self.now);
        let remaining = self.flow.cancel(id)?;
        let payload = self
            .payloads
            .remove(&id)
            .expect("live activity always has a payload");
        self.refresh_flow();
        Some((remaining, payload))
    }

    /// Activities stuck at rate zero (deadlock diagnostics).
    pub fn stalled_activities(&self) -> Vec<ActivityId> {
        self.flow.stalled()
    }

    // ------------------------------------------------------------------
    // Driving
    // ------------------------------------------------------------------

    /// Advances the simulation and returns the next `(time, payload)` pair,
    /// or `None` when nothing remains to happen. Activities stalled at rate
    /// zero do *not* keep the simulation alive; inspect
    /// [`Simulator::stalled_activities`] if `None` arrives unexpectedly.
    pub fn step(&mut self) -> Option<(Time, E)> {
        loop {
            if let Some(payload) = self.ready.pop_front() {
                self.events_delivered += 1;
                return Some((self.now, payload));
            }
            let (t, internal) = self.queue.pop()?;
            debug_assert!(t >= self.now);
            self.now = t;
            match internal {
                Internal::User(payload) => {
                    self.flow.advance_to(t);
                    self.events_delivered += 1;
                    return Some((t, payload));
                }
                Internal::FlowWake => {
                    self.flow_timer = None;
                    self.flow.advance_to(t);
                    for act in self.flow.harvest_completed() {
                        let payload = self
                            .payloads
                            .remove(&act)
                            .expect("completed activity has a payload");
                        self.ready.push_back(payload);
                    }
                    self.refresh_flow();
                    // Loop: deliver from `ready`, or (if the wake was
                    // spurious) pop the next event.
                }
            }
        }
    }

    /// Re-solves sharing and (re)schedules the flow wake-up at the next
    /// predicted completion. When the prediction is unchanged the pending
    /// timer is left alone, sparing the event queue a cancel + push per
    /// recompute.
    fn refresh_flow(&mut self) {
        if self.telemetry.is_enabled() {
            // Record into the local batch only — no registry call on this
            // path. The batch is published by `flush_telemetry` once per
            // run, keeping the enabled-telemetry cost per recompute to a
            // few integer ops (histograms and the clock-read pair only on
            // sampled refreshes).
            let sample = self.stats.refreshes.is_multiple_of(FLOW_STATS_SAMPLE);
            self.stats.refreshes += 1;
            let start = sample.then(std::time::Instant::now);
            if self.flow.recompute() {
                if let Some(start) = start {
                    self.stats
                        .resolve_seconds
                        .record(start.elapsed().as_secs_f64());
                }
                let (activities, kind) = self.flow.last_solve();
                if sample {
                    self.stats.resolve_activities.record(activities as f64);
                }
                match kind {
                    SolveKind::Full => self.stats.resolves_full += 1,
                    SolveKind::Partial => self.stats.resolves_partial += 1,
                }
                if self.telemetry.timeline_enabled() {
                    // The detail string is pinned by the Chrome-trace
                    // golden: keep "full=" (did the solve cover all live
                    // activities).
                    let full = kind.is_full();
                    self.telemetry
                        .timeline_push(self.now.as_secs(), "flow.resolve", || {
                            format!("activities={activities} full={full}")
                        });
                }
            }
            if sample {
                self.stats.queue_depth.record(self.queue.len() as f64);
            }
        } else {
            self.flow.recompute();
        }
        // Completion can be fractionally in the past due to float
        // round-off; clamp to now.
        let predicted = self.flow.next_completion().map(|t| t.max(self.now));
        if let (Some((_, current)), Some(t)) = (self.flow_timer, predicted) {
            if current == t {
                return;
            }
        }
        if let Some((timer, _)) = self.flow_timer.take() {
            self.queue.cancel(timer);
        }
        if let Some(t) = predicted {
            self.flow_timer = Some((self.queue.push(t, Internal::FlowWake), t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> Time {
        Time::from_secs(s)
    }

    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Ev {
        Timer(u32),
        Done(u32),
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim: Simulator<Ev> = Simulator::new();
        sim.schedule_at(t(2.0), Ev::Timer(2));
        sim.schedule_at(t(1.0), Ev::Timer(1));
        assert_eq!(sim.step(), Some((t(1.0), Ev::Timer(1))));
        assert_eq!(sim.step(), Some((t(2.0), Ev::Timer(2))));
        assert_eq!(sim.step(), None);
        assert_eq!(sim.events_delivered(), 2);
    }

    #[test]
    fn activity_completion_delivers_payload() {
        let mut sim = Simulator::new();
        let cpu = sim.add_resource(10.0);
        sim.start_activity(ActivitySpec::new(100.0, [cpu]), Ev::Done(7));
        assert_eq!(sim.step(), Some((t(10.0), Ev::Done(7))));
    }

    #[test]
    fn sharing_slows_then_speeds_up() {
        let mut sim = Simulator::new();
        let cpu = sim.add_resource(10.0);
        sim.start_activity(ActivitySpec::new(100.0, [cpu]), Ev::Done(1));
        sim.start_activity(ActivitySpec::new(100.0, [cpu]), Ev::Done(2));
        // Both at rate 5, finish together at t=20; delivered in id order.
        assert_eq!(sim.step(), Some((t(20.0), Ev::Done(1))));
        assert_eq!(sim.step(), Some((t(20.0), Ev::Done(2))));
    }

    #[test]
    fn late_arrival_shares_remaining() {
        let mut sim = Simulator::new();
        let cpu = sim.add_resource(10.0);
        sim.start_activity(ActivitySpec::new(100.0, [cpu]), Ev::Done(1));
        sim.schedule_at(t(5.0), Ev::Timer(0));
        let (tt, _) = sim.step().unwrap();
        assert_eq!(tt, t(5.0));
        // First has 50 left; add a second activity of 50.
        sim.start_activity(ActivitySpec::new(50.0, [cpu]), Ev::Done(2));
        // Both at rate 5 → both complete at t=15.
        assert_eq!(sim.step(), Some((t(15.0), Ev::Done(1))));
        assert_eq!(sim.step(), Some((t(15.0), Ev::Done(2))));
    }

    #[test]
    fn cancel_activity_returns_payload_and_progress() {
        let mut sim = Simulator::new();
        let cpu = sim.add_resource(10.0);
        let a = sim.start_activity(ActivitySpec::new(100.0, [cpu]), Ev::Done(1));
        sim.schedule_at(t(3.0), Ev::Timer(0));
        sim.step();
        let (rem, payload) = sim.cancel_activity(a).unwrap();
        assert!((rem - 70.0).abs() < 1e-9);
        assert_eq!(payload, Ev::Done(1));
        assert_eq!(sim.step(), None, "no completion after cancel");
    }

    #[test]
    fn stalled_activity_ends_simulation_with_diagnostic() {
        let mut sim = Simulator::new();
        let cpu = sim.add_resource(0.0);
        let a = sim.start_activity(ActivitySpec::new(10.0, [cpu]), Ev::Done(1));
        assert_eq!(sim.step(), None);
        assert_eq!(sim.stalled_activities(), vec![a]);
    }

    #[test]
    fn zero_work_activity_completes_now() {
        let mut sim = Simulator::new();
        let cpu = sim.add_resource(1.0);
        sim.schedule_at(t(4.0), Ev::Timer(0));
        sim.step();
        sim.start_activity(ActivitySpec::new(0.0, [cpu]), Ev::Done(1));
        assert_eq!(sim.step(), Some((t(4.0), Ev::Done(1))));
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut sim: Simulator<Ev> = Simulator::new();
        let id = sim.schedule_at(t(1.0), Ev::Timer(1));
        sim.schedule_at(t(2.0), Ev::Timer(2));
        assert!(sim.cancel_timer(id));
        assert_eq!(sim.step(), Some((t(2.0), Ev::Timer(2))));
    }

    #[test]
    fn determinism_same_inputs_same_trace() {
        let trace = |seed_jobs: &[(f64, f64)]| {
            let mut sim: Simulator<usize> = Simulator::new();
            let cpu = sim.add_resource(100.0);
            for (i, &(at, work)) in seed_jobs.iter().enumerate() {
                sim.schedule_at(t(at), i);
                let _ = work;
            }
            let mut out = Vec::new();
            let jobs = seed_jobs.to_vec();
            while let Some((tt, e)) = sim.step() {
                out.push((tt.as_secs(), e));
                if e < jobs.len() {
                    sim.start_activity(ActivitySpec::new(jobs[e].1, [cpu]), 1000 + e);
                }
            }
            out
        };
        let jobs = [(0.0, 100.0), (1.0, 300.0), (1.0, 50.0), (2.5, 500.0)];
        assert_eq!(trace(&jobs), trace(&jobs));
    }
}
