//! The batch-system simulation engine.
//!
//! [`Simulation`] owns the DES kernel, the instantiated platform, the job
//! table, and the scheduler driver, and drives jobs through their
//! lifecycle: submit → start → phases/tasks (with scheduling points where
//! reconfigurations are applied) → completion. Every externally meaningful
//! state change is emitted as a [`SimEvent`] on the observer bus, from
//! which the report statistics (utilization, Gantt, warnings) are
//! collected. See the crate docs for the full contract.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use elastisim_des::{ActivitySpec, Simulator, Time};
use elastisim_platform::{NodeId, Platform, PlatformSpec};
use elastisim_sched::{
    Decision, ExternalProcess, Invocation, JobRunInfo, JobState, JobView, Scheduler, SystemView,
};
use elastisim_telemetry::Telemetry;
use elastisim_workload::{validate_workload, JobClass, JobId, JobSpec, WorkloadError};

use crate::config::{ReconfigCost, SimConfig};
use crate::decisions::{deps_satisfied, DecisionCtx, KillTarget};
use crate::driver::{Backend, SchedulerDriver, SimError};
use crate::exec::{has_latency, task_activities, task_context};
use crate::lifecycle::{JobRuntime, RunState, Stage, Step};
use crate::observe::{EventBus, Observer, SimEvent};
use crate::stats::{JobRecord, Outcome, Report, WarningKind};

/// Event payloads circulating through the DES kernel.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// A job reaches its submit time.
    Submit(JobId),
    /// One rank activity of a job's current task (or reconfiguration cost)
    /// finished. The epoch guards against stale deliveries.
    Unit { job: JobId, epoch: u64 },
    /// A job's walltime limit expired.
    Walltime { job: JobId, epoch: u64 },
    /// Periodic scheduler invocation.
    Tick,
    /// A node fails (victim chosen when the event fires).
    NodeFail,
    /// A failed node returns to service.
    NodeRepair(NodeId),
}

/// A complete simulation: platform + workload + scheduler driver.
pub struct Simulation {
    sim: Simulator<Ev>,
    platform: Platform,
    cfg: SimConfig,
    driver: SchedulerDriver,
    bus: EventBus,
    jobs: BTreeMap<JobId, JobRuntime>,
    /// Nodes not allocated and not reserved.
    free: BTreeSet<NodeId>,
    /// Nodes reserved for pending reconfiguration expansions.
    reserved: BTreeSet<NodeId>,
    /// Nodes currently failed (out of service).
    down: BTreeSet<NodeId>,
    /// Every job's (submit time, id), ascending; the first `next_submit`
    /// have had their `JobSubmitted` event emitted. Kept separate from the
    /// DES `Submit` events so same-timestamp submissions are all announced
    /// before any scheduler invocation can start them.
    submit_order: Vec<(f64, JobId)>,
    next_submit: usize,
    /// Announced jobs that are not `Done`: all a scheduler view can show.
    live: BTreeSet<JobId>,
    /// Jobs not `Done`, announced or not.
    undone: usize,
    /// The scheduler's view, refilled in place at every invocation.
    view: SystemView,
    /// State of the failure process's deterministic RNG (SplitMix64).
    failure_rng: u64,
    outcomes: HashMap<JobId, (Outcome, f64)>,
    /// A driver failure that must abort the run.
    fatal: Option<SimError>,
    tick_pending: bool,
    idle_ticks: u32,
    in_invoke: bool,
    deferred_invokes: Vec<Invocation>,
    /// Simulator-internals metrics (disabled by default: a no-op handle).
    /// Never influences simulation results.
    telemetry: Telemetry,
}

impl Simulation {
    /// Builds a simulation around an in-process scheduling algorithm.
    /// Validates the workload against the platform.
    pub fn new(
        platform_spec: &PlatformSpec,
        workload: Vec<JobSpec>,
        scheduler: Box<dyn Scheduler>,
        cfg: SimConfig,
    ) -> Result<Self, WorkloadError> {
        Self::with_backend(platform_spec, workload, Backend::InProcess(scheduler), cfg)
    }

    /// Builds a simulation around a scheduler in a child process speaking
    /// the wire protocol. Use [`Simulation::try_run`]: the process can fail.
    pub fn with_external(
        platform_spec: &PlatformSpec,
        workload: Vec<JobSpec>,
        process: ExternalProcess,
        cfg: SimConfig,
    ) -> Result<Self, WorkloadError> {
        Self::with_backend(platform_spec, workload, Backend::External(process), cfg)
    }

    fn with_backend(
        platform_spec: &PlatformSpec,
        workload: Vec<JobSpec>,
        backend: Backend,
        cfg: SimConfig,
    ) -> Result<Self, WorkloadError> {
        validate_workload(&workload, platform_spec.num_nodes())?;
        let mut sim = Simulator::new();
        let platform = Platform::instantiate(platform_spec, &mut sim);
        let mut jobs = BTreeMap::new();
        for spec in workload {
            sim.schedule_at(Time::from_secs(spec.submit_time), Ev::Submit(spec.id));
            jobs.insert(spec.id, JobRuntime::new(spec));
        }
        // Equal submit times go by id (`partial_cmp`, unlike `total_cmp`,
        // ranks -0.0 with 0.0), so each announced batch is in id order.
        let mut submit_order: Vec<(f64, JobId)> = jobs
            .values()
            .map(|rt| (rt.spec.submit_time, rt.spec.id))
            .collect();
        submit_order
            .sort_unstable_by(|a, b| a.partial_cmp(b).expect("validated submit times are finite"));
        let undone = jobs.len();
        let free: BTreeSet<NodeId> = platform.node_ids().collect();
        let view = SystemView {
            now: 0.0,
            total_nodes: platform.num_nodes(),
            free_nodes: Vec::new(),
            jobs: Vec::new(),
        };
        let failure_rng = cfg.failures.map(|f| f.seed).unwrap_or(0);
        let bus = EventBus::new(cfg.record_gantt);
        Ok(Simulation {
            sim,
            platform,
            cfg,
            driver: SchedulerDriver::new(backend),
            bus,
            jobs,
            free,
            reserved: BTreeSet::new(),
            down: BTreeSet::new(),
            submit_order,
            next_submit: 0,
            live: BTreeSet::new(),
            undone,
            view,
            failure_rng,
            outcomes: HashMap::new(),
            fatal: None,
            tick_pending: false,
            idle_ticks: 0,
            in_invoke: false,
            deferred_invokes: Vec::new(),
            telemetry: Telemetry::disabled(),
        })
    }

    /// Attaches an observer that receives every [`SimEvent`] of the run,
    /// e.g. a [`crate::EventTraceWriter`]. Call before running.
    pub fn add_observer(&mut self, observer: Box<dyn Observer>) {
        self.bus.add_observer(observer);
    }

    /// Attaches a telemetry handle, shared with the DES kernel and the
    /// scheduler driver, so the run records simulator-internals metrics
    /// (scheduler latency, flow re-solves, queue depth, throughput).
    /// Telemetry never changes simulation results: a telemetry-enabled run
    /// produces a byte-identical [`Report`] to a bare one. Call before
    /// running.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.sim.set_telemetry(telemetry.clone());
        self.driver.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Runs to completion and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if an external scheduler fails; use [`Simulation::try_run`]
    /// for those.
    pub fn run(self) -> Report {
        self.try_run()
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }

    /// Runs to completion, or stops at the first external-scheduler
    /// failure with a structured error.
    pub fn try_run(mut self) -> Result<Report, SimError> {
        self.ensure_tick(0.0);
        self.schedule_next_failure(0.0);
        let mut last_now = 0.0;
        let run_start = std::time::Instant::now();
        let mut heartbeat = self.cfg.progress.map(Heartbeat::new);
        while let Some((t, ev)) = self.sim.step() {
            if self.fatal.is_some() {
                break;
            }
            let now = t.as_secs();
            last_now = now;
            if let Some(hb) = &mut heartbeat {
                hb.maybe_beat(now, &self.jobs, &self.outcomes, self.sim.events_delivered());
            }
            match ev {
                Ev::Submit(id) => {
                    self.announce_submissions(now);
                    if self.cfg.invoke_on_submit {
                        self.invoke_scheduler(now, Invocation::JobSubmitted { job: id });
                    }
                    self.ensure_tick(now);
                }
                Ev::Unit { job, epoch } => {
                    if self.jobs.get(&job).is_some_and(|j| j.epoch == epoch) {
                        self.handle_unit(job, now);
                    }
                }
                Ev::Walltime { job, epoch } => {
                    let live = self
                        .jobs
                        .get(&job)
                        .is_some_and(|j| j.epoch == epoch && j.state != RunState::Done);
                    if live {
                        self.terminate(job, now, Outcome::WalltimeExceeded);
                        if self.cfg.invoke_on_completion {
                            self.invoke_scheduler(now, Invocation::JobCompleted { job });
                        }
                    }
                }
                Ev::NodeFail => {
                    self.handle_node_failure(now);
                }
                Ev::NodeRepair(node) => {
                    self.down.remove(&node);
                    self.free.insert(node);
                    self.bus.emit(SimEvent::NodeRepaired { time: now, node });
                    // Freed capacity: let the scheduler use it right away.
                    self.invoke_scheduler(now, Invocation::Periodic);
                }
                Ev::Tick => {
                    self.tick_pending = false;
                    let applied = self.invoke_scheduler(now, Invocation::Periodic);
                    let anything_running = self.live.iter().any(|id| {
                        matches!(
                            self.jobs[id].state,
                            RunState::Running | RunState::Reconfiguring
                        )
                    });
                    if applied == 0 && !anything_running && self.all_submitted(now) {
                        // Nothing running, nothing started: the scheduler is
                        // not going to make progress by being asked again.
                        self.idle_ticks += 1;
                    } else {
                        self.idle_ticks = 0;
                    }
                    if self.idle_ticks < 2 {
                        self.ensure_tick(now);
                    } else if self
                        .live
                        .iter()
                        .any(|id| self.jobs[id].state == RunState::Pending)
                    {
                        self.bus.emit(SimEvent::Warning {
                            time: now,
                            job: None,
                            kind: WarningKind::NoProgress,
                            message: format!(
                                "scheduler made no progress at t={now}; \
                                 ending with pending jobs unstarted"
                            ),
                        });
                    }
                }
            }
        }
        if let Some(e) = self.fatal.take() {
            self.driver.shutdown();
            return Err(e);
        }
        let stalled = self.sim.stalled_activities();
        if !stalled.is_empty() {
            self.bus.emit(SimEvent::Warning {
                time: last_now,
                job: None,
                kind: WarningKind::StalledActivities,
                message: format!("{} activities stalled at end of simulation", stalled.len()),
            });
        }
        self.sim.flush_telemetry();
        if self.telemetry.is_enabled() {
            let wall = run_start.elapsed().as_secs_f64();
            let events = self.sim.events_delivered();
            self.telemetry.gauge_set("engine.wall_seconds", wall);
            self.telemetry.gauge_set("engine.sim_seconds", last_now);
            self.telemetry.gauge_set(
                "engine.events_per_sec",
                if wall > 0.0 {
                    events as f64 / wall
                } else {
                    0.0
                },
            );
            self.telemetry.counter_add("des.events_delivered", events);
            self.telemetry
                .counter_add("des.queue.compactions", self.sim.queue_compactions());
            self.telemetry.gauge_set(
                "des.queue.live_entries",
                self.sim.queue_live_entries() as f64,
            );
            self.telemetry.gauge_set(
                "des.queue.cancelled_entries",
                self.sim.queue_cancelled_entries() as f64,
            );
            self.telemetry
                .counter_add("flow.recomputes", self.sim.recompute_count());
        }
        self.build_report()
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn all_submitted(&self, now: f64) -> bool {
        self.submit_order.last().is_none_or(|&(t, _)| t <= now)
    }

    /// Emits `JobSubmitted` for every job whose submit time has been
    /// reached but which has not been announced yet, in id order. The
    /// scheduler view exposes all due jobs at once, so without this a
    /// same-timestamp sibling could be started before its own submission
    /// event fired, making the observed stream non-causal. A job whose
    /// dependency already failed is cancelled right after its submission.
    fn announce_submissions(&mut self, now: f64) {
        let first = self.next_submit;
        while let Some(&(t, _)) = self.submit_order.get(self.next_submit) {
            if t > now {
                break;
            }
            self.next_submit += 1;
        }
        // Every `Submit` event announces its own job at the latest, so a
        // batch holds the jobs of one submit time, already in id order.
        let due = &self.submit_order[first..self.next_submit];
        debug_assert!(due.windows(2).all(|w| w[0].1 < w[1].1), "{due:?}");
        let mut doomed = false;
        for &(_, id) in due {
            self.live.insert(id);
            doomed |= dependency_failed(&self.jobs[&id], &self.outcomes);
            self.bus.emit(SimEvent::JobSubmitted { time: now, job: id });
        }
        if doomed {
            self.cascade_dependency_failures(now);
        }
    }

    /// Cancels every announced pending job that (transitively) depends on
    /// a job that ended unsuccessfully — `afterok` semantics. Jobs not yet
    /// submitted are left alone; they are cancelled on submission.
    fn cascade_dependency_failures(&mut self, now: f64) {
        self.announce_submissions(now);
        loop {
            let doomed: Vec<JobId> = self
                .live
                .iter()
                .copied()
                .filter(|id| {
                    let rt = &self.jobs[id];
                    rt.state == RunState::Pending && dependency_failed(rt, &self.outcomes)
                })
                .collect();
            if doomed.is_empty() {
                return;
            }
            for id in doomed {
                self.bus.emit(SimEvent::Warning {
                    time: now,
                    job: Some(id),
                    kind: WarningKind::DependencyCancelled,
                    message: format!("{id}: cancelled, a dependency did not complete"),
                });
                self.cancel_pending(id, now);
            }
        }
    }

    /// Removes a queued job from the system as `Killed`.
    fn cancel_pending(&mut self, id: JobId, now: f64) {
        let rt = self.jobs.get_mut(&id).expect("cancelled job exists");
        rt.state = RunState::Done;
        rt.epoch += 1;
        self.live.remove(&id);
        self.undone -= 1;
        self.outcomes.insert(id, (Outcome::Killed, now));
        self.bus.emit(SimEvent::JobCompleted {
            time: now,
            job: id,
            outcome: Outcome::Killed,
            released: Vec::new(),
        });
    }

    fn handle_unit(&mut self, id: JobId, now: f64) {
        let rt = self.jobs.get_mut(&id).expect("unit for unknown job");
        debug_assert!(rt.outstanding > 0, "unit underflow for {id}");
        rt.outstanding -= 1;
        if rt.outstanding > 0 {
            return;
        }
        rt.activities.clear();
        match rt.state {
            RunState::Reconfiguring => {
                rt.state = RunState::Running;
                self.continue_job(id, now);
            }
            RunState::Running => {
                if rt.stage == Stage::Latency {
                    rt.stage = Stage::Flow;
                    self.start_current_task(id, now, /*after_latency=*/ true);
                } else {
                    rt.units_done += 1;
                    rt.cursor.advance_after_task();
                    self.continue_job(id, now);
                }
            }
            RunState::Pending | RunState::Done => {
                // Stale unit after kill; epoch should have filtered it.
                debug_assert!(false, "unit for job in state {:?}", rt.state);
            }
        }
    }

    /// Advances a running job through its cursor until a task starts, a
    /// reconfiguration pause begins, or the job completes.
    fn continue_job(&mut self, id: JobId, now: f64) {
        loop {
            let rt = self.jobs.get_mut(&id).expect("continue for unknown job");
            if rt.state == RunState::Done {
                return;
            }
            let step = rt.cursor.step(&rt.spec.app);
            match step {
                Step::Task => {
                    self.start_current_task(id, now, false);
                    return;
                }
                Step::SchedulingPoint => {
                    if self.cfg.invoke_on_scheduling_point {
                        self.invoke_scheduler(now, Invocation::SchedulingPoint { job: id });
                    }
                    if self.apply_pending_reconfig(id, now) {
                        return; // paused for the reconfiguration cost
                    }
                }
                Step::PhaseEntry => {
                    self.on_phase_entry(id, now);
                    if self.apply_pending_reconfig(id, now) {
                        return;
                    }
                }
                Step::Done => {
                    self.terminate(id, now, Outcome::Completed);
                    if self.cfg.invoke_on_completion {
                        self.invoke_scheduler(now, Invocation::JobCompleted { job: id });
                    }
                    return;
                }
            }
        }
    }

    /// Fires the evolving request attached to the phase the cursor just
    /// entered, if any.
    fn on_phase_entry(&mut self, id: JobId, now: f64) {
        let rt = self.jobs.get_mut(&id).expect("phase entry for unknown job");
        if rt.spec.class != JobClass::Evolving {
            return;
        }
        let phase = &rt.spec.app.phases[rt.cursor.phase];
        let Some(nodes) = phase.evolving_request else {
            return;
        };
        if nodes as usize == rt.alloc.len() {
            return;
        }
        rt.evolving_desired = Some((nodes, now));
        if self.cfg.invoke_on_evolving_request {
            self.invoke_scheduler(now, Invocation::EvolvingRequest { job: id, nodes });
        }
    }

    /// Starts the task under the cursor. With `after_latency` the latency
    /// prologue already ran and the flows start directly.
    fn start_current_task(&mut self, id: JobId, now: f64, after_latency: bool) {
        let latency = self.platform.latency();
        let rt = self.jobs.get_mut(&id).expect("start task for unknown job");
        let phase = &rt.spec.app.phases[rt.cursor.phase];
        let task = &phase.tasks[rt.cursor.task];

        if !after_latency && latency > 0.0 && has_latency(&task.kind) {
            rt.stage = Stage::Latency;
            rt.outstanding = 1;
            let epoch = rt.epoch;
            let act = self.sim.start_activity(
                ActivitySpec::new(latency, []).with_bound(1.0),
                Ev::Unit { job: id, epoch },
            );
            self.jobs.get_mut(&id).unwrap().activities.push(act);
            return;
        }

        let ctx = task_context(rt.alloc.len(), rt.cursor.phase, rt.cursor.iter);
        let specs = match task_activities(&self.platform, &rt.alloc, &task.kind, &ctx) {
            Ok(specs) => specs,
            Err(e) => {
                let msg = format!("{id}: task `{}` failed: {e}", task.name);
                self.bus.emit(SimEvent::Warning {
                    time: now,
                    job: Some(id),
                    kind: WarningKind::TaskFailed,
                    message: msg,
                });
                self.terminate(id, now, Outcome::Killed);
                if self.cfg.invoke_on_completion {
                    self.invoke_scheduler(now, Invocation::JobCompleted { job: id });
                }
                return;
            }
        };
        let epoch = rt.epoch;
        rt.stage = Stage::Flow;
        rt.outstanding = specs.len();
        let mut acts = Vec::with_capacity(specs.len());
        for spec in specs {
            acts.push(self.sim.start_activity(spec, Ev::Unit { job: id, epoch }));
        }
        self.jobs.get_mut(&id).unwrap().activities = acts;
    }

    // ------------------------------------------------------------------
    // Failure injection
    // ------------------------------------------------------------------

    /// SplitMix64 step yielding a uniform value in `[0, 1)`.
    fn next_uniform(&mut self) -> f64 {
        self.failure_rng = self.failure_rng.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.failure_rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Schedules the next cluster failure (exponential inter-arrival with
    /// rate nodes/MTBF) while work remains.
    fn schedule_next_failure(&mut self, now: f64) {
        let Some(model) = self.cfg.failures else {
            return;
        };
        if self.undone == 0 {
            return; // don't keep an idle simulation alive
        }
        let rate = self.platform.num_nodes() as f64 / model.node_mtbf;
        let u = self.next_uniform().max(f64::MIN_POSITIVE);
        let dt = -u.ln() / rate;
        self.sim
            .schedule_at(Time::from_secs(now + dt), Ev::NodeFail);
    }

    /// One node fails: whatever ran on it dies, the node goes down for the
    /// repair time.
    fn handle_node_failure(&mut self, now: f64) {
        let Some(model) = self.cfg.failures else {
            return;
        };
        // Pick a victim uniformly among up nodes.
        let up: Vec<NodeId> = self
            .platform
            .node_ids()
            .filter(|n| !self.down.contains(n))
            .collect();
        if !up.is_empty() {
            let victim = up[(self.next_uniform() * up.len() as f64) as usize % up.len()];
            self.down.insert(victim);
            self.sim.schedule_at(
                Time::from_secs(now + model.repair_time),
                Ev::NodeRepair(victim),
            );
            self.bus.emit(SimEvent::NodeFailed {
                time: now,
                node: victim,
            });

            if self.free.remove(&victim) {
                // Idle node: just out of the pool until repaired.
            } else if self.reserved.contains(&victim) {
                // Reserved for a pending expansion: cancel that reconfig so
                // the job never receives a dead node.
                let owner = self.live.iter().copied().find(|id| {
                    self.jobs[id]
                        .pending_reconfig
                        .as_ref()
                        .is_some_and(|nodes| nodes.contains(&victim))
                });
                if let Some(id) = owner {
                    let rt = self.jobs.get_mut(&id).expect("owner exists");
                    let nodes = rt.pending_reconfig.take().expect("checked");
                    let alloc: BTreeSet<NodeId> = rt.alloc.iter().copied().collect();
                    for node in nodes {
                        if !alloc.contains(&node) && self.reserved.remove(&node) && node != victim {
                            self.free.insert(node);
                        }
                    }
                    self.reserved.remove(&victim);
                    self.bus.emit(SimEvent::Warning {
                        time: now,
                        job: Some(id),
                        kind: WarningKind::ReconfigCancelled,
                        message: format!("{id}: reconfiguration cancelled, {victim} failed"),
                    });
                }
            } else {
                // Allocated: the job dies with the node.
                let owner = self.live.iter().copied().find(|id| {
                    let rt = &self.jobs[id];
                    matches!(rt.state, RunState::Running | RunState::Reconfiguring)
                        && rt.alloc.contains(&victim)
                });
                if let Some(id) = owner {
                    self.bus.emit(SimEvent::Warning {
                        time: now,
                        job: Some(id),
                        kind: WarningKind::NodeFailureKill,
                        message: format!("{id}: killed by failure of {victim}"),
                    });
                    self.terminate(id, now, Outcome::NodeFailure);
                    // terminate() freed the whole allocation including the
                    // victim; pull it back out of the pool.
                    self.free.remove(&victim);
                    if self.cfg.invoke_on_completion {
                        self.invoke_scheduler(now, Invocation::JobCompleted { job: id });
                    }
                }
            }
        }
        self.schedule_next_failure(now);
    }

    // ------------------------------------------------------------------
    // Allocation changes
    // ------------------------------------------------------------------

    /// Applies a pending reconfiguration at a scheduling point. Returns
    /// `true` if the job is now paused paying the reconfiguration cost.
    fn apply_pending_reconfig(&mut self, id: JobId, now: f64) -> bool {
        let rt = self.jobs.get_mut(&id).expect("reconfig for unknown job");
        let Some(new_nodes) = rt.pending_reconfig.take() else {
            return false;
        };
        let old: BTreeSet<NodeId> = rt.alloc.iter().copied().collect();
        let new: BTreeSet<NodeId> = new_nodes.iter().copied().collect();
        let removed: Vec<NodeId> = old.difference(&new).copied().collect();
        let added: Vec<NodeId> = new.difference(&old).copied().collect();

        rt.accrue(now);
        rt.alloc = new_nodes;
        rt.reconfigs += 1;
        rt.max_nodes_held = rt.max_nodes_held.max(rt.alloc.len() as u32);
        let new_size = rt.alloc.len() as u32;
        if let Some((want, asked)) = rt.evolving_desired {
            if rt.alloc.len() == want as usize {
                rt.evolving_latencies.push(now - asked);
                rt.evolving_desired = None;
            }
        }

        for &node in &removed {
            self.free.insert(node);
        }
        for &node in &added {
            let was_reserved = self.reserved.remove(&node);
            debug_assert!(was_reserved, "expansion node {node} was not reserved");
        }
        let any_removed = !removed.is_empty();
        self.bus.emit(SimEvent::JobReconfigured {
            time: now,
            job: id,
            added,
            removed,
            new_size,
        });
        if any_removed && self.cfg.invoke_on_release {
            // Hand the released nodes out immediately; otherwise the queue
            // head waits for the next periodic tick.
            self.invoke_scheduler(now, Invocation::SchedulingPoint { job: id });
        }

        // Pay the cost.
        let rt = self.jobs.get_mut(&id).unwrap();
        let epoch = rt.epoch;
        let specs: Vec<ActivitySpec> = match self.cfg.reconfig_cost {
            ReconfigCost::Free => return false,
            ReconfigCost::Fixed(secs) => {
                vec![ActivitySpec::new(secs, []).with_bound(1.0)]
            }
            ReconfigCost::DataVolume { bytes_per_node } => rt
                .alloc
                .iter()
                .map(|&n| {
                    ActivitySpec::new(bytes_per_node, [])
                        .with_usage(self.platform.node(n).nic_up, 1.0)
                        .with_usage(self.platform.backbone, 1.0)
                })
                .collect(),
        };
        rt.state = RunState::Reconfiguring;
        rt.outstanding = specs.len();
        let mut acts = Vec::with_capacity(specs.len());
        for spec in specs {
            acts.push(self.sim.start_activity(spec, Ev::Unit { job: id, epoch }));
        }
        self.jobs.get_mut(&id).unwrap().activities = acts;
        true
    }

    /// Ends a job (completion or kill): cancels work, releases nodes,
    /// records the outcome.
    fn terminate(&mut self, id: JobId, now: f64, outcome: Outcome) {
        let rt = self.jobs.get_mut(&id).expect("terminate unknown job");
        debug_assert!(rt.state != RunState::Done);
        rt.epoch += 1;
        let activities = std::mem::take(&mut rt.activities);
        rt.outstanding = 0;
        if let Some(timer) = rt.walltime_timer.take() {
            self.sim.cancel_timer(timer);
        }
        for act in activities {
            let _ = self.sim.cancel_activity(act);
        }
        let rt = self.jobs.get_mut(&id).unwrap();
        rt.accrue(now);
        let released = std::mem::take(&mut rt.alloc);
        let pending = rt.pending_reconfig.take();
        rt.state = RunState::Done;
        self.live.remove(&id);
        self.undone -= 1;
        self.outcomes.insert(id, (outcome, now));

        for &node in &released {
            self.free.insert(node);
        }
        // Reserved expansion nodes of an unapplied reconfig go back too.
        if let Some(nodes) = pending {
            for node in nodes {
                if self.reserved.remove(&node) {
                    self.free.insert(node);
                }
            }
        }
        self.bus.emit(SimEvent::JobCompleted {
            time: now,
            job: id,
            outcome,
            released,
        });
        if outcome != Outcome::Completed {
            self.cascade_dependency_failures(now);
        }
    }

    // ------------------------------------------------------------------
    // Scheduler interplay
    // ------------------------------------------------------------------

    fn ensure_tick(&mut self, now: f64) {
        if !self.tick_pending && self.undone > 0 {
            self.tick_pending = true;
            self.sim.schedule_at(
                Time::from_secs(now + self.cfg.scheduling_interval),
                Ev::Tick,
            );
        }
    }

    /// Refills `self.view` from the live jobs and the free pool. Slots
    /// are overwritten in place, so the view's buffers, each running
    /// job's node list included, are reused from one invocation to the
    /// next.
    fn refresh_view(&mut self, now: f64) {
        let view = &mut self.view;
        view.now = now;
        view.free_nodes.clear();
        view.free_nodes.extend(self.free.iter().copied());
        let mut len = 0;
        for id in &self.live {
            let rt = &self.jobs[id];
            let state = match rt.state {
                RunState::Pending if deps_satisfied(rt, &self.outcomes) => JobState::Pending,
                RunState::Running | RunState::Reconfiguring => {
                    // Take over the node buffer of the running job this
                    // slot held last time, if any.
                    let old = view
                        .jobs
                        .get_mut(len)
                        .map(|j| std::mem::replace(&mut j.state, JobState::Pending));
                    let mut nodes = match old {
                        Some(JobState::Running(info)) => info.nodes,
                        _ => Vec::new(),
                    };
                    nodes.clear();
                    nodes.extend_from_slice(&rt.alloc);
                    JobState::Running(JobRunInfo {
                        nodes,
                        start_time: rt.start_time.unwrap_or(now),
                        reconfig_pending: rt.pending_reconfig.is_some()
                            || rt.state == RunState::Reconfiguring,
                        progress: rt.progress(),
                    })
                }
                _ => continue,
            };
            let job = JobView {
                id: *id,
                class: rt.spec.class,
                state,
                submit_time: rt.spec.submit_time,
                min_nodes: rt.spec.min_nodes,
                max_nodes: rt.spec.max_nodes,
                walltime: rt.spec.walltime,
                evolving_request: rt.evolving_desired.map(|(n, _)| n),
                fixed_start: rt.spec.user_fixed_start(),
            };
            match view.jobs.get_mut(len) {
                Some(slot) => *slot = job,
                None => view.jobs.push(job),
            }
            len += 1;
        }
        view.jobs.truncate(len);
    }

    /// Invokes the scheduler through the driver and applies its decisions.
    /// Returns how many decisions were applied. Re-entrant invocations
    /// (triggered by lifecycle changes during application) are deferred
    /// and run after the current one finishes. An external-scheduler
    /// failure sets `self.fatal` and aborts the run.
    fn invoke_scheduler(&mut self, now: f64, why: Invocation) -> usize {
        if self.fatal.is_some() {
            return 0;
        }
        self.announce_submissions(now);
        if self.in_invoke {
            self.deferred_invokes.push(why);
            return 0;
        }
        self.in_invoke = true;
        let _span = self.telemetry.span("engine.invoke_seconds");
        let mut applied = 0;
        let mut pending = vec![why];
        while let Some(why) = pending.pop() {
            self.refresh_view(now);
            let decisions = match self.driver.invoke(now, &self.view, why) {
                Ok(decisions) => decisions,
                Err(e) => {
                    self.fatal = Some(e);
                    break;
                }
            };
            let returned = decisions.len();
            let mut accepted = 0;
            for decision in decisions {
                let job = decision.job();
                match self.apply_decision(decision, now) {
                    Ok(()) => accepted += 1,
                    Err(reason) => self.bus.emit(SimEvent::DecisionRejected {
                        time: now,
                        job,
                        reason,
                    }),
                }
            }
            applied += accepted;
            // Deterministic facts only (no wall-clock data): the event
            // stream stays byte-identical whether telemetry is on or off.
            self.bus.emit(SimEvent::SchedulerInvoked {
                time: now,
                reason: why.to_string(),
                decisions: returned,
                applied: accepted,
            });
            pending.append(&mut self.deferred_invokes);
        }
        self.in_invoke = false;
        applied
    }

    /// Validates one decision against live state and applies it.
    fn apply_decision(&mut self, decision: Decision, now: f64) -> Result<(), String> {
        match decision {
            Decision::Start { job, nodes } => self.apply_start(job, nodes, now),
            Decision::Reconfigure { job, nodes } => self.apply_reconfigure(job, nodes, now),
            Decision::Kill { job } => {
                let target = self.decision_ctx(now).validate_kill(job)?;
                match target {
                    KillTarget::Pending => {
                        self.cancel_pending(job, now);
                        self.cascade_dependency_failures(now);
                    }
                    KillTarget::Active => {
                        self.terminate(job, now, Outcome::Killed);
                    }
                }
                Ok(())
            }
        }
    }

    fn decision_ctx(&self, now: f64) -> DecisionCtx<'_> {
        DecisionCtx {
            jobs: &self.jobs,
            free: &self.free,
            outcomes: &self.outcomes,
            now,
        }
    }

    fn apply_start(&mut self, id: JobId, nodes: Vec<NodeId>, now: f64) -> Result<(), String> {
        let unique = self.decision_ctx(now).validate_start(id, &nodes)?;
        let walltime = self.jobs[&id].spec.walltime;

        for node in &unique {
            self.free.remove(node);
        }
        let n = nodes.len();
        let rt = self.jobs.get_mut(&id).unwrap();
        rt.state = RunState::Running;
        rt.alloc = nodes;
        rt.start_time = Some(now);
        rt.last_alloc_change = now;
        rt.max_nodes_held = n as u32;
        let epoch = rt.epoch;
        let alloc = rt.alloc.clone();
        self.bus.emit(SimEvent::JobStarted {
            time: now,
            job: id,
            nodes: alloc,
        });
        if let Some(w) = walltime {
            let timer = self
                .sim
                .schedule_at(Time::from_secs(now + w), Ev::Walltime { job: id, epoch });
            self.jobs.get_mut(&id).unwrap().walltime_timer = Some(timer);
        }
        self.continue_job(id, now);
        Ok(())
    }

    fn apply_reconfigure(&mut self, id: JobId, nodes: Vec<NodeId>, now: f64) -> Result<(), String> {
        let added = self.decision_ctx(now).validate_reconfigure(id, &nodes)?;
        // Reserve additions so no later decision hands them out.
        for node in &added {
            self.free.remove(node);
            self.reserved.insert(*node);
        }
        self.jobs.get_mut(&id).unwrap().pending_reconfig = Some(nodes);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    fn build_report(mut self) -> Result<Report, SimError> {
        self.driver.shutdown();
        let mut records = Vec::with_capacity(self.jobs.len());
        for (id, rt) in &self.jobs {
            let (outcome, end) = match self.outcomes.get(id) {
                Some(&(o, e)) => (o, Some(e)),
                None => (Outcome::Completed, None), // never finished (aborted run)
            };
            records.push(JobRecord {
                id: *id,
                class: rt.spec.class,
                submit: rt.spec.submit_time,
                start: rt.start_time,
                end,
                outcome,
                node_seconds: rt.node_seconds,
                max_nodes_held: rt.max_nodes_held,
                reconfigs: rt.reconfigs,
                evolving_latencies: rt.evolving_latencies.clone(),
            });
        }
        // Gantt intervals left open by an aborted run close at the horizon.
        let horizon = records.iter().filter_map(|r| r.end).fold(0.0f64, f64::max);
        let (utilization, gantt, warnings) = self
            .bus
            .into_parts(horizon)
            .map_err(|message| SimError::Observer { message })?;
        Ok(Report {
            jobs: records,
            utilization,
            gantt,
            events: self.sim.events_delivered(),
            recomputes: self.sim.recompute_count(),
            scheduler_invocations: self.driver.invocations(),
            warnings,
            total_nodes: self.platform.num_nodes(),
        })
    }
}

/// Whether some `afterok` dependency of the job ended unsuccessfully.
fn dependency_failed(rt: &JobRuntime, outcomes: &HashMap<JobId, (Outcome, f64)>) -> bool {
    rt.spec
        .dependencies
        .iter()
        .any(|dep| matches!(outcomes.get(dep), Some((o, _)) if *o != Outcome::Completed))
}

// A whole simulation run is a unit of work the campaign executor moves
// across worker threads; this fails to compile if any layer regresses to
// non-`Send` state (`Rc`, `RefCell`, raw pointers, ...).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Simulation>();
};

/// Wall-clock progress heartbeat for `--progress`: prints sim-time, job
/// completion, and event throughput to stderr. Reads the clock only every
/// `CHECK_EVERY` events so the hot loop stays cheap, and writes nothing
/// anywhere that could influence results.
struct Heartbeat {
    interval: f64,
    started: std::time::Instant,
    last_beat: std::time::Instant,
    countdown: u32,
}

impl Heartbeat {
    /// How many events to skip between clock reads.
    const CHECK_EVERY: u32 = 4096;

    fn new(interval: f64) -> Self {
        let now = std::time::Instant::now();
        Heartbeat {
            interval,
            started: now,
            last_beat: now,
            countdown: Self::CHECK_EVERY,
        }
    }

    fn maybe_beat(
        &mut self,
        sim_now: f64,
        jobs: &BTreeMap<JobId, JobRuntime>,
        outcomes: &HashMap<JobId, (Outcome, f64)>,
        events: u64,
    ) {
        self.countdown -= 1;
        if self.countdown > 0 {
            return;
        }
        self.countdown = Self::CHECK_EVERY;
        let now = std::time::Instant::now();
        if now.duration_since(self.last_beat).as_secs_f64() < self.interval {
            return;
        }
        self.last_beat = now;
        let total = jobs.len();
        let done = outcomes.len();
        let pct = if total > 0 {
            100.0 * done as f64 / total as f64
        } else {
            100.0
        };
        let wall = now.duration_since(self.started).as_secs_f64();
        let rate = if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        };
        eprintln!(
            "[progress] sim t={sim_now:.1}s  jobs {done}/{total} ({pct:.1}%)  {rate:.0} events/s"
        );
    }
}
