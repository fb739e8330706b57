//! The campaign executor: a work-queue over a small owned thread pool.
//!
//! N worker threads pull [`RunSpec`]s off a shared queue, execute each as
//! a fully owned `Send` unit of work (cache lookup → build → run), and
//! stream results back to the submitting thread, which merges them
//! **id-ordered** — the merged output is byte-identical no matter how
//! completion order interleaves, which is what lets `elastisim sweep`
//! promise the same records at any worker count.
//!
//! A panicking scenario is caught on the worker (`catch_unwind`), turned
//! into a structured [`RunError::Panicked`], and the worker moves on to
//! the next queue item — one poisoned run never takes the pool down.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use elastisim::{FlightRecorder, Report};
use elastisim_telemetry::log::{field, Logger};
use elastisim_telemetry::{MetricsSnapshot, Telemetry};
use serde::Value;

use crate::cache::{CachedRun, ResultCache};
use crate::spec::RunSpec;

/// Why a run failed.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// The spec could not be turned into a simulation (unknown scheduler,
    /// workload that fails validation against the platform).
    Setup(String),
    /// The run started but the engine reported a fatal error.
    Sim(String),
    /// The run panicked; the payload message is preserved.
    Panicked(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Setup(m) => write!(f, "setup failed: {m}"),
            RunError::Sim(m) => write!(f, "simulation failed: {m}"),
            RunError::Panicked(m) => write!(f, "run panicked: {m}"),
        }
    }
}

impl std::error::Error for RunError {}

/// How one run ended.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// The run completed (possibly served from cache): the report and
    /// its digest, shared with the result cache.
    Completed(Arc<CachedRun>),
    /// The run failed with a structured error.
    Failed(RunError),
}

/// The merged-campaign record of one run.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The spec's id; records are merged ascending by it.
    pub id: u64,
    /// The spec's label.
    pub label: String,
    /// Scheduler identity (the fingerprint-visible label).
    pub scheduler: String,
    /// The scenario fingerprint (cache key).
    pub scenario_fingerprint: String,
    /// Whether the result came from the cache without re-executing.
    pub cached: bool,
    /// Wall-clock seconds this record took on its worker (lookup or run).
    /// Nondeterministic; excluded from all fingerprints.
    pub wall_seconds: f64,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The run's telemetry snapshot, when the executor was configured
    /// with [`Observability::collect_metrics`]. `None` for cache hits
    /// (nothing executed) and for runs that died before a registry was
    /// attached. Nondeterministic (wall-clock series); excluded from all
    /// fingerprints.
    pub metrics: Option<MetricsSnapshot>,
    /// Path of the post-mortem dump, when a flight recorder was attached
    /// and the run failed.
    pub postmortem: Option<PathBuf>,
}

impl RunRecord {
    /// The report, if the run completed.
    pub fn report(&self) -> Option<&Report> {
        match &self.outcome {
            RunOutcome::Completed(run) => Some(&run.report),
            RunOutcome::Failed(_) => None,
        }
    }

    /// The report's `rdg1-` digest ([`Report::digest`]), if the run
    /// completed.
    pub fn report_fingerprint(&self) -> Option<&str> {
        match &self.outcome {
            RunOutcome::Completed(run) => Some(&run.digest),
            RunOutcome::Failed(_) => None,
        }
    }

    /// The error, if the run failed.
    pub fn error(&self) -> Option<&RunError> {
        match &self.outcome {
            RunOutcome::Failed(e) => Some(e),
            RunOutcome::Completed(_) => None,
        }
    }
}

/// Progress callbacks from [`Executor::run_campaign_with`], delivered on the
/// submitting thread in completion order (the merged result stays
/// id-ordered regardless).
#[derive(Debug)]
pub enum CampaignEvent<'a> {
    /// A worker picked the run off the queue.
    RunStarted {
        /// The spec's id.
        id: u64,
        /// The spec's label.
        label: &'a str,
    },
    /// A run finished (completed, cached, or failed).
    RunFinished(&'a RunRecord),
}

/// Observability options for an [`Executor`] — all off by default, and
/// result-neutral when on: logging, per-run metrics, and the flight
/// recorder never feed back into simulation decisions, so reports stay
/// byte-identical (pinned by the simtest fingerprint oracles).
#[derive(Clone, Debug, Default)]
pub struct Observability {
    /// Structured JSONL logger. Fields already bound on the handle
    /// (campaign id, `rfp1-` fingerprint) carry into every record; the
    /// executor additionally binds `worker`, `run_id`, `fingerprint`,
    /// and `scheduler`.
    pub logger: Logger,
    /// Attach a per-run telemetry registry and keep its snapshot on the
    /// [`RunRecord`], feeding campaign-level aggregation.
    pub collect_metrics: bool,
    /// Attach a flight recorder to every executed run and dump a
    /// post-mortem JSON file into this directory (created on demand) when
    /// the run fails or panics.
    pub recorder: Option<PathBuf>,
}

/// A finished campaign: id-ordered records plus metric aggregation.
#[derive(Clone, Debug, Default)]
pub struct CampaignResult {
    /// Records merged ascending by spec id.
    pub records: Vec<RunRecord>,
}

impl CampaignResult {
    /// Per-scheduler summary aggregates ([`aggregate_by_scheduler`]).
    pub fn aggregates(&self) -> Vec<SchedulerAggregate> {
        aggregate_by_scheduler(&self.records)
    }

    /// The campaign-wide metrics snapshot: every per-run snapshot merged
    /// (exact histogram merge, summed counters, peak gauges — see
    /// [`MetricsSnapshot::merge`]) plus `campaign.*` series derived from
    /// the records themselves, so the aggregate is populated even when
    /// per-run collection was off:
    ///
    /// * counters `campaign.runs` / `.completed` / `.failed` /
    ///   `.panicked` / `.cached`;
    /// * histogram `campaign.run_wall_seconds` over executed runs;
    /// * histogram `campaign.run_events_per_sec` (DES events per
    ///   wall-clock second) over executed, completed runs.
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut out =
            MetricsSnapshot::merged(self.records.iter().filter_map(|r| r.metrics.as_ref()));
        out.merge(&derived_metrics(self.records.iter()));
        out
    }

    /// [`merged_metrics`](Self::merged_metrics) restricted per scheduler,
    /// sorted by scheduler name.
    pub fn metrics_by_scheduler(&self) -> Vec<(String, MetricsSnapshot)> {
        let mut by_sched: std::collections::BTreeMap<&str, Vec<&RunRecord>> =
            std::collections::BTreeMap::new();
        for record in &self.records {
            by_sched.entry(&record.scheduler).or_default().push(record);
        }
        by_sched
            .into_iter()
            .map(|(scheduler, group)| {
                let mut snap =
                    MetricsSnapshot::merged(group.iter().filter_map(|r| r.metrics.as_ref()));
                snap.merge(&derived_metrics(group.iter().copied()));
                (scheduler.to_owned(), snap)
            })
            .collect()
    }
}

/// `campaign.*` series computed from the records alone.
fn derived_metrics<'a>(records: impl Iterator<Item = &'a RunRecord>) -> MetricsSnapshot {
    let t = Telemetry::enabled();
    for r in records {
        t.counter_add("campaign.runs", 1);
        match &r.outcome {
            RunOutcome::Completed(_) => t.counter_add("campaign.completed", 1),
            RunOutcome::Failed(RunError::Panicked(_)) => {
                t.counter_add("campaign.failed", 1);
                t.counter_add("campaign.panicked", 1);
            }
            RunOutcome::Failed(_) => t.counter_add("campaign.failed", 1),
        }
        if r.cached {
            t.counter_add("campaign.cached", 1);
        } else {
            t.observe("campaign.run_wall_seconds", r.wall_seconds);
            if let Some(report) = r.report() {
                if r.wall_seconds > 0.0 {
                    t.observe(
                        "campaign.run_events_per_sec",
                        report.events as f64 / r.wall_seconds,
                    );
                }
            }
        }
    }
    t.snapshot()
}

/// Work-queue executor over an owned pool of `workers` threads.
///
/// The pool is per-call: [`run_campaign_with`](Executor::run_campaign_with) spawns its
/// workers, drains the queue, joins them, and returns — no detached
/// threads outlive the call. The [`ResultCache`] *does* persist across
/// calls, so resubmitting a scenario to the same executor answers it
/// from cache without re-executing.
pub struct Executor {
    workers: usize,
    cache: Arc<ResultCache>,
    obs: Observability,
}

impl Executor {
    /// An executor running up to `workers` scenarios concurrently
    /// (clamped to at least 1), with a fresh private cache.
    pub fn new(workers: usize) -> Self {
        Executor {
            workers: workers.max(1),
            cache: Arc::new(ResultCache::new()),
            obs: Observability::default(),
        }
    }

    /// Enables observability (logging / per-run metrics / flight
    /// recorder) for every campaign this executor runs.
    pub fn with_observability(mut self, obs: Observability) -> Self {
        self.obs = obs;
        self
    }

    /// The executor's result cache.
    pub fn cache(&self) -> &Arc<ResultCache> {
        &self.cache
    }

    /// The configured concurrency.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs the campaign and returns records merged ascending by spec id.
    pub fn run(&self, specs: Vec<RunSpec>) -> Vec<RunRecord> {
        self.run_campaign_with(specs, |_| {}).records
    }

    /// Runs the campaign, invoking `on_event` (on this thread) as runs
    /// start and finish, and returns the full [`CampaignResult`]: records
    /// merged ascending by spec id, independent of completion order.
    pub fn run_campaign_with(
        &self,
        specs: Vec<RunSpec>,
        mut on_event: impl FnMut(&CampaignEvent),
    ) -> CampaignResult {
        if specs.is_empty() {
            return CampaignResult::default();
        }
        let total = specs.len();
        let specs = Arc::new(specs);
        let queue: Arc<Mutex<VecDeque<usize>>> = Arc::new(Mutex::new((0..total).collect()));
        let (tx, rx) = mpsc::channel::<WorkerMsg>();

        let workers = self.workers.min(total);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let specs = Arc::clone(&specs);
            let queue = Arc::clone(&queue);
            let cache = Arc::clone(&self.cache);
            let obs = self.obs.clone();
            let tx = tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("campaign-worker-{w}"))
                .spawn(move || {
                    let wlog = obs.logger.with("worker", w);
                    loop {
                        let next = {
                            let mut q = queue.lock().unwrap_or_else(|p| p.into_inner());
                            q.pop_front()
                        };
                        let Some(idx) = next else { break };
                        let spec = &specs[idx];
                        let _ = tx.send(WorkerMsg::Started {
                            id: spec.id,
                            label: spec.label.clone(),
                        });
                        let record = execute_one(spec, &cache, &obs, &wlog);
                        let _ = tx.send(WorkerMsg::Done {
                            idx,
                            record: Box::new(record),
                        });
                    }
                })
                .expect("spawning campaign worker");
            handles.push(handle);
        }
        drop(tx);

        let mut slots: Vec<Option<RunRecord>> = (0..total).map(|_| None).collect();
        let mut remaining = total;
        while remaining > 0 {
            match rx.recv() {
                Ok(WorkerMsg::Started { id, label }) => {
                    on_event(&CampaignEvent::RunStarted { id, label: &label });
                }
                Ok(WorkerMsg::Done { idx, record }) => {
                    on_event(&CampaignEvent::RunFinished(&record));
                    slots[idx] = Some(*record);
                    remaining -= 1;
                }
                // All senders gone with work outstanding: a worker thread
                // died outside the per-run catch_unwind. Backfilled below.
                Err(_) => break,
            }
        }
        for handle in handles {
            let _ = handle.join();
        }
        let mut records: Vec<RunRecord> = slots
            .into_iter()
            .enumerate()
            .map(|(idx, slot)| {
                slot.unwrap_or_else(|| {
                    let spec = &specs[idx];
                    RunRecord {
                        id: spec.id,
                        label: spec.label.clone(),
                        scheduler: spec.scheduler.label().to_owned(),
                        scenario_fingerprint: spec.fingerprint(),
                        cached: false,
                        wall_seconds: 0.0,
                        outcome: RunOutcome::Failed(RunError::Panicked(
                            "worker thread died before reporting".into(),
                        )),
                        metrics: None,
                        postmortem: None,
                    }
                })
            })
            .collect();
        records.sort_by_key(|r| r.id);
        CampaignResult { records }
    }
}

enum WorkerMsg {
    Started { id: u64, label: String },
    Done { idx: usize, record: Box<RunRecord> },
}

/// Executes one spec on the current thread: cache lookup, then build +
/// run under `catch_unwind` so a panicking scenario yields a structured
/// error instead of unwinding through the pool.
///
/// `wlog` is the worker-bound logger; the spec's run id, fingerprint,
/// and scheduler are bound here so every downstream record carries them.
fn execute_one(
    spec: &RunSpec,
    cache: &ResultCache,
    obs: &Observability,
    wlog: &Logger,
) -> RunRecord {
    let scenario_fingerprint = spec.fingerprint();
    let start = Instant::now();
    let rlog = if wlog.is_enabled() {
        wlog.with("run_id", spec.id)
            .with("fingerprint", scenario_fingerprint.as_str())
            .with("scheduler", spec.scheduler.label())
    } else {
        Logger::disabled()
    };
    if let Some(hit) = cache.get(&scenario_fingerprint) {
        rlog.info("cache_hit", &[]);
        return RunRecord {
            id: spec.id,
            label: spec.label.clone(),
            scheduler: spec.scheduler.label().to_owned(),
            scenario_fingerprint,
            cached: true,
            wall_seconds: start.elapsed().as_secs_f64(),
            outcome: RunOutcome::Completed(hit),
            metrics: None,
            postmortem: None,
        };
    }
    rlog.debug("run_executing", &[field("label", spec.label.as_str())]);

    // Per-run instrumentation: the telemetry registry and the flight
    // recorder are handles around `Arc` state, so both survive the
    // simulation being consumed by `try_run` — and survive the panic
    // that makes them interesting.
    // Engine telemetry is attached only when someone will read it: the
    // metrics collector, or a flight-recorder dump (post-mortems embed a
    // snapshot). Logger-only campaigns skip it entirely.
    let instrument = obs.collect_metrics || obs.recorder.is_some();
    let telemetry = if instrument {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let recorder = obs.recorder.as_ref().map(|_| FlightRecorder::new());
    let result = catch_unwind(AssertUnwindSafe(|| -> Result<Report, RunError> {
        let mut sim = spec.build().map_err(RunError::Setup)?;
        if instrument {
            sim.set_telemetry(telemetry.clone());
        }
        if let Some(rec) = &recorder {
            sim.add_observer(rec.observer());
        }
        sim.try_run().map_err(|e| RunError::Sim(e.to_string()))
    }));
    let outcome = match result {
        Ok(Ok(report)) => {
            let run = Arc::new(CachedRun::new(report));
            cache.insert(scenario_fingerprint.clone(), Arc::clone(&run));
            RunOutcome::Completed(run)
        }
        Ok(Err(e)) => RunOutcome::Failed(e),
        Err(payload) => RunOutcome::Failed(RunError::Panicked(panic_message(payload))),
    };
    let wall_seconds = start.elapsed().as_secs_f64();
    let metrics = if obs.collect_metrics {
        Some(telemetry.snapshot())
    } else {
        None
    };
    let postmortem = match &outcome {
        RunOutcome::Failed(err) => write_postmortem(
            spec,
            &scenario_fingerprint,
            err,
            obs,
            &recorder,
            &telemetry,
            &rlog,
        ),
        RunOutcome::Completed(run) => {
            rlog.info(
                "run_finished",
                &[
                    field("report_digest", run.digest.as_str()),
                    field("wall_seconds", wall_seconds),
                ],
            );
            None
        }
    };
    RunRecord {
        id: spec.id,
        label: spec.label.clone(),
        scheduler: spec.scheduler.label().to_owned(),
        scenario_fingerprint,
        cached: false,
        wall_seconds,
        outcome,
        metrics,
        postmortem,
    }
}

/// Logs a run failure and, when a flight recorder is attached, dumps the
/// post-mortem JSON. Dump failures are logged and swallowed — diagnostics
/// must never escalate a run failure into a campaign failure.
fn write_postmortem(
    spec: &RunSpec,
    scenario_fingerprint: &str,
    err: &RunError,
    obs: &Observability,
    recorder: &Option<FlightRecorder>,
    telemetry: &Telemetry,
    rlog: &Logger,
) -> Option<PathBuf> {
    let reason = match err {
        RunError::Setup(_) => "setup_error",
        RunError::Sim(_) => "sim_error",
        RunError::Panicked(_) => "panicked",
    };
    rlog.error(
        "run_failed",
        &[field("reason", reason), field("message", err.to_string())],
    );
    let (Some(rec), Some(dir)) = (recorder, &obs.recorder) else {
        return None;
    };
    rec.write_postmortem(
        &dir.join(format!(
            "postmortem-run{}-{scenario_fingerprint}.json",
            spec.id
        )),
        reason,
        &err.to_string(),
        &[
            ("run_id", Value::Num(spec.id as f64)),
            ("label", Value::Str(spec.label.clone())),
            ("scheduler", Value::Str(spec.scheduler.label().to_owned())),
            ("fingerprint", Value::Str(scenario_fingerprint.to_owned())),
        ],
        &telemetry.snapshot(),
        rlog,
    )
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Per-scheduler aggregate over a merged campaign, for summary tables.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedulerAggregate {
    /// Scheduler identity.
    pub scheduler: String,
    /// Completed runs.
    pub completed: usize,
    /// Failed runs.
    pub failed: usize,
    /// Results served from cache.
    pub cached: usize,
    /// Mean makespan over completed runs, seconds.
    pub mean_makespan: f64,
    /// Mean cluster utilization over completed runs, in `[0, 1]`.
    pub mean_utilization: f64,
    /// Mean of per-run mean waits, seconds.
    pub mean_wait: f64,
    /// Mean of per-run mean bounded slowdowns.
    pub mean_bounded_slowdown: f64,
}

/// Aggregates merged records per scheduler, sorted by scheduler name —
/// deterministic input (id-ordered records) gives deterministic output.
pub fn aggregate_by_scheduler(records: &[RunRecord]) -> Vec<SchedulerAggregate> {
    let mut by_sched: std::collections::BTreeMap<&str, Vec<&RunRecord>> =
        std::collections::BTreeMap::new();
    for record in records {
        by_sched.entry(&record.scheduler).or_default().push(record);
    }
    by_sched
        .into_iter()
        .map(|(scheduler, group)| {
            let summaries: Vec<elastisim::Summary> = group
                .iter()
                .filter_map(|r| r.report())
                .map(|r| r.summary())
                .collect();
            let n = summaries.len().max(1) as f64;
            SchedulerAggregate {
                scheduler: scheduler.to_owned(),
                completed: summaries.len(),
                failed: group.iter().filter(|r| r.error().is_some()).count(),
                cached: group.iter().filter(|r| r.cached).count(),
                mean_makespan: summaries.iter().map(|s| s.makespan).sum::<f64>() / n,
                mean_utilization: summaries.iter().map(|s| s.utilization).sum::<f64>() / n,
                mean_wait: summaries.iter().map(|s| s.mean_wait).sum::<f64>() / n,
                mean_bounded_slowdown: summaries
                    .iter()
                    .map(|s| s.mean_bounded_slowdown)
                    .sum::<f64>()
                    / n,
            }
        })
        .collect()
}
