//! Statistics collection and the simulation report.

use elastisim_platform::NodeId;
use elastisim_workload::{JobClass, JobId};
use serde::{Deserialize, Serialize};

/// Why a job left the system.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Outcome {
    /// Ran its whole application.
    Completed,
    /// Exceeded its walltime limit and was killed.
    WalltimeExceeded,
    /// Removed by a scheduler `Kill` decision (or cancelled because a
    /// dependency did not complete).
    Killed,
    /// Lost to a node failure.
    NodeFailure,
}

/// Per-job accounting.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job id.
    pub id: JobId,
    /// Elasticity class.
    pub class: JobClass,
    /// Submission time.
    pub submit: f64,
    /// Start time (`None` if it never started).
    pub start: Option<f64>,
    /// End time (`None` only for jobs cut off by an aborted run).
    pub end: Option<f64>,
    /// How it ended.
    pub outcome: Outcome,
    /// Integral of allocated nodes over the job's runtime.
    pub node_seconds: f64,
    /// Largest allocation it ever held.
    pub max_nodes_held: u32,
    /// Number of applied reconfigurations.
    pub reconfigs: u32,
    /// Latency (seconds) from each evolving request to its application;
    /// empty for non-evolving jobs (experiment R-F3's metric).
    pub evolving_latencies: Vec<f64>,
}

impl JobRecord {
    /// Queue wait: start − submit.
    pub fn wait(&self) -> Option<f64> {
        self.start.map(|s| s - self.submit)
    }

    /// Turnaround: end − submit.
    pub fn turnaround(&self) -> Option<f64> {
        self.end.map(|e| e - self.submit)
    }

    /// Runtime: end − start.
    pub fn runtime(&self) -> Option<f64> {
        match (self.start, self.end) {
            (Some(s), Some(e)) => Some(e - s),
            _ => None,
        }
    }

    /// Bounded slowdown with the conventional 10-second floor.
    pub fn bounded_slowdown(&self) -> Option<f64> {
        let t = self.turnaround()?;
        let r = self.runtime()?.max(10.0);
        Some((t / r).max(1.0))
    }
}

/// One allocation interval for the Gantt trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GanttEntry {
    /// The job.
    pub job: JobId,
    /// The node.
    pub node: NodeId,
    /// Interval start.
    pub from: f64,
    /// Interval end.
    pub to: f64,
}

/// Change-point series of the number of allocated nodes over time; exact
/// (not sampled), so any utilization plot can be derived.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct UtilizationSeries {
    /// `(time, allocated nodes)` — the count holds from this instant until
    /// the next entry.
    pub points: Vec<(f64, u32)>,
}

impl UtilizationSeries {
    pub(crate) fn record(&mut self, t: f64, allocated: u32) {
        if let Some(&(lt, lv)) = self.points.last() {
            if lv == allocated {
                return;
            }
            debug_assert!(t >= lt);
        }
        self.points.push((t, allocated));
    }

    /// Integral of allocated nodes over `[0, horizon]`, node-seconds.
    pub fn node_seconds(&self, horizon: f64) -> f64 {
        let mut acc = 0.0;
        for w in self.points.windows(2) {
            let (t0, v) = w[0];
            let (t1, _) = w[1];
            acc += v as f64 * (t1.min(horizon) - t0.min(horizon));
        }
        if let Some(&(t, v)) = self.points.last() {
            if horizon > t {
                acc += v as f64 * (horizon - t);
            }
        }
        acc
    }

    /// Mean allocated nodes over `[0, horizon]`.
    pub fn mean_allocated(&self, horizon: f64) -> f64 {
        if horizon <= 0.0 {
            return 0.0;
        }
        self.node_seconds(horizon) / horizon
    }

    /// Resamples at fixed `dt` (for plotting), returning `(time, value)`
    /// rows covering `[0, horizon]`.
    pub fn resample(&self, dt: f64, horizon: f64) -> Vec<(f64, u32)> {
        assert!(dt > 0.0);
        let mut out = Vec::new();
        let mut idx = 0;
        let mut current = 0u32;
        let mut t = 0.0;
        while t <= horizon {
            while idx < self.points.len() && self.points[idx].0 <= t {
                current = self.points[idx].1;
                idx += 1;
            }
            out.push((t, current));
            t += dt;
        }
        out
    }
}

/// Category of a [`Warning`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum WarningKind {
    /// The engine rejected a scheduler decision as invalid.
    DecisionRejected,
    /// The scheduler stopped making progress with pending jobs left.
    NoProgress,
    /// Activities were still in flight when the simulation ended.
    StalledActivities,
    /// A pending job was cancelled because a dependency did not complete.
    DependencyCancelled,
    /// A task could not be translated into platform activities.
    TaskFailed,
    /// A pending reconfiguration was cancelled by a node failure.
    ReconfigCancelled,
    /// A running job was killed by a node failure.
    NodeFailureKill,
}

/// One structured warning from a run: when it happened, which job it
/// concerns (if any), its category, and the human-readable message.
///
/// `Display` prints just the message, so text output built from warnings
/// is unchanged from when these were plain strings.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Warning {
    /// Simulated time the warning was raised.
    pub time: f64,
    /// The job concerned, when the warning is about one job.
    #[serde(default)]
    pub job: Option<JobId>,
    /// What category of problem this is.
    pub kind: WarningKind,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Warning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Aggregate metrics over the completed jobs of a run.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct Summary {
    /// Number of jobs that completed normally.
    pub completed: usize,
    /// Number of killed jobs (walltime or scheduler).
    pub killed: usize,
    /// Latest end time of any job (the makespan of the workload).
    pub makespan: f64,
    /// Mean queue wait of started jobs.
    pub mean_wait: f64,
    /// Mean turnaround of finished jobs.
    pub mean_turnaround: f64,
    /// Mean bounded slowdown of finished jobs.
    pub mean_bounded_slowdown: f64,
    /// Median queue wait (nearest-rank) of started jobs.
    #[serde(default)]
    pub p50_wait: f64,
    /// 95th-percentile queue wait of started jobs.
    #[serde(default)]
    pub p95_wait: f64,
    /// 99th-percentile queue wait of started jobs.
    #[serde(default)]
    pub p99_wait: f64,
    /// Median bounded slowdown of finished jobs.
    #[serde(default)]
    pub p50_bounded_slowdown: f64,
    /// 95th-percentile bounded slowdown of finished jobs.
    #[serde(default)]
    pub p95_bounded_slowdown: f64,
    /// 99th-percentile bounded slowdown of finished jobs.
    #[serde(default)]
    pub p99_bounded_slowdown: f64,
    /// Node-seconds allocated across all jobs / (nodes × makespan).
    pub utilization: f64,
}

/// Full result of one simulation run.
///
/// Serializes to JSON in full. Its *answer* is everything but the three
/// engine counters (`events`, `recomputes`, `scheduler_invocations`):
/// [`Report::fingerprint`] renders it and [`Report::digest`] hashes it.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Report {
    /// Per-job records, ascending id.
    pub jobs: Vec<JobRecord>,
    /// Allocated-node change points.
    pub utilization: UtilizationSeries,
    /// Gantt trace (empty unless enabled in the config).
    pub gantt: Vec<GanttEntry>,
    /// Number of user events the DES delivered.
    pub events: u64,
    /// Number of fair-share recomputations.
    pub recomputes: u64,
    /// Number of scheduler invocations.
    pub scheduler_invocations: u64,
    /// Structured warnings: rejected decisions, cancelled jobs, stalls.
    pub warnings: Vec<Warning>,
    /// Platform size, for utilization math.
    pub total_nodes: usize,
}

impl Report {
    /// Computes aggregate metrics.
    pub fn summary(&self) -> Summary {
        let finished: Vec<&JobRecord> = self.jobs.iter().filter(|j| j.end.is_some()).collect();
        let makespan = finished.iter().filter_map(|j| j.end).fold(0.0f64, f64::max);
        let waits: Vec<f64> = self.jobs.iter().filter_map(JobRecord::wait).collect();
        let tats: Vec<f64> = finished.iter().filter_map(|j| j.turnaround()).collect();
        let slows: Vec<f64> = finished
            .iter()
            .filter_map(|j| j.bounded_slowdown())
            .collect();
        let node_seconds: f64 = self.jobs.iter().map(|j| j.node_seconds).sum();
        Summary {
            completed: self
                .jobs
                .iter()
                .filter(|j| j.outcome == Outcome::Completed && j.end.is_some())
                .count(),
            killed: self
                .jobs
                .iter()
                .filter(|j| j.end.is_some() && j.outcome != Outcome::Completed)
                .count(),
            makespan,
            mean_wait: mean(&waits),
            mean_turnaround: mean(&tats),
            mean_bounded_slowdown: mean(&slows),
            p50_wait: self.quantile(0.50, JobRecord::wait).unwrap_or(0.0),
            p95_wait: self.quantile(0.95, JobRecord::wait).unwrap_or(0.0),
            p99_wait: self.quantile(0.99, JobRecord::wait).unwrap_or(0.0),
            p50_bounded_slowdown: self
                .quantile(0.50, JobRecord::bounded_slowdown)
                .unwrap_or(0.0),
            p95_bounded_slowdown: self
                .quantile(0.95, JobRecord::bounded_slowdown)
                .unwrap_or(0.0),
            p99_bounded_slowdown: self
                .quantile(0.99, JobRecord::bounded_slowdown)
                .unwrap_or(0.0),
            utilization: if makespan > 0.0 && self.total_nodes > 0 {
                node_seconds / (self.total_nodes as f64 * makespan)
            } else {
                0.0
            },
        }
    }

    /// The record for one job.
    pub fn job(&self, id: JobId) -> Option<&JobRecord> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Aggregate metrics restricted to one job class (e.g. to compare how
    /// rigid vs malleable jobs fared inside a mixed workload).
    pub fn summary_for_class(&self, class: JobClass) -> Summary {
        let filtered = Report {
            jobs: self
                .jobs
                .iter()
                .filter(|j| j.class == class)
                .cloned()
                .collect(),
            utilization: UtilizationSeries::default(),
            gantt: Vec::new(),
            events: 0,
            recomputes: 0,
            scheduler_invocations: 0,
            warnings: Vec::new(),
            total_nodes: self.total_nodes,
        };
        let mut s = filtered.summary();
        // Utilization is a cluster-level quantity; it is not meaningful
        // per class.
        s.utilization = 0.0;
        s
    }

    /// The report's answer as pretty-printed JSON: the whole report
    /// without its engine counters, which change whenever the engine does
    /// the same work differently. The golden snapshots pin this text.
    pub fn fingerprint(&self) -> String {
        serde_json::to_string_pretty(&Answer(self)).expect("report serialization cannot fail")
    }

    /// The canonical result digest, `rdg1-<32 hex>`: equal digests mean
    /// equal answers (see [`fingerprint`](Self::fingerprint)). The
    /// determinism oracles, the campaign records and the replay
    /// fingerprint all compare this.
    pub fn digest(&self) -> String {
        let answer =
            serde_json::to_string(&Answer(self)).expect("report serialization cannot fail");
        fnv_digest("rdg1", &answer)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1, nearest-rank) of a per-job metric over
    /// finished jobs, e.g. `report.quantile(0.95, |j| j.wait())`.
    pub fn quantile(&self, q: f64, metric: impl Fn(&JobRecord) -> Option<f64>) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let mut xs: Vec<f64> = self.jobs.iter().filter_map(metric).collect();
        if xs.is_empty() {
            return None;
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((xs.len() - 1) as f64 * q).round() as usize;
        Some(xs[idx])
    }
}

/// A [`Report`] serialized without its engine counters.
struct Answer<'a>(&'a Report);

impl Serialize for Answer<'_> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut value = serde::to_value(self.0).map_err(serde::ser::Error::custom)?;
        if let serde::Value::Map(fields) = &mut value {
            fields.retain(|(name, _)| {
                !matches!(
                    name.as_str(),
                    "events" | "recomputes" | "scheduler_invocations"
                )
            });
        }
        serializer.serialize_value(value)
    }
}

/// A 128-bit FNV-1a digest of `canon`, rendered `<prefix>-<32 hex>`: the
/// low half is FNV-1a, the high half FNV-1a from an offset basis perturbed
/// by the golden-ratio constant. Shared by the report digest (`rdg1-`)
/// and the campaign fingerprints (`sfp1-`, `rfp1-`, `rep1-`).
pub fn fnv_digest(prefix: &str, canon: &str) -> String {
    let (hi, lo) = fnv1a(canon.as_bytes());
    format!("{prefix}-{hi:016x}{lo:016x}")
}

fn fnv1a(bytes: &[u8]) -> (u64, u64) {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let start = (OFFSET ^ 0x9E37_79B9_7F4A_7C15, OFFSET);
    bytes.iter().fold(start, |(hi, lo), &b| {
        (
            (hi ^ b as u64).wrapping_mul(PRIME),
            (lo ^ b as u64).wrapping_mul(PRIME),
        )
    })
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, submit: f64, start: f64, end: f64) -> JobRecord {
        JobRecord {
            id: JobId(id),
            class: JobClass::Rigid,
            submit,
            start: Some(start),
            end: Some(end),
            outcome: Outcome::Completed,
            node_seconds: (end - start) * 2.0,
            max_nodes_held: 2,
            reconfigs: 0,
            evolving_latencies: vec![],
        }
    }

    #[test]
    fn job_record_derived_metrics() {
        let r = record(1, 10.0, 30.0, 130.0);
        assert_eq!(r.wait(), Some(20.0));
        assert_eq!(r.turnaround(), Some(120.0));
        assert_eq!(r.runtime(), Some(100.0));
        assert_eq!(r.bounded_slowdown(), Some(1.2));
    }

    #[test]
    fn bounded_slowdown_floors_short_jobs() {
        let r = record(1, 0.0, 100.0, 101.0); // 1 s runtime, 101 s turnaround
        assert_eq!(r.bounded_slowdown(), Some(101.0 / 10.0));
    }

    #[test]
    fn utilization_series_integrates() {
        let mut u = UtilizationSeries::default();
        u.record(0.0, 0);
        u.record(10.0, 4);
        u.record(20.0, 2);
        assert_eq!(u.node_seconds(30.0), 4.0 * 10.0 + 2.0 * 10.0);
        assert_eq!(u.mean_allocated(30.0), 60.0 / 30.0);
    }

    #[test]
    fn utilization_series_dedups_equal_values() {
        let mut u = UtilizationSeries::default();
        u.record(0.0, 2);
        u.record(5.0, 2);
        assert_eq!(u.points.len(), 1);
    }

    #[test]
    fn resample_steps() {
        let mut u = UtilizationSeries::default();
        u.record(0.0, 1);
        u.record(2.5, 3);
        let s = u.resample(1.0, 4.0);
        assert_eq!(s, vec![(0.0, 1), (1.0, 1), (2.0, 1), (3.0, 3), (4.0, 3)]);
    }

    #[test]
    fn summary_aggregates() {
        let report = Report {
            jobs: vec![record(1, 0.0, 0.0, 100.0), record(2, 0.0, 50.0, 150.0)],
            total_nodes: 4,
            ..Default::default()
        };
        let s = report.summary();
        assert_eq!(s.completed, 2);
        assert_eq!(s.makespan, 150.0);
        assert_eq!(s.mean_wait, 25.0);
        assert_eq!(s.mean_turnaround, 125.0);
        // node_seconds = 200 + 200 = 400; capacity = 4 × 150 = 600.
        assert!((s.utilization - 400.0 / 600.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_summary_is_zeroed() {
        let s = Report::default().summary();
        assert_eq!(s.completed, 0);
        assert_eq!(s.makespan, 0.0);
        assert_eq!(s.utilization, 0.0);
    }

    #[test]
    fn per_class_summary_filters() {
        let mut malleable = record(2, 0.0, 10.0, 60.0);
        malleable.class = JobClass::Malleable;
        let report = Report {
            jobs: vec![record(1, 0.0, 0.0, 100.0), malleable],
            total_nodes: 4,
            ..Default::default()
        };
        let rigid = report.summary_for_class(JobClass::Rigid);
        assert_eq!(rigid.completed, 1);
        assert_eq!(rigid.makespan, 100.0);
        let mall = report.summary_for_class(JobClass::Malleable);
        assert_eq!(mall.completed, 1);
        assert_eq!(mall.mean_wait, 10.0);
        assert_eq!(report.summary_for_class(JobClass::Evolving).completed, 0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let report = Report {
            jobs: (0..10).map(|i| record(i, 0.0, i as f64, 100.0)).collect(),
            total_nodes: 4,
            ..Default::default()
        };
        // Waits are 0..9.
        assert_eq!(report.quantile(0.0, |j| j.wait()), Some(0.0));
        assert_eq!(report.quantile(1.0, |j| j.wait()), Some(9.0));
        assert_eq!(report.quantile(0.5, |j| j.wait()), Some(5.0)); // round(4.5)=5
        assert_eq!(Report::default().quantile(0.5, |j| j.wait()), None);
    }

    fn answered() -> Report {
        let mut utilization = UtilizationSeries::default();
        utilization.record(0.0, 2);
        utilization.record(100.0, 0);
        Report {
            jobs: vec![record(1, 0.0, 0.0, 100.0)],
            utilization,
            gantt: vec![GanttEntry {
                job: JobId(1),
                node: NodeId(0),
                from: 0.0,
                to: 100.0,
            }],
            events: 7,
            recomputes: 5,
            scheduler_invocations: 3,
            warnings: vec![Warning {
                time: 1.0,
                job: None,
                kind: WarningKind::NoProgress,
                message: "stuck".into(),
            }],
            total_nodes: 4,
        }
    }

    #[test]
    fn digest_ignores_engine_counters() {
        let base = answered();
        let digest = base.digest();
        assert!(digest.starts_with("rdg1-"), "{digest}");
        assert_eq!(digest.len(), "rdg1-".len() + 32);
        let counters: [fn(&mut Report); 3] = [
            |r| r.events += 1,
            |r| r.recomputes += 1,
            |r| r.scheduler_invocations += 1,
        ];
        for bump in counters {
            let mut r = base.clone();
            bump(&mut r);
            assert_eq!(r.digest(), digest);
            assert_eq!(r.fingerprint(), base.fingerprint());
        }
        let text = base.fingerprint();
        for counter in ["events", "recomputes", "scheduler_invocations"] {
            assert!(!text.contains(counter), "{counter} in {text}");
        }
    }

    #[test]
    fn digest_moves_with_the_answer() {
        let base = answered();
        let answers: [fn(&mut Report); 5] = [
            |r| r.jobs[0].end = Some(101.0),
            |r| r.utilization.points[1].0 = 99.0,
            |r| r.gantt[0].to = 99.0,
            |r| r.warnings[0].message.push('!'),
            |r| r.total_nodes += 1,
        ];
        for change in answers {
            let mut r = base.clone();
            change(&mut r);
            assert_ne!(r.digest(), base.digest(), "{}", r.fingerprint());
        }
    }

    #[test]
    fn fnv_digest_is_pinned() {
        // FNV-1a's published 64-bit value for "a" is the low half.
        assert_eq!(
            fnv_digest("x", "a"),
            format!("x-{:016x}af63dc4c8601ec8c", fnv1a(b"a").0)
        );
        assert_eq!(fnv1a(b"").1, 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    #[should_panic]
    fn quantile_out_of_range_panics() {
        let _ = Report::default().quantile(1.5, |j| j.wait());
    }
}
