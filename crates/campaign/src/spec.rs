//! Scenario *specification*, split from run *state*.
//!
//! A [`RunSpec`] is everything needed to construct a simulation run —
//! platform, workload, configuration, scheduler — held immutably behind
//! `Arc`s so a campaign over N scenarios shares one copy of each input
//! instead of rebuilding them per run. Constructing the actual
//! [`elastisim::Simulation`] from a spec ([`RunSpec::build`]) is cheap:
//! one workload clone plus engine setup, no parsing or generation.
//!
//! Every spec has a canonical **scenario fingerprint**
//! ([`RunSpec::fingerprint`]) hashed over the serialized inputs that can
//! affect the report. The determinism oracles in `simtest` pin that equal
//! inputs produce byte-identical reports, so the fingerprint is a sound
//! cache key: same fingerprint ⇒ same report bytes.

use std::sync::Arc;

use elastisim::{fnv_digest, SimConfig};
use elastisim_platform::PlatformSpec;
use elastisim_sched::Scheduler;
use elastisim_workload::JobSpec;
use simtest::Scenario;

/// How a run obtains its scheduler.
#[derive(Clone)]
pub enum SchedulerSpec {
    /// A registry scheduler, looked up via [`elastisim_sched::by_name`].
    Named(String),
    /// A caller-supplied factory (e.g. an experimental policy not in the
    /// registry). The `label` stands in for the algorithm in the scenario
    /// fingerprint, so it **must uniquely identify the behaviour** —
    /// reusing a label across different algorithms makes the result
    /// cache unsound for those runs.
    Custom {
        /// Fingerprint-visible identity of the algorithm.
        label: String,
        /// Builds a fresh scheduler instance per run.
        factory: Arc<dyn Fn() -> Box<dyn Scheduler> + Send + Sync>,
    },
}

impl std::fmt::Debug for SchedulerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerSpec::Named(name) => write!(f, "Named({name:?})"),
            SchedulerSpec::Custom { label, .. } => write!(f, "Custom({label:?})"),
        }
    }
}

impl SchedulerSpec {
    /// The fingerprint-visible scheduler identity.
    pub fn label(&self) -> &str {
        match self {
            SchedulerSpec::Named(name) => name,
            SchedulerSpec::Custom { label, .. } => label,
        }
    }

    /// Builds a fresh scheduler instance.
    pub fn instantiate(&self) -> Result<Box<dyn Scheduler>, String> {
        match self {
            SchedulerSpec::Named(name) => {
                elastisim_sched::by_name(name).ok_or_else(|| format!("unknown scheduler `{name}`"))
            }
            SchedulerSpec::Custom { factory, .. } => Ok(factory()),
        }
    }
}

/// One fully specified, cheaply constructible unit of campaign work.
///
/// The shareable inputs sit behind `Arc`s; cloning a spec is a handful of
/// reference-count bumps. `id` orders results in the merged campaign
/// output and `label` names the run in progress streams — neither enters
/// the fingerprint, so the same scenario submitted under different ids
/// still hits the cache.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Position of this run in the campaign's merged output.
    pub id: u64,
    /// Human-readable run name (e.g. `seed17/fcfs`).
    pub label: String,
    /// The platform, shared across runs.
    pub platform: Arc<PlatformSpec>,
    /// The workload, shared across runs.
    pub workload: Arc<Vec<JobSpec>>,
    /// Simulation knobs.
    pub config: SimConfig,
    /// The scheduling algorithm.
    pub scheduler: SchedulerSpec,
}

impl RunSpec {
    /// A spec over explicit inputs and a registry scheduler name.
    pub fn new(
        id: u64,
        label: impl Into<String>,
        platform: Arc<PlatformSpec>,
        workload: Arc<Vec<JobSpec>>,
        config: SimConfig,
        scheduler: impl Into<String>,
    ) -> Self {
        RunSpec {
            id,
            label: label.into(),
            platform,
            workload,
            config,
            scheduler: SchedulerSpec::Named(scheduler.into()),
        }
    }

    /// Materializes the conformance-corpus scenario for `seed` under the
    /// named scheduler — the unit `elastisim sweep` shards over. The
    /// fingerprint covers the materialized platform/workload/config, not
    /// the seed, so equivalent scenarios reached via different seeds
    /// still share a cache entry.
    pub fn from_seed(id: u64, seed: u64, scheduler: &str) -> Self {
        let scenario = Scenario::from_seed(seed);
        RunSpec {
            id,
            label: format!("seed{seed}/{scheduler}"),
            platform: Arc::new(scenario.platform()),
            workload: Arc::new(scenario.jobs()),
            config: scenario.config(),
            scheduler: SchedulerSpec::Named(scheduler.to_owned()),
        }
    }

    /// Constructs the owned, `Send` simulation for this spec.
    pub fn build(&self) -> Result<elastisim::Simulation, String> {
        let scheduler = self.scheduler.instantiate()?;
        elastisim::Simulation::new(
            &self.platform,
            (*self.workload).clone(),
            scheduler,
            self.config.clone(),
        )
        .map_err(|e| e.to_string())
    }

    /// The canonical serialization of every result-affecting input, the
    /// text the fingerprint hashes. Exposed for tests and debugging.
    pub fn canonical_input(&self) -> String {
        let platform =
            serde_json::to_string(&*self.platform).expect("platform serialization cannot fail");
        let workload =
            serde_json::to_string(&*self.workload).expect("workload serialization cannot fail");
        format!(
            "platform={platform}\nworkload={workload}\nconfig={}\nscheduler={}\n",
            canonical_config(&self.config),
            self.scheduler.label(),
        )
    }

    /// The scenario fingerprint: a 128-bit FNV-1a digest of
    /// [`canonical_input`](Self::canonical_input), rendered as
    /// `sfp1-<32 hex digits>`. Equal fingerprints mean equal
    /// result-affecting inputs, and the determinism oracles guarantee
    /// equal inputs produce byte-identical reports — the soundness basis
    /// of the campaign result cache.
    pub fn fingerprint(&self) -> String {
        fnv_digest("sfp1", &self.canonical_input())
    }
}

/// Half-open seed range `[start, end)` for campaign fan-out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SeedRange {
    /// First seed, inclusive.
    pub start: u64,
    /// End seed, exclusive.
    pub end: u64,
}

impl SeedRange {
    /// Number of seeds in the range.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// The seeds, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u64> {
        self.start..self.end
    }
}

/// Expands seeds × schedulers into id-ordered specs over the conformance
/// corpus: the seed range is the outer loop, schedulers the inner, so run
/// ids (and the merged output) are stable regardless of worker count.
pub fn campaign_specs(seeds: SeedRange, schedulers: &[String]) -> Result<Vec<RunSpec>, String> {
    if seeds.is_empty() {
        return Err(format!(
            "empty seed range {}..{} (end is exclusive)",
            seeds.start, seeds.end
        ));
    }
    if schedulers.is_empty() {
        return Err("no schedulers requested".into());
    }
    for name in schedulers {
        if elastisim_sched::by_name(name).is_none() {
            return Err(format!(
                "unknown scheduler `{name}` (known: {})",
                elastisim_sched::SCHEDULER_NAMES.join(", ")
            ));
        }
    }
    let mut specs = Vec::with_capacity((seeds.len() as usize) * schedulers.len());
    let mut id = 0u64;
    for seed in seeds.iter() {
        for scheduler in schedulers {
            specs.push(RunSpec::from_seed(id, seed, scheduler));
            id += 1;
        }
    }
    Ok(specs)
}

/// Serializes the result-affecting `SimConfig` fields in a fixed order.
/// `progress` is deliberately excluded: the stderr heartbeat never
/// influences the report, so configs differing only in it must share a
/// fingerprint (and thus a cache entry).
fn canonical_config(cfg: &SimConfig) -> String {
    use std::fmt::Write as _;
    let mut s = format!(
        "interval={:?};submit={};completion={};evolving={};sched_point={};release={};gantt={};cost=",
        cfg.scheduling_interval,
        cfg.invoke_on_submit,
        cfg.invoke_on_completion,
        cfg.invoke_on_evolving_request,
        cfg.invoke_on_scheduling_point,
        cfg.invoke_on_release,
        cfg.record_gantt,
    );
    match cfg.reconfig_cost {
        elastisim::ReconfigCost::Free => s.push_str("free"),
        elastisim::ReconfigCost::Fixed(seconds) => {
            let _ = write!(s, "fixed:{seconds:?}");
        }
        elastisim::ReconfigCost::DataVolume { bytes_per_node } => {
            let _ = write!(s, "volume:{bytes_per_node:?}");
        }
    }
    s.push_str(";failures=");
    match cfg.failures {
        None => s.push_str("none"),
        Some(f) => {
            let _ = write!(
                s,
                "mtbf:{:?},repair:{:?},seed:{}",
                f.node_mtbf, f.repair_time, f.seed
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_deterministic_and_ignores_id_and_label() {
        let a = RunSpec::from_seed(0, 7, "fcfs");
        let mut b = RunSpec::from_seed(99, 7, "fcfs");
        b.label = "renamed".into();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.fingerprint().starts_with("sfp1-"), "{}", a.fingerprint());
        assert_eq!(a.fingerprint().len(), "sfp1-".len() + 32);
    }

    #[test]
    fn fingerprint_is_pinned() {
        // Fingerprints appear in `--records` files and key the result
        // cache, so this literal may change only with a deliberate bump
        // of the `sfp1` format version.
        assert_eq!(
            RunSpec::from_seed(0, 7, "fcfs").fingerprint(),
            "sfp1-4becc073404b322b2c67b83fc998a13a"
        );
    }

    #[test]
    fn fingerprint_separates_seeds_and_schedulers() {
        let base = RunSpec::from_seed(0, 7, "fcfs");
        assert_ne!(
            base.fingerprint(),
            RunSpec::from_seed(0, 8, "fcfs").fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            RunSpec::from_seed(0, 7, "easy").fingerprint()
        );
    }

    #[test]
    fn fingerprint_covers_config_but_not_progress() {
        let mut a = RunSpec::from_seed(0, 7, "fcfs");
        let fp = a.fingerprint();
        a.config.progress = Some(5.0);
        assert_eq!(fp, a.fingerprint(), "progress must be result-neutral");
        a.config.scheduling_interval += 1.0;
        assert_ne!(fp, a.fingerprint(), "interval is result-affecting");
    }

    #[test]
    fn build_constructs_a_runnable_simulation() {
        let spec = RunSpec::from_seed(0, 7, "fcfs");
        let report = spec.build().expect("valid spec").run();
        assert!(!report.jobs.is_empty());
        // And builds are repeatable from the same shared inputs.
        let again = spec.build().expect("valid spec").run();
        assert_eq!(report.digest(), again.digest());
        assert_eq!(
            (
                report.events,
                report.recomputes,
                report.scheduler_invocations
            ),
            (again.events, again.recomputes, again.scheduler_invocations)
        );
    }

    #[test]
    fn unknown_scheduler_is_a_setup_error() {
        let spec = RunSpec::from_seed(0, 7, "nope");
        let err = spec.build().map(|_| ()).unwrap_err();
        assert!(err.contains("unknown scheduler"), "{err}");
    }

    #[test]
    fn custom_scheduler_uses_its_label() {
        let spec = RunSpec {
            scheduler: SchedulerSpec::Custom {
                label: "fcfs-variant".into(),
                factory: Arc::new(|| elastisim_sched::by_name("fcfs").unwrap()),
            },
            ..RunSpec::from_seed(0, 7, "fcfs")
        };
        assert_eq!(spec.scheduler.label(), "fcfs-variant");
        assert_ne!(
            spec.fingerprint(),
            RunSpec::from_seed(0, 7, "fcfs").fingerprint()
        );
        spec.build().expect("custom factory builds");
    }

    #[test]
    fn seed_range_is_half_open() {
        let range = SeedRange { start: 3, end: 6 };
        assert_eq!(range.len(), 3);
        assert_eq!(range.iter().collect::<Vec<_>>(), vec![3, 4, 5]);
        assert!(SeedRange { start: 6, end: 6 }.is_empty());
        assert_eq!(SeedRange { start: 9, end: 2 }.len(), 0);
    }

    #[test]
    fn empty_inputs_are_rejected() {
        assert!(campaign_specs(SeedRange { start: 2, end: 2 }, &["fcfs".into()]).is_err());
        assert!(campaign_specs(SeedRange { start: 0, end: 1 }, &[]).is_err());
    }
}
