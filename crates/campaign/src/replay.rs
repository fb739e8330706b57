//! Trace replay as a campaign: one converted SWF workload fanned over
//! the scheduler registry as cache-keyed [`RunSpec`]s.
//!
//! The workload side (streaming SWF conversion + malleability injection)
//! lives in `elastisim_workload`; this module owns the *campaign* side:
//!
//! * [`ReplaySpec`] — the full description of a replay experiment (trace,
//!   injection parameters, platform sizing, scheduler list, sim config),
//!   with a canonical `rfp1-` **replay fingerprint** covering every
//!   result-affecting input, injection parameters included. Two replays
//!   with equal fingerprints produce byte-identical reports, which makes
//!   the executor's result cache sound across replay invocations too.
//! * [`ReplayCampaign`] — the converted artifacts (platform, workload,
//!   stats) plus the [`run_specs`](ReplayCampaign::run_specs) fan-out.
//! * [`combined_fingerprint`] — a digest over the per-scheduler report
//!   digests of a finished replay, the quantity the determinism
//!   acceptance check compares across reruns and worker counts.
//! * [`render_table`] / [`render_markdown`] — the comparison table
//!   (makespan, mean/p95 wait, bounded slowdown, utilization), in CLI
//!   and EXPERIMENTS.md-ready forms.

use std::io;
use std::sync::Arc;

use elastisim::{fnv_digest, SimConfig};
use elastisim_platform::{NodeSpec, PlatformSpec};
use elastisim_workload::{convert_stream, InjectionConfig, JobSpec, ReplayStats};

use crate::executor::RunRecord;
use crate::spec::RunSpec;

/// The full, fingerprintable description of one replay experiment.
#[derive(Clone, Debug)]
pub struct ReplaySpec {
    /// Display name of the trace (file stem); label-only, not part of the
    /// fingerprint — the workload bytes are.
    pub trace_name: String,
    /// The seeded injection model (fractions, scaling, platform cap).
    pub injection: InjectionConfig,
    /// Node speed used to convert recorded seconds into work.
    pub node_flops: f64,
    /// Processors folded into one simulated node.
    pub procs_per_node: u32,
    /// Schedulers to fan over, in run order.
    pub schedulers: Vec<String>,
    /// Simulation knobs shared by every run.
    pub config: SimConfig,
}

impl ReplaySpec {
    /// A replay over the full scheduler registry with default conversion
    /// parameters (one processor per simulated node of default speed).
    pub fn new(trace_name: impl Into<String>, injection: InjectionConfig) -> Self {
        ReplaySpec {
            trace_name: trace_name.into(),
            injection,
            node_flops: NodeSpec::default().flops,
            procs_per_node: 1,
            schedulers: elastisim_sched::SCHEDULER_NAMES
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            config: SimConfig::default(),
        }
    }

    /// Streams `input` through conversion + injection and packages the
    /// result as a runnable campaign. The platform is sized from the
    /// injection override, the trace header, or the largest job — in
    /// that order — and the converted workload is validated against it.
    pub fn convert<R: io::BufRead>(self, input: R) -> Result<ReplayCampaign, String> {
        for name in &self.schedulers {
            if elastisim_sched::by_name(name).is_none() {
                return Err(format!("unknown scheduler `{name}`"));
            }
        }
        let (workload, stats) =
            convert_stream(input, self.node_flops, self.procs_per_node, &self.injection)
                .map_err(|e| e.to_string())?;
        let nodes = stats.platform_nodes(&self.injection, self.procs_per_node);
        let platform = PlatformSpec::homogeneous(
            format!("replay-{}", self.trace_name),
            nodes as usize,
            NodeSpec {
                flops: self.node_flops,
                ..NodeSpec::default()
            },
        );
        elastisim_workload::validate_workload(&workload, nodes as usize)
            .map_err(|e| e.to_string())?;
        Ok(ReplayCampaign {
            spec: self,
            platform: Arc::new(platform),
            workload: Arc::new(workload),
            stats,
        })
    }
}

/// A converted, validated replay ready to fan out.
#[derive(Clone, Debug)]
pub struct ReplayCampaign {
    /// The experiment description this was converted from.
    pub spec: ReplaySpec,
    /// The derived platform, shared by every run.
    pub platform: Arc<PlatformSpec>,
    /// The converted workload, shared by every run.
    pub workload: Arc<Vec<JobSpec>>,
    /// Conversion counters (parsed/skipped/injected…).
    pub stats: ReplayStats,
}

impl ReplayCampaign {
    /// One [`RunSpec`] per scheduler, ids following scheduler order. Each
    /// spec's scenario fingerprint covers the converted workload bytes —
    /// and through them every injection decision — so the executor cache
    /// stays sound across replays that differ in seed or fraction.
    pub fn run_specs(&self) -> Vec<RunSpec> {
        self.spec
            .schedulers
            .iter()
            .enumerate()
            .map(|(id, scheduler)| {
                RunSpec::new(
                    id as u64,
                    format!(
                        "{}/frac{:?}/seed{}/{scheduler}",
                        self.spec.trace_name,
                        self.spec.injection.malleable_frac,
                        self.spec.injection.seed
                    ),
                    Arc::clone(&self.platform),
                    Arc::clone(&self.workload),
                    self.spec.config.clone(),
                    scheduler.clone(),
                )
            })
            .collect()
    }

    /// The canonical serialization of the replay's result-affecting
    /// inputs: injection parameters, conversion parameters, and the
    /// per-scheduler scenario fingerprints (which cover platform,
    /// workload, and config).
    pub fn canonical_input(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "injection={}\nnode_flops={:?}\nprocs_per_node={}\n",
            self.spec.injection.canonical(),
            self.spec.node_flops,
            self.spec.procs_per_node,
        );
        for spec in self.run_specs() {
            let _ = writeln!(s, "{}={}", spec.scheduler.label(), spec.fingerprint());
        }
        s
    }

    /// The replay fingerprint, `rfp1-<32 hex>`: equal fingerprints mean
    /// equal injection + conversion parameters and equal per-scheduler
    /// scenarios.
    pub fn fingerprint(&self) -> String {
        fnv_digest("rfp1", &self.canonical_input())
    }
}

/// The combined *result* fingerprint of a finished replay: a digest over
/// each run's scheduler name and `rdg1-` report digest, in id order. This
/// is what "deterministic replay" pins — identical across repeated runs
/// and across any `--workers` count.
pub fn combined_fingerprint(records: &[RunRecord]) -> String {
    let mut canon = String::new();
    for record in records {
        canon.push_str(&record.scheduler);
        canon.push('=');
        canon.push_str(record.report_fingerprint().unwrap_or("<failed>"));
        canon.push('\n');
    }
    fnv_digest("rep1", &canon)
}

/// The per-scheduler comparison table for terminal output: one row per
/// run with the metrics the replay experiments compare.
pub fn render_table(campaign: &ReplayCampaign, records: &[RunRecord]) -> String {
    let mut out = String::new();
    let stats = &campaign.stats;
    out.push_str(&format!(
        "trace {}: {} jobs ({} rigid, {} malleable, {} moldable), {} skipped, {} nodes\n",
        campaign.spec.trace_name,
        campaign.workload.len(),
        stats.rigid,
        stats.injected_malleable,
        stats.injected_moldable,
        stats.skipped.total(),
        campaign.platform.num_nodes(),
    ));
    if !stats.skipped.is_empty() {
        for line in stats.skipped.render_lines() {
            out.push_str(&format!("  skipped {line}\n"));
        }
    }
    out.push_str(&format!(
        "{:<14} {:>12} {:>10} {:>10} {:>9} {:>7}\n",
        "scheduler", "makespan", "mean-wait", "p95-wait", "bnd-slow", "util"
    ));
    for record in records {
        match record.report() {
            Some(report) => {
                let s = report.summary();
                out.push_str(&format!(
                    "{:<14} {:>12.1} {:>10.1} {:>10.1} {:>9.2} {:>6.1}%\n",
                    record.scheduler,
                    s.makespan,
                    s.mean_wait,
                    s.p95_wait,
                    s.mean_bounded_slowdown,
                    s.utilization * 100.0,
                ));
            }
            None => {
                out.push_str(&format!(
                    "{:<14} FAILED: {}\n",
                    record.scheduler,
                    record.error().expect("failed record"),
                ));
            }
        }
    }
    out
}

/// The same comparison as a GitHub-flavored markdown table, ready to
/// paste into EXPERIMENTS.md.
pub fn render_markdown(records: &[RunRecord]) -> String {
    let mut out = String::from(
        "| scheduler | makespan (s) | mean wait (s) | p95 wait (s) | bounded slowdown | utilization |\n\
         |---|---:|---:|---:|---:|---:|\n",
    );
    for record in records {
        match record.report() {
            Some(report) => {
                let s = report.summary();
                out.push_str(&format!(
                    "| {} | {:.1} | {:.1} | {:.1} | {:.2} | {:.1}% |\n",
                    record.scheduler,
                    s.makespan,
                    s.mean_wait,
                    s.p95_wait,
                    s.mean_bounded_slowdown,
                    s.utilization * 100.0,
                ));
            }
            None => {
                out.push_str(&format!("| {} | failed | | | | |\n", record.scheduler));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use elastisim_workload::{to_swf, ScalingModel, SwfJob};

    fn small_trace() -> String {
        let jobs: Vec<SwfJob> = (1..=12)
            .map(|i| SwfJob {
                job_id: i,
                submit: i as f64 * 30.0,
                runtime: 300.0 + 20.0 * i as f64,
                procs: 1 + (i % 8) as u32,
                requested_time: Some(3600.0),
                status: 1,
                preceding_job: None,
                think_time: None,
            })
            .collect();
        to_swf(&jobs)
    }

    fn spec(frac: f64, seed: u64) -> ReplaySpec {
        ReplaySpec::new(
            "test",
            InjectionConfig {
                seed,
                malleable_frac: frac,
                moldable_frac: 0.0,
                scaling: ScalingModel::Linear,
                platform_nodes: None,
            },
        )
    }

    #[test]
    fn convert_builds_a_runnable_campaign_over_all_schedulers() {
        let campaign = spec(0.5, 42).convert(small_trace().as_bytes()).unwrap();
        assert_eq!(campaign.workload.len(), 12);
        let specs = campaign.run_specs();
        assert_eq!(specs.len(), elastisim_sched::SCHEDULER_NAMES.len());
        let records = Executor::new(2).run(specs);
        assert!(records.iter().all(|r| r.report().is_some()));
        let table = render_table(&campaign, &records);
        assert!(table.contains("fcfs"), "{table}");
        assert!(table.contains("elastic"), "{table}");
        let md = render_markdown(&records);
        assert!(md.starts_with("| scheduler |"), "{md}");
        assert_eq!(md.lines().count(), 2 + records.len());
    }

    #[test]
    fn replay_fingerprint_covers_injection_parameters() {
        let trace = small_trace();
        let base = spec(0.3, 42)
            .convert(trace.as_bytes())
            .unwrap()
            .fingerprint();
        assert!(base.starts_with("rfp1-"), "{base}");
        // Same inputs → same fingerprint.
        assert_eq!(
            base,
            spec(0.3, 42)
                .convert(trace.as_bytes())
                .unwrap()
                .fingerprint()
        );
        // Seed, fraction, and scaling model all separate.
        assert_ne!(
            base,
            spec(0.3, 43)
                .convert(trace.as_bytes())
                .unwrap()
                .fingerprint()
        );
        assert_ne!(
            base,
            spec(0.4, 42)
                .convert(trace.as_bytes())
                .unwrap()
                .fingerprint()
        );
        let mut amdahl = spec(0.3, 42);
        amdahl.injection.scaling = ScalingModel::Amdahl {
            serial_fraction: 0.1,
        };
        assert_ne!(
            base,
            amdahl.convert(trace.as_bytes()).unwrap().fingerprint()
        );
    }

    #[test]
    fn combined_fingerprint_is_worker_count_independent() {
        let trace = small_trace();
        let run = |workers: usize| {
            let campaign = spec(0.3, 42).convert(trace.as_bytes()).unwrap();
            combined_fingerprint(&Executor::new(workers).run(campaign.run_specs()))
        };
        let one = run(1);
        assert!(one.starts_with("rep1-"), "{one}");
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    #[test]
    fn frac_zero_replay_equals_rigid_conversion_fingerprints() {
        let trace = small_trace();
        let campaign = spec(0.0, 42).convert(trace.as_bytes()).unwrap();
        // Build the rigid conversion by hand and compare scenario
        // fingerprints per scheduler — byte identity of every
        // result-affecting input.
        let rigid: Vec<JobSpec> = elastisim_workload::parse_swf(&trace)
            .unwrap()
            .iter()
            .map(|j| j.to_job_spec(campaign.spec.node_flops, 1))
            .collect();
        assert_eq!(*campaign.workload, rigid);
        let manual = RunSpec::new(
            0,
            "manual",
            Arc::clone(&campaign.platform),
            Arc::new(rigid),
            campaign.spec.config.clone(),
            "fcfs",
        );
        assert_eq!(campaign.run_specs()[0].fingerprint(), manual.fingerprint());
    }

    #[test]
    fn unknown_scheduler_is_rejected_before_conversion() {
        let mut bad = spec(0.0, 1);
        bad.schedulers = vec!["fcfs".into(), "warp".into()];
        let err = bad.convert(small_trace().as_bytes()).unwrap_err();
        assert!(err.contains("unknown scheduler"), "{err}");
    }
}
