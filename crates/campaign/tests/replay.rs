//! Replay-campaign integration tests on the committed PWA excerpt:
//! worker-count independence, frac-0 report-fingerprint identity with
//! the plain rigid conversion, and cache soundness across replays.

use std::sync::Arc;

use elastisim_campaign::replay::combined_fingerprint;
use elastisim_campaign::{Executor, ReplaySpec, RunSpec};
use elastisim_workload::{InjectionConfig, ScalingModel, SwfReader};

mod common;
use common::run_identity;

fn fixture_prefix(jobs: usize) -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../workload/tests/fixtures/pwa-excerpt.swf");
    let text = std::fs::read_to_string(path).unwrap();
    let mut out = String::new();
    let mut records = 0;
    for line in text.lines() {
        if records >= jobs {
            break;
        }
        if !line.trim().is_empty() && !line.trim_start().starts_with(';') {
            records += 1;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

fn spec(frac: f64, seed: u64, schedulers: &[&str]) -> ReplaySpec {
    let mut spec = ReplaySpec::new(
        "pwa-excerpt",
        InjectionConfig {
            seed,
            malleable_frac: frac,
            moldable_frac: 0.0,
            scaling: ScalingModel::Linear,
            platform_nodes: None,
        },
    );
    spec.schedulers = schedulers.iter().map(|s| (*s).to_owned()).collect();
    spec
}

#[test]
fn replay_records_are_identical_at_any_worker_count() {
    let trace = fixture_prefix(120);
    let run = |workers: usize| {
        let campaign = spec(0.3, 42, &["fcfs", "easy", "elastic"])
            .convert(trace.as_bytes())
            .unwrap();
        let records = Executor::new(workers).run(campaign.run_specs());
        assert!(records.iter().all(|r| r.report().is_some()));
        (
            combined_fingerprint(&records),
            records
                .iter()
                .map(|r| (r.id, r.scheduler.clone(), run_identity(r)))
                .collect::<Vec<_>>(),
        )
    };
    let (fp1, records1) = run(1);
    let (fp2, records2) = run(2);
    let (fp8, records8) = run(8);
    assert_eq!(fp1, fp2);
    assert_eq!(fp1, fp8);
    assert_eq!(records1, records2);
    assert_eq!(records1, records8);
}

#[test]
fn frac_zero_report_fingerprints_match_the_rigid_conversion() {
    let trace = fixture_prefix(100);
    let campaign = spec(0.0, 42, &["fcfs"]).convert(trace.as_bytes()).unwrap();

    // The rigid conversion, built by hand from the same lenient stream:
    // `to_job_spec` per record, plus the recorded dependencies (dropping
    // the ones whose target was skipped, as the converter specifies).
    let records: Vec<_> = SwfReader::lenient(trace.as_bytes())
        .map(|r| r.unwrap())
        .collect();
    let ids: std::collections::HashSet<u64> = records.iter().map(|r| r.job_id).collect();
    let rigid: Vec<_> = records
        .iter()
        .map(|r| {
            let spec = r.to_job_spec(campaign.spec.node_flops, 1);
            match r.preceding_job.filter(|d| ids.contains(d)) {
                Some(dep) => spec.with_dependencies([dep]),
                None => spec,
            }
        })
        .collect();
    assert_eq!(*campaign.workload, rigid, "frac 0 must be the identity");

    let manual = RunSpec::new(
        0,
        "manual-rigid",
        Arc::clone(&campaign.platform),
        Arc::new(rigid),
        campaign.spec.config.clone(),
        "fcfs",
    );
    let replayed = Executor::new(1).run(campaign.run_specs());
    let manual_records = Executor::new(1).run(vec![manual]);
    assert_eq!(
        run_identity(&replayed[0]),
        run_identity(&manual_records[0]),
        "frac-0 replay and rigid conversion must produce identical reports and engine counters"
    );
}

#[test]
fn replay_runs_share_the_executor_cache_across_campaigns() {
    let trace = fixture_prefix(60);
    let executor = Executor::new(2);
    let campaign = spec(0.5, 7, &["fcfs", "easy"])
        .convert(trace.as_bytes())
        .unwrap();
    let cold = executor.run(campaign.run_specs());
    assert!(cold.iter().all(|r| !r.cached));
    // The same replay spec converted again hits the cache run-for-run.
    let again = spec(0.5, 7, &["fcfs", "easy"])
        .convert(trace.as_bytes())
        .unwrap();
    let warm = executor.run(again.run_specs());
    assert!(
        warm.iter().all(|r| r.cached),
        "second replay must be cached"
    );
    assert_eq!(combined_fingerprint(&cold), combined_fingerprint(&warm));
    // A different seed reaches different scenarios: no false hits.
    let other = spec(0.5, 8, &["fcfs", "easy"])
        .convert(trace.as_bytes())
        .unwrap();
    let miss = executor.run(other.run_specs());
    assert!(miss.iter().all(|r| !r.cached));
    assert_ne!(combined_fingerprint(&cold), combined_fingerprint(&miss));
}
