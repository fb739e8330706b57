//! Campaign executor guarantees: worker-count independence, cache-hit
//! byte-identity without re-execution, and panic isolation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use elastisim_campaign::{Executor, RunError, RunOutcome, RunSpec, SchedulerSpec};

mod common;
use common::run_identity;

fn corpus(seeds: std::ops::Range<u64>, schedulers: &[&str]) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for seed in seeds {
        for scheduler in schedulers {
            specs.push(RunSpec::from_seed(specs.len() as u64, seed, scheduler));
        }
    }
    specs
}

/// The merged report digests and engine counters of a campaign must be
/// identical at any worker count — completion order must never leak into
/// the output.
#[test]
fn merged_fingerprints_are_worker_count_independent() {
    let specs = || corpus(0..6, &["fcfs", "easy"]);
    let merged = |workers: usize| -> Vec<_> {
        Executor::new(workers)
            .run(specs())
            .iter()
            .map(|r| (r.id, run_identity(r)))
            .collect()
    };
    let baseline = merged(1);
    assert_eq!(baseline.len(), 12);
    for workers in [2, 8] {
        assert_eq!(merged(workers), baseline, "divergence at {workers} workers");
    }
}

/// Resubmitting a campaign to the same executor answers every run from
/// its cache byte-identically *without re-running*: a build counter
/// inside a custom scheduler factory proves no scenario was reconstructed.
#[test]
fn cache_hits_are_byte_identical_and_skip_execution() {
    let builds = Arc::new(AtomicUsize::new(0));
    let specs = |builds: &Arc<AtomicUsize>| -> Vec<RunSpec> {
        (0..4)
            .map(|seed| {
                let builds = Arc::clone(builds);
                RunSpec {
                    scheduler: SchedulerSpec::Custom {
                        label: "counted-fcfs".into(),
                        factory: Arc::new(move || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            elastisim_sched::by_name("fcfs").unwrap()
                        }),
                    },
                    ..RunSpec::from_seed(seed, seed, "fcfs")
                }
            })
            .collect()
    };
    let executor = Executor::new(2);

    let first = executor.run(specs(&builds));
    assert_eq!(builds.load(Ordering::SeqCst), 4);
    assert!(first.iter().all(|r| !r.cached));

    let second = executor.run(specs(&builds));
    assert_eq!(
        builds.load(Ordering::SeqCst),
        4,
        "cache hits must not rebuild schedulers"
    );
    assert!(second.iter().all(|r| r.cached));
    assert_eq!(executor.cache().hits(), 4);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.scenario_fingerprint, b.scenario_fingerprint);
        assert_eq!(run_identity(a), run_identity(b));
    }
}

/// A resubmitted spec's record shares the cached report itself — one
/// `Arc` per completed run, never a copy — and carries its `rdg1-` digest.
#[test]
fn cache_hit_shares_the_cached_report() {
    let executor = Executor::new(1);
    let first = executor.run(corpus(0..1, &["easy"]));
    let second = executor.run(corpus(0..1, &["easy"]));
    assert!(!first[0].cached && second[0].cached);
    match (&first[0].outcome, &second[0].outcome) {
        (RunOutcome::Completed(a), RunOutcome::Completed(b)) => assert!(Arc::ptr_eq(a, b)),
        other => panic!("expected two completed runs, got {other:?}"),
    }
    let digest = second[0].report_fingerprint().expect("completed");
    assert_eq!(digest, second[0].report().unwrap().digest());
    assert!(
        digest.starts_with("rdg1-") && digest.len() == 37,
        "{digest}"
    );
}

/// A panicking scenario becomes a structured `RunError::Panicked` record
/// while every other run on the pool still completes.
#[test]
fn panicking_run_does_not_poison_the_pool() {
    let mut specs = corpus(0..5, &["fcfs"]);
    specs.insert(
        2,
        RunSpec {
            id: 99,
            label: "saboteur".into(),
            scheduler: SchedulerSpec::Custom {
                label: "panics-on-build".into(),
                factory: Arc::new(|| panic!("scheduler exploded")),
            },
            ..RunSpec::from_seed(99, 0, "fcfs")
        },
    );
    let records = Executor::new(2).run(specs);
    assert_eq!(records.len(), 6);
    let failed: Vec<_> = records.iter().filter(|r| r.error().is_some()).collect();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].id, 99);
    match failed[0].error().unwrap() {
        RunError::Panicked(msg) => assert!(msg.contains("scheduler exploded"), "{msg}"),
        other => panic!("expected Panicked, got {other:?}"),
    }
    assert_eq!(
        records.iter().filter(|r| r.report().is_some()).count(),
        5,
        "the other runs must complete"
    );
    // The pool stays usable for a follow-up campaign on the same cache.
    let executor = Executor::new(2);
    let again = executor.run(corpus(0..2, &["fcfs"]));
    assert!(again.iter().all(|r| r.report().is_some()));
}

/// Records come back ascending by id with per-scheduler aggregates in
/// deterministic (name-sorted) order.
#[test]
fn records_merge_id_ordered_with_deterministic_aggregates() {
    let records = Executor::new(4).run(corpus(0..3, &["easy", "fcfs"]));
    let ids: Vec<u64> = records.iter().map(|r| r.id).collect();
    assert_eq!(ids, (0..6).collect::<Vec<u64>>());
    let aggregates = elastisim_campaign::aggregate_by_scheduler(&records);
    assert_eq!(aggregates.len(), 2);
    assert_eq!(aggregates[0].scheduler, "easy");
    assert_eq!(aggregates[1].scheduler, "fcfs");
    for aggregate in &aggregates {
        assert_eq!(aggregate.completed, 3);
        assert_eq!(aggregate.failed, 0);
        assert!(aggregate.mean_makespan > 0.0);
    }
}
