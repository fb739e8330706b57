//! Job-dependency (workflow) semantics through the engine: `afterok`
//! gating, chain/diamond ordering, and failure cascades.

use elastisim::{InvariantChecker, Outcome, SimConfig, Simulation};
use elastisim_platform::{NodeSpec, PlatformSpec};
use elastisim_sched::EasyBackfilling;
use elastisim_workload::{ApplicationModel, JobId, JobSpec, PerfExpr, Phase, Task};

const FLOPS: f64 = 2.0e12;

fn platform(nodes: usize) -> PlatformSpec {
    PlatformSpec::homogeneous("dep", nodes, NodeSpec::default())
}

fn app(secs: f64) -> ApplicationModel {
    ApplicationModel::new(vec![Phase::once(
        "w",
        vec![Task::compute("c", PerfExpr::constant(secs * FLOPS))],
    )])
}

fn run(jobs: Vec<JobSpec>) -> elastisim::Report {
    Simulation::new(
        &platform(8),
        jobs,
        Box::new(EasyBackfilling::new()),
        SimConfig::default(),
    )
    .unwrap()
    .run()
}

#[test]
fn chain_runs_sequentially_despite_free_nodes() {
    let jobs = vec![
        JobSpec::rigid(0, 0.0, 1, app(10.0)),
        JobSpec::rigid(1, 0.0, 1, app(10.0)).with_dependencies([0]),
        JobSpec::rigid(2, 0.0, 1, app(10.0)).with_dependencies([1]),
    ];
    let report = run(jobs);
    let end = |id: u64| report.job(JobId(id)).unwrap().end.unwrap();
    let start = |id: u64| report.job(JobId(id)).unwrap().start.unwrap();
    assert!((end(0) - 10.0).abs() < 1e-6);
    assert!(start(1) >= end(0) - 1e-9, "j1 waits for j0");
    assert!(start(2) >= end(1) - 1e-9, "j2 waits for j1");
    assert!((end(2) - 30.0).abs() < 1e-6);
}

#[test]
fn diamond_joins_on_both_parents() {
    let jobs = vec![
        JobSpec::rigid(0, 0.0, 1, app(5.0)),
        JobSpec::rigid(1, 0.0, 1, app(20.0)).with_dependencies([0]),
        JobSpec::rigid(2, 0.0, 1, app(5.0)).with_dependencies([0]),
        JobSpec::rigid(3, 0.0, 1, app(5.0)).with_dependencies([1, 2]),
    ];
    let report = run(jobs);
    // Join starts after the slower parent (j1, ending at 25).
    let j3 = report.job(JobId(3)).unwrap();
    assert!(j3.start.unwrap() >= 25.0 - 1e-9, "start {:?}", j3.start);
    assert_eq!(report.summary().completed, 4);
}

#[test]
fn independent_siblings_run_concurrently() {
    let jobs = vec![
        JobSpec::rigid(0, 0.0, 1, app(5.0)),
        JobSpec::rigid(1, 0.0, 1, app(5.0)).with_dependencies([0]),
        JobSpec::rigid(2, 0.0, 1, app(5.0)).with_dependencies([0]),
    ];
    let report = run(jobs);
    let s1 = report.job(JobId(1)).unwrap().start.unwrap();
    let s2 = report.job(JobId(2)).unwrap().start.unwrap();
    assert!(
        (s1 - s2).abs() < 1e-9,
        "siblings start together after the parent"
    );
}

#[test]
fn failed_dependency_cancels_dependents_transitively() {
    let jobs = vec![
        JobSpec::rigid(0, 0.0, 1, app(100.0)).with_walltime(5.0), // killed at 5
        JobSpec::rigid(1, 0.0, 1, app(5.0)).with_dependencies([0]),
        JobSpec::rigid(2, 0.0, 1, app(5.0)).with_dependencies([1]),
        JobSpec::rigid(3, 0.0, 1, app(5.0)), // unrelated, must finish
    ];
    let report = run(jobs);
    assert_eq!(
        report.job(JobId(0)).unwrap().outcome,
        Outcome::WalltimeExceeded
    );
    for id in [1u64, 2] {
        let j = report.job(JobId(id)).unwrap();
        assert_eq!(j.outcome, Outcome::Killed, "job {id} must be cancelled");
        assert_eq!(j.start, None, "job {id} must never start");
    }
    assert_eq!(report.job(JobId(3)).unwrap().outcome, Outcome::Completed);
    assert!(report
        .warnings
        .iter()
        .any(|w| w.message.contains("dependency did not complete")));
}

#[test]
fn dependency_on_later_submitted_job_is_honoured() {
    // j1 is submitted first but depends on j0 which arrives later.
    let jobs = vec![
        JobSpec::rigid(0, 50.0, 1, app(10.0)),
        JobSpec::rigid(1, 0.0, 1, app(10.0)).with_dependencies([0]),
    ];
    let report = run(jobs);
    let j1 = report.job(JobId(1)).unwrap();
    assert!(j1.start.unwrap() >= 60.0 - 1e-9, "start {:?}", j1.start);
    assert_eq!(report.summary().completed, 2);
}

#[test]
fn dependent_submitted_after_its_dependency_failed_is_cancelled_on_submission() {
    // j0 dies at t=5; j1 depends on it but only arrives at t=100, and j2
    // (arriving at t=50) waits on j1.
    let jobs = vec![
        JobSpec::rigid(0, 0.0, 1, app(100.0)).with_walltime(5.0),
        JobSpec::rigid(1, 100.0, 1, app(5.0)).with_dependencies([0]),
        JobSpec::rigid(2, 50.0, 1, app(5.0)).with_dependencies([1]),
    ];
    let checker = InvariantChecker::new(&jobs, 8);
    let mut sim = Simulation::new(
        &platform(8),
        jobs,
        Box::new(EasyBackfilling::new()),
        SimConfig::default(),
    )
    .unwrap();
    sim.add_observer(checker.observer());
    let report = sim.run();
    checker.assert_clean(&report);
    let j1 = report.job(JobId(1)).unwrap();
    assert_eq!(j1.outcome, Outcome::Killed);
    assert_eq!(j1.start, None);
    assert_eq!(
        j1.end,
        Some(j1.submit),
        "cancelled when submitted, not before"
    );
    let j2 = report.job(JobId(2)).unwrap();
    assert_eq!(j2.outcome, Outcome::Killed);
    assert_eq!(j2.end, Some(100.0), "cancelled once j1 is");
}
