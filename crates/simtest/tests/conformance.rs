//! The conformance suite: seeded scenario fuzzing under the invariant
//! checker, metamorphic oracles, determinism oracles, and the mutant
//! self-test.
//!
//! Every failure message contains the scenario seed — rerun any failure
//! with a focused test by plugging that seed into `Scenario::from_seed`.
//! Case count scales with the `PROPTEST_CASES` environment variable
//! (default 40 here, so the default run covers 40 × 5 = 200 checked
//! scenarios); `ELASTISIM_SEED_OFFSET` shifts the whole seed stream so CI
//! can fan out a seed matrix.

use elastisim::{InvariantChecker, Outcome, SimConfig, Simulation, WarningKind};
use elastisim_sched::SCHEDULER_NAMES;
use elastisim_workload::{
    AppTemplate, ArrivalProcess, ClassMix, Distribution, JobId, SizeDistribution, WorkloadConfig,
};
use proptest::prelude::*;
use simtest::{scenario::run_checked, OverAllocatingScheduler, Scenario, ViewOracle};

/// Fuzz case count: `PROPTEST_CASES` if set, else 40 (× 5 schedulers =
/// 200 checked scenarios per default run).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

/// CI seed-matrix support: every generated seed is XORed with this offset
/// so parallel jobs explore disjoint scenario streams.
fn seed_offset() -> u64 {
    std::env::var("ELASTISIM_SEED_OFFSET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The flagship oracle: every scenario, under every in-process
    /// scheduler, satisfies every runtime invariant and its report is
    /// consistent with its event stream.
    #[test]
    fn invariants_hold_for_every_scheduler(raw in any::<u64>()) {
        let seed = raw ^ seed_offset();
        let scenario = Scenario::from_seed(seed);
        for name in SCHEDULER_NAMES {
            let run = run_checked(&scenario, name);
            prop_assert!(
                run.violations.is_empty(),
                "seed {seed} under `{name}`: {} violation(s), first: {}",
                run.violations.len(),
                run.violations[0],
            );
        }
    }

    /// Determinism: the same seed gives the same report digest and the
    /// same engine counters, for every scheduler.
    #[test]
    fn equal_seeds_give_byte_identical_reports(raw in any::<u64>()) {
        let seed = raw ^ seed_offset();
        let scenario = Scenario::from_seed(seed);
        for name in SCHEDULER_NAMES {
            let run = || {
                let r = run_checked(&scenario, name).report;
                (r.digest(), r.events, r.recomputes, r.scheduler_invocations)
            };
            let (a, b) = (run(), run());
            prop_assert!(a == b, "seed {seed} under `{name}`: reports differ");
        }
    }

    /// The engine's scheduler view agrees, at every invocation, with the
    /// queued and running sets (and each running job's nodes) rebuilt
    /// independently from the event stream.
    #[test]
    fn views_match_the_event_stream_for_every_scheduler(raw in any::<u64>()) {
        let seed = raw ^ seed_offset();
        let scenario = Scenario::from_seed(seed);
        for name in SCHEDULER_NAMES {
            let jobs = scenario.jobs();
            let oracle = ViewOracle::new(&jobs);
            let sched = elastisim_sched::by_name(name).expect("registered scheduler");
            let mut sim =
                Simulation::new(&scenario.platform(), jobs, oracle.wrap(sched), scenario.config())
                    .expect("valid scenario");
            sim.add_observer(oracle.observer());
            sim.run();
            let mismatches = oracle.mismatches();
            prop_assert!(oracle.checked() > 0, "seed {seed} under `{name}`: never invoked");
            prop_assert!(
                mismatches.is_empty(),
                "seed {seed} under `{name}`: {} mismatching view(s), first: {}",
                mismatches.len(),
                mismatches[0],
            );
        }
    }
}

/// A compute-only workload (no communication, no I/O, no checkpoints):
/// the only coupling between jobs is the node count, which the
/// platform-scaling oracle requires.
fn compute_only_rigid(seed: u64, nodes: u32, jobs: usize) -> WorkloadConfig {
    let mut cfg = WorkloadConfig::new(jobs)
        .with_platform_nodes(nodes)
        .with_sizes(SizeDistribution::Uniform {
            min: 1,
            max: (nodes / 2).max(1),
        })
        .with_arrival(ArrivalProcess::Poisson {
            mean_interarrival: 120.0,
        })
        .with_seed(seed);
    cfg.runtime = Distribution::Uniform {
        lo: 60.0,
        hi: 600.0,
    };
    cfg.app = AppTemplate {
        comm_bytes_per_node: 0.0,
        input_bytes_per_node: 0.0,
        checkpoint_bytes_per_node: 0.0,
        checkpoint_every: 0,
        ..AppTemplate::default()
    };
    cfg
}

fn run_fcfs(jobs: Vec<elastisim_workload::JobSpec>, nodes: u32) -> elastisim::Report {
    let platform = elastisim_platform::PlatformSpec::homogeneous(
        "meta",
        nodes as usize,
        elastisim_platform::NodeSpec::default(),
    );
    let checker = InvariantChecker::new(&jobs, nodes as usize);
    let mut sim = Simulation::new(
        &platform,
        jobs,
        elastisim_sched::by_name("fcfs").expect("fcfs exists"),
        SimConfig::default(),
    )
    .expect("valid workload");
    sim.add_observer(checker.observer());
    let report = sim.run();
    checker.assert_clean(&report);
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Metamorphic oracle: FCFS orders by submit time, so relabeling job
    /// ids must not change any schedule-level observable. Poisson arrivals
    /// make ties measure-zero.
    #[test]
    fn fcfs_is_invariant_under_job_id_permutation(seed in any::<u64>()) {
        let nodes = 16u32;
        let base = compute_only_rigid(seed, nodes, 12).generate();
        let n = base.len() as u64;
        let mut permuted = base.clone();
        for spec in &mut permuted {
            spec.id = JobId(n - 1 - spec.id.0);
        }
        let a = run_fcfs(base, nodes);
        let b = run_fcfs(permuted, nodes);
        // Identity-free observables must agree exactly.
        let key = |r: &elastisim::Report| {
            let mut rows: Vec<(f64, Option<f64>, Option<f64>, f64)> = r
                .jobs
                .iter()
                .map(|j| (j.submit, j.start, j.end, j.node_seconds))
                .collect();
            rows.sort_by(|x, y| x.partial_cmp(y).expect("finite times"));
            rows
        };
        prop_assert_eq!(key(&a), key(&b), "seed {} broke permutation invariance", seed);
        let (sa, sb) = (a.summary(), b.summary());
        prop_assert_eq!(sa.makespan, sb.makespan);
    }

    /// Metamorphic oracle: on compute-only rigid workloads, FCFS is
    /// work-conserving, so doubling the platform can never slow the
    /// workload down by more than one scheduling interval (start times are
    /// quantized to invocations). Not true for backfilling schedulers
    /// (Graham anomalies) or under shared-resource contention — hence the
    /// restricted workload.
    #[test]
    fn fcfs_makespan_is_monotone_in_platform_size(seed in any::<u64>()) {
        let nodes = 8u32;
        let jobs = compute_only_rigid(seed, nodes, 10).generate();
        let small = run_fcfs(jobs.clone(), nodes).summary().makespan;
        let large = run_fcfs(jobs, nodes * 2).summary().makespan;
        let interval = SimConfig::default().scheduling_interval;
        prop_assert!(
            large <= small + interval + 1e-6,
            "seed {seed}: makespan grew from {small} to {large} on a larger platform"
        );
    }
}

/// The engine must reject the over-allocating mutant's illegal starts
/// (defense in depth: bad decisions are stopped before they corrupt
/// state), so the run stays invariant-clean with rejections on record.
#[test]
fn engine_rejects_live_over_allocating_mutant() {
    let scenario = Scenario::from_seed(3);
    let platform = scenario.platform();
    let jobs = scenario.jobs();
    let checker = InvariantChecker::new(&jobs, platform.nodes.len());
    let mut sim = Simulation::new(
        &platform,
        jobs,
        Box::new(OverAllocatingScheduler),
        scenario.config(),
    )
    .expect("valid scenario");
    sim.add_observer(checker.observer());
    let report = sim.run();
    assert!(
        report
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::DecisionRejected),
        "the mutant's over-allocations must be rejected"
    );
    let violations = checker.check_report(&report);
    assert!(
        violations.is_empty(),
        "rejections must keep the run clean: {violations:?}"
    );
}

/// The acceptance-criteria mutant test: replaying the event stream such a
/// scheduler *would* produce (a start on an already-held node) must be
/// caught by the observer with a structured violation naming the event.
#[test]
fn observer_catches_over_allocation_in_the_event_stream() {
    use elastisim::SimEvent;
    use elastisim_platform::NodeId;
    use elastisim_workload::{ApplicationModel, JobSpec, Phase};

    let app = || ApplicationModel::new(vec![Phase::once("p", vec![])]);
    let jobs = vec![
        JobSpec::rigid(0, 0.0, 2, app()),
        JobSpec::rigid(1, 0.0, 2, app()),
    ];
    let checker = InvariantChecker::new(&jobs, 4);
    for event in [
        SimEvent::JobSubmitted {
            time: 0.0,
            job: JobId(0),
        },
        SimEvent::JobSubmitted {
            time: 0.0,
            job: JobId(1),
        },
        SimEvent::JobStarted {
            time: 0.0,
            job: JobId(0),
            nodes: vec![NodeId(0), NodeId(1)],
        },
        // The over-allocation: node 0 is already held by job 0.
        SimEvent::JobStarted {
            time: 60.0,
            job: JobId(1),
            nodes: vec![NodeId(0), NodeId(2)],
        },
    ] {
        checker.observe(&event);
    }
    let violations = checker.violations();
    assert_eq!(violations.len(), 1, "{violations:?}");
    let v = &violations[0];
    assert_eq!(v.rule, "node-double-assigned");
    let event = v.event.as_deref().expect("violation carries the event");
    assert!(event.contains(r#""event":"job_started""#), "{event}");
    assert!(v.message.contains("node0"), "{}", v.message);
}

/// Killed-before-start and walltime-kill paths still satisfy the state
/// machine: a focused regression for the trickier transitions.
#[test]
fn walltime_kills_are_invariant_clean() {
    let mut workload = compute_only_rigid(5, 8, 8);
    workload.walltime_factor = 0.8; // tight limits guarantee some kills
    let jobs = workload.generate();
    let report = run_fcfs(jobs, 8);
    assert!(
        report
            .jobs
            .iter()
            .any(|j| j.outcome == Outcome::WalltimeExceeded),
        "expected at least one walltime kill"
    );
}

/// Mixed-class scenario under every scheduler: evolving requests and
/// malleable resizes exercise the reconfiguration invariants.
#[test]
fn elastic_classes_are_invariant_clean_everywhere() {
    let mut workload = WorkloadConfig::new(10)
        .with_platform_nodes(16)
        .with_mix(ClassMix {
            rigid: 0.2,
            moldable: 0.2,
            malleable: 0.4,
            evolving: 0.2,
        })
        .with_arrival(ArrivalProcess::Poisson {
            mean_interarrival: 90.0,
        })
        .with_seed(13);
    workload.runtime = Distribution::Uniform {
        lo: 60.0,
        hi: 600.0,
    };
    let platform = elastisim_platform::PlatformSpec::homogeneous(
        "mixed",
        16,
        elastisim_platform::NodeSpec::default(),
    );
    for name in SCHEDULER_NAMES {
        let jobs = workload.generate();
        let checker = InvariantChecker::new(&jobs, 16);
        let mut sim = Simulation::new(
            &platform,
            jobs,
            elastisim_sched::by_name(name).expect("registered"),
            SimConfig::default(),
        )
        .expect("valid workload");
        sim.add_observer(checker.observer());
        let report = sim.run();
        checker.assert_clean(&report);
    }
}
