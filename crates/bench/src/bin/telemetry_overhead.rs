//! Telemetry overhead gate: runs the flow-churn workload with telemetry
//! off and on, reports both, and fails (exit 1) when the enabled run is
//! more than 5% slower.
//!
//! The workload is a node-local stream of activity starts and cancels on
//! the flow engine — the hot path the zero-sink guarantee protects. Each
//! arm runs several repetitions with the arm order alternating per rep,
//! and the *minimum* wall time is compared, which discards
//! scheduler-noise outliers that would make a percentage gate flaky in
//! CI; a blown budget retries the whole measurement up to
//! [`GATE_ATTEMPTS`] times before failing.
//!
//! A second gate covers the *campaign* path (`elastisim sweep`): the
//! same seed corpus through a fresh executor with full observability
//! (structured logging to a sink, per-run metric collection, flight
//! recorder armed) vs a bare executor, under the same 5% budget. It
//! compares summed per-run worker time rather than end-to-end wall
//! clock — see [`sweep_arm`].
//!
//! Usage: `telemetry-overhead [--smoke] [--sweep] [--metrics-out FILE]`
//!
//! `--smoke` shrinks the population and event budget so CI finishes in
//! seconds; `--sweep` additionally runs the campaign-path gate;
//! `--metrics-out` writes the enabled arm's final metrics snapshot as
//! JSON (uploaded as a CI artifact).

use std::time::Instant;

use elastisim_campaign::{Executor, Observability, RunSpec};
use elastisim_des::{ActivitySpec, ResourceId, Simulator};
use elastisim_telemetry::log::{Level, Logger};
use elastisim_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Resources per node-local cluster; activities never span clusters.
const CLUSTER: usize = 4;

/// Overhead budget both gates enforce: enabled ≤ 5% slower than disabled.
const BUDGET: f64 = 0.05;

/// Whole-measurement retries per gate. Shared-runner noise only ever
/// *inflates* an arm, so taking the best attempt tightens the estimate
/// without masking real regressions past the budget.
const GATE_ATTEMPTS: usize = 3;

/// Exponential variate with the given mean.
fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    -mean * rng.gen_range(f64::MIN_POSITIVE..1.0).ln()
}

/// One random activity spec: exponential work on one or two resources of
/// one cluster.
fn random_spec(rng: &mut StdRng, resources: &[ResourceId]) -> ActivitySpec {
    let work = exp_sample(rng, 600.0);
    let base = rng.gen_range(0..resources.len() / CLUSTER) * CLUSTER;
    let a = resources[base + rng.gen_range(0..CLUSTER)];
    let spec = ActivitySpec::new(work, [a]);
    if rng.gen_bool(0.5) {
        let b = resources[base + rng.gen_range(0..CLUSTER)];
        if b != a {
            return spec.with_usage(b, 1.0);
        }
    }
    spec
}

/// Runs `events` churn events over a steady-state population of
/// `n_activities`, with the given telemetry handle attached. Returns the
/// wall time and the delivered-event count (consumed so the work cannot
/// be optimized away).
fn churn(n_activities: usize, events: usize, telemetry: Telemetry) -> (f64, u64) {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut sim: Simulator<()> = Simulator::new();
    sim.set_telemetry(telemetry);
    let n_resources = ((n_activities / 16).max(8) / CLUSTER) * CLUSTER;
    let resources: Vec<ResourceId> = (0..n_resources).map(|_| sim.add_resource(100.0)).collect();
    for _ in 0..n_activities {
        let spec = random_spec(&mut rng, &resources);
        sim.start_activity(spec, ());
    }
    let t0 = Instant::now();
    let mut delivered = 0u64;
    while (delivered as usize) < events {
        let Some((_t, ())) = sim.step() else { break };
        delivered += 1;
        let spec = random_spec(&mut rng, &resources);
        sim.start_activity(spec, ());
    }
    sim.flush_telemetry();
    (t0.elapsed().as_secs_f64(), sim.events_delivered())
}

/// Best-of-`reps` wall time per arm, interleaved with the arm order
/// *alternating* each rep (off/on, then on/off, …): clock drift, thermal
/// throttling, and allocator-state drift are monotone over the process
/// lifetime, so a fixed order would systematically tax whichever arm runs
/// second — a null experiment (both arms identical) showed a few percent
/// of phantom "overhead" from exactly that. Checks both arms deliver the
/// same event count (telemetry must not change behavior).
fn measure(reps: usize, n_activities: usize, events: usize) -> ((f64, u64), (f64, u64)) {
    let mut best = [f64::INFINITY; 2];
    let mut delivered = [0u64; 2];
    for rep in 0..reps {
        let mut arms = [0, 1];
        if rep % 2 == 1 {
            arms.reverse();
        }
        for arm in arms {
            let telemetry = if arm == 0 {
                Telemetry::disabled()
            } else {
                Telemetry::enabled()
            };
            let (wall, n) = churn(n_activities, events, telemetry);
            best[arm] = best[arm].min(wall);
            delivered[arm] = n;
        }
    }
    ((best[0], delivered[0]), (best[1], delivered[1]))
}

/// Campaign-path arm: the conformance seed corpus through a fresh
/// executor (fresh cache — both arms execute every run). `observed`
/// attaches the full observability stack: JSONL logging into a sink,
/// per-run metric snapshots, and the flight recorder's event ring.
///
/// Returns the *summed per-run worker time* (`RunRecord::wall_seconds`),
/// not end-to-end wall clock: queue idle and thread-pool coordination are
/// observability-independent but dominate wall-clock variance on shared
/// CI runners, while the per-run time is exactly the surface the
/// observability stack can slow down.
fn sweep_arm(seeds: u64, workers: usize, observed: bool) -> f64 {
    let specs: Vec<RunSpec> = (0..seeds)
        .flat_map(|seed| {
            ["fcfs", "elastic"]
                .iter()
                .enumerate()
                .map(move |(i, s)| RunSpec::from_seed(seed * 2 + i as u64, seed, s))
        })
        .collect();
    let mut executor = Executor::new(workers);
    if observed {
        executor = executor.with_observability(Observability {
            logger: Logger::to_writer(std::io::sink(), Level::Debug),
            collect_metrics: true,
            recorder: Some(std::env::temp_dir().join("elastisim-overhead-pm")),
        });
    }
    let records = executor.run(specs);
    assert!(
        records.iter().all(|r| r.report().is_some()),
        "sweep arm had failures"
    );
    records.iter().map(|r| r.wall_seconds).sum()
}

/// Best-of-`reps` wall time for the campaign path, with the arm order
/// alternating each rep like [`measure`]. Returns `(off, on)`.
fn measure_sweep(reps: usize, seeds: u64, workers: usize) -> (f64, f64) {
    let mut best = [f64::INFINITY; 2];
    for rep in 0..reps {
        let mut arms = [0, 1];
        if rep % 2 == 1 {
            arms.reverse();
        }
        for arm in arms {
            best[arm] = best[arm].min(sweep_arm(seeds, workers, arm == 1));
        }
    }
    (best[0], best[1])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let sweep = args.iter().any(|a| a == "--sweep");
    let metrics_out = args
        .iter()
        .position(|a| a == "--metrics-out")
        .map(|i| args.get(i + 1).expect("--metrics-out needs a path").clone());
    for a in &args {
        if a.starts_with("--") && a != "--smoke" && a != "--sweep" && a != "--metrics-out" {
            eprintln!("unknown option {a}");
            std::process::exit(2);
        }
    }

    let (n_activities, events, reps) = if smoke {
        (2_000, 20_000, 5)
    } else {
        (10_000, 200_000, 5)
    };

    println!(
        "telemetry overhead gate ({n_activities} activities, {events} events, best of {reps})"
    );
    // Shared-runner noise is strictly additive (contention only ever slows
    // an arm down), so the best overhead across a few whole-measurement
    // attempts is the tightest upper bound available; retrying on a blown
    // budget turns an occasional noise spike into a pass without ever
    // masking a real regression larger than the budget.
    let mut overhead = f64::INFINITY;
    for attempt in 1..=GATE_ATTEMPTS {
        let ((off, delivered_off), (on, delivered_on)) = measure(reps, n_activities, events);
        assert_eq!(
            delivered_off, delivered_on,
            "telemetry changed simulation behavior"
        );
        overhead = (on - off) / off;
        println!(
            "  off : {off:.4} s  ({:.0} events/s)",
            delivered_off as f64 / off
        );
        println!(
            "  on  : {on:.4} s  ({:.0} events/s)",
            delivered_on as f64 / on
        );
        println!(
            "  overhead: {:+.2} %  (attempt {attempt}/{GATE_ATTEMPTS})",
            overhead * 100.0
        );
        if overhead <= BUDGET {
            break;
        }
    }

    if let Some(path) = metrics_out {
        // One more enabled run to produce a representative snapshot.
        let telemetry = Telemetry::enabled();
        churn(n_activities, events, telemetry.clone());
        let json = serde_json::to_string_pretty(&telemetry.snapshot()).expect("serialize metrics");
        std::fs::write(&path, json + "\n").expect("write metrics");
        println!("  metrics written to {path}");
    }

    // Both gates run even if the first fails, so one CI log shows the
    // full picture; exit 1 if either blew its budget.
    let mut failed = false;
    if overhead > BUDGET {
        eprintln!("FAIL: telemetry overhead {:.2} % > 5 %", overhead * 100.0);
        failed = true;
    } else {
        println!("PASS: overhead within 5 % budget");
    }

    if sweep {
        let (seeds, workers, reps) = if smoke { (48, 2, 7) } else { (96, 4, 7) };
        println!(
            "campaign observability gate ({seeds} seeds x 2 schedulers, {workers} workers, best of {reps})"
        );
        let mut overhead = f64::INFINITY;
        for attempt in 1..=GATE_ATTEMPTS {
            let (off, on) = measure_sweep(reps, seeds, workers);
            overhead = (on - off) / off;
            println!("  off : {off:.4} s");
            println!("  on  : {on:.4} s");
            println!(
                "  overhead: {:+.2} %  (attempt {attempt}/{GATE_ATTEMPTS})",
                overhead * 100.0
            );
            if overhead <= BUDGET {
                break;
            }
        }
        if overhead > BUDGET {
            eprintln!(
                "FAIL: campaign observability overhead {:.2} % > 5 %",
                overhead * 100.0
            );
            failed = true;
        } else {
            println!("PASS: campaign observability within 5 % budget");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
