//! Replay conformance suite: trace-driven runs built from the committed
//! PWA excerpt via `convert_stream`, checked three ways.
//!
//! 1. **Per-scheduler goldens** — every scheduler replays the full
//!    excerpt at `--malleable-frac 0.3 --seed 42` and its summary +
//!    report digest is pinned under `tests/golden/replay/`; its engine
//!    counters, with those of the golden scenario, are pinned in
//!    `tests/golden/engine_counters.txt`. Regenerate with
//!    `UPDATE_GOLDEN=1 cargo test -p simtest --test replay`.
//! 2. **Monotone injection** — on a compute-only trace with free
//!    reconfiguration, converting more of the workload to malleable
//!    (frac 0 → 0.3 → 1.0) never increases the makespan under the
//!    malleable-aware `elastic` policy: extra flexibility must help.
//! 3. **Fuzz-sampled prefixes** — seeded random prefixes of the excerpt,
//!    random injection parameters, rotating schedulers, all replayed
//!    with the invariant checker attached and required to come back
//!    clean.
//!
//! `simtest` deliberately drives `elastisim::Simulation` directly (the
//! campaign layer depends on this crate, not the other way around), so
//! these tests double as proof that the replay conversion needs nothing
//! beyond the public workload + core APIs.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use elastisim::{
    InvariantChecker, InvariantViolation, ReconfigCost, Report, SimConfig, Simulation,
};
use elastisim_platform::{NodeSpec, PlatformSpec};
use elastisim_sched::{Decision, Invocation, JobState, Scheduler, SystemView, SCHEDULER_NAMES};
use elastisim_workload::{convert_stream, InjectionConfig, JobSpec, ScalingModel};
use simtest::{assert_matches_golden, scenario::run_checked, Scenario, GOLDEN_SEED};

fn fixture_text() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../workload/tests/fixtures/pwa-excerpt.swf");
    std::fs::read_to_string(path).expect("pwa-excerpt.swf fixture")
}

/// The header plus the first `jobs` record lines of the fixture.
fn fixture_prefix(text: &str, jobs: usize) -> String {
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

fn injection(frac: f64, seed: u64) -> InjectionConfig {
    InjectionConfig {
        seed,
        malleable_frac: frac,
        moldable_frac: 0.0,
        scaling: ScalingModel::Linear,
        platform_nodes: None,
    }
}

/// Converts `trace` and replays it under `scheduler` with the invariant
/// checker attached. Mirrors the CLI defaults: one proc per node, default
/// node flops, platform size from the trace header.
fn run_replay(
    trace: &str,
    cfg: &InjectionConfig,
    scheduler: &str,
    config: SimConfig,
) -> (Report, Vec<InvariantViolation>) {
    let (jobs, platform) = replay_workload(trace, cfg);
    let checker = InvariantChecker::new(&jobs, platform.nodes.len());
    let sched = elastisim_sched::by_name(scheduler)
        .unwrap_or_else(|| panic!("unknown scheduler `{scheduler}`"));
    let mut sim =
        Simulation::new(&platform, jobs, sched, config).expect("replay scenario must be valid");
    sim.add_observer(checker.observer());
    let report = sim.run();
    let violations = checker.check_report(&report);
    (report, violations)
}

/// Converts `trace` into the replayed workload and its platform.
fn replay_workload(trace: &str, cfg: &InjectionConfig) -> (Vec<JobSpec>, PlatformSpec) {
    let node_flops = NodeSpec::default().flops;
    let (jobs, stats) =
        convert_stream(trace.as_bytes(), node_flops, 1, cfg).expect("fixture converts cleanly");
    let platform = PlatformSpec::homogeneous(
        "replay-conformance",
        stats.platform_nodes(cfg, 1) as usize,
        NodeSpec {
            flops: node_flops,
            ..NodeSpec::default()
        },
    );
    (jobs, platform)
}

/// The pinned golden payload: the report digest (the whole answer) plus
/// the headline summary metrics (human reviewability of what actually
/// changed when the digest moves).
fn golden_payload(report: &Report) -> String {
    let s = report.summary();
    format!(
        "report-digest: {}\ncompleted: {}\nkilled: {}\nmakespan: {:?}\n\
         mean_wait: {:?}\np95_wait: {:?}\nmean_bounded_slowdown: {:?}\nutilization: {:?}\n",
        report.digest(),
        s.completed,
        s.killed,
        s.makespan,
        s.mean_wait,
        s.p95_wait,
        s.mean_bounded_slowdown,
        s.utilization,
    )
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/replay")
        .join(format!("{name}.txt"))
}

/// One `engine_counters.txt` row: the counters the report digest leaves
/// out.
fn counters_row(scenario: &str, scheduler: &str, report: &Report) -> String {
    format!(
        "{scenario:<12} {scheduler:<13} {:>8} {:>11} {:>22}\n",
        report.events, report.recomputes, report.scheduler_invocations
    )
}

/// Satellite: per-scheduler golden replay reports on the committed
/// excerpt. `UPDATE_GOLDEN=1` rewrites the snapshots.
///
/// The same runs pin the engine counters (`events`, `recomputes`,
/// `scheduler_invocations`) in `engine_counters.txt`, beside those of
/// every scheduler on the golden scenario. They describe how the engine
/// got the answer, not the answer, so the report goldens leave them out.
#[test]
fn excerpt_replay_matches_golden_snapshots() {
    let mut counters = format!(
        "{:<12} {:<13} {:>8} {:>11} {:>22}\n",
        "# scenario", "scheduler", "events", "recomputes", "scheduler_invocations"
    );
    let golden = Scenario::from_seed(GOLDEN_SEED);
    for name in SCHEDULER_NAMES {
        counters += &counters_row("golden", name, &run_checked(&golden, name).report);
    }
    let trace = fixture_text();
    let cfg = injection(0.3, 42);
    for name in SCHEDULER_NAMES {
        let (report, violations) = run_replay(&trace, &cfg, name, SimConfig::default());
        assert!(
            violations.is_empty(),
            "excerpt replay must be invariant-clean under `{name}`: {violations:?}"
        );
        assert_matches_golden(&golden_path(name), &golden_payload(&report));
        counters += &counters_row("pwa-excerpt", name, &report);
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/engine_counters.txt");
    assert_matches_golden(&path, &counters);
}

/// FNV-1a taken a 64-bit word per step instead of a byte: the running
/// hash of every view a [`ViewDigest`] is shown.
struct WordHash(u64);

impl WordHash {
    fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn opt(&mut self, w: Option<u64>) {
        self.word(w.map_or(u64::MAX, |w| w.wrapping_add(1)));
    }

    fn view(&mut self, view: &SystemView) {
        self.word(view.now.to_bits());
        self.word(view.total_nodes as u64);
        self.word(view.free_nodes.len() as u64);
        for node in &view.free_nodes {
            self.word(u64::from(node.0));
        }
        self.word(view.jobs.len() as u64);
        for job in &view.jobs {
            self.word(job.id.0);
            self.word(job.class as u64);
            self.word(job.submit_time.to_bits());
            self.word(u64::from(job.min_nodes));
            self.word(u64::from(job.max_nodes));
            self.opt(job.walltime.map(f64::to_bits));
            self.opt(job.evolving_request.map(u64::from));
            self.opt(job.fixed_start.map(u64::from));
            match &job.state {
                JobState::Pending => self.word(0),
                JobState::Running(info) => {
                    self.word(1);
                    self.word(info.start_time.to_bits());
                    self.word(u64::from(info.reconfig_pending));
                    self.word(info.progress.to_bits());
                    self.word(info.nodes.len() as u64);
                    for node in &info.nodes {
                        self.word(u64::from(node.0));
                    }
                }
            }
        }
    }
}

/// Wraps a scheduler and hashes every [`SystemView`] it receives, in
/// order, into a shared digest.
struct ViewDigest {
    inner: Box<dyn Scheduler>,
    hash: Arc<Mutex<WordHash>>,
}

impl Scheduler for ViewDigest {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, view: &SystemView, why: Invocation) -> Vec<Decision> {
        self.hash.lock().unwrap().view(view);
        self.inner.schedule(view, why)
    }
}

/// Pins the exact stream of views the engine shows each scheduler on the
/// full excerpt (frac 0.3, seed 42): every job's id, state, allocation,
/// progress, every free node and every `now`, per invocation. The
/// literal was recorded before the engine switched to its live-set view,
/// so any change to what a scheduler sees, or when, moves it.
#[test]
fn excerpt_view_stream_matches_recorded_digest() {
    let (jobs, platform) = replay_workload(&fixture_text(), &injection(0.3, 42));
    let hash = Arc::new(Mutex::new(WordHash(0xcbf2_9ce4_8422_2325)));
    for name in SCHEDULER_NAMES {
        let inner = elastisim_sched::by_name(name).expect("registered scheduler");
        let recorder = ViewDigest {
            inner,
            hash: Arc::clone(&hash),
        };
        Simulation::new(
            &platform,
            jobs.clone(),
            Box::new(recorder),
            SimConfig::default(),
        )
        .expect("replay scenario must be valid")
        .run();
    }
    let digest = hash.lock().unwrap().0;
    assert_eq!(format!("{digest:016x}"), "82ab93ca14f9aee2");
}

/// The excerpt replay must still distinguish the policies, otherwise the
/// goldens could not catch a policy regression.
#[test]
fn excerpt_replay_distinguishes_schedulers() {
    let trace = fixture_prefix(&fixture_text(), 150);
    let cfg = injection(0.3, 42);
    let digests: std::collections::HashSet<String> = SCHEDULER_NAMES
        .iter()
        .map(|name| {
            run_replay(&trace, &cfg, name, SimConfig::default())
                .0
                .digest()
        })
        .collect();
    assert!(
        digests.len() >= 2,
        "all schedulers agree on the excerpt replay; the trace is too easy"
    );
}

/// A compute-only trace in the *uncontended expansion* regime: sparse
/// staggered arrivals of narrow jobs (sizes 1–4 on a 64-node machine),
/// requested time strictly dominating the recorded runtime so no
/// replayed job is ever killed by its walltime.
///
/// The regime matters. Under saturation, `elastic`'s greedy
/// shrink-to-fit deliberately trades makespan for wait time (it starts
/// queued jobs early on shrunken allocations), so makespan is *not*
/// monotone in the malleable fraction on contended traces — measured
/// here and worth knowing: mixed fleets on a backlogged machine ran up
/// to ~16 % longer than the all-rigid replay. With the queue empty at
/// every decision point, shrink-to-fit never fires and injection grants
/// pure expansion headroom, so more malleability can only accelerate
/// completions.
fn uncontended_trace(jobs: u64, seed: u64) -> String {
    let mut out = String::from("; MaxNodes: 64\n");
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut submit = 0u64;
    for id in 1..=jobs {
        submit += 400 + next() % 400;
        let runtime = 120 + next() % 2400;
        let procs = 1 + next() % 4;
        let requested = runtime * 3;
        out.push_str(&format!(
            "{id} {submit} -1 {runtime} {procs} -1 -1 {procs} {requested} -1 1 -1 -1 -1 -1 -1 -1 -1\n"
        ));
    }
    out
}

/// Satellite: metamorphic monotone-injection oracle. On compute-only
/// traces in the uncontended regime (see [`uncontended_trace`]), raising
/// the malleable fraction 0 → 0.3 → 1.0 never increases the makespan
/// under the malleable-aware `elastic` policy, and full injection must
/// strictly beat the rigid replay — linear-scaling expansion conserves
/// work while shortening every job. One scheduling interval of slack
/// absorbs decision-point quantization.
#[test]
fn monotone_injection_never_increases_elastic_makespan() {
    let config = || {
        SimConfig::default()
            .with_interval(60.0)
            .with_reconfig_cost(ReconfigCost::Free)
    };
    for trace_seed in [7919u64, 15838, 23757, 31676, 39595] {
        let trace = uncontended_trace(50, trace_seed);
        let makespans: Vec<f64> = [0.0, 0.3, 1.0]
            .iter()
            .map(|&frac| {
                let (report, violations) =
                    run_replay(&trace, &injection(frac, 42), "elastic", config());
                assert!(violations.is_empty(), "frac {frac}: {violations:?}");
                let s = report.summary();
                assert_eq!(
                    s.killed, 0,
                    "compute-only trace must not kill (frac {frac})"
                );
                s.makespan
            })
            .collect();
        for pair in makespans.windows(2) {
            assert!(
                pair[1] <= pair[0] + 60.0 + 1e-6,
                "injection increased makespan (trace seed {trace_seed}): {makespans:?}"
            );
        }
        assert!(
            makespans[2] < makespans[0],
            "full injection must strictly beat the rigid replay \
             (trace seed {trace_seed}): {makespans:?}"
        );
    }
}

/// Satellite: invariant-checked replay on fuzz-sampled prefixes of the
/// excerpt. Prefix length, injection fractions, seed, and scheduler all
/// derive from one SplitMix64 stream, so a failure message's sample index
/// reproduces the run exactly.
#[test]
fn fuzzed_excerpt_prefixes_replay_invariant_clean() {
    let text = fixture_text();
    let mut state = 0xE1A5_7151_5EED_0001u64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for sample in 0..12 {
        let jobs = 10 + (next() % 110) as usize;
        let malleable = (next() >> 11) as f64 / (1u64 << 53) as f64;
        let moldable = ((next() >> 11) as f64 / (1u64 << 53) as f64) * (1.0 - malleable);
        let cfg = InjectionConfig {
            seed: next(),
            malleable_frac: malleable,
            moldable_frac: moldable,
            scaling: if next() % 2 == 0 {
                ScalingModel::Linear
            } else {
                ScalingModel::Amdahl {
                    serial_fraction: 0.05,
                }
            },
            platform_nodes: None,
        };
        let scheduler = SCHEDULER_NAMES[sample % SCHEDULER_NAMES.len()];
        let trace = fixture_prefix(&text, jobs);
        let (report, violations) = run_replay(&trace, &cfg, scheduler, SimConfig::default());
        assert!(
            violations.is_empty(),
            "sample {sample} ({jobs}-job prefix, `{scheduler}`, {cfg:?}): {violations:?}"
        );
        assert!(
            !report.jobs.is_empty(),
            "sample {sample}: replay produced an empty report"
        );
    }
}
