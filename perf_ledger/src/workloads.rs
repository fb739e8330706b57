//! The five workloads, each run in-process through the same public
//! functions the CLI commands call, with a span around every call into a
//! layer. One call of a workload function is one repetition.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use elastisim::{
    gantt_csv, jobs_csv, utilization_csv, FailureModel, InvariantChecker, ReconfigCost, Report,
    SimConfig, Simulation,
};
use elastisim_campaign::replay::{combined_fingerprint, render_table};
use elastisim_campaign::{
    aggregate_by_scheduler, CampaignEvent, Executor, Observability, ReplaySpec, RunRecord, RunSpec,
    SchedulerSpec,
};
use elastisim_cli::commands::{load_jobs, render_summary};
use elastisim_platform::{NetworkSpec, NodeSpec, PlatformSpec};
use elastisim_telemetry::{MetricsSnapshot, Telemetry};
use elastisim_workload::{
    ArrivalProcess, ClassMix, InjectionConfig, IoTarget, JobSpec, ScalingModel, SizeDistribution,
    WorkloadConfig,
};

use crate::digest::{combined_digest, sim_digest};
use crate::probe::{CountingObserver, EventCounts, SchedStats, TimedScheduler};
use crate::span::Tracer;

/// The PWA excerpt `replay_pwa` replays: the benchmark's own copy, so a
/// later edit of the test fixture cannot silently change the workload.
pub const PWA_EXCERPT: &str = include_str!("../data/pwa-excerpt.swf");
/// Byte length [`PWA_EXCERPT`] must have.
pub const PWA_EXCERPT_LEN: usize = 29_602;
/// `digest_text` [`PWA_EXCERPT`] must have.
pub const PWA_EXCERPT_DIGEST: &str = "sd1-c1745c2f2e8175e74a5dcc21b8b1f33e";

/// How a repetition is instrumented.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Tracing off: what end-to-end metrics are measured on.
    Timed,
    /// Tracing off, `InvariantChecker` attached on single-run workloads;
    /// timings discarded.
    Verify,
    /// Probes and telemetry on: what per-layer metrics are measured on.
    Traced,
}

/// One simulation's verdict.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Its `sim_digest` (empty if it produced no report).
    pub digest: String,
    /// Why it counts as failed, if it does.
    pub error: Option<String>,
}

/// One repetition of one workload: its inputs and everything it measured.
pub struct Rep {
    /// The benchmark seed every generator seed derives from.
    pub seed: u64,
    /// Run the ~10× smaller variant.
    pub smoke: bool,
    /// Instrumentation.
    pub mode: Mode,
    /// Scratch directory for file-based workloads (inside the checkout).
    pub work_dir: PathBuf,
    /// Spans around every layer call.
    pub tracer: Tracer,
    /// Counts and per-layer values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// One verdict per simulation, in id order.
    pub sims: Vec<SimOutcome>,
    /// Jobs finished (completed + killed) across all simulations.
    pub jobs_finished: u64,
    /// Durations of set-up passes made before the measured one, seconds.
    pub setup_rehearsals: Vec<f64>,
}

impl Rep {
    /// A repetition ready to run.
    pub fn new(seed: u64, smoke: bool, mode: Mode, work_dir: PathBuf) -> Self {
        Rep {
            seed,
            smoke,
            mode,
            work_dir,
            tracer: Tracer::new(),
            values: BTreeMap::new(),
            sims: Vec::new(),
            jobs_finished: 0,
            setup_rehearsals: Vec::new(),
        }
    }

    fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records the verdict of one finished simulation: it fails if it
    /// broke job accounting (finished ≠ submitted).
    fn judge(&mut self, report: &Report, submitted: usize) {
        let s = report.summary();
        let finished = s.completed + s.killed;
        self.jobs_finished += finished as u64;
        self.sims.push(SimOutcome {
            digest: sim_digest(report),
            error: (finished != submitted)
                .then(|| format!("job accounting: {finished} finished of {submitted} submitted")),
        });
    }

    /// The repetition's digest over all its simulations.
    pub fn digest(&self) -> String {
        combined_digest(self.sims.iter().map(|s| s.digest.as_str()))
    }
}

/// A benchmark workload.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Simulations one repetition attempts (full size, smoke size).
    pub sims: (u64, u64),
    /// Why it was chosen, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Runs one repetition.
    pub run: fn(&mut Rep),
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "contended_128",
        sims: (1, 1),
        why: "run path, 128-node star+PFS, 150 jobs, elastic: one giant flow component, re-solve is ~97% of the run and the scheduler idles, so flow-engine work shows here or nowhere",
        run: contended_128,
    },
    Workload {
        name: "churn_tree_96",
        sims: (1, 1),
        why: "run path, 96-node 2:1 tree, burst-buffer checkpoints, all four job classes, failures, data-volume reconfigs: cancels, timers and sparse multi-resource activities, the flow paths contended_128 skips",
        run: churn_tree_96,
    },
    Workload {
        name: "replay_pwa",
        sims: (30, 10),
        why: "replay path, 512-record PWA excerpt x 3 malleable fractions x 2 seeds x 5 schedulers: deep queues and ~1 activity per solve, so scheduler and SystemView work shows and flow work predicts no change",
        run: replay_pwa,
    },
    Workload {
        name: "sweep_corpus",
        sims: (2400, 240),
        why: "sweep path, 600 corpus seeds x 2 schedulers on 2 workers then resubmitted: tiny simulations, so Simulation::new, fingerprinting, executor hand-off and the result cache dominate",
        run: sweep_corpus,
    },
    Workload {
        name: "cli_json_300",
        sims: (1, 1),
        why: "file-based run path, 300-job jobs.json in, CSV and JSON out: the only workload where parsing and rendering dominate and engine work is under 10%",
        run: cli_json_300,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// ----------------------------------------------------------------------
// What --seed does
// ----------------------------------------------------------------------
//
// The seed perturbs a workload's canonical input; it does not redraw it.
// Redrawing would measure the draw: the engine's adaptive solve policy
// switches paths at a point that depends chaotically on the schedule, so
// two draws of the same size differ up to 3x in wall time at identical
// event counts (README, "Seed-state observations"). Each generated
// workload therefore fixes its generator seed at a value for which the
// policy's choice is stable, and --seed jitters the submit times;
// `replay_pwa` takes its injection seeds from --seed, and `sweep_corpus`
// its submission order.

/// SplitMix64, the benchmark's own deterministic generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Delays every submission by a seeded amount below half the default
/// scheduling interval: the same jobs, a different schedule.
fn jitter_submits(jobs: &mut [JobSpec], seed: u64) {
    const MAX_DELAY_S: f64 = 30.0;
    let mut rng = SplitMix64(seed);
    for job in jobs {
        job.submit_time += rng.unit() * MAX_DELAY_S;
    }
}

// ----------------------------------------------------------------------
// Single-run plumbing
// ----------------------------------------------------------------------

/// Probes attached to one single-run simulation.
struct Probes {
    telemetry: Telemetry,
    sched: Arc<SchedStats>,
    events: Arc<EventCounts>,
    checker: Option<InvariantChecker>,
}

/// `core.sim_new`: builds the simulation the way `elastisim run` does,
/// plus this repetition's probes.
fn build_sim(
    rep: &mut Rep,
    platform: &PlatformSpec,
    jobs: Vec<JobSpec>,
    scheduler: &str,
    cfg: SimConfig,
) -> (Simulation, Probes) {
    let mut probes = Probes {
        telemetry: Telemetry::disabled(),
        sched: Arc::default(),
        events: Arc::default(),
        checker: (rep.mode == Mode::Verify)
            .then(|| InvariantChecker::new(&jobs, platform.num_nodes())),
    };
    let mut algorithm = elastisim_sched::by_name(scheduler).expect("registry scheduler");
    if rep.mode == Mode::Traced {
        algorithm = Box::new(TimedScheduler::new(algorithm, Arc::clone(&probes.sched)));
    }
    let mut sim = rep.tracer.span("core.sim_new", || {
        Simulation::new(platform, jobs, algorithm, cfg).expect("generated workload validates")
    });
    if rep.mode == Mode::Traced {
        probes.telemetry = Telemetry::enabled();
        sim.set_telemetry(probes.telemetry.clone());
        sim.add_observer(Box::new(CountingObserver(Arc::clone(&probes.events))));
    }
    if let Some(checker) = &probes.checker {
        sim.add_observer(checker.observer());
    }
    (sim, probes)
}

/// `core.run`: runs the simulation, then judges it (`core.report`:
/// summary + digest) and, on a traced repetition, collects the engine's
/// per-layer numbers.
fn run_sim(rep: &mut Rep, sim: Simulation, probes: Probes, submitted: usize) -> Report {
    let run = rep.tracer.begin("core.run");
    let report = sim.run();
    rep.tracer.end(run);
    let judging = rep.tracer.begin("core.report");
    rep.judge(&report, submitted);
    if let Some(checker) = &probes.checker {
        let violations = checker.check_report(&report);
        if let Some(first) = violations.first() {
            let sim = rep.sims.last_mut().expect("just judged");
            sim.error = Some(format!(
                "{} invariant violations: {first}",
                violations.len()
            ));
        }
    }
    rep.tracer.end(judging);
    if rep.mode == Mode::Traced {
        let collect = rep.tracer.begin("trace.collect");
        let start = rep.tracer.spans()[run].start_ns;
        let nanos = probes.sched.nanos.load(Relaxed);
        rep.tracer.add("sched.schedule", run, start, nanos, Some(0));
        let busy = rep.tracer.secs(run);
        engine_metrics(
            rep,
            &probes.telemetry.snapshot(),
            &[&report],
            busy,
            &probes.sched,
        );
        rep.set("core.sim_events", probes.events.events.load(Relaxed) as f64);
        rep.set(
            "core.reconfigs",
            probes.events.reconfigs.load(Relaxed) as f64,
        );
        rep.set(
            "core.jobs_killed",
            probes.events.killed.load(Relaxed) as f64,
        );
        rep.tracer.end(collect);
    }
    report
}

/// Per-layer numbers of the `des`, `sched` and `core` layers, from the
/// program's public telemetry, the reports' exact counters and the
/// scheduler decorator. `busy_s` is the time spent inside simulations.
fn engine_metrics(
    rep: &mut Rep,
    snap: &MetricsSnapshot,
    reports: &[&Report],
    busy_s: f64,
    sched: &SchedStats,
) {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let mean = |name: &str| snap.histogram(name).map_or(0.0, |h| h.mean);

    let events: u64 = reports.iter().map(|r| r.events).sum();
    let recomputes: u64 = reports.iter().map(|r| r.recomputes).sum();
    let invocations: u64 = reports.iter().map(|r| r.scheduler_invocations).sum();
    let (events, recomputes) = (events as f64, recomputes as f64);
    rep.set("des.events", events);
    rep.set("des.events_per_s", ratio(events, busy_s));
    rep.set("des.us_per_event", ratio(busy_s * 1e6, events));
    rep.set("des.flow.recomputes", recomputes);
    rep.set("des.flow.recomputes_per_event", ratio(recomputes, events));
    rep.set(
        "des.flow.activities_per_solve",
        mean("flow.resolve_activities"),
    );
    // The program samples solve time 1-in-8; its solve counters are exact.
    let solves = counter("flow.resolves_full")
        + counter("flow.resolves_partial")
        + counter("flow.resolves_adaptive");
    let solve_s = mean("flow.resolve_seconds") * solves;
    rep.set("des.flow.solve_s_est", solve_s);
    rep.set("des.flow.share_est", ratio(solve_s, busy_s));
    rep.set("des.flow.resolves_full", counter("flow.resolves_full"));
    rep.set(
        "des.flow.resolves_partial",
        counter("flow.resolves_partial"),
    );
    rep.set("des.flow.resolves_sweep", counter("flow.resolves_adaptive"));
    rep.set("des.flow.par_batches", counter("flow.par.batches"));
    rep.set("des.flow.mode_switches", counter("flow.mode_switches"));
    rep.set("des.queue.depth_mean", mean("des.queue.depth"));
    rep.set("des.queue.compactions", counter("des.queue.compactions"));

    let calls = sched.invocations.load(Relaxed) as f64;
    let schedule_s = sched.nanos.load(Relaxed) as f64 * 1e-9;
    let invoke_s = snap
        .histogram("engine.invoke_seconds")
        .map_or(0.0, |h| h.sum);
    rep.set("sched.invocations", invocations as f64);
    rep.set("sched.schedule_s", schedule_s);
    rep.set("sched.schedule_us_mean", ratio(schedule_s * 1e6, calls));
    rep.set("sched.decisions", sched.decisions.load(Relaxed) as f64);
    rep.set(
        "sched.empty_share",
        ratio(sched.empty.load(Relaxed) as f64, calls),
    );
    rep.set(
        "sched.view_jobs_mean",
        ratio(sched.view_jobs.load(Relaxed) as f64, calls),
    );
    rep.set("sched.invoke_s", invoke_s);
    rep.set("sched.view_build_s_est", (invoke_s - schedule_s).max(0.0));
    rep.set("core.run_s", busy_s);
    rep.set("core.run_self_s", (busy_s - schedule_s).max(0.0));
}

/// Closes the root span and derives the span-based per-layer numbers.
fn finish(rep: &mut Rep, root: usize) {
    rep.tracer.end(root);
    for (metric, span) in [
        ("workload.generate_s", "workload.generate"),
        ("workload.swf_convert_s", "workload.swf_convert"),
        ("platform.from_json_s", "platform.from_json"),
        ("cli.load_jobs_s", "cli.load_jobs"),
        ("cli.write_outputs_s", "cli.write_outputs"),
        ("core.sim_new_s", "core.sim_new"),
        ("core.report_s", "core.report"),
        ("campaign.spec_build_s", "campaign.spec_build"),
        ("campaign.fingerprint_s", "campaign.fingerprint"),
        ("campaign.executor_wall_s", "campaign.executor_run"),
        ("campaign.cache_hit_pass_s", "campaign.cache_hit_pass"),
    ] {
        let secs = rep.tracer.total_secs(span);
        rep.set(metric, secs);
    }
    let mut setups = std::mem::take(&mut rep.setup_rehearsals);
    setups.push(rep.tracer.total_secs("setup"));
    setups.sort_by(f64::total_cmp);
    rep.set("setup_s", setups[setups.len() / 2]);
    let run_s = rep.tracer.total_secs("core.run") + rep.tracer.total_secs("campaign.executor_run");
    let wall_s = rep.tracer.secs(root);
    rep.set("run_s", run_s);
    rep.set("wall_s", wall_s);
    rep.set("campaign.sims", rep.sims.len() as f64);
    let unattributed = rep.tracer.self_secs(root) / wall_s;
    rep.set("trace.unattributed_share", unattributed);
}

/// The report phase of a single-run workload without file outputs: the
/// summary a user reads.
fn summarize(rep: &mut Rep, report: &Report, scheduler: &str) {
    let text = rep
        .tracer
        .span("core.report", || render_summary(report, scheduler, None));
    std::hint::black_box(text);
}

// ----------------------------------------------------------------------
// contended_128 and churn_tree_96
// ----------------------------------------------------------------------

/// The `run` path on an in-memory workload: generate, jitter, build, run
/// under `elastic`, summarize.
fn run_generated(
    rep: &mut Rep,
    platform: &PlatformSpec,
    generator: &WorkloadConfig,
    cfg: &SimConfig,
) {
    let setup_pass = |rep: &mut Rep| {
        let setup = rep.tracer.begin("setup");
        let mut jobs = rep
            .tracer
            .span("workload.generate", || generator.generate());
        jitter_submits(&mut jobs, rep.seed);
        let built = build_sim(rep, platform, jobs, "elastic", cfg.clone());
        rep.tracer.end(setup);
        built
    };
    // Set-up takes milliseconds here, too short to time once in a fresh
    // process: four more passes are made on a scratch tracer first, and
    // `setup_s` is the median of the five.
    for _ in 0..4 {
        let real = std::mem::take(&mut rep.tracer);
        drop(setup_pass(rep));
        let scratch = std::mem::replace(&mut rep.tracer, real);
        rep.setup_rehearsals.push(scratch.total_secs("setup"));
    }
    let root = rep.tracer.begin("wall");
    let (sim, probes) = setup_pass(rep);
    let report = run_sim(rep, sim, probes, generator.num_jobs);
    summarize(rep, &report, "elastic");
    rep.set("workload.jobs", generator.num_jobs as f64);
    finish(rep, root);
}

fn contended_128(rep: &mut Rep) {
    const NODES: usize = 128;
    // The R-F6 128-node row (`exp_scalability`) at generator seed 9: its
    // first job is wide enough that the solve policy enters sweep mode at
    // once and stays there for every jitter seed tried.
    let generator = WorkloadConfig::new(rep.size(150, 15))
        .with_platform_nodes(NODES as u32)
        .with_malleable_fraction(0.5)
        .with_sizes(SizeDistribution::Uniform { min: 2, max: 64 })
        .with_seed(9);
    let platform = PlatformSpec::homogeneous("contended", NODES, NodeSpec::default());
    let cfg = SimConfig::default()
        .with_reconfig_cost(ReconfigCost::Fixed(5.0))
        .without_gantt();
    run_generated(rep, &platform, &generator, &cfg);
}

fn churn_tree_96(rep: &mut Rep) {
    const NODES: usize = 96;
    let node = NodeSpec::default();
    let mut platform = PlatformSpec::homogeneous("churn-tree", NODES, node.clone());
    platform.network =
        NetworkSpec::non_blocking(NODES, node.nic_bw).with_tree(16, node.nic_bw, 2.0);
    let mut generator = WorkloadConfig::new(rep.size(300, 30))
        .with_platform_nodes(NODES as u32)
        .with_mix(ClassMix {
            rigid: 0.3,
            moldable: 0.1,
            malleable: 0.3,
            evolving: 0.3,
        })
        .with_sizes(SizeDistribution::Uniform { min: 2, max: 48 })
        .with_seed(99);
    generator.walltime_factor = 3.0;
    generator.app.checkpoint_every = 3;
    generator.app.checkpoint_target = IoTarget::BurstBuffer;
    let cfg = SimConfig::default()
        .with_reconfig_cost(ReconfigCost::DataVolume {
            bytes_per_node: 8.0e9,
        })
        .with_failures(FailureModel::with_mtbf(5.0e5))
        .without_gantt();
    run_generated(rep, &platform, &generator, &cfg);
}

// ----------------------------------------------------------------------
// cli_json_300
// ----------------------------------------------------------------------

/// Paths of the input files `cli_json_300` reads and the directory it
/// writes its outputs into.
pub struct CliFiles {
    /// `platform.json`.
    pub platform: PathBuf,
    /// `jobs.json`.
    pub jobs: PathBuf,
    /// Output directory.
    pub out: PathBuf,
}

/// Writes `cli_json_300`'s input files (the benchmark's own preparation,
/// untimed) and returns their paths with the job count.
pub fn write_cli_inputs(rep: &Rep) -> (CliFiles, usize) {
    const NODES: u64 = 64;
    let num_jobs = rep.size(300, 30);
    let dir = &rep.work_dir;
    std::fs::create_dir_all(dir).expect("creating the work directory");
    let files = CliFiles {
        platform: dir.join("platform.json"),
        jobs: dir.join("jobs.json"),
        out: dir.join("out"),
    };
    let platform = PlatformSpec::homogeneous("cli", NODES as usize, NodeSpec::default());
    std::fs::write(&files.platform, platform.to_json()).expect("writing platform.json");
    // The workload `elastisim generate --nodes 64 --jobs 300 --max-size 8
    // --seed 303` makes: narrow jobs keep the machine a quarter full, so
    // the simulation stays cheap on either solve path.
    let mut jobs = WorkloadConfig::new(num_jobs)
        .with_platform_nodes(NODES as u32)
        .with_sizes(SizeDistribution::Uniform { min: 1, max: 8 })
        .with_arrival(ArrivalProcess::Poisson {
            mean_interarrival: 300.0,
        })
        .with_seed(303)
        .generate();
    jitter_submits(&mut jobs, rep.seed);
    let json = serde_json::to_string(&jobs).expect("workload serializes");
    std::fs::write(&files.jobs, json).expect("writing jobs.json");
    (files, num_jobs)
}

/// The timed part of `cli_json_300`: what `elastisim run --platform P
/// --jobs J --scheduler easy --out DIR` does, split at layer boundaries
/// (`tests/drift.rs` pins it against `cmd_run`). Returns the report and
/// the summary text.
pub fn run_cli_split(rep: &mut Rep, files: &CliFiles, submitted: usize) -> (Report, String) {
    let path = |p: &PathBuf| p.to_str().expect("utf-8 work directory").to_owned();
    let setup = rep.tracer.begin("setup");
    let platform = rep.tracer.span("platform.from_json", || {
        let json = std::fs::read_to_string(&files.platform).expect("reading platform.json");
        PlatformSpec::from_json(&json).expect("platform.json parses")
    });
    let jobs_path = path(&files.jobs);
    let (jobs, _) = rep.tracer.span("cli.load_jobs", || {
        load_jobs(&jobs_path, platform.nodes[0].flops, None).expect("jobs.json loads")
    });
    let (sim, probes) = build_sim(rep, &platform, jobs, "easy", SimConfig::default());
    rep.tracer.end(setup);
    let report = run_sim(rep, sim, probes, submitted);
    let summary = rep
        .tracer
        .span("core.report", || render_summary(&report, "easy", None));
    let output_bytes = rep.tracer.span("cli.write_outputs", || {
        std::fs::create_dir_all(&files.out).expect("creating the output directory");
        let mut bytes = 0;
        for (name, data) in [
            ("jobs.csv", jobs_csv(&report)),
            ("utilization.csv", utilization_csv(&report)),
            ("gantt.csv", gantt_csv(&report)),
            ("summary.txt", summary.clone()),
            ("report.json", report.fingerprint()),
        ] {
            bytes += data.len();
            std::fs::write(files.out.join(name), data).expect("writing an output file");
        }
        bytes
    });
    rep.set("cli.output_bytes", output_bytes as f64);
    (report, summary)
}

fn cli_json_300(rep: &mut Rep) {
    let (files, num_jobs) = write_cli_inputs(rep);
    let input_bytes = std::fs::metadata(&files.jobs)
        .expect("jobs.json exists")
        .len();
    let root = rep.tracer.begin("wall");
    run_cli_split(rep, &files, num_jobs);
    rep.set("workload.jobs", num_jobs as f64);
    rep.set("cli.input_bytes", input_bytes as f64);
    finish(rep, root);
    let load_s = rep.values["cli.load_jobs_s"];
    rep.set("cli.parse_mb_per_s", input_bytes as f64 / 1e6 / load_s);
    let _ = std::fs::remove_dir_all(&rep.work_dir);
}

// ----------------------------------------------------------------------
// Campaign plumbing
// ----------------------------------------------------------------------

/// On a traced repetition, swaps each spec's scheduler for the timing
/// decorator under the unchanged label, so fingerprints and cache keys
/// are the same. Returns one stats block per spec.
fn instrument(rep: &Rep, specs: &mut [RunSpec]) -> Vec<Arc<SchedStats>> {
    if rep.mode != Mode::Traced {
        return Vec::new();
    }
    specs
        .iter_mut()
        .map(|spec| {
            let stats = Arc::<SchedStats>::default();
            let label = spec.scheduler.label().to_owned();
            let (name, sink) = (label.clone(), Arc::clone(&stats));
            spec.scheduler = SchedulerSpec::Custom {
                label,
                factory: Arc::new(move || {
                    let inner = elastisim_sched::by_name(&name).expect("registry scheduler");
                    Box::new(TimedScheduler::new(inner, Arc::clone(&sink)))
                }),
            };
            stats
        })
        .collect()
}

/// `campaign.fingerprint`: times `RunSpec::fingerprint` over all specs.
fn fingerprint_all(rep: &mut Rep, specs: &[RunSpec]) {
    let total: usize = rep.tracer.span("campaign.fingerprint", || {
        specs.iter().map(|s| s.fingerprint().len()).sum()
    });
    std::hint::black_box(total);
}

/// `campaign.executor_run`: runs the campaign (spec ids must be
/// `0..specs.len()`), judges every record and, on a traced repetition,
/// adds one span per simulation with its aggregated scheduler time.
fn execute(
    rep: &mut Rep,
    executor: &Executor,
    specs: Vec<RunSpec>,
    sched: &[Arc<SchedStats>],
) -> Vec<RunRecord> {
    let submitted: Vec<usize> = specs.iter().map(|s| s.workload.len()).collect();
    let traced = rep.mode == Mode::Traced;
    let mut started = vec![0u64; specs.len()];
    let mut sim_spans: Vec<(u64, u64, u64)> = Vec::new();
    let run = rep.tracer.begin("campaign.executor_run");
    let tracer = &rep.tracer;
    let result = executor.run_campaign_with(specs, |event| {
        if !traced {
            return;
        }
        match event {
            CampaignEvent::RunStarted { id, .. } => started[*id as usize] = tracer.now_ns(),
            CampaignEvent::RunFinished(record) => {
                sim_spans.push((record.id, started[record.id as usize], tracer.now_ns()));
            }
        }
    });
    rep.tracer.end(run);

    let judging = rep.tracer.begin("core.report");
    for (record, &submitted) in result.records.iter().zip(&submitted) {
        match record.report() {
            Some(report) => rep.judge(report, submitted),
            None => rep.sims.push(SimOutcome {
                digest: String::new(),
                error: Some(record.error().expect("failed record").to_string()),
            }),
        }
    }
    rep.tracer.end(judging);
    if traced {
        let collect = rep.tracer.begin("trace.collect");
        let total = SchedStats::default();
        for (id, start, end) in sim_spans {
            let sim = rep
                .tracer
                .add("campaign.sim", run, start, end - start, Some(id));
            let stats = &sched[id as usize];
            total.absorb(stats);
            let nanos = stats.nanos.load(Relaxed);
            rep.tracer
                .add("sched.schedule", sim, start, nanos, Some(id));
        }
        let executed = result.records.iter().filter(|r| !r.cached);
        let busy: f64 = executed.clone().map(|r| r.wall_seconds).sum();
        let reports: Vec<&Report> = executed.filter_map(|r| r.report()).collect();
        engine_metrics(rep, &result.merged_metrics(), &reports, busy, &total);
        let jobs: usize = submitted.iter().sum();
        let wall = rep.tracer.secs(run) * executor.workers() as f64;
        rep.set("workload.jobs", jobs as f64);
        rep.set("campaign.worker_busy_s", busy);
        rep.set("campaign.overhead_share", (1.0 - busy / wall).max(0.0));
        rep.set(
            "campaign.cache_hits",
            result.records.iter().filter(|r| r.cached).count() as f64,
        );
        let reconfigs: u32 = reports
            .iter()
            .flat_map(|r| &r.jobs)
            .map(|j| j.reconfigs)
            .sum();
        let killed: usize = reports.iter().map(|r| r.summary().killed).sum();
        rep.set("core.reconfigs", reconfigs as f64);
        rep.set("core.jobs_killed", killed as f64);
        rep.tracer.end(collect);
    }
    result.records
}

/// An executor with a fresh cache, collecting per-run telemetry only on
/// a traced repetition.
fn executor(rep: &Rep, workers: usize) -> Executor {
    Executor::new(workers).with_observability(Observability {
        collect_metrics: rep.mode == Mode::Traced,
        ..Observability::default()
    })
}

// ----------------------------------------------------------------------
// replay_pwa
// ----------------------------------------------------------------------

fn replay_pwa(rep: &mut Rep) {
    let fracs: &[f64] = if rep.smoke { &[0.3] } else { &[0.0, 0.3, 1.0] };
    let seeds = [rep.seed.wrapping_mul(2) + 1, rep.seed.wrapping_mul(2) + 2];
    let root = rep.tracer.begin("wall");
    let setup = rep.tracer.begin("setup");
    let mut campaigns = Vec::new();
    for &malleable_frac in fracs {
        for &seed in &seeds {
            let spec = ReplaySpec::new(
                "pwa-excerpt",
                InjectionConfig {
                    seed,
                    malleable_frac,
                    moldable_frac: 0.0,
                    scaling: ScalingModel::Linear,
                    platform_nodes: None,
                },
            );
            campaigns.push(rep.tracer.span("workload.swf_convert", || {
                spec.convert(PWA_EXCERPT.as_bytes())
                    .expect("the excerpt converts")
            }));
        }
    }
    let mut specs: Vec<RunSpec> = rep.tracer.span("campaign.spec_build", || {
        campaigns.iter().flat_map(|c| c.run_specs()).collect()
    });
    for (id, spec) in specs.iter_mut().enumerate() {
        spec.id = id as u64;
    }
    let sched = instrument(rep, &mut specs);
    fingerprint_all(rep, &specs);
    rep.tracer.end(setup);

    let records = execute(rep, &executor(rep, 1), specs, &sched);

    // What `elastisim replay` prints per campaign.
    let rendered: usize = rep.tracer.span("core.report", || {
        campaigns
            .iter()
            .zip(records.chunks(elastisim_sched::SCHEDULER_NAMES.len()))
            .map(|(c, r)| render_table(c, r).len() + combined_fingerprint(r).len())
            .sum()
    });
    std::hint::black_box(rendered);
    let parsed: u64 = campaigns.iter().map(|c| c.stats.parsed).sum();
    rep.set("workload.swf_records", parsed as f64);
    finish(rep, root);
}

// ----------------------------------------------------------------------
// sweep_corpus
// ----------------------------------------------------------------------

fn sweep_corpus(rep: &mut Rep) {
    const FIRST_CORPUS_SEED: u64 = 3000;
    let num_seeds = rep.size(600, 60) as u64;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let root = rep.tracer.begin("wall");
    let setup = rep.tracer.begin("setup");
    // The same scenarios for every --seed, submitted in a seeded order.
    let mut order: Vec<(u64, &str)> = (0..num_seeds)
        .flat_map(|i| ["easy", "elastic"].map(|s| (FIRST_CORPUS_SEED + i, s)))
        .collect();
    let mut rng = SplitMix64(rep.seed);
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let mut specs: Vec<RunSpec> = rep.tracer.span("campaign.spec_build", || {
        order
            .iter()
            .enumerate()
            .map(|(id, (seed, sched))| RunSpec::from_seed(id as u64, *seed, sched))
            .collect()
    });
    let sched = instrument(rep, &mut specs);
    fingerprint_all(rep, &specs);
    rep.tracer.end(setup);

    let executor = executor(rep, workers);
    let records = execute(rep, &executor, specs.clone(), &sched);

    // The identical campaign resubmitted: every run is a cache hit.
    let pass = rep.tracer.begin("campaign.cache_hit_pass");
    let again = executor.run(specs);
    rep.tracer.end(pass);
    let hits = again.iter().filter(|r| r.cached).count();
    for (i, (first, second)) in records.iter().zip(&again).enumerate() {
        let same = second.cached && first.report_fingerprint() == second.report_fingerprint();
        rep.sims.push(SimOutcome {
            digest: rep.sims[i].digest.clone(),
            error: (!same).then(|| format!("run {}: resubmission is not a cache hit", first.id)),
        });
    }
    if rep.mode == Mode::Traced {
        let first_pass = rep.values["campaign.cache_hits"];
        rep.set("campaign.cache_hits", first_pass + hits as f64);
    }

    // What `elastisim sweep` prints.
    let rows = rep
        .tracer
        .span("core.report", || aggregate_by_scheduler(&records).len());
    std::hint::black_box(rows);
    finish(rep, root);
}
