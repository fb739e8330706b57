//! The CLI subcommands, as library functions so they are unit-testable
//! without spawning processes.

use std::fs;
use std::path::{Path, PathBuf};

use elastisim::{
    gantt_csv, jobs_csv, utilization_csv, ChromeTraceWriter, EventTraceWriter, FlightRecorder,
    InvariantChecker, ReconfigCost, Report, SimConfig, Simulation, TimedObserver,
};
use elastisim_platform::{NodeSpec, PlatformSpec};
use elastisim_sched::ExternalProcess;
use elastisim_telemetry::log::{field, Level, Logger};
use elastisim_telemetry::Telemetry;
use elastisim_workload::{parse_swf, ArrivalProcess, JobSpec, SizeDistribution, WorkloadConfig};
use serde::Value;

use crate::args::{Args, UsageError};

/// Opens the structured JSONL logger for a command: `--log-json PATH`
/// (level from `ELASTISIM_LOG_LEVEL`, default info), else the
/// `ELASTISIM_LOG` / `ELASTISIM_LOG_LEVEL` environment pair, else a
/// disabled handle whose every call is one branch.
pub(crate) fn logger_from_args(args: &Args) -> Result<Logger, CliError> {
    match args.get("log-json") {
        Some(path) => {
            let min = std::env::var("ELASTISIM_LOG_LEVEL")
                .ok()
                .and_then(|s| Level::parse(&s))
                .unwrap_or(Level::Info);
            Logger::create(Path::new(path), min).map_err(|e| CliError::Io(path.into(), e))
        }
        None => Logger::from_env().map_err(|e| CliError::Io("ELASTISIM_LOG".into(), e)),
    }
}

/// Top-level error for CLI commands.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments.
    Usage(UsageError),
    /// Filesystem problem, with the path involved.
    Io(String, std::io::Error),
    /// Bad input data.
    Data(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(e) => write!(f, "usage: {e}"),
            CliError::Io(path, e) => write!(f, "{path}: {e}"),
            CliError::Data(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<UsageError> for CliError {
    fn from(e: UsageError) -> Self {
        CliError::Usage(e)
    }
}

/// Help text printed by `elastisim help` and on usage errors.
pub const HELP: &str = "\
elastisim — batch-system simulator for malleable workloads

USAGE:
  elastisim platform  --nodes N [--gpus G] [--name S] --out platform.json
  elastisim generate  --nodes N --jobs N [--malleable F] [--seed S]
                      [--min-size N] [--max-size N] [--interarrival S]
                      --out jobs.json
  elastisim run       --platform platform.json
                      --jobs jobs.json|workload.json|trace.swf
                      [--scheduler NAME | --scheduler-cmd \"CMD ARGS...\"]
                      [--scheduler-timeout S] [--interval S]
                      [--reconfig-cost free|fixed:S|data:BYTES]
                      [--seed N] [--check-invariants]
                      [--trace-events FILE] [--chrome-trace FILE]
                      [--metrics-out FILE] [--progress [SECS]]
                      [--log-json FILE] [--flight-recorder DIR]
                      [--out DIR]
  elastisim replay    --swf trace.swf [--malleable-frac F] [--seed S]
                      [--moldable-frac M] [--scaling-model linear|amdahl[:S]]
                      [--schedulers NAME,NAME,...] [--nodes N]
                      [--procs-per-node N] [--interval S] [--workers N]
                      [--convert-only] [--records FILE] [--report-out FILE]
                      [--check FILE] [--markdown] [--metrics-out FILE]
                      [--prom-out FILE] [--log-json FILE]
                      [--flight-recorder DIR] [--progress]
  elastisim sweep     --seeds A..B [--schedulers NAME,NAME,...]
                      [--workers N] [--records FILE] [--metrics-out FILE]
                      [--prom-out FILE] [--log-json FILE]
                      [--flight-recorder DIR] [--progress]
  elastisim schedulers
  elastisim help

`run` prints the summary and, with --out, writes jobs.csv,
utilization.csv, gantt.csv and summary.txt into DIR. --jobs accepts a
JSON job list, a JSON workload-generator config (object — generated on
the spot; --seed overrides its seed, which is echoed in the summary),
or an SWF trace.

--scheduler-cmd runs the scheduling algorithm as an external process
speaking the JSON-lines wire protocol on stdin/stdout (see DESIGN.md);
an unresponsive scheduler is killed after --scheduler-timeout (default
10 s) and the run fails with a structured error. --trace-events streams
every simulation event to FILE as JSON lines. --check-invariants
attaches the runtime invariant checker and reports violations in the
summary (see DESIGN.md §9).

--chrome-trace writes the simulated timeline as Chrome trace-event
JSON, loadable at https://ui.perfetto.dev (per-node job slices,
scheduler invocations, flow re-solves). --metrics-out writes internal
counters and latency histograms to FILE as JSON; either flag also
appends the metrics to the printed summary (see DESIGN.md §10).
--progress prints a heartbeat to stderr roughly every SECS wall-clock
seconds (default 5).

`replay` streams a Standard Workload Format trace (tolerating `-1`
sentinels, cancelled jobs, and malformed lines, all counted with line
numbers), rewrites a seeded fraction of jobs as malleable/moldable —
size ranges half-to-double around the recorded size, speedup curves
from the recorded runtime under --scaling-model — and compares the
listed schedulers (default: all) on the converted workload. The replay
fingerprint is identical across repeated runs and worker counts, and
--malleable-frac 0 reproduces the plain rigid conversion byte-for-byte.
--convert-only stops after conversion; --metrics-out writes
replay.{parsed,skipped,injected} counters; --report-out writes the
deterministic report, which --check compares against on later runs;
--markdown appends an EXPERIMENTS.md-ready table.

`sweep` runs the conformance-corpus scenario for every seed in the
half-open range A..B under each listed scheduler (default elastic),
sharded over --workers threads, and prints a merged per-scheduler
summary table. Per-run records are byte-identical at any worker count.
--records writes one JSON line per run (id, label, fingerprints,
makespan, utilization); --progress streams per-run status to stderr.

Observability (all commands above; see DESIGN.md §13): --log-json
writes structured JSONL log records correlated by campaign/run ids and
fingerprints (level via ELASTISIM_LOG_LEVEL; the ELASTISIM_LOG env var
enables the same without the flag). --flight-recorder DIR keeps a
bounded ring of each run's last simulation events and dumps a
post-mortem JSON file into DIR when a run fails, panics, or trips the
invariant checker. For sweep/replay, --metrics-out writes the merged
campaign metrics snapshot (exact histogram merge across runs) and
--prom-out the same in Prometheus text exposition. All of these are
off by default and result-neutral: reports and fingerprints are
byte-identical with them on or off.
";

/// Parses a `--reconfig-cost` value: `free`, `fixed:SECONDS`, or
/// `data:BYTES_PER_NODE`.
pub fn parse_reconfig_cost(s: &str) -> Result<ReconfigCost, UsageError> {
    if s == "free" {
        return Ok(ReconfigCost::Free);
    }
    if let Some(v) = s.strip_prefix("fixed:") {
        let secs: f64 = v
            .parse()
            .map_err(|_| UsageError(format!("bad fixed cost `{v}`")))?;
        return Ok(ReconfigCost::Fixed(secs));
    }
    if let Some(v) = s.strip_prefix("data:") {
        let bytes: f64 = v
            .parse()
            .map_err(|_| UsageError(format!("bad data volume `{v}`")))?;
        return Ok(ReconfigCost::DataVolume {
            bytes_per_node: bytes,
        });
    }
    Err(UsageError(format!(
        "bad --reconfig-cost `{s}` (expected free, fixed:SECONDS, data:BYTES)"
    )))
}

/// `elastisim platform`: writes a homogeneous platform JSON.
pub fn cmd_platform(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["nodes", "gpus", "name", "out"])?;
    let nodes = args.int("nodes", 0)?;
    if nodes == 0 {
        return Err(UsageError("--nodes must be ≥ 1".into()).into());
    }
    let gpus = args.int("gpus", 0)?;
    let name = args.get_or("name", "generated");
    let node = if gpus > 0 {
        NodeSpec::default().with_gpus(gpus as usize)
    } else {
        NodeSpec::default()
    };
    let spec = PlatformSpec::homogeneous(name, nodes as usize, node);
    let json = spec.to_json();
    if let Some(path) = args.get("out") {
        fs::write(path, &json).map_err(|e| CliError::Io(path.into(), e))?;
    }
    Ok(json)
}

/// `elastisim generate`: writes a synthetic workload JSON.
pub fn cmd_generate(args: &Args) -> Result<Vec<JobSpec>, CliError> {
    args.expect_only(&[
        "nodes",
        "jobs",
        "malleable",
        "seed",
        "min-size",
        "max-size",
        "interarrival",
        "out",
    ])?;
    let nodes = args.int("nodes", 0)?;
    let jobs = args.int("jobs", 0)?;
    if nodes == 0 || jobs == 0 {
        return Err(UsageError("--nodes and --jobs must be ≥ 1".into()).into());
    }
    let malleable = args.num("malleable", 0.0)?;
    if !(0.0..=1.0).contains(&malleable) {
        return Err(UsageError("--malleable must be in [0, 1]".into()).into());
    }
    let min = args.int("min-size", 1)? as u32;
    let max = args.int("max-size", (nodes / 2).max(1))? as u32;
    let interarrival = args.num("interarrival", 300.0)?;
    let cfg = WorkloadConfig::new(jobs as usize)
        .with_platform_nodes(nodes as u32)
        .with_malleable_fraction(malleable)
        .with_sizes(SizeDistribution::Uniform { min, max })
        .with_arrival(ArrivalProcess::Poisson {
            mean_interarrival: interarrival,
        })
        .with_seed(args.int("seed", 1)?);
    let workload = cfg.generate();
    if let Some(path) = args.get("out") {
        let json = serde_json::to_string_pretty(&workload)
            .map_err(|e| CliError::Data(format!("serializing workload: {e}")))?;
        fs::write(path, json).map_err(|e| CliError::Io(path.into(), e))?;
    }
    Ok(workload)
}

/// Loads a workload file: `.swf` traces, JSON job lists, or a JSON
/// [`WorkloadConfig`] (object, not array) which is generated on the spot.
/// `seed` overrides the generator seed and is an error for the static
/// formats, where it could not have any effect. Returns the jobs plus the
/// effective generator seed, if one was used.
pub fn load_jobs(
    path: &str,
    node_flops: f64,
    seed: Option<u64>,
) -> Result<(Vec<JobSpec>, Option<u64>), CliError> {
    let text = fs::read_to_string(path).map_err(|e| CliError::Io(path.into(), e))?;
    if path.ends_with(".swf") {
        if seed.is_some() {
            return Err(UsageError("--seed only applies to generated workloads".into()).into());
        }
        let jobs = parse_swf(&text).map_err(|e| CliError::Data(format!("{path}: {e}")))?;
        return Ok((
            jobs.iter().map(|j| j.to_job_spec(node_flops, 1)).collect(),
            None,
        ));
    }
    if text.trim_start().starts_with('{') {
        let mut cfg: WorkloadConfig =
            serde_json::from_str(&text).map_err(|e| CliError::Data(format!("{path}: {e}")))?;
        if let Some(seed) = seed {
            cfg.seed = seed;
        }
        return Ok((cfg.generate(), Some(cfg.seed)));
    }
    if seed.is_some() {
        return Err(UsageError("--seed only applies to generated workloads".into()).into());
    }
    let jobs = serde_json::from_str(&text).map_err(|e| CliError::Data(format!("{path}: {e}")))?;
    Ok((jobs, None))
}

/// `elastisim run`: simulates and optionally writes result files.
pub fn cmd_run(args: &Args) -> Result<(Report, String), CliError> {
    args.expect_only(&[
        "platform",
        "jobs",
        "scheduler",
        "scheduler-cmd",
        "scheduler-timeout",
        "interval",
        "reconfig-cost",
        "trace-events",
        "chrome-trace",
        "metrics-out",
        "progress",
        "seed",
        "check-invariants",
        "log-json",
        "flight-recorder",
        "out",
    ])?;
    let platform_path = args.require("platform")?;
    let platform_json =
        fs::read_to_string(platform_path).map_err(|e| CliError::Io(platform_path.into(), e))?;
    let platform = PlatformSpec::from_json(&platform_json)
        .map_err(|e| CliError::Data(format!("{platform_path}: {e}")))?;

    let seed = match args.get("seed") {
        None => None,
        Some(_) => Some(args.int("seed", 0)?),
    };
    let jobs_path = args.require("jobs")?;
    let (jobs, effective_seed) = load_jobs(jobs_path, platform.nodes[0].flops, seed)?;
    let checker = args
        .flag("check-invariants")?
        .then(|| InvariantChecker::new(&jobs, platform.num_nodes()));

    let mut cfg = SimConfig::default().with_interval(args.positive("interval", 60.0)?);
    if let Some(rc) = args.get("reconfig-cost") {
        cfg = cfg.with_reconfig_cost(parse_reconfig_cost(rc)?);
    }
    // Bare `--progress` parses as the boolean value "true"; a number is a
    // custom heartbeat interval.
    match args.get("progress") {
        None => {}
        Some("true") => cfg = cfg.with_progress(5.0),
        Some(v) => {
            let secs: f64 = v.parse().map_err(|_| {
                UsageError(format!(
                    "option `--progress`: `{v}` is not a number of seconds"
                ))
            })?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err(UsageError("--progress interval must be > 0".into()).into());
            }
            cfg = cfg.with_progress(secs);
        }
    }

    // Telemetry is off (and free) unless an output asked for it; the
    // simulated-timeline buffer is only kept when a Chrome trace will
    // consume it.
    let chrome_trace = args.get("chrome-trace").map(String::from);
    let metrics_out = args.get("metrics-out").map(String::from);
    let telemetry = if chrome_trace.is_some() || metrics_out.is_some() {
        Telemetry::with_timeline(chrome_trace.is_some())
    } else if args.get("flight-recorder").is_some() {
        // The post-mortem dump embeds a telemetry snapshot; arming the
        // recorder turns collection on even without a metrics output.
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    let (mut sim, sched_label) = if let Some(cmd) = args.get("scheduler-cmd") {
        if args.get("scheduler").is_some() {
            return Err(UsageError(
                "--scheduler and --scheduler-cmd are mutually exclusive".into(),
            )
            .into());
        }
        let timeout = args.positive(
            "scheduler-timeout",
            ExternalProcess::DEFAULT_TIMEOUT.as_secs_f64(),
        )?;
        let process =
            ExternalProcess::spawn_command_line(cmd, std::time::Duration::from_secs_f64(timeout))
                .map_err(|e| CliError::Data(format!("spawning external scheduler: {e}")))?;
        let sim = Simulation::with_external(&platform, jobs, process, cfg)
            .map_err(|e| CliError::Data(e.to_string()))?;
        (sim, format!("external:{cmd}"))
    } else {
        let sched_name = args.get_or("scheduler", "elastic");
        let scheduler = elastisim_sched::by_name(sched_name).ok_or_else(|| {
            CliError::Usage(UsageError(format!(
                "unknown scheduler `{sched_name}` (known: {})",
                elastisim_sched::SCHEDULER_NAMES.join(", ")
            )))
        })?;
        let sim = Simulation::new(&platform, jobs, scheduler, cfg)
            .map_err(|e| CliError::Data(e.to_string()))?;
        (sim, sched_name.to_string())
    };

    let logger = logger_from_args(args)?.with("scheduler", sched_label.as_str());
    // The flight recorder tails the event stream into a bounded ring so a
    // failing run can be dumped post-mortem; the handle shares its state
    // with the observer, so the ring survives `try_run` consuming `sim`.
    let recorder = args
        .get("flight-recorder")
        .map(|dir| (FlightRecorder::new(), PathBuf::from(dir)));
    if let Some((rec, _)) = &recorder {
        sim.add_observer(rec.observer());
    }
    // Writes `DIR/postmortem-<reason>.json` when `--flight-recorder DIR`
    // armed a recorder.
    let dump_postmortem = |reason: &str, message: &str| {
        if let Some((rec, dir)) = &recorder {
            rec.write_postmortem(
                &dir.join(format!("postmortem-{reason}.json")),
                reason,
                message,
                &[("scheduler", Value::Str(sched_label.clone()))],
                &telemetry.snapshot(),
                &logger,
            );
        }
    };

    sim.set_telemetry(telemetry.clone());
    if let Some(path) = args.get("trace-events") {
        let writer =
            EventTraceWriter::create(Path::new(path)).map_err(|e| CliError::Io(path.into(), e))?;
        sim.add_observer(Box::new(writer));
    }
    if let Some(path) = &chrome_trace {
        let writer = ChromeTraceWriter::create(Path::new(path), telemetry.clone())
            .map_err(|e| CliError::Io(path.clone(), e))?;
        sim.add_observer(Box::new(writer));
    }
    if let Some(checker) = &checker {
        if telemetry.is_enabled() {
            sim.add_observer(Box::new(TimedObserver::new(
                checker.observer(),
                telemetry.clone(),
                "invariant.observe_seconds",
            )));
        } else {
            sim.add_observer(checker.observer());
        }
    }

    logger.info("run_started", &[field("jobs", jobs_path)]);
    let report = match sim.try_run() {
        Ok(report) => report,
        Err(e) => {
            logger.error("run_failed", &[field("error", e.to_string())]);
            dump_postmortem("sim_error", &e.to_string());
            return Err(CliError::Data(e.to_string()));
        }
    };
    // The digest correlates this run with sweep and replay records; it
    // costs a report serialization, so only a live log pays for it.
    if logger.is_enabled() {
        logger.info(
            "run_finished",
            &[
                field("makespan", report.summary().makespan),
                field("events", report.events),
                field("report_digest", report.digest()),
            ],
        );
    }
    let mut summary = render_summary(&report, &sched_label, effective_seed);
    if chrome_trace.is_some() || metrics_out.is_some() {
        let snapshot = telemetry.snapshot();
        if let Some(path) = &metrics_out {
            let json = serde_json::to_string_pretty(&snapshot)
                .map_err(|e| CliError::Data(format!("serializing metrics: {e}")))?;
            fs::write(path, json + "\n").map_err(|e| CliError::Io(path.clone(), e))?;
        }
        summary.push_str("\nmetrics\n");
        summary.push_str(&snapshot.render_text());
    }
    if let Some(checker) = &checker {
        let violations = checker.check_report(&report);
        for v in &violations {
            summary.push_str(&format!("invariant violation: {v}\n"));
            logger.error("invariant_violation", &[field("violation", v.to_string())]);
        }
        if violations.is_empty() {
            summary.push_str("invariants       : ok\n");
        } else {
            let joined = violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            dump_postmortem("invariant_violation", &joined);
        }
    }

    if let Some(dir) = args.get("out") {
        let dir = Path::new(dir);
        fs::create_dir_all(dir).map_err(|e| CliError::Io(dir.display().to_string(), e))?;
        let write = |name: &str, data: String| -> Result<(), CliError> {
            let path = dir.join(name);
            fs::write(&path, data).map_err(|e| CliError::Io(path.display().to_string(), e))
        };
        write("jobs.csv", jobs_csv(&report))?;
        write("utilization.csv", utilization_csv(&report))?;
        write("gantt.csv", gantt_csv(&report))?;
        write("summary.txt", summary.clone())?;
    }
    Ok((report, summary))
}

/// Renders the human-readable run summary. `seed` is the effective
/// workload-generator seed, when the workload was generated.
pub fn render_summary(report: &Report, scheduler: &str, seed: Option<u64>) -> String {
    let s = report.summary();
    let mut out = String::new();
    out.push_str(&format!("scheduler        : {scheduler}\n"));
    if let Some(seed) = seed {
        out.push_str(&format!("workload seed    : {seed}\n"));
    }
    out.push_str(&format!("nodes            : {}\n", report.total_nodes));
    out.push_str(&format!("jobs completed   : {}\n", s.completed));
    out.push_str(&format!("jobs killed      : {}\n", s.killed));
    out.push_str(&format!("makespan         : {:.1} s\n", s.makespan));
    out.push_str(&format!("mean wait        : {:.1} s\n", s.mean_wait));
    out.push_str(&format!(
        "wait p50/p95/p99 : {:.1} / {:.1} / {:.1} s\n",
        s.p50_wait, s.p95_wait, s.p99_wait
    ));
    out.push_str(&format!("mean turnaround  : {:.1} s\n", s.mean_turnaround));
    out.push_str(&format!(
        "mean bnd slowdown: {:.2}\n",
        s.mean_bounded_slowdown
    ));
    out.push_str(&format!(
        "bslow p50/p95/p99: {:.2} / {:.2} / {:.2}\n",
        s.p50_bounded_slowdown, s.p95_bounded_slowdown, s.p99_bounded_slowdown
    ));
    out.push_str(&format!(
        "utilization      : {:.1} %\n",
        s.utilization * 100.0
    ));
    out.push_str(&format!("des events       : {}\n", report.events));
    out.push_str(&format!(
        "sched invocations: {}\n",
        report.scheduler_invocations
    ));
    for w in &report.warnings {
        out.push_str(&format!("warning: {w}\n"));
    }
    out
}

/// Dispatches a parsed command line. Returns the text to print.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    match args.command.as_str() {
        "platform" => cmd_platform(args),
        "generate" => {
            let jobs = cmd_generate(args)?;
            Ok(format!("generated {} jobs", jobs.len()))
        }
        "run" => cmd_run(args).map(|(_, summary)| summary),
        "replay" => crate::replay_cmd::cmd_replay(args),
        "sweep" => crate::campaign_cmd::cmd_sweep(args),
        "schedulers" => Ok(elastisim_sched::SCHEDULER_NAMES.join("\n")),
        "help" => Ok(HELP.to_string()),
        other => Err(UsageError(format!("unknown command `{other}`")).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "elastisim-cli-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn help_states_the_scheduler_timeout_default() {
        let help = HELP.split_whitespace().collect::<Vec<_>>().join(" ");
        let stated = format!(
            "--scheduler-timeout (default {} s)",
            ExternalProcess::DEFAULT_TIMEOUT.as_secs_f64()
        );
        assert!(help.contains(&stated), "HELP must say `{stated}`");
    }

    #[test]
    fn reconfig_cost_parsing() {
        assert_eq!(parse_reconfig_cost("free").unwrap(), ReconfigCost::Free);
        assert_eq!(
            parse_reconfig_cost("fixed:5").unwrap(),
            ReconfigCost::Fixed(5.0)
        );
        assert_eq!(
            parse_reconfig_cost("data:1e9").unwrap(),
            ReconfigCost::DataVolume {
                bytes_per_node: 1e9
            }
        );
        assert!(parse_reconfig_cost("fixed:x").is_err());
        assert!(parse_reconfig_cost("gratis").is_err());
    }

    #[test]
    fn full_pipeline_platform_generate_run() {
        let dir = tmpdir();
        let p = dir.join("platform.json");
        let j = dir.join("jobs.json");
        let out = dir.join("results");

        let args = Args::parse(["platform", "--nodes", "8", "--out", p.to_str().unwrap()]).unwrap();
        cmd_platform(&args).unwrap();

        let args = Args::parse([
            "generate",
            "--nodes",
            "8",
            "--jobs",
            "12",
            "--malleable",
            "0.5",
            "--seed",
            "3",
            "--out",
            j.to_str().unwrap(),
        ])
        .unwrap();
        let jobs = cmd_generate(&args).unwrap();
        assert_eq!(jobs.len(), 12);

        let args = Args::parse([
            "run",
            "--platform",
            p.to_str().unwrap(),
            "--jobs",
            j.to_str().unwrap(),
            "--scheduler",
            "elastic",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        let (report, summary) = cmd_run(&args).unwrap();
        assert_eq!(report.summary().completed, 12);
        assert!(summary.contains("jobs completed   : 12"));
        for f in ["jobs.csv", "utilization.csv", "gantt.csv", "summary.txt"] {
            assert!(out.join(f).exists(), "{f} missing");
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn run_accepts_swf_traces() {
        let dir = tmpdir();
        let p = dir.join("platform.json");
        let t = dir.join("trace.swf");
        cmd_platform(
            &Args::parse(["platform", "--nodes", "8", "--out", p.to_str().unwrap()]).unwrap(),
        )
        .unwrap();
        fs::write(&t, "1 0 0 60 2 -1 -1 2 120 -1 1 1 1 -1 1 -1 -1 -1\n").unwrap();
        let args = Args::parse([
            "run",
            "--platform",
            p.to_str().unwrap(),
            "--jobs",
            t.to_str().unwrap(),
            "--scheduler",
            "fcfs",
        ])
        .unwrap();
        let (report, _) = cmd_run(&args).unwrap();
        assert_eq!(report.summary().completed, 1);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn dispatch_covers_commands() {
        assert!(dispatch(&Args::parse(["help"]).unwrap())
            .unwrap()
            .contains("USAGE"));
        let scheds = dispatch(&Args::parse(["schedulers"]).unwrap()).unwrap();
        assert!(scheds.contains("elastic"));
        assert!(dispatch(&Args::parse(["frobnicate"]).unwrap()).is_err());
    }

    #[test]
    fn unknown_scheduler_is_usage_error() {
        let dir = tmpdir();
        let p = dir.join("platform.json");
        cmd_platform(
            &Args::parse(["platform", "--nodes", "4", "--out", p.to_str().unwrap()]).unwrap(),
        )
        .unwrap();
        let j = dir.join("jobs.json");
        fs::write(&j, "[]").unwrap();
        let args = Args::parse([
            "run",
            "--platform",
            p.to_str().unwrap(),
            "--jobs",
            j.to_str().unwrap(),
            "--scheduler",
            "quantum",
        ])
        .unwrap();
        assert!(matches!(cmd_run(&args), Err(CliError::Usage(_))));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn run_writes_event_trace() {
        let dir = tmpdir();
        let p = dir.join("platform.json");
        let j = dir.join("jobs.json");
        let trace = dir.join("events.jsonl");
        let log = dir.join("log.jsonl");
        cmd_platform(
            &Args::parse(["platform", "--nodes", "8", "--out", p.to_str().unwrap()]).unwrap(),
        )
        .unwrap();
        cmd_generate(
            &Args::parse([
                "generate",
                "--nodes",
                "8",
                "--jobs",
                "4",
                "--out",
                j.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        let args = Args::parse([
            "run",
            "--platform",
            p.to_str().unwrap(),
            "--jobs",
            j.to_str().unwrap(),
            "--scheduler",
            "fcfs",
            "--trace-events",
            trace.to_str().unwrap(),
            "--log-json",
            log.to_str().unwrap(),
        ])
        .unwrap();
        let (report, _) = cmd_run(&args).unwrap();
        let text = fs::read_to_string(&trace).unwrap();
        assert!(text.contains(r#""event":"job_submitted""#), "{text}");
        assert!(text.contains(r#""event":"job_started""#), "{text}");
        assert!(text.contains(r#""event":"job_completed""#), "{text}");
        // The run_finished log line carries the report digest, so a single
        // run can be matched to a sweep or replay record.
        let log_text = fs::read_to_string(&log).unwrap();
        let finished = log_text
            .lines()
            .find(|l| l.contains(r#""event":"run_finished""#))
            .unwrap_or_else(|| panic!("no run_finished record: {log_text}"));
        let digest = format!(r#""report_digest":"{}""#, report.digest());
        assert!(finished.contains(&digest), "{finished}");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn run_writes_chrome_trace_and_metrics() {
        let dir = tmpdir();
        let p = dir.join("platform.json");
        let j = dir.join("jobs.json");
        let trace = dir.join("trace.json");
        let metrics = dir.join("metrics.json");
        cmd_platform(
            &Args::parse(["platform", "--nodes", "8", "--out", p.to_str().unwrap()]).unwrap(),
        )
        .unwrap();
        cmd_generate(
            &Args::parse([
                "generate",
                "--nodes",
                "8",
                "--jobs",
                "6",
                "--malleable",
                "0.5",
                "--out",
                j.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        let args = Args::parse([
            "run",
            "--platform",
            p.to_str().unwrap(),
            "--jobs",
            j.to_str().unwrap(),
            "--scheduler",
            "elastic",
            "--check-invariants",
            "--chrome-trace",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--progress",
            "60",
        ])
        .unwrap();
        let (_, summary) = cmd_run(&args).unwrap();
        assert!(summary.contains("metrics"), "{summary}");
        assert!(summary.contains("sched.invocations"), "{summary}");
        assert!(summary.contains("wait p50/p95/p99"), "{summary}");

        // Walk the vendored `Value` tree (it has no indexing sugar).
        fn get<'a>(v: &'a serde::Value, key: &str) -> &'a serde::Value {
            match v {
                serde::Value::Map(m) => &m.iter().find(|(k, _)| k == key).expect(key).1,
                other => panic!("expected map with `{key}`, got {other:?}"),
            }
        }
        fn str_of<'a>(v: &'a serde::Value, key: &str) -> &'a str {
            match get(v, key) {
                serde::Value::Str(s) => s,
                other => panic!("expected string `{key}`, got {other:?}"),
            }
        }

        let trace_text = fs::read_to_string(&trace).unwrap();
        let doc: serde::Value = serde_json::from_str(&trace_text).unwrap();
        let serde::Value::Seq(events) = get(&doc, "traceEvents") else {
            panic!("traceEvents is not an array");
        };
        assert!(
            events.iter().any(|e| str_of(e, "ph") == "X"),
            "no job slices"
        );
        assert!(
            events
                .iter()
                .any(|e| str_of(e, "ph") == "i" && str_of(e, "name").starts_with("invoke")),
            "no scheduler instants"
        );
        assert!(
            events.iter().any(|e| str_of(e, "name") == "flow.resolve"),
            "flow timeline missing"
        );

        let metrics_text = fs::read_to_string(&metrics).unwrap();
        let m: serde::Value = serde_json::from_str(&metrics_text).unwrap();
        let serde::Value::Num(invocations) = get(get(&m, "counters"), "sched.invocations") else {
            panic!("sched.invocations missing");
        };
        assert!(*invocations > 0.0);
        let serde::Value::Num(observed) = get(
            get(get(&m, "histograms"), "invariant.observe_seconds"),
            "count",
        ) else {
            panic!("invariant.observe_seconds missing");
        };
        assert!(*observed > 0.0);

        // Event-queue health must be visible in the snapshot: compaction
        // count plus the final live/cancelled entry split (gauges), and
        // the per-resolve depth histogram with populated buckets.
        let serde::Value::Num(compactions) = get(get(&m, "counters"), "des.queue.compactions")
        else {
            panic!("des.queue.compactions missing");
        };
        assert!(*compactions >= 0.0);
        for gauge in ["des.queue.live_entries", "des.queue.cancelled_entries"] {
            let serde::Value::Num(v) = get(get(&m, "gauges"), gauge) else {
                panic!("{gauge} missing");
            };
            assert!(*v >= 0.0, "{gauge} negative");
        }
        let depth = get(get(&m, "histograms"), "des.queue.depth");
        let serde::Value::Num(depth_count) = get(depth, "count") else {
            panic!("des.queue.depth count missing");
        };
        assert!(*depth_count > 0.0, "queue depth never observed");
        let serde::Value::Seq(buckets) = get(depth, "buckets") else {
            panic!("des.queue.depth buckets missing");
        };
        assert!(!buckets.is_empty(), "queue depth buckets empty");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn progress_rejects_bad_intervals() {
        let dir = tmpdir();
        let p = dir.join("platform.json");
        let j = dir.join("jobs.json");
        cmd_platform(
            &Args::parse(["platform", "--nodes", "4", "--out", p.to_str().unwrap()]).unwrap(),
        )
        .unwrap();
        fs::write(&j, "[]").unwrap();
        for option in ["--progress", "--interval"] {
            for bad in ["0", "-3", "nan", "soon"] {
                let args = Args::parse([
                    "run",
                    "--platform",
                    p.to_str().unwrap(),
                    "--jobs",
                    j.to_str().unwrap(),
                    option,
                    bad,
                ])
                .unwrap();
                assert!(
                    matches!(cmd_run(&args), Err(CliError::Usage(_))),
                    "{option} {bad}"
                );
            }
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn scheduler_cmd_conflicts_and_spawn_failures_are_reported() {
        let dir = tmpdir();
        let p = dir.join("platform.json");
        let j = dir.join("jobs.json");
        cmd_platform(
            &Args::parse(["platform", "--nodes", "4", "--out", p.to_str().unwrap()]).unwrap(),
        )
        .unwrap();
        fs::write(&j, "[]").unwrap();
        let both = Args::parse([
            "run",
            "--platform",
            p.to_str().unwrap(),
            "--jobs",
            j.to_str().unwrap(),
            "--scheduler",
            "fcfs",
            "--scheduler-cmd",
            "whatever",
        ])
        .unwrap();
        assert!(matches!(cmd_run(&both), Err(CliError::Usage(_))));
        let missing = Args::parse([
            "run",
            "--platform",
            p.to_str().unwrap(),
            "--jobs",
            j.to_str().unwrap(),
            "--scheduler-cmd",
            "/nonexistent/sched-binary",
        ])
        .unwrap();
        match cmd_run(&missing) {
            Err(CliError::Data(msg)) => {
                assert!(msg.contains("spawning external scheduler"), "{msg}")
            }
            other => panic!("expected Data error, got {other:?}"),
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn run_dumps_postmortem_when_the_scheduler_dies_mid_run() {
        let dir = tmpdir();
        let p = dir.join("platform.json");
        let j = dir.join("jobs.json");
        let pm = dir.join("pm");
        let log = dir.join("log.jsonl");
        cmd_platform(
            &Args::parse(["platform", "--nodes", "4", "--out", p.to_str().unwrap()]).unwrap(),
        )
        .unwrap();
        cmd_generate(
            &Args::parse([
                "generate",
                "--nodes",
                "4",
                "--jobs",
                "3",
                "--out",
                j.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        // `false` spawns fine, then breaks the wire protocol at the first
        // invocation — a mid-run simulation error.
        let args = Args::parse([
            "run",
            "--platform",
            p.to_str().unwrap(),
            "--jobs",
            j.to_str().unwrap(),
            "--scheduler-cmd",
            "false",
            "--flight-recorder",
            pm.to_str().unwrap(),
            "--log-json",
            log.to_str().unwrap(),
        ])
        .unwrap();
        assert!(matches!(cmd_run(&args), Err(CliError::Data(_))));

        let dump = pm.join("postmortem-sim_error.json");
        let text = fs::read_to_string(&dump).expect("post-mortem written");
        let serde::Value::Map(mut doc) = serde_json::parse_value(&text).expect("valid JSON") else {
            panic!("dump not an object");
        };
        assert_eq!(
            serde::map_take(&mut doc, "postmortem"),
            Some(serde::Value::Str("pm1".into()))
        );
        assert_eq!(
            serde::map_take(&mut doc, "reason"),
            Some(serde::Value::Str("sim_error".into()))
        );
        assert!(matches!(
            serde::map_take(&mut doc, "events"),
            Some(serde::Value::Seq(_))
        ));
        assert!(matches!(
            serde::map_take(&mut doc, "metrics"),
            Some(serde::Value::Map(_))
        ));

        let log_text = fs::read_to_string(&log).unwrap();
        assert!(log_text.contains("\"event\":\"run_failed\""), "{log_text}");
        assert!(
            log_text.contains("\"event\":\"postmortem_written\""),
            "{log_text}"
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn run_generates_from_workload_config_with_seed_override() {
        let dir = tmpdir();
        let p = dir.join("platform.json");
        let w = dir.join("workload.json");
        cmd_platform(
            &Args::parse(["platform", "--nodes", "8", "--out", p.to_str().unwrap()]).unwrap(),
        )
        .unwrap();
        let cfg = WorkloadConfig::new(6).with_platform_nodes(8).with_seed(1);
        fs::write(&w, serde_json::to_string_pretty(&cfg).unwrap()).unwrap();
        let run = |seed: &[&str]| {
            let mut argv = vec![
                "run",
                "--platform",
                p.to_str().unwrap(),
                "--jobs",
                w.to_str().unwrap(),
                "--scheduler",
                "fcfs",
                "--check-invariants",
            ];
            argv.extend_from_slice(seed);
            cmd_run(&Args::parse(argv).unwrap()).unwrap()
        };
        let (report_a, summary_a) = run(&[]);
        assert!(summary_a.contains("workload seed    : 1"), "{summary_a}");
        assert!(summary_a.contains("invariants       : ok"), "{summary_a}");
        let (report_b, summary_b) = run(&["--seed", "99"]);
        assert!(summary_b.contains("workload seed    : 99"), "{summary_b}");
        // Different seeds must actually change the generated workload.
        assert_ne!(
            serde_json::to_string(&report_a.jobs).unwrap(),
            serde_json::to_string(&report_b.jobs).unwrap()
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn seed_is_rejected_for_static_workloads() {
        let dir = tmpdir();
        let p = dir.join("platform.json");
        let j = dir.join("jobs.json");
        cmd_platform(
            &Args::parse(["platform", "--nodes", "4", "--out", p.to_str().unwrap()]).unwrap(),
        )
        .unwrap();
        fs::write(&j, "[]").unwrap();
        let args = Args::parse([
            "run",
            "--platform",
            p.to_str().unwrap(),
            "--jobs",
            j.to_str().unwrap(),
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(matches!(cmd_run(&args), Err(CliError::Usage(_))));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn generate_validates_ranges() {
        assert!(
            cmd_generate(&Args::parse(["generate", "--nodes", "0", "--jobs", "5"]).unwrap())
                .is_err()
        );
        assert!(cmd_generate(
            &Args::parse([
                "generate",
                "--nodes",
                "4",
                "--jobs",
                "5",
                "--malleable",
                "2"
            ])
            .unwrap()
        )
        .is_err());
    }
}
