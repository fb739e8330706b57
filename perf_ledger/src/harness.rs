//! The harness around the workloads.
//!
//! The parent process re-executes itself as a fresh child for every
//! repetition, so peak RSS (`VmHWM`) and allocator state are per
//! repetition. A child runs one repetition in-process and prints one JSON
//! line; the parent turns the repetitions of a workload into medians.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use serde::Value;

use crate::digest::digest_text;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::{Mode, Rep, Workload, PWA_EXCERPT, PWA_EXCERPT_DIGEST, PWA_EXCERPT_LEN};

/// Checks the benchmark's copy of the PWA excerpt against its recorded
/// length and digest.
pub fn check_fixture() -> Result<(), String> {
    let digest = digest_text(PWA_EXCERPT);
    if PWA_EXCERPT.len() != PWA_EXCERPT_LEN || digest != PWA_EXCERPT_DIGEST {
        return Err(format!(
            "data/pwa-excerpt.swf changed: {} bytes, digest {digest} (recorded: {PWA_EXCERPT_LEN} bytes, {PWA_EXCERPT_DIGEST})",
            PWA_EXCERPT.len()
        ));
    }
    Ok(())
}

impl Mode {
    /// The mode's name on the child's command line.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Verify => "verify",
            Mode::Traced => "traced",
        }
    }

    /// Parses [`as_str`](Self::as_str)'s output.
    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Timed, Mode::Verify, Mode::Traced]
            .into_iter()
            .find(|m| m.as_str() == s)
    }
}

/// Peak resident set size of this process, KiB (`VmHWM`).
fn peak_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0.0)
}

/// Directory for files the benchmark itself writes: next to the
/// executable, so inside the build directory of the checkout.
pub fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    let dir = exe.parent().expect("the executable has a directory");
    dir.join("perf_ledger-work")
}

/// What one repetition reported.
#[derive(Clone, Debug, Default)]
pub struct RepResult {
    /// Every value it measured, by metric name.
    pub values: BTreeMap<String, f64>,
    /// Its combined `sim_digest`.
    pub digest: String,
    /// Simulations attempted.
    pub attempted: u64,
    /// Simulations failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

/// Runs one repetition in this process (the child's job) and returns it
/// with its results; `trace_out` receives `trace-<workload>.json`.
pub fn run_rep(
    workload: &Workload,
    seed: u64,
    smoke: bool,
    mode: Mode,
    trace_out: Option<&Path>,
) -> Result<(Rep, RepResult), String> {
    // Unique per repetition: tests run several in one process.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let unique = format!("rep-{}-{}", std::process::id(), NEXT.fetch_add(1, Relaxed));
    let work_dir = scratch_dir().join(unique);
    let mut rep = Rep::new(seed, smoke, mode, work_dir);
    (workload.run)(&mut rep);
    rep.tracer.check_nested()?;
    if let (Mode::Traced, Some(dir)) = (mode, trace_out) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", workload.name));
        std::fs::write(&path, rep.tracer.to_json(workload.name))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let wall_s = rep.values["wall_s"];
    let mut values: BTreeMap<String, f64> = rep
        .values
        .iter()
        .map(|(k, v)| ((*k).to_owned(), *v))
        .collect();
    values.insert("jobs_per_s".into(), rep.jobs_finished as f64 / wall_s);
    values.insert("sims_per_s".into(), rep.sims.len() as f64 / wall_s);
    values.insert("peak_rss_mb".into(), peak_rss_kib() / 1024.0);
    values.insert("trace.wall_s".into(), wall_s);
    let errors: Vec<String> = rep.sims.iter().filter_map(|s| s.error.clone()).collect();
    let result = RepResult {
        values,
        digest: rep.digest(),
        attempted: rep.sims.len() as u64,
        failed: errors.len() as u64,
        errors: errors.into_iter().take(5).collect(),
    };
    Ok((rep, result))
}

impl RepResult {
    /// The child's one line of output.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"digest\":\"{}\",\"attempted\":{},\"failed\":{},\"errors\":[",
            self.digest, self.attempted, self.failed
        );
        for (i, e) in self.errors.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}{}", json_string(e));
        }
        out.push_str("],\"values\":{");
        for (i, (k, v)) in self.values.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{k}\":{}", json_number(*v));
        }
        out.push_str("}}");
        out
    }

    /// Parses [`to_json`](Self::to_json)'s output.
    pub fn from_json(line: &str) -> Result<RepResult, String> {
        let root = serde_json::parse_value(line).map_err(|e| e.to_string())?;
        let num = |v: &Value| match v {
            Value::Num(n) => Ok(*n),
            other => Err(format!("expected a number, found {other:?}")),
        };
        let values = match field(&root, "values")? {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), num(v)?)))
                .collect::<Result<_, String>>()?,
            other => return Err(format!("`values` is not an object: {other:?}")),
        };
        let errors = match field(&root, "errors")? {
            Value::Seq(items) => items
                .iter()
                .filter_map(|v| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        Ok(RepResult {
            values,
            digest: match field(&root, "digest")? {
                Value::Str(s) => s.clone(),
                other => return Err(format!("`digest` is not a string: {other:?}")),
            },
            attempted: num(field(&root, "attempted")?)? as u64,
            failed: num(field(&root, "failed")?)? as u64,
            errors,
        })
    }
}

/// The entry `key` of a JSON object.
pub fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    match value {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key `{key}`")),
        _ => Err(format!("expected an object holding `{key}`")),
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// `v` as a JSON number with all its digits (0 if not finite).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Runs one repetition in a fresh child process and waits for it. A
/// child that dies or prints no result fails every simulation of the
/// repetition.
fn spawn_rep(
    workload: &Workload,
    seed: u64,
    smoke: bool,
    mode: Mode,
    trace_out: Option<&Path>,
) -> RepResult {
    let exe = std::env::current_exe().expect("the executable has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload.name])
        .args(["--seed", &seed.to_string(), "--mode", mode.as_str()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    if let Some(dir) = trace_out {
        cmd.arg("--trace-out").arg(dir);
    }
    let parsed = cmd
        .output()
        .map_err(|e| format!("spawning the child: {e}"))
        .and_then(|out| {
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("");
            if !out.status.success() {
                return Err(format!("child exited with {}", out.status));
            }
            RepResult::from_json(line)
        });
    parsed.unwrap_or_else(|e| {
        let attempted = if smoke {
            workload.sims.1
        } else {
            workload.sims.0
        };
        RepResult {
            attempted,
            failed: attempted,
            errors: vec![format!(
                "{} {} repetition: {e}",
                workload.name,
                mode.as_str()
            )],
            ..RepResult::default()
        }
    })
}

/// Which repetitions to run for one workload.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Start with a verification repetition (`InvariantChecker` attached
    /// on single-run workloads; timings discarded).
    pub verify: bool,
    /// Repetitions with tracing off to run at least.
    pub timed_reps: usize,
    /// Traced repetitions to run at least.
    pub traced_reps: usize,
    /// Keep adding repetitions (of the kinds asked for) until this many
    /// seconds have passed.
    pub seconds: Option<f64>,
}

/// Median, extremes and count of one metric over the repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    /// Median.
    pub median: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Number of repetitions.
    pub n: usize,
}

impl Stat {
    fn of(mut xs: Vec<f64>) -> Stat {
        if xs.is_empty() {
            return Stat {
                median: 0.0,
                min: 0.0,
                max: 0.0,
                n: 0,
            };
        }
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        Stat {
            median: (xs[(n - 1) / 2] + xs[n / 2]) / 2.0,
            min: xs[0],
            max: xs[n - 1],
            n,
        }
    }
}

/// Everything measured for one workload.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// The workload's name.
    pub workload: &'static str,
    /// Simulations attempted over all repetitions.
    pub attempted: u64,
    /// Simulations failed over all repetitions. A `sim_digest` that
    /// differs between repetitions fails them all.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// The repetitions' common `sim_digest`.
    pub sim_digest: String,
    /// End-to-end metrics over the untraced repetitions, in table order.
    pub end_to_end: Vec<(&'static str, Stat)>,
    /// Per-layer metrics over the traced repetitions, in table order
    /// (empty if none ran).
    pub per_layer: Vec<(&'static str, Stat)>,
}

/// Runs `plan` for one workload, one child process per repetition.
pub fn measure(
    workload: &'static Workload,
    seed: u64,
    smoke: bool,
    plan: Plan,
    trace_out: Option<&Path>,
) -> Measurement {
    const MAX_REPS: usize = 200;
    let clock = Instant::now();
    let rep = |mode| spawn_rep(workload, seed, smoke, mode, trace_out);
    let mut all: Vec<RepResult> = Vec::new();
    if plan.verify {
        all.push(rep(Mode::Verify));
    }
    let (mut timed, mut traced) = (Vec::new(), Vec::new());
    loop {
        let more_time = plan
            .seconds
            .is_some_and(|s| clock.elapsed().as_secs_f64() < s && timed.len() < MAX_REPS);
        let need_timed = timed.len() < plan.timed_reps;
        let need_traced = traced.len() < plan.traced_reps;
        if !(need_timed || need_traced || more_time) {
            break;
        }
        if need_timed || (more_time && plan.timed_reps > 0) {
            timed.push(rep(Mode::Timed));
        }
        if need_traced || (more_time && plan.traced_reps > 0) {
            traced.push(rep(Mode::Traced));
        }
    }

    let stat = |reps: &[RepResult], name: &str| {
        Stat::of(
            reps.iter()
                .filter_map(|r| r.values.get(name).copied())
                .collect(),
        )
    };
    let end_to_end = END_TO_END
        .iter()
        .map(|m| (m.name, stat(&timed, m.name)))
        .collect();
    let untraced_wall = stat(&timed, "wall_s").median;
    let per_layer = if traced.is_empty() {
        Vec::new()
    } else {
        PER_LAYER
            .iter()
            .map(|m| {
                let mut s = stat(&traced, m.name);
                if m.name == "trace.overhead_share" && untraced_wall > 0.0 {
                    let traced_wall = stat(&traced, "wall_s").median;
                    let share = (traced_wall - untraced_wall) / untraced_wall;
                    s = Stat::of(vec![share]);
                }
                if s.n == 0 {
                    // Not exercised by this workload.
                    s = Stat::of(vec![0.0]);
                }
                (m.name, s)
            })
            .collect()
    };

    all.extend(timed);
    all.extend(traced);
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = all.iter().map(|r| r.failed).sum();
    let mut errors: Vec<String> = all.iter().flat_map(|r| r.errors.clone()).collect();
    let sim_digest = all.first().map(|r| r.digest.clone()).unwrap_or_default();
    if all.iter().any(|r| r.digest != sim_digest) {
        failed = attempted;
        errors.insert(0, "sim_digest differs between repetitions".into());
    }
    errors.truncate(5);
    Measurement {
        workload: workload.name,
        attempted,
        failed,
        errors,
        sim_digest,
        end_to_end,
        per_layer,
    }
}

/// Unit and direction of a metric from either table.
fn unit_and_direction(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find(|(n, _, _)| *n == name)
        .map_or(("", ""), |(_, unit, better)| (unit, better))
}

impl Measurement {
    /// Whether every simulation of every repetition succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Every metric by name with value, unit and direction, one per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}: {} simulations attempted, {} failed, sim_digest {}\n",
            self.workload, self.attempted, self.failed, self.sim_digest
        );
        for e in &self.errors {
            let _ = writeln!(out, "  FAILED: {e}");
        }
        for (name, s) in self.end_to_end.iter().chain(&self.per_layer) {
            if s.n == 0 {
                continue;
            }
            let (unit, better) = unit_and_direction(name);
            let _ = write!(
                out,
                "  {name:<32} {:>16.6} {unit:<7} ({better} is better)",
                s.median
            );
            if s.n > 1 {
                let _ = write!(
                    out,
                    "  median of {}, min {:.6}, max {:.6}",
                    s.n, s.min, s.max
                );
            }
            out.push('\n');
        }
        out
    }

    /// The result object of the benchmark contract:
    /// `{"correct", "attempted", "failed", "metrics"}` over `metrics`.
    pub fn result_json(&self, metrics: &[(&'static str, Stat)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, s)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(s.median),
                unit_and_direction(name).0
            );
        }
        out.push_str("}}");
        out
    }

    /// The workload's entry in the results file: the contract's result
    /// object over all metrics, plus the digest and each metric's spread.
    pub fn entry_json(&self) -> String {
        let all: Vec<(&'static str, Stat)> = self
            .end_to_end
            .iter()
            .chain(&self.per_layer)
            .copied()
            .collect();
        let mut out = self.result_json(&all);
        out.pop();
        let _ = write!(
            out,
            ", \"sim_digest\": \"{}\", \"spread\": {{",
            self.sim_digest
        );
        for (i, (name, s)) in self.end_to_end.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"min\": {}, \"max\": {}, \"n\": {}}}",
                json_number(s.min),
                json_number(s.max),
                s.n
            );
        }
        out.push_str("}}");
        out
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and build the numbers were taken on, as a JSON object.
pub fn machine_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"threads\": {}, \"rustc\": {}, \"profile\": \"{}\", \"git_commit\": {}}}",
        nproc.min(2),
        json_string(&command_line("rustc", &["--version"])),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        json_string(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

/// The results file: seed, machine and one entry per workload.
pub fn results_json(seed: u64, smoke: bool, measurements: &[Measurement]) -> String {
    let mut out = format!(
        "{{\n\"seed\": {seed},\n\"smoke\": {smoke},\n\"machine\": {},\n\"workloads\": {{\n",
        machine_json()
    );
    for (i, m) in measurements.iter().enumerate() {
        let sep = if i + 1 < measurements.len() { "," } else { "" };
        let _ = writeln!(out, "\"{}\": {}{sep}", m.workload, m.entry_json());
    }
    out.push_str("}\n}\n");
    out
}
