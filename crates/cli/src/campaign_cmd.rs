//! `elastisim sweep` (sharded fan-out over the conformance seed corpus)
//! and the campaign glue it shares with `elastisim replay`.

use std::fs;
use std::path::PathBuf;

use elastisim_campaign::{
    aggregate_by_scheduler, campaign_specs, CampaignEvent, CampaignResult, Executor, Observability,
    RunOutcome, RunRecord, RunSpec, SeedRange,
};
use elastisim_telemetry::{prom, MetricsSnapshot};

use crate::args::{Args, UsageError};
use crate::commands::CliError;

/// Builds the executor observability options shared by `sweep` and
/// `replay`: `--log-json PATH` opens a structured JSONL log (level
/// from `ELASTISIM_LOG_LEVEL`, default info; falling back to the
/// `ELASTISIM_LOG` env pair when the flag is absent), `--flight-recorder
/// DIR` arms the post-mortem ring buffer, and `collect_metrics` is set
/// by the caller when an output will consume per-run snapshots.
pub(crate) fn observability_from_args(
    args: &Args,
    collect_metrics: bool,
) -> Result<Observability, CliError> {
    let logger = crate::commands::logger_from_args(args)?;
    let recorder = args.get("flight-recorder").map(PathBuf::from);
    Ok(Observability {
        logger,
        collect_metrics,
        recorder,
    })
}

/// Writes the merged campaign snapshot to `--metrics-out` (pretty JSON)
/// and/or `--prom-out` (Prometheus text exposition).
pub(crate) fn write_campaign_metrics(
    args: &Args,
    snapshot: &MetricsSnapshot,
) -> Result<(), CliError> {
    if let Some(path) = args.get("metrics-out") {
        let json = serde_json::to_string_pretty(snapshot)
            .map_err(|e| CliError::Data(format!("serializing metrics: {e}")))?;
        fs::write(path, json + "\n").map_err(|e| CliError::Io(path.into(), e))?;
    }
    if let Some(path) = args.get("prom-out") {
        fs::write(path, prom::render(snapshot)).map_err(|e| CliError::Io(path.into(), e))?;
    }
    Ok(())
}

/// Parses `--seeds A..B` (half-open) or a single seed `N` (meaning
/// `N..N+1`).
pub fn parse_seed_range(s: &str) -> Result<SeedRange, UsageError> {
    let bad = || {
        UsageError(format!(
            "bad --seeds `{s}` (expected A..B or a single seed)"
        ))
    };
    if let Some((start, end)) = s.split_once("..") {
        let start: u64 = start.parse().map_err(|_| bad())?;
        let end: u64 = end.parse().map_err(|_| bad())?;
        if end <= start {
            return Err(UsageError(format!(
                "empty seed range `{s}` (end is exclusive)"
            )));
        }
        Ok(SeedRange { start, end })
    } else {
        let seed: u64 = s.parse().map_err(|_| bad())?;
        Ok(SeedRange {
            start: seed,
            end: seed + 1,
        })
    }
}

/// Parses `--workers N` (default 1), shared by `sweep` and `replay`.
pub(crate) fn parse_workers(args: &Args) -> Result<usize, UsageError> {
    let workers = args.int("workers", 1)? as usize;
    if workers == 0 {
        return Err(UsageError("--workers must be ≥ 1".into()));
    }
    Ok(workers)
}

/// Runs a campaign on `executor`; with `progress` set, prints one
/// `[i/N] label ok|FAILED` line to stderr per finished run. Returns the
/// result and the campaign's wall time in seconds.
pub(crate) fn run_with_progress(
    executor: &Executor,
    specs: Vec<RunSpec>,
    progress: bool,
) -> (CampaignResult, f64) {
    let total = specs.len();
    let start = std::time::Instant::now();
    let result = executor.run_campaign_with(specs, |event| {
        if !progress {
            return;
        }
        if let CampaignEvent::RunFinished(record) = event {
            eprintln!(
                "[{}/{total}] {} {}",
                record.id + 1,
                record.label,
                match record.error() {
                    None => "ok",
                    Some(_) => "FAILED",
                }
            );
        }
    });
    (result, start.elapsed().as_secs_f64())
}

/// Writes `--records PATH`, if given: one [`record_json`] line per run.
pub(crate) fn write_records(args: &Args, records: &[RunRecord]) -> Result<(), CliError> {
    if let Some(path) = args.get("records") {
        let mut lines = String::with_capacity(records.len() * 128);
        for record in records {
            lines.push_str(&record_json(record));
            lines.push('\n');
        }
        fs::write(path, lines).map_err(|e| CliError::Io(path.into(), e))?;
    }
    Ok(())
}

/// Passes `output` through when every run completed; otherwise returns a
/// data error listing the first five failures above `output`.
pub(crate) fn fail_on_errors(records: &[RunRecord], output: String) -> Result<String, CliError> {
    let failures: Vec<&RunRecord> = records.iter().filter(|r| r.error().is_some()).collect();
    if failures.is_empty() {
        return Ok(output);
    }
    let mut msg = format!("{}/{} runs failed:\n", failures.len(), records.len());
    for record in failures.iter().take(5) {
        msg.push_str(&format!(
            "  {}: {}\n",
            record.label,
            record.error().expect("filtered")
        ));
    }
    msg.push_str(&output);
    Err(CliError::Data(msg))
}

/// One JSONL record per run, written by `sweep --records` and
/// `replay --records`, with a fixed key order.
fn record_json(record: &RunRecord) -> String {
    use std::fmt::Write as _;
    let mut line = String::from("{");
    let _ = write!(
        line,
        "\"id\":{},\"label\":{},\"scheduler\":{},\"fingerprint\":\"{}\",\"cached\":{},\"ok\":{}",
        record.id,
        serde_json::to_string(&record.label).expect("string"),
        serde_json::to_string(&record.scheduler).expect("string"),
        record.scenario_fingerprint,
        record.cached,
        record.report().is_some(),
    );
    match &record.outcome {
        RunOutcome::Completed(run) => {
            let summary = run.report.summary();
            let _ = write!(
                line,
                ",\"makespan\":{},\"utilization\":{},\"mean_wait\":{},\"mean_bounded_slowdown\":{},\"report_digest\":\"{}\"",
                summary.makespan,
                summary.utilization,
                summary.mean_wait,
                summary.mean_bounded_slowdown,
                run.digest,
            );
        }
        RunOutcome::Failed(error) => {
            let _ = write!(
                line,
                ",\"error\":{}",
                serde_json::to_string(&error.to_string()).expect("string")
            );
        }
    }
    line.push('}');
    line
}

/// Renders the merged per-scheduler summary table.
fn render_table(records: &[RunRecord], workers: usize, wall_seconds: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>5} {:>6} {:>6} {:>12} {:>8} {:>10} {:>9}\n",
        "scheduler", "runs", "failed", "cached", "makespan", "util", "mean-wait", "bnd-slow"
    ));
    for aggregate in aggregate_by_scheduler(records) {
        out.push_str(&format!(
            "{:<14} {:>5} {:>6} {:>6} {:>12.1} {:>7.1}% {:>10.1} {:>9.2}\n",
            aggregate.scheduler,
            aggregate.completed + aggregate.failed,
            aggregate.failed,
            aggregate.cached,
            aggregate.mean_makespan,
            aggregate.mean_utilization * 100.0,
            aggregate.mean_wait,
            aggregate.mean_bounded_slowdown,
        ));
    }
    out.push_str(&format!(
        "{} runs on {} worker{} in {:.2} s\n",
        records.len(),
        workers,
        if workers == 1 { "" } else { "s" },
        wall_seconds,
    ));
    out
}

/// `elastisim sweep`: runs seeds × schedulers over the conformance
/// corpus on a worker pool and prints the merged summary table. Returns
/// an error if any run failed.
pub fn cmd_sweep(args: &Args) -> Result<String, CliError> {
    args.expect_only(&[
        "seeds",
        "schedulers",
        "workers",
        "records",
        "progress",
        "metrics-out",
        "prom-out",
        "log-json",
        "flight-recorder",
    ])?;
    let seeds = parse_seed_range(args.require("seeds")?)?;
    let schedulers: Vec<String> = args
        .get_or("schedulers", "elastic")
        .split(',')
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .collect();
    let workers = parse_workers(args)?;
    let progress = args.flag("progress")?;
    let specs = campaign_specs(seeds, &schedulers).map_err(UsageError)?;

    // Per-run metric collection only when an aggregate output will
    // consume it — the snapshots are wall-clock data, never fingerprinted.
    let collect = args.get("metrics-out").is_some() || args.get("prom-out").is_some();
    let obs = observability_from_args(args, collect)?;
    let executor = Executor::new(workers).with_observability(obs);
    let (result, wall_seconds) = run_with_progress(&executor, specs, progress);
    if collect {
        write_campaign_metrics(args, &result.merged_metrics())?;
    }
    let records = result.records;
    write_records(args, &records)?;

    let mut table = render_table(&records, workers, wall_seconds);
    let cache = executor.cache();
    table.push_str(&format!(
        "result cache: {} hit{}, {} miss{}, {} entr{}\n",
        cache.hits(),
        if cache.hits() == 1 { "" } else { "s" },
        cache.misses(),
        if cache.misses() == 1 { "" } else { "es" },
        cache.len(),
        if cache.len() == 1 { "y" } else { "ies" },
    ));
    fail_on_errors(&records, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_range_parsing() {
        assert_eq!(
            parse_seed_range("0..100").unwrap(),
            SeedRange { start: 0, end: 100 }
        );
        assert_eq!(
            parse_seed_range("7").unwrap(),
            SeedRange { start: 7, end: 8 }
        );
        assert!(parse_seed_range("5..5").is_err());
        assert!(parse_seed_range("9..2").is_err());
        assert!(parse_seed_range("a..b").is_err());
        assert!(parse_seed_range("..").is_err());
    }

    #[test]
    fn sweep_prints_table_and_writes_records() {
        let dir = std::env::temp_dir().join(format!("elastisim-sweep-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let records = dir.join("records.jsonl");
        let args = Args::parse([
            "sweep",
            "--seeds",
            "0..3",
            "--schedulers",
            "fcfs,easy",
            "--workers",
            "2",
            "--records",
            records.to_str().unwrap(),
        ])
        .unwrap();
        let table = cmd_sweep(&args).unwrap();
        assert!(table.contains("fcfs"), "{table}");
        assert!(table.contains("easy"), "{table}");
        assert!(table.contains("6 runs on 2 workers"), "{table}");
        let lines: Vec<String> = fs::read_to_string(&records)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        assert_eq!(lines.len(), 6);
        for line in &lines {
            let v: serde::Value = serde_json::from_str(line).expect("valid JSONL");
            let serde::Value::Map(mut m) = v else {
                panic!("record not an object")
            };
            assert!(m.iter().any(|(k, _)| k == "fingerprint"));
            assert!(m.iter().any(|(k, _)| k == "makespan"));
            match serde::map_take(&mut m, "report_digest") {
                Some(serde::Value::Str(d)) => assert!(d.starts_with("rdg1-") && d.len() == 37),
                other => panic!("report_digest: {other:?}"),
            }
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn sweep_writes_campaign_metrics_prom_and_log() {
        let dir = std::env::temp_dir().join(format!("elastisim-sweep-obs-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("metrics.json");
        let prom = dir.join("metrics.prom");
        let log = dir.join("log.jsonl");
        let args = Args::parse([
            "sweep",
            "--seeds",
            "0..2",
            "--schedulers",
            "fcfs",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--prom-out",
            prom.to_str().unwrap(),
            "--log-json",
            log.to_str().unwrap(),
        ])
        .unwrap();
        let table = cmd_sweep(&args).unwrap();
        assert!(table.contains("result cache:"), "{table}");

        // The merged snapshot carries both derived campaign series and
        // rolled-up per-run engine counters.
        let text = fs::read_to_string(&metrics).unwrap();
        let serde::Value::Map(doc) = serde_json::parse_value(&text).unwrap() else {
            panic!("metrics not an object");
        };
        let serde::Value::Map(counters) = &doc
            .iter()
            .find(|(k, _)| k == "counters")
            .expect("counters")
            .1
        else {
            panic!("counters not a map");
        };
        let count = |name: &str| -> f64 {
            match counters.iter().find(|(k, _)| k == name) {
                Some((_, serde::Value::Num(n))) => *n,
                other => panic!("{name}: {other:?}"),
            }
        };
        assert_eq!(count("campaign.runs"), 2.0);
        assert_eq!(count("campaign.completed"), 2.0);
        assert!(count("des.events_delivered") > 0.0);

        // The Prometheus exposition parses as TYPE + sample lines.
        let prom_text = fs::read_to_string(&prom).unwrap();
        assert!(
            prom_text.contains("# TYPE elastisim_campaign_runs counter"),
            "{prom_text}"
        );
        assert!(
            prom_text.contains("elastisim_campaign_run_wall_seconds_bucket"),
            "{prom_text}"
        );
        assert!(prom_text.contains("le=\"+Inf\""), "{prom_text}");

        // Structured log: every line is valid JSON carrying run context.
        let log_text = fs::read_to_string(&log).unwrap();
        assert!(
            log_text.contains("\"event\":\"run_finished\""),
            "{log_text}"
        );
        assert!(log_text.contains("\"run_id\":"), "{log_text}");
        assert!(log_text.contains("\"report_digest\":\"rdg1-"), "{log_text}");
        for line in log_text.lines() {
            serde_json::parse_value(line).expect("valid log JSONL");
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn sweep_rejects_bad_input() {
        for argv in [
            vec!["sweep", "--seeds", "0..0"],
            vec!["sweep", "--seeds", "0..2", "--schedulers", "warp"],
            vec!["sweep", "--seeds", "0..2", "--workers", "0"],
            vec!["sweep"],
        ] {
            assert!(cmd_sweep(&Args::parse(argv).unwrap()).is_err());
        }
    }

    #[test]
    fn removed_parallel_solver_flag_is_a_usage_error() {
        // `run` and `sweep` no longer take a flow-solver thread count; the
        // old flag must fail as an unknown option, not be ignored.
        let expect_unknown = |result: Result<(), CliError>| match result {
            Err(CliError::Usage(e)) => {
                assert!(e.0.contains("unknown option `--solver-threads`"), "{e}")
            }
            other => panic!("expected a usage error, got {other:?}"),
        };
        let run = Args::parse(["run", "--solver-threads", "2"]).unwrap();
        expect_unknown(crate::commands::cmd_run(&run).map(|_| ()));
        let sweep = Args::parse(["sweep", "--seeds", "0..2", "--solver-threads", "2"]).unwrap();
        expect_unknown(cmd_sweep(&sweep).map(|_| ()));
    }

    #[test]
    fn removed_serve_command_is_a_usage_error() {
        // The campaign daemon is gone: its command must fail as unknown
        // and no longer appear in the help text.
        let removed = "serve";
        match crate::commands::dispatch(&Args::parse([removed]).unwrap()) {
            Err(CliError::Usage(e)) => {
                assert!(e.0.contains(&format!("unknown command `{removed}`")), "{e}")
            }
            other => panic!("expected a usage error, got {other:?}"),
        }
        assert!(!crate::commands::HELP.contains(&format!("elastisim {removed}")));
    }

    #[test]
    fn sweep_matches_sequential_fingerprints() {
        // The CLI-level guarantee: any worker count, same records.
        let specs = || campaign_specs(SeedRange { start: 0, end: 4 }, &["fcfs".into()]).unwrap();
        let sequential: Vec<String> = Executor::new(1)
            .run(specs())
            .iter()
            .map(record_json)
            .collect();
        let sharded: Vec<String> = Executor::new(4)
            .run(specs())
            .iter()
            .map(record_json)
            .collect();
        assert_eq!(sequential, sharded);
    }
}
