//! `elastisim replay`: real-trace replay with malleability injection.
//!
//! Streams an SWF trace through the lenient converter, rewrites a seeded
//! fraction of jobs as moldable/malleable, fans the result over the
//! scheduler registry as cache-keyed campaign runs, and prints the
//! comparison table. The whole pipeline is deterministic: the combined
//! report fingerprint is identical across repeated runs and across any
//! `--workers` count, and `--malleable-frac 0` reproduces the plain
//! rigid conversion byte-for-byte.

use std::fs;
use std::io::BufReader;
use std::path::Path;

use elastisim_campaign::replay::{combined_fingerprint, render_markdown, render_table};
use elastisim_campaign::{Executor, ReplayCampaign, ReplaySpec};
use elastisim_telemetry::Telemetry;
use elastisim_workload::{InjectionConfig, ScalingModel, SkipReason};

use crate::args::{Args, UsageError};
use crate::campaign_cmd::{
    fail_on_errors, observability_from_args, parse_workers, run_with_progress,
    write_campaign_metrics, write_records,
};
use crate::commands::CliError;

/// `elastisim replay`: convert + inject + 5-scheduler comparison.
pub fn cmd_replay(args: &Args) -> Result<String, CliError> {
    args.expect_only(&[
        "swf",
        "malleable-frac",
        "moldable-frac",
        "seed",
        "scaling-model",
        "schedulers",
        "nodes",
        "procs-per-node",
        "interval",
        "workers",
        "convert-only",
        "records",
        "report-out",
        "check",
        "markdown",
        "metrics-out",
        "prom-out",
        "log-json",
        "flight-recorder",
        "progress",
    ])?;
    let path = args.require("swf")?;
    let injection = InjectionConfig {
        seed: args.int("seed", 42)?,
        malleable_frac: args.num("malleable-frac", 0.0)?,
        moldable_frac: args.num("moldable-frac", 0.0)?,
        scaling: ScalingModel::parse(args.get_or("scaling-model", "linear"))
            .map_err(|e| UsageError(e.to_string()))?,
        platform_nodes: match args.get("nodes") {
            None => None,
            Some(_) => Some(args.int("nodes", 0)? as u32),
        },
    };
    injection
        .validate()
        .map_err(|e| UsageError(e.to_string()))?;
    let trace_name = Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_owned());
    let mut spec = ReplaySpec::new(trace_name, injection);
    if let Some(list) = args.get("schedulers") {
        spec.schedulers = list
            .split(',')
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .collect();
        if spec.schedulers.is_empty() {
            return Err(UsageError("--schedulers lists no schedulers".into()).into());
        }
    }
    let procs_per_node = args.int("procs-per-node", 1)?;
    if procs_per_node == 0 {
        return Err(UsageError("--procs-per-node must be ≥ 1".into()).into());
    }
    spec.procs_per_node = procs_per_node as u32;
    spec.config = spec.config.with_interval(args.positive("interval", 60.0)?);
    let workers = parse_workers(args)?;

    // One streaming pass over the trace file: parse, classify, convert.
    let file = fs::File::open(path).map_err(|e| CliError::Io(path.into(), e))?;
    let campaign = spec
        .convert(BufReader::new(file))
        .map_err(|e| CliError::Data(format!("{path}: {e}")))?;

    // Conversion counters always enter the metrics outputs; when the
    // campaign actually runs, per-run snapshots are merged in below.
    let collect = args.get("metrics-out").is_some() || args.get("prom-out").is_some();
    let conversion_metrics = collect.then(|| {
        let telemetry = Telemetry::enabled();
        record_replay_counters(&telemetry, &campaign);
        telemetry.snapshot()
    });

    if args.flag("convert-only")? {
        if let Some(snapshot) = &conversion_metrics {
            write_campaign_metrics(args, snapshot)?;
        }
        let mut out = convert_summary(&campaign);
        out.push_str(&format!(
            "campaign fingerprint: {}\n",
            campaign.fingerprint()
        ));
        return Ok(out);
    }

    // Every structured log record of this replay carries the rfp1-
    // fingerprint, correlating run-level records back to the experiment.
    let mut obs = observability_from_args(args, collect)?;
    obs.logger = obs
        .logger
        .with("replay_fingerprint", campaign.fingerprint().as_str());

    let progress = args.flag("progress")?;
    let executor = Executor::new(workers).with_observability(obs);
    let (result, wall_seconds) = run_with_progress(&executor, campaign.run_specs(), progress);
    if let Some(mut snapshot) = conversion_metrics {
        snapshot.merge(&result.merged_metrics());
        write_campaign_metrics(args, &snapshot)?;
    }
    let records = result.records;
    write_records(args, &records)?;

    let mut report = render_table(&campaign, &records);
    if args.flag("markdown")? {
        report.push('\n');
        report.push_str(&render_markdown(&records));
    }
    report.push_str(&format!(
        "campaign fingerprint: {}\nreplay fingerprint: {}\n",
        campaign.fingerprint(),
        combined_fingerprint(&records),
    ));
    if let Some(out_path) = args.get("report-out") {
        fs::write(out_path, &report).map_err(|e| CliError::Io(out_path.into(), e))?;
    }
    report.push_str(&format!(
        "{} runs on {} worker{} in {:.2} s\n",
        records.len(),
        workers,
        if workers == 1 { "" } else { "s" },
        wall_seconds,
    ));

    if let Some(golden_path) = args.get("check") {
        check_against_golden(golden_path, &report)?;
        report.push_str(&format!("golden check: ok ({golden_path})\n"));
    }
    fail_on_errors(&records, report)
}

/// The conversion-only summary: counts, skip reasons, platform sizing.
fn convert_summary(campaign: &ReplayCampaign) -> String {
    let stats = &campaign.stats;
    let mut out = format!(
        "parsed {} jobs ({} rigid, {} malleable, {} moldable), skipped {}, platform {} nodes\n",
        stats.parsed,
        stats.rigid,
        stats.injected_malleable,
        stats.injected_moldable,
        stats.skipped.total(),
        campaign.platform.num_nodes(),
    );
    for line in stats.skipped.render_lines() {
        out.push_str(&format!("  skipped {line}\n"));
    }
    if stats.runtime_substituted > 0 {
        out.push_str(&format!(
            "  {} missing runtimes substituted by requested time\n",
            stats.runtime_substituted
        ));
    }
    if stats.dropped_dependencies > 0 {
        out.push_str(&format!(
            "  {} dependencies on skipped jobs dropped\n",
            stats.dropped_dependencies
        ));
    }
    out
}

/// Surfaces the conversion counters as `replay.*` telemetry, the names
/// the acceptance criteria pin (`replay.parsed`, `replay.skipped`,
/// `replay.injected`) plus a per-reason and per-class breakdown.
fn record_replay_counters(telemetry: &Telemetry, campaign: &ReplayCampaign) {
    let stats = &campaign.stats;
    telemetry.counter_add("replay.parsed", stats.parsed);
    telemetry.counter_add("replay.skipped", stats.skipped.total());
    telemetry.counter_add("replay.injected", stats.injected());
    telemetry.counter_add("replay.injected.malleable", stats.injected_malleable);
    telemetry.counter_add("replay.injected.moldable", stats.injected_moldable);
    telemetry.counter_add("replay.rigid", stats.rigid);
    telemetry.counter_add("replay.runtime_substituted", stats.runtime_substituted);
    telemetry.counter_add("replay.dropped_dependencies", stats.dropped_dependencies);
    for reason in SkipReason::ALL {
        let count = stats.skipped.count(reason);
        if count > 0 {
            let name = match reason {
                SkipReason::Malformed => "replay.skipped.malformed",
                SkipReason::MissingProcessors => "replay.skipped.missing_processors",
                SkipReason::MissingRuntime => "replay.skipped.missing_runtime",
                SkipReason::CancelledBeforeStart => "replay.skipped.cancelled_before_start",
            };
            telemetry.counter_add(name, count);
        }
    }
}

/// Compares the deterministic prefix of the replay report (everything
/// before the wall-clock line) against a committed golden file.
fn check_against_golden(golden_path: &str, report: &str) -> Result<(), CliError> {
    let expected =
        fs::read_to_string(golden_path).map_err(|e| CliError::Io(golden_path.into(), e))?;
    // `report` at this point ends with the nondeterministic timing line;
    // compare everything up to and including the fingerprints.
    let deterministic: String = report
        .lines()
        .filter(|l| !l.contains(" runs on ") && !l.starts_with("golden check:"))
        .map(|l| format!("{l}\n"))
        .collect();
    if deterministic.trim_end() != expected.trim_end() {
        return Err(CliError::Data(format!(
            "replay output differs from golden {golden_path}\n--- expected ---\n{expected}\n--- actual ---\n{deterministic}",
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> std::path::PathBuf {
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../workload/tests/fixtures/pwa-excerpt.swf")
    }

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "elastisim-replay-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn replay(extra: &[&str]) -> Result<String, CliError> {
        let fixture = fixture();
        let mut argv = vec!["replay", "--swf", fixture.to_str().unwrap()];
        argv.extend_from_slice(extra);
        cmd_replay(&Args::parse(argv).unwrap())
    }

    #[test]
    fn convert_only_reports_counts_and_fingerprint() {
        let out = replay(&["--convert-only", "--malleable-frac", "0.3", "--seed", "42"]).unwrap();
        assert!(out.contains("parsed 494 jobs"), "{out}");
        assert!(out.contains("skipped 18"), "{out}");
        assert!(out.contains("campaign fingerprint: rfp1-"), "{out}");
        assert!(out.contains("cancelled_before_start"), "{out}");
    }

    #[test]
    fn metrics_out_carries_replay_counters() {
        let dir = tmpdir();
        let metrics = dir.join("metrics.json");
        replay(&[
            "--convert-only",
            "--malleable-frac",
            "0.3",
            "--seed",
            "42",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        let text = fs::read_to_string(&metrics).unwrap();
        let v: serde::Value = serde_json::from_str(&text).unwrap();
        let serde::Value::Map(doc) = v else {
            panic!("not a map")
        };
        let counters = &doc.iter().find(|(k, _)| k == "counters").unwrap().1;
        let count = |name: &str| -> f64 {
            let serde::Value::Map(m) = counters else {
                panic!("counters not a map")
            };
            match m.iter().find(|(k, _)| k == name) {
                Some((_, serde::Value::Num(n))) => *n,
                other => panic!("{name}: {other:?}"),
            }
        };
        assert_eq!(count("replay.parsed"), 494.0);
        assert_eq!(count("replay.skipped"), 18.0);
        assert!(count("replay.injected") > 0.0);
        assert_eq!(
            count("replay.rigid") + count("replay.injected"),
            count("replay.parsed")
        );
        assert_eq!(
            count("replay.skipped.cancelled_before_start")
                + count("replay.skipped.missing_runtime")
                + count("replay.skipped.missing_processors"),
            18.0
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn full_replay_metrics_merge_campaign_series_and_log_carries_fingerprint() {
        let dir = tmpdir();
        let metrics = dir.join("metrics.json");
        let log = dir.join("log.jsonl");
        replay(&[
            "--schedulers",
            "fcfs",
            "--malleable-frac",
            "0.3",
            "--seed",
            "42",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--log-json",
            log.to_str().unwrap(),
        ])
        .unwrap();
        let text = fs::read_to_string(&metrics).unwrap();
        let serde::Value::Map(doc) = serde_json::from_str::<serde::Value>(&text).unwrap() else {
            panic!("not a map");
        };
        let serde::Value::Map(counters) = &doc.iter().find(|(k, _)| k == "counters").unwrap().1
        else {
            panic!("counters not a map");
        };
        let count = |name: &str| -> f64 {
            match counters.iter().find(|(k, _)| k == name) {
                Some((_, serde::Value::Num(n))) => *n,
                other => panic!("{name}: {other:?}"),
            }
        };
        // Conversion counters and campaign aggregation in one snapshot.
        assert_eq!(count("replay.parsed"), 494.0);
        assert_eq!(count("campaign.runs"), 1.0);
        assert_eq!(count("campaign.completed"), 1.0);
        assert!(count("des.events_delivered") > 0.0);

        // Every record carries the replay fingerprint for correlation.
        let log_text = fs::read_to_string(&log).unwrap();
        assert!(
            log_text.contains("\"event\":\"run_finished\""),
            "{log_text}"
        );
        assert!(
            log_text.contains("\"replay_fingerprint\":\"rfp1-"),
            "{log_text}"
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn replay_is_deterministic_across_runs_and_workers() {
        let fingerprint = |extra: &[&str]| {
            let mut argv = vec![
                "--schedulers",
                "fcfs,elastic",
                "--malleable-frac",
                "0.3",
                "--seed",
                "42",
            ];
            argv.extend_from_slice(extra);
            let out = replay(&argv).unwrap();
            out.lines()
                .find(|l| l.starts_with("replay fingerprint:"))
                .expect("fingerprint line")
                .to_owned()
        };
        let one = fingerprint(&["--workers", "1"]);
        assert_eq!(one, fingerprint(&["--workers", "2"]));
        assert_eq!(one, fingerprint(&["--workers", "8"]));
    }

    #[test]
    fn committed_golden_matches() {
        // The scenario (`rfp1-`) and result (`rep1-`) fingerprints of the
        // committed PWA-excerpt snapshot: any drift in conversion,
        // injection, scheduling or fingerprinting fails here.
        let golden = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden/replay-excerpt-frac03.txt");
        let out = replay(&[
            "--malleable-frac",
            "0.3",
            "--seed",
            "42",
            "--workers",
            "2",
            "--check",
            golden.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("golden check: ok"), "{out}");
    }

    #[test]
    fn report_out_then_check_roundtrips_and_detects_drift() {
        let dir = tmpdir();
        let golden = dir.join("golden.txt");
        let base = [
            "--schedulers",
            "fcfs",
            "--malleable-frac",
            "0.3",
            "--seed",
            "42",
        ];
        let mut write_args = base.to_vec();
        write_args.extend_from_slice(&["--report-out", golden.to_str().unwrap()]);
        replay(&write_args).unwrap();

        let mut check_args = base.to_vec();
        check_args.extend_from_slice(&["--check", golden.to_str().unwrap()]);
        let out = replay(&check_args).unwrap();
        assert!(out.contains("golden check: ok"), "{out}");

        // A different seed must fail the check.
        let drift = [
            "--schedulers",
            "fcfs",
            "--malleable-frac",
            "0.3",
            "--seed",
            "43",
            "--check",
            golden.to_str().unwrap(),
        ];
        let err = replay(&drift).unwrap_err();
        match err {
            CliError::Data(msg) => assert!(msg.contains("differs from golden"), "{msg}"),
            other => panic!("expected Data error, got {other:?}"),
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for extra in [
            &["--malleable-frac", "1.5"][..],
            &["--malleable-frac", "0.6", "--moldable-frac", "0.6"][..],
            &["--scaling-model", "cubic"][..],
            &["--workers", "0"][..],
            &["--procs-per-node", "0"][..],
            &["--schedulers", " , "][..],
            &["--interval", "0"][..],
            &["--interval", "-5"][..],
            &["--interval", "nan"][..],
        ] {
            assert!(
                matches!(replay(extra), Err(CliError::Usage(_))),
                "{extra:?}"
            );
        }
        assert!(matches!(
            cmd_replay(&Args::parse(["replay"]).unwrap()),
            Err(CliError::Usage(_))
        ));
    }
}
