//! Drift guard for `cli_json_300`: the benchmark's split path
//! (`from_json` -> `load_jobs` -> `Simulation::new` -> `run` -> CSV/JSON)
//! must stay what `elastisim run` does on the same files.

use elastisim_cli::commands::cmd_run;
use elastisim_cli::Args;
use perf_ledger::digest::sim_digest;
use perf_ledger::harness::scratch_dir;
use perf_ledger::workloads::{run_cli_split, write_cli_inputs, Mode, Rep};

#[test]
fn split_path_matches_cmd_run() {
    let dir = scratch_dir().join(format!("drift-{}", std::process::id()));
    let mut rep = Rep::new(3, true, Mode::Timed, dir.clone());
    let (files, submitted) = write_cli_inputs(&rep);
    let root = rep.tracer.begin("wall");
    let (report, summary) = run_cli_split(&mut rep, &files, submitted);
    rep.tracer.end(root);

    let cli_out = dir.join("cli-out");
    let text = |p: &std::path::Path| p.to_str().expect("utf-8 path").to_owned();
    let args = Args::parse([
        "run".to_owned(),
        "--platform".into(),
        text(&files.platform),
        "--jobs".into(),
        text(&files.jobs),
        "--scheduler".into(),
        "easy".into(),
        "--out".into(),
        text(&cli_out),
    ])
    .expect("arguments parse");
    let (cli_report, cli_summary) = cmd_run(&args).expect("`elastisim run` succeeds");

    assert_eq!(sim_digest(&report), sim_digest(&cli_report));
    assert_eq!(summary, cli_summary);
    for name in ["jobs.csv", "utilization.csv", "gantt.csv", "summary.txt"] {
        let ours = std::fs::read(files.out.join(name)).expect("the benchmark wrote it");
        let theirs = std::fs::read(cli_out.join(name)).expect("the CLI wrote it");
        assert_eq!(ours, theirs, "{name} differs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
