//! Golden test for the Chrome trace-event exporter.
//!
//! One small deterministic scenario — a rigid job next to a malleable job
//! the elastic scheduler resizes — is rendered to trace JSON and compared
//! byte-for-byte against `tests/golden/chrome_trace.json`. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p elastisim --test chrome_trace`.

use std::io::Write;
use std::sync::{Arc, Mutex};

use elastisim::{ChromeTraceWriter, ReconfigCost, SimConfig, Simulation};
use elastisim_platform::{NodeSpec, PlatformSpec};
use elastisim_sched::ElasticScheduler;
use elastisim_telemetry::Telemetry;
use elastisim_workload::{ApplicationModel, JobSpec, PerfExpr, Phase, Task};

const NODE_FLOPS: f64 = 2.0e12;

/// A byte sink that stays readable after the writer is dropped.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Local copy of the simtest golden helper (core cannot depend on simtest).
fn assert_matches_golden(path: &std::path::Path, actual: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden path has a parent"))
            .expect("creating golden directory");
        std::fs::write(path, actual).expect("writing golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "trace diverges from golden snapshot {} (run with UPDATE_GOLDEN=1 to regenerate)",
        path.display()
    );
}

/// Runs the golden scenario with `writer` attached, built around the
/// timeline-keeping telemetry handle it is given.
fn run_scenario(writer: impl FnOnce(Telemetry) -> ChromeTraceWriter) {
    let platform = PlatformSpec::homogeneous("golden", 4, NodeSpec::default());
    // job0 holds two nodes for 100 s; job1 is malleable, so the elastic
    // scheduler grows it onto the freed nodes — the trace must show the
    // resize as slice boundaries and a scheduler instant.
    let rigid_app = ApplicationModel::new(vec![Phase::once(
        "work",
        vec![Task::compute("c", PerfExpr::constant(100.0 * NODE_FLOPS))],
    )]);
    let malleable_app = ApplicationModel::new(vec![Phase::repeated(
        "solve",
        6,
        vec![Task::compute(
            "c",
            PerfExpr::parse(&format!("{:e} / num_nodes", 120.0 * NODE_FLOPS)).unwrap(),
        )],
    )]);
    let jobs = vec![
        JobSpec::rigid(0, 0.0, 2, rigid_app),
        JobSpec::malleable(1, 0.0, 1, 4, malleable_app),
    ];
    let cfg = SimConfig::default()
        .with_interval(30.0)
        .with_reconfig_cost(ReconfigCost::Fixed(2.0));

    let telemetry = Telemetry::with_timeline(true);
    let mut sim = Simulation::new(&platform, jobs, Box::new(ElasticScheduler::new()), cfg).unwrap();
    sim.set_telemetry(telemetry.clone());
    sim.add_observer(Box::new(writer(telemetry)));
    let report = sim.try_run().unwrap();
    assert_eq!(report.summary().completed, 2);
}

fn scenario_trace() -> String {
    let sink = SharedSink::default();
    run_scenario(|telemetry| ChromeTraceWriter::new(sink.clone(), telemetry));
    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    text
}

#[test]
fn chrome_trace_matches_golden() {
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chrome_trace.json");
    assert_matches_golden(&golden, &scenario_trace());
}

#[test]
fn chrome_trace_is_deterministic() {
    assert_eq!(scenario_trace(), scenario_trace());
}

/// A file-backed writer leaves exactly the stream-sink rendering on disk.
#[test]
fn created_path_trace_equals_streamed_trace() {
    let path = std::env::temp_dir().join(format!(
        "elastisim-chrome-create-{}.json",
        std::process::id()
    ));
    run_scenario(|telemetry| ChromeTraceWriter::create(&path, telemetry).unwrap());
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(text, scenario_trace());
}

#[test]
fn chrome_trace_has_all_three_tracks() {
    let trace = scenario_trace();
    for needle in [
        r#""cluster""#,
        r#""scheduler""#,
        r#""simulator""#,
        r#""allocated_nodes""#,
        "reconfigure job1",
        "flow.resolve",
        r#""ph": "X""#,
    ] {
        assert!(trace.contains(needle), "missing {needle}");
    }
}
