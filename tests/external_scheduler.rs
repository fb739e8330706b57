//! External-scheduler integration tests.
//!
//! Spawns the `external_fcfs` helper binary (built from `src/bin/`) as a
//! real child process speaking the JSON-lines wire protocol, and asserts
//! that the resulting report is byte-identical to the same registry
//! scheduler run in process — on a fixed workload and on randomized
//! conformance scenarios, for every registry scheduler. The Python example
//! scheduler is held to the same bar against `fcfs`. The helper's
//! failure-injection modes exercise the structured errors: version
//! mismatch, child crash, an unresponsive scheduler, and a response line
//! past the size cap.

use std::time::Duration;

use elastisim::{
    gantt_csv, jobs_csv, utilization_csv, InvariantChecker, Report, SimConfig, Simulation,
};
use elastisim_platform::{NodeSpec, PlatformSpec};
use elastisim_sched::{ExternalProcess, FcfsScheduler, SCHEDULER_NAMES};
use elastisim_workload::{ArrivalProcess, JobSpec, SizeDistribution, WorkloadConfig};
use simtest::{scenario::run_checked, Scenario};

const EXTERNAL_FCFS: &str = env!("CARGO_BIN_EXE_external_fcfs");
const PYTHON_EXAMPLE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/examples/external_scheduler.py"
);

/// The `--hang` test's timeout, milliseconds. Kept short locally so the
/// suite is fast, but configurable for loaded CI machines where a slow
/// fork/exec could masquerade as responsiveness within a tight window.
fn hang_timeout() -> Duration {
    let ms = std::env::var("ELASTISIM_TEST_HANG_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    Duration::from_millis(ms)
}

fn workload() -> Vec<JobSpec> {
    WorkloadConfig::new(25)
        .with_platform_nodes(16)
        .with_malleable_fraction(0.4)
        .with_sizes(SizeDistribution::Uniform { min: 1, max: 12 })
        .with_arrival(ArrivalProcess::Poisson {
            mean_interarrival: 200.0,
        })
        .with_seed(11)
        .generate()
}

fn platform() -> PlatformSpec {
    PlatformSpec::homogeneous("ext", 16, NodeSpec::default())
}

fn run_in_process() -> Report {
    Simulation::new(
        &platform(),
        workload(),
        Box::new(FcfsScheduler::new()),
        SimConfig::default(),
    )
    .unwrap()
    .run()
}

fn run_external(mode: Option<&str>, timeout: Duration) -> Result<Report, elastisim::SimError> {
    let mut cmd = vec![EXTERNAL_FCFS.to_string()];
    if let Some(m) = mode {
        cmd.push(m.to_string());
    }
    let process = ExternalProcess::spawn(&cmd, timeout).expect("spawning helper binary");
    Simulation::with_external(&platform(), workload(), process, SimConfig::default())
        .unwrap()
        .try_run()
}

/// Runs `scenario` with the scheduler process `cmd`, invariant-checked.
fn run_scenario_external(cmd: &[String], scenario: &Scenario) -> Report {
    let (platform, jobs) = (scenario.platform(), scenario.jobs());
    let checker = InvariantChecker::new(&jobs, platform.nodes.len());
    let process = ExternalProcess::spawn(cmd, Duration::from_secs(30)).expect("spawning scheduler");
    let mut sim = Simulation::with_external(&platform, jobs, process, scenario.config())
        .expect("valid scenario");
    sim.add_observer(checker.observer());
    let report = sim.try_run().expect("external run");
    let violations = checker.check_report(&report);
    assert!(
        violations.is_empty(),
        "{cmd:?} seed {}: {violations:?}",
        scenario.seed
    );
    report
}

fn assert_csvs_equal(local: &Report, remote: &Report, what: &str) {
    assert_eq!(jobs_csv(local), jobs_csv(remote), "{what}: jobs.csv");
    assert_eq!(
        utilization_csv(local),
        utilization_csv(remote),
        "{what}: utilization.csv"
    );
    assert_eq!(gantt_csv(local), gantt_csv(remote), "{what}: gantt.csv");
}

#[test]
fn external_fcfs_report_is_byte_identical_to_in_process() {
    let local = run_in_process();
    let remote = run_external(None, Duration::from_secs(30)).expect("external run");
    assert_csvs_equal(&local, &remote, "external_fcfs");
    assert_eq!(local.warnings, remote.warnings);
    assert_eq!(
        local.scheduler_invocations, remote.scheduler_invocations,
        "both transports must be invoked the same number of times"
    );
}

#[test]
fn protocol_version_mismatch_is_a_structured_error() {
    let err = run_external(Some("--bad-version"), Duration::from_secs(30))
        .expect_err("version mismatch must fail the run");
    let msg = err.to_string();
    assert!(msg.contains("version"), "unexpected error: {msg}");
}

#[test]
fn crashed_scheduler_is_a_structured_error() {
    let err = run_external(Some("--crash"), Duration::from_secs(30))
        .expect_err("child exit must fail the run");
    let msg = err.to_string();
    assert!(msg.contains("exited"), "unexpected error: {msg}");
    // The error names the scheduler and the simulated time it failed at.
    assert!(
        msg.contains("external:") && msg.contains("failed at t="),
        "unexpected error: {msg}"
    );
    assert!(std::error::Error::source(&err).is_some());
}

#[test]
fn oversized_response_line_is_a_structured_error() {
    let err = run_external(Some("--oversized"), Duration::from_secs(30))
        .expect_err("an endless line must fail the run");
    let msg = err.to_string();
    let limit = ExternalProcess::MAX_RESPONSE_LINE.to_string();
    assert!(
        msg.contains("exceeds") && msg.contains(&limit),
        "unexpected error: {msg}"
    );
}

#[test]
fn garbage_response_is_a_structured_error() {
    let err = run_external(Some("--garbage"), Duration::from_secs(30))
        .expect_err("malformed response must fail the run");
    let msg = err.to_string();
    assert!(
        msg.contains("malformed") || msg.contains("expected"),
        "unexpected error: {msg}"
    );
}

#[test]
fn unresponsive_scheduler_times_out_instead_of_hanging() {
    let err = run_external(Some("--hang"), hang_timeout()).expect_err("hang must hit the timeout");
    let msg = err.to_string();
    assert!(msg.contains("unresponsive"), "unexpected error: {msg}");
}

/// Wire-parity oracle over randomized scenarios: for each registry
/// scheduler and seed, the in-process run and the run through the helper
/// process must produce the same report digest and engine counters, and
/// both must be invariant-clean. Failure messages carry scheduler and
/// seed.
#[test]
fn external_transport_is_equivalent_on_randomized_scenarios() {
    let mut reconfigs = 0;
    for name in SCHEDULER_NAMES {
        let cmd = [EXTERNAL_FCFS.to_string(), format!("--scheduler={name}")];
        for seed in [2u64, 3, 5, 8, 13, 21, 34, 55] {
            let scenario = Scenario::from_seed(seed);
            let local = run_checked(&scenario, name);
            assert!(
                local.violations.is_empty(),
                "{name} seed {seed} in-process: {:?}",
                local.violations
            );
            let remote = run_scenario_external(&cmd, &scenario);
            let key = |r: &Report| (r.digest(), r.events, r.recomputes, r.scheduler_invocations);
            assert_eq!(
                key(&local.report),
                key(&remote),
                "{name} seed {seed}: in-process and external runs diverged"
            );
            reconfigs += remote.jobs.iter().map(|j| j.reconfigs).sum::<u32>();
        }
    }
    assert!(reconfigs > 0, "no Reconfigure decision crossed the pipe");
}

/// The Python example is exactly `fcfs`: its runs are byte-identical to
/// in-process `fcfs`. Skipped, with a note, where `python3` cannot start.
#[test]
fn python_example_is_byte_identical_to_fcfs() {
    let cmd = ["python3".to_string(), PYTHON_EXAMPLE.to_string()];
    let process = match ExternalProcess::spawn(&cmd, Duration::from_secs(30)) {
        Ok(process) => process,
        Err(e) => return eprintln!("skipping: cannot spawn python3: {e}"),
    };
    let remote = Simulation::with_external(&platform(), workload(), process, SimConfig::default())
        .unwrap()
        .try_run()
        .expect("python example run");
    assert_csvs_equal(&run_in_process(), &remote, "workload()");
    for seed in [2u64, 3, 5, 8, 13, 21] {
        let scenario = Scenario::from_seed(seed);
        let remote = run_scenario_external(&cmd, &scenario);
        let local = run_checked(&scenario, "fcfs").report;
        assert_csvs_equal(&local, &remote, &format!("seed {seed}"));
    }
}
