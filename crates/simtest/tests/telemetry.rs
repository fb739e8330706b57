//! Telemetry conformance: observability must never change results.
//!
//! The zero-sink guarantee the telemetry subsystem makes is behavioral,
//! not just performance: attaching the registry, the timeline buffer, and
//! the Chrome trace exporter must leave the simulation's report
//! byte-identical to a bare run — and so must the flight recorder's
//! event-ring observer. These oracles check that over seeded scenarios
//! for every in-process scheduler.

use elastisim::{ChromeTraceWriter, FlightRecorder, Simulation};
use elastisim_sched::SCHEDULER_NAMES;
use elastisim_telemetry::Telemetry;
use proptest::prelude::*;
use simtest::Scenario;

/// Runs `scenario` bare, or with full telemetry (registry + timeline +
/// Chrome exporter into a sink) and/or the flight-recorder ring
/// attached, and returns the report's digest beside its engine counters.
fn run_fingerprint(
    scenario: &Scenario,
    scheduler: &str,
    telemetry: bool,
    recorder: bool,
) -> (String, u64, u64, u64) {
    let sched = elastisim_sched::by_name(scheduler)
        .unwrap_or_else(|| panic!("unknown scheduler `{scheduler}`"));
    let mut sim = Simulation::new(
        &scenario.platform(),
        scenario.jobs(),
        sched,
        scenario.config(),
    )
    .unwrap_or_else(|e| panic!("scenario seed {}: invalid setup: {e}", scenario.seed));
    if telemetry {
        let handle = Telemetry::with_timeline(true);
        sim.set_telemetry(handle.clone());
        sim.add_observer(Box::new(ChromeTraceWriter::new(std::io::sink(), handle)));
    }
    let rec = recorder.then(FlightRecorder::new);
    if let Some(rec) = &rec {
        sim.add_observer(rec.observer());
    }
    let report = sim.run();
    let fp = (
        report.digest(),
        report.events,
        report.recomputes,
        report.scheduler_invocations,
    );
    if let Some(rec) = &rec {
        assert!(rec.events_seen() > 0, "recorder saw no events");
    }
    fp
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Telemetry on vs off: byte-identical reports, for every scheduler.
    #[test]
    fn telemetry_does_not_change_reports(seed in any::<u64>()) {
        let scenario = Scenario::from_seed(seed);
        for name in SCHEDULER_NAMES {
            let bare = run_fingerprint(&scenario, name, false, false);
            let instrumented = run_fingerprint(&scenario, name, true, false);
            prop_assert!(
                bare == instrumented,
                "seed {seed} under `{name}`: telemetry changed the report"
            );
        }
    }

    /// Flight recorder attached (with and without telemetry) vs bare:
    /// byte-identical reports, for every scheduler.
    #[test]
    fn flight_recorder_does_not_change_reports(seed in any::<u64>()) {
        let scenario = Scenario::from_seed(seed);
        for name in SCHEDULER_NAMES {
            let bare = run_fingerprint(&scenario, name, false, false);
            let recorded = run_fingerprint(&scenario, name, false, true);
            prop_assert!(
                bare == recorded,
                "seed {seed} under `{name}`: flight recorder changed the report"
            );
            let both = run_fingerprint(&scenario, name, true, true);
            prop_assert!(
                bare == both,
                "seed {seed} under `{name}`: telemetry + recorder changed the report"
            );
        }
    }
}

/// The same oracles on one fixed seed, so the properties are exercised
/// even in the fastest test runs (proptest case counts can be dialed to
/// zero).
#[test]
fn telemetry_is_transparent_on_a_known_seed() {
    let scenario = Scenario::from_seed(7);
    for name in SCHEDULER_NAMES {
        assert_eq!(
            run_fingerprint(&scenario, name, false, false),
            run_fingerprint(&scenario, name, true, false),
            "scheduler `{name}`"
        );
    }
}

/// Fixed-seed variant of the flight-recorder transparency oracle.
#[test]
fn flight_recorder_is_transparent_on_a_known_seed() {
    let scenario = Scenario::from_seed(7);
    for name in SCHEDULER_NAMES {
        assert_eq!(
            run_fingerprint(&scenario, name, false, false),
            run_fingerprint(&scenario, name, true, true),
            "scheduler `{name}`"
        );
    }
}
