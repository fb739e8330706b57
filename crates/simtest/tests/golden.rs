//! Golden snapshot suite: one canonical scenario ([`GOLDEN_SEED`]) per
//! scheduler — same platform, same workload, different policies — with
//! the report's answer ([`elastisim::Report::fingerprint`]) pinned under
//! `tests/golden/`. The engine counters it leaves out are pinned in
//! `tests/golden/engine_counters.txt` (see `tests/replay.rs`).
//!
//! These snapshots are the cross-version determinism oracle: any change to
//! engine semantics, event ordering, or report accounting shows up as a
//! golden diff and must be reviewed deliberately. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p simtest --test golden`.

use elastisim_sched::SCHEDULER_NAMES;
use simtest::{assert_matches_golden, scenario::run_checked, Scenario, GOLDEN_SEED};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

#[test]
fn reports_match_golden_snapshots() {
    let scenario = Scenario::from_seed(GOLDEN_SEED);
    for name in SCHEDULER_NAMES {
        let run = run_checked(&scenario, name);
        assert!(
            run.violations.is_empty(),
            "golden scenario must be invariant-clean under `{name}`: {:?}",
            run.violations
        );
        assert_matches_golden(&golden_path(name), &run.report.fingerprint());
    }
}

/// The snapshots must genuinely distinguish the policies — if two
/// schedulers produce byte-identical reports the scenario is too easy and
/// the suite would not catch a policy regression.
#[test]
fn golden_scenario_distinguishes_schedulers() {
    let scenario = Scenario::from_seed(GOLDEN_SEED);
    let prints: std::collections::HashSet<String> = SCHEDULER_NAMES
        .iter()
        .map(|name| run_checked(&scenario, name).report.digest())
        .collect();
    assert!(
        prints.len() >= 2,
        "all schedulers agree on the golden scenario; pick a harder seed"
    );
}
