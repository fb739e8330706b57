#![warn(missing_docs)]

//! # simtest — the conformance harness of the ElastiSim reproduction
//!
//! Simulation results are only worth comparing if the simulator itself is
//! demonstrably correct and deterministic. This crate packages the three
//! correctness pillars the test suites build on:
//!
//! 1. **Invariant checking** — [`elastisim::InvariantChecker`] attached to
//!    every run, asserting capacity, exclusive node ownership, monotone
//!    time, per-class job state machines, and report/event-stream
//!    consistency (see `crates/core/src/invariant.rs`).
//! 2. **Seeded scenario generation** — [`Scenario::from_seed`] derives a
//!    full platform × workload × configuration combination from one `u64`.
//!    No ambient randomness: a failing seed printed in a test message
//!    reproduces the run exactly.
//! 3. **Determinism oracles** — equal seeds must give equal
//!    [`elastisim::Report::digest`]s and equal engine counters, across
//!    schedulers and across transports; golden snapshots pin one
//!    canonical run per scheduler (see `tests/golden.rs`, regenerate with
//!    `UPDATE_GOLDEN=1`), and `tests/golden/engine_counters.txt` pins
//!    the counters the digest leaves out.
//! 4. **View oracle** — [`ViewOracle`] rebuilds the queued and running
//!    job sets, and each running job's nodes, from the event stream and
//!    checks them against every [`SystemView`] the scheduler is shown.
//!
//! The deliberately broken [`OverAllocatingScheduler`] is the harness's
//! self-test: a mutant that hands out nodes it does not have, which the
//! engine must reject and the invariant checker must catch when its
//! corrupted stream is replayed directly.

pub mod oracle;
pub mod scenario;

pub use oracle::ViewOracle;
pub use scenario::{ConformanceRun, Scenario};

use elastisim_platform::NodeId;
use elastisim_sched::{Decision, Invocation, Scheduler, SystemView};

/// The seed of the golden scenario every scheduler's snapshot runs.
pub const GOLDEN_SEED: u64 = 0xE1A5_7151;

/// Compares `actual` against the golden snapshot at `path`, or rewrites the
/// snapshot when the `UPDATE_GOLDEN` environment variable is set.
pub fn assert_matches_golden(path: &std::path::Path, actual: &str) {
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
        "output diverges from golden snapshot {} (run with UPDATE_GOLDEN=1 to regenerate)\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}

/// A deliberately broken scheduler: starts every pending job on nodes
/// `0..min_nodes` regardless of what is free. Exists to prove the
/// correctness layer bites — the engine must reject its over-allocations
/// (emitting `DecisionRejected`), and the invariant checker must flag the
/// corrupted event stream such a scheduler *would* produce if the engine
/// let it through.
#[derive(Default)]
pub struct OverAllocatingScheduler;

impl Scheduler for OverAllocatingScheduler {
    fn name(&self) -> &'static str {
        "over-allocating-mutant"
    }

    fn schedule(&mut self, view: &SystemView, _invocation: Invocation) -> Vec<Decision> {
        view.queue()
            .into_iter()
            .map(|job| Decision::Start {
                job: job.id,
                nodes: (0..job.min_start_size() as u32).map(NodeId).collect(),
            })
            .collect()
    }
}
