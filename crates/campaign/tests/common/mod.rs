//! Helpers shared by the campaign integration tests.

use elastisim_campaign::RunRecord;

/// A completed run's `rdg1-` report digest beside the three engine
/// counters the digest leaves out (`events`, `recomputes`,
/// `scheduler_invocations`), so a determinism oracle compares both the
/// answer and the engine work that produced it.
pub fn run_identity(r: &RunRecord) -> (String, u64, u64, u64) {
    let report = r.report().expect("run completed");
    (
        r.report_fingerprint().expect("run completed").to_owned(),
        report.events,
        report.recomputes,
        report.scheduler_invocations,
    )
}
