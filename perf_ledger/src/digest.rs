//! `sim_digest`: a stable hash of what a simulation *answered*.
//!
//! It covers each report's per-job records, utilization series and
//! warnings, and deliberately excludes `Report.events`,
//! `Report.recomputes` and `Report.scheduler_invocations`: those are
//! engine-internal and are expected to change when the engine gets
//! faster. A simulator-speed change must leave every digest identical to
//! the parent's; a behaviour change moves it and must say so.

use elastisim::Report;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], offset: u64) -> u64 {
    bytes
        .iter()
        .fold(offset, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// 128-bit FNV-1a of `text`, rendered as `sd1-<32 hex digits>`.
pub fn digest_text(text: &str) -> String {
    let lo = fnv1a(text.as_bytes(), FNV_OFFSET);
    let hi = fnv1a(text.as_bytes(), FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15);
    format!("sd1-{hi:016x}{lo:016x}")
}

/// The digest of one report.
pub fn sim_digest(report: &Report) -> String {
    let part = |v: Result<String, serde_json::Error>| v.expect("report parts serialize");
    digest_text(&format!(
        "jobs={}\nutilization={}\nwarnings={}\nnodes={}\n",
        part(serde_json::to_string(&report.jobs)),
        part(serde_json::to_string(&report.utilization)),
        part(serde_json::to_string(&report.warnings)),
        report.total_nodes,
    ))
}

/// The digest of a whole repetition: its simulations' digests in id order.
pub fn combined_digest<'a>(digests: impl IntoIterator<Item = &'a str>) -> String {
    let mut canon = String::new();
    for d in digests {
        canon.push_str(d);
        canon.push('\n');
    }
    digest_text(&canon)
}
