//! The metric tables: every name the benchmark reports, with its unit and
//! direction. `BENCHMARK.json` lists the same tables
//! (`tests/selftest.rs` pins the two against each other).

/// An end-to-end metric: what a user of the simulator sees. Measured on
/// repetitions with tracing off, reported as the median over them.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric, from the traced repetition.
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

/// Host time from inputs (bytes on disk / generator configuration) to
/// finished reports and rendered outputs, and what follows from it.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "jobs/s",
        better: "higher",
        bound: 0.15,
    },
    EndToEnd {
        name: "sims_per_s",
        unit: "sims/s",
        better: "higher",
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics, grouped by the repository's crates. A metric a
/// workload does not exercise reads 0 there. `_est` metrics derive from
/// the program's 1-in-8-sampled telemetry times its exact counters.
pub const PER_LAYER: [PerLayer; 51] = [
    layer("workload.jobs", "count", "higher"),
    layer("workload.generate_s", "s", "lower"),
    layer("workload.swf_convert_s", "s", "lower"),
    layer("workload.swf_records", "count", "higher"),
    layer("cli.input_bytes", "bytes", "higher"),
    layer("cli.load_jobs_s", "s", "lower"),
    layer("cli.parse_mb_per_s", "MB/s", "higher"),
    layer("cli.write_outputs_s", "s", "lower"),
    layer("cli.output_bytes", "bytes", "lower"),
    layer("platform.from_json_s", "s", "lower"),
    layer("core.sim_new_s", "s", "lower"),
    layer("core.run_s", "s", "lower"),
    layer("core.run_self_s", "s", "lower"),
    layer("core.report_s", "s", "lower"),
    layer("core.sim_events", "count", "lower"),
    layer("core.reconfigs", "count", "lower"),
    layer("core.jobs_killed", "count", "lower"),
    layer("des.events", "count", "lower"),
    layer("des.events_per_s", "1/s", "higher"),
    layer("des.us_per_event", "us", "lower"),
    layer("des.flow.recomputes", "count", "lower"),
    layer("des.flow.recomputes_per_event", "ratio", "lower"),
    layer("des.flow.activities_per_solve", "count", "lower"),
    layer("des.flow.solve_s_est", "s", "lower"),
    layer("des.flow.share_est", "ratio", "lower"),
    layer("des.flow.resolves_full", "count", "lower"),
    layer("des.flow.resolves_partial", "count", "lower"),
    layer("des.flow.resolves_sweep", "count", "lower"),
    layer("des.flow.par_batches", "count", "higher"),
    layer("des.flow.mode_switches", "count", "lower"),
    layer("des.queue.depth_mean", "count", "lower"),
    layer("des.queue.compactions", "count", "lower"),
    layer("sched.invocations", "count", "lower"),
    layer("sched.schedule_s", "s", "lower"),
    layer("sched.schedule_us_mean", "us", "lower"),
    layer("sched.decisions", "count", "higher"),
    layer("sched.empty_share", "ratio", "lower"),
    layer("sched.view_jobs_mean", "count", "lower"),
    layer("sched.invoke_s", "s", "lower"),
    layer("sched.view_build_s_est", "s", "lower"),
    layer("campaign.sims", "count", "higher"),
    layer("campaign.spec_build_s", "s", "lower"),
    layer("campaign.fingerprint_s", "s", "lower"),
    layer("campaign.executor_wall_s", "s", "lower"),
    layer("campaign.worker_busy_s", "s", "lower"),
    layer("campaign.overhead_share", "ratio", "lower"),
    layer("campaign.cache_hit_pass_s", "s", "lower"),
    layer("campaign.cache_hits", "count", "higher"),
    layer("trace.unattributed_share", "ratio", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("trace.wall_s", "s", "lower"),
];

/// Counts that repeat exactly for one seed on one commit: `--check`
/// treats a change in any of them like a changed digest.
pub const EXACT_COUNTS: [&str; 5] = [
    "des.events",
    "des.flow.recomputes",
    "sched.invocations",
    "sched.decisions",
    "campaign.cache_hits",
];
