#![warn(missing_docs)]

//! Shared helpers for the experiment harnesses (`src/bin/exp_*.rs`).
//!
//! Every reconstructed experiment in DESIGN.md §3 is one binary; they all
//! draw their platform and workload from here so the parameters printed by
//! `exp_platform` / `exp_workload` (R-T1, R-T2) are exactly the parameters
//! the other experiments run with.

use elastisim::{ReconfigCost, Report, SimConfig, Simulation};
use elastisim_platform::{NodeSpec, PlatformSpec};
use elastisim_sched::Scheduler;
use elastisim_workload::{JobSpec, SizeDistribution, WorkloadConfig};

/// Nodes in the reference platform (R-T1).
pub const REF_NODES: usize = 64;
/// Jobs in the reference workload (R-T2).
pub const REF_JOBS: usize = 150;
/// Seeds used for multi-seed experiments.
pub const SEEDS: [u64; 5] = [7, 11, 23, 42, 99];

/// The reference platform all experiments run on.
pub fn reference_platform() -> PlatformSpec {
    PlatformSpec::homogeneous("icpp-reference", REF_NODES, NodeSpec::default())
}

/// The reference workload configuration: Poisson arrivals at ~1.3×
/// offered load (a contended system with a queue, as malleability
/// experiments need), fragmenting uniform sizes, lognormal runtimes.
pub fn reference_workload(malleable_fraction: f64, seed: u64) -> WorkloadConfig {
    let mut cfg = WorkloadConfig::new(REF_JOBS)
        .with_platform_nodes(REF_NODES as u32)
        .with_malleable_fraction(malleable_fraction)
        .with_sizes(SizeDistribution::Uniform { min: 3, max: 44 })
        .with_arrival(elastisim_workload::ArrivalProcess::Poisson {
            mean_interarrival: 300.0,
        })
        .with_seed(seed);
    // Users request generous walltimes (as in real traces): backfilling
    // algorithms need the estimates, and a shrunk malleable job may run at
    // half its requested size (2× the target runtime) plus I/O, comm and
    // reconfiguration overheads — 8× leaves headroom against false kills.
    cfg.walltime_factor = 8.0;
    cfg
}

/// The reference simulation configuration.
pub fn reference_config() -> SimConfig {
    SimConfig::default().with_reconfig_cost(ReconfigCost::Fixed(5.0))
}

/// Runs one simulation with the reference platform/config.
pub fn run(jobs: Vec<JobSpec>, scheduler: Box<dyn Scheduler>) -> Report {
    run_on(&reference_platform(), jobs, scheduler, reference_config())
}

/// Runs one simulation with explicit parameters.
pub fn run_on(
    platform: &PlatformSpec,
    jobs: Vec<JobSpec>,
    scheduler: Box<dyn Scheduler>,
    cfg: SimConfig,
) -> Report {
    Simulation::new(platform, jobs, scheduler, cfg)
        .expect("experiment workload must validate")
        .run()
}

/// Mean and sample standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// Formats `mean ± std` compactly.
pub fn pm(mean: f64, std: f64) -> String {
    format!("{mean:.0}±{std:.0}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_setup_is_consistent() {
        let p = reference_platform();
        assert_eq!(p.num_nodes(), REF_NODES);
        let jobs = reference_workload(0.5, SEEDS[0]).generate();
        assert_eq!(jobs.len(), REF_JOBS);
        elastisim_workload::validate_workload(&jobs, REF_NODES).unwrap();
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert_eq!(m, 2.0);
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]), (5.0, 0.0));
    }
}
