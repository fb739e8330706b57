//! Flow-engine churn benchmark: the workload the incremental engine exists
//! for.
//!
//! N concurrent activities run on M resources grouped into node-local
//! clusters of four. Each activity touches one or two resources of a
//! single cluster — the allocation locality malleable jobs have on a real
//! platform, where a job's kernels and flows only use the nodes assigned
//! to it — so the resource↔activity graph decomposes into many small
//! components. Work amounts are drawn exponentially, so completions form a
//! Poisson-like churn stream: every completion removes one activity and
//! starts a replacement, which perturbs only the touched cluster. A
//! full-sweep engine pays O(total activities) per event; the incremental
//! engine pays O(component + log n).
//!
//! Two topology arms: **dense** (~16 activities per resource, components
//! span several activities) and **sparse** (~2 per resource, tiny
//! components — the incremental path's best case).
//!
//! This is a layer-local microbenchmark; end-to-end performance claims
//! are made against the ledger in `perf_ledger/` (see `BENCHMARK.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use elastisim_des::{ActivitySpec, ResourceId, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exponential variate with the given mean.
fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    -mean * rng.gen_range(f64::MIN_POSITIVE..1.0).ln()
}

/// Resources per node-local cluster; activities never span clusters.
const CLUSTER: usize = 4;

/// One random activity spec: exponential work on one or two resources of
/// one cluster.
fn random_spec(rng: &mut StdRng, resources: &[ResourceId]) -> ActivitySpec {
    let work = exp_sample(rng, 600.0);
    let base = rng.gen_range(0..resources.len() / CLUSTER) * CLUSTER;
    let a = resources[base + rng.gen_range(0..CLUSTER)];
    let spec = ActivitySpec::new(work, [a]);
    if rng.gen_bool(0.5) {
        let b = resources[base + rng.gen_range(0..CLUSTER)];
        if b != a {
            return spec.with_usage(b, 1.0);
        }
    }
    spec
}

/// Resource count for ~`per_resource` steady-state activities per
/// resource, rounded to whole clusters.
fn resources_for(n_activities: usize, per_resource: usize) -> usize {
    ((n_activities / per_resource).max(8) / CLUSTER).max(1) * CLUSTER
}

/// Runs `events` churn events over a steady-state population of
/// `n_activities` on `n_resources`, returning the delivered-event count
/// (consumed so the work cannot be optimized away).
fn churn(n_activities: usize, n_resources: usize, events: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut sim: Simulator<()> = Simulator::new();
    let resources: Vec<ResourceId> = (0..n_resources).map(|_| sim.add_resource(100.0)).collect();
    for _ in 0..n_activities {
        let spec = random_spec(&mut rng, &resources);
        sim.start_activity(spec, ());
    }
    let mut delivered = 0u64;
    while (delivered as usize) < events {
        let Some((_t, ())) = sim.step() else { break };
        delivered += 1;
        let spec = random_spec(&mut rng, &resources);
        sim.start_activity(spec, ());
    }
    sim.events_delivered()
}

fn bench_flow_churn(c: &mut Criterion) {
    for (topology, per_resource) in [("flow_churn", 16usize), ("flow_churn_sparse", 2)] {
        let mut group = c.benchmark_group(topology);
        group.sample_size(10);
        for &n in &[30usize, 100, 300, 1_000, 3_000, 10_000] {
            let resources = resources_for(n, per_resource);
            let events = 500;
            group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
                b.iter(|| churn(n, resources, events));
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_flow_churn);
criterion_main!(benches);
