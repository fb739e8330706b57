//! Property-based tests for the DES kernel: fair-sharing invariants,
//! workspace-reuse correctness, queue/model equivalence, and flow-level
//! work conservation.

use elastisim_des::fairshare::{check_feasible_and_fair, solve, solve_with, Demand, Workspace};
use elastisim_des::{
    ActivityId, ActivitySpec, EventQueue, FlowNetwork, ResourceId, Simulator, Time,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Fair sharing
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Instance {
    caps: Vec<f64>,
    usages: Vec<Vec<(usize, f64)>>,
    bounds: Vec<f64>,
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (1usize..8, 1usize..16).prop_flat_map(|(nres, nact)| {
        let caps = proptest::collection::vec(0.5f64..200.0, nres..=nres);
        let usages = proptest::collection::vec(
            proptest::collection::vec((0..nres, 0.25f64..4.0), 1..4),
            nact..=nact,
        );
        let bounds = proptest::collection::vec(
            prop_oneof![3 => Just(f64::INFINITY), 2 => 0.5f64..50.0],
            nact..=nact,
        );
        (caps, usages, bounds).prop_map(|(caps, usages, bounds)| Instance {
            caps,
            usages,
            bounds,
        })
    })
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-7 * (1.0 + a.abs().max(b.abs()))
}

/// The max-min correctness oracle: feasible, bound-respecting, and every
/// activity blocked by either its bound or a saturated resource.
fn check(inst: &Instance, rates: &[f64]) -> Result<(), TestCaseError> {
    let mut used = vec![0.0; inst.caps.len()];
    for ((u, &b), &r) in inst.usages.iter().zip(&inst.bounds).zip(rates) {
        prop_assert!(r >= 0.0);
        prop_assert!(
            r <= b * (1.0 + 1e-9) || close(r, b),
            "rate {r} over bound {b}"
        );
        for &(j, w) in u {
            used[j] += r * w;
        }
    }
    for (j, (&u, &c)) in used.iter().zip(&inst.caps).enumerate() {
        prop_assert!(u <= c * (1.0 + 1e-6) + 1e-9, "resource {j}: {u} > {c}");
    }
    for (i, ((u, &b), &r)) in inst.usages.iter().zip(&inst.bounds).zip(rates).enumerate() {
        if close(r, b) {
            continue;
        }
        let blocked = u.iter().any(|&(j, _)| close(used[j], inst.caps[j]));
        prop_assert!(blocked, "activity {i} at {r} neither bounded nor blocked");
    }
    Ok(())
}

proptest! {
    /// The solver always produces a feasible, non-wasteful allocation.
    #[test]
    fn solver_invariants(inst in arb_instance()) {
        let demands: Vec<Demand> = inst
            .usages
            .iter()
            .zip(&inst.bounds)
            .map(|(u, &bound)| Demand { usages: u, bound })
            .collect();
        let rates = solve(&inst.caps, &demands);
        check(&inst, &rates)?;
    }

    /// Reusing one workspace across many instances gives bit-identical
    /// results to fresh solves — i.e. the end-of-solve cleanup is complete.
    #[test]
    fn workspace_reuse_equals_fresh(instances in proptest::collection::vec(arb_instance(), 1..6)) {
        let mut ws = Workspace::new();
        for inst in &instances {
            let demands: Vec<Demand> = inst
                .usages
                .iter()
                .zip(&inst.bounds)
                .map(|(u, &bound)| Demand { usages: u, bound })
                .collect();
            let reused = solve_with(&mut ws, &inst.caps, &demands);
            let fresh = solve(&inst.caps, &demands);
            prop_assert_eq!(reused, fresh);
        }
    }

    /// Scaling all capacities and bounds by k scales all rates by k.
    #[test]
    fn solver_is_scale_invariant(inst in arb_instance(), k in 0.5f64..8.0) {
        let demands: Vec<Demand> = inst
            .usages
            .iter()
            .zip(&inst.bounds)
            .map(|(u, &bound)| Demand { usages: u, bound })
            .collect();
        let base = solve(&inst.caps, &demands);
        let caps2: Vec<f64> = inst.caps.iter().map(|c| c * k).collect();
        let bounds2: Vec<f64> = inst.bounds.iter().map(|b| b * k).collect();
        let demands2: Vec<Demand> = inst
            .usages
            .iter()
            .zip(&bounds2)
            .map(|(u, &bound)| Demand { usages: u, bound })
            .collect();
        let scaled = solve(&caps2, &demands2);
        for (a, b) in base.iter().zip(&scaled) {
            if a.is_finite() {
                prop_assert!(close(a * k, *b), "{a} * {k} != {b}");
            } else {
                prop_assert!(b.is_infinite());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Event queue vs reference model
// ---------------------------------------------------------------------

proptest! {
    /// The heap-backed queue pops in exactly the order a stable sort by
    /// time would produce.
    #[test]
    fn queue_matches_model(times in proptest::collection::vec(0.0f64..1e6, 0..64)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_secs(t), i);
        }
        let mut model: Vec<(f64, usize)> =
            times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
        model.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        for (t, i) in model {
            let (qt, qi) = q.pop().expect("queue drained early");
            prop_assert_eq!(qt, Time::from_secs(t));
            prop_assert_eq!(qi, i);
        }
        prop_assert!(q.pop().is_none());
    }

    /// Cancelling an arbitrary subset removes exactly those entries.
    #[test]
    fn queue_cancellation(
        times in proptest::collection::vec(0.0f64..1e3, 1..32),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..32),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.push(Time::from_secs(t), i))
            .collect();
        let mut kept = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(q.cancel(*id));
            } else {
                kept.push(i);
            }
        }
        let mut popped = Vec::new();
        while let Some((_, i)) = q.pop() {
            popped.push(i);
        }
        popped.sort_unstable();
        kept.sort_unstable();
        prop_assert_eq!(popped, kept);
    }
}

// ---------------------------------------------------------------------
// Differential oracle: incremental flow engine vs full-solve reference
// ---------------------------------------------------------------------
//
// The incremental engine (lazy integration, completion heap, partial
// re-solve) must be observationally equivalent to the straightforward
// engine it replaced: integrate every activity on every event, full
// progressive-filling solve on every change, O(n) completion scans. The
// reference below *is* that engine, retained verbatim; randomized traces
// of starts, cancels, and capacity changes are replayed through both and
// rates, remaining work, predicted completions, and completion order are
// compared after every operation.

/// Completion tolerances mirrored from the flow engine.
const REL_TOL: f64 = 1e-12;
const ABS_TOL: f64 = 1e-9;

struct RefActivity {
    id: u64,
    remaining: f64,
    total: f64,
    bound: f64,
    usages: Vec<(usize, f64)>,
    rate: f64,
}

impl RefActivity {
    fn done(&self) -> bool {
        self.remaining <= self.total * REL_TOL + ABS_TOL
    }
}

/// The pre-incremental flow engine: eager integration + full solves.
struct RefEngine {
    caps: Vec<f64>,
    /// Sorted by id (ids are handed out in increasing order and never
    /// reinserted), matching the incremental engine's BTreeMap order.
    acts: Vec<RefActivity>,
    now: f64,
    next_id: u64,
}

impl RefEngine {
    fn new(caps: Vec<f64>) -> Self {
        RefEngine {
            caps,
            acts: Vec::new(),
            now: 0.0,
            next_id: 0,
        }
    }

    fn start(&mut self, work: f64, usages: Vec<(usize, f64)>, bound: f64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.acts.push(RefActivity {
            id,
            remaining: work,
            total: work,
            bound,
            usages,
            rate: 0.0,
        });
        id
    }

    fn cancel(&mut self, id: u64) -> Option<f64> {
        let pos = self.acts.iter().position(|a| a.id == id)?;
        Some(self.acts.remove(pos).remaining)
    }

    fn advance_to(&mut self, t: f64) {
        let dt = t - self.now;
        if dt > 0.0 {
            for a in &mut self.acts {
                if a.rate > 0.0 {
                    a.remaining = (a.remaining - a.rate * dt).max(0.0);
                }
            }
        }
        self.now = self.now.max(t);
    }

    /// Full progressive-filling solve over every live activity, with the
    /// max-min invariant checked on every solution.
    fn solve_all(&mut self) {
        let demands: Vec<Demand<'_>> = self
            .acts
            .iter()
            .map(|a| Demand {
                usages: &a.usages,
                bound: a.bound,
            })
            .collect();
        let rates = solve(&self.caps, &demands);
        check_feasible_and_fair(&self.caps, &demands, &rates);
        drop(demands);
        for (a, r) in self.acts.iter_mut().zip(rates) {
            a.rate = r;
        }
    }

    fn time_eps(&self) -> f64 {
        1e-9 + self.now * 1e-12
    }

    fn effectively_done(&self, a: &RefActivity) -> bool {
        a.done() || (a.rate > 0.0 && a.remaining <= a.rate * self.time_eps())
    }

    /// O(n) completion scan, exactly as the pre-incremental engine did it.
    fn next_completion(&self) -> Option<f64> {
        let mut best: Option<f64> = None;
        for a in &self.acts {
            let t = if self.effectively_done(a) {
                self.now
            } else if a.rate > 0.0 {
                let horizon = if a.rate.is_finite() {
                    a.remaining / a.rate
                } else {
                    0.0
                };
                self.now + horizon
            } else {
                continue;
            };
            best = Some(match best {
                Some(b) => b.min(t),
                None => t,
            });
        }
        best
    }

    fn harvest(&mut self) -> Vec<u64> {
        let done: Vec<u64> = self
            .acts
            .iter()
            .filter(|a| self.effectively_done(a))
            .map(|a| a.id)
            .collect();
        self.acts.retain(|a| !done.contains(&a.id));
        done
    }
}

#[derive(Debug, Clone)]
enum Op {
    Start {
        work: f64,
        res: Vec<(usize, f64)>,
        bound: f64,
    },
    Cancel(usize),
    SetCap {
        res: usize,
        cap: f64,
    },
    Run,
}

fn arb_op(nres: usize) -> impl Strategy<Value = Op> {
    let start = (
        prop_oneof![1 => Just(0.0f64), 6 => 1.0f64..2e3],
        proptest::collection::vec((0..nres, 0.5f64..2.0), 1..3),
        prop_oneof![2 => Just(f64::INFINITY), 1 => 0.5f64..40.0],
    )
        .prop_map(|(work, res, bound)| Op::Start { work, res, bound });
    let cancel = (0usize..64).prop_map(Op::Cancel);
    let setcap = (0..nres, prop_oneof![1 => Just(0.0f64), 5 => 0.5f64..100.0])
        .prop_map(|(res, cap)| Op::SetCap { res, cap });
    prop_oneof![4 => start, 1 => cancel, 1 => setcap, 3 => Just(Op::Run)]
}

fn arb_trace() -> impl Strategy<Value = (Vec<f64>, Vec<Op>)> {
    (2usize..6).prop_flat_map(|nres| {
        (
            proptest::collection::vec(0.5f64..100.0, nres..=nres),
            proptest::collection::vec(arb_op(nres), 1..40),
        )
    })
}

/// Absolute-plus-relative closeness; the absolute term must dominate the
/// engine's live-lock epsilon (1e-9 + t·1e-12) at the times traces reach.
fn close_t(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 + 1e-9 * a.abs().max(b.abs())
}

fn replay(caps: &[f64], ops: &[Op]) -> Result<(), TestCaseError> {
    let mut net = FlowNetwork::new();
    let rids: Vec<ResourceId> = caps.iter().map(|&c| net.add_resource(c)).collect();
    let mut reference = RefEngine::new(caps.to_vec());
    // Both engines hand out ids 0, 1, 2, … in start order; the pair list
    // maps between the two handle spaces.
    let mut live: Vec<(ActivityId, u64)> = Vec::new();

    for op in ops {
        match op {
            Op::Start { work, res, bound } => {
                let usages: Vec<(usize, f64)> = res.clone();
                let spec = ActivitySpec {
                    work: *work,
                    usages: res.iter().map(|&(r, w)| (rids[r], w)).collect(),
                    bound: *bound,
                };
                let a = net.start(spec);
                let rid = reference.start(*work, usages, *bound);
                live.push((a, rid));
            }
            Op::Cancel(k) => {
                if live.is_empty() {
                    continue;
                }
                let (a, rid) = live.remove(k % live.len());
                let rem_inc = net.cancel(a).expect("live in incremental engine");
                let rem_ref = reference.cancel(rid).expect("live in reference engine");
                prop_assert!(
                    close_t(rem_inc, rem_ref),
                    "cancel remaining diverged: {rem_inc} vs {rem_ref}"
                );
            }
            Op::SetCap { res, cap } => {
                net.set_capacity(rids[*res], *cap);
                reference.caps[*res] = *cap;
            }
            Op::Run => {
                net.recompute();
                reference.solve_all();
                if let Some(t) = net.next_completion() {
                    net.advance_to(t);
                    reference.advance_to(t.as_secs());
                    let harvested = net.harvest_completed();
                    let mut inc_ids: Vec<u64> = harvested
                        .iter()
                        .map(|aid| {
                            let pos = live
                                .iter()
                                .position(|(a, _)| a == aid)
                                .expect("harvested id was live");
                            live.remove(pos).1
                        })
                        .collect();
                    inc_ids.sort_unstable();
                    let mut ref_ids = reference.harvest();
                    ref_ids.sort_unstable();
                    prop_assert_eq!(
                        inc_ids,
                        ref_ids,
                        "completion sets diverged at t={}",
                        t.as_secs()
                    );
                }
            }
        }

        // After every operation: both engines re-solve and must agree on
        // every live activity's rate and remaining work, and on the next
        // predicted completion.
        net.recompute();
        reference.solve_all();
        for &(a, rid) in &live {
            let p = net.progress(a).expect("live in incremental engine");
            let r = reference
                .acts
                .iter()
                .find(|x| x.id == rid)
                .expect("live in reference engine");
            prop_assert!(
                close_t(p.rate, r.rate) || (p.rate.is_infinite() && r.rate.is_infinite()),
                "rate diverged for id {rid}: {} vs {}",
                p.rate,
                r.rate
            );
            prop_assert!(
                close_t(p.remaining, r.remaining),
                "remaining diverged for id {rid}: {} vs {}",
                p.remaining,
                r.remaining
            );
        }
        // The incremental engine's own rates must satisfy the max-min
        // invariant, independent of the reference agreeing.
        let demands: Vec<Demand<'_>> = reference
            .acts
            .iter()
            .map(|a| Demand {
                usages: &a.usages,
                bound: a.bound,
            })
            .collect();
        let inc_rates: Vec<f64> = reference
            .acts
            .iter()
            .map(|a| {
                let (aid, _) = live.iter().find(|(_, rid)| *rid == a.id).unwrap();
                net.progress(*aid).unwrap().rate
            })
            .collect();
        check_feasible_and_fair(&reference.caps, &demands, &inc_rates);
        match (net.next_completion(), reference.next_completion()) {
            (None, None) => {}
            (Some(ti), Some(tr)) => {
                prop_assert!(
                    close_t(ti.as_secs(), tr),
                    "next completion diverged: {} vs {tr}",
                    ti.as_secs()
                );
            }
            (i, r) => {
                return Err(TestCaseError::fail(format!(
                    "completion prediction presence diverged: {i:?} vs {r:?}"
                )));
            }
        }
    }
    Ok(())
}

/// Storm traces: alternating add bursts, remove bursts, and capacity
/// churn (including zeroing), so the live count swings widely and solves
/// flip between partial and full-fallback paths mid-trace — the regime
/// where stale dirty-set or frozen-rate bugs would show up as a
/// divergence from the reference engine.
fn arb_storm_trace() -> impl Strategy<Value = (Vec<f64>, Vec<Op>)> {
    (2usize..6).prop_flat_map(|nres| {
        let burst = prop_oneof![
            // Add storm: a run of starts, then a solve point.
            proptest::collection::vec(
                (
                    prop_oneof![1 => Just(0.0f64), 6 => 1.0f64..2e3],
                    proptest::collection::vec((0..nres, 0.5f64..2.0), 1..3),
                    prop_oneof![2 => Just(f64::INFINITY), 1 => 0.5f64..40.0],
                )
                    .prop_map(|(work, res, bound)| Op::Start { work, res, bound }),
                4..12,
            ),
            // Remove storm: a run of cancels.
            proptest::collection::vec((0usize..64).prop_map(Op::Cancel), 4..12),
            // Capacity churn: hammer set_capacity, including zeroing.
            proptest::collection::vec(
                (0..nres, prop_oneof![1 => Just(0.0f64), 4 => 0.5f64..100.0])
                    .prop_map(|(res, cap)| Op::SetCap { res, cap }),
                3..8,
            ),
            Just(vec![Op::Run]),
        ];
        (
            proptest::collection::vec(0.5f64..100.0, nres..=nres),
            proptest::collection::vec(burst, 2..8)
                .prop_map(|bursts| bursts.into_iter().flatten().collect()),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// 1000 randomized traces — uniform start/cancel/capacity-change
    /// mixes and add/remove/capacity storms — replayed through the
    /// incremental engine and the retained full-solve reference: rates,
    /// remaining work, completion predictions, and completion order must
    /// all agree.
    #[test]
    fn incremental_engine_matches_full_solve_reference(
        (caps, ops) in prop_oneof![arb_trace(), arb_storm_trace()],
    ) {
        replay(&caps, &ops)?;
    }
}

// ---------------------------------------------------------------------
// Flow-level work conservation
// ---------------------------------------------------------------------

proptest! {
    /// N sequentially independent activities on one resource finish at the
    /// analytic completion times of processor sharing, regardless of
    /// arrival pattern: total capacity × makespan == total work when the
    /// resource never idles.
    #[test]
    fn work_conservation_single_resource(
        works in proptest::collection::vec(1.0f64..1e4, 1..12),
        cap in 1.0f64..100.0,
    ) {
        let mut sim: Simulator<usize> = Simulator::new();
        let cpu = sim.add_resource(cap);
        for (i, &w) in works.iter().enumerate() {
            sim.start_activity(ActivitySpec::new(w, [cpu]), i);
        }
        let mut last = Time::ZERO;
        let mut seen = 0;
        while let Some((t, _)) = sim.step() {
            prop_assert!(t >= last, "time went backward");
            last = t;
            seen += 1;
        }
        prop_assert_eq!(seen, works.len());
        let total: f64 = works.iter().sum();
        let expected = total / cap;
        prop_assert!(
            (last.as_secs() - expected).abs() < 1e-6 * expected,
            "makespan {last} != {expected}"
        );
    }

    /// With staggered arrivals the makespan is still total-work/capacity
    /// provided no idle gap occurs (arrivals before previous completion).
    #[test]
    fn work_conservation_staggered(
        works in proptest::collection::vec(10.0f64..1e3, 2..8),
    ) {
        let cap = 10.0;
        let mut sim: Simulator<i64> = Simulator::new();
        let cpu = sim.add_resource(cap);
        // First activity starts now; the rest arrive at tiny offsets that
        // are guaranteed to precede the earliest possible completion.
        sim.start_activity(ActivitySpec::new(works[0], [cpu]), -1);
        for (i, &w) in works.iter().enumerate().skip(1) {
            sim.schedule_at(Time::from_secs(0.01 * i as f64), i as i64);
            let _ = w;
        }
        let mut makespan = Time::ZERO;
        let works2 = works.clone();
        while let Some((t, e)) = sim.step() {
            makespan = t;
            if e >= 0 {
                sim.start_activity(ActivitySpec::new(works2[e as usize], [cpu]), -1);
            }
        }
        let total: f64 = works.iter().sum();
        let lost: f64 = (1..works.len()).map(|i| 0.01 * i as f64).sum::<f64>() * 0.0;
        let expected = total / cap + lost;
        // The capacity idles only before each arrival: bounded by the last
        // arrival offset.
        let slack = 0.01 * (works.len() - 1) as f64;
        prop_assert!(
            makespan.as_secs() >= expected - 1e-9 && makespan.as_secs() <= expected + slack + 1e-9,
            "makespan {makespan} outside [{expected}, {}]",
            expected + slack
        );
    }
}
