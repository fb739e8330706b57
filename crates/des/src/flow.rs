//! Flow-level resource model.
//!
//! A [`FlowNetwork`] holds *resources* (capacities) and *activities*
//! (remaining work plus weighted resource usages). Rates are assigned by the
//! bottleneck max-min solver in [`crate::fairshare`]; the network integrates
//! remaining work over simulated time and predicts the next completion.
//!
//! The network is deliberately clock-less: the [`crate::sim::Simulator`]
//! owns the clock and calls [`FlowNetwork::advance_to`] /
//! [`FlowNetwork::recompute`] at the right moments. This keeps the sharing
//! model independently testable.
//!
//! ## Incremental engine
//!
//! Per-event cost is kept at O(affected activities + log n) instead of
//! O(total activities) by three mechanisms:
//!
//! * **Lazy integration** — each activity records the instant (`touched`)
//!   its `remaining` field refers to. Because rates only change at
//!   recompute points, remaining work between two touches is an exact
//!   linear function of time; [`FlowNetwork::advance_to`] is therefore a
//!   pure clock bump, and integration happens per-activity when (and only
//!   when) its rate actually changes.
//! * **Completion heap** — predicted completion instants live in a
//!   lazily-invalidated min-heap keyed `(time, id, generation)`. Every rate
//!   change bumps the activity's generation and pushes a fresh entry;
//!   entries whose id or generation no longer matches their slot are
//!   skipped (and dropped) on pop. [`FlowNetwork::next_completion`] and
//!   [`FlowNetwork::harvest_completed`] are O(log n) per popped entry
//!   instead of O(n) scans.
//! * **Partial re-solve** — the network tracks the resource↔activity
//!   bipartite graph (per-resource user lists) and the set of resources
//!   dirtied since the last solve. [`FlowNetwork::recompute`] walks the
//!   connected component(s) reachable from the dirty resources and re-runs
//!   progressive filling over just those activities; rates elsewhere stay
//!   frozen. The closure property of connected components makes the
//!   restricted solve exact: no activity outside the component uses any
//!   resource inside it. Two fallbacks take a plain full solve instead:
//!   a dirty set covering at least half the resources, and a walk that
//!   reaches more than half the live activities (one giant component).
//!   Both produce bit-identical rates — a partial solve of every
//!   component equals the full solve.
//!
//! ## Data layout (dense-id SoA)
//!
//! Activity state lives in slot-indexed parallel arrays (`remaining`,
//! `total`, `bound`, `rate`, `touched`, `generation`, …) rather than a map
//! of per-activity structs: a re-solve streams over contiguous `f64`
//! columns instead of chasing `BTreeMap` nodes. Slots are recycled through
//! a free list; the external [`ActivityId`] stays a monotonically
//! increasing `u64` (slot reuse is invisible — every slot stores its
//! current id, so stale references from recycled slots are detected by an
//! id mismatch). Usage lists live in one shared CSR-style arena
//! (`(resource, weight)` pairs, per-activity `(start, len)` ranges) that
//! compacts itself when churn leaves more dead than live entries.
//! Deterministic id order is preserved by `live_by_id`, an append-only
//! (ids are monotonic) lazily-pruned list of `(id, slot)` pairs that full
//! solves and harvests iterate.

use std::collections::{BinaryHeap, HashMap};

use crate::fairshare::{self, PackedDemand};
use crate::hash::U64FastBuild;
use crate::time::Time;

/// Handle to a resource (a core pool, a link, an I/O server).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ResourceId(pub(crate) u32);

/// Handle to an ongoing activity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ActivityId(pub(crate) u64);

/// Relative completion tolerance: an activity counts as finished once its
/// remaining work drops below this fraction of its total work (plus a tiny
/// absolute epsilon), absorbing floating-point integration error.
const REL_TOL: f64 = 1e-12;
const ABS_TOL: f64 = 1e-9;

/// Compact heaps / lazy lists only past this size, so small simulations
/// never pay the rebuild.
const COMPACT_MIN: usize = 64;

/// Sentinel id marking a vacant slot.
const FREE: u64 = u64::MAX;

/// How a re-solve was carried out — an observability hook consumed by
/// telemetry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveKind {
    /// Solved just the dirty connected component(s).
    Partial,
    /// Fell back to a full solve (dirty set spanning half the platform, or
    /// a giant component aborting the walk).
    Full,
}

impl SolveKind {
    /// Whether the solve covered every live activity.
    pub fn is_full(self) -> bool {
        self == SolveKind::Full
    }
}

/// A predicted completion instant; heap entries are lazily invalidated by
/// comparing `(id, generation)` against the slot's current occupant.
#[derive(Clone, Copy)]
struct Predicted {
    time: Time,
    id: u64,
    /// Slot the activity occupied when the prediction was made — an O(1)
    /// liveness probe (valid iff the slot still holds `id` at the same
    /// `generation`). Not part of the ordering.
    slot: u32,
    generation: u64,
}

impl PartialEq for Predicted {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.id == other.id && self.generation == other.generation
    }
}
impl Eq for Predicted {}

impl PartialOrd for Predicted {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Predicted {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse lexicographic (time, id, generation): BinaryHeap is a
        // max-heap, we want the earliest prediction first, ties broken by
        // activity id for determinism.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.id.cmp(&self.id))
            .then_with(|| other.generation.cmp(&self.generation))
    }
}

/// Description of a new activity handed to [`FlowNetwork::start`].
#[derive(Clone, Debug)]
pub struct ActivitySpec {
    /// Total work, in resource units (flops, bytes, ...). Must be ≥ 0.
    pub work: f64,
    /// Weighted resource usages; an activity at rate `r` consumes `r * w`
    /// of each listed resource.
    pub usages: Vec<(ResourceId, f64)>,
    /// Optional rate cap (defaults to unbounded).
    pub bound: f64,
}

impl ActivitySpec {
    /// An activity with unit weights on the given resources and no bound.
    pub fn new(work: f64, resources: impl IntoIterator<Item = ResourceId>) -> Self {
        ActivitySpec {
            work,
            usages: resources.into_iter().map(|r| (r, 1.0)).collect(),
            bound: f64::INFINITY,
        }
    }

    /// Sets a rate cap.
    pub fn with_bound(mut self, bound: f64) -> Self {
        self.bound = bound;
        self
    }

    /// Adds a weighted usage.
    pub fn with_usage(mut self, resource: ResourceId, weight: f64) -> Self {
        self.usages.push((resource, weight));
        self
    }
}

/// Progress report for an ongoing activity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Progress {
    /// Work still to do.
    pub remaining: f64,
    /// Total work the activity started with.
    pub total: f64,
    /// Rate currently assigned by the sharing solver.
    pub rate: f64,
}

/// The flow network: resources, activities, and the sharing fixed point.
///
/// Activity state is stored in slot-indexed structure-of-arrays form; see
/// the module docs for the layout and the partial re-solve.
pub struct FlowNetwork {
    // ---- resources ----
    /// Capacities, densely indexed by resource.
    caps: Vec<f64>,
    /// Per-resource live user slots (each live activity appears once per
    /// *distinct* resource it uses).
    res_users: Vec<Vec<u32>>,
    /// Resources whose user set or capacity changed since the last solve.
    dirty: Vec<usize>,
    dirty_flag: Vec<bool>,
    /// Epoch stamps for the component walk (parallel to `caps`).
    res_epoch: Vec<u64>,

    // ---- activities (slot-indexed SoA) ----
    /// External id per slot; `FREE` marks a vacant slot.
    ids: Vec<u64>,
    /// Remaining work *as of `touched[slot]`* — not necessarily "now".
    remaining: Vec<f64>,
    total: Vec<f64>,
    bound: Vec<f64>,
    rate: Vec<f64>,
    /// The instant `remaining` was last made current. Progress since then
    /// is the exact linear extrapolation `remaining - rate * dt`.
    touched: Vec<Time>,
    /// Bumped on every rate change; completion-heap entries carrying an
    /// older generation are stale and skipped.
    generation: Vec<u64>,
    /// Visit mark for the component walk in `recompute` (epoch-stamped so
    /// no per-recompute clearing is needed).
    act_epoch: Vec<u64>,
    /// `(start, len)` into `arena` for the activity's usages.
    usage_range: Vec<(u32, u32)>,
    /// Vacated slots awaiting reuse.
    free_slots: Vec<u32>,
    /// id → slot, for the by-handle public API (hot paths carry slots).
    slot_of: HashMap<u64, u32, U64FastBuild>,
    live: usize,

    // ---- usage arena (CSR) ----
    /// All live activities' `(resource index, weight)` usages, contiguous
    /// per activity. Append-only between compactions.
    arena: Vec<(usize, f64)>,
    /// Entries belonging to live activities; `arena.len() - arena_live` is
    /// the dead space that triggers compaction.
    arena_live: usize,

    /// `(id, slot)` in id order (ids are monotonic, so appends keep it
    /// sorted). Entries whose slot no longer holds their id are stale and
    /// filtered on iteration; pruned when stale entries outnumber live.
    live_by_id: Vec<(u64, u32)>,
    live_stale: usize,

    next_activity: u64,
    last_update: Time,
    rates_stale: bool,
    recomputes: u64,
    scratch: fairshare::Workspace,
    /// Lazily-invalidated min-heap of predicted completions.
    completions: BinaryHeap<Predicted>,
    visit_epoch: u64,
    // Scratch reused across recomputes (no steady-state allocation).
    bfs_stack: Vec<usize>,
    comp: Vec<u32>,
    packed: Vec<PackedDemand>,
    rates_buf: Vec<f64>,
    harvest_buf: Vec<(u64, u32)>,
    /// `(activities solved, how)` for the most recent recompute — an
    /// observability hook consumed by telemetry.
    last_solve: (usize, SolveKind),
}

impl Default for FlowNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowNetwork {
    /// Creates an empty network at time zero.
    pub fn new() -> Self {
        FlowNetwork {
            caps: Vec::new(),
            res_users: Vec::new(),
            dirty: Vec::new(),
            dirty_flag: Vec::new(),
            res_epoch: Vec::new(),
            ids: Vec::new(),
            remaining: Vec::new(),
            total: Vec::new(),
            bound: Vec::new(),
            rate: Vec::new(),
            touched: Vec::new(),
            generation: Vec::new(),
            act_epoch: Vec::new(),
            usage_range: Vec::new(),
            free_slots: Vec::new(),
            slot_of: HashMap::default(),
            live: 0,
            arena: Vec::new(),
            arena_live: 0,
            live_by_id: Vec::new(),
            live_stale: 0,
            next_activity: 0,
            last_update: Time::ZERO,
            rates_stale: false,
            recomputes: 0,
            scratch: fairshare::Workspace::new(),
            completions: BinaryHeap::new(),
            visit_epoch: 0,
            bfs_stack: Vec::new(),
            comp: Vec::new(),
            packed: Vec::new(),
            rates_buf: Vec::new(),
            harvest_buf: Vec::new(),
            last_solve: (0, SolveKind::Full),
        }
    }

    /// Adds a resource with the given capacity. Capacities are in
    /// work-units per second (flop/s, byte/s, ...).
    pub fn add_resource(&mut self, capacity: f64) -> ResourceId {
        assert!(capacity >= 0.0 && !capacity.is_nan(), "invalid capacity");
        let id = ResourceId(self.caps.len() as u32);
        self.caps.push(capacity);
        self.res_users.push(Vec::new());
        self.dirty_flag.push(false);
        self.res_epoch.push(0);
        id
    }

    /// Current capacity of a resource.
    pub fn capacity(&self, id: ResourceId) -> f64 {
        self.caps[id.0 as usize]
    }

    /// Changes a resource's capacity (e.g. node failure or frequency
    /// scaling). The caller must have advanced the network to the current
    /// time first; rates become stale.
    pub fn set_capacity(&mut self, id: ResourceId, capacity: f64) {
        assert!(capacity >= 0.0 && !capacity.is_nan(), "invalid capacity");
        let idx = id.0 as usize;
        self.caps[idx] = capacity;
        self.mark_dirty(idx);
    }

    /// Number of resources.
    pub fn resource_count(&self) -> usize {
        self.caps.len()
    }

    /// Number of live activities.
    pub fn activity_count(&self) -> usize {
        self.live
    }

    /// How many times the sharing fixed point has been recomputed (a cost
    /// metric surfaced by the simulator-performance experiments).
    pub fn recompute_count(&self) -> u64 {
        self.recomputes
    }

    /// `(activities solved, how)` for the most recent
    /// [`recompute`](Self::recompute) that actually ran: a partial solve
    /// covered only the dirty connected component; a full solve covered
    /// every live activity (see [`SolveKind`]).
    pub fn last_solve(&self) -> (usize, SolveKind) {
        self.last_solve
    }

    fn mark_dirty(&mut self, res: usize) {
        if !self.dirty_flag[res] {
            self.dirty_flag[res] = true;
            self.dirty.push(res);
        }
        self.rates_stale = true;
    }

    /// Remaining work of slot `si` extrapolated from its last touch to `now`.
    fn remaining_at(&self, si: usize, now: Time) -> f64 {
        let dt = now - self.touched[si];
        if dt > 0.0 && self.rate[si] > 0.0 {
            (self.remaining[si] - self.rate[si] * dt).max(0.0)
        } else {
            self.remaining[si]
        }
    }

    fn done(&self, si: usize) -> bool {
        self.remaining[si] <= self.total[si] * REL_TOL + ABS_TOL
    }

    /// Predicted completion instant given the slot's current rate and
    /// touch point (which must equal `now` when this is called).
    fn prediction(&self, si: usize, now: Time) -> Option<Time> {
        if self.done(si) {
            Some(now)
        } else if self.rate[si] > 0.0 {
            if self.rate[si].is_finite() {
                Some(now + self.remaining[si] / self.rate[si])
            } else {
                Some(now)
            }
        } else {
            None
        }
    }

    /// Starts an activity. Rates become stale; zero-work activities are
    /// legal and complete at the next harvest.
    pub fn start(&mut self, spec: ActivitySpec) -> ActivityId {
        assert!(spec.work >= 0.0 && !spec.work.is_nan(), "invalid work");
        assert!(spec.bound >= 0.0, "negative bound");
        for &(r, w) in &spec.usages {
            assert!((r.0 as usize) < self.caps.len(), "unknown resource");
            assert!(w > 0.0, "usage weight must be positive");
        }
        let id = self.next_activity;
        self.next_activity += 1;

        // Usages go into the shared arena, contiguous per activity.
        let start = self.arena.len();
        debug_assert!(
            start + spec.usages.len() <= u32::MAX as usize,
            "arena overflow"
        );
        self.arena
            .extend(spec.usages.iter().map(|&(r, w)| (r.0 as usize, w)));
        let len = spec.usages.len() as u32;
        self.arena_live += len as usize;

        // Claim a slot (recycled or fresh) and fill the columns.
        let slot = match self.free_slots.pop() {
            Some(s) => {
                let si = s as usize;
                self.ids[si] = id;
                self.remaining[si] = spec.work;
                self.total[si] = spec.work;
                self.bound[si] = spec.bound;
                self.rate[si] = 0.0;
                self.touched[si] = self.last_update;
                self.generation[si] = 0;
                self.usage_range[si] = (start as u32, len);
                s
            }
            None => {
                let s = self.ids.len() as u32;
                self.ids.push(id);
                self.remaining.push(spec.work);
                self.total.push(spec.work);
                self.bound.push(spec.bound);
                self.rate.push(0.0);
                self.touched.push(self.last_update);
                self.generation.push(0);
                self.act_epoch.push(0);
                self.usage_range.push((start as u32, len));
                s
            }
        };
        let si = slot as usize;
        self.slot_of.insert(id, slot);
        self.live_by_id.push((id, slot));
        self.live += 1;

        if len == 0 {
            // Unconstrained by any resource: the solver would assign the
            // bound; do it directly and skip the re-solve entirely.
            self.rate[si] = spec.bound;
            if let Some(t) = self.prediction(si, self.last_update) {
                self.completions.push(Predicted {
                    time: t,
                    id,
                    slot,
                    generation: 0,
                });
            }
        } else {
            for k in 0..len as usize {
                let (r, _) = self.arena[start + k];
                if self.arena[start..start + k].iter().any(|&(r2, _)| r2 == r) {
                    continue; // duplicate usage of the same resource
                }
                self.res_users[r].push(slot);
                self.mark_dirty(r);
            }
            if self.done(si) {
                // Completes regardless of whatever rate the solver assigns.
                self.completions.push(Predicted {
                    time: self.last_update,
                    id,
                    slot,
                    generation: 0,
                });
            }
        }
        ActivityId(id)
    }

    /// Unlinks a removed activity from the per-resource user lists, frees
    /// its slot and arena range, and dirties the resources it used. The
    /// caller has already removed the `slot_of` entry.
    fn release_slot(&mut self, slot: u32) {
        let si = slot as usize;
        let (start, len) = self.usage_range[si];
        let (start, len) = (start as usize, len as usize);
        for k in 0..len {
            let (r, _) = self.arena[start + k];
            if self.arena[start..start + k].iter().any(|&(r2, _)| r2 == r) {
                continue;
            }
            if let Some(pos) = self.res_users[r].iter().position(|&x| x == slot) {
                self.res_users[r].swap_remove(pos);
            }
            self.mark_dirty(r);
        }
        self.ids[si] = FREE;
        self.free_slots.push(slot);
        self.live -= 1;
        self.live_stale += 1;
        self.arena_live -= len;
        self.maybe_compact_live();
        self.maybe_compact_arena();
    }

    /// Prunes stale `(id, slot)` pairs once they outnumber the live ones;
    /// `retain` preserves id order.
    fn maybe_compact_live(&mut self) {
        if self.live_by_id.len() >= COMPACT_MIN && self.live_stale * 2 > self.live_by_id.len() {
            let ids = &self.ids;
            self.live_by_id
                .retain(|&(id, slot)| ids[slot as usize] == id);
            self.live_stale = 0;
        }
    }

    /// Rewrites the usage arena without dead ranges once dead entries
    /// outnumber live ones; per-slot ranges are updated in place. Amortized
    /// O(1) per removal.
    fn maybe_compact_arena(&mut self) {
        let dead = self.arena.len() - self.arena_live;
        if self.arena.len() < COMPACT_MIN || dead <= self.arena_live {
            return;
        }
        let mut fresh: Vec<(usize, f64)> = Vec::with_capacity(self.arena_live);
        for &(id, slot) in &self.live_by_id {
            let si = slot as usize;
            if self.ids[si] != id {
                continue;
            }
            let (start, len) = self.usage_range[si];
            let new_start = fresh.len() as u32;
            fresh.extend_from_slice(&self.arena[start as usize..(start + len) as usize]);
            self.usage_range[si] = (new_start, len);
        }
        debug_assert_eq!(fresh.len(), self.arena_live);
        self.arena = fresh;
    }

    /// Cancels an activity, returning its remaining work, or `None` if the
    /// id is unknown (already completed or cancelled).
    pub fn cancel(&mut self, id: ActivityId) -> Option<f64> {
        let slot = self.slot_of.remove(&id.0)?;
        let rem = self.remaining_at(slot as usize, self.last_update);
        self.release_slot(slot);
        Some(rem)
    }

    /// Progress of an ongoing activity.
    pub fn progress(&self, id: ActivityId) -> Option<Progress> {
        self.slot_of.get(&id.0).map(|&slot| {
            let si = slot as usize;
            Progress {
                remaining: self.remaining_at(si, self.last_update),
                total: self.total[si],
                rate: self.rate[si],
            }
        })
    }

    /// Moves the clock to `now`. Panics if time runs backward.
    ///
    /// This is O(1): work integration is lazy. Each activity's remaining
    /// work is the exact linear extrapolation from its last touch point, so
    /// nothing needs updating until a rate actually changes.
    pub fn advance_to(&mut self, now: Time) {
        let dt = now - self.last_update;
        assert!(
            dt >= -1e-9,
            "time ran backward: {} -> {}",
            self.last_update,
            now
        );
        self.last_update = self.last_update.max(now);
    }

    /// The smallest forward step distinguishable at the current clock
    /// value. Activities that would finish within it are treated as done —
    /// without this, an activity whose `remaining/rate` underflows the
    /// clock's ulp would predict a completion at exactly "now", make no
    /// progress (dt = 0), and live-lock the simulation.
    fn time_eps(&self) -> f64 {
        1e-9 + self.last_update.as_secs() * 1e-12
    }

    /// Removes and returns all finished activities, in id order.
    ///
    /// Pops completion-heap entries predicted at or before "now" (plus the
    /// live-lock epsilon); stale entries encountered on the way are
    /// discarded. Predictions are exact while an activity's rate is
    /// unchanged, so no full scan is ever needed.
    pub fn harvest_completed(&mut self) -> Vec<ActivityId> {
        let horizon = self.last_update + self.time_eps();
        let mut done = std::mem::take(&mut self.harvest_buf);
        done.clear();
        while let Some(&top) = self.completions.peek() {
            let si = top.slot as usize;
            let alive = self.ids[si] == top.id && self.generation[si] == top.generation;
            if !alive {
                self.completions.pop();
                continue;
            }
            if top.time > horizon {
                break;
            }
            self.completions.pop();
            done.push((top.id, top.slot));
        }
        done.sort_unstable();
        done.dedup();
        let mut out = Vec::with_capacity(done.len());
        for &(id, slot) in &done {
            if self.ids[slot as usize] != id {
                continue;
            }
            self.slot_of.remove(&id);
            self.release_slot(slot);
            out.push(ActivityId(id));
        }
        done.clear();
        self.harvest_buf = done;
        out
    }

    /// Pushes every live slot onto `out` in ascending activity-id order
    /// (the deterministic full-solve iteration).
    fn collect_live_sorted(&self, out: &mut Vec<u32>) {
        out.extend(
            self.live_by_id
                .iter()
                .filter(|&&(id, slot)| self.ids[slot as usize] == id)
                .map(|&(_, slot)| slot),
        );
    }

    /// Collects into `comp` every live slot connected to a dirty resource.
    /// Returns `false` (with `comp` incomplete) as soon as the walk has
    /// reached more than half the live activities: a giant component would
    /// visit most of the network anyway, and the full solve's slot list is
    /// free and pre-sorted from `live_by_id`.
    fn walk_dirty_components(&mut self, comp: &mut Vec<u32>) -> bool {
        self.visit_epoch += 1;
        let epoch = self.visit_epoch;
        let mut stack = std::mem::take(&mut self.bfs_stack);
        stack.clear();
        // `dirty` holds each resource once, so every seed is unvisited.
        for &r in &self.dirty {
            self.res_epoch[r] = epoch;
            stack.push(r);
        }
        let mut contained = true;
        while let Some(r) = stack.pop() {
            for i in 0..self.res_users[r].len() {
                let slot = self.res_users[r][i];
                let si = slot as usize;
                if self.act_epoch[si] == epoch {
                    continue;
                }
                self.act_epoch[si] = epoch;
                comp.push(slot);
                let (start, len) = self.usage_range[si];
                for &(r2, _) in &self.arena[start as usize..(start + len) as usize] {
                    if self.res_epoch[r2] != epoch {
                        self.res_epoch[r2] = epoch;
                        stack.push(r2);
                    }
                }
            }
            if comp.len() * 2 > self.live {
                contained = false;
                break;
            }
        }
        stack.clear();
        self.bfs_stack = stack;
        contained
    }

    /// Re-solves the sharing fixed point if anything changed since the last
    /// solve. Returns whether a recompute happened.
    ///
    /// Only the connected component(s) of the resource↔activity graph
    /// reachable from resources dirtied since the last solve are re-solved;
    /// rates outside stay frozen. A dirty set covering at least half the
    /// resources, or a walk reaching more than half the live activities,
    /// falls back to solving every live activity — bit-identical rates
    /// either way. Activities whose rate comes back unchanged are neither
    /// re-integrated nor re-inserted into the completion heap.
    pub fn recompute(&mut self) -> bool {
        if !self.rates_stale {
            return false;
        }
        self.rates_stale = false;
        self.recomputes += 1;

        let mut comp = std::mem::take(&mut self.comp);
        comp.clear();
        // A dirty set spanning half the platform would walk nearly
        // everything: skip the walk and solve in full.
        let walk = self.dirty.len() * 2 < self.caps.len();
        let kind = if walk && self.walk_dirty_components(&mut comp) {
            let ids = &self.ids;
            comp.sort_unstable_by_key(|&s| ids[s as usize]);
            SolveKind::Partial
        } else {
            comp.clear();
            self.collect_live_sorted(&mut comp);
            SolveKind::Full
        };
        for &r in &self.dirty {
            self.dirty_flag[r] = false;
        }
        self.dirty.clear();
        self.last_solve = (comp.len(), kind);

        if !comp.is_empty() {
            // Solve the affected set against the full capacity vector. The
            // component closure guarantees no activity outside `comp` uses
            // any resource a member uses, so the restricted solve is exact.
            self.packed.clear();
            for &s in &comp {
                let si = s as usize;
                let (start, len) = self.usage_range[si];
                self.packed.push((start, len, self.bound[si]));
            }
            fairshare::solve_packed(
                &mut self.scratch,
                &self.caps,
                &self.arena,
                &self.packed,
                &mut self.rates_buf,
            );
            let now = self.last_update;
            for (k, &s) in comp.iter().enumerate() {
                let si = s as usize;
                let rate = self.rates_buf[k];
                #[allow(clippy::float_cmp)] // deterministic solver: bit-equal means unchanged
                if self.rate[si] == rate {
                    continue;
                }
                let dt = now - self.touched[si];
                if dt > 0.0 && self.rate[si] > 0.0 {
                    self.remaining[si] = (self.remaining[si] - self.rate[si] * dt).max(0.0);
                }
                self.touched[si] = now;
                self.rate[si] = rate;
                self.generation[si] += 1;
                if let Some(t) = self.prediction(si, now) {
                    self.completions.push(Predicted {
                        time: t,
                        id: self.ids[si],
                        slot: s,
                        generation: self.generation[si],
                    });
                }
            }
        }
        comp.clear();
        self.comp = comp;
        self.maybe_compact_completions();
        true
    }

    /// Rebuilds the completion heap without stale entries once they
    /// outnumber the live activities, bounding heap growth under churn.
    fn maybe_compact_completions(&mut self) {
        if self.completions.len() >= COMPACT_MIN && self.completions.len() > 2 * self.live {
            let entries = std::mem::take(&mut self.completions).into_vec();
            let rebuilt: BinaryHeap<Predicted> = entries
                .into_iter()
                .filter(|e| {
                    let si = e.slot as usize;
                    self.ids[si] == e.id && self.generation[si] == e.generation
                })
                .collect();
            self.completions = rebuilt;
        }
    }

    /// Predicts the earliest completion instant using current rates.
    /// Returns `None` if no activity can finish (no activities, or all
    /// stalled at rate 0). Finished-but-unharvested activities complete
    /// "now". Takes `&mut self` to prune stale heap entries in passing.
    pub fn next_completion(&mut self) -> Option<Time> {
        debug_assert!(!self.rates_stale, "next_completion with stale rates");
        while let Some(&top) = self.completions.peek() {
            let si = top.slot as usize;
            let alive = self.ids[si] == top.id && self.generation[si] == top.generation;
            if alive {
                // An entry can sit in the past when the clock moved beyond
                // the prediction before a harvest: it completes "now".
                return Some(top.time.max(self.last_update));
            }
            self.completions.pop();
        }
        None
    }

    /// Ids of activities currently stalled at rate zero (used for deadlock
    /// diagnostics), in id order.
    pub fn stalled(&self) -> Vec<ActivityId> {
        self.live_by_id
            .iter()
            .filter(|&&(id, slot)| {
                let si = slot as usize;
                self.ids[si] == id && self.rate[si] == 0.0 && !self.done(si)
            })
            .map(|&(id, _)| ActivityId(id))
            .collect()
    }

    /// The time up to which the network has been integrated.
    pub fn last_update(&self) -> Time {
        self.last_update
    }

    /// Number of physical completion-heap entries, including stale ones
    /// (bounded-growth tests).
    #[cfg(test)]
    pub(crate) fn prediction_backlog(&self) -> usize {
        self.completions.len()
    }

    /// Physical usage-arena length including dead entries (bounded-growth
    /// tests for the CSR compaction).
    #[cfg(test)]
    pub(crate) fn arena_backlog(&self) -> usize {
        self.arena.len()
    }

    /// Physical `live_by_id` length including stale pairs (bounded-growth
    /// tests for the lazy pruning).
    #[cfg(test)]
    pub(crate) fn live_list_backlog(&self) -> usize {
        self.live_by_id.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> Time {
        Time::from_secs(s)
    }

    #[test]
    fn single_activity_finishes_at_work_over_capacity() {
        let mut net = FlowNetwork::new();
        let cpu = net.add_resource(10.0);
        let a = net.start(ActivitySpec::new(100.0, [cpu]));
        net.recompute();
        assert_eq!(net.next_completion(), Some(t(10.0)));
        net.advance_to(t(10.0));
        let done = net.harvest_completed();
        assert_eq!(done, vec![a]);
    }

    #[test]
    fn two_activities_share_then_speed_up() {
        let mut net = FlowNetwork::new();
        let cpu = net.add_resource(10.0);
        let _a = net.start(ActivitySpec::new(100.0, [cpu]));
        let _b = net.start(ActivitySpec::new(50.0, [cpu]));
        net.recompute();
        // Both at rate 5; b finishes at t=10.
        assert_eq!(net.next_completion(), Some(t(10.0)));
        net.advance_to(t(10.0));
        assert_eq!(net.harvest_completed().len(), 1);
        net.recompute();
        // a has 50 left, now alone at rate 10: finishes at t=15.
        assert_eq!(net.next_completion(), Some(t(15.0)));
        net.advance_to(t(15.0));
        assert_eq!(net.harvest_completed().len(), 1);
        assert_eq!(net.activity_count(), 0);
    }

    #[test]
    fn capacity_change_rescales_progress() {
        let mut net = FlowNetwork::new();
        let cpu = net.add_resource(10.0);
        let _a = net.start(ActivitySpec::new(100.0, [cpu]));
        net.recompute();
        net.advance_to(t(5.0));
        net.set_capacity(cpu, 5.0);
        net.recompute();
        // 50 work left at rate 5 → 10 more seconds.
        assert_eq!(net.next_completion(), Some(t(15.0)));
    }

    #[test]
    fn cancel_returns_remaining_work() {
        let mut net = FlowNetwork::new();
        let cpu = net.add_resource(10.0);
        let a = net.start(ActivitySpec::new(100.0, [cpu]));
        net.recompute();
        net.advance_to(t(4.0));
        let rem = net.cancel(a).unwrap();
        assert!((rem - 60.0).abs() < 1e-9);
        assert!(net.cancel(a).is_none());
    }

    #[test]
    fn zero_work_completes_immediately() {
        let mut net = FlowNetwork::new();
        let cpu = net.add_resource(10.0);
        let a = net.start(ActivitySpec::new(0.0, [cpu]));
        net.recompute();
        assert_eq!(net.next_completion(), Some(Time::ZERO));
        assert_eq!(net.harvest_completed(), vec![a]);
    }

    #[test]
    fn stalled_activity_reports_no_completion() {
        let mut net = FlowNetwork::new();
        let cpu = net.add_resource(0.0);
        let a = net.start(ActivitySpec::new(10.0, [cpu]));
        net.recompute();
        assert_eq!(net.next_completion(), None);
        assert_eq!(net.stalled(), vec![a]);
        // Raising capacity unstalls it.
        net.set_capacity(cpu, 10.0);
        net.recompute();
        assert_eq!(net.next_completion(), Some(t(1.0)));
    }

    #[test]
    fn bounded_activity_uses_bound_not_capacity() {
        let mut net = FlowNetwork::new();
        let link = net.add_resource(100.0);
        let _f = net.start(ActivitySpec::new(10.0, [link]).with_bound(1.0));
        net.recompute();
        assert_eq!(net.next_completion(), Some(t(10.0)));
    }

    #[test]
    fn pure_delay_activity_via_bound() {
        // An activity with no resources and a bound acts as a timed delay:
        // work 5 at bound 1 → 5 seconds.
        let mut net = FlowNetwork::new();
        let _d = net.start(ActivitySpec::new(5.0, []).with_bound(1.0));
        net.recompute();
        assert_eq!(net.next_completion(), Some(t(5.0)));
    }

    #[test]
    #[should_panic]
    fn time_backwards_panics() {
        let mut net = FlowNetwork::new();
        net.advance_to(t(5.0));
        net.advance_to(t(1.0));
    }

    #[test]
    fn harvest_is_in_id_order() {
        let mut net = FlowNetwork::new();
        let cpu = net.add_resource(10.0);
        let a = net.start(ActivitySpec::new(0.0, [cpu]));
        let b = net.start(ActivitySpec::new(0.0, [cpu]));
        net.recompute();
        assert_eq!(net.harvest_completed(), vec![a, b]);
    }

    // -----------------------------------------------------------------
    // Incremental-engine specifics
    // -----------------------------------------------------------------

    #[test]
    fn lazy_integration_matches_eager_many_small_steps() {
        // Advancing in many tiny steps must agree with one big jump: the
        // lazy extrapolation is a single multiply, the eager path was a
        // chain of subtractions — both within float tolerance.
        let mut a = FlowNetwork::new();
        let ra = a.add_resource(7.0);
        let ia = a.start(ActivitySpec::new(100.0, [ra]));
        a.recompute();
        for k in 1..=1000 {
            a.advance_to(t(k as f64 * 0.01));
        }
        let mut b = FlowNetwork::new();
        let rb = b.add_resource(7.0);
        let ib = b.start(ActivitySpec::new(100.0, [rb]));
        b.recompute();
        b.advance_to(t(10.0));
        let pa = a.progress(ia).unwrap().remaining;
        let pb = b.progress(ib).unwrap().remaining;
        assert!((pa - pb).abs() < 1e-9, "{pa} vs {pb}");
        assert!((pa - 30.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_component_start_preserves_other_rates_and_predictions() {
        let mut net = FlowNetwork::new();
        let r0 = net.add_resource(10.0);
        let r1 = net.add_resource(10.0);
        let r2 = net.add_resource(10.0);
        let r3 = net.add_resource(10.0);
        // Spare resources so the dirty set stays well under the full-solve
        // fallback threshold and the component walk is actually exercised.
        for _ in 0..8 {
            net.add_resource(1.0);
        }
        let a = net.start(ActivitySpec::new(100.0, [r0]));
        let _b = net.start(ActivitySpec::new(40.0, [r1]));
        net.recompute();
        assert_eq!(net.next_completion(), Some(t(4.0)));
        net.advance_to(t(1.0));
        // Churn in a different component must not disturb a's trajectory.
        let c = net.start(ActivitySpec::new(30.0, [r2]).with_usage(r3, 1.0));
        net.recompute();
        let pa = net.progress(a).unwrap();
        assert!((pa.rate - 10.0).abs() < 1e-12);
        assert!((pa.remaining - 90.0).abs() < 1e-9);
        let pc = net.progress(c).unwrap();
        assert!((pc.rate - 10.0).abs() < 1e-12);
        // Earliest completion is still b at t=4 (c finishes at 1+3=4 too;
        // tie broken deterministically, both harvested together).
        net.advance_to(t(4.0));
        let done = net.harvest_completed();
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn cross_component_merge_resolves_jointly() {
        // Two activities on separate resources, then a third bridging both:
        // the bridge links the components, and the re-solve must cover all
        // three.
        let mut net = FlowNetwork::new();
        let r0 = net.add_resource(10.0);
        let r1 = net.add_resource(10.0);
        let a = net.start(ActivitySpec::new(100.0, [r0]));
        let b = net.start(ActivitySpec::new(100.0, [r1]));
        net.recompute();
        assert!((net.progress(a).unwrap().rate - 10.0).abs() < 1e-12);
        let c = net.start(ActivitySpec::new(100.0, [r0]).with_usage(r1, 1.0));
        net.recompute();
        // Max-min over the joint system: a=5, b=5, c=5.
        for id in [a, b, c] {
            assert!((net.progress(id).unwrap().rate - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn completion_heap_stays_bounded_under_churn() {
        let mut net = FlowNetwork::new();
        let cpu = net.add_resource(10.0);
        let mut live = Vec::new();
        for i in 0..2000 {
            let id = net.start(ActivitySpec::new(1e6, [cpu]));
            live.push(id);
            if live.len() > 4 {
                let victim = live.remove(i % 4);
                net.cancel(victim);
            }
            net.recompute();
        }
        assert!(
            net.prediction_backlog() <= 2 * net.activity_count() + COMPACT_MIN,
            "completion heap grew unboundedly: {} entries for {} activities",
            net.prediction_backlog(),
            net.activity_count()
        );
    }

    #[test]
    fn repeated_capacity_changes_keep_predictions_exact() {
        let mut net = FlowNetwork::new();
        let cpu = net.add_resource(10.0);
        let _a = net.start(ActivitySpec::new(100.0, [cpu]));
        net.recompute();
        net.advance_to(t(2.0)); // 80 left
        net.set_capacity(cpu, 20.0);
        net.recompute();
        assert_eq!(net.next_completion(), Some(t(6.0))); // 80/20 = 4 more
        net.advance_to(t(3.0)); // 60 left
        net.set_capacity(cpu, 6.0);
        net.recompute();
        assert_eq!(net.next_completion(), Some(t(13.0))); // 60/6 = 10 more
        net.advance_to(t(13.0));
        assert_eq!(net.harvest_completed().len(), 1);
    }

    #[test]
    fn unchanged_rate_keeps_old_prediction_valid() {
        // Starting and cancelling an activity in a *different* component
        // leaves the first component's heap entries valid (generation
        // untouched) and predictions correct.
        let mut net = FlowNetwork::new();
        let r0 = net.add_resource(10.0);
        let r1 = net.add_resource(10.0);
        for _ in 0..8 {
            net.add_resource(1.0); // keep the dirty set below the fallback
        }
        let a = net.start(ActivitySpec::new(100.0, [r0]));
        net.recompute();
        for _ in 0..10 {
            let tmp = net.start(ActivitySpec::new(1e9, [r1]));
            net.recompute();
            net.cancel(tmp);
            net.recompute();
        }
        assert_eq!(net.next_completion(), Some(t(10.0)));
        net.advance_to(t(10.0));
        assert_eq!(net.harvest_completed(), vec![a]);
    }

    // -----------------------------------------------------------------
    // Dense-id SoA layout specifics
    // -----------------------------------------------------------------

    #[test]
    fn slot_reuse_is_invisible_to_handles() {
        // Cancel and restart in a tight loop: slots recycle, ids stay
        // unique, and stale handles (including heap entries from the old
        // occupant) never resolve against the new occupant.
        let mut net = FlowNetwork::new();
        let cpu = net.add_resource(10.0);
        let first = net.start(ActivitySpec::new(100.0, [cpu]));
        net.recompute();
        net.cancel(first).unwrap();
        let second = net.start(ActivitySpec::new(50.0, [cpu]));
        net.recompute();
        // The recycled slot must answer for the new id only.
        assert!(net.progress(first).is_none());
        let p = net.progress(second).unwrap();
        assert_eq!(p.total, 50.0);
        assert!((p.rate - 10.0).abs() < 1e-12);
        // The old occupant's heap entry (t=10) is stale; the real
        // completion is the new activity's t=5.
        assert_eq!(net.next_completion(), Some(t(5.0)));
        net.advance_to(t(5.0));
        assert_eq!(net.harvest_completed(), vec![second]);
    }

    #[test]
    fn arena_and_live_list_stay_bounded_under_churn() {
        let mut net = FlowNetwork::new();
        let r: Vec<ResourceId> = (0..8).map(|_| net.add_resource(10.0)).collect();
        let mut live = Vec::new();
        for i in 0..5000 {
            let spec = ActivitySpec::new(1e6, [r[i % 8]]).with_usage(r[(i + 3) % 8], 1.5);
            live.push(net.start(spec));
            if live.len() > 16 {
                let victim = live.remove(i % 16);
                net.cancel(victim);
            }
            net.recompute();
        }
        let live_usages = 2 * net.activity_count();
        assert!(
            net.arena_backlog() <= 2 * live_usages + COMPACT_MIN,
            "arena grew unboundedly: {} entries for {} live usages",
            net.arena_backlog(),
            live_usages
        );
        assert!(
            net.live_list_backlog() <= 2 * net.activity_count() + COMPACT_MIN,
            "live list grew unboundedly: {} entries for {} live",
            net.live_list_backlog(),
            net.activity_count()
        );
    }

    #[test]
    fn sustained_full_fallbacks_never_stop_partial_solves() {
        // However long one shared resource keeps forcing full solves, the
        // next change in a disjoint component is still solved on its own.
        let mut net = FlowNetwork::new();
        let r: Vec<ResourceId> = (0..16).map(|_| net.add_resource(10.0)).collect();
        for _ in 0..4 {
            net.start(ActivitySpec::new(1e9, [r[0]]));
        }
        for k in 0..100 {
            net.set_capacity(r[0], 10.0 + k as f64);
            net.recompute();
            // The walk from r0 reaches every live activity: giant fallback.
            assert_eq!(net.last_solve(), (4, SolveKind::Full));
        }
        net.start(ActivitySpec::new(1e9, [r[1]]));
        net.recompute();
        assert_eq!(net.last_solve(), (1, SolveKind::Partial));
    }
}
