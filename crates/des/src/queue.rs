//! Deterministic future-event list.
//!
//! A binary min-heap keyed on `(time, sequence)`. The monotonically
//! increasing sequence number breaks ties between events scheduled for the
//! same instant, so two runs of the same simulation always pop events in the
//! same order — a property every reproducible experiment in this workspace
//! relies on.
//!
//! ## Key packing
//!
//! The `(time, seq)` pair is packed into a single `u128` — the IEEE-754 bit
//! pattern of the (non-negative, finite) time in the high 64 bits, the
//! sequence number in the low 64. For non-negative floats the bit pattern
//! is order-isomorphic to the value, so one integer comparison replaces a
//! `total_cmp` plus a tie-break branch in every heap sift — the comparator
//! is the single hottest instruction stream in a discrete-event simulator.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashSet;

use crate::hash::U64FastBuild;
use crate::time::Time;

/// Identifier of a scheduled entry, usable to cancel it lazily.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EntryId(u64);

#[cfg(test)]
impl EntryId {
    pub(crate) fn test_raw(seq: u64) -> Self {
        EntryId(seq)
    }
}

/// Packs a non-negative finite time and a sequence number into one
/// lexicographically ordered integer key.
#[inline]
fn pack_key(time: Time, seq: u64) -> u128 {
    let secs = time.as_secs();
    debug_assert!(
        secs >= 0.0 && secs.is_finite(),
        "event time must be finite and non-negative: {secs}"
    );
    ((secs.to_bits() as u128) << 64) | seq as u128
}

#[inline]
fn key_time(key: u128) -> Time {
    Time::from_secs(f64::from_bits((key >> 64) as u64))
}

#[inline]
fn key_seq(key: u128) -> u64 {
    key as u64
}

struct Entry<E> {
    key: u128,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first. The
        // packed key makes (time, seq) one integer compare.
        other.key.cmp(&self.key)
    }
}

/// The future-event list.
///
/// Cancellation is lazy: cancelled entries stay in the heap and are skipped
/// on pop. This keeps both `push` and `cancel` O(log n) / O(1) while popping
/// remains amortized O(log n).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Sequence numbers scheduled but not yet popped nor cancelled. Keyed
    /// by a cheap multiplicative hasher — seqs are dense and trusted.
    pending: HashSet<u64, U64FastBuild>,
    compactions: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            pending: HashSet::default(),
            compactions: 0,
        }
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// Events at equal times fire in insertion order.
    pub fn push(&mut self, time: Time, payload: E) -> EntryId {
        debug_assert!(time.is_finite(), "cannot schedule an event at infinity");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            key: pack_key(time, seq),
            payload,
        });
        self.pending.insert(seq);
        EntryId(seq)
    }

    /// Cancels a previously scheduled entry. Returns `true` if the entry was
    /// still pending (i.e. not yet popped and not already cancelled).
    /// Cancelling an already-fired or unknown id is a harmless no-op.
    pub fn cancel(&mut self, id: EntryId) -> bool {
        let removed = self.pending.remove(&id.0);
        if removed {
            self.maybe_compact();
        }
        removed
    }

    /// Rebuilds the heap without cancelled entries once they outnumber the
    /// live ones. Without this, a cancel-heavy workload (e.g. a flow timer
    /// re-targeted on every recompute) grows the heap without bound even
    /// though `len()` stays small. The rebuild is O(n) and amortizes to
    /// O(1) per cancel.
    fn maybe_compact(&mut self) {
        const COMPACT_MIN: usize = 64;
        if self.heap.len() >= COMPACT_MIN && self.heap.len() > 2 * self.pending.len() {
            let entries = std::mem::take(&mut self.heap).into_vec();
            let pending = &self.pending;
            self.heap = entries
                .into_iter()
                .filter(|e| pending.contains(&key_seq(e.key)))
                .collect();
            self.compactions += 1;
        }
    }

    /// Number of physical heap slots, including lazily cancelled entries —
    /// strictly an observability hook for bounded-growth tests.
    pub fn physical_len(&self) -> usize {
        self.heap.len()
    }

    /// Number of cancelled entries still occupying heap slots (awaiting a
    /// pop-skip or the next compaction) — an observability hook surfaced as
    /// the `des.queue.cancelled_entries` gauge.
    pub fn cancelled_len(&self) -> usize {
        self.heap.len() - self.pending.len()
    }

    /// How many times the heap has been rebuilt to shed cancelled entries —
    /// an observability hook (telemetry counter `des.queue.compactions`).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Pops the earliest live entry.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.skip_cancelled();
        let entry = self.heap.pop()?;
        self.pending.remove(&key_seq(entry.key));
        Some((key_time(entry.key), entry.payload))
    }

    /// Number of live (non-cancelled, non-popped) entries.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    fn skip_cancelled(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.pending.contains(&key_seq(top.key)) {
                break;
            }
            self.heap.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> Time {
        Time::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), "c");
        q.push(t(1.0), "a");
        q.push(t(2.0), "b");
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        assert_eq!(q.pop(), Some((t(2.0), "b")));
        assert_eq!(q.pop(), Some((t(3.0), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn key_packing_roundtrips_time() {
        // The packed key must reproduce the exact scheduled time bit for
        // bit, including subnormal-adjacent and large values.
        for &s in &[0.0, 1e-300, 1e-9, 0.1, 1.0, 1e6, 1e300] {
            let key = pack_key(t(s), 42);
            assert_eq!(key_time(key), t(s));
            assert_eq!(key_seq(key), 42);
        }
    }

    #[test]
    fn key_packing_orders_like_time_then_seq() {
        let samples = [0.0, 1e-12, 0.5, 1.0, 2.0, 1e9];
        for &a in &samples {
            for &b in &samples {
                for (sa, sb) in [(0u64, 1u64), (1, 0), (5, 5)] {
                    let ka = pack_key(t(a), sa);
                    let kb = pack_key(t(b), sb);
                    let expect = (a, sa).partial_cmp(&(b, sb)).unwrap();
                    assert_eq!(ka.cmp(&kb), expect, "a={a} b={b} sa={sa} sb={sb}");
                }
            }
        }
    }

    #[test]
    fn cancel_skips_entry() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), "a");
        q.push(t(2.0), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.cancelled_len(), 1);
        assert_eq!(q.pop(), Some((t(2.0), "b")));
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EntryId::test_raw(42)));
    }

    #[test]
    fn cancel_heavy_workload_keeps_heap_bounded() {
        // A timer that is re-targeted on every event: push + cancel in a
        // tight loop. The physical heap must stay bounded by the live count
        // (plus the compaction threshold), not grow with the total number
        // of pushes.
        let mut q = EventQueue::new();
        let mut live = Vec::new();
        for i in 0..10_000 {
            let id = q.push(t(i as f64), i);
            live.push(id);
            if live.len() > 8 {
                let victim = live.remove(i % 8);
                assert!(q.cancel(victim));
            }
            assert!(
                q.physical_len() <= 2 * q.len().max(32) + 1,
                "heap grew unboundedly: {} physical for {} live after {} pushes",
                q.physical_len(),
                q.len(),
                i + 1
            );
        }
        assert_eq!(q.len(), live.len());
        assert!(q.compactions() > 0, "compaction never ran");
    }

    #[test]
    fn compaction_preserves_pop_order() {
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        for i in 0..500 {
            let id = q.push(t((997 * i % 500) as f64), i);
            if i % 5 == 0 {
                keep.push((997 * i % 500, i));
            } else {
                q.cancel(id);
            }
        }
        keep.sort_unstable();
        for (time, payload) in keep {
            assert_eq!(q.pop(), Some((t(time as f64), payload)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_tracks_live_entries() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.push(t(1.0), 1);
        q.push(t(2.0), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.cancelled_len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
