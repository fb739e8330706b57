#![warn(missing_docs)]

//! # telemetry — simulator-internals metrics for the ElastiSim reproduction
//!
//! The simulator's outputs (Report, CSVs, event traces) describe the
//! *simulated* system; this crate measures the *simulator itself*: how long
//! flow re-solves take, how large dirty components get, what a scheduler
//! invocation costs per transport, how deep the event queue runs. That data
//! steers performance work and feeds the Chrome-trace timeline exporter.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero cost when disabled.** [`Telemetry`] is a cheap cloneable handle
//!    around `Option<Arc<Inner>>`. The disabled handle (`Telemetry::default()`)
//!    is `None`: every recording call is a branch on a niche-optimized
//!    pointer and returns immediately — no clocks read, no allocation, no
//!    locking. Simulation results must be byte-identical either way, so no
//!    recorded value may ever flow back into simulation decisions.
//! 2. **No allocation per sample when enabled.** Metric names are
//!    `&'static str`; histograms use fixed log-scale buckets
//!    (`[u64; 64]`), so the steady state after the first touch of each
//!    metric is a map lookup plus integer arithmetic.
//! 3. **`Send` handles.** The simulation itself stays single-threaded, but
//!    the campaign runtime moves whole runs across worker threads, so the
//!    handle is `Arc<Mutex<_>>`-based. Locks are uncontended in practice
//!    (one run owns its registry); the enabled path pays one atomic
//!    lock/unlock per sample. Lock poisoning is deliberately forgiven —
//!    a panicking run must not wedge a registry another thread shares.
//!
//! Wall-clock measurements ([`Span`], [`Telemetry::observe_since`]) use
//! [`std::time::Instant`] and are inherently nondeterministic; they are
//! confined to the metrics snapshot and never enter the simulation event
//! stream. The timeline buffer, by contrast, records *simulated* time
//! and deterministic detail strings only — it is what the Chrome-trace
//! exporter merges into the per-node timeline.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use serde::{Serialize, Serializer, Value};

pub mod log;
pub mod prom;

/// Number of histogram buckets. Base-2 buckets starting at [`BUCKET_MIN`]
/// span `1e-9 * 2^64 ≈ 1.8e10`, covering nanoseconds to centuries for time
/// histograms and 1..~1.8e10 for value histograms with ≤ 2x relative error.
pub const BUCKETS: usize = 64;

/// Lower edge of the first histogram bucket (1 ns for time histograms).
pub const BUCKET_MIN: f64 = 1e-9;

/// A fixed-size log-scale histogram: 64 base-2 buckets from [`BUCKET_MIN`].
///
/// Bucket `i` covers `[BUCKET_MIN * 2^i, BUCKET_MIN * 2^(i+1))`; values
/// below `BUCKET_MIN` land in bucket 0 and values past the last edge in
/// bucket 63. Exact `count`/`sum`/`min`/`max` are tracked alongside, so
/// means are exact and only quantiles pay the ≤ 2x bucket error.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// The bucket a value falls into: `floor(log2(v / BUCKET_MIN))`, clamped.
pub fn bucket_index(value: f64) -> usize {
    if value.is_nan() || value <= BUCKET_MIN {
        // NaN, negatives, zero, and subnormal-small all land in bucket 0.
        return 0;
    }
    let ratio = value / BUCKET_MIN;
    // `ratio` is > 1 (normal or +inf), so its biased exponent field IS
    // floor(log2(ratio)) + 1023 — a couple of integer ops instead of a
    // libm `log2` call, which matters because `record` sits on hot loops.
    let idx = ((ratio.to_bits() >> 52) & 0x7ff) as usize - 1023;
    idx.min(BUCKETS - 1)
}

/// Upper edge of bucket `i`: `BUCKET_MIN * 2^(i+1)`.
pub fn bucket_upper_bound(i: usize) -> f64 {
    BUCKET_MIN * f64::powi(2.0, i as i32 + 1)
}

impl LogHistogram {
    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Approximate quantile (`0.0..=1.0`): the upper edge of the first
    /// bucket at which the cumulative count reaches `q * count`, clamped
    /// to the exact observed `[min, max]` range. Empty histograms give 0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one, bucketwise. The merge is
    /// *exact*: bucket counts, `count`, `sum`, `min`, and `max` all combine
    /// losslessly, so quantiles of the merged histogram equal quantiles of
    /// one histogram fed the concatenated observation stream (the bucket
    /// array is order-independent by construction).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        // The empty-histogram sentinels (+inf min, -inf max) are absorbing
        // identities for min/max, so empties merge as no-ops.
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(upper_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_upper_bound(i), n))
            .collect()
    }
}

/// One entry in the deterministic simulated-time timeline buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct TimelineEvent {
    /// Simulated time of the event, seconds.
    pub sim_time: f64,
    /// Static event name (e.g. `"flow.resolve"`).
    pub name: &'static str,
    /// Deterministic detail string (e.g. `"activities=12 full=false"`).
    pub detail: String,
}

/// Bounded buffer of simulated-time instants for the timeline exporter.
///
/// Capped so telemetry on a week-long run cannot exhaust memory: past
/// [`Timeline::CAP`] events the buffer stops growing and counts drops.
#[derive(Default)]
struct Timeline {
    events: Vec<TimelineEvent>,
    dropped: u64,
}

impl Timeline {
    const CAP: usize = 200_000;
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, LogHistogram>,
}

struct Inner {
    registry: Mutex<Registry>,
    timeline: Mutex<Timeline>,
    timeline_on: bool,
}

/// Locks a telemetry mutex, forgiving poisoning: metrics must survive a
/// panicking run (the campaign executor catches the panic and keeps the
/// registry alive for the remaining runs).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Cheap cloneable handle to the metrics registry; `None` inside = disabled.
///
/// All recording methods are no-ops on a disabled handle. Clones share the
/// same registry, so the engine, driver, and flow core can each carry one.
/// The handle is `Send + Sync`, letting a whole simulation run (which owns
/// clones of one) migrate across campaign worker threads.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<Inner>>);

impl Telemetry {
    /// An enabled registry without timeline capture (metrics only).
    pub fn enabled() -> Self {
        Telemetry::with_timeline(false)
    }

    /// An enabled registry; `timeline` additionally buffers simulated-time
    /// instants for the Chrome-trace exporter (costs one `String` each).
    pub fn with_timeline(timeline: bool) -> Self {
        Telemetry(Some(Arc::new(Inner {
            registry: Mutex::new(Registry::default()),
            timeline: Mutex::new(Timeline::default()),
            timeline_on: timeline,
        })))
    }

    /// A disabled handle — every recording call is a single branch.
    pub fn disabled() -> Self {
        Telemetry(None)
    }

    /// Whether this handle records anything. Use to guard argument
    /// construction that would itself cost something (formatting, clocks).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Whether timeline capture is on (implies [`is_enabled`](Self::is_enabled)).
    pub fn timeline_enabled(&self) -> bool {
        self.0.as_ref().is_some_and(|i| i.timeline_on)
    }

    /// Adds `delta` to the named counter.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.0 {
            *lock(&inner.registry).counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Sets the named gauge to its latest value.
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.0 {
            lock(&inner.registry).gauges.insert(name, value);
        }
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.0 {
            lock(&inner.registry)
                .histograms
                .entry(name)
                .or_default()
                .record(value);
        }
    }

    /// Merges a locally-batched histogram into the named registry
    /// histogram in one lock acquisition. Hot loops accumulate into a
    /// plain [`LogHistogram`] (no lock, no map lookup per sample) and
    /// publish once at end of run; the merge is bucketwise exact, so the
    /// result is identical to calling [`observe`](Self::observe) per
    /// sample. Empty batches leave the registry untouched (no key is
    /// created).
    pub fn observe_batch(&self, name: &'static str, batch: &LogHistogram) {
        if batch.count() == 0 {
            return;
        }
        if let Some(inner) = &self.0 {
            lock(&inner.registry)
                .histograms
                .entry(name)
                .or_default()
                .merge(batch);
        }
    }

    /// Records the wall-clock seconds elapsed since `start` into the named
    /// time histogram. `start` is typically `Instant::now()` taken behind
    /// an [`is_enabled`](Self::is_enabled) guard.
    pub fn observe_since(&self, name: &'static str, start: Instant) {
        if self.0.is_some() {
            self.observe(name, start.elapsed().as_secs_f64());
        }
    }

    /// Opens a wall-clock span: the returned guard records elapsed seconds
    /// into the named time histogram when dropped. Disabled handles return
    /// an inert guard without reading the clock.
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            telemetry: self.clone(),
            name,
            start: self.0.as_ref().map(|_| Instant::now()),
        }
    }

    /// Buffers a simulated-time instant for the timeline exporter.
    /// `detail` is built lazily so the disabled path pays nothing.
    pub fn timeline_push(
        &self,
        sim_time: f64,
        name: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        let Some(inner) = &self.0 else { return };
        if !inner.timeline_on {
            return;
        }
        let mut tl = lock(&inner.timeline);
        if tl.events.len() >= Timeline::CAP {
            tl.dropped += 1;
            return;
        }
        tl.events.push(TimelineEvent {
            sim_time,
            name,
            detail: detail(),
        });
    }

    /// Drains the timeline buffer, returning the captured events. The
    /// number of events dropped past the cap is published as the
    /// `telemetry.timeline_dropped` counter.
    pub fn take_timeline(&self) -> Vec<TimelineEvent> {
        let Some(inner) = &self.0 else {
            return Vec::new();
        };
        let mut tl = lock(&inner.timeline);
        if tl.dropped > 0 {
            let dropped = tl.dropped;
            tl.dropped = 0;
            drop(tl);
            self.counter_add("telemetry.timeline_dropped", dropped);
            return std::mem::take(&mut lock(&inner.timeline).events);
        }
        std::mem::take(&mut tl.events)
    }

    /// A point-in-time copy of every metric, ready for serialization.
    /// Disabled handles snapshot as empty.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.0 else {
            return MetricsSnapshot::default();
        };
        let reg = lock(&inner.registry);
        MetricsSnapshot {
            counters: reg
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_owned(), v))
                .collect(),
            gauges: reg
                .gauges
                .iter()
                .map(|(&k, &v)| (k.to_owned(), v))
                .collect(),
            histograms: reg
                .histograms
                .iter()
                .map(|(&k, h)| (k.to_owned(), HistogramSummary::of(h)))
                .collect(),
        }
    }
}

/// Wall-clock timer guard from [`Telemetry::span`]; records on drop.
pub struct Span {
    telemetry: Telemetry,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.telemetry.observe_since(self.name, start);
        }
    }
}

/// Serializable digest of one [`LogHistogram`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Exact sum of observations.
    pub sum: f64,
    /// Exact mean (0 when empty).
    pub mean: f64,
    /// Exact minimum (0 when empty).
    pub min: f64,
    /// Exact maximum (0 when empty).
    pub max: f64,
    /// Approximate median (bucket upper edge, clamped to `[min, max]`).
    pub p50: f64,
    /// Approximate 95th percentile.
    pub p95: f64,
    /// Approximate 99th percentile.
    pub p99: f64,
    /// Non-empty buckets as `(upper_bound, count)` pairs.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSummary {
    /// Digests a [`LogHistogram`] into its serializable summary form.
    pub fn of(h: &LogHistogram) -> Self {
        HistogramSummary {
            count: h.count(),
            sum: h.sum(),
            mean: h.mean(),
            min: h.min(),
            max: h.max(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            buckets: h.nonzero_buckets(),
        }
    }

    /// Reconstructs the exact [`LogHistogram`] this summary was taken from.
    ///
    /// Lossless: the summary keeps every non-zero bucket count plus the
    /// exact `count`/`sum`/`min`/`max`, which is the histogram's entire
    /// state. Bucket indices are recovered from the stored upper bounds by
    /// probing a point strictly inside the bucket (`0.75 * upper_bound`
    /// is the bucket midpoint in log space).
    pub fn to_histogram(&self) -> LogHistogram {
        let mut h = LogHistogram::default();
        for &(le, n) in &self.buckets {
            h.buckets[bucket_index(le * 0.75)] += n;
        }
        h.count = self.count;
        h.sum = self.sum;
        if self.count > 0 {
            h.min = self.min;
            h.max = self.max;
        }
        h
    }

    /// Exact bucketwise merge of two summaries (see [`LogHistogram::merge`]):
    /// quantiles of the result equal quantiles of one histogram fed both
    /// observation streams.
    pub fn merge(&self, other: &HistogramSummary) -> HistogramSummary {
        let mut h = self.to_histogram();
        h.merge(&other.to_histogram());
        HistogramSummary::of(&h)
    }

    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("count".to_owned(), Value::Num(self.count as f64)),
            ("sum".to_owned(), Value::Num(self.sum)),
            ("mean".to_owned(), Value::Num(self.mean)),
            ("min".to_owned(), Value::Num(self.min)),
            ("max".to_owned(), Value::Num(self.max)),
            ("p50".to_owned(), Value::Num(self.p50)),
            ("p95".to_owned(), Value::Num(self.p95)),
            ("p99".to_owned(), Value::Num(self.p99)),
            (
                "buckets".to_owned(),
                Value::Seq(
                    self.buckets
                        .iter()
                        .map(|&(le, n)| {
                            Value::Map(vec![
                                ("le".to_owned(), Value::Num(le)),
                                ("count".to_owned(), Value::Num(n as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A point-in-time copy of the registry, sorted by metric name.
///
/// Serializes as `{"counters": {...}, "gauges": {...}, "histograms": {...}}`
/// with deterministic key order — the `metrics.json` schema documented in
/// the README.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic event counts, by name.
    pub counters: Vec<(String, u64)>,
    /// Latest-value gauges, by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram digests, by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram digest by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Merges another snapshot into this one. The merge policy, by metric
    /// kind:
    ///
    /// * **counters** sum — they are monotonic event counts, so the merged
    ///   value is the fleet-wide total;
    /// * **gauges** keep the **maximum** — gauges record instantaneous
    ///   levels (queue depth, events/sec), and the peak is the only
    ///   aggregate that is both order-independent and meaningful without
    ///   a timestamp per sample;
    /// * **histograms** merge bucketwise and exactly
    ///   ([`HistogramSummary::merge`]): counts/sums/min/max are lossless
    ///   and quantiles stay identical to a single histogram that observed
    ///   every sample.
    ///
    /// Merging is associative and commutative (up to float rounding in
    /// gauge/sum arithmetic), so campaign-level aggregates are independent
    /// of worker count and completion order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let mut counters: BTreeMap<String, u64> =
            std::mem::take(&mut self.counters).into_iter().collect();
        for (k, v) in &other.counters {
            *counters.entry(k.clone()).or_insert(0) += v;
        }
        self.counters = counters.into_iter().collect();

        let mut gauges: BTreeMap<String, f64> =
            std::mem::take(&mut self.gauges).into_iter().collect();
        for (k, v) in &other.gauges {
            gauges
                .entry(k.clone())
                .and_modify(|g| *g = g.max(*v))
                .or_insert(*v);
        }
        self.gauges = gauges.into_iter().collect();

        let mut histograms: BTreeMap<String, HistogramSummary> =
            std::mem::take(&mut self.histograms).into_iter().collect();
        for (k, h) in &other.histograms {
            match histograms.entry(k.clone()) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let merged = e.get().merge(h);
                    e.insert(merged);
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h.clone());
                }
            }
        }
        self.histograms = histograms.into_iter().collect();
    }

    /// Merges an iterator of snapshots into one ([`merge`](Self::merge)).
    pub fn merged<'a>(snaps: impl IntoIterator<Item = &'a MetricsSnapshot>) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for s in snaps {
            out.merge(s);
        }
        out
    }

    /// Renders the snapshot as aligned `key : value` lines for the CLI
    /// summary: counters and gauges verbatim, histograms as
    /// `count/mean/p95/max`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .chain(self.gauges.iter().map(|(k, _)| k.len()))
            .chain(self.histograms.iter().map(|(k, _)| k.len()))
            .max()
            .unwrap_or(0);
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:width$} : {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k:width$} : {v:.3}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{k:width$} : n={} mean={:.3e} p95={:.3e} max={:.3e}\n",
                h.count, h.mean, h.p95, h.max
            ));
        }
        out
    }

    fn to_value(&self) -> Value {
        Value::Map(vec![
            (
                "counters".to_owned(),
                Value::Map(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_owned(),
                Value::Map(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_owned(),
                Value::Map(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Serialize for MetricsSnapshot {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(self.to_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        t.counter_add("c", 1);
        t.gauge_set("g", 1.0);
        t.observe("h", 1.0);
        drop(t.span("s"));
        t.timeline_push(0.0, "x", || unreachable!("detail must not be built"));
        let snap = t.snapshot();
        assert_eq!(snap, MetricsSnapshot::default());
        assert!(t.take_timeline().is_empty());
        assert!(!t.is_enabled());
        assert!(!t.timeline_enabled());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let t = Telemetry::enabled();
        t.counter_add("c", 2);
        t.counter_add("c", 3);
        t.gauge_set("g", 1.0);
        t.gauge_set("g", 7.5);
        let snap = t.snapshot();
        assert_eq!(snap.counter("c"), Some(5));
        assert_eq!(snap.gauge("g"), Some(7.5));
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Telemetry>();
        assert_send_sync::<MetricsSnapshot>();
    }

    #[test]
    fn recording_works_across_threads() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        std::thread::spawn(move || t2.counter_add("cross", 2))
            .join()
            .expect("worker thread");
        t.counter_add("cross", 1);
        assert_eq!(t.snapshot().counter("cross"), Some(3));
    }

    #[test]
    fn clones_share_the_registry() {
        let a = Telemetry::enabled();
        let b = a.clone();
        a.counter_add("c", 1);
        b.counter_add("c", 1);
        assert_eq!(a.snapshot().counter("c"), Some(2));
    }

    #[test]
    fn bucket_boundaries_are_base2_from_1e_minus_9() {
        // Exactly at a bucket's lower edge -> that bucket.
        assert_eq!(bucket_index(BUCKET_MIN), 0);
        assert_eq!(bucket_index(BUCKET_MIN * 2.0), 1);
        assert_eq!(bucket_index(BUCKET_MIN * 4.0), 2);
        // Just below an edge stays in the lower bucket.
        assert_eq!(bucket_index(BUCKET_MIN * 2.0 * (1.0 - 1e-12)), 0);
        // Just above an edge moves up.
        assert_eq!(bucket_index(BUCKET_MIN * 4.0 * (1.0 + 1e-12)), 2);
        // Underflow, zero, negatives, NaN -> bucket 0 (NaN is also ignored
        // by record()).
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(BUCKET_MIN / 2.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        // Overflow clamps to the last bucket.
        assert_eq!(bucket_index(1e30), BUCKETS - 1);
        assert_eq!(bucket_index(f64::INFINITY), BUCKETS - 1);
        // Upper bounds are the next power-of-two edge.
        assert_eq!(bucket_upper_bound(0), BUCKET_MIN * 2.0);
        assert_eq!(bucket_upper_bound(9), BUCKET_MIN * 1024.0);
        // One second (1e9 ns) lands where its upper bound still covers it.
        let i = bucket_index(1.0);
        assert!(bucket_upper_bound(i) > 1.0 && bucket_upper_bound(i) <= 2.0 + 1e-12);
    }

    #[test]
    fn histogram_stats_are_exact_and_quantiles_bucketed() {
        let mut h = LogHistogram::default();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10.0);
        assert_eq!(h.mean(), 2.5);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 4.0);
        // p50 falls in the bucket holding {2.0, 3.0}; its upper edge
        // exceeds max-clamping only at the extremes.
        let p50 = h.quantile(0.5);
        assert!((1.0..=4.0).contains(&p50), "p50={p50}");
        assert_eq!(h.quantile(1.0), 4.0);
        assert_eq!(h.quantile(0.0).max(1.0), h.quantile(0.0).max(1.0));
        // NaN observations are dropped entirely.
        h.record(f64::NAN);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LogHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn span_records_into_time_histogram() {
        let t = Telemetry::enabled();
        {
            let _guard = t.span("op_seconds");
        }
        let snap = t.snapshot();
        let h = snap.histogram("op_seconds").expect("span recorded");
        assert_eq!(h.count, 1);
        assert!(h.max >= 0.0);
    }

    #[test]
    fn timeline_caps_and_counts_drops() {
        let t = Telemetry::with_timeline(true);
        assert!(t.timeline_enabled());
        for i in 0..(Timeline::CAP + 5) {
            t.timeline_push(i as f64, "e", String::new);
        }
        let events = t.take_timeline();
        assert_eq!(events.len(), Timeline::CAP);
        assert_eq!(t.snapshot().counter("telemetry.timeline_dropped"), Some(5));
        // Drained: a second take is empty.
        assert!(t.take_timeline().is_empty());
    }

    #[test]
    fn timeline_off_by_default_for_enabled() {
        let t = Telemetry::enabled();
        t.timeline_push(0.0, "e", || unreachable!("timeline off"));
        assert!(t.take_timeline().is_empty());
    }

    #[test]
    fn snapshot_serializes_to_documented_schema() {
        let t = Telemetry::enabled();
        t.counter_add("flow.resolves_partial", 3);
        t.gauge_set("engine.events_per_sec", 1234.5);
        t.observe("flow.resolve_seconds", 2e-9);
        let json = serde_json::to_string(&t.snapshot()).expect("serializable");
        assert!(json.starts_with("{\"counters\":"), "{json}");
        assert!(json.contains("\"flow.resolves_partial\":3"), "{json}");
        assert!(json.contains("\"engine.events_per_sec\":1234.5"), "{json}");
        assert!(
            json.contains("\"histograms\":{\"flow.resolve_seconds\":{\"count\":1"),
            "{json}"
        );
        assert!(json.contains("\"buckets\":[{\"le\":"), "{json}");
    }

    #[test]
    fn render_text_lists_every_metric() {
        let t = Telemetry::enabled();
        t.counter_add("a.count", 7);
        t.gauge_set("b.gauge", 1.25);
        t.observe("c.hist", 0.5);
        let text = t.snapshot().render_text();
        assert!(text.contains("a.count"), "{text}");
        assert!(text.contains(" : 7"), "{text}");
        assert!(text.contains("b.gauge"), "{text}");
        assert!(text.contains("c.hist"), "{text}");
        assert!(text.contains("n=1"), "{text}");
    }
}
