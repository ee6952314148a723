//! Metric sinks: the [`MetricsSink`] trait, the free [`NoopSink`] and the
//! in-memory recording [`MemorySink`].
//!
//! Engines are generic over the sink, so the no-op instantiation
//! monomorphises every recording call to an empty inline body — the hot
//! path pays nothing when observability is off. The memory sink is
//! deterministic by construction: names are interned `&'static str`s kept
//! in `BTreeMap`s (stable iteration order), and wall-clock span durations
//! are only accumulated when explicitly opted into via
//! [`MemorySink::with_timings`], so default snapshots contain no
//! machine-dependent bytes.

use crate::Snapshot;
use std::collections::BTreeMap;
use std::time::Instant;

/// Number of logarithmic buckets in a [`Histogram`].
///
/// Bucket `i` covers values with `floor(log2(v)) == i - 40`, clamped at the
/// ends, which spans roughly `1e-12 ..= 8e6` — comfortably wider than any
/// per-slot count, rate or ratio the engines emit.
pub const HISTOGRAM_BUCKETS: usize = 64;

const EXPONENT_OFFSET: i32 = 40;

/// Where engines report what happened.
///
/// All methods take `&mut self`; observers are owned by a single measurement
/// run (the sweep driver gives each input its own sink and merges snapshots
/// afterwards), so no interior mutability or locking is needed.
pub trait MetricsSink {
    /// Adds `delta` to the named monotonic counter.
    fn counter(&mut self, name: &'static str, delta: u64);

    /// Records one sample of the named distribution.
    fn observe(&mut self, name: &'static str, value: f64);

    /// Records one completed span of the named operation.
    fn span(&mut self, name: &'static str, micros: u64);

    /// `false` when recording calls are guaranteed to be no-ops, letting
    /// callers skip metric-only bookkeeping entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// `true` when the sink keeps span durations (a
    /// [`MemorySink::with_timings`] sink). Engines that record on private
    /// sinks and absorb them afterwards build those sinks to match, so the
    /// absorbed spans keep their durations.
    fn timed(&self) -> bool {
        false
    }

    /// Folds the metrics of `snapshot` in, exactly as [`Snapshot::merge`]
    /// would: a sink that absorbed snapshots `a` then `b` exports the same
    /// bytes as `a.merge(b)`. Engines that record work on private sinks
    /// (pooled chunk workers) hand their merged result back this way.
    fn absorb(&mut self, snapshot: &Snapshot);
}

/// The default sink: every method is an empty `#[inline(always)]` body, so
/// a monomorphised engine run with `NoopSink` carries no observability code
/// at all.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl MetricsSink for NoopSink {
    #[inline(always)]
    fn counter(&mut self, _name: &'static str, _delta: u64) {}

    #[inline(always)]
    fn observe(&mut self, _name: &'static str, _value: f64) {}

    #[inline(always)]
    fn span(&mut self, _name: &'static str, _micros: u64) {}

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn absorb(&mut self, _snapshot: &Snapshot) {}
}

/// A log₂-bucketed distribution summary: exact count/sum/min/max plus
/// 64 logarithmic buckets for approximate quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

fn bucket_index(value: f64) -> usize {
    // NaN, zero, negatives, and infinities all land in bucket 0.
    if value <= 0.0 || value.is_nan() || !value.is_finite() {
        return 0;
    }
    let e = value.log2().floor() as i32 + EXPONENT_OFFSET;
    e.clamp(0, HISTOGRAM_BUCKETS as i32 - 1) as usize
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.buckets[bucket_index(value)] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded sample, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`) from the log buckets: the
    /// geometric midpoint of the bucket holding the target rank, clamped to
    /// the exact observed `[min, max]`. Deterministic, accurate to a factor
    /// of `sqrt(2)`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                let mid = 2f64.powi(i as i32 - EXPONENT_OFFSET) * std::f64::consts::SQRT_2;
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Raw log₂ bucket counts, for full-fidelity state export
    /// ([`crate::Snapshot::to_state_string`]). Bucket `i` covers
    /// `floor(log2(v)) == i - 40`; summary quantiles are derived from these.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Reassembles a histogram from previously exported raw parts.
    ///
    /// `min`/`max` are the *internal* extrema: `+∞`/`-∞` sentinels when
    /// `count == 0` (what [`Histogram::default`] holds), the exact observed
    /// values otherwise. Round-trips bit-exactly with [`Histogram::buckets`]
    /// plus the count/sum/min/max accessors, which is what makes cached
    /// snapshots merge and re-render byte-identically to recomputed ones.
    pub fn from_raw_parts(
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
        buckets: [u64; HISTOGRAM_BUCKETS],
    ) -> Self {
        Histogram {
            count,
            sum,
            min,
            max,
            buckets,
        }
    }

    /// Folds `other` into `self`. Bucket-wise addition keeps the merge
    /// exact at the bucket level, so quantiles of a merged histogram do not
    /// depend on how samples were partitioned across sinks.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }
}

/// Aggregated statistics for one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed spans.
    pub count: u64,
    /// Total duration; stays `0` unless the sink opted into wall-clock
    /// recording, keeping default snapshots deterministic.
    pub total_micros: u64,
}

/// Measures one span of wall-clock time for [`MetricsSink::span`].
///
/// Whether the measured duration survives into a snapshot is the sink's
/// decision ([`MemorySink`] drops it unless built `with_timings`); the timer
/// itself always runs so call sites need no conditional code.
#[derive(Debug)]
pub struct SpanTimer(Instant);

impl SpanTimer {
    /// Starts the timer.
    pub fn start() -> Self {
        SpanTimer(Instant::now())
    }

    /// Microseconds elapsed since [`SpanTimer::start`], saturated into `u64`.
    pub fn elapsed_micros(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// An in-memory recording sink backing [`crate::Snapshot`] export.
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    spans: BTreeMap<&'static str, SpanStats>,
    record_timings: bool,
}

impl MemorySink {
    /// A deterministic recording sink: span *counts* are kept, span
    /// *durations* are discarded so snapshots are bytewise reproducible.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A sink that additionally accumulates wall-clock span durations.
    /// Snapshots taken from it are **not** reproducible across runs; use
    /// for interactive profiling only, never in golden tests.
    pub fn with_timings() -> Self {
        MemorySink {
            record_timings: true,
            ..MemorySink::default()
        }
    }

    /// [`MemorySink::with_timings`] when `timed` holds, [`MemorySink::new`]
    /// otherwise: the private sink of work recorded apart and absorbed
    /// into a sink whose [`MetricsSink::timed`] is `timed`, so the
    /// absorbed spans keep their durations exactly when the caller's do.
    pub fn with_timings_when(timed: bool) -> Self {
        MemorySink {
            record_timings: timed,
            ..MemorySink::default()
        }
    }

    /// Counter value by name (`0` when never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name, if any sample was recorded under it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in stable (sorted) order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms in stable (sorted) order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// All span stats in stable (sorted) order.
    pub fn spans(&self) -> impl Iterator<Item = (&'static str, SpanStats)> + '_ {
        self.spans.iter().map(|(&k, &v)| (k, v))
    }
}

impl MetricsSink for MemorySink {
    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        self.histograms.entry(name).or_default().record(value);
    }

    fn span(&mut self, name: &'static str, micros: u64) {
        let s = self.spans.entry(name).or_default();
        s.count += 1;
        if self.record_timings {
            s.total_micros = s.total_micros.saturating_add(micros);
        }
    }

    fn timed(&self) -> bool {
        self.record_timings
    }

    fn absorb(&mut self, snapshot: &Snapshot) {
        for (&k, &v) in &snapshot.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (&k, h) in &snapshot.histograms {
            self.histograms.entry(k).or_default().merge(h);
        }
        for (&k, s) in &snapshot.spans {
            let e = self.spans.entry(k).or_default();
            e.count += s.count;
            e.total_micros = e.total_micros.saturating_add(s.total_micros);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_reports_disabled() {
        let mut s = NoopSink;
        s.counter("x", 1);
        s.observe("y", 2.0);
        s.span("z", 3);
        assert!(!s.enabled());
    }

    #[test]
    fn memory_sink_accumulates() {
        let mut s = MemorySink::new();
        s.counter("slots", 2);
        s.counter("slots", 3);
        s.observe("pairs", 4.0);
        s.observe("pairs", 16.0);
        s.span("run", 1234);
        assert_eq!(s.counter_value("slots"), 5);
        let h = s.histogram("pairs").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 20.0);
        assert_eq!(h.min(), Some(4.0));
        assert_eq!(h.max(), Some(16.0));
        let (name, span) = s.spans().next().unwrap();
        assert_eq!(name, "run");
        assert_eq!(span.count, 1);
        // Deterministic by default: duration dropped.
        assert_eq!(span.total_micros, 0);
    }

    #[test]
    fn with_timings_records_duration() {
        let mut s = MemorySink::with_timings();
        s.span("run", 42);
        assert_eq!(s.spans().next().unwrap().1.total_micros, 42);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = Histogram::default();
        for v in [1.0, 2.0, 4.0, 8.0, 1024.0] {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((1.0..=8.0).contains(&p50), "p50 = {p50}");
        let p100 = h.quantile(1.0).unwrap();
        assert!((8.0..=1024.0).contains(&p100), "p100 = {p100}");
    }

    #[test]
    fn histogram_merge_matches_sequential_recording() {
        let mut all = Histogram::default();
        let mut left = Histogram::default();
        let mut right = Histogram::default();
        for (i, v) in [0.25, 0.5, 3.0, 70.0, 0.0, 9000.0].iter().enumerate() {
            all.record(*v);
            if i % 2 == 0 {
                left.record(*v);
            } else {
                right.record(*v);
            }
        }
        left.merge(&right);
        assert_eq!(left, all);
    }

    #[test]
    fn nonpositive_and_extreme_values_are_clamped_not_lost() {
        let mut h = Histogram::default();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(-3.0));
        assert_eq!(h.max(), Some(f64::MAX));
    }
}
