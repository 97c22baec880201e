//! Atomic metric instruments: [`Counter`], [`Gauge`], and the
//! log-bucketed [`Histogram`].
//!
//! Every recording method is lock-free (relaxed atomics) and gated on
//! [`crate::enabled`], so instrumented hot paths cost a handful of
//! nanoseconds when telemetry is on and a single load + branch when it
//! is off.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (used by [`crate::Registry::reset`]).
    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A signed gauge: a value that can move both ways (queue depths,
/// in-flight work, resident sketch bytes).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if !crate::enabled() {
            return;
        }
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if !crate::enabled() {
            return;
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of sub-buckets per power of two: 2^3, giving ≈ 12.5% relative
/// bucket width above [`EXACT_LIMIT`].
const SUB_BITS: u32 = 3;
/// Values below this get one exact bucket each.
const EXACT_LIMIT: u64 = 1 << SUB_BITS;
/// Total bucket count: 8 exact buckets + 8 sub-buckets for each possible
/// most-significant-bit position 3..=63.
pub(crate) const BUCKETS: usize = EXACT_LIMIT as usize + (64 - SUB_BITS as usize) * (1 << SUB_BITS);

/// Maps a value to its bucket. Monotone in `v`; exact below
/// [`EXACT_LIMIT`], ≤ 12.5% relative width above it.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < EXACT_LIMIT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // ≥ SUB_BITS
    let sub = ((v >> (msb - SUB_BITS)) & (EXACT_LIMIT - 1)) as usize;
    EXACT_LIMIT as usize + ((msb - SUB_BITS) as usize) * (1 << SUB_BITS) + sub
}

/// The `[lower, upper)` value range of bucket `idx` (the last bucket's
/// upper bound saturates at `u64::MAX`).
pub(crate) fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < EXACT_LIMIT as usize {
        return (idx as u64, idx as u64 + 1);
    }
    let e = (idx - EXACT_LIMIT as usize) as u32 / (1 << SUB_BITS) + SUB_BITS;
    let sub = ((idx - EXACT_LIMIT as usize) % (1 << SUB_BITS)) as u64;
    let width = 1u64 << (e - SUB_BITS);
    let lo = (EXACT_LIMIT + sub) * width;
    (lo, lo.saturating_add(width))
}

/// A log-bucketed histogram of `u64` observations (typically
/// nanoseconds, recorded by [`crate::trace::span`] or
/// [`Histogram::record_duration`], or sizes).
///
/// Buckets are exact below 8 and have ≈ 12.5% relative width above, so
/// reported percentiles carry at most ≈ 6.3% representation error.
/// `count`/`sum`/`min`/`max` are tracked exactly.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in integer nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<u64> {
        let v = self.min.load(Ordering::Relaxed);
        (v != u64::MAX || self.count() > 0).then_some(v)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// Arithmetic mean, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum() as f64 / n as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`) from the bucket counts, using
    /// each bucket's midpoint clamped to the observed `[min, max]`.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                let (lo, hi) = bucket_bounds(idx);
                let mid = lo as f64 + (hi - lo) as f64 / 2.0;
                let lo_clamp = self.min().unwrap_or(0) as f64;
                let hi_clamp = self.max().unwrap_or(0) as f64;
                return mid.clamp(lo_clamp, hi_clamp);
            }
        }
        self.max().unwrap_or(0) as f64
    }

    pub(crate) fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_index_is_exact_below_limit() {
        for v in 0..EXACT_LIMIT {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v + 1));
        }
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in [
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            100,
            1_000,
            123_456,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "v={v} idx={idx} bounds=({lo},{hi})"
            );
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last = 0usize;
        let mut v = 0u64;
        while v < u64::MAX / 2 {
            let idx = bucket_index(v);
            assert!(idx >= last, "bucket_index not monotone at {v}");
            assert!(idx < BUCKETS);
            last = idx;
            v = v.saturating_mul(2).saturating_add(1);
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        // Above the exact range, bucket width / lower bound ≤ 1/8.
        for idx in EXACT_LIMIT as usize..BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            if hi == u64::MAX {
                continue; // saturated top bucket
            }
            assert!(
                (hi - lo) as f64 / lo as f64 <= 0.125 + 1e-12,
                "bucket {idx} [{lo},{hi}) too wide"
            );
        }
    }

    #[test]
    fn histogram_percentiles_are_close() {
        let _guard = crate::test_lock();
        let h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1_000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1_000));
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // ≤ 12.5% bucket width → generous 10% tolerance on quantiles.
        for (q, truth) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let got = h.percentile(q);
            assert!(
                (got - truth).abs() / truth < 0.10,
                "p{q}: got {got}, want ≈ {truth}"
            );
        }
    }

    #[test]
    fn histogram_single_value_percentile_is_exact() {
        let _guard = crate::test_lock();
        let h = Histogram::new();
        h.record(777);
        // Midpoint clamps to the observed [min, max].
        assert_eq!(h.percentile(0.5), 777.0);
        assert_eq!(h.percentile(0.99), 777.0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0.0);
    }

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let _guard = crate::test_lock();
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn concurrent_histogram_records_are_lossless() {
        let _guard = crate::test_lock();
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        h.record(t * 5_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 20_000);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(19_999));
    }

    #[test]
    fn disabled_gate_stops_recording() {
        let _guard = crate::test_lock();
        let c = Counter::new();
        let g = Gauge::new();
        let h = Histogram::new();
        crate::set_enabled(false);
        c.inc();
        g.set(5);
        h.record(10);
        crate::set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let _guard = crate::test_lock();
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        g.add(1);
        assert_eq!(g.get(), 8);
    }
}
