//! Log2-bucketed latency histograms.
//!
//! ## Bucket layout
//!
//! Values (nanoseconds, but any `u64` works) map to buckets in an
//! HDR-style two-level scheme: an exact **identity region** for values
//! below 32, then 16 linear sub-buckets per power-of-two octave. A bucket's
//! relative width is at most `1/16` (6.25 %), so any quantile extracted
//! from bucket counts is within 6.25 % of the true order statistic — the
//! *bucket error bound* the property tests pin. [`BUCKETS`] = 976 covers
//! the full `u64` range in 7.6 KiB of `u64` cells.
//!
//! ## Recording and reading
//!
//! [`Histogram`] holds atomic buckets: any number of threads record
//! concurrently (one relaxed `fetch_add` each), and
//! [`snapshot`](Histogram::snapshot) copies the cells once into an immutable
//! [`HistogramSnapshot`] for quantile extraction — the consistent
//! point-in-time read the exporters use.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Sub-bucket resolution: 2^4 = 16 linear sub-buckets per octave.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Values below this are their own bucket (exact).
const IDENTITY: u64 = 2 * SUB;
/// First exponent handled by the two-level mapping.
const FIRST_EXP: u32 = SUB_BITS + 1;

/// Total bucket count: the identity region plus 16 sub-buckets for each of
/// the exponents `5..=63`.
pub const BUCKETS: usize = IDENTITY as usize + (64 - FIRST_EXP as usize) * SUB as usize;

/// The bucket index of a value.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value < IDENTITY {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let sub = (value >> (exp - SUB_BITS)) & (SUB - 1);
    IDENTITY as usize + ((exp - FIRST_EXP) as usize) * SUB as usize + sub as usize
}

/// The half-open value range `[lower, upper)` of a bucket index. The upper
/// bound of the last bucket saturates at `u64::MAX`.
pub fn bounds_of(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index out of range");
    if (index as u64) < IDENTITY {
        return (index as u64, index as u64 + 1);
    }
    let level = index - IDENTITY as usize;
    let exp = FIRST_EXP + (level as u32) / SUB as u32;
    let sub = (level as u64) % SUB;
    let width = 1u64 << (exp - SUB_BITS);
    let lower = (SUB + sub) << (exp - SUB_BITS);
    (lower, lower.saturating_add(width))
}

/// The representative value reported for a bucket: the value itself in the
/// identity region, the bucket midpoint elsewhere.
fn representative(index: usize) -> u64 {
    let (lower, upper) = bounds_of(index);
    if (index as u64) < IDENTITY {
        lower
    } else {
        lower + (upper - lower) / 2
    }
}

/// A lock-free histogram: atomic buckets, concurrent recording, consistent
/// snapshots.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    /// Sum of recorded values (relaxed; saturation-free in practice — 2^64
    /// ns is five centuries).
    sum: AtomicU64,
    /// Minimum recorded value (`u64::MAX` while empty).
    min: AtomicU64,
    /// Maximum recorded value (0 while empty).
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (one heap allocation for the bucket array).
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            buckets: buckets.into_boxed_slice(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value: a bucket `fetch_add` plus sum/min/max maintenance,
    /// all relaxed, no allocation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record the elapsed nanoseconds since `started` — the span-timer
    /// pattern:
    ///
    /// ```
    /// use std::time::Instant;
    /// let hist = lrb_obs::Histogram::new();
    /// let started = Instant::now();
    /// // ... the timed section ...
    /// hist.record_span(started);
    /// assert_eq!(hist.snapshot().count, 1);
    /// ```
    #[inline]
    pub fn record_span(&self, started: Instant) {
        self.record(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Copy the cells once into an immutable snapshot — the consistent
    /// point-in-time view quantiles and exporters work from. (Each bucket
    /// is read exactly once; recordings that race the copy land wholly in
    /// or wholly after it.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|cell| cell.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot::assemble(
            counts,
            self.sum.load(Ordering::Relaxed),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// An immutable copy of a histogram's cells: the quantile-extraction and
/// export surface.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    fn assemble(counts: Vec<u64>, sum: u64, min: u64, max: u64) -> Self {
        let count = counts.iter().sum();
        Self {
            counts,
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max,
        }
    }

    /// The per-bucket counts (index ↔ [`bounds_of`]).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) of the recorded values: the
    /// representative value of the bucket holding the `⌈q·count⌉`-th order
    /// statistic, clamped to the observed `[min, max]`. Exact in the
    /// identity region (values < 32); within the 6.25 % bucket width above
    /// it. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return representative(index).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_monotone() {
        // Every bucket's upper bound is the next bucket's lower bound, and
        // every value lands in the bucket whose bounds contain it.
        for index in 0..BUCKETS - 1 {
            let (_, upper) = bounds_of(index);
            let (next_lower, _) = bounds_of(index + 1);
            assert_eq!(upper, next_lower, "gap after bucket {index}");
        }
        for value in (0..2_000u64).chain([1 << 20, u64::MAX / 2, u64::MAX]) {
            let index = bucket_of(value);
            let (lower, upper) = bounds_of(index);
            assert!(lower <= value, "{value} below bucket {index}");
            assert!(value < upper || upper == u64::MAX, "{value} above {index}");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn identity_region_is_exact() {
        let hist = Histogram::new();
        for v in 0..32u64 {
            hist.record(v);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 32);
        assert_eq!(snap.quantile(1.0 / 32.0), 0);
        assert_eq!(snap.p50(), 15);
        assert_eq!(snap.quantile(1.0), 31);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 31);
    }

    #[test]
    fn quantiles_respect_the_bucket_error_bound() {
        let hist = Histogram::new();
        let values: Vec<u64> = (0..10_000u64).map(|i| 100 + i * 37).collect();
        for &v in &values {
            hist.record(v);
        }
        let snap = hist.snapshot();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1]; // values are sorted by construction
            let (lower, upper) = bounds_of(bucket_of(truth));
            let reported = snap.quantile(q);
            assert!(
                reported >= lower && reported < upper.max(lower + 1),
                "q={q}: reported {reported} outside bucket [{lower}, {upper}) of truth {truth}"
            );
        }
    }

    #[test]
    fn empty_histograms_report_zeros() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
    }
}
