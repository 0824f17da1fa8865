//! Sharded counters and gauges — the scalar metric primitives.
//!
//! A naive `AtomicU64` counter bounces its cache line between every core
//! that records into it; at engine reader rates (tens of millions of draws
//! per second across threads) that bounce *is* the overhead. [`Counter`]
//! shards the count over [`COUNTER_SHARDS`] cache-padded cells and pins
//! each recording thread to one shard (round-robin on first use), so
//! concurrent recorders touch distinct lines with high probability. The
//! engine's per-snapshot served-draws count and the service's per-shard
//! routed-draws counts are `Counter`s. Reads sum the shards —
//! monotone and exact once recorders quiesce, a bounded-lag lower bound
//! while they run (the usual relaxed-counter contract).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Pads (and aligns) a value to a cache line so adjacent shards can never
/// produce false sharing.
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct CachePadded<T>(pub T);

/// Shards per [`Counter`]. A power of two; more shards than this many
/// *simultaneous* recording threads only wastes cache.
pub const COUNTER_SHARDS: usize = 16;

/// Monotone thread enumerator feeding the shard assignment (shared by all
/// counters — a thread keeps one shard index for life, which keeps the TLS
/// footprint at one word regardless of how many counters exist).
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard (assigned round-robin on first use; `const`
    /// cell, so the TLS itself never allocates).
    static THREAD_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// This thread's counter shard, assigning one on first use.
#[inline]
fn shard() -> usize {
    THREAD_SHARD.with(|cell| {
        let shard = cell.get();
        if shard != usize::MAX {
            return shard;
        }
        let assigned = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
        cell.set(assigned);
        assigned
    })
}

/// A lock-free, cache-padded, sharded monotone counter.
///
/// `const`-constructible so it can back `static` kernel counters with zero
/// startup cost and no allocation:
///
/// ```
/// use lrb_obs::Counter;
/// static HITS: Counter = Counter::new();
/// HITS.add(2);
/// HITS.incr();
/// assert_eq!(HITS.get(), 3);
/// ```
#[derive(Debug)]
pub struct Counter {
    shards: [CachePadded<AtomicU64>; COUNTER_SHARDS],
}

impl Counter {
    /// A zeroed counter (usable in `static` position).
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        Self {
            shards: [const { CachePadded(AtomicU64::new(0)) }; COUNTER_SHARDS],
        }
    }

    /// Add `n` to this thread's shard (one relaxed `fetch_add`).
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total (relaxed sum over shards — exact once recorders
    /// quiesce).
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|cell| cell.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// An `f64` gauge stored as atomic bits. Last write wins; reads are
/// tear-free (one 64-bit load).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge reading `0.0` (usable in `static` position).
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        // 0.0f64 is all-zero bits, so the const context needs no to_bits().
        Self {
            bits: AtomicU64::new(0),
        }
    }

    /// Set the gauge (relaxed store).
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Read the gauge (relaxed load).
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let counter = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let counter = &counter;
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        counter.incr();
                    }
                });
            }
        });
        assert_eq!(counter.get(), 80_000);
    }

    #[test]
    fn counter_is_const_constructible() {
        static STATIC_COUNTER: Counter = Counter::new();
        STATIC_COUNTER.add(5);
        assert!(STATIC_COUNTER.get() >= 5);
    }

    #[test]
    fn gauge_last_write_wins() {
        let gauge = Gauge::new();
        assert_eq!(gauge.get(), 0.0);
        gauge.set(2.5);
        assert_eq!(gauge.get(), 2.5);
        gauge.set(-1.0e9);
        assert_eq!(gauge.get(), -1.0e9);
    }
}
