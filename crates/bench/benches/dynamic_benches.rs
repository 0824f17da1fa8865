//! Benches for the dynamic-selection engines (`lrb-dynamic`): sweep the
//! category count `n` over powers of two and the update:sample ratio over
//! {sample-only, 1:1, update-heavy}, comparing
//!
//! * `fenwick` — [`FenwickSampler`], `O(log n)` update and draw,
//! * `one-shot` — the paper's `LogBiddingSelector` re-scanning the
//!   fitness vector per draw (no auxiliary structure).
//!
//! The incremental-vs-rebuild question is gated by `publish_quick`
//! (Fenwick patch vs full rebuild at `n = 2^16`, 1 % dirty).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use lrb_bench::dynamic_workload::{mixed_round, workload};
use lrb_core::parallel::LogBiddingSelector;
use lrb_core::{Fitness, Selector};
use lrb_dynamic::FenwickSampler;
use lrb_rng::{MersenneTwister64, RandomSource, SeedableSource};

fn bench_dynamic_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic_engines");
    group.warm_up_time(Duration::from_millis(150));
    group.measurement_time(Duration::from_millis(400));

    // 2^8 … 2^20; the O(n)-per-draw one-shot baseline stops at 2^16.
    for &n in &[1usize << 8, 1 << 12, 1 << 16, 1 << 20] {
        for &updates in &[0usize, 1, 8] {
            let label = format!("n{n}_u{updates}");

            let mut fenwick = FenwickSampler::from_weights(workload(n)).unwrap();
            let mut rng = MersenneTwister64::seed_from_u64(1);
            group.bench_with_input(BenchmarkId::new("fenwick", &label), &(), |b, _| {
                b.iter(|| mixed_round(&mut fenwick, updates, &mut rng))
            });

            if n <= 1 << 16 {
                // One-shot baseline: mutate the raw weights, then run the
                // paper's log-bidding scan over a revalidated vector.
                let mut weights = workload(n);
                let selector = LogBiddingSelector::default();
                let mut rng = MersenneTwister64::seed_from_u64(4);
                group.bench_with_input(BenchmarkId::new("one-shot", &label), &(), |b, _| {
                    b.iter(|| {
                        for _ in 0..updates {
                            let index = (rng.next_u64() % n as u64) as usize;
                            weights[index] = (rng.next_u64() % 100) as f64 + 1.0;
                        }
                        let fitness = Fitness::new(weights.clone()).unwrap();
                        selector.select(&fitness, &mut rng).unwrap()
                    })
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dynamic_engines);
criterion_main!(benches);
