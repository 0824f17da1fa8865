//! Property-based tests (via the offline proptest shim) for
//! [`FenwickSampler`]: the tree's aggregates must track an independent
//! shadow vector through arbitrary update bursts, draws must never land on
//! zero weights, and the `O(log n)` prefix descent must agree draw-for-draw
//! with the `O(n)` linear-scan oracle on a shared random stream — on the
//! dense layout and on the compact one a sparse vector builds.

use lrb_core::sequential::LinearScanSelector;
use lrb_core::{DynamicSampler, Fitness, Selector};
use lrb_dynamic::FenwickSampler;
use lrb_rng::{MersenneTwister64, SeedableSource};
use proptest::prelude::*;

/// Deterministically spread update positions over the vector from a seed.
fn burst_positions(seed: u64, count: usize, len: usize) -> Vec<usize> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize % len
        })
        .collect()
}

proptest! {
    #[test]
    fn prop_total_weight_equals_the_sum_of_leaves(
        initial in proptest::collection::vec(0.0f64..100.0, 1..256),
        updates in proptest::collection::vec(0.0f64..100.0, 0..96),
        seed: u64,
    ) {
        let mut sampler = FenwickSampler::from_weights(initial.clone()).unwrap();
        let mut shadow = initial;
        for (&value, &index) in updates.iter().zip(&burst_positions(seed, updates.len(), shadow.len())) {
            sampler.update(index, value).unwrap();
            shadow[index] = value;
        }
        let leaf_sum: f64 = shadow.iter().sum();
        prop_assert!((sampler.total_weight() - leaf_sum).abs() < 1e-6 * (1.0 + leaf_sum));
        // The per-leaf reads must agree with the shadow exactly (updates
        // store, they never accumulate error into the raw weights).
        for (i, &w) in shadow.iter().enumerate() {
            prop_assert_eq!(sampler.weight(i), w);
        }
        prop_assert_eq!(
            sampler.non_zero_count(),
            shadow.iter().filter(|&&w| w > 0.0).count()
        );
    }

    #[test]
    fn prop_update_then_sample_never_returns_a_zero_weight_index(
        initial in proptest::collection::vec(0.0f64..8.0, 2..128),
        updates in proptest::collection::vec(0.0f64..8.0, 1..64),
        seed: u64,
    ) {
        let mut sampler = FenwickSampler::from_weights(initial.clone()).unwrap();
        let mut shadow = initial;
        for (&value, &index) in updates.iter().zip(&burst_positions(seed, updates.len(), shadow.len())) {
            // Zero out roughly a third of the touched entries so the "never
            // draw zero" claim is actually exercised.
            let value = if index % 3 == 0 { 0.0 } else { value };
            sampler.update(index, value).unwrap();
            shadow[index] = value;
        }
        prop_assume!(shadow.iter().any(|&w| w > 0.0));
        let mut rng = MersenneTwister64::seed_from_u64(seed ^ 0xA5A5);
        for _ in 0..200 {
            let drawn = sampler.sample(&mut rng).unwrap();
            prop_assert!(
                shadow[drawn] > 0.0,
                "drew index {} with weight {}", drawn, shadow[drawn]
            );
        }
    }

    #[test]
    fn prop_prefix_descent_agrees_with_the_linear_scan_oracle(
        initial in proptest::collection::vec(0.0f64..50.0, 1..160),
        updates in proptest::collection::vec(0.0f64..50.0, 0..48),
        seed: u64,
    ) {
        let mut sampler = FenwickSampler::from_weights(initial.clone()).unwrap();
        let mut shadow = initial;
        for (&value, &index) in updates.iter().zip(&burst_positions(seed, updates.len(), shadow.len())) {
            sampler.update(index, value).unwrap();
            shadow[index] = value;
        }
        prop_assume!(shadow.iter().any(|&w| w > 0.0));
        // Both sides invert the same CDF and consume exactly one uniform per
        // draw, so on a shared stream they must pick identical indices.
        let fitness = Fitness::new(shadow).unwrap();
        let mut tree_rng = MersenneTwister64::seed_from_u64(seed);
        let mut oracle_rng = MersenneTwister64::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert_eq!(
                sampler.sample(&mut tree_rng).unwrap(),
                LinearScanSelector.select(&fitness, &mut oracle_rng).unwrap()
            );
        }
    }

    /// The compact layout against the same oracle: one positive weight in
    /// 32, so the tree lies over the support, then bursts that zero
    /// members of it and revive categories off it (the first revival turns
    /// the tree dense), and a fresh build over the result (compact again
    /// while the support stays small). Weights are multiples of 1/4, so
    /// every partial sum is exact and both sides invert the same CDF bit
    /// for bit.
    #[test]
    fn prop_compact_descent_agrees_with_the_linear_scan_oracle(
        len in 64usize..600,
        updates in proptest::collection::vec(0u32..40, 0..24),
        seed: u64,
    ) {
        let initial: Vec<f64> = (0..len)
            .map(|i| if i % 32 == 11 { ((i * 7) % 13 + 1) as f64 * 0.25 } else { 0.0 })
            .collect();
        let mut sampler = FenwickSampler::from_weights(initial.clone()).unwrap();
        prop_assert!(sampler.is_compact());
        let mut shadow = initial;
        for (&quarters, &index) in updates.iter().zip(&burst_positions(seed, updates.len(), shadow.len())) {
            let value = f64::from(quarters) * 0.25;
            sampler.update(index, value).unwrap();
            shadow[index] = value;
        }
        prop_assume!(shadow.iter().any(|&w| w > 0.0));
        let rebuilt = FenwickSampler::from_weights(shadow.clone()).unwrap();
        let fitness = Fitness::new(shadow).unwrap();
        for sampler in [&sampler, &rebuilt] {
            let mut tree_rng = MersenneTwister64::seed_from_u64(seed);
            let mut oracle_rng = MersenneTwister64::seed_from_u64(seed);
            for _ in 0..64 {
                prop_assert_eq!(
                    sampler.sample(&mut tree_rng).unwrap(),
                    LinearScanSelector.select(&fitness, &mut oracle_rng).unwrap()
                );
            }
        }
    }
}
