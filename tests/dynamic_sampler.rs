//! Integration tests for the `lrb-dynamic` crate: Fenwick exactness under
//! chi-square against the sequential ground truth (before and after a burst
//! of random updates), degenerate-weight edge cases, and chi-square
//! agreement of every dynamic sampler with the exact law.

mod support;

use lrb_core::sequential::LinearScanSelector;
use lrb_core::{DynamicSampler, Fitness, SelectionError, Selector};
use lrb_dynamic::{FenwickSampler, StochasticAcceptanceSampler};
use lrb_rng::{MersenneTwister64, RandomSource, SeedableSource};
use support::assert_conformance;

/// Per-index draw counts of a dynamic sampler over `trials` draws.
fn empirical(sampler: &dyn DynamicSampler, trials: u64, seed: u64) -> Vec<u64> {
    let mut rng = MersenneTwister64::seed_from_u64(seed);
    let mut counts = vec![0u64; sampler.len()];
    for _ in 0..trials {
        counts[sampler.sample(&mut rng).unwrap()] += 1;
    }
    counts
}

/// Per-index draw counts of the linear-scan ground truth on the same weights.
fn ground_truth(weights: &[f64], trials: u64, seed: u64) -> Vec<u64> {
    let fitness = Fitness::new(weights.to_vec()).unwrap();
    let mut rng = MersenneTwister64::seed_from_u64(seed);
    let mut counts = vec![0u64; fitness.len()];
    for _ in 0..trials {
        counts[LinearScanSelector.select(&fitness, &mut rng).unwrap()] += 1;
    }
    counts
}

#[test]
fn fenwick_passes_chi_square_against_linear_scan_before_and_after_updates() {
    let initial: Vec<f64> = (0..48).map(|i| ((i * 7) % 13) as f64).collect();
    let mut sampler = FenwickSampler::from_weights(initial.clone()).unwrap();
    let trials = 120_000;

    // Before any update: both the sampler and the ground truth must be
    // consistent with the exact F_i of the initial weights.
    let counts = empirical(&sampler, trials, 101);
    assert_conformance("before updates", &counts, &initial, 0.001);
    let truth = ground_truth(sampler.weights(), trials, 202);
    assert_conformance("ground truth drifted", &truth, &initial, 0.001);

    // Burst of random updates (including some zeroings), then re-test
    // against the *new* exact distribution.
    let mut update_rng = MersenneTwister64::seed_from_u64(303);
    for _ in 0..200 {
        let index = (update_rng.next_u64() % sampler.len() as u64) as usize;
        let weight = if update_rng.next_f64() < 0.2 {
            0.0
        } else {
            update_rng.next_f64() * 10.0
        };
        sampler.update(index, weight).unwrap();
    }
    let mutated = sampler.weights().to_vec();
    let counts = empirical(&sampler, trials, 404);
    assert_conformance("after updates", &counts, &mutated, 0.001);

    // And it still agrees with the linear-scan ground truth run on the
    // mutated weights (same test, independent stream).
    let truth = ground_truth(&mutated, trials, 505);
    assert_conformance("ground truth after updates", &truth, &mutated, 0.001);
}

#[test]
fn fenwick_edge_cases_update_to_zero_and_all_zero() {
    let mut sampler = FenwickSampler::from_weights(vec![0.0, 3.0, 0.0, 2.0]).unwrap();
    let mut rng = MersenneTwister64::seed_from_u64(7);

    // Zero out one of the two live indices: all mass moves to the other.
    sampler.update(3, 0.0).unwrap();
    for _ in 0..200 {
        assert_eq!(sampler.sample(&mut rng).unwrap(), 1);
    }

    // Zero out the last positive weight: sampling must fail with
    // AllZeroFitness, exactly like the one-shot selectors.
    sampler.update(1, 0.0).unwrap();
    assert_eq!(sampler.total_weight(), 0.0);
    assert_eq!(
        sampler.sample(&mut rng),
        Err(SelectionError::AllZeroFitness)
    );

    // Revive a different index and the sampler recovers.
    sampler.update(0, 1.5).unwrap();
    assert_eq!(sampler.sample(&mut rng).unwrap(), 0);
}

#[test]
fn all_dynamic_engines_agree_in_distribution() {
    let weights: Vec<f64> = vec![0.0, 1.0, 4.0, 2.0, 0.0, 8.0, 1.0, 0.5];
    let trials = 80_000;
    let engines: Vec<(&str, Box<dyn DynamicSampler>)> = vec![
        (
            "fenwick",
            Box::new(FenwickSampler::from_weights(weights.clone()).unwrap()),
        ),
        (
            "stochastic-acceptance",
            Box::new(StochasticAcceptanceSampler::from_weights(weights.clone()).unwrap()),
        ),
    ];
    for (name, engine) in engines {
        let counts = empirical(engine.as_ref(), trials, 42);
        assert_conformance(name, &counts, &weights, 0.001);
        assert_eq!(counts[0], 0, "{name} drew a zero-weight index");
        assert_eq!(counts[4], 0, "{name} drew a zero-weight index");
    }
}
