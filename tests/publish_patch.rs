//! Integration tests for incremental snapshot publishes: patched snapshots
//! must be **weight-for-weight identical** to full rebuilds after arbitrary
//! override/evaporation bursts, and engines forced onto the patch path must
//! keep serving the exact distribution on every backend.

mod support;

use lrb_core::{DynamicSampler, SelectionError};
use lrb_dynamic::{FenwickSampler, StochasticAcceptanceSampler};
use lrb_engine::{BackendRegistry, EngineConfig, PatchPolicy, SelectionEngine};
use lrb_rng::SeedableSource;
use proptest::prelude::*;
use support::assert_exact;

/// One coalesced publish batch, as the engine would drain it: a folded
/// scale, then distinct sorted overrides.
fn fold(weights: &[f64], overrides: &[(usize, f64)], scale: f64) -> Vec<f64> {
    let mut folded = weights.to_vec();
    for w in folded.iter_mut() {
        *w *= scale;
    }
    for &(index, weight) in overrides {
        folded[index] = weight;
    }
    folded
}

/// Deterministic pseudo-random batch for burst `round`: a scale in
/// `{1.0} ∪ (0, 1.1)` plus `count` distinct overrides.
fn burst(n: usize, round: u64, count: usize) -> (Vec<(usize, f64)>, f64) {
    let mut state = round.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut step = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let scale = match round % 3 {
        0 => 1.0,
        1 => (step() % 1000) as f64 / 999.0, // evaporation, can hit 0
        _ => 1.0 + (step() % 100) as f64 / 1000.0,
    };
    let mut overrides = Vec::new();
    let mut used = vec![false; n];
    for _ in 0..count {
        let index = step() as usize % n;
        if !used[index] {
            used[index] = true;
            overrides.push((index, (step() % 1000) as f64 / 50.0));
        }
    }
    overrides.sort_unstable_by_key(|&(index, _)| index);
    (overrides, scale)
}

proptest! {
    /// Fenwick: patched state equals a from-scratch build over the folded
    /// weights — bit-equal weights, aggregate-consistent tree — after any
    /// burst sequence.
    #[test]
    fn prop_fenwick_patch_equals_rebuild(
        initial in proptest::collection::vec(0.0f64..20.0, 2..200),
        rounds in 1usize..6,
        seed: u64,
    ) {
        let mut current = FenwickSampler::from_weights(initial.clone())
            .expect("initial weights are valid");
        let mut shadow = initial;
        for round in 0..rounds {
            let (overrides, scale) = burst(shadow.len(), seed.wrapping_add(round as u64), 8);
            current = FenwickSampler::patched_from(&current, &overrides, scale)
                .expect("finite batch");
            shadow = fold(&shadow, &overrides, scale);
            let rebuilt = FenwickSampler::from_weights(shadow.clone()).unwrap();
            prop_assert_eq!(current.weights().len(), rebuilt.weights().len());
            for (i, (a, b)) in current.weights().iter().zip(rebuilt.weights()).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "weight {} diverged", i);
            }
            prop_assert_eq!(current.non_zero_count(), rebuilt.non_zero_count());
            // The tree stays aggregate-consistent (scaled sums can differ
            // from sums of scaled terms only by rounding).
            let total: f64 = shadow.iter().sum();
            prop_assert!((current.total_weight() - total).abs() <= 1e-9 * total.max(1.0));
            let mid = shadow.len() / 2;
            let prefix: f64 = shadow[..mid].iter().sum();
            prop_assert!((current.prefix_sum(mid) - prefix).abs() <= 1e-9 * total.max(1.0));
        }
    }

    /// Stochastic acceptance: patched weights and aggregates equal a
    /// rebuild's after any burst sequence.
    #[test]
    fn prop_stochastic_acceptance_patch_equals_rebuild(
        initial in proptest::collection::vec(0.0f64..20.0, 2..200),
        rounds in 1usize..6,
        seed: u64,
    ) {
        let mut current = StochasticAcceptanceSampler::from_weights(initial.clone())
            .expect("initial weights are valid");
        let mut shadow = initial;
        for round in 0..rounds {
            let (overrides, scale) = burst(shadow.len(), seed.wrapping_add(round as u64), 8);
            current = StochasticAcceptanceSampler::patched_from(&current, &overrides, scale)
                .expect("finite batch");
            shadow = fold(&shadow, &overrides, scale);
            let rebuilt = StochasticAcceptanceSampler::from_weights(shadow.clone()).unwrap();
            for (i, (a, b)) in current.weights().iter().zip(rebuilt.weights()).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "weight {} diverged", i);
            }
            prop_assert_eq!(current.non_zero_count(), rebuilt.non_zero_count());
            let total: f64 = shadow.iter().sum();
            prop_assert!((current.total_weight() - total).abs() <= 1e-9 * total.max(1.0));
            // The acceptance denominator must track the true maximum, or
            // draws stop being exact.
            let max = shadow.iter().cloned().fold(0.0, f64::max);
            if total > 0.0 {
                let expected = shadow.len() as f64 * max / total;
                prop_assert!((current.expected_rounds() - expected).abs() <= 1e-9 * expected.max(1.0));
            }
        }
    }

    /// Engine level: a patch-forced engine and a rebuild-forced engine end
    /// bit-identical after the same burst sequence, on every backend.
    #[test]
    fn prop_engine_patch_policies_converge(
        rounds in 1usize..5,
        seed: u64,
    ) {
        let n = 96usize;
        let initial: Vec<f64> = (0..n).map(|i| ((i % 13) + 1) as f64).collect();
        for name in BackendRegistry::standard().names() {
            let run = |policy: PatchPolicy| {
                let engine = SelectionEngine::new(
                    initial.clone(),
                    EngineConfig {
                        backend: name,
                        patch: policy,
                        ..EngineConfig::default()
                    },
                )
                .expect("initial weights are valid");
                for round in 0..rounds {
                    let (overrides, scale) = burst(n, seed.wrapping_add(round as u64), 12);
                    engine.scale_all(scale).expect("valid factor");
                    engine.enqueue_many(&overrides).expect("valid overrides");
                    engine.publish().expect("valid publish");
                }
                (engine.snapshot().weights().to_vec(), engine.stats().patched)
            };
            let (patched_weights, patched) = run(PatchPolicy::Always);
            let (rebuilt_weights, never_patched) = run(PatchPolicy::Never);
            prop_assert_eq!(never_patched, 0);
            if name != "alias" {
                prop_assert_eq!(patched as usize, rounds, "{} skipped a patch", name);
            }
            for (i, (a, b)) in patched_weights.iter().zip(&rebuilt_weights).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: weight {} diverged", name, i);
            }
        }
    }
}

#[test]
fn patch_forced_engines_serve_the_exact_distribution_on_every_backend() {
    // The conformance run the satellite asks for: force the patch path on
    // every backend, push several coalesced batches through, then
    // chi-square the served draws against the folded weights.
    for name in BackendRegistry::standard().names() {
        let n = 64usize;
        let initial: Vec<f64> = (0..n).map(|i| ((i % 7) + 1) as f64).collect();
        let engine = SelectionEngine::new(
            initial,
            EngineConfig {
                backend: name,
                patch: PatchPolicy::Always,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        for round in 0..6u64 {
            let (overrides, scale) = burst(n, 1000 + round, 10);
            engine.scale_all(scale.max(0.05)).unwrap();
            engine.enqueue_many(&overrides).unwrap();
            engine.publish().unwrap();
        }
        if name != "alias" {
            assert!(
                engine.stats().patched >= 6,
                "{name}: patch path was not taken"
            );
        }
        let snapshot = engine.snapshot();
        if snapshot.total_weight() <= 0.0 {
            continue; // an all-evaporated state has nothing to serve
        }
        let counts = snapshot.batch_counts(120_000, 9).unwrap();
        assert_exact(
            &format!("patched {name} snapshot"),
            &counts,
            snapshot.weights(),
        );
    }
}

#[test]
fn patch_survives_support_collapse_and_revival() {
    // Evaporate everything to zero through the patch path, then revive.
    let engine = SelectionEngine::new(
        vec![1.0; 32],
        EngineConfig {
            backend: "fenwick",
            patch: PatchPolicy::Always,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    engine.scale_all(0.0).unwrap();
    engine.publish().unwrap();
    let mut rng = lrb_rng::MersenneTwister64::seed_from_u64(3);
    assert_eq!(
        engine.sample(&mut rng),
        Err(SelectionError::AllZeroFitness),
        "all-zero snapshot must refuse draws"
    );
    engine.enqueue(5, 2.0).unwrap();
    engine.publish().unwrap();
    assert_eq!(engine.stats().patched, 2);
    for _ in 0..50 {
        assert_eq!(engine.sample(&mut rng).unwrap(), 5);
    }
}

#[test]
fn dynamic_sampler_draws_stay_exact_after_a_patch() {
    // Draw-level conformance of a patched Fenwick sampler (not just its
    // weights): chi-square over 100k draws.
    let initial: Vec<f64> = (0..24).map(|i| ((i % 5) + 1) as f64).collect();
    let prev = FenwickSampler::from_weights(initial).unwrap();
    let (overrides, _) = burst(24, 77, 9);
    let patched = FenwickSampler::patched_from(&prev, &overrides, 0.8).unwrap();
    let mut rng = lrb_rng::MersenneTwister64::seed_from_u64(21);
    let mut counts = vec![0u64; patched.len()];
    for _ in 0..100_000 {
        counts[patched.sample(&mut rng).unwrap()] += 1;
    }
    assert_exact("patched fenwick draws", &counts, patched.weights());
}
