//! Statistical conformance of the serving layer: chi-square tests holding
//! the [`StochasticAcceptanceSampler`] and the engine's snapshot path — all
//! registered frozen backends — to the source paper's exactness standard
//! (`F_i = w_i / Σ w_j`), across multiple seeds, through coalesced update
//! batches, and at the degenerate edges (all-equal weights, single
//! survivor).

mod support;

use lrb_core::{DynamicSampler, SelectionError};
use lrb_dynamic::StochasticAcceptanceSampler;
use lrb_engine::{BackendRegistry, EngineConfig, SelectionEngine};
use lrb_rng::{MersenneTwister64, SeedableSource};
use support::{assert_conformance, assert_exact};

const TRIALS: u64 = 120_000;
const SEEDS: [u64; 3] = [11, 2024, 987_654_321];

/// Build an engine over one named backend.
fn engine_with(weights: &[f64], backend: &'static str) -> SelectionEngine {
    SelectionEngine::new(
        weights.to_vec(),
        EngineConfig {
            backend,
            ..EngineConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn stochastic_acceptance_sampler_is_exact_across_seeds() {
    let weights = vec![1.0, 2.0, 3.0, 4.0, 0.0, 10.0];
    let sampler = StochasticAcceptanceSampler::from_weights(weights.clone()).unwrap();
    for seed in SEEDS {
        let mut rng = MersenneTwister64::seed_from_u64(seed);
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..TRIALS {
            counts[sampler.sample(&mut rng).unwrap()] += 1;
        }
        assert_exact(&format!("seed {seed}"), &counts, &weights);
    }
}

#[test]
fn every_engine_backend_is_exact_on_the_snapshot_path() {
    let weights = vec![5.0, 1.0, 0.0, 3.0, 2.0, 9.0, 4.0];
    for name in BackendRegistry::standard().names() {
        let engine = engine_with(&weights, name);
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.backend(), name);
        for seed in SEEDS {
            let counts = snapshot.batch_counts(TRIALS, seed).unwrap();
            assert_exact(&format!("{name} seed {seed}"), &counts, &weights);
        }
    }
}

#[test]
fn published_batches_keep_every_backend_exact() {
    // Fold a realistic coalescing batch — evaporation, overrides, a
    // last-write-wins rewrite — and hold the *new* snapshot to the same
    // standard.
    let initial = vec![4.0; 8];
    for name in BackendRegistry::standard().names() {
        let engine = engine_with(&initial, name);
        engine.enqueue(0, 1.0).unwrap();
        engine.scale_all(0.5).unwrap(); // scales the pending 1.0 to 0.5
        engine.enqueue(3, 6.0).unwrap();
        engine.enqueue(3, 8.0).unwrap(); // last write wins
        engine.enqueue(5, 0.0).unwrap(); // kill a category
        engine.publish().unwrap();

        let expected = vec![0.5, 2.0, 2.0, 8.0, 2.0, 0.0, 2.0, 2.0];
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.weights(), expected.as_slice(), "{name}");
        let counts = snapshot.batch_counts(TRIALS, 77).unwrap();
        assert_eq!(counts[5], 0, "{name} drew a zeroed category");
        assert_exact(name, &counts, &expected);
    }
}

#[test]
fn all_equal_weights_are_uniform_for_every_backend() {
    let weights = vec![3.0; 16];
    for name in BackendRegistry::standard().names() {
        let engine = engine_with(&weights, name);
        let snapshot = engine.snapshot();
        for seed in SEEDS {
            let counts = snapshot.batch_counts(TRIALS, seed).unwrap();
            assert_exact(&format!("{name} seed {seed}"), &counts, &weights);
        }
    }
}

#[test]
fn single_survivor_always_wins_for_every_backend() {
    let mut weights = vec![0.0; 9];
    weights[4] = 0.25;
    for name in BackendRegistry::standard().names() {
        let engine = engine_with(&weights, name);
        let counts = engine.snapshot().batch_counts(5_000, 3).unwrap();
        assert_eq!(counts[4], 5_000, "{name}");
        assert_eq!(counts.iter().sum::<u64>(), 5_000, "{name}");
    }
}

#[test]
fn killing_the_survivor_turns_the_snapshot_all_zero() {
    for name in BackendRegistry::standard().names() {
        let engine = engine_with(&[0.0, 7.0], name);
        engine.enqueue(1, 0.0).unwrap();
        engine.publish().unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(4);
        assert_eq!(
            engine.snapshot().sample(&mut rng),
            Err(SelectionError::AllZeroFitness),
            "{name}"
        );
    }
}

#[test]
fn stochastic_acceptance_stays_exact_in_its_degenerate_fallback_regime() {
    // Skew far past the rejection budget: draws go through the linear-scan
    // fallback, which must be just as exact. The chi-square runs on the
    // pooled {heavy, heavy, rest} partition so every cell's expected count
    // is sound.
    let n = 2048;
    let mut weights = vec![1e-6; n];
    weights[100] = 5.0;
    weights[200] = 3.0;
    let sampler = StochasticAcceptanceSampler::from_weights(weights.clone()).unwrap();
    assert!(
        sampler.expected_rounds() > 256.0,
        "workload is not degenerate enough to exercise the fallback"
    );
    let mut rng = MersenneTwister64::seed_from_u64(55);
    let trials = 100_000;
    let mut pooled = [0u64; 3]; // [index 100, index 200, everything else]
    for _ in 0..trials {
        match sampler.sample(&mut rng).unwrap() {
            100 => pooled[0] += 1,
            200 => pooled[1] += 1,
            _ => pooled[2] += 1,
        }
    }
    let rest_mass = 1e-6 * (n as f64 - 2.0);
    assert_conformance("degenerate fallback", &pooled, &[5.0, 3.0, rest_mass], 0.01);
}
