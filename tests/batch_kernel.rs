//! Test coverage for the unified batched sampling kernel: the buffer
//! primitives (`sample_into` / `select_into`) must agree **draw for draw**
//! with the one-at-a-time APIs under the same substream seeds, the shared
//! `BatchDriver` must be schedule-independent, and the batched engine path
//! must stay chi-square-exact on every registered backend.

mod support;

use lrb_core::batch::BatchDriver;
use lrb_core::sequential::{AliasSampler, CdfSampler, StochasticAcceptanceSelector};
use lrb_core::{DynamicSampler, Fitness, PreparedSampler, Selector};
use lrb_dynamic::{FenwickSampler, StochasticAcceptanceSampler};
use lrb_engine::{BackendRegistry, EngineConfig, SelectionEngine};
use lrb_rng::Philox4x32;
use proptest::prelude::*;
use support::assert_exact;

proptest! {
    /// Every dynamic sampler's buffer override consumes randomness exactly
    /// like its one-at-a-time path: identical Philox substreams → identical
    /// draws.
    #[test]
    fn prop_dynamic_sample_into_agrees_draw_for_draw(
        weights in proptest::collection::vec(0.0f64..10.0, 2..96),
        substream: u64,
    ) {
        prop_assume!(weights.iter().any(|&x| x > 0.0));
        let samplers: Vec<(&str, Box<dyn DynamicSampler>)> = vec![
            ("fenwick", Box::new(FenwickSampler::from_weights(weights.clone()).unwrap())),
            (
                "stochastic-acceptance",
                Box::new(StochasticAcceptanceSampler::from_weights(weights.clone()).unwrap()),
            ),
        ];
        for (name, sampler) in samplers {
            let mut rng_batch = Philox4x32::for_substream(7, substream);
            let mut rng_loop = Philox4x32::for_substream(7, substream);
            let mut buffer = vec![0usize; 64];
            sampler.sample_into(&mut rng_batch, &mut buffer).unwrap();
            for (t, &filled) in buffer.iter().enumerate() {
                prop_assert_eq!(
                    filled,
                    sampler.sample(&mut rng_loop).unwrap(),
                    "{} diverged at draw {}", name, t
                );
            }
        }
    }

    /// Prepared samplers (Vose alias, CDF binary search): same agreement.
    #[test]
    fn prop_prepared_sample_into_agrees_draw_for_draw(
        weights in proptest::collection::vec(0.0f64..10.0, 2..96),
        substream: u64,
    ) {
        prop_assume!(weights.iter().any(|&x| x > 0.0));
        let fitness = Fitness::new(weights).unwrap();
        let samplers: Vec<(&str, Box<dyn PreparedSampler>)> = vec![
            ("alias", Box::new(AliasSampler::new(&fitness).unwrap())),
            ("cdf", Box::new(CdfSampler::new(&fitness).unwrap())),
        ];
        for (name, sampler) in samplers {
            let mut rng_batch = Philox4x32::for_substream(11, substream);
            let mut rng_loop = Philox4x32::for_substream(11, substream);
            let mut buffer = vec![0usize; 64];
            sampler.sample_into(&mut rng_batch, &mut buffer);
            for (t, &filled) in buffer.iter().enumerate() {
                prop_assert_eq!(
                    filled,
                    sampler.sample(&mut rng_loop),
                    "{} diverged at draw {}", name, t
                );
            }
        }
    }

    /// One-shot selectors: the buffer override (and the default loop) agree
    /// with repeated `select` under a shared stream.
    #[test]
    fn prop_select_into_agrees_draw_for_draw(
        weights in proptest::collection::vec(0.0f64..10.0, 2..96),
        substream: u64,
    ) {
        prop_assume!(weights.iter().any(|&x| x > 0.0));
        let fitness = Fitness::new(weights).unwrap();
        let selectors: Vec<(&str, Box<dyn Selector>)> = vec![
            (
                "stochastic-acceptance",
                Box::new(StochasticAcceptanceSelector::default()),
            ),
            (
                "linear-scan",
                Box::new(lrb_core::sequential::LinearScanSelector),
            ),
        ];
        for (name, selector) in selectors {
            let mut rng_batch = Philox4x32::for_substream(13, substream);
            let mut rng_loop = Philox4x32::for_substream(13, substream);
            let mut buffer = vec![0usize; 48];
            selector
                .select_into(&fitness, &mut rng_batch, &mut buffer)
                .unwrap();
            for (t, &filled) in buffer.iter().enumerate() {
                prop_assert_eq!(
                    filled,
                    selector.select(&fitness, &mut rng_loop).unwrap(),
                    "{} diverged at draw {}", name, t
                );
            }
        }
    }

    /// The engine snapshot's buffer path agrees with its one-at-a-time path
    /// on every registered backend.
    #[test]
    fn prop_snapshot_sample_into_agrees_draw_for_draw(
        weights in proptest::collection::vec(0.0f64..10.0, 2..96),
        substream: u64,
    ) {
        prop_assume!(weights.iter().any(|&x| x > 0.0));
        for name in BackendRegistry::standard().names() {
            let engine = SelectionEngine::new(
                weights.clone(),
                EngineConfig {
                    backend: name,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let snapshot = engine.snapshot();
            let mut rng_batch = Philox4x32::for_substream(17, substream);
            let mut rng_loop = Philox4x32::for_substream(17, substream);
            let mut buffer = vec![0usize; 64];
            snapshot.sample_into(&mut rng_batch, &mut buffer).unwrap();
            for (t, &filled) in buffer.iter().enumerate() {
                prop_assert_eq!(
                    filled,
                    snapshot.sample(&mut rng_loop).unwrap(),
                    "{} diverged at draw {}", name, t
                );
            }
        }
    }
}

#[test]
fn one_driver_serves_core_dynamic_and_engine_identically() {
    // The core BatchDriver over a dynamic Fenwick sampler and the engine's
    // fenwick snapshot batch both invert the same CDF through the same
    // driver, so their per-trial indices must be identical.
    let weights: Vec<f64> = (0..600).map(|i| ((i % 13) as f64) * 0.5).collect();
    let trials = 20_000u64;
    let seed = 99u64;

    let fenwick = FenwickSampler::from_weights(weights.clone()).unwrap();

    let engine = SelectionEngine::new(
        weights,
        EngineConfig {
            backend: "fenwick",
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let from_engine = engine.snapshot().batch_indices(trials, seed).unwrap();

    let from_driver = BatchDriver::new()
        .drive_indices(seed, trials, |rng, out| fenwick.sample_into(rng, out))
        .unwrap();

    assert_eq!(from_engine, from_driver);
}

#[test]
fn batched_engine_path_is_chi_square_exact_on_every_backend() {
    let weights = vec![0.5, 3.0, 0.0, 1.5, 2.0, 8.0, 1.0, 0.25];
    for name in BackendRegistry::standard().names() {
        let engine = SelectionEngine::new(
            weights.clone(),
            EngineConfig {
                backend: name,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let snapshot = engine.snapshot();

        // The rayon batch path.
        let counts = snapshot.batch_counts(120_000, 37).unwrap();
        assert_eq!(counts[2], 0, "{name} drew a zero-weight category");
        assert_exact(&format!("{name} batch path"), &counts, &weights);

        // The single-reader buffer path.
        let mut rng = Philox4x32::for_substream(37, 1);
        let mut buffer = vec![0usize; 4096];
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..24 {
            snapshot.sample_into(&mut rng, &mut buffer).unwrap();
            for &index in &buffer {
                counts[index] += 1;
            }
        }
        assert_exact(&format!("{name} buffer path"), &counts, &weights);
    }
}

#[test]
fn driver_batches_are_thread_count_invariant_at_every_layer() {
    let weights: Vec<f64> = (0..2_048).map(|i| ((i % 31) + 1) as f64).collect();
    let engine = SelectionEngine::new(weights.clone(), EngineConfig::default()).unwrap();
    let snapshot = engine.snapshot();
    let fenwick = FenwickSampler::from_weights(weights).unwrap();
    let trials = 40_000u64;
    let drive = || {
        BatchDriver::new()
            .drive_indices(5, trials, |rng, out| fenwick.sample_into(rng, out))
            .unwrap()
    };

    let engine_reference = snapshot.batch_indices(trials, 5).unwrap();
    let driver_reference = drive();
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let (from_engine, from_driver) =
            pool.install(|| (snapshot.batch_indices(trials, 5).unwrap(), drive()));
        assert_eq!(from_engine, engine_reference, "{threads} threads (engine)");
        assert_eq!(from_driver, driver_reference, "{threads} threads (driver)");
    }
}
