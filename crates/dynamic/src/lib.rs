//! # lrb-dynamic — updatable weighted selection
//!
//! The paper's motivating setting (ant colony construction) mutates the
//! fitness vector *every round*: pheromone evaporates, deposits land on the
//! best tours, visited cities drop to zero. The one-shot selectors in
//! `lrb-core` re-scan the whole vector per draw, and the frozen
//! `PreparedSampler`s (alias table, CDF binary search) must be rebuilt in
//! `O(n)` after *any* weight change. This crate supplies the missing
//! primitive — samplers implementing
//! [`DynamicSampler`](lrb_core::DynamicSampler) with cheap in-place updates:
//!
//! * [`FenwickSampler`] — a Fenwick (binary indexed) tree over the weights:
//!   exact `F_i = f_i / Σ f_j` probabilities, `O(log n)` per draw **and**
//!   `O(log n)` per single-weight update; `O(log k)` over a sparse
//!   support of `k` non-zeros, whose tree it builds over the support
//!   alone (the first update that revives a category off that support
//!   switches to the dense tree, once, in `O(n)`). The workhorse for
//!   mutate-and-sample traffic.
//! * [`StochasticAcceptanceSampler`] — stochastic acceptance (Lipowski &
//!   Lipowska): `O(1)` expected draws by rejection against the maximum
//!   weight, `O(1)` typical updates, with an exact linear-scan fallback for
//!   degenerate (single-survivor or extremely skewed) weight vectors. The
//!   cheapest backend when the weights are balanced.
//!
//! Both are also `lrb-engine` snapshot backends: the engine freezes them
//! per publish and serves deterministic batches through
//! `Snapshot::batch_indices`, and `lrb-service` shards the category space
//! one level up.
//!
//! ## Quickstart
//!
//! ```
//! use lrb_core::{DynamicSampler, Fitness};
//! use lrb_dynamic::FenwickSampler;
//! use lrb_rng::{MersenneTwister64, SeedableSource};
//!
//! let fitness = Fitness::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
//! let mut sampler = FenwickSampler::from_fitness(&fitness);
//! let mut rng = MersenneTwister64::seed_from_u64(7);
//!
//! let first = sampler.sample(&mut rng).unwrap();
//! sampler.update(first, 0.0).unwrap();          // O(log n), no rebuild
//! let second = sampler.sample(&mut rng).unwrap();
//! assert_ne!(first, second);                    // zero weights are never drawn
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fenwick;
pub mod stochastic_acceptance;

pub use fenwick::FenwickSampler;
pub use stochastic_acceptance::StochasticAcceptanceSampler;

use lrb_core::error::SelectionError;

/// Validate a prospective weight the way [`lrb_core::Fitness`] validates its
/// entries: finite and non-negative.
pub(crate) fn validate_weight(index: usize, value: f64) -> Result<(), SelectionError> {
    if !value.is_finite() || value < 0.0 {
        return Err(SelectionError::InvalidFitness { index, value });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use lrb_core::{DynamicSampler, Fitness};
    use lrb_rng::{MersenneTwister64, SeedableSource};

    use crate::{FenwickSampler, StochasticAcceptanceSampler};

    /// Every engine in the crate, behind the object-safe trait.
    fn engines(fitness: &Fitness) -> Vec<(&'static str, Box<dyn DynamicSampler>)> {
        vec![
            ("fenwick", Box::new(FenwickSampler::from_fitness(fitness))),
            (
                "stochastic-acceptance",
                Box::new(StochasticAcceptanceSampler::from_fitness(fitness)),
            ),
        ]
    }

    #[test]
    fn all_engines_agree_on_aggregates() {
        let fitness = Fitness::new(vec![0.0, 1.0, 2.0, 3.0, 4.0]).unwrap();
        for (name, engine) in engines(&fitness) {
            assert_eq!(engine.len(), 5, "{name}");
            assert!((engine.total_weight() - 10.0).abs() < 1e-12, "{name}");
            assert_eq!(engine.weight(0), 0.0, "{name}");
            assert_eq!(engine.weight(4), 4.0, "{name}");
        }
    }

    #[test]
    fn all_engines_track_updates_and_never_draw_zero_weights() {
        let fitness = Fitness::new(vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(3);
        for (name, mut engine) in engines(&fitness) {
            engine.update(2, 0.0).unwrap();
            engine.update(0, 5.0).unwrap();
            assert!((engine.total_weight() - 7.0).abs() < 1e-12, "{name}");
            for _ in 0..500 {
                let i = engine.sample(&mut rng).unwrap();
                assert_ne!(i, 2, "{name} drew a zero-weight index");
            }
        }
    }

    #[test]
    fn all_engines_reject_invalid_weights() {
        let fitness = Fitness::new(vec![1.0, 2.0]).unwrap();
        for (name, mut engine) in engines(&fitness) {
            for bad in [-1.0, f64::NAN, f64::INFINITY] {
                assert!(engine.update(0, bad).is_err(), "{name} accepted {bad}");
            }
            // The failed updates must not have corrupted the totals.
            assert!((engine.total_weight() - 3.0).abs() < 1e-12, "{name}");
        }
    }
}
