//! The selector abstractions shared by every algorithm in the crate.
//!
//! [`DynamicSampler`] and [`FrozenSampler`] draw from any
//! [`RandomSource`] one index at a time, fill buffers from one stream
//! ([`sample_into`](DynamicSampler::sample_into)), and draw one index per
//! stream from a slice of Philox substreams
//! ([`sample_streams`](DynamicSampler::sample_streams)) — the service
//! planner's call for one shard's group of slots, which a sampler may run
//! in lockstep.

use lrb_rng::{Philox4x32, RandomSource};

use crate::error::SelectionError;
use crate::fitness::Fitness;

/// A one-shot roulette wheel selector: given a fitness vector, pick one index.
///
/// The trait is object-safe (the random source is passed as `&mut dyn
/// RandomSource`), so benches and tables can iterate over
/// `Vec<Box<dyn Selector>>` and treat every algorithm uniformly.
pub trait Selector: Send + Sync {
    /// A short, stable, machine-friendly name (used in tables and benches).
    fn name(&self) -> &'static str;

    /// Whether the selection probabilities are exactly `F_i = f_i / Σ f_j`.
    ///
    /// `true` for every algorithm here except the independent roulette
    /// variants, whose bias is the paper's motivating observation.
    fn is_exact(&self) -> bool;

    /// Select one index according to the algorithm's distribution.
    fn select(
        &self,
        fitness: &Fitness,
        rng: &mut dyn RandomSource,
    ) -> Result<usize, SelectionError>;

    /// Fill `out` with independent selections (with replacement), reusing
    /// any per-call setup where the algorithm allows it. The default simply
    /// calls [`select`](Selector::select) once per slot; algorithms with
    /// per-call preprocessing (prefix tables, a fitness maximum) override
    /// this to hoist that work out of the loop. This is the primitive the
    /// [`batch`](crate::batch) drivers feed with one deterministic
    /// substream per buffer chunk.
    fn select_into(
        &self,
        fitness: &Fitness,
        rng: &mut dyn RandomSource,
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        for slot in out.iter_mut() {
            *slot = self.select(fitness, rng)?;
        }
        Ok(())
    }

    /// Select `count` indices independently (with replacement). Allocates a
    /// buffer and delegates to [`select_into`](Selector::select_into), so
    /// overriding the buffer primitive speeds up both entry points.
    fn select_many(
        &self,
        fitness: &Fitness,
        rng: &mut dyn RandomSource,
        count: usize,
    ) -> Result<Vec<usize>, SelectionError> {
        let mut out = vec![0usize; count];
        self.select_into(fitness, rng, &mut out)?;
        Ok(out)
    }
}

/// A sampler that pre-processes a fitness vector once and then draws many
/// independent selections cheaply (alias method, binary search over prefix
/// sums).
///
/// Prepared samplers complement [`Selector`]: the paper's setting is "the
/// fitness values change every round" (ant colony construction), where
/// one-shot selection is the right primitive, but repeated sampling from a
/// fixed distribution is common enough downstream to deserve first-class
/// support.
pub trait PreparedSampler: Send + Sync {
    /// Number of categories the sampler was built over.
    fn len(&self) -> usize;

    /// Whether the sampler has zero categories.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Draw one index.
    fn sample(&self, rng: &mut dyn RandomSource) -> usize;

    /// Fill `out` with independent draws. The default calls
    /// [`sample`](PreparedSampler::sample) once per slot; implementations
    /// override it to amortise per-call setup across the buffer.
    fn sample_into(&self, rng: &mut dyn RandomSource, out: &mut [usize]) {
        for slot in out.iter_mut() {
            *slot = self.sample(rng);
        }
    }

    /// Draw `count` independent indices (allocating; delegates to
    /// [`sample_into`](PreparedSampler::sample_into)).
    fn sample_many(&self, rng: &mut dyn RandomSource, count: usize) -> Vec<usize> {
        let mut out = vec![0usize; count];
        self.sample_into(rng, &mut out);
        out
    }
}

/// A weighted sampler whose weights can be **updated in place** between
/// draws.
///
/// This is the dynamic counterpart of [`Selector`] (one-shot, immutable
/// input) and [`PreparedSampler`] (many draws, frozen input): the paper's
/// motivating workload — ant colony construction — mutates the fitness
/// vector every round, and rebuilding a prepared sampler from scratch after
/// every change costs `O(n)`. Implementations in the `lrb-dynamic` crate
/// support `O(log n)` point updates (Fenwick tree) and `O(1)` typical
/// updates (stochastic acceptance).
///
/// The trait is object-safe; the random source is passed as
/// `&mut dyn RandomSource` just like [`Selector::select`].
///
/// # Contract
///
/// * `sample` returns index `i` with probability exactly
///   `w_i / total_weight()`, and never returns an index whose weight is zero.
/// * `update(i, w)` with a finite `w ≥ 0` replaces weight `i`; subsequent
///   draws follow the new distribution.
/// * When every weight is zero, `sample` fails with
///   [`SelectionError::AllZeroFitness`].
///
/// # Example
///
/// ```
/// use lrb_core::{DynamicSampler, Fitness};
/// # // The trait lives here; the implementations live in `lrb-dynamic`.
/// fn drain(sampler: &mut dyn DynamicSampler, rng: &mut dyn lrb_rng::RandomSource) {
///     while sampler.total_weight() > 0.0 {
///         let i = sampler.sample(rng).expect("positive mass remains");
///         sampler.update(i, 0.0).expect("index in range");
///     }
/// }
/// ```
pub trait DynamicSampler: Send + Sync {
    /// The current weights, one per category.
    fn weights(&self) -> &[f64];

    /// Number of categories (fixed at construction).
    fn len(&self) -> usize {
        self.weights().len()
    }

    /// Whether the sampler has zero categories.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current weight of category `index`.
    ///
    /// Panics if `index` is out of range.
    fn weight(&self, index: usize) -> f64 {
        self.weights()[index]
    }

    /// Sum of all current weights.
    fn total_weight(&self) -> f64;

    /// Draw one index with probability proportional to its current weight.
    fn sample(&self, rng: &mut dyn RandomSource) -> Result<usize, SelectionError>;

    /// Replace the weight of category `index` with `new_weight`.
    ///
    /// Fails with [`SelectionError::InvalidFitness`] when the weight is
    /// negative, NaN or infinite. Updating the last positive weight to zero
    /// is allowed; subsequent draws then fail with
    /// [`SelectionError::AllZeroFitness`].
    fn update(&mut self, index: usize, new_weight: f64) -> Result<(), SelectionError>;

    /// Apply many `(index, new_weight)` updates.
    ///
    /// The default applies them in order; implementations may override to
    /// batch tree maintenance or reduce locking.
    fn update_many(&mut self, updates: &[(usize, f64)]) -> Result<(), SelectionError> {
        for &(index, weight) in updates {
            self.update(index, weight)?;
        }
        Ok(())
    }

    /// Fill `out` with independent draws (with replacement).
    ///
    /// The default loops over [`sample`](DynamicSampler::sample); samplers
    /// with per-draw setup (the Fenwick total, the stochastic-acceptance
    /// regime check) override it to hoist
    /// that work out of the loop. Overrides must consume randomness exactly
    /// like the one-at-a-time path, so a buffer fill and a `sample` loop on
    /// identically seeded generators agree draw for draw.
    fn sample_into(
        &self,
        rng: &mut dyn RandomSource,
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        for slot in out.iter_mut() {
            *slot = self.sample(rng)?;
        }
        Ok(())
    }

    /// One draw per stream: `out[i]` comes from `streams[i]` alone,
    /// exactly as [`sample`](DynamicSampler::sample) on that stream draws
    /// it, and each stream is left where that draw leaves it. The service
    /// planner draws a shard's whole group of slots through this, one
    /// Philox substream per slot. The default loops over `sample`;
    /// samplers whose draw is a short fixed computation (the Fenwick
    /// descent) override it to run several streams in lockstep.
    ///
    /// Panics if the two slices differ in length.
    fn sample_streams(
        &self,
        streams: &mut [Philox4x32],
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        assert_eq!(streams.len(), out.len(), "one output slot per stream");
        for (stream, slot) in streams.iter_mut().zip(out) {
            *slot = self.sample(stream)?;
        }
        Ok(())
    }

    /// Draw `count` indices independently (with replacement; allocating,
    /// delegates to [`sample_into`](DynamicSampler::sample_into)).
    fn sample_many(
        &self,
        rng: &mut dyn RandomSource,
        count: usize,
    ) -> Result<Vec<usize>, SelectionError> {
        let mut out = vec![0usize; count];
        self.sample_into(rng, &mut out)?;
        Ok(out)
    }

    /// The categories the sampler keeps a map of, in ascending order,
    /// when it keeps one: every positive weight's category is in it (a
    /// zeroed one may stay), so a fold over it skips only zeros. `None`
    /// (the default) when the sampler covers every category.
    fn support(&self) -> Option<&[u32]> {
        None
    }
}

/// A **frozen** weighted sampler: a snapshot's weights plus read-only
/// draws with exact probabilities.
///
/// This is the read side of the `lrb-engine` snapshot contract: a snapshot
/// exposes draws and its weights but no mutation, so a reader holding one
/// can never perturb what other readers see. The sampler is the snapshot's
/// only weight store — the snapshot answers every weight, length and
/// probability query from [`weights`](FrozenSampler::weights). Every
/// [`DynamicSampler`] satisfies the shape (its `sample` already takes
/// `&self`); the blanket impl below makes each one usable as a frozen
/// backend the moment it stops being updated.
pub trait FrozenSampler: Send + Sync {
    /// The frozen weights, one per category.
    fn weights(&self) -> &[f64];

    /// Draw one index with probability `w_i / Σ w_j`.
    fn sample(&self, rng: &mut dyn RandomSource) -> Result<usize, SelectionError>;

    /// Fill `out` with independent draws. The default loops over
    /// [`sample`](FrozenSampler::sample); the blanket impl forwards to the
    /// dynamic sampler's tight-loop override where one exists.
    fn sample_into(
        &self,
        rng: &mut dyn RandomSource,
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        for slot in out.iter_mut() {
            *slot = self.sample(rng)?;
        }
        Ok(())
    }

    /// One draw per stream, `out[i]` from `streams[i]` alone, exactly as
    /// [`sample`](FrozenSampler::sample) on that stream draws it (see
    /// [`DynamicSampler::sample_streams`]). The default loops over
    /// `sample`; the blanket impl forwards to the dynamic sampler's.
    ///
    /// Panics if the two slices differ in length.
    fn sample_streams(
        &self,
        streams: &mut [Philox4x32],
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        assert_eq!(streams.len(), out.len(), "one output slot per stream");
        for (stream, slot) in streams.iter_mut().zip(out) {
            *slot = self.sample(stream)?;
        }
        Ok(())
    }

    /// The ascending categories every positive weight belongs to, when
    /// the sampler keeps such a map (see [`DynamicSampler::support`]); a
    /// snapshot sums its total over it. `None` (the default) when the
    /// sampler covers every category; the blanket impl forwards.
    fn support(&self) -> Option<&[u32]> {
        None
    }

    /// The concrete sampler as [`Any`](std::any::Any), so a backend's
    /// incremental-publish path can downcast a previous snapshot's sampler
    /// back to its own type and patch it instead of rebuilding from
    /// scratch. Implementations return `self`.
    fn as_any(&self) -> &dyn std::any::Any;
}

impl<T: DynamicSampler + 'static> FrozenSampler for T {
    fn weights(&self) -> &[f64] {
        DynamicSampler::weights(self)
    }

    fn sample(&self, rng: &mut dyn RandomSource) -> Result<usize, SelectionError> {
        DynamicSampler::sample(self, rng)
    }

    fn sample_into(
        &self,
        rng: &mut dyn RandomSource,
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        DynamicSampler::sample_into(self, rng, out)
    }

    fn sample_streams(
        &self,
        streams: &mut [Philox4x32],
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        DynamicSampler::sample_streams(self, streams, out)
    }

    fn support(&self) -> Option<&[u32]> {
        DynamicSampler::support(self)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_rng::{MersenneTwister64, SeedableSource};

    /// A trivial selector used to exercise the default methods.
    struct FirstPositive;

    impl Selector for FirstPositive {
        fn name(&self) -> &'static str {
            "first-positive"
        }
        fn is_exact(&self) -> bool {
            false
        }
        fn select(
            &self,
            fitness: &Fitness,
            _rng: &mut dyn RandomSource,
        ) -> Result<usize, SelectionError> {
            fitness
                .values()
                .iter()
                .position(|&v| v > 0.0)
                .ok_or(SelectionError::AllZeroFitness)
        }
    }

    #[test]
    fn select_many_default_uses_select() {
        let fitness = Fitness::new(vec![0.0, 3.0, 1.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(1);
        let picks = FirstPositive.select_many(&fitness, &mut rng, 5).unwrap();
        assert_eq!(picks, vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn selector_is_usable_as_a_trait_object() {
        let boxed: Box<dyn Selector> = Box::new(FirstPositive);
        let fitness = Fitness::new(vec![2.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(1);
        assert_eq!(boxed.select(&fitness, &mut rng).unwrap(), 0);
        assert_eq!(boxed.name(), "first-positive");
    }

    struct AlwaysZero;
    impl PreparedSampler for AlwaysZero {
        fn len(&self) -> usize {
            1
        }
        fn sample(&self, _rng: &mut dyn RandomSource) -> usize {
            0
        }
    }

    #[test]
    fn prepared_sampler_defaults() {
        let s = AlwaysZero;
        assert!(!s.is_empty());
        let mut rng = MersenneTwister64::seed_from_u64(1);
        assert_eq!(s.sample_many(&mut rng, 3), vec![0, 0, 0]);
    }

    /// A two-category dynamic sampler exercising the trait defaults.
    struct TwoWeights {
        weights: [f64; 2],
    }

    impl DynamicSampler for TwoWeights {
        fn weights(&self) -> &[f64] {
            &self.weights
        }
        fn total_weight(&self) -> f64 {
            self.weights.iter().sum()
        }
        fn sample(&self, rng: &mut dyn RandomSource) -> Result<usize, SelectionError> {
            let total = self.total_weight();
            if total <= 0.0 {
                return Err(SelectionError::AllZeroFitness);
            }
            let r = rng.next_f64() * total;
            Ok(if r < self.weights[0] { 0 } else { 1 })
        }
        fn update(&mut self, index: usize, new_weight: f64) -> Result<(), SelectionError> {
            if !new_weight.is_finite() || new_weight < 0.0 {
                return Err(SelectionError::InvalidFitness {
                    index,
                    value: new_weight,
                });
            }
            self.weights[index] = new_weight;
            Ok(())
        }
    }

    #[test]
    fn dynamic_sampler_is_object_safe_with_working_defaults() {
        let mut boxed: Box<dyn DynamicSampler> = Box::new(TwoWeights {
            weights: [1.0, 3.0],
        });
        let mut rng = MersenneTwister64::seed_from_u64(9);
        assert_eq!(boxed.len(), 2);
        assert!(!boxed.is_empty());
        assert_eq!(boxed.weight(1), 3.0);
        assert_eq!(boxed.total_weight(), 4.0);
        let draws = boxed.sample_many(&mut rng, 100).unwrap();
        assert!(draws.iter().all(|&i| i < 2));
        boxed.update_many(&[(0, 0.0), (1, 0.0)]).unwrap();
        assert!(matches!(
            boxed.sample(&mut rng),
            Err(SelectionError::AllZeroFitness)
        ));
        assert!(boxed.update(0, f64::NAN).is_err());
    }

    #[test]
    fn every_dynamic_sampler_is_a_frozen_sampler() {
        let sampler = TwoWeights {
            weights: [1.0, 3.0],
        };
        let frozen: &dyn FrozenSampler = &sampler;
        assert_eq!(frozen.weights(), &[1.0, 3.0]);
        assert_eq!(frozen.support(), None, "no map by default");
        let mut rng = MersenneTwister64::seed_from_u64(2);
        assert!(frozen.sample(&mut rng).unwrap() < 2);
    }

    #[test]
    fn per_stream_draws_default_to_a_sample_loop() {
        let sampler = TwoWeights {
            weights: [1.0, 3.0],
        };
        let frozen: &dyn FrozenSampler = &sampler;
        let mut streams: Vec<Philox4x32> =
            (0..9).map(|s| Philox4x32::for_substream(4, s)).collect();
        let mut reference = streams.clone();
        let mut out = vec![usize::MAX; streams.len()];
        frozen.sample_streams(&mut streams, &mut out).unwrap();
        for (i, stream) in reference.iter_mut().enumerate() {
            assert_eq!(out[i], DynamicSampler::sample(&sampler, stream).unwrap());
        }
        assert_eq!(
            streams, reference,
            "each stream moves as its own draw moves it"
        );
        let empty = TwoWeights {
            weights: [0.0, 0.0],
        };
        assert_eq!(
            DynamicSampler::sample_streams(&empty, &mut streams[..1], &mut out[..1]),
            Err(SelectionError::AllZeroFitness)
        );
    }
}
