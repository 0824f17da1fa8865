//! An updatable stochastic-acceptance sampler (Lipowski & Lipowska,
//! arXiv:1109.3627): `O(1)` expected draws by rejection against the maximum
//! weight, `O(1)` typical updates.
//!
//! A draw picks a uniform index and accepts it with probability
//! `w_i / w_max` — exactly `F_i = w_i / Σ w_j` overall, because every index
//! is proposed equally often and acceptance is proportional to its weight.
//! The expected number of rejection rounds is `n · w_max / Σ w_j`, so the
//! engine shines on balanced weight vectors (where it needs ~1 round and no
//! tree or table at all) and degrades on skewed ones. Two fallbacks keep the
//! worst case bounded **and** exact:
//!
//! * construction and updates watch the skew `n · w_max / Σ w_j`; a draw
//!   whose expected round count is hopeless (or whose support collapsed to a
//!   single survivor) skips rejection entirely and inverts the CDF by linear
//!   scan, which is the same distribution;
//! * otherwise a hard `max_rounds` cap backstops unlucky streaks with the
//!   same linear scan.
//!
//! Updates maintain `w_max` in `O(1)` when the new weight rises to (or
//! above) the maximum; lowering the current argmax rescans once in `O(n)`.

use lrb_core::error::SelectionError;
use lrb_core::fitness::Fitness;
use lrb_core::sequential::{acceptance_rounds, linear_scan_weights};
use lrb_core::traits::DynamicSampler;
use lrb_rng::RandomSource;

use crate::validate_weight;

/// Expected-rounds threshold beyond which a draw goes straight to the
/// linear-scan fallback instead of rejection sampling.
const DEGENERATE_ROUNDS: f64 = 256.0;

/// An updatable weighted sampler using stochastic acceptance.
///
/// # Example
///
/// ```
/// use lrb_core::DynamicSampler;
/// use lrb_dynamic::StochasticAcceptanceSampler;
/// use lrb_rng::{MersenneTwister64, SeedableSource};
///
/// let mut sampler = StochasticAcceptanceSampler::from_weights(vec![1.0, 1.0, 2.0]).unwrap();
/// sampler.update(0, 0.0).unwrap();
/// let mut rng = MersenneTwister64::seed_from_u64(4);
/// for _ in 0..200 {
///     assert_ne!(sampler.sample(&mut rng).unwrap(), 0); // zero weight, never drawn
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticAcceptanceSampler {
    weights: Vec<f64>,
    /// Exact running total, re-derived on the `O(n)` paths so accumulation
    /// error stays bounded by one update window.
    total: f64,
    /// Largest current weight (the acceptance denominator).
    max: f64,
    /// Number of strictly positive weights.
    non_zero: usize,
    /// Hard cap on rejection rounds before the linear-scan fallback.
    max_rounds: usize,
}

impl StochasticAcceptanceSampler {
    /// Build a sampler from raw weights, validating them like
    /// [`Fitness::new`]. An all-zero vector is allowed (sampling then fails
    /// with [`SelectionError::AllZeroFitness`]); an empty one is not.
    pub fn from_weights(weights: Vec<f64>) -> Result<Self, SelectionError> {
        if weights.is_empty() {
            return Err(SelectionError::EmptyFitness);
        }
        for (index, &value) in weights.iter().enumerate() {
            validate_weight(index, value)?;
        }
        Ok(Self::from_validated(weights))
    }

    /// Build a sampler from an already-validated [`Fitness`] vector.
    pub fn from_fitness(fitness: &Fitness) -> Self {
        Self::from_validated(fitness.values().to_vec())
    }

    fn from_validated(weights: Vec<f64>) -> Self {
        let mut sampler = Self {
            weights,
            total: 0.0,
            max: 0.0,
            non_zero: 0,
            max_rounds: 10_000,
        };
        sampler.recompute_aggregates();
        sampler
    }

    /// Re-derive `total`, `max` and `non_zero` exactly from the weights.
    fn recompute_aggregates(&mut self) {
        self.total = self.weights.iter().sum();
        self.max = self.weights.iter().cloned().fold(0.0, f64::max);
        self.non_zero = self.weights.iter().filter(|&&w| w > 0.0).count();
    }

    /// Build the **next** sampler from `prev` by applying a coalesced
    /// publish batch — a whole-vector `scale` fold followed by absolute
    /// `(index, weight)` overrides — on a copy of `prev`'s weights instead
    /// of an `O(n)` rebuild.
    ///
    /// The copy is one `memcpy`; a `scale ≠ 1` adds a single pass that
    /// re-derives `total`, `max` and the support count exactly while
    /// scaling; the overrides then apply in `O(d)` with `max` maintained
    /// incrementally — only when some override lowered a weight that held
    /// the maximum does one deferred aggregate rescan run at the end
    /// (applying it per override, as a plain `update` loop would, costs
    /// `O(d · n)` on adversarial batches). Weights equal exactly what
    /// [`from_weights`](StochasticAcceptanceSampler::from_weights) over
    /// the folded vector would hold; a scale fold that overflows fails
    /// with the full-rebuild path's validation error.
    pub fn patched_from(
        prev: &Self,
        overrides: &[(usize, f64)],
        scale: f64,
    ) -> Result<Self, SelectionError> {
        if !scale.is_finite() || scale < 0.0 {
            return Err(SelectionError::InvalidScale { factor: scale });
        }
        for &(index, weight) in overrides {
            validate_weight(index, weight)?;
        }
        let mut sampler = prev.clone();
        if scale != 1.0 {
            let mut total = 0.0;
            let mut max = 0.0f64;
            let mut non_zero = 0usize;
            for w in sampler.weights.iter_mut() {
                *w *= scale;
                total += *w;
                max = max.max(*w);
                non_zero += (*w > 0.0) as usize;
            }
            sampler.total = total;
            sampler.max = max;
            sampler.non_zero = non_zero;
        }
        let mut max_lowered = false;
        for &(index, weight) in overrides {
            assert!(
                index < sampler.weights.len(),
                "index {index} outside 0..{}",
                sampler.weights.len()
            );
            let old = sampler.weights[index];
            sampler.weights[index] = weight;
            if old > 0.0 && weight == 0.0 {
                sampler.non_zero -= 1;
            } else if old == 0.0 && weight > 0.0 {
                sampler.non_zero += 1;
            }
            sampler.total += weight - old;
            if weight >= sampler.max {
                sampler.max = weight;
            } else if old >= sampler.max {
                max_lowered = true;
            }
        }
        if max_lowered {
            sampler.recompute_aggregates();
        }
        // A non-finite total is only an error when an individual weight
        // overflowed — the rebuild path validates weights, not their sum.
        if !sampler.total.is_finite() {
            if let Some(error) = crate::fenwick::non_finite_weight_error(&sampler.weights) {
                return Err(error);
            }
        }
        Ok(sampler)
    }

    /// Expected rejection rounds per draw, `n · w_max / Σ w_j`.
    pub fn expected_rounds(&self) -> f64 {
        if self.total <= 0.0 {
            return f64::INFINITY;
        }
        self.weights.len() as f64 * self.max / self.total
    }

    /// Number of strictly positive weights.
    pub fn non_zero_count(&self) -> usize {
        self.non_zero
    }
}

impl DynamicSampler for StochasticAcceptanceSampler {
    fn weights(&self) -> &[f64] {
        &self.weights
    }

    fn total_weight(&self) -> f64 {
        self.total
    }

    fn sample(&self, rng: &mut dyn RandomSource) -> Result<usize, SelectionError> {
        if self.non_zero == 0 {
            return Err(SelectionError::AllZeroFitness);
        }
        // Degenerate weights: a single survivor makes rejection pointless,
        // and extreme skew makes it unboundedly slow; both fall back to the
        // exact linear scan shared with `lrb_core::sequential`.
        if self.non_zero == 1 || self.expected_rounds() > DEGENERATE_ROUNDS {
            return Ok(linear_scan_weights(&self.weights, self.total, rng));
        }
        if let Some(candidate) = acceptance_rounds(&self.weights, self.max, self.max_rounds, rng) {
            return Ok(candidate);
        }
        // Statistically unreachable given the skew guard above; stay exact.
        Ok(linear_scan_weights(&self.weights, self.total, rng))
    }

    /// Tight-loop fill: the support check and the degenerate-regime decision
    /// (single survivor or hopeless skew → linear scan) are hoisted out of
    /// the loop — they depend only on aggregates that cannot change behind
    /// `&self`. Per-draw randomness consumption matches
    /// [`sample`](DynamicSampler::sample) exactly on both branches.
    fn sample_into(
        &self,
        rng: &mut dyn RandomSource,
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        if self.non_zero == 0 {
            return Err(SelectionError::AllZeroFitness);
        }
        if self.non_zero == 1 || self.expected_rounds() > DEGENERATE_ROUNDS {
            for slot in out.iter_mut() {
                *slot = linear_scan_weights(&self.weights, self.total, rng);
            }
            return Ok(());
        }
        for slot in out.iter_mut() {
            *slot = match acceptance_rounds(&self.weights, self.max, self.max_rounds, rng) {
                Some(candidate) => candidate,
                None => linear_scan_weights(&self.weights, self.total, rng),
            };
        }
        Ok(())
    }

    fn update(&mut self, index: usize, new_weight: f64) -> Result<(), SelectionError> {
        assert!(
            index < self.weights.len(),
            "index {index} outside 0..{}",
            self.weights.len()
        );
        validate_weight(index, new_weight)?;
        let old = self.weights[index];
        self.weights[index] = new_weight;
        if old > 0.0 && new_weight == 0.0 {
            self.non_zero -= 1;
        } else if old == 0.0 && new_weight > 0.0 {
            self.non_zero += 1;
        }
        if new_weight >= self.max {
            // O(1): a new (or tied) maximum.
            self.max = new_weight;
            self.total += new_weight - old;
        } else if old >= self.max {
            // Lowered the argmax holder: rescan once, refreshing the exact
            // total for free.
            self.recompute_aggregates();
        } else {
            self.total += new_weight - old;
        }
        Ok(())
    }

    fn update_many(&mut self, updates: &[(usize, f64)]) -> Result<(), SelectionError> {
        for &(index, weight) in updates {
            assert!(
                index < self.weights.len(),
                "index {index} outside 0..{}",
                self.weights.len()
            );
            validate_weight(index, weight)?;
        }
        for &(index, weight) in updates {
            self.weights[index] = weight;
        }
        self.recompute_aggregates();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_rng::{MersenneTwister64, SeedableSource};
    use lrb_stats::chi_square_gof;

    #[test]
    fn empty_and_invalid_weights_are_rejected() {
        assert_eq!(
            StochasticAcceptanceSampler::from_weights(vec![]),
            Err(SelectionError::EmptyFitness)
        );
        assert!(StochasticAcceptanceSampler::from_weights(vec![1.0, -2.0]).is_err());
        assert!(StochasticAcceptanceSampler::from_weights(vec![f64::NAN]).is_err());
    }

    #[test]
    fn aggregates_track_updates_exactly() {
        let mut sampler =
            StochasticAcceptanceSampler::from_weights(vec![1.0, 4.0, 2.0, 0.0]).unwrap();
        assert_eq!(sampler.non_zero_count(), 3);
        assert!((sampler.total_weight() - 7.0).abs() < 1e-12);
        assert!((sampler.expected_rounds() - 4.0 * 4.0 / 7.0).abs() < 1e-12);
        // Lower the argmax holder: the max must drop to the runner-up.
        sampler.update(1, 0.5).unwrap();
        assert!((sampler.total_weight() - 3.5).abs() < 1e-12);
        assert!((sampler.expected_rounds() - 4.0 * 2.0 / 3.5).abs() < 1e-12);
        // Raise past the maximum in O(1).
        sampler.update(3, 9.0).unwrap();
        assert!((sampler.total_weight() - 12.5).abs() < 1e-12);
        assert_eq!(sampler.non_zero_count(), 4);
    }

    #[test]
    fn draws_match_the_weights_in_distribution() {
        let weights = vec![1.0, 2.0, 3.0, 4.0];
        let sampler = StochasticAcceptanceSampler::from_weights(weights.clone()).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(31);
        let trials = 200_000u64;
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..trials {
            counts[sampler.sample(&mut rng).unwrap()] += 1;
        }
        let total: f64 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let gof = chi_square_gof(&counts, &probs);
        assert!(gof.is_consistent(0.01), "p = {}", gof.p_value);
    }

    #[test]
    fn distribution_stays_exact_after_update_bursts() {
        let mut sampler = StochasticAcceptanceSampler::from_weights(vec![1.0; 8]).unwrap();
        let burst = [(0, 5.0), (3, 0.0), (7, 2.5), (1, 0.25), (3, 1.5), (0, 0.5)];
        for &(i, w) in &burst {
            sampler.update(i, w).unwrap();
        }
        let weights = sampler.weights().to_vec();
        let total: f64 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut rng = MersenneTwister64::seed_from_u64(32);
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..200_000 {
            counts[sampler.sample(&mut rng).unwrap()] += 1;
        }
        let gof = chi_square_gof(&counts, &probs);
        assert!(gof.is_consistent(0.01), "p = {}", gof.p_value);
    }

    #[test]
    fn single_survivor_uses_the_degenerate_fallback() {
        let mut sampler = StochasticAcceptanceSampler::from_weights(vec![0.0, 0.0, 3.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(33);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut rng).unwrap(), 2);
        }
        sampler.update(2, 0.0).unwrap();
        assert_eq!(
            sampler.sample(&mut rng),
            Err(SelectionError::AllZeroFitness)
        );
    }

    #[test]
    fn pathological_skew_stays_exact_via_linear_fallback() {
        // One overwhelming weight among many tiny ones: expected rounds
        // ~ n, far past the degenerate threshold at this size.
        let n = 4096;
        let mut weights = vec![1e-9; n];
        weights[17] = 1.0;
        let sampler = StochasticAcceptanceSampler::from_weights(weights).unwrap();
        assert!(sampler.expected_rounds() > DEGENERATE_ROUNDS);
        let mut rng = MersenneTwister64::seed_from_u64(34);
        let mut hits = 0;
        for _ in 0..1_000 {
            if sampler.sample(&mut rng).unwrap() == 17 {
                hits += 1;
            }
        }
        // Index 17 holds ~99.9996% of the mass.
        assert!(hits >= 998, "only {hits}/1000 draws hit the heavy index");
    }

    #[test]
    fn update_many_recomputes_aggregates() {
        let mut sampler = StochasticAcceptanceSampler::from_weights(vec![1.0; 4]).unwrap();
        sampler
            .update_many(&[(0, 0.0), (1, 0.0), (2, 0.0), (3, 2.0)])
            .unwrap();
        assert_eq!(sampler.non_zero_count(), 1);
        assert!((sampler.total_weight() - 2.0).abs() < 1e-12);
        assert!(sampler.update_many(&[(0, f64::INFINITY)]).is_err());
        // Failed batches must not corrupt the aggregates.
        assert!((sampler.total_weight() - 2.0).abs() < 1e-12);
    }
}
