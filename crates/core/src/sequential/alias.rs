//! The Walker/Vose alias method: `O(n)` build, `O(1)` per draw, exact
//! probabilities.
//!
//! The fastest known approach when many draws are taken from a *fixed*
//! distribution; included as the strongest prepared-sampling baseline for the
//! throughput benches.

use lrb_rng::RandomSource;

use crate::error::SelectionError;
use crate::fitness::Fitness;
use crate::traits::PreparedSampler;

/// An alias table built with Vose's numerically stable construction.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasSampler {
    /// Probability of keeping the column's own index (scaled to [0, 1]).
    keep: Vec<f64>,
    /// The alias index used when the column's own index is rejected.
    alias: Vec<usize>,
}

/// Reusable build scratch for [`AliasSampler`]: Vose's scaled-probability
/// work vector and the two worklists. These are transient — nothing in them
/// survives the build — so a caller that rebuilds tables repeatedly (the
/// `lrb-engine` publish path) can pool one `AliasScratch` and stop paying
/// three allocations per rebuild. A default-constructed scratch is always
/// valid; buffers grow to the largest table built through them and are
/// reused thereafter.
#[derive(Debug, Clone, Default)]
pub struct AliasScratch {
    work: Vec<f64>,
    small: Vec<usize>,
    large: Vec<usize>,
}

impl AliasSampler {
    /// Build the alias table from a fitness vector.
    pub fn new(fitness: &Fitness) -> Result<Self, SelectionError> {
        if fitness.is_all_zero() {
            return Err(SelectionError::AllZeroFitness);
        }
        let mut scratch = AliasScratch::default();
        Self::from_validated_weights(fitness.values(), fitness.total(), &mut scratch)
    }

    /// Build the alias table from **already validated** weights (non-empty,
    /// finite, non-negative, with strictly positive `total`), reusing the
    /// caller's [`AliasScratch`] for every transient buffer. Only the
    /// `keep`/`alias` tables that live inside the returned sampler are
    /// allocated.
    pub fn from_validated_weights(
        weights: &[f64],
        total: f64,
        scratch: &mut AliasScratch,
    ) -> Result<Self, SelectionError> {
        if !total.is_finite() {
            // Individually valid weights can only get here by their sum
            // overflowing to +∞ (e.g. an evaporation fold upstream): blame
            // the largest weight instead of claiming the vector is
            // all-zero.
            let (index, &value) = weights
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("a non-finite total needs at least one weight");
            return Err(SelectionError::InvalidFitness { index, value });
        }
        if total <= 0.0 {
            return Err(SelectionError::AllZeroFitness);
        }
        let n = weights.len();
        let mut keep = vec![0.0; n];
        let mut alias = vec![0usize; n];
        let AliasScratch { work, small, large } = scratch;
        small.clear();
        large.clear();
        work.clear();
        // Scaled probabilities: mean 1 across columns.
        work.extend(weights.iter().map(|&v| v * n as f64 / total));
        for (i, &w) in work.iter().enumerate() {
            if w < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }

        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            keep[s] = work[s];
            alias[s] = l;
            // The large column donates the mass that fills column s up to 1.
            work[l] = (work[l] + work[s]) - 1.0;
            if work[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Whatever remains (numerical leftovers) keeps its own index with
        // probability 1.
        for &i in large.iter().chain(small.iter()) {
            keep[i] = 1.0;
            alias[i] = i;
        }

        Ok(Self { keep, alias })
    }

    /// The keep-probability table (exposed for tests and diagnostics).
    pub fn keep_probabilities(&self) -> &[f64] {
        &self.keep
    }

    /// The alias table (exposed for tests and diagnostics).
    pub fn aliases(&self) -> &[usize] {
        &self.alias
    }
}

impl PreparedSampler for AliasSampler {
    fn len(&self) -> usize {
        self.keep.len()
    }

    fn sample(&self, rng: &mut dyn RandomSource) -> usize {
        let n = self.keep.len();
        let column = rng.next_u64_below(n as u64) as usize;
        if rng.next_f64() < self.keep[column] {
            column
        } else {
            self.alias[column]
        }
    }

    /// Tight-loop fill: one virtual call per buffer instead of per draw,
    /// with the column count hoisted. Randomness consumption per draw is
    /// identical to [`sample`](PreparedSampler::sample), so a buffer fill
    /// and a `sample` loop on equal seeds agree draw for draw.
    fn sample_into(&self, rng: &mut dyn RandomSource, out: &mut [usize]) {
        let n = self.keep.len() as u64;
        for slot in out.iter_mut() {
            let column = rng.next_u64_below(n) as usize;
            *slot = if rng.next_f64() < self.keep[column] {
                column
            } else {
                self.alias[column]
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_rng::{MersenneTwister64, SeedableSource};
    use lrb_stats::EmpiricalDistribution;
    use proptest::prelude::*;

    #[test]
    fn all_zero_rejected() {
        let f = Fitness::new(vec![0.0, 0.0]).unwrap();
        assert_eq!(AliasSampler::new(&f), Err(SelectionError::AllZeroFitness));
    }

    #[test]
    fn uniform_distribution_keeps_every_column() {
        let f = Fitness::uniform(8, 3.0).unwrap();
        let s = AliasSampler::new(&f).unwrap();
        assert!(s
            .keep_probabilities()
            .iter()
            .all(|&k| (k - 1.0).abs() < 1e-12));
    }

    #[test]
    fn implied_probabilities_match_targets() {
        // Reconstruct each index's total probability from the table:
        // P(i) = (keep_i + Σ_{j: alias_j = i} (1 − keep_j)) / n.
        let f = Fitness::new(vec![0.5, 1.5, 3.0, 0.0, 5.0]).unwrap();
        let s = AliasSampler::new(&f).unwrap();
        let n = f.len();
        let mut implied = vec![0.0; n];
        for i in 0..n {
            implied[i] += s.keep_probabilities()[i];
            let j = s.aliases()[i];
            implied[j] += 1.0 - s.keep_probabilities()[i];
        }
        for (i, p) in implied.iter_mut().enumerate() {
            *p /= n as f64;
            assert!(
                (*p - f.probability(i)).abs() < 1e-12,
                "index {i}: implied {p}, target {}",
                f.probability(i)
            );
        }
    }

    #[test]
    fn zero_fitness_indices_are_never_sampled() {
        let f = Fitness::new(vec![0.0, 1.0, 0.0, 2.0, 0.0]).unwrap();
        let s = AliasSampler::new(&f).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(4);
        for _ in 0..20_000 {
            let i = s.sample(&mut rng);
            assert!(f.values()[i] > 0.0, "sampled zero-fitness index {i}");
        }
    }

    #[test]
    fn empirical_distribution_matches_table1() {
        let f = Fitness::table1();
        let s = AliasSampler::new(&f).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(8);
        let trials = 300_000;
        let mut dist = EmpiricalDistribution::new(f.len());
        for _ in 0..trials {
            dist.record(s.sample(&mut rng));
        }
        assert!(dist.max_abs_deviation(&f.probabilities()) < 0.004);
        assert!(dist
            .goodness_of_fit(&f.probabilities())
            .is_consistent(0.001));
    }

    #[test]
    fn single_element_distribution() {
        let f = Fitness::new(vec![4.0]).unwrap();
        let s = AliasSampler::new(&f).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(8);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng), 0);
        }
    }

    proptest! {
        #[test]
        fn prop_alias_table_conserves_probability_mass(
            values in proptest::collection::vec(0.0f64..100.0, 1..64)
        ) {
            prop_assume!(values.iter().any(|&v| v > 0.0));
            let f = Fitness::new(values).unwrap();
            let s = AliasSampler::new(&f).unwrap();
            let n = f.len();
            let mut implied = vec![0.0; n];
            for i in 0..n {
                implied[i] += s.keep_probabilities()[i];
                implied[s.aliases()[i]] += 1.0 - s.keep_probabilities()[i];
            }
            for (i, p) in implied.iter().enumerate() {
                prop_assert!((p / n as f64 - f.probability(i)).abs() < 1e-9);
            }
        }
    }
}
