//! The prefix-sum-based parallel roulette wheel selection (the classical
//! exact algorithm the paper reviews in Section I), executed chunk by
//! chunk on one thread.
//!
//! 1. split the fitness slice into chunks and sum each chunk,
//! 2. scan the chunk totals (there are only `n / chunk` of them),
//! 3. draw `R = u · Σf`, locate the chunk whose cumulative range contains
//!    `R`, and scan inside that one chunk.
//!
//! Probabilities are exact; the work is `O(n)` like the logarithmic bidding,
//! but the algorithm needs the two-phase structure (sum, then locate) where
//! the bidding needs only a single arg-max pass — which is exactly the
//! trade-off the throughput benches measure. The chunk sums run on one
//! thread: at the default chunking even `n = 2²⁰` has only 256 of them.

use lrb_rng::RandomSource;

use crate::error::SelectionError;
use crate::fitness::Fitness;
use crate::traits::Selector;

/// Chunked prefix-sum selection.
#[derive(Debug, Clone, Copy)]
pub struct PrefixSumSelector {
    /// Number of fitness values handled per chunk. Part of the draw: the
    /// total is the sum of the chunk sums, so the chunking fixes how the
    /// threshold rounds.
    pub chunk_size: usize,
}

impl Default for PrefixSumSelector {
    fn default() -> Self {
        Self { chunk_size: 4096 }
    }
}

impl PrefixSumSelector {
    fn locate_in_slice(values: &[f64], mut r: f64) -> Option<usize> {
        for (i, &f) in values.iter().enumerate() {
            if f <= 0.0 {
                continue;
            }
            if r < f {
                return Some(i);
            }
            r -= f;
        }
        None
    }
}

impl Selector for PrefixSumSelector {
    fn name(&self) -> &'static str {
        "prefix-sum-rayon"
    }

    fn is_exact(&self) -> bool {
        true
    }

    fn select(
        &self,
        fitness: &Fitness,
        rng: &mut dyn RandomSource,
    ) -> Result<usize, SelectionError> {
        if fitness.is_all_zero() {
            return Err(SelectionError::AllZeroFitness);
        }
        let values = fitness.values();
        let chunk = self.chunk_size.max(1);

        // Phase 1: chunk sums.
        let chunk_sums: Vec<f64> = values.chunks(chunk).map(|c| c.iter().sum()).collect();
        let total: f64 = chunk_sums.iter().sum();

        // Phase 2: draw the threshold and locate the owning chunk.
        let mut r = rng.next_f64() * total;
        let mut chunk_index = chunk_sums.len() - 1;
        for (ci, &cs) in chunk_sums.iter().enumerate() {
            if r < cs {
                chunk_index = ci;
                break;
            }
            r -= cs;
        }

        // Phase 3: locate the index inside the chunk. Rounding can push `r`
        // past the chunk's own mass; walk back to earlier chunks until a
        // positive-fitness index absorbs the draw.
        loop {
            let start = chunk_index * chunk;
            let end = (start + chunk).min(values.len());
            if let Some(offset) = Self::locate_in_slice(&values[start..end], r) {
                return Ok(start + offset);
            }
            // Exhausted this chunk without absorbing r (possible only through
            // floating-point rounding at the right edge): attribute the draw
            // to the last positive-fitness index seen so far.
            if let Some(i) = values[..end].iter().rposition(|&f| f > 0.0) {
                return Ok(i);
            }
            // No positive fitness up to this chunk; move forward.
            chunk_index += 1;
            r = 0.0;
            if chunk_index * chunk >= values.len() {
                // Cannot happen for a validated non-all-zero vector.
                return Err(SelectionError::AllZeroFitness);
            }
        }
    }

    /// Batch selection builds the prefix table **once** and then answers
    /// every draw with an `O(log n)` binary search, instead of re-scanning
    /// (and re-summing) the fitness vector per call as the default loop
    /// would — the hot-path fix surfaced by the dynamic-selection benches.
    fn select_into(
        &self,
        fitness: &Fitness,
        rng: &mut dyn RandomSource,
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        if fitness.is_all_zero() {
            return Err(SelectionError::AllZeroFitness);
        }
        let values = fitness.values();
        // Inclusive prefix sums: cumulative[i] = f_0 + … + f_i.
        let mut cumulative = Vec::with_capacity(values.len());
        let mut running = 0.0;
        for &f in values {
            running += f;
            cumulative.push(running);
        }
        let total = running;
        let last_positive = values
            .iter()
            .rposition(|&f| f > 0.0)
            .expect("non-all-zero vector has a positive entry");

        for slot in out.iter_mut() {
            let r = rng.next_f64() * total;
            // First index whose cumulative mass exceeds r. Ties on the
            // boundary (cumulative == r) move right, matching the strict
            // `r < f` comparison of the sequential scan.
            let index = cumulative.partition_point(|&c| c <= r);
            // Rounding at the right edge can land past the end or on a
            // zero-fitness index; attribute such draws to the last
            // positive-fitness index, as `select` does.
            let index = index.min(last_positive);
            *slot = if values[index] > 0.0 {
                index
            } else {
                values[..index]
                    .iter()
                    .rposition(|&f| f > 0.0)
                    .unwrap_or(last_positive)
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_rng::{MersenneTwister64, SeedableSource};
    use lrb_stats::EmpiricalDistribution;
    use proptest::prelude::*;

    #[test]
    fn distribution_matches_targets_small_input() {
        let fitness = Fitness::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let selector = PrefixSumSelector::default();
        let mut rng = MersenneTwister64::seed_from_u64(31);
        let mut dist = EmpiricalDistribution::new(fitness.len());
        for _ in 0..200_000 {
            dist.record(selector.select(&fitness, &mut rng).unwrap());
        }
        assert!(dist.max_abs_deviation(&fitness.probabilities()) < 0.005);
        assert!(dist
            .goodness_of_fit(&fitness.probabilities())
            .is_consistent(0.001));
    }

    #[test]
    fn distribution_matches_targets_with_tiny_chunks() {
        // Chunk size 3 over 10 values exercises the chunk-walk logic heavily.
        let fitness = Fitness::table1();
        let selector = PrefixSumSelector { chunk_size: 3 };
        let mut rng = MersenneTwister64::seed_from_u64(32);
        let mut dist = EmpiricalDistribution::new(fitness.len());
        for _ in 0..200_000 {
            dist.record(selector.select(&fitness, &mut rng).unwrap());
        }
        assert!(dist.max_abs_deviation(&fitness.probabilities()) < 0.005);
        assert_eq!(dist.counts()[0], 0);
    }

    #[test]
    fn agrees_with_linear_scan_given_the_same_randomness() {
        // Both algorithms consume exactly one uniform per selection and place
        // the threshold identically, so with a shared seed they must agree.
        use crate::sequential::LinearScanSelector;
        let fitness = Fitness::new(vec![0.3, 0.0, 2.0, 1.7, 0.0, 5.0]).unwrap();
        let selector = PrefixSumSelector { chunk_size: 2 };
        let mut rng_a = MersenneTwister64::seed_from_u64(12);
        let mut rng_b = MersenneTwister64::seed_from_u64(12);
        for _ in 0..5000 {
            assert_eq!(
                selector.select(&fitness, &mut rng_a).unwrap(),
                LinearScanSelector.select(&fitness, &mut rng_b).unwrap()
            );
        }
    }

    #[test]
    fn zero_fitness_never_selected() {
        let fitness = Fitness::sparse(1000, 5, 2.0).unwrap();
        let selector = PrefixSumSelector { chunk_size: 64 };
        let mut rng = MersenneTwister64::seed_from_u64(4);
        for _ in 0..5000 {
            let i = selector.select(&fitness, &mut rng).unwrap();
            assert!(fitness.values()[i] > 0.0);
        }
    }

    #[test]
    fn all_zero_rejected() {
        let fitness = Fitness::new(vec![0.0; 10]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(4);
        assert!(PrefixSumSelector::default()
            .select(&fitness, &mut rng)
            .is_err());
    }

    #[test]
    fn large_parallel_path_matches_probabilities_roughly() {
        // 20k values over 20 chunks.
        let fitness = Fitness::from_fn(20_000, |i| if i % 100 == 0 { 50.0 } else { 0.5 }).unwrap();
        let selector = PrefixSumSelector { chunk_size: 1024 };
        let mut rng = MersenneTwister64::seed_from_u64(5);
        // The 200 "heavy" indices carry 50·200 = 10000 of the total 19900.
        let heavy_mass: f64 = 50.0 * 200.0 / fitness.total();
        let trials = 20_000;
        let heavy = (0..trials)
            .filter(|_| {
                let i = selector.select(&fitness, &mut rng).unwrap();
                i % 100 == 0
            })
            .count();
        let freq = heavy as f64 / trials as f64;
        assert!(
            (freq - heavy_mass).abs() < 0.02,
            "freq {freq}, expected {heavy_mass}"
        );
    }

    #[test]
    fn select_many_agrees_with_repeated_select_on_a_shared_stream() {
        // The batch path consumes exactly one uniform per draw and inverts
        // the same CDF, so with a shared seed it tracks the one-at-a-time
        // sequence draw for draw. Agreement is not guaranteed bit-for-bit —
        // `select` subtracts iteratively (r -= f) while the batch path
        // compares against a precomputed cumulative table, and a threshold
        // within one ulp of a CDF boundary can round to different indices —
        // so a vanishing number of boundary mismatches is tolerated.
        let fitness = Fitness::new(vec![0.3, 0.0, 2.0, 1.7, 0.0, 5.0]).unwrap();
        let selector = PrefixSumSelector::default();
        let mut rng_a = MersenneTwister64::seed_from_u64(77);
        let mut rng_b = MersenneTwister64::seed_from_u64(77);
        let trials = 5_000;
        let batch = selector.select_many(&fitness, &mut rng_a, trials).unwrap();
        let mismatches = (0..trials)
            .filter(|&t| batch[t] != selector.select(&fitness, &mut rng_b).unwrap())
            .count();
        assert!(
            mismatches <= 2,
            "batch and single paths disagreed on {mismatches} of {trials} draws"
        );
    }

    #[test]
    fn select_many_rejects_all_zero_and_handles_zero_count() {
        let selector = PrefixSumSelector::default();
        let mut rng = MersenneTwister64::seed_from_u64(1);
        let zeros = Fitness::new(vec![0.0, 0.0]).unwrap();
        assert!(selector.select_many(&zeros, &mut rng, 3).is_err());
        let fitness = Fitness::table1();
        assert!(selector
            .select_many(&fitness, &mut rng, 0)
            .unwrap()
            .is_empty());
    }

    proptest! {
        #[test]
        fn prop_selected_index_has_positive_fitness(
            values in proptest::collection::vec(0.0f64..10.0, 1..300),
            seed: u64,
            chunk in 1usize..64,
        ) {
            prop_assume!(values.iter().any(|&v| v > 0.0));
            let fitness = Fitness::new(values).unwrap();
            let selector = PrefixSumSelector { chunk_size: chunk };
            let mut rng = MersenneTwister64::seed_from_u64(seed);
            let i = selector.select(&fitness, &mut rng).unwrap();
            prop_assert!(fitness.values()[i] > 0.0);
        }
    }
}
