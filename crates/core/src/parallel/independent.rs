//! The **independent roulette** selection (Cecilia et al., 2013): each index
//! draws `r_i = f_i · u_i` and the arg-max wins.
//!
//! This is the fast data-parallel heuristic used by several GPU ant-colony
//! implementations, and the foil of the paper: its selection probabilities
//! are *not* `F_i`. The bias is dramatic for small fitness values — the
//! paper's introduction works out `n = 2, f = [2, 1]`, where index 0 is
//! selected with probability 3/4 instead of 2/3, and Table II shows an index
//! whose true probability is 1/199 being selected essentially never
//! (≈ 1.6·10⁻³²). We reproduce the algorithm faithfully so the tables and
//! benches can quantify exactly that gap; the closed-form probabilities it
//! *does* follow are computed in [`crate::analysis`].

use lrb_rng::RandomSource;

use crate::error::SelectionError;
use crate::fitness::Fitness;
use crate::parallel::max_by_key_then_index;
use crate::traits::Selector;

/// Sequential streaming independent roulette (`r_i = f_i · u_i`, arg-max).
#[derive(Debug, Clone, Copy, Default)]
pub struct IndependentRouletteSelector;

impl Selector for IndependentRouletteSelector {
    fn name(&self) -> &'static str {
        "independent-roulette-sequential"
    }

    fn is_exact(&self) -> bool {
        false
    }

    fn select(
        &self,
        fitness: &Fitness,
        rng: &mut dyn RandomSource,
    ) -> Result<usize, SelectionError> {
        if fitness.is_all_zero() {
            return Err(SelectionError::AllZeroFitness);
        }
        let mut best = (f64::NEG_INFINITY, usize::MAX);
        for (i, &f) in fitness.values().iter().enumerate() {
            if f == 0.0 {
                continue;
            }
            best = max_by_key_then_index(best, (f * rng.next_f64(), i));
        }
        Ok(best.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_rng::{MersenneTwister64, SeedableSource};
    use lrb_stats::EmpiricalDistribution;

    #[test]
    fn paper_intro_example_shows_the_bias() {
        // n = 2, f = [2, 1]: the paper derives P(select 0) = 3/4 for the
        // independent roulette (the exact answer would be 2/3).
        let fitness = Fitness::new(vec![2.0, 1.0]).unwrap();
        let selector = IndependentRouletteSelector;
        let mut rng = MersenneTwister64::seed_from_u64(3);
        let trials = 300_000;
        let zero = (0..trials)
            .filter(|_| selector.select(&fitness, &mut rng).unwrap() == 0)
            .count();
        let freq = zero as f64 / trials as f64;
        assert!(
            (freq - 0.75).abs() < 0.004,
            "frequency {freq}, expected 0.75"
        );
        assert!(
            (freq - 2.0 / 3.0).abs() > 0.05,
            "the bias should be clearly visible"
        );
    }

    #[test]
    fn equal_fitness_values_are_selected_uniformly() {
        // With all fitness equal the independent roulette happens to be
        // unbiased; this pins down that the implementation is not *always*
        // wrong, only for unequal weights.
        let fitness = Fitness::uniform(4, 3.0).unwrap();
        let selector = IndependentRouletteSelector;
        let mut rng = MersenneTwister64::seed_from_u64(9);
        let mut dist = EmpiricalDistribution::new(4);
        for _ in 0..100_000 {
            dist.record(selector.select(&fitness, &mut rng).unwrap());
        }
        assert!(dist.max_abs_deviation(&fitness.probabilities()) < 0.01);
    }

    #[test]
    fn table2_index_zero_is_essentially_never_selected() {
        // Table II's headline: the true probability of index 0 is 1/199 ≈
        // 0.005, but the independent roulette selects it with probability
        // ≈ 1.6·10⁻³² — i.e. never in any feasible number of trials.
        let fitness = Fitness::table2();
        let selector = IndependentRouletteSelector;
        let mut rng = MersenneTwister64::seed_from_u64(5);
        let trials = 200_000;
        let zero = (0..trials)
            .filter(|_| selector.select(&fitness, &mut rng).unwrap() == 0)
            .count();
        assert_eq!(
            zero, 0,
            "index 0 should never win under independent roulette"
        );
    }

    #[test]
    fn table1_small_indices_are_starved() {
        // In Table I the independent roulette gives index 1 probability
        // 0.000000 and index 2 probability 0.000088 — drastically below their
        // true 0.0222 / 0.0444.
        let fitness = Fitness::table1();
        let selector = IndependentRouletteSelector;
        let mut rng = MersenneTwister64::seed_from_u64(6);
        let mut dist = EmpiricalDistribution::new(fitness.len());
        for _ in 0..200_000 {
            dist.record(selector.select(&fitness, &mut rng).unwrap());
        }
        assert!(dist.frequency(1) < 1e-4);
        assert!(dist.frequency(2) < 1e-3);
        // … while the largest index is grossly over-selected (0.3935 vs 0.2).
        assert!(dist.frequency(9) > 0.35);
        // And the chi-square test rejects the exact distribution decisively.
        assert!(!dist
            .goodness_of_fit(&fitness.probabilities())
            .is_consistent(0.001));
    }

    #[test]
    fn zero_fitness_is_never_selected_and_all_zero_is_rejected() {
        let fitness = Fitness::new(vec![0.0, 1.0, 0.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(2);
        for _ in 0..2000 {
            assert_eq!(
                IndependentRouletteSelector
                    .select(&fitness, &mut rng)
                    .unwrap(),
                1
            );
        }
        let all_zero = Fitness::new(vec![0.0, 0.0]).unwrap();
        assert!(IndependentRouletteSelector
            .select(&all_zero, &mut rng)
            .is_err());
    }

    #[test]
    fn both_variants_are_flagged_as_inexact() {
        // The selector by type and the boxed entry that `all_selectors()`
        // hands to the table binaries and benches must both flag the bias.
        assert!(!IndependentRouletteSelector.is_exact());
        let boxed: Vec<_> = crate::all_selectors()
            .into_iter()
            .filter(|s| s.name() == IndependentRouletteSelector.name())
            .collect();
        assert_eq!(boxed.len(), 1, "one registry entry");
        assert!(!boxed[0].is_exact());
    }
}
