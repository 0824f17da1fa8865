//! Weighted sampling **without replacement** (Efraimidis & Spirakis, 2006).
//!
//! The logarithmic random bidding generalises directly from "pick one index"
//! to "pick `m` distinct indices": draw the same per-index keys and keep the
//! `m` largest instead of the single largest. The resulting sample has the
//! Efraimidis–Spirakis distribution: item `i` is selected first with
//! probability `F_i`, the second item follows the roulette distribution over
//! the remainder, and so on — exactly sequential roulette selection without
//! replacement, but embarrassingly parallel.
//!
//! The execution is one sequential pass maintaining a size-`m` heap
//! (`O(n log m)`). It does not fork: a rayon map + top-`m` merge over
//! per-index Philox streams took about twice the heap's time on two
//! threads at every `n` from 2¹² to 2²⁰ (`m = 8`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use lrb_rng::exponential::log_bid;
use lrb_rng::RandomSource;

use crate::error::SelectionError;
use crate::fitness::Fitness;

/// A keyed candidate used in the top-`m` selection.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Keyed {
    key: f64,
    index: usize,
}

impl Eq for Keyed {}

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> Ordering {
        // Keys are never NaN (zero-fitness indices are filtered out before
        // keys are built), so total ordering by (key, index) is safe.
        self.key
            .partial_cmp(&other.key)
            .expect("keys are never NaN")
            .then(self.index.cmp(&other.index))
    }
}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reverse ordering so the `BinaryHeap` acts as a min-heap over keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MinKeyed(Keyed);

impl Ord for MinKeyed {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

impl PartialOrd for MinKeyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn validate(fitness: &Fitness, count: usize) -> Result<(), SelectionError> {
    if fitness.is_all_zero() {
        return Err(SelectionError::AllZeroFitness);
    }
    let available = fitness.non_zero_count();
    if count > available {
        return Err(SelectionError::NotEnoughCandidates {
            requested: count,
            available,
        });
    }
    Ok(())
}

/// Sample `count` distinct indices without replacement, sequentially.
///
/// The returned indices are ordered by decreasing key, i.e. in the order a
/// sequential roulette-without-replacement process would have drawn them.
pub fn sample_without_replacement(
    fitness: &Fitness,
    count: usize,
    rng: &mut dyn RandomSource,
) -> Result<Vec<usize>, SelectionError> {
    validate(fitness, count)?;
    if count == 0 {
        return Ok(vec![]);
    }

    // Min-heap of the best `count` keys seen so far.
    let mut heap: BinaryHeap<MinKeyed> = BinaryHeap::with_capacity(count + 1);
    for (index, &f) in fitness.values().iter().enumerate() {
        if f == 0.0 {
            continue;
        }
        let key = log_bid(rng, f);
        heap.push(MinKeyed(Keyed { key, index }));
        if heap.len() > count {
            heap.pop();
        }
    }

    let mut picked: Vec<Keyed> = heap.into_iter().map(|m| m.0).collect();
    picked.sort_by(|a, b| b.cmp(a));
    Ok(picked.into_iter().map(|k| k.index).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_rng::{MersenneTwister64, SeedableSource};

    #[test]
    fn returns_the_requested_number_of_distinct_indices() {
        let fitness = Fitness::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(1);
        for count in 0..=5 {
            let picks = sample_without_replacement(&fitness, count, &mut rng).unwrap();
            assert_eq!(picks.len(), count);
            let mut dedup = picks.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), count, "duplicates in {picks:?}");
        }
    }

    #[test]
    fn zero_fitness_indices_are_never_sampled() {
        let fitness = Fitness::new(vec![0.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(2);
        for _ in 0..200 {
            let picks = sample_without_replacement(&fitness, 3, &mut rng).unwrap();
            assert!(picks.iter().all(|&i| fitness.values()[i] > 0.0));
        }
    }

    #[test]
    fn requesting_more_than_the_support_fails() {
        let fitness = Fitness::new(vec![0.0, 1.0, 1.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(3);
        assert_eq!(
            sample_without_replacement(&fitness, 3, &mut rng),
            Err(SelectionError::NotEnoughCandidates {
                requested: 3,
                available: 2
            })
        );
    }

    #[test]
    fn all_zero_rejected() {
        let fitness = Fitness::new(vec![0.0, 0.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(3);
        assert_eq!(
            sample_without_replacement(&fitness, 1, &mut rng),
            Err(SelectionError::AllZeroFitness)
        );
    }

    #[test]
    fn sampling_everything_returns_a_permutation_of_the_support() {
        let fitness = Fitness::new(vec![0.0, 2.0, 1.0, 0.0, 4.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(4);
        let mut picks = sample_without_replacement(&fitness, 3, &mut rng).unwrap();
        picks.sort_unstable();
        assert_eq!(picks, vec![1, 2, 4]);
    }

    #[test]
    fn first_pick_follows_the_roulette_distribution() {
        // The first element of the without-replacement sample has exactly the
        // one-shot roulette distribution.
        let fitness = Fitness::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let total: f64 = fitness.total();
        let mut rng = MersenneTwister64::seed_from_u64(5);
        let trials = 100_000;
        let mut counts = vec![0usize; fitness.len()];
        for _ in 0..trials {
            let picks = sample_without_replacement(&fitness, 2, &mut rng).unwrap();
            counts[picks[0]] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let got = c as f64 / trials as f64;
            let want = fitness.values()[i] / total;
            assert!((got - want).abs() < 0.006, "index {i}: {got} vs {want}");
        }
    }

    #[test]
    fn inclusion_is_monotone_in_fitness() {
        // Higher-fitness items should be included in the sample at least as
        // often as lower-fitness ones.
        let fitness = Fitness::new(vec![1.0, 2.0, 4.0, 8.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(6);
        let trials = 50_000;
        let mut inclusion = vec![0usize; fitness.len()];
        for _ in 0..trials {
            for i in sample_without_replacement(&fitness, 2, &mut rng).unwrap() {
                inclusion[i] += 1;
            }
        }
        assert!(inclusion[0] < inclusion[1]);
        assert!(inclusion[1] < inclusion[2]);
        assert!(inclusion[2] < inclusion[3]);
    }

    #[test]
    fn results_are_sorted_by_descending_key_order() {
        // Property of the API: picks[0] is the roulette winner among all,
        // picks[1] the winner among the rest, etc. We can't observe the keys
        // directly, but sampling the full support twice with the same seed
        // must give the same order.
        let fitness = Fitness::new(vec![3.0, 1.0, 2.0]).unwrap();
        let a = sample_without_replacement(&fitness, 3, &mut MersenneTwister64::seed_from_u64(11))
            .unwrap();
        let b = sample_without_replacement(&fitness, 3, &mut MersenneTwister64::seed_from_u64(11))
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }
}
