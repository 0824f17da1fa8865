//! The Efraimidis–Spirakis law of `sample_without_replacement` (one
//! sequential heap pass, n `log_bid` draws), beyond its first pick.
//!
//! The chi-square tests below compare the sampler's *ordered outcome*
//! against the exact closed form `P(i then j) = F_i · w_j / (T − w_i)`, and
//! the law of the *last* element of a full permutation against its closed
//! form, not just the first draw (which `cross_algorithm_consistency`
//! checks against the one-shot selectors). Edge behaviour (`count == 0`,
//! `count == support`, `NotEnoughCandidates`, all-zero fitness) is pinned
//! error for error.

use lrb_core::error::SelectionError;
use lrb_core::fitness::Fitness;
use lrb_core::without_replacement::sample_without_replacement;
use lrb_rng::{MersenneTwister64, RandomSource, SeedableSource};
use lrb_stats::chi_square_gof;

/// Enumerate every ordered pair of distinct support indices with its exact
/// without-replacement probability `(w_i / T) · (w_j / (T − w_i))`.
fn ordered_pair_distribution(weights: &[f64]) -> (Vec<(usize, usize)>, Vec<f64>) {
    let total: f64 = weights.iter().sum();
    let mut pairs = Vec::new();
    let mut probs = Vec::new();
    for (i, &wi) in weights.iter().enumerate() {
        if wi == 0.0 {
            continue;
        }
        for (j, &wj) in weights.iter().enumerate() {
            if j == i || wj == 0.0 {
                continue;
            }
            pairs.push((i, j));
            probs.push((wi / total) * (wj / (total - wi)));
        }
    }
    (pairs, probs)
}

type Draw = fn(&Fitness, usize, &mut dyn RandomSource) -> Result<Vec<usize>, SelectionError>;

/// Chi-square the ordered (first, second) outcome of `draw` against the
/// exact pair distribution; `true` when consistent at the 1% level.
fn pairs_consistent(weights: &[f64], draw: Draw, seed: u64, trials: u64) -> bool {
    let fitness = Fitness::new(weights.to_vec()).unwrap();
    let (pairs, probs) = ordered_pair_distribution(weights);
    let mut rng = MersenneTwister64::seed_from_u64(seed);
    let mut counts = vec![0u64; pairs.len()];
    for _ in 0..trials {
        let picks = draw(&fitness, 2, &mut rng).unwrap();
        assert_eq!(picks.len(), 2);
        let slot = pairs
            .iter()
            .position(|&p| p == (picks[0], picks[1]))
            .expect("draws must come from the support, zeros excluded");
        counts[slot] += 1;
    }
    chi_square_gof(&counts, &probs).is_consistent(0.01)
}

/// A correct sampler fails a 1%-level chi-square ~1% of the time; two
/// independent seeds both failing is a ~10⁻⁴ event, so requiring one pass
/// out of two keeps the test sharp without being flaky.
fn assert_pairs_conform(weights: &[f64], draw: Draw, label: &str) {
    assert!(
        pairs_consistent(weights, draw, 0xE52006, 40_000)
            || pairs_consistent(weights, draw, 0x1DB1D, 40_000),
        "{label}: ordered-pair distribution failed chi-square on two seeds"
    );
}

#[test]
fn sequential_pairs_match_the_exact_distribution() {
    assert_pairs_conform(&[1.0, 2.0, 3.0, 4.0], sample_without_replacement, "seq");
}

#[test]
fn both_paths_conform_with_zero_weight_holes() {
    // Zeros interleaved in the support: the sampler skips `f == 0.0` and
    // must yield the exact law over the remaining support; the pair
    // enumeration (which excludes zeros) doubles as the assertion that it
    // never emits a zero-weight index.
    let weights = [0.0, 2.0, 0.0, 1.0, 3.0];
    assert_pairs_conform(&weights, sample_without_replacement, "seq with zeros");
}

#[test]
fn count_zero_is_an_empty_sample_on_both_paths() {
    let fitness = Fitness::new(vec![1.0, 2.0, 3.0]).unwrap();
    let mut rng = MersenneTwister64::seed_from_u64(21);
    assert_eq!(
        sample_without_replacement(&fitness, 0, &mut rng).unwrap(),
        Vec::<usize>::new()
    );
}

#[test]
fn count_equal_to_support_permutes_the_support_on_both_paths() {
    let fitness = Fitness::new(vec![0.0, 2.0, 1.0, 0.0, 4.0]).unwrap();
    let mut rng = MersenneTwister64::seed_from_u64(22);
    for _ in 0..100 {
        let mut seq = sample_without_replacement(&fitness, 3, &mut rng).unwrap();
        seq.sort_unstable();
        assert_eq!(seq, vec![1, 2, 4]);
    }
}

#[test]
fn not_enough_candidates_is_error_identical_on_both_paths() {
    let fitness = Fitness::new(vec![0.0, 1.0, 1.0, 0.0]).unwrap();
    let mut rng = MersenneTwister64::seed_from_u64(23);
    let expected = Err(SelectionError::NotEnoughCandidates {
        requested: 3,
        available: 2,
    });
    assert_eq!(sample_without_replacement(&fitness, 3, &mut rng), expected);
}

#[test]
fn all_zero_fitness_is_rejected_on_both_paths_even_for_count_zero() {
    let fitness = Fitness::new(vec![0.0, 0.0]).unwrap();
    let mut rng = MersenneTwister64::seed_from_u64(24);
    for count in [0, 1] {
        assert_eq!(
            sample_without_replacement(&fitness, count, &mut rng),
            Err(SelectionError::AllZeroFitness)
        );
    }
}

#[test]
fn last_pick_matches_the_closed_form_law() {
    // Beyond pairs: for k = support the result is an ordered permutation.
    // The *last* element's law is the hardest to get right (it is the
    // loser of every comparison), so chi-square it too: P(last = i) for
    // weights [1,2,3] has closed form Σ over the other orderings.
    let weights = [1.0, 2.0, 3.0];
    let total = 6.0;
    // P(last = k) = Σ_{(i,j) perm of others} F_i · w_j/(T−w_i).
    let mut last_prob = [0.0f64; 3];
    for i in 0..3 {
        for j in 0..3 {
            if i == j {
                continue;
            }
            let k = 3 - i - j;
            last_prob[k] += (weights[i] / total) * (weights[j] / (total - weights[i]));
        }
    }
    let fitness = Fitness::new(weights.to_vec()).unwrap();
    let consistent = |seed: u64| {
        let mut rng = MersenneTwister64::seed_from_u64(seed);
        let mut counts = [0u64; 3];
        for _ in 0..30_000 {
            let picks = sample_without_replacement(&fitness, 3, &mut rng).unwrap();
            counts[picks[2]] += 1;
        }
        chi_square_gof(&counts, &last_prob).is_consistent(0.01)
    };
    assert!(consistent(31) || consistent(32));
}
