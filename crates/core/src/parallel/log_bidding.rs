//! The paper's contribution: roulette wheel selection by **logarithmic random
//! bidding**.
//!
//! Every index draws a bid `r_i = ln(u_i) / f_i` (with `u_i` uniform on
//! `(0, 1)`); the index with the largest bid is selected. Because `−r_i` is
//! exponentially distributed with rate `f_i`, the minimum of the exponentials
//! (= maximum of the bids) lands on index `i` with probability exactly
//! `f_i / Σ_j f_j` — the proof is the paper's Section II integral, and the
//! same fact underlies the Gumbel-max trick and Efraimidis–Spirakis sampling.
//!
//! Three selectors share this mathematics:
//!
//! * [`LogBiddingSelector`] — a sequential streaming arg-max (one pass, no
//!   allocation); this is what a single thread of the ACO application uses.
//! * [`ParallelLogBiddingSelector`] — the block bid kernel's arg-max, forked
//!   over rayon chunks when the input spans more than one chunk and the
//!   thread budget allows; this is the "real multicore machine" execution.
//! * [`GumbelMaxSelector`] — the algebraically equivalent Gumbel-key variant
//!   (`ln f_i − ln(−ln u_i)`), kept separate so the benches can compare the
//!   two formulas' cost and verify they induce the same distribution.

use lrb_rng::exponential::{log_bid, standard_exponential_ziggurat, ExponentialSampler};
use lrb_rng::RandomSource;

use crate::error::SelectionError;
use crate::fitness::Fitness;
use crate::parallel::bid_kernel::{select_block, select_many_block};
use crate::parallel::max_by_key_then_index;
use crate::traits::Selector;

/// Sequential streaming logarithmic random bidding.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogBiddingSelector {
    /// Which exponential sampler generates the bids (`ln(u)/f` by inversion,
    /// or the Ziggurat). Both are exact; the choice only affects speed.
    pub sampler: ExponentialSampler,
}

impl Selector for LogBiddingSelector {
    fn name(&self) -> &'static str {
        "log-bidding-sequential"
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
        let mut best = (f64::NEG_INFINITY, usize::MAX);
        for (i, &f) in fitness.values().iter().enumerate() {
            if f == 0.0 {
                continue;
            }
            // r_i = ln(u)/f  ==  −Exp(rate f); both samplers produce the same
            // distribution, the Ziggurat just avoids the ln call. One direct
            // call per arm — the enum has already been matched here, so
            // nothing re-dispatches on `self.sampler` inside the loop.
            let bid = match self.sampler {
                ExponentialSampler::InverseCdf => log_bid(rng, f),
                ExponentialSampler::Ziggurat => -standard_exponential_ziggurat(rng) / f,
            };
            best = max_by_key_then_index(best, (bid, i));
        }
        Ok(best.1)
    }
}

/// Rayon data-parallel logarithmic random bidding through the
/// [block-Philox bid kernel](crate::parallel::bid_kernel).
///
/// One master draw of the caller's generator keys a counter-based Philox
/// stream; the kernel generates two per-index uniforms per counter bump and
/// evaluates `ln` lazily behind the branch-free `(u − 1)/f` upper bound, so
/// a selection costs `Θ(n)` arithmetic but only `O(log n)` expected
/// logarithms. A selection forks over
/// [`PAR_CHUNK`](crate::parallel::bid_kernel::PAR_CHUNK)-index rayon chunks
/// exactly when the input spans more than one chunk and
/// [`rayon::current_num_threads`] is above one; otherwise it runs inline.
/// The result is reproducible regardless of thread count or
/// work-stealing order (fixed even-aligned chunking, deterministic arg-max
/// reduction with ties broken by index), and the bid-stream layout is
/// versioned —
/// [`STREAM_LAYOUT_VERSION`](crate::parallel::bid_kernel::STREAM_LAYOUT_VERSION).
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelLogBiddingSelector;

impl Selector for ParallelLogBiddingSelector {
    fn name(&self) -> &'static str {
        "log-bidding-rayon"
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
        let master = rng.next_u64();
        Ok(select_block(fitness.values(), master))
    }

    /// Tight-loop fill through the **fused multi-draw kernel**: the support
    /// check happens once per buffer, the masters are drawn up front (one
    /// `next_u64` per slot, in slot order — the same caller-generator
    /// consumption as a [`select`](Selector::select) loop), and the fitness
    /// array is then streamed once per
    /// [`FUSED_WIDTH`](crate::parallel::bid_kernel::FUSED_WIDTH) draws with
    /// eight bid streams tested per load. Winners are bit-identical to a
    /// `select` loop on equal seeds; only the throughput differs.
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
        use crate::parallel::bid_kernel::FUSED_WIDTH;
        if out.len() <= FUSED_WIDTH {
            // One fused group (or the per-draw fallback) — keep the
            // masters on the stack so small fills stay allocation-free.
            let mut masters = [0u64; FUSED_WIDTH];
            for master in masters[..out.len()].iter_mut() {
                *master = rng.next_u64();
            }
            select_many_block(values, &masters[..out.len()], out);
        } else {
            let masters: Vec<u64> = out.iter().map(|_| rng.next_u64()).collect();
            select_many_block(values, &masters, out);
        }
        Ok(())
    }
}

/// The Gumbel-max formulation of the same selection rule: key
/// `g_i = ln f_i − ln(−ln u_i)`, arg-max.
///
/// Monotone-equivalent to the logarithmic bid, so the induced distribution is
/// identical; included because it is the form most common in the machine
/// learning literature and it behaves differently numerically (it tolerates
/// fitness values spanning hundreds of orders of magnitude since `ln f_i` is
/// additive rather than `1/f_i` multiplicative).
#[derive(Debug, Clone, Copy, Default)]
pub struct GumbelMaxSelector;

impl Selector for GumbelMaxSelector {
    fn name(&self) -> &'static str {
        "gumbel-max"
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
        let mut best = (f64::NEG_INFINITY, usize::MAX);
        for (i, &f) in fitness.values().iter().enumerate() {
            if f == 0.0 {
                continue;
            }
            let u = rng.next_f64_open();
            let gumbel = -(-u.ln()).ln();
            best = max_by_key_then_index(best, (f.ln() + gumbel, i));
        }
        Ok(best.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_rng::{MersenneTwister64, SeedableSource};
    use lrb_stats::EmpiricalDistribution;

    fn check_distribution(selector: &dyn Selector, fitness: &Fitness, trials: usize, tol: f64) {
        let mut rng = MersenneTwister64::seed_from_u64(1234);
        let mut dist = EmpiricalDistribution::new(fitness.len());
        for _ in 0..trials {
            dist.record(selector.select(fitness, &mut rng).unwrap());
        }
        let dev = dist.max_abs_deviation(&fitness.probabilities());
        assert!(
            dev < tol,
            "{}: max deviation {dev} exceeds {tol}",
            selector.name()
        );
        assert!(
            dist.goodness_of_fit(&fitness.probabilities())
                .is_consistent(0.001),
            "{}: chi-square rejects the target distribution",
            selector.name()
        );
    }

    #[test]
    fn sequential_log_bidding_is_exact_on_table1() {
        check_distribution(
            &LogBiddingSelector::default(),
            &Fitness::table1(),
            200_000,
            0.005,
        );
    }

    #[test]
    fn ziggurat_variant_is_also_exact() {
        let selector = LogBiddingSelector {
            sampler: ExponentialSampler::Ziggurat,
        };
        check_distribution(
            &selector,
            &Fitness::new(vec![1.0, 2.0, 3.0]).unwrap(),
            150_000,
            0.005,
        );
    }

    #[test]
    fn rayon_log_bidding_is_exact() {
        check_distribution(
            &ParallelLogBiddingSelector,
            &Fitness::new(vec![5.0, 1.0, 3.0, 1.0]).unwrap(),
            150_000,
            0.006,
        );
    }

    #[test]
    fn gumbel_max_is_exact() {
        check_distribution(
            &GumbelMaxSelector,
            &Fitness::new(vec![2.0, 1.0, 1.0]).unwrap(),
            150_000,
            0.006,
        );
    }

    #[test]
    fn paper_intro_example_two_processors() {
        // n = 2, f = [2, 1]: the exact probability of selecting 0 is 2/3
        // (the independent roulette gets 3/4 — see the independent module).
        let fitness = Fitness::new(vec![2.0, 1.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(5);
        let selector = LogBiddingSelector::default();
        let trials = 300_000;
        let zero = (0..trials)
            .filter(|_| selector.select(&fitness, &mut rng).unwrap() == 0)
            .count();
        let freq = zero as f64 / trials as f64;
        assert!((freq - 2.0 / 3.0).abs() < 0.004, "frequency {freq}");
    }

    #[test]
    fn zero_fitness_indices_never_win() {
        let fitness = Fitness::new(vec![0.0, 1.0, 0.0, 0.5, 0.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(6);
        for selector in [
            &LogBiddingSelector::default() as &dyn Selector,
            &ParallelLogBiddingSelector,
            &GumbelMaxSelector,
        ] {
            for _ in 0..5000 {
                let i = selector.select(&fitness, &mut rng).unwrap();
                assert!(i == 1 || i == 3, "{} chose {i}", selector.name());
            }
        }
    }

    #[test]
    fn all_zero_is_rejected() {
        let fitness = Fitness::new(vec![0.0, 0.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(6);
        assert!(LogBiddingSelector::default()
            .select(&fitness, &mut rng)
            .is_err());
        assert!(ParallelLogBiddingSelector
            .select(&fitness, &mut rng)
            .is_err());
        assert!(GumbelMaxSelector.select(&fitness, &mut rng).is_err());
    }

    #[test]
    fn rayon_selector_is_reproducible_for_a_fixed_caller_stream() {
        // Same caller RNG state → same master seed → same selection at any
        // thread budget. Three full `PAR_CHUNK`s and a ragged fourth chunk
        // of five indices that carries about half the mass: budget one runs
        // the kernel inline, budgets 2, 3 and 8 fork it, and a fork that
        // lost or misplaced the ragged chunk would move about every other
        // winner.
        use crate::parallel::bid_kernel::PAR_CHUNK;
        let n = 3 * PAR_CHUNK + 5;
        let fitness = Fitness::from_fn(n, |i| {
            if i + 5 >= n {
                30_000.0
            } else {
                (i % 13) as f64
            }
        })
        .unwrap();
        let winners = |threads| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                (0..50)
                    .map(|seed| {
                        ParallelLogBiddingSelector
                            .select(&fitness, &mut MersenneTwister64::seed_from_u64(seed))
                            .unwrap()
                    })
                    .collect::<Vec<_>>()
            })
        };
        let inline = winners(1);
        assert!(inline.iter().any(|&i| i + 5 >= n), "the ragged chunk wins");
        assert!(inline.iter().any(|&i| i + 5 < n), "the full chunks win");
        for threads in [2, 3, 8] {
            assert_eq!(winners(threads), inline, "{threads} threads");
        }
    }

    #[test]
    fn parallel_and_sequential_cutoff_paths_agree() {
        // Either side of the fork cutoff: n = PAR_CHUNK runs inline at
        // every budget, and n = PAR_CHUNK + 1 is the smallest input that
        // forks above budget one, its last chunk a single index carrying
        // about half the mass. The forked winners must equal the inline
        // (budget one) winners for the same caller seeds.
        use crate::parallel::bid_kernel::PAR_CHUNK;
        for n in [PAR_CHUNK, PAR_CHUNK + 1] {
            let fitness = Fitness::from_fn(n, |i| {
                if i + 1 == n {
                    50_000.0
                } else {
                    (i % 13) as f64
                }
            })
            .unwrap();
            let winners = |threads| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                pool.install(|| {
                    (0..50)
                        .map(|seed| {
                            ParallelLogBiddingSelector
                                .select(&fitness, &mut MersenneTwister64::seed_from_u64(seed))
                                .unwrap()
                        })
                        .collect::<Vec<_>>()
                })
            };
            let inline = winners(1);
            assert!(
                inline.iter().any(|&i| i + 1 == n),
                "n = {n}: the last index wins"
            );
            assert!(inline.iter().any(|&i| i + 1 < n), "n = {n}: the body wins");
            for threads in [2, 3, 8] {
                assert_eq!(winners(threads), inline, "n = {n}, {threads} threads");
            }
        }
    }

    #[test]
    fn single_candidate_is_always_selected() {
        let fitness = Fitness::new(vec![0.0, 0.0, 4.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(
                LogBiddingSelector::default()
                    .select(&fitness, &mut rng)
                    .unwrap(),
                2
            );
            assert_eq!(GumbelMaxSelector.select(&fitness, &mut rng).unwrap(), 2);
        }
    }

    #[test]
    fn table2_small_probability_index_is_still_selected() {
        // The heart of Table II: index 0 has probability ~0.005; over 100k
        // trials the logarithmic bidding must select it a few hundred times
        // (the independent roulette selects it zero times — tested in the
        // independent module).
        let fitness = Fitness::table2();
        let selector = LogBiddingSelector::default();
        let mut rng = MersenneTwister64::seed_from_u64(77);
        let trials = 100_000;
        let zero_count = (0..trials)
            .filter(|_| selector.select(&fitness, &mut rng).unwrap() == 0)
            .count();
        let freq = zero_count as f64 / trials as f64;
        assert!(
            (freq - 1.0 / 199.0).abs() < 0.002,
            "index 0 frequency {freq}, expected ≈ 0.005025"
        );
    }
}
