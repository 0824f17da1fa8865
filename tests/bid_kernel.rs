//! Integration tests for the block-Philox bid kernel (bid-stream layout
//! v2): chi-square exactness on the paper's fitness vectors, thread-count
//! invariance of the rayon path, the pinned layout contract against an
//! independent oracle ([`reference_bid`]), and draw-for-draw agreement
//! between the selector's one-shot and buffer entry points.

mod support;

use lrb_bench::selector_workload::PerIndexLogBiddingSelector;
use lrb_core::batch::batch_select_counts;
use lrb_core::parallel::bid_kernel::{PAR_CHUNK, STREAM_LAYOUT_VERSION};
use lrb_core::parallel::ParallelLogBiddingSelector;
use lrb_core::{Fitness, Selector};
use lrb_rng::uniform::f64_open_open;
use lrb_rng::{MersenneTwister64, Philox4x32, PhiloxBlock, RandomSource, SeedableSource};
use rayon::ThreadPoolBuilder;
use support::assert_exact;

/// The exact bid of one index under layout v2, computed the slow way —
/// the oracle that pins the layout (`u_j` = word `j` of the sequential
/// stream keyed by the master) independently of the kernel's chunking and
/// its lazy-`ln` skip logic.
fn reference_bid(master: u64, index: usize, fitness: f64) -> f64 {
    let mut stream = PhiloxBlock::at_block(master, (index / 2) as u128);
    let words = stream.next_u64_pair();
    f64_open_open(words[index % 2]).ln() / (fitness + 0.0)
}

/// Three full `PAR_CHUNK`s and a ragged fourth chunk of five indices that
/// carries about half the mass, with zero weights in the body: budgets
/// above one fork the kernel over all four chunks, and a fork that lost or
/// misplaced the ragged chunk would move about every other winner.
fn ragged_weights() -> Vec<f64> {
    let n = 3 * PAR_CHUNK + 5;
    (0..n)
        .map(|i| {
            if i + 5 >= n {
                30_000.0
            } else {
                ((i * 7) % 13) as f64
            }
        })
        .collect()
}

/// Run `op` under a thread budget of `threads`.
fn at_budget<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(op)
}

/// Tabulate `trials` one-shot selections driven by one sequential caller
/// generator (the non-batched path, exercising `select`).
fn tabulate(selector: &dyn Selector, fitness: &Fitness, trials: usize, seed: u64) -> Vec<u64> {
    let mut rng = MersenneTwister64::seed_from_u64(seed);
    let mut counts = vec![0u64; fitness.len()];
    for _ in 0..trials {
        counts[selector.select(fitness, &mut rng).unwrap()] += 1;
    }
    counts
}

#[test]
fn block_kernel_is_exact_on_table1() {
    let fitness = Fitness::table1();
    let counts = tabulate(&ParallelLogBiddingSelector, &fitness, 120_000, 11);
    assert_eq!(counts[0], 0, "zero-fitness index must never be selected");
    assert_exact("block kernel on Table I", &counts, fitness.values());
}

#[test]
fn block_kernel_is_exact_on_table2() {
    // Table II's point: the smallest probability (~0.005) must still be
    // served at its exact rate.
    let fitness = Fitness::table2();
    let counts = tabulate(&ParallelLogBiddingSelector, &fitness, 120_000, 13);
    assert!(counts[0] > 0, "the rare index must appear");
    assert_exact("block kernel on Table II", &counts, fitness.values());
}

#[test]
fn block_kernel_is_exact_through_the_batch_driver() {
    // The batched path (select_into under the batch driver's substreams)
    // must be just as exact as the select loop.
    let fitness = Fitness::table1();
    let batch = batch_select_counts(&ParallelLogBiddingSelector, &fitness, 120_000, 17).unwrap();
    assert_exact(
        "block kernel batched on Table I",
        batch.counts(),
        fitness.values(),
    );
}

#[test]
fn block_and_per_index_paths_draw_the_same_distribution() {
    // Layouts v1 and v2 consume different uniforms but must induce the
    // identical exact distribution.
    let fitness = Fitness::new((1..=50).map(|i| ((i * 3) % 7 + 1) as f64).collect()).unwrap();
    let block = tabulate(&ParallelLogBiddingSelector, &fitness, 80_000, 19);
    let per_index = tabulate(&PerIndexLogBiddingSelector, &fitness, 80_000, 23);
    assert_exact("block kernel", &block, fitness.values());
    assert_exact("per-index reference", &per_index, fitness.values());
}

#[test]
fn selection_is_invariant_across_thread_counts() {
    // The rayon path's chunking is fixed, so the selected sequence is a
    // pure function of the caller stream — at any thread budget.
    let fitness = Fitness::new((0..20_000).map(|i| ((i % 29) + 1) as f64).collect()).unwrap();
    let selector = ParallelLogBiddingSelector;
    let run = |threads: usize| -> Vec<usize> {
        at_budget(threads, || {
            let mut rng = MersenneTwister64::seed_from_u64(404);
            (0..50)
                .map(|_| selector.select(&fitness, &mut rng).unwrap())
                .collect()
        })
    };
    let reference = run(1);
    for threads in [2, 3, 8] {
        assert_eq!(run(threads), reference, "{threads} threads diverged");
    }
}

#[test]
fn select_into_agrees_with_a_select_loop_draw_for_draw() {
    // The consumption contract: one master next_u64 per selection, so the
    // buffer fill and the one-at-a-time loop agree on equal seeds.
    let fitness = Fitness::new((0..300).map(|i| ((i * 5) % 11) as f64).collect()).unwrap();
    let selector = ParallelLogBiddingSelector;
    for seed in 0..20 {
        let mut rng_loop = Philox4x32::for_substream(99, seed);
        let mut rng_fill = Philox4x32::for_substream(99, seed);
        let mut filled = vec![0usize; 64];
        selector
            .select_into(&fitness, &mut rng_fill, &mut filled)
            .unwrap();
        for (t, &got) in filled.iter().enumerate() {
            assert_eq!(
                got,
                selector.select(&fitness, &mut rng_loop).unwrap(),
                "seed {seed} diverged at draw {t}"
            );
        }
    }
}

#[test]
fn stream_layout_v2_is_pinned_to_the_sequential_philox_stream() {
    // The layout contract, asserted against raw Philox words: index j's
    // uniform is the j-th next_u64 of Philox4x32::with_key(master). A
    // change to the kernel's internal chunking must not move these bids.
    assert_eq!(STREAM_LAYOUT_VERSION, 2);
    for (master, fitness, indices) in [(0xC0FFEE, 2.5, 64usize), (0xBEEF, 3.0, 16)] {
        let mut stream = Philox4x32::with_key(master);
        for index in 0..indices {
            let expected = f64_open_open(stream.next_u64()).ln() / fitness;
            assert_eq!(
                reference_bid(master, index, fitness),
                expected,
                "master {master:#x}, index {index}"
            );
        }
    }
}

#[test]
fn kernel_winner_matches_the_reference_bids() {
    // End to end: the selector's winner must be the argmax of the oracle
    // bids (every index pays its ln, no skip logic) for the master its
    // caller stream produced, at budget 1 (inline) and at budgets 2, 3
    // and 8 (forked over the chunks of the ragged vector). Sizes straddle
    // the kernel's 256-index fill and its chunk boundaries; the weights
    // hold zeros.
    let mut inputs: Vec<Vec<f64>> = [1usize, 2, 3, 17, 255, 256, 257, 1000, 2000, 5000]
        .iter()
        .map(|&n| (0..n).map(|i| ((i * 7) % 13) as f64).collect())
        .collect();
    inputs.push(ragged_weights());
    for weights in inputs {
        if weights.iter().all(|&w| w == 0.0) {
            continue;
        }
        let n = weights.len();
        let fitness = Fitness::new(weights).unwrap();
        for seed in 0..20u64 {
            // The selector consumes exactly one u64 as master.
            let master = MersenneTwister64::seed_from_u64(seed).next_u64();
            let mut best = (f64::NEG_INFINITY, usize::MAX);
            for (j, &f) in fitness.values().iter().enumerate() {
                let bid = reference_bid(master, j, f);
                if bid > best.0 || (bid == best.0 && j > best.1) {
                    best = (bid, j);
                }
            }
            for threads in [1, 2, 3, 8] {
                let chosen = at_budget(threads, || {
                    ParallelLogBiddingSelector
                        .select(&fitness, &mut MersenneTwister64::seed_from_u64(seed))
                        .unwrap()
                });
                assert_eq!(chosen, best.1, "n = {n}, seed {seed}, {threads} threads");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The fused multi-draw path (select_into: eight bid streams per pass).
// ---------------------------------------------------------------------------

mod fused {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The fused contract, fuzzed: a buffer fill of any length —
        /// including lengths that do not divide the fused width of 8 —
        /// agrees draw for draw with a `select` loop on an equally seeded
        /// caller generator, over arbitrary weight vectors with zeros.
        #[test]
        fn prop_fused_fill_equals_a_select_loop(
            weights in proptest::collection::vec(0.0f64..50.0, 2..600),
            batch in 1usize..40,
            seed: u64,
        ) {
            prop_assume!(weights.iter().any(|&w| w > 0.0));
            let fitness = Fitness::new(weights).unwrap();
            let selector = ParallelLogBiddingSelector;
            let mut rng_fill = Philox4x32::for_substream(seed, 1);
            let mut rng_loop = Philox4x32::for_substream(seed, 1);
            let mut filled = vec![0usize; batch];
            selector.select_into(&fitness, &mut rng_fill, &mut filled).unwrap();
            for (t, &got) in filled.iter().enumerate() {
                let expect = selector.select(&fitness, &mut rng_loop).unwrap();
                prop_assert_eq!(got, expect, "diverged at draw {} of {}", t, batch);
            }
            // Both paths consumed the same caller randomness.
            prop_assert_eq!(rng_fill.next_u64(), rng_loop.next_u64());
        }
    }

    #[test]
    fn fused_fill_is_exact_on_table1() {
        // Chi-square conformance of the fused path itself: tabulate one
        // large buffer fill.
        let fitness = Fitness::table1();
        let selector = ParallelLogBiddingSelector;
        let mut rng = MersenneTwister64::seed_from_u64(4242);
        let mut out = vec![0usize; 60_000];
        selector.select_into(&fitness, &mut rng, &mut out).unwrap();
        let mut counts = vec![0u64; fitness.len()];
        for &i in &out {
            counts[i] += 1;
        }
        assert_eq!(counts[0], 0, "zero-fitness index selected");
        assert_exact("fused select_into on Table I", &counts, fitness.values());
    }

    #[test]
    fn fused_fill_is_exact_through_the_batch_driver() {
        // The batch driver feeds select_into per chunk, so its batches run
        // the fused kernel end to end.
        let fitness = Fitness::new(vec![5.0, 1.0, 3.0, 1.0, 0.0, 2.0]).unwrap();
        let selector = ParallelLogBiddingSelector;
        let batch = batch_select_counts(&selector, &fitness, 80_000, 31).unwrap();
        assert_exact(
            "fused path through the batch driver",
            batch.counts(),
            fitness.values(),
        );
    }

    #[test]
    fn fused_fill_is_invariant_across_thread_counts() {
        // Buffers of 41 and 27 slots (not multiples of 8) over two vectors
        // that fork at budgets above one: 20 000 indices (a ragged third
        // chunk) and the ragged vector whose five-index last chunk holds
        // half the mass. Chunk boundaries are scheduling, not layout.
        let inputs = [
            (
                (0..20_000).map(|i| ((i % 29) + 1) as f64).collect(),
                41,
                808,
            ),
            (ragged_weights(), 27, 11),
        ];
        for (weights, slots, seed) in inputs {
            let fitness = Fitness::new(weights).unwrap();
            let run = |threads: usize| -> Vec<usize> {
                at_budget(threads, || {
                    let mut rng = MersenneTwister64::seed_from_u64(seed);
                    let mut out = vec![0usize; slots];
                    ParallelLogBiddingSelector
                        .select_into(&fitness, &mut rng, &mut out)
                        .unwrap();
                    out
                })
            };
            let reference = run(1);
            for threads in [2, 3, 8] {
                assert_eq!(
                    run(threads),
                    reference,
                    "n = {}, {threads} threads diverged",
                    fitness.len()
                );
            }
        }
    }

    #[test]
    fn fused_rayon_and_sequential_cutoff_paths_agree() {
        // Below the fork cutoff (budget one, inline) and above it (budgets
        // 2, 3 and 8 fork the two chunks of n = 9 000, the second ragged)
        // the selector must fill the same 27-slot buffer from each caller
        // substream: chunk boundaries are scheduling, not layout.
        let fitness = Fitness::new((0..9_000).map(|i| ((i * 3) % 23) as f64).collect()).unwrap();
        for seed in 0..8 {
            let fill = |threads: usize| -> Vec<usize> {
                at_budget(threads, || {
                    let mut rng = Philox4x32::for_substream(7, seed);
                    let mut out = vec![0usize; 27];
                    ParallelLogBiddingSelector
                        .select_into(&fitness, &mut rng, &mut out)
                        .unwrap();
                    out
                })
            };
            let inline = fill(1);
            for threads in [2, 3, 8] {
                assert_eq!(fill(threads), inline, "seed {seed}, {threads} threads");
            }
        }
    }
}
