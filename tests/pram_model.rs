//! Integration test: the three CRCW maximum-finding strategies (the paper's
//! constant-memory loop, the EREW reduction tree, and the classic n²-processor
//! constant-time algorithm) agree on the winner, and their PRAM costs sit at
//! the three corners of the time/processors/memory trade-off: the paper's
//! loop keeps O(1) shared memory, the EREW tree takes log₂ n steps over
//! Θ(n) memory, and the n²-processor algorithm takes 2 steps. Also checks
//! the compaction-based alternative for sparse inputs.

use lrb_core::Fitness;
use lrb_pram::algorithms::{
    bid_max, compact_non_zero, constant_time_max, prefix_sums_blelloch, reduce_max,
};
use lrb_rng::exponential::log_bid;
use lrb_rng::{MersenneTwister64, RandomSource, SeedableSource, StreamFamily, Xoshiro256PlusPlus};

fn bids_for(fitness: &Fitness, master_seed: u64) -> Vec<f64> {
    let family = StreamFamily::new(master_seed);
    fitness
        .values()
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            let mut stream: Xoshiro256PlusPlus = family.stream(i as u64);
            log_bid(&mut stream, f)
        })
        .collect()
}

#[test]
fn all_three_maximum_strategies_agree_on_the_winner() {
    let fitness = Fitness::new((1..=48).map(|i| ((i * 7) % 13 + 1) as f64).collect()).unwrap();
    for seed in 0..10u64 {
        let bids = bids_for(&fitness, seed);

        let loop_result = bid_max(&bids, seed).unwrap().unwrap();
        let tree_result = reduce_max(&bids).unwrap();
        let pairwise_result = constant_time_max(&bids).unwrap().unwrap();

        assert_eq!(loop_result.max_bid, tree_result.value, "seed {seed}");
        assert_eq!(loop_result.winner, pairwise_result.winner, "seed {seed}");
        assert_eq!(bids[loop_result.winner], loop_result.max_bid);
    }
}

#[test]
fn the_three_strategies_occupy_different_cost_corners() {
    let n = 64usize;
    let fitness = Fitness::uniform(n, 1.0).unwrap();
    let bids = bids_for(&fitness, 3);

    let loop_result = bid_max(&bids, 3).unwrap().unwrap();
    let tree_result = reduce_max(&bids).unwrap();
    let pairwise_result = constant_time_max(&bids).unwrap().unwrap();

    // Paper's loop: O(1) memory, expected O(log k) steps.
    assert_eq!(loop_result.cost.memory_footprint, 2);
    assert!(loop_result.while_iterations <= 2 * 6 + 4);
    // EREW tree: exactly log2(n) steps, Θ(n) memory.
    assert_eq!(tree_result.cost.steps, 6);
    assert!(tree_result.cost.memory_footprint >= n);
    // Constant-time: 2 steps, Θ(n) memory, n² processors (reflected in the
    // write volume of step 1, which is Θ(n²) in the worst case but at least n−1
    // here because every non-maximal index is defeated at least once).
    assert_eq!(pairwise_result.cost.steps, 2);
    assert!(pairwise_result.cost.writes >= n - 1);
}

#[test]
fn compaction_plus_dense_selection_matches_direct_selection_probabilities() {
    // The compaction-based alternative: compact the k live indices, then do a
    // roulette selection over the dense array. Its probabilities must match
    // the direct approach; only its PRAM cost differs (Θ(log n) vs O(log k)).
    let n = 64usize;
    let mut values = vec![0.0; n];
    values[5] = 1.0;
    values[17] = 2.0;
    values[40] = 3.0;
    values[63] = 4.0;
    let fitness = Fitness::new(values.clone()).unwrap();

    let compaction = compact_non_zero(&values).unwrap();
    assert_eq!(compaction.live_indices, vec![5, 17, 40, 63]);
    assert!(
        compaction.cost.steps > 10,
        "compaction pays the Θ(log n) scan"
    );

    // Dense roulette over the compacted weights via prefix sums.
    let dense: Vec<f64> = compaction.live_indices.iter().map(|&i| values[i]).collect();
    let scan = prefix_sums_blelloch(&dense).unwrap();
    let total = *scan.prefix.last().unwrap();
    let mut rng = MersenneTwister64::seed_from_u64(11);
    let trials = 40_000;
    let mut counts = vec![0usize; dense.len()];
    for _ in 0..trials {
        let r = rng.next_f64() * total;
        let slot = scan
            .prefix
            .partition_point(|&p| p <= r)
            .min(dense.len() - 1);
        counts[slot] += 1;
    }
    for (slot, &count) in counts.iter().enumerate() {
        let original_index = compaction.live_indices[slot];
        let expected = fitness.probability(original_index);
        let got = count as f64 / trials as f64;
        assert!(
            (got - expected).abs() < 0.01,
            "slot {slot} (index {original_index}): {got} vs {expected}"
        );
    }
}

#[test]
fn arbitrary_crcw_policy_distributes_wins_among_equal_bidders() {
    // Sanity check of the simulator's conflict policy through the public
    // algorithm: with identical bids, the announced winner varies with the
    // seed (Arbitrary), rather than always being processor 0 (Priority).
    let bids = vec![-1.0; 16];
    let mut winners = std::collections::HashSet::new();
    for seed in 0..40 {
        winners.insert(bid_max(&bids, seed).unwrap().unwrap().winner);
    }
    assert!(winners.len() > 4, "winners {winners:?} look deterministic");
}
