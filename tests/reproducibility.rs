//! Integration test: reproducibility guarantees that span crates — the same
//! seeds produce the same selections, tours and reports, and independent
//! streams really are independent.

use lrb_aco::{Colony, ColonyParams, TspInstance};
use lrb_bench::{run_probability_experiment, run_theorem1_experiment};
use lrb_core::parallel::{LogBiddingSelector, ParallelLogBiddingSelector};
use lrb_core::{Fitness, Selector};
use lrb_rng::{spawn_streams, MersenneTwister64, RandomSource, SeedableSource, Xoshiro256PlusPlus};

#[test]
fn selections_are_bit_reproducible_across_runs() {
    let fitness = Fitness::linear(500).unwrap();
    let selector = ParallelLogBiddingSelector;
    let run = |seed: u64| -> Vec<usize> {
        let mut rng = MersenneTwister64::seed_from_u64(seed);
        (0..200)
            .map(|_| selector.select(&fitness, &mut rng).unwrap())
            .collect()
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1), run(2));
}

#[test]
fn probability_reports_are_deterministic() {
    let fitness = Fitness::table1();
    let selectors: Vec<Box<dyn Selector>> = vec![Box::new(LogBiddingSelector::default())];
    let a = run_probability_experiment("t", &fitness, &selectors, 20_000, 5);
    let b = run_probability_experiment("t", &fitness, &selectors, 20_000, 5);
    assert_eq!(a.columns[0].frequencies, b.columns[0].frequencies);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn theorem1_reports_are_deterministic() {
    let a = run_theorem1_experiment(256, 64, 10, 3);
    let b = run_theorem1_experiment(256, 64, 10, 3);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn colony_runs_are_deterministic_for_fixed_seed_even_with_parallel_ants() {
    let instance = TspInstance::random_euclidean(20, 8);
    let selector = LogBiddingSelector::default();
    let run = |seed: u64| {
        let mut colony = Colony::new(&instance, &selector, ColonyParams::default(), seed);
        colony.run(6).unwrap().last().unwrap().global_best
    };
    assert_eq!(run(4), run(4));
}

#[test]
fn spawned_streams_are_pairwise_distinct_and_reproducible() {
    let streams_a: Vec<Xoshiro256PlusPlus> = spawn_streams(99, 32);
    let streams_b: Vec<Xoshiro256PlusPlus> = spawn_streams(99, 32);
    for (i, (mut a, mut b)) in streams_a.into_iter().zip(streams_b).enumerate() {
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys, "stream {i} not reproducible");
    }
    // Distinctness: first outputs of all 32 streams are unique.
    let mut firsts: Vec<u64> = spawn_streams::<Xoshiro256PlusPlus>(99, 32)
        .into_iter()
        .map(|mut s| s.next_u64())
        .collect();
    firsts.sort_unstable();
    firsts.dedup();
    assert_eq!(firsts.len(), 32);
}

#[test]
fn changing_the_selector_does_not_change_the_workload_or_targets() {
    // The report's exact column depends only on the fitness, never on which
    // selectors were run — guards against accidental coupling in the harness.
    let fitness = Fitness::table2();
    let a = run_probability_experiment(
        "t",
        &fitness,
        &[Box::new(LogBiddingSelector::default()) as Box<dyn Selector>],
        1_000,
        1,
    );
    let b = run_probability_experiment(
        "t",
        &fitness,
        &[Box::new(ParallelLogBiddingSelector) as Box<dyn Selector>],
        1_000,
        1,
    );
    assert_eq!(a.exact, b.exact);
    assert_eq!(a.independent_analytic, b.independent_analytic);
}
