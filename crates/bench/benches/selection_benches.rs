//! Criterion benches: the supplementary wall-clock measurements and the
//! ablations called out in DESIGN.md.
//!
//! Groups:
//! * `table_workloads`       — one selection on the Table I / Table II
//!   workloads, every algorithm (the wall-clock
//!   companion to the probability tables).
//! * `selection_throughput`  — one selection as a function of `n` for the
//!   paper's three algorithms plus the sequential
//!   ground truth.
//! * `sparse_scaling`        — one selection as a function of `k` at fixed
//!   `n` (the regime Theorem 1 targets), including
//!   the CRCW-PRAM simulation's iteration behaviour.
//! * `bid_formula`           — ablation: `ln(u)/f` vs Ziggurat exponential vs
//!   Gumbel keys.
//! * `rng_cost`              — ablation: MT19937-64 vs xoshiro256++ vs Philox
//!   as the uniform source.
//! * `prepared_samplers`     — alias method and CDF binary search, the
//!   "sample many times from a fixed distribution"
//!   baselines.
//! * `aco_construction`      — one ant tour construction per selection
//!   strategy (the end-to-end application cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use lrb_aco::{construct_tour, AntParams, PheromoneMatrix, TspInstance};
use lrb_core::parallel::{
    CrcwLogBiddingSelector, GumbelMaxSelector, IndependentRouletteSelector, LogBiddingSelector,
    ParallelLogBiddingSelector, PrefixSumSelector,
};
use lrb_core::sequential::{AliasSampler, CdfSampler, LinearScanSelector};
use lrb_core::{Fitness, PreparedSampler, Selector};
use lrb_rng::exponential::ExponentialSampler;
use lrb_rng::{
    standard_exponential, MersenneTwister64, Philox4x32, SeedableSource, Xoshiro256PlusPlus,
};

fn quick(c: &mut Criterion) -> &mut Criterion {
    c
}

fn configure_group<'a, M: criterion::measurement::Measurement>(
    group: &mut criterion::BenchmarkGroup<'a, M>,
) {
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
}

fn bench_table_workloads(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("table_workloads");
    configure_group(&mut group);
    let workloads = [("table1", Fitness::table1()), ("table2", Fitness::table2())];
    let selectors: Vec<Box<dyn Selector>> = vec![
        Box::new(LinearScanSelector),
        Box::new(IndependentRouletteSelector),
        Box::new(LogBiddingSelector::default()),
        Box::new(PrefixSumSelector::default()),
    ];
    for (name, fitness) in &workloads {
        for selector in &selectors {
            let mut rng = MersenneTwister64::seed_from_u64(1);
            group.bench_with_input(
                BenchmarkId::new(selector.name(), name),
                fitness,
                |b, fitness| {
                    b.iter(|| selector.select(fitness, &mut rng).unwrap());
                },
            );
        }
    }
    group.finish();
}

fn bench_selection_throughput(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("selection_throughput");
    configure_group(&mut group);
    for &n in &[100usize, 1_000, 10_000, 100_000] {
        let fitness = Fitness::from_fn(n, |i| ((i % 97) + 1) as f64).unwrap();
        let selectors: Vec<Box<dyn Selector>> = vec![
            Box::new(LinearScanSelector),
            Box::new(IndependentRouletteSelector),
            Box::new(LogBiddingSelector::default()),
            Box::new(ParallelLogBiddingSelector),
            Box::new(PrefixSumSelector::default()),
        ];
        for selector in &selectors {
            let mut rng = MersenneTwister64::seed_from_u64(2);
            group.bench_with_input(BenchmarkId::new(selector.name(), n), &fitness, |b, f| {
                b.iter(|| selector.select(f, &mut rng).unwrap());
            });
        }
    }
    group.finish();
}

fn bench_sparse_scaling(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("sparse_scaling");
    configure_group(&mut group);
    let n = 4_096usize;
    for &k in &[1usize, 16, 256, 4_096] {
        let fitness = Fitness::sparse(n, k, 1.0).unwrap();
        let selectors: Vec<Box<dyn Selector>> = vec![
            Box::new(LogBiddingSelector::default()),
            Box::new(PrefixSumSelector::default()),
            Box::new(LinearScanSelector),
        ];
        for selector in &selectors {
            let mut rng = MersenneTwister64::seed_from_u64(3);
            group.bench_with_input(
                BenchmarkId::new(selector.name(), format!("n{n}_k{k}")),
                &fitness,
                |b, f| {
                    b.iter(|| selector.select(f, &mut rng).unwrap());
                },
            );
        }
        // The CRCW-PRAM simulation is far slower per selection (it simulates
        // every processor); bench it only at small k so the group stays fast,
        // reporting the simulated-machine cost trend rather than raw speed.
        if k <= 16 {
            let selector = CrcwLogBiddingSelector;
            let mut rng = MersenneTwister64::seed_from_u64(3);
            group.bench_with_input(
                BenchmarkId::new("log-bidding-crcw-pram-sim", format!("n{n}_k{k}")),
                &fitness,
                |b, f| {
                    b.iter(|| selector.select(f, &mut rng).unwrap());
                },
            );
        }
    }
    group.finish();
}

fn bench_bid_formula(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("bid_formula");
    configure_group(&mut group);
    let fitness = Fitness::from_fn(10_000, |i| (i % 53 + 1) as f64).unwrap();

    let inverse = LogBiddingSelector {
        sampler: ExponentialSampler::InverseCdf,
    };
    let ziggurat = LogBiddingSelector {
        sampler: ExponentialSampler::Ziggurat,
    };
    let gumbel = GumbelMaxSelector;

    let mut rng = MersenneTwister64::seed_from_u64(4);
    group.bench_function("ln_u_over_f", |b| {
        b.iter(|| inverse.select(&fitness, &mut rng).unwrap())
    });
    group.bench_function("ziggurat_exponential", |b| {
        b.iter(|| ziggurat.select(&fitness, &mut rng).unwrap())
    });
    group.bench_function("gumbel_keys", |b| {
        b.iter(|| gumbel.select(&fitness, &mut rng).unwrap())
    });
    group.finish();
}

fn bench_rng_cost(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("rng_cost");
    configure_group(&mut group);
    let draws = 10_000usize;

    let mut mt = MersenneTwister64::seed_from_u64(5);
    group.bench_function("mt19937_64_exponential", |b| {
        b.iter(|| {
            (0..draws)
                .map(|_| standard_exponential(&mut mt))
                .sum::<f64>()
        })
    });
    let mut xo = Xoshiro256PlusPlus::seed_from_u64(5);
    group.bench_function("xoshiro256pp_exponential", |b| {
        b.iter(|| {
            (0..draws)
                .map(|_| standard_exponential(&mut xo))
                .sum::<f64>()
        })
    });
    let mut philox = Philox4x32::seed_from_u64(5);
    group.bench_function("philox4x32_exponential", |b| {
        b.iter(|| {
            (0..draws)
                .map(|_| standard_exponential(&mut philox))
                .sum::<f64>()
        })
    });
    group.finish();
}

fn bench_prepared_samplers(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("prepared_samplers");
    configure_group(&mut group);
    let fitness = Fitness::from_fn(10_000, |i| ((i * 31) % 101 + 1) as f64).unwrap();
    let alias = AliasSampler::new(&fitness).unwrap();
    let cdf = CdfSampler::new(&fitness).unwrap();

    let mut rng = MersenneTwister64::seed_from_u64(6);
    group.bench_function("alias_sample", |b| b.iter(|| alias.sample(&mut rng)));
    group.bench_function("cdf_binary_search_sample", |b| {
        b.iter(|| cdf.sample(&mut rng))
    });
    group.bench_function("alias_build", |b| {
        b.iter(|| AliasSampler::new(&fitness).unwrap())
    });
    group.bench_function("cdf_build", |b| {
        b.iter(|| CdfSampler::new(&fitness).unwrap())
    });
    group.finish();
}

fn bench_aco_construction(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("aco_construction");
    configure_group(&mut group);
    let instance = TspInstance::random_euclidean(100, 7);
    let pheromone = PheromoneMatrix::new(100, 1.0);
    let params = AntParams::default();

    let selectors: Vec<Box<dyn Selector>> = vec![
        Box::new(LinearScanSelector),
        Box::new(LogBiddingSelector::default()),
        Box::new(IndependentRouletteSelector),
    ];
    for selector in &selectors {
        let mut rng = MersenneTwister64::seed_from_u64(8);
        group.bench_function(BenchmarkId::new("tour_100_cities", selector.name()), |b| {
            b.iter(|| {
                construct_tour(
                    &instance,
                    &pheromone,
                    &params,
                    selector.as_ref(),
                    0,
                    &mut rng,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_argmax_strategies(c: &mut Criterion) {
    // Ablation: the three PRAM maximum-finding strategies on the same bid
    // vector (simulated machine cost, so the numbers compare algorithmic
    // structure rather than silicon).
    let mut group = quick(c).benchmark_group("argmax_strategies");
    configure_group(&mut group);
    let n = 256usize;
    let bids: Vec<f64> = {
        let mut rng = MersenneTwister64::seed_from_u64(9);
        let fitness = Fitness::uniform(n, 1.0).unwrap();
        fitness
            .values()
            .iter()
            .map(|&f| lrb_rng::exponential::log_bid(&mut rng, f))
            .collect()
    };
    group.bench_function("crcw_bid_loop", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            lrb_pram::algorithms::bid_max(&bids, seed).unwrap().unwrap()
        })
    });
    group.bench_function("erew_reduction_tree", |b| {
        b.iter(|| lrb_pram::algorithms::reduce_max(&bids).unwrap())
    });
    group.bench_function("crcw_n_squared_constant_time", |b| {
        b.iter(|| {
            lrb_pram::algorithms::constant_time_max(&bids)
                .unwrap()
                .unwrap()
        })
    });
    group.finish();
}

fn bench_zero_fitness_handling(c: &mut Criterion) {
    // Ablation: handle sparsity by (a) letting zero-fitness processors sit
    // out of the bid loop (the paper's approach), or (b) compacting the live
    // indices first and selecting over the dense array.
    let mut group = quick(c).benchmark_group("zero_fitness_handling");
    configure_group(&mut group);
    let n = 2_048usize;
    for &k in &[4usize, 64, 1_024] {
        let fitness = Fitness::sparse(n, k, 1.0).unwrap();
        let values = fitness.values().to_vec();
        group.bench_with_input(
            BenchmarkId::new("bid_loop_ignores_zeros", k),
            &fitness,
            |b, f| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    lrb_pram::algorithms::log_bidding_selection(f.values(), seed).unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("compact_then_select", k),
            &values,
            |b, values| {
                let mut rng = MersenneTwister64::seed_from_u64(13);
                b.iter(|| {
                    let compaction = lrb_pram::algorithms::compact_non_zero(values).unwrap();
                    let dense: Vec<f64> =
                        compaction.live_indices.iter().map(|&i| values[i]).collect();
                    let dense_fitness = Fitness::new(dense).unwrap();
                    let winner = LinearScanSelector.select(&dense_fitness, &mut rng).unwrap();
                    compaction.live_indices[winner]
                })
            },
        );
    }
    group.finish();
}

fn bench_batch_selection(c: &mut Criterion) {
    // Throughput of the trial-parallel batch API used by the table harness.
    let mut group = quick(c).benchmark_group("batch_selection");
    configure_group(&mut group);
    let fitness = Fitness::table1();
    for &trials in &[1_000u64, 10_000] {
        group.bench_with_input(
            BenchmarkId::new("log_bidding_batch", trials),
            &trials,
            |b, &trials| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    lrb_core::batch::batch_select_counts(
                        &LogBiddingSelector::default(),
                        &fitness,
                        trials,
                        seed,
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_table_workloads,
    bench_selection_throughput,
    bench_sparse_scaling,
    bench_bid_formula,
    bench_rng_cost,
    bench_prepared_samplers,
    bench_aco_construction,
    bench_argmax_strategies,
    bench_zero_fitness_handling,
    bench_batch_selection
);
criterion_main!(benches);
