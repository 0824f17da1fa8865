//! Regenerates the paper's **Table II**: selection probabilities of the first
//! 10 processors with `n = 100`, `f_0 = 1`, `f_1 = … = f_99 = 2`.
//!
//! ```text
//! cargo run -p lrb-bench --release --bin table2 -- --trials 1000000 --seed 2024
//! ```
//!
//! The headline of this table is index 0: its exact probability is
//! `1/199 ≈ 0.005025`, the logarithmic random bidding reproduces it, and the
//! independent roulette's analytic probability is `(1/2)⁹⁹/100 ≈ 1.58·10⁻³²`
//! — it never selects index 0 in any feasible number of trials.

use lrb_bench::cli::{Options, OrExit};
use lrb_bench::run_probability_experiment;
use lrb_core::parallel::{
    IndependentRouletteSelector, LogBiddingSelector, ParallelLogBiddingSelector,
};
use lrb_core::{Fitness, Selector};

fn main() {
    let options = Options::from_env(&["trials", "seed", "json"]);
    let trials = options.u64_or("trials", 1_000_000).or_exit();
    let seed = options.u64_or("seed", 2024).or_exit();

    let selectors: Vec<Box<dyn Selector>> = vec![
        Box::new(IndependentRouletteSelector),
        Box::new(LogBiddingSelector::default()),
        Box::new(ParallelLogBiddingSelector),
    ];

    let fitness = Fitness::table2();
    let report = run_probability_experiment(
        "Table II (n = 100, f_0 = 1, f_1..99 = 2) — first 10 processors",
        &fitness,
        &selectors,
        trials,
        seed,
    );

    println!("{}", report.render(10));
    println!(
        "analytic independent-roulette probability of index 0: {:.6e} (paper: ~1.57772e-32)",
        report.independent_analytic[0]
    );
    if options.contains("json") {
        println!("{}", report.to_json());
    }
}
