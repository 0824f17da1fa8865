//! Regenerates the paper's **Table I**: selection probabilities of the
//! roulette wheel selection algorithms with `f_i = i` for `0 ≤ i ≤ 9`.
//!
//! ```text
//! cargo run -p lrb-bench --release --bin table1 -- --trials 1000000 --seed 2024
//! ```
//!
//! The paper uses 10⁹ iterations; pass `--trials 1000000000` to match it
//! exactly (the default of 10⁶ already reproduces every entry to ~3 decimal
//! places). Pass `--json 1` to also print the machine-readable report.

use lrb_bench::cli::{Options, OrExit};
use lrb_bench::run_probability_experiment;
use lrb_core::parallel::{
    CrcwLogBiddingSelector, IndependentRouletteSelector, LogBiddingSelector,
    ParallelLogBiddingSelector,
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
        Box::new(CrcwLogBiddingSelector),
    ];
    // The CRCW-PRAM simulation is orders of magnitude slower per trial than
    // the direct implementations; give it a proportionally smaller budget so
    // the binary finishes promptly while still printing a meaningful column.
    let (fast, slow): (Vec<_>, Vec<_>) = selectors
        .into_iter()
        .partition(|s| s.name() != "log-bidding-crcw-pram");

    let fitness = Fitness::table1();
    let mut report = run_probability_experiment(
        "Table I (f_i = i, 0 <= i <= 9)",
        &fitness,
        &fast,
        trials,
        seed,
    );
    let crcw_trials = trials.min(20_000);
    let crcw_report = run_probability_experiment("crcw", &fitness, &slow, crcw_trials, seed);
    report.columns.extend(crcw_report.columns);

    println!("{}", report.render(10));
    println!(
        "(CRCW-PRAM column measured over {} simulated trials; all others over {} trials)",
        crcw_trials, trials
    );
    if options.contains("json") {
        println!("{}", report.to_json());
    }
}
