//! The dynamic-selection subsystem in action: mutate-and-sample traffic
//! against the two `lrb-dynamic` engines, showing what `O(log n)` and
//! `O(1)` updates cost when the fitness vector changes every round (the
//! paper's ACO setting).
//!
//! ```text
//! cargo run -p lrb-integration --release --example dynamic_updates
//! ```

use lrb_bench::dynamic_workload::{time_churn, workload};
use lrb_dynamic::{FenwickSampler, StochasticAcceptanceSampler};

fn main() {
    let n = 1 << 15;
    let rounds = 3_000;
    let weights = workload(n);

    println!("n = {n} categories, {rounds} rounds of (update one weight, draw once)\n");

    let mut fenwick = FenwickSampler::from_weights(weights.clone()).expect("valid weights");
    let fenwick_s = time_churn(&mut fenwick, rounds, 1);
    println!(
        "fenwick                {:>9.2} µs/round",
        fenwick_s / rounds as f64 * 1e6
    );

    let mut acceptance = StochasticAcceptanceSampler::from_weights(weights).expect("valid weights");
    let acceptance_s = time_churn(&mut acceptance, rounds, 1);
    println!(
        "stochastic-acceptance  {:>9.2} µs/round   ({:.2} expected rejection rounds per draw)",
        acceptance_s / rounds as f64 * 1e6,
        acceptance.expected_rounds(),
    );
}
