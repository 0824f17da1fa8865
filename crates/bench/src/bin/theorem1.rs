//! Measures the quantity bounded by the paper's **Theorem 1**: the expected
//! number of while-loop iterations of the CRCW logarithmic random bidding as
//! a function of `k` (the number of non-zero fitness values), and the `O(1)`
//! shared-memory footprint.
//!
//! ```text
//! cargo run -p lrb-bench --release --bin theorem1 -- --n 16384 --max-k 4096 --trials 30
//! ```
//!
//! The printed `2*ceil(log2 k)` column is the paper's reference bound; the
//! measured means should sit well below it and grow logarithmically in `k`
//! while the memory column stays at 2 cells.

use lrb_bench::cli::{Options, OrExit};
use lrb_bench::run_theorem1_experiment;

fn main() {
    let options = Options::from_env(&["n", "max-k", "trials", "seed", "json"]);
    let n = options.usize_or("n", 16_384).or_exit();
    let max_k = options.usize_or("max-k", 4_096).or_exit().min(n);
    let trials = options.usize_or("trials", 30).or_exit();
    let seed = options.u64_or("seed", 2024).or_exit();

    let report = run_theorem1_experiment(n, max_k, trials, seed);
    println!(
        "Theorem 1 experiment: CRCW logarithmic random bidding, n = {n}, trials per k = {trials}"
    );
    println!("{}", report.render());
    println!("shared-memory footprint is the paper's O(1): 2 cells (champion bid + output index)");
    if options.contains("json") {
        println!("{}", report.to_json());
    }
}
