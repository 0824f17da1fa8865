//! # lrb-core — roulette wheel selection with precise probabilities
//!
//! This crate is the reproduction of the primary contribution of
//! *"The Logarithmic Random Bidding for the Parallel Roulette Wheel Selection
//! with Precise Probabilities"* (Nakano, 2024): given non-negative fitness
//! values `f_0 … f_{n−1}`, select index `i` with probability exactly
//! `F_i = f_i / Σ_j f_j`, in parallel, using the **logarithmic random
//! bidding** `r_i = ln(u_i) / f_i` and an arg-max reduction.
//!
//! The crate contains:
//!
//! * [`Fitness`] — a validated fitness vector with the workload constructors
//!   used throughout the paper's evaluation (Table I, Table II, sparse
//!   ant-colony-style vectors).
//! * [`sequential`] — classic single-threaded samplers: linear CDF scan,
//!   binary search over prefix sums, the Vose alias method, and stochastic
//!   acceptance. These are the ground truth and the "sample many times"
//!   baselines.
//! * [`parallel`] — the paper's algorithms: the prefix-sum-based parallel
//!   selection (exact, the classical approach), the *independent roulette*
//!   (fast but **biased** — reproduced here because the paper quantifies its
//!   error), and the **logarithmic random bidding** in three executions:
//!   sequential streaming, the block bid kernel (forked over rayon chunks
//!   on large inputs), and CRCW-PRAM-simulated (`O(log k)` expected steps,
//!   `O(1)` shared memory). Each algorithm runs one way, with no tuning
//!   field.
//! * [`batch`] — the shared deterministic batch kernel
//!   ([`drive_into`](batch::drive_into) and friends): buffer chunks filled
//!   from counter-based Philox substreams through the traits'
//!   `select_into` / `sample_into` primitives, schedule-independent at any
//!   thread count. The probability experiments and the `lrb-engine`
//!   snapshot batches run on it.
//! * [`sharding`] — the level-one shard-total layer (lock-free per-shard
//!   totals and a Fenwick cut over them) behind `lrb-service`'s two-level
//!   draws.
//! * [`analysis`] — closed-form selection probabilities of the independent
//!   roulette, used to print the "analytic" column next to the empirical one.
//! * [`without_replacement`] — Efraimidis–Spirakis weighted sampling without
//!   replacement, the natural k-item extension of the same exponential-race
//!   trick.
//! * [`streaming`] — weighted reservoir sampling (A-Res and A-ExpJ) for
//!   one-pass selection over streams.
//!
//! ## Quickstart
//!
//! ```
//! use lrb_core::{Fitness, Selector, parallel::LogBiddingSelector};
//! use lrb_rng::{MersenneTwister64, SeedableSource};
//!
//! let fitness = Fitness::new(vec![0.0, 1.0, 2.0, 3.0, 4.0]).unwrap();
//! let selector = LogBiddingSelector::default();
//! let mut rng = MersenneTwister64::seed_from_u64(7);
//! let chosen = selector.select(&fitness, &mut rng).unwrap();
//! assert!(fitness.values()[chosen] > 0.0); // zero-fitness indices are never chosen
//! ```

// `deny`, not `forbid`: the one module implementing the fused bid kernel's
// vectorised row filter (`parallel::bid_kernel::filter`) carries an audited
// `#[allow(unsafe_code)]` with its safety argument in the module docs —
// `#[target_feature]` dispatch guarded by runtime detection plus
// bounds-checked unaligned loads; everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod batch;
pub mod error;
pub mod fitness;
pub mod parallel;
pub mod sequential;
pub mod sharding;
pub mod streaming;
pub mod traits;
pub mod without_replacement;

pub use error::{ConfigError, SelectionError};
pub use fitness::Fitness;
pub use sharding::{ShardTotals, TotalsCut};
pub use traits::{DynamicSampler, FrozenSampler, PreparedSampler, Selector};

/// The workspace's one parallel executor (the rayon shim's `join` and its
/// thread budget), re-exported for crates that fork work without a
/// `rayon` dependency of their own.
pub use rayon::{current_num_threads, join};

/// All one-shot selectors in the crate behind one constructor, keyed by name.
///
/// Useful for benches and examples that sweep "every algorithm".
pub fn all_selectors() -> Vec<Box<dyn Selector>> {
    vec![
        Box::new(sequential::LinearScanSelector),
        Box::new(sequential::StochasticAcceptanceSelector::default()),
        Box::new(parallel::PrefixSumSelector::default()),
        Box::new(parallel::IndependentRouletteSelector),
        Box::new(parallel::LogBiddingSelector::default()),
        Box::new(parallel::ParallelLogBiddingSelector),
        Box::new(parallel::GumbelMaxSelector),
        Box::new(parallel::CrcwLogBiddingSelector),
    ]
}

/// The selectors whose selection probabilities are exactly `F_i`
/// (i.e. everything except the independent roulette).
pub fn exact_selectors() -> Vec<Box<dyn Selector>> {
    all_selectors()
        .into_iter()
        .filter(|s| s.is_exact())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_rng::{MersenneTwister64, SeedableSource};

    #[test]
    fn all_selectors_have_distinct_names() {
        let names: Vec<&str> = all_selectors().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            names.len(),
            dedup.len(),
            "duplicate selector names: {names:?}"
        );
    }

    #[test]
    fn exact_selectors_exclude_independent_roulette() {
        let exact = exact_selectors();
        assert!(exact.iter().all(|s| !s.name().contains("independent")));
        assert!(exact.len() >= 6);
    }

    #[test]
    fn every_selector_picks_a_positive_fitness_index() {
        let fitness = Fitness::new(vec![0.0, 2.0, 0.0, 5.0, 1.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(3);
        for selector in all_selectors() {
            for _ in 0..50 {
                let i = selector.select(&fitness, &mut rng).unwrap();
                assert!(
                    fitness.values()[i] > 0.0,
                    "{} picked zero-fitness index {i}",
                    selector.name()
                );
            }
        }
    }

    #[test]
    fn every_selector_rejects_all_zero_fitness() {
        let fitness = Fitness::new(vec![0.0, 0.0, 0.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(3);
        for selector in all_selectors() {
            assert!(
                matches!(
                    selector.select(&fitness, &mut rng),
                    Err(SelectionError::AllZeroFitness)
                ),
                "{} accepted an all-zero fitness vector",
                selector.name()
            );
        }
    }
}
