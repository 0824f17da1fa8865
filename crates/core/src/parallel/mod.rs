//! Parallel roulette wheel selection algorithms.
//!
//! Three families, mirroring the paper's Section I–III:
//!
//! * [`PrefixSumSelector`] — the prefix-sum-based algorithm (exact, the
//!   classical parallel approach: chunk sums, then a locate pass; `O(n)`
//!   work, run on one thread).
//! * [`IndependentRouletteSelector`] — the independent roulette
//!   (`r_i = f_i · u_i`, arg-max). Fast and popular in GPU ant-colony
//!   implementations, but its selection probabilities are **not** `F_i`;
//!   the paper (and our Table I / Table II reproduction) quantifies how
//!   wrong it is.
//! * [`LogBiddingSelector`] / [`ParallelLogBiddingSelector`] /
//!   [`CrcwLogBiddingSelector`] / [`GumbelMaxSelector`] — the paper's
//!   logarithmic random bidding (`r_i = ln(u_i) / f_i`, arg-max), which is
//!   exact. The implementations share the same mathematics and differ
//!   only in how the arg-max is executed: a sequential stream, the block
//!   bid kernel (forked over rayon chunks on large inputs), or the
//!   simulated CRCW-PRAM constant-memory loop whose step count Theorem 1
//!   bounds.
//!
//! Each algorithm runs one way, with no tuning field: the bid kernel is
//! the one execution that forks, and it decides from the input length and
//! the thread budget alone.

pub mod bid_kernel;
mod crcw;
mod independent;
mod log_bidding;
mod prefix_sum;

pub use bid_kernel::{kernel_counters, KernelCounters};
pub use crcw::CrcwLogBiddingSelector;
pub use independent::IndependentRouletteSelector;
pub use log_bidding::{GumbelMaxSelector, LogBiddingSelector, ParallelLogBiddingSelector};
pub use prefix_sum::PrefixSumSelector;

/// Deterministic lexicographic arg-max used by every parallel reduction in
/// this module: compare by key first, then by index, so the result does not
/// depend on how rayon splits the input.
pub(crate) fn max_by_key_then_index(a: (f64, usize), b: (f64, usize)) -> (f64, usize) {
    if b.0 > a.0 || (b.0 == a.0 && b.1 > a.1) {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_prefers_larger_key() {
        assert_eq!(max_by_key_then_index((1.0, 5), (2.0, 3)), (2.0, 3));
        assert_eq!(max_by_key_then_index((2.0, 3), (1.0, 5)), (2.0, 3));
    }

    #[test]
    fn argmax_breaks_ties_by_larger_index() {
        assert_eq!(max_by_key_then_index((1.0, 2), (1.0, 7)), (1.0, 7));
        assert_eq!(max_by_key_then_index((1.0, 7), (1.0, 2)), (1.0, 7));
    }

    #[test]
    fn argmax_handles_negative_infinity() {
        let ninf = f64::NEG_INFINITY;
        assert_eq!(max_by_key_then_index((ninf, 0), (-3.0, 1)), (-3.0, 1));
        assert_eq!(max_by_key_then_index((ninf, 0), (ninf, 4)), (ninf, 4));
    }

    #[test]
    fn argmax_is_associative_on_samples() {
        let items = [
            (-1.5, 0usize),
            (-0.25, 1),
            (-0.25, 2),
            (f64::NEG_INFINITY, 3),
            (-7.0, 4),
        ];
        // ((a b) c) == (a (b c)) for every consecutive triple.
        for w in items.windows(3) {
            let left = max_by_key_then_index(max_by_key_then_index(w[0], w[1]), w[2]);
            let right = max_by_key_then_index(w[0], max_by_key_then_index(w[1], w[2]));
            assert_eq!(left, right);
        }
    }
}
