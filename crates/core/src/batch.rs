//! The shared deterministic batch kernel: run many independent draws at
//! once, parallelised over disjoint chunks of one output buffer.
//!
//! The probability experiments (Tables I and II) and the `lrb-engine`
//! snapshot readers need millions of
//! independent selections from one frozen state. They all reuse the one
//! [`BatchDriver`] here: the output buffer is split into fixed-size chunks,
//! chunk `c` draws from its own counter-based Philox substream
//! `for_substream(master_seed, c)`, and a caller-supplied closure fills each
//! chunk through the buffer primitives ([`Selector::select_into`],
//! `sample_into`). Chunk boundaries depend only on the driver's configured
//! chunk size — never on the rayon schedule or thread count — so a batch is
//! a pure function of `(state, master_seed, trials, chunk_size)`, while each
//! chunk amortises the sampler's per-call setup across its whole sub-slice.

use lrb_rng::Philox4x32;
use rayon::prelude::*;

use crate::error::SelectionError;
use crate::fitness::Fitness;
use crate::traits::Selector;

/// Default trials per substream chunk: large enough to amortise per-chunk
/// setup (one Philox construction, one prefix-table build), small enough
/// that realistic batches produce many chunks to fan out over.
pub const DEFAULT_CHUNK_SIZE: u64 = 1024;

/// The deterministic Philox-substream batch driver shared by `lrb-core`
/// and `lrb-engine`.
///
/// # Example
///
/// ```
/// use lrb_core::batch::BatchDriver;
/// use lrb_core::sequential::LinearScanSelector;
/// use lrb_core::{Fitness, Selector};
///
/// let fitness = Fitness::new(vec![1.0, 0.0, 3.0]).unwrap();
/// let driver = BatchDriver::new();
/// let a = driver
///     .drive_indices(7, 10_000, |rng, out| {
///         LinearScanSelector.select_into(&fitness, rng, out)
///     })
///     .unwrap();
/// let b = driver
///     .drive_indices(7, 10_000, |rng, out| {
///         LinearScanSelector.select_into(&fitness, rng, out)
///     })
///     .unwrap();
/// assert_eq!(a, b); // same master seed → identical draws, any thread count
/// assert!(a.iter().all(|&i| i != 1)); // zero-weight index never drawn
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchDriver {
    chunk_size: u64,
}

impl Default for BatchDriver {
    fn default() -> Self {
        Self {
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }
}

impl BatchDriver {
    /// A driver with the [`DEFAULT_CHUNK_SIZE`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A driver with an explicit chunk size (must be positive). The chunk
    /// size is part of the determinism contract: changing it changes which
    /// substream serves which trial, so results are reproducible per
    /// `(master_seed, chunk_size)` pair.
    pub fn with_chunk_size(chunk_size: u64) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        Self { chunk_size }
    }

    /// Trials served per substream chunk.
    pub fn chunk_size(&self) -> u64 {
        self.chunk_size
    }

    /// Fill `out` deterministically: the chunk covering
    /// `out[c·chunk_size .. (c+1)·chunk_size]` is filled by `fill` with a
    /// fresh Philox substream `(master_seed, c)`. Chunks run rayon-parallel;
    /// the first error aborts the batch.
    pub fn drive_into<E, F>(&self, master_seed: u64, out: &mut [usize], fill: F) -> Result<(), E>
    where
        E: Send,
        F: Fn(&mut Philox4x32, &mut [usize]) -> Result<(), E> + Sync,
    {
        out.par_chunks_mut(self.chunk_size as usize)
            .with_min_len(1)
            .enumerate()
            .map(|(chunk, slice)| {
                let mut rng = Philox4x32::for_substream(master_seed, chunk as u64);
                fill(&mut rng, slice)
            })
            .collect::<Result<Vec<()>, E>>()?;
        Ok(())
    }

    /// Run `trials` draws and return the selected indices in trial order.
    pub fn drive_indices<E, F>(
        &self,
        master_seed: u64,
        trials: u64,
        fill: F,
    ) -> Result<Vec<usize>, E>
    where
        E: Send,
        F: Fn(&mut Philox4x32, &mut [usize]) -> Result<(), E> + Sync,
    {
        let mut out = vec![0usize; trials as usize];
        self.drive_into(master_seed, &mut out, fill)?;
        Ok(out)
    }

    /// Run `trials` draws over `categories` indices and tabulate them into
    /// per-index counts.
    ///
    /// Counting happens chunk-locally (each chunk fills a transient
    /// chunk-sized buffer and tabulates it immediately; partial counts are
    /// merged), so memory stays `O(chunks · categories)` instead of
    /// materialising every trial index — the Tables I/II regime is millions
    /// of trials over tens of categories.
    pub fn drive_counts<E, F>(
        &self,
        master_seed: u64,
        trials: u64,
        categories: usize,
        fill: F,
    ) -> Result<Vec<u64>, E>
    where
        E: Send,
        F: Fn(&mut Philox4x32, &mut [usize]) -> Result<(), E> + Sync,
    {
        let chunk_size = self.chunk_size as usize;
        let chunk_count = (trials as usize).div_ceil(chunk_size.max(1));
        (0..chunk_count)
            .into_par_iter()
            .with_min_len(1)
            .map(|chunk| {
                let start = chunk * chunk_size;
                let len = chunk_size.min(trials as usize - start);
                let mut buffer = vec![0usize; len];
                let mut rng = Philox4x32::for_substream(master_seed, chunk as u64);
                fill(&mut rng, &mut buffer)?;
                let mut local = vec![0u64; categories];
                for index in buffer {
                    local[index] += 1;
                }
                Ok(local)
            })
            .try_reduce(
                || vec![0u64; categories],
                |mut acc, local| {
                    for (a, b) in acc.iter_mut().zip(&local) {
                        *a += b;
                    }
                    Ok(acc)
                },
            )
    }
}

/// Counts of how often each index was selected in a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchCounts {
    counts: Vec<u64>,
    trials: u64,
}

impl BatchCounts {
    /// Raw per-index counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of trials in the batch.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Empirical frequencies.
    pub fn frequencies(&self) -> Vec<f64> {
        self.counts
            .iter()
            .map(|&c| c as f64 / self.trials as f64)
            .collect()
    }
}

/// Run `trials` independent selections of `fitness` with `selector` through
/// the shared [`BatchDriver`] and return the per-index counts.
///
/// Fails fast with the selector's error if the fitness vector is degenerate
/// (empty support).
pub fn batch_select_counts(
    selector: &dyn Selector,
    fitness: &Fitness,
    trials: u64,
    master_seed: u64,
) -> Result<BatchCounts, SelectionError> {
    if fitness.is_all_zero() {
        return Err(SelectionError::AllZeroFitness);
    }
    let counts =
        BatchDriver::new().drive_counts(master_seed, trials, fitness.len(), |rng, out| {
            selector.select_into(fitness, rng, out)
        })?;
    Ok(BatchCounts { counts, trials })
}

/// Run `trials` independent selections and return the selected indices in
/// trial order (useful when the caller needs the raw sequence, e.g. to feed a
/// downstream simulation).
pub fn batch_select_indices(
    selector: &dyn Selector,
    fitness: &Fitness,
    trials: u64,
    master_seed: u64,
) -> Result<Vec<usize>, SelectionError> {
    if fitness.is_all_zero() {
        return Err(SelectionError::AllZeroFitness);
    }
    BatchDriver::new().drive_indices(master_seed, trials, |rng, out| {
        selector.select_into(fitness, rng, out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{
        IndependentRouletteSelector, LogBiddingSelector, ParallelLogBiddingSelector,
    };
    use crate::sequential::LinearScanSelector;

    #[test]
    fn counts_sum_to_the_trial_budget() {
        let fitness = Fitness::table1();
        let batch =
            batch_select_counts(&LogBiddingSelector::default(), &fitness, 10_000, 1).unwrap();
        assert_eq!(batch.trials(), 10_000);
        assert_eq!(batch.counts().iter().sum::<u64>(), 10_000);
        assert_eq!(batch.counts()[0], 0, "zero-fitness index never selected");
    }

    #[test]
    fn frequencies_match_the_exact_distribution_for_exact_selectors() {
        let fitness = Fitness::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let batch =
            batch_select_counts(&LogBiddingSelector::default(), &fitness, 100_000, 2).unwrap();
        let freqs = batch.frequencies();
        for (i, target) in fitness.probabilities().iter().enumerate() {
            assert!(
                (freqs[i] - target).abs() < 0.006,
                "index {i}: {} vs {target}",
                freqs[i]
            );
        }
    }

    #[test]
    fn batch_results_are_independent_of_the_rayon_schedule() {
        // Deterministic by construction: same master seed → same counts.
        let fitness = Fitness::new(vec![2.0, 1.0, 4.0]).unwrap();
        let a = batch_select_counts(&LinearScanSelector, &fitness, 20_000, 3).unwrap();
        let b = batch_select_counts(&LinearScanSelector, &fitness, 20_000, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_overrides_do_not_change_the_batch() {
        let fitness = Fitness::new(vec![1.0, 3.0, 2.0, 0.5]).unwrap();
        let reference = batch_select_indices(&LinearScanSelector, &fitness, 30_000, 8).unwrap();
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let indices = pool
                .install(|| batch_select_indices(&LinearScanSelector, &fitness, 30_000, 8))
                .unwrap();
            assert_eq!(indices, reference, "{threads} threads diverged");
        }
    }

    #[test]
    fn nested_parallel_stages_finish_and_match_the_sequential_batch() {
        // n = 2^14 is above the block kernel's sequential cutoff, so each
        // of the driver's two chunks (1_100 trials) forks the kernel's own
        // `par_chunks` stage: joins nested in joins on one shared pool.
        let values = (0..1usize << 14).map(|i| ((i % 7) + 1) as f64).collect();
        let fitness = Fitness::new(values).unwrap();
        let run = |threads| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
            let selector = ParallelLogBiddingSelector::default();
            pool.unwrap()
                .install(|| batch_select_counts(&selector, &fitness, 1_100, 9))
        };
        assert_eq!(run(4).unwrap(), run(1).unwrap());
    }

    #[test]
    fn indices_and_counts_agree() {
        let fitness = Fitness::new(vec![1.0, 1.0, 2.0]).unwrap();
        let selector = IndependentRouletteSelector;
        let indices = batch_select_indices(&selector, &fitness, 5_000, 4).unwrap();
        let counts = batch_select_counts(&selector, &fitness, 5_000, 4).unwrap();
        let mut recount = vec![0u64; fitness.len()];
        for &i in &indices {
            recount[i] += 1;
        }
        assert_eq!(recount, counts.counts());
    }

    #[test]
    fn all_zero_fitness_is_rejected() {
        let fitness = Fitness::new(vec![0.0, 0.0]).unwrap();
        assert!(batch_select_counts(&LinearScanSelector, &fitness, 10, 5).is_err());
        assert!(batch_select_indices(&LinearScanSelector, &fitness, 10, 5).is_err());
    }

    #[test]
    fn zero_trials_is_a_valid_empty_batch() {
        let fitness = Fitness::new(vec![1.0]).unwrap();
        let batch = batch_select_counts(&LinearScanSelector, &fitness, 0, 6).unwrap();
        assert_eq!(batch.trials(), 0);
        assert_eq!(batch.counts(), &[0]);
        assert!(batch_select_indices(&LinearScanSelector, &fitness, 0, 6)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn chunk_size_is_part_of_the_determinism_contract() {
        // Same seed, same chunk size → identical; a different chunk size
        // reassigns substreams and is allowed to differ.
        let fitness = Fitness::new(vec![1.0, 2.0, 3.0]).unwrap();
        let fill = |rng: &mut lrb_rng::Philox4x32, out: &mut [usize]| {
            LinearScanSelector.select_into(&fitness, rng, out)
        };
        let small = BatchDriver::with_chunk_size(64);
        let a = small.drive_indices(9, 10_000, fill).unwrap();
        let b = small.drive_indices(9, 10_000, fill).unwrap();
        assert_eq!(a, b);
        assert_eq!(small.chunk_size(), 64);
        let big = BatchDriver::with_chunk_size(4096);
        let c = big.drive_indices(9, 10_000, fill).unwrap();
        assert_ne!(a, c, "different chunk sizes should reassign substreams");
    }

    #[test]
    fn drive_into_fills_exactly_the_buffer_it_is_given() {
        let fitness = Fitness::new(vec![0.0, 5.0]).unwrap();
        let mut out = vec![99usize; 2_500];
        BatchDriver::with_chunk_size(1000)
            .drive_into(3, &mut out, |rng, slice| {
                LinearScanSelector.select_into(&fitness, rng, slice)
            })
            .unwrap();
        assert!(out.iter().all(|&i| i == 1));
    }

    #[test]
    #[should_panic]
    fn zero_chunk_size_is_rejected() {
        let _ = BatchDriver::with_chunk_size(0);
    }
}
