//! The shared deterministic batch kernel: run many independent draws at
//! once, parallelised over disjoint chunks of one output buffer.
//!
//! The probability experiments (Tables I and II) and the `lrb-engine`
//! snapshot readers need millions of
//! independent selections from one frozen state. They all reuse the
//! drivers here ([`drive_into`], [`drive_indices`], [`drive_counts`]): the
//! output buffer is split into [`CHUNK_SIZE`]-trial chunks, chunk `c` draws
//! from its own counter-based Philox substream
//! `for_substream(master_seed, c)`, and a caller-supplied closure fills each
//! chunk through the buffer primitives ([`Selector::select_into`],
//! `sample_into`). Chunk boundaries are fixed — never dependent on the
//! rayon schedule or thread count — so a batch is a pure function of
//! `(state, master_seed, trials)`, while each chunk amortises the sampler's
//! per-call setup across its whole sub-slice. A batch of more than one
//! chunk forks over its chunks when the thread budget allows.

use lrb_rng::Philox4x32;
use rayon::prelude::*;

use crate::error::SelectionError;
use crate::fitness::Fitness;
use crate::traits::Selector;

/// Trials per substream chunk: large enough to amortise per-chunk setup
/// (one Philox construction, one prefix-table build), small enough that
/// realistic batches produce many chunks to fan out over. Part of the
/// determinism contract: it fixes which substream serves which trial.
pub const CHUNK_SIZE: usize = 1024;

/// Fill `out` deterministically: the chunk covering
/// `out[c·CHUNK_SIZE .. (c+1)·CHUNK_SIZE]` is filled by `fill` with a fresh
/// Philox substream `(master_seed, c)`. Chunks run rayon-parallel; the
/// first error aborts the batch.
pub fn drive_into<E, F>(master_seed: u64, out: &mut [usize], fill: F) -> Result<(), E>
where
    E: Send,
    F: Fn(&mut Philox4x32, &mut [usize]) -> Result<(), E> + Sync,
{
    out.par_chunks_mut(CHUNK_SIZE)
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
///
/// # Example
///
/// ```
/// use lrb_core::batch::drive_indices;
/// use lrb_core::sequential::LinearScanSelector;
/// use lrb_core::{Fitness, Selector};
///
/// let fitness = Fitness::new(vec![1.0, 0.0, 3.0]).unwrap();
/// let fill = |rng: &mut lrb_rng::Philox4x32, out: &mut [usize]| {
///     LinearScanSelector.select_into(&fitness, rng, out)
/// };
/// let a = drive_indices(7, 10_000, fill).unwrap();
/// let b = drive_indices(7, 10_000, fill).unwrap();
/// assert_eq!(a, b); // same master seed → identical draws, any thread count
/// assert!(a.iter().all(|&i| i != 1)); // zero-weight index never drawn
/// ```
pub fn drive_indices<E, F>(master_seed: u64, trials: u64, fill: F) -> Result<Vec<usize>, E>
where
    E: Send,
    F: Fn(&mut Philox4x32, &mut [usize]) -> Result<(), E> + Sync,
{
    let mut out = vec![0usize; trials as usize];
    drive_into(master_seed, &mut out, fill)?;
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
    master_seed: u64,
    trials: u64,
    categories: usize,
    fill: F,
) -> Result<Vec<u64>, E>
where
    E: Send,
    F: Fn(&mut Philox4x32, &mut [usize]) -> Result<(), E> + Sync,
{
    let chunk_count = (trials as usize).div_ceil(CHUNK_SIZE);
    (0..chunk_count)
        .into_par_iter()
        .with_min_len(1)
        .map(|chunk| {
            let start = chunk * CHUNK_SIZE;
            let len = CHUNK_SIZE.min(trials as usize - start);
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
/// [`drive_counts`] and return the per-index counts.
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
    let counts = drive_counts(master_seed, trials, fitness.len(), |rng, out| {
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
    drive_indices(master_seed, trials, |rng, out| {
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
        // n = 2^14 spans two bid-kernel chunks, so at budget 4 each of the
        // driver's two chunks (1_100 trials) forks the kernel's own
        // `par_chunks` stage: joins nested in joins on one shared pool.
        let values = (0..1usize << 14).map(|i| ((i % 7) + 1) as f64).collect();
        let fitness = Fitness::new(values).unwrap();
        let run = |threads| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
            let selector = ParallelLogBiddingSelector;
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
        // Chunk c of a batch is exactly a fill of substream (seed, c), so
        // CHUNK_SIZE fixes which substream serves which trial: changing it
        // would change every stored batch past the first chunk.
        let fitness = Fitness::new(vec![1.0, 2.0, 3.0]).unwrap();
        let batch = drive_indices(9, 10_000, |rng, out| {
            LinearScanSelector.select_into(&fitness, rng, out)
        })
        .unwrap();
        for (chunk, slice) in batch.chunks(CHUNK_SIZE).enumerate() {
            let mut rng = lrb_rng::Philox4x32::for_substream(9, chunk as u64);
            let mut own = vec![0usize; slice.len()];
            LinearScanSelector
                .select_into(&fitness, &mut rng, &mut own)
                .unwrap();
            assert_eq!(slice, own.as_slice(), "chunk {chunk}");
        }
    }

    #[test]
    fn drive_into_fills_exactly_the_buffer_it_is_given() {
        // 2 500 trials: two full chunks and a ragged third.
        let fitness = Fitness::new(vec![0.0, 5.0]).unwrap();
        let mut out = vec![99usize; 2_500];
        drive_into(3, &mut out, |rng, slice| {
            LinearScanSelector.select_into(&fitness, rng, slice)
        })
        .unwrap();
        assert!(out.iter().all(|&i| i == 1));
    }
}
