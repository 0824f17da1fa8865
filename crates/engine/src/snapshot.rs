//! Immutable, versioned sampler snapshots — the read side of the engine.
//!
//! A [`Snapshot`] freezes one weight vector behind a [`FrozenSampler`]
//! built (or patched) by a registered
//! [`FrozenBackend`](crate::backend::FrozenBackend). The sampler is the
//! snapshot's only weight store: every weight, length and probability
//! query reads [`FrozenSampler::weights`]; the snapshot adds the total,
//! summed once in index order (over the support alone when the sampler
//! keeps a support map, so a compact shard's total costs `O(k)`, not
//! `O(n)`). A snapshot is never mutated
//! after construction, so any number of reader threads can draw from the
//! same `Arc<Snapshot>` without coordination, and a reader that keeps an old
//! snapshot keeps sampling the exact distribution it observed — publication
//! of newer versions cannot tear its draws. Readers fill whole buffers
//! lock-free through [`sample_into`](Snapshot::sample_into), and the
//! service planner draws a group of slots, one Philox substream each,
//! through [`sample_streams`](Snapshot::sample_streams) (uncounted; it
//! credits a whole batch through [`count_served`](Snapshot::count_served));
//! the only
//! shared state a draw touches is the served-draws telemetry (exported as
//! `lrb_snapshot_served` and journaled with each publish; it never steers
//! the engine), and even that is an [`lrb_obs::Counter`], sharded into
//! per-thread cache-padded cells so concurrent readers do not bounce a
//! counter line between cores.

use lrb_core::batch::{drive_counts, drive_indices};
use lrb_core::error::SelectionError;
use lrb_core::traits::FrozenSampler;
use lrb_obs::Counter;
use lrb_rng::{Philox4x32, RandomSource};

/// One immutable published state of the engine: a version number and a
/// backend-built sampler that holds the frozen weights and draws with exact
/// probabilities `F_i = w_i / Σ w_j`.
pub struct Snapshot {
    version: u64,
    backend: &'static str,
    /// `Σ w_j` over the sampler's weights, summed in index order.
    total: f64,
    sampler: Box<dyn FrozenSampler>,
    /// Draws served from this snapshot (relaxed; telemetry only).
    served: Counter,
}

impl Snapshot {
    /// Assemble a snapshot around a sampler the `backend` built or patched
    /// (the engine freezes the sampler itself so it can time the freeze for
    /// telemetry).
    pub(crate) fn from_parts(
        version: u64,
        backend: &'static str,
        sampler: Box<dyn FrozenSampler>,
    ) -> Self {
        assert!(
            !sampler.weights().is_empty(),
            "snapshots cover at least one category"
        );
        let total = index_order_total(sampler.as_ref());
        Self {
            version,
            backend,
            total,
            sampler,
            served: Counter::new(),
        }
    }

    /// The snapshot's publication version (monotonically increasing; the
    /// engine's initial state is version 0).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Registry name of the backend this snapshot was frozen under.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.weights().len()
    }

    /// Whether the snapshot has zero categories (never true — construction
    /// rejects empty weight vectors).
    pub fn is_empty(&self) -> bool {
        self.weights().is_empty()
    }

    /// The frozen weights (the sampler's).
    pub fn weights(&self) -> &[f64] {
        self.sampler.weights()
    }

    /// Weight of one category (panics if out of range).
    pub fn weight(&self, index: usize) -> f64 {
        self.weights()[index]
    }

    /// Sum of the frozen weights, in index order.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// The frozen sampler itself — the engine's patch path hands it to the
    /// backend so the next snapshot can be derived from it incrementally.
    pub(crate) fn sampler(&self) -> &dyn FrozenSampler {
        self.sampler.as_ref()
    }

    /// Draws served from this snapshot so far (telemetry; a relaxed read).
    pub fn served(&self) -> u64 {
        self.served.get()
    }

    /// The exact selection probabilities `F_i = w_i / Σ w_j` (all zeros when
    /// the total mass is zero).
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total <= 0.0 {
            return vec![0.0; self.len()];
        }
        self.weights().iter().map(|w| w / self.total).collect()
    }

    /// Draw one index with probability exactly `w_i / Σ w_j`.
    pub fn sample(&self, rng: &mut dyn RandomSource) -> Result<usize, SelectionError> {
        let index = self.sampler.sample(rng)?;
        self.served.add(1);
        Ok(index)
    }

    /// One draw per stream, `out[i]` from `streams[i]` alone, exactly as
    /// [`sample`](Self::sample) on that stream draws it
    /// ([`FrozenSampler::sample_streams`]), uncounted: the
    /// service planner's draw for one shard's group of slots, which
    /// credits a whole batch through one
    /// [`count_served`](Self::count_served) per shard.
    pub fn sample_streams(
        &self,
        streams: &mut [Philox4x32],
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        self.sampler.sample_streams(streams, out)
    }

    /// Credit `draws` successful [`sample_streams`](Self::sample_streams)
    /// draws to [`served`](Self::served).
    pub fn count_served(&self, draws: u64) {
        self.served.add(draws);
    }

    /// Fill `out` with independent draws, lock-free, through the backend's
    /// tight-loop buffer primitive — the preferred reader hot path (one
    /// virtual call and one telemetry increment per buffer instead of per
    /// draw).
    pub fn sample_into(
        &self,
        rng: &mut dyn RandomSource,
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        self.sampler.sample_into(rng, out)?;
        self.served.add(out.len() as u64);
        Ok(())
    }

    /// Fill `out` from the deterministic counter-based substream
    /// `substream` of `master_seed` — [`sample_into`](Self::sample_into)
    /// with a [`Philox4x32::for_substream`] stream constructed on the
    /// stack. The service's planner no longer calls it (each slot draws
    /// from its own substream, through
    /// [`sample_streams`](Self::sample_streams)); it stays for the
    /// end-to-end benchmark's per-shard fill replay.
    pub fn sample_into_substream(
        &self,
        master_seed: u64,
        substream: u64,
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        let mut rng = Philox4x32::for_substream(master_seed, substream);
        self.sample_into(&mut rng, out)
    }

    /// Draw `count` indices independently (with replacement; allocating,
    /// delegates to [`sample_into`](Snapshot::sample_into)).
    pub fn sample_many(
        &self,
        rng: &mut dyn RandomSource,
        count: usize,
    ) -> Result<Vec<usize>, SelectionError> {
        let mut out = vec![0usize; count];
        self.sample_into(rng, &mut out)?;
        Ok(out)
    }

    /// Draw `trials` indices in trial order through the shared batch
    /// driver ([`drive_indices`]): rayon-parallel and deterministic — each
    /// buffer chunk uses its own counter-based Philox substream, so the
    /// result is a pure function of `(snapshot, master_seed, trials)`
    /// regardless of thread count (the [`lrb_core::batch`] contract).
    pub fn batch_indices(
        &self,
        trials: u64,
        master_seed: u64,
    ) -> Result<Vec<usize>, SelectionError> {
        let indices = drive_indices(master_seed, trials, |rng, out| {
            self.sampler.sample_into(rng, out)
        })?;
        self.served.add(trials);
        Ok(indices)
    }

    /// Like [`batch_indices`](Snapshot::batch_indices) but tabulated into
    /// per-index counts chunk by chunk ([`drive_counts`]: the same chunks
    /// and substreams, so the counts are those of the indices), without
    /// materialising the `trials` indices.
    pub fn batch_counts(&self, trials: u64, master_seed: u64) -> Result<Vec<u64>, SelectionError> {
        let counts = drive_counts(master_seed, trials, self.len(), |rng, out| {
            self.sampler.sample_into(rng, out)
        })?;
        self.served.add(trials);
        Ok(counts)
    }
}

/// `Σ w_j` in index order, bit for bit, summed over the sampler's
/// [`support`](FrozenSampler::support) when it keeps one: that fold skips
/// only zeros, and adding a zero leaves a positive running sum unchanged,
/// so it equals the full sum whenever some weight is positive. With none
/// positive the full sum decides the sign of the zero (an empty fold is
/// `-0.0`, a sum over `+0.0` weights is `+0.0`).
fn index_order_total(sampler: &dyn FrozenSampler) -> f64 {
    let weights = sampler.weights();
    if let Some(support) = sampler.support() {
        let total: f64 = support.iter().map(|&i| weights[i as usize]).sum();
        if total > 0.0 {
            return total;
        }
    }
    weights.iter().sum()
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("version", &self.version)
            .field("backend", &self.backend)
            .field("len", &self.len())
            .field("total", &self.total)
            .field("served", &self.served())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendRegistry, BuildScratch};
    use lrb_rng::{MersenneTwister64, SeedableSource};

    fn build(version: u64, weights: Vec<f64>, backend: &str) -> Snapshot {
        let registry = BackendRegistry::standard();
        let backend = registry.get(backend).unwrap();
        let sampler = backend
            .build(weights, &mut BuildScratch::default())
            .unwrap();
        Snapshot::from_parts(version, backend.name(), sampler)
    }

    #[test]
    fn every_backend_freezes_and_draws_the_same_distribution() {
        let weights = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        for name in BackendRegistry::standard().names() {
            let snap = build(7, weights.clone(), name);
            assert_eq!(snap.version(), 7);
            assert_eq!(snap.backend(), name);
            assert_eq!(snap.len(), 5);
            assert!(!snap.is_empty());
            assert!((snap.total_weight() - 10.0).abs() < 1e-12);
            assert_eq!(snap.weight(3), 3.0);
            let probs = snap.probabilities();
            assert!((probs[4] - 0.4).abs() < 1e-12);
            let mut rng = MersenneTwister64::seed_from_u64(5);
            for _ in 0..2_000 {
                let i = snap.sample(&mut rng).unwrap();
                assert_ne!(i, 0, "{name} drew a zero-weight index");
            }
        }
    }

    #[test]
    #[should_panic]
    fn empty_weights_are_rejected() {
        let _ = build(0, vec![], "fenwick");
    }

    #[test]
    fn all_zero_snapshots_build_but_refuse_to_draw() {
        for name in BackendRegistry::standard().names() {
            let snap = build(1, vec![0.0, 0.0], name);
            assert_eq!(snap.total_weight(), 0.0);
            assert_eq!(snap.probabilities(), vec![0.0, 0.0]);
            let mut rng = MersenneTwister64::seed_from_u64(2);
            assert_eq!(
                snap.sample(&mut rng),
                Err(SelectionError::AllZeroFitness),
                "{name}"
            );
            assert!(snap.batch_indices(5, 1).is_err());
            assert!(snap.batch_counts(5, 1).is_err());
            assert_eq!(snap.served(), 0, "failed draws must not count as served");
        }
    }

    #[test]
    fn batch_draws_are_deterministic_and_counted() {
        let snap = build(3, vec![1.0, 2.0, 1.0], "fenwick");
        let a = snap.batch_indices(5_000, 11).unwrap();
        let b = snap.batch_indices(5_000, 11).unwrap();
        assert_eq!(a, b);
        let counts = snap.batch_counts(5_000, 11).unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 5_000);
        let mut recount = vec![0u64; 3];
        for &i in &a {
            recount[i] += 1;
        }
        assert_eq!(recount, counts);
        assert_eq!(snap.served(), 15_000, "every batch credits its trials");
    }

    #[test]
    fn sample_into_agrees_with_sample_on_equal_seeds() {
        for name in BackendRegistry::standard().names() {
            let snap = build(0, vec![1.0, 0.0, 2.0, 4.0, 0.5], name);
            let mut rng_a = MersenneTwister64::seed_from_u64(31);
            let mut rng_b = MersenneTwister64::seed_from_u64(31);
            let mut buffer = vec![0usize; 2_000];
            snap.sample_into(&mut rng_a, &mut buffer).unwrap();
            for (t, &filled) in buffer.iter().enumerate() {
                assert_eq!(
                    filled,
                    snap.sample(&mut rng_b).unwrap(),
                    "{name} diverged at draw {t}"
                );
            }
        }
    }

    #[test]
    fn served_counts_every_successful_draw() {
        let snap = build(0, vec![2.0, 2.0], "stochastic-acceptance");
        let mut rng = MersenneTwister64::seed_from_u64(9);
        let picks = snap.sample_many(&mut rng, 100).unwrap();
        assert_eq!(picks.len(), 100);
        assert!(picks.iter().all(|&i| i < 2));
        let _ = snap.sample(&mut rng).unwrap();
        let _ = snap.batch_indices(50, 1).unwrap();
        assert_eq!(snap.served(), 151);
        let mut streams = [
            Philox4x32::for_substream(9, 0),
            Philox4x32::for_substream(9, 1),
        ];
        let mut out = [usize::MAX; 2];
        snap.sample_streams(&mut streams, &mut out).unwrap();
        assert!(out.iter().all(|&i| i < 2));
        assert_eq!(
            snap.served(),
            151,
            "per-stream draws count only when credited"
        );
        snap.count_served(3);
        assert_eq!(snap.served(), 154);
    }

    #[test]
    fn debug_format_names_the_essentials() {
        let snap = build(4, vec![1.0], "alias");
        let text = format!("{snap:?}");
        assert!(text.contains("version"));
        assert!(text.contains('4'));
        assert!(text.contains("alias"));
    }
}
