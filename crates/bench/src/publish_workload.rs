//! Publish-latency driver: full snapshot rebuilds versus incremental
//! patches, per backend — the workload behind the `publish_quick` gate and
//! the `BENCH_publish.json` baseline.
//!
//! Two levels are measured:
//!
//! * **Backend level** ([`bench_backend_publish`]) — the freeze step in
//!   isolation: [`FrozenBackend::build`] over a copy of the folded weights
//!   against [`FrozenBackend::try_patch`] over the previous sampler plus
//!   the same coalesced batch. This isolates the cost the patch path
//!   removes: the rebuild side times the copy its publish branch makes
//!   plus the build (not the fold's multiply pass); snapshot assembly and
//!   the pointer swap are common to both paths.
//! * **Engine level** ([`bench_engine_publish`]) — end-to-end
//!   [`SelectionEngine::publish`] latency under a [`PatchPolicy`], so the
//!   backend-level win is shown in its serving context.

use std::sync::Arc;
use std::time::Instant;

use lrb_engine::{BuildScratch, EngineConfig, FrozenBackend, PatchPolicy, SelectionEngine};
use serde::Serialize;

use crate::gate;

/// The mildly varied weight family used by every publish measurement
/// (matches `selector_workload::bench_fitness`): no backend-friendly
/// structure, no zero weights.
pub fn bench_weights(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7) % 13 + 1) as f64).collect()
}

/// Prime glibc's dynamic mmap threshold once per process: freeing one
/// large block raises the threshold past the per-publish `Vec` sizes, so
/// subsequent snapshot allocations recycle arena memory instead of paying
/// a fresh `mmap` plus page faults per call. A long-running engine reaches
/// this steady state within its first publishes; without priming, a cold
/// bench process measures kernel page-zeroing instead of the publish path.
fn prime_allocator() {
    use std::sync::Once;
    static PRIMED: Once = Once::new();
    PRIMED.call_once(|| {
        let block = vec![1u8; 24 << 20];
        std::hint::black_box(&block);
    });
}

/// A deterministic coalesced batch touching `dirty` distinct categories.
pub fn bench_overrides(n: usize, dirty: usize) -> Vec<(usize, f64)> {
    assert!(dirty <= n, "cannot dirty more categories than exist");
    // A stride walk scatters the dirty set across the table; when the
    // stride's orbit is smaller than `dirty` (n a multiple of 97), linear
    // probing to the next unseen index keeps the walk terminating for any
    // `(n, dirty)` pair while staying deterministic.
    let stride = 97;
    let mut seen = vec![false; n];
    let mut overrides = Vec::with_capacity(dirty);
    let mut index = 0usize;
    while overrides.len() < dirty {
        index = (index + stride) % n;
        while seen[index] {
            index = (index + 1) % n;
        }
        seen[index] = true;
        overrides.push((index, ((index % 11) + 1) as f64 * 0.5));
    }
    // The engine's coalescing queue drains sorted by category; measure the
    // same access pattern.
    overrides.sort_unstable_by_key(|&(index, _)| index);
    overrides
}

/// One backend at one `(n, dirty fraction, scaled)` point.
#[derive(Debug, Clone, Serialize)]
pub struct BackendPublishReport {
    /// Registry name of the backend.
    pub backend: String,
    /// Category count.
    pub n: u64,
    /// Dirty categories in the batch.
    pub dirty: u64,
    /// Whether the batch carried an evaporation scale fold.
    pub scaled: bool,
    /// Mean microseconds per full rebuild over the folded weights.
    pub rebuild_us: f64,
    /// Mean microseconds per incremental patch (absent when the backend
    /// has no patch path — the alias table always rebuilds).
    pub patch_us: Option<f64>,
    /// `rebuild_us / patch_us`.
    pub speedup: Option<f64>,
}

/// Timed batches per path; each path keeps its *fastest* batch mean — a
/// scheduler or reclaim hiccup inflates some batches, never deflates one.
const BATCHES: usize = 5;

/// The fastest of [`BATCHES`] batch means of `run`, in microseconds.
fn fastest_batch_us(reps: usize, mut run: impl FnMut()) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..reps {
                run();
            }
            started.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measure one backend's freeze step both ways, as pair number `pair` of
/// [`gate::alternate`]: the rebuild is timed first on even pairs, the
/// patch on odd ones (the sweep's rows are pair 0).
pub fn bench_backend_publish(
    backend: &Arc<dyn FrozenBackend>,
    n: usize,
    dirty_fraction: f64,
    scaled: bool,
    budget: u64,
    pair: usize,
) -> BackendPublishReport {
    let dirty = ((n as f64 * dirty_fraction) as usize).max(1);
    let scale = if scaled { 0.97 } else { 1.0 };
    let weights = bench_weights(n);
    let overrides = bench_overrides(n, dirty);
    // The folded vector a publish would hand to a full rebuild.
    let mut folded = weights.clone();
    if scale != 1.0 {
        for w in folded.iter_mut() {
            *w *= scale;
        }
    }
    for &(index, weight) in &overrides {
        folded[index] = weight;
    }
    prime_allocator();
    let mut scratch = BuildScratch::default();
    let prev = backend
        .build(weights, &mut scratch)
        .expect("bench weights are valid");
    let reps = (budget / n as u64).clamp(5, 400) as usize;
    let batch_reps = reps.div_ceil(BATCHES);
    let rebuild = || {
        // Warm the pooled scratch so the rebuild path is steady-state.
        let _ = backend.build(folded.clone(), &mut scratch);
        fastest_batch_us(batch_reps, || {
            // The timed rebuild includes one copy of the folded vector, as
            // a publish's rebuild branch pays for its fold.
            std::hint::black_box(
                backend
                    .build(folded.clone(), &mut scratch)
                    .expect("folded weights are valid"),
            );
        })
    };
    let patch = || {
        let patch = || backend.try_patch(prev.as_ref(), &overrides, scale);
        // The first patch also warms the path; the alias table has none.
        matches!(patch(), Some(Ok(_))).then(|| {
            fastest_batch_us(batch_reps, || {
                std::hint::black_box(
                    patch()
                        .expect("patch path exists")
                        .expect("patch of valid batch succeeds"),
                );
            })
        })
    };
    let (rebuild_us, patch_us) = gate::alternate(pair, rebuild, patch);
    BackendPublishReport {
        backend: backend.name().to_string(),
        n: n as u64,
        dirty: dirty as u64,
        scaled,
        rebuild_us,
        patch_us,
        speedup: patch_us.map(|p| rebuild_us / p.max(1e-9)),
    }
}

/// End-to-end engine publish latency under one [`PatchPolicy`].
#[derive(Debug, Clone, Serialize)]
pub struct EnginePublishReport {
    /// `"always"` / `"never"` (the policy under test).
    pub policy: String,
    /// Category count.
    pub n: u64,
    /// Dirty categories per publish round.
    pub dirty: u64,
    /// Publish rounds measured.
    pub rounds: u64,
    /// Mean microseconds per `SelectionEngine::publish`.
    pub publish_us: f64,
    /// How many publishes took the patch path (engine stats).
    pub patched: u64,
}

/// Drive a fixed-Fenwick engine through `rounds` coalesced batches
/// (overrides plus a mild evaporation) and time `publish`.
pub fn bench_engine_publish(
    n: usize,
    dirty_fraction: f64,
    policy: PatchPolicy,
    rounds: usize,
) -> EnginePublishReport {
    prime_allocator();
    let dirty = ((n as f64 * dirty_fraction) as usize).max(1);
    let engine = SelectionEngine::new(
        bench_weights(n),
        EngineConfig {
            backend: "fenwick",
            patch: policy,
            ..EngineConfig::default()
        },
    )
    .expect("bench weights are valid");
    let overrides = bench_overrides(n, dirty);
    let mut total = 0.0;
    for round in 0..rounds {
        engine.scale_all(0.99).expect("valid factor");
        for &(index, weight) in &overrides {
            engine
                .enqueue(index, weight + (round % 3) as f64)
                .expect("valid override");
        }
        let started = Instant::now();
        engine.publish().expect("publish of a valid batch succeeds");
        total += started.elapsed().as_secs_f64();
    }
    EnginePublishReport {
        policy: match policy {
            PatchPolicy::Always => "always",
            PatchPolicy::Never => "never",
            PatchPolicy::Auto => "auto",
        }
        .to_string(),
        n: n as u64,
        dirty: dirty as u64,
        rounds: rounds as u64,
        publish_us: total * 1e6 / rounds.max(1) as f64,
        patched: engine.stats().patched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_engine::BackendRegistry;

    #[test]
    fn backend_reports_measure_both_paths() {
        let registry = BackendRegistry::standard();
        let fenwick = registry.get("fenwick").unwrap();
        let report = bench_backend_publish(fenwick, 2048, 0.01, false, 1 << 14, 0);
        assert_eq!(report.n, 2048);
        assert_eq!(report.dirty, 20);
        assert!(report.rebuild_us > 0.0);
        assert!(report.patch_us.unwrap() > 0.0);
        assert!(report.speedup.unwrap() > 0.0);
        let alias = registry.get("alias").unwrap();
        let report = bench_backend_publish(alias, 2048, 0.01, true, 1 << 14, 1);
        assert!(report.patch_us.is_none(), "alias has no patch path");
        assert!(report.rebuild_us > 0.0);
    }

    #[test]
    fn overrides_touch_distinct_categories() {
        let overrides = bench_overrides(512, 64);
        let mut indices: Vec<usize> = overrides.iter().map(|&(i, _)| i).collect();
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(indices.len(), 64);
    }

    #[test]
    fn engine_reports_respect_the_policy() {
        let always = bench_engine_publish(1024, 0.02, PatchPolicy::Always, 4);
        assert_eq!(always.patched, 4);
        assert!(always.publish_us > 0.0);
        let never = bench_engine_publish(1024, 0.02, PatchPolicy::Never, 4);
        assert_eq!(never.patched, 0);
    }
}
