//! Single-selection throughput driver for the one-shot selectors — the
//! workload behind the `selector_quick` gate and the `BENCH_selectors.json`
//! baseline.
//!
//! The interesting comparison is constant factors at fixed `n`: the
//! block-Philox bid kernel (`ParallelLogBiddingSelector`, stream layout v2)
//! against the legacy per-index substream path
//! ([`PerIndexLogBiddingSelector`], layout v1). Both are exact, both do `Θ(n)`
//! work per selection; the kernel's win is purely the purged constants (one
//! key schedule per chunk, two uniforms per counter bump, lazy `ln`).

use std::time::Instant;

use lrb_core::{Fitness, SelectionError, Selector};
use lrb_rng::exponential::log_bid;
use lrb_rng::{Philox4x32, RandomSource};
use serde::Serialize;

/// The per-index formulation of the logarithmic bid (bid-stream layout
/// **v1**): one master draw from the caller, then index `i` bids
/// `ln(u_i) / f_i` with `u_i` the first uniform of
/// `Philox4x32::for_substream(master, i)` — one key setup, one whole block
/// and one eager `ln` per index, on one thread.
///
/// Exact like the block kernel, but draw-for-draw different from it (the
/// two layouts read different uniforms). It is the baseline the
/// `selector_quick` gate measures the kernel against, and the second
/// layout `tests/bid_kernel.rs` checks for the same law.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerIndexLogBiddingSelector;

impl Selector for PerIndexLogBiddingSelector {
    fn name(&self) -> &'static str {
        "log-bidding-per-index"
    }

    fn is_exact(&self) -> bool {
        true
    }

    fn select(
        &self,
        fitness: &Fitness,
        rng: &mut dyn RandomSource,
    ) -> Result<usize, SelectionError> {
        if fitness.is_all_zero() {
            return Err(SelectionError::AllZeroFitness);
        }
        let master = rng.next_u64();
        let mut best = (f64::NEG_INFINITY, usize::MAX);
        for (i, &f) in fitness.values().iter().enumerate() {
            if f == 0.0 {
                continue;
            }
            let bid = log_bid(&mut Philox4x32::for_substream(master, i as u64), f);
            // Ties go to the larger index, as in every lrb-core arg-max.
            if bid > best.0 || (bid == best.0 && i > best.1) {
                best = (bid, i);
            }
        }
        Ok(best.1)
    }
}

/// One measured selector at one problem size (serialisable for
/// `BENCH_selectors.json`).
#[derive(Debug, Clone, Serialize)]
pub struct SelectorReport {
    /// Selector name (its [`Selector::name`]).
    pub selector: String,
    /// Fitness vector length.
    pub n: u64,
    /// Selections timed.
    pub draws: u64,
    /// Wall-clock seconds for all draws.
    pub duration_s: f64,
    /// Selections per second.
    pub selects_per_sec: f64,
    /// Nanoseconds per selected index.
    pub ns_per_select: f64,
}

/// The mildly varied fitness family used by every selector measurement:
/// weights `(i · 7) mod 13 + 1`, so no backend-friendly structure, no zero
/// weights, and the same vector for every selector at a given `n`.
pub fn bench_fitness(n: usize) -> Fitness {
    Fitness::new((0..n).map(|i| ((i * 7) % 13 + 1) as f64).collect()).expect("weights are valid")
}

/// Time `draws` one-shot selections as a [`Selector::select`] loop — one
/// master draw and one full kernel pass per selection. This is the per-draw
/// baseline the fused batch path is gated against (it is exactly what
/// `select_into` compiled to before the fused kernel existed).
pub fn bench_selector_per_draw(
    selector: &dyn Selector,
    fitness: &Fitness,
    draws: u64,
    seed: u64,
) -> SelectorReport {
    let mut rng = Philox4x32::for_substream(seed, 0);
    let mut out = vec![0usize; draws as usize];
    let _ = selector
        .select(fitness, &mut rng)
        .expect("bench fitness has positive mass");
    let started = Instant::now();
    for slot in out.iter_mut() {
        *slot = selector
            .select(fitness, &mut rng)
            .expect("bench fitness has positive mass");
    }
    let duration_s = started.elapsed().as_secs_f64();
    std::hint::black_box(&out);
    SelectorReport {
        selector: selector.name().to_string(),
        n: fitness.len() as u64,
        draws,
        duration_s,
        selects_per_sec: draws as f64 / duration_s.max(1e-9),
        ns_per_select: duration_s * 1e9 / draws.max(1) as f64,
    }
}

/// Time `draws` one-shot selections through `selector.select_into` (one
/// buffer fill — the tight-loop entry point callers should use), driven by
/// a deterministic Philox stream.
pub fn bench_selector(
    selector: &dyn Selector,
    fitness: &Fitness,
    draws: u64,
    seed: u64,
) -> SelectorReport {
    let mut rng = Philox4x32::for_substream(seed, 0);
    let mut out = vec![0usize; draws as usize];
    // Warm-up: touch the fitness vector and fault in the buffer.
    let warm = out.len().min(1);
    selector
        .select_into(fitness, &mut rng, &mut out[..warm])
        .expect("bench fitness has positive mass");
    let started = Instant::now();
    selector
        .select_into(fitness, &mut rng, &mut out)
        .expect("bench fitness has positive mass");
    let duration_s = started.elapsed().as_secs_f64();
    std::hint::black_box(&out);
    SelectorReport {
        selector: selector.name().to_string(),
        n: fitness.len() as u64,
        draws,
        duration_s,
        selects_per_sec: draws as f64 / duration_s.max(1e-9),
        ns_per_select: duration_s * 1e9 / draws.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_core::parallel::ParallelLogBiddingSelector;

    #[test]
    fn reports_measure_positive_throughput() {
        let fitness = bench_fitness(512);
        for selector in [
            &ParallelLogBiddingSelector as &dyn Selector,
            &PerIndexLogBiddingSelector,
        ] {
            let report = bench_selector(selector, &fitness, 50, 7);
            assert_eq!(report.n, 512);
            assert_eq!(report.draws, 50);
            assert!(report.selects_per_sec > 0.0, "{report:?}");
            assert!(report.ns_per_select > 0.0);
        }
    }

    #[test]
    fn bench_fitness_has_full_support() {
        let fitness = bench_fitness(100);
        assert_eq!(fitness.len(), 100);
        assert!(fitness.values().iter().all(|&w| w >= 1.0));
    }
}
