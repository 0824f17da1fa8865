//! The shared mutate-and-sample workload used by the dynamic-selection
//! benches and the `dynamic_updates` example — one definition so the
//! criterion sweep and the example measure the same regime.

use std::time::Instant;

use lrb_core::DynamicSampler;
use lrb_rng::{MersenneTwister64, RandomSource, SeedableSource};

/// Deterministic workload weights: positive, moderately skewed.
pub fn workload(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 97) + 1) as f64).collect()
}

/// One mixed round against a dynamic engine: `updates` random weight
/// replacements followed by one draw.
pub fn mixed_round(
    engine: &mut dyn DynamicSampler,
    updates: usize,
    rng: &mut dyn RandomSource,
) -> usize {
    let n = engine.len();
    for _ in 0..updates {
        let index = (rng.next_u64() % n as u64) as usize;
        let weight = (rng.next_u64() % 100) as f64 + 1.0;
        engine.update(index, weight).expect("valid weight");
    }
    engine.sample(rng).expect("positive mass")
}

/// Time `rounds` rounds of (one update, one draw) and return seconds.
pub fn time_churn(engine: &mut dyn DynamicSampler, rounds: usize, seed: u64) -> f64 {
    let mut rng = MersenneTwister64::seed_from_u64(seed);
    let start = Instant::now();
    let mut sink = 0usize;
    for _ in 0..rounds {
        sink ^= mixed_round(engine, 1, &mut rng);
    }
    std::hint::black_box(sink);
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_dynamic::FenwickSampler;

    #[test]
    fn workload_is_positive_and_deterministic() {
        let w = workload(200);
        assert_eq!(w.len(), 200);
        assert!(w.iter().all(|&x| x >= 1.0));
        assert_eq!(w, workload(200));
    }

    #[test]
    fn mixed_round_and_time_churn_run() {
        let mut engine = FenwickSampler::from_weights(workload(64)).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(1);
        let i = mixed_round(&mut engine, 3, &mut rng);
        assert!(i < 64);
        assert!(time_churn(&mut engine, 50, 2) >= 0.0);
    }
}
