//! Closed-loop reader/writer throughput driver for the `lrb-engine`
//! serving layer — the workload behind the `engine_quick` report.
//!
//! N reader threads sample as fast as they can, each against its own cloned
//! snapshot (re-snapshotting every few draws); writer threads pace
//! themselves off the global sample counter to hold a configured
//! update:sample ratio, enqueue coalescing weight overrides and publish
//! snapshots in batches. Readers never lock anything after cloning the
//! `Arc`, so the writer publishes while they draw.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One cache line per counter: readers bump private cells, the writer sums
/// them — mirroring the engine's sharded served counter so the measurement
/// harness itself does not introduce the bounce it is measuring.
#[repr(align(64))]
struct PaddedCounter(AtomicU64);

use lrb_engine::{EngineConfig, SelectionEngine};
use lrb_obs::HistogramSnapshot;
use lrb_rng::{Philox4x32, RandomSource};
use serde::Serialize;

/// Workload shape for one driver run.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Number of weight categories `n`.
    pub categories: usize,
    /// Reader (sampling) threads.
    pub readers: usize,
    /// Writer (updating/publishing) threads.
    pub writers: usize,
    /// Target update:sample ratio, expressed as samples per update
    /// (`16` means a 1:16 update:sample mix).
    pub samples_per_update: u64,
    /// Coalesced updates folded into each published snapshot.
    pub updates_per_publish: u64,
    /// Draws a reader serves from one snapshot before re-snapshotting.
    pub snapshot_every: u64,
    /// Wall-clock measurement window.
    pub duration_ms: u64,
    /// Category skew: `0.0` for uniform initial weights, `s > 0` for
    /// Zipf-distributed weights `w_i ∝ 1/(i+1)^s`.
    pub zipf_exponent: f64,
    /// Registry name of the snapshot backend.
    pub backend: &'static str,
    /// Master seed for every thread's Philox stream.
    pub seed: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            categories: 4096,
            readers: 1,
            writers: 1,
            samples_per_update: 16,
            updates_per_publish: 32,
            snapshot_every: 64,
            duration_ms: 250,
            zipf_exponent: 0.0,
            backend: EngineConfig::default().backend,
            seed: 2024,
        }
    }
}

/// Percentile summary of one engine latency histogram (serialisable for
/// `BENCH_engine.json`).
#[derive(Debug, Clone, Serialize)]
pub struct LatencySummary {
    /// Spans recorded.
    pub count: u64,
    /// Mean nanoseconds.
    pub mean_ns: f64,
    /// Median nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile nanoseconds.
    pub p999_ns: u64,
    /// Largest recorded span, nanoseconds.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarise an observability histogram snapshot.
    pub fn from_snapshot(snapshot: &HistogramSnapshot) -> Self {
        Self {
            count: snapshot.count,
            mean_ns: snapshot.mean(),
            p50_ns: snapshot.p50(),
            p99_ns: snapshot.p99(),
            p999_ns: snapshot.p999(),
            max_ns: snapshot.max,
        }
    }
}

/// Measured outcome of one driver run (serialisable for
/// `BENCH_engine.json`).
#[derive(Debug, Clone, Serialize)]
pub struct DriverReport {
    /// Number of categories.
    pub categories: u64,
    /// Reader threads that ran.
    pub readers: u64,
    /// Writer threads that ran.
    pub writers: u64,
    /// Configured samples-per-update target.
    pub samples_per_update: u64,
    /// Zipf exponent of the initial weights (0 = uniform).
    pub zipf_exponent: f64,
    /// Backend of the final published snapshot.
    pub backend: String,
    /// Measured wall-clock seconds.
    pub duration_s: f64,
    /// Total draws served.
    pub samples: u64,
    /// Total weight overrides enqueued.
    pub updates: u64,
    /// Overrides coalesced away before publication.
    pub coalesced: u64,
    /// Snapshots published.
    pub publishes: u64,
    /// Draws per second across all readers.
    pub samples_per_sec: f64,
    /// Achieved samples-per-update ratio (≈ the configured target once the
    /// loop warms up).
    pub achieved_samples_per_update: f64,
    /// Full `publish()` span distribution (nanoseconds).
    pub publish_latency: LatencySummary,
}

/// Initial weights for a skew setting: uniform at `zipf_exponent == 0`,
/// otherwise the Zipf family `w_i = 1/(i+1)^s`.
pub fn initial_weights(categories: usize, zipf_exponent: f64) -> Vec<f64> {
    if zipf_exponent <= 0.0 {
        return vec![1.0; categories];
    }
    (0..categories)
        .map(|i| ((i + 1) as f64).powf(-zipf_exponent))
        .collect()
}

/// Run one closed-loop measurement. Spawns `readers + writers` scoped
/// threads for `duration_ms`, then reports aggregate throughput.
pub fn run_driver(config: &DriverConfig) -> DriverReport {
    assert!(config.categories > 0, "need at least one category");
    assert!(config.readers > 0, "need at least one reader");
    assert!(config.samples_per_update > 0, "ratio must be positive");
    let weights = initial_weights(config.categories, config.zipf_exponent);
    let engine = SelectionEngine::new(
        weights.clone(),
        EngineConfig {
            backend: config.backend,
            ..EngineConfig::default()
        },
    )
    .expect("driver weights are valid");

    let stop = AtomicBool::new(false);
    let sample_cells: Vec<PaddedCounter> = (0..config.readers)
        .map(|_| PaddedCounter(AtomicU64::new(0)))
        .collect();
    let updates_claimed = AtomicU64::new(0);
    let started = Instant::now();

    std::thread::scope(|scope| {
        for (reader, samples_total) in sample_cells.iter().enumerate() {
            let engine = &engine;
            let stop = &stop;
            scope.spawn(move || {
                let mut rng = Philox4x32::for_substream(config.seed, 1_000 + reader as u64);
                let mut sink = 0usize;
                // One buffer per snapshot hold: readers fill it lock-free
                // through `SelectionEngine::read` — on the steady state
                // that is one relaxed generation probe, a thread-local
                // cache hit and the backend's tight-loop primitive, with
                // no shared RMW and no allocation per buffer.
                let mut buffer = vec![0usize; config.snapshot_every.max(1) as usize];
                while !stop.load(Ordering::Relaxed) {
                    match engine.read(|snapshot| snapshot.sample_into(&mut rng, &mut buffer)) {
                        Ok(()) => {
                            for &index in &buffer {
                                sink ^= index;
                            }
                            samples_total
                                .0
                                .fetch_add(buffer.len() as u64, Ordering::Relaxed);
                        }
                        Err(_) => std::thread::yield_now(), // all-zero interregnum
                    }
                }
                std::hint::black_box(sink);
            });
        }
        for writer in 0..config.writers {
            let engine = &engine;
            let stop = &stop;
            let sample_cells = &sample_cells;
            let updates_claimed = &updates_claimed;
            let family = &weights;
            scope.spawn(move || {
                let mut rng = Philox4x32::for_substream(config.seed, 2_000_000 + writer as u64);
                let n = config.categories as u64;
                let mut since_publish = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Pace updates off the sample counters so the measured
                    // mix tracks the configured update:sample ratio.
                    let sampled: u64 = sample_cells
                        .iter()
                        .map(|cell| cell.0.load(Ordering::Relaxed))
                        .sum();
                    let target = sampled / config.samples_per_update;
                    if updates_claimed.load(Ordering::Relaxed) >= target {
                        if since_publish > 0 {
                            engine.publish().expect("driver weights stay valid");
                            since_publish = 0;
                        }
                        std::thread::yield_now();
                        continue;
                    }
                    updates_claimed.fetch_add(1, Ordering::Relaxed);
                    let index = rng.next_u64_below(n) as usize;
                    // New weights come from the same family (a uniformly
                    // chosen rank's weight), so the skew profile persists.
                    let new_weight = family[rng.next_u64_below(n) as usize];
                    engine.enqueue(index, new_weight).expect("index in range");
                    since_publish += 1;
                    if since_publish >= config.updates_per_publish.max(1) {
                        engine.publish().expect("driver weights stay valid");
                        since_publish = 0;
                    }
                }
                if since_publish > 0 {
                    engine.publish().expect("driver weights stay valid");
                }
            });
        }
        std::thread::sleep(Duration::from_millis(config.duration_ms));
        stop.store(true, Ordering::Relaxed);
    });

    let duration_s = started.elapsed().as_secs_f64();
    let samples: u64 = sample_cells
        .iter()
        .map(|cell| cell.0.load(Ordering::Relaxed))
        .sum();
    let stats = engine.stats();
    DriverReport {
        categories: config.categories as u64,
        readers: config.readers as u64,
        writers: config.writers as u64,
        samples_per_update: config.samples_per_update,
        zipf_exponent: config.zipf_exponent,
        backend: engine.snapshot().backend().to_string(),
        duration_s,
        samples,
        updates: stats.enqueued,
        coalesced: stats.coalesced,
        publishes: stats.publishes,
        samples_per_sec: samples as f64 / duration_s.max(1e-9),
        achieved_samples_per_update: samples as f64 / (stats.enqueued.max(1)) as f64,
        publish_latency: LatencySummary::from_snapshot(&engine.observability().publish_latency()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_zipf_weights_have_the_right_shape() {
        let uniform = initial_weights(100, 0.0);
        assert_eq!(uniform, vec![1.0; 100]);
        let zipf = initial_weights(100, 1.0);
        assert_eq!(zipf.len(), 100);
        assert!((zipf[0] - 1.0).abs() < 1e-12);
        assert!((zipf[9] - 0.1).abs() < 1e-12);
        assert!(zipf.windows(2).all(|w| w[0] >= w[1]), "zipf is decreasing");
    }

    #[test]
    fn a_short_run_samples_and_publishes() {
        let report = run_driver(&DriverConfig {
            categories: 256,
            readers: 2,
            duration_ms: 60,
            samples_per_update: 4,
            updates_per_publish: 8,
            ..DriverConfig::default()
        });
        assert!(report.samples > 0, "no draws served");
        assert!(report.updates > 0, "writer never ran");
        assert!(report.publishes > 0, "nothing published");
        assert!(report.samples_per_sec > 0.0);
        assert_eq!(report.readers, 2);
        // The pacing loop keeps the achieved mix within a factor of the
        // target (exact convergence needs a longer window).
        assert!(
            report.achieved_samples_per_update >= 1.0,
            "more updates than samples at a 1:4 target: {report:?}"
        );
    }

    #[test]
    fn instrumented_runs_record_latency_distributions() {
        let report = run_driver(&DriverConfig {
            categories: 256,
            duration_ms: 60,
            samples_per_update: 4,
            updates_per_publish: 8,
            ..DriverConfig::default()
        });
        // The publish histogram and the publish counter are bumped together
        // under the pending lock, so they agree exactly.
        assert_eq!(report.publish_latency.count, report.publishes);
        assert!(report.publishes > 0, "nothing published");
        assert!(report.publish_latency.p50_ns > 0, "publish spans take time");
        assert!(report.publish_latency.p999_ns >= report.publish_latency.p50_ns);
        assert!(report.publish_latency.max_ns >= report.publish_latency.p999_ns);
    }

    #[test]
    fn zipf_runs_use_the_skewed_family() {
        let report = run_driver(&DriverConfig {
            categories: 128,
            readers: 1,
            duration_ms: 40,
            zipf_exponent: 1.2,
            ..DriverConfig::default()
        });
        assert!(report.samples > 0);
        assert_eq!(report.zipf_exponent, 1.2);
    }
}
