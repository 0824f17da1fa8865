//! Concurrency stress for the snapshot-isolated engine: reader threads
//! sample flat out while a writer publishes a stream of snapshots whose
//! supports rotate, so any torn read — a draw served from a mix of two
//! published states — would land outside its snapshot's support and fail
//! loudly. Also pins the deterministic-batch contract across the rayon
//! shim's thread-count overrides (`ThreadPool::install` and the
//! `LRB_THREADS` environment default used by the CI matrix).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use lrb_engine::{EngineConfig, SelectionEngine};
use lrb_rng::{Philox4x32, SeedableSource, SplitMix64};

const CATEGORIES: usize = 64;
const SUPPORT_CLASSES: u64 = 8;
const PUBLISHES: u64 = 300;

/// Weights whose support is exactly the residue class `version % 8`:
/// index `i` is positive iff `i % 8 == version % 8`. Weights within the
/// class vary by version so consecutive snapshots never coincide.
fn class_weights(version: u64) -> Vec<f64> {
    let class = (version % SUPPORT_CLASSES) as usize;
    (0..CATEGORIES)
        .map(|i| {
            if i % SUPPORT_CLASSES as usize == class {
                1.0 + ((version + i as u64) % 5) as f64
            } else {
                0.0
            }
        })
        .collect()
}

/// Reader threads to spawn: the CI matrix drives this through the same
/// `LRB_THREADS` variable the rayon shim honours.
fn reader_threads() -> usize {
    std::env::var("LRB_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

#[test]
fn concurrent_draws_always_match_a_published_snapshot() {
    let engine = SelectionEngine::new(class_weights(0), EngineConfig::default()).unwrap();
    let stop = AtomicBool::new(false);
    let violations = AtomicU64::new(0);
    let draws_total = AtomicU64::new(0);
    let readers = reader_threads();
    // The writer publishes only once every reader holds a snapshot, so
    // its publishes cannot all finish before a reader is scheduled.
    let started = Barrier::new(readers + 1);

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for reader in 0..readers {
            let engine = &engine;
            let stop = &stop;
            let violations = &violations;
            let draws_total = &draws_total;
            let started = &started;
            handles.push(scope.spawn(move || {
                let mut rng = SplitMix64::seed_from_u64(reader as u64 + 1);
                let mut draws = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Hold one snapshot for several draws: every single one
                    // must respect THAT snapshot's support, no matter how
                    // many versions the writer publishes meanwhile.
                    let snapshot = engine.snapshot();
                    if draws == 0 {
                        // First pass only: `draws` grows by 16 per pass.
                        started.wait();
                    }
                    let class = snapshot.version() % SUPPORT_CLASSES;
                    for _ in 0..16 {
                        let index = snapshot.sample(&mut rng).expect("support is never empty");
                        draws += 1;
                        if index as u64 % SUPPORT_CLASSES != class || snapshot.weight(index) <= 0.0
                        {
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                draws_total.fetch_add(draws, Ordering::Relaxed);
            }));
        }

        // Writer: publish PUBLISHES rotated-support snapshots, each through
        // the coalescing batch (a full rewrite of all 64 categories).
        started.wait();
        for version in 1..=PUBLISHES {
            let weights = class_weights(version);
            let updates: Vec<(usize, f64)> = weights.iter().cloned().enumerate().collect();
            engine.enqueue_many(&updates).unwrap();
            let published = engine.publish().unwrap();
            assert_eq!(published, version, "versions must be strictly ordered");
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(
        violations.load(Ordering::Relaxed),
        0,
        "torn reads: draws landed outside their snapshot's support"
    );
    assert!(draws_total.load(Ordering::Relaxed) > 0, "readers never ran");
    assert_eq!(engine.version(), PUBLISHES);
    assert_eq!(engine.stats().publishes, PUBLISHES);
}

#[test]
fn readers_holding_old_snapshots_keep_their_distribution() {
    // Pin a snapshot, publish far past it, then verify the pinned snapshot
    // still draws exactly its own (now thoroughly replaced) distribution.
    let engine = SelectionEngine::new(class_weights(0), EngineConfig::default()).unwrap();
    let pinned = engine.snapshot();
    for version in 1..=40 {
        let updates: Vec<(usize, f64)> =
            class_weights(version).iter().cloned().enumerate().collect();
        engine.enqueue_many(&updates).unwrap();
        engine.publish().unwrap();
    }
    assert_eq!(pinned.version(), 0);
    let counts = pinned.batch_counts(20_000, 9).unwrap();
    for (i, &count) in counts.iter().enumerate() {
        if pinned.weight(i) <= 0.0 {
            assert_eq!(count, 0, "index {i} is outside the pinned support");
        }
    }
    assert_eq!(counts.iter().sum::<u64>(), 20_000);
}

#[test]
fn batch_draws_are_identical_across_thread_count_overrides() {
    let engine = SelectionEngine::new(
        (0..1024).map(|i| ((i % 31) + 1) as f64).collect(),
        EngineConfig {
            backend: "fenwick",
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let snapshot = engine.snapshot();
    let trials = 50_000;
    // The reference runs at the default budget: the shim reads
    // `LRB_THREADS` once per process, so that is the CI matrix's value.
    let reference = snapshot.batch_indices(trials, 42).unwrap();

    // Explicit pool overrides.
    for threads in [1usize, 2, 3, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let result = pool.install(|| snapshot.batch_indices(trials, 42).unwrap());
        assert_eq!(result, reference, "{threads} threads diverged");
    }
}

#[test]
fn deterministic_batches_are_reproducible_mid_stress() {
    // Batches taken from a snapshot are a pure function of (snapshot, seed)
    // even while a writer churns: take one snapshot, publish a pile of new
    // versions concurrently, and re-run the same batch afterwards.
    let engine = SelectionEngine::new(class_weights(3), EngineConfig::default()).unwrap();
    let snapshot = engine.snapshot();
    let before = snapshot.batch_indices(10_000, 7).unwrap();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for version in 1..=50 {
                let updates: Vec<(usize, f64)> =
                    class_weights(version).iter().cloned().enumerate().collect();
                engine.enqueue_many(&updates).unwrap();
                engine.publish().unwrap();
            }
        });
        // Concurrent re-draws from the pinned snapshot.
        let during = snapshot.batch_indices(10_000, 7).unwrap();
        assert_eq!(during, before);
    });
    let after = snapshot.batch_indices(10_000, 7).unwrap();
    assert_eq!(after, before);

    // Determinism also covers the Philox substream contract directly.
    let mut a = Philox4x32::for_substream(9, 4);
    let mut b = Philox4x32::for_substream(9, 4);
    assert_eq!(
        snapshot.sample(&mut a).unwrap(),
        snapshot.sample(&mut b).unwrap()
    );
}
