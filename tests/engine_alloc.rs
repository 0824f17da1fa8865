//! Allocation accounting for the engine's reader hot path, and for the
//! writer's enqueue.
//!
//! The whole point of the lock-free read side is that a steady-state
//! reader — thread-local snapshot cache warm, buffer preallocated — touches
//! no allocator at all: `SelectionEngine::read` + `Snapshot::sample_into`
//! is a generation probe, a TLS hit and the backend's tight loop. This
//! test installs a counting global allocator (this test binary only; each
//! integration-test target gets its own process) and asserts **zero**
//! allocations and deallocations across millions of steady-state draws,
//! for every standard backend.
//!
//! Counting is **per thread** (a `const`-initialised `thread_local`, so the
//! counter itself never allocates): the harness runs tests on sibling
//! threads, and only the measuring thread's allocator traffic belongs to
//! the path under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, with every allocator entry counted on the calling thread.
struct CountingAllocator;

thread_local! {
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY (of the impl, not `unsafe` blocks): pure delegation to `System`
// plus a thread-local counter bump — no allocator state of our own, and a
// const-initialised TLS cell cannot recurse into the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        EVENTS.with(|events| events.set(events.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        EVENTS.with(|events| events.set(events.get() + 1));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        EVENTS.with(|events| events.set(events.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Allocator events (allocs + deallocs + reallocs) performed by **this
/// thread** while running `f`.
fn allocator_events<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = EVENTS.with(Cell::get);
    let result = f();
    let after = EVENTS.with(Cell::get);
    (after - before, result)
}

use lrb_engine::{BackendRegistry, EngineConfig, SelectionEngine};
use lrb_rng::Philox4x32;

#[test]
fn steady_state_reader_samples_allocate_nothing() {
    for name in BackendRegistry::standard().names() {
        let config = EngineConfig {
            backend: name,
            ..EngineConfig::default()
        };
        let weights: Vec<f64> = (0..4_096).map(|i| ((i % 13) + 1) as f64).collect();
        let engine = SelectionEngine::new(weights, config).unwrap();
        let mut rng = Philox4x32::for_substream(7, 1);
        let mut buffer = vec![0usize; 256];
        // Warm-up: fault in the thread-local snapshot cache, the reader
        // shard id and any lazy TLS the first acquisition performs.
        engine
            .read(|snapshot| snapshot.sample_into(&mut rng, &mut buffer))
            .unwrap();
        let (events, total) = allocator_events(|| {
            let mut total = 0usize;
            for _ in 0..4_000 {
                engine
                    .read(|snapshot| snapshot.sample_into(&mut rng, &mut buffer))
                    .unwrap();
                total += buffer.len();
            }
            total
        });
        assert_eq!(total, 4_000 * 256);
        assert_eq!(
            events, 0,
            "{name}: steady-state reader hot path touched the allocator"
        );
    }
}

#[test]
fn steady_state_single_draws_allocate_nothing() {
    // Even the unbatched convenience path is allocation-free once warm.
    let engine = SelectionEngine::new(vec![1.0, 2.0, 3.0], EngineConfig::default()).unwrap();
    let mut rng = Philox4x32::for_substream(9, 2);
    let _ = engine.sample(&mut rng).unwrap();
    let (events, _) = allocator_events(|| {
        for _ in 0..100_000 {
            engine.sample(&mut rng).unwrap();
        }
    });
    assert_eq!(events, 0, "single-draw path touched the allocator");
}

#[test]
fn publishes_refresh_readers_without_per_sample_allocation() {
    // Across a publish the reader pays one bounded refresh (the new
    // snapshot acquisition), then returns to zero-allocation sampling.
    let engine = SelectionEngine::new(vec![1.0; 512], EngineConfig::default()).unwrap();
    let mut rng = Philox4x32::for_substream(11, 3);
    let mut buffer = vec![0usize; 64];
    engine
        .read(|snapshot| snapshot.sample_into(&mut rng, &mut buffer))
        .unwrap();
    engine.enqueue(0, 5.0).unwrap();
    engine.publish().unwrap();
    // First post-publish read refreshes the cache (allowed to allocate
    // nothing itself — the Arc already exists — but don't assert on it);
    // everything after must be silent again.
    engine
        .read(|snapshot| snapshot.sample_into(&mut rng, &mut buffer))
        .unwrap();
    let (events, _) = allocator_events(|| {
        for _ in 0..2_000 {
            engine
                .read(|snapshot| snapshot.sample_into(&mut rng, &mut buffer))
                .unwrap();
        }
    });
    assert_eq!(
        events, 0,
        "post-publish steady state is not allocation-free"
    );
    // Reader-thread enumeration really assigned this thread a shard.
    assert!(engine.snapshot().served() > 0);
}

#[test]
fn warm_enqueue_many_allocates_nothing() {
    // One shard's share of a sparse `UPDATE_MANY`: 164 writes over the 64
    // positive categories of a 16 384-category shard, enqueued again and
    // again with no publish between, so every write after the first
    // batch overwrites a pending one. Once the coalescing batch holds
    // every category the writes touch, an enqueue must not touch the
    // allocator, however often a category is overwritten.
    let support: Vec<usize> = (0..64).map(|k| k * 256 + 17).collect();
    let mut weights = vec![0.0; 16_384];
    for &i in &support {
        weights[i] = 1.0;
    }
    let engine = SelectionEngine::new(weights, EngineConfig::default()).unwrap();
    let batch: Vec<(usize, f64)> = (0..164)
        .map(|j| (support[(j * 37) % 64], 0.5 + j as f64 / 164.0))
        .collect();
    for _ in 0..4 {
        engine.enqueue_many(&batch).unwrap();
    }
    let (events, _) = allocator_events(|| {
        for _ in 0..1_000 {
            engine.enqueue_many(&batch).unwrap();
        }
    });
    assert_eq!(events, 0, "a warm enqueue_many touched the allocator");
    // Every write after each category's first replaced a pending one.
    let stats = engine.stats();
    assert_eq!(stats.enqueued, 1_004 * 164);
    assert_eq!(stats.coalesced, 1_004 * 164 - 64);
}
