//! Allocation accounting for the service's hot paths.
//!
//! The point of the pooled [`DrawPlan`] is that a steady-state batch —
//! plan buffers warm, the rayon shim's pool started, level-one cut
//! refilled in place — touches no allocator at all on the submitting
//! thread:
//! assignment, per-shard fused fills and the cursor scatter all run in
//! reused storage. This test installs a counting global allocator (this
//! test binary only; each integration-test target is its own process) and
//! asserts **zero** submitter-side allocator events across thousands of
//! warm batches, for the inline path and the forked fill. A warm sparse
//! `update_many` must be as quiet: it groups its batch by shard in reused
//! per-thread storage.
//!
//! Those batch and write tests count **per thread** (a `const`-initialised
//! `thread_local`, so the counter itself never allocates): fan-out helper
//! threads own their events, and the contract under test is the
//! caller-visible steady state. The served-`DRAW` test counts **process
//! wide** instead, because a request crosses the client, the socket and
//! the server's reactor thread; every test here holds one shared lock, so
//! no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// `System`, with every allocator entry counted on the calling thread and
/// process-wide.
struct CountingAllocator;

thread_local! {
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Allocator events on every thread of the process.
static PROCESS_EVENTS: AtomicU64 = AtomicU64::new(0);

fn count_event() {
    EVENTS.with(|events| events.set(events.get() + 1));
    PROCESS_EVENTS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY (of the impl, not `unsafe` blocks): pure delegation to `System`
// plus a thread-local and an atomic counter bump — no allocator state of
// our own, and neither counter can recurse into the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_event();
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event();
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

/// Held for the whole of every test in this file, so the process-wide
/// count sees no other test's allocations. (A panicking holder poisons it;
/// the data is `()`, so the next test just proceeds.)
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

use lrb_rng::{Philox4x32, RandomSource, SeedableSource};
use lrb_service::{DrawPlan, ServiceClient, ServiceConfig, ServiceServer, ShardedService};

fn build() -> ShardedService {
    ShardedService::new(
        (0..1_024).map(|i| ((i % 13) + 1) as f64).collect(),
        ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        },
    )
    .expect("alloc test service construction cannot fail")
}

/// Warm the plan, then assert zero submitter-side allocator events over
/// `rounds` batches of `batch` draws under a thread budget of `lanes`
/// (1 = every fill inline).
fn assert_zero_alloc_steady_state(
    service: &ShardedService,
    lanes: usize,
    batch: usize,
    rounds: usize,
    label: &str,
) {
    let budget = rayon::ThreadPoolBuilder::new().num_threads(lanes).build();
    budget
        .expect("the shim's pool builder cannot fail")
        .install(|| {
            let mut plan = DrawPlan::new();
            let mut rng = Philox4x32::seed_from_u64(0xA110C);
            let mut out = vec![0usize; batch];
            // Warm-up: grow the plan's buffers to the batch shape, fault in each
            // shard's snapshot cache, start the pool's helpers (for the forked
            // path) and any lazy TLS the first acquisitions perform.
            for _ in 0..4 {
                service
                    .draw_into_with_plan(&mut rng as &mut dyn RandomSource, &mut out, &mut plan)
                    .expect("warm-up batch failed");
            }
            let (events, drawn) = allocator_events(|| {
                let mut drawn = 0usize;
                for _ in 0..rounds {
                    service
                        .draw_into_with_plan(&mut rng as &mut dyn RandomSource, &mut out, &mut plan)
                        .expect("steady-state batch failed");
                    drawn += out.len();
                }
                drawn
            });
            assert_eq!(drawn, rounds * batch);
            assert_eq!(
                events, 0,
                "{label}: steady-state batch path touched the allocator"
            );
            // The draws are real: every index is in range.
            assert!(out.iter().all(|&index| index < service.len()));
        })
}

#[test]
fn inline_v2_batches_allocate_nothing_once_warm() {
    let _serial = serial();
    // One lane = the planner runs entirely inline on the calling thread,
    // so this covers the whole path: assignment, substream fills, scatter.
    assert_zero_alloc_steady_state(&build(), 1, 512, 2_000, "inline v2");
}

#[test]
fn pooled_v2_batches_allocate_nothing_on_the_submitter() {
    let _serial = serial();
    // Batches above the inline threshold fork their fills through the
    // shim's `join`; the offer, the wait and the scatter must stay silent
    // on the calling thread (helpers own their warm-up, counted on their
    // own thread-local counters).
    assert_zero_alloc_steady_state(&build(), 4, 4_096, 500, "pooled v2");
}

#[test]
fn thread_local_plan_path_is_quiet_after_first_use() {
    let _serial = serial();
    // The public `draw_into` borrows a per-thread plan; after the first
    // call warms it, the convenience path is as silent as the explicit
    // one.
    let service = build();
    let mut rng = Philox4x32::seed_from_u64(0x71A);
    let mut out = vec![0usize; 256];
    for _ in 0..4 {
        service
            .draw_into(&mut rng as &mut dyn RandomSource, &mut out)
            .expect("warm-up batch failed");
    }
    let (events, _) = allocator_events(|| {
        for _ in 0..2_000 {
            service
                .draw_into(&mut rng as &mut dyn RandomSource, &mut out)
                .expect("steady-state batch failed");
        }
    });
    assert_eq!(events, 0, "thread-local plan path touched the allocator");
}

#[test]
fn a_warm_sparse_update_many_allocates_nothing() {
    let _serial = serial();
    // A `batch_sparse`-shaped write: 656 overrides across 4 shards of
    // 16 384 categories, 164 per shard over its 64 positive categories,
    // shards interleaved. Grouping by shard reuses per-thread storage and
    // every shard's coalescing batch already holds the categories, so a
    // warm call touches no allocator on the calling thread.
    const SHARD_LEN: usize = 16_384;
    let support: Vec<usize> = (0..64).map(|k| k * 256 + 17).collect();
    let mut weights = vec![0.0; 4 * SHARD_LEN];
    for shard in 0..4 {
        for &i in &support {
            weights[shard * SHARD_LEN + i] = 1.0;
        }
    }
    let service = ShardedService::new(
        weights,
        ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        },
    )
    .expect("sparse service construction cannot fail");
    let batch: Vec<(usize, f64)> = (0..656)
        .map(|j| {
            let index = (j % 4) * SHARD_LEN + support[(j / 4 * 37) % 64];
            (index, 0.5 + j as f64 / 656.0)
        })
        .collect();
    for _ in 0..4 {
        service.update_many(&batch).unwrap();
    }
    let (events, _) = allocator_events(|| {
        for _ in 0..1_000 {
            service.update_many(&batch).unwrap();
        }
    });
    assert_eq!(events, 0, "a warm update_many touched the allocator");
    // Each shard kept the batch's arrival order: the last write wins.
    service.publish_all().unwrap();
    let mut expected = vec![None; 4 * SHARD_LEN];
    for &(index, weight) in &batch {
        expected[index] = Some(weight);
    }
    for shard in 0..4 {
        let snapshot = service.shard_engine(shard).snapshot();
        for (local, &weight) in snapshot.weights().iter().enumerate() {
            let global = shard * SHARD_LEN + local;
            assert_eq!(weight, expected[global].unwrap_or(0.0), "category {global}");
        }
    }
}

#[test]
fn a_served_pipelined_draw_burst_allocates_nothing_on_either_end() {
    // Declared first so it drops last: the server and the service's
    // threads are joined before the next test may run.
    let _serial = serial();
    const BURST: usize = 32;
    let service = build();
    let path =
        std::env::temp_dir().join(format!("lrb-alloc-{}-served-draw.sock", std::process::id()));
    let server = ServiceServer::bind_uds(service.core(), &path, 0xA110C).unwrap();
    let mut client = ServiceClient::connect_uds(&path).unwrap();
    let len = service.len();
    // One window-32 burst, the shape of a pipelining client: 32 DRAW
    // frames in one write, one run of 32 slots on the reactor, 32
    // responses back in one write.
    let mut burst = || {
        for _ in 0..BURST {
            client.queue_draw();
        }
        client.flush().unwrap();
        (0..BURST)
            .filter(|_| client.recv_draw().unwrap() < len)
            .count()
    };
    // Warm-up: both ends' buffers, the reactor's slot scratch and draw
    // plan, each shard's snapshot cache on the reactor thread.
    for _ in 0..64 {
        assert_eq!(burst(), BURST);
    }
    let before = PROCESS_EVENTS.load(Ordering::SeqCst);
    let mut served = 0;
    for _ in 0..256 {
        served += burst();
    }
    let events = PROCESS_EVENTS.load(Ordering::SeqCst) - before;
    assert_eq!(served, 256 * BURST, "a draw came back out of range");
    assert_eq!(
        events, 0,
        "256 warm pipelined DRAW bursts touched the allocator (client and reactor together)"
    );
    drop(client);
    drop(server);
}
