//! Proof that the steady-state reader path performs **no heap
//! allocation**. A counting global allocator tallies every `alloc` call;
//! after a short warm-up (the thread-local snapshot cache absorbs all
//! setup cost), thousands of buffer-filling reads must leave the tally
//! untouched.
//!
//! Kept to a single `#[test]` so no sibling test can allocate on another
//! thread mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lrb_engine::{EngineConfig, SelectionEngine};
use lrb_rng::Philox4x32;

/// System allocator plus a relaxed allocation counter.
struct CountingAllocator {
    allocations: AtomicU64,
}

impl CountingAllocator {
    fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }
}

// SAFETY: defers entirely to `System`; the counter is a relaxed side tally.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator {
    allocations: AtomicU64::new(0),
};

#[test]
fn steady_state_reader_is_allocation_free() {
    let engine = SelectionEngine::new(vec![1.0; 1024], EngineConfig::default())
        .expect("uniform weights are valid");
    let mut rng = Philox4x32::for_substream(7, 1);
    let mut buffer = vec![0usize; 64];

    // Warm-up: populate this thread's snapshot cache and any lazy TLS.
    for _ in 0..8 {
        engine
            .read(|snapshot| snapshot.sample_into(&mut rng, &mut buffer))
            .expect("uniform weights sample fine");
    }

    // The allocation counter is global, so a harness thread can dirty a
    // window with unrelated bookkeeping; a reader path that allocates
    // dirties *every* window, so requiring one clean window out of three
    // keeps full sensitivity without flaking on background noise.
    let cleanest = (0..3)
        .map(|_| {
            let before = ALLOC.allocations();
            for _ in 0..2_000 {
                engine
                    .read(|snapshot| snapshot.sample_into(&mut rng, &mut buffer))
                    .expect("uniform weights sample fine");
            }
            ALLOC.allocations() - before
        })
        .min()
        .expect("three windows ran");
    assert_eq!(
        cleanest, 0,
        "steady-state reader allocated {cleanest} times in its cleanest window"
    );
}
