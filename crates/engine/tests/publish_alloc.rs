//! Proof that a publish allocates **only the new sampler's state**. A
//! snapshot's weights live in its sampler alone: a patch publish copies
//! the previous sampler (its weights plus any index structure) and a
//! rebuild folds the batch into the one vector its sampler keeps, while
//! pooled build scratch absorbs every transient. A byte-counting global
//! allocator tallies each publish; after warm-up, the cheapest of many
//! small publishes must stay within the new sampler's retained words
//! (× 8 bytes) plus a fixed slack for the snapshot, its boxes and the
//! sampler header. A second weight copy per publish (n more words) breaks
//! the bound on every backend, and so does a dense tree (n more words)
//! under a sparse Fenwick snapshot, which must patch only its compact
//! state.
//!
//! Kept to a single `#[test]` so no sibling test can allocate on another
//! thread mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lrb_engine::{EngineConfig, PatchPolicy, SelectionEngine};

/// System allocator plus a relaxed tally of requested bytes. `realloc`
/// and `alloc_zeroed` keep their default bodies, which route through
/// `alloc`, so every byte handed out is counted.
struct ByteCountingAllocator {
    bytes: AtomicU64,
}

impl ByteCountingAllocator {
    fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

// SAFETY: defers entirely to `System`; the counter is a relaxed side tally.
unsafe impl GlobalAlloc for ByteCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.bytes
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: ByteCountingAllocator = ByteCountingAllocator {
    bytes: AtomicU64::new(0),
};

/// Categories per engine.
const N: usize = 4096;
/// Publishes before measuring: the override list, alias worklists and
/// journal reach their high-water marks.
const WARM_PUBLISHES: usize = 16;
/// Measured publishes; the cheapest counts, so a harness thread's stray
/// allocation cannot fail the bound.
const MEASURED_PUBLISHES: usize = 300;
/// Snapshot, `Arc` and `Box` headers plus the sampler struct.
const SLACK_BYTES: u64 = 4096;

/// Positive weights of the sparse case: one category in 64, so its
/// Fenwick tree lies over the support (the compact layout).
const SPARSE_STRIDE: usize = 64;

/// Stage a two-entry batch and publish it; returns the bytes the publish
/// itself allocated. A sparse engine's batch reweights two categories of
/// its support, so a patch stays compact.
fn publish_two(engine: &SelectionEngine, round: usize, sparse: bool) -> u64 {
    let weight = (round % 5 + 1) as f64;
    let batch = if sparse {
        let index = (round * 37) % (N / SPARSE_STRIDE) * SPARSE_STRIDE;
        [(index, weight), ((index + SPARSE_STRIDE) % N, weight + 0.5)]
    } else {
        let index = (round * 37) % N;
        [(index, weight), ((index + 1) % N, weight + 0.5)]
    };
    engine.enqueue_many(&batch).expect("valid batch");
    let before = ALLOC.bytes();
    engine.publish().expect("publish of a valid batch succeeds");
    ALLOC.bytes() - before
}

#[test]
fn a_publish_allocates_only_the_new_samplers_state() {
    let n = N as u64;
    let k = n / SPARSE_STRIDE as u64;
    // (backend, policy, sparse weights, words the new sampler retains,
    // publishes patched). A compact Fenwick sampler retains n weights,
    // k + 1 tree nodes and k u32 support entries (k / 2 words).
    let cases = [
        ("fenwick", PatchPolicy::Always, false, 2 * n + 1, true),
        ("fenwick", PatchPolicy::Never, false, 2 * n + 1, false),
        (
            "fenwick",
            PatchPolicy::Always,
            true,
            n + (k + 1) + k / 2,
            true,
        ),
        ("stochastic-acceptance", PatchPolicy::Always, false, n, true),
        ("stochastic-acceptance", PatchPolicy::Never, false, n, false),
        ("alias", PatchPolicy::Auto, false, 3 * n, false),
    ];
    for (backend, patch, sparse, words, patches) in cases {
        let weights = (0..N).map(|i| {
            if !sparse {
                ((i % 7) + 1) as f64
            } else if i % SPARSE_STRIDE == 0 {
                ((i % 5) + 1) as f64
            } else {
                0.0
            }
        });
        let engine = SelectionEngine::new(
            weights.collect(),
            EngineConfig {
                backend,
                patch,
                ..EngineConfig::default()
            },
        )
        .expect("valid weights");
        for round in 0..WARM_PUBLISHES {
            publish_two(&engine, round, sparse);
        }
        let cheapest = (WARM_PUBLISHES..WARM_PUBLISHES + MEASURED_PUBLISHES)
            .map(|round| publish_two(&engine, round, sparse))
            .min()
            .expect("publishes ran");
        let publishes = (WARM_PUBLISHES + MEASURED_PUBLISHES) as u64;
        assert_eq!(engine.stats().publishes, publishes);
        assert_eq!(
            engine.stats().patched,
            if patches { publishes } else { 0 },
            "{backend} under {patch:?} (sparse {sparse}) took the wrong freeze path"
        );
        let bound = words * 8 + SLACK_BYTES;
        assert!(
            cheapest <= bound,
            "{backend} under {patch:?} (sparse {sparse}): the cheapest publish \
             allocated {cheapest} B, over the new sampler's {words} words + slack ({bound} B)"
        );
    }
}
