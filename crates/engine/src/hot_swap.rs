//! The swappable `Arc` cell under [`SelectionEngine`]'s current snapshot:
//! a `Mutex<Arc<T>>` plus a generation counter, in safe Rust.
//!
//! [`SelectionEngine`]: crate::SelectionEngine
//!
//! ## Why a lock is enough
//!
//! Readers do not come here on the steady-state path. The engine fronts
//! the cell with a thread-local, version-checked snapshot cache: a reader
//! probes [`HotSwap::generation`] (one relaxed load of a counter that only
//! moves at publishes) and, while it is unchanged, reuses its cached `Arc`
//! without touching the cell. [`HotSwap::load`] — and with it the mutex —
//! runs only on a cache refresh (the first read on a thread after a
//! publish) or on a reentrant read that bypasses the cache. A hand-rolled
//! lock-free `AtomicPtr` swap with deferred reclamation measured the same
//! as this cell within run-to-run noise (on a 2-vCPU host: `engine_quick`
//! at 1 and 8 readers, and all three end-to-end benchmark workloads), so
//! the engine stays in safe Rust.
//!
//! ## Protocol
//!
//! [`HotSwap::store`] swaps the `Arc` and bumps the generation inside the
//! lock, so a reader that observes generation `g` and then loads sees the
//! value published at `g` or a newer one — never an older one. The
//! outgoing `Arc` is dropped after the lock is released, and no caller
//! holds the lock while it runs anything but a pointer swap or a refcount
//! increment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A swappable `Arc<T>` cell with a monotone generation counter. See the
/// module docs for the protocol.
pub(crate) struct HotSwap<T> {
    /// The current value.
    current: Mutex<Arc<T>>,
    /// Generation of the current value; bumped by every
    /// [`store`](HotSwap::store) while `current` is locked. Readers poll it
    /// as a cheap "has anything changed" probe for snapshot caching (the
    /// counter mutates only on publish, so polling it does not bounce the
    /// line the way a lock word would).
    ///
    /// `Relaxed` suffices on both sides: the counter publishes no data,
    /// the value travels through the mutex (whose unlock/lock pair is the
    /// release/acquire edge), and a reader that loads generation `g` and
    /// then locks cannot be ordered before the critical section that wrote
    /// `g` — it would then happen-before that write and could not have read
    /// it — so it sees the value stored at `g` or a newer one.
    generation: AtomicU64,
}

impl<T> HotSwap<T> {
    /// A cell currently holding `value`, at generation 0.
    pub(crate) fn new(value: Arc<T>) -> Self {
        Self {
            current: Mutex::new(value),
            generation: AtomicU64::new(0),
        }
    }

    /// The current generation (0 until the first [`store`](HotSwap::store);
    /// strictly monotone). A relaxed read — callers use it to decide
    /// whether a cached `Arc` is still current.
    #[inline]
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Acquire the current value: one lock acquisition and a refcount
    /// increment.
    pub(crate) fn load(&self) -> Arc<T> {
        // The critical sections below cannot panic, so a poisoned lock
        // still guards a valid `Arc`.
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publish a new value. Returns the generation of the **new** value.
    /// Safe under concurrent stores: each one swaps and bumps under the
    /// lock, so generations and values advance together.
    pub(crate) fn store(&self, value: Arc<T>) -> u64 {
        let (old, generation) = {
            let mut current = self.current.lock().unwrap_or_else(PoisonError::into_inner);
            let old = std::mem::replace(&mut *current, value);
            (old, self.generation.fetch_add(1, Ordering::Relaxed) + 1)
        };
        // The outgoing value may be the last reference: drop it (and
        // whatever its destructor runs) outside the lock.
        drop(old);
        generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Counts live instances so the tests can prove nothing leaks and
    /// nothing double-frees.
    struct Tracked {
        id: u64,
        live: &'static AtomicUsize,
    }

    impl Tracked {
        fn new(id: u64, live: &'static AtomicUsize) -> Self {
            live.fetch_add(1, Ordering::SeqCst);
            Self { id, live }
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn load_returns_the_current_value_and_store_advances_generations() {
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        {
            let cell = HotSwap::new(Arc::new(Tracked::new(0, &LIVE)));
            assert_eq!(cell.generation(), 0);
            assert_eq!(cell.load().id, 0);
            let g1 = cell.store(Arc::new(Tracked::new(1, &LIVE)));
            assert_eq!(g1, 1);
            assert_eq!(cell.generation(), 1);
            assert_eq!(cell.load().id, 1);
            // No reader holds the old value: the store dropped it.
            assert_eq!(LIVE.load(Ordering::SeqCst), 1);
        }
        assert_eq!(LIVE.load(Ordering::SeqCst), 0, "drop leaked a value");
    }

    #[test]
    fn held_arcs_survive_any_number_of_stores() {
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        let cell = HotSwap::new(Arc::new(Tracked::new(0, &LIVE)));
        let held = cell.load();
        for id in 1..=100 {
            cell.store(Arc::new(Tracked::new(id, &LIVE)));
        }
        assert_eq!(held.id, 0, "held value mutated or freed");
        assert_eq!(cell.load().id, 100);
        // Only the held value and the current one are alive.
        assert_eq!(LIVE.load(Ordering::SeqCst), 2);
        drop(held);
        assert_eq!(LIVE.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_readers_and_writers_never_tear_or_leak() {
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        {
            let cell = HotSwap::new(Arc::new(Tracked::new(0, &LIVE)));
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let cell = &cell;
                    scope.spawn(move || {
                        let mut last_seen = 0u64;
                        for _ in 0..2_000 {
                            let value = cell.load();
                            // Values only move forward.
                            assert!(value.id >= last_seen, "went backwards");
                            last_seen = value.id;
                        }
                    });
                }
                let cell = &cell;
                scope.spawn(move || {
                    for id in 1..=500 {
                        cell.store(Arc::new(Tracked::new(id, &LIVE)));
                    }
                });
            });
            assert_eq!(cell.load().id, 500);
        }
        assert_eq!(LIVE.load(Ordering::SeqCst), 0, "leak or double-free");
    }

    #[test]
    fn generation_is_monotone_under_concurrent_stores() {
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        let cell = HotSwap::new(Arc::new(Tracked::new(0, &LIVE)));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cell = &cell;
                scope.spawn(move || {
                    let mut last = 0u64;
                    for i in 0..200 {
                        let generation = cell.store(Arc::new(Tracked::new(t * 1_000 + i, &LIVE)));
                        assert!(generation > last, "store returned a stale generation");
                        last = generation;
                    }
                });
            }
        });
        assert_eq!(cell.generation(), 800);
    }
}
