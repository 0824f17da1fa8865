//! The flight recorder: a fixed-capacity, lock-free ring journal of
//! structured events.
//!
//! Writers claim a slot with one `fetch_add` on the head counter and stamp
//! the slot with a seqlock-style sequence word; readers never block writers
//! and writers never block each other. A [`snapshot`](FlightRecorder::snapshot)
//! walks the slots post-hoc, discards any slot observed mid-write (odd
//! stamp, or stamp changed across the payload read), and returns the most
//! recent `capacity` events in publication order — enough to explain a
//! misbehaving run after the fact.
//!
//! ## Safety argument (audited `unsafe`)
//!
//! This module is the crate's single `#[allow(unsafe_code)]` island (the
//! same policy as `lrb-service`'s `reactor::sys` and `fanout::job`). The
//! unsafe surface is two operations on
//! `Slot::value: UnsafeCell<MaybeUninit<T>>`:
//!
//! * **Writer writes** happen only between winning the slot's stamp CAS
//!   (even → odd claim) and releasing it (odd → even). The CAS is the
//!   per-slot mutual exclusion: at most one writer holds a slot claimed, so
//!   the `&mut` created for the write is unique.
//! * **Reader reads** use `ptr::read_volatile` on the `MaybeUninit`
//!   payload, which may race a concurrent writer's plain store. Under a
//!   strict reading of the Rust/C++ memory model this racing copy is a
//!   data race, i.e. technically UB, even though the bytes are only
//!   *trusted* (via `assume_init`) after the stamp is re-checked
//!   unchanged around the read (`Acquire` load before, fence + load
//!   after), which proves no writer touched the slot during the copy.
//!   This is a **deliberate, accepted-in-practice deviation**: it is the
//!   exact seqlock optimistic-read pattern used by crossbeam-utils'
//!   `AtomicCell` (`read_volatile` between `optimistic_read` /
//!   `validate_read`), it is what every production seqlock does pending a
//!   `freeze`/tearable-atomics primitive in the language, and no known
//!   compiler miscompiles it (the volatile read cannot be elided,
//!   reordered across the fence, or invented from). A fully
//!   model-sanctioned alternative — per-word `AtomicU64` copies of the
//!   payload — would force `size_of::<T>()`/alignment round-tripping on
//!   every event type for no observable behavioral difference. `T: Copy`
//!   guarantees the byte-wise copy drops nothing and, once validated, is
//!   a valid value.
//!
//! The `Sync` impl requires `T: Copy + Send`, matching that argument.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// One ring slot: a seqlock stamp plus the (possibly uninitialised) payload.
///
/// Stamp protocol: `0` = never written; `2·seq + 1` = claimed by the writer
/// of sequence number `seq` (write in progress); `2·seq + 2` = sequence
/// `seq` fully published.
struct Slot<T> {
    stamp: AtomicU64,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A fixed-capacity, lock-free ring journal (see the module docs).
///
/// ```
/// let journal: lrb_obs::FlightRecorder<u64> = lrb_obs::FlightRecorder::new(8);
/// for event in 0..20u64 {
///     journal.push(event);
/// }
/// // Keeps the most recent `capacity` events, oldest first.
/// assert_eq!(journal.snapshot(), (12..20).collect::<Vec<_>>());
/// ```
pub struct FlightRecorder<T> {
    /// `capacity - 1`; capacity is always a power of two.
    mask: u64,
    /// Next sequence number to claim (monotone; also the total push count).
    head: AtomicU64,
    slots: Box<[Slot<T>]>,
}

// SAFETY: see the module-level safety argument. `T: Copy` makes torn-read
// recovery sound (no drop glue, byte-wise copies are values); `T: Send`
// because payloads move across threads through the ring.
unsafe impl<T: Copy + Send> Sync for FlightRecorder<T> {}
unsafe impl<T: Copy + Send> Send for FlightRecorder<T> {}

impl<T: Copy> FlightRecorder<T> {
    /// A recorder holding the most recent `capacity` events (rounded up to
    /// a power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        let slots: Vec<Slot<T>> = (0..capacity)
            .map(|_| Slot {
                stamp: AtomicU64::new(0),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            mask: capacity as u64 - 1,
            head: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed (monotone, may exceed capacity).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Journal one event. Lock-free: one `fetch_add` to claim a sequence
    /// number, then a bounded CAS hand-off on the slot (a writer only waits
    /// for the *previous lap's* writer of the same slot, never for
    /// readers). No allocation.
    pub fn push(&self, value: T) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        let claimed = 2 * seq + 1;
        // Claim the slot: its stamp must be even (no writer inside) AND
        // belong to a sequence older than ours — a writer stalled a full
        // lap must not reclaim a slot a *later* sequence already published
        // (the stamp would regress and an old event would overwrite a
        // newer one). If the slot has moved past us, this event was
        // superseded `capacity` pushes ago; drop it. Lap collisions with
        // an *older* writer still inside are resolved by spinning; with
        // capacity ≫ writer count that path is never taken in practice.
        loop {
            let current = slot.stamp.load(Ordering::Relaxed);
            if current > claimed {
                return; // a later sequence owns this slot; we're stale
            }
            if current.is_multiple_of(2)
                && slot
                    .stamp
                    .compare_exchange_weak(current, claimed, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break;
            }
            std::hint::spin_loop();
        }
        // SAFETY: the claim CAS above is the per-slot mutex — no other
        // writer can hold this slot until we publish, and readers never
        // write. Writing a `MaybeUninit<T>` needs no drop of the old value.
        unsafe {
            (*slot.value.get()).write(value);
        }
        // Publish: even stamp encoding this sequence number. `Release`
        // orders the payload write before the stamp for readers.
        slot.stamp.store(claimed + 1, Ordering::Release);
    }

    /// The most recent `capacity` (or fewer) events, oldest first.
    ///
    /// Wait-free for writers: slots observed mid-write are simply dropped
    /// from the snapshot (they will be superseded by a newer event anyway).
    pub fn snapshot(&self) -> Vec<T> {
        let mut entries: Vec<(u64, T)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let before = slot.stamp.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue; // never written, or write in progress
            }
            // SAFETY(accepted deviation): this volatile copy may race a
            // writer's plain store — formally a data race; see the module
            // docs for why this seqlock optimistic-read pattern (the same
            // one crossbeam-utils' AtomicCell uses) is deliberately kept.
            // The value is only trusted after the stamp re-check below
            // proves no writer touched the slot during the copy (`T: Copy`
            // so the validated byte copy is a valid value).
            let copied = unsafe { std::ptr::read_volatile(slot.value.get()) };
            fence(Ordering::Acquire);
            let after = slot.stamp.load(Ordering::Relaxed);
            if before != after {
                continue; // torn read: a writer replaced the slot under us
            }
            // SAFETY: stamp was even and unchanged across the copy, so the
            // copy is the fully published payload of sequence (before-2)/2.
            entries.push((before / 2 - 1, unsafe { copied.assume_init() }));
        }
        entries.sort_unstable_by_key(|&(seq, _)| seq);
        entries.into_iter().map(|(_, value)| value).collect()
    }
}

impl<T> std::fmt::Debug for FlightRecorder<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("pushed", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_most_recent_events_in_order() {
        let ring = FlightRecorder::new(8);
        assert_eq!(ring.snapshot(), Vec::<u64>::new());
        for event in 0..3u64 {
            ring.push(event);
        }
        assert_eq!(ring.snapshot(), vec![0, 1, 2]);
        for event in 3..100u64 {
            ring.push(event);
        }
        assert_eq!(ring.pushed(), 100);
        assert_eq!(ring.snapshot(), (92..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_lap_stalled_writer_drops_instead_of_regressing_a_slot() {
        let ring = FlightRecorder::new(2);
        for event in 0..4u64 {
            ring.push(event);
        }
        assert_eq!(ring.snapshot(), vec![2, 3]);
        // Rewind `head` to replay sequence 0: equivalent to a writer that
        // claimed seq 0 from `fetch_add`, then stalled a full lap while
        // seqs 1..4 published over its slot. Its late write must be
        // dropped, not regress the slot's stamp to an older sequence.
        ring.head.store(0, Ordering::Relaxed);
        ring.push(999);
        assert_eq!(ring.snapshot(), vec![2, 3], "stale write must be dropped");
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(FlightRecorder::<u8>::new(0).capacity(), 2);
        assert_eq!(FlightRecorder::<u8>::new(5).capacity(), 8);
        assert_eq!(FlightRecorder::<u8>::new(256).capacity(), 256);
    }

    #[test]
    fn concurrent_pushes_never_tear() {
        // Payload duplicates its identity in both halves; a torn read would
        // surface as mismatched halves.
        #[derive(Clone, Copy)]
        struct Stamped {
            a: u64,
            b: u64,
        }
        let ring = FlightRecorder::new(16);
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        let id = thread * 1_000_000 + i;
                        ring.push(Stamped { a: id, b: !id });
                    }
                });
            }
            let ring = &ring;
            scope.spawn(move || {
                for _ in 0..500 {
                    for event in ring.snapshot() {
                        assert_eq!(event.a, !event.b, "torn flight-recorder read");
                    }
                }
            });
        });
        assert_eq!(ring.pushed(), 8_000);
        let last = ring.snapshot();
        assert!(!last.is_empty() && last.len() <= 16);
        for event in last {
            assert_eq!(event.a, !event.b);
        }
    }
}
