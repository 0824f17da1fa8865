//! The flight recorder: a fixed-capacity ring journal of structured
//! events.
//!
//! The ring is a `Mutex<VecDeque<T>>` plus a monotone push count. It is
//! built for rare events — publishes, refreshes, disconnects, drains —
//! that must still be there when someone asks what happened: a
//! [`snapshot`](FlightRecorder::snapshot) returns the most recent
//! `capacity` events in push order. Nothing on a per-draw path writes it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A fixed-capacity ring journal (see the module docs).
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
    capacity: usize,
    /// The retained events, oldest first.
    events: Mutex<VecDeque<T>>,
    /// Events ever pushed (bumped under the `events` lock).
    pushed: AtomicU64,
}

impl<T: Clone> FlightRecorder<T> {
    /// A recorder holding the most recent `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            events: Mutex::new(VecDeque::with_capacity(capacity)),
            pushed: AtomicU64::new(0),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever pushed (monotone, may exceed capacity).
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Journal one event, evicting the oldest once the ring is full. No
    /// allocation: the deque was sized to the capacity up front.
    pub fn push(&self, value: T) {
        let mut events = self.lock();
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(value);
        self.pushed.fetch_add(1, Ordering::Relaxed);
    }

    /// The most recent `capacity` (or fewer) events, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        self.lock().iter().cloned().collect()
    }

    /// Every update leaves the ring valid, so a lock poisoned by a
    /// panicking holder is safe to keep using.
    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> std::fmt::Debug for FlightRecorder<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("pushed", &self.pushed.load(Ordering::Relaxed))
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
