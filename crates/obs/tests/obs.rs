//! Property and stress tests for the `lrb-obs` primitives: quantile error
//! bounds, concurrent recording, and flight-recorder wraparound/ordering.

use std::sync::atomic::{AtomicU64, Ordering};

use lrb_obs::histogram::{bounds_of, bucket_of};
use lrb_obs::{FlightRecorder, Histogram};
use proptest::{prop_assert, prop_assert_eq, proptest, TestRng};

/// A value family that exercises every histogram regime: the exact
/// identity region, mid-range octaves, and the giant values that stress
/// sub-bucket indexing.
fn arbitrary_values(rng: &mut TestRng, len: usize) -> Vec<u64> {
    (0..len)
        .map(|_| {
            let magnitude = rng.below(64) as u32;
            let base = 1u64.checked_shl(magnitude).unwrap_or(u64::MAX);
            rng.below(base.saturating_add(1).max(1))
                .saturating_add(base / 2)
        })
        .collect()
}

/// The exact empirical quantile the histogram estimate is judged against:
/// the smallest recorded value whose rank reaches `ceil(q * count)`.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #[test]
    fn prop_quantile_estimates_stay_within_the_bucket_error_bound(
        seed: u64,
        len in 1usize..300,
    ) {
        let mut rng = TestRng::new(seed);
        let values = arbitrary_values(&mut rng, len);
        let histogram = Histogram::new();
        for &value in &values {
            histogram.record(value);
        }
        let snapshot = histogram.snapshot();
        let mut sorted = values.clone();
        sorted.sort_unstable();

        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
            let truth = exact_quantile(&sorted, q);
            let estimate = snapshot.quantile(q);
            // The rank walk lands in the bucket holding the true quantile,
            // so the estimate never leaves that bucket's bounds...
            let (lower, upper) = bounds_of(bucket_of(truth));
            prop_assert!(
                estimate >= lower && estimate <= upper,
                "q {} estimate {} outside bucket [{}, {}] of true {}",
                q, estimate, lower, upper, truth
            );
            // ...which caps the relative error at one sub-bucket width:
            // exact below the identity threshold, 1/16 of the value above.
            if truth < 32 {
                prop_assert_eq!(estimate, truth);
            } else {
                let tolerance = truth / 16 + 1;
                prop_assert!(
                    estimate.abs_diff(truth) <= tolerance,
                    "q {} estimate {} further than {} from true {}",
                    q, estimate, tolerance, truth
                );
            }
        }
    }

    #[test]
    fn prop_flight_recorder_keeps_the_newest_events_in_order(
        capacity in 1usize..40,
        pushes in 0u64..300,
    ) {
        let recorder: FlightRecorder<u64> = FlightRecorder::new(capacity);
        prop_assert_eq!(recorder.capacity(), capacity);
        for value in 0..pushes {
            recorder.push(value);
        }
        let events = recorder.snapshot();
        // The ring keeps the most recent `capacity()`, oldest first, with
        // nothing lost in between.
        let retained = (recorder.capacity() as u64).min(pushes);
        let expected: Vec<u64> = (pushes - retained..pushes).collect();
        prop_assert_eq!(events, expected);
        prop_assert_eq!(recorder.pushed(), pushes);
    }
}

/// Many threads hammer one shared histogram; the result must equal the
/// sequential recording of the union of their streams — no lost counts,
/// no torn extremes.
#[test]
fn concurrent_histogram_recording_loses_nothing() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 20_000;
    let shared = Histogram::new();
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let shared = &shared;
            scope.spawn(move || {
                let mut rng = TestRng::new(0xC0FFEE ^ thread);
                for _ in 0..PER_THREAD {
                    shared.record(rng.below(1 << 40));
                }
            });
        }
    });

    let expected = Histogram::new();
    for thread in 0..THREADS {
        let mut rng = TestRng::new(0xC0FFEE ^ thread);
        for _ in 0..PER_THREAD {
            expected.record(rng.below(1 << 40));
        }
    }
    let a = shared.snapshot();
    let b = expected.snapshot();
    assert_eq!(a.count, THREADS * PER_THREAD);
    assert_eq!(a.counts(), b.counts());
    assert_eq!(a.sum, b.sum);
    assert_eq!(a.min, b.min);
    assert_eq!(a.max, b.max);
}

/// Concurrent pushers racing a snapshotting reader: every snapshot is a
/// consistent suffix — strictly increasing per-thread sequence numbers and
/// untorn payloads (each event's two halves agree).
#[test]
fn concurrent_flight_recorder_snapshots_are_consistent() {
    #[derive(Debug, Clone, Copy)]
    struct Event {
        value: u64,
        check: u64,
    }
    const PER_THREAD: u64 = 5_000;
    let recorder: FlightRecorder<Event> = FlightRecorder::new(64);
    let snapshots_taken = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for thread in 0..3u64 {
            let recorder = &recorder;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let value = thread * PER_THREAD + i;
                    recorder.push(Event {
                        value,
                        check: !value,
                    });
                }
            });
        }
        let recorder = &recorder;
        let snapshots_taken = &snapshots_taken;
        scope.spawn(move || {
            // At least one snapshot races the pushers even when this
            // thread is scheduled late (single-core hosts).
            loop {
                for event in recorder.snapshot() {
                    assert_eq!(event.check, !event.value, "torn flight-recorder read");
                }
                snapshots_taken.fetch_add(1, Ordering::Relaxed);
                if recorder.pushed() >= 3 * PER_THREAD {
                    break;
                }
            }
        });
    });
    assert_eq!(recorder.pushed(), 3 * PER_THREAD);
    assert!(snapshots_taken.load(Ordering::Relaxed) > 0);
    assert_eq!(recorder.snapshot().len(), 64);
}
