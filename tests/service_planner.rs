//! Cross-shard batch-planner contract tests: the layout that
//! `ROUTE_LAYOUT_VERSION = 3` names must match a hand-rolled reference
//! built from public pieces draw for draw, slot ranges included, be a
//! pure function of `(snapshots, master draw)` — bit-identical at any
//! fan-out lane count, which the rayon shim's thread budget sets
//! (`LRB_THREADS`, or `ThreadPool::install` as here), and with concurrent
//! submitters — and carry the two-level law through the parallel path
//! statistically.

use lrb_core::sharding::TotalsCut;
use lrb_dynamic::FenwickSampler;
use lrb_rng::{Philox4x32, RandomSource, SeedableSource};
use lrb_service::{ServiceConfig, ShardedService, ROUTE_LAYOUT_VERSION};
use lrb_stats::chi_square_gof;
use proptest::prelude::*;

/// Deterministic, mildly lumpy weights (a few zeros to keep the
/// zero-weight invariant honest).
fn test_weights(categories: usize) -> Vec<f64> {
    (0..categories)
        .map(|i| {
            if i % 17 == 3 {
                0.0
            } else {
                ((i % 29) + 1) as f64
            }
        })
        .collect()
}

/// One positive weight in 32: every shard of the planner tests builds
/// its Fenwick tree over the support (the compact layout).
fn sparse_weights(categories: usize) -> Vec<f64> {
    (0..categories)
        .map(|i| {
            if i % 32 == 9 {
                ((i % 29) + 1) as f64
            } else {
                0.0
            }
        })
        .collect()
}

fn service(categories: usize, shards: usize) -> ShardedService {
    service_over(test_weights(categories), shards)
}

fn service_over(weights: Vec<f64>, shards: usize) -> ShardedService {
    ShardedService::new(
        weights,
        ServiceConfig {
            shards,
            ..ServiceConfig::default()
        },
    )
    .expect("planner test service construction cannot fail")
}

/// Whether every shard of `service` draws from a compact Fenwick tree.
fn every_shard_is_compact(service: &ShardedService) -> bool {
    (0..service.shard_count()).all(|s| {
        let weights = service
            .shard_engine(s)
            .read(|snapshot| snapshot.weights().to_vec());
        FenwickSampler::from_weights(weights)
            .expect("shard weights are valid")
            .is_compact()
    })
}

/// Run `op` under a thread budget of `lanes` (1 = every fill inline).
fn with_lanes<R>(lanes: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(lanes)
        .build()
        .expect("the shim's pool builder cannot fail")
        .install(op)
}

/// `batches` draws of `batch` from `seed`, in order.
fn draw_batches(service: &ShardedService, seed: u64, batches: usize, batch: usize) -> Vec<usize> {
    let mut rng = Philox4x32::seed_from_u64(seed);
    let mut drawn = Vec::with_capacity(batches * batch);
    let mut out = vec![0usize; batch];
    for _ in 0..batches {
        service
            .draw_into(&mut rng as &mut dyn RandomSource, &mut out)
            .expect("batch draw failed");
        drawn.extend_from_slice(&out);
    }
    drawn
}

/// Layout v3 rebuilt from public pieces: one `next_u64` master draw from
/// the caller's generator; slot `j` draws from Philox substream `j` of
/// the master alone. Its first uniform picks the shard through a cut of
/// the shard totals, the shard's snapshot draws the in-shard index from
/// the same stream, and the shard's offset makes it global.
fn v3_reference(service: &ShardedService, rng: &mut Philox4x32, batch: usize) -> Vec<usize> {
    let shards = service.shard_count();
    let master = rng.next_u64();
    let cut = TotalsCut::from_totals(service.shard_totals());
    // Shard starts within each shard's contiguous category range.
    let (base, extra) = (service.len() / shards, service.len() % shards);
    (0..batch as u64)
        .map(|slot| {
            let mut stream = Philox4x32::for_substream(master, slot);
            let (s, _) = cut
                .pick_uniform(stream.next_f64())
                .expect("live totals cannot be all-zero");
            let local = service
                .shard_engine(s)
                .read(|snapshot| snapshot.sample(&mut stream))
                .expect("reference shard draw failed");
            s * base + s.min(extra) + local
        })
        .collect()
}

#[test]
fn route_layout_is_versioned_and_defaults_to_parallel() {
    // One layout is left and `ROUTE_LAYOUT_VERSION` names it; a default
    // config at the default budget must serve exactly that layout, above
    // the inline threshold so the slot ranges fork wherever there are
    // lanes.
    assert_eq!(ROUTE_LAYOUT_VERSION, 3);
    let service = ShardedService::new(test_weights(64), ServiceConfig::default())
        .expect("default-config service construction cannot fail");
    assert!(service.fanout_lanes() >= 1);
    // Lanes follow the shim's budget; the shard count does not cap them.
    assert_eq!(with_lanes(1, || service.fanout_lanes()), 1);
    assert_eq!(with_lanes(8, || service.fanout_lanes()), 8);
    let mut reference_rng = Philox4x32::seed_from_u64(0x5EED);
    let expected = v3_reference(&service, &mut reference_rng, 2_048);
    let mut rng = Philox4x32::seed_from_u64(0x5EED);
    let mut out = vec![0usize; 2_048];
    service
        .draw_into(&mut rng as &mut dyn RandomSource, &mut out)
        .expect("default-config batch draw failed");
    assert_eq!(out, expected);
}

proptest! {
    /// The determinism contract: the v3 output is invariant in the lane
    /// count. Lanes = 1 forces inline (sequential) execution, so this is
    /// also a parallel-vs-sequential-execution parity oracle; batches
    /// above the inline threshold exercise the forked slot ranges, and the
    /// odd ones an odd half and short trailing passes whose shard groups
    /// end in lockstep remainders. Dense weights and sparse ones (every
    /// shard's tree compact) both.
    #[test]
    fn prop_v3_output_is_invariant_across_lane_counts(
        seed: u64,
        small_batch in 1usize..192,
    ) {
        for sparse in [false, true] {
            for batch in [small_batch, 2_048, 1_025 + 2 * small_batch, 1_029] {
                let mut reference: Option<Vec<usize>> = None;
                for lanes in [1usize, 2, 8] {
                    let weights = if sparse { sparse_weights(384) } else { test_weights(384) };
                    let service = service_over(weights, 6);
                    let out = with_lanes(lanes, || draw_batches(&service, seed, 1, batch));
                    match &reference {
                        None => reference = Some(out),
                        Some(expected) => prop_assert_eq!(
                            expected,
                            &out,
                            "lane count changed v3 output (lanes {}, batch {}, sparse {})",
                            lanes,
                            batch,
                            sparse
                        ),
                    }
                }
            }
        }
    }

    /// The planner must be draw-for-draw identical to the hand-rolled
    /// layout-v3 reference and consume exactly one word of the caller's
    /// generator, inline (lanes 1, and batches under the 1024-slot
    /// threshold) and through the forked slot ranges (lanes 4 above it,
    /// at an even and two odd batch sizes), on dense weights and on
    /// sparse ones whose shards all draw from compact trees. The
    /// reference draws slot by slot, so the planner's per-shard lockstep
    /// groups (and their remainders) must not change an index. The
    /// batch's slots from a third of the way in, drawn alone as a slot
    /// range of the same master, match too.
    #[test]
    fn prop_v3_matches_the_handrolled_slot_reference(
        seed: u64,
        small_batch in 1usize..512,
    ) {
        for (lanes, sparse) in [(1usize, false), (4, false), (1, true), (4, true)] {
            let weights = if sparse { sparse_weights(300) } else { test_weights(300) };
            let service = service_over(weights, 5);
            prop_assert_eq!(every_shard_is_compact(&service), sparse);
            for batch in [small_batch, 2_048, 1_025 + 2 * small_batch, 1_029] {
                let mut reference_rng = Philox4x32::seed_from_u64(seed);
                let expected = v3_reference(&service, &mut reference_rng, batch);

                let mut rng = Philox4x32::seed_from_u64(seed);
                let mut out = vec![0usize; batch];
                let first = batch / 3;
                let mut tail = vec![usize::MAX; batch - first];
                with_lanes(lanes, || {
                    service
                        .draw_into(&mut rng as &mut dyn RandomSource, &mut out)
                        .expect("planner batch draw failed");
                    let master = Philox4x32::seed_from_u64(seed).next_u64();
                    service
                        .draw_slots(master, first as u64, &mut tail)
                        .expect("slot-range draw failed");
                });
                prop_assert_eq!(rng.next_u64(), reference_rng.next_u64());
                prop_assert_eq!(&tail[..], &expected[first..], "slots from {} alone", first);
                prop_assert_eq!(
                    &out,
                    &expected,
                    "planner diverged from the v3 reference (lanes {}, batch {}, sparse {})",
                    lanes,
                    batch,
                    sparse
                );
            }
        }
    }
}

#[test]
fn v3_output_is_invariant_in_the_lrb_threads_budget() {
    // The shim's thread budget sets the lane count. `LRB_THREADS` is
    // read once per process, so the CI matrix's value is the default
    // leg; `install` sets the others. The drawn indices must not notice.
    let service = service(512, 8);
    let reference = with_lanes(1, || draw_batches(&service, 0xBEEF, 1, 4_096));
    assert_eq!(
        draw_batches(&service, 0xBEEF, 1, 4_096),
        reference,
        "the default budget changed v3 output"
    );
    for budget in [2, 8] {
        let out = with_lanes(budget, || draw_batches(&service, 0xBEEF, 1, 4_096));
        assert_eq!(out, reference, "a budget of {budget} changed v3 output");
    }
}

#[test]
fn concurrent_submitters_each_draw_what_their_seed_gives_alone() {
    // Two threads fork large batches through the shared pool at the
    // same time; neither may see the other's fills.
    let service = service(600, 6);
    let alone: Vec<Vec<usize>> = [0xA1, 0xB2]
        .iter()
        .map(|&seed| with_lanes(4, || draw_batches(&service, seed, 16, 4_096)))
        .collect();
    let together: Vec<Vec<usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = [0xA1, 0xB2]
            .iter()
            .map(|&seed| {
                let service = &service;
                scope.spawn(move || with_lanes(4, || draw_batches(service, seed, 16, 4_096)))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("a submitter panicked"))
            .collect()
    });
    assert_eq!(together, alone);
}

#[test]
fn two_level_law_survives_the_parallel_path() {
    // Chi-square conformance of the end-to-end two-level distribution
    // through the planner with real fan-out (4 lanes, batches above
    // the inline threshold). Best of two seeds: a correct sampler fails
    // both at the 1% level with probability ~1e-4.
    let weights: Vec<f64> = (1..=24).map(f64::from).collect();
    let total: f64 = weights.iter().sum();
    let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
    let consistent = |seed: u64| {
        let service = ShardedService::new(
            weights.clone(),
            ServiceConfig {
                shards: 6,
                ..ServiceConfig::default()
            },
        )
        .expect("conformance service construction cannot fail");
        let mut counts = vec![0u64; weights.len()];
        for index in with_lanes(4, || draw_batches(&service, seed, 8, 4_096)) {
            counts[index] += 1;
        }
        chi_square_gof(&counts, &probs).is_consistent(0.01)
    };
    assert!(
        consistent(0x2E11) || consistent(0x2E12),
        "two-level law failed chi-square through the parallel planner twice"
    );
}
