//! Cross-shard batch-planner contract tests: the layout that
//! `ROUTE_LAYOUT_VERSION = 2` names must match a hand-rolled reference
//! built from public pieces draw for draw, be a pure function of
//! `(snapshots, master draw)` — bit-identical at any fan-out lane count
//! and any `LRB_THREADS` budget — and carry the two-level law through the
//! parallel path statistically; core-pinning must degrade to a graceful
//! no-op when the policy names cores the host does not have.

use lrb_core::sharding::TotalsCut;
use lrb_rng::{Philox4x32, RandomSource, SeedableSource};
use lrb_service::{parse_cpu_list, CoreMap, ServiceConfig, ShardedService, ROUTE_LAYOUT_VERSION};
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

fn service(categories: usize, shards: usize, fanout_workers: usize) -> ShardedService {
    ShardedService::new(
        test_weights(categories),
        ServiceConfig {
            shards,
            fanout_workers,
            ..ServiceConfig::default()
        },
    )
    .expect("planner test service construction cannot fail")
}

/// Layout v2 rebuilt from public pieces: one `next_u64` master draw from
/// the caller's generator; Philox substream 0 of the master yields one
/// level-one uniform per slot, picked through a cut of the shard totals;
/// each touched shard `s` fills its draws from substream `1 + s`; the
/// grouped fills scatter back to slot order.
fn v2_reference(service: &ShardedService, rng: &mut Philox4x32, batch: usize) -> Vec<usize> {
    let shards = service.shard_count();
    let master = rng.next_u64();
    let mut assign_rng = Philox4x32::for_substream(master, 0);
    let cut = TotalsCut::from_totals(service.shard_totals());
    let assignment: Vec<usize> = (0..batch)
        .map(|_| {
            cut.pick_uniform(assign_rng.next_f64())
                .expect("live totals cannot be all-zero")
                .0
        })
        .collect();
    // Shard starts within each shard's contiguous category range.
    let (base, extra) = (service.len() / shards, service.len() % shards);
    let offsets: Vec<usize> = (0..shards).map(|s| s * base + s.min(extra)).collect();
    let fills: Vec<Vec<usize>> = (0..shards)
        .map(|s| {
            let mut fill = vec![0usize; assignment.iter().filter(|&&a| a == s).count()];
            if !fill.is_empty() {
                service
                    .shard_engine(s)
                    .read(|snapshot| {
                        snapshot.sample_into_substream(master, 1 + s as u64, &mut fill)
                    })
                    .expect("reference shard fill failed");
            }
            fill
        })
        .collect();
    let mut cursors = vec![0usize; shards];
    assignment
        .iter()
        .map(|&s| {
            let local = fills[s][cursors[s]];
            cursors[s] += 1;
            offsets[s] + local
        })
        .collect()
}

#[test]
fn route_layout_is_versioned_and_defaults_to_parallel() {
    // One layout is left and `ROUTE_LAYOUT_VERSION` names it; a default
    // config (auto lanes) must serve exactly that layout, above the inline
    // threshold so the pooled fan-out runs wherever there are lanes.
    assert_eq!(ROUTE_LAYOUT_VERSION, 2);
    assert_eq!(ServiceConfig::default().fanout_workers, 0);
    let service = ShardedService::new(test_weights(64), ServiceConfig::default())
        .expect("default-config service construction cannot fail");
    assert!(service.fanout_lanes() >= 1);
    let mut reference_rng = Philox4x32::seed_from_u64(0x5EED);
    let expected = v2_reference(&service, &mut reference_rng, 2_048);
    let mut rng = Philox4x32::seed_from_u64(0x5EED);
    let mut out = vec![0usize; 2_048];
    service
        .draw_into(&mut rng as &mut dyn RandomSource, &mut out)
        .expect("default-config batch draw failed");
    assert_eq!(out, expected);
}

proptest! {
    /// The tentpole determinism contract: the v2 output is invariant in
    /// the lane count. Lanes = 1 forces inline (sequential) execution, so
    /// this is also a parallel-vs-sequential-execution parity oracle;
    /// batches above the inline threshold exercise the pooled hand-off.
    #[test]
    fn prop_v2_output_is_invariant_across_lane_counts(
        seed: u64,
        small_batch in 1usize..192,
    ) {
        for batch in [small_batch, 2_048] {
            let mut reference: Option<Vec<usize>> = None;
            for lanes in [1usize, 2, 8] {
                let service = service(384, 6, lanes);
                let mut rng = Philox4x32::seed_from_u64(seed);
                let mut out = vec![0usize; batch];
                service
                    .draw_into(&mut rng as &mut dyn RandomSource, &mut out)
                    .expect("v2 batch draw failed");
                match &reference {
                    None => reference = Some(out),
                    Some(expected) => prop_assert_eq!(
                        expected,
                        &out,
                        "lane count changed v2 output (lanes {}, batch {})",
                        lanes,
                        batch
                    ),
                }
            }
        }
    }

    /// The planner must be draw-for-draw identical to the hand-rolled
    /// layout-v2 reference and consume exactly one word of the caller's
    /// generator, inline (lanes 1, and batches under the 1024-draw
    /// threshold) and through the pooled fan-out (lanes 4 above it).
    #[test]
    fn prop_v2_matches_the_handrolled_substream_reference(
        seed: u64,
        small_batch in 1usize..512,
    ) {
        for lanes in [1usize, 4] {
            let service = service(300, 5, lanes);
            for batch in [small_batch, 2_048] {
                let mut reference_rng = Philox4x32::seed_from_u64(seed);
                let expected = v2_reference(&service, &mut reference_rng, batch);

                let mut rng = Philox4x32::seed_from_u64(seed);
                let mut out = vec![0usize; batch];
                service
                    .draw_into(&mut rng as &mut dyn RandomSource, &mut out)
                    .expect("planner batch draw failed");
                prop_assert_eq!(
                    &out,
                    &expected,
                    "planner diverged from the v2 reference (lanes {}, batch {})",
                    lanes,
                    batch
                );
                prop_assert_eq!(rng.next_u64(), reference_rng.next_u64());
            }
        }
    }
}

#[test]
fn v2_output_is_invariant_in_the_lrb_threads_budget() {
    // `fanout_workers: 0` resolves the lane count from `LRB_THREADS`;
    // the drawn indices must not notice. (Only this test mutates the
    // variable; the one other auto-budget service, in the default-config
    // test, checks nothing a lane count could change.)
    let saved = std::env::var("LRB_THREADS").ok();
    let mut reference: Option<Vec<usize>> = None;
    for budget in ["1", "2", "8"] {
        std::env::set_var("LRB_THREADS", budget);
        let service = service(512, 8, 0);
        let mut rng = Philox4x32::seed_from_u64(0xBEEF);
        let mut out = vec![0usize; 4_096];
        service
            .draw_into(&mut rng as &mut dyn RandomSource, &mut out)
            .expect("budgeted batch draw failed");
        match &reference {
            None => reference = Some(out),
            Some(expected) => {
                assert_eq!(expected, &out, "LRB_THREADS={budget} changed v2 output")
            }
        }
    }
    match saved {
        Some(value) => std::env::set_var("LRB_THREADS", value),
        None => std::env::remove_var("LRB_THREADS"),
    }
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
                fanout_workers: 4,
                ..ServiceConfig::default()
            },
        )
        .expect("conformance service construction cannot fail");
        let mut rng = Philox4x32::seed_from_u64(seed);
        let mut counts = vec![0u64; weights.len()];
        let mut out = vec![0usize; 4_096];
        for _ in 0..8 {
            service
                .draw_into(&mut rng as &mut dyn RandomSource, &mut out)
                .expect("conformance batch draw failed");
            for &index in &out {
                counts[index] += 1;
            }
        }
        chi_square_gof(&counts, &probs).is_consistent(0.01)
    };
    assert!(
        consistent(0x2E11) || consistent(0x2E12),
        "two-level law failed chi-square through the parallel planner twice"
    );
}

#[test]
fn pinning_to_impossible_cores_is_a_graceful_no_op() {
    // A policy naming a core the host does not have must not break
    // anything: draws keep working, nothing reports as pinned.
    let service = ShardedService::new(
        test_weights(96),
        ServiceConfig {
            shards: 4,
            core_map: CoreMap::Explicit(vec![100_000]),
            fanout_workers: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("service with an impossible core map must still construct");
    let mut rng = Philox4x32::seed_from_u64(0xC0DE);
    let mut out = vec![0usize; 2_048];
    service
        .draw_into(&mut rng as &mut dyn RandomSource, &mut out)
        .expect("draws must survive a failed pin");
    assert!(service.pinner().is_active());
    assert_eq!(
        service.pinner().pinned_threads(),
        0,
        "a core the host does not have cannot be pinned"
    );
}

#[test]
fn cpu_list_parsing_round_trips_the_policy_surface() {
    assert_eq!(parse_cpu_list("0-2,5"), Some(vec![0, 1, 2, 5]));
    assert_eq!(parse_cpu_list(" 3 "), Some(vec![3]));
    assert_eq!(parse_cpu_list("2-2,2"), Some(vec![2]));
    assert_eq!(parse_cpu_list("banana"), None);
    assert_eq!(parse_cpu_list("3-1"), None);
    // The empty list is a valid (empty) policy — sysfs emits it for a
    // node with no CPUs.
    assert_eq!(parse_cpu_list(""), Some(Vec::new()));
}
