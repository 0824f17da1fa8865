//! End-to-end tests of the sharded selection service over real sockets:
//! a Unix-domain server under mixed single/batch/update traffic, exact
//! two-level conformance (service draws vs the flat distribution),
//! per-connection draw streams, wire error mapping, and a TCP smoke test.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use lrb_core::SelectionError;
use lrb_service::{
    protocol, ServiceClient, ServiceConfig, ServiceError, ServiceServer, ShardedService,
};
use lrb_stats::chi_square_gof;

/// A per-test UDS path under the system temp dir (PID + name keyed, so
/// parallel tests never collide).
fn socket_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lrb-service-{}-{name}.sock", std::process::id()))
}

fn weights_1_to_24() -> Vec<f64> {
    (1..=24).map(f64::from).collect()
}

#[test]
fn uds_two_level_draws_match_the_flat_distribution() {
    let weights = weights_1_to_24();
    let service = ShardedService::new(
        weights.clone(),
        ServiceConfig {
            shards: 6,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let path = socket_path("chi2");
    let server = ServiceServer::bind_uds(service.core(), &path, 0x5E1EC7).unwrap();

    let total: f64 = weights.iter().sum();
    let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
    // A fresh connection gets a fresh server-side RNG stream, so "best of
    // two seeds" is "best of two connections" (a correct sampler fails a
    // 1% chi-square ~1% of the time; both failing is ~10⁻⁴).
    let consistent = || {
        let mut client = ServiceClient::connect_uds(&path).unwrap();
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..10 {
            for index in client.draw_batch(3_000).unwrap() {
                counts[index] += 1;
            }
        }
        chi_square_gof(&counts, &probs).is_consistent(0.01)
    };
    assert!(
        consistent() || consistent(),
        "two-level service draws failed chi-square against the flat law on two connections"
    );
    drop(server);
}

#[test]
fn uds_mixed_traffic_stays_coherent() {
    let service = ShardedService::new(
        weights_1_to_24(),
        ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let path = socket_path("mixed");
    let server = ServiceServer::bind_uds(service.core(), &path, 0x11FE).unwrap();

    // Concurrent clients: two single-draw loops, one batch-draw loop, one
    // writer doing updates.
    let mut handles = Vec::new();
    for _ in 0..2 {
        let path = path.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = ServiceClient::connect_uds(&path).unwrap();
            for _ in 0..100 {
                let pick = client.draw().unwrap();
                assert!(pick < 24);
            }
        }));
    }
    {
        let path = path.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = ServiceClient::connect_uds(&path).unwrap();
            for _ in 0..20 {
                let picks = client.draw_batch(64).unwrap();
                assert_eq!(picks.len(), 64);
                assert!(picks.iter().all(|&p| p < 24));
            }
        }));
    }
    {
        let path = path.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = ServiceClient::connect_uds(&path).unwrap();
            for round in 0..10u32 {
                client
                    .update_many(&[(0, f64::from(round) + 2.0), (23, 50.0)])
                    .unwrap();
                client.scale_all(1.0).unwrap();
                client.publish().unwrap();
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }

    // The writer's final state is visible through the totals endpoint.
    let mut client = ServiceClient::connect_uds(&path).unwrap();
    let totals = client.totals().unwrap();
    assert_eq!(totals.len(), 4);
    // Shards are 6 categories each; shard 0 = (11)+2+3+4+5+6, shard 3 =
    // 19+…+23 + 50.
    assert_eq!(totals[0], 31.0);
    assert_eq!(totals[3], (19..24).map(f64::from).sum::<f64>() + 50.0);

    // The metrics document reports the traffic, and wire draws come from
    // each connection's own RNG: nothing rides the cross-connection
    // aggregator.
    let metrics = client.metrics_json().unwrap();
    for needle in [
        "lrb_service_draws_total",
        "lrb_service_shard0_publish_ns",
        "lrb_service_shard_imbalance",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in metrics");
    }
    let telemetry = service.telemetry();
    assert!(telemetry.draws() >= 200 + 20 * 64, "draws went uncounted");
    assert_eq!(
        telemetry.batched_draws(),
        0,
        "wire draws went through the aggregator"
    );
    assert!(
        telemetry.publishes() >= 40,
        "publishes were not routed per shard"
    );
    drop(server);
}

#[test]
fn serial_draws_on_a_connection_ignore_other_connections() {
    const DRAWS: usize = 300;
    const SEED: u64 = 0x5E41;
    // One fresh service and server per run, both with the same server
    // seed.
    let run = |name: &str, with_neighbour: bool| -> Vec<usize> {
        let service = ShardedService::new(
            weights_1_to_24(),
            ServiceConfig {
                shards: 4,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let path = socket_path(name);
        let server = ServiceServer::bind_uds(service.core(), &path, SEED).unwrap();
        // A connects first and finishes a round trip, so it is accepted
        // first and keeps the same connection token in both runs.
        let mut a = ServiceClient::connect_uds(&path).unwrap();
        a.totals().unwrap();
        let stop = AtomicBool::new(false);
        let overlap = Barrier::new(2);
        let picks = std::thread::scope(|scope| {
            if with_neighbour {
                // B draws from before A's first draw until after its last.
                scope.spawn(|| {
                    let mut b = ServiceClient::connect_uds(&path).unwrap();
                    b.draw().unwrap();
                    overlap.wait();
                    while !stop.load(Ordering::Acquire) {
                        b.draw().unwrap();
                    }
                    b.draw().unwrap();
                });
                overlap.wait();
            }
            let picks: Vec<usize> = (0..DRAWS).map(|_| a.draw().unwrap()).collect();
            stop.store(true, Ordering::Release);
            picks
        });
        drop(server);
        picks
    };
    let alone = run("serial-alone", false);
    let beside = run("serial-beside", true);
    assert_eq!(
        alone, beside,
        "another connection's draws changed this connection's serial draws"
    );
}

#[test]
fn uds_errors_map_to_wire_codes() {
    let service = ShardedService::new(vec![1.0, 2.0], ServiceConfig::default()).unwrap();
    let path = socket_path("errors");
    let server = ServiceServer::bind_uds(service.core(), &path, 3).unwrap();
    let mut client = ServiceClient::connect_uds(&path).unwrap();

    match client.update(5, 1.0) {
        Err(ServiceError::Remote { code, message }) => {
            assert_eq!(code, protocol::codes::INDEX_OUT_OF_RANGE);
            assert!(message.contains('5'), "unhelpful message: {message}");
        }
        other => panic!("expected a remote index error, got {other:?}"),
    }
    match client.scale_all(f64::NAN) {
        Err(ServiceError::Remote { code, .. }) => {
            assert_eq!(code, protocol::codes::INVALID_SCALE)
        }
        other => panic!("expected a remote scale error, got {other:?}"),
    }
    // The connection survives in-band errors.
    assert!(client.draw().unwrap() < 2);

    // An all-or-nothing batch with one bad index leaves the service clean.
    match client.update_many(&[(0, 9.0), (7, 1.0)]) {
        Err(ServiceError::Remote { code, .. }) => {
            assert_eq!(code, protocol::codes::INDEX_OUT_OF_RANGE)
        }
        other => panic!("expected a remote batch error, got {other:?}"),
    }
    client.publish().unwrap();
    assert_eq!(client.totals().unwrap(), vec![1.0, 2.0]);
    drop(server);
}

#[test]
fn tcp_round_trip_draw_update_publish() {
    let service = ShardedService::new(weights_1_to_24(), ServiceConfig::default()).unwrap();
    let server = ServiceServer::bind_tcp(service.core(), "127.0.0.1:0", 0x7C9).unwrap();
    let mut client = ServiceClient::connect(server.local_addr()).unwrap();

    assert!(client.draw().unwrap() < 24);
    client.update(0, 100.0).unwrap();
    let versions = client.publish().unwrap();
    assert_eq!(versions.len(), 4);
    assert_eq!(versions[0], 1);
    let totals = client.totals().unwrap();
    assert_eq!(totals[0], 100.0 + (2..=6).map(f64::from).sum::<f64>());
    drop(server);
}

#[test]
fn in_process_service_rejects_what_the_engine_rejects() {
    // The service's validation surface mirrors the engine's, so client
    // bugs fail identically whether they arrive by socket or in-process.
    let service = ShardedService::new(weights_1_to_24(), ServiceConfig::default()).unwrap();
    assert_eq!(
        service.update(24, 1.0),
        Err(SelectionError::IndexOutOfRange { index: 24, len: 24 })
    );
    assert_eq!(
        service.scale_all(-0.5),
        Err(SelectionError::InvalidScale { factor: -0.5 })
    );
}
