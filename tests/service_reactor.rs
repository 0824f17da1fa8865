//! End-to-end tests of the epoll reactor front: a 1000-connection fan-in
//! storm with interleaved pipelined draws (chi-square on the merged
//! histogram, bounded server threads), the in-flight backpressure budget,
//! the slow-consumer disconnect policy, response ordering under
//! pipelining, and torn-frame trickle delivery through the reactor path.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;

use lrb_service::{
    protocol, ServerConfig, ServiceClient, ServiceConfig, ServiceEvent, ServiceServer,
    ShardedService,
};
use lrb_stats::chi_square_gof;

/// A per-test UDS path under the system temp dir (PID + name keyed, so
/// parallel tests never collide).
fn socket_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lrb-reactor-{}-{name}.sock", std::process::id()))
}

fn weights_1_to_24() -> Vec<f64> {
    (1..=24).map(f64::from).collect()
}

/// The soft fd limit, from `/proc/self/limits` (no getrlimit without
/// unsafe). Falls back to the conservative classic default.
fn fd_soft_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|limits| {
            limits.lines().find_map(|line| {
                line.strip_prefix("Max open files")?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(1024)
}

/// Threads in this process, from `/proc/self/status`.
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("Threads:")?.trim().parse().ok())
        })
        .expect("/proc/self/status has a Threads: line")
}

/// Write `frame_count` `DRAW_BATCH(count)` request frames in one burst.
fn write_draw_batches(stream: &mut UnixStream, counts: &[u32]) {
    let mut wire = Vec::new();
    for &count in counts {
        protocol::encode_request(&mut wire, protocol::OpCode::DrawBatch, &count.to_le_bytes());
    }
    stream.write_all(&wire).unwrap();
}

#[test]
fn fan_in_storm_pipelined_draws_hold_the_two_level_law() {
    let weights = weights_1_to_24();
    let service = ShardedService::new(
        weights.clone(),
        ServiceConfig {
            shards: 6,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let path = socket_path("fanin");
    let server = ServiceServer::bind_uds(service.core(), &path, 0xFA41).unwrap();

    // 1000 connections when the fd budget allows: each costs two fds
    // (client + server end); leave generous slack for the harness.
    let connections = 1000.min((fd_soft_limit().saturating_sub(128)) / 2).max(64);
    const DRAWS_PER_CONN: usize = 24;
    const WINDOW: usize = 4;

    let total: f64 = weights.iter().sum();
    let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();

    let storm = |counts: &mut [u64]| {
        // Accept storm: open everything before drawing anything.
        let mut clients: Vec<ServiceClient> = (0..connections)
            .map(|_| ServiceClient::connect_uds(&path).unwrap())
            .collect();
        let baseline = thread_count();
        assert!(
            baseline < 128,
            "{connections} open connections pushed the process to {baseline} threads — \
             the server is spawning per-connection"
        );

        // Interleaved pipelining: every connection keeps WINDOW draws in
        // flight; rounds rotate across all connections so the reactors
        // juggle them concurrently rather than serially.
        for client in &mut clients {
            for _ in 0..WINDOW {
                client.queue_draw();
            }
            client.flush().unwrap();
        }
        for round in 0..DRAWS_PER_CONN {
            for client in clients.iter_mut() {
                let index = client.recv_draw().unwrap();
                counts[index] += 1;
                if round + WINDOW < DRAWS_PER_CONN {
                    client.queue_draw();
                    client.flush().unwrap();
                }
            }
        }
        for client in clients.iter_mut() {
            while client.outstanding() > 0 {
                let index = client.recv_draw().unwrap();
                counts[index] += 1;
            }
        }
    };

    // A correct sampler fails a 1% chi-square ~1% of the time; re-run the
    // storm with fresh connections (fresh server-side draw masters) before
    // declaring the merged histogram broken.
    let consistent = || {
        let mut counts = vec![0u64; weights.len()];
        storm(&mut counts);
        let drawn: u64 = counts.iter().sum();
        assert_eq!(
            drawn,
            (connections * DRAWS_PER_CONN) as u64,
            "storm lost draws"
        );
        chi_square_gof(&counts, &probs).is_consistent(0.01)
    };
    assert!(
        consistent() || consistent(),
        "merged fan-in histogram failed chi-square against the flat law twice"
    );

    let telemetry = service.telemetry();
    assert!(
        telemetry.connects() >= connections as u64,
        "server accepted {} connections, expected at least {connections}",
        telemetry.connects(),
    );
    drop(server);
}

#[test]
fn backpressure_budget_defers_reads_until_responses_drain() {
    let service = ShardedService::new(weights_1_to_24(), ServiceConfig::default()).unwrap();
    let path = socket_path("budget");
    let server = ServiceServer::bind_uds_with(
        service.core(),
        &path,
        0xB4D6,
        ServerConfig {
            inflight_budget: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // A burst far beyond the budget: every draw must still be answered
    // (the overflow waits in the kernel socket buffer, not in server
    // memory), and the deferral must be visible in telemetry. The burst
    // usually lands in the socket buffer faster than the reactor drains
    // it, but that is a race — retry a few times before declaring the
    // budget dead.
    let mut deferred = false;
    for _ in 0..5 {
        let mut client = ServiceClient::connect_uds(&path).unwrap();
        for _ in 0..64 {
            client.queue_draw();
        }
        client.flush().unwrap();
        for _ in 0..64 {
            assert!(client.recv_draw().unwrap() < 24);
        }
        if service.telemetry().read_deferrals() > 0 {
            deferred = true;
            break;
        }
    }
    assert!(
        deferred,
        "a 64-draw burst against a budget of 4 never deferred a read"
    );
    drop(server);
}

#[test]
fn slow_consumer_is_disconnected_and_journaled() {
    let service = ShardedService::new(weights_1_to_24(), ServiceConfig::default()).unwrap();
    let path = socket_path("slow");
    let server = ServiceServer::bind_uds_with(
        service.core(),
        &path,
        0x510,
        ServerConfig {
            max_outbound_bytes: 64 * 1024,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Ask for ~1 MiB of responses (8 × 16384 draws × 8 bytes) and read
    // none of them: the socket buffer fills, the server's outbound backlog
    // blows the 64 KiB cap, and the policy disconnects us.
    let mut stream = UnixStream::connect(&path).unwrap();
    write_draw_batches(&mut stream, &[16_384; 8]);
    // Stay slow until the policy has actually fired: reading concurrently
    // with response production could drain fast enough that the backlog
    // never tops the cap, and then no EOF ever comes.
    let disconnect_deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while service.telemetry().slow_consumer_disconnects() == 0 {
        assert!(
            std::time::Instant::now() < disconnect_deadline,
            "the stalled connection was never dropped by the cap"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // The disconnect closes the socket; draining what the socket buffered
    // must end in EOF, not hang.
    let mut sink = Vec::new();
    stream.read_to_end(&mut sink).expect("EOF, not an error");

    let telemetry = service.telemetry();
    assert_eq!(
        telemetry.slow_consumer_disconnects(),
        1,
        "the stalled connection was not dropped by the cap"
    );
    assert!(
        telemetry.journal().iter().any(
            |e| matches!(e, ServiceEvent::SlowConsumer { buffered, .. } if *buffered > 64 * 1024)
        ),
        "no SlowConsumer event journaled: {:?}",
        telemetry.journal()
    );

    // The server survives; a well-behaved connection still works.
    let mut client = ServiceClient::connect_uds(&path).unwrap();
    assert!(client.draw().unwrap() < 24);
    drop(server);
}

#[test]
fn pipelined_responses_arrive_in_request_order() {
    let service = ShardedService::new(weights_1_to_24(), ServiceConfig::default()).unwrap();
    let path = socket_path("order");
    let server = ServiceServer::bind_uds(service.core(), &path, 0x0D4).unwrap();

    // Distinguishable requests in one burst: DRAW_BATCH(1..=8) answers
    // carry their count, so any reordering is visible.
    let mut stream = UnixStream::connect(&path).unwrap();
    let counts: Vec<u32> = (1..=8).collect();
    write_draw_batches(&mut stream, &counts);
    for expect in 1..=8u32 {
        let payload = protocol::read_response(&mut stream).unwrap();
        let got = u32::from_le_bytes(payload[..4].try_into().unwrap());
        assert_eq!(got, expect, "response out of order");
        assert_eq!(payload.len(), 4 + 8 * expect as usize);
    }

    // A draw run sandwiched between batches keeps its slots: the server
    // draws the two DRAWs in one planner call but still answers one OK
    // frame per request, in place.
    let mut wire = Vec::new();
    protocol::encode_request(&mut wire, protocol::OpCode::DrawBatch, &3u32.to_le_bytes());
    protocol::encode_request(&mut wire, protocol::OpCode::Draw, &[]);
    protocol::encode_request(&mut wire, protocol::OpCode::Draw, &[]);
    protocol::encode_request(&mut wire, protocol::OpCode::DrawBatch, &5u32.to_le_bytes());
    stream.write_all(&wire).unwrap();
    let sizes: Vec<usize> = (0..4)
        .map(|_| protocol::read_response(&mut stream).unwrap().len())
        .collect();
    assert_eq!(sizes, vec![4 + 24, 8, 8, 4 + 40]);
    drop(server);
}

#[test]
fn torn_frames_trickle_through_the_reactor() {
    let service = ShardedService::new(weights_1_to_24(), ServiceConfig::default()).unwrap();
    let path = socket_path("trickle");
    let server = ServiceServer::bind_uds(service.core(), &path, 0x7E42).unwrap();

    let mut stream = UnixStream::connect(&path).unwrap();
    let mut wire = Vec::new();
    protocol::encode_request(&mut wire, protocol::OpCode::DrawBatch, &5u32.to_le_bytes());

    // Byte-by-byte with pauses: the reactor sees a long sequence of
    // 1-byte reads and must resume the parse across every one of them.
    for &byte in &wire {
        stream.write_all(&[byte]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let payload = protocol::read_response(&mut stream).unwrap();
    assert_eq!(u32::from_le_bytes(payload[..4].try_into().unwrap()), 5);

    // A torn boundary inside a pipelined pair: first frame's tail and the
    // second frame arrive in one segment.
    let mut pair = Vec::new();
    protocol::encode_request(&mut pair, protocol::OpCode::DrawBatch, &2u32.to_le_bytes());
    let split = pair.len() - 3;
    protocol::encode_request(&mut pair, protocol::OpCode::DrawBatch, &4u32.to_le_bytes());
    stream.write_all(&pair[..split]).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(5));
    stream.write_all(&pair[split..]).unwrap();
    for expect in [2u32, 4] {
        let payload = protocol::read_response(&mut stream).unwrap();
        assert_eq!(u32::from_le_bytes(payload[..4].try_into().unwrap()), expect);
    }
    drop(server);
}

#[test]
fn graceful_drain_flushes_pipelined_responses_then_closes() {
    let service = ShardedService::new(weights_1_to_24(), ServiceConfig::default()).unwrap();
    let path = socket_path("drain");
    let mut server = ServiceServer::bind_uds(service.core(), &path, 0xD7A1).unwrap();

    const FRAMES: usize = 32;
    let mut stream = UnixStream::connect(&path).unwrap();
    write_draw_batches(&mut stream, &[3; FRAMES]);
    // Let the burst reach the reactor and execute before the drain stops
    // reading new requests.
    std::thread::sleep(std::time::Duration::from_millis(200));
    server.shutdown_within(std::time::Duration::from_secs(5));

    // Every pipelined response was completed and flushed before the
    // close, in request order...
    for _ in 0..FRAMES {
        let payload = protocol::read_response(&mut stream).unwrap();
        assert_eq!(u32::from_le_bytes(payload[..4].try_into().unwrap()), 3);
    }
    // ...and the connection then reads clean EOF.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "bytes after the last drained response");

    // The drain journaled one Drained entry per reactor, none of them
    // abandoning work, and the reactor that held this connection saw it.
    let drained: Vec<(u64, u64)> = service
        .telemetry()
        .journal()
        .iter()
        .filter_map(|event| match event {
            ServiceEvent::Drained { conns, abandoned } => Some((*conns, *abandoned)),
            _ => None,
        })
        .collect();
    assert!(
        !drained.is_empty(),
        "no Drained event in the service journal"
    );
    assert!(
        drained.iter().all(|&(_, abandoned)| abandoned == 0),
        "drain abandoned in-flight work: {drained:?}"
    );
    assert!(
        drained.iter().any(|&(conns, _)| conns >= 1),
        "no reactor reported draining our connection: {drained:?}"
    );
}

#[test]
fn client_rides_through_a_server_restart() {
    use std::time::Duration;

    let service = ShardedService::new(weights_1_to_24(), ServiceConfig::default()).unwrap();
    let path = socket_path("restart");
    let server = ServiceServer::bind_uds(service.core(), &path, 0x0FF1).unwrap();

    let config = lrb_service::ClientConfig {
        deadline: Some(Duration::from_secs(2)),
        retries: 3,
        reconnect_attempts: 20,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        seed: 0xC11E,
    };
    let mut client = lrb_service::ServiceClient::connect_with(
        &lrb_service::ServerAddr::Unix(path.clone()),
        config,
    )
    .unwrap();
    assert!(client.draw().unwrap() < 24);

    // Bounce the server: the client's connection goes stale, the socket
    // file vanishes, a fresh server appears at the same address.
    drop(server);
    let server = ServiceServer::bind_uds(service.core(), &path, 0x0FF2).unwrap();

    // An idempotent request after the bounce reconnects and retries
    // transparently; the stats expose that it happened.
    assert!(client.draw().unwrap() < 24);
    let stats = client.stats();
    assert!(stats.reconnects >= 1, "client never reconnected: {stats:?}");
    assert!(stats.retries >= 1, "client never retried: {stats:?}");
    assert!(client.is_connected());
    drop(server);
}
