//! Pipelining report for the sharded selection service.
//!
//! ```text
//! cargo run -p lrb-bench --release --bin service_quick [-- --json 1]
//! ```
//!
//! Binds a bare [`ServiceServer`] — a 4-shard [`ShardedService`] over 4096
//! linear weights, no publisher threads, no background writer — on a
//! Unix-domain socket and measures the pipelining payoff on one
//! connection: 2000 single `DRAW`s through the serialized client (one
//! round trip per draw) against 2000 through the pipelined client
//! (window 32), as [`GATE_PAIRS`](lrb_bench::gate::GATE_PAIRS) closed-loop
//! pairs on fresh connections whose arm order flips from pair to pair.
//! The `--json 1` report, with every pair's throughputs and the median
//! ratio, is the `BENCH_service.json` baseline.
//!
//! This is a report, not a gate: the serial side is one socket round trip
//! per draw, so its rate follows the host's thread wake-up latency, and
//! on the 2-vCPU recording host three runs' medians spread from 7.39× to
//! 9.29×, wider than a bar that a 20 % regression trips can absorb.
//! Latency under load, fan-in and two-level conformance are not measured
//! here either: perfbench measures the wire end to end, and the
//! integration suites (`service_reactor`, `service_integration`) pin the
//! 1000-connection storm's thread bound and the two-level law by
//! chi-square.

use lrb_bench::cli::Options;
use lrb_bench::service_workload::{measure_pipeline_speedup, PipelineReport};
use lrb_service::{ServiceConfig, ServiceServer, ShardedService};
use serde::Serialize;

const CATEGORIES: usize = 4096;
const SHARDS: usize = 4;
/// Draws per side of each pair.
const DRAWS: u64 = 2_000;
/// Pipelined window.
const WINDOW: usize = 32;
/// The server's draw-master seed.
const SEED: u64 = 0x05EC_71CE;

/// The machine-readable report (`--json 1`), recorded as the
/// `BENCH_service.json` baseline.
#[derive(Debug, Serialize)]
struct QuickReport {
    host_threads: u64,
    categories: u64,
    shards: u64,
    pipeline: PipelineReport,
}

fn main() {
    let json = Options::from_env(&["json"]).contains("json");
    let host_threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);

    println!(
        "service_quick: serialized vs pipelined single draws on one connection to a \
         {SHARDS}-shard service over {CATEGORIES} categories, host threads = {host_threads}\n"
    );

    let service = ShardedService::new(
        (1..=CATEGORIES as u64).map(|w| w as f64).collect(),
        ServiceConfig {
            shards: SHARDS,
            ..ServiceConfig::default()
        },
    )
    .expect("service construction cannot fail for linear weights");
    let path = std::env::temp_dir().join(format!("lrb-service-quick-{}.sock", std::process::id()));
    let server = ServiceServer::bind_uds(service.core(), &path, SEED)
        .expect("unix-domain bind cannot fail in temp dir");

    let pipeline = measure_pipeline_speedup(server.local_addr(), DRAWS, WINDOW)
        .unwrap_or_else(|error| panic!("pipeline section failed: {error}"));
    drop(server);
    for (serial, pipelined) in pipeline.serial_rps.iter().zip(&pipeline.pipelined_rps) {
        println!(
            "  serial {serial:>9.0} draws/s   pipelined({WINDOW}) {pipelined:>9.0} draws/s   \
             ratio {:.2}",
            pipelined / serial
        );
    }
    println!("  median pair ratio {:.2}", pipeline.speedup);

    if json {
        let report = QuickReport {
            host_threads: host_threads as u64,
            categories: CATEGORIES as u64,
            shards: SHARDS as u64,
            pipeline,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serialisation cannot fail")
        );
    }
}
