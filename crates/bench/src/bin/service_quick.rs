//! Quick perf-smoke gate for the sharded selection service.
//!
//! ```text
//! cargo run -p lrb-bench --release --bin service_quick \
//!     [-- --categories 4096 --shards 4 --rate 1500 --requests 3000 \
//!         --max-p99-us 5000 --json 1]
//! ```
//!
//! Spins up a [`ShardedService`] fronted by a [`ServiceServer`] on a
//! Unix-domain socket, with per-shard publisher threads and a
//! background writer churning weights, then drives it with the **open-loop**
//! [`service_workload`](lrb_bench::service_workload) driver: request `j` is
//! scheduled at `start + j/rate` and latency is measured from that scheduled
//! instant, so a stalled write path surfaces in the tail instead of being
//! hidden by coordinated omission. Two sections run: single draws (each
//! from its connection's server-side RNG, executed on the reactor that
//! read it) and batch draws (the fused buffer-fill path).
//!
//! Gates (all recorded as [`GateMargin`]s in the `--json 1` report, the
//! `BENCH_service.json` baseline):
//!
//! * `service_single_p99_us` / `service_batch_p99_us` — the open-loop p99
//!   must stay under `--max-p99-us`. The bound is a *generous absolute*
//!   number (default 5 ms against a typical sub-100 µs p99) so the gate
//!   catches stalls, not scheduler jitter; a thin-margin failure is
//!   re-measured once and the better run kept.
//! * `service_chi_square` — 30 000 end-to-end socket draws against a
//!   24-category wheel must match the flat single-level law at the 1 %
//!   level, best of two connections (a correct sampler fails twice with
//!   probability ~10⁻⁴).
//! * `service_fanin_p99_us` / `service_fanin_pipelined_p99_us` — the
//!   1000-connection open-loop storm (strict request/response, then a
//!   pipelined window per connection) must keep its p99 under
//!   `--max-fanin-p99-us` (generous absolute; the storm is the epoll
//!   reactor's reason to exist).
//! * `service_fanin_threads` — the process thread count observed with
//!   every storm connection open must stay under `--max-threads`:
//!   O(reactors + shards), never O(connections).
//! * `service_pipeline_speedup` — the pipelined client must push at least
//!   `--min-pipeline-speedup`× the serialized client's single-draw
//!   throughput on one connection (closed loop, batch 1).
//! * `service_batch_speedup` — the in-process batch planner at its auto
//!   fan-out lane count must push at least `--min-batch-speedup`× the
//!   same planner's draw throughput held to one lane, at `--plan-batch`
//!   draws per batch (fenwick pinned on both sides). **Core-gated**:
//!   enforced only when the host has at least 4 threads — on fewer cores
//!   the fan-out pool has no parallelism to spend and the margin is
//!   advisory.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lrb_bench::cli::{Options, OrExit};
use lrb_bench::gate::{print_margins, GateMargin};
use lrb_bench::service_workload::{
    measure_batch_speedup, measure_pipeline_speedup, run_fan_in, run_open_loop, BatchPlanReport,
    FanInConfig, FanInReport, PipelineReport, ServiceLoadConfig, ServiceLoadReport,
};
use lrb_service::{ServerAddr, ServiceClient, ServiceConfig, ServiceServer, ShardedService};
use lrb_stats::chi_square_gof;
use serde::Serialize;

/// The machine-readable report (`--json 1`), recorded as the
/// `BENCH_service.json` baseline.
#[derive(Debug, Serialize)]
struct QuickReport {
    host_threads: u64,
    categories: u64,
    shards: u64,
    publish_interval_ms: u64,
    max_p99_us: f64,
    max_fanin_p99_us: f64,
    max_threads: f64,
    min_pipeline_speedup: f64,
    min_batch_speedup: f64,
    batch_speedup_enforced: bool,
    single: ServiceLoadReport,
    batch: ServiceLoadReport,
    fanin_single: FanInReport,
    fanin_pipelined: FanInReport,
    pipeline: PipelineReport,
    batch_plan: BatchPlanReport,
    chi_square_consistent: bool,
    margins: Vec<GateMargin>,
}

fn p99_us(report: &ServiceLoadReport) -> f64 {
    report.latency.p99_ns as f64 / 1_000.0
}

fn fanin_p99_us(report: &FanInReport) -> f64 {
    report.latency.p99_ns as f64 / 1_000.0
}

/// Run a fan-in storm; on a p99 miss, re-measure once and keep the better
/// run (same retry semantics as the request/response sections).
fn fan_in_with_retry(addr: &ServerAddr, config: &FanInConfig, max_p99_us: f64) -> FanInReport {
    let first = run_fan_in(addr, config).unwrap_or_else(|error| {
        eprintln!("fan-in section failed: {error}");
        std::process::exit(1);
    });
    if fanin_p99_us(&first) <= max_p99_us {
        return first;
    }
    eprintln!(
        "  (fan-in p99 {:.1} us over the {max_p99_us:.0} us bound; re-measuring once)",
        fanin_p99_us(&first)
    );
    let second = run_fan_in(addr, config).unwrap_or_else(|error| {
        eprintln!("fan-in section failed: {error}");
        std::process::exit(1);
    });
    if fanin_p99_us(&second) < fanin_p99_us(&first) {
        second
    } else {
        first
    }
}

/// Run a section; on a gate miss, re-measure once and keep the better run
/// (one retry absorbs a one-off scheduler hiccup without masking a real
/// stall, which fails twice).
fn measure_with_retry(
    addr: &ServerAddr,
    config: &ServiceLoadConfig,
    max_p99_us: f64,
) -> ServiceLoadReport {
    let first = run_open_loop(addr, config).unwrap_or_else(|error| {
        eprintln!("service load section failed: {error}");
        std::process::exit(1);
    });
    if p99_us(&first) <= max_p99_us {
        return first;
    }
    eprintln!(
        "  (p99 {:.1} us over the {max_p99_us:.0} us bound; re-measuring once)",
        p99_us(&first)
    );
    let second = run_open_loop(addr, config).unwrap_or_else(|error| {
        eprintln!("service load section failed: {error}");
        std::process::exit(1);
    });
    if p99_us(&second) < p99_us(&first) {
        second
    } else {
        first
    }
}

/// End-to-end conformance: a fresh 24-category service, 30 000 socket
/// draws, chi-square against the flat law. One connection = one server-side
/// RNG stream, so "best of two seeds" is best of two connections.
fn chi_square_end_to_end(seed: u64) -> bool {
    let weights: Vec<f64> = (1..=24).map(f64::from).collect();
    let service = ShardedService::new(
        weights.clone(),
        ServiceConfig {
            shards: 6,
            ..ServiceConfig::default()
        },
    )
    .expect("conformance service construction cannot fail");
    let server = ServiceServer::bind_tcp(service.core(), "127.0.0.1:0", seed)
        .expect("loopback bind cannot fail");
    let total: f64 = weights.iter().sum();
    let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
    let consistent = || {
        let mut client = ServiceClient::connect(server.local_addr()).expect("connect");
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..10 {
            for index in client.draw_batch(3_000).expect("draw_batch") {
                counts[index] += 1;
            }
        }
        chi_square_gof(&counts, &probs).is_consistent(0.01)
    };
    consistent() || consistent()
}

fn main() {
    let options = Options::from_env();
    let categories = options.usize_or("categories", 4096).or_exit();
    let shards = options.usize_or("shards", 4).or_exit();
    let rate = options.f64_or("rate", 1_500.0).or_exit();
    let requests = options.u64_or("requests", 3_000).or_exit();
    let connections = options.usize_or("connections", 4).or_exit();
    let batch = options.u64_or("batch", 64).or_exit() as u32;
    let batch_rate = options.f64_or("batch-rate", 100.0).or_exit();
    let batch_requests = options.u64_or("batch-requests", 200).or_exit();
    let max_p99_us = options.f64_or("max-p99-us", 5_000.0).or_exit();
    let publish_interval_ms = options.u64_or("publish-ms", 2).or_exit();
    let seed = options.u64_or("seed", 0x05EC_71CE).or_exit();
    let fanin_connections = options.usize_or("fanin-connections", 1_000).or_exit();
    let fanin_lanes = options.usize_or("fanin-lanes", 8).or_exit();
    let fanin_rate = options.f64_or("fanin-rate", 2_000.0).or_exit();
    let fanin_requests = options.u64_or("fanin-requests", 4_000).or_exit();
    let fanin_window = options.usize_or("fanin-window", 8).or_exit();
    let max_fanin_p99_us = options.f64_or("max-fanin-p99-us", 20_000.0).or_exit();
    let max_threads = options.f64_or("max-threads", 64.0).or_exit();
    let pipeline_draws = options.u64_or("pipeline-draws", 2_000).or_exit();
    let pipeline_window = options.usize_or("pipeline-window", 32).or_exit();
    let min_pipeline_speedup = options.f64_or("min-pipeline-speedup", 2.0).or_exit();
    let plan_batch = options.usize_or("plan-batch", 4_096).or_exit();
    let plan_iters = options.usize_or("plan-iters", 200).or_exit();
    let min_batch_speedup = options.f64_or("min-batch-speedup", 2.0).or_exit();

    let host_threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);

    println!(
        "service_quick: open-loop p50/p99/p999 against a {shards}-shard service \
         over {categories} categories, host threads = {host_threads}\n"
    );

    // The service under test: per-shard publisher threads on, a writer
    // churning weights in the background — the latency sections measure the
    // read path *with* the write path live, which is the regression the
    // stall fix exists to prevent.
    let mut service = ShardedService::new(
        (1..=categories as u64).map(|w| w as f64).collect(),
        ServiceConfig {
            shards,
            publish_interval: Some(Duration::from_millis(publish_interval_ms.max(1))),
            ..ServiceConfig::default()
        },
    )
    .expect("service construction cannot fail for linear weights");

    let path = std::env::temp_dir().join(format!("lrb-service-quick-{}.sock", std::process::id()));
    let server = ServiceServer::bind_uds(service.core(), &path, seed)
        .expect("unix-domain bind cannot fail in temp dir");
    let addr = server.local_addr().clone();

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = ServiceClient::connect(&addr).expect("writer connect");
            let mut round = 0u64;
            while !stop.load(Ordering::Acquire) {
                let index = (round as usize * 97) % categories;
                client
                    .update(index, (round % 100 + 1) as f64)
                    .expect("writer update");
                if round.is_multiple_of(8) {
                    client.scale_all(1.0).expect("writer scale");
                }
                round += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let single = measure_with_retry(
        &addr,
        &ServiceLoadConfig {
            rate_hz: rate,
            requests,
            connections,
            batch: 0,
        },
        max_p99_us,
    );
    println!(
        "  single draws  {:>7.0} req/s offered  p50 {:>8.1} us  p99 {:>8.1} us  p999 {:>8.1} us",
        single.rate_hz,
        single.latency.p50_ns as f64 / 1_000.0,
        p99_us(&single),
        single.latency.p999_ns as f64 / 1_000.0,
    );

    let batch_report = measure_with_retry(
        &addr,
        &ServiceLoadConfig {
            rate_hz: batch_rate,
            requests: batch_requests,
            connections: connections.min(2),
            batch,
        },
        max_p99_us,
    );
    println!(
        "  batch({batch}) draws {:>6.0} req/s offered  p50 {:>8.1} us  p99 {:>8.1} us  p999 {:>8.1} us",
        batch_report.rate_hz,
        batch_report.latency.p50_ns as f64 / 1_000.0,
        p99_us(&batch_report),
        batch_report.latency.p999_ns as f64 / 1_000.0,
    );

    // The fan-in storm: the reactor's reason to exist. Strict
    // request/response first, then the same storm with a pipelined window
    // per connection. Thread count is sampled while every connection is
    // open — thread-per-connection would show up as ~connections threads.
    let fanin_single = fan_in_with_retry(
        &addr,
        &FanInConfig {
            connections: fanin_connections,
            lanes: fanin_lanes,
            rate_hz: fanin_rate,
            requests: fanin_requests,
            window: 1,
        },
        max_fanin_p99_us,
    );
    println!(
        "  fanin single   {:>4} conns {:>7.0} req/s  p50 {:>8.1} us  p99 {:>8.1} us  p999 {:>8.1} us  threads {}",
        fanin_single.connections,
        fanin_single.rate_hz,
        fanin_single.latency.p50_ns as f64 / 1_000.0,
        fanin_p99_us(&fanin_single),
        fanin_single.latency.p999_ns as f64 / 1_000.0,
        fanin_single.process_threads,
    );
    let fanin_pipelined = fan_in_with_retry(
        &addr,
        &FanInConfig {
            connections: fanin_connections,
            lanes: fanin_lanes,
            rate_hz: fanin_rate,
            requests: fanin_requests,
            window: fanin_window,
        },
        max_fanin_p99_us,
    );
    println!(
        "  fanin pipe({fanin_window}) {:>4} conns {:>7.0} req/s  p50 {:>8.1} us  p99 {:>8.1} us  p999 {:>8.1} us  threads {}",
        fanin_pipelined.connections,
        fanin_pipelined.rate_hz,
        fanin_pipelined.latency.p50_ns as f64 / 1_000.0,
        fanin_p99_us(&fanin_pipelined),
        fanin_pipelined.latency.p999_ns as f64 / 1_000.0,
        fanin_pipelined.process_threads,
    );

    // Closed-loop pipelining payoff on one connection; retry once on a
    // miss (the serialized side is syscall-bound and jitter-prone).
    let pipeline = {
        let first = measure_pipeline_speedup(&addr, pipeline_draws, pipeline_window)
            .unwrap_or_else(|error| {
                eprintln!("pipeline section failed: {error}");
                std::process::exit(1);
            });
        if first.speedup >= min_pipeline_speedup {
            first
        } else {
            eprintln!(
                "  (pipeline speedup {:.2}x under the {min_pipeline_speedup:.1}x bar; re-measuring once)",
                first.speedup
            );
            let second = measure_pipeline_speedup(&addr, pipeline_draws, pipeline_window)
                .unwrap_or_else(|error| {
                    eprintln!("pipeline section failed: {error}");
                    std::process::exit(1);
                });
            if second.speedup > first.speedup {
                second
            } else {
                first
            }
        }
    };
    println!(
        "  pipeline({pipeline_window})   serial {:>8.0} draws/s  pipelined {:>8.0} draws/s  speedup {:.2}x",
        pipeline.serial_rps, pipeline.pipelined_rps, pipeline.speedup,
    );

    stop.store(true, Ordering::Release);
    writer.join().expect("writer thread");
    drop(server);
    service.shutdown();

    let chi_square_consistent = chi_square_end_to_end(seed ^ 0xC41);
    println!(
        "  chi-square conformance over the socket (24 categories, 30k draws): {}",
        if chi_square_consistent {
            "consistent"
        } else {
            "INCONSISTENT"
        }
    );

    // The lane comparison is in-process (it builds its own services); it
    // runs after the server is down so the storm's threads don't contend
    // with the fan-out lanes. Core-gated like the engine's reader
    // scaling: with fewer than 4 host threads the pool has no parallelism
    // to spend, so the margin is recorded but advisory. Retry once on an
    // enforced miss (same jitter policy as every other gate).
    let batch_speedup_enforced = host_threads >= 4;
    let batch_plan = {
        let first = measure_batch_speedup(categories, shards, plan_batch, plan_iters)
            .unwrap_or_else(|error| {
                eprintln!("batch-plan section failed: {error}");
                std::process::exit(1);
            });
        if !batch_speedup_enforced || first.speedup >= min_batch_speedup {
            first
        } else {
            eprintln!(
                "  (batch-plan speedup {:.2}x under the {min_batch_speedup:.1}x bar; re-measuring once)",
                first.speedup
            );
            let second = measure_batch_speedup(categories, shards, plan_batch, plan_iters)
                .unwrap_or_else(|error| {
                    eprintln!("batch-plan section failed: {error}");
                    std::process::exit(1);
                });
            if second.speedup > first.speedup {
                second
            } else {
                first
            }
        }
    };
    println!(
        "  batch plan({plan_batch}) {} lanes {:>9.0} draws/s  1 lane {:>9.0} draws/s  speedup {:.2}x",
        batch_plan.lanes, batch_plan.parallel_rps, batch_plan.one_lane_rps, batch_plan.speedup,
    );

    // Every gate except the planner speedup is absolute or statistical —
    // no core-count dependence — and enforced on every host.
    let storm_threads = fanin_single
        .process_threads
        .max(fanin_pipelined.process_threads);
    let margins = vec![
        GateMargin::at_most("service_single_p99_us", p99_us(&single), max_p99_us, true),
        GateMargin::at_most(
            "service_batch_p99_us",
            p99_us(&batch_report),
            max_p99_us,
            true,
        ),
        GateMargin::at_most(
            "service_fanin_p99_us",
            fanin_p99_us(&fanin_single),
            max_fanin_p99_us,
            true,
        ),
        GateMargin::at_most(
            "service_fanin_pipelined_p99_us",
            fanin_p99_us(&fanin_pipelined),
            max_fanin_p99_us,
            true,
        ),
        GateMargin::at_most(
            "service_fanin_threads",
            storm_threads as f64,
            max_threads,
            true,
        ),
        GateMargin::at_least(
            "service_pipeline_speedup",
            pipeline.speedup,
            min_pipeline_speedup,
            true,
        ),
        GateMargin::at_least(
            "service_batch_speedup",
            batch_plan.speedup,
            min_batch_speedup,
            batch_speedup_enforced,
        ),
        GateMargin::conformance("service_chi_square", chi_square_consistent, true),
    ];
    print_margins(&margins);

    let failed = margins.iter().any(|m| m.enforced && !m.passed);

    if options.contains("json") {
        let report = QuickReport {
            host_threads: host_threads as u64,
            categories: categories as u64,
            shards: shards as u64,
            publish_interval_ms,
            max_p99_us,
            max_fanin_p99_us,
            max_threads,
            min_pipeline_speedup,
            min_batch_speedup,
            batch_speedup_enforced,
            single,
            batch: batch_report,
            fanin_single,
            fanin_pipelined,
            pipeline,
            batch_plan,
            chi_square_consistent,
            margins,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serialisation cannot fail")
        );
    }

    if failed {
        eprintln!("FAIL: a service gate missed its threshold (see margins above)");
        std::process::exit(1);
    }
    println!("OK");
}
