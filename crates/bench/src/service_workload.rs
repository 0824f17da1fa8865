//! Open-loop socket load driver for the sharded selection service — the
//! workload behind the `service_quick` gate and the `BENCH_service.json`
//! baseline.
//!
//! ## Why open-loop
//!
//! A closed-loop driver (issue, wait, issue) silently slows down whenever
//! the service does: a stall shrinks the offered load instead of showing up
//! in the tail — the *coordinated omission* trap. This driver schedules
//! request `j` at the fixed instant `start + j/rate` and measures latency
//! from that **scheduled** time, not from when the request actually hit the
//! wire. If the service (or a queue in front of it) stalls, every request
//! scheduled during the stall is charged the full delay, which is exactly
//! what a p999 is supposed to surface.
//!
//! Requests are striped round-robin across a configurable number of client
//! connections, and latencies land in one shared lock-free [`Histogram`]
//! whose snapshot becomes a [`LatencySummary`].
//!
//! Two drivers live here:
//!
//! * [`run_open_loop`] — the original few-connection request/response
//!   sections (`single` and `batch`);
//! * [`run_fan_in`] — the 1000-connection storm: a handful of lane threads
//!   each own hundreds of connections (so the *client* is not
//!   thread-per-connection either, and the process thread count stays
//!   meaningful), optionally keeping a pipelined window in flight per
//!   connection. [`measure_pipeline_speedup`] is the closed-loop companion
//!   comparing serialized draws against the pipelined client on one
//!   connection.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lrb_obs::Histogram;
use lrb_service::{ServerAddr, ServiceClient, ServiceError};
use serde::Serialize;

use crate::engine_workload::LatencySummary;

/// Shape of one open-loop run.
#[derive(Debug, Clone, Copy)]
pub struct ServiceLoadConfig {
    /// Offered request rate, requests per second.
    pub rate_hz: f64,
    /// Total requests to issue.
    pub requests: u64,
    /// Client connections the requests are striped across.
    pub connections: usize,
    /// Draws per request: `0` issues single draws (each keyed by its
    /// connection and request ordinal), `b > 0` issues `draw_batch(b)`
    /// (one planner call per request).
    pub batch: u32,
}

impl Default for ServiceLoadConfig {
    fn default() -> Self {
        Self {
            rate_hz: 1_500.0,
            requests: 3_000,
            connections: 4,
            batch: 0,
        }
    }
}

/// Measured outcome of one open-loop run (serialisable for
/// `BENCH_service.json`).
#[derive(Debug, Clone, Serialize)]
pub struct ServiceLoadReport {
    /// `"single"` (one draw per request) or `"batch"` (buffer fills).
    pub mode: String,
    /// Offered request rate, requests per second.
    pub rate_hz: f64,
    /// Requests issued.
    pub requests: u64,
    /// Client connections used.
    pub connections: u64,
    /// Draws per request (1 for single-draw mode).
    pub batch: u64,
    /// Wall-clock seconds from the first scheduled instant to the last
    /// completion.
    pub duration_s: f64,
    /// Achieved request completion rate.
    pub achieved_rps: f64,
    /// Total category draws served.
    pub draws: u64,
    /// Request latency measured from the scheduled issue time.
    pub latency: LatencySummary,
}

/// Run one open-loop section against a live server. Connects
/// `config.connections` clients, schedules `config.requests` requests at
/// `config.rate_hz`, and reports scheduled-time latency percentiles.
pub fn run_open_loop(
    addr: &ServerAddr,
    config: &ServiceLoadConfig,
) -> Result<ServiceLoadReport, ServiceError> {
    let connections = config.connections.max(1);
    let rate_hz = config.rate_hz.max(1.0);

    // Connect and warm every client up-front (TLB/alloc/snapshot warm-up
    // and the TCP handshake stay out of the measured window).
    let mut clients = Vec::with_capacity(connections);
    for _ in 0..connections {
        let mut client = ServiceClient::connect(addr)?;
        if config.batch == 0 {
            client.draw()?;
        } else {
            client.draw_batch(config.batch)?;
        }
        clients.push(client);
    }

    let histogram = Arc::new(Histogram::new());
    // A small lead-in so every thread observes `start` in its future.
    let start = Instant::now() + Duration::from_millis(10);

    let mut handles = Vec::with_capacity(connections);
    for (lane, mut client) in clients.into_iter().enumerate() {
        let histogram = Arc::clone(&histogram);
        let requests = config.requests;
        let batch = config.batch;
        let stride = connections as u64;
        handles.push(std::thread::spawn(move || -> Result<u64, ServiceError> {
            let mut draws = 0u64;
            let mut j = lane as u64;
            while j < requests {
                let scheduled = start + Duration::from_secs_f64(j as f64 / rate_hz);
                let now = Instant::now();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                if batch == 0 {
                    client.draw()?;
                    draws += 1;
                } else {
                    draws += client.draw_batch(batch)?.len() as u64;
                }
                // Latency from the *scheduled* instant: queueing delay
                // (including a stalled service) is charged, not hidden.
                histogram.record(scheduled.elapsed().as_nanos() as u64);
                j += stride;
            }
            Ok(draws)
        }));
    }

    let mut draws = 0u64;
    for handle in handles {
        draws += handle.join().expect("load lane panicked")?;
    }
    let duration_s = start.elapsed().as_secs_f64();

    Ok(ServiceLoadReport {
        mode: if config.batch == 0 { "single" } else { "batch" }.to_string(),
        rate_hz,
        requests: config.requests,
        connections: connections as u64,
        batch: u64::from(config.batch.max(1)),
        duration_s,
        achieved_rps: config.requests as f64 / duration_s.max(f64::MIN_POSITIVE),
        draws,
        latency: LatencySummary::from_snapshot(&histogram.snapshot()),
    })
}

/// Shape of one fan-in storm.
#[derive(Debug, Clone, Copy)]
pub struct FanInConfig {
    /// Connections to open before the first draw (clamped to the process
    /// fd budget by [`run_fan_in`]).
    pub connections: usize,
    /// Lane threads driving the connections (each lane owns
    /// `connections / lanes` of them).
    pub lanes: usize,
    /// Offered request rate across all connections, requests per second.
    pub rate_hz: f64,
    /// Total requests to issue.
    pub requests: u64,
    /// Pipelined draws issued as one burst (queued, one flush, reaped in
    /// order) per scheduled slot; `<= 1` is strict request/response.
    pub window: usize,
}

impl Default for FanInConfig {
    fn default() -> Self {
        Self {
            connections: 1_000,
            lanes: 8,
            rate_hz: 2_000.0,
            requests: 4_000,
            window: 1,
        }
    }
}

/// Measured outcome of one fan-in storm.
#[derive(Debug, Clone, Serialize)]
pub struct FanInReport {
    /// `"fanin_single"` or `"fanin_pipelined"`.
    pub mode: String,
    /// Connections actually opened (after the fd-budget clamp).
    pub connections: u64,
    /// Lane threads used.
    pub lanes: u64,
    /// Pipelined window per connection (1 = request/response).
    pub window: u64,
    /// Offered request rate, requests per second.
    pub rate_hz: f64,
    /// Requests issued.
    pub requests: u64,
    /// Wall-clock seconds from the first scheduled instant to the last
    /// completion.
    pub duration_s: f64,
    /// Achieved request completion rate.
    pub achieved_rps: f64,
    /// Process thread count observed while every connection was open
    /// (server + lanes; the thread-per-connection regression detector).
    pub process_threads: u64,
    /// Request latency measured from the scheduled issue time.
    pub latency: LatencySummary,
}

/// The soft fd limit from `/proc/self/limits`, with the classic default as
/// the fallback (no `getrlimit` — this crate forbids unsafe code).
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

/// Threads in this process (`/proc/self/status`); 0 when unavailable.
pub fn process_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("Threads:")?.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Run one open-loop fan-in storm: open every connection (clamped to the
/// fd budget), then drive draws across all of them from `config.lanes`
/// threads. With `window > 1` each scheduled slot issues a whole window
/// of pipelined draws on one connection (queued back-to-back, one flush,
/// reaped in order), so the slot's requests share the wire and are drawn
/// server-side in one planner call. Latency is charged per request from
/// the slot's scheduled instant — a stalled service is charged its full
/// wait, never hidden by the driver slowing down.
pub fn run_fan_in(addr: &ServerAddr, config: &FanInConfig) -> Result<FanInReport, ServiceError> {
    // Each connection costs two fds in-process (client + server end).
    let connections = config
        .connections
        .min(fd_soft_limit().saturating_sub(128) / 2)
        .max(1);
    let lanes = config.lanes.clamp(1, connections);
    let window = config.window.max(1);
    let rate_hz = config.rate_hz.max(1.0);

    // Accept storm: every connection opens (and warms) before the clock
    // starts.
    let mut per_lane: Vec<Vec<ServiceClient>> = (0..lanes).map(|_| Vec::new()).collect();
    for c in 0..connections {
        let mut client = ServiceClient::connect(addr)?;
        client.draw()?;
        per_lane[c % lanes].push(client);
    }
    let threads = process_threads();

    let histogram = Arc::new(Histogram::new());
    let start = Instant::now() + Duration::from_millis(20);

    let mut handles = Vec::with_capacity(lanes);
    for (lane, mut clients) in per_lane.into_iter().enumerate() {
        let histogram = Arc::clone(&histogram);
        let requests = config.requests;
        let stride = lanes as u64;
        handles.push(std::thread::spawn(move || -> Result<(), ServiceError> {
            // Request indices are striped across lanes in window-sized
            // slots: lane `l` owns requests `[s*W, (s+1)*W)` for slots
            // `s ≡ l (mod lanes)`. A slot is scheduled at its first
            // request's instant, issues its whole window as one pipelined
            // burst on one connection and reaps it in order.
            let slot_stride = stride * window as u64;
            let mut j = lane as u64 * window as u64;
            let mut turn = 0usize;
            while j < requests {
                let burst = (window as u64).min(requests - j) as usize;
                let scheduled = start + Duration::from_secs_f64(j as f64 / rate_hz);
                let now = Instant::now();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                let c = turn % clients.len();
                turn += 1;
                if burst == 1 {
                    clients[c].draw()?;
                    histogram.record(scheduled.elapsed().as_nanos() as u64);
                } else {
                    for _ in 0..burst {
                        clients[c].queue_draw();
                    }
                    clients[c].flush()?;
                    for _ in 0..burst {
                        clients[c].recv_draw()?;
                        histogram.record(scheduled.elapsed().as_nanos() as u64);
                    }
                }
                j += slot_stride;
            }
            Ok(())
        }));
    }
    for handle in handles {
        handle.join().expect("fan-in lane panicked")?;
    }
    let duration_s = start.elapsed().as_secs_f64();

    Ok(FanInReport {
        mode: if window <= 1 {
            "fanin_single"
        } else {
            "fanin_pipelined"
        }
        .to_string(),
        connections: connections as u64,
        lanes: lanes as u64,
        window: window as u64,
        rate_hz,
        requests: config.requests,
        duration_s,
        achieved_rps: config.requests as f64 / duration_s.max(f64::MIN_POSITIVE),
        process_threads: threads,
        latency: LatencySummary::from_snapshot(&histogram.snapshot()),
    })
}

/// Closed-loop comparison of the serialized client (one round trip per
/// draw) against the pipelined client (`window` in flight) on one fresh
/// connection each.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineReport {
    /// Draws per side.
    pub draws: u64,
    /// Pipelined window.
    pub window: u64,
    /// Serialized draws per second.
    pub serial_rps: f64,
    /// Pipelined draws per second.
    pub pipelined_rps: f64,
    /// `pipelined_rps / serial_rps`.
    pub speedup: f64,
}

/// Measure [`PipelineReport`]: `draws` serialized single draws, then the
/// same count through [`ServiceClient::draw_pipelined`] with `window` in
/// flight, each on its own fresh connection.
pub fn measure_pipeline_speedup(
    addr: &ServerAddr,
    draws: u64,
    window: usize,
) -> Result<PipelineReport, ServiceError> {
    let mut serial = ServiceClient::connect(addr)?;
    serial.draw()?; // warm-up outside the timed window
    let started = Instant::now();
    for _ in 0..draws {
        serial.draw()?;
    }
    let serial_s = started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);

    let mut pipelined = ServiceClient::connect(addr)?;
    pipelined.draw()?;
    let started = Instant::now();
    let indices = pipelined.draw_pipelined(draws as usize, window)?;
    let pipelined_s = started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    assert_eq!(indices.len() as u64, draws, "pipelined run lost draws");

    let serial_rps = draws as f64 / serial_s;
    let pipelined_rps = draws as f64 / pipelined_s;
    Ok(PipelineReport {
        draws,
        window: window as u64,
        serial_rps,
        pipelined_rps,
        speedup: pipelined_rps / serial_rps.max(f64::MIN_POSITIVE),
    })
}

/// In-process comparison of the batch planner at the default thread
/// budget against the same service under a one-thread budget (see
/// [`measure_batch_speedup`]), draws measured through
/// [`ServiceCore::draw_into_with_plan`] with a warm
/// [`DrawPlan`](lrb_service::DrawPlan) on each side.
///
/// [`ServiceCore::draw_into_with_plan`]: lrb_service::ServiceCore::draw_into_with_plan
#[derive(Debug, Clone, Serialize)]
pub struct BatchPlanReport {
    /// Categories served.
    pub categories: u64,
    /// Shards the space was partitioned into.
    pub shards: u64,
    /// Draws per batch.
    pub batch: u64,
    /// Timed batches per side.
    pub iters: u64,
    /// Fan-out lanes the parallel side had (including the submitting
    /// thread).
    pub lanes: u64,
    /// Default-budget planner draws per second.
    pub parallel_rps: f64,
    /// One-lane planner draws per second.
    pub one_lane_rps: f64,
    /// `parallel_rps / one_lane_rps`.
    pub speedup: f64,
}

/// Measure [`BatchPlanReport`]: one in-process service timed over
/// `iters` warm batches of `batch` draws (best of two rounds per side),
/// once under the default thread budget and once under a one-thread
/// budget (`ThreadPool::install`, every slot range inline on the calling
/// thread). Both sides run the same layout, so only the lane count
/// differs.
pub fn measure_batch_speedup(
    categories: usize,
    shards: usize,
    batch: usize,
    iters: usize,
) -> Result<BatchPlanReport, ServiceError> {
    use lrb_rng::{Philox4x32, RandomSource, SeedableSource};
    use lrb_service::{DrawPlan, ServiceConfig, ShardedService};

    let weights: Vec<f64> = (0..categories).map(|i| ((i % 97) + 1) as f64).collect();
    let service = ShardedService::new(
        weights,
        ServiceConfig {
            shards,
            ..ServiceConfig::default()
        },
    )?;

    let mut out = vec![0usize; batch.max(1)];
    let iters = iters.max(1);
    let mut time_side = |seed: u64| -> f64 {
        let mut plan = DrawPlan::new();
        let mut rng = Philox4x32::seed_from_u64(seed);
        // Warm the plan's buffers and every shard's snapshot out of the
        // timed window.
        for _ in 0..3 {
            service
                .draw_into_with_plan(&mut rng as &mut dyn RandomSource, &mut out, &mut plan)
                .expect("warm-up batch failed");
        }
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let started = Instant::now();
            for _ in 0..iters {
                service
                    .draw_into_with_plan(&mut rng as &mut dyn RandomSource, &mut out, &mut plan)
                    .expect("timed batch failed");
            }
            best = best.min(started.elapsed().as_secs_f64());
        }
        (iters * out.len()) as f64 / best.max(f64::MIN_POSITIVE)
    };

    let lanes = service.fanout_lanes();
    let parallel_rps = time_side(0x5eed_0001);
    let one_lane = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the shim's pool builder cannot fail");
    let one_lane_rps = one_lane.install(|| time_side(0x5eed_0002));
    Ok(BatchPlanReport {
        categories: categories as u64,
        shards: shards as u64,
        batch: out.len() as u64,
        iters: iters as u64,
        lanes: lanes as u64,
        parallel_rps,
        one_lane_rps,
        speedup: parallel_rps / one_lane_rps.max(f64::MIN_POSITIVE),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_service::{ServiceConfig, ServiceServer, ShardedService};

    #[test]
    fn open_loop_driver_issues_every_request() {
        let service = ShardedService::new(
            (1..=32).map(f64::from).collect(),
            ServiceConfig {
                shards: 4,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let server = ServiceServer::bind_tcp(service.core(), "127.0.0.1:0", 7).unwrap();
        let report = run_open_loop(
            server.local_addr(),
            &ServiceLoadConfig {
                rate_hz: 2_000.0,
                requests: 200,
                connections: 2,
                batch: 0,
            },
        )
        .unwrap();
        assert_eq!(report.mode, "single");
        assert_eq!(report.requests, 200);
        assert_eq!(report.draws, 200);
        assert_eq!(report.latency.count, 200);
        assert!(report.latency.p99_ns > 0);
        assert!(report.duration_s >= 200.0 / 2_000.0 * 0.5);

        let batch = run_open_loop(
            server.local_addr(),
            &ServiceLoadConfig {
                rate_hz: 500.0,
                requests: 20,
                connections: 1,
                batch: 16,
            },
        )
        .unwrap();
        assert_eq!(batch.mode, "batch");
        assert_eq!(batch.draws, 20 * 16);
        drop(server);
    }

    #[test]
    fn fan_in_driver_answers_every_request_in_both_modes() {
        let service = ShardedService::new(
            (1..=32).map(f64::from).collect(),
            ServiceConfig {
                shards: 4,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let server = ServiceServer::bind_tcp(service.core(), "127.0.0.1:0", 11).unwrap();
        for window in [1usize, 4] {
            let report = run_fan_in(
                server.local_addr(),
                &FanInConfig {
                    connections: 32,
                    lanes: 4,
                    rate_hz: 4_000.0,
                    requests: 256,
                    window,
                },
            )
            .unwrap();
            assert_eq!(report.connections, 32);
            assert_eq!(report.latency.count, 256);
            assert!(report.process_threads > 0);
            assert_eq!(
                report.mode,
                if window == 1 {
                    "fanin_single"
                } else {
                    "fanin_pipelined"
                }
            );
        }
        drop(server);
    }

    #[test]
    fn batch_speedup_measures_both_planners() {
        let report = measure_batch_speedup(256, 4, 512, 4).unwrap();
        assert_eq!(report.categories, 256);
        assert_eq!(report.shards, 4);
        assert_eq!(report.batch, 512);
        assert!(report.lanes >= 1);
        assert!(report.parallel_rps > 0.0);
        assert!(report.one_lane_rps > 0.0);
        assert!(report.speedup > 0.0);
    }

    #[test]
    fn pipeline_speedup_measures_both_sides() {
        let service =
            ShardedService::new((1..=32).map(f64::from).collect(), ServiceConfig::default())
                .unwrap();
        let server = ServiceServer::bind_tcp(service.core(), "127.0.0.1:0", 13).unwrap();
        let report = measure_pipeline_speedup(server.local_addr(), 200, 16).unwrap();
        assert_eq!(report.draws, 200);
        assert!(report.serial_rps > 0.0);
        assert!(report.pipelined_rps > 0.0);
        assert!(report.speedup > 0.0);
        drop(server);
    }
}
