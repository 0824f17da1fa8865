//! Pipelining payoff on one connection of the sharded selection service —
//! the workload behind the `service_quick` report and the
//! `BENCH_service.json` baseline.
//!
//! [`measure_pipeline_speedup`] compares the serialized client (one round
//! trip per `DRAW`) against the pipelined client (a window of `DRAW`s in
//! flight) as closed loops on fresh connections, in [`GATE_PAIRS`] pairs
//! whose arm order flips from pair to pair (the [`gate`] rule).

use std::time::Instant;

use lrb_service::{ServerAddr, ServiceClient, ServiceError};
use serde::Serialize;

use crate::gate::{self, GATE_PAIRS};

/// Serialized against pipelined single-draw throughput on one connection.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineReport {
    /// Draws per side of each pair.
    pub draws: u64,
    /// Pipelined window.
    pub window: u64,
    /// Serialized draws per second, per pair in measurement order.
    pub serial_rps: Vec<f64>,
    /// Pipelined draws per second, per pair.
    pub pipelined_rps: Vec<f64>,
    /// `pipelined_rps / serial_rps` of each pair.
    pub pairs: Vec<f64>,
    /// Median of `pairs`.
    pub speedup: f64,
}

/// Draws per second of `draws` serialized single draws on a fresh
/// connection (warmed by one draw outside the timed window).
fn serial_rps(addr: &ServerAddr, draws: u64) -> Result<f64, ServiceError> {
    let mut client = ServiceClient::connect(addr)?;
    client.draw()?;
    let started = Instant::now();
    for _ in 0..draws {
        client.draw()?;
    }
    Ok(draws as f64 / started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE))
}

/// Draws per second of `draws` single draws through
/// [`ServiceClient::draw_pipelined`] with `window` in flight, on a fresh
/// connection.
fn pipelined_rps(addr: &ServerAddr, draws: u64, window: usize) -> Result<f64, ServiceError> {
    let mut client = ServiceClient::connect(addr)?;
    client.draw()?;
    let started = Instant::now();
    let indices = client.draw_pipelined(draws as usize, window)?;
    let elapsed = started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    assert_eq!(indices.len() as u64, draws, "pipelined run lost draws");
    Ok(draws as f64 / elapsed)
}

/// Measure [`PipelineReport`]: [`GATE_PAIRS`] pairs of `draws` serialized
/// and `draws` pipelined single draws, serial first on even pairs.
pub fn measure_pipeline_speedup(
    addr: &ServerAddr,
    draws: u64,
    window: usize,
) -> Result<PipelineReport, ServiceError> {
    let mut report = PipelineReport {
        draws,
        window: window as u64,
        serial_rps: Vec::with_capacity(GATE_PAIRS),
        pipelined_rps: Vec::with_capacity(GATE_PAIRS),
        pairs: Vec::with_capacity(GATE_PAIRS),
        speedup: 0.0,
    };
    for pair in 0..GATE_PAIRS {
        let (serial, pipelined) = gate::alternate(
            pair,
            || serial_rps(addr, draws),
            || pipelined_rps(addr, draws, window),
        );
        let (serial, pipelined) = (serial?, pipelined?);
        report.serial_rps.push(serial);
        report.pipelined_rps.push(pipelined);
        report.pairs.push(pipelined / serial);
    }
    report.speedup = gate::median(&report.pairs);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_service::{ServiceConfig, ServiceServer, ShardedService};

    #[test]
    fn pipeline_speedup_measures_both_sides() {
        let service =
            ShardedService::new((1..=32).map(f64::from).collect(), ServiceConfig::default())
                .unwrap();
        let server = ServiceServer::bind_tcp(service.core(), "127.0.0.1:0", 13).unwrap();
        let report = measure_pipeline_speedup(server.local_addr(), 200, 16).unwrap();
        assert_eq!(report.draws, 200);
        assert_eq!(report.pairs.len(), GATE_PAIRS);
        assert!(report.serial_rps.iter().all(|&rps| rps > 0.0));
        assert!(report.pipelined_rps.iter().all(|&rps| rps > 0.0));
        assert!(report.pairs.contains(&report.speedup));
        drop(server);
    }
}
