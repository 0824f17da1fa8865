//! Quick perf-smoke gate for incremental snapshot publishes.
//!
//! ```text
//! cargo run -p lrb-bench --release --bin publish_quick [-- --json 1]
//! ```
//!
//! Sweeps publish latency over `n × dirty-fraction × backend`, comparing a
//! full snapshot rebuild ([`FrozenBackend::build`] over a copy of the
//! folded weights) against the incremental patch path
//! ([`FrozenBackend::try_patch`]: Fenwick point updates on a pooled copy,
//! stochastic-acceptance `O(d)` aggregate maintenance; the alias table has
//! no patch path and always rebuilds, single-threaded). An end-to-end engine section records
//! `SelectionEngine::publish` latency under `PatchPolicy::Never` versus
//! `Always`.
//!
//! The gate: the Fenwick patch must beat the rebuild ≥ 5.2× at n = 2¹⁶, 1 %
//! dirty, by the [`gate`] rule — the median of [`GATE_PAIRS`]
//! rebuild/patch pairs at that point, the path timed first flipping from
//! pair to pair. The pair ratios and the margin (a [`GateMargin`]) are
//! recorded in the `--json 1` report, the `BENCH_publish.json` baseline.
//!
//! [`FrozenBackend::build`]: lrb_engine::FrozenBackend::build
//! [`FrozenBackend::try_patch`]: lrb_engine::FrozenBackend::try_patch

use std::process::ExitCode;

use lrb_bench::cli::Options;
use lrb_bench::gate::{self, GateMargin, GATE_PAIRS};
use lrb_bench::publish_workload::{
    bench_backend_publish, bench_engine_publish, BackendPublishReport, EnginePublishReport,
};
use lrb_engine::{BackendRegistry, PatchPolicy};
use serde::Serialize;

/// The gate point: categories and dirty fraction.
const GATE_N: usize = 1 << 16;
const GATE_DIRTY: f64 = 0.01;
/// Bar of the Fenwick patch-over-rebuild speedup.
const MIN_SPEEDUP: f64 = 5.2;
/// Work per timed path: repetitions × n stays near this.
const BUDGET: u64 = 1 << 23;
/// Publish rounds of each end-to-end engine row.
const ROUNDS: usize = 64;

/// The machine-readable report (`--json 1`), recorded as the
/// `BENCH_publish.json` baseline.
#[derive(Debug, Serialize)]
struct QuickReport {
    host_threads: u64,
    gate_n: u64,
    gate_dirty: f64,
    /// Median of `gate_pairs`.
    speedup: f64,
    /// Rebuild-over-patch ratio of each gate pair, in measurement order.
    gate_pairs: Vec<f64>,
    sweep: Vec<BackendPublishReport>,
    engine: Vec<EnginePublishReport>,
    margins: Vec<GateMargin>,
}

fn main() -> ExitCode {
    let json = Options::from_env(&["json"]).contains("json");

    let host_threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let registry = BackendRegistry::standard();

    println!(
        "publish_quick: full rebuild vs incremental patch per backend, \
         host threads = {host_threads}\n"
    );

    let mut sweep = Vec::new();
    for n in [1 << 12, GATE_N, 1 << 18] {
        for dirty in [0.001, GATE_DIRTY, 0.1] {
            for backend in registry.entries() {
                let report = bench_backend_publish(backend, n, dirty, false, BUDGET, 0);
                let patch = match (report.patch_us, report.speedup) {
                    (Some(p), Some(s)) => format!("patch {p:>9.1} us   {s:>5.2}x"),
                    _ => "patch      (none)".to_string(),
                };
                println!(
                    "  n = 2^{:<2} dirty {:>5.1}%  {:<22} rebuild {:>9.1} us   {patch}",
                    (n as f64).log2() as u32,
                    dirty * 100.0,
                    report.backend,
                    report.rebuild_us,
                );
                sweep.push(report);
            }
        }
        // One evaporation-fold row per size for the record (scale ≠ 1 adds
        // a multiply pass to every patch).
        for backend in registry.entries() {
            sweep.push(bench_backend_publish(
                backend, n, GATE_DIRTY, true, BUDGET, 0,
            ));
        }
    }

    // The gate point, re-measured as rebuild/patch pairs.
    let fenwick = registry
        .get("fenwick")
        .expect("the standard registry has a fenwick backend");
    let gate_pairs: Vec<f64> = (0..GATE_PAIRS)
        .map(|pair| {
            bench_backend_publish(fenwick, GATE_N, GATE_DIRTY, false, BUDGET, pair)
                .speedup
                .expect("fenwick has a patch path")
        })
        .collect();
    let speedup = gate::median(&gate_pairs);

    println!(
        "\nend-to-end engine publish (fenwick, n = {GATE_N}, {:.1}% dirty):",
        GATE_DIRTY * 100.0
    );
    let mut engine = Vec::new();
    for policy in [PatchPolicy::Never, PatchPolicy::Always] {
        let report = bench_engine_publish(GATE_N, GATE_DIRTY, policy, ROUNDS);
        println!(
            "  policy {:<7} {:>9.1} us/publish   ({} of {} patched)",
            report.policy, report.publish_us, report.patched, report.rounds
        );
        engine.push(report);
    }

    println!(
        "\nfenwick patch vs rebuild at n = {GATE_N}, {:.1}% dirty: median {speedup:.2}x \
         of {GATE_PAIRS} pairs {gate_pairs:.2?} (gate: >= {MIN_SPEEDUP}x)",
        GATE_DIRTY * 100.0,
    );

    let report = QuickReport {
        host_threads: host_threads as u64,
        gate_n: GATE_N as u64,
        gate_dirty: GATE_DIRTY,
        speedup,
        gate_pairs,
        sweep,
        engine,
        margins: vec![GateMargin::at_least(
            "fenwick_patch_speedup",
            speedup,
            MIN_SPEEDUP,
        )],
    };
    gate::verdict(&report.margins, json.then_some(&report))
}
