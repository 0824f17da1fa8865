//! Quick perf-smoke gate for incremental snapshot publishes.
//!
//! ```text
//! cargo run -p lrb-bench --release --bin publish_quick \
//!     [-- --gate-n 65536 --gate-dirty 0.01 --min-speedup 5.0 --json 1]
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
//! Exits non-zero when the Fenwick patch speedup at `--gate-n` /
//! `--gate-dirty` falls below `--min-speedup`. The gate reads the
//! **median** of [`GATE_PAIRS`] alternating rebuild/patch measurements at
//! that point (one read of one point swung 4.83–7.31× over six runs on a
//! 2-vCPU host), and it is **enforced on every host** — it compares two
//! single-thread code paths doing the same logical work, so it needs no
//! cores and no SIMD. The pair ratios and the measured-vs-threshold
//! margin (a [`GateMargin`]) are recorded in the `--json 1` report, the
//! `BENCH_publish.json` baseline.
//!
//! [`FrozenBackend::build`]: lrb_engine::FrozenBackend::build
//! [`FrozenBackend::try_patch`]: lrb_engine::FrozenBackend::try_patch

use lrb_bench::cli::{Options, OrExit};
use lrb_bench::gate::{print_margins, GateMargin};
use lrb_bench::publish_workload::{
    bench_backend_publish, bench_engine_publish, BackendPublishReport, EnginePublishReport,
};
use lrb_engine::{BackendRegistry, PatchPolicy};
use serde::Serialize;

/// Alternating rebuild/patch measurements of the gate point; the gate
/// reads their median.
const GATE_PAIRS: usize = 7;

/// The machine-readable report (`--json 1`), recorded as the
/// `BENCH_publish.json` baseline.
#[derive(Debug, Serialize)]
struct QuickReport {
    host_threads: u64,
    gate_n: u64,
    gate_dirty: f64,
    min_speedup: f64,
    /// Median of `gate_pairs`.
    speedup: f64,
    /// Rebuild-over-patch ratio of each gate pair, in measurement order.
    gate_pairs: Vec<f64>,
    gate_enforced: bool,
    sweep: Vec<BackendPublishReport>,
    engine: Vec<EnginePublishReport>,
    margins: Vec<GateMargin>,
}

fn main() {
    let options = Options::from_env();
    let gate_n = options.usize_or("gate-n", 1 << 16).or_exit();
    let gate_dirty = options.f64_or("gate-dirty", 0.01).or_exit();
    let min_speedup = options.f64_or("min-speedup", 5.0).or_exit();
    let budget = options.u64_or("budget", 1 << 23).or_exit();
    let rounds = options.usize_or("rounds", 64).or_exit();

    let host_threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let registry = BackendRegistry::standard();

    println!(
        "publish_quick: full rebuild vs incremental patch per backend, \
         host threads = {host_threads}\n"
    );

    let mut sizes = vec![1 << 12, 1 << 16, 1 << 18];
    if !sizes.contains(&gate_n) {
        sizes.push(gate_n);
        sizes.sort_unstable();
    }
    let dirty_fractions = [0.001, 0.01, 0.1];
    let mut sweep = Vec::new();
    for &n in &sizes {
        for &dirty in &dirty_fractions {
            for backend in registry.entries() {
                let report = bench_backend_publish(backend, n, dirty, false, budget);
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
            sweep.push(bench_backend_publish(backend, n, 0.01, true, budget));
        }
    }

    // The gate point, re-measured as alternating rebuild/patch pairs
    // (each `bench_backend_publish` times the rebuild, then the patch);
    // the median pair ratio is robust to a scheduler hiccup in a few.
    let fenwick = registry
        .get("fenwick")
        .expect("the standard registry has a fenwick backend");
    let gate_pairs: Vec<f64> = (0..GATE_PAIRS)
        .map(|_| {
            bench_backend_publish(fenwick, gate_n, gate_dirty, false, budget)
                .speedup
                .expect("fenwick has a patch path")
        })
        .collect();
    let mut sorted = gate_pairs.clone();
    sorted.sort_by(f64::total_cmp);
    let speedup = sorted[GATE_PAIRS / 2];

    println!(
        "\nend-to-end engine publish (fenwick, n = {gate_n}, {:.1}% dirty):",
        gate_dirty * 100.0
    );
    let mut engine = Vec::new();
    for policy in [PatchPolicy::Never, PatchPolicy::Always] {
        let report = bench_engine_publish(gate_n, gate_dirty, policy, rounds);
        println!(
            "  policy {:<7} {:>9.1} us/publish   ({} of {} patched)",
            report.policy, report.publish_us, report.patched, report.rounds
        );
        engine.push(report);
    }

    // Two single-thread code paths doing the same logical work: the gate
    // needs neither cores nor SIMD, so it is enforced everywhere.
    let gate_enforced = true;
    println!(
        "\nfenwick patch vs rebuild at n = {gate_n}, {:.1}% dirty: median {speedup:.2}x \
         of {GATE_PAIRS} pairs {:.2?} (gate: >= {min_speedup}x, enforced)",
        gate_dirty * 100.0,
        gate_pairs
    );

    let margins = vec![GateMargin::at_least(
        "fenwick_patch_speedup",
        speedup,
        min_speedup,
        gate_enforced,
    )];
    print_margins(&margins);

    if options.contains("json") {
        let report = QuickReport {
            host_threads: host_threads as u64,
            gate_n: gate_n as u64,
            gate_dirty,
            min_speedup,
            speedup,
            gate_pairs,
            gate_enforced,
            sweep,
            engine,
            margins: margins.clone(),
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serialisation cannot fail")
        );
    }

    if speedup < min_speedup {
        eprintln!("FAIL: expected the fenwick patch to be >= {min_speedup}x a full rebuild");
        std::process::exit(1);
    }
    println!("OK");
}
