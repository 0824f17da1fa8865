//! Quick gate for the `lrb-engine` serving layer.
//!
//! ```text
//! cargo run -p lrb-bench --release --bin engine_quick \
//!     [-- --n 4096 --readers 8 --ratio 16 --duration-ms 250 \
//!         --min-speedup 3.0 --timing-every 32 --json 1]
//! ```
//!
//! **Snapshot-isolation scaling** — reader threads sample lock-free against
//! immutable snapshots, so sample throughput should scale with readers
//! while a writer publishes concurrently. Measures samples/sec at 1 reader
//! and at `--readers` readers (default 8) with a 1:`--ratio` update:sample
//! mix (default 1:16) on the driver's default backend
//! (`stochastic-acceptance`, see `DriverConfig`), plus a per-backend
//! single-reader comparison. Exits non-zero when the reader-scaling
//! speedup falls below `--min-speedup` — but only on hosts that actually
//! have `--readers` hardware threads; on smaller hosts the gate is
//! advisory (printed, not enforced), because the scaling being measured is
//! physical parallelism.
//!
//! The `--json 1` report (recorded as the `BENCH_engine.json` baseline)
//! includes — via the engine's observability layer — the publish-span and
//! sampled reader-draw latency distributions (p50/p99/p999) of every
//! driver run, plus the scaling [`GateMargin`]. An enforced scaling miss is
//! re-measured once before the verdict counts. `--timing-every N` controls
//! the 1-in-N reader-timing sample rate (default 32; `0` turns reader
//! timing off, leaving the sample-latency summaries empty).

use lrb_bench::cli::{Options, OrExit};
use lrb_bench::engine_workload::{run_driver, DriverConfig, DriverReport};
use lrb_bench::gate::{print_margins, GateMargin};
use lrb_engine::BackendRegistry;
use serde::Serialize;

/// The machine-readable report (`--json 1`), recorded as the
/// `BENCH_engine.json` baseline.
#[derive(Debug, Serialize)]
struct QuickReport {
    host_threads: u64,
    min_speedup: f64,
    speedup: f64,
    gate_enforced: bool,
    reader_scaling: Vec<DriverReport>,
    backends: Vec<DriverReport>,
    margins: Vec<GateMargin>,
}

fn main() {
    let options = Options::from_env();
    let n = options.usize_or("n", 4096).or_exit();
    let readers = options.usize_or("readers", 8).or_exit().max(2);
    let ratio = options.u64_or("ratio", 16).or_exit().max(1);
    let duration_ms = options.u64_or("duration-ms", 250).or_exit();
    let min_speedup = options.f64_or("min-speedup", 3.0).or_exit();
    let timing_every = options
        .u64_or("timing-every", 32)
        .or_exit()
        .min(u32::MAX as u64) as u32;
    let seed = options.u64_or("seed", 2024).or_exit();

    let host_threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);

    let base = DriverConfig {
        categories: n,
        samples_per_update: ratio,
        duration_ms,
        reader_timing_every: timing_every,
        seed,
        ..DriverConfig::default()
    };

    println!(
        "engine_quick: n = {n}, 1:{ratio} update:sample, {duration_ms} ms windows, \
         host threads = {host_threads}\n"
    );

    println!(
        "reader scaling ({}, writer publishing concurrently):",
        base.backend
    );
    let mut reader_scaling = Vec::new();
    for r in [1usize, readers] {
        let report = run_driver(&DriverConfig { readers: r, ..base });
        println!(
            "  {:>2} readers   {:>12.0} samples/s   ({} publishes, backend {})",
            r, report.samples_per_sec, report.publishes, report.backend
        );
        println!(
            "              publish ns p50/p99/p999 = {}/{}/{}   \
             draw ns p50/p99/p999 = {}/{}/{} ({} timed)",
            report.publish_latency.p50_ns,
            report.publish_latency.p99_ns,
            report.publish_latency.p999_ns,
            report.sample_latency.p50_ns,
            report.sample_latency.p99_ns,
            report.sample_latency.p999_ns,
            report.sample_latency.count
        );
        reader_scaling.push(report);
    }
    let mut speedup =
        reader_scaling[1].samples_per_sec / reader_scaling[0].samples_per_sec.max(1.0);

    println!("\nbackends at 1 reader:");
    let mut backends = Vec::new();
    for name in BackendRegistry::standard().names() {
        let report = run_driver(&DriverConfig {
            readers: 1,
            backend: name,
            ..base
        });
        println!(
            "  {:<22} {:>12.0} samples/s",
            report.backend, report.samples_per_sec
        );
        backends.push(report);
    }

    // The scaling gate measures physical reader parallelism; a host with
    // fewer hardware threads than readers cannot exhibit it, so there the
    // result is advisory.
    let gate_enforced = host_threads >= readers;

    // Thin-margin hardening: an enforced scaling miss is re-measured once
    // and the better pair kept — scheduler noise on a shared host passes on
    // retry, a real scaling regression fails twice.
    if gate_enforced && speedup < min_speedup {
        eprintln!("  (scaling {speedup:.2}x under the bar; re-measuring the pair once)");
        let one = run_driver(&DriverConfig { readers: 1, ..base });
        let many = run_driver(&DriverConfig { readers, ..base });
        speedup = speedup.max(many.samples_per_sec / one.samples_per_sec.max(1.0));
    }

    println!(
        "\nsnapshot-isolated read scaling 1 -> {readers} readers: {speedup:.2}x \
         (gate: >= {min_speedup}x, {})",
        if gate_enforced {
            "enforced"
        } else {
            "advisory on this host"
        }
    );

    let margins = vec![GateMargin::at_least(
        "reader_scaling",
        speedup,
        min_speedup,
        gate_enforced,
    )];
    print_margins(&margins);

    if options.contains("json") {
        let report = QuickReport {
            host_threads: host_threads as u64,
            min_speedup,
            speedup,
            gate_enforced,
            reader_scaling,
            backends,
            margins,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serialisation cannot fail")
        );
    }

    if gate_enforced && speedup < min_speedup {
        eprintln!("FAIL: expected >= {min_speedup}x reader scaling");
        std::process::exit(1);
    }
    println!("OK");
}
