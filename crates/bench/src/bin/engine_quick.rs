//! Per-backend report for the `lrb-engine` serving layer.
//!
//! ```text
//! cargo run -p lrb-bench --release --bin engine_quick [-- --json 1]
//! ```
//!
//! Runs the closed-loop engine driver once per registered backend: one
//! reader sampling lock-free against immutable snapshots while a writer
//! holds a 1:16 update:sample mix and publishes concurrently, 4096
//! uniform weights, 250 ms windows. It records samples/sec plus — via the
//! engine's observability layer — the publish-span latency distribution
//! (p50/p99/p999) of every run.
//!
//! This is a report, not a gate: nothing here compares two arms of one
//! workload, and the reader-scaling gate it used to carry could not be
//! enforced on the 2-vCPU recording host (extra readers starve the
//! publishing writer, so 1 → 2 readers read 2.96–3.80×). The `--json 1`
//! document is recorded as the `BENCH_engine.json` baseline.

use lrb_bench::cli::Options;
use lrb_bench::engine_workload::{run_driver, DriverConfig, DriverReport};
use lrb_engine::BackendRegistry;
use serde::Serialize;

/// The machine-readable report (`--json 1`), recorded as the
/// `BENCH_engine.json` baseline.
#[derive(Debug, Serialize)]
struct QuickReport {
    host_threads: u64,
    backends: Vec<DriverReport>,
}

fn main() {
    let json = Options::from_env(&["json"]).contains("json");
    let host_threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let base = DriverConfig::default();

    println!(
        "engine_quick: n = {}, 1 reader, 1:{} update:sample, {} ms windows, \
         host threads = {host_threads}\n",
        base.categories, base.samples_per_update, base.duration_ms
    );
    let mut backends = Vec::new();
    for name in BackendRegistry::standard().names() {
        let report = run_driver(&DriverConfig {
            backend: name,
            ..base
        });
        println!(
            "  {:<22} {:>12.0} samples/s   {} publishes, p50/p99/p999 {}/{}/{} ns",
            report.backend,
            report.samples_per_sec,
            report.publishes,
            report.publish_latency.p50_ns,
            report.publish_latency.p99_ns,
            report.publish_latency.p999_ns,
        );
        backends.push(report);
    }

    if json {
        let report = QuickReport {
            host_threads: host_threads as u64,
            backends,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serialisation cannot fail")
        );
    }
}
