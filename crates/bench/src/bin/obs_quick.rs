//! Quick gate for the `lrb-obs` telemetry layer as wired through the
//! engine.
//!
//! ```text
//! cargo run -p lrb-bench --release --bin obs_quick [-- --json 1]
//! ```
//!
//! Two checks:
//!
//! 1. **Overhead** — telemetry must be cheap enough to leave on. Runs
//!    [`GATE_PAIRS`] pairs of the closed-loop engine driver (4096 uniform
//!    weights, one reader, 1:16 update:sample, 250 ms windows),
//!    uninstrumented (`reader_timing_every = 0`) and instrumented (1-in-32
//!    reader timing), and computes the throughput ratio **within each
//!    pair**. By the [`gate`] rule the arm that runs first flips from pair
//!    to pair, and the gate reads the median pair ratio against
//!    [`MIN_RATIO`].
//! 2. **Function** — an instrumented engine must actually observe itself:
//!    every instrumented arm timed reader buffers and its publish
//!    histogram agrees with its publish counter; a 1-in-1 engine records
//!    every publish and buffer, the flight recorder journals `Publish`
//!    events, and both exporters emit the metric catalogue (the Prometheus
//!    text holds the expected series, the JSON snapshot parses). These are
//!    conformance margins beside the overhead gate.
//!
//! `--json 1` appends a machine-readable report (`BENCH_obs.json`).

use std::process::ExitCode;

use lrb_bench::cli::Options;
use lrb_bench::engine_workload::{run_driver, DriverConfig, DriverReport};
use lrb_bench::gate::{self, GateMargin, GATE_PAIRS};
use lrb_engine::{EngineConfig, EngineEvent, SelectionEngine};
use lrb_rng::Philox4x32;
use serde::Serialize;

/// Bar of the instrumented-over-uninstrumented throughput ratio: 0.8–1.0×
/// of the median recorded on the 2-vCPU host (`BENCH_obs.json`).
const MIN_RATIO: f64 = 0.87;
/// The instrumented arm times one reader buffer in this many.
const TIMING_EVERY: u32 = 32;
/// Series the Prometheus exposition must hold.
const CATALOGUE: [&str; 4] = [
    "lrb_publishes_total",
    "lrb_publish_ns{quantile=\"0.5\"}",
    "lrb_reader_draw_ns_count",
    "lrb_simd_lanes",
];

/// Machine-readable outcome (`--json 1`).
#[derive(Debug, Serialize)]
struct ObsReport {
    timing_every: u64,
    /// Median of `pairs[].ratio`.
    overhead_ratio: f64,
    pairs: Vec<Pair>,
    journal_events: u64,
    /// The instrumented arm of the median pair.
    instrumented: DriverReport,
    margins: Vec<GateMargin>,
}

/// One off/on pair's throughputs and their ratio.
#[derive(Debug, Serialize)]
struct Pair {
    off_samples_per_sec: f64,
    on_samples_per_sec: f64,
    ratio: f64,
}

fn main() -> ExitCode {
    let json = Options::from_env().contains("json");
    let base = DriverConfig::default();

    println!(
        "obs_quick: n = {}, 1:{} update:sample, {} ms windows, \
         1-in-{TIMING_EVERY} reader timing\n",
        base.categories, base.samples_per_update, base.duration_ms
    );

    // ---- Check 1: overhead of leaving telemetry on ----------------------
    println!("telemetry overhead ({GATE_PAIRS} off/on pairs, median pair ratio):");
    let mut instrumented = Vec::new();
    let mut pairs = Vec::new();
    for pair in 0..GATE_PAIRS {
        // Seeds offset so no two pairs replay the same stream.
        let seed = base.seed + pair as u64;
        let run = |reader_timing_every| {
            run_driver(&DriverConfig {
                reader_timing_every,
                seed,
                ..base
            })
        };
        let (off, on) = gate::alternate(pair, || run(0), || run(TIMING_EVERY));
        let ratio = on.samples_per_sec / off.samples_per_sec.max(1.0);
        println!(
            "  off {:>12.0} samples/s   on {:>12.0} samples/s   ratio {ratio:.4}",
            off.samples_per_sec, on.samples_per_sec
        );
        pairs.push(Pair {
            off_samples_per_sec: off.samples_per_sec,
            on_samples_per_sec: on.samples_per_sec,
            ratio,
        });
        instrumented.push(on);
    }
    let ratios: Vec<f64> = pairs.iter().map(|pair| pair.ratio).collect();
    let overhead_ratio = gate::median(&ratios);
    let median_pair = ratios
        .iter()
        .position(|&ratio| ratio == overhead_ratio)
        .expect("the median is one of the pairs");
    println!("  median pair ratio {overhead_ratio:.4} (gate: >= {MIN_RATIO:.2})");
    let every_arm_timed = instrumented.iter().all(|on| on.sample_latency.count > 0);
    let histograms_match = instrumented
        .iter()
        .all(|on| on.publish_latency.count == on.publishes);

    // ---- Check 2: the telemetry actually observes the engine ------------
    let engine = SelectionEngine::new(
        vec![1.0; base.categories],
        EngineConfig {
            reader_timing_every: 1,
            ..EngineConfig::default()
        },
    )
    .expect("gate weights are valid");
    let mut rng = Philox4x32::for_substream(base.seed, 42);
    let mut buffer = vec![0usize; 64];
    for round in 0..16u64 {
        engine
            .read(|snapshot| snapshot.sample_into(&mut rng, &mut buffer))
            .expect("uniform weights sample fine");
        engine
            .enqueue((round % 16) as usize, 2.0 + round as f64)
            .expect("index in range");
        engine.publish().expect("weights stay valid");
    }
    let obs = engine.observability();
    let publish_count = obs.publish_latency().count;
    let draw_count = obs.reader_draw_latency().count;
    let journal_publishes = obs
        .journal()
        .iter()
        .filter(|entry| matches!(entry.event, EngineEvent::Publish { .. }))
        .count();
    let prometheus = engine.export_prometheus();
    let exporters_ok = serde_json::from_str_value(&engine.export_json()).is_ok()
        && CATALOGUE.iter().all(|series| prometheus.contains(series));
    println!("\nfunctional checks on a 1-in-1 instrumented engine:");
    println!("  publish spans recorded  {publish_count}");
    println!("  reader buffers timed    {draw_count}");
    println!("  journal Publish events  {journal_publishes}");

    let margins = vec![
        GateMargin::at_least("telemetry_overhead_ratio", overhead_ratio, MIN_RATIO),
        GateMargin::conformance("instrumented_arms_timed_buffers", every_arm_timed),
        GateMargin::conformance("publish_histogram_matches_counter", histograms_match),
        GateMargin::conformance(
            "one_in_one_engine_observed",
            publish_count == 16 && draw_count == 16 && journal_publishes == 16,
        ),
        GateMargin::conformance("exporters_emit_catalogue", exporters_ok),
    ];
    let report = ObsReport {
        timing_every: u64::from(TIMING_EVERY),
        overhead_ratio,
        pairs,
        journal_events: obs.events_recorded(),
        instrumented: instrumented.swap_remove(median_pair),
        margins,
    };
    gate::verdict(&report.margins, json.then_some(&report))
}
