//! `perfbench` — the end-to-end benchmark of the sharded selection
//! service.
//!
//! One process builds a live `ShardedService` (4 shards) behind a
//! `ServiceServer` on a Unix-domain socket and drives it with closed-loop
//! client connections, one thread each — the service's callers are
//! heuristic workers that wait for every reply. Three workloads:
//!
//! * `wire_single` — dense Zipf weights, n = 4096; two connections issue
//!   serial single `DRAW`s (the aggregator path). Per-draw wire cost
//!   dominates.
//! * `batch_sparse` — n = 2^16 with 256 non-zero weights spread over all
//!   shards; one connection issues `DRAW_BATCH` of 4096. Level-one routing,
//!   the planner and the shard fills dominate.
//! * `churn` — dense n = 4096 with WAL durability (`FsyncPolicy::Off`,
//!   genesis checkpoint only); one connection streams single `DRAW`s
//!   pipelined at window 32 while a second sends `UPDATE_MANY` of 1 % of
//!   the categories plus `PUBLISH` every 2 ms.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire_single --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it alternates untraced and traced slices (a span per
//! client call in the traced ones), then replays the workload down each layer's public API
//! (see `layers`) and reports the per-layer metrics. Spans stay in memory
//! and are written to `.bench_out/spans-<workload>.csv` when the run
//! ends. Workloads without a concurrent writer measure the write round
//! trip with a closed-loop write probe after the read window.
//!
//! Every returned index is checked: in range, and in the support of a
//! version the writer had published while the request was in flight.
//! Read-only workloads also pass a chi-square test of all received draws
//! against the exact `F_i = w_i / Σ w_j`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. All scratch files live under `.bench_out/` in the working
//! directory.

mod layers;
mod load;
mod measure;
mod trace;
mod workload;

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lrb_core::parallel::kernel_counters;
use lrb_service::{ServiceCore, ROUTE_LAYOUT_VERSION};

use load::{Live, PhaseOut, Support, Writer, WriterOut};
use measure::{add_counts, obs_quantile, LatHist};
use trace::SpanLog;
use workload::{Shape, Spec};

/// Untraced and traced slices alternate this many times in a traced run,
/// so drift of the host lands on both sides of `trace_overhead`.
const TRACE_SLICES: usize = 4;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Chi-square significance below which the draws fail conformance.
const CHI_SQUARE_ALPHA: f64 = 1e-6;
/// Scratch directory under the working directory.
const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics (`--trace 0`), with units. `req_p99_us`,
/// `write_p99_us` and `failed_frac` are printed too but not reported in
/// the result line: on a shared two-core host the tails move with the
/// host's load by more than any usable regression bound (the write tail
/// also flips between scheduler stalls and full backend rebuilds), and
/// `failed_frac` is the result line's `failed / attempted`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("draws_per_s", "draws/s"),
    ("req_p50_us", "us"),
    ("write_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("client.retries", "count"),
    ("client.reconnects", "count"),
    ("wire.floor_p50_us", "us"),
    ("wire.self_ns_per_draw", "ns"),
    ("server.request_p50_us", "us"),
    ("server.submit_depth_p50", "frames"),
    ("server.read_deferrals", "count"),
    ("agg.ns_per_draw", "ns"),
    ("agg.draws_per_batch", "draws"),
    ("planner.ns_per_draw", "ns"),
    ("planner.self_ns_per_draw", "ns"),
    ("planner.lanes", "count"),
    ("level1.ns_per_draw", "ns"),
    ("engine.fill_ns_per_draw", "ns"),
    ("engine.read_ns", "ns"),
    ("engine.publish_p50_us", "us"),
    ("engine.patched_frac", "ratio"),
    ("engine.backend_switches", "count"),
    ("wal.append_p50_us", "us"),
    ("wal.bytes_per_publish", "bytes"),
    ("kernel.ln_calls_per_draw", "count"),
    ("kernel.ns_per_draw", "ns"),
    ("trace_overhead", "ratio"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <wire_single|batch_sparse|churn> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One run's verdict, metrics and human-readable lines.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub lines: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    let spec = spec.fit_to_host(nproc());
    match run_spec(
        &spec,
        args.seed,
        args.seconds,
        args.trace,
        Path::new(OUT_DIR),
    ) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.json());
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(1);
        }
    }
}

/// Run one workload with scratch files under `out_dir`.
pub fn run_spec(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Report, String> {
    let run_dir = out_dir.join(format!("run-{}-{}", spec.name, std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("scratch dir: {e}"))?;
    let mut report = if trace {
        traced_run(spec, seed, seconds, &run_dir, out_dir)
    } else {
        untraced_run(spec, seed, seconds, &run_dir)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Ok(report) = &mut report {
        let expected = if trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let names: Vec<(&str, &str)> = report.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
        assert_eq!(
            names, expected,
            "the report carries exactly the declared metrics"
        );
        for (name, value, _) in &mut report.metrics {
            if !value.is_finite() {
                report.lines.push(format!("# {name} was not finite"));
                *value = 0.0;
                report.correct = false;
            }
        }
    }
    report
}

/// Correctness of the reads and writes of some phases.
struct Verdict {
    attempted: u64,
    failed: u64,
    lines: Vec<String>,
}

fn verdict(spec: &Spec, weights: &[f64], phases: &[&PhaseOut], writes: &[&WriterOut]) -> Verdict {
    let mut counts = vec![0u64; spec.n];
    let (mut attempted, mut failed, mut illegal) = (0u64, 0u64, 0u64);
    for phase in phases {
        attempted += phase.requests();
        failed += phase.failed();
        for reader in &phase.readers {
            illegal += reader.illegal;
            for (total, c) in counts.iter_mut().zip(&reader.counts) {
                *total += c;
            }
        }
    }
    for w in writes {
        attempted += w.writes;
        failed += w.failed;
    }
    let mut lines = vec![format!(
        "# check: {illegal} read requests returned an index outside the published support"
    )];
    if spec.write_every.is_none() {
        attempted += 1;
        let fit = measure::conformance(&counts, weights);
        let pass = fit.p_value >= CHI_SQUARE_ALPHA && fit.zero_weight_hits == 0;
        failed += u64::from(!pass);
        lines.push(format!(
            "# check: chi-square vs exact F_i over {} bins: p = {:.3e} ({}), zero-weight hits {}",
            fit.bins,
            fit.p_value,
            if pass { "pass" } else { "FAIL" },
            fit.zero_weight_hits
        ));
    }
    Verdict {
        attempted,
        failed,
        lines,
    }
}

fn untraced_run(spec: &Spec, seed: u64, seconds: f64, dir: &Path) -> Result<Report, String> {
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut live: Option<Live> = None;
    for rep in 0..SETUP_REPS {
        drop(live.take());
        let started = Instant::now();
        live = Some(load::setup(spec, seed, dir, rep)?);
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up ran");
    let backends_at_start = backends(&live);
    let support = Support::new(Instant::now(), &live.weights);
    let mut writer = Writer::new(spec, seed, &live.weights);
    let phase = load::read_phase(&mut live, spec, &mut writer, &support, seconds, false);
    // The serving footprint: the write probe below churns versions and
    // allocator state that the read workload does not.
    let peak_rss = measure::peak_rss_mib();
    let probe = probe_if_read_only(spec, &mut live, &mut writer, &support, false);
    let writes = probe.as_ref().unwrap_or(&phase.writer);
    let verdict = verdict(spec, &live.weights, &[&phase], &[writes]);
    let stamp = config_stamp(spec, seed, &live, &backends_at_start);
    // Throughput and request latency are medians over the phase's
    // windows, so one window disturbed by the host does not move them.
    let windows = phase.windows();
    let over_windows = |f: &dyn Fn(&load::Window) -> f64| {
        measure::median(&mut windows.iter().map(f).collect::<Vec<_>>())
    };
    let window_s = phase.window.as_secs_f64();
    let samples: u64 = windows.iter().map(|w| w.rtt.count()).sum();
    // Write latency likewise per chunk of consecutive writes.
    let chunks = writes.chunks();
    let over_chunks =
        |q: f64| measure::median(&mut chunks.iter().map(|c| c.quantile(q)).collect::<Vec<_>>());
    let setup_s = measure::median(&mut setup_times);
    let metrics = vec![
        (
            "draws_per_s",
            over_windows(&|w| w.draws as f64 / window_s),
            "draws/s",
        ),
        (
            "req_p50_us",
            over_windows(&|w| w.rtt.quantile(0.50)) / 1e3,
            "us",
        ),
        ("write_p50_us", over_chunks(0.50) / 1e3, "us"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss, "MiB"),
    ];
    let mut lines = header(spec, seed, seconds, false, &stamp);
    lines.extend(verdict.lines.iter().cloned());
    let tails = [
        (
            "req_p99_us",
            over_windows(&|w| w.rtt.quantile(0.99)) / 1e3,
            "us",
        ),
        ("write_p99_us", over_chunks(0.99) / 1e3, "us"),
    ];
    for (name, value, unit) in metrics.iter().chain(&tails) {
        let samples = match *name {
            "draws_per_s" | "req_p50_us" | "req_p99_us" => format!(
                " (median of {} windows of {window_s:.3} s; {samples} requests)",
                windows.len()
            ),
            "write_p50_us" | "write_p99_us" => format!(
                " (median of {} chunks of up to {} writes; {} writes, {})",
                chunks.len(),
                load::WRITE_CHUNK,
                writes.writes,
                if probe.is_some() {
                    "closed-loop probe after the reads"
                } else {
                    "concurrent with the reads"
                }
            ),
            "setup_s" => format!(" (median of {SETUP_REPS})"),
            _ => String::new(),
        };
        lines.push(format!("{name} {value} {unit}{samples}"));
    }
    lines.push(failed_frac_line(&verdict));
    drop(live);
    Ok(Report {
        correct: verdict.failed == 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        lines,
    })
}

/// The closed-loop write probe of workloads with no concurrent writer.
fn probe_if_read_only(
    spec: &Spec,
    live: &mut Live,
    writer: &mut Writer,
    support: &Support,
    trace: bool,
) -> Option<WriterOut> {
    (spec.write_every.is_none())
        .then(|| load::write_probe(live, writer, support, spec.probe, trace))
}

fn failed_frac_line(verdict: &Verdict) -> String {
    format!(
        "failed_frac {} ratio ({} of {} operations)",
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
        verdict.failed,
        verdict.attempted
    )
}

fn header(spec: &Spec, seed: u64, seconds: f64, trace: bool, stamp: &str) -> Vec<String> {
    vec![
        format!(
            "# perfbench workload={} seed={seed} seconds={seconds} trace={}",
            spec.name,
            u8::from(trace)
        ),
        format!("# config {stamp}"),
    ]
}

/// The backend serving each shard's current snapshot.
fn backends(live: &Live) -> Vec<&'static str> {
    let core = live.service.core();
    (0..core.shard_count())
        .map(|s| core.shard_engine(s).read(|snapshot| snapshot.backend()))
        .collect()
}

/// The serving configuration this run actually resolved, as JSON.
fn config_stamp(spec: &Spec, seed: u64, live: &Live, backends_at_start: &[&str]) -> String {
    let core = live.service.core();
    let shards = core.shard_count();
    let switches: u64 = (0..shards)
        .map(|s| core.shard_engine(s).stats().backend_switches)
        .sum();
    let quoted = |names: &[&str]| {
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    let shape = match spec.shape {
        Shape::Single => "single DRAW, serial".to_string(),
        Shape::Batch(b) => format!("DRAW_BATCH {b}, serial"),
        Shape::Pipelined(w) => format!("single DRAW, pipelined window {w}"),
    };
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"simd_tier\":\"{:?}\",",
            "\"reactors\":{},\"workers\":{},\"fanout_lanes\":{},\"route_layout_version\":{},",
            "\"shards\":{},\"n\":{},\"nonzero\":{},\"reader_connections\":{},\"shape\":\"{}\",",
            "\"writer\":\"{}\",\"durability\":\"{}\",\"backends_start\":[{}],\"backends_end\":[{}],",
            "\"backend_switches\":{}}}"
        ),
        spec.name,
        seed,
        nproc(),
        lrb_rng::simd_tier(),
        live.server_config.resolved_reactors(),
        live.server_config.resolved_workers(),
        core.fanout_lanes(),
        ROUTE_LAYOUT_VERSION,
        shards,
        spec.n,
        spec.nonzero,
        spec.readers,
        shape,
        match spec.write_every {
            Some(every) => format!("UPDATE_MANY {} + PUBLISH every {every:?}", spec.write_entries()),
            None => format!(
                "UPDATE_MANY {} + PUBLISH, closed-loop probe for {:?} after the reads",
                spec.write_entries(),
                spec.probe
            ),
        },
        if spec.durable { "wal fsync=off, genesis checkpoint only" } else { "off" },
        quoted(backends_at_start),
        quoted(&backends(live)),
        switches,
    )
}

/// Server-side counters, read as totals or summed over the traced
/// slices as deltas.
#[derive(Default)]
struct ServerCounters {
    request: Vec<u64>,
    depth: Vec<u64>,
    deferrals: u64,
    agg_batches: u64,
    agg_draws: u64,
    ln_calls: u64,
}

impl ServerCounters {
    fn read(core: &ServiceCore) -> Self {
        let t = core.telemetry();
        Self {
            request: t.request_latency().counts().to_vec(),
            depth: t.submit_depth().counts().to_vec(),
            deferrals: t.read_deferrals(),
            agg_batches: t.batches(),
            agg_draws: t.batched_draws(),
            ln_calls: kernel_counters().ln_calls,
        }
    }

    /// Add what happened between two readings.
    fn add_delta(&mut self, before: &Self, after: &Self) {
        let delta = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(a, b)| a - b).collect::<Vec<_>>();
        add_counts(&mut self.request, &delta(&after.request, &before.request));
        add_counts(&mut self.depth, &delta(&after.depth, &before.depth));
        self.deferrals += after.deferrals - before.deferrals;
        self.agg_batches += after.agg_batches - before.agg_batches;
        self.agg_draws += after.agg_draws - before.agg_draws;
        self.ln_calls += after.ln_calls - before.ln_calls;
    }
}

/// `METRICS` over the wire must parse and carry the request histogram.
fn metrics_opcode_ok(live: &mut Live) -> bool {
    live.writer
        .metrics_json()
        .ok()
        .and_then(|doc| serde_json::from_str_value(&doc).ok())
        .is_some_and(|tree| tree.field("lrb_service_request_ns").is_ok())
}

fn traced_run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    dir: &Path,
    out_dir: &Path,
) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);
    let root = log.open("run", 0);
    let span = log.open("setup", root);
    let mut live = load::setup(spec, seed, dir, 0)?;
    log.close(span, 1);
    let core: Arc<ServiceCore> = live.service.core();
    let backends_at_start = backends(&live);
    let support = Support::new(epoch, &live.weights);
    let mut writer = Writer::new(spec, seed, &live.weights);
    let slice = seconds / (2 * TRACE_SLICES) as f64;
    let call = match spec.shape {
        Shape::Batch(_) => "client.draw_batch",
        Shape::Single | Shape::Pipelined(_) => "client.draw",
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut server = ServerCounters::default();
    let (mut floor, mut floor_failed) = (LatHist::default(), 0u64);
    for _ in 0..TRACE_SLICES {
        let span = log.open("phase.untraced", root);
        let phase = load::read_phase(&mut live, spec, &mut writer, &support, slice, false);
        log.close(span, phase.draws());
        untraced.push(phase);

        let before = ServerCounters::read(&core);
        let span = log.open("phase.traced", root);
        let phase = load::read_phase(&mut live, spec, &mut writer, &support, slice, true);
        log.close(span, phase.draws());
        server.add_delta(&before, &ServerCounters::read(&core));
        for (c, reader) in phase.readers.iter().enumerate() {
            log.adopt_calls(
                span,
                call,
                c as u32 + 1,
                &reader.calls,
                reader.dropped_calls,
            );
        }
        log.adopt_calls(span, "client.write", 0, &phase.writer.calls, 0);
        traced.push(phase);

        let span = log.open("floor.totals", root);
        let (hist, failed) = load::floor_probe(&mut live, load::FLOOR_PROBES / TRACE_SLICES);
        log.close(span, hist.count());
        floor.merge(&hist);
        floor_failed += failed;
    }

    let span = log.open("probe.writes", root);
    let probe = probe_if_read_only(spec, &mut live, &mut writer, &support, true);
    if let Some(p) = &probe {
        log.adopt_calls(span, "client.write", 0, &p.calls, 0);
    }
    log.close(span, probe.as_ref().map_or(0, |p| p.writes));

    let metrics_ok = metrics_opcode_ok(&mut live);
    let ledger = layers::replay(&core, spec, seed, dir, &mut log, root)?;
    let total = |phases: &[PhaseOut]| {
        let draws: u64 = phases.iter().map(PhaseOut::draws).sum();
        let elapsed: f64 = phases.iter().map(|p| p.elapsed.as_secs_f64()).sum();
        (draws, elapsed)
    };
    let (untraced_draws, untraced_s) = total(&untraced);
    let (traced_draws, traced_s) = total(&traced);
    log.close(root, untraced_draws + traced_draws);

    // Verdict over everything the clients did.
    let phases: Vec<&PhaseOut> = untraced.iter().chain(&traced).collect();
    let mut writes: Vec<&WriterOut> = phases.iter().map(|p| &p.writer).collect();
    if let Some(p) = &probe {
        writes.push(p);
    }
    let mut verdict = verdict(spec, &live.weights, &phases, &writes);
    verdict.attempted += floor.count() + floor_failed + 1;
    verdict.failed += floor_failed + u64::from(!metrics_ok);
    verdict.lines.push(format!(
        "# check: METRICS opcode document {}",
        if metrics_ok {
            "parses"
        } else {
            "is MISSING or malformed"
        }
    ));

    // Client and server layers over the traced slices.
    let client = live
        .readers
        .iter()
        .chain(std::iter::once(&live.writer))
        .map(|c| c.stats())
        .fold((0u64, 0u64), |(r, c), s| (r + s.retries, c + s.reconnects));
    let traced_draws = traced_draws.max(1);
    let wire_ns = spec.readers as f64 * traced_s * 1e9 / traced_draws as f64;
    let below_wire = match spec.shape {
        Shape::Single => ledger.agg_ns,
        Shape::Batch(_) | Shape::Pipelined(_) => ledger.planner_ns,
    };

    // Engine write side over the whole run.
    let shards = core.shard_count();
    let mut publish_counts = Vec::new();
    let (mut publishes, mut patched, mut switches) = (0u64, 0u64, 0u64);
    for s in 0..shards {
        let engine = core.shard_engine(s);
        add_counts(
            &mut publish_counts,
            engine.observability().publish_latency().counts(),
        );
        let stats = engine.stats();
        publishes += stats.publishes;
        patched += stats.patched;
        switches += stats.backend_switches;
    }

    let metrics = vec![
        ("client.retries", client.0 as f64, "count"),
        ("client.reconnects", client.1 as f64, "count"),
        ("wire.floor_p50_us", floor.quantile(0.5) / 1e3, "us"),
        ("wire.self_ns_per_draw", wire_ns - below_wire, "ns"),
        (
            "server.request_p50_us",
            obs_quantile(&server.request, 0.5) / 1e3,
            "us",
        ),
        (
            "server.submit_depth_p50",
            obs_quantile(&server.depth, 0.5).floor(),
            "frames",
        ),
        ("server.read_deferrals", server.deferrals as f64, "count"),
        ("agg.ns_per_draw", ledger.agg_ns, "ns"),
        (
            "agg.draws_per_batch",
            server.agg_draws as f64 / server.agg_batches.max(1) as f64,
            "draws",
        ),
        ("planner.ns_per_draw", ledger.planner_ns, "ns"),
        (
            "planner.self_ns_per_draw",
            ledger.planner_ns - ledger.level1_ns - ledger.fill_ns,
            "ns",
        ),
        ("planner.lanes", core.fanout_lanes() as f64, "count"),
        ("level1.ns_per_draw", ledger.level1_ns, "ns"),
        ("engine.fill_ns_per_draw", ledger.fill_ns, "ns"),
        ("engine.read_ns", ledger.read_ns, "ns"),
        (
            "engine.publish_p50_us",
            obs_quantile(&publish_counts, 0.5) / 1e3,
            "us",
        ),
        (
            "engine.patched_frac",
            patched as f64 / publishes.max(1) as f64,
            "ratio",
        ),
        ("engine.backend_switches", switches as f64, "count"),
        ("wal.append_p50_us", ledger.wal_append_p50_us, "us"),
        (
            "wal.bytes_per_publish",
            ledger.wal_bytes_per_publish,
            "bytes",
        ),
        (
            "kernel.ln_calls_per_draw",
            server.ln_calls as f64 / traced_draws as f64,
            "count",
        ),
        ("kernel.ns_per_draw", ledger.kernel_ns, "ns"),
        (
            "trace_overhead",
            (untraced_draws as f64 / untraced_s) / (traced_draws as f64 / traced_s),
            "ratio",
        ),
    ];

    let stamp = config_stamp(spec, seed, &live, &backends_at_start);
    let spans_path = out_dir.join(format!("spans-{}.csv", spec.name));
    log.write_csv(&spans_path, &stamp)
        .map_err(|e| format!("writing spans: {e}"))?;
    let mut lines = header(spec, seed, seconds, true, &stamp);
    lines.extend(verdict.lines.iter().cloned());
    lines.push(format!(
        "# traced slices: {} draws in {:.3} s, wire {:.1} ns/draw per connection; spans in {}",
        traced_draws,
        traced_s,
        wire_ns,
        spans_path.display()
    ));
    lines.push(format!(
        "# server: {} requests, {} aggregator batches in the traced slices; {} publishes, {} patched",
        server.request.iter().sum::<u64>(),
        server.agg_batches,
        publishes,
        patched
    ));
    for (name, value, unit) in &metrics {
        lines.push(format!("{name} {value} {unit}"));
    }
    lines.push(failed_frac_line(&verdict));
    drop(live);
    Ok(Report {
        correct: verdict.failed == 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(key: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let tree = serde_json::from_str_value(&text).expect("BENCHMARK.json parses");
        let serde_json::Value::Array(items) = tree.field(key).expect("metric list").clone() else {
            panic!("{key} is a list");
        };
        items
            .iter()
            .map(|m| {
                let text = |k: &str| match m.field(k) {
                    Ok(serde_json::Value::String(s)) => s.clone(),
                    other => panic!("{k}: {other:?}"),
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let own = |list: &[(&str, &str)]| {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn arguments_parse_strictly() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert_eq!(
            parse("--workload churn --seed 3 --seconds 10 --trace 1"),
            Ok(Args {
                workload: "churn".into(),
                seed: 3,
                seconds: 10.0,
                trace: true
            })
        );
        assert!(parse("--workload churn --seed 3 --seconds 10").is_err());
        assert!(parse("--workload churn --seed x --seconds 10 --trace 0").is_err());
        assert!(parse("--workload churn --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--bogus 1").is_err());
    }

    /// A tiny run of every workload, untraced and traced, is correct and
    /// reports every declared metric with its unit.
    #[test]
    fn tiny_runs_report_every_metric() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join(".bench_out/smoke");
        for name in workload::NAMES {
            let spec = Spec::named(name).unwrap().tiny().fit_to_host(nproc());
            for trace in [false, true] {
                let report = run_spec(&spec, 11, 0.4, trace, &out).expect("tiny run");
                assert!(report.correct, "{name} trace={trace}: {:?}", report.lines);
                assert_eq!(report.failed, 0);
                assert!(report.attempted > 0);
                let expected = if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                let got: Vec<(&str, &str)> =
                    report.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
                assert_eq!(got, expected);
                let json = serde_json::from_str_value(&report.json()).expect("result line is JSON");
                let metrics = json.field("metrics").expect("metrics object");
                for (metric, unit) in expected {
                    let entry = metrics
                        .field(metric)
                        .unwrap_or_else(|_| panic!("{metric} missing"));
                    assert_eq!(
                        entry.field("unit").ok(),
                        Some(&serde_json::Value::String(unit.to_string()))
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
