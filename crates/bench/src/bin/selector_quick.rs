//! Quick perf-smoke gates for the block-Philox bid kernel and the fused
//! multi-draw batch path.
//!
//! ```text
//! cargo run -p lrb-bench --release --bin selector_quick [-- --json 1]
//! ```
//!
//! Two comparisons, both single-thread — run under a one-thread budget
//! (`ThreadPool::install` with `num_threads(1)`), so they isolate
//! algorithmic constants, not rayon fan-out:
//!
//! 1. **Block kernel vs per-index substreams** — one-shot selection through
//!    the layout-v2 block kernel (`ParallelLogBiddingSelector::select`)
//!    against the legacy per-index path ([`PerIndexLogBiddingSelector`],
//!    layout v1). Gate: ≥ 2× at n = 2¹⁶.
//! 2. **Fused batch vs per-draw kernel** — a buffer fill through the fused
//!    multi-draw kernel (`select_into`, eight bid streams per pass over the
//!    fitness array) against a `select` loop of the same block kernel (the
//!    pre-fused batched path). Gate at n = 2¹⁶, by the detected SIMD tier:
//!    **4×** with AVX-512, **3×** with AVX2, **1.25×** scalar (without
//!    vector units the fused win reduces to fitness-reuse and batched
//!    generation; the tier is recorded in the report).
//!
//! Each gate follows the [`gate`] rule: the median of [`GATE_PAIRS`] pairs
//! at the gate point, the order of the timed paths flipping from pair to
//! pair; the sweep rows are for the record. Both outcomes are recorded as
//! [`GateMargin`]s in the `--json 1` report, the `BENCH_selectors.json`
//! baseline, with every pair ratio. The two bars predate the rule's
//! 0.8× floor (recorded margins 1.48 and 1.76); raising them has to set
//! them per SIMD tier.
//!
//! [`PerIndexLogBiddingSelector`]: lrb_bench::selector_workload::PerIndexLogBiddingSelector

use std::process::ExitCode;

use lrb_bench::cli::Options;
use lrb_bench::gate::{self, GateMargin, GATE_PAIRS};
use lrb_bench::selector_workload::{
    bench_fitness, bench_selector, bench_selector_per_draw, PerIndexLogBiddingSelector,
    SelectorReport,
};
use lrb_core::parallel::bid_kernel::STREAM_LAYOUT_VERSION;
use lrb_core::parallel::ParallelLogBiddingSelector;
use lrb_rng::SimdTier;
use rayon::ThreadPoolBuilder;
use serde::Serialize;

/// The gate point.
const GATE_N: usize = 1 << 16;
/// Bar of the block-kernel gate.
const MIN_SPEEDUP: f64 = 2.0;
/// Seed of every timed selection.
const SEED: u64 = 2024;
/// Work per sweep point: draws × n stays near this.
const BUDGET: u64 = 1 << 22;

/// One size of the sweep: single-thread per-index, per-draw block and fused
/// batch paths, plus their gate ratios.
#[derive(Debug, Serialize)]
struct SweepRow {
    n: u64,
    per_index: SelectorReport,
    block: SelectorReport,
    fused: SelectorReport,
    /// block kernel vs per-index substreams (one-shot selections).
    speedup: f64,
    /// fused batch fill vs a per-draw block-kernel loop.
    fused_speedup: f64,
}

/// The machine-readable report (`--json 1`), recorded as the
/// `BENCH_selectors.json` baseline.
#[derive(Debug, Serialize)]
struct QuickReport {
    host_threads: u64,
    simd_tier: String,
    stream_layout_version: u32,
    gate_n: u64,
    /// Median of `speedup_pairs`.
    speedup: f64,
    /// Per-index over block-kernel time of each gate pair, in measurement
    /// order.
    speedup_pairs: Vec<f64>,
    /// Median of `fused_speedup_pairs`.
    fused_speedup: f64,
    /// Per-draw loop over fused fill time of each gate pair, in
    /// measurement order.
    fused_speedup_pairs: Vec<f64>,
    sweep: Vec<SweepRow>,
    block_parallel: SelectorReport,
    margins: Vec<GateMargin>,
}

fn main() -> ExitCode {
    let json = Options::from_env(&["json"]).contains("json");

    let tier = lrb_rng::simd_tier();
    let tier_name = match tier {
        SimdTier::Avx512 => "avx512",
        SimdTier::Avx2 => "avx2",
        SimdTier::Scalar => "scalar",
    };
    // The fused win is mostly vector throughput; the bar tracks the tier.
    let min_fused_speedup = match tier {
        SimdTier::Avx512 => 4.0,
        SimdTier::Avx2 => 3.0,
        SimdTier::Scalar => 1.25,
    };

    let host_threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);

    // The sweep and the gates run under a one-thread budget: they isolate
    // constant factors, not rayon fan-out.
    let single = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the shim's pool builder cannot fail");
    let per_index = PerIndexLogBiddingSelector;
    let block = ParallelLogBiddingSelector;

    println!(
        "selector_quick: block-Philox kernel (layout v{STREAM_LAYOUT_VERSION}) vs per-index \
         substreams, and fused batch vs per-draw loop; single thread, simd tier = {tier_name}, \
         host threads = {host_threads}\n"
    );

    // Keep total work roughly constant across sizes.
    let draws_at = |n: usize| (BUDGET / n as u64).clamp(8, 4_096);
    let mut sweep = Vec::new();
    for n in [1 << 12, GATE_N, 1 << 20] {
        let draws = draws_at(n);
        let fitness = bench_fitness(n);
        let (a, b, c) = single.install(|| {
            (
                bench_selector_per_draw(&per_index, &fitness, draws, SEED),
                bench_selector_per_draw(&block, &fitness, draws, SEED),
                bench_selector(&block, &fitness, draws, SEED),
            )
        });
        let speedup = a.ns_per_select / b.ns_per_select.max(1e-9);
        let fused_speedup = b.ns_per_select / c.ns_per_select.max(1e-9);
        println!(
            "  n = 2^{:<2} per-index {:>10.1} ns/select   block {:>10.1} ns/select ({speedup:>5.2}x)   \
             fused {:>9.1} ns/select ({fused_speedup:>5.2}x)",
            (n as f64).log2() as u32,
            a.ns_per_select,
            b.ns_per_select,
            c.ns_per_select,
        );
        sweep.push(SweepRow {
            n: n as u64,
            per_index: a,
            block: b,
            fused: c,
            speedup,
            fused_speedup,
        });
    }

    // The gate point, re-measured as pairs. Nesting the two-arm
    // alternation times per-index, block, fused on even pairs and fused,
    // block, per-index on odd ones; each pair yields one ratio per gate.
    let fitness = bench_fitness(GATE_N);
    let draws = draws_at(GATE_N);
    let (speedup_pairs, fused_speedup_pairs): (Vec<f64>, Vec<f64>) = single.install(|| {
        (0..GATE_PAIRS)
            .map(|pair| {
                let per_index_ns =
                    || bench_selector_per_draw(&per_index, &fitness, draws, SEED).ns_per_select;
                let block_ns =
                    || bench_selector_per_draw(&block, &fitness, draws, SEED).ns_per_select;
                let fused_ns = || bench_selector(&block, &fitness, draws, SEED).ns_per_select;
                let (a, (b, c)) = gate::alternate(pair, per_index_ns, || {
                    gate::alternate(pair, block_ns, fused_ns)
                });
                (a / b.max(1e-9), b / c.max(1e-9))
            })
            .unzip()
    });
    let speedup = gate::median(&speedup_pairs);
    let fused_speedup = gate::median(&fused_speedup_pairs);

    // The rayon path at the gate size under the default thread budget, for
    // the record (identical winners to the one-thread path by construction;
    // it forks above one chunk and is faster only with real cores).
    let block_parallel = bench_selector(&block, &fitness, draws, SEED);
    println!(
        "\n  rayon block path at n = {GATE_N}: {:.1} ns/select ({} threads available)",
        block_parallel.ns_per_select, host_threads
    );

    println!(
        "\nblock kernel vs per-index at n = {GATE_N}: median {speedup:.2}x of {GATE_PAIRS} pairs \
         {speedup_pairs:.2?} (gate: >= {MIN_SPEEDUP}x)\n\
         fused batch vs per-draw at n = {GATE_N}: median {fused_speedup:.2}x of {GATE_PAIRS} \
         pairs {fused_speedup_pairs:.2?} (gate: >= {min_fused_speedup}x, {tier_name} tier)"
    );

    // The fused bar is tier-dependent, so the margin record carries the
    // tier in its gate name.
    let margins = vec![
        GateMargin::at_least("block_kernel_speedup", speedup, MIN_SPEEDUP),
        GateMargin::at_least(
            &format!("fused_batch_speedup_{tier_name}"),
            fused_speedup,
            min_fused_speedup,
        ),
    ];
    let report = QuickReport {
        host_threads: host_threads as u64,
        simd_tier: tier_name.to_string(),
        stream_layout_version: STREAM_LAYOUT_VERSION,
        gate_n: GATE_N as u64,
        speedup,
        speedup_pairs,
        fused_speedup,
        fused_speedup_pairs,
        sweep,
        block_parallel,
        margins,
    };
    gate::verdict(&report.margins, json.then_some(&report))
}
