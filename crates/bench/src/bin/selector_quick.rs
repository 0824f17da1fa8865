//! Quick perf-smoke gates for the block-Philox bid kernel and the fused
//! multi-draw batch path.
//!
//! ```text
//! cargo run -p lrb-bench --release --bin selector_quick \
//!     [-- --gate-n 65536 --min-speedup 2.0 --min-fused-speedup <tiered> \
//!         --seed 2024 --json 1]
//! ```
//!
//! Two comparisons, both single-thread — run under a one-thread budget
//! (`ThreadPool::install` with `num_threads(1)`), so they isolate
//! algorithmic constants, not rayon fan-out — and both **enforced on every
//! host**: neither needs more than one core, so a 1-core CI sandbox gates
//! them exactly like a workstation:
//!
//! 1. **Block kernel vs per-index substreams** — one-shot selection through
//!    the layout-v2 block kernel (`ParallelLogBiddingSelector::select`)
//!    against the legacy per-index path ([`PerIndexLogBiddingSelector`],
//!    layout v1). Gate: `--min-speedup` (default 2x) at `--gate-n`.
//! 2. **Fused batch vs per-draw kernel** — a buffer fill through the fused
//!    multi-draw kernel (`select_into`, eight bid streams per pass over the
//!    fitness array) against a `select` loop of the same block kernel (the
//!    pre-fused batched path). Gate: `--min-fused-speedup`, defaulting by
//!    the detected SIMD tier — **4x** with AVX-512, **3x** with AVX2,
//!    **1.25x** scalar (without vector units the fused win reduces to
//!    fitness-reuse and batched generation, so the bar tracks what the
//!    hardware can express; the tier is recorded in the report).
//!
//! Each gate reads the **median** of [`GATE_PAIRS`] alternating
//! measurements at the gate point (the order of the timed paths flips from
//! pair to pair), as `publish_quick` does; the sweep rows are for the
//! record. Both outcomes are recorded as [`GateMargin`]s in the `--json 1`
//! report, the `BENCH_selectors.json` baseline, with every pair ratio.
//!
//! [`PerIndexLogBiddingSelector`]: lrb_bench::selector_workload::PerIndexLogBiddingSelector

use lrb_bench::cli::{Options, OrExit};
use lrb_bench::gate::{print_margins, GateMargin};
use lrb_bench::selector_workload::{
    bench_fitness, bench_selector, bench_selector_per_draw, PerIndexLogBiddingSelector,
    SelectorReport,
};
use lrb_core::parallel::bid_kernel::STREAM_LAYOUT_VERSION;
use lrb_core::parallel::ParallelLogBiddingSelector;
use lrb_rng::SimdTier;
use rayon::ThreadPoolBuilder;
use serde::Serialize;

/// Alternating measurements of the gate point; each gate reads the median
/// of its pair ratios.
const GATE_PAIRS: usize = 7;

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
    min_speedup: f64,
    /// Median of `speedup_pairs`.
    speedup: f64,
    /// Per-index over block-kernel time of each gate pair, in measurement
    /// order.
    speedup_pairs: Vec<f64>,
    min_fused_speedup: f64,
    /// Median of `fused_speedup_pairs`.
    fused_speedup: f64,
    /// Per-draw loop over fused fill time of each gate pair, in
    /// measurement order.
    fused_speedup_pairs: Vec<f64>,
    gate_enforced: bool,
    sweep: Vec<SweepRow>,
    block_parallel: SelectorReport,
    margins: Vec<GateMargin>,
}

/// The middle value of `values` (odd length).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

fn main() {
    let options = Options::from_env();
    let gate_n = options.usize_or("gate-n", 1 << 16).or_exit();
    let min_speedup = options.f64_or("min-speedup", 2.0).or_exit();
    let seed = options.u64_or("seed", 2024).or_exit();
    let budget = options.u64_or("budget", 1 << 22).or_exit();

    let tier = lrb_rng::simd_tier();
    let tier_name = match tier {
        SimdTier::Avx512 => "avx512",
        SimdTier::Avx2 => "avx2",
        SimdTier::Scalar => "scalar",
    };
    // The fused win is mostly vector throughput; the bar tracks the tier.
    let default_fused_bar = match tier {
        SimdTier::Avx512 => 4.0,
        SimdTier::Avx2 => 3.0,
        SimdTier::Scalar => 1.25,
    };
    let min_fused_speedup = options
        .f64_or("min-fused-speedup", default_fused_bar)
        .or_exit();

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

    let mut sizes = vec![1 << 12, 1 << 16, 1 << 20];
    if !sizes.contains(&gate_n) {
        sizes.push(gate_n);
        sizes.sort_unstable();
    }
    // Keep total work roughly constant across sizes.
    let draws_at = |n: usize| (budget / n as u64).clamp(8, 4_096);
    let mut sweep = Vec::new();
    for n in sizes {
        let draws = draws_at(n);
        let fitness = bench_fitness(n);
        let (a, b, c) = single.install(|| {
            (
                bench_selector_per_draw(&per_index, &fitness, draws, seed),
                bench_selector_per_draw(&block, &fitness, draws, seed),
                bench_selector(&block, &fitness, draws, seed),
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

    // The gate point, re-measured as alternating pairs: even pairs time
    // per-index, per-draw block, fused; odd pairs the reverse. Each pair
    // yields one ratio per gate, and each gate reads the median, which a
    // scheduler hiccup in a few pairs cannot move.
    let fitness = bench_fitness(gate_n);
    let draws = draws_at(gate_n);
    let (speedup_pairs, fused_speedup_pairs): (Vec<f64>, Vec<f64>) = single.install(|| {
        (0..GATE_PAIRS)
            .map(|pair| {
                let per_index_ns =
                    || bench_selector_per_draw(&per_index, &fitness, draws, seed).ns_per_select;
                let block_ns =
                    || bench_selector_per_draw(&block, &fitness, draws, seed).ns_per_select;
                let fused_ns = || bench_selector(&block, &fitness, draws, seed).ns_per_select;
                let (a, b, c) = if pair % 2 == 0 {
                    let a = per_index_ns();
                    let b = block_ns();
                    (a, b, fused_ns())
                } else {
                    let c = fused_ns();
                    let b = block_ns();
                    (per_index_ns(), b, c)
                };
                (a / b.max(1e-9), b / c.max(1e-9))
            })
            .unzip()
    });
    let speedup = median(&speedup_pairs);
    let fused_speedup = median(&fused_speedup_pairs);

    // The rayon path at the gate size under the default thread budget, for
    // the record (identical winners to the one-thread path by construction;
    // it forks above one chunk and is faster only with real cores).
    let block_parallel = bench_selector(&block, &fitness, draws, seed);
    println!(
        "\n  rayon block path at n = {gate_n}: {:.1} ns/select ({} threads available)",
        block_parallel.ns_per_select, host_threads
    );

    // Both gates compare single-thread code paths doing the same logical
    // work — they need no cores, so they are enforced everywhere. The fused
    // bar is tier-dependent (1.25x scalar: without vector units the win
    // reduces to fitness-reuse and batched generation), so the margin
    // record carries the tier in its gate name.
    let gate_enforced = true;
    println!(
        "\nblock kernel vs per-index at n = {gate_n}: median {speedup:.2}x of {GATE_PAIRS} pairs \
         {speedup_pairs:.2?} (gate: >= {min_speedup}x)\n\
         fused batch vs per-draw at n = {gate_n}: median {fused_speedup:.2}x of {GATE_PAIRS} \
         pairs {fused_speedup_pairs:.2?} (gate: >= {min_fused_speedup}x, {tier_name} tier)"
    );

    let margins = vec![
        GateMargin::at_least("block_kernel_speedup", speedup, min_speedup, gate_enforced),
        GateMargin::at_least(
            &format!("fused_batch_speedup_{tier_name}"),
            fused_speedup,
            min_fused_speedup,
            gate_enforced,
        ),
    ];
    print_margins(&margins);

    if options.contains("json") {
        let report = QuickReport {
            host_threads: host_threads as u64,
            simd_tier: tier_name.to_string(),
            stream_layout_version: STREAM_LAYOUT_VERSION,
            gate_n: gate_n as u64,
            min_speedup,
            speedup,
            speedup_pairs,
            min_fused_speedup,
            fused_speedup,
            fused_speedup_pairs,
            gate_enforced,
            sweep,
            block_parallel,
            margins: margins.clone(),
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serialisation cannot fail")
        );
    }

    let mut failed = false;
    if speedup < min_speedup {
        eprintln!("FAIL: expected the block kernel to be >= {min_speedup}x the per-index path");
        failed = true;
    }
    if fused_speedup < min_fused_speedup {
        eprintln!(
            "FAIL: expected the fused batch path to be >= {min_fused_speedup}x the per-draw loop \
             ({tier_name} tier)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("OK");
}
