//! The block-Philox bid kernel: chunked, lazily-logarithmic argmax of
//! `ln(u_i) / f_i` — the constant-factor-free hot path under
//! [`ParallelLogBiddingSelector`](crate::parallel::ParallelLogBiddingSelector).
//!
//! ## Why a kernel
//!
//! The straightforward per-index implementation (stream layout v1, kept in
//! `lrb-bench` as the `selector_quick` baseline) pays three per-index
//! constants the mathematics does not require:
//!
//! 1. a fresh `Philox4x32::for_substream` per index — a key-schedule setup
//!    and cursor bookkeeping for every element;
//! 2. one full Philox block (ten rounds) per index, of which only two of the
//!    four 32-bit lanes are consumed;
//! 3. one `ln` call per index, even though only the argmax is wanted.
//!
//! The kernel removes all three. Uniforms are drawn through one
//! [`PhiloxBlock`] per chunk (two 64-bit words per counter bump, round keys
//! expanded once), and the `ln` is evaluated **lazily** behind a branch-free
//! filter: since `ln(u) ≤ u − 1` for all `u ∈ (0, 1)`, `(u − 1)/f` is an
//! upper bound on the true bid, so an index can only win if
//! `u − 1 ≥ best · f` (the product form of the same comparison — one
//! multiply, no divide, no zero-fitness special case). Any index failing the
//! filter is skipped without ever calling `ln`. The running maximum of `n`
//! i.i.d.-ish bids is beaten `O(log n)` times in expectation, so almost
//! every index takes the skip path: the kernel performs `Θ(n)` multiplies
//! but only `O(log n)` expected logarithms and divisions.
//!
//! The filter threshold carries `FILTER_SLACK` (a `1e-12` relative
//! cushion, ~10⁴ ulps) so 1-ulp rounding in `ln`, the multiply or the
//! division can never skip an index whose *computed* bid would have won:
//! the kernel's winner is bit-identical to the winner of the full
//! `ln`-per-index scan over the same uniforms.
//!
//! ## Stream layout (versioned)
//!
//! The uniforms consumed by one selection are pinned by
//! [`STREAM_LAYOUT_VERSION`]:
//!
//! * **v2 (current)** — index `j` reads word `j` of the *sequential* Philox
//!   stream keyed by the master draw (the `j`-th
//!   [`next_u64`](lrb_rng::RandomSource::next_u64) of
//!   `Philox4x32::with_key(master)`), converted by
//!   [`f64_open_open`]. Word `j` lives in Philox block `j / 2`, so any
//!   even-aligned index range can be generated independently — this is what
//!   makes the layout simultaneously chunkable, thread-count-invariant and
//!   cheap (two indices per counter bump).
//! * **v1 (legacy)** — index `j` read the first `next_u64` of
//!   `Philox4x32::for_substream(master, j)`: one whole block and one key
//!   setup per index. Kept verbatim in `lrb-bench`'s
//!   `PerIndexLogBiddingSelector` as the bench baseline and a second
//!   layout for the conformance tests.
//!
//! Both layouts consume exactly **one** `next_u64` from the *caller's*
//! generator per selection (the master draw), so selector-level sequences
//! (`select` loops, `select_into` buffers, [`crate::batch`]) are unchanged
//! between versions; only the internal bid-stream derivation differs — that
//! is the consumption contract the draw-for-draw proptests pin.
//!
//! ## The fused multi-draw path
//!
//! A *batch* of selections through the per-draw kernel streams the fitness
//! array once per draw: at `n = 2²⁰` that is 8 MiB of memory traffic per
//! selection, and the Philox chain of each draw runs latency-bound on its
//! ten serial rounds. The fused `select_many_block` kernel removes both
//! costs by
//! register-blocking [`FUSED_WIDTH`] = 8 draws into **one pass**: each
//! chunk
//! of the fitness array is loaded once and tested against eight independent
//! bid streams, whose uniforms are generated eight-streams-at-a-time by
//! [`lrb_rng::PhiloxMulti8`] (the same round executed across
//! eight key schedules — straight-line data parallelism that vectorises
//! under AVX-512/AVX2 and pipelines even in scalar form), while eight
//! running maxima sit in registers behind a row-wide lazy-`ln` filter.
//!
//! **The stream layout does not change**: [`STREAM_LAYOUT_VERSION`] stays
//! at 2, because fused draw `m` reads exactly the v2 stream keyed by its
//! own master draw — word `j` of the sequential Philox stream for index
//! `j`. The fused path consumes one caller `next_u64` per selection (the
//! masters are drawn up front, in slot order) and elects the same winners,
//! so `select_many(M)` is bit-identical, draw for draw, to `M` sequential
//! [`select`](crate::traits::Selector::select) calls on the same caller
//! generator — the property the fused proptests pin. Batches whose length
//! is not a multiple of eight pad the last group with duplicate lanes whose
//! results are discarded; padding consumes no caller randomness.

use lrb_obs::Counter;
use lrb_rng::uniform::f64_open_open;
use lrb_rng::{PhiloxBlock, PhiloxMulti8, SimdTier};
use rayon::prelude::*;

use crate::parallel::max_by_key_then_index;

/// `ln` evaluations the lazy filter actually paid for, process-wide — the
/// direct measurement of the kernel's `O(log n)`-expected-logs claim
/// (sharded counter: recording is one relaxed `fetch_add` per *chunk*, not
/// per `ln`, so the telemetry cannot distort what it measures).
static LN_CALLS: Counter = Counter::new();

/// Rows the fused row filter admitted for exact refinement, process-wide
/// (each admitted row re-tests up to [`FUSED_WIDTH`] lanes).
static REFINE_HITS: Counter = Counter::new();

/// Point-in-time totals of the kernel's process-wide telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// `ln` evaluations performed across all kernel paths.
    pub ln_calls: u64,
    /// Rows admitted by the fused row filter for exact refinement.
    pub refine_hits: u64,
}

/// Read the kernel's process-wide counters (relaxed sums; exact once the
/// recording threads quiesce).
pub fn kernel_counters() -> KernelCounters {
    KernelCounters {
        ln_calls: LN_CALLS.get(),
        refine_hits: REFINE_HITS.get(),
    }
}

/// Version of the bid-stream layout (see the module docs). Bump whenever
/// the mapping from `(master, index)` to a uniform changes; reproducibility
/// of stored selection sequences is per layout version.
pub const STREAM_LAYOUT_VERSION: u32 = 2;

/// Indices processed per inner fill: the uniforms buffer lives on the
/// stack, so the kernel allocates nothing. Even by construction (two words
/// per Philox block).
pub const KERNEL_CHUNK: usize = 256;

/// Indices per rayon task in the parallel path. A fixed multiple of two so
/// every task starts on a block boundary; chunk boundaries are part of
/// *scheduling*, not of the stream layout — any even split yields the same
/// uniforms, hence the same winner, at any thread count.
pub const PAR_CHUNK: usize = 8192;

/// Whether a pass over `values` forks: exactly when it spans more than one
/// [`PAR_CHUNK`] and the thread budget has a second thread. Forking
/// smaller inputs would hand the pool a single chunk.
fn forks(values: &[f64]) -> bool {
    values.len() > PAR_CHUNK && rayon::current_num_threads() > 1
}

/// Relative slack applied to the filter threshold `best · f` (both sides of
/// the comparison are ≤ 0, so inflating the threshold's magnitude admits
/// *more* indices to the exact refinement — strictly conservative). `ln`,
/// the multiply and the `u − 1` are each faithful to ≲1 ulp (~2.2e-16
/// relative), so a 1e-12 cushion is ~10⁴ ulps of margin while still
/// rejecting essentially every non-winning index.
const FILTER_SLACK: f64 = 1.0 + 1.0e-12;

/// The sequential block kernel over `values[..]`, whose global indices are
/// `base..base + values.len()`. `base` must be even (block-aligned).
///
/// Folds `(bid, index)` candidates into `best` through
/// [`max_by_key_then_index`], evaluating `ln` only for indices whose proxy
/// upper bound could beat the running maximum. The filter is the product
/// form of the proxy test — `u − 1 ≥ best · f` instead of
/// `(u − 1)/f ≥ best` — which is the same comparison for `f > 0` (both
/// sides are ≤ 0) but costs a multiply instead of a divide, and needs no
/// zero-fitness branch at all: for `f = ±0.0` the threshold `best · f` is
/// `±0.0` (or NaN while `best` is still `−∞`), which `u − 1 < 0` can never
/// reach, so zero-weight indices are filtered out before the division that
/// would have mis-signed them.
#[inline]
pub(crate) fn block_argmax(
    values: &[f64],
    base: usize,
    master: u64,
    mut best: (f64, usize),
) -> (f64, usize) {
    debug_assert!(
        base.is_multiple_of(2),
        "chunks must start on a block boundary"
    );
    let mut stream = PhiloxBlock::at_block(master, (base / 2) as u128);
    let mut uniforms = [0u64; KERNEL_CHUNK];
    let mut offset = 0;
    // Accumulated locally, recorded once per call: the telemetry must not
    // add a shared RMW to the filter loop it instruments.
    let mut ln_calls = 0u64;
    while offset < values.len() {
        let len = KERNEL_CHUNK.min(values.len() - offset);
        stream.fill_u64(&mut uniforms[..len]);
        for (k, &word) in uniforms[..len].iter().enumerate() {
            let f = values[offset + k];
            let u = f64_open_open(word);
            if u - 1.0 >= best.0 * f * FILTER_SLACK {
                let bid = u.ln() / f;
                ln_calls += 1;
                best = max_by_key_then_index(best, (bid, base + offset + k));
            }
        }
        offset += len;
    }
    if ln_calls > 0 {
        LN_CALLS.add(ln_calls);
    }
    best
}

/// Select the bid-argmax index of `values` under stream layout v2.
///
/// One sequential pass, or a rayon `par_chunks(PAR_CHUNK) → reduce` when
/// the pass [`forks`]; both return the same index for the same `master`
/// because chunk-local argmaxes combine associatively under
/// [`max_by_key_then_index`] and the uniforms are a pure function of
/// `(master, index)`.
pub(crate) fn select_block(values: &[f64], master: u64) -> usize {
    let identity = (f64::NEG_INFINITY, usize::MAX);
    let best = if forks(values) {
        values
            .par_chunks(PAR_CHUNK)
            .with_min_len(1)
            .enumerate()
            .map(|(chunk, slice)| block_argmax(slice, chunk * PAR_CHUNK, master, identity))
            .reduce(|| identity, max_by_key_then_index)
    } else {
        block_argmax(values, 0, master, identity)
    };
    best.1
}

/// Draws register-blocked per fused pass (equals
/// [`lrb_rng::MULTI_WIDTH`]): eight running maxima ride one sweep of the
/// fitness array.
pub const FUSED_WIDTH: usize = lrb_rng::MULTI_WIDTH;

/// One fused group's running state: eight `(bid, index)` maxima plus the
/// slack-inflated filter thresholds derived from them (`thresh = best ·
/// FILTER_SLACK`, kept separately so the row filter is one multiply per
/// lane).
#[derive(Debug, Clone, Copy)]
struct FusedLanes {
    best: [(f64, usize); FUSED_WIDTH],
    thresh: [f64; FUSED_WIDTH],
}

impl FusedLanes {
    fn identity() -> Self {
        Self {
            best: [(f64::NEG_INFINITY, usize::MAX); FUSED_WIDTH],
            thresh: [f64::NEG_INFINITY; FUSED_WIDTH],
        }
    }

    /// Lane-wise argmax merge (associative; used by the rayon reduction).
    fn merge(mut self, other: Self) -> Self {
        for m in 0..FUSED_WIDTH {
            self.best[m] = max_by_key_then_index(self.best[m], other.best[m]);
            self.thresh[m] = self.best[m].0 * FILTER_SLACK;
        }
        self
    }
}

/// The sequential fused kernel over `values[..]` (global indices
/// `base..base + values.len()`, `base` even): every chunk of the fitness
/// array is loaded once and tested against all groups' bid streams.
fn fused_argmax(
    values: &[f64],
    base: usize,
    multis: &[PhiloxMulti8],
    lanes: &mut [FusedLanes],
    tier: SimdTier,
) {
    debug_assert!(
        base.is_multiple_of(2),
        "chunks must start on a block boundary"
    );
    debug_assert_eq!(multis.len(), lanes.len());
    let mut uniforms = [0.0f64; KERNEL_CHUNK * FUSED_WIDTH];
    let mut hits = [(0u16, 0u8); KERNEL_CHUNK];
    let mut offset = 0;
    while offset < values.len() {
        let len = KERNEL_CHUNK.min(values.len() - offset);
        let rows = len.next_multiple_of(2);
        let chunk = &values[offset..offset + len];
        for (group, multi) in multis.iter().enumerate() {
            multi.fill_uniforms(((base + offset) / 2) as u64, rows, &mut uniforms);
            let hit_count = filter::rows(tier, chunk, &uniforms, &lanes[group].thresh, &mut hits);
            if hit_count > 0 {
                refine_hits(
                    chunk,
                    base + offset,
                    &uniforms,
                    &hits[..hit_count],
                    &mut lanes[group],
                );
            }
        }
        offset += len;
    }
}

/// Exact refinement of the rows the filter admitted: re-test against the
/// *current* (tighter) thresholds — the row filter ran with the thresholds
/// frozen at chunk entry, which is conservative because thresholds only
/// rise — then pay the `ln` and fold into the lane's running maximum. Kept
/// out of line: the running maximum of `n` i.i.d.-ish bids is beaten
/// `O(log n)` times, so this body runs orders of magnitude less often than
/// the filter loop and must not bloat it.
#[inline(never)]
fn refine_hits(
    chunk: &[f64],
    global_base: usize,
    uniforms: &[f64],
    hits: &[(u16, u8)],
    lanes: &mut FusedLanes,
) {
    let mut ln_calls = 0u64;
    for &(row, mask) in hits {
        let k = row as usize;
        let f = chunk[k];
        for m in 0..FUSED_WIDTH {
            if mask & (1 << m) != 0 {
                let u = uniforms[k * FUSED_WIDTH + m];
                if u - 1.0 >= lanes.thresh[m] * f {
                    let bid = u.ln() / f;
                    ln_calls += 1;
                    lanes.best[m] = max_by_key_then_index(lanes.best[m], (bid, global_base + k));
                    lanes.thresh[m] = lanes.best[m].0 * FILTER_SLACK;
                }
            }
        }
    }
    // One shard add per refinement call — this body already runs orders of
    // magnitude less often than the filter, so the telemetry rides along.
    REFINE_HITS.add(hits.len() as u64);
    if ln_calls > 0 {
        LN_CALLS.add(ln_calls);
    }
}

/// Pad a partial last group with duplicates of its first master; the
/// padded lanes run like real ones and their winners are discarded, so
/// padding never touches the caller's generator.
fn pad_group(group: &[u64]) -> [u64; FUSED_WIDTH] {
    let mut padded = [group[0]; FUSED_WIDTH];
    padded[..group.len()].copy_from_slice(group);
    padded
}

/// Select the bid-argmax winners of `values` for every master in `masters`
/// (one selection per master, stream layout v2 per draw) in fused passes
/// over the fitness array: `out[t]` is the winner `select_block(values,
/// masters[t], …)` would have produced, computed
/// `masters.len() / FUSED_WIDTH`-fold cheaper.
///
/// The pass forks over rayon chunks exactly when the per-draw kernel's
/// would; chunk-local lane maxima merge associatively, so the winners are
/// identical at any thread count.
///
/// Small batches take cheaper shapes (same winners, draw for draw): below
/// a tier-dependent floor the per-draw kernel is simply looped — on the
/// scalar tier a padded fused group costs up to eight single passes, so
/// fusing pays only from a full group; on the SIMD tiers two draws already
/// amortise the vector fill — and a batch that fits one fused group runs
/// entirely on the stack (no per-call `Vec`s).
pub(crate) fn select_many_block(values: &[f64], masters: &[u64], out: &mut [usize]) {
    assert_eq!(masters.len(), out.len());
    if masters.is_empty() {
        return;
    }
    let parallel = forks(values);
    let tier = lrb_rng::simd_tier();
    let fused_min = match tier {
        SimdTier::Scalar => FUSED_WIDTH,
        _ => 2,
    };
    if masters.len() < fused_min {
        for (slot, &master) in out.iter_mut().zip(masters) {
            *slot = select_block(values, master);
        }
        return;
    }
    if masters.len() <= FUSED_WIDTH {
        let multi = PhiloxMulti8::new(pad_group(masters));
        let group = std::slice::from_ref(&multi);
        let lanes = if parallel {
            values
                .par_chunks(PAR_CHUNK)
                .with_min_len(1)
                .enumerate()
                .map(|(chunk, slice)| {
                    let mut local = [FusedLanes::identity()];
                    fused_argmax(slice, chunk * PAR_CHUNK, group, &mut local, tier);
                    local[0]
                })
                .reduce(FusedLanes::identity, FusedLanes::merge)
        } else {
            let mut local = [FusedLanes::identity()];
            fused_argmax(values, 0, group, &mut local, tier);
            local[0]
        };
        for (t, slot) in out.iter_mut().enumerate() {
            *slot = lanes.best[t].1;
        }
        return;
    }
    let multis: Vec<PhiloxMulti8> = masters
        .chunks(FUSED_WIDTH)
        .map(|group| PhiloxMulti8::new(pad_group(group)))
        .collect();
    let lanes = if parallel {
        values
            .par_chunks(PAR_CHUNK)
            .with_min_len(1)
            .enumerate()
            .map(|(chunk, slice)| {
                let mut local = vec![FusedLanes::identity(); multis.len()];
                fused_argmax(slice, chunk * PAR_CHUNK, &multis, &mut local, tier);
                local
            })
            .reduce(
                || vec![FusedLanes::identity(); multis.len()],
                |a, b| {
                    a.into_iter()
                        .zip(b)
                        .map(|(x, y)| FusedLanes::merge(x, y))
                        .collect()
                },
            )
    } else {
        let mut local = vec![FusedLanes::identity(); multis.len()];
        fused_argmax(values, 0, &multis, &mut local, tier);
        local
    };
    for (t, slot) in out.iter_mut().enumerate() {
        *slot = lanes[t / FUSED_WIDTH].best[t % FUSED_WIDTH].1;
    }
}

/// The row filter: for every fitness index of the chunk, test all eight
/// lanes' proxy bound `u − 1 ≥ thresh · f` at once and append rows with any
/// passing lane (plus their lane masks) to `hits`.
///
/// Three tiers with identical semantics: AVX-512 (one 8-lane compare per
/// row), AVX2 (two 4-lane halves) and scalar (a branchless mask
/// accumulation). The comparison is `>=` with quiet-NaN-fails ordering in
/// every tier, so a NaN threshold product (`−∞ · 0` while a lane is still
/// empty against a zero fitness) rejects the row exactly like the scalar
/// per-draw kernel.
///
/// ## Safety argument (audited `unsafe`)
///
/// The SIMD paths contain only `#[target_feature]` entry calls — reached
/// solely through the tier dispatch, where the tier came from
/// [`lrb_rng::simd_tier`]'s runtime detection — and unaligned vector loads
/// whose pointers stay in bounds by the debug-asserted preconditions
/// (`uniforms.len() ≥ values.len() · 8`, `thresh` is exactly eight lanes).
#[allow(unsafe_code)]
mod filter {
    use super::{SimdTier, FUSED_WIDTH, KERNEL_CHUNK};

    /// Filter one chunk; returns the number of hits written.
    #[inline]
    pub(super) fn rows(
        tier: SimdTier,
        values: &[f64],
        uniforms: &[f64],
        thresh: &[f64; FUSED_WIDTH],
        hits: &mut [(u16, u8); KERNEL_CHUNK],
    ) -> usize {
        debug_assert!(values.len() <= KERNEL_CHUNK);
        debug_assert!(uniforms.len() >= values.len() * FUSED_WIDTH);
        match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the tier is the runtime-detected one (module docs).
            SimdTier::Avx512 => unsafe { rows_avx512(values, uniforms, thresh, hits) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            SimdTier::Avx2 => unsafe { rows_avx2(values, uniforms, thresh, hits) },
            _ => rows_scalar(values, uniforms, thresh, hits),
        }
    }

    fn rows_scalar(
        values: &[f64],
        uniforms: &[f64],
        thresh: &[f64; FUSED_WIDTH],
        hits: &mut [(u16, u8); KERNEL_CHUNK],
    ) -> usize {
        let mut count = 0;
        for (k, &f) in values.iter().enumerate() {
            let row = &uniforms[k * FUSED_WIDTH..(k + 1) * FUSED_WIDTH];
            let mut mask = 0u8;
            for m in 0..FUSED_WIDTH {
                let pass = row[m] - 1.0 >= thresh[m] * f;
                mask |= (pass as u8) << m;
            }
            if mask != 0 {
                hits[count] = (k as u16, mask);
                count += 1;
            }
        }
        count
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn rows_avx512(
        values: &[f64],
        uniforms: &[f64],
        thresh: &[f64; FUSED_WIDTH],
        hits: &mut [(u16, u8); KERNEL_CHUNK],
    ) -> usize {
        use std::arch::x86_64::*;
        // SAFETY: thresh is exactly eight f64 (512 bits).
        let t = unsafe { _mm512_loadu_pd(thresh.as_ptr()) };
        let one = _mm512_set1_pd(1.0);
        let mut count = 0;
        for (k, &f) in values.iter().enumerate() {
            let fv = _mm512_set1_pd(f);
            // SAFETY: row k is in bounds (uniforms.len() >= values.len()·8).
            let u = unsafe { _mm512_loadu_pd(uniforms.as_ptr().add(k * FUSED_WIDTH)) };
            let lhs = _mm512_sub_pd(u, one);
            let rhs = _mm512_mul_pd(t, fv);
            let mask = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(lhs, rhs);
            if mask != 0 {
                hits[count] = (k as u16, mask);
                count += 1;
            }
        }
        count
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn rows_avx2(
        values: &[f64],
        uniforms: &[f64],
        thresh: &[f64; FUSED_WIDTH],
        hits: &mut [(u16, u8); KERNEL_CHUNK],
    ) -> usize {
        use std::arch::x86_64::*;
        // SAFETY: thresh halves are four f64 each (256 bits).
        let t_lo = unsafe { _mm256_loadu_pd(thresh.as_ptr()) };
        let t_hi = unsafe { _mm256_loadu_pd(thresh.as_ptr().add(4)) };
        let one = _mm256_set1_pd(1.0);
        let mut count = 0;
        for (k, &f) in values.iter().enumerate() {
            let fv = _mm256_set1_pd(f);
            // SAFETY: row k (both halves) is in bounds as above.
            let (u_lo, u_hi) = unsafe {
                (
                    _mm256_loadu_pd(uniforms.as_ptr().add(k * FUSED_WIDTH)),
                    _mm256_loadu_pd(uniforms.as_ptr().add(k * FUSED_WIDTH + 4)),
                )
            };
            let pass_lo =
                _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_sub_pd(u_lo, one), _mm256_mul_pd(t_lo, fv));
            let pass_hi =
                _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_sub_pd(u_hi, one), _mm256_mul_pd(t_hi, fv));
            let mask = (_mm256_movemask_pd(pass_lo) | (_mm256_movemask_pd(pass_hi) << 4)) as u8;
            if mask != 0 {
                hits[count] = (k as u16, mask);
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_rng::{RandomSource, SeedableSource, SplitMix64};

    /// Run `op` under a thread budget of `threads`.
    fn at_budget<R>(threads: usize, op: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(op)
    }

    /// The unfiltered oracle, read straight off the layout's definition:
    /// index `j` bids `ln(u_j) / f_j` with `u_j` the `j`-th `next_u64` of
    /// the sequential stream keyed by the master, and every index pays the
    /// `ln` (no block addressing, no skip logic).
    fn naive_argmax(values: &[f64], master: u64) -> usize {
        let mut stream = lrb_rng::Philox4x32::with_key(master);
        let mut best = (f64::NEG_INFINITY, usize::MAX);
        for (j, &f) in values.iter().enumerate() {
            let bid = lrb_rng::uniform::f64_open_open(stream.next_u64()).ln() / (f + 0.0);
            best = max_by_key_then_index(best, (bid, j));
        }
        best.1
    }

    #[test]
    fn kernel_matches_the_naive_full_ln_scan() {
        let mut rng = SplitMix64::seed_from_u64(404);
        for n in [1usize, 2, 3, 17, 255, 256, 257, 1000, 5000] {
            let values: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64).collect();
            if values.iter().all(|&v| v == 0.0) {
                continue;
            }
            for _ in 0..20 {
                let master = rng.next_u64();
                assert_eq!(
                    select_block(&values, master),
                    naive_argmax(&values, master),
                    "n = {n}, master = {master}"
                );
            }
        }
    }

    #[test]
    fn parallel_and_sequential_kernels_agree() {
        // n = 30 000 is three full chunks and a ragged fourth, so budgets
        // above one fork; budget one runs the same pass inline.
        let values: Vec<f64> = (0..30_000).map(|i| ((i % 97) + 1) as f64).collect();
        let mut rng = SplitMix64::seed_from_u64(7);
        let masters: Vec<u64> = (0..40).map(|_| rng.next_u64()).collect();
        let winners = |threads| {
            at_budget(threads, || {
                masters
                    .iter()
                    .map(|&master| select_block(&values, master))
                    .collect::<Vec<_>>()
            })
        };
        let inline = winners(1);
        for threads in [2, 3, 8] {
            assert_eq!(winners(threads), inline, "{threads} threads");
        }
    }

    #[test]
    fn zero_and_negative_zero_fitness_never_win() {
        let values = vec![0.0, -0.0, 5.0, 0.0];
        let mut rng = SplitMix64::seed_from_u64(9);
        for _ in 0..200 {
            assert_eq!(select_block(&values, rng.next_u64()), 2);
        }
    }

    #[test]
    fn layout_v2_reads_the_sequential_philox_stream() {
        // The layout contract on the kernel's own reads: with one non-zero
        // weight, the block pass returns index j's exact bid, whose uniform
        // must be word j of the sequential stream keyed by the master, both
        // from the first chunk (base 0) and from a forked chunk's base.
        let master = 0xBEEF;
        let mut seq = lrb_rng::Philox4x32::with_key(master);
        let words: Vec<u64> = (0..PAR_CHUNK + 16).map(|_| seq.next_u64()).collect();
        for base in [0, PAR_CHUNK] {
            for j in 0..16usize {
                let mut values = [0.0; 16];
                values[j] = 3.0;
                let expected = lrb_rng::uniform::f64_open_open(words[base + j]).ln() / 3.0;
                let identity = (f64::NEG_INFINITY, usize::MAX);
                assert_eq!(
                    block_argmax(&values, base, master, identity),
                    (expected, base + j),
                    "base {base}, index {j}"
                );
            }
        }
    }

    #[test]
    fn layout_version_is_pinned() {
        assert_eq!(STREAM_LAYOUT_VERSION, 2);
        assert_eq!(KERNEL_CHUNK % 2, 0);
        assert_eq!(PAR_CHUNK % KERNEL_CHUNK, 0);
        assert_eq!(FUSED_WIDTH, 8);
    }

    #[test]
    fn fused_kernel_matches_the_per_draw_kernel_lane_for_lane() {
        // The fused contract: out[t] == select_block(values, masters[t]) for
        // every batch length, including lengths that do not divide by 8.
        let mut rng = SplitMix64::seed_from_u64(2024);
        for n in [1usize, 2, 17, 255, 256, 257, 1000, 5000] {
            let values: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64).collect();
            if values.iter().all(|&v| v == 0.0) {
                continue;
            }
            for batch in [1usize, 3, 7, 8, 9, 16, 20] {
                let masters: Vec<u64> = (0..batch).map(|_| rng.next_u64()).collect();
                let mut out = vec![0usize; batch];
                select_many_block(&values, &masters, &mut out);
                for (t, &master) in masters.iter().enumerate() {
                    assert_eq!(
                        out[t],
                        select_block(&values, master),
                        "n = {n}, batch = {batch}, draw {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_parallel_and_sequential_paths_agree() {
        let values: Vec<f64> = (0..30_000).map(|i| ((i % 97) + 1) as f64).collect();
        let mut rng = SplitMix64::seed_from_u64(55);
        let masters: Vec<u64> = (0..19).map(|_| rng.next_u64()).collect();
        let fill = |threads| {
            at_budget(threads, || {
                let mut out = vec![0usize; masters.len()];
                select_many_block(&values, &masters, &mut out);
                out
            })
        };
        let inline = fill(1);
        for threads in [2, 3, 8] {
            assert_eq!(fill(threads), inline, "{threads} threads");
        }
    }

    #[test]
    fn fused_kernel_never_elects_zero_fitness_indices() {
        let values = vec![0.0, -0.0, 5.0, 0.0, 3.0];
        let mut rng = SplitMix64::seed_from_u64(77);
        let masters: Vec<u64> = (0..200).map(|_| rng.next_u64()).collect();
        let mut out = vec![0usize; masters.len()];
        select_many_block(&values, &masters, &mut out);
        assert!(out.iter().all(|&i| i == 2 || i == 4));
    }

    #[test]
    fn fused_kernel_accepts_an_empty_batch() {
        select_many_block(&[1.0, 2.0], &[], &mut []);
    }

    #[test]
    fn kernel_counters_measure_the_lazy_ln_claim() {
        // Process-wide counters: other tests record too, so assert on the
        // *delta* across a known workload. 50 draws over n = 20_000 through
        // the per-draw kernel must pay far fewer than n·draws logs — the
        // O(log n) expected-logs claim with generous slack (the filter also
        // admits near-winners).
        let n = 20_000usize;
        let draws = 50u64;
        let values: Vec<f64> = (0..n).map(|i| ((i % 97) + 1) as f64).collect();
        let mut rng = SplitMix64::seed_from_u64(313);
        let before = kernel_counters();
        for _ in 0..draws {
            let _ = select_block(&values, rng.next_u64());
        }
        let after = kernel_counters();
        let lns = after.ln_calls - before.ln_calls;
        assert!(lns >= draws, "every draw pays at least the winner's ln");
        assert!(
            lns < draws * 40 * (n as f64).log2() as u64,
            "{lns} logs over {draws} draws of n = {n} — the filter is broken"
        );
        // The fused path also counts its refinement rows.
        let masters: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        let mut out = vec![0usize; masters.len()];
        select_many_block(&values, &masters, &mut out);
        let fused = kernel_counters();
        assert!(fused.refine_hits > after.refine_hits);
        assert!(fused.ln_calls > after.ln_calls);
    }
}
