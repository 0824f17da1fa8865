//! Eight-way interleaved Philox4x32-10 uniform generation — the multi-stream
//! block fill under the fused multi-draw bid kernel in `lrb-core`, and the
//! eight-substream head fill under
//! [`Philox4x32::fill_substreams`](crate::Philox4x32::fill_substreams)
//! (one key, eight consecutive substream counters: the service planner's
//! slots).
//!
//! A fused selection computes [`MULTI_WIDTH`] independent draws in one pass
//! over the fitness array, which needs, for every index `k`, one open-open
//! uniform from each of eight Philox streams (stream `m` keyed by master
//! draw `m`). Producing those streams one at a time leaves the CPU
//! latency-bound on the ten-round Philox chain; producing them **eight at a
//! time** — the same round executed across eight independent key schedules —
//! turns the chain into straight-line data parallelism that vectorises
//! (AVX-512: one 8-lane register per counter word; AVX2: two 4-lane halves)
//! and pipelines even in scalar form.
//!
//! [`PhiloxMulti8::fill_uniforms`] writes an **interleaved** layout:
//! `out[k · 8 + m]` is the uniform of word `base_block · 2 + k` of stream
//! `m`. Row `k` is therefore contiguous — exactly the shape the fused
//! kernel's filter wants (one aligned 8-lane load per fitness index) and
//! exactly the shape one AVX-512 store produces per generated word row.
//!
//! ## Exactness contract
//!
//! Every tier produces **bit-identical** output: word `w` of stream `m` is
//! the `w`-th [`next_u64`](crate::RandomSource::next_u64) of
//! `Philox4x32::with_key(masters[m])`, converted by
//! [`f64_open_open`](fn@crate::uniform::f64_open_open). The SIMD tiers
//! convert
//! with `vcvtuqq2pd` (AVX-512) or the `2⁵² + k` exponent-bias trick (AVX2);
//! both compute the exact value `(k + 0.5) · 2⁻⁵²` — every intermediate is
//! representable, so no rounding ever differs from the scalar formula. The
//! head fill's first uniform, `(w >> 11) · 2⁻⁵³` with a 53-bit `w >> 11`,
//! is exact the same way (AVX2 converts its two 32-bit halves apart and
//! adds them exactly). The
//! tier is an implementation detail, never part of a stored stream layout.
//!
//! The active tier is detected once per process ([`simd_tier`]) and can be
//! overridden per generator ([`PhiloxMulti8::with_tier`]) for tests and
//! benches that pin a code path.

use crate::philox::{round_keys, Philox4x32, PhiloxBlock, ROUNDS};
use crate::uniform::f64_open_open;

/// Streams generated per fused fill (the fused bid kernel's register-block
/// width), and substream heads per step of
/// [`Philox4x32::fill_substreams`].
pub const MULTI_WIDTH: usize = 8;

/// Which vector width the multi-stream fill executes with. Output is
/// bit-identical across tiers; only throughput differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// 8 × 64-bit lanes per op (`avx512f` + `avx512dq`).
    Avx512,
    /// 4 × 64-bit lanes per op, two halves per row (`avx2`).
    Avx2,
    /// Portable scalar fallback (one [`PhiloxBlock`] per stream).
    Scalar,
}

/// The best [`SimdTier`] this host supports, detected once per process.
///
/// The `LRB_SIMD` environment variable (`avx512` / `avx2` / `scalar`)
/// caps the tier for benches and CI diagnostics, the same way
/// `LRB_THREADS` pins the thread budget; an unsupported or unrecognised
/// request falls back to detection. Output is bit-identical across tiers,
/// so the override can never change results, only throughput.
pub fn simd_tier() -> SimdTier {
    use std::sync::OnceLock;
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        let detected = detect_tier();
        match std::env::var("LRB_SIMD").ok().as_deref() {
            Some("scalar") => SimdTier::Scalar,
            Some("avx2") if tier_supported(SimdTier::Avx2) => SimdTier::Avx2,
            Some("avx512") if tier_supported(SimdTier::Avx512) => SimdTier::Avx512,
            _ => detected,
        }
    })
}

fn detect_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
            return SimdTier::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return SimdTier::Avx2;
        }
    }
    SimdTier::Scalar
}

/// Whether `tier` can execute on this host.
pub fn tier_supported(tier: SimdTier) -> bool {
    match tier {
        SimdTier::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => {
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
        }
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => is_x86_feature_detected!("avx2"),
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

/// Every tier this host can execute, widest first (tests pin each one).
#[cfg(test)]
pub(crate) fn supported_tiers() -> Vec<SimdTier> {
    [SimdTier::Avx512, SimdTier::Avx2, SimdTier::Scalar]
        .into_iter()
        .filter(|&t| tier_supported(t))
        .collect()
}

/// An eight-stream Philox uniform generator with the round keys of all
/// eight streams expanded once at construction.
#[derive(Debug, Clone)]
pub struct PhiloxMulti8 {
    masters: [u64; MULTI_WIDTH],
    /// Round keys, lane-major per round: `k0[r][m]` is round `r`'s first
    /// key word of stream `m`, zero-extended to 64 bits so the SIMD tiers
    /// can load a full register per round.
    k0: [[u64; MULTI_WIDTH]; ROUNDS],
    k1: [[u64; MULTI_WIDTH]; ROUNDS],
    tier: SimdTier,
}

impl PhiloxMulti8 {
    /// A generator for eight streams keyed by `masters`, on the best tier
    /// this host supports.
    pub fn new(masters: [u64; MULTI_WIDTH]) -> Self {
        Self::with_tier(masters, simd_tier())
    }

    /// A generator pinned to an explicit tier (tests and benches comparing
    /// code paths). Panics if the host cannot execute `tier`.
    pub fn with_tier(masters: [u64; MULTI_WIDTH], tier: SimdTier) -> Self {
        assert!(
            tier_supported(tier),
            "tier {tier:?} is not supported on this host"
        );
        let mut k0 = [[0u64; MULTI_WIDTH]; ROUNDS];
        let mut k1 = [[0u64; MULTI_WIDTH]; ROUNDS];
        for (m, &master) in masters.iter().enumerate() {
            for (r, keys) in round_keys(master).iter().enumerate() {
                k0[r][m] = keys[0] as u64;
                k1[r][m] = keys[1] as u64;
            }
        }
        Self {
            masters,
            k0,
            k1,
            tier,
        }
    }

    /// The tier this generator executes with.
    pub fn tier(&self) -> SimdTier {
        self.tier
    }

    /// The eight master keys.
    pub fn masters(&self) -> &[u64; MULTI_WIDTH] {
        &self.masters
    }

    /// Fill `out[k · 8 + m]` for `k in 0..rows` with the open-open uniform
    /// of word `2 · base_block + k` of stream `m`.
    ///
    /// `rows` must be even (whole Philox blocks; each block yields two
    /// words) and `out` must hold at least `rows · 8` values.
    pub fn fill_uniforms(&self, base_block: u64, rows: usize, out: &mut [f64]) {
        assert!(rows.is_multiple_of(2), "rows must cover whole blocks");
        assert!(out.len() >= rows * MULTI_WIDTH, "output buffer too small");
        match self.tier {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => simd::fill_avx512(self, base_block, rows, out),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => simd::fill_avx2(self, base_block, rows, out),
            _ => self.fill_scalar(base_block, rows, out),
        }
    }

    /// Portable reference fill: one [`PhiloxBlock`] per stream, written
    /// transposed into the interleaved layout.
    fn fill_scalar(&self, base_block: u64, rows: usize, out: &mut [f64]) {
        for (m, &master) in self.masters.iter().enumerate() {
            let mut stream = PhiloxBlock::at_block(master, base_block as u128);
            let mut k = 0;
            while k < rows {
                let words = stream.next_u64_pair();
                out[k * MULTI_WIDTH + m] = f64_open_open(words[0]);
                out[(k + 1) * MULTI_WIDTH + m] = f64_open_open(words[1]);
                k += 2;
            }
        }
    }
}

/// The vector half of [`Philox4x32::fill_substreams`]: on the AVX-512
/// and AVX2 tiers, fill the whole groups of [`MULTI_WIDTH`] streams at the
/// front of `streams` (and their uniforms) eight substreams per step, and
/// return how many it filled. The scalar tier, and a slice shorter than
/// one group, fill none: the caller takes the rest block by block.
pub(crate) fn substream_heads(
    tier: SimdTier,
    key: u64,
    first: u64,
    streams: &mut [Philox4x32],
    uniforms: &mut [f64],
) -> usize {
    let whole = streams.len() - streams.len() % MULTI_WIDTH;
    if whole == 0 {
        return 0;
    }
    let (streams, uniforms) = (&mut streams[..whole], &mut uniforms[..whole]);
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => simd::heads_avx512(key, first, streams, uniforms),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => simd::heads_avx2(key, first, streams, uniforms),
        _ => return 0,
    }
    whole
}

/// The vectorised tiers: [`PhiloxMulti8::fill_uniforms`] (eight keys, one
/// counter) and [`substream_heads`] (one key, eight substream counters).
/// Each tier writes the Philox round once (`rounds_avx512`,
/// `rounds_avx2`) and both fills run it.
///
/// ## Safety argument (audited `unsafe`)
///
/// Only two kinds of `unsafe` appear here, both mechanical:
///
/// * **`#[target_feature]` entry calls** — `fill_avx512` / `fill_avx2` are
///   only reachable through [`PhiloxMulti8::fill_uniforms`], which
///   dispatches on a tier that [`tier_supported`] verified against
///   `is_x86_feature_detected!` at construction; `heads_avx512` /
///   `heads_avx2` assert [`tier_supported`] themselves before entering.
///   The features are therefore present whenever the functions run.
/// * **Unaligned vector loads/stores** — every pointer is derived from a
///   slice (or a fixed-size array) whose length was checked by the caller's
///   asserts (`out.len() >= rows · 8`, key arrays are exactly eight lanes)
///   or is fixed by its type (the heads' `[f64; 8]` and `[u64; 8]` groups),
///   and offsets stay strictly below those lengths by loop construction.
///
/// All arithmetic intrinsics are safe to call inside their
/// `#[target_feature]` context.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::{
        round_keys, tier_supported, Philox4x32, PhiloxMulti8, SimdTier, MULTI_WIDTH, ROUNDS,
    };
    use crate::philox::{PHILOX_M0, PHILOX_M1};
    use crate::uniform::F64_EPS_53;
    use std::arch::x86_64::*;

    /// `2⁻⁵²`, the open-open conversion scale.
    const OPEN_SCALE: f64 = 1.0 / 4_503_599_627_370_496.0;
    /// `2⁵²`: OR'd into its bits, an integer `k < 2⁵²` makes `2⁵² + k`.
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    /// `2⁵² − 0.5`: subtracting it from `2⁵² + k` yields `k + 0.5` exactly
    /// (both operands and the result are representable, so the subtraction
    /// cannot round).
    const EXP_BIAS_MINUS_HALF: f64 = TWO_52 - 0.5;
    /// `2⁻³²`, the weight of a word's high lane in `[0, 1)`.
    const HIGH_LANE_SCALE: f64 = 1.0 / 4_294_967_296.0;

    /// Ten Philox rounds over eight lanes, one 32-bit counter word per
    /// 64-bit lane of `c[w]`, under round keys `k0[r]` / `k1[r]` — the
    /// AVX-512 tier's only copy of the round.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn rounds_avx512(
        mut c: [__m512i; 4],
        k0: &[__m512i; ROUNDS],
        k1: &[__m512i; ROUNDS],
    ) -> [__m512i; 4] {
        let m0 = _mm512_set1_epi64(PHILOX_M0 as i64);
        let m1 = _mm512_set1_epi64(PHILOX_M1 as i64);
        let lo32 = _mm512_set1_epi64(0xFFFF_FFFF);
        for r in 0..ROUNDS {
            let p0 = _mm512_mul_epu32(c[0], m0);
            let p1 = _mm512_mul_epu32(c[2], m1);
            c = [
                _mm512_xor_si512(_mm512_xor_si512(_mm512_srli_epi64(p1, 32), c[1]), k0[r]),
                _mm512_and_si512(p1, lo32),
                _mm512_xor_si512(_mm512_xor_si512(_mm512_srli_epi64(p0, 32), c[3]), k1[r]),
                _mm512_and_si512(p0, lo32),
            ];
        }
        c
    }

    /// [`rounds_avx512`] over four lanes — the AVX2 tier's only copy of
    /// the round.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rounds_avx2(
        mut c: [__m256i; 4],
        k0: &[__m256i; ROUNDS],
        k1: &[__m256i; ROUNDS],
    ) -> [__m256i; 4] {
        let m0 = _mm256_set1_epi64x(PHILOX_M0 as i64);
        let m1 = _mm256_set1_epi64x(PHILOX_M1 as i64);
        let lo32 = _mm256_set1_epi64x(0xFFFF_FFFF);
        for r in 0..ROUNDS {
            let p0 = _mm256_mul_epu32(c[0], m0);
            let p1 = _mm256_mul_epu32(c[2], m1);
            c = [
                _mm256_xor_si256(_mm256_xor_si256(_mm256_srli_epi64(p1, 32), c[1]), k0[r]),
                _mm256_and_si256(p1, lo32),
                _mm256_xor_si256(_mm256_xor_si256(_mm256_srli_epi64(p0, 32), c[3]), k1[r]),
                _mm256_and_si256(p0, lo32),
            ];
        }
        c
    }

    /// Dispatch shim: the caller verified `avx512f`+`avx512dq` support.
    #[inline]
    pub(super) fn fill_avx512(gen: &PhiloxMulti8, base_block: u64, rows: usize, out: &mut [f64]) {
        // SAFETY: tier checked at construction (see module docs).
        unsafe { fill_avx512_impl(gen, base_block, rows, out) }
    }

    /// Dispatch shim: the caller verified `avx2` support.
    #[inline]
    pub(super) fn fill_avx2(gen: &PhiloxMulti8, base_block: u64, rows: usize, out: &mut [f64]) {
        // SAFETY: tier checked at construction (see module docs).
        unsafe { fill_avx2_impl(gen, base_block, rows, out) }
    }

    /// Dispatch shim for the AVX-512 substream heads; `streams` and
    /// `uniforms` hold the same whole number of eight-stream groups.
    pub(super) fn heads_avx512(
        key: u64,
        first: u64,
        streams: &mut [Philox4x32],
        uniforms: &mut [f64],
    ) {
        assert!(
            tier_supported(SimdTier::Avx512),
            "avx512 heads on a host without it"
        );
        // SAFETY: the features were verified just above (see module docs).
        unsafe { heads_avx512_impl(key, first, streams, uniforms) }
    }

    /// Dispatch shim for the AVX2 substream heads; `streams` and
    /// `uniforms` hold the same whole number of eight-stream groups.
    pub(super) fn heads_avx2(
        key: u64,
        first: u64,
        streams: &mut [Philox4x32],
        uniforms: &mut [f64],
    ) {
        assert!(
            tier_supported(SimdTier::Avx2),
            "avx2 heads on a host without it"
        );
        // SAFETY: the feature was verified just above (see module docs).
        unsafe { heads_avx2_impl(key, first, streams, uniforms) }
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    fn fill_avx512_impl(gen: &PhiloxMulti8, base_block: u64, rows: usize, out: &mut [f64]) {
        let half = _mm512_set1_pd(0.5);
        let scale = _mm512_set1_pd(OPEN_SCALE);
        // Round keys, one 8-lane register per round per key word.
        let mut k0 = [_mm512_setzero_si512(); ROUNDS];
        let mut k1 = [_mm512_setzero_si512(); ROUNDS];
        for r in 0..ROUNDS {
            // SAFETY: gen.k0[r]/gen.k1[r] are [u64; 8] — exactly 512 bits.
            k0[r] = unsafe { _mm512_loadu_si512(gen.k0[r].as_ptr() as *const _) };
            k1[r] = unsafe { _mm512_loadu_si512(gen.k1[r].as_ptr() as *const _) };
        }
        for b in 0..rows / 2 {
            let ctr = base_block + b as u64;
            let counter = [
                _mm512_set1_epi64((ctr & 0xFFFF_FFFF) as i64),
                _mm512_set1_epi64((ctr >> 32) as i64),
                _mm512_setzero_si512(),
                _mm512_setzero_si512(),
            ];
            let [c0, c1, c2, c3] = rounds_avx512(counter, &k0, &k1);
            // Word 0 is lanes (1, 0) of the block, word 1 lanes (3, 2) —
            // the `next_u64_pair` pairing.
            let w0 = _mm512_or_si512(_mm512_slli_epi64(c1, 32), c0);
            let w1 = _mm512_or_si512(_mm512_slli_epi64(c3, 32), c2);
            // u = ((w >> 12) as f64 + 0.5) · 2⁻⁵²; `vcvtuqq2pd` is exact
            // here because w >> 12 < 2⁵².
            let u0 = _mm512_mul_pd(
                _mm512_add_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(w0, 12)), half),
                scale,
            );
            let u1 = _mm512_mul_pd(
                _mm512_add_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(w1, 12)), half),
                scale,
            );
            // SAFETY: rows 2b and 2b+1 are < rows, and out.len() >= rows·8
            // was asserted by the caller.
            unsafe {
                _mm512_storeu_pd(out.as_mut_ptr().add(2 * b * MULTI_WIDTH), u0);
                _mm512_storeu_pd(out.as_mut_ptr().add((2 * b + 1) * MULTI_WIDTH), u1);
            }
        }
    }

    #[target_feature(enable = "avx2")]
    fn fill_avx2_impl(gen: &PhiloxMulti8, base_block: u64, rows: usize, out: &mut [f64]) {
        let bias = _mm256_set1_epi64x(0x4330_0000_0000_0000u64 as i64); // 2⁵² as bits
        let bias_minus_half = _mm256_set1_pd(EXP_BIAS_MINUS_HALF);
        let scale = _mm256_set1_pd(OPEN_SCALE);
        // Round keys per 4-lane half: `k0[h][r]` covers streams 4h..4h+4.
        let mut k0 = [[_mm256_setzero_si256(); ROUNDS]; 2];
        let mut k1 = [[_mm256_setzero_si256(); ROUNDS]; 2];
        for r in 0..ROUNDS {
            for h in 0..2 {
                // SAFETY: gen.k0[r][4h..4h+4] is 4 u64 = 256 bits in-bounds.
                k0[h][r] = unsafe { _mm256_loadu_si256(gen.k0[r].as_ptr().add(4 * h) as *const _) };
                k1[h][r] = unsafe { _mm256_loadu_si256(gen.k1[r].as_ptr().add(4 * h) as *const _) };
            }
        }
        for b in 0..rows / 2 {
            let ctr = base_block + b as u64;
            for h in 0..2 {
                let counter = [
                    _mm256_set1_epi64x((ctr & 0xFFFF_FFFF) as i64),
                    _mm256_set1_epi64x((ctr >> 32) as i64),
                    _mm256_setzero_si256(),
                    _mm256_setzero_si256(),
                ];
                let [c0, c1, c2, c3] = rounds_avx2(counter, &k0[h], &k1[h]);
                let w0 = _mm256_or_si256(_mm256_slli_epi64(c1, 32), c0);
                let w1 = _mm256_or_si256(_mm256_slli_epi64(c3, 32), c2);
                // (2⁵² + k) − (2⁵² − 0.5) = k + 0.5, exactly (see consts).
                let u0 = _mm256_mul_pd(
                    _mm256_sub_pd(
                        _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(w0, 12), bias)),
                        bias_minus_half,
                    ),
                    scale,
                );
                let u1 = _mm256_mul_pd(
                    _mm256_sub_pd(
                        _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(w1, 12), bias)),
                        bias_minus_half,
                    ),
                    scale,
                );
                // SAFETY: rows 2b, 2b+1 < rows and half h covers lanes
                // 4h..4h+4 of the 8-wide row; out.len() >= rows·8.
                unsafe {
                    _mm256_storeu_pd(out.as_mut_ptr().add(2 * b * MULTI_WIDTH + 4 * h), u0);
                    _mm256_storeu_pd(out.as_mut_ptr().add((2 * b + 1) * MULTI_WIDTH + 4 * h), u1);
                }
            }
        }
    }

    /// Write one group of eight streams from their first blocks, packed
    /// as `words[0][l]` = lanes (1, 0) and `words[1][l]` = lanes (3, 2) of
    /// substream `base + l`.
    #[inline]
    fn write_group(
        key: [u32; 2],
        base: u64,
        words: &[[u64; MULTI_WIDTH]; 2],
        group: &mut [Philox4x32; MULTI_WIDTH],
    ) {
        for (l, stream) in group.iter_mut().enumerate() {
            let (w0, w1) = (words[0][l], words[1][l]);
            let block = [w0 as u32, (w0 >> 32) as u32, w1 as u32, (w1 >> 32) as u32];
            *stream = Philox4x32::past_head(key, base.wrapping_add(l as u64), block);
        }
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    fn heads_avx512_impl(key: u64, first: u64, streams: &mut [Philox4x32], uniforms: &mut [f64]) {
        let keys = round_keys(key);
        let key = [key as u32, (key >> 32) as u32];
        let k0 = keys.map(|k| _mm512_set1_epi64(k[0] as i64));
        let k1 = keys.map(|k| _mm512_set1_epi64(k[1] as i64));
        let lo32 = _mm512_set1_epi64(0xFFFF_FFFF);
        let lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
        let scale = _mm512_set1_pd(F64_EPS_53);
        let (groups, _) = streams.as_chunks_mut::<MULTI_WIDTH>();
        let (uniform_groups, _) = uniforms.as_chunks_mut::<MULTI_WIDTH>();
        let mut base = first;
        for (group, out) in groups.iter_mut().zip(uniform_groups) {
            // Substream ids base + l (wrapping, like `first + i`) fill
            // counter words 2 and 3; words 0 and 1 start at zero.
            let ids = _mm512_add_epi64(_mm512_set1_epi64(base as i64), lane);
            let zero = _mm512_setzero_si512();
            let counter = [
                zero,
                zero,
                _mm512_and_si512(ids, lo32),
                _mm512_srli_epi64(ids, 32),
            ];
            let [b0, b1, b2, b3] = rounds_avx512(counter, &k0, &k1);
            let w0 = _mm512_or_si512(_mm512_slli_epi64(b1, 32), b0);
            let w1 = _mm512_or_si512(_mm512_slli_epi64(b3, 32), b2);
            // The first `next_f64`: (w0 >> 11) · 2⁻⁵³, exact since
            // w0 >> 11 < 2⁵³.
            let u = _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(w0, 11)), scale);
            let mut words = [[0u64; MULTI_WIDTH]; 2];
            // SAFETY: `out` and each `words` row are exactly eight 64-bit
            // lanes, 512 bits.
            unsafe {
                _mm512_storeu_pd(out.as_mut_ptr(), u);
                _mm512_storeu_si512(words[0].as_mut_ptr().cast(), w0);
                _mm512_storeu_si512(words[1].as_mut_ptr().cast(), w1);
            }
            write_group(key, base, &words, group);
            base = base.wrapping_add(MULTI_WIDTH as u64);
        }
    }

    #[target_feature(enable = "avx2")]
    fn heads_avx2_impl(key: u64, first: u64, streams: &mut [Philox4x32], uniforms: &mut [f64]) {
        let keys = round_keys(key);
        let key = [key as u32, (key >> 32) as u32];
        let k0 = keys.map(|k| _mm256_set1_epi64x(k[0] as i64));
        let k1 = keys.map(|k| _mm256_set1_epi64x(k[1] as i64));
        let lo32 = _mm256_set1_epi64x(0xFFFF_FFFF);
        let lane = _mm256_set_epi64x(3, 2, 1, 0);
        let bias = _mm256_set1_epi64x(0x4330_0000_0000_0000u64 as i64); // 2⁵² as bits
        let two_52 = _mm256_set1_pd(TWO_52);
        let high_scale = _mm256_set1_pd(HIGH_LANE_SCALE);
        let low_scale = _mm256_set1_pd(F64_EPS_53);
        let (groups, _) = streams.as_chunks_mut::<MULTI_WIDTH>();
        let (uniform_groups, _) = uniforms.as_chunks_mut::<MULTI_WIDTH>();
        let mut base = first;
        for (group, out) in groups.iter_mut().zip(uniform_groups) {
            let mut words = [[0u64; MULTI_WIDTH]; 2];
            for h in 0..2 {
                let start = base.wrapping_add(4 * h as u64);
                let ids = _mm256_add_epi64(_mm256_set1_epi64x(start as i64), lane);
                let zero = _mm256_setzero_si256();
                let counter = [
                    zero,
                    zero,
                    _mm256_and_si256(ids, lo32),
                    _mm256_srli_epi64(ids, 32),
                ];
                let [b0, b1, b2, b3] = rounds_avx2(counter, &k0, &k1);
                let w0 = _mm256_or_si256(_mm256_slli_epi64(b1, 32), b0);
                let w1 = _mm256_or_si256(_mm256_slli_epi64(b3, 32), b2);
                // The first `next_f64`, (w0 >> 11) · 2⁻⁵³, as
                // b1 · 2⁻³² + (b0 >> 11) · 2⁻⁵³: the exponent-bias trick
                // converts each part (both below 2⁵²) exactly, each
                // product is exact, and so is their sum, a 53-bit integer
                // times 2⁻⁵³.
                let high = _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(b1, bias)), two_52);
                let low = _mm256_sub_pd(
                    _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(b0, 11), bias)),
                    two_52,
                );
                let u = _mm256_add_pd(
                    _mm256_mul_pd(high, high_scale),
                    _mm256_mul_pd(low, low_scale),
                );
                // SAFETY: half h covers lanes 4h..4h+4 of the eight in
                // `out` and in each `words` row.
                unsafe {
                    _mm256_storeu_pd(out.as_mut_ptr().add(4 * h), u);
                    _mm256_storeu_si256(words[0].as_mut_ptr().add(4 * h).cast(), w0);
                    _mm256_storeu_si256(words[1].as_mut_ptr().add(4 * h).cast(), w1);
                }
            }
            write_group(key, base, &words, group);
            base = base.wrapping_add(MULTI_WIDTH as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Philox4x32, RandomSource};

    fn masters() -> [u64; MULTI_WIDTH] {
        std::array::from_fn(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1) ^ 0xABCD)
    }

    #[test]
    fn every_tier_matches_the_sequential_philox_stream() {
        // The contract in one assertion: out[k·8 + m] is word k of the
        // sequential stream keyed by masters[m], converted open-open.
        let rows = 64;
        for tier in supported_tiers() {
            let gen = PhiloxMulti8::with_tier(masters(), tier);
            assert_eq!(gen.tier(), tier);
            let mut out = vec![0.0f64; rows * MULTI_WIDTH];
            gen.fill_uniforms(0, rows, &mut out);
            for (m, &master) in gen.masters().iter().enumerate() {
                let mut seq = Philox4x32::with_key(master);
                for k in 0..rows {
                    let expect = crate::uniform::f64_open_open(seq.next_u64());
                    assert_eq!(
                        out[k * MULTI_WIDTH + m].to_bits(),
                        expect.to_bits(),
                        "tier {tier:?}, stream {m}, word {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiers_are_bit_identical_to_each_other() {
        let rows = 128;
        let tiers = supported_tiers();
        let reference = {
            let gen = PhiloxMulti8::with_tier(masters(), SimdTier::Scalar);
            let mut out = vec![0.0f64; rows * MULTI_WIDTH];
            gen.fill_uniforms(33, rows, &mut out);
            out
        };
        for tier in tiers {
            let gen = PhiloxMulti8::with_tier(masters(), tier);
            let mut out = vec![0.0f64; rows * MULTI_WIDTH];
            gen.fill_uniforms(33, rows, &mut out);
            let same = out
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "tier {tier:?} diverged from scalar");
        }
    }

    #[test]
    fn base_block_positions_the_stream() {
        // Filling from block b must equal skipping 2b words sequentially.
        let gen = PhiloxMulti8::new(masters());
        let rows = 16;
        let skip_blocks = 5u64;
        let mut out = vec![0.0f64; rows * MULTI_WIDTH];
        gen.fill_uniforms(skip_blocks, rows, &mut out);
        for (m, &master) in gen.masters().iter().enumerate() {
            let mut seq = Philox4x32::at(master, skip_blocks as u128);
            for k in 0..rows {
                let expect = crate::uniform::f64_open_open(seq.next_u64());
                assert_eq!(out[k * MULTI_WIDTH + m].to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn detected_tier_is_supported() {
        assert!(tier_supported(simd_tier()));
        assert!(tier_supported(SimdTier::Scalar));
    }

    #[test]
    #[should_panic]
    fn odd_row_counts_are_rejected() {
        let gen = PhiloxMulti8::new(masters());
        let mut out = vec![0.0f64; 3 * MULTI_WIDTH];
        gen.fill_uniforms(0, 3, &mut out);
    }

    #[test]
    #[should_panic]
    fn short_output_buffers_are_rejected() {
        let gen = PhiloxMulti8::new(masters());
        let mut out = vec![0.0f64; MULTI_WIDTH];
        gen.fill_uniforms(0, 4, &mut out);
    }

    #[test]
    fn uniforms_are_strictly_inside_the_unit_interval() {
        let gen = PhiloxMulti8::new(masters());
        let rows = 256;
        let mut out = vec![0.0f64; rows * MULTI_WIDTH];
        gen.fill_uniforms(0, rows, &mut out);
        for &u in &out {
            assert!(u > 0.0 && u < 1.0);
        }
    }
}
