//! Philox4x32-10: a counter-based generator from the Random123 family
//! (Salmon et al., SC'11, "Parallel random numbers: as easy as 1, 2, 3").
//!
//! Counter-based generators are a natural fit for PRAM-style experiments:
//! processor `i` of trial `t` can deterministically derive its own stream by
//! placing `(i, t)` in the counter, with no sequential seeding pass and no
//! shared state, while the key carries the experiment seed.

use crate::philox_multi::{self, simd_tier, SimdTier};
use crate::splitmix64::SplitMix64;
use crate::traits::{RandomSource, SeedableSource};
use crate::uniform::f64_from_bits_53;

pub(crate) const PHILOX_M0: u32 = 0xD251_1F53;
pub(crate) const PHILOX_M1: u32 = 0xCD9E_8D57;
const PHILOX_W0: u32 = 0x9E37_79B9;
const PHILOX_W1: u32 = 0xBB67_AE85;
pub(crate) const ROUNDS: usize = 10;

/// The ten round keys of `key`: round `r` uses `key + r · weyl` per
/// 32-bit word.
pub(crate) fn round_keys(key: u64) -> [[u32; 2]; ROUNDS] {
    let mut k = [key as u32, (key >> 32) as u32];
    std::array::from_fn(|_| {
        let keys = k;
        k = [k[0].wrapping_add(PHILOX_W0), k[1].wrapping_add(PHILOX_W1)];
        keys
    })
}

/// One Philox4x32 round under one round key: the scalar tier's only copy
/// of the round, shared by [`philox4x32_block`] and [`PhiloxBlock`].
#[inline(always)]
fn round(ctr: [u32; 4], key: [u32; 2]) -> [u32; 4] {
    let p0 = (PHILOX_M0 as u64) * (ctr[0] as u64);
    let p1 = (PHILOX_M1 as u64) * (ctr[2] as u64);
    [
        (p1 >> 32) as u32 ^ ctr[1] ^ key[0],
        p1 as u32,
        (p0 >> 32) as u32 ^ ctr[3] ^ key[1],
        p0 as u32,
    ]
}

/// One Philox4x32-10 block: encrypt a 128-bit counter under a 64-bit key.
#[inline]
pub fn philox4x32_block(counter: [u32; 4], key: [u32; 2]) -> [u32; 4] {
    let mut ctr = counter;
    let mut k = key;
    for r in 0..ROUNDS {
        if r > 0 {
            k[0] = k[0].wrapping_add(PHILOX_W0);
            k[1] = k[1].wrapping_add(PHILOX_W1);
        }
        ctr = round(ctr, k);
    }
    ctr
}

/// A block-oriented Philox4x32-10 generator for tight kernels: the ten
/// per-round keys are expanded **once** at construction and every call to
/// [`next_block`](PhiloxBlock::next_block) yields four 32-bit lanes for a
/// single counter bump — no per-output cursor bookkeeping, no per-stream key
/// schedule re-derivation.
///
/// This is the engine under the `lrb-core` block bid kernel: one
/// `PhiloxBlock` per chunk replaces one [`Philox4x32`] per *index*, so the
/// key schedule and counter arithmetic amortise over the whole chunk while
/// the output stream stays a pure function of `(key, starting block)`.
///
/// The block counter is a `u128`, identical to the counter layout of
/// [`Philox4x32::at`]: `PhiloxBlock::at_block(key, b)` produces exactly the
/// lanes a `Philox4x32::at(key, b)` would serve, in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhiloxBlock {
    /// The ten expanded round keys (`key + round · weyl` per lane).
    round_keys: [[u32; 2]; ROUNDS],
    /// Next 128-bit block counter.
    block: u128,
}

impl PhiloxBlock {
    /// Create a block generator with the given 64-bit key, starting at
    /// block 0.
    pub fn new(key: u64) -> Self {
        Self::at_block(key, 0)
    }

    /// Create a block generator positioned at an arbitrary block counter.
    pub fn at_block(key: u64, block: u128) -> Self {
        Self {
            round_keys: round_keys(key),
            block,
        }
    }

    /// The next block counter to be consumed.
    pub fn position(&self) -> u128 {
        self.block
    }

    /// Encrypt the current counter and advance it: four 32-bit lanes per
    /// call, identical to [`philox4x32_block`] at the same counter/key.
    #[inline]
    pub fn next_block(&mut self) -> [u32; 4] {
        let mut ctr = [
            self.block as u32,
            (self.block >> 32) as u32,
            (self.block >> 64) as u32,
            (self.block >> 96) as u32,
        ];
        self.block = self.block.wrapping_add(1);
        for &keys in &self.round_keys {
            ctr = round(ctr, keys);
        }
        ctr
    }

    /// The next two 64-bit words of the stream (lanes `(0,1)` and `(2,3)` of
    /// one block, low lane first — the same pairing as
    /// [`RandomSource::next_u64`] on a [`Philox4x32`]).
    #[inline]
    pub fn next_u64_pair(&mut self) -> [u64; 2] {
        let lanes = self.next_block();
        [
            (lanes[1] as u64) << 32 | lanes[0] as u64,
            (lanes[3] as u64) << 32 | lanes[2] as u64,
        ]
    }

    /// Fill `out` with consecutive 64-bit words of the stream, two per
    /// counter bump. Always consumes `out.len().div_ceil(2)` whole blocks:
    /// an odd-length fill discards the trailing lane pair, so the *block*
    /// position after the call depends only on how many words were asked
    /// for, never on buffer alignment.
    #[inline]
    pub fn fill_u64(&mut self, out: &mut [u64]) {
        let mut chunks = out.chunks_exact_mut(2);
        for pair in &mut chunks {
            let words = self.next_u64_pair();
            pair[0] = words[0];
            pair[1] = words[1];
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            rem[0] = self.next_u64_pair()[0];
        }
    }
}

/// A Philox4x32-10 generator presented as an ordinary sequential source.
///
/// Internally it encrypts an incrementing 128-bit counter and serves the four
/// 32-bit lanes of each block in order. Use [`Philox4x32::at`] to jump to an
/// arbitrary block, or [`Philox4x32::for_substream`] to derive an independent
/// stream for a logical processor index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Philox4x32 {
    key: [u32; 2],
    counter: [u32; 4],
    buffer: [u32; 4],
    /// Next unread lane in `buffer`; 4 means "buffer exhausted".
    cursor: usize,
}

impl Philox4x32 {
    /// Create a generator with the given 64-bit key; the counter starts at 0.
    pub fn with_key(key: u64) -> Self {
        Self {
            key: [key as u32, (key >> 32) as u32],
            counter: [0; 4],
            buffer: [0; 4],
            cursor: 4,
        }
    }

    /// Create a generator positioned at an arbitrary 128-bit counter value.
    pub fn at(key: u64, counter: u128) -> Self {
        let mut g = Self::with_key(key);
        g.counter = [
            counter as u32,
            (counter >> 32) as u32,
            (counter >> 64) as u32,
            (counter >> 96) as u32,
        ];
        g
    }

    /// Derive an independent stream for a logical substream id.
    ///
    /// The substream id is placed in the top 64 bits of the counter, so each
    /// substream has 2⁶⁴ blocks (2⁶⁶ 32-bit outputs) before it could collide
    /// with a neighbour.
    pub fn for_substream(key: u64, substream: u64) -> Self {
        Self::at(key, (substream as u128) << 64)
    }

    /// Fill `streams` with the streams of substreams `first`,
    /// `first + 1`, … of `key` (wrapping past `u64::MAX`), each already
    /// past its first [`next_f64`](RandomSource::next_f64), and
    /// `uniforms` with those first uniforms: `uniforms[i]` is
    /// `for_substream(key, first.wrapping_add(i)).next_f64()` bit for bit,
    /// and `streams[i]` then serves exactly the words that stream would
    /// serve next.
    ///
    /// Whole groups of eight streams compute their first blocks side by
    /// side on the [`simd_tier`] (one 8-lane AVX-512 register, or two
    /// AVX2 halves, per counter word); the rest, and every stream on the
    /// scalar tier, take one block each. The tier changes no bit. On a
    /// 2-vCPU Xeon, pinned to one CPU, the AVX-512 tier filled 256 heads
    /// and their uniforms in 3.0–3.3 ns a slot, against 12.5–14.2 for a
    /// block per stream and a first `next_f64` read through its cursor.
    ///
    /// Panics if the two slices differ in length.
    pub fn fill_substreams(key: u64, first: u64, streams: &mut [Self], uniforms: &mut [f64]) {
        Self::fill_substreams_on(simd_tier(), key, first, streams, uniforms);
    }

    /// [`fill_substreams`](Self::fill_substreams) on an explicit tier (the
    /// tests run every tier the host supports).
    pub(crate) fn fill_substreams_on(
        tier: SimdTier,
        key: u64,
        first: u64,
        streams: &mut [Self],
        uniforms: &mut [f64],
    ) {
        assert_eq!(streams.len(), uniforms.len(), "one uniform per stream");
        let done = philox_multi::substream_heads(tier, key, first, streams, uniforms);
        let key_words = [key as u32, (key >> 32) as u32];
        let rest = streams[done..].iter_mut().zip(&mut uniforms[done..]);
        for (i, (stream, uniform)) in rest.enumerate() {
            let substream = first.wrapping_add((done + i) as u64);
            let block = philox4x32_block(
                [0, 0, substream as u32, (substream >> 32) as u32],
                key_words,
            );
            *stream = Self::past_head(key_words, substream, block);
            *uniform = f64_from_bits_53((block[1] as u64) << 32 | block[0] as u64);
        }
    }

    /// Substream `substream`'s stream after its first
    /// [`next_f64`](RandomSource::next_f64): `block` is its first block
    /// (counter `[0, 0, lo, hi]`), of which that uniform read lanes 0 and
    /// 1; the stream resumes at lane 2, then at the second block.
    #[inline]
    pub(crate) fn past_head(key_words: [u32; 2], substream: u64, block: [u32; 4]) -> Self {
        Self {
            key: key_words,
            counter: [1, 0, substream as u32, (substream >> 32) as u32],
            buffer: block,
            cursor: 2,
        }
    }

    #[inline]
    fn increment_counter(&mut self) {
        for word in &mut self.counter {
            let (next, carry) = word.overflowing_add(1);
            *word = next;
            if !carry {
                break;
            }
        }
    }

    #[inline]
    fn refill(&mut self) {
        self.buffer = philox4x32_block(self.counter, self.key);
        self.increment_counter();
        self.cursor = 0;
    }

    /// The next 32-bit lane.
    #[inline]
    pub fn next_lane(&mut self) -> u32 {
        if self.cursor >= 4 {
            self.refill();
        }
        let lane = self.buffer[self.cursor];
        self.cursor += 1;
        lane
    }
}

impl RandomSource for Philox4x32 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.next_lane()
    }

    /// Lanes `(lo, hi)`: a pair already in the buffered block is read in
    /// one step; a pair that straddles a refill reads lane by lane.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let (lo, hi) = if self.cursor <= 2 {
            let pair = (self.buffer[self.cursor], self.buffer[self.cursor + 1]);
            self.cursor += 2;
            pair
        } else {
            (self.next_lane(), self.next_lane())
        };
        (hi as u64) << 32 | lo as u64
    }
}

impl SeedableSource for Philox4x32 {
    fn seed_from_u64(seed: u64) -> Self {
        Self::with_key(SplitMix64::mix64(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_is_deterministic() {
        let a = philox4x32_block([1, 2, 3, 4], [5, 6]);
        let b = philox4x32_block([1, 2, 3, 4], [5, 6]);
        assert_eq!(a, b);
    }

    #[test]
    fn block_depends_on_every_counter_word() {
        let base = philox4x32_block([0, 0, 0, 0], [0, 0]);
        for lane in 0..4 {
            let mut ctr = [0u32; 4];
            ctr[lane] = 1;
            assert_ne!(philox4x32_block(ctr, [0, 0]), base, "lane {lane} ignored");
        }
    }

    #[test]
    fn block_depends_on_key() {
        let a = philox4x32_block([1, 2, 3, 4], [0, 0]);
        let b = philox4x32_block([1, 2, 3, 4], [1, 0]);
        let c = philox4x32_block([1, 2, 3, 4], [0, 1]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn sequential_outputs_cover_consecutive_blocks() {
        let mut g = Philox4x32::with_key(0xDEAD_BEEF);
        let first_block = philox4x32_block([0, 0, 0, 0], [0xDEAD_BEEF, 0]);
        let second_block = philox4x32_block([1, 0, 0, 0], [0xDEAD_BEEF, 0]);
        let got: Vec<u32> = (0..8).map(|_| g.next_lane()).collect();
        assert_eq!(&got[..4], &first_block);
        assert_eq!(&got[4..], &second_block);
    }

    #[test]
    fn counter_carry_propagates() {
        let mut g = Philox4x32::at(7, u32::MAX as u128);
        g.next_lane(); // consumes block at counter = u32::MAX
                       // After the refill the counter must have carried into word 1.
        assert_eq!(g.counter, [0, 1, 0, 0]);
    }

    #[test]
    fn substreams_do_not_collide() {
        let mut a = Philox4x32::for_substream(1, 0);
        let mut b = Philox4x32::for_substream(1, 1);
        let xs: Vec<u64> = (0..1000).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..1000).map(|_| b.next_u64()).collect();
        let overlap = xs.iter().filter(|x| ys.contains(x)).count();
        assert!(overlap < 2);
    }

    #[test]
    fn at_position_matches_sequential_reading() {
        // Reading from counter position k directly must equal skipping k
        // blocks sequentially.
        let key = 42;
        let mut seq = Philox4x32::with_key(key);
        for _ in 0..4 * 5 {
            seq.next_lane();
        }
        let mut jumped = Philox4x32::at(key, 5);
        for _ in 0..4 {
            assert_eq!(seq.next_lane(), jumped.next_lane());
        }
    }

    #[test]
    fn block_generator_matches_the_sequential_stream() {
        // PhiloxBlock::at_block(key, b) must serve exactly the lanes of
        // Philox4x32::at(key, b) — the block API is a faster view of the
        // same stream, not a different stream.
        let key = 0x5EED_CAFE_u64;
        let mut seq = Philox4x32::with_key(key);
        let mut blk = PhiloxBlock::new(key);
        for _ in 0..32 {
            let lanes = blk.next_block();
            for lane in lanes {
                assert_eq!(lane, seq.next_lane());
            }
        }
        // Jumping to a block matches the cursor position too.
        let mut jumped = PhiloxBlock::at_block(key, 32);
        assert_eq!(jumped.position(), 32);
        assert_eq!(jumped.next_block()[0], seq.next_lane());
    }

    #[test]
    fn block_fill_u64_matches_next_u64() {
        let key = 77;
        let mut seq = Philox4x32::with_key(key);
        let mut blk = PhiloxBlock::new(key);
        let mut out = [0u64; 9]; // odd length exercises the remainder path
        blk.fill_u64(&mut out);
        for (i, &word) in out.iter().enumerate() {
            assert_eq!(word, seq.next_u64(), "word {i}");
        }
        // 9 words = 5 whole blocks consumed (trailing lane pair discarded).
        assert_eq!(blk.position(), 5);
    }

    #[test]
    fn block_pairs_agree_with_fill() {
        let mut a = PhiloxBlock::at_block(3, 10);
        let mut b = PhiloxBlock::at_block(3, 10);
        let mut filled = [0u64; 4];
        a.fill_u64(&mut filled);
        let p0 = b.next_u64_pair();
        let p1 = b.next_u64_pair();
        assert_eq!(filled, [p0[0], p0[1], p1[0], p1[1]]);
    }

    /// On `tier`, every stream of a bulk head fill hands back the first
    /// uniform of the corresponding `for_substream` stream and then serves
    /// that stream's next words, past its first block too.
    fn assert_heads_match(tier: SimdTier, key: u64, first: u64, len: usize) {
        let mut streams = vec![Philox4x32::with_key(0); len];
        let mut uniforms = vec![f64::NAN; len];
        Philox4x32::fill_substreams_on(tier, key, first, &mut streams, &mut uniforms);
        for (i, stream) in streams.iter_mut().enumerate() {
            let mut reference = Philox4x32::for_substream(key, first.wrapping_add(i as u64));
            assert_eq!(
                uniforms[i].to_bits(),
                reference.next_f64().to_bits(),
                "{tier:?}, key {key:#x}, substream {first} + {i}, level-one uniform"
            );
            for word in 0..6 {
                assert_eq!(
                    stream.next_u32(),
                    reference.next_u32(),
                    "{tier:?}, key {key:#x}, substream {first} + {i}, word {word}"
                );
            }
        }
    }

    #[test]
    fn bulk_heads_match_for_substream() {
        for tier in crate::philox_multi::supported_tiers() {
            for len in (0..=17).chain(255..=257) {
                assert_heads_match(tier, 0x5EED_CAFE_F00D, 3, len);
            }
            // 8-lane groups whose substream ids cross the 2^32 counter
            // boundary, and groups that wrap past u64::MAX back to 0.
            assert_heads_match(tier, 7, (1 << 32) - 5, 37);
            assert_heads_match(tier, 7, (1 << 32) - 7, 16);
            assert_heads_match(tier, u64::MAX, u64::MAX - 20, 37);
            assert_heads_match(tier, u64::MAX, u64::MAX - 3, 8);
            assert_heads_match(tier, 9, u64::MAX, 1);
        }
    }

    #[test]
    #[should_panic]
    fn bulk_heads_need_one_uniform_per_stream() {
        let mut streams = [Philox4x32::with_key(0); 8];
        Philox4x32::fill_substreams(1, 0, &mut streams, &mut [0.0; 7]);
    }

    #[test]
    fn pair_reads_equal_two_lane_reads_from_every_cursor() {
        // Start from a buffered block at each cursor 0–4: a pair at cursor
        // 3 straddles a refill and one at cursor 4 starts one, and every
        // later pair starts at the parity the odd cursors leave. The
        // counters next to `u128::MAX` wrap to 0 at a refill.
        for start in [0, 5, u128::MAX - 1, u128::MAX] {
            for cursor in 0..=4 {
                let mut paired = Philox4x32::at(0xC0FF_EE11, start);
                paired.refill();
                for _ in 0..cursor {
                    paired.next_u32();
                }
                assert_eq!(paired.cursor, cursor);
                let mut lanes = paired;
                for read in 0..7 {
                    let lo = lanes.next_u32() as u64;
                    let hi = lanes.next_u32() as u64;
                    assert_eq!(
                        paired.next_u64(),
                        hi << 32 | lo,
                        "counter {start}, cursor {cursor}, pair {read}"
                    );
                    assert_eq!(paired, lanes, "state after pair {read}");
                }
            }
        }
    }

    #[test]
    fn unit_interval_and_mean() {
        let mut g = Philox4x32::seed_from_u64(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
