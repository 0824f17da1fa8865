//! # lrb-rng — pseudo-random number generation substrate
//!
//! This crate provides every random-number facility needed by the
//! logarithmic-random-bidding reproduction, implemented from scratch so that
//! the experiments are bit-reproducible and carry no mandatory external
//! dependency:
//!
//! * [`MersenneTwister`] / [`MersenneTwister64`] — the generator used by the
//!   paper's own experiments (Matsumoto & Nishimura, 1998).
//! * [`SplitMix64`] — a tiny, high-quality 64-bit generator used for seeding
//!   and for spawning independent streams.
//! * [`Xoshiro256PlusPlus`] / [`Xoshiro256StarStar`] — fast jumpable
//!   generators suited to per-thread streams.
//! * [`Pcg32`] / [`Pcg64`] — permuted congruential generators with
//!   independent stream selection.
//! * [`Philox4x32`] — a counter-based generator in the Random123 family,
//!   ideal for "one stream per logical processor" PRAM-style experiments
//!   because stream `i` is obtained by setting a counter word, with no
//!   sequential seeding pass.
//! * Uniform `[0, 1)` conversion strategies ([`uniform`]), exponential
//!   sampling ([`exponential`]), and parallel stream construction
//!   ([`streams`]).
//!
//! The central abstraction is the [`RandomSource`] trait: a minimal,
//! object-safe interface (`next_u32` / `next_u64` / `next_f64`) that all
//! generators implement and that the selection library consumes.
//!
//! ## Quick example
//!
//! ```
//! use lrb_rng::{RandomSource, SeedableSource, MersenneTwister64};
//!
//! let mut rng = MersenneTwister64::seed_from_u64(42);
//! let u = rng.next_f64();
//! assert!((0.0..1.0).contains(&u));
//! ```

// `deny`, not `forbid`: the one module implementing the vectorised
// multi-stream Philox fill (`philox_multi::simd`) carries an audited
// `#[allow(unsafe_code)]` with its safety argument in the module docs —
// `#[target_feature]` dispatch guarded by runtime detection plus
// bounds-checked unaligned loads/stores; everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod exponential;
pub mod mt19937;
pub mod mt19937_64;
pub mod pcg;
pub mod philox;
pub mod philox_multi;
pub mod splitmix64;
pub mod streams;
pub mod traits;
pub mod uniform;
pub mod xoshiro;

pub use exponential::{standard_exponential, ExponentialSampler};
pub use mt19937::MersenneTwister;
pub use mt19937_64::MersenneTwister64;
pub use pcg::{Pcg32, Pcg64};
pub use philox::{Philox4x32, PhiloxBlock};
pub use philox_multi::{simd_tier, PhiloxMulti8, SimdTier, MULTI_WIDTH};
pub use splitmix64::SplitMix64;
pub use streams::{spawn_streams, StreamFamily};
pub use traits::{RandomSource, SeedableSource};
pub use uniform::{f64_from_bits_53, f64_open_open, u64_below};
pub use xoshiro::{Xoshiro256PlusPlus, Xoshiro256StarStar};

/// The default generator recommended for new code in this workspace.
///
/// The paper's experiments use the Mersenne Twister; we keep that choice as
/// the default so that the reproduction matches the paper's configuration,
/// while the benches compare it against the faster alternatives.
pub type DefaultSource = MersenneTwister64;

/// Build the workspace-default generator from a 64-bit seed.
pub fn default_source(seed: u64) -> DefaultSource {
    MersenneTwister64::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_source_is_deterministic() {
        let mut a = default_source(7);
        let mut b = default_source(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn default_source_differs_across_seeds() {
        let mut a = default_source(1);
        let mut b = default_source(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "seeds 1 and 2 should produce different streams");
    }

    #[test]
    fn all_generators_produce_unit_interval_f64() {
        fn check<R: RandomSource>(mut r: R) {
            for _ in 0..1000 {
                let x = r.next_f64();
                assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
            }
        }
        check(MersenneTwister::seed_from_u64(1));
        check(MersenneTwister64::seed_from_u64(1));
        check(SplitMix64::seed_from_u64(1));
        check(Xoshiro256PlusPlus::seed_from_u64(1));
        check(Xoshiro256StarStar::seed_from_u64(1));
        check(Pcg32::seed_from_u64(1));
        check(Pcg64::seed_from_u64(1));
        check(Philox4x32::seed_from_u64(1));
    }
}
