//! A Fenwick-tree (binary indexed tree) weighted sampler: exact
//! probabilities, `O(log n)` draws and `O(log n)` single-weight updates —
//! `O(log k)` for `k` non-zero weights when the support is sparse.
//!
//! The tree stores partial sums of the weight vector; a draw generates
//! `r ∈ [0, Σw)` and descends the implicit tree from the highest power of two
//! downward, subtracting left-subtree masses — the classic `O(log n)`
//! inverse-CDF walk. An update adds the weight delta to `O(log n)` nodes.
//! This makes the Fenwick sampler the right engine for the paper's
//! mutate-and-sample regime, where alias tables would be rebuilt from
//! scratch after every change.
//!
//! **Two layouts.** A build over a weight vector whose support is small
//! (at most one category in [`COMPACT_RATIO`] positive) lays the tree over
//! the support only: tree position `p` holds category `support[p]`, a
//! sorted `u32` map, so a draw descends `log₂ k` levels and a patch copies
//! a `k`-node tree — the paper's few-non-zero regime, where logarithmic
//! random bidding costs `O(log k)`. Any other vector keeps the dense
//! layout (position = category, no map). The rule is checked at every
//! build, [`reload`](FenwickSampler::reload) and
//! [`patched_from`](FenwickSampler::patched_from); between them the
//! layout stays put. A weight set to zero keeps its position. A patch that
//! revives a category outside the support rebuilds once, after its batch;
//! an [`update`](DynamicSampler::update) that does so switches the sampler
//! to the dense layout (one `O(n)` build), so every later update is an
//! `O(log n)` delta and filling a sparse sampler index by index pays one
//! build, not one per revival. Both layouts invert
//! the same CDF, but a compact tree groups its partial sums differently,
//! so a uniform within rounding of a boundary may land on the
//! neighbouring index; the law `F_i` is the same.
//!
//! **Lockstep draws.** [`DynamicSampler::sample_streams`] reads the total
//! once and descends eight streams at a time with branch-free steps, so
//! their independent node loads overlap instead of each waiting on the
//! last one's compare.

use std::hint::select_unpredictable;

use lrb_core::error::SelectionError;
use lrb_core::fitness::Fitness;
use lrb_core::traits::DynamicSampler;
use lrb_rng::{Philox4x32, RandomSource};

use crate::validate_weight;

/// The compact-layout rule: a build lays the tree over the support when at
/// most one weight in `COMPACT_RATIO` is positive (`k · COMPACT_RATIO ≤ n`).
///
/// Chosen by a k/n sweep at n = 16 384 (2.0 GHz Xeon): compact draws beat
/// dense ones at every fraction (20 against 39 ns at 1/256, 33–34 against
/// 39 at 1/4, 36–38 against 40 at 1/2), but a patch that revives a
/// category off the support rebuilds, at 82–85 µs for 1/4 and 182–189 µs
/// for 1/2 against a 57–59 µs dense patch. At 1/4 the draw gain is still
/// about 15 %; at 1/2 it is 7 % and a revival costs three dense patches.
pub const COMPACT_RATIO: usize = 4;

/// Streams [`DynamicSampler::sample_streams`] descends in lockstep. On a
/// 2.0 GHz Xeon the lockstep descent of a 64-category compact shard with
/// flat weights took 24–26 ns per draw against 48 for branchy descents;
/// on steep Zipf weights, whose top-level branches predict well, it was
/// level with them on compact trees and 15–20 % behind on dense ones.
const LOCKSTEP: usize = 8;

/// An updatable weighted sampler backed by a Fenwick tree.
///
/// # Example
///
/// ```
/// use lrb_core::DynamicSampler;
/// use lrb_dynamic::FenwickSampler;
/// use lrb_rng::{MersenneTwister64, SeedableSource};
///
/// let mut sampler = FenwickSampler::from_weights(vec![5.0, 0.0, 5.0]).unwrap();
/// sampler.update(1, 90.0).unwrap();
/// let mut rng = MersenneTwister64::seed_from_u64(1);
/// let mut hits = 0;
/// for _ in 0..1_000 {
///     if sampler.sample(&mut rng).unwrap() == 1 {
///         hits += 1;
///     }
/// }
/// assert!(hits > 800); // index 1 now carries 90% of the mass
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FenwickSampler {
    /// Raw weights, kept for `O(1)` point reads and exact delta updates.
    weights: Vec<f64>,
    /// One-based Fenwick array of partial sums over the tree's positions:
    /// every category (dense), or the support's categories in index order
    /// (compact).
    tree: Vec<f64>,
    /// Compact layout: the category at each tree position, sorted. Every
    /// positive weight has a position; a zeroed one keeps its own. `None`
    /// for the dense layout.
    support: Option<Vec<u32>>,
    /// Largest power of two `≤` the position count, the root step of the
    /// descent (0 for an empty compact tree).
    top: usize,
    /// Number of strictly positive weights.
    non_zero: usize,
}

impl FenwickSampler {
    /// Build a sampler from raw weights, validating them like
    /// [`Fitness::new`]. An all-zero vector is allowed (sampling then fails
    /// with [`SelectionError::AllZeroFitness`]); an empty one is not.
    pub fn from_weights(weights: Vec<f64>) -> Result<Self, SelectionError> {
        if weights.is_empty() {
            return Err(SelectionError::EmptyFitness);
        }
        for (index, &value) in weights.iter().enumerate() {
            validate_weight(index, value)?;
        }
        Ok(Self::from_validated(weights))
    }

    /// Build a sampler from an already-validated [`Fitness`] vector.
    pub fn from_fitness(fitness: &Fitness) -> Self {
        Self::from_validated(fitness.values().to_vec())
    }

    fn from_validated(weights: Vec<f64>) -> Self {
        let mut sampler = Self {
            weights,
            tree: Vec::new(),
            support: None,
            top: 0,
            non_zero: 0,
        };
        sampler.rebuild();
        sampler
    }

    /// Whether the tree is laid over the support (see the module docs).
    pub fn is_compact(&self) -> bool {
        self.support.is_some()
    }

    /// Rebuild the tree from the raw weights in `O(n)`, choosing the
    /// layout by [`COMPACT_RATIO`].
    ///
    /// Used at construction, by [`reload`](FenwickSampler::reload) and when
    /// a patch revives a category outside a compact support.
    fn rebuild(&mut self) {
        let n = self.weights.len();
        self.non_zero = self.weights.iter().filter(|&&w| w > 0.0).count();
        if self.non_zero * COMPACT_RATIO <= n && n - 1 <= u32::MAX as usize {
            let support = self.support.get_or_insert_with(Vec::new);
            support.clear();
            support.reserve_exact(self.non_zero);
            support.extend((0..n).filter(|&i| self.weights[i] > 0.0).map(|i| i as u32));
        } else {
            self.support = None;
        }
        self.lay_tree();
    }

    /// Sum the weights into a fresh tree over the current layout's
    /// positions.
    fn lay_tree(&mut self) {
        let positions = self.positions();
        self.tree.clear();
        self.tree.reserve_exact(positions + 1);
        self.tree.resize(positions + 1, 0.0);
        for p in 0..positions {
            let weight = self.weights[self.category(p)];
            self.tree[p + 1] += weight;
        }
        for node in 1..=positions {
            let parent = node + (node & node.wrapping_neg());
            if parent <= positions {
                let carried = self.tree[node];
                self.tree[parent] += carried;
            }
        }
        self.top = match positions {
            0 => 0,
            m => 1 << m.ilog2(),
        };
    }

    /// Number of tree positions: `n` dense, the support's size compact.
    #[inline]
    fn positions(&self) -> usize {
        match &self.support {
            None => self.weights.len(),
            Some(support) => support.len(),
        }
    }

    /// The category at tree position `position`.
    #[inline]
    fn category(&self, position: usize) -> usize {
        match &self.support {
            None => position,
            Some(support) => support[position] as usize,
        }
    }

    /// The tree position of category `index`, if it has one.
    fn position(&self, index: usize) -> Option<usize> {
        match &self.support {
            None => Some(index),
            Some(support) => support.binary_search(&(index as u32)).ok(),
        }
    }

    /// Replace every weight at once (`O(n)`), e.g. when an ACO iteration
    /// re-derives a whole desirability row. Allocates only when the new
    /// weights need a larger layout than the buffers hold.
    pub fn reload(&mut self, new_weights: &[f64]) -> Result<(), SelectionError> {
        assert_eq!(
            new_weights.len(),
            self.weights.len(),
            "reload must keep the category count"
        );
        for (index, &value) in new_weights.iter().enumerate() {
            validate_weight(index, value)?;
        }
        self.weights.copy_from_slice(new_weights);
        self.rebuild();
        Ok(())
    }

    /// Build the **next** sampler from `prev` by applying a coalesced
    /// publish batch — a whole-vector `scale` fold followed by absolute
    /// `(index, weight)` overrides — as point updates on a copy of `prev`'s
    /// state instead of an `O(n)` rebuild.
    ///
    /// The copy is straight `memcpy`s (weights, tree and a compact
    /// layout's support map); a `scale ≠ 1` adds one multiply pass over
    /// the tree's positions (scaling every partial sum scales the tree
    /// consistently, and the zero weights off a compact support stay
    /// zero); each override then costs `O(log n)`, or `O(log k)` compact.
    /// An override that revives a category outside a compact support
    /// is written through, and the batch ends with one rebuild. The
    /// resulting *weights* are exactly what
    /// [`from_weights`](FenwickSampler::from_weights) over the folded
    /// vector would hold — tree node sums may differ from a rebuilt tree in
    /// the last ulp (sums of scaled terms versus scaled sums), the same
    /// rounding class [`update`](DynamicSampler::update)'s delta
    /// maintenance already tolerates.
    ///
    /// Overrides are validated like `update`; a scale fold that overflows
    /// any weight to `∞` fails with the same
    /// [`SelectionError::InvalidFitness`] the full-rebuild validation
    /// would raise.
    pub fn patched_from(
        prev: &Self,
        overrides: &[(usize, f64)],
        scale: f64,
    ) -> Result<Self, SelectionError> {
        if !scale.is_finite() || scale < 0.0 {
            return Err(SelectionError::InvalidScale { factor: scale });
        }
        let mut sampler = prev.clone();
        if scale != 1.0 {
            // Recount the support while scaling: a tiny scale can underflow
            // a positive weight to exactly zero, which the non_zero count
            // must observe for the all-zero guard to stay truthful. An
            // overflow to ∞ diverts to the reconciliation path *before*
            // any override applies — a delta update through an ∞ would
            // poison the tree with NaN even when the override replaces the
            // overflowed weight with a finite value.
            let mut non_zero = 0usize;
            let mut overflowed = false;
            let mut fold = |w: &mut f64| {
                *w *= scale;
                overflowed |= !w.is_finite();
                non_zero += (*w > 0.0) as usize;
            };
            match &sampler.support {
                None => sampler.weights.iter_mut().for_each(&mut fold),
                Some(support) => {
                    for &index in support {
                        fold(&mut sampler.weights[index as usize]);
                    }
                }
            }
            if overflowed {
                return Self::reconcile_overflow(sampler.weights, overrides);
            }
            for node in sampler.tree.iter_mut() {
                *node *= scale;
            }
            sampler.non_zero = non_zero;
        }
        let mut revived = false;
        for &(index, weight) in overrides {
            revived |= sampler.set(index, weight)?;
        }
        if revived {
            sampler.rebuild();
        }
        // A non-finite total is only an error when an individual weight
        // overflowed — the rebuild path validates weights, not their sum.
        if !sampler.total_weight().is_finite() {
            if let Some(error) = non_finite_weight_error(&sampler.weights) {
                return Err(error);
            }
        }
        Ok(sampler)
    }

    /// The scale fold pushed some weight to `∞`. Validity is decided by
    /// the **folded** vector, exactly as a rebuild would decide it: the
    /// overrides may replace every overflowed entry, in which case the
    /// batch is valid and must succeed. Apply the overrides as plain
    /// writes (no delta updates through an ∞), then validate and rebuild —
    /// this pathological batch pays the `O(n)` the fast path saved, and
    /// returns a sampler identical to a full rebuild's.
    #[cold]
    #[inline(never)]
    fn reconcile_overflow(
        mut weights: Vec<f64>,
        overrides: &[(usize, f64)],
    ) -> Result<Self, SelectionError> {
        for &(index, weight) in overrides {
            validate_weight(index, weight)?;
            weights[index] = weight;
        }
        for (index, &value) in weights.iter().enumerate() {
            if !value.is_finite() {
                return Err(SelectionError::InvalidFitness { index, value });
            }
        }
        Ok(Self::from_validated(weights))
    }

    /// Write one weight: a delta update of the tree when the category has
    /// a position, a plain write otherwise. Returns whether the write
    /// revived a category outside a compact support, which leaves the
    /// tree stale (but the non-zero count current) until the caller lays
    /// a new one.
    fn set(&mut self, index: usize, new_weight: f64) -> Result<bool, SelectionError> {
        assert!(
            index < self.weights.len(),
            "index {index} outside 0..{}",
            self.weights.len()
        );
        validate_weight(index, new_weight)?;
        let old = self.weights[index];
        self.weights[index] = new_weight;
        let Some(position) = self.position(index) else {
            // Off the support the old weight is zero.
            let revived = new_weight > 0.0;
            self.non_zero += revived as usize;
            return Ok(revived);
        };
        if old > 0.0 && new_weight == 0.0 {
            self.non_zero -= 1;
        } else if old == 0.0 && new_weight > 0.0 {
            self.non_zero += 1;
        }
        let delta = new_weight - old;
        let positions = self.positions();
        let mut node = position + 1;
        while node <= positions {
            self.tree[node] += delta;
            node += node & node.wrapping_neg();
        }
        Ok(false)
    }

    /// Prefix sum `w_0 + … + w_{index-1}` in `O(log n)` (`O(log k)`
    /// compact).
    pub fn prefix_sum(&self, index: usize) -> f64 {
        let positions = match &self.support {
            None => index.min(self.weights.len()),
            Some(support) => support.partition_point(|&c| (c as usize) < index),
        };
        self.position_prefix(positions)
    }

    /// Sum of the weights at tree positions `0..positions`.
    #[inline]
    fn position_prefix(&self, positions: usize) -> f64 {
        let mut node = positions;
        let mut sum = 0.0;
        while node > 0 {
            sum += self.tree[node];
            node -= node & node.wrapping_neg();
        }
        sum
    }

    /// Number of strictly positive weights.
    pub fn non_zero_count(&self) -> usize {
        self.non_zero
    }

    /// Find the smallest index whose cumulative weight exceeds `r`
    /// (the inverse-CDF descent), skipping zero-weight indices.
    #[inline]
    fn descend(&self, mut r: f64) -> usize {
        let positions = self.positions();
        let mut pos = 0usize; // one-based node position of the found prefix
        let mut step = self.top;
        while step > 0 {
            let next = pos + step;
            if next <= positions && self.tree[next] <= r {
                r -= self.tree[next];
                pos = next;
            }
            step /= 2;
        }
        self.settle(pos)
    }

    /// [`descend`](Self::descend) for [`LOCKSTEP`] mass coordinates at
    /// once, branch-free: each step computes `r - node` and keeps it or
    /// the old `r` through an integer select on the bits (a select on the
    /// `f64` itself compiles to a branch on x86), so each lane lands
    /// exactly where its own scalar descent would.
    #[inline]
    fn descend_lockstep(&self, r: [f64; LOCKSTEP]) -> [usize; LOCKSTEP] {
        let positions = self.positions();
        let tree = &self.tree[..=positions];
        let mut r = r.map(f64::to_bits);
        let mut pos = [0usize; LOCKSTEP];
        let mut step = self.top;
        while step > 0 {
            for lane in 0..LOCKSTEP {
                let next = pos[lane] + step;
                let node = tree[next.min(positions)];
                let mass = f64::from_bits(r[lane]);
                let take = (next <= positions) & (node <= mass);
                r[lane] = select_unpredictable(take, (mass - node).to_bits(), r[lane]);
                pos[lane] = select_unpredictable(take, next, pos[lane]);
            }
            step /= 2;
        }
        pos.map(|pos| self.settle(pos))
    }

    /// The category a descent that stopped at position `pos` lands on.
    /// `pos` counts the positions whose cumulative mass lies at or below
    /// `r`; the winner is the next one. Floating-point rounding at the
    /// extreme right edge can push past the end or onto a zero weight —
    /// walk back to the last positive weight in that case.
    #[inline]
    fn settle(&self, pos: usize) -> usize {
        let candidate = pos.min(self.positions() - 1);
        let index = self.category(candidate);
        if self.weights[index] > 0.0 {
            return index;
        }
        self.walk_back(candidate)
    }

    /// The right-edge rounding repair for [`settle`](Self::settle), out
    /// of line so the `O(log n)` hot path stays compact — it runs only
    /// when a draw lands past the support.
    #[cold]
    #[inline(never)]
    fn walk_back(&self, candidate: usize) -> usize {
        let positive = |&p: &usize| self.weights[self.category(p)] > 0.0;
        (0..candidate)
            .rev()
            .find(positive)
            .or_else(|| (0..self.positions()).find(positive))
            .map(|p| self.category(p))
            .expect("descend is only called with positive total mass")
    }
}

/// Blame the first non-finite weight after a scale fold overflowed —
/// failure path of the patch constructors, kept out of the hot publish
/// code. `None` when every weight is individually finite (a sum can still
/// overflow; the rebuild path validates weights, not totals, so that state
/// is accepted).
#[cold]
#[inline(never)]
pub(crate) fn non_finite_weight_error(weights: &[f64]) -> Option<SelectionError> {
    weights
        .iter()
        .enumerate()
        .find(|(_, w)| !w.is_finite())
        .map(|(index, &value)| SelectionError::InvalidFitness { index, value })
}

impl DynamicSampler for FenwickSampler {
    fn weights(&self) -> &[f64] {
        &self.weights
    }

    fn total_weight(&self) -> f64 {
        self.position_prefix(self.positions())
    }

    fn sample(&self, rng: &mut dyn RandomSource) -> Result<usize, SelectionError> {
        if self.non_zero == 0 {
            return Err(SelectionError::AllZeroFitness);
        }
        let total = self.total_weight();
        let r = rng.next_f64() * total;
        Ok(self.descend(r))
    }

    /// Tight-loop fill: the support check and the `O(log n)` total-weight
    /// read happen once per buffer instead of once per draw (the weights
    /// cannot change behind `&self`), then each draw is one uniform and one
    /// descent — the same consumption as [`sample`](DynamicSampler::sample),
    /// so both paths agree draw for draw on equal seeds.
    fn sample_into(
        &self,
        rng: &mut dyn RandomSource,
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        if self.non_zero == 0 {
            return Err(SelectionError::AllZeroFitness);
        }
        let total = self.total_weight();
        for slot in out.iter_mut() {
            *slot = self.descend(rng.next_f64() * total);
        }
        Ok(())
    }

    /// Lockstep per-stream draws: the support check and the total read
    /// once, then eight streams' uniforms descend together and the
    /// remainder one by one — each stream gives the uniform and the index
    /// its own [`sample`](DynamicSampler::sample) would.
    fn sample_streams(
        &self,
        streams: &mut [Philox4x32],
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        assert_eq!(streams.len(), out.len(), "one output slot per stream");
        if self.non_zero == 0 {
            return Err(SelectionError::AllZeroFitness);
        }
        let total = self.total_weight();
        let mut stream_groups = streams.chunks_exact_mut(LOCKSTEP);
        let mut out_groups = out.chunks_exact_mut(LOCKSTEP);
        for (group, picks) in (&mut stream_groups).zip(&mut out_groups) {
            let mut r = [0.0; LOCKSTEP];
            for (r, stream) in r.iter_mut().zip(group.iter_mut()) {
                *r = stream.next_f64() * total;
            }
            picks.copy_from_slice(&self.descend_lockstep(r));
        }
        let rest = stream_groups.into_remainder().iter_mut();
        for (stream, pick) in rest.zip(out_groups.into_remainder()) {
            *pick = self.descend(stream.next_f64() * total);
        }
        Ok(())
    }

    /// An `O(log n)` delta (`O(log k)` compact). Reviving a category
    /// outside a compact support switches to the dense layout in one
    /// `O(n)` build instead of re-deciding the layout, so a run of
    /// revivals pays that build once.
    fn update(&mut self, index: usize, new_weight: f64) -> Result<(), SelectionError> {
        if self.set(index, new_weight)? {
            self.support = None;
            self.lay_tree();
        }
        Ok(())
    }

    /// The compact layout's sorted map (zeroed members included); `None`
    /// dense.
    fn support(&self) -> Option<&[u32]> {
        self.support.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_rng::{MersenneTwister64, SeedableSource};
    use proptest::prelude::*;

    #[test]
    fn empty_weights_are_rejected() {
        assert_eq!(
            FenwickSampler::from_weights(vec![]),
            Err(SelectionError::EmptyFitness)
        );
    }

    #[test]
    fn invalid_weights_are_rejected_at_construction() {
        assert!(FenwickSampler::from_weights(vec![1.0, -2.0]).is_err());
        assert!(FenwickSampler::from_weights(vec![f64::NAN]).is_err());
    }

    #[test]
    fn prefix_sums_match_naive_accumulation() {
        let weights = vec![0.5, 0.0, 2.0, 1.5, 3.0, 0.0, 1.0];
        let sampler = FenwickSampler::from_weights(weights.clone()).unwrap();
        let mut acc = 0.0;
        for i in 0..=weights.len() {
            assert!(
                (sampler.prefix_sum(i) - acc).abs() < 1e-12,
                "prefix {i}: {} vs {acc}",
                sampler.prefix_sum(i)
            );
            if i < weights.len() {
                acc += weights[i];
            }
        }
    }

    #[test]
    fn updates_are_reflected_in_prefix_sums_and_total() {
        let mut sampler = FenwickSampler::from_weights(vec![1.0; 10]).unwrap();
        sampler.update(3, 5.0).unwrap();
        sampler.update(9, 0.0).unwrap();
        assert!((sampler.total_weight() - 13.0).abs() < 1e-12);
        assert!((sampler.prefix_sum(4) - 8.0).abs() < 1e-12);
        assert_eq!(sampler.non_zero_count(), 9);
    }

    #[test]
    fn sampling_follows_the_weights_exactly_in_distribution() {
        let sampler = FenwickSampler::from_weights(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(5);
        let trials = 200_000;
        let mut counts = [0u64; 4];
        for _ in 0..trials {
            counts[sampler.sample(&mut rng).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / trials as f64;
            let target = (i + 1) as f64 / 10.0;
            assert!(
                (freq - target).abs() < 0.005,
                "index {i}: {freq} vs {target}"
            );
        }
    }

    #[test]
    fn zero_weights_are_never_drawn_even_after_updates() {
        let mut sampler = FenwickSampler::from_weights(vec![1.0; 8]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(6);
        for dead in [0usize, 3, 7] {
            sampler.update(dead, 0.0).unwrap();
        }
        for _ in 0..20_000 {
            let i = sampler.sample(&mut rng).unwrap();
            assert!(sampler.weight(i) > 0.0, "drew zero-weight index {i}");
        }
    }

    #[test]
    fn updating_the_last_positive_weight_to_zero_yields_all_zero_error() {
        let mut sampler = FenwickSampler::from_weights(vec![0.0, 2.0, 0.0]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(7);
        assert_eq!(sampler.sample(&mut rng).unwrap(), 1);
        sampler.update(1, 0.0).unwrap();
        assert_eq!(
            sampler.sample(&mut rng),
            Err(SelectionError::AllZeroFitness)
        );
        // Reviving an index makes sampling work again.
        sampler.update(2, 1.0).unwrap();
        assert_eq!(sampler.sample(&mut rng).unwrap(), 2);
    }

    #[test]
    fn single_category_always_wins() {
        let sampler = FenwickSampler::from_weights(vec![0.25]).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(8);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut rng).unwrap(), 0);
        }
    }

    #[test]
    fn patch_scale_overflow_reconciles_exactly_like_a_rebuild() {
        // A scale fold overflows weight 0 to ∞, but the override replaces
        // that same weight with a finite value — the folded vector is
        // valid, so the patch must succeed with a rebuild-identical,
        // NaN-free sampler (a delta update through the ∞ would have
        // poisoned the tree).
        let prev = FenwickSampler::from_weights(vec![f64::MAX / 8.0, 1.0, 2.0, 3.0]).unwrap();
        let patched = FenwickSampler::patched_from(&prev, &[(0, 5.0)], 16.0).unwrap();
        let rebuilt = FenwickSampler::from_weights(vec![5.0, 16.0, 32.0, 48.0]).unwrap();
        assert_eq!(patched.weights(), rebuilt.weights());
        assert_eq!(patched.non_zero_count(), 4);
        assert!(patched.total_weight().is_finite());
        assert_eq!(patched.total_weight(), rebuilt.total_weight());
        for i in 0..=4 {
            assert_eq!(patched.prefix_sum(i), rebuilt.prefix_sum(i), "prefix {i}");
        }
        // An overflowed weight that no override repairs still fails with
        // the rebuild path's validation error.
        assert!(matches!(
            FenwickSampler::patched_from(&prev, &[(1, 9.0)], 16.0),
            Err(SelectionError::InvalidFitness { index: 0, .. })
        ));
    }

    #[test]
    fn reload_replaces_the_distribution() {
        let mut sampler = FenwickSampler::from_weights(vec![1.0, 1.0, 1.0]).unwrap();
        sampler.reload(&[0.0, 0.0, 4.0]).unwrap();
        assert!((sampler.total_weight() - 4.0).abs() < 1e-12);
        assert_eq!(sampler.non_zero_count(), 1);
        let mut rng = MersenneTwister64::seed_from_u64(9);
        for _ in 0..50 {
            assert_eq!(sampler.sample(&mut rng).unwrap(), 2);
        }
        assert!(sampler.reload(&[1.0, f64::NAN, 0.0]).is_err());
    }

    #[test]
    fn agrees_with_linear_scan_given_the_same_randomness() {
        // Both consume exactly one uniform and invert the same CDF, so with
        // a shared stream they must pick identical indices.
        use lrb_core::sequential::LinearScanSelector;
        use lrb_core::Selector;
        let weights = vec![0.3, 0.0, 2.0, 1.7, 0.0, 5.0, 0.25];
        let fitness = Fitness::new(weights.clone()).unwrap();
        let sampler = FenwickSampler::from_weights(weights).unwrap();
        let mut rng_a = MersenneTwister64::seed_from_u64(12);
        let mut rng_b = MersenneTwister64::seed_from_u64(12);
        for _ in 0..5_000 {
            assert_eq!(
                sampler.sample(&mut rng_a).unwrap(),
                LinearScanSelector.select(&fitness, &mut rng_b).unwrap()
            );
        }
    }

    /// `n` weights with a positive dyadic weight (a multiple of 1/4, so
    /// every partial sum is exact) at every `stride`-th index from
    /// `stride / 2`.
    fn sparse_dyadic(n: usize, stride: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                if i % stride == stride / 2 {
                    ((i * 7) % 13 + 1) as f64 * 0.25
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn the_layout_follows_the_compact_ratio() {
        let n = 4 * COMPACT_RATIO * 16;
        let at_bound = sparse_dyadic(n, COMPACT_RATIO);
        assert!(FenwickSampler::from_weights(at_bound).unwrap().is_compact());
        let over = sparse_dyadic(n, COMPACT_RATIO - 1);
        assert!(!FenwickSampler::from_weights(over).unwrap().is_compact());
        // An all-zero vector builds (compact, with an empty tree) and
        // refuses to draw.
        let empty = FenwickSampler::from_weights(vec![0.0; 64]).unwrap();
        assert!(empty.is_compact());
        assert_eq!(empty.total_weight(), 0.0);
        let mut rng = MersenneTwister64::seed_from_u64(3);
        assert_eq!(empty.sample(&mut rng), Err(SelectionError::AllZeroFitness));
        // `reload` re-decides.
        let mut sampler = FenwickSampler::from_weights(vec![1.0; 64]).unwrap();
        assert!(!sampler.is_compact());
        sampler.reload(&sparse_dyadic(64, 16)).unwrap();
        assert!(sampler.is_compact());
        sampler.reload(&[2.0; 64]).unwrap();
        assert!(!sampler.is_compact());
        assert_eq!(sampler.total_weight(), 128.0);
    }

    #[test]
    fn compact_prefix_sums_and_totals_are_exact() {
        let weights = sparse_dyadic(1_000, 37);
        let sampler = FenwickSampler::from_weights(weights.clone()).unwrap();
        assert!(sampler.is_compact());
        let mut acc = 0.0;
        for i in 0..=weights.len() {
            assert_eq!(sampler.prefix_sum(i), acc, "prefix {i}");
            if i < weights.len() {
                acc += weights[i];
            }
        }
        assert_eq!(sampler.total_weight(), acc);
        assert_eq!(sampler.non_zero_count(), 27);
    }

    #[test]
    fn per_stream_draws_equal_a_sample_loop() {
        let dense = FenwickSampler::from_weights((0..300).map(|i| (i % 7) as f64).collect());
        let compact = FenwickSampler::from_weights(sparse_dyadic(4_096, 61));
        for sampler in [dense.unwrap(), compact.unwrap()] {
            for len in [0, 1, 7, 8, 9, 1_000] {
                let mut streams = vec![Philox4x32::with_key(0); len];
                Philox4x32::fill_substreams(0xFACE, 40, &mut streams, &mut vec![0.0; len]);
                let mut reference = streams.clone();
                let mut out = vec![usize::MAX; len];
                sampler.sample_streams(&mut streams, &mut out).unwrap();
                for (i, stream) in reference.iter_mut().enumerate() {
                    assert_eq!(
                        out[i],
                        sampler.sample(stream).unwrap(),
                        "compact {}, {len} streams, stream {i}",
                        sampler.is_compact()
                    );
                }
                assert_eq!(streams, reference, "a stream moved unlike its draw");
            }
        }
        for weights in [vec![0.0; 5], vec![0.0; 500]] {
            let all_zero = FenwickSampler::from_weights(weights).unwrap();
            let mut streams = [Philox4x32::for_substream(1, 0); 9];
            let mut out = [0usize; 9];
            assert_eq!(
                all_zero.sample_streams(&mut streams, &mut out),
                Err(SelectionError::AllZeroFitness)
            );
        }
    }

    #[test]
    fn compact_sampler_agrees_with_linear_scan_given_the_same_randomness() {
        use lrb_core::sequential::LinearScanSelector;
        use lrb_core::Selector;
        let weights = sparse_dyadic(2_000, 45);
        let fitness = Fitness::new(weights.clone()).unwrap();
        let sampler = FenwickSampler::from_weights(weights).unwrap();
        assert!(sampler.is_compact());
        let mut rng_a = MersenneTwister64::seed_from_u64(13);
        let mut rng_b = MersenneTwister64::seed_from_u64(13);
        for _ in 0..5_000 {
            assert_eq!(
                sampler.sample(&mut rng_a).unwrap(),
                LinearScanSelector.select(&fitness, &mut rng_b).unwrap()
            );
        }
    }

    #[test]
    fn reviving_outside_the_support_turns_dense_and_zeroing_inside_keeps_the_layout() {
        let mut weights = vec![0.0; 512];
        weights[10] = 1.0;
        weights[300] = 3.0;
        let mut sampler = FenwickSampler::from_weights(weights.clone()).unwrap();
        assert!(sampler.is_compact());
        let mut rng = MersenneTwister64::seed_from_u64(4);
        // Zeroing a support member keeps its position and the layout, and
        // the map (forwarded to the frozen view) still lists it.
        sampler.update(300, 0.0).unwrap();
        assert!(sampler.is_compact());
        assert_eq!(sampler.support(), Some(&[10, 300][..]));
        assert_eq!(
            lrb_core::traits::FrozenSampler::support(&sampler),
            Some(&[10, 300][..])
        );
        assert_eq!(sampler.non_zero_count(), 1);
        assert_eq!(sampler.total_weight(), 1.0);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut rng).unwrap(), 10);
        }
        // Reviving a category off the support turns the tree dense, then
        // draws it.
        sampler.update(511, 4.0).unwrap();
        weights[300] = 0.0;
        weights[511] = 4.0;
        assert!(!sampler.is_compact());
        assert_eq!(sampler.support(), None);
        assert_eq!(sampler.non_zero_count(), 2);
        assert_eq!(sampler.total_weight(), 5.0);
        assert_eq!(sampler.prefix_sum(511), 1.0);
        let hits = (0..2_000)
            .filter(|_| sampler.sample(&mut rng).unwrap() == 511)
            .count();
        assert!(
            (1_400..1_800).contains(&hits),
            "{hits} of 2000 on weight 4/5"
        );
        // A run of revivals stays dense: a rebuild that re-applied the
        // rule would lay 34 of 512 positive weights compact again, so no
        // update after the first rebuilt.
        for (i, weight) in weights.iter_mut().enumerate().take(64).skip(32) {
            sampler.update(i, 0.5).unwrap();
            *weight = 0.5;
            assert!(!sampler.is_compact(), "revival {i} rebuilt");
        }
        let mut acc = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            assert_eq!(sampler.prefix_sum(i), acc, "prefix {i}");
            acc += w;
        }
        assert_eq!(sampler.total_weight(), acc);
        assert_eq!(sampler.non_zero_count(), 34);
        // `reload` re-decides, and equals a fresh build.
        sampler.reload(&weights).unwrap();
        assert!(sampler.is_compact());
        assert_eq!(sampler, FenwickSampler::from_weights(weights).unwrap());
        // A patch that revives off the support rebuilds once, at the end,
        // and re-applies the rule.
        let compact = FenwickSampler::from_weights(sparse_dyadic(512, 64)).unwrap();
        let patched =
            FenwickSampler::patched_from(&compact, &[(0, 2.0), (3, 0.0), (5, 1.0)], 0.5).unwrap();
        assert!(patched.is_compact());
        let mut folded: Vec<f64> = sparse_dyadic(512, 64).iter().map(|w| w * 0.5).collect();
        folded[0] = 2.0;
        folded[3] = 0.0;
        folded[5] = 1.0;
        assert_eq!(patched, FenwickSampler::from_weights(folded).unwrap());
    }

    proptest! {
        #[test]
        fn prop_prefix_sums_track_random_update_bursts(
            initial in proptest::collection::vec(0.0f64..10.0, 1..128),
            updates in proptest::collection::vec(0.0f64..10.0, 1..64),
            seed: u64,
        ) {
            let mut sampler = FenwickSampler::from_weights(initial.clone()).unwrap();
            let mut shadow = initial;
            let mut pick = seed;
            for &w in &updates {
                pick = pick.wrapping_mul(6364136223846793005).wrapping_add(1);
                let index = (pick >> 33) as usize % shadow.len();
                shadow[index] = w;
                sampler.update(index, w).unwrap();
            }
            let total: f64 = shadow.iter().sum();
            prop_assert!((sampler.total_weight() - total).abs() < 1e-9);
            let mid = shadow.len() / 2;
            let prefix: f64 = shadow[..mid].iter().sum();
            prop_assert!((sampler.prefix_sum(mid) - prefix).abs() < 1e-9);
        }

        /// The same bursts from a sparse start: the sampler builds
        /// compact, the updates zero members of the support and revive
        /// categories off it (the first revival turns the tree dense).
        #[test]
        fn prop_sparse_prefix_sums_track_random_update_bursts(
            len in 64usize..512,
            updates in proptest::collection::vec(0.0f64..10.0, 1..64),
            seed: u64,
        ) {
            let initial: Vec<f64> = (0..len)
                .map(|i| if i % 29 == 7 { (i % 5 + 1) as f64 } else { 0.0 })
                .collect();
            let mut sampler = FenwickSampler::from_weights(initial.clone()).unwrap();
            prop_assert!(sampler.is_compact());
            let mut shadow = initial;
            let mut pick = seed;
            for (k, &w) in updates.iter().enumerate() {
                pick = pick.wrapping_mul(6364136223846793005).wrapping_add(1);
                let index = (pick >> 33) as usize % shadow.len();
                let w = if k % 3 == 0 { 0.0 } else { w };
                shadow[index] = w;
                sampler.update(index, w).unwrap();
            }
            let total: f64 = shadow.iter().sum();
            prop_assert!((sampler.total_weight() - total).abs() < 1e-9);
            for cut in [0, shadow.len() / 3, shadow.len() / 2, shadow.len()] {
                let prefix: f64 = shadow[..cut].iter().sum();
                prop_assert!((sampler.prefix_sum(cut) - prefix).abs() < 1e-9);
            }
            prop_assert_eq!(
                sampler.non_zero_count(),
                shadow.iter().filter(|&&w| w > 0.0).count()
            );
            prop_assert_eq!(sampler.weights(), &shadow[..]);
        }
    }
}
