//! A Fenwick-tree (binary indexed tree) weighted sampler: exact
//! probabilities, `O(log n)` draws and `O(log n)` single-weight updates.
//!
//! The tree stores partial sums of the weight vector; a draw generates
//! `r ∈ [0, Σw)` and descends the implicit tree from the highest power of two
//! downward, subtracting left-subtree masses — the classic `O(log n)`
//! inverse-CDF walk. An update adds the weight delta to `O(log n)` nodes.
//! This makes the Fenwick sampler the right engine for the paper's
//! mutate-and-sample regime, where alias tables would be rebuilt from
//! scratch after every change.

use lrb_core::error::SelectionError;
use lrb_core::fitness::Fitness;
use lrb_core::traits::DynamicSampler;
use lrb_rng::RandomSource;

use crate::validate_weight;

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
    /// One-based Fenwick array of partial sums.
    tree: Vec<f64>,
    /// Largest power of two `≤ n`, the root step of the descent.
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
        let n = weights.len();
        let mut sampler = Self {
            tree: vec![0.0; n + 1],
            top: n.next_power_of_two().min(usize::MAX / 2),
            non_zero: 0,
            weights,
        };
        if sampler.top > n {
            sampler.top /= 2;
        }
        sampler.rebuild();
        sampler
    }

    /// Rebuild the tree from the raw weights in `O(n)`.
    ///
    /// Used at construction and by [`reload`](FenwickSampler::reload); point
    /// updates never need it.
    fn rebuild(&mut self) {
        let n = self.weights.len();
        self.non_zero = self.weights.iter().filter(|&&w| w > 0.0).count();
        for node in self.tree.iter_mut() {
            *node = 0.0;
        }
        for i in 0..n {
            self.tree[i + 1] += self.weights[i];
        }
        for node in 1..=n {
            let parent = node + (node & node.wrapping_neg());
            if parent <= n {
                let carried = self.tree[node];
                self.tree[parent] += carried;
            }
        }
    }

    /// Replace every weight at once (`O(n)`, no allocation), e.g. when an
    /// ACO iteration re-derives a whole desirability row.
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
    /// The copy is two straight `memcpy`s (weights and tree); a `scale ≠ 1`
    /// adds one multiply pass (scaling every partial sum scales the tree
    /// consistently); each override then costs `O(log n)`. The resulting
    /// *weights* are exactly what
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
            for w in sampler.weights.iter_mut() {
                *w *= scale;
                overflowed |= !w.is_finite();
                non_zero += (*w > 0.0) as usize;
            }
            if overflowed {
                return Self::reconcile_overflow(sampler.weights, overrides);
            }
            for node in sampler.tree.iter_mut() {
                *node *= scale;
            }
            sampler.non_zero = non_zero;
        }
        for &(index, weight) in overrides {
            sampler.update(index, weight)?;
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

    /// Prefix sum `w_0 + … + w_{index-1}` in `O(log n)`.
    pub fn prefix_sum(&self, index: usize) -> f64 {
        let mut node = index.min(self.weights.len());
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
        let n = self.weights.len();
        let mut pos = 0usize; // one-based node position of the found prefix
        let mut step = self.top;
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] <= r {
                r -= self.tree[next];
                pos = next;
            }
            step /= 2;
        }
        // `pos` counts the indices whose cumulative mass lies at or below
        // `r`; the winner is the next index. Floating-point rounding at the
        // extreme right edge can push past the end or onto a zero weight —
        // walk back to the last positive weight in that case.
        let candidate = pos.min(n - 1);
        if self.weights[candidate] > 0.0 {
            return candidate;
        }
        self.walk_back(candidate)
    }

    /// The right-edge rounding repair for [`descend`](Self::descend), out
    /// of line so the `O(log n)` hot path stays compact — it runs only
    /// when a draw lands past the support.
    #[cold]
    #[inline(never)]
    fn walk_back(&self, candidate: usize) -> usize {
        self.weights[..candidate]
            .iter()
            .rposition(|&w| w > 0.0)
            .or_else(|| self.weights.iter().position(|&w| w > 0.0))
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
        self.prefix_sum(self.weights.len())
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

    fn update(&mut self, index: usize, new_weight: f64) -> Result<(), SelectionError> {
        assert!(
            index < self.weights.len(),
            "index {index} outside 0..{}",
            self.weights.len()
        );
        validate_weight(index, new_weight)?;
        let old = self.weights[index];
        if old > 0.0 && new_weight == 0.0 {
            self.non_zero -= 1;
        } else if old == 0.0 && new_weight > 0.0 {
            self.non_zero += 1;
        }
        self.weights[index] = new_weight;
        let delta = new_weight - old;
        let n = self.weights.len();
        let mut node = index + 1;
        while node <= n {
            self.tree[node] += delta;
            node += node & node.wrapping_neg();
        }
        Ok(())
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
    }
}
