//! The **shard-total layer** behind every two-level draw.
//!
//! The sharded selection service (`lrb-service`) partitions the category
//! space into contiguous shards and draws in two levels: pick the owning
//! shard with probability proportional to its total weight, then draw
//! inside it from the shard's own snapshot — so the composite
//! distribution is exactly `F_i = w_i / Σ w_j`, the same law as a flat
//! sampler over every weight. This module is the level-one machinery:
//!
//! * [`ShardTotals`] — per-shard total weights published as `f64` bits in
//!   cache-padded atomics. Writers refresh their shard's cell after each
//!   update or publish; readers take lock-free snapshots.
//! * [`TotalsCut`] — one consistent snapshot of the totals, frozen into a
//!   **Fenwick prefix tree over the shard totals** so each shard pick is an
//!   `O(log S)` descent (the paper's tree, one level up). A cut is built
//!   once per draw batch and serves every pick in it
//!   ([`TotalsCut::pick_uniform`]). A cut is read-only once built, so
//!   threads can pick disjoint slot ranges from one cut at once; the
//!   service does, with each slot's uniform addressed by counter.
//!
//! A pick returns the landing shard *and the residual mass* inside it
//! (`residual / shard_total` is a uniform the in-shard draw could reuse).
//! The service discards it and draws the second level from the slot's own
//! stream: the residual of a 53-bit uniform that landed on a shard holding
//! a share `p` of the mass keeps only about `53 + log₂ p` bits, so reusing
//! it would coarsen the in-shard draw on every shard but a lone one.

use std::hint::select_unpredictable;
use std::sync::atomic::{AtomicU64, Ordering};

use lrb_obs::CachePadded;

/// Lock-free published per-shard total weights (see the module docs).
///
/// Cells are `f64` bits in `CachePadded` atomics: each shard's writer
/// refreshes only its own cache line, so concurrent publishes on different
/// shards never false-share.
#[derive(Debug)]
pub struct ShardTotals {
    cells: Vec<CachePadded<AtomicU64>>,
}

impl ShardTotals {
    /// `shards` cells, all starting at zero mass.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a shard-total table needs at least one shard");
        Self {
            cells: (0..shards)
                .map(|_| CachePadded(AtomicU64::new(0f64.to_bits())))
                .collect(),
        }
    }

    /// Cells seeded from an initial total per shard.
    pub fn from_totals(totals: &[f64]) -> Self {
        assert!(
            !totals.is_empty(),
            "a shard-total table needs at least one shard"
        );
        Self {
            cells: totals
                .iter()
                .map(|&t| CachePadded(AtomicU64::new(t.to_bits())))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the table has zero shards (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Publish `total` as shard `shard`'s current mass (release-ordered, so
    /// a reader that observes the new total also observes everything the
    /// writer did before publishing it).
    pub fn set(&self, shard: usize, total: f64) {
        self.cells[shard]
            .0
            .store(total.to_bits(), Ordering::Release);
    }

    /// Shard `shard`'s last published total (acquire-ordered).
    pub fn get(&self, shard: usize) -> f64 {
        f64::from_bits(self.cells[shard].0.load(Ordering::Acquire))
    }

    /// A plain copy of every published total.
    pub fn snapshot(&self) -> Vec<f64> {
        self.cells
            .iter()
            .map(|cell| f64::from_bits(cell.0.load(Ordering::Acquire)))
            .collect()
    }

    /// Freeze one consistent-enough cut of the totals into the level-one
    /// Fenwick (each cell is read atomically; cells move independently, so
    /// the cut is the standard lock-free approximation the service accepts
    /// — exact whenever no writer races the snapshot).
    pub fn cut(&self) -> TotalsCut {
        TotalsCut::from_totals(self.snapshot())
    }

    /// Rebuild `cut` in place from the current cells — the allocation-free
    /// sibling of [`cut`](Self::cut) for pooled callers (`DrawPlan` scratch
    /// in `lrb-service`): once `cut`'s buffers have grown to this table's
    /// shard count, refreshing it touches no allocator.
    pub fn refill_cut(&self, cut: &mut TotalsCut) {
        cut.refill(self.len(), |shard| self.get(shard));
    }
}

/// One frozen cut of the shard totals, with a Fenwick prefix tree over them
/// for `O(log S)` shard picks. See the module docs.
#[derive(Debug, Clone)]
pub struct TotalsCut {
    /// The raw per-shard totals of this cut.
    totals: Vec<f64>,
    /// One-based Fenwick partial sums over `totals`.
    tree: Vec<f64>,
    /// Largest power of two ≤ shard count (descent start step).
    top: usize,
    /// Sum of every shard total.
    total: f64,
}

impl TotalsCut {
    /// Freeze a totals vector (non-empty; negative entries are treated as
    /// zero mass — they cannot arise from validated weights).
    pub fn from_totals(totals: Vec<f64>) -> Self {
        let mut cut = Self::empty();
        cut.refill(totals.len(), |s| totals[s]);
        cut
    }

    /// An empty cut for pooled scratch: carries no shards and no mass (so
    /// [`pick`](Self::pick) returns `None`) until [`refill`](Self::refill)
    /// rebuilds it over live totals. `const`, so it can seed
    /// `thread_local!` plan scratch without a lazy initializer.
    pub const fn empty() -> Self {
        Self {
            totals: Vec::new(),
            tree: Vec::new(),
            top: 0,
            total: 0.0,
        }
    }

    /// Rebuild this cut in place over `shards` totals read through `get` —
    /// same result as [`from_totals`](Self::from_totals) over the same
    /// values, but both internal buffers are reused, so refreshing a cut
    /// whose capacity already covers `shards` performs no allocation.
    pub fn refill(&mut self, shards: usize, get: impl Fn(usize) -> f64) {
        assert!(shards > 0, "a totals cut needs at least one shard");
        self.totals.clear();
        self.totals.reserve(shards);
        self.tree.clear();
        self.tree.resize(shards + 1, 0.0);
        let mut total = 0.0f64;
        for i in 0..shards {
            let t = get(i);
            self.totals.push(t);
            let clamped = t.max(0.0);
            total += clamped;
            self.tree[i + 1] += clamped;
            let next = (i + 1) + ((i + 1) & (i + 1).wrapping_neg());
            if next <= shards {
                let carried = self.tree[i + 1];
                self.tree[next] += carried;
            }
        }
        let mut top = 1usize;
        while top * 2 <= shards {
            top *= 2;
        }
        self.top = top;
        self.total = total;
    }

    /// Number of shards in the cut.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// Whether the cut has zero shards (only true for a not-yet-refilled
    /// [`empty`](Self::empty) cut).
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// The raw per-shard totals of this cut.
    pub fn totals(&self) -> &[f64] {
        &self.totals
    }

    /// Total mass across every shard.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Level-one pick: descend the Fenwick with mass coordinate
    /// `r ∈ [0, total)`, returning the landing shard and the residual mass
    /// within it (`0 ≤ residual < totals[shard]` up to floating-point
    /// rounding at the right edge). Returns `None` when the cut carries no
    /// mass at all. Rounding at a shard boundary can only land on a
    /// positive-total shard: zero-total shards are walked over exactly like
    /// zero weights in the flat tree.
    pub fn pick(&self, r: f64) -> Option<(usize, f64)> {
        if !self.total.is_finite() || self.total <= 0.0 || !r.is_finite() {
            return None;
        }
        let r = r.clamp(0.0, self.total * (1.0 - f64::EPSILON));
        let n = self.totals.len();
        let tree = &self.tree[..=n];
        // Branch-free descent: each step computes `residual - node` and
        // keeps it or the old residual through an integer select on the
        // bits (a select on the `f64` compiles to a branch on x86), so the
        // arithmetic is exactly the branchy walk's. Against the branchy
        // walk it cut perfbench `batch_sparse`'s request p50 by 7–8 % on a
        // 2-vCPU Xeon (alternating pairs won 9 of 10 on one seed, 8 of 8
        // on another).
        let mut residual = r.to_bits();
        let mut pos = 0usize; // one-based count of shards fully below `r`
        let mut step = self.top;
        while step > 0 {
            let next = pos + step;
            let node = tree[next.min(n)];
            let mass = f64::from_bits(residual);
            let take = (next <= n) & (node <= mass);
            residual = select_unpredictable(take, (mass - node).to_bits(), residual);
            pos = select_unpredictable(take, next, pos);
            step /= 2;
        }
        let residual = f64::from_bits(residual);
        let candidate = pos.min(n - 1);
        if self.totals[candidate] > 0.0 {
            return Some((candidate, residual.min(self.totals[candidate])));
        }
        // Right-edge rounding landed on a zero-total shard: take the last
        // positive shard to its left (or the first positive one at all).
        let shard = self.totals[..candidate]
            .iter()
            .rposition(|&t| t > 0.0)
            .or_else(|| self.totals.iter().position(|&t| t > 0.0))?;
        Some((shard, self.totals[shard] * (1.0 - f64::EPSILON)))
    }

    /// Like [`pick`](Self::pick) but takes a unit uniform `u ∈ [0, 1)` and
    /// scales it onto the cut's mass — the common caller shape (`u` fresh
    /// from a [`RandomSource`](lrb_rng::RandomSource)).
    pub fn pick_uniform(&self, u: f64) -> Option<(usize, f64)> {
        self.pick(u * self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_prefix_tree_matches_linear_walk() {
        let totals = vec![3.0, 0.0, 2.0, 5.0, 0.0, 1.0, 4.0];
        let cut = TotalsCut::from_totals(totals.clone());
        assert_eq!(cut.total(), 15.0);
        // For a dense grid of mass coordinates, the Fenwick pick must agree
        // with the obvious linear cumulative walk.
        for k in 0..1500 {
            let r = k as f64 * 0.01;
            let (shard, residual) = cut.pick(r).unwrap();
            let mut linear_r = r.clamp(0.0, 15.0 * (1.0 - f64::EPSILON));
            let mut linear = totals.len() - 1;
            for (j, &t) in totals.iter().enumerate() {
                if linear_r < t {
                    linear = j;
                    break;
                }
                linear_r -= t;
            }
            assert_eq!(shard, linear, "r={r}");
            assert!(
                (residual - linear_r).abs() < 1e-12,
                "r={r}: residual {residual} vs {linear_r}"
            );
            assert!(totals[shard] > 0.0, "r={r} landed on an empty shard");
            assert!(residual < totals[shard] || residual == 0.0);
        }
    }

    #[test]
    fn pick_skips_zero_total_shards_at_the_edges() {
        let cut = TotalsCut::from_totals(vec![0.0, 0.0, 7.0, 0.0]);
        for k in 0..700 {
            let (shard, _) = cut.pick(k as f64 * 0.01).unwrap();
            assert_eq!(shard, 2);
        }
        // The extreme right edge (clamped) still lands on the mass.
        assert_eq!(cut.pick(7.0).unwrap().0, 2);
        assert_eq!(cut.pick_uniform(0.999_999).unwrap().0, 2);
        let largest = 1.0 - lrb_rng::uniform::F64_EPS_53;
        assert_eq!(cut.pick_uniform(largest).unwrap().0, 2);
    }

    #[test]
    fn all_zero_cut_has_no_pick() {
        let cut = TotalsCut::from_totals(vec![0.0, 0.0]);
        assert_eq!(cut.pick(0.0), None);
        assert_eq!(cut.pick_uniform(0.5), None);
    }

    #[test]
    fn totals_table_roundtrips_and_cuts() {
        let table = ShardTotals::new(3);
        assert_eq!(table.len(), 3);
        assert_eq!(table.snapshot(), vec![0.0, 0.0, 0.0]);
        table.set(0, 1.5);
        table.set(2, 3.5);
        assert_eq!(table.get(0), 1.5);
        assert_eq!(table.get(1), 0.0);
        let cut = table.cut();
        assert_eq!(cut.total(), 5.0);
        assert_eq!(cut.pick(1.0).unwrap(), (0, 1.0));
        assert_eq!(cut.pick(2.0).unwrap(), (2, 0.5));

        let seeded = ShardTotals::from_totals(&[2.0, 4.0]);
        assert_eq!(seeded.snapshot(), vec![2.0, 4.0]);
    }

    #[test]
    fn refilled_cut_matches_a_fresh_one() {
        let rounds = [
            vec![3.0, 0.0, 2.0, 5.0, 0.0, 1.0, 4.0],
            vec![1.0, 1.0],
            vec![0.5, 9.5, 0.0, 0.25, 7.75],
        ];
        let mut cut = TotalsCut::empty();
        assert!(cut.is_empty());
        assert_eq!(cut.pick(0.0), None);
        for totals in rounds {
            cut.refill(totals.len(), |s| totals[s]);
            let fresh = TotalsCut::from_totals(totals.clone());
            assert_eq!(cut.totals(), fresh.totals());
            assert_eq!(cut.total(), fresh.total());
            for k in 0..1000 {
                let r = k as f64 * cut.total() / 1000.0;
                assert_eq!(cut.pick(r), fresh.pick(r), "r={r} totals={totals:?}");
            }
        }
    }

    #[test]
    fn refill_cut_reads_the_live_cells() {
        let table = ShardTotals::new(3);
        table.set(0, 1.5);
        table.set(2, 3.5);
        let mut cut = TotalsCut::empty();
        table.refill_cut(&mut cut);
        assert_eq!(cut.totals(), &[1.5, 0.0, 3.5]);
        table.set(1, 2.0);
        table.refill_cut(&mut cut);
        assert_eq!(cut.totals(), &[1.5, 2.0, 3.5]);
        assert_eq!(cut.total(), 7.0);
    }

    #[test]
    fn single_shard_cut_degenerates_to_identity() {
        let cut = TotalsCut::from_totals(vec![9.0]);
        for k in 0..90 {
            let r = k as f64 * 0.1;
            let (shard, residual) = cut.pick(r).unwrap();
            assert_eq!(shard, 0);
            assert!((residual - r).abs() < 1e-12);
        }
    }
}
