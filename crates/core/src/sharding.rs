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

/// Uniforms [`TotalsCut::pick_uniforms`] picks for at once.
pub const PICK_LANES: usize = 8;

/// One frozen cut of the shard totals, with a Fenwick prefix tree over them
/// for `O(log S)` shard picks. See the module docs.
#[derive(Debug, Clone)]
pub struct TotalsCut {
    /// The raw per-shard totals of this cut.
    totals: Vec<f64>,
    /// One-based Fenwick partial sums over `totals`, padded with +inf to
    /// `2 · top` positions (see [`refill`](Self::refill)).
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
        // Positions past the last shard hold +inf, so every descent step
        // reads a node (the largest reachable position is 2·top − 1), and
        // `node <= mass` alone refuses a step past the end.
        self.tree.resize(2 * top, f64::INFINITY);
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
        if !self.has_mass() || !r.is_finite() {
            return None;
        }
        let ([pos], [residual]) = self.descend([self.clamp(r)]);
        self.settle(pos, residual)
    }

    /// Like [`pick`](Self::pick) but takes a unit uniform `u ∈ [0, 1)` and
    /// scales it onto the cut's mass — the common caller shape (`u` fresh
    /// from a [`RandomSource`](lrb_rng::RandomSource)).
    pub fn pick_uniform(&self, u: f64) -> Option<(usize, f64)> {
        self.pick(u * self.total)
    }

    /// [`pick_uniform`](Self::pick_uniform)'s shard for
    /// [`PICK_LANES`] uniforms at once, lane for lane: the same clamp,
    /// descent and zero-total fallback, with the lanes' descents in
    /// lockstep so their node loads overlap. `None` when the cut carries
    /// no mass, or when a lane's scaled coordinate is not finite (where
    /// that lane's `pick_uniform` returns `None`).
    pub fn pick_uniforms(&self, u: &[f64; PICK_LANES]) -> Option<[usize; PICK_LANES]> {
        let r = u.map(|u| u * self.total);
        if !self.has_mass() || !r.iter().all(|r| r.is_finite()) {
            return None;
        }
        let (pos, residual) = self.descend(r.map(|r| self.clamp(r)));
        let mut shards = [0; PICK_LANES];
        for (lane, shard) in shards.iter_mut().enumerate() {
            *shard = self.settle(pos[lane], residual[lane])?.0;
        }
        Some(shards)
    }

    /// Whether the cut has positive, finite mass to pick from.
    fn has_mass(&self) -> bool {
        self.total.is_finite() && self.total > 0.0
    }

    /// Clamp a mass coordinate onto `[0, total)` (the right edge one
    /// rounding step inside).
    fn clamp(&self, r: f64) -> f64 {
        r.clamp(0.0, self.total * (1.0 - f64::EPSILON))
    }

    /// The level-one descent, for `L` coordinates in lockstep: each lane's
    /// count of shards fully below it and its residual mass.
    ///
    /// Branch-free: each step computes `residual - node` and keeps it or
    /// the old residual through an integer select on the bits (a select
    /// on the `f64` compiles to a branch on x86), so the arithmetic is
    /// exactly the branchy walk's. Against the branchy walk it cut
    /// perfbench `batch_sparse`'s request p50 by 7–8 % on a 2-vCPU Xeon
    /// (alternating pairs won 9 of 10 on one seed, 8 of 8 on another).
    /// Eight lanes of 256 fresh uniforms on a 4-shard cut took 4.9 ns a
    /// pick on the same host, against 11.7 for one-at-a-time picks that
    /// also compared each step's position with the shard count.
    #[inline(always)]
    fn descend<const L: usize>(&self, r: [f64; L]) -> ([usize; L], [f64; L]) {
        let tree = &self.tree[..2 * self.top];
        let mut residual = r.map(f64::to_bits);
        let mut pos = [0usize; L]; // one-based count of shards fully below `r`
        let mut step = self.top;
        while step > 0 {
            for lane in 0..L {
                let next = pos[lane] + step;
                let node = tree[next];
                let mass = f64::from_bits(residual[lane]);
                let take = node <= mass;
                residual[lane] =
                    select_unpredictable(take, (mass - node).to_bits(), residual[lane]);
                pos[lane] = select_unpredictable(take, next, pos[lane]);
            }
            step /= 2;
        }
        (pos, residual.map(f64::from_bits))
    }

    /// The shard a descent that stopped at `pos` with `residual` left
    /// lands on, and the residual within it.
    #[inline(always)]
    fn settle(&self, pos: usize, residual: f64) -> Option<(usize, f64)> {
        let candidate = pos.min(self.totals.len() - 1);
        if self.totals[candidate] > 0.0 {
            return Some((candidate, residual.min(self.totals[candidate])));
        }
        self.settle_left(candidate)
    }

    /// Right-edge rounding landed on a zero-total shard: take the last
    /// positive shard to its left (or the first positive one at all). Out
    /// of line, as it runs only at that edge.
    #[cold]
    #[inline(never)]
    fn settle_left(&self, candidate: usize) -> Option<(usize, f64)> {
        let shard = self.totals[..candidate]
            .iter()
            .rposition(|&t| t > 0.0)
            .or_else(|| self.totals.iter().position(|&t| t > 0.0))?;
        Some((shard, self.totals[shard] * (1.0 - f64::EPSILON)))
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
        assert_eq!(cut.pick_uniforms(&[0.5; PICK_LANES]), None);
    }

    /// The level-one pick as a branchy walk over the unpadded tree,
    /// checking `next <= n` at every step: the reference `pick_uniform`
    /// must match bit for bit (residual included), whatever the padding
    /// and the lockstep do.
    fn branchy_pick_uniform(cut: &TotalsCut, u: f64) -> Option<(usize, f64)> {
        if !(cut.total.is_finite() && cut.total > 0.0) {
            return None;
        }
        let n = cut.totals.len();
        let mut r = (u * cut.total).clamp(0.0, cut.total * (1.0 - f64::EPSILON));
        let (mut pos, mut step) = (0, cut.top);
        while step > 0 {
            let next = pos + step;
            if next <= n && cut.tree[next] <= r {
                r -= cut.tree[next];
                pos = next;
            }
            step /= 2;
        }
        let candidate = pos.min(n - 1);
        if cut.totals[candidate] > 0.0 {
            return Some((candidate, r.min(cut.totals[candidate])));
        }
        let shard = cut.totals[..candidate]
            .iter()
            .rposition(|&t| t > 0.0)
            .or_else(|| cut.totals.iter().position(|&t| t > 0.0))?;
        Some((shard, cut.totals[shard] * (1.0 - f64::EPSILON)))
    }

    #[test]
    fn picks_match_a_branchy_walk_lane_for_lane() {
        use lrb_rng::{RandomSource, SeedableSource, SplitMix64};
        let mut rng = SplitMix64::seed_from_u64(0x1E7E1);
        let largest = 1.0 - lrb_rng::uniform::F64_EPS_53;
        let scales = [1e-300, 1e-3, 1.0, 7.0, 1e299];
        // Lanes whose descent ends on a zero-total shard (the fallback).
        let mut fallbacks = 0;
        // 1–9 shards, so the descent's top step is not always the shard
        // count, under every pattern of zero-total shards (the last one
        // and the all-zero cut included); then up to 20 shards, whose
        // descents can step past the last shard with more than one shard
        // left to settle on, under random patterns and the two edge ones.
        let exhaustive =
            (1..=9usize).flat_map(|shards| (0u32..1 << shards).map(move |z| (shards, z)));
        let sampled = (10..=20usize).flat_map(|shards| {
            let mut masks = SplitMix64::seed_from_u64(shards as u64);
            let edges = [(1u32 << shards) - 1, 1 << (shards - 1)];
            let random: Vec<u32> = (0..48)
                .map(|_| masks.next_u32() & ((1 << shards) - 1))
                .collect();
            edges.into_iter().chain(random).map(move |z| (shards, z))
        });
        for (shards, zeros) in exhaustive.chain(sampled) {
            let scale = scales[zeros as usize % scales.len()];
            let totals: Vec<f64> = (0..shards)
                .map(|s| {
                    let positive = scale * (0.25 + rng.next_f64());
                    if zeros >> s & 1 == 1 {
                        0.0
                    } else {
                        positive
                    }
                })
                .collect();
            let cut = TotalsCut::from_totals(totals.clone());
            // The edges 0 and 1 − 2⁻⁵³ (clamped onto a zero-total last
            // shard when there is one), every shard boundary, and
            // random uniforms, each group with the edges in other lanes.
            let boundary = |lane: usize| {
                let below: f64 = totals[..(lane * shards).div_ceil(PICK_LANES)].iter().sum();
                (below / cut.total()).min(largest)
            };
            let mut groups = vec![
                [0.0, largest, largest, 0.0, largest, 0.0, 0.0, largest],
                std::array::from_fn(boundary),
            ];
            for edge_lane in 0..PICK_LANES {
                let mut u: [f64; PICK_LANES] = std::array::from_fn(|_| rng.next_f64());
                u[edge_lane] = if edge_lane % 2 == 0 { 0.0 } else { largest };
                groups.push(u);
            }
            for u in &groups {
                for &u in u {
                    let bits = |pick: Option<(usize, f64)>| pick.map(|(s, r)| (s, r.to_bits()));
                    assert_eq!(
                        bits(cut.pick_uniform(u)),
                        bits(branchy_pick_uniform(&cut, u)),
                        "totals {totals:?}, uniform {u}"
                    );
                    if cut.total() > 0.0 {
                        let ([pos], _) = cut.descend([cut.clamp(u * cut.total())]);
                        fallbacks += usize::from(totals[pos.min(shards - 1)] <= 0.0);
                    }
                }
                let per_lane: Option<Vec<usize>> = u
                    .iter()
                    .map(|&u| cut.pick_uniform(u).map(|(shard, _)| shard))
                    .collect();
                assert_eq!(
                    cut.pick_uniforms(u).map(Vec::from),
                    per_lane,
                    "totals {totals:?}, uniforms {u:?}"
                );
                if zeros == (1 << shards) - 1 {
                    assert_eq!(cut.pick_uniforms(u), None, "all-zero cut");
                }
            }
        }
        assert!(fallbacks > 0, "no lane reached the zero-total fallback");
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
