//! The sharded selection core: a contiguous partition of the category
//! space across N [`SelectionEngine`] shards, drawn from in two levels.
//!
//! Level one picks the owning shard through the shared
//! [`lrb_core::sharding`] layer — every shard's total weight lives in a
//! lock-free [`ShardTotals`] cell, frozen per draw batch into a
//! [`TotalsCut`] (a Fenwick prefix tree over the shard totals, the paper's
//! tree one level up). Level two is the shard's own published snapshot
//! ([`SelectionEngine::snapshot`] + [`Snapshot::sample_streams`]), so a
//! draw takes no lock in steady state (only the first read on a thread
//! after a publish takes the shard engine's swap-cell mutex)
//! and never waits on a backend build — the composite distribution is
//! exactly `F_i = w_i / Σ_j w_j` against the cut's totals and each shard's
//! published snapshot.
//!
//! Writers follow the **one writer thread per shard** discipline: requests
//! enqueue into any shard's coalescing batch (that path is just a mutex'd
//! map insert, never a rebuild — see the engine's stall fix), and each
//! shard's dedicated publisher thread periodically publishes and refreshes
//! its total cell. Because the level-one cells move independently, a cut
//! can be momentarily stale against a shard's freshly published snapshot;
//! draws that land on a shard whose snapshot went all-zero refresh the
//! totals and retry once, so staleness costs latency, never correctness.
//!
//! ## Batch planning: `ROUTE_LAYOUT` v3
//!
//! Batched draws ([`ServiceCore::draw_into`]) run through a versioned
//! **batch planner**. The layout ([`ROUTE_LAYOUT_VERSION`] = 3) consumes
//! exactly **one** master `u64` from the caller's RNG, and slot `j` of the
//! batch draws from Philox substream `j` of that master alone: the
//! substream's first word picks the shard through the batch's
//! [`TotalsCut`], and the shard snapshot's sampler carries on along the
//! same stream (fenwick reads the second word of the same block; alias
//! and stochastic acceptance read as far as they need). Level one's
//! residual is not reused as the in-shard uniform: on a shard holding a
//! share `p` of the mass it keeps only about `53 + log₂ p` bits. So slot
//! `j`'s index is a pure function of `(master, j, cut, its shard's
//! snapshot)` and no slot waits on another, as in the paper's CRCW-PRAM
//! bidding: any slot range ([`ServiceCore::draw_slots`]) draws the same
//! indices on any lane, bit-identical at any thread budget.
//! `tests/service_planner.rs` rebuilds the layout from public pieces and
//! diffs it draw for draw.
//!
//! A batch is one recursive pass over slot ranges with a reusable
//! [`DrawPlan`]: a range of at least `FANOUT_MIN_BATCH` slots splits at
//! its midpoint and forks its halves through the rayon shim's `join`
//! (re-exported as [`lrb_core::join`]). A shorter range draws shard by
//! shard, in passes of at most `SLOT_PASS` slots: one pass fills every
//! slot's Philox head ([`Philox4x32::fill_substreams`]), level one picks
//! every slot's shard, a counting sort groups the slots by shard, and
//! each shard's snapshot draws its whole group through one per-stream
//! batch call, which fenwick runs as an 8-wide lockstep descent. Each
//! slot still draws from its own substream with the same arithmetic, so
//! the grouping changes no index. The calling thread takes every shard's
//! snapshot before the first fork, so a pool helper never touches an
//! engine (nor its thread-local snapshot cache). With a warm plan (and a
//! warm per-thread slot scratch, bounded by the pass length) the whole
//! path performs no allocation on the calling thread (see
//! `tests/service_alloc.rs`).
//!
//! [`Snapshot::sample_streams`]: lrb_engine::Snapshot::sample_streams
//! [`TotalsCut`]: lrb_core::sharding::TotalsCut

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lrb_core::sharding::{ShardTotals, TotalsCut};
use lrb_core::SelectionError;
use lrb_engine::{EngineConfig, SelectionEngine, Snapshot};
use lrb_obs::{Counter, MetricsSnapshot};
use lrb_rng::{Philox4x32, RandomSource};

use crate::telemetry::ServiceTelemetry;

/// Version of the batch-planner route layout (how a batch's randomness is
/// laid out across its slots). Bumped when the derivation changes; see
/// the module docs for the current one.
pub const ROUTE_LAYOUT_VERSION: u32 = 3;

/// Slot ranges shorter than this draw inline on one thread: below it, the
/// hand-off latency outweighs the parallel work (determinism is
/// unaffected — the schedule never changes results).
const FANOUT_MIN_BATCH: usize = 1024;

/// Slots a leaf range draws per pass of its phases: the bound on each
/// thread's slot scratch (108 bytes a slot, so about 27 KiB).
const SLOT_PASS: usize = 256;

/// Tuning knobs for a [`ShardedService`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// How many shards to partition the category space into (clamped to
    /// the category count; at least one).
    pub shards: usize,
    /// Per-shard engine configuration.
    pub engine: EngineConfig,
    /// When set, [`ShardedService::new`] spawns one publisher thread per
    /// shard that publishes pending writes at this cadence (the "one
    /// writer thread per shard" deployment). `None` means publishes happen
    /// only through [`ServiceCore::publish_all`] /
    /// [`ServiceCore::publish_shard`].
    pub publish_interval: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            engine: EngineConfig::default(),
            publish_interval: None,
        }
    }
}

/// Reusable scratch for the batch planner: the level-one cut, every
/// shard's snapshot and the per-shard draw counts, owned by the caller
/// and reused across batches.
///
/// Hold one per thread (the server's reactors do, through a
/// thread-local inside [`ServiceCore::draw_into`]) or pass your own to
/// [`ServiceCore::draw_into_with_plan`]. Buffers grow to the largest
/// batch/shard-count seen and stay there.
///
/// The leaf's slot scratch (each slot's stream, shard group and pick) is
/// not in the plan: every thread that draws a slot range, the caller and
/// any pool helper a fork reaches alike, keeps its own in a thread-local,
/// capped at one pass of 256 slots (about 27 KiB). So the steady-state
/// path allocates nothing once the plan and the drawing threads are warm;
/// a warm plan on a thread that has not drawn before still allocates its
/// slot scratch on the first batch.
#[derive(Debug)]
pub struct DrawPlan {
    /// The frozen level-one cut, refilled in place per batch.
    cut: TotalsCut,
    /// Every shard's snapshot, taken on the calling thread before any
    /// fork. Emptied after every batch, so the plan never keeps a
    /// snapshot alive.
    snapshots: Vec<Arc<Snapshot>>,
    /// Draws routed to each shard: one row of per-shard counts for each
    /// leaf range of the batch (see `leaves`).
    counts: Vec<usize>,
}

impl DrawPlan {
    /// An empty plan (`const`, so thread-locals need no lazy initializer);
    /// buffers grow on first use.
    pub const fn new() -> Self {
        Self {
            cut: TotalsCut::empty(),
            snapshots: Vec::new(),
            counts: Vec::new(),
        }
    }
}

impl Default for DrawPlan {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// The per-thread plan behind [`ServiceCore::draw_into`] and
    /// [`ServiceCore::draw_slots`] — one warm scratch per server reactor /
    /// publisher / caller thread.
    static THREAD_PLAN: RefCell<DrawPlan> = const { RefCell::new(DrawPlan::new()) };

    /// The per-thread slot scratch behind every leaf range a thread
    /// draws, on the submitting thread and on the pool's helpers alike.
    static SLOT_SCRATCH: RefCell<SlotScratch> = const { RefCell::new(SlotScratch::new()) };
}

/// One shard: a contiguous category range served by its own engine (the
/// range's global start lives in `ServiceCore::offsets`).
#[derive(Debug)]
struct Shard {
    /// The shard's engine over its contiguous category slice.
    engine: SelectionEngine,
    /// Draws the level-one pick routed here, counted once per successful
    /// batch (`lrb_service_shard<N>_routed_draws_total`).
    routed: Counter,
}

/// The shared, thread-safe service state: shards, the level-one totals and
/// the service telemetry. Everything on it is callable from any thread;
/// clones of the `Arc<ServiceCore>` are what the server's reactors and
/// the publisher threads hold.
#[derive(Debug)]
pub struct ServiceCore {
    shards: Vec<Shard>,
    /// `offsets[s]` = global index of shard `s`'s first category;
    /// `offsets[shards.len()]` = total category count.
    offsets: Vec<usize>,
    totals: ShardTotals,
    telemetry: ServiceTelemetry,
}

impl ServiceCore {
    fn new(weights: Vec<f64>, config: &ServiceConfig) -> Result<Self, SelectionError> {
        if weights.is_empty() {
            return Err(SelectionError::EmptyFitness);
        }
        // Validate globally first so per-shard construction cannot fail
        // with a shard-local index in its error.
        for (index, &value) in weights.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(SelectionError::InvalidFitness { index, value });
            }
        }
        let n = weights.len();
        let shard_count = config.shards.clamp(1, n);
        let base = n / shard_count;
        let extra = n % shard_count;
        let mut shards = Vec::with_capacity(shard_count);
        let mut offsets = Vec::with_capacity(shard_count + 1);
        let mut start = 0usize;
        let mut initial = Vec::with_capacity(shard_count);
        for s in 0..shard_count {
            let len = base + usize::from(s < extra);
            let slice = weights[start..start + len].to_vec();
            // Each shard persists (and recovers) under its own
            // subdirectory, so a restarted service re-partitions into the
            // same shard layout and every shard finds its own log.
            let mut engine_config = config.engine.clone();
            engine_config.durability = engine_config.durability.for_shard(s);
            let engine = SelectionEngine::new(slice, engine_config)?;
            // Seed the level-one cell from the engine, not the input
            // slice: a durable shard may have recovered weights that
            // supersede the caller's initial vector.
            initial.push(engine.total_weight());
            offsets.push(start);
            shards.push(Shard {
                engine,
                routed: Counter::new(),
            });
            start += len;
        }
        offsets.push(n);
        let telemetry = ServiceTelemetry::new();
        telemetry.set_imbalance(&initial);
        Ok(Self {
            shards,
            offsets,
            totals: ShardTotals::from_totals(&initial),
            telemetry,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of categories across every shard.
    pub fn len(&self) -> usize {
        *self.offsets.last().expect("offsets are never empty")
    }

    /// Whether the service serves zero categories (never true by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The service telemetry.
    pub fn telemetry(&self) -> &ServiceTelemetry {
        &self.telemetry
    }

    /// Lanes the batch planner can draw on from the calling thread (the
    /// calling thread included): the rayon shim's thread budget
    /// (`LRB_THREADS`, or `ThreadPool::install`). A batch forks over slot
    /// ranges, so the shard count does not cap it.
    pub fn fanout_lanes(&self) -> usize {
        lrb_core::current_num_threads()
    }

    /// The shard owning global category `index`, as `(shard, local)`.
    fn locate(&self, index: usize) -> Result<(usize, usize), SelectionError> {
        if index >= self.len() {
            return Err(SelectionError::IndexOutOfRange {
                index,
                len: self.len(),
            });
        }
        // First offset strictly above `index`, minus one, owns it.
        let shard = self.offsets.partition_point(|&o| o <= index) - 1;
        Ok((shard, index - self.offsets[shard]))
    }

    /// A shard's engine (tests, metrics; shard-local indices).
    pub fn shard_engine(&self, shard: usize) -> &SelectionEngine {
        &self.shards[shard].engine
    }

    /// Last-published per-shard total weights (lock-free snapshot of the
    /// level-one cells).
    pub fn shard_totals(&self) -> Vec<f64> {
        self.totals.snapshot()
    }

    /// Re-read every shard's published total into the level-one cells and
    /// refresh the imbalance gauge.
    pub fn refresh_totals(&self) {
        for (s, shard) in self.shards.iter().enumerate() {
            self.totals.set(s, shard.engine.total_weight());
        }
        self.telemetry.record_refresh();
        self.telemetry.set_imbalance(&self.totals.snapshot());
    }

    /// Fill `out` with independent draws (with replacement) through the
    /// batch planner: one `rng.next_u64()` master, then slots
    /// `0..out.len()` of it (see [`draw_slots`](Self::draw_slots)). A large
    /// batch forks over slot ranges, and the result is bit-identical at
    /// any thread budget (see the module docs).
    ///
    /// Scratch comes from a warm per-thread [`DrawPlan`], so the
    /// steady-state path allocates nothing; callers that manage their own
    /// scratch use [`draw_into_with_plan`](Self::draw_into_with_plan).
    pub fn draw_into(
        &self,
        rng: &mut dyn RandomSource,
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        THREAD_PLAN.with(|plan| self.draw_into_with_plan(rng, out, &mut plan.borrow_mut()))
    }

    /// [`draw_into`](Self::draw_into) with caller-owned scratch: `plan`'s
    /// buffers grow to the batch shape on first use and are reused as-is
    /// afterwards. With a warm plan the batch path is allocation-free once
    /// each drawing thread's own slot scratch is warm too (see
    /// [`DrawPlan`]). An empty `out` consumes no master.
    pub fn draw_into_with_plan(
        &self,
        rng: &mut dyn RandomSource,
        out: &mut [usize],
        plan: &mut DrawPlan,
    ) -> Result<(), SelectionError> {
        if out.is_empty() {
            return Ok(());
        }
        self.draw_slots_with_plan(rng.next_u64(), 0, out, plan)
    }

    /// Draw slots `first..first + out.len()` of `master`'s batch into
    /// `out` (the server's `DRAW` runs: one slot per request ordinal),
    /// with the per-thread [`DrawPlan`]. A cut gone stale against a fresh
    /// publish (a shard evaporated to zero after its cell was read) is
    /// refreshed, and the same slots are drawn again from the same master
    /// before an error is returned.
    pub fn draw_slots(
        &self,
        master: u64,
        first: u64,
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        THREAD_PLAN
            .with(|plan| self.draw_slots_with_plan(master, first, out, &mut plan.borrow_mut()))
    }

    /// [`draw_slots`](Self::draw_slots) with caller-owned scratch.
    fn draw_slots_with_plan(
        &self,
        master: u64,
        first: u64,
        out: &mut [usize],
        plan: &mut DrawPlan,
    ) -> Result<(), SelectionError> {
        let started = Instant::now();
        let result = match self.try_draw_slots(master, first, out, plan) {
            Err(SelectionError::AllZeroFitness) => {
                self.refresh_totals();
                self.try_draw_slots(master, first, out, plan)
            }
            other => other,
        };
        if result.is_ok() {
            self.telemetry.record_draws(
                out.len() as u64,
                started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            );
        }
        result
    }

    /// One attempt: refill the plan's cut from the live cells, take every
    /// shard's snapshot, draw the slots (forked for a large batch) and,
    /// only if every slot drew, credit each shard's draws to its routed
    /// counter and its snapshot's served count — so the routed counters
    /// always sum to the served draws.
    fn try_draw_slots(
        &self,
        master: u64,
        first: u64,
        out: &mut [usize],
        plan: &mut DrawPlan,
    ) -> Result<(), SelectionError> {
        let DrawPlan {
            cut,
            snapshots,
            counts,
        } = plan;
        let shards = self.shards.len();
        self.totals.refill_cut(cut);
        snapshots.extend(self.shards.iter().map(|shard| shard.engine.snapshot()));
        counts.clear();
        counts.resize(shards * leaves(out.len()), 0);
        self.telemetry.record_planner_batch();
        let drawn = self.draw_range(cut, snapshots, master, first, out, counts);
        if drawn.is_ok() {
            for (s, (shard, snapshot)) in self.shards.iter().zip(snapshots.iter()).enumerate() {
                let draws = counts.iter().skip(s).step_by(shards).sum::<usize>() as u64;
                if draws > 0 {
                    shard.routed.add(draws);
                    snapshot.count_served(draws);
                }
            }
        }
        snapshots.clear();
        drawn
    }

    /// Draw slots `first..first + out.len()` of `master` into `out`,
    /// counting each slot's shard in `counts`, whose [`leaves`] rows of
    /// one count per shard cover the range. A range of at least
    /// [`FANOUT_MIN_BATCH`] slots splits at its midpoint and `join`s its
    /// halves, recursively; a shorter one draws in passes of at most
    /// [`SLOT_PASS`] slots ([`SlotScratch::draw_pass`]). The first error
    /// stops the range and is returned.
    fn draw_range(
        &self,
        cut: &TotalsCut,
        snapshots: &[Arc<Snapshot>],
        master: u64,
        first: u64,
        out: &mut [usize],
        counts: &mut [usize],
    ) -> Result<(), SelectionError> {
        if out.len() >= FANOUT_MIN_BATCH {
            let mid = out.len() / 2;
            let (left, right) = out.split_at_mut(mid);
            let (left_counts, right_counts) = counts.split_at_mut(snapshots.len() * leaves(mid));
            let right_first = first + mid as u64;
            let (left, right) = lrb_core::join(
                || self.draw_range(cut, snapshots, master, first, left, left_counts),
                || self.draw_range(cut, snapshots, master, right_first, right, right_counts),
            );
            return left.and(right);
        }
        let leaf = Leaf {
            cut,
            snapshots,
            offsets: &self.offsets,
            master,
        };
        SLOT_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let mut slot = first;
            for pass in out.chunks_mut(SLOT_PASS) {
                scratch.draw_pass(&leaf, slot, pass, counts)?;
                slot += pass.len() as u64;
            }
            Ok(())
        })
    }

    /// Allocating convenience around [`draw_into`](Self::draw_into).
    pub fn draw_many(
        &self,
        rng: &mut dyn RandomSource,
        count: usize,
    ) -> Result<Vec<usize>, SelectionError> {
        let mut out = vec![0usize; count];
        self.draw_into(rng, &mut out)?;
        Ok(out)
    }

    /// Enqueue one weight override for the owning shard (takes effect at
    /// that shard's next publish).
    pub fn update(&self, index: usize, weight: f64) -> Result<(), SelectionError> {
        let started = Instant::now();
        let (shard, local) = self.locate(index)?;
        self.shards[shard].engine.enqueue(local, weight)?;
        self.telemetry.record_updates(1, started);
        Ok(())
    }

    /// Enqueue a batch of global-index overrides, split per owning shard.
    ///
    /// **All-or-nothing across shards:** the whole slice is validated
    /// (index ranges and weight values) before anything is enqueued, so a
    /// bad entry leaves every shard's pending batch untouched — the
    /// cross-shard extension of the engine's own `enqueue_many` contract.
    pub fn update_many(&self, updates: &[(usize, f64)]) -> Result<(), SelectionError> {
        let started = Instant::now();
        // One pass resolves and validates together: each index is located
        // exactly once and grouping happens as we go. All-or-nothing is
        // preserved because a failure returns before anything below
        // touches a shard — `grouped` is scratch, not shard state.
        let mut grouped: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.shards.len()];
        for &(index, weight) in updates {
            let (shard, local) = self.locate(index)?;
            if !weight.is_finite() || weight < 0.0 {
                return Err(SelectionError::InvalidFitness {
                    index,
                    value: weight,
                });
            }
            grouped[shard].push((local, weight));
        }
        for (shard, group) in grouped.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            // Cannot fail: every index is in range and every weight valid.
            self.shards[shard]
                .engine
                .enqueue_many(group)
                .expect("validated batch cannot be rejected by a shard");
        }
        self.telemetry.record_updates(updates.len() as u64, started);
        Ok(())
    }

    /// Fold one multiplicative scale (e.g. an evaporation factor) into
    /// every shard's pending batch.
    pub fn scale_all(&self, factor: f64) -> Result<(), SelectionError> {
        let started = Instant::now();
        if !factor.is_finite() || factor < 0.0 {
            return Err(SelectionError::InvalidScale { factor });
        }
        for shard in &self.shards {
            shard
                .engine
                .scale_all(factor)
                .expect("validated factor cannot be rejected by a shard");
        }
        self.telemetry.record_updates(1, started);
        Ok(())
    }

    /// Publish one shard's pending batch and refresh its level-one cell.
    /// Returns the shard's (possibly unchanged) snapshot version.
    pub fn publish_shard(&self, shard: usize) -> Result<u64, SelectionError> {
        let engine = &self.shards[shard].engine;
        let version = engine.publish()?;
        self.totals.set(shard, engine.total_weight());
        self.telemetry.record_publish(shard as u32, version);
        self.telemetry.set_imbalance(&self.totals.snapshot());
        Ok(version)
    }

    /// Publish every shard in shard order, returning the per-shard
    /// versions. Stops at the first failing shard (earlier shards stay
    /// published; the failing shard's batch is restored by the engine).
    pub fn publish_all(&self) -> Result<Vec<u64>, SelectionError> {
        let mut versions = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            versions.push(self.publish_shard(shard)?);
        }
        Ok(versions)
    }

    /// One merged metrics snapshot: the service-level counters, gauges and
    /// histograms, plus each shard's engine histograms under
    /// `lrb_service_shard<N>_…` names.
    pub fn metrics(&self) -> MetricsSnapshot {
        let t = &self.telemetry;
        let mut snapshot = MetricsSnapshot::new();
        snapshot
            .counter(
                "lrb_service_draws_total",
                "Draws served by the service",
                t.draws(),
            )
            .counter(
                "lrb_service_updates_total",
                "Weight updates accepted by the service",
                t.updates(),
            )
            .counter(
                "lrb_service_publishes_total",
                "Shard publishes performed through the service",
                t.publishes(),
            )
            .counter(
                "lrb_service_planner_batches_total",
                "Batches routed through the parallel draw planner",
                t.planner_batches(),
            )
            .counter(
                "lrb_service_connects_total",
                "Connections accepted by the server",
                t.connects(),
            )
            .counter(
                "lrb_service_disconnects_total",
                "Connections closed (any reason)",
                t.disconnects(),
            )
            .counter(
                "lrb_service_read_deferrals_total",
                "Readiness passes that stopped at the per-pass frame cap (inflight_budget)",
                t.read_deferrals(),
            )
            .counter(
                "lrb_service_slow_consumer_disconnects_total",
                "Connections dropped by the slow-consumer outbound cap",
                t.slow_consumer_disconnects(),
            )
            .gauge(
                "lrb_service_shards",
                "Number of category shards",
                self.shards.len() as f64,
            )
            .gauge(
                "lrb_service_fanout_lanes",
                "Parallel fan-out lanes serving the batch planner's slot ranges",
                self.fanout_lanes() as f64,
            )
            .gauge(
                "lrb_service_shard_imbalance",
                "Max-over-mean per-shard total weight (1.0 = balanced)",
                t.imbalance(),
            )
            .histogram(
                "lrb_service_request_ns",
                "End-to-end request handling latency",
                &t.request_latency(),
            )
            .histogram(
                "lrb_service_draw_ns",
                "Per-draw service latency (amortised for batches)",
                &t.draw_latency(),
            )
            .histogram(
                "lrb_service_update_ns",
                "Service-side update enqueue latency",
                &t.update_latency(),
            )
            .histogram(
                "lrb_service_submit_depth",
                "Frames executed per readiness pass",
                &t.submit_depth(),
            );
        for (s, shard) in self.shards.iter().enumerate() {
            let obs = shard.engine.observability();
            snapshot
                .counter(
                    &format!("lrb_service_shard{s}_routed_draws_total"),
                    "Draws the level-one pick routed to this shard",
                    shard.routed.get(),
                )
                .gauge(
                    &format!("lrb_service_shard{s}_total_weight"),
                    "Shard's last published total weight",
                    self.totals.get(s),
                )
                .histogram(
                    &format!("lrb_service_shard{s}_publish_ns"),
                    "Shard publish latency",
                    &obs.publish_latency(),
                )
                .histogram(
                    &format!("lrb_service_shard{s}_enqueue_ns"),
                    "Shard writer enqueue latency",
                    &obs.enqueue_latency(),
                );
        }
        snapshot
    }
}

/// Leaf ranges [`ServiceCore::draw_range`] splits `slots` slots into:
/// the rows of per-shard counts a batch of that many slots needs.
fn leaves(slots: usize) -> usize {
    if slots < FANOUT_MIN_BATCH {
        1
    } else {
        leaves(slots / 2) + leaves(slots - slots / 2)
    }
}

/// What every pass of one leaf range reads: the batch's cut, every
/// shard's snapshot and global offset, and the master.
struct Leaf<'a> {
    cut: &'a TotalsCut,
    snapshots: &'a [Arc<Snapshot>],
    offsets: &'a [usize],
    master: u64,
}

/// Per-thread scratch for a leaf's passes. Each buffer grows to the
/// longest pass the thread has drawn (at most [`SLOT_PASS`] slots) and is
/// reused, so scratch scales with the run and a warm thread allocates
/// nothing.
#[derive(Debug)]
struct SlotScratch {
    /// Each slot's stream, in slot order.
    heads: Vec<Philox4x32>,
    /// The same streams after their level-one word, grouped by shard.
    grouped: Vec<Philox4x32>,
    /// The pass offset of each grouped stream's slot.
    slot_of: Vec<u32>,
    /// Each grouped stream's in-shard index.
    picks: Vec<usize>,
    /// Group bounds: shard `s` draws grouped positions
    /// `starts[s]..starts[s + 1]`.
    starts: Vec<usize>,
    /// The counting sort's next free position per shard.
    cursors: Vec<usize>,
}

impl SlotScratch {
    const fn new() -> Self {
        Self {
            heads: Vec::new(),
            grouped: Vec::new(),
            slot_of: Vec::new(),
            picks: Vec::new(),
            starts: Vec::new(),
            cursors: Vec::new(),
        }
    }

    /// Draw slots `first..first + out.len()` of the leaf's master into
    /// `out`, adding each shard's draws to `counts`, in four phases:
    /// 1. fill every slot's Philox substream with its first block
    ///    ([`Philox4x32::fill_substreams`]);
    /// 2. level one: each stream's first uniform picks the slot's shard
    ///    through the cut (the shard is parked in `out[slot]`);
    /// 3. a counting sort groups the streams by shard;
    /// 4. each shard's snapshot draws its whole group, every stream
    ///    carrying on where level one left it
    ///    ([`Snapshot::sample_streams`]), and the picks land in `out`.
    ///
    /// Every slot reads its own substream with the same arithmetic as a
    /// slot-by-slot loop, so the grouping changes no index.
    fn draw_pass(
        &mut self,
        leaf: &Leaf<'_>,
        first: u64,
        out: &mut [usize],
        counts: &mut [usize],
    ) -> Result<(), SelectionError> {
        let len = out.len();
        let shards = leaf.snapshots.len();
        let idle = Philox4x32::with_key(0);
        self.heads.resize(len, idle);
        let heads = &mut self.heads[..len];
        Philox4x32::fill_substreams(leaf.master, first, heads);

        self.starts.clear();
        self.starts.resize(shards + 1, 0);
        for (stream, shard) in heads.iter_mut().zip(out.iter_mut()) {
            let (s, _) = leaf
                .cut
                .pick_uniform(stream.next_f64())
                .ok_or(SelectionError::AllZeroFitness)?;
            *shard = s;
            self.starts[s + 1] += 1;
        }
        for (s, count) in counts.iter_mut().enumerate() {
            *count += self.starts[s + 1];
            self.starts[s + 1] += self.starts[s];
        }

        self.grouped.resize(len, idle);
        self.slot_of.resize(len, 0);
        self.picks.resize(len, 0);
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.starts[..shards]);
        for (slot, (&s, stream)) in out.iter().zip(heads.iter()).enumerate() {
            let position = self.cursors[s];
            self.cursors[s] += 1;
            self.grouped[position] = *stream;
            self.slot_of[position] = slot as u32;
        }

        for (s, snapshot) in leaf.snapshots.iter().enumerate() {
            let group = self.starts[s]..self.starts[s + 1];
            if group.is_empty() {
                continue;
            }
            let picks = &mut self.picks[group.clone()];
            snapshot.sample_streams(&mut self.grouped[group.clone()], picks)?;
            for (&slot, &pick) in self.slot_of[group].iter().zip(picks.iter()) {
                out[slot as usize] = leaf.offsets[s] + pick;
            }
        }
        Ok(())
    }
}

/// The owning handle: the shared [`ServiceCore`] plus the per-shard
/// publisher threads (when [`ServiceConfig::publish_interval`] is set).
/// Dropping it stops and joins the publishers; clones of
/// [`core`](Self::core) handed to servers keep the shards alive
/// independently.
#[derive(Debug)]
pub struct ShardedService {
    core: Arc<ServiceCore>,
    stop: Arc<AtomicBool>,
    publishers: Vec<JoinHandle<()>>,
}

impl ShardedService {
    /// Partition `weights` across [`ServiceConfig::shards`] contiguous
    /// shards and (optionally) start one publisher thread per shard.
    pub fn new(weights: Vec<f64>, config: ServiceConfig) -> Result<Self, SelectionError> {
        let core = Arc::new(ServiceCore::new(weights, &config)?);
        let stop = Arc::new(AtomicBool::new(false));
        let mut publishers = Vec::new();
        if let Some(interval) = config.publish_interval {
            for shard in 0..core.shard_count() {
                let core = Arc::clone(&core);
                let stop = Arc::clone(&stop);
                publishers.push(std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        std::thread::sleep(interval);
                        // A failed publish restored the batch (the engine's
                        // contract); the next tick retries it.
                        let _ = core.publish_shard(shard);
                    }
                }));
            }
        }
        Ok(Self {
            core,
            stop,
            publishers,
        })
    }

    /// A clone of the shared core for servers and tests.
    pub fn core(&self) -> Arc<ServiceCore> {
        Arc::clone(&self.core)
    }

    /// Stop and join the publisher threads (also runs on drop).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        for handle in self.publishers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::ops::Deref for ShardedService {
    type Target = ServiceCore;

    fn deref(&self) -> &Self::Target {
        &self.core
    }
}

impl Drop for ShardedService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::ServiceEvent;
    use lrb_rng::{MersenneTwister64, SeedableSource};

    fn weights_1_to_12() -> Vec<f64> {
        (1..=12).map(f64::from).collect()
    }

    #[test]
    fn partition_is_contiguous_and_covers_every_category() {
        let service = ShardedService::new(weights_1_to_12(), ServiceConfig::default()).unwrap();
        assert_eq!(service.shard_count(), 4);
        assert_eq!(service.len(), 12);
        // Shard totals are the contiguous range sums 1+2+3, 4+5+6, …
        assert_eq!(service.shard_totals(), vec![6.0, 15.0, 24.0, 33.0]);
        // Uneven split: 5 categories over 3 shards → 2, 2, 1.
        let service = ShardedService::new(
            vec![1.0; 5],
            ServiceConfig {
                shards: 3,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        assert_eq!(service.shard_totals(), vec![2.0, 2.0, 1.0]);
        // Shard count clamps to the category count.
        let service = ShardedService::new(
            vec![1.0, 2.0],
            ServiceConfig {
                shards: 16,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        assert_eq!(service.shard_count(), 2);
    }

    #[test]
    fn construction_rejects_bad_inputs_with_global_indices() {
        assert_eq!(
            ShardedService::new(Vec::new(), ServiceConfig::default()).err(),
            Some(SelectionError::EmptyFitness)
        );
        let mut weights = weights_1_to_12();
        weights[7] = -1.0;
        assert_eq!(
            ShardedService::new(weights, ServiceConfig::default()).err(),
            Some(SelectionError::InvalidFitness {
                index: 7,
                value: -1.0
            })
        );
    }

    #[test]
    fn draws_cover_the_space_and_zero_weights_are_never_drawn() {
        let mut weights = weights_1_to_12();
        weights[0] = 0.0;
        weights[6] = 0.0;
        let service = ShardedService::new(weights.clone(), ServiceConfig::default()).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(11);
        let mut seen = [false; 12];
        for _ in 0..2_000 {
            let pick = service.draw_many(&mut rng, 1).unwrap()[0];
            assert!(weights[pick] > 0.0, "drew zero-weight category {pick}");
            seen[pick] = true;
        }
        for (index, &weight) in weights.iter().enumerate() {
            assert_eq!(seen[index], weight > 0.0, "category {index}");
        }
    }

    #[test]
    fn batched_draws_agree_with_the_support_too() {
        let service = ShardedService::new(weights_1_to_12(), ServiceConfig::default()).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(12);
        let picks = service.draw_many(&mut rng, 500).unwrap();
        assert_eq!(picks.len(), 500);
        assert!(picks.iter().all(|&p| p < 12));
        // All four shards get traffic under these totals, and every draw is
        // routed exactly once.
        let routed: Vec<u64> = service.shards.iter().map(|s| s.routed.get()).collect();
        assert!(
            routed.iter().all(|&r| r > 0),
            "a shard never routed: {routed:?}"
        );
        assert_eq!(routed.iter().sum::<u64>(), 500);
    }

    #[test]
    fn the_journal_keeps_the_last_publish_under_draw_traffic() {
        let service = ShardedService::new(weights_1_to_12(), ServiceConfig::default()).unwrap();
        // Category 7 lives on shard 2, which moves to version 1.
        service.update(7, 80.0).unwrap();
        service.publish_all().unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(15);
        let mut out = [0usize; 1];
        for _ in 0..10_000 {
            service.draw_into(&mut rng, &mut out).unwrap();
        }
        assert!(
            service.telemetry().journal().iter().any(|e| matches!(
                e,
                ServiceEvent::ShardPublish {
                    shard: 2,
                    version: 1
                }
            )),
            "draw traffic evicted the last publish"
        );
    }

    #[test]
    fn updates_route_to_the_owning_shard_and_publish_refreshes_totals() {
        let service = ShardedService::new(weights_1_to_12(), ServiceConfig::default()).unwrap();
        // Category 7 lives on shard 2 (ranges 0..3, 3..6, 6..9, 9..12).
        service.update(7, 80.0).unwrap();
        // Not visible before the shard publishes.
        assert_eq!(service.shard_totals(), vec![6.0, 15.0, 24.0, 33.0]);
        let versions = service.publish_all().unwrap();
        assert_eq!(versions, vec![0, 0, 1, 0]); // only shard 2 republished
        assert_eq!(service.shard_totals(), vec![6.0, 15.0, 96.0, 33.0]);
        // The imbalance gauge follows: max 96 over mean 37.5.
        let imbalance = service.telemetry().imbalance();
        assert!((imbalance - 96.0 / 37.5).abs() < 1e-12, "{imbalance}");
        assert!(service.telemetry().journal().iter().any(|e| matches!(
            e,
            ServiceEvent::ShardPublish {
                shard: 2,
                version: 1
            }
        )));
    }

    #[test]
    fn update_many_is_all_or_nothing_across_shards() {
        let service = ShardedService::new(weights_1_to_12(), ServiceConfig::default()).unwrap();
        // Second entry is out of range: the first entry (shard 0) must NOT
        // be enqueued.
        assert_eq!(
            service.update_many(&[(0, 5.0), (99, 1.0)]),
            Err(SelectionError::IndexOutOfRange { index: 99, len: 12 })
        );
        // Third entry has a bad weight: shards 0 and 3 must stay clean.
        // (NaN breaks Err equality, so match structurally.)
        assert!(matches!(
            service.update_many(&[(1, 5.0), (10, 2.0), (4, f64::NAN)]),
            Err(SelectionError::InvalidFitness { index: 4, value }) if value.is_nan()
        ));
        let versions = service.publish_all().unwrap();
        assert_eq!(versions, vec![0, 0, 0, 0], "a shard saw a partial batch");
        assert_eq!(service.shard_totals(), vec![6.0, 15.0, 24.0, 33.0]);

        // A valid batch lands on every touched shard atomically.
        service
            .update_many(&[(0, 2.0), (5, 7.0), (11, 13.0)])
            .unwrap();
        service.publish_all().unwrap();
        assert_eq!(service.shard_totals(), vec![7.0, 16.0, 24.0, 34.0]);
    }

    #[test]
    fn scale_all_applies_to_every_shard() {
        let service = ShardedService::new(weights_1_to_12(), ServiceConfig::default()).unwrap();
        assert_eq!(
            service.scale_all(f64::INFINITY),
            Err(SelectionError::InvalidScale {
                factor: f64::INFINITY
            })
        );
        service.scale_all(0.5).unwrap();
        service.publish_all().unwrap();
        assert_eq!(service.shard_totals(), vec![3.0, 7.5, 12.0, 16.5]);
    }

    #[test]
    fn stale_totals_recover_by_refreshing_and_retrying() {
        // Evaporate everything to zero through the engines directly, so the
        // level-one cells go stale (they still claim mass).
        let service = ShardedService::new(weights_1_to_12(), ServiceConfig::default()).unwrap();
        for shard in 0..service.shard_count() {
            let engine = service.shard_engine(shard);
            engine.scale_all(0.0).unwrap();
            engine.publish().unwrap();
        }
        assert_eq!(service.shard_totals(), vec![6.0, 15.0, 24.0, 33.0]);
        let mut rng = MersenneTwister64::seed_from_u64(13);
        // The draw lands on a stale shard, refreshes, and reports the truth.
        assert_eq!(
            service.draw_many(&mut rng, 1),
            Err(SelectionError::AllZeroFitness)
        );
        assert_eq!(service.shard_totals(), vec![0.0, 0.0, 0.0, 0.0]);
        assert!(service
            .telemetry()
            .journal()
            .iter()
            .any(|e| matches!(e, ServiceEvent::TotalsRefresh)));
    }

    #[test]
    fn a_stale_cut_retry_redraws_the_same_slots_from_the_same_master() {
        // Shard 2 evaporates through its engine, so its cell goes stale.
        let service = ShardedService::new(weights_1_to_12(), ServiceConfig::default()).unwrap();
        let engine = service.shard_engine(2);
        engine.scale_all(0.0).unwrap();
        engine.publish().unwrap();
        assert_eq!(service.shard_totals(), vec![6.0, 15.0, 24.0, 33.0]);
        let mut rng = Philox4x32::seed_from_u64(21);
        let retried = service.draw_many(&mut rng, 64).unwrap();
        assert_eq!(
            service.shard_totals(),
            vec![6.0, 15.0, 0.0, 33.0],
            "no retry"
        );
        // The retry redrew the same master against the refreshed totals.
        let mut fresh = Philox4x32::seed_from_u64(21);
        assert_eq!(service.draw_many(&mut fresh, 64).unwrap(), retried);
        assert_eq!(rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn publisher_threads_publish_without_explicit_calls() {
        let service = ShardedService::new(
            weights_1_to_12(),
            ServiceConfig {
                publish_interval: Some(Duration::from_millis(1)),
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        service.update(0, 100.0).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.shard_totals()[0] != 105.0 {
            assert!(
                Instant::now() < deadline,
                "publisher thread never published the update"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn metrics_merge_service_and_per_shard_rows() {
        let service = ShardedService::new(weights_1_to_12(), ServiceConfig::default()).unwrap();
        let mut rng = MersenneTwister64::seed_from_u64(14);
        service.draw_many(&mut rng, 1).unwrap();
        service.update(3, 9.0).unwrap();
        service.publish_all().unwrap();
        let text = service.metrics().to_prometheus();
        for needle in [
            "lrb_service_draws_total 1",
            "lrb_service_updates_total 1",
            "lrb_service_shards 4",
            "lrb_service_shard_imbalance",
            "lrb_service_draw_ns",
            "lrb_service_shard0_publish_ns",
            "lrb_service_shard0_routed_draws_total",
            "lrb_service_shard3_total_weight",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
