//! The sharded selection core: a contiguous partition of the category
//! space across N [`SelectionEngine`] shards, drawn from in two levels.
//!
//! Level one picks the owning shard through the shared
//! [`lrb_core::sharding`] layer — every shard's total weight lives in a
//! lock-free [`ShardTotals`] cell, frozen per draw batch into a
//! [`TotalsCut`] (a Fenwick prefix tree over the shard totals, the paper's
//! tree one level up). Level two is the shard's own read path:
//! [`SelectionEngine::read`] + [`Snapshot::sample_into`], so a draw takes
//! no lock in steady state (only the first read on a thread after a
//! publish takes the shard engine's swap-cell mutex, for one `Arc` clone)
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
//! ## Batch planning: `ROUTE_LAYOUT` v2
//!
//! Batched draws ([`ServiceCore::draw_into`]) run through a versioned
//! **batch planner**. The layout ([`ROUTE_LAYOUT_VERSION`] = 2) consumes
//! exactly **one** master `u64` from the caller's RNG and derives
//! everything else from counter-based Philox substreams: substream 0
//! yields the level-one assignment uniforms, substream `1 + s` yields
//! shard `s`'s in-shard fill stream. Because each shard's stream is
//! independent of execution order, the per-shard fills can run **in
//! parallel** across the service's fan-out lanes while the result stays a
//! pure function of `(snapshots, master draw)` — bit-identical at any lane
//! count, the same contract discipline as the engine's
//! `STREAM_LAYOUT_VERSION = 2` batch driver. `tests/service_planner.rs`
//! rebuilds the layout from public pieces and diffs it draw for draw.
//!
//! A batch runs in three phases over a reusable [`DrawPlan`]: assign (one
//! level-one pick per slot, counting per-shard draws), fill (per touched
//! shard, **one** fused [`Snapshot::sample_into`] into that shard's
//! contiguous segment of the plan's fill buffer) and a **single-pass
//! cursor scatter** back to slot order — `O(batch + shards)`. With a warm
//! plan the whole path performs no allocation (see
//! `tests/service_alloc.rs`).
//!
//! [`Snapshot::sample_into`]: lrb_engine::Snapshot::sample_into
//! [`TotalsCut`]: lrb_core::sharding::TotalsCut

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lrb_core::sharding::{ShardTotals, TotalsCut};
use lrb_core::SelectionError;
use lrb_engine::{EngineConfig, SelectionEngine};
use lrb_obs::MetricsSnapshot;
use lrb_rng::{Philox4x32, RandomSource};

use crate::fanout::FanoutPool;
use crate::telemetry::ServiceTelemetry;

/// Version of the batch-planner route layout (how a batch's randomness is
/// laid out across level-one picks and per-shard fills). Bumped when the
/// derivation changes; see the module docs for the current one.
pub const ROUTE_LAYOUT_VERSION: u32 = 2;

/// Substream of the master draw that yields level-one assignment uniforms.
const ASSIGN_SUBSTREAM: u64 = 0;

/// Substream of the master draw for shard `s`'s fill is
/// `SHARD_SUBSTREAM_BASE + s`.
const SHARD_SUBSTREAM_BASE: u64 = 1;

/// Batches smaller than this run their fills inline even when fan-out
/// lanes exist: below it, the hand-off latency outweighs the parallel fill
/// (determinism is unaffected — lane count never changes results).
const FANOUT_MIN_BATCH: usize = 1024;

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
    /// Parallel fan-out lanes for the batch planner, **including** the
    /// submitting thread (`lanes - 1` helper threads are spawned once at
    /// construction). `0` = auto: `min(shards, thread budget)`, where the
    /// thread budget is the `LRB_THREADS` environment variable when set,
    /// else the core count. `1` forces inline (sequential) execution —
    /// results are bit-identical either way.
    pub fanout_workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            engine: EngineConfig::default(),
            publish_interval: None,
            fanout_workers: 0,
        }
    }
}

impl ServiceConfig {
    /// Resolve [`fanout_workers`](Self::fanout_workers)' `0 = auto`
    /// default against the shard count and the host's thread budget.
    fn resolved_fanout(&self, shards: usize) -> usize {
        if self.fanout_workers > 0 {
            return self.fanout_workers.min(shards.max(1));
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let budget = std::env::var("LRB_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(cores);
        budget.min(shards).max(1)
    }
}

/// Reusable scratch for the batch planner: the per-slot shard assignment,
/// per-shard counts and cursors, the shard-grouped fill buffer and the
/// level-one cut — everything a batch needs, owned by the caller and
/// reused across batches so the steady-state path never allocates.
///
/// Hold one per thread (the server's reactors do, through a
/// thread-local inside [`ServiceCore::draw_into`]) or pass your own to
/// [`ServiceCore::draw_into_with_plan`]. Buffers grow to the largest
/// batch/shard-count seen and stay there.
#[derive(Debug)]
pub struct DrawPlan {
    /// Slot → owning shard (the level-one picks, in slot order).
    assignment: Vec<u32>,
    /// Draws routed to each shard this batch.
    counts: Vec<usize>,
    /// Per-shard write cursors into `fill`: seeded with each shard's
    /// segment start (prefix sums of `counts`), consumed by the scatter.
    cursors: Vec<usize>,
    /// `(start, len)` of each **touched** shard's segment in `fill`,
    /// ascending (the fan-out task list).
    segments: Vec<(usize, usize)>,
    /// Touched shard ids, parallel to `segments`.
    segment_shards: Vec<usize>,
    /// Shard-grouped local draws, scattered to slot order at the end.
    fill: Vec<usize>,
    /// The frozen level-one cut, refilled in place per batch.
    cut: TotalsCut,
    /// First fill error by task index (parallel fills report here; the
    /// lowest task index wins so the surfaced error is deterministic).
    error: Mutex<Option<(usize, SelectionError)>>,
}

impl DrawPlan {
    /// An empty plan (`const`, so thread-locals need no lazy initializer);
    /// buffers grow on first use.
    pub const fn new() -> Self {
        Self {
            assignment: Vec::new(),
            counts: Vec::new(),
            cursors: Vec::new(),
            segments: Vec::new(),
            segment_shards: Vec::new(),
            fill: Vec::new(),
            cut: TotalsCut::empty(),
            error: Mutex::new(None),
        }
    }
}

impl Default for DrawPlan {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// The per-thread plan behind [`ServiceCore::draw_into`] — one warm
    /// scratch per server reactor / publisher / caller thread.
    static THREAD_PLAN: RefCell<DrawPlan> = const { RefCell::new(DrawPlan::new()) };
}

/// One shard: a contiguous category range served by its own engine (the
/// range's global start lives in `ServiceCore::offsets`).
#[derive(Debug)]
struct Shard {
    /// The shard's engine over its contiguous category slice.
    engine: SelectionEngine,
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
    /// Persistent lanes for the batch planner's parallel per-shard fills.
    fanout: FanoutPool,
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
            shards.push(Shard { engine });
            start += len;
        }
        offsets.push(n);
        let telemetry = ServiceTelemetry::new();
        telemetry.set_imbalance(&initial);
        let fanout = FanoutPool::start(config.resolved_fanout(shard_count));
        Ok(Self {
            shards,
            offsets,
            totals: ShardTotals::from_totals(&initial),
            telemetry,
            fanout,
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

    /// Fan-out lanes available to the batch planner (including the
    /// submitting thread).
    pub fn fanout_lanes(&self) -> usize {
        self.fanout.lanes()
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

    /// Draw one global category index: level-one Fenwick pick over the
    /// shard totals, then the shard's lock-free snapshot draw.
    pub fn draw(&self, rng: &mut dyn RandomSource) -> Result<usize, SelectionError> {
        let started = Instant::now();
        let result = match self.try_draw(rng) {
            // The cut can go stale against a fresh publish (e.g. a shard
            // evaporated to zero after its cell was read): re-read the
            // cells once and retry before giving up.
            Err(SelectionError::AllZeroFitness) => {
                self.refresh_totals();
                self.try_draw(rng)
            }
            other => other,
        };
        if result.is_ok() {
            self.telemetry
                .record_draws(1, started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        result
    }

    fn try_draw(&self, rng: &mut dyn RandomSource) -> Result<usize, SelectionError> {
        let cut = self.totals.cut();
        let Some((shard, _residual)) = cut.pick_uniform(rng.next_f64()) else {
            return Err(SelectionError::AllZeroFitness);
        };
        self.telemetry.record_route(shard as u32, 1);
        let local = self.shards[shard]
            .engine
            .read(|snapshot| snapshot.sample(rng))?;
        Ok(self.offsets[shard] + local)
    }

    /// Fill `out` with independent draws (with replacement) through the
    /// batch planner: one level-one pick per slot, then the slots are
    /// grouped per shard and each group is served by **one** buffer fill
    /// through the shard's
    /// [`Snapshot::sample_into`](lrb_engine::Snapshot::sample_into) — the
    /// engine's fused batch path — so a batch costs one snapshot
    /// acquisition and one streamed fill per touched shard instead of a
    /// draw-by-draw walk. The per-shard fills run across the
    /// fan-out lanes and the result is bit-identical at any lane count
    /// (see the module docs).
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
    /// afterwards, so a warm plan makes the whole batch path
    /// allocation-free.
    pub fn draw_into_with_plan(
        &self,
        rng: &mut dyn RandomSource,
        out: &mut [usize],
        plan: &mut DrawPlan,
    ) -> Result<(), SelectionError> {
        if out.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        let result = match self.try_draw_into(rng, out, plan) {
            Err(SelectionError::AllZeroFitness) => {
                self.refresh_totals();
                self.try_draw_into(rng, out, plan)
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

    /// Phase one: refresh the plan's cut from the live cells, assign every
    /// slot a shard with `pick(u)` over per-slot uniforms from
    /// `assign_rng`, count per-shard draws, turn the counts into ascending
    /// `(start, len)` segments of the fill buffer and seed the scatter
    /// cursors with the segment starts. Also records per-shard routing
    /// telemetry (deterministically, in shard order).
    fn plan_assignments(
        &self,
        plan: &mut DrawPlan,
        batch: usize,
        assign_rng: &mut Philox4x32,
    ) -> Result<(), SelectionError> {
        let shard_count = self.shards.len();
        self.totals.refill_cut(&mut plan.cut);
        plan.assignment.clear();
        plan.assignment.reserve(batch);
        plan.counts.clear();
        plan.counts.resize(shard_count, 0);
        for _ in 0..batch {
            let Some((shard, _)) = plan.cut.pick_uniform(assign_rng.next_f64()) else {
                return Err(SelectionError::AllZeroFitness);
            };
            plan.assignment.push(shard as u32);
            plan.counts[shard] += 1;
        }
        plan.cursors.clear();
        plan.cursors.reserve(shard_count);
        plan.segments.clear();
        plan.segment_shards.clear();
        let mut start = 0usize;
        for (shard, &count) in plan.counts.iter().enumerate() {
            plan.cursors.push(start);
            if count > 0 {
                plan.segments.push((start, count));
                plan.segment_shards.push(shard);
                self.telemetry.record_route(shard as u32, count as u32);
                start += count;
            }
        }
        plan.fill.resize(batch, 0usize);
        Ok(())
    }

    /// Phase three: one pass over the assignment, writing each slot from
    /// its shard's segment through that shard's cursor —
    /// `O(batch + shards)` total.
    fn scatter_fill(&self, plan: &mut DrawPlan, out: &mut [usize]) {
        for (slot, &owner) in plan.assignment.iter().enumerate() {
            let shard = owner as usize;
            let cursor = plan.cursors[shard];
            out[slot] = self.offsets[shard] + plan.fill[cursor];
            plan.cursors[shard] = cursor + 1;
        }
    }

    /// One batch through the planner: exactly one `rng.next_u64()` master
    /// draw; assignment uniforms from Philox substream
    /// [`ASSIGN_SUBSTREAM`], shard `s`'s fill from substream
    /// `SHARD_SUBSTREAM_BASE + s`. Per-shard fills are pure functions of
    /// `(snapshot, master)`, so they run across the fan-out lanes in any
    /// order — or inline for small batches — with bit-identical results.
    fn try_draw_into(
        &self,
        rng: &mut dyn RandomSource,
        out: &mut [usize],
        plan: &mut DrawPlan,
    ) -> Result<(), SelectionError> {
        let master = rng.next_u64();
        let mut assign_rng = Philox4x32::for_substream(master, ASSIGN_SUBSTREAM);
        self.plan_assignments(plan, out.len(), &mut assign_rng)?;
        self.telemetry.record_planner_batch();
        {
            let mut slot = plan.error.lock().unwrap_or_else(PoisonError::into_inner);
            *slot = None;
        }
        let shards = &self.shards;
        let segment_shards = &plan.segment_shards;
        let error = &plan.error;
        let fill_task = |k: usize, segment: &mut [usize]| {
            let shard = segment_shards[k];
            let outcome = shards[shard].engine.read(|snapshot| {
                snapshot.sample_into_substream(master, SHARD_SUBSTREAM_BASE + shard as u64, segment)
            });
            if let Err(e) = outcome {
                let mut slot = error.lock().unwrap_or_else(PoisonError::into_inner);
                // Keep the lowest task index so the surfaced error does
                // not depend on lane scheduling.
                if slot.map(|(prev, _)| k < prev).unwrap_or(true) {
                    *slot = Some((k, e));
                }
            }
        };
        if plan.fill.len() < FANOUT_MIN_BATCH || plan.segments.len() < 2 {
            for (k, &(start, len)) in plan.segments.iter().enumerate() {
                fill_task(k, &mut plan.fill[start..start + len]);
            }
        } else {
            self.fanout
                .run_disjoint(&mut plan.fill, &plan.segments, &fill_task);
        }
        let failed = plan
            .error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some((_, e)) = failed {
            return Err(e);
        }
        self.scatter_fill(plan, out);
        Ok(())
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
                "Parallel fan-out lanes serving the batch planner",
                self.fanout.lanes() as f64,
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
                )
                .histogram(
                    &format!("lrb_service_shard{s}_read_ns"),
                    "Shard sampled reader-draw latency",
                    &obs.reader_draw_latency(),
                );
        }
        snapshot
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
            let pick = service.draw(&mut rng).unwrap();
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
        // All four shards get traffic under these totals.
        let journal = service.telemetry().journal();
        for shard in 0..4u32 {
            assert!(
                journal
                    .iter()
                    .any(|e| matches!(e, ServiceEvent::Route { shard: s, .. } if *s == shard)),
                "shard {shard} never routed"
            );
        }
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
        assert_eq!(service.draw(&mut rng), Err(SelectionError::AllZeroFitness));
        assert_eq!(service.shard_totals(), vec![0.0, 0.0, 0.0, 0.0]);
        assert!(service
            .telemetry()
            .journal()
            .iter()
            .any(|e| matches!(e, ServiceEvent::TotalsRefresh)));
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
        service.draw(&mut rng).unwrap();
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
            "lrb_service_shard3_total_weight",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
