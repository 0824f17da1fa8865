//! The layer ledger: the workload replayed in-process down the public API
//! of each layer below the wire, with the same weights (the live shards'
//! published snapshots), the same seed and the same request shape.
//!
//! Each replay runs for a fixed time budget (at least one round) inside
//! its own span and reports nanoseconds per draw, so a layer's self time
//! is its cost minus the cost of the layer beneath it.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use lrb_core::parallel::ParallelLogBiddingSelector;
use lrb_core::sharding::{ShardTotals, TotalsCut};
use lrb_core::{Fitness, Selector};
use lrb_durable::{DurableStore, FsyncPolicy, WalOptions};
use lrb_rng::{Philox4x32, RandomSource, SplitMix64};
use lrb_service::{DrawAggregator, DrawPlan, ServiceCore};

use crate::measure::LatHist;
use crate::trace::SpanLog;
use crate::workload::{self, Spec, WriteScript};

/// Wall-clock budget of each replay.
const BUDGET: Duration = Duration::from_millis(300);
/// Level-one assignments replayed by the fill and kernel layers.
const ASSIGNMENTS: usize = 16;
/// Writes replayed into a standalone WAL.
const WAL_WRITES: usize = 400;

/// Per-draw (or per-op) costs of every layer below the wire.
#[derive(Debug, Clone)]
pub struct Ledger {
    pub agg_ns: f64,
    pub planner_ns: f64,
    pub level1_ns: f64,
    pub fill_ns: f64,
    pub read_ns: f64,
    pub kernel_ns: f64,
    pub wal_append_p50_us: f64,
    pub wal_bytes_per_publish: f64,
}

/// Run `round` until the budget is spent (at least once); returns the
/// elapsed time and the summed operation count.
fn timed(mut round: impl FnMut() -> u64) -> (Duration, u64) {
    let started = Instant::now();
    let mut ops = 0;
    loop {
        ops += round();
        let elapsed = started.elapsed();
        if elapsed >= BUDGET {
            return (elapsed, ops);
        }
    }
}

fn per_op(elapsed: Duration, ops: u64) -> f64 {
    elapsed.as_nanos() as f64 / ops.max(1) as f64
}

/// Replay in its own span under `parent`.
fn span(
    log: &mut SpanLog,
    parent: u64,
    name: &'static str,
    run: impl FnOnce() -> (f64, u64),
) -> f64 {
    let id = log.open(name, parent);
    let (value, ops) = run();
    log.close(id, ops);
    value
}

pub fn replay(
    core: &Arc<ServiceCore>,
    spec: &Spec,
    seed: u64,
    scratch: &Path,
    log: &mut SpanLog,
    parent: u64,
) -> Result<Ledger, String> {
    let batch = spec.server_batch();
    let master_seed = workload::sub_seed(seed, workload::SEED_REPLAY);
    let shards = core.shard_count();

    // The aggregator, from as many threads as the workload has readers.
    let agg_ns = span(log, parent, "replay.aggregator", || {
        let agg = Arc::new(DrawAggregator::new(Arc::clone(core), master_seed));
        let threads = spec.readers.max(1);
        let started = Instant::now();
        let deadline = started + BUDGET;
        let draws: u64 = thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let agg = Arc::clone(&agg);
                    scope.spawn(move || {
                        let mut draws = 0u64;
                        while draws == 0 || Instant::now() < deadline {
                            black_box(agg.draw().expect("aggregator draw"));
                            draws += 1;
                        }
                        draws
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("aggregator thread"))
                .sum()
        });
        let elapsed = started.elapsed();
        (threads as f64 * per_op(elapsed, draws), draws)
    });

    // The two-level planner at the workload's server-side batch.
    let planner_ns = span(log, parent, "replay.planner", || {
        let mut plan = DrawPlan::new();
        let mut out = vec![0usize; batch];
        let mut rng = SplitMix64::new(master_seed);
        let (elapsed, draws) = timed(|| {
            core.draw_into_with_plan(&mut rng, &mut out, &mut plan)
                .expect("planner draw");
            black_box(&out);
            batch as u64
        });
        (per_op(elapsed, draws), draws)
    });

    // Level one alone: refresh the cut, one pick per slot.
    let totals = ShardTotals::from_totals(&core.shard_totals());
    let level1_ns = span(log, parent, "replay.level1", || {
        let mut cut = TotalsCut::empty();
        let mut rng = Philox4x32::for_substream(master_seed, 0);
        let (elapsed, draws) = timed(|| {
            totals.refill_cut(&mut cut);
            for _ in 0..batch {
                black_box(cut.pick_uniform(rng.next_f64()));
            }
            batch as u64
        });
        (per_op(elapsed, draws), draws)
    });

    // The per-shard draw counts of a few level-one assignments, shared by
    // the fill and kernel replays.
    let mut cut = TotalsCut::empty();
    totals.refill_cut(&mut cut);
    let mut rng = Philox4x32::for_substream(master_seed, 0);
    let assignments: Vec<Vec<usize>> = (0..ASSIGNMENTS)
        .map(|_| {
            let mut counts = vec![0usize; shards];
            for _ in 0..batch {
                let (shard, _) = cut.pick_uniform(rng.next_f64()).expect("positive totals");
                counts[shard] += 1;
            }
            counts
        })
        .collect();
    let mut buf = vec![0usize; batch];

    // Snapshot acquisition alone.
    let read_ns = span(log, parent, "replay.engine_read", || {
        let (elapsed, reads) = timed(|| {
            for s in 0..shards {
                black_box(core.shard_engine(s).read(|snapshot| snapshot.version()));
            }
            shards as u64
        });
        (per_op(elapsed, reads), reads)
    });

    // Acquisition plus the per-shard substream fills.
    let fill_ns = span(log, parent, "replay.engine_fill", || {
        let mut k = 0usize;
        let (elapsed, draws) = timed(|| {
            let counts = &assignments[k % ASSIGNMENTS];
            let master = rng.next_u64();
            k += 1;
            for (s, &count) in counts.iter().enumerate().filter(|(_, &c)| c > 0) {
                core.shard_engine(s)
                    .read(|snapshot| {
                        snapshot.sample_into_substream(master, 1 + s as u64, &mut buf[..count])
                    })
                    .expect("shard fill");
                black_box(&buf[..count]);
            }
            batch as u64
        });
        (per_op(elapsed, draws), draws)
    });

    // The paper's bid kernel on the same per-shard weights and counts.
    let kernel_ns = span(log, parent, "replay.bid_kernel", || {
        let fitness: Vec<Option<Fitness>> = (0..shards)
            .map(|s| {
                let weights = core
                    .shard_engine(s)
                    .read(|snapshot| snapshot.weights().to_vec());
                Fitness::new(weights).ok().filter(|f| !f.is_all_zero())
            })
            .collect();
        let selector = ParallelLogBiddingSelector::default();
        let mut k = 0usize;
        let (elapsed, draws) = timed(|| {
            let counts = &assignments[k % ASSIGNMENTS];
            k += 1;
            for (s, &count) in counts.iter().enumerate().filter(|(_, &c)| c > 0) {
                let f = fitness[s].as_ref().expect("a shard with draws has weight");
                selector
                    .select_into(f, &mut rng, &mut buf[..count])
                    .expect("kernel draw");
                black_box(&buf[..count]);
            }
            batch as u64
        });
        (per_op(elapsed, draws), draws)
    });

    // The writer's script appended to standalone per-shard WALs.
    let (wal_append_p50_us, wal_bytes_per_publish) =
        wal_replay(core, spec, seed, scratch, log, parent)?;
    Ok(Ledger {
        agg_ns,
        planner_ns,
        level1_ns,
        fill_ns,
        read_ns,
        kernel_ns,
        wal_append_p50_us,
        wal_bytes_per_publish,
    })
}

fn wal_replay(
    core: &Arc<ServiceCore>,
    spec: &Spec,
    seed: u64,
    scratch: &Path,
    log: &mut SpanLog,
    parent: u64,
) -> Result<(f64, f64), String> {
    let id = log.open("replay.wal", parent);
    let dir = scratch.join("wal-replay");
    let _ = std::fs::remove_dir_all(&dir);
    let mut stores = Vec::with_capacity(core.shard_count());
    for s in 0..core.shard_count() {
        let weights = core
            .shard_engine(s)
            .read(|snapshot| snapshot.weights().to_vec());
        let options = WalOptions {
            dir: dir.join(format!("shard-{s}")),
            fsync: FsyncPolicy::Off,
            ..WalOptions::at(&dir)
        };
        let (store, _) = DurableStore::open(&options, &weights).map_err(|e| format!("wal: {e}"))?;
        stores.push(store);
    }
    let mut script = WriteScript::new(spec, seed);
    let mut hist = LatHist::default();
    let mut bytes = 0u64;
    let mut appends = 0u64;
    for version in 1..=WAL_WRITES as u64 {
        let mut per_shard: Vec<Vec<(usize, f64)>> = vec![Vec::new(); stores.len()];
        for (index, weight) in script.next_batch() {
            let s = (0..stores.len())
                .find(|&s| index < spec.shard_range(s).1)
                .expect("index in range");
            per_shard[s].push((index - spec.shard_range(s).0, weight));
        }
        for (store, mut entries) in stores.iter_mut().zip(per_shard) {
            if entries.is_empty() {
                continue;
            }
            // Drain order: sorted by index, later overrides win.
            entries.reverse();
            entries.sort_by_key(|&(i, _)| i);
            entries.dedup_by_key(|e| e.0);
            let started = Instant::now();
            let append = store
                .append(version, 1.0, &entries)
                .map_err(|e| format!("wal append: {e}"))?;
            hist.record(started.elapsed().as_nanos() as u64);
            bytes += append.bytes;
            appends += 1;
        }
    }
    drop(stores);
    let _ = std::fs::remove_dir_all(&dir);
    log.close(id, appends);
    Ok((
        hist.quantile(0.5) / 1000.0,
        bytes as f64 / WAL_WRITES as f64,
    ))
}
