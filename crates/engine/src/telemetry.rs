//! Engine observability: latency histograms, startup gauges and the
//! publish **flight recorder**.
//!
//! [`EngineTelemetry`] is the engine's always-on instrumentation bundle.
//! Recording costs are sized for the paths they sit on:
//!
//! * the **publish path** records full spans into atomic histograms (a
//!   handful of relaxed `fetch_add`s per publish — publishes are
//!   milliseconds apart, so this is free);
//! * the **reader hot path** is only timed when
//!   [`EngineConfig::reader_timing_every`](crate::EngineConfig::reader_timing_every)
//!   is non-zero, and then only on one in *N* acquisitions per thread — a
//!   TLS tick plus, on the sampled calls, one clock read and one histogram
//!   record. The steady-state sample stays allocation-free either way
//!   (proved by `tests/engine_alloc.rs`).
//!
//! The **flight recorder** journals the structured [`EngineEvent`]s that
//! explain a run post-hoc: what every publish did (backend, patched or
//! rebuilt, freeze nanoseconds, dirty count, scale, draws the outgoing
//! snapshot served), checkpoints and recoveries, and which SIMD tier the
//! host detected.
//! The journal keeps the most recent [`JOURNAL_CAPACITY`] events; pushes
//! are lock-free and never block readers.

use std::time::Instant;

use lrb_obs::{Counter, FlightRecorder, Gauge, Histogram, HistogramSnapshot};
use lrb_rng::SimdTier;

/// Events the flight recorder retains (the most recent this many).
pub const JOURNAL_CAPACITY: usize = 256;

/// One structured event in the engine's flight-recorder journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineEvent {
    /// The SIMD tier the RNG layer runs at, recorded once at construction.
    SimdTier {
        /// Detected (or overridden) tier.
        tier: SimdTier,
        /// Whether an `LRB_SIMD` environment override was present.
        overridden: bool,
    },
    /// A snapshot was published.
    Publish {
        /// Version now current.
        version: u64,
        /// Backend the snapshot was frozen under.
        backend: &'static str,
        /// Whether the freeze took the incremental patch path.
        patched: bool,
        /// Nanoseconds spent freezing (build or patch).
        freeze_ns: u64,
        /// Dirty categories folded in (coalesced override count).
        dirty: u64,
        /// Whether an evaporation scale was folded in.
        scaled: bool,
        /// Draws the outgoing snapshot had served.
        draws_served: u64,
    },
    /// The durability layer committed a checkpoint and truncated the WAL
    /// it subsumes.
    Checkpoint {
        /// Version the checkpoint captured.
        version: u64,
        /// Checkpoint blob size in bytes.
        bytes: u64,
    },
    /// The engine was reconstructed from a durability directory: newest
    /// valid checkpoint plus the replayed WAL suffix.
    Recovered {
        /// Version of the recovered state now serving.
        version: u64,
        /// Version of the checkpoint replay started from.
        checkpoint_version: u64,
        /// WAL records replayed on top of the checkpoint.
        replayed: u64,
        /// Bytes discarded from the WAL tail (torn frame, CRC failure or
        /// version gap).
        truncated_bytes: u64,
    },
}

/// One journal slot: an [`EngineEvent`] stamped with nanoseconds since the
/// engine was constructed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalEntry {
    /// Nanoseconds since engine construction.
    pub at_ns: u64,
    /// The event.
    pub event: EngineEvent,
}

/// The engine's instrumentation bundle (see the module docs). One per
/// engine, shared with its snapshots for sampled reader timing.
#[derive(Debug)]
pub struct EngineTelemetry {
    /// Construction instant; journal stamps are offsets from it.
    started: Instant,
    /// Full `publish()` spans, nanoseconds (lock wait + fold + freeze +
    /// swap).
    publish_ns: Histogram,
    /// Freeze-only spans, nanoseconds (the build-or-patch section of a
    /// publish).
    freeze_ns: Histogram,
    /// Writer-side `enqueue`/`enqueue_many`/`scale_all` spans, nanoseconds
    /// (validation + batch-lock wait + the queue operation). Always on:
    /// this is the histogram that catches a publish stalling writers —
    /// after the drain/build split its tail must stay decoupled from
    /// `freeze_ns`.
    enqueue_ns: Histogram,
    /// Sampled per-draw reader latency, nanoseconds (amortised over the
    /// timed buffer; empty unless `reader_timing_every > 0`).
    reader_draw_ns: Histogram,
    /// Philox lanes per SIMD op at the detected tier (8 = AVX-512,
    /// 4 = AVX2, 1 = scalar).
    simd_lanes: Gauge,
    /// WAL append spans, nanoseconds (encode + write; excludes any policy
    /// fsync, which lands in `fsync_ns`). Empty under `Durability::Off` —
    /// the durability hook is behind an `Option`, so the hot path carries
    /// no cost when durability is off.
    wal_append_ns: Histogram,
    /// Policy fsync spans within WAL appends, nanoseconds.
    fsync_ns: Histogram,
    /// Checkpoint spans, nanoseconds (encode + tmp write + fsync + rename
    /// + WAL truncate).
    checkpoint_ns: Histogram,
    /// WAL records appended since construction.
    wal_records: Counter,
    /// WAL frame bytes appended since construction.
    wal_bytes: Counter,
    /// Checkpoints committed since construction.
    checkpoints: Counter,
    /// Checkpoint attempts that failed (non-fatal: the WAL still holds
    /// every record, only recovery time grows until one succeeds).
    checkpoint_failures: Counter,
    /// Recoveries performed (0 or 1 per engine: recovery happens at
    /// construction).
    recoveries: Counter,
    /// WAL records replayed during recovery.
    recovered_records: Counter,
    /// WAL tail bytes discarded during recovery.
    recovery_truncated_bytes: Counter,
    journal: FlightRecorder<JournalEntry>,
}

impl EngineTelemetry {
    pub(crate) fn new() -> Self {
        Self {
            started: Instant::now(),
            publish_ns: Histogram::new(),
            freeze_ns: Histogram::new(),
            enqueue_ns: Histogram::new(),
            reader_draw_ns: Histogram::new(),
            simd_lanes: Gauge::new(),
            wal_append_ns: Histogram::new(),
            fsync_ns: Histogram::new(),
            checkpoint_ns: Histogram::new(),
            wal_records: Counter::new(),
            wal_bytes: Counter::new(),
            checkpoints: Counter::new(),
            checkpoint_failures: Counter::new(),
            recoveries: Counter::new(),
            recovered_records: Counter::new(),
            recovery_truncated_bytes: Counter::new(),
            journal: FlightRecorder::new(JOURNAL_CAPACITY),
        }
    }

    /// Journal an event, stamped with nanoseconds since construction.
    pub(crate) fn record(&self, event: EngineEvent) {
        self.journal.push(JournalEntry {
            at_ns: self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            event,
        });
    }

    pub(crate) fn record_publish_span(&self, started: Instant) {
        self.publish_ns.record_span(started);
    }

    pub(crate) fn record_freeze_ns(&self, ns: u64) {
        self.freeze_ns.record(ns);
    }

    #[inline]
    pub(crate) fn record_enqueue_span(&self, started: Instant) {
        self.enqueue_ns.record_span(started);
    }

    #[inline]
    pub(crate) fn record_reader_draw_ns(&self, ns: u64) {
        self.reader_draw_ns.record(ns);
    }

    pub(crate) fn record_wal_append(&self, ns: u64, bytes: u64) {
        self.wal_append_ns.record(ns);
        self.wal_records.incr();
        self.wal_bytes.add(bytes);
    }

    pub(crate) fn record_fsync_ns(&self, ns: u64) {
        self.fsync_ns.record(ns);
    }

    pub(crate) fn record_checkpoint_ns(&self, ns: u64) {
        self.checkpoint_ns.record(ns);
        self.checkpoints.incr();
    }

    pub(crate) fn record_checkpoint_failure(&self) {
        self.checkpoint_failures.incr();
    }

    pub(crate) fn record_recovery(&self, replayed: u64, truncated_bytes: u64) {
        self.recoveries.incr();
        self.recovered_records.add(replayed);
        self.recovery_truncated_bytes.add(truncated_bytes);
    }

    pub(crate) fn set_simd_tier(&self, tier: SimdTier) {
        self.simd_lanes.set(match tier {
            SimdTier::Avx512 => 8.0,
            SimdTier::Avx2 => 4.0,
            SimdTier::Scalar => 1.0,
        });
    }

    /// Distribution of full `publish()` spans (nanoseconds).
    pub fn publish_latency(&self) -> HistogramSnapshot {
        self.publish_ns.snapshot()
    }

    /// Distribution of freeze (build-or-patch) spans (nanoseconds).
    pub fn freeze_latency(&self) -> HistogramSnapshot {
        self.freeze_ns.snapshot()
    }

    /// Distribution of writer `enqueue`/`enqueue_many`/`scale_all` spans
    /// (nanoseconds). Always on. A healthy engine keeps this tail a few
    /// microseconds regardless of how long publishes freeze — writers only
    /// ever wait for the batch drain, never for a backend build.
    pub fn enqueue_latency(&self) -> HistogramSnapshot {
        self.enqueue_ns.snapshot()
    }

    /// Distribution of sampled per-draw reader latency (nanoseconds,
    /// amortised over each timed buffer). Empty unless the engine was
    /// configured with a non-zero
    /// [`reader_timing_every`](crate::EngineConfig::reader_timing_every).
    pub fn reader_draw_latency(&self) -> HistogramSnapshot {
        self.reader_draw_ns.snapshot()
    }

    /// Philox lanes per SIMD op at the active tier (8 / 4 / 1).
    pub fn simd_lanes(&self) -> f64 {
        self.simd_lanes.get()
    }

    /// Distribution of WAL append spans (nanoseconds; excludes policy
    /// fsyncs). Empty under `Durability::Off`.
    pub fn wal_append_latency(&self) -> HistogramSnapshot {
        self.wal_append_ns.snapshot()
    }

    /// Distribution of policy fsync spans within WAL appends
    /// (nanoseconds).
    pub fn fsync_latency(&self) -> HistogramSnapshot {
        self.fsync_ns.snapshot()
    }

    /// Distribution of checkpoint spans (nanoseconds).
    pub fn checkpoint_latency(&self) -> HistogramSnapshot {
        self.checkpoint_ns.snapshot()
    }

    /// WAL records appended since construction.
    pub fn wal_records(&self) -> u64 {
        self.wal_records.get()
    }

    /// WAL frame bytes appended since construction.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes.get()
    }

    /// Checkpoints committed since construction.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.get()
    }

    /// Checkpoint attempts that failed (non-fatal; see
    /// [`EngineEvent::Checkpoint`]).
    pub fn checkpoint_failures(&self) -> u64 {
        self.checkpoint_failures.get()
    }

    /// Recoveries performed (0 or 1 — recovery happens at construction).
    pub fn recoveries(&self) -> u64 {
        self.recoveries.get()
    }

    /// WAL records replayed during recovery.
    pub fn recovered_records(&self) -> u64 {
        self.recovered_records.get()
    }

    /// WAL tail bytes discarded during recovery.
    pub fn recovery_truncated_bytes(&self) -> u64 {
        self.recovery_truncated_bytes.get()
    }

    /// The flight-recorder journal: the most recent
    /// [`JOURNAL_CAPACITY`] events, oldest first.
    pub fn journal(&self) -> Vec<JournalEntry> {
        self.journal.snapshot()
    }

    /// Total events ever journaled (monotone; exceeds the journal length
    /// once the ring has wrapped).
    pub fn events_recorded(&self) -> u64 {
        self.journal.pushed()
    }
}
