//! Durability for the selection engine: a write-ahead log of coalesced
//! publish batches, checkpointed weight snapshots, and crash recovery.
//!
//! Every mutation the engine publishes flows through one canonical unit —
//! the drained coalesced batch `(version, scale, overrides)` (see
//! `lrb-engine`'s publish path). This crate logs exactly that unit:
//!
//! * [`wal`] — CRC32-framed, length-prefixed [`WalRecord`]s appended under
//!   an fsync policy ([`FsyncPolicy::Always`] / [`FsyncPolicy::EveryN`] /
//!   [`FsyncPolicy::Off`]), plus a replay routine that stops at the first
//!   torn or corrupt record and reports where to truncate.
//! * [`checkpoint`] — a versioned serialization of a snapshot's full
//!   weight vector, written atomically (tmp + fsync + rename) so a crash
//!   mid-checkpoint never damages the previous one.
//! * [`store`] — [`DurableStore`] ties both together over a directory:
//!   recovery loads the newest valid checkpoint, replays the WAL suffix
//!   in strict version order, and truncates any torn tail. Because the
//!   replay applies the *same* scale-fold and override-assignment the
//!   engine's publish applied, the recovered weight vector is
//!   **bit-identical** to the pre-crash one at the recovered version.
//! * [`fault`] — a deterministic fault-injection layer ([`FaultyFile`])
//!   that wraps any [`StorageFile`] and injects short writes, torn
//!   tails, fsync errors and bit flips at seeded offsets, so recovery
//!   can be property-tested against every corruption the real world
//!   produces.
//!
//! # Record grammar
//!
//! ```text
//! wal        := record*
//! record     := len:u32le crc:u32le payload            (crc = CRC32/IEEE of payload)
//! payload    := kind:u8 version:u64le scale:f64bits count:u32le entry*
//! entry      := index:u64le weight:f64bits
//! checkpoint := magic:u32le crc:u32le version:u64le count:u64le weight:f64bits*
//! ```
//!
//! # Recovery invariants
//!
//! 1. Recovery never panics on arbitrary bytes; it yields the state of
//!    some *valid prefix* of the published versions.
//! 2. A torn tail (short header or payload) is truncated; a CRC-failed
//!    record stops replay there (everything after it is unreachable).
//! 3. Replayed versions are strictly contiguous from the checkpoint; a
//!    version gap stops replay.
//! 4. The recovered weight vector is bit-identical to the published one
//!    at the recovered version (same fold order, same `f64` bit patterns).
//!
//! [`Durability::Off`] carries no state and costs the publish path one
//! branch on a `None` — the zero-overhead default.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod crc;
pub mod fault;
pub mod storage;
pub mod store;
pub mod wal;

use std::path::PathBuf;

pub use crc::crc32;
pub use fault::{FaultKind, FaultPlan, FaultyFile};
pub use storage::{MemFile, StorageFile};
pub use store::{Append, DurableStore, Recovery};
pub use wal::{replay_with, ReplayStep, ReplaySummary, Wal, WalRecord};

/// When appended WAL records reach the disk platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append: no published version is ever lost,
    /// at the price of one disk flush per publish.
    Always,
    /// `fdatasync` once every N appends: bounds the loss window to the
    /// last N publishes while amortising the flush.
    EveryN(u32),
    /// Never sync explicitly; the OS page cache decides. Fastest, loses
    /// up to the whole cache on power failure (not on process crash —
    /// a SIGKILL'd process's written pages still reach disk).
    Off,
}

/// Where and how a [`DurableStore`] persists (see [`Durability::Wal`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalOptions {
    /// Directory holding the WAL and its checkpoints (created on open).
    pub dir: PathBuf,
    /// When appends are flushed to stable storage.
    pub fsync: FsyncPolicy,
    /// Records appended between checkpoints (`0` = only the genesis
    /// checkpoint). Each checkpoint rewrites the full weight vector and
    /// truncates the WAL, so the cadence trades recovery time (long WAL
    /// suffix) against publish-path checkpoint stalls.
    pub checkpoint_every: u64,
}

impl WalOptions {
    /// Options rooted at `dir` with the default policy: fsync every 32
    /// appends, checkpoint every 1024 records.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryN(32),
            checkpoint_every: 1024,
        }
    }
}

/// An engine's durability mode.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Durability {
    /// No persistence. The publish path carries a single branch on an
    /// absent store — zero measurable overhead (gated by `durable_quick`).
    #[default]
    Off,
    /// Write-ahead log plus periodic checkpoints under
    /// [`WalOptions::dir`]; reopening an engine over the same directory
    /// recovers the last persisted version.
    Wal(WalOptions),
}

impl Durability {
    /// The durability mode a sharded service hands shard `shard`: `Off`
    /// stays `Off`, `Wal` descends into the per-shard subdirectory
    /// `shard-<n>` so each shard owns an independent WAL.
    pub fn for_shard(&self, shard: usize) -> Durability {
        match self {
            Durability::Off => Durability::Off,
            Durability::Wal(options) => Durability::Wal(WalOptions {
                dir: options.dir.join(format!("shard-{shard}")),
                ..options.clone()
            }),
        }
    }
}
