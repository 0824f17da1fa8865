//! # lrb-engine — a snapshot-isolated concurrent selection service
//!
//! The paper gives exact-probability roulette selection for a *single
//! owner*; the production setting the ROADMAP aims at is many reader
//! threads sampling **while** writers mutate the weights. This crate
//! supplies that serving layer:
//!
//! * [`SelectionEngine`] — writers enqueue weight overrides and
//!   multiplicative evaporation scales into a **coalescing batch**
//!   (last-write-wins per category, scales folded into one factor — the
//!   `DesirabilityTables` algebra lifted to the serving layer), then
//!   [`publish`](SelectionEngine::publish) freezes the folded weights into
//!   an immutable [`Snapshot`] and atomically swaps it in.
//! * [`Snapshot`] — a versioned, immutable frozen sampler. The current
//!   snapshot lives in a `Mutex<Arc<Snapshot>>` cell with a generation
//!   counter (`hot_swap`), fronted by a thread-local version-checked
//!   cache, so the steady-state path of [`SelectionEngine::read`] is one
//!   relaxed generation probe plus a TLS hit — no lock, no shared RMW, no
//!   allocation. Only the first read on a thread after a publish takes
//!   the cell's mutex. Draws fill whole buffers through
//!   [`Snapshot::sample_into`] (served-draws telemetry lands on per-reader
//!   padded shards), or deterministic rayon batches through the shared
//!   `lrb_core::batch::BatchDriver`; every draw is exact
//!   (`F_i = w_i / Σ w_j`) against the snapshot's weights, so concurrent
//!   publication can never tear a reader across two distributions.
//! * [`BackendRegistry`] — the sampler families snapshots can be frozen
//!   under, as [`FrozenBackend`] trait objects: Fenwick tree (`O(log n)`
//!   draws, skew-immune), Vose alias table (`O(1)` draws, priciest build),
//!   stochastic acceptance (`O(1)` expected draws on balanced weights) —
//!   plus anything the caller registers. An engine serves the one backend
//!   its [`EngineConfig::backend`] names, `"fenwick"` by default, so the
//!   backend never depends on traffic.
//! * **Patch or rebuild** — a publish may freeze by an **incremental
//!   patch** of the previous snapshot with the coalesced batch (Fenwick:
//!   `O(d · log n)` point updates on a pooled copy; stochastic acceptance:
//!   `O(d)` aggregate maintenance; the alias table always rebuilds, with
//!   its Vose worklists classified rayon-parallel). Each backend's
//!   closed-form [`FrozenBackend::patch_pays`] decides per publish
//!   ([`PatchPolicy`] overrides it for tests and benches).
//!
//! ## Quickstart
//!
//! ```
//! use lrb_engine::{EngineConfig, SelectionEngine};
//! use lrb_rng::{MersenneTwister64, SeedableSource};
//!
//! let engine = SelectionEngine::new(vec![1.0, 2.0, 3.0, 4.0], EngineConfig::default())?;
//! let mut rng = MersenneTwister64::seed_from_u64(7);
//!
//! // Reader side: grab a snapshot, fill buffers lock-free.
//! let snapshot = engine.snapshot();
//! let mut picks = vec![0usize; 1_000];
//! snapshot.sample_into(&mut rng, &mut picks)?;
//!
//! // Writer side: batch, evaporate, publish.
//! engine.scale_all(0.5)?;
//! engine.enqueue(0, 10.0)?;
//! engine.publish()?;
//! assert_eq!(engine.snapshot().weight(0), 10.0);
//! assert_eq!(engine.snapshot().weight(3), 2.0);
//! # Ok::<(), lrb_core::SelectionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod engine;
mod hot_swap;
mod queue;
pub mod snapshot;
pub mod telemetry;

pub use backend::{
    AliasBackend, BackendRegistry, BuildScratch, FenwickBackend, FrozenBackend,
    StochasticAcceptanceBackend,
};
pub use engine::{EngineConfig, EngineStats, PatchPolicy, SelectionEngine};
pub use lrb_durable::{Durability, FsyncPolicy, WalOptions};
pub use snapshot::Snapshot;
pub use telemetry::{EngineEvent, EngineTelemetry, JournalEntry, JOURNAL_CAPACITY};
