//! The concurrent selection engine: coalescing writers, atomically swapped
//! immutable snapshots, and readers that take no lock in steady state.
//!
//! ## Concurrency protocol
//!
//! * **Readers** acquire the current snapshot through a **thread-local,
//!   version-checked snapshot cache**: the engine's current
//!   `Arc<Snapshot>` lives in the `hot_swap` cell (a `Mutex<Arc<Snapshot>>`
//!   plus a generation counter), and while the generation is unchanged the
//!   acquisition is one relaxed generation load plus a TLS lookup — no
//!   lock, no shared RMW. Only a cache refresh (the first read on a thread
//!   after a publish) or a reentrant read takes the cell's mutex, for one
//!   `Arc` clone. [`SelectionEngine::read`] samples against the
//!   cached snapshot by reference (the fastest path);
//!   [`SelectionEngine::snapshot`] clones the `Arc` out for callers that
//!   want to hold a version across publishes. Either way a reader keeps its
//!   snapshot for as many draws as it wants; publication of newer versions
//!   cannot mutate what it holds, so every draw is exact against *some*
//!   published state — the snapshot-isolation guarantee.
//! * **Writers** enqueue weight overrides and evaporation scales into a
//!   mutex-guarded coalescing batch, then call
//!   [`publish`](SelectionEngine::publish), which freezes a new
//!   [`Snapshot`] under the one backend the config names
//!   ([`EngineConfig::backend`], `"fenwick"` by default) and swaps it in
//!   atomically. The freeze either takes the backend's **incremental patch
//!   path** — the previous sampler plus the coalesced batch,
//!   `O(d · log n)`-ish instead of `O(n)` for small batches — or folds the
//!   batch over the previous weights into a fresh vector and rebuilds from
//!   it; under [`PatchPolicy::Auto`] the backend's closed-form
//!   [`patch_pays`](crate::backend::FrozenBackend::patch_pays) rule picks
//!   per publish. Either way the new sampler holds the snapshot's only copy
//!   of the weights, and pooled build scratch absorbs every transient, so a
//!   steady-state publish allocates only the new sampler's state.
//!   Publishers serialise on a dedicated publish
//!   mutex — the batch mutex is held only for the drain itself — so
//!   versions are strictly ordered and no batch is ever lost, while
//!   `enqueue`/`enqueue_many`/`scale_all` never wait on a backend build:
//!   writes arriving mid-build simply land in the *next* batch.
//!
//! Reader traffic reaches the publish path only as telemetry (the
//! outgoing snapshot's served count, journaled with each publish), never as
//! an input to a choice, so the snapshot a publish installs — and hence the
//! index a seed draws from it — does not depend on how many draws earlier
//! snapshots served. Its weights and total are those of the folded
//! batches, bit for bit, whichever path froze it. The index a seed draws
//! can depend on the path: a patched Fenwick tree's inner sums may differ
//! from a rebuilt one's in the last bits, so a uniform within rounding of
//! a category boundary can land on the neighbouring index (see
//! [`FrozenBackend::try_patch`](crate::backend::FrozenBackend::try_patch)).
//! The path is chosen from the config and the batch, never from traffic.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lrb_core::error::SelectionError;
use lrb_core::fitness::Fitness;
use lrb_durable::{Durability, DurableStore};
use lrb_rng::RandomSource;

use crate::backend::{BackendRegistry, BuildScratch};
use crate::hot_swap::HotSwap;
use crate::queue::CoalescingQueue;
use crate::snapshot::Snapshot;
use crate::telemetry::{EngineEvent, EngineTelemetry};
use lrb_obs::MetricsSnapshot;

/// Engines a single thread's snapshot cache will track before evicting the
/// least-recently-inserted entry. Processes normally hold a handful of
/// engines; the cap only bounds pathological churn.
const SNAPSHOT_CACHE_CAPACITY: usize = 8;

/// Process-wide engine enumerator keying the thread-local snapshot caches.
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(0);

/// One thread's cached acquisition of one engine's current snapshot.
struct CachedSnapshot {
    engine: u64,
    generation: u64,
    snapshot: Arc<Snapshot>,
}

thread_local! {
    /// Per-thread snapshot cache: while an engine's swap generation is
    /// unchanged, readers on this thread reuse the cached `Arc` without
    /// touching any shared cache line (the generation itself mutates only
    /// at publishes, so polling it is a shared *read*, not an RMW).
    static SNAPSHOT_CACHE: RefCell<Vec<CachedSnapshot>> = const { RefCell::new(Vec::new()) };
}

/// When a publish may take a backend's incremental patch path instead of a
/// full rebuild (the previous snapshot's sampler plus the coalesced batch,
/// see [`FrozenBackend::try_patch`](crate::backend::FrozenBackend::try_patch)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PatchPolicy {
    /// Patch when the backend's
    /// [`patch_pays`](crate::backend::FrozenBackend::patch_pays) prices the
    /// patch below the rebuild (the default).
    #[default]
    Auto,
    /// Patch whenever the backend offers a patch path, regardless of its
    /// price (conformance tests, benches).
    Always,
    /// Never patch; every publish rebuilds from the folded weights.
    Never,
}

/// Tuning knobs for a [`SelectionEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Registry name of the backend every snapshot is frozen under
    /// (`"fenwick"` by default: it patches cheaply and does not degrade
    /// with skew). Construction fails with
    /// [`SelectionError::UnknownBackend`] when the registry has no such
    /// entry.
    pub backend: &'static str,
    /// Whether publishes may take the incremental patch path.
    pub patch: PatchPolicy,
    /// Crash durability. [`Durability::Off`] (the default) persists
    /// nothing and adds **zero** work to the publish path — the WAL hook
    /// is behind an `Option` that is `None`. [`Durability::Wal`] logs
    /// every published batch to a write-ahead log with periodic full
    /// checkpoints under the configured directory, and the engine
    /// recovers the last persisted state (bit-identical weights and
    /// version) when reopened over it.
    pub durability: Durability,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            backend: "fenwick",
            patch: PatchPolicy::default(),
            durability: Durability::Off,
        }
    }
}

/// Aggregate engine counters (all monotone since construction), read as one
/// **coherent** snapshot: [`SelectionEngine::stats`] takes the publish lock
/// *and* the batch lock, the writer counters mutate only under the batch
/// lock and the publish counters only under the publish lock, so the fields
/// always describe a single instant between batch operations — a publish
/// can never be half-visible (e.g. `publishes` bumped but `patched` not
/// yet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Snapshots published (the initial build is not counted).
    pub publishes: u64,
    /// Weight overrides accepted from writers.
    pub enqueued: u64,
    /// Overrides that were overwritten before ever being published.
    pub coalesced: u64,
    /// Publishes whose backend differed from the previous snapshot's.
    /// Always 0: an engine serves the one backend its config names. Kept
    /// because the end-to-end benchmark reports it.
    pub backend_switches: u64,
    /// Publishes that froze their snapshot through the incremental patch
    /// path instead of a full rebuild.
    pub patched: u64,
    /// Registry name of the backend serving the current snapshot.
    pub backend: &'static str,
}

/// A snapshot-isolated concurrent weighted-selection service.
///
/// # Example
///
/// ```
/// use lrb_engine::{EngineConfig, SelectionEngine};
/// use lrb_rng::{MersenneTwister64, SeedableSource};
///
/// let engine = SelectionEngine::new(vec![1.0, 2.0, 3.0], EngineConfig::default())?;
/// let mut rng = MersenneTwister64::seed_from_u64(7);
///
/// // Readers sample a consistent snapshot:
/// let snapshot = engine.snapshot();
/// let i = snapshot.sample(&mut rng)?;
///
/// // Writers batch updates and publish them atomically:
/// engine.enqueue(i, 0.0)?;      // last-write-wins per category
/// engine.scale_all(0.9)?;       // evaporation folds into one factor
/// let version = engine.publish()?;
/// assert_eq!(version, 1);
/// assert_eq!(engine.snapshot().weight(i), 0.0);
///
/// // The old snapshot is untouched — that is the isolation guarantee:
/// assert_eq!(snapshot.version(), 0);
/// assert!(snapshot.weight(i) > 0.0);
/// # Ok::<(), lrb_core::SelectionError>(())
/// ```
pub struct SelectionEngine {
    /// The current snapshot, behind the swap cell. Readers reach it
    /// through the thread-local cache; writers swap it under the
    /// `publish_lock`.
    current: HotSwap<Snapshot>,
    /// This engine's key in the thread-local snapshot caches.
    engine_id: u64,
    /// Pending writer batch. Taken only for the brief enqueue/drain
    /// critical sections — **never** across a backend build — so writers
    /// stay responsive while a publish freezes.
    pending: Mutex<CoalescingQueue>,
    /// Serialises publishers, so `current` only ever moves forward one
    /// batch at a time and versions are strictly ordered, without making
    /// writers wait on a build.
    publish_lock: Mutex<()>,
    /// Pooled transient build buffers for the publish path (locked only by
    /// the already-serialised publishers).
    scratch: Mutex<BuildScratch>,
    registry: BackendRegistry,
    /// Registry index of [`EngineConfig::backend`], resolved once at
    /// construction.
    backend: usize,
    /// The WAL + checkpoint store under [`Durability::Wal`]; `None` under
    /// [`Durability::Off`], so the publish path pays one `Option` check.
    /// Locked only on the (already serialised) publish path — the mutex
    /// is uncontended; it exists so `install` can take `&self`.
    durable: Option<Mutex<DurableStore>>,
    /// Always-on instrumentation: latency histograms, durability counters
    /// and the flight-recorder journal.
    obs: EngineTelemetry,
    config: EngineConfig,
    len: usize,
    /// Counters behind [`EngineStats`]. Writer counters mutate under the
    /// `pending` lock, publish counters under the `publish_lock` (see
    /// `stats()` for the coherence argument); they stay atomics only so
    /// `Debug`/readers may take cheap incoherent peeks.
    publishes: AtomicU64,
    enqueued_total: AtomicU64,
    coalesced_total: AtomicU64,
    patched_total: AtomicU64,
}

/// Failure path of [`SelectionEngine::publish`]: a failed freeze (a
/// caller-registered backend erroring, or folded weights overflowing to
/// `∞`) must not lose the batch. Because the batch lock is released during
/// the build, writes may have arrived since the drain; the restore merges
/// the drained batch back **under** them with last-write-wins semantics
/// (new overrides beat restored ones — see
/// [`CoalescingQueue::restore_drained`]). Out of line: this never runs on
/// a healthy engine.
#[cold]
#[inline(never)]
fn restore_batch(pending: &mut CoalescingQueue, scale: f64, overrides: &[(usize, f64)]) {
    pending.restore_drained(scale, overrides);
}

impl SelectionEngine {
    /// Build an engine over raw weights with the [standard backend
    /// registry](BackendRegistry::standard). Weights are validated like
    /// `Fitness::new`, except that an all-zero vector is allowed — sampling
    /// then fails with [`SelectionError::AllZeroFitness`] until a writer
    /// revives a weight.
    pub fn new(weights: Vec<f64>, config: EngineConfig) -> Result<Self, SelectionError> {
        Self::with_registry(weights, config, BackendRegistry::standard())
    }

    /// Build an engine dispatching over a caller-supplied backend registry.
    pub fn with_registry(
        weights: Vec<f64>,
        config: EngineConfig,
        registry: BackendRegistry,
    ) -> Result<Self, SelectionError> {
        if weights.is_empty() {
            return Err(SelectionError::EmptyFitness);
        }
        for (index, &value) in weights.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(SelectionError::InvalidFitness { index, value });
            }
        }
        let backend = registry
            .index_of(config.backend)
            .ok_or(SelectionError::UnknownBackend {
                name: config.backend,
            })?;
        let len = weights.len();
        let obs = EngineTelemetry::new();
        // Open the durability store (if configured) before the first
        // snapshot is built: recovery replaces both the weights and the
        // starting version, so a reopened engine resumes exactly where
        // the previous incarnation's last persisted publish left it.
        let mut initial_version = 0u64;
        let mut weights = weights;
        let durable = match &config.durability {
            Durability::Off => None,
            Durability::Wal(options) => {
                let (store, recovered) = DurableStore::open(options, &weights)
                    .map_err(|_| SelectionError::Durability { op: "open" })?;
                if let Some(recovery) = recovered {
                    if recovery.weights.len() != weights.len() {
                        // The directory belongs to an engine of a
                        // different shape; refusing is the only move that
                        // cannot silently corrupt either state.
                        return Err(SelectionError::Durability { op: "recovery" });
                    }
                    obs.record_recovery(recovery.replayed, recovery.truncated_bytes);
                    obs.record(EngineEvent::Recovered {
                        version: recovery.version,
                        checkpoint_version: recovery.checkpoint_version,
                        replayed: recovery.replayed,
                        truncated_bytes: recovery.truncated_bytes,
                    });
                    initial_version = recovery.version;
                    weights = recovery.weights;
                }
                Some(Mutex::new(store))
            }
        };
        let mut scratch = BuildScratch::default();
        let chosen = &registry.entries()[backend];
        let sampler = chosen.build(weights, &mut scratch)?;
        let snapshot = Snapshot::from_parts(initial_version, chosen.name(), sampler);
        Ok(Self {
            current: HotSwap::new(Arc::new(snapshot)),
            engine_id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            pending: Mutex::new(CoalescingQueue::new()),
            publish_lock: Mutex::new(()),
            scratch: Mutex::new(scratch),
            registry,
            backend,
            durable,
            obs,
            config,
            len,
            publishes: AtomicU64::new(0),
            enqueued_total: AtomicU64::new(0),
            coalesced_total: AtomicU64::new(0),
            patched_total: AtomicU64::new(0),
        })
    }

    /// Build an engine from an already-validated [`Fitness`] vector.
    pub fn from_fitness(fitness: &Fitness, config: EngineConfig) -> Self {
        Self::new(fitness.values().to_vec(), config)
            .expect("a validated fitness vector is non-empty and finite")
    }

    /// Number of categories (fixed at construction).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the engine has zero categories (never true — construction
    /// rejects empty weight vectors).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The backend registry this engine dispatches over.
    pub fn registry(&self) -> &BackendRegistry {
        &self.registry
    }

    /// The current snapshot. Steady state (no publish since this thread's
    /// last acquisition) takes no lock: one relaxed generation load, a
    /// thread-local cache hit and an `Arc` clone. The first acquisition on
    /// a thread after a publish refreshes the cache under the swap cell's
    /// mutex. All sampling happens against the returned immutable
    /// snapshot.
    ///
    /// The thread-local cache pins at most one snapshot per engine per
    /// thread; an idle thread can therefore keep the previous snapshot
    /// alive until it touches the engine again (or the thread exits) — the
    /// usual price of thread-cached handles.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.with_current(Arc::clone)
    }

    /// Run `f` against the current snapshot **by reference** — the fastest
    /// reader hot path: on a cache hit there is no `Arc` refcount traffic
    /// (which is a shared-line RMW) and no allocation, just the generation
    /// probe and the thread-local lookup. Prefer this in sampling loops:
    ///
    /// ```
    /// use lrb_engine::{EngineConfig, SelectionEngine};
    /// use lrb_rng::{MersenneTwister64, SeedableSource};
    ///
    /// let engine = SelectionEngine::new(vec![1.0, 2.0], EngineConfig::default())?;
    /// let mut rng = MersenneTwister64::seed_from_u64(1);
    /// let mut buffer = [0usize; 64];
    /// engine.read(|snapshot| snapshot.sample_into(&mut rng, &mut buffer))?;
    /// # Ok::<(), lrb_core::SelectionError>(())
    /// ```
    ///
    /// Reentrant calls (an `f` that itself acquires from an engine on the
    /// same thread) are safe; the inner call bypasses the cache and takes
    /// the swap cell's mutex for one `Arc` clone, which it releases before
    /// running its own closure.
    pub fn read<R>(&self, f: impl FnOnce(&Snapshot) -> R) -> R {
        self.with_current(|snapshot| f(snapshot))
    }

    /// Shared reader path: refresh this thread's cached acquisition if the
    /// swap generation moved, then run `f` against it.
    fn with_current<R>(&self, f: impl FnOnce(&Arc<Snapshot>) -> R) -> R {
        let generation = self.current.generation();
        SNAPSHOT_CACHE.with(|cache| match cache.try_borrow_mut() {
            Ok(mut entries) => {
                let entry = match entries.iter_mut().find(|e| e.engine == self.engine_id) {
                    Some(entry) => {
                        if entry.generation != generation {
                            // The generation is re-read *before* the load:
                            // if the load races a newer publish the cached
                            // tag stays behind and the next acquisition
                            // refreshes again — never the reverse.
                            entry.generation = generation;
                            entry.snapshot = self.current.load();
                        }
                        entry
                    }
                    None => {
                        if entries.len() >= SNAPSHOT_CACHE_CAPACITY {
                            entries.remove(0);
                        }
                        entries.push(CachedSnapshot {
                            engine: self.engine_id,
                            generation,
                            snapshot: self.current.load(),
                        });
                        entries.last_mut().expect("just pushed")
                    }
                };
                f(&entry.snapshot)
            }
            // The cache is already borrowed on this thread (reentrant
            // read): acquire directly from the swap cell. `load` releases
            // the cell's lock before `f` runs.
            Err(_) => f(&self.current.load()),
        })
    }

    /// Version of the current snapshot (0 for the initial state).
    pub fn version(&self) -> u64 {
        self.with_current(|snapshot| snapshot.version())
    }

    /// Total weight of the current snapshot, through the same cached path
    /// as [`read`](SelectionEngine::read). This is
    /// the hook a sharding router needs after each publish: the shard's
    /// published mass, fed into the two-level (Fenwick-over-shard-totals)
    /// draw without forcing the router through `snapshot()`'s `Arc` clone.
    pub fn total_weight(&self) -> f64 {
        self.with_current(|snapshot| snapshot.total_weight())
    }

    /// Convenience: one draw against the current snapshot. Loops that draw
    /// repeatedly should use [`read`](SelectionEngine::read) with a buffer
    /// (or hold a [`snapshot`](SelectionEngine::snapshot)) instead, both
    /// for speed and for distribution stability.
    pub fn sample(&self, rng: &mut dyn RandomSource) -> Result<usize, SelectionError> {
        self.with_current(|snapshot| snapshot.sample(rng))
    }

    /// Enqueue an absolute weight for one category; visible to readers only
    /// after the next [`publish`](SelectionEngine::publish). Last write wins
    /// when the same category is enqueued twice in one batch.
    pub fn enqueue(&self, index: usize, weight: f64) -> Result<(), SelectionError> {
        if index >= self.len {
            return Err(SelectionError::IndexOutOfRange {
                index,
                len: self.len,
            });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(SelectionError::InvalidFitness {
                index,
                value: weight,
            });
        }
        let started = Instant::now();
        let mut pending = self.pending.lock().expect("batch lock poisoned");
        let coalesced = pending.set(index, weight);
        // Counter updates happen while `pending` is held so `stats()` (which
        // also takes the lock) always observes them coherently.
        self.enqueued_total.fetch_add(1, Ordering::Relaxed);
        if coalesced {
            self.coalesced_total.fetch_add(1, Ordering::Relaxed);
        }
        drop(pending);
        self.obs.record_enqueue_span(started);
        Ok(())
    }

    /// Enqueue many `(index, weight)` pairs; the whole slice is validated
    /// before any of it is enqueued, so a bad entry cannot half-apply.
    pub fn enqueue_many(&self, updates: &[(usize, f64)]) -> Result<(), SelectionError> {
        for &(index, weight) in updates {
            if index >= self.len {
                return Err(SelectionError::IndexOutOfRange {
                    index,
                    len: self.len,
                });
            }
            if !weight.is_finite() || weight < 0.0 {
                return Err(SelectionError::InvalidFitness {
                    index,
                    value: weight,
                });
            }
        }
        let started = Instant::now();
        let mut pending = self.pending.lock().expect("batch lock poisoned");
        let mut coalesced = 0;
        for &(index, weight) in updates {
            if pending.set(index, weight) {
                coalesced += 1;
            }
        }
        // Under the lock, for `stats()` coherence (see `stats()`).
        self.enqueued_total
            .fetch_add(updates.len() as u64, Ordering::Relaxed);
        self.coalesced_total.fetch_add(coalesced, Ordering::Relaxed);
        drop(pending);
        self.obs.record_enqueue_span(started);
        Ok(())
    }

    /// Enqueue a multiplicative factor over every weight — evaporation in
    /// the ant-colony reading. Folds with any pending scale in `O(1)` plus
    /// the pending-override count (never `O(n)` before publish).
    pub fn scale_all(&self, factor: f64) -> Result<(), SelectionError> {
        if !factor.is_finite() || factor < 0.0 {
            return Err(SelectionError::InvalidScale { factor });
        }
        let started = Instant::now();
        self.pending
            .lock()
            .expect("batch lock poisoned")
            .scale(factor);
        self.obs.record_enqueue_span(started);
        Ok(())
    }

    /// Apply the pending batch to the current snapshot's weights, freeze
    /// the result into a new snapshot — through the backend's
    /// **incremental patch path** when its patch rule (or
    /// [`PatchPolicy::Always`]) says it beats a rebuild, else by folding
    /// the batch into a fresh weight vector and rebuilding — and atomically
    /// swap it in. Returns the version now current. A publish with nothing
    /// pending is a no-op returning the unchanged version.
    ///
    /// The batch mutex is held only for the drain itself: writers keep
    /// enqueuing while the freeze runs, and their writes land in
    /// the *next* batch. Concurrent publishers serialise on a dedicated
    /// publish mutex, so versions stay strictly ordered. Should the freeze
    /// fail, the drained batch is re-merged **under** whatever arrived
    /// meanwhile (last write wins), so no accepted write is ever lost.
    pub fn publish(&self) -> Result<u64, SelectionError> {
        let started = Instant::now();
        let _publisher = self.publish_lock.lock().expect("publish lock poisoned");
        let mut scratch = self.scratch.lock().expect("scratch lock poisoned");
        // The override buffer is taken out of the scratch so `install` can
        // borrow the batch and the (alias) build scratch independently; it
        // returns below either way, keeping the pooled capacity.
        let mut overrides = std::mem::take(&mut scratch.overrides);
        let scale = {
            let mut pending = self.pending.lock().expect("batch lock poisoned");
            if pending.is_empty() {
                scratch.overrides = overrides;
                return Ok(self.version());
            }
            pending.drain_into(&mut overrides)
            // `pending` unlocks here: writers are admitted again after the
            // O(batch) drain, not after the O(n) build below.
        };
        let previous = self.current.load();
        let result = self.install(&previous, &overrides, scale, &mut scratch);
        let version = match result {
            Ok(version) => version,
            Err(error) => {
                let mut pending = self.pending.lock().expect("batch lock poisoned");
                restore_batch(&mut pending, scale, &overrides);
                drop(pending);
                scratch.overrides = overrides;
                return Err(error);
            }
        };
        scratch.overrides = overrides;
        self.publishes.fetch_add(1, Ordering::Relaxed);
        self.obs.record_publish_span(started);
        Ok(version)
    }

    /// The tail of [`publish`](SelectionEngine::publish): freeze the
    /// coalesced batch (`overrides` after a `scale` fold) under the
    /// configured backend — by **patching** the previous sampler when the
    /// [`PatchPolicy`] allows it and the backend has a patch path, otherwise
    /// by folding the batch over the previous weights into a fresh vector
    /// and building from it — log the batch (under durability), and swap
    /// the new snapshot in.
    fn install(
        &self,
        previous: &Arc<Snapshot>,
        overrides: &[(usize, f64)],
        scale: f64,
        scratch: &mut BuildScratch,
    ) -> Result<u64, SelectionError> {
        let backend = &self.registry.entries()[self.backend];
        let scaled = scale != 1.0;
        let try_patching = match self.config.patch {
            PatchPolicy::Never => false,
            PatchPolicy::Always => true,
            PatchPolicy::Auto => backend.patch_pays(self.len, overrides.len(), scaled),
        };
        let started = Instant::now();
        let patch = if try_patching {
            backend.try_patch(previous.sampler(), overrides, scale)
        } else {
            None
        };
        let (sampler, patched) = match patch {
            Some(sampler) => (sampler?, true),
            None => {
                // The rebuild's one weight copy, kept by the new sampler.
                let mut weights = previous.weights().to_vec();
                if scaled {
                    for w in weights.iter_mut() {
                        *w *= scale;
                    }
                }
                for &(index, weight) in overrides {
                    weights[index] = weight;
                }
                (backend.build(weights, scratch)?, false)
            }
        };
        let freeze_ns = started.elapsed().as_nanos() as u64;
        self.obs.record_freeze_ns(freeze_ns);
        if patched {
            self.patched_total.fetch_add(1, Ordering::Relaxed);
        }
        let version = previous.version() + 1;
        // Durability hook: log the drained batch *before* the swap makes
        // it visible (write-ahead), still under the publish lock (so WAL
        // versions are strictly ordered) but after the pending mutex was
        // released (so writers never wait on an fsync). A failed append
        // fails the whole publish — the store has already rolled the WAL
        // back, and publish() re-merges the batch — so the log never
        // trails memory. Under `Durability::Off` this is one `None` check.
        if let Some(store) = &self.durable {
            let mut store = store.lock().expect("durable store poisoned");
            let append_started = Instant::now();
            match store.append(version, scale, overrides) {
                Ok(outcome) => {
                    let sync_ns = outcome.sync_ns.unwrap_or(0);
                    let append_ns =
                        (append_started.elapsed().as_nanos() as u64).saturating_sub(sync_ns);
                    self.obs.record_wal_append(append_ns, outcome.bytes);
                    if let Some(sync_ns) = outcome.sync_ns {
                        self.obs.record_fsync_ns(sync_ns);
                    }
                }
                Err(_) => return Err(SelectionError::Durability { op: "wal-append" }),
            }
            if store.should_checkpoint() {
                let checkpoint_started = Instant::now();
                match store.checkpoint(version, sampler.weights()) {
                    Ok(bytes) => {
                        self.obs
                            .record_checkpoint_ns(checkpoint_started.elapsed().as_nanos() as u64);
                        self.obs.record(EngineEvent::Checkpoint { version, bytes });
                    }
                    // Non-fatal: the WAL holds every record up to
                    // `version`; only recovery time grows until a later
                    // checkpoint lands.
                    Err(_) => self.obs.record_checkpoint_failure(),
                }
            }
        }
        let snapshot = Snapshot::from_parts(version, backend.name(), sampler);
        self.obs.record(EngineEvent::Publish {
            version,
            backend: snapshot.backend(),
            patched,
            freeze_ns,
            dirty: overrides.len() as u64,
            scaled,
            draws_served: previous.served(),
        });
        self.current.store(Arc::new(snapshot));
        Ok(version)
    }

    /// Aggregate counters since construction, as one **coherent** snapshot.
    ///
    /// The read holds the publish lock *and* the batch lock (in that order,
    /// matching `publish()`). Writer counters mutate only under the batch
    /// lock — enqueues bump their totals before releasing it — and publish
    /// counters only under the publish lock — publishes bump
    /// `publishes`/`patched` and swap the snapshot with it still held. The
    /// returned struct therefore describes a single instant between batch
    /// operations; a concurrent publish is either entirely visible
    /// (including the `backend` name of the snapshot it installed) or not
    /// at all.
    pub fn stats(&self) -> EngineStats {
        let _publisher = self.publish_lock.lock().expect("publish lock poisoned");
        let _pending = self.pending.lock().expect("batch lock poisoned");
        EngineStats {
            publishes: self.publishes.load(Ordering::Relaxed),
            enqueued: self.enqueued_total.load(Ordering::Relaxed),
            coalesced: self.coalesced_total.load(Ordering::Relaxed),
            backend_switches: 0,
            patched: self.patched_total.load(Ordering::Relaxed),
            backend: self.current.load().backend(),
        }
    }

    /// The engine's instrumentation bundle: latency histograms, durability
    /// counters and the flight-recorder journal.
    pub fn observability(&self) -> &EngineTelemetry {
        &self.obs
    }

    /// Collect every engine metric into one point-in-time
    /// [`MetricsSnapshot`] — the full catalogue behind
    /// [`export_prometheus`](Self::export_prometheus) and
    /// [`export_json`](Self::export_json):
    ///
    /// | metric | kind | meaning |
    /// |---|---|---|
    /// | `lrb_publishes_total` | counter | snapshots published |
    /// | `lrb_enqueued_total` | counter | writer overrides accepted |
    /// | `lrb_coalesced_total` | counter | overrides overwritten pre-publish |
    /// | `lrb_patched_total` | counter | publishes via the patch path |
    /// | `lrb_journal_events_total` | counter | flight-recorder pushes |
    /// | `lrb_snapshot_version` | gauge | current snapshot version |
    /// | `lrb_snapshot_served` | gauge | draws served by the current snapshot |
    /// | `lrb_categories` | gauge | categories in the weight vector |
    /// | `lrb_wal_records_total` | counter | WAL records appended |
    /// | `lrb_wal_bytes_total` | counter | WAL frame bytes appended |
    /// | `lrb_checkpoints_total` | counter | checkpoints committed |
    /// | `lrb_checkpoint_failures_total` | counter | checkpoint attempts that failed (non-fatal) |
    /// | `lrb_recoveries_total` | counter | recoveries performed at construction |
    /// | `lrb_recovered_records_total` | counter | WAL records replayed during recovery |
    /// | `lrb_recovery_truncated_bytes_total` | counter | WAL tail bytes discarded during recovery |
    /// | `lrb_publish_ns` | histogram | full publish spans |
    /// | `lrb_freeze_ns` | histogram | build-or-patch spans |
    /// | `lrb_enqueue_ns` | histogram | writer enqueue/scale spans (always on) |
    /// | `lrb_wal_append_ns` | histogram | WAL append spans (excluding policy fsyncs) |
    /// | `lrb_fsync_ns` | histogram | policy fsync spans within WAL appends |
    /// | `lrb_checkpoint_ns` | histogram | checkpoint spans |
    pub fn metrics(&self) -> MetricsSnapshot {
        let stats = self.stats();
        let (version, served) = self.read(|s| (s.version(), s.served()));
        let mut out = MetricsSnapshot::new();
        out.counter(
            "lrb_publishes_total",
            "Snapshots published",
            stats.publishes,
        )
        .counter(
            "lrb_enqueued_total",
            "Writer overrides accepted",
            stats.enqueued,
        )
        .counter(
            "lrb_coalesced_total",
            "Overrides overwritten before publishing",
            stats.coalesced,
        )
        .counter(
            "lrb_patched_total",
            "Publishes frozen through the incremental patch path",
            stats.patched,
        )
        .counter(
            "lrb_journal_events_total",
            "Events pushed to the flight recorder",
            self.obs.events_recorded(),
        )
        .counter(
            "lrb_wal_records_total",
            "WAL records appended",
            self.obs.wal_records(),
        )
        .counter(
            "lrb_wal_bytes_total",
            "WAL frame bytes appended",
            self.obs.wal_bytes(),
        )
        .counter(
            "lrb_checkpoints_total",
            "Checkpoints committed",
            self.obs.checkpoints(),
        )
        .counter(
            "lrb_checkpoint_failures_total",
            "Checkpoint attempts that failed (non-fatal)",
            self.obs.checkpoint_failures(),
        )
        .counter(
            "lrb_recoveries_total",
            "Recoveries performed at construction",
            self.obs.recoveries(),
        )
        .counter(
            "lrb_recovered_records_total",
            "WAL records replayed during recovery",
            self.obs.recovered_records(),
        )
        .counter(
            "lrb_recovery_truncated_bytes_total",
            "WAL tail bytes discarded during recovery",
            self.obs.recovery_truncated_bytes(),
        );
        out.gauge(
            "lrb_snapshot_version",
            "Current snapshot version",
            version as f64,
        )
        .gauge(
            "lrb_snapshot_served",
            "Draws served by the current snapshot",
            served as f64,
        )
        .gauge(
            "lrb_categories",
            "Categories in the weight vector",
            self.len as f64,
        );
        out.histogram(
            "lrb_publish_ns",
            "Full publish() spans, nanoseconds",
            &self.obs.publish_latency(),
        )
        .histogram(
            "lrb_freeze_ns",
            "Snapshot freeze (build or patch) spans, nanoseconds",
            &self.obs.freeze_latency(),
        )
        .histogram(
            "lrb_enqueue_ns",
            "Writer enqueue/enqueue_many/scale_all spans, nanoseconds",
            &self.obs.enqueue_latency(),
        )
        .histogram(
            "lrb_wal_append_ns",
            "WAL append spans (excluding policy fsyncs), nanoseconds",
            &self.obs.wal_append_latency(),
        )
        .histogram(
            "lrb_fsync_ns",
            "Policy fsync spans within WAL appends, nanoseconds",
            &self.obs.fsync_latency(),
        )
        .histogram(
            "lrb_checkpoint_ns",
            "Checkpoint spans, nanoseconds",
            &self.obs.checkpoint_latency(),
        );
        out
    }

    /// [`metrics`](Self::metrics) rendered as Prometheus text exposition.
    pub fn export_prometheus(&self) -> String {
        self.metrics().to_prometheus()
    }

    /// [`metrics`](Self::metrics) rendered as a pretty-printed JSON object.
    pub fn export_json(&self) -> String {
        self.metrics().to_json()
    }
}

impl std::fmt::Debug for SelectionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectionEngine")
            .field("len", &self.len)
            .field("registry", &self.registry)
            .field("current", &self.snapshot())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_rng::{MersenneTwister64, SeedableSource};

    fn engine(weights: Vec<f64>) -> SelectionEngine {
        SelectionEngine::new(weights, EngineConfig::default()).unwrap()
    }

    #[test]
    fn construction_validates_weights() {
        assert_eq!(
            SelectionEngine::new(vec![], EngineConfig::default()).map(|_| ()),
            Err(SelectionError::EmptyFitness)
        );
        assert!(matches!(
            SelectionEngine::new(vec![1.0, -1.0], EngineConfig::default()).map(|_| ()),
            Err(SelectionError::InvalidFitness { index: 1, .. })
        ));
        // All-zero is allowed; draws fail until a writer revives a weight.
        let e = engine(vec![0.0, 0.0]);
        let mut rng = MersenneTwister64::seed_from_u64(1);
        assert_eq!(e.sample(&mut rng), Err(SelectionError::AllZeroFitness));
        e.enqueue(0, 2.0).unwrap();
        e.publish().unwrap();
        assert_eq!(e.sample(&mut rng).unwrap(), 0);
    }

    #[test]
    fn unknown_fixed_backend_is_rejected_at_construction() {
        let config = EngineConfig {
            backend: "no-such-backend",
            ..EngineConfig::default()
        };
        assert_eq!(
            SelectionEngine::new(vec![1.0], config).map(|_| ()),
            Err(SelectionError::UnknownBackend {
                name: "no-such-backend"
            })
        );
    }

    #[test]
    fn enqueue_validates_index_and_weight() {
        let e = engine(vec![1.0, 1.0]);
        assert_eq!(
            e.enqueue(2, 1.0),
            Err(SelectionError::IndexOutOfRange { index: 2, len: 2 })
        );
        assert!(matches!(
            e.enqueue(0, f64::NAN),
            Err(SelectionError::InvalidFitness { index: 0, .. })
        ));
        assert_eq!(
            e.enqueue_many(&[(0, 1.0), (5, 1.0)]),
            Err(SelectionError::IndexOutOfRange { index: 5, len: 2 })
        );
        // The failed batch enqueued nothing.
        assert_eq!(e.publish().unwrap(), 0);
        assert_eq!(e.stats().enqueued, 0);
    }

    #[test]
    fn failed_enqueue_many_leaves_the_pending_batch_bit_identical() {
        let e = engine(vec![1.0, 2.0, 3.0, 4.0]);
        // Seed a non-trivial pending state: an override folded through a
        // scale (its stored value is the product, exercising bit equality
        // beyond round numbers) plus an absolute one after the scale.
        e.enqueue(0, 0.3).unwrap();
        e.scale_all(0.7).unwrap();
        e.enqueue(2, 1.9).unwrap();
        let before = e.pending.lock().unwrap().state();
        let before_stats = e.stats();

        let failing: [&[(usize, f64)]; 3] = [
            &[(1, 5.0), (9, 1.0), (3, 2.0)], // index out of range mid-slice
            &[(1, 5.0), (3, f64::NAN)],      // invalid weight at the tail
            &[(1, -1.0)],                    // invalid weight up front
        ];
        for bad in failing {
            assert!(e.enqueue_many(bad).is_err());
        }

        let after = e.pending.lock().unwrap().state();
        assert_eq!(
            before.0.to_bits(),
            after.0.to_bits(),
            "the folded scale must be untouched"
        );
        assert_eq!(before.1.len(), after.1.len());
        for (&(bi, bw), &(ai, aw)) in before.1.iter().zip(after.1.iter()) {
            assert_eq!(bi, ai);
            assert_eq!(
                bw.to_bits(),
                aw.to_bits(),
                "pending override {bi} must be bit-identical"
            );
        }
        assert_eq!(
            before_stats,
            e.stats(),
            "failed batches must not move any counter"
        );
    }

    /// A registry-pluggable backend whose first build (the engine's initial
    /// snapshot) succeeds and every later build fails — the deterministic
    /// way to drive `publish()` down its restore path.
    struct FailAfterFirstBuild {
        builds: AtomicU64,
    }

    impl crate::backend::FrozenBackend for FailAfterFirstBuild {
        fn name(&self) -> &'static str {
            "fail-after-first"
        }

        fn build(
            &self,
            weights: Vec<f64>,
            scratch: &mut BuildScratch,
        ) -> Result<Box<dyn lrb_core::traits::FrozenSampler>, SelectionError> {
            if self.builds.fetch_add(1, Ordering::Relaxed) == 0 {
                crate::backend::FenwickBackend.build(weights, scratch)
            } else {
                Err(SelectionError::AllZeroFitness)
            }
        }
    }

    #[test]
    fn failed_publish_restores_the_drained_batch() {
        let mut registry = crate::backend::BackendRegistry::empty();
        registry.register(Arc::new(FailAfterFirstBuild {
            builds: AtomicU64::new(0),
        }));
        let config = EngineConfig {
            backend: "fail-after-first",
            ..EngineConfig::default()
        };
        let e = SelectionEngine::with_registry(vec![8.0, 8.0], config, registry).unwrap();
        e.enqueue(0, 4.0).unwrap();
        e.scale_all(0.5).unwrap();
        assert!(e.publish().is_err(), "the post-construction build fails");
        assert_eq!(e.version(), 0, "no snapshot was installed");
        // The drained batch went back into the queue exactly as it left:
        // the override predated the scale, so its stored value is folded.
        let (scale, overrides) = e.pending.lock().unwrap().state();
        assert_eq!(scale, 0.5);
        assert_eq!(overrides, vec![(0, 2.0)]);
    }

    #[test]
    fn scale_all_validates_the_factor() {
        let e = engine(vec![1.0, 2.0]);
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(e.scale_all(bad), Err(SelectionError::InvalidScale { .. })),
                "factor {bad} was accepted"
            );
        }
        // Rejected factors must not have dirtied the batch.
        assert_eq!(e.publish().unwrap(), 0);
    }

    #[test]
    fn updates_are_invisible_until_published() {
        let e = engine(vec![1.0, 1.0]);
        e.enqueue(0, 99.0).unwrap();
        assert_eq!(e.snapshot().weight(0), 1.0, "not yet published");
        assert_eq!(e.version(), 0);
        let v = e.publish().unwrap();
        assert_eq!(v, 1);
        assert_eq!(e.snapshot().weight(0), 99.0);
    }

    #[test]
    fn old_snapshots_survive_publication_untouched() {
        let e = engine(vec![1.0, 3.0]);
        let old = e.snapshot();
        e.enqueue(1, 0.0).unwrap();
        e.publish().unwrap();
        assert_eq!(old.version(), 0);
        assert_eq!(old.weight(1), 3.0);
        let mut rng = MersenneTwister64::seed_from_u64(3);
        // The old snapshot still draws index 1; the new one never does.
        let old_draws = old.sample_many(&mut rng, 500).unwrap();
        assert!(old_draws.contains(&1));
        let new = e.snapshot();
        let new_draws = new.sample_many(&mut rng, 500).unwrap();
        assert!(!new_draws.contains(&1));
    }

    #[test]
    fn reentrant_reads_bypass_the_cache_and_see_publishes() {
        let a = engine(vec![1.0, 2.0]);
        let b = engine(vec![5.0]);
        a.read(|outer| {
            // The outer read holds this thread's cache borrow, so every
            // acquisition below goes straight to the swap cell.
            assert_eq!(a.read(|s| (s.version(), s.weight(0))), (0, 1.0));
            assert_eq!(b.read(|s| s.weight(0)), 5.0);
            assert_eq!(a.version(), 0);
            assert_eq!(a.snapshot().weight(0), 1.0);
            // A publish from another thread while the outer read is still
            // running must neither block on it nor be missed by it.
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    a.enqueue(0, 7.0).unwrap();
                    assert_eq!(a.publish().unwrap(), 1);
                });
            });
            assert_eq!(a.read(|s| (s.version(), s.weight(0))), (1, 7.0));
            assert_eq!(a.version(), 1);
            assert_eq!(a.snapshot().weight(0), 7.0);
            assert_eq!(b.read(|s| s.version()), 0);
            // The outer snapshot is isolated from the publish.
            assert_eq!(outer.version(), 0);
            assert_eq!(outer.weight(0), 1.0);
        });
        assert_eq!(a.read(|s| (s.version(), s.weight(0))), (1, 7.0));
    }

    #[test]
    fn evaporation_folds_with_overrides_in_arrival_order() {
        let e = engine(vec![8.0, 8.0, 8.0]);
        e.enqueue(0, 4.0).unwrap(); // then scaled by 0.5 → 2.0
        e.scale_all(0.5).unwrap();
        e.enqueue(1, 4.0).unwrap(); // absolute, after the scale → 4.0
        e.publish().unwrap();
        let snap = e.snapshot();
        assert_eq!(snap.weight(0), 2.0);
        assert_eq!(snap.weight(1), 4.0);
        assert_eq!(snap.weight(2), 4.0); // 8.0 · 0.5
    }

    #[test]
    fn empty_publish_is_a_cheap_no_op() {
        let e = engine(vec![1.0]);
        assert_eq!(e.publish().unwrap(), 0);
        assert_eq!(e.publish().unwrap(), 0);
        assert_eq!(e.stats().publishes, 0);
    }

    #[test]
    fn stats_count_publishes_and_coalescing() {
        let e = engine(vec![1.0; 8]);
        e.enqueue(3, 1.0).unwrap();
        e.enqueue(3, 2.0).unwrap();
        e.enqueue(3, 3.0).unwrap();
        e.enqueue(4, 1.0).unwrap();
        e.publish().unwrap();
        let stats = e.stats();
        assert_eq!(stats.publishes, 1);
        assert_eq!(stats.enqueued, 4);
        assert_eq!(stats.coalesced, 2, "two of the three writes to 3 died");
        // Last write wins: index 3 carries the final value.
        assert_eq!(e.snapshot().weight(3), 3.0);
    }

    #[test]
    fn fixed_backend_choice_is_honoured_across_publishes() {
        for name in BackendRegistry::standard().names() {
            let config = EngineConfig {
                backend: name,
                ..EngineConfig::default()
            };
            let e = SelectionEngine::new(vec![1.0, 2.0, 3.0], config).unwrap();
            assert_eq!(e.snapshot().backend(), name);
            e.enqueue(0, 5.0).unwrap();
            e.publish().unwrap();
            assert_eq!(e.snapshot().backend(), name);
            assert_eq!(e.stats().backend_switches, 0);
        }
    }

    #[test]
    fn concurrent_enqueues_all_land() {
        let e = engine(vec![0.0; 256]);
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let e = &e;
                scope.spawn(move || {
                    for i in 0..32 {
                        e.enqueue(t * 32 + i, (t + 1) as f64).unwrap();
                    }
                });
            }
        });
        e.publish().unwrap();
        let snap = e.snapshot();
        for t in 0..8 {
            for i in 0..32 {
                assert_eq!(snap.weight(t * 32 + i), (t + 1) as f64);
            }
        }
    }

    #[test]
    fn auto_policy_patches_small_batches_and_rebuilds_whole_vector_ones() {
        // One dirty category out of 4096: fenwick's patch rule prices the
        // patch (0.5n + log n) far below the rebuild (n), so the publish
        // must take the patch path.
        let config = EngineConfig {
            backend: "fenwick",
            ..EngineConfig::default()
        };
        let e = SelectionEngine::new(vec![1.0; 4096], config).unwrap();
        e.enqueue(7, 3.0).unwrap();
        e.publish().unwrap();
        assert_eq!(e.stats().patched, 1);
        assert_eq!(e.snapshot().weight(7), 3.0);
        // Evaporation folds through the patch path too.
        e.scale_all(0.5).unwrap();
        e.enqueue(9, 8.0).unwrap();
        e.publish().unwrap();
        assert_eq!(e.stats().patched, 2);
        assert_eq!(e.snapshot().weight(7), 1.5);
        assert_eq!(e.snapshot().weight(9), 8.0);
        assert_eq!(e.snapshot().weight(0), 0.5);
        // Overriding every category would cost n · log n tree updates: the
        // rule declines the patch and the publish rebuilds.
        let all: Vec<(usize, f64)> = (0..4096).map(|i| (i, (i % 2) as f64)).collect();
        e.enqueue_many(&all).unwrap();
        e.publish().unwrap();
        assert_eq!(e.stats().patched, 2, "a whole-vector batch must rebuild");
        let snapshot = e.snapshot();
        assert!(all.iter().all(|&(i, w)| snapshot.weight(i) == w));
        let mut rng = MersenneTwister64::seed_from_u64(6);
        let draws = snapshot.sample_many(&mut rng, 10_000).unwrap();
        assert!(draws.iter().all(|&i| i % 2 == 1), "drew a zeroed category");
    }

    #[test]
    fn never_policy_always_rebuilds() {
        let config = EngineConfig {
            backend: "fenwick",
            patch: PatchPolicy::Never,
            ..EngineConfig::default()
        };
        let e = SelectionEngine::new(vec![1.0; 4096], config).unwrap();
        e.enqueue(7, 3.0).unwrap();
        e.publish().unwrap();
        assert_eq!(e.stats().patched, 0);
        assert_eq!(e.snapshot().weight(7), 3.0);
    }

    #[test]
    fn patched_and_rebuilt_publishes_hold_identical_weights() {
        for name in BackendRegistry::standard().names() {
            let run = |patch: PatchPolicy| {
                let e = SelectionEngine::new(
                    (0..512).map(|i| ((i % 7) + 1) as f64).collect(),
                    EngineConfig {
                        backend: name,
                        patch,
                        ..EngineConfig::default()
                    },
                )
                .unwrap();
                for round in 0..5u64 {
                    e.scale_all(0.9).unwrap();
                    for k in 0..17usize {
                        e.enqueue((k * 31 + round as usize * 7) % 512, k as f64 + 0.5)
                            .unwrap();
                    }
                    e.publish().unwrap();
                }
                (e.snapshot().weights().to_vec(), e.stats().patched)
            };
            let (patched_weights, patched) = run(PatchPolicy::Always);
            let (rebuilt_weights, rebuilt) = run(PatchPolicy::Never);
            assert_eq!(rebuilt, 0);
            if name != "alias" {
                assert_eq!(patched, 5, "{name} should have patched every publish");
            }
            let identical = patched_weights
                .iter()
                .zip(&rebuilt_weights)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(identical, "{name}: patched weights diverged from rebuild");
        }
    }

    #[test]
    fn patch_path_propagates_overflow_errors_and_keeps_the_batch() {
        let config = EngineConfig {
            backend: "fenwick",
            patch: PatchPolicy::Always,
            ..EngineConfig::default()
        };
        let e = SelectionEngine::new(vec![f64::MAX / 8.0; 4], config).unwrap();
        // Scale the batch *up* so the fold overflows weights to ∞ mid-patch.
        for _ in 0..4 {
            e.scale_all(2.0).unwrap();
        }
        assert!(matches!(
            e.publish(),
            Err(SelectionError::InvalidFitness { .. })
        ));
        assert_eq!(e.version(), 0, "failed publish must not install");
        // The batch survived (net scale 16): fold it down to a finite net
        // factor of 0.5 and the publish succeeds with the restored batch.
        e.scale_all(1.0 / 32.0).unwrap();
        assert_eq!(e.publish().unwrap(), 1);
        assert_eq!(e.snapshot().weight(0), f64::MAX / 16.0);
    }

    #[test]
    fn journal_explains_publishes() {
        use crate::telemetry::EngineEvent;
        let e = engine(vec![1.0; 4096]);
        assert!(e.observability().journal().is_empty());
        let mut rng = MersenneTwister64::seed_from_u64(4);
        let _ = e.snapshot().sample_many(&mut rng, 64).unwrap();
        e.enqueue(0, 1.0e9).unwrap();
        e.publish().unwrap();
        let journal = e.observability().journal();
        let publish = journal
            .iter()
            .find_map(|entry| match entry.event {
                EngineEvent::Publish {
                    version,
                    backend,
                    patched,
                    dirty,
                    scaled,
                    draws_served,
                    ..
                } => Some((version, backend, patched, dirty, scaled, draws_served)),
                _ => None,
            })
            .expect("a publish event was journaled");
        // The fenwick default patches 1 dirty category of 4096.
        assert_eq!(publish, (1, "fenwick", true, 1, false, 64));
        // Every further publish journals exactly one `Publish` event.
        for round in 1..16usize {
            e.enqueue(round, 2.0 + round as f64).unwrap();
            e.publish().unwrap();
        }
        let journal = e.observability().journal();
        let publishes = journal
            .iter()
            .filter(|entry| matches!(entry.event, EngineEvent::Publish { .. }))
            .count();
        assert_eq!(publishes, 16);
        assert_eq!(e.observability().events_recorded(), 16);
        assert_eq!(e.stats().publishes, 16);
        // Journal stamps are monotone in push order.
        assert!(journal.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn draws_after_a_publish_do_not_depend_on_earlier_traffic() {
        // Two default-config engines over the same weights; only one of
        // them serves draws before both publish the same batch. Afterwards
        // they must serve the same backend and the same draws for a seed.
        let weights: Vec<f64> = (0..1024).map(|i| 1.0 / (i + 1) as f64).collect();
        let busy = engine(weights.clone());
        let idle = engine(weights);
        let mut rng = MersenneTwister64::seed_from_u64(11);
        let mut buffer = vec![0usize; 4096];
        for _ in 0..25 {
            busy.read(|s| s.sample_into(&mut rng, &mut buffer)).unwrap();
        }
        for e in [&busy, &idle] {
            e.enqueue(17, 0.25).unwrap();
            assert_eq!(e.publish().unwrap(), 1);
        }
        assert_eq!(busy.stats().backend, idle.stats().backend);
        let draws = |e: &SelectionEngine| {
            let mut rng = MersenneTwister64::seed_from_u64(12);
            e.snapshot().sample_many(&mut rng, 1000).unwrap()
        };
        assert_eq!(draws(&busy), draws(&idle));
    }

    #[test]
    fn latency_histograms_observe_the_publish_path() {
        let e = engine(vec![1.0; 512]);
        for i in 0..5 {
            e.enqueue(i, 2.0).unwrap();
            e.publish().unwrap();
        }
        let publish = e.observability().publish_latency();
        let freeze = e.observability().freeze_latency();
        assert_eq!(publish.count, 5);
        assert_eq!(freeze.count, 5);
        assert!(
            publish.p50() >= freeze.p50(),
            "a publish contains its freeze"
        );
        assert!(publish.p999() >= publish.p50());
    }

    #[test]
    fn exporters_cover_the_metric_catalogue() {
        let e = engine(vec![1.0; 64]);
        e.enqueue(1, 3.0).unwrap();
        e.publish().unwrap();
        let text = e.export_prometheus();
        for series in [
            "lrb_publishes_total 1",
            "lrb_enqueued_total 1",
            "# TYPE lrb_publish_ns summary",
            "lrb_publish_ns{quantile=\"0.5\"}",
            "lrb_publish_ns{quantile=\"0.99\"}",
            "lrb_freeze_ns_count 1",
            "lrb_enqueue_ns_count 1",
            "lrb_journal_events_total 1",
            "lrb_snapshot_version 1",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
        let json = e.export_json();
        let tree = serde_json::from_str_value(&json).expect("export_json parses");
        let publishes = tree.field("lrb_publishes_total").unwrap();
        assert_eq!(
            *publishes.field("value").unwrap(),
            serde_json::Value::Number(1.0)
        );
        assert!(tree.field("lrb_publish_ns").unwrap().field("p999").is_ok());
    }

    #[test]
    fn stats_snapshot_is_coherent_under_concurrent_publishing() {
        // publishes and patched are counted under the same lock stats()
        // takes, so a reader can never see a publish half-applied: every
        // stats() view must satisfy patched + switches ≤ publishes (each
        // publish bumps publishes exactly once and patched at most once;
        // switches stay 0).
        let e = engine(vec![1.0; 1024]);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for round in 0..200usize {
                    e.enqueue(round % 1024, (round % 9) as f64 + 0.5).unwrap();
                    e.publish().unwrap();
                }
            });
            for _ in 0..400 {
                let stats = e.stats();
                assert!(
                    stats.patched + stats.backend_switches <= stats.publishes,
                    "incoherent stats: {stats:?}"
                );
                assert!(stats.enqueued >= stats.publishes, "{stats:?}");
                assert!(!stats.backend.is_empty());
            }
            writer.join().unwrap();
        });
        let stats = e.stats();
        assert_eq!(stats.publishes, 200);
        assert_eq!(stats.enqueued, 200);
        // Each publish records its span once, beside the counter.
        assert_eq!(e.observability().publish_latency().count, stats.publishes);
    }

    #[test]
    fn from_fitness_builds_the_same_engine() {
        let fitness = Fitness::new(vec![1.0, 2.0]).unwrap();
        let e = SelectionEngine::from_fitness(&fitness, EngineConfig::default());
        assert_eq!(e.len(), 2);
        assert!(!e.is_empty());
        assert_eq!(e.snapshot().weights(), &[1.0, 2.0]);
        assert_eq!(e.registry().len(), 3);
        assert!(format!("{e:?}").contains("SelectionEngine"));
    }
}
