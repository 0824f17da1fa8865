//! Regression tests for the writer-stall bugfix: `publish()` must hold the
//! batch mutex only for the drain, never across a backend build, so
//! `enqueue`/`enqueue_many`/`scale_all` stay microsecond-fast while a slow
//! freeze is in flight — and a freeze that *fails* must re-merge its
//! drained batch under whatever writers enqueued meanwhile (new writes
//! win).
//!
//! The tests drive the engine through a registry-pluggable **gated**
//! backend whose builds park on a rendezvous channel until the test
//! releases them. That makes "a build is provably in flight" a fact, not a
//! race: the pre-fix engine deadlocks here (the enqueue below would wait on
//! the batch mutex held by the parked publisher, and the release it waits
//! for would never be sent), while the fixed engine sails through even on a
//! single-core host.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use lrb_core::error::SelectionError;
use lrb_core::traits::FrozenSampler;
use lrb_engine::{BackendRegistry, EngineConfig, FenwickBackend, FrozenBackend, SelectionEngine};

/// A Fenwick backend whose builds can be gated: while `armed`, a build
/// announces itself on `entered` and parks on `release`; with `fail_next`
/// set, the released build errors instead of producing a sampler.
struct GatedBackend {
    armed: AtomicBool,
    fail_next: AtomicBool,
    builds: AtomicU64,
    entered: Mutex<SyncSender<()>>,
    release: Mutex<Receiver<()>>,
}

impl GatedBackend {
    /// Returns the backend plus the test's ends of the two gates.
    fn new() -> (Arc<Self>, Receiver<()>, Sender<()>) {
        let (entered_tx, entered_rx) = sync_channel(0);
        let (release_tx, release_rx) = channel();
        let backend = Arc::new(Self {
            armed: AtomicBool::new(false),
            fail_next: AtomicBool::new(false),
            builds: AtomicU64::new(0),
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        });
        (backend, entered_rx, release_tx)
    }
}

impl FrozenBackend for GatedBackend {
    fn name(&self) -> &'static str {
        "gated-fenwick"
    }

    fn build(&self, weights: &[f64]) -> Result<Box<dyn FrozenSampler>, SelectionError> {
        self.builds.fetch_add(1, Ordering::SeqCst);
        if self.armed.load(Ordering::SeqCst) {
            self.entered.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
        if self.fail_next.swap(false, Ordering::SeqCst) {
            return Err(SelectionError::AllZeroFitness);
        }
        FenwickBackend.build(weights)
    }
}

fn gated_engine(
    weights: Vec<f64>,
) -> (SelectionEngine, Arc<GatedBackend>, Receiver<()>, Sender<()>) {
    let (backend, entered, release) = GatedBackend::new();
    let mut registry = BackendRegistry::empty();
    registry.register(Arc::clone(&backend) as Arc<dyn FrozenBackend>);
    let config = EngineConfig {
        backend: "gated-fenwick",
        ..EngineConfig::default()
    };
    let engine = SelectionEngine::with_registry(weights, config, registry).unwrap();
    (engine, backend, entered, release)
}

/// How long the gated build is held open while writers hammer the engine.
const BLOCK: Duration = Duration::from_millis(100);

#[test]
fn writers_never_block_on_a_backend_build() {
    let (engine, backend, entered, release) = gated_engine(vec![1.0; 64]);
    let engine = Arc::new(engine);
    backend.armed.store(true, Ordering::SeqCst);

    let publisher = {
        let engine = Arc::clone(&engine);
        thread::spawn(move || {
            engine.enqueue(0, 5.0).unwrap();
            engine.publish().unwrap()
        })
    };

    // Rendezvous: the publisher has drained its batch and is now parked
    // inside the backend build. Pre-fix, it would still hold the batch
    // mutex here and every write below would deadlock.
    entered.recv().unwrap();
    let build_started = Instant::now();

    let mut latencies_ns = Vec::with_capacity(256);
    for k in 0..200u32 {
        let started = Instant::now();
        engine.enqueue(1, f64::from(k) + 1.0).unwrap();
        latencies_ns.push(started.elapsed().as_nanos() as u64);
    }
    let started = Instant::now();
    engine
        .enqueue_many(&[(2, 3.0), (3, 4.0)])
        .expect("batched writes must land mid-build too");
    latencies_ns.push(started.elapsed().as_nanos() as u64);
    engine.enqueue(1, 7.0).unwrap();

    // Keep the build provably open for the full window, then let it finish.
    if build_started.elapsed() < BLOCK {
        thread::sleep(BLOCK - build_started.elapsed());
    }
    release.send(()).unwrap();
    assert_eq!(publisher.join().unwrap(), 1, "the gated publish succeeded");

    // The published snapshot carries only the batch drained *before* the
    // build; every mid-build write waited in the next batch.
    assert_eq!(engine.snapshot().weight(0), 5.0);
    assert_eq!(
        engine.snapshot().weight(1),
        1.0,
        "mid-build write not yet visible"
    );
    backend.armed.store(false, Ordering::SeqCst);
    assert_eq!(engine.publish().unwrap(), 2);
    assert_eq!(engine.snapshot().weight(1), 7.0);
    assert_eq!(engine.snapshot().weight(2), 3.0);
    assert_eq!(engine.snapshot().weight(3), 4.0);

    // The ≥10x acceptance bar, measured two ways. Directly: writer p99
    // while the build was parked must be at least 10x below the build
    // span (it is microseconds against a 100ms gate).
    latencies_ns.sort_unstable();
    let p99 = latencies_ns[latencies_ns.len() * 99 / 100 - 1];
    assert!(
        p99.saturating_mul(10) <= BLOCK.as_nanos() as u64,
        "enqueue p99 {p99}ns must be ≥10x below the {}ns build it overlapped",
        BLOCK.as_nanos()
    );
    // And through the always-on telemetry histogram the fix added: the
    // writer tail stays decoupled from the freeze tail.
    let enqueue_p99 = engine.observability().enqueue_latency().p99();
    let freeze_p99 = engine.observability().freeze_latency().p99();
    assert!(
        enqueue_p99.saturating_mul(10) <= freeze_p99,
        "telemetry enqueue p99 {enqueue_p99}ns vs freeze p99 {freeze_p99}ns"
    );
}

#[test]
fn failed_publish_remerges_under_mid_build_writes_new_wins() {
    let (engine, backend, entered, release) = gated_engine(vec![8.0, 8.0, 8.0]);
    let engine = Arc::new(engine);

    // The batch that will be drained and then fail to freeze.
    engine.enqueue(0, 4.0).unwrap();
    engine.scale_all(0.5).unwrap();
    backend.armed.store(true, Ordering::SeqCst);
    backend.fail_next.store(true, Ordering::SeqCst);

    let publisher = {
        let engine = Arc::clone(&engine);
        thread::spawn(move || engine.publish())
    };
    entered.recv().unwrap();

    // Mid-build writes: a newer override for category 0 and a newer scale.
    // Under arrival-order semantics they happened *after* the drained
    // batch, so when the freeze fails and the batch is restored, the newer
    // override must win and the newer scale must apply on top.
    engine.enqueue(0, 9.0).unwrap();
    engine.scale_all(2.0).unwrap();
    release.send(()).unwrap();
    assert_eq!(
        publisher.join().unwrap(),
        Err(SelectionError::AllZeroFitness),
        "the gated build was told to fail"
    );
    assert_eq!(engine.version(), 0, "nothing was installed");

    // Republish through a healthy build: the merged batch must equal the
    // sequential application of every accepted operation, in order:
    //   set(0,4) · scale(0.5) · set(0,9) · scale(2)
    //   → w0 = 9·2 = 18 (new override wins; the restored 4·0.5 lost),
    //     w1 = w2 = 8·0.5·2 = 8.
    backend.armed.store(false, Ordering::SeqCst);
    assert_eq!(engine.publish().unwrap(), 1);
    let snapshot = engine.snapshot();
    assert_eq!(snapshot.weight(0), 18.0);
    assert_eq!(snapshot.weight(1), 8.0);
    assert_eq!(snapshot.weight(2), 8.0);
    assert_eq!(
        backend.builds.load(Ordering::SeqCst),
        3,
        "construction + failed gated build + healthy republish"
    );
}
