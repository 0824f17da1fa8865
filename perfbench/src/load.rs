//! The live system under test and the closed-loop clients that drive it:
//! an in-process `ShardedService` behind a `ServiceServer` on a
//! Unix-domain socket, reader connections issuing draws, a writer
//! connection issuing `UPDATE_MANY` + `PUBLISH`, and the checks that
//! every returned index was legal when it was served.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use lrb_engine::{Durability, EngineConfig, FsyncPolicy, WalOptions};
use lrb_service::{
    ClientConfig, ServerAddr, ServerConfig, ServiceClient, ServiceConfig, ServiceServer,
    ShardedService,
};

use crate::measure::LatHist;
use crate::trace::CALL_SPAN_CAP;
use crate::workload::{self, Shape, Spec, WriteScript};

/// Requests each reader issues during set-up before anything is timed.
const WARMUP_DRAWS: usize = 500;
const WARMUP_BATCHES: usize = 8;
/// `TOTALS` round trips per connection for the wire floor.
pub const FLOOR_PROBES: usize = 1000;

/// One live service, server and its client connections.
///
/// Fields drop in declaration order: clients close first, then the
/// server stops, then the shards and their publisher threads.
pub struct Live {
    pub readers: Vec<ServiceClient>,
    pub writer: ServiceClient,
    /// Held so the server lives exactly as long as its clients.
    _server: ServiceServer,
    pub service: ShardedService,
    pub server_config: ServerConfig,
    pub weights: Vec<f64>,
}

fn client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        deadline: Some(Duration::from_secs(30)),
        retries: 2,
        reconnect_attempts: 3,
        seed,
        ..ClientConfig::default()
    }
}

/// Build everything a run needs: the weights, the service (with a WAL
/// under `dir` when the workload is durable), the server bound at
/// `dir/s<tag>.sock`, every client connection, and a warm-up.
pub fn setup(spec: &Spec, seed: u64, dir: &Path, tag: usize) -> Result<Live, String> {
    let weights = workload::weights(spec, seed);
    let mut engine = EngineConfig::default();
    if spec.durable {
        engine.durability = Durability::Wal(WalOptions {
            dir: dir.join(format!("wal-{tag}")),
            fsync: FsyncPolicy::Off,
            // Genesis checkpoint only: no disk flush lands in the
            // measured window, the WAL appends themselves are measured.
            checkpoint_every: 0,
        });
    }
    let config = ServiceConfig {
        shards: spec.shards,
        engine,
        ..ServiceConfig::default()
    };
    let service =
        ShardedService::new(weights.clone(), config).map_err(|e| format!("service: {e}"))?;
    let server_config = ServerConfig::default();
    let socket: PathBuf = dir.join(format!("s{tag}.sock"));
    let server = ServiceServer::bind_uds_with(
        service.core(),
        socket,
        workload::sub_seed(seed, workload::SEED_SERVER),
        server_config.clone(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr: ServerAddr = server.local_addr().clone();
    let connect = |k: u64| {
        ServiceClient::connect_with(&addr, client_config(seed ^ k))
            .map_err(|e| format!("connect: {e}"))
    };
    let mut readers = Vec::with_capacity(spec.readers);
    for k in 0..spec.readers {
        readers.push(connect(k as u64 + 1)?);
    }
    let writer = connect(0)?;
    for client in &mut readers {
        let warm = match spec.shape {
            Shape::Single => (0..WARMUP_DRAWS).try_for_each(|_| client.draw().map(drop)),
            Shape::Batch(b) => (0..WARMUP_BATCHES).try_for_each(|_| client.draw_batch(b).map(drop)),
            Shape::Pipelined(w) => client.draw_pipelined(WARMUP_DRAWS, w).map(drop),
        };
        warm.map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(Live {
        readers,
        writer,
        _server: server,
        service,
        server_config,
        weights,
    })
}

/// Which categories may legally be served at which instants.
///
/// Times are nanoseconds since `epoch`, plus one, so 0 means "never".
/// `visible_since[i]` is when the current positive run of category `i`
/// may first have been served (`u64::MAX` while it is zero);
/// `visible_until[i]` is when its last finished positive run was fully
/// superseded. A draw of `i` sent at `a` and answered at `b` is legal iff
/// some positive run of `i` overlaps `[a, b]`. Only the writer stores;
/// readers load.
pub struct Support {
    epoch: Instant,
    visible_since: Vec<AtomicU64>,
    visible_until: Vec<AtomicU64>,
}

impl Support {
    pub fn new(epoch: Instant, weights: &[f64]) -> Self {
        Self {
            epoch,
            visible_since: weights
                .iter()
                .map(|&w| AtomicU64::new(if w > 0.0 { 0 } else { u64::MAX }))
                .collect(),
            visible_until: weights.iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 + 1
    }

    pub fn legal(&self, index: usize, sent: u64, received: u64) -> bool {
        index < self.visible_since.len()
            && (self.visible_since[index].load(Ordering::SeqCst) <= received
                || self.visible_until[index].load(Ordering::SeqCst) >= sent)
    }
}

/// The batch's final weight per category (later entries win).
fn last_wins(batch: &[(usize, f64)]) -> Vec<(usize, f64)> {
    let mut entries: Vec<(usize, usize, f64)> = batch
        .iter()
        .enumerate()
        .map(|(k, &(i, w))| (i, k, w))
        .collect();
    entries.sort_unstable_by_key(|&(i, k, _)| (i, std::cmp::Reverse(k)));
    entries.dedup_by_key(|e| e.0);
    entries.into_iter().map(|(i, _, w)| (i, w)).collect()
}

/// The writer's connection-side state, carried across the phases of a
/// run: its script, its model of the published weights and the last
/// per-shard versions it saw.
pub struct Writer {
    script: WriteScript,
    model: Vec<f64>,
    versions: Vec<u64>,
}

impl Writer {
    pub fn new(spec: &Spec, seed: u64, weights: &[f64]) -> Self {
        Self {
            script: WriteScript::new(spec, seed),
            model: weights.to_vec(),
            versions: vec![0; spec.shards],
        }
    }

    /// One `UPDATE_MANY` + `PUBLISH`, timed as one write round trip.
    /// Categories the batch revives become legal before it is sent;
    /// categories it zeroes stop being legal once the publish is
    /// acknowledged.
    fn write_once(
        &mut self,
        client: &mut ServiceClient,
        support: &Support,
        out: &mut WriterOut,
        trace: bool,
    ) {
        let batch = self.script.next_batch();
        let finals = last_wins(&batch);
        let sent = support.now();
        for &(i, w) in &finals {
            if w > 0.0 && self.model[i] <= 0.0 {
                support.visible_since[i].store(sent, Ordering::SeqCst);
            }
        }
        let result = client.update_many(&batch).and_then(|()| client.publish());
        let done = support.now();
        out.writes += 1;
        out.record(done - sent);
        match result {
            // Versions never go backwards.
            Ok(versions) if versions.len() == self.versions.len() => {
                if versions
                    .iter()
                    .zip(&self.versions)
                    .any(|(v, last)| v < last)
                {
                    out.failed += 1;
                }
                self.versions = versions;
                for &(i, w) in &finals {
                    if w <= 0.0 && self.model[i] > 0.0 {
                        support.visible_until[i].store(done, Ordering::SeqCst);
                        support.visible_since[i].store(u64::MAX, Ordering::SeqCst);
                    }
                    self.model[i] = w;
                }
            }
            _ => out.failed += 1,
        }
        if trace && out.calls.len() < CALL_SPAN_CAP {
            out.calls.push((sent - 1, done - 1, batch.len() as u32));
        }
    }
}

/// Draws answered, and the round trips of the requests answered, within
/// one window of a phase.
#[derive(Clone, Default)]
pub struct Window {
    pub draws: u64,
    pub rtt: LatHist,
}

/// What one reader connection saw during a phase.
pub struct ReaderOut {
    pub requests: u64,
    pub draws: u64,
    pub failed: u64,
    /// Requests that returned at least one illegal index.
    pub illegal: u64,
    /// Per-window draws and round trips, by answer time.
    pub windows: Vec<Window>,
    pub counts: Vec<u64>,
    pub calls: Vec<(u64, u64, u32)>,
    pub dropped_calls: u64,
    pub finished: Instant,
}

/// Consecutive writes whose round trips form one latency sample set.
pub const WRITE_CHUNK: usize = 1000;

/// What the writer connection saw.
#[derive(Default)]
pub struct WriterOut {
    pub writes: u64,
    pub failed: u64,
    /// Round trips per chunk of [`WRITE_CHUNK`] consecutive writes.
    rtt: Vec<LatHist>,
    pub calls: Vec<(u64, u64, u32)>,
}

impl WriterOut {
    fn record(&mut self, nanos: u64) {
        match self.rtt.last_mut() {
            Some(chunk) if chunk.count() < WRITE_CHUNK as u64 => chunk.record(nanos),
            _ => {
                let mut chunk = LatHist::default();
                chunk.record(nanos);
                self.rtt.push(chunk);
            }
        }
    }

    /// The round-trip chunks, a short final chunk folded into the one
    /// before it; one (possibly empty) chunk when there were no writes.
    pub fn chunks(&self) -> Vec<LatHist> {
        let mut chunks = self.rtt.clone();
        if chunks.len() >= 2 && chunks[chunks.len() - 1].count() < WRITE_CHUNK as u64 / 2 {
            let last = chunks.pop().expect("two chunks");
            chunks.last_mut().expect("one chunk").merge(&last);
        }
        if chunks.is_empty() {
            chunks.push(LatHist::default());
        }
        chunks
    }
}

pub struct PhaseOut {
    pub readers: Vec<ReaderOut>,
    pub writer: WriterOut,
    pub elapsed: Duration,
    /// Length of each of the readers' windows (the last one also holds
    /// the answers drained after the deadline).
    pub window: Duration,
}

impl PhaseOut {
    pub fn draws(&self) -> u64 {
        self.readers.iter().map(|r| r.draws).sum()
    }

    pub fn requests(&self) -> u64 {
        self.readers.iter().map(|r| r.requests).sum()
    }

    /// Read requests that failed or returned an illegal index.
    pub fn failed(&self) -> u64 {
        self.readers.iter().map(|r| r.failed + r.illegal).sum()
    }

    /// The readers' windows, merged across connections.
    pub fn windows(&self) -> Vec<Window> {
        let mut merged = vec![Window::default(); self.readers[0].windows.len()];
        for reader in &self.readers {
            for (into, w) in merged.iter_mut().zip(&reader.windows) {
                into.draws += w.draws;
                into.rtt.merge(&w.rtt);
            }
        }
        merged
    }
}

struct Recorder<'a> {
    support: &'a Support,
    out: ReaderOut,
    trace: bool,
    /// Phase start, in `Support` time.
    start: u64,
    window_ns: u64,
}

impl Recorder<'_> {
    fn call(&mut self, sent: u64, received: u64, indices: &[usize]) {
        self.out.requests += 1;
        let k = ((received.saturating_sub(self.start) / self.window_ns) as usize)
            .min(self.out.windows.len() - 1);
        let window = &mut self.out.windows[k];
        window.rtt.record(received - sent);
        window.draws += indices.len() as u64;
        let mut legal = true;
        for &index in indices {
            if self.support.legal(index, sent, received) {
                self.out.counts[index] += 1;
            } else {
                legal = false;
            }
        }
        self.out.draws += indices.len() as u64;
        self.out.illegal += u64::from(!legal);
        self.span(sent, received, indices.len());
    }

    fn failure(&mut self, sent: u64, received: u64) {
        self.out.requests += 1;
        self.out.failed += 1;
        self.span(sent, received, 0);
    }

    fn span(&mut self, sent: u64, received: u64, ops: usize) {
        if !self.trace {
            return;
        }
        if self.out.calls.len() < CALL_SPAN_CAP {
            self.out.calls.push((sent - 1, received - 1, ops as u32));
        } else {
            self.out.dropped_calls += 1;
        }
    }
}

fn read_loop(
    client: &mut ServiceClient,
    spec: &Spec,
    support: &Support,
    (deadline, windows, window): (Instant, usize, Duration),
    trace: bool,
) -> ReaderOut {
    let mut rec = Recorder {
        support,
        start: support.now(),
        window_ns: window.as_nanos().max(1) as u64,
        out: ReaderOut {
            requests: 0,
            draws: 0,
            failed: 0,
            illegal: 0,
            windows: vec![Window::default(); windows],
            counts: vec![0; spec.n],
            calls: Vec::new(),
            dropped_calls: 0,
            finished: deadline,
        },
        trace,
    };
    match spec.shape {
        Shape::Single => {
            while Instant::now() < deadline {
                let sent = support.now();
                let result = client.draw();
                let received = support.now();
                match result {
                    Ok(index) => rec.call(sent, received, &[index]),
                    Err(_) => rec.failure(sent, received),
                }
            }
        }
        Shape::Batch(b) => {
            while Instant::now() < deadline {
                let sent = support.now();
                let result = client.draw_batch(b);
                let received = support.now();
                match result {
                    Ok(indices) => rec.call(sent, received, &indices),
                    Err(_) => rec.failure(sent, received),
                }
            }
        }
        Shape::Pipelined(window) => {
            let mut in_flight: VecDeque<u64> = VecDeque::with_capacity(window);
            loop {
                if Instant::now() < deadline {
                    while in_flight.len() < window {
                        client.queue_draw();
                        in_flight.push_back(support.now());
                    }
                } else if in_flight.is_empty() {
                    break;
                }
                let result = client.recv_draw();
                let received = support.now();
                match result {
                    Ok(index) => {
                        let sent = in_flight.pop_front().expect("a draw is in flight");
                        rec.call(sent, received, &[index]);
                    }
                    Err(_) => {
                        // The client dropped whatever it no longer owes.
                        while in_flight.len() > client.outstanding() {
                            let sent = in_flight.pop_front().expect("a draw is in flight");
                            rec.failure(sent, received);
                        }
                    }
                }
            }
        }
    }
    rec.out.finished = Instant::now();
    rec.out
}

/// Drive the readers for `seconds`, with the concurrent writer on this
/// thread when the workload has one. Each reader connection runs on its
/// own thread.
pub fn read_phase(
    live: &mut Live,
    spec: &Spec,
    writer: &mut Writer,
    support: &Support,
    seconds: f64,
    trace: bool,
) -> PhaseOut {
    let start = Instant::now();
    let length = Duration::from_secs_f64(seconds);
    let deadline = start + length;
    let windows = (seconds / spec.window.as_secs_f64()).round().max(1.0) as usize;
    let window = length / windows as u32;
    let Live {
        readers,
        writer: writer_client,
        ..
    } = live;
    let (readers, writer_out) = thread::scope(|scope| {
        let handles: Vec<_> = readers
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    read_loop(client, spec, support, (deadline, windows, window), trace)
                })
            })
            .collect();
        let mut writer_out = WriterOut::default();
        if let Some(every) = spec.write_every {
            let mut k = 0u32;
            while Instant::now() < deadline {
                let due = start + every * k;
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                writer.write_once(writer_client, support, &mut writer_out, trace);
                k += 1;
            }
        }
        let readers: Vec<ReaderOut> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        (readers, writer_out)
    });
    let finished = readers.iter().map(|r| r.finished).max().unwrap_or(deadline);
    PhaseOut {
        readers,
        writer: writer_out,
        elapsed: finished - start,
        window,
    }
}

/// Back-to-back writes on the writer connection for `length`, for
/// workloads whose read window has no concurrent writer.
pub fn write_probe(
    live: &mut Live,
    writer: &mut Writer,
    support: &Support,
    length: Duration,
    trace: bool,
) -> WriterOut {
    let mut out = WriterOut::default();
    let deadline = Instant::now() + length;
    while out.writes == 0 || Instant::now() < deadline {
        writer.write_once(&mut live.writer, support, &mut out, trace);
    }
    out
}

/// `TOTALS` round trips on every reader connection at once (the same
/// connections and threads as the reads): the wire's no-op floor.
pub fn floor_probe(live: &mut Live, probes: usize) -> (LatHist, u64) {
    let outs: Vec<(LatHist, u64)> = thread::scope(|scope| {
        let handles: Vec<_> = live
            .readers
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut hist = LatHist::default();
                    let mut failed = 0u64;
                    for _ in 0..probes {
                        let started = Instant::now();
                        match client.totals() {
                            Ok(_) => hist.record(started.elapsed().as_nanos() as u64),
                            Err(_) => failed += 1,
                        }
                    }
                    (hist, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("floor thread panicked"))
            .collect()
    });
    let mut hist = LatHist::default();
    let mut failed = 0;
    for (h, f) in &outs {
        hist.merge(h);
        failed += f;
    }
    (hist, failed)
}
