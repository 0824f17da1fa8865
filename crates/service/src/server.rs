//! The request layer: an event-driven TCP/UDS server speaking the
//! length-prefixed binary protocol of [`crate::protocol`].
//!
//! The server runs [`ServerConfig::reactors`] epoll reactor threads (the
//! private `reactor` module) multiplexing every connection, plus a small
//! worker pool that executes decoded frames against the shard /
//! aggregator machinery — total thread count is **O(reactors + workers +
//! shards)** regardless of how many connections are open. Connections are
//! nonblocking; idle ones cost nothing (no poll-loop wakeups, no thread
//! stacks).
//!
//! Request execution semantics per connection:
//!
//! * frames execute strictly in arrival order and responses are written in
//!   that order, so a pipelining client correlates by position;
//! * a **run** of consecutive `DRAW` frames from one connection coalesces
//!   into a single fused two-level batch ([`ServiceCore::draw_many`]) —
//!   pipelined single draws get batch-draw throughput automatically;
//! * a lone `DRAW` goes through the shared [`DrawAggregator`], so
//!   concurrent *connections* still coalesce with each other;
//! * at most [`ServerConfig::inflight_budget`] decoded-but-unanswered
//!   frames per connection; beyond that the reactor stops reading the
//!   connection (TCP flow control pushes back on the client);
//! * a connection whose buffered responses exceed
//!   [`ServerConfig::max_outbound_bytes`] is disconnected (slow-consumer
//!   policy) with a journaled [`ServiceEvent::SlowConsumer`] reason.
//!
//! [`ServiceEvent::SlowConsumer`]: crate::telemetry::ServiceEvent

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lrb_rng::MersenneTwister64;

use crate::aggregator::DrawAggregator;
use crate::protocol::{codes, encode_err, encode_ok, error_code, Cursor, Frame, OpCode, MAX_BATCH};
use crate::sharded::ServiceCore;

/// Back-off before retrying a failed `accept()` (e.g. fd exhaustion), so a
/// persistent error cannot busy-spin the accept loop.
const ACCEPT_RETRY_DELAY: Duration = Duration::from_millis(20);

/// Timeout on the throwaway connection that unblocks the accept loop at
/// shutdown.
const SHUTDOWN_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Sizing and backpressure knobs for [`ServiceServer`].
///
/// The defaults suit a small host: reactors scale with cores up to 4
/// (thousands of mostly-idle connections per reactor are fine — each costs
/// one epoll registration and a couple of buffers, not a thread), workers
/// with cores up to 8 (workers run the actual draws; more than cores just
/// adds contention on the shard snapshots).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Reactor (event-loop) threads; `0` = `min(4, cores)`.
    pub reactors: usize,
    /// Worker (request-execution) threads; `0` = `max(2, min(8, cores))`.
    pub workers: usize,
    /// Max decoded-but-unanswered frames per connection before the server
    /// stops reading it (connection-level backpressure).
    pub inflight_budget: usize,
    /// Max buffered outbound response bytes per connection before the
    /// slow-consumer policy disconnects it.
    pub max_outbound_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            reactors: 0,
            workers: 0,
            inflight_budget: 64,
            max_outbound_bytes: 16 << 20,
        }
    }
}

impl ServerConfig {
    fn cores() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The reactor-thread count after resolving the `0 = auto` default.
    pub fn resolved_reactors(&self) -> usize {
        if self.reactors > 0 {
            self.reactors
        } else {
            Self::cores().min(4)
        }
    }

    /// The worker-thread count after resolving the `0 = auto` default.
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            Self::cores().clamp(2, 8)
        }
    }
}

/// Where a running server is listening.
#[derive(Debug, Clone)]
pub enum ServerAddr {
    /// A TCP socket address (use with [`crate::ServiceClient::connect_tcp`]).
    Tcp(SocketAddr),
    /// A Unix-domain socket path (use with
    /// [`crate::ServiceClient::connect_uds`]).
    Unix(PathBuf),
}

enum Incoming {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// A running selection server. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the accept loop, the reactors and
/// the worker pool, closes every connection and, for UDS, removes the
/// socket file.
pub struct ServiceServer {
    addr: ServerAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    runtime: Runtime,
}

impl std::fmt::Debug for ServiceServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ServiceServer {
    /// Bind a TCP listener (e.g. `"127.0.0.1:0"` for an ephemeral port)
    /// and start serving `core` with default sizing. `seed` keys the
    /// server-side RNGs.
    pub fn bind_tcp(
        core: Arc<ServiceCore>,
        addr: impl ToSocketAddrs,
        seed: u64,
    ) -> std::io::Result<Self> {
        Self::bind_tcp_with(core, addr, seed, ServerConfig::default())
    }

    /// [`bind_tcp`](Self::bind_tcp) with explicit [`ServerConfig`] knobs.
    pub fn bind_tcp_with(
        core: Arc<ServiceCore>,
        addr: impl ToSocketAddrs,
        seed: u64,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Self::start(
            core,
            Incoming::Tcp(listener),
            ServerAddr::Tcp(local),
            seed,
            config,
        )
    }

    /// Bind a Unix-domain socket at `path` (removed on shutdown) and start
    /// serving `core` with default sizing.
    pub fn bind_uds(
        core: Arc<ServiceCore>,
        path: impl Into<PathBuf>,
        seed: u64,
    ) -> std::io::Result<Self> {
        Self::bind_uds_with(core, path, seed, ServerConfig::default())
    }

    /// [`bind_uds`](Self::bind_uds) with explicit [`ServerConfig`] knobs.
    pub fn bind_uds_with(
        core: Arc<ServiceCore>,
        path: impl Into<PathBuf>,
        seed: u64,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let path = path.into();
        // A stale socket file from a crashed predecessor would fail the
        // bind; remove it (ignoring "was not there").
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        Self::start(
            core,
            Incoming::Unix(listener),
            ServerAddr::Unix(path),
            seed,
            config,
        )
    }

    fn start(
        core: Arc<ServiceCore>,
        listener: Incoming,
        addr: ServerAddr,
        seed: u64,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let aggregator = Arc::new(DrawAggregator::new(Arc::clone(&core), seed));
        let (runtime, accept) =
            Runtime::start(core, aggregator, listener, Arc::clone(&stop), seed, config)?;
        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
            runtime,
        })
    }

    /// Where the server is listening (for clients; the TCP variant carries
    /// the resolved ephemeral port).
    pub fn local_addr(&self) -> &ServerAddr {
        &self.addr
    }

    /// Stop accepting, wake and join the reactors and workers, close every
    /// connection and clean up the socket. Also runs on drop.
    ///
    /// This is the *abrupt* path: connections close regardless of
    /// in-flight work. For a graceful stop that lets in-flight requests
    /// finish and flushes their responses first, use
    /// [`shutdown_within`](Self::shutdown_within).
    pub fn shutdown(&mut self) {
        if self.stop_accepting() {
            self.runtime.shutdown();
            self.cleanup_socket();
        }
    }

    /// Gracefully drain and stop within `deadline`: stop accepting new
    /// connections, stop *reading* on existing ones, let every in-flight
    /// run complete and its response flush, then close. Connections still
    /// busy when the deadline expires are closed anyway and counted as
    /// abandoned in the journaled
    /// [`ServiceEvent::Drained`](crate::ServiceEvent::Drained) (one entry
    /// per reactor). Also safe to call after a shutdown (no-op).
    pub fn shutdown_within(&mut self, deadline: Duration) {
        if self.stop_accepting() {
            self.runtime.shutdown_within(deadline);
            self.cleanup_socket();
        }
    }

    /// Set the stop flag, unblock and join the accept thread. Returns
    /// false when shutdown already ran.
    fn stop_accepting(&mut self) -> bool {
        if self.accept.is_none() {
            return false;
        }
        self.stop.store(true, Ordering::Release);
        // Unblock the blocking accept with a throwaway connection.
        match &self.addr {
            ServerAddr::Tcp(addr) => {
                let _ = TcpStream::connect_timeout(addr, SHUTDOWN_CONNECT_TIMEOUT);
            }
            ServerAddr::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        true
    }

    fn cleanup_socket(&self) {
        if let ServerAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for ServiceServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Derive the per-connection RNG seed for connection `token` (SplitMix
/// keeps adjacent tokens decorrelated).
fn connection_seed(seed: u64, token: u64) -> u64 {
    let mut mixer = lrb_rng::SplitMix64::new(seed ^ token.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    lrb_rng::RandomSource::next_u64(&mut mixer)
}

// ---------------------------------------------------------------------------
// The epoll reactor runtime.
// ---------------------------------------------------------------------------

struct Runtime {
    reactors: Vec<Arc<crate::reactor::ReactorShared>>,
    reactor_threads: Vec<JoinHandle<()>>,
    jobs: Arc<crate::reactor::JobQueue>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Runtime {
    fn start(
        core: Arc<ServiceCore>,
        aggregator: Arc<DrawAggregator>,
        listener: Incoming,
        stop: Arc<AtomicBool>,
        seed: u64,
        config: ServerConfig,
    ) -> std::io::Result<(Self, JoinHandle<()>)> {
        use crate::reactor::{JobQueue, ReactorContext, ReactorShared};

        let reactor_count = config.resolved_reactors();
        let worker_count = config.resolved_workers();
        let jobs = Arc::new(JobQueue::new());

        let mut reactors = Vec::with_capacity(reactor_count);
        for _ in 0..reactor_count {
            reactors.push(Arc::new(ReactorShared::new()?));
        }
        let reactors_shared = Arc::new(reactors.clone());

        let mut reactor_threads = Vec::with_capacity(reactor_count);
        for (index, shared) in reactors.iter().enumerate() {
            let ctx = ReactorContext {
                shared: Arc::clone(shared),
                index,
                core: Arc::clone(&core),
                jobs: Arc::clone(&jobs),
                budget: config.inflight_budget.max(1),
                max_outbound: config.max_outbound_bytes.max(1),
            };
            let pinner = Arc::clone(core.pinner());
            reactor_threads.push(std::thread::spawn(move || {
                pinner.pin_current();
                crate::reactor::run_reactor(ctx)
            }));
        }

        let mut worker_threads = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let jobs = Arc::clone(&jobs);
            let reactors = Arc::clone(&reactors_shared);
            let core = Arc::clone(&core);
            let aggregator = Arc::clone(&aggregator);
            worker_threads.push(std::thread::spawn(move || {
                core.pinner().pin_current();
                crate::reactor::run_worker(jobs, reactors, core, aggregator)
            }));
        }

        let accept = {
            let reactors = Arc::clone(&reactors_shared);
            std::thread::spawn(move || accept_loop(listener, reactors, stop, seed))
        };
        Ok((
            Self {
                reactors,
                reactor_threads,
                jobs,
                worker_threads,
            },
            accept,
        ))
    }

    fn shutdown(&mut self) {
        for reactor in &self.reactors {
            reactor.request_shutdown();
        }
        self.join_all();
    }

    /// Graceful drain: the reactors keep running (and the workers keep
    /// executing their in-flight runs) until every connection is idle or
    /// `deadline` elapses, then everything joins.
    fn shutdown_within(&mut self, deadline: Duration) {
        let by = std::time::Instant::now() + deadline;
        for reactor in &self.reactors {
            reactor.request_drain(by);
        }
        self.join_all();
    }

    fn join_all(&mut self) {
        for handle in self.reactor_threads.drain(..) {
            let _ = handle.join();
        }
        // Workers stop only after the reactors exit: a draining reactor
        // depends on them to finish the runs it is waiting on.
        self.jobs.shutdown();
        for handle in self.worker_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: Incoming,
    reactors: Arc<Vec<Arc<crate::reactor::ReactorShared>>>,
    stop: Arc<AtomicBool>,
    seed: u64,
) {
    use crate::reactor::{Registration, Socket};

    let mut next_token: u64 = 1; // u64::MAX is the reactors' wake token
    loop {
        let socket: std::io::Result<Socket> = match &listener {
            Incoming::Tcp(l) => l.accept().and_then(|(s, _)| {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Ok(Socket::Tcp(s))
            }),
            Incoming::Unix(l) => l.accept().and_then(|(s, _)| {
                s.set_nonblocking(true)?;
                Ok(Socket::Unix(s))
            }),
        };
        if stop.load(Ordering::Acquire) {
            break;
        }
        let socket = match socket {
            Ok(socket) => socket,
            Err(_) => {
                // A persistent accept failure (e.g. EMFILE under fd
                // exhaustion) would otherwise busy-spin this loop at 100%
                // CPU; back off briefly before retrying.
                std::thread::sleep(ACCEPT_RETRY_DELAY);
                continue;
            }
        };
        let token = next_token;
        next_token += 1;
        reactors[(token as usize) % reactors.len()].register(Registration {
            socket,
            token,
            rng_seed: connection_seed(seed, token),
        });
    }
}

// ---------------------------------------------------------------------------
// Frame execution (run by the reactor workers).
// ---------------------------------------------------------------------------

/// Execute a run of frames from one connection, in order, and return the
/// encoded responses (one per frame, same order).
///
/// Consecutive `DRAW` frames coalesce into one fused two-level batch; a
/// lone `DRAW` rides the cross-connection [`DrawAggregator`]. Protocol and
/// selection errors are answered in-band, so this never fails — transport
/// problems are the caller's (the reactor's) concern.
pub(crate) fn execute_run(
    frames: &[Frame],
    core: &Arc<ServiceCore>,
    aggregator: &Arc<DrawAggregator>,
    rng: &Arc<Mutex<MersenneTwister64>>,
) -> Vec<u8> {
    let mut out = Vec::new();
    // Runs are serial per connection, so this lock is never contended.
    let mut rng = rng.lock().expect("connection rng poisoned");
    let telemetry = core.telemetry();
    let mut i = 0;
    while i < frames.len() {
        let started = Instant::now();
        // Coalesce a run of consecutive single draws into one fused batch.
        if frames[i].opcode == OpCode::Draw as u8 && frames[i].payload.is_empty() {
            let mut j = i + 1;
            while j < frames.len()
                && frames[j].opcode == OpCode::Draw as u8
                && frames[j].payload.is_empty()
            {
                j += 1;
            }
            let n = j - i;
            if n >= 2 {
                match core.draw_many(&mut *rng, n) {
                    Ok(indices) => {
                        for index in indices {
                            encode_ok(&mut out, &(index as u64).to_le_bytes());
                        }
                    }
                    Err(e) => {
                        let code = error_code(&e);
                        let message = e.to_string();
                        for _ in 0..n {
                            encode_err(&mut out, code, &message);
                        }
                    }
                }
                for _ in 0..n {
                    telemetry.record_request_span(started);
                }
                i = j;
                continue;
            }
        }
        execute_one(&frames[i], core, aggregator, &mut rng, &mut out);
        telemetry.record_request_span(started);
        i += 1;
    }
    out
}

/// Handle one decoded frame, appending its encoded response to `out`.
/// Protocol and selection errors are answered in-band.
fn execute_one(
    frame: &Frame,
    core: &Arc<ServiceCore>,
    aggregator: &Arc<DrawAggregator>,
    rng: &mut MersenneTwister64,
    out: &mut Vec<u8>,
) {
    let Some(opcode) = OpCode::from_u8(frame.opcode) else {
        encode_err(
            out,
            codes::PROTOCOL,
            &format!("unknown opcode {:#04x}", frame.opcode),
        );
        return;
    };
    // Decode-and-execute; any ServiceError becomes an in-band error frame.
    let outcome: Result<Vec<u8>, (u8, String)> = match opcode {
        OpCode::Draw => aggregator
            .draw()
            .map(|index| (index as u64).to_le_bytes().to_vec())
            .map_err(|e| (error_code(&e), e.to_string())),
        OpCode::DrawBatch => decode_count(&frame.payload).and_then(|count| {
            core.draw_many(rng, count as usize)
                .map(|indices| {
                    let mut payload = Vec::with_capacity(4 + 8 * indices.len());
                    payload.extend_from_slice(&count.to_le_bytes());
                    for index in indices {
                        payload.extend_from_slice(&(index as u64).to_le_bytes());
                    }
                    payload
                })
                .map_err(|e| (error_code(&e), e.to_string()))
        }),
        OpCode::Update => decode_update(&frame.payload).and_then(|(index, weight)| {
            core.update(index, weight)
                .map(|()| Vec::new())
                .map_err(|e| (error_code(&e), e.to_string()))
        }),
        OpCode::UpdateBatch => decode_update_batch(&frame.payload).and_then(|updates| {
            core.update_many(&updates)
                .map(|()| Vec::new())
                .map_err(|e| (error_code(&e), e.to_string()))
        }),
        OpCode::Scale => decode_scale(&frame.payload).and_then(|factor| {
            core.scale_all(factor)
                .map(|()| Vec::new())
                .map_err(|e| (error_code(&e), e.to_string()))
        }),
        OpCode::Publish => core
            .publish_all()
            .map(|versions| {
                let mut payload = Vec::with_capacity(4 + 8 * versions.len());
                payload.extend_from_slice(&(versions.len() as u32).to_le_bytes());
                for version in versions {
                    payload.extend_from_slice(&version.to_le_bytes());
                }
                payload
            })
            .map_err(|e| (error_code(&e), e.to_string())),
        OpCode::Totals => {
            let totals = core.shard_totals();
            let mut payload = Vec::with_capacity(4 + 8 * totals.len());
            payload.extend_from_slice(&(totals.len() as u32).to_le_bytes());
            for total in totals {
                payload.extend_from_slice(&total.to_bits().to_le_bytes());
            }
            Ok(payload)
        }
        OpCode::Metrics => Ok(core.metrics().to_json().into_bytes()),
    };
    match outcome {
        Ok(payload) => encode_ok(out, &payload),
        Err((code, message)) => encode_err(out, code, &message),
    }
}

fn decode_count(payload: &[u8]) -> Result<u32, (u8, String)> {
    let mut cursor = Cursor::new(payload);
    let count = cursor
        .u32()
        .and_then(|c| cursor.done().map(|()| c))
        .map_err(|e| (codes::PROTOCOL, e.to_string()))?;
    if count > MAX_BATCH {
        return Err((
            codes::PROTOCOL,
            format!("batch count {count} exceeds {MAX_BATCH}"),
        ));
    }
    Ok(count)
}

fn decode_update(payload: &[u8]) -> Result<(usize, f64), (u8, String)> {
    fn inner(payload: &[u8]) -> Result<(usize, f64), crate::error::ServiceError> {
        let mut cursor = Cursor::new(payload);
        let index = cursor.u64()? as usize;
        let weight = cursor.f64()?;
        cursor.done()?;
        Ok((index, weight))
    }
    inner(payload).map_err(|e| (codes::PROTOCOL, e.to_string()))
}

fn decode_update_batch(payload: &[u8]) -> Result<Vec<(usize, f64)>, (u8, String)> {
    fn inner(payload: &[u8]) -> Result<Vec<(usize, f64)>, crate::error::ServiceError> {
        let mut cursor = Cursor::new(payload);
        let count = cursor.u32()?;
        if count > MAX_BATCH {
            return Err(crate::error::ServiceError::Protocol(format!(
                "batch count {count} exceeds {MAX_BATCH}"
            )));
        }
        let mut updates = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let index = cursor.u64()? as usize;
            let weight = cursor.f64()?;
            updates.push((index, weight));
        }
        cursor.done()?;
        Ok(updates)
    }
    inner(payload).map_err(|e| (codes::PROTOCOL, e.to_string()))
}

fn decode_scale(payload: &[u8]) -> Result<f64, (u8, String)> {
    fn inner(payload: &[u8]) -> Result<f64, crate::error::ServiceError> {
        let mut cursor = Cursor::new(payload);
        let factor = cursor.f64()?;
        cursor.done()?;
        Ok(factor)
    }
    inner(payload).map_err(|e| (codes::PROTOCOL, e.to_string()))
}
