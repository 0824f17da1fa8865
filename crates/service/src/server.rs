//! The request layer: an event-driven TCP/UDS server speaking the
//! length-prefixed binary protocol of [`crate::protocol`].
//!
//! The server runs [`ServerConfig::reactors`] epoll reactor threads (the
//! private `reactor` module) multiplexing every connection, and each
//! reactor executes the requests it reads itself — total thread count is
//! **O(reactors + shards)** regardless of how many connections are open.
//! Connections are nonblocking; idle ones cost nothing (no poll-loop
//! wakeups, no thread stacks).
//!
//! Request execution semantics per connection:
//!
//! * frames execute strictly in arrival order and responses are written in
//!   that order, so a pipelining client correlates by position;
//! * every draw comes from the connection's own server-side RNG stream,
//!   and a **run** of consecutive `DRAW` frames decoded in one readiness
//!   pass becomes a single two-level batch ([`ServiceCore::draw_into`]) —
//!   a lone `DRAW` is a run of one, and pipelined single draws get batch
//!   throughput automatically;
//! * one readiness pass decodes at most [`ServerConfig::inflight_budget`]
//!   frames per connection; the rest wait in the kernel socket buffer
//!   until the reactor's next turn (TCP flow control pushes back on the
//!   client);
//! * a connection whose buffered responses exceed
//!   [`ServerConfig::max_outbound_bytes`] is disconnected (slow-consumer
//!   policy) with a journaled [`ServiceEvent::SlowConsumer`] reason.
//!
//! [`ServiceEvent::SlowConsumer`]: crate::telemetry::ServiceEvent

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lrb_rng::MersenneTwister64;

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
/// one epoll registration and a couple of buffers, not a thread).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Reactor (event-loop) threads; `0` = `min(4, cores)`.
    pub reactors: usize,
    /// Max frames one readiness pass decodes and executes per connection;
    /// the rest wait in the kernel socket buffer for the next pass, so
    /// other connections on the reactor get a turn first.
    pub inflight_budget: usize,
    /// Max buffered outbound response bytes per connection before the
    /// slow-consumer policy disconnects it.
    pub max_outbound_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            reactors: 0,
            inflight_budget: 64,
            max_outbound_bytes: 16 << 20,
        }
    }
}

impl ServerConfig {
    /// The reactor-thread count after resolving the `0 = auto` default.
    pub fn resolved_reactors(&self) -> usize {
        if self.reactors > 0 {
            self.reactors
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4)
        }
    }

    /// Always 0: reactors execute every request themselves, so there is
    /// no worker pool. Kept because the end-to-end benchmark stamps it
    /// into each run's config line.
    pub fn resolved_workers(&self) -> usize {
        0
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
/// [`shutdown`](Self::shutdown)) stops the accept loop and the reactors,
/// closes every connection and, for UDS, removes the socket file.
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
        let (runtime, accept) = Runtime::start(core, listener, Arc::clone(&stop), seed, config)?;
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

    /// Stop accepting, wake and join the reactors, close every connection
    /// and clean up the socket. Also runs on drop.
    ///
    /// This is the *abrupt* path: connections close regardless of
    /// buffered responses and of requests still in the kernel socket
    /// buffers. For a graceful stop that flushes the answered requests'
    /// responses first, use [`shutdown_within`](Self::shutdown_within).
    pub fn shutdown(&mut self) {
        if self.stop_accepting() {
            self.runtime.shutdown();
            self.cleanup_socket();
        }
    }

    /// Gracefully drain and stop within `deadline`: stop accepting new
    /// connections, stop *reading* on existing ones, let every answered
    /// request's response flush, then close. Connections still holding
    /// unflushed responses when the deadline expires are closed anyway
    /// and counted as abandoned in the journaled
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
}

impl Runtime {
    fn start(
        core: Arc<ServiceCore>,
        listener: Incoming,
        stop: Arc<AtomicBool>,
        seed: u64,
        config: ServerConfig,
    ) -> std::io::Result<(Self, JoinHandle<()>)> {
        use crate::reactor::{ReactorContext, ReactorShared};

        let reactor_count = config.resolved_reactors();
        let mut reactors = Vec::with_capacity(reactor_count);
        for _ in 0..reactor_count {
            reactors.push(Arc::new(ReactorShared::new()?));
        }

        let mut reactor_threads = Vec::with_capacity(reactor_count);
        for shared in &reactors {
            let ctx = ReactorContext {
                shared: Arc::clone(shared),
                core: Arc::clone(&core),
                budget: config.inflight_budget.max(1),
                max_outbound: config.max_outbound_bytes.max(1),
            };
            reactor_threads.push(std::thread::spawn(move || crate::reactor::run_reactor(ctx)));
        }

        let accept = {
            let reactors = reactors.clone();
            std::thread::spawn(move || accept_loop(listener, reactors, stop, seed))
        };
        Ok((
            Self {
                reactors,
                reactor_threads,
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

    /// Graceful drain: the reactors keep running until every connection's
    /// responses are flushed or `deadline` elapses, then they join.
    fn shutdown_within(&mut self, deadline: Duration) {
        let by = Instant::now() + deadline;
        for reactor in &self.reactors {
            reactor.request_drain(by);
        }
        self.join_all();
    }

    fn join_all(&mut self) {
        for handle in self.reactor_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: Incoming,
    reactors: Vec<Arc<crate::reactor::ReactorShared>>,
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
// Frame execution (run inline on the reactor that read the frames).
// ---------------------------------------------------------------------------

/// Execute a run of frames from one connection, in order, encoding one
/// response per frame into `out`.
///
/// Each run of consecutive `DRAW` frames becomes one two-level batch of
/// that many slots from the connection's `rng`. Protocol and selection
/// errors are answered in-band, so this never fails — transport problems
/// are the caller's (the reactor's) concern.
pub(crate) fn execute_run(
    frames: &[Frame],
    core: &ServiceCore,
    rng: &mut MersenneTwister64,
    out: &mut Vec<u8>,
) {
    let telemetry = core.telemetry();
    let mut rest = frames;
    while let Some(frame) = rest.first() {
        let started = Instant::now();
        let draws = rest
            .iter()
            .take_while(|f| f.opcode == OpCode::Draw as u8)
            .count();
        let answered = if draws > 0 {
            execute_draws(draws, core, rng, out);
            draws
        } else {
            execute_one(frame, core, rng, out);
            1
        };
        for _ in 0..answered {
            telemetry.record_request_span(started);
        }
        rest = &rest[answered..];
    }
}

/// Answer `n` consecutive `DRAW` frames with one batch of `n` slots.
fn execute_draws(n: usize, core: &ServiceCore, rng: &mut MersenneTwister64, out: &mut Vec<u8>) {
    let mut slots = vec![0usize; n];
    match core.draw_into(rng, &mut slots) {
        Ok(()) => {
            for index in slots {
                encode_ok(out, &(index as u64).to_le_bytes());
            }
        }
        Err(e) => {
            let code = error_code(&e);
            let message = e.to_string();
            for _ in 0..n {
                encode_err(out, code, &message);
            }
        }
    }
}

/// Handle one decoded non-`DRAW` frame, appending its encoded response to
/// `out`. Protocol and selection errors are answered in-band.
fn execute_one(frame: &Frame, core: &ServiceCore, rng: &mut MersenneTwister64, out: &mut Vec<u8>) {
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
        OpCode::Draw => unreachable!("execute_run answers every DRAW in a run"),
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
