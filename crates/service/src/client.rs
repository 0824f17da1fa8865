//! A blocking client for the selection service's binary protocol.
//!
//! One [`ServiceClient`] owns one connection. The simple methods
//! ([`draw`](ServiceClient::draw), [`update`](ServiceClient::update), …)
//! are strict request/response; the **pipelined** surface
//! ([`queue_draw`](ServiceClient::queue_draw) /
//! [`flush`](ServiceClient::flush) /
//! [`recv_draw`](ServiceClient::recv_draw), or the windowed
//! [`draw_pipelined`](ServiceClient::draw_pipelined)) keeps up to a
//! window of requests in flight on the one connection. The server
//! executes a connection's frames strictly in order and answers in that
//! order, so responses correlate by position — no message ids on the
//! wire. A run of consecutive pipelined draws is drawn server-side in one
//! planner call, and each draw is keyed by the connection and its request
//! ordinal, so the window does not change the answers.
//!
//! ## Fault tolerance
//!
//! With a [`ClientConfig`] (see
//! [`connect_with`](ServiceClient::connect_with)) the client survives a
//! flaky server: every request-level I/O failure drops the connection,
//! and **idempotent** operations — `DRAW`, `DRAW_BATCH`, `TOTALS`,
//! `METRICS` — are transparently retried on a fresh connection, up to
//! [`ClientConfig::retries`] times, reconnecting with capped exponential
//! backoff and seeded jitter. Mutating operations (`UPDATE`,
//! `UPDATE_BATCH`, `SCALE`, `PUBLISH`) are **never** retried: the failed
//! request may have been applied before the connection died, and
//! replaying it would double-apply the write. Those surface the error;
//! the *next* call reconnects.
//!
//! [`ClientConfig::deadline`] bounds every socket read and write, so a
//! hung server turns into a timeout error (counted in
//! [`ClientStats::timeouts`]) instead of a forever-blocked thread. The
//! default config keeps the legacy behavior: no deadline, no retries.
//!
//! A pipelined burst is *not* retried — its responses correlate by
//! position, and a reconnect would orphan every in-flight request — so
//! an I/O failure there resets the pipeline (queued and outstanding
//! requests are discarded) and surfaces the error.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use lrb_rng::{RandomSource, SplitMix64};

use crate::error::ServiceError;
use crate::protocol::{encode_request, parse_response, Cursor, FrameReader, OpCode, MAX_BATCH};
use crate::server::ServerAddr;

/// Fault-tolerance knobs for a [`ServiceClient`]. The default is the
/// legacy behavior: block forever, never retry, never reconnect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// Per-request I/O deadline: every socket read and write must
    /// complete within this budget or the request fails with a timeout
    /// (`None` blocks forever).
    pub deadline: Option<Duration>,
    /// How many times an **idempotent** request is retried on a fresh
    /// connection after an I/O failure (0 = never retry).
    pub retries: u32,
    /// Connect attempts per reconnect before giving up (at least 1).
    pub reconnect_attempts: u32,
    /// First reconnect backoff; doubles per failed attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seeds the backoff jitter, so a fleet of clients configured from
    /// the same template still de-synchronises its reconnect storms.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            deadline: None,
            retries: 0,
            reconnect_attempts: 1,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            seed: 0x5EED_C11E,
        }
    }
}

/// Monotone fault counters for one [`ServiceClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Idempotent requests re-sent after an I/O failure.
    pub retries: u64,
    /// Successful reconnects (the initial connect is not counted).
    pub reconnects: u64,
    /// Requests that failed by exceeding [`ClientConfig::deadline`].
    pub timeouts: u64,
}

enum Transport {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            Transport::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.write(buf),
            Transport::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Transport::Tcp(s) => s.flush(),
            Transport::Unix(s) => s.flush(),
        }
    }
}

/// A blocking connection to a [`ServiceServer`](crate::ServiceServer).
pub struct ServiceClient {
    /// Where to (re)connect. Kept so a dropped connection can be
    /// re-established without the caller's involvement.
    addr: ServerAddr,
    /// The live connection, or `None` after an I/O failure dropped it
    /// (the next request reconnects).
    transport: Option<Transport>,
    /// Request bytes not yet written: queued pipelined draws, or the one
    /// request a blocking call is sending. Reused for every request.
    obuf: Vec<u8>,
    /// Response bytes read but not yet decoded. One `read` may land many
    /// pipelined responses, and each decodes in place.
    ibuf: FrameReader,
    /// Requests sent (or queued) whose responses have not been received.
    outstanding: usize,
    config: ClientConfig,
    stats: ClientStats,
    /// Backoff jitter stream.
    jitter: SplitMix64,
}

impl std::fmt::Debug for ServiceClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.transport {
            Some(Transport::Tcp(_)) => "tcp",
            Some(Transport::Unix(_)) => "unix",
            None => "disconnected",
        };
        f.debug_struct("ServiceClient")
            .field("transport", &kind)
            .field("stats", &self.stats)
            .finish()
    }
}

impl ServiceClient {
    /// Connect over TCP with the default (legacy) [`ClientConfig`].
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> Result<Self, ServiceError> {
        // Resolve once so reconnects dial the same concrete address the
        // first connect used.
        let stream = TcpStream::connect(addr)?;
        let peer = stream.peer_addr()?;
        let config = ClientConfig::default();
        Self::apply_deadline_tcp(&stream, &config)?;
        Ok(Self::over(
            Transport::Tcp(stream),
            ServerAddr::Tcp(peer),
            config,
        ))
    }

    /// Connect over a Unix-domain socket with the default (legacy)
    /// [`ClientConfig`].
    pub fn connect_uds(path: impl AsRef<Path>) -> Result<Self, ServiceError> {
        Self::connect_with(
            &ServerAddr::Unix(path.as_ref().to_path_buf()),
            ClientConfig::default(),
        )
    }

    /// Connect to wherever a server reports it is listening.
    pub fn connect(addr: &ServerAddr) -> Result<Self, ServiceError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit fault-tolerance knobs (see the module docs).
    pub fn connect_with(addr: &ServerAddr, config: ClientConfig) -> Result<Self, ServiceError> {
        let transport = Self::open(addr, &config)?;
        Ok(Self::over(transport, addr.clone(), config))
    }

    fn over(transport: Transport, addr: ServerAddr, config: ClientConfig) -> Self {
        let jitter = SplitMix64::new(config.seed);
        Self {
            addr,
            transport: Some(transport),
            obuf: Vec::new(),
            ibuf: FrameReader::new(),
            outstanding: 0,
            config,
            stats: ClientStats::default(),
            jitter,
        }
    }

    /// Fault counters so far (retries, reconnects, timeouts).
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Whether a connection is currently established (false after an I/O
    /// failure, until the next request reconnects).
    pub fn is_connected(&self) -> bool {
        self.transport.is_some()
    }

    /// One connection attempt with the config's deadline applied.
    fn open(addr: &ServerAddr, config: &ClientConfig) -> Result<Transport, ServiceError> {
        match addr {
            ServerAddr::Tcp(addr) => {
                let stream = match config.deadline {
                    Some(deadline) => TcpStream::connect_timeout(addr, deadline)?,
                    None => TcpStream::connect(addr)?,
                };
                Self::apply_deadline_tcp(&stream, config)?;
                Ok(Transport::Tcp(stream))
            }
            ServerAddr::Unix(path) => {
                let stream = UnixStream::connect(path)?;
                stream.set_read_timeout(config.deadline)?;
                stream.set_write_timeout(config.deadline)?;
                Ok(Transport::Unix(stream))
            }
        }
    }

    fn apply_deadline_tcp(stream: &TcpStream, config: &ClientConfig) -> Result<(), ServiceError> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.deadline)?;
        stream.set_write_timeout(config.deadline)?;
        Ok(())
    }

    /// Drop the connection and reset the pipeline: after an I/O failure
    /// the positional response correlation is unrecoverable, so queued
    /// and outstanding requests are discarded with it.
    fn fail_connection(&mut self) {
        self.transport = None;
        self.obuf.clear();
        self.ibuf.clear();
        self.outstanding = 0;
    }

    /// The backoff before reconnect attempt `attempt` (1-based):
    /// exponential from the base, capped, with seeded jitter in
    /// `[50%, 100%]` of the nominal delay.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let nominal = self
            .config
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.config.backoff_cap);
        let unit = (self.jitter.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        nominal.mul_f64(0.5 + 0.5 * unit)
    }

    /// Reconnect if the connection is down, with capped exponential
    /// backoff between attempts.
    fn ensure_connected(&mut self) -> Result<(), ServiceError> {
        if self.transport.is_some() {
            return Ok(());
        }
        let attempts = self.config.reconnect_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            match Self::open(&self.addr, &self.config) {
                Ok(transport) => {
                    self.transport = Some(transport);
                    self.stats.reconnects += 1;
                    return Ok(());
                }
                Err(error) => {
                    attempt += 1;
                    if attempt >= attempts {
                        return Err(error);
                    }
                    std::thread::sleep(self.backoff(attempt));
                }
            }
        }
    }

    /// Whether a request may be replayed on a fresh connection: reads
    /// (draws are server-side RNG — a replay is just another draw) and
    /// metrics yes; anything that mutates pending batches, no.
    fn idempotent(opcode: OpCode) -> bool {
        matches!(
            opcode,
            OpCode::Draw | OpCode::DrawBatch | OpCode::Totals | OpCode::Metrics
        )
    }

    fn record_io_error(&mut self, error: &ServiceError) {
        if let ServiceError::Io(io) = error {
            if matches!(
                io.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                self.stats.timeouts += 1;
            }
        }
    }

    /// One request/response round trip: send `opcode` with `payload`, then
    /// decode the OK response's payload with `decode`. Idempotent requests
    /// are retried on a fresh connection after an I/O failure.
    fn call<T>(
        &mut self,
        opcode: OpCode,
        payload: &[u8],
        decode: impl Fn(&mut Cursor<'_>) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        // Interleaving a blocking call with un-received pipelined
        // responses would mis-correlate by position.
        if self.outstanding > 0 {
            return Err(ServiceError::Protocol(format!(
                "{} pipelined responses outstanding; recv them first",
                self.outstanding
            )));
        }
        let mut attempt = 0u32;
        loop {
            let result = self.try_call(opcode, payload, &decode);
            match result {
                Err(error @ ServiceError::Io(_)) => {
                    self.record_io_error(&error);
                    self.fail_connection();
                    if Self::idempotent(opcode) && attempt < self.config.retries {
                        attempt += 1;
                        self.stats.retries += 1;
                        continue;
                    }
                    return Err(error);
                }
                other => return other,
            }
        }
    }

    fn try_call<T>(
        &mut self,
        opcode: OpCode,
        payload: &[u8],
        decode: impl FnOnce(&mut Cursor<'_>) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        self.ensure_connected()?;
        encode_request(&mut self.obuf, opcode, payload);
        let transport = self.transport.as_mut().expect("just connected");
        let sent = transport.write_all(&self.obuf);
        self.obuf.clear();
        sent?;
        self.recv(decode)
    }

    /// Receive the next response and decode its OK payload with `decode`,
    /// which must consume all of it. Reads only while no whole response is
    /// buffered. An `Io` error leaves the stream unusable (the caller drops
    /// the connection); any other outcome consumed exactly one response.
    fn recv<T>(
        &mut self,
        decode: impl FnOnce(&mut Cursor<'_>) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let transport = self.transport.as_mut().expect("recv on a live connection");
        while self.ibuf.run(1)?.len() == 0 {
            self.ibuf.fill(transport)?;
        }
        let mut run = self.ibuf.run(1)?;
        let bytes = run.wire_len();
        let body = run.next().expect("a whole response is buffered");
        let result = parse_response(body).and_then(|payload| {
            let mut cursor = Cursor::new(payload);
            let value = decode(&mut cursor)?;
            cursor.done()?;
            Ok(value)
        });
        self.ibuf.consume(bytes);
        result
    }

    // --- pipelined surface -------------------------------------------------

    /// Queue one `DRAW` without awaiting its response. Call
    /// [`flush`](Self::flush) to put queued requests on the wire and
    /// [`recv_draw`](Self::recv_draw) once per queued draw, in order.
    pub fn queue_draw(&mut self) {
        encode_request(&mut self.obuf, OpCode::Draw, &[]);
        self.outstanding += 1;
    }

    /// Write every queued request to the socket (one syscall for the
    /// whole burst when the kernel accepts it). An I/O failure resets
    /// the pipeline (see the module docs).
    pub fn flush(&mut self) -> Result<(), ServiceError> {
        if self.obuf.is_empty() {
            return Ok(());
        }
        if let Err(error) = self.ensure_connected() {
            self.fail_connection();
            return Err(error);
        }
        let transport = self.transport.as_mut().expect("just connected");
        match transport.write_all(&self.obuf) {
            Ok(()) => {
                self.obuf.clear();
                Ok(())
            }
            Err(error) => {
                let error = ServiceError::Io(error);
                self.record_io_error(&error);
                self.fail_connection();
                Err(error)
            }
        }
    }

    /// Receive the next pipelined `DRAW` response, in queue order. Flushes
    /// queued requests first so a caller cannot deadlock waiting on a
    /// request that never left. An I/O failure resets the pipeline.
    pub fn recv_draw(&mut self) -> Result<usize, ServiceError> {
        if self.outstanding == 0 {
            return Err(ServiceError::Protocol(
                "recv_draw without an outstanding pipelined draw".into(),
            ));
        }
        self.flush()?;
        // Any non-transport outcome (OK, Remote error, bad status byte)
        // consumed a whole response frame, so the position-based
        // correlation must advance even on Err. A transport failure
        // instead kills the correlation for good — drop the connection and
        // the pipeline with it.
        match self.recv(|cursor| cursor.u64()) {
            Err(error @ ServiceError::Io(_)) => {
                self.record_io_error(&error);
                self.fail_connection();
                Err(error)
            }
            result => {
                self.outstanding -= 1;
                Ok(result? as usize)
            }
        }
    }

    /// Requests queued or sent whose responses have not been received.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// `count` draws with up to `window` requests in flight: the windowed
    /// pipelined mode. One connection, no round-trip-per-draw stall —
    /// consecutive in-flight draws are also drawn server-side in one
    /// planner call, so this is the cheapest way to stream single draws.
    /// Each index depends on the connection, the request's ordinal and
    /// the shards' snapshots, never on the window.
    pub fn draw_pipelined(
        &mut self,
        count: usize,
        window: usize,
    ) -> Result<Vec<usize>, ServiceError> {
        let window = window.max(1);
        let mut indices = Vec::with_capacity(count);
        let mut sent = 0usize;
        while indices.len() < count {
            let in_flight = sent - indices.len();
            let burst = (count - sent).min(window - in_flight);
            for _ in 0..burst {
                self.queue_draw();
            }
            sent += burst;
            indices.push(self.recv_draw()?);
        }
        Ok(indices)
    }

    /// One draw, keyed by this connection and the request's ordinal on it.
    pub fn draw(&mut self) -> Result<usize, ServiceError> {
        self.call(OpCode::Draw, &[], |cursor| Ok(cursor.u64()? as usize))
    }

    /// `count` draws in one round trip (`count <= MAX_BATCH`).
    pub fn draw_batch(&mut self, count: u32) -> Result<Vec<usize>, ServiceError> {
        if count > MAX_BATCH {
            return Err(ServiceError::Protocol(format!(
                "batch count {count} exceeds {MAX_BATCH}"
            )));
        }
        self.call(OpCode::DrawBatch, &count.to_le_bytes(), |cursor| {
            let returned = cursor.u32()?;
            if returned != count {
                return Err(ServiceError::Protocol(format!(
                    "asked for {count} draws, server answered {returned}"
                )));
            }
            let mut indices = Vec::with_capacity(returned as usize);
            for _ in 0..returned {
                indices.push(cursor.u64()? as usize);
            }
            Ok(indices)
        })
    }

    /// Enqueue one weight override (visible after the owning shard's next
    /// publish). Never retried (see the module docs).
    pub fn update(&mut self, index: usize, weight: f64) -> Result<(), ServiceError> {
        let mut payload = [0u8; 16];
        payload[..8].copy_from_slice(&(index as u64).to_le_bytes());
        payload[8..].copy_from_slice(&weight.to_bits().to_le_bytes());
        self.call(OpCode::Update, &payload, |_| Ok(()))
    }

    /// Enqueue a batch of overrides, all-or-nothing across shards. Never
    /// retried (see the module docs).
    pub fn update_many(&mut self, updates: &[(usize, f64)]) -> Result<(), ServiceError> {
        if updates.len() as u64 > MAX_BATCH as u64 {
            return Err(ServiceError::Protocol(format!(
                "batch count {} exceeds {MAX_BATCH}",
                updates.len()
            )));
        }
        let mut payload = Vec::with_capacity(4 + 16 * updates.len());
        payload.extend_from_slice(&(updates.len() as u32).to_le_bytes());
        for &(index, weight) in updates {
            payload.extend_from_slice(&(index as u64).to_le_bytes());
            payload.extend_from_slice(&weight.to_bits().to_le_bytes());
        }
        self.call(OpCode::UpdateBatch, &payload, |_| Ok(()))
    }

    /// Fold one multiplicative scale into every shard's pending batch.
    /// Never retried (see the module docs).
    pub fn scale_all(&mut self, factor: f64) -> Result<(), ServiceError> {
        self.call(OpCode::Scale, &factor.to_bits().to_le_bytes(), |_| Ok(()))
    }

    /// Publish every shard; returns the per-shard snapshot versions.
    /// Never retried (see the module docs).
    pub fn publish(&mut self) -> Result<Vec<u64>, ServiceError> {
        self.call(OpCode::Publish, &[], |cursor| {
            let shards = cursor.u32()?;
            (0..shards).map(|_| cursor.u64()).collect()
        })
    }

    /// The per-shard published total weights.
    pub fn totals(&mut self) -> Result<Vec<f64>, ServiceError> {
        self.call(OpCode::Totals, &[], |cursor| {
            let shards = cursor.u32()?;
            (0..shards).map(|_| cursor.f64()).collect()
        })
    }

    /// The server's merged metrics document (JSON).
    pub fn metrics_json(&mut self) -> Result<String, ServiceError> {
        self.call(OpCode::Metrics, &[], |cursor| {
            String::from_utf8(cursor.rest().to_vec())
                .map_err(|_| ServiceError::Protocol("metrics document is not UTF-8".into()))
        })
    }
}
