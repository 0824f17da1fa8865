//! Service-level observability: request/draw/update latency histograms,
//! draw/update/connection counters, the shard-imbalance gauge and a
//! flight-recorder journal of rare events — shard publishes, totals
//! refreshes, slow-consumer disconnects and drains. Routed draws are
//! counted per shard (`lrb_service_shard<N>_routed_draws_total`), not
//! journaled, so draw traffic never evicts those events.
//!
//! The per-shard engine telemetry stays inside each shard's
//! [`EngineTelemetry`](lrb_engine::EngineTelemetry);
//! [`ServiceCore::metrics`](crate::ServiceCore::metrics) merges its publish
//! and enqueue histograms into the service's [`MetricsSnapshot`] under
//! shard-prefixed names, so one scrape sees the whole two-level picture.
//!
//! [`MetricsSnapshot`]: lrb_obs::MetricsSnapshot

use std::time::Instant;

use lrb_obs::{Counter, FlightRecorder, Gauge, Histogram, HistogramSnapshot};

/// Ring capacity of the service journal (same depth as the engine's).
pub const SERVICE_JOURNAL_CAPACITY: usize = 256;

/// One service-layer event for the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceEvent {
    /// A shard republished its snapshot and refreshed its total cell.
    ShardPublish {
        /// The shard that published.
        shard: u32,
        /// The snapshot version it now serves.
        version: u64,
    },
    /// The level-one totals were re-read from every shard (stale-cut
    /// recovery or an explicit refresh).
    TotalsRefresh,
    /// A connection was disconnected by the slow-consumer policy: its
    /// outbound buffer exceeded the configured cap.
    SlowConsumer {
        /// The connection's reactor token.
        token: u64,
        /// Outbound bytes buffered when the cap tripped.
        buffered: u64,
    },
    /// One reactor finished a graceful drain
    /// ([`ServiceServer::shutdown_within`](crate::ServiceServer::shutdown_within)):
    /// it stopped reading and flushed buffered responses before closing.
    Drained {
        /// Connections the reactor held when the drain ended.
        conns: u64,
        /// Connections closed with responses still buffered because the
        /// drain deadline expired.
        abandoned: u64,
    },
}

/// Always-on service telemetry. Counters and histograms are lock-free
/// (relaxed counter shards, atomic histogram buckets); the journal takes a
/// mutex, but only rare events write it, never a draw.
#[derive(Debug)]
pub struct ServiceTelemetry {
    /// End-to-end request handling latency (decode → dispatch → encode).
    request_ns: Histogram,
    /// Per-draw service latency (two-level pick + in-shard draw, amortised
    /// per draw for batches).
    draw_ns: Histogram,
    /// Update/scale enqueue latency at the service layer.
    update_ns: Histogram,
    /// Draws served, single and batched alike.
    draws: Counter,
    /// Weight updates accepted.
    updates: Counter,
    /// Shard publishes performed through the service.
    publishes: Counter,
    /// Coalesced batches executed by a [`DrawAggregator`]; the server
    /// never uses one, so wire traffic leaves this at 0.
    ///
    /// [`DrawAggregator`]: crate::DrawAggregator
    batches: Counter,
    /// Single-draw requests that rode in an aggregator batch.
    batched_draws: Counter,
    /// Batches routed through the parallel draw planner.
    planner_batches: Counter,
    /// Max-over-mean of the per-shard totals (1.0 = perfectly balanced).
    imbalance: Gauge,
    /// Connections accepted and registered with a reactor.
    connects: Counter,
    /// Connections closed (any reason).
    disconnects: Counter,
    /// Readiness passes that stopped at the per-pass frame cap
    /// (`inflight_budget`) with the socket possibly holding more.
    read_deferrals: Counter,
    /// Connections disconnected by the slow-consumer outbound cap.
    slow_consumer_disconnects: Counter,
    /// Frames executed per readiness pass (how deep pipelining actually
    /// runs).
    submit_depth: Histogram,
    /// Last-`SERVICE_JOURNAL_CAPACITY` service events.
    journal: FlightRecorder<ServiceEvent>,
}

impl Default for ServiceTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceTelemetry {
    /// Fresh, empty telemetry.
    pub fn new() -> Self {
        Self {
            request_ns: Histogram::new(),
            draw_ns: Histogram::new(),
            update_ns: Histogram::new(),
            draws: Counter::new(),
            updates: Counter::new(),
            publishes: Counter::new(),
            batches: Counter::new(),
            batched_draws: Counter::new(),
            planner_batches: Counter::new(),
            imbalance: Gauge::new(),
            connects: Counter::new(),
            disconnects: Counter::new(),
            read_deferrals: Counter::new(),
            slow_consumer_disconnects: Counter::new(),
            submit_depth: Histogram::new(),
            journal: FlightRecorder::new(SERVICE_JOURNAL_CAPACITY),
        }
    }

    /// Record one handled request end-to-end.
    pub(crate) fn record_request_span(&self, started: Instant) {
        self.request_ns.record_span(started);
    }

    /// Record `draws` draws that together took `elapsed_ns` (amortised).
    pub(crate) fn record_draws(&self, draws: u64, elapsed_ns: u64) {
        if draws == 0 {
            return;
        }
        self.draws.add(draws);
        self.draw_ns.record(elapsed_ns / draws);
    }

    /// Record `updates` accepted weight updates that took one span.
    pub(crate) fn record_updates(&self, updates: u64, started: Instant) {
        self.updates.add(updates);
        self.update_ns.record_span(started);
    }

    /// Record one shard publish.
    pub(crate) fn record_publish(&self, shard: u32, version: u64) {
        self.publishes.incr();
        self.journal
            .push(ServiceEvent::ShardPublish { shard, version });
    }

    /// Record one aggregator batch of `draws` single-draw requests.
    pub(crate) fn record_batch(&self, draws: u64) {
        self.batches.incr();
        self.batched_draws.add(draws);
    }

    /// Record one batch routed through the parallel draw planner.
    pub(crate) fn record_planner_batch(&self) {
        self.planner_batches.incr();
    }

    /// Record a full totals refresh.
    pub(crate) fn record_refresh(&self) {
        self.journal.push(ServiceEvent::TotalsRefresh);
    }

    /// Record one accepted connection.
    pub(crate) fn record_connect(&self) {
        self.connects.incr();
    }

    /// Record one closed connection (any reason).
    pub(crate) fn record_disconnect(&self) {
        self.disconnects.incr();
    }

    /// Record one readiness pass that stopped at the frame cap.
    pub(crate) fn record_read_deferral(&self) {
        self.read_deferrals.incr();
    }

    /// Journal one reactor's finished graceful drain.
    pub(crate) fn record_drained(&self, conns: u64, abandoned: u64) {
        self.journal
            .push(ServiceEvent::Drained { conns, abandoned });
    }

    /// Record a slow-consumer disconnect and journal the reason.
    pub(crate) fn record_slow_consumer(&self, token: u64, buffered: u64) {
        self.slow_consumer_disconnects.incr();
        self.journal
            .push(ServiceEvent::SlowConsumer { token, buffered });
    }

    /// Record how many frames one readiness pass executed.
    pub(crate) fn record_submit_depth(&self, depth: u64) {
        self.submit_depth.record(depth);
    }

    /// Publish the shard-imbalance gauge from a totals cut.
    pub(crate) fn set_imbalance(&self, totals: &[f64]) {
        let sum: f64 = totals.iter().sum();
        if sum <= 0.0 || totals.is_empty() {
            self.imbalance.set(0.0);
            return;
        }
        let mean = sum / totals.len() as f64;
        let max = totals.iter().cloned().fold(0.0f64, f64::max);
        self.imbalance.set(max / mean);
    }

    /// End-to-end request latency distribution.
    pub fn request_latency(&self) -> HistogramSnapshot {
        self.request_ns.snapshot()
    }

    /// Amortised per-draw latency distribution.
    pub fn draw_latency(&self) -> HistogramSnapshot {
        self.draw_ns.snapshot()
    }

    /// Update enqueue latency distribution.
    pub fn update_latency(&self) -> HistogramSnapshot {
        self.update_ns.snapshot()
    }

    /// Draws served so far.
    pub fn draws(&self) -> u64 {
        self.draws.get()
    }

    /// Updates accepted so far.
    pub fn updates(&self) -> u64 {
        self.updates.get()
    }

    /// Shard publishes performed so far.
    pub fn publishes(&self) -> u64 {
        self.publishes.get()
    }

    /// Batches routed through the parallel draw planner so far.
    pub fn planner_batches(&self) -> u64 {
        self.planner_batches.get()
    }

    /// Aggregator batches so far (0 under wire traffic alone).
    pub fn batches(&self) -> u64 {
        self.batches.get()
    }

    /// Single draws served inside an aggregator batch.
    pub fn batched_draws(&self) -> u64 {
        self.batched_draws.get()
    }

    /// Current max-over-mean shard imbalance (1.0 = balanced, 0.0 = no
    /// mass anywhere).
    pub fn imbalance(&self) -> f64 {
        self.imbalance.get()
    }

    /// Connections accepted so far.
    pub fn connects(&self) -> u64 {
        self.connects.get()
    }

    /// Connections closed so far.
    pub fn disconnects(&self) -> u64 {
        self.disconnects.get()
    }

    /// Readiness passes so far that stopped at the per-pass frame cap
    /// (how often backpressure engaged).
    pub fn read_deferrals(&self) -> u64 {
        self.read_deferrals.get()
    }

    /// Slow-consumer disconnects so far.
    pub fn slow_consumer_disconnects(&self) -> u64 {
        self.slow_consumer_disconnects.get()
    }

    /// Distribution of frames executed per readiness pass.
    pub fn submit_depth(&self) -> HistogramSnapshot {
        self.submit_depth.snapshot()
    }

    /// The recent service events, oldest first.
    pub fn journal(&self) -> Vec<ServiceEvent> {
        self.journal.snapshot()
    }
}
