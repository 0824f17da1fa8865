//! # lrb-obs — telemetry primitives for the selection engine
//!
//! The serving layer (`lrb-engine`) makes regime claims — fused-kernel
//! speedups, patch-versus-rebuild crossovers, stochastic-acceptance
//! degradation under skew — that until now were only visible in offline
//! bench JSON. This crate is the in-process observability substrate that
//! makes the *running* engine explain itself: what its p999 sample latency
//! is, which backend is serving, and what each publish did.
//!
//! Everything is hand-rolled (no crates.io) and safe Rust; the recording
//! primitives are lock-free and built for hot paths:
//!
//! * [`Counter`] — a cache-padded, sharded monotone counter. Recording is
//!   one relaxed `fetch_add` on a per-thread shard (no shared line bounce);
//!   reads sum the shards. `const`-constructible, so kernel-level counters
//!   can live in `static`s with zero startup cost.
//! * [`Gauge`] — an `f64` gauge stored as atomic bits (set/get, relaxed).
//! * [`Histogram`] — a log2-bucketed latency histogram (16 sub-buckets per
//!   octave, ≤ 6.25 % relative bucket width) with atomic buckets for
//!   concurrent recording and quantile extraction ([`p50/p99/p999`]) from a
//!   consistent [`HistogramSnapshot`].
//! * [`FlightRecorder`] — a fixed-capacity, mutex-guarded ring journal of
//!   structured rare events (publishes, refreshes, disconnects); a
//!   post-hoc [`snapshot`] returns the last `capacity` events in order, so
//!   a misbehaving run can be explained after the fact.
//! * [`MetricsSnapshot`] — the export model: a consistent point-in-time
//!   collection of metric values rendered as Prometheus text exposition
//!   ([`to_prometheus`]) or a JSON object tree ([`to_json`]). "Consistent"
//!   means each metric is read exactly once into the snapshot (histograms
//!   copy their buckets before quantiles are taken); cross-metric skew is
//!   bounded by the collection pass, which takes no locks.
//!
//! [`p50/p99/p999`]: HistogramSnapshot::quantile
//! [`snapshot`]: FlightRecorder::snapshot
//! [`to_prometheus`]: MetricsSnapshot::to_prometheus
//! [`to_json`]: MetricsSnapshot::to_json
//!
//! ## Quickstart
//!
//! ```
//! use lrb_obs::{Counter, Histogram, MetricsSnapshot};
//!
//! static DRAWS: Counter = Counter::new();
//!
//! let latency = Histogram::new();
//! DRAWS.add(3);
//! latency.record(1_250); // ns
//! latency.record(980);
//!
//! let mut snapshot = MetricsSnapshot::new();
//! snapshot.counter("draws_total", "Draws served", DRAWS.get());
//! snapshot.histogram("draw_ns", "Per-draw latency", &latency.snapshot());
//! let text = snapshot.to_prometheus();
//! assert!(text.contains("draws_total 3"));
//! assert!(text.contains("draw_ns{quantile=\"0.5\"}"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod export;
pub mod histogram;
pub mod ring;

pub use counter::{CachePadded, Counter, Gauge};
pub use export::{MetricsSnapshot, Quantile};
pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use ring::FlightRecorder;
