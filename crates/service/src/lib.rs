//! # lrb-service — the sharded selection service
//!
//! The ROADMAP's serving layer one level up from `lrb-engine`: the
//! category space is partitioned across N [`SelectionEngine`] shards
//! (one writer thread per shard), cross-shard draws run as a **two-level
//! selection** through the shared [`lrb_core::sharding`] layer — a Fenwick
//! prefix tree over the lock-free per-shard totals picks the shard, the
//! shard's own snapshot draw finishes inside it — and a request layer
//! fronts the whole thing: a length-prefixed binary protocol over TCP or
//! Unix-domain sockets served by hand-rolled **epoll reactor threads**
//! (raw syscalls, no async runtime, no thread-per-connection — see
//! [`server`] for the sizing and backpressure knobs). Each reactor runs
//! every request it reads to completion on its own thread, drawing from
//! the connection's own RNG stream; pipelined runs of draws on a
//! connection coalesce into one fused batch.
//!
//! The crate is **Linux-only**: the reactor is built on `epoll`, and a
//! build for any other target stops with a compile error. The library
//! crates below it (`lrb-core`, `lrb-engine`, `lrb-dynamic`,
//! `lrb-durable`, …) stay portable.
//!
//! * [`ShardedService`] / [`ServiceCore`] — the in-process sharded core:
//!   partitioning, two-level draws, cross-shard atomic update batches,
//!   per-shard publisher threads, merged metrics. Batched draws run
//!   through the versioned **parallel batch planner** (see [`sharded`]'s
//!   module docs): one master draw, per-shard Philox substreams,
//!   reusable [`DrawPlan`] scratch and a persistent fan-out pool —
//!   bit-deterministic at any lane count and allocation-free once warm.
//! * [`DrawAggregator`] — flat combining for in-process single draws
//!   from many threads (the server does not use it).
//! * [`ServiceServer`] / [`ServiceClient`] — the wire layer (see
//!   [`protocol`] for the frame format).
//! * [`ServiceTelemetry`] — request/draw/update histograms, routing
//!   journal, shard-imbalance gauge; merged with each shard's engine
//!   telemetry by [`ServiceCore::metrics`].
//!
//! ## Quickstart (in-process)
//!
//! ```
//! use lrb_service::{ServiceConfig, ShardedService};
//! use lrb_rng::{MersenneTwister64, SeedableSource};
//!
//! let service = ShardedService::new(
//!     vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
//!     ServiceConfig { shards: 3, ..ServiceConfig::default() },
//! )?;
//! let mut rng = MersenneTwister64::seed_from_u64(7);
//! let pick = service.draw(&mut rng)?;
//! assert!(pick < 6);
//!
//! service.update(0, 9.0)?;          // enqueued on shard 0
//! service.publish_all()?;           // all shards publish, totals refresh
//! assert_eq!(service.shard_totals().iter().sum::<f64>(), 29.0);
//! # Ok::<(), lrb_core::SelectionError>(())
//! ```
//!
//! [`SelectionEngine`]: lrb_engine::SelectionEngine

// Unsafe is denied crate-wide; the audited exceptions opt back in with a
// module-level `#![allow(unsafe_code)]` — the same audited-island idiom
// as `lrb-obs`'s ring. Two islands exist: the raw epoll/eventfd syscall
// surface in `reactor::sys` and the scoped job hand-off in `fanout::job`
// (see each module's safety notes).
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("lrb-service runs on Linux only: its reactor is built on epoll");

pub mod aggregator;
pub mod client;
mod conn;
pub mod error;
mod fanout;
pub mod protocol;
mod reactor;
pub mod server;
pub mod sharded;
pub mod telemetry;

pub use aggregator::DrawAggregator;
pub use client::{ClientConfig, ClientStats, ServiceClient};
pub use error::ServiceError;
pub use server::{ServerAddr, ServerConfig, ServiceServer};
pub use sharded::{DrawPlan, ServiceConfig, ServiceCore, ShardedService, ROUTE_LAYOUT_VERSION};
pub use telemetry::{ServiceEvent, ServiceTelemetry, SERVICE_JOURNAL_CAPACITY};
