//! # lrb-bench — the experiment harness
//!
//! Everything needed to regenerate the paper's evaluation:
//!
//! * [`probability_table`] — runs the Monte-Carlo probability experiments
//!   behind **Table I** and **Table II**: for a fitness workload and a trial
//!   budget, it tabulates the exact `F_i`, the analytic independent-roulette
//!   probability, and the empirical frequencies of the independent roulette
//!   and the logarithmic random bidding.
//! * [`theorem1`] — measures the while-loop iteration count and shared-memory
//!   footprint of the CRCW logarithmic bidding as a function of `k`, the
//!   number of non-zero fitness values (the quantity bounded by Theorem 1).
//! * [`cli`] — a tiny `--key value` argument parser shared by the
//!   binaries.
//! * [`dynamic_workload`] — the shared mutate-and-sample churn workload
//!   behind the dynamic benches and the `dynamic_updates` example.
//! * [`engine_workload`] — the closed-loop reader/writer throughput driver
//!   for the `lrb-engine` serving layer, behind the `engine_quick` report
//!   (`BENCH_engine.json`).
//! * [`publish_workload`] and [`selector_workload`] — the rebuild/patch
//!   and selector drivers behind `publish_quick` and `selector_quick`.
//! * [`service_workload`] — serialized against pipelined draws on one
//!   connection, behind the `service_quick` report (`BENCH_service.json`).
//! * [`gate`] — the one gate rule of the `*_quick` binaries: each timing
//!   gate reads the median of [`GATE_PAIRS`](gate::GATE_PAIRS) pairs whose
//!   arm order flips every pair, against a constant threshold 0.8–1.0× of
//!   the median recorded on the 2-vCPU recording host, and
//!   [`verdict`](gate::verdict) turns the margins into the exit code.
//!
//! The Criterion benches under `benches/` cover the supplementary
//! wall-clock comparisons and ablations (bid formula, uniform source,
//! prepared samplers, update churn); they time, they do not gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod dynamic_workload;
pub mod engine_workload;
pub mod gate;
pub mod probability_table;
pub mod publish_workload;
pub mod selector_workload;
pub mod service_workload;
pub mod theorem1;

pub use probability_table::{run_probability_experiment, ProbabilityReport, SelectorColumn};
pub use theorem1::{run_theorem1_experiment, Theorem1Report, Theorem1Row};
