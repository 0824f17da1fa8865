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
//! * [`cli`] — a tiny argument parser shared by the three experiment
//!   binaries (`table1`, `table2`, `theorem1`).
//! * [`dynamic_workload`] — the shared mutate-and-sample churn workload
//!   behind the dynamic benches and the `dynamic_updates` example.
//! * [`engine_workload`] — the closed-loop reader/writer throughput driver
//!   for the `lrb-engine` serving layer, behind the `engine_quick` gate and
//!   the `BENCH_engine.json` baseline.
//! * [`service_workload`] — the **open-loop** socket load driver for the
//!   `lrb-service` sharded selection service, behind the `service_quick`
//!   gate and the `BENCH_service.json` baseline. Latency is measured from
//!   each request's *scheduled* issue time, so queueing delay is charged to
//!   the service instead of being hidden by coordinated omission.
//! * [`gate`] — the [`GateMargin`](gate::GateMargin) record every quick
//!   binary embeds in its `BENCH_*.json`: measured value, threshold and
//!   headroom ratio per gate, so flake investigations start from numbers.
//!
//! The Criterion benches under `benches/` cover the supplementary wall-clock
//! comparisons and the ablations listed in `DESIGN.md`.

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
