//! # ae-bench — benchmark and experiment harness
//!
//! Entry points:
//!
//! * the `experiments` binary regenerates every table and figure of the
//!   paper's evaluation section (`cargo run -p ae-bench --release --bin
//!   experiments -- all`), printing the same rows/series the paper reports;
//! * eight `bench_*` drivers, each with a `--smoke` gate that CI runs and a
//!   `--json PATH` report: `bench_inference` (compiled vs interpreted
//!   forest), `bench_serving` (the scoring runtime against one-at-a-time
//!   serving), `bench_qos` (service levels under open-loop load),
//!   `bench_generalization` (the cross-family accuracy matrix),
//!   `bench_faults` (preemption sweep and the breaker drill), `bench_obs`
//!   (trace capture/replay and observability overhead), `bench_fleet`
//!   (sharded throughput and work stealing) and `bench_resilience` (a shard
//!   failure lifecycle). They share one [`harness`]: flag parser, trained
//!   fixture, closed-loop driver, report writer and smoke gate.
//!
//! [`context::ExperimentContext`] caches the expensive shared inputs
//! (training data, ground-truth runs) so `all` does not recompute them per
//! experiment.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod context;
pub mod experiments;
pub mod harness;
pub mod table;
