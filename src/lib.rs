//! # Sizeless
//!
//! A full Rust reproduction of *"Sizeless: Predicting the Optimal Size of
//! Serverless Functions"* (Eismann et al., Middleware 2021).
//!
//! Sizeless predicts the execution time of a serverless function at every
//! available memory size from monitoring data collected at a *single* memory
//! size, then recommends the optimal size under a configurable
//! cost/performance tradeoff. This crate re-exports the whole workspace:
//!
//! * [`engine`] — discrete-event simulation core (clock, events, RNG,
//!   distributions) and the deterministic parallel fan-out.
//! * [`platform`] — the serverless platform simulator standing in for AWS
//!   Lambda (resource model, pricing, cold starts, managed services).
//! * [`workload`] — load generation and the measurement harness.
//! * [`fleet`] — the cluster-level fleet simulator (invoker hosts,
//!   schedulers, keep-alive policies, concurrency throttling).
//! * [`funcgen`] — the synthetic function generator (16 segment types).
//! * [`telemetry`] — resource-consumption monitoring (the 25 Table-1
//!   metrics) and the metric-stability analysis.
//! * [`stats`] — Mann–Whitney U, Cliff's delta, regression metrics.
//! * [`neural`] — the from-scratch dense neural network used for
//!   multi-target regression.
//! * [`obs`] — deterministic observability: structured trace events,
//!   zero-cost sinks, a JSONL exporter, and virtual-time metrics folded
//!   from a trace.
//! * [`core`] — the Sizeless approach itself: dataset generation, feature
//!   engineering, the predictor, and the memory-size optimizer.
//! * [`apps`] — the four case-study applications (27 functions).
//!
//! # Quickstart
//!
//! ```no_run
//! use sizeless::core::trainer::{Trainer, TrainerConfig};
//! use sizeless::platform::Platform;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Train on a (small) synthetic dataset and optimize one function.
//! let mut cfg = TrainerConfig::default();
//! cfg.dataset.function_count = 100;
//! let sizer = Trainer::new(cfg).train(&Platform::aws_like())?;
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the binaries that regenerate every table and figure of the paper.

pub use sizeless_apps as apps;
pub use sizeless_core as core;
pub use sizeless_engine as engine;
pub use sizeless_fleet as fleet;
pub use sizeless_funcgen as funcgen;
pub use sizeless_neural as neural;
pub use sizeless_obs as obs;
pub use sizeless_platform as platform;
pub use sizeless_stats as stats;
pub use sizeless_telemetry as telemetry;
pub use sizeless_workload as workload;
