//! Load generation and the measurement harness — the paper's Section 3.3.
//!
//! The paper drives every function with Vegeta at **30 requests per second
//! with exponentially distributed inter-arrival times for ten minutes** per
//! memory size, orchestrated by a Go measurement harness that parallelizes
//! experiments; case studies use **ten measurement repetitions as randomized
//! multiple interleaved trials** (Abedi & Brecht, ICPE'17). Interleaving
//! guards against drift in a shared cloud; simulated experiments share no
//! state, so a repetition here is one more independently seeded experiment
//! and run order cannot bias a result. This crate is the Rust equivalent
//! against the simulated platform:
//!
//! * [`arrival`] — open-loop arrival processes (Poisson and constant-rate).
//! * [`harness`] — [`run_experiment`]: one
//!   (function, memory size) performance test producing a
//!   [`Measurement`] (metric store + summary).
//! * [`parallel`] — [`measure_parallel`]: independent experiments fanned
//!   out through [`sizeless_engine::parallel`], with per-experiment RNG
//!   streams (deterministic regardless of thread interleaving).

pub mod arrival;
pub mod bursty;
pub mod harness;
pub mod parallel;

pub use arrival::{ArrivalKind, ArrivalProcess};
pub use bursty::{BurstyArrival, BurstySampler};
pub use harness::{run_experiment, ExperimentConfig, Measurement, MeasurementSummary};
pub use parallel::measure_parallel;
