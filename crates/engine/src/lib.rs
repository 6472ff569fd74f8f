//! Discrete-event simulation engine underpinning the serverless platform
//! simulator.
//!
//! The Sizeless paper measured real AWS Lambda; this reproduction replaces the
//! cloud with a deterministic, seedable discrete-event simulation. This crate
//! provides the domain-independent core:
//!
//! * [`time`] — virtual time ([`SimTime`], [`SimDuration`]) in milliseconds.
//! * [`queue`] — a stable event queue ordered by `(time, sequence)`.
//! * [`rng`] — reproducible random-number streams derived from a master seed,
//!   so independent subsystems (arrivals, service latencies, noise) draw from
//!   decorrelated streams and experiments replay exactly.
//! * [`dist`] — the probability distributions used by the platform model:
//!   exponential inter-arrival times (the paper drives functions at 30 rps
//!   with exponentially distributed inter-arrival time) and lognormal
//!   latency noise.
//! * [`sim`] — a minimal simulation driver over typed, `Copy` events.
//! * [`parallel`] — [`parallel_map`], the deterministic fan-out of
//!   independent jobs (measurements, folds, grid points, fleet sweeps):
//!   bit-identical results at every thread count.
//!
//! # Examples
//!
//! ```
//! use sizeless_engine::dist::Exponential;
//! use sizeless_engine::RngStream;
//!
//! let mut rng = RngStream::from_seed(42, "arrivals");
//! let exp = Exponential::new(1.0 / 33.3).unwrap(); // ~30 rps
//! let gap = exp.sample(&mut rng);
//! assert!(gap > 0.0);
//! ```

pub mod dist;
pub mod parallel;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod time;

pub use parallel::parallel_map;
pub use queue::{EventQueue, QueueKind};
pub use rng::{box_muller, fnv1a, RngStream};
pub use sim::{SimEvent, SimStats, Simulation};
pub use time::{SimDuration, SimTime};
