//! Cluster-level fleet simulation: invoker hosts, schedulers, keep-alive
//! policies, and concurrency throttling.
//!
//! The paper's limitations section names the scenario the single-function
//! harness cannot express: "the workload becomes substantially burstier,
//! which causes more cold starts". Cold starts, throttling, and wasted
//! memory only interact at the *cluster* level — finite hosts, placement
//! decisions, keep-alive windows, and concurrency caps. This crate is that
//! layer, built on `sizeless_engine`'s discrete-event core:
//!
//! * [`host`] — invoker [`Host`]s with finite memory,
//!   one shared [`WarmPool`](sizeless_platform::pool::WarmPool) per placed
//!   function, and LRU eviction under memory pressure.
//! * [`scheduler`] — pluggable placement ([`Scheduler`]): warm-first,
//!   least-loaded, round-robin, random-fit.
//! * [`keepalive`] — pluggable reclamation ([`KeepAlivePolicy`]):
//!   no-keepalive, fixed idle TTL, and a histogram-based adaptive policy.
//! * [`limits`] — per-function and account-wide concurrency caps with
//!   429-style throttling.
//! * [`fleet`] — the [`Fleet`]: [`Fleet::from_kinds`] assembles one from
//!   the built-in policies, and [`Fleet::run`] wires arrivals (Poisson or
//!   bursty, from `sizeless_workload`) through limits, scheduler, hosts,
//!   and completions, entirely as simulation events.
//!   [`Fleet::with_sizing`] additionally embeds an online
//!   [`SizingService`](sizeless_core::service::SizingService) whose resize
//!   directives are applied to the live cluster (old-size warm instances
//!   drain through the hosts' generational pools, new cold starts pay the
//!   new size's scaling laws and pricing) — the paper's offline/online
//!   loop, closed at fleet scale. [`Fleet::with_faults`] installs a fault
//!   plan with its retry policy, and [`Fleet::with_trace`] records every
//!   lifecycle event into a trace sink. A fleet is that sink plus one
//!   sink-free state, kept in one file per concern: the request path,
//!   fault state, the sizing loop, and the invariants and report.
//! * [`faults`] — the [`FaultPlan`] of host crashes, transient faults and
//!   region outages, and the [`RetryKind`] that answers a failed attempt.
//! * [`region`] — [`run_multi_region`]: several fleets sharing one sizing
//!   control plane, advanced in merged virtual-time order.
//! * [`stats`] — the [`FleetReport`]: raw
//!   [`FleetCounters`](sizeless_telemetry::FleetCounters) plus derived
//!   [`FleetMetrics`](sizeless_telemetry::FleetMetrics), and the
//!   before/after-resize [`RightsizingReport`] of closed-loop runs.
//!
//! Policy and knob sweeps run many independent fleets; they fan out through
//! [`sizeless_engine::parallel_map`], one fleet per job with its own seed,
//! so a sweep's reports are byte-identical at any thread count.
//!
//! The single-function measurement harness is the special case of a
//! one-host fleet with unbounded memory and no limits.
//!
//! # Examples
//!
//! ```
//! use sizeless_fleet::{
//!     Fleet, FleetArrival, FleetConfig, FleetFunction, KeepAliveKind, SchedulerKind,
//! };
//! use sizeless_platform::{FunctionConfig, MemorySize, Platform, ResourceProfile, Stage};
//! use sizeless_workload::{ArrivalProcess, BurstyArrival};
//!
//! let platform = Platform::aws_like();
//! let functions = vec![
//!     FleetFunction::new(
//!         FunctionConfig::new(
//!             ResourceProfile::builder("api").stage(Stage::cpu("work", 25.0)).build(),
//!             MemorySize::MB_512,
//!         ),
//!         FleetArrival::Steady(ArrivalProcess::poisson(15.0)),
//!     ),
//!     FleetFunction::new(
//!         FunctionConfig::new(
//!             ResourceProfile::builder("burst").stage(Stage::cpu("work", 40.0)).build(),
//!             MemorySize::MB_256,
//!         ),
//!         FleetArrival::Bursty(BurstyArrival::new(2.0, 40.0, 4_000.0, 1_000.0)),
//!     ),
//! ];
//!
//! // 4 hosts × 2 GB, 10 s of traffic, a per-function concurrency cap of 16.
//! let config = FleetConfig::new(4, 2048.0, 10_000.0, 0).with_function_limit(16);
//! let report = Fleet::from_kinds(
//!     &platform,
//!     &config,
//!     &functions,
//!     SchedulerKind::WarmFirst,
//!     KeepAliveKind::Adaptive,
//! )
//! .run();
//!
//! // Every request is accounted for: completed, in flight, or throttled.
//! assert!(report.counters.is_conserved());
//! assert!(report.counters.completed > 0);
//! // Rates derive from the counters: cold-start rate, throttle rate,
//! // host utilization, wasted memory-time.
//! assert!(report.metrics.cold_start_rate > 0.0);
//! assert!(report.metrics.utilization > 0.0);
//! ```

pub mod faults;
pub mod fleet;
pub mod host;
pub mod keepalive;
pub mod limits;
pub mod region;
pub mod scheduler;
pub mod stats;

pub use faults::{FaultPlan, RetryKind};
pub use fleet::{Fleet, FleetArrival, FleetConfig, FleetEvent, FleetFunction, FleetSim};
pub use host::{Host, Placement};
pub use keepalive::{AdaptiveKeepAlive, FixedTtl, KeepAliveKind, KeepAlivePolicy, NoKeepAlive};
pub use limits::ConcurrencyLimits;
pub use region::{
    run_multi_region, run_multi_region_faulted, run_multi_region_faulted_traced,
    MultiRegionOptions, MultiRegionReport, RegionReport, RegionSpec, WorkloadShift,
};
pub use scheduler::{LeastLoaded, RandomFit, RoundRobin, Scheduler, SchedulerKind, WarmFirst};
pub use stats::{FaultSummary, FleetReport, RightsizingReport};
