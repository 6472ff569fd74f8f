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
//! * [`fleet`] — the façade: [`run_fleet`] wires arrivals (Poisson or
//!   bursty, from `sizeless_workload`) through limits, scheduler, hosts,
//!   and completions, entirely as simulation events;
//!   [`run_rightsized_fleet`] additionally embeds an online
//!   [`SizingService`](sizeless_core::service::SizingService) whose resize
//!   directives are applied to the live cluster (old-size warm instances
//!   drain through the hosts' generational pools, new cold starts pay the
//!   new size's scaling laws and pricing) — the paper's offline/online
//!   loop, closed at fleet scale.
//! * [`stats`] — the [`FleetReport`]: raw
//!   [`FleetCounters`](sizeless_telemetry::FleetCounters) plus derived
//!   [`FleetMetrics`](sizeless_telemetry::FleetMetrics), and the
//!   before/after-resize [`RightsizingReport`] of closed-loop runs.
//!
//! The single-function measurement harness is the special case of a
//! one-host fleet with unbounded memory and no limits.
//!
//! # Examples
//!
//! ```
//! use sizeless_fleet::prelude::*;
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
//! let report = run_fleet(
//!     &platform,
//!     &config,
//!     &functions,
//!     SchedulerKind::WarmFirst,
//!     KeepAliveKind::Adaptive,
//! );
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
pub mod sweep;

/// Re-exports of the most used fleet items.
pub mod prelude {
    pub use crate::faults::{FaultPlan, RetryKind};
    pub use crate::fleet::{
        run_faulted_fleet, run_fleet, run_rightsized_fleet, Fleet, FleetArrival, FleetConfig,
        FleetEvent, FleetFunction, FleetSim,
    };
    pub use crate::host::{Host, Placement};
    pub use crate::keepalive::{
        AdaptiveKeepAlive, FixedTtl, KeepAliveKind, KeepAlivePolicy, NoKeepAlive,
    };
    pub use crate::limits::{ConcurrencyLimits, ThrottleReason};
    pub use crate::region::{
        run_multi_region, run_multi_region_faulted, MultiRegionOptions, MultiRegionReport,
        RegionReport, RegionSpec, WorkloadShift,
    };
    pub use crate::scheduler::{
        LeastLoaded, RandomFit, RoundRobin, Scheduler, SchedulerKind, WarmFirst,
    };
    pub use crate::stats::{FaultSummary, FleetReport, RightsizingReport};
    pub use crate::sweep::{run_fleet_sweep, sweep, FleetJob};
}

pub use faults::{FaultPlan, RetryKind};
pub use fleet::{
    run_faulted_fleet, run_fleet, run_rightsized_fleet, Fleet, FleetArrival, FleetConfig,
    FleetEvent, FleetFunction, FleetSim,
};
pub use host::{Host, Placement};
pub use keepalive::{AdaptiveKeepAlive, FixedTtl, KeepAliveKind, KeepAlivePolicy, NoKeepAlive};
pub use limits::{ConcurrencyLimits, ThrottleReason};
pub use region::{
    run_multi_region, run_multi_region_faulted, run_multi_region_faulted_traced,
    MultiRegionOptions, MultiRegionReport, RegionReport, RegionSpec, WorkloadShift,
};
pub use scheduler::{LeastLoaded, RandomFit, RoundRobin, Scheduler, SchedulerKind, WarmFirst};
pub use stats::{FaultSummary, FleetReport, RightsizingReport};
pub use sweep::{run_fleet_sweep, sweep, FleetJob};
