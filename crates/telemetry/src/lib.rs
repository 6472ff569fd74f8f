//! Resource-consumption monitoring — the paper's Section 3.2.
//!
//! AWS Lambda has no built-in resource-consumption monitoring, so the paper
//! implements a *wrapper-style* monitor: it records 25 metrics (Table 1)
//! before and after the inner handler runs, then writes the deltas to a
//! DynamoDB table. This crate reproduces that design against the simulated
//! platform:
//!
//! * [`metric`] — the [`Metric`] enum: all 25 Table-1
//!   metrics with their Node.js sources.
//! * [`monitor`] — the [`ResourceMonitor`]
//!   wrapper: converts a ground-truth
//!   [`ResourceUsage`](sizeless_platform::ResourceUsage) into a noisy
//!   [`InvocationSample`], modelling collector
//!   imprecision, and appends it to a [`MetricStore`]
//!   (the simulated DynamoDB results table). A monitor built by
//!   [`ResourceMonitor::collecting`] pays only for the metrics its
//!   consumer reads, with the full monitor's bits on each of them.
//! * [`aggregate`] — per-window aggregation into the
//!   [`MetricVector`] (mean/std/cv per metric) the
//!   regression model consumes.
//! * [`stability`] — the Figure-3 analysis: per-metric Mann–Whitney tests of
//!   prefix windows against the full measurement.
//! * [`fleet`] — cluster-level metrics ([`FleetCounters`]/[`FleetMetrics`]):
//!   cold-start rate, throttle rate, host utilization, wasted memory-time;
//!   plus the before/after-resize split ([`RightsizingCounters`]) of the
//!   closed-loop right-sizing experiments.
//! * [`window`] — [`StreamingWindow`]: the bounded,
//!   incrementally-maintained monitoring window of the online sizing
//!   service, bit-identical in aggregation to the batch [`MetricVector`].

pub mod aggregate;
pub mod fleet;
pub mod metric;
pub mod monitor;
pub mod stability;
pub mod window;

pub use aggregate::{MetricAggregate, MetricVector};
pub use fleet::{
    FleetCounters, FleetMetrics, RightsizingCounters, RightsizingMetrics, SimRunStats,
};
pub use metric::{Metric, METRIC_COUNT};
pub use monitor::{InvocationSample, MetricStore, ResourceMonitor};
pub use stability::{StabilityAnalysis, StabilityConfig};
pub use window::StreamingWindow;
