//! The result of a fleet run: raw counters, derived metrics, and per-host
//! detail, serializable for the experiment binaries.

use serde::{Deserialize, Serialize};
use sizeless_core::service::ServiceStats;
use sizeless_telemetry::{
    FleetCounters, FleetMetrics, RightsizingCounters, RightsizingMetrics, SimRunStats,
};

/// The closed-loop right-sizing section of a fleet report: fleet-side
/// tallies and before/after-resize rates plus the sizing service's own
/// activity stats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RightsizingReport {
    /// Fleet-side tallies (directives applied, before/after accounting).
    pub counters: RightsizingCounters,
    /// Rates derived from the counters.
    pub metrics: RightsizingMetrics,
    /// The embedded sizing service's activity tallies.
    pub service: ServiceStats,
    /// Instances drained (idle evicted at resize + in-flight reclaimed on
    /// completion) by memory-size transitions, across all hosts.
    pub drained_instances: usize,
    /// Each function's deployed memory size when the run ended, MB (in
    /// fleet order) — where the loop finally converged to.
    pub final_sizes_mb: Vec<u32>,
}

/// The fault-injection section of a fleet report: what the installed
/// [`FaultPlan`](crate::faults::FaultPlan) actually did to this run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Host crashes executed (scheduled, stochastic, and outage-induced).
    pub host_crashes: usize,
    /// In-flight attempts lost to host crashes.
    pub failed_in_flight: usize,
    /// Warm idle instances lost to host crashes.
    pub lost_warm: usize,
    /// Arrivals this region accepted as failovers from other regions.
    pub failovers_in: usize,
    /// Arrivals this region diverted to other regions during its outages.
    pub failovers_out: usize,
}

/// Everything a fleet run reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Name of the scheduling policy used.
    pub scheduler: String,
    /// Name of the keep-alive policy used.
    pub keepalive: String,
    /// Raw event tallies.
    pub counters: FleetCounters,
    /// Rates derived from the counters.
    pub metrics: FleetMetrics,
    /// Per-host busy fraction over the horizon, in fleet order.
    pub host_utilization: Vec<f64>,
    /// Instances ever provisioned across the fleet.
    pub provisioned_instances: usize,
    /// Instances evicted for memory pressure.
    pub evictions: usize,
    /// Instances reclaimed by keep-alive expiry.
    pub expirations: usize,
    /// Largest end-to-end latency observed, ms.
    pub max_latency_ms: f64,
    /// Observed horizon (arrival window plus completion drain), ms.
    pub horizon_ms: f64,
    /// Run counters of the discrete-event engine that drove this fleet.
    pub sim: SimRunStats,
    /// Present when the fleet ran with an installed fault plan.
    pub faults: Option<FaultSummary>,
    /// Present when the fleet ran with an embedded sizing service.
    pub rightsizing: Option<RightsizingReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let report = FleetReport {
            scheduler: "warm-first".into(),
            keepalive: "adaptive".into(),
            counters: FleetCounters {
                submitted: 10,
                completed: 9,
                throttled_account: 1,
                cold_starts: 3,
                ..FleetCounters::default()
            },
            metrics: FleetMetrics::from_counters(&FleetCounters::default()),
            host_utilization: vec![0.5, 0.25],
            provisioned_instances: 3,
            evictions: 0,
            expirations: 3,
            max_latency_ms: 812.5,
            horizon_ms: 10_000.0,
            sim: SimRunStats {
                events_executed: 19,
                handlers_scheduled: 21,
                peak_queue_depth: 4,
            },
            faults: None,
            rightsizing: None,
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn rightsizing_section_round_trips_through_json() {
        let counters = RightsizingCounters {
            samples_ingested: 500,
            recommendations: 3,
            drift_reverts: 1,
            resizes_applied: 4,
            completed_at_original: 200,
            completed_at_directed: 300,
            sum_latency_original_ms: 10_000.0,
            sum_latency_directed_ms: 9_000.0,
            sum_cost_original_usd: 0.02,
            sum_cost_directed_usd: 0.015,
            exec_mb_ms_original: 2e6,
            exec_mb_ms_directed: 1.5e6,
            shadow_dispatches: 17,
            completed_at_base: 200,
            exec_ms_at_base: 4_000.0,
            exec_ms_total: 10_000.0,
            first_resize_at_ms: Some(1_234.5),
        };
        let section = RightsizingReport {
            counters,
            metrics: RightsizingMetrics::from_counters(&counters),
            service: ServiceStats {
                samples_ingested: 500,
                stale_samples_ignored: 12,
                recommendations: 3,
                drift_checks: 2,
                drift_detections: 1,
                drift_suppressed_by_fault: 0,
                entered_measuring: 3,
                entered_referencing: 2,
                entered_watching: 2,
                entered_shadowing: 1,
                rerecommend_same: 1,
                rerecommend_changed: 1,
                shadow_samples: 50,
                shadow_passthrough: 150,
            },
            drained_instances: 9,
            final_sizes_mb: vec![128, 1024],
        };
        let json = serde_json::to_string(&section).unwrap();
        let back: RightsizingReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, section);
    }
}
