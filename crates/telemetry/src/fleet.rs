//! Fleet-level metrics: the cluster analogue of the per-invocation monitor.
//!
//! The single-function monitor ([`crate::monitor`]) reproduces the paper's
//! Table-1 metrics; a *fleet* of invoker hosts needs a different lens — the
//! operational rates the paper's limitations section gestures at ("the
//! workload becomes substantially burstier, which causes more cold starts"):
//! cold-start rate, throttle rate, host utilization, and the wasted
//! memory-time a keep-alive policy trades against cold starts.
//!
//! [`FleetCounters`] is the raw tally a fleet run accumulates;
//! [`FleetMetrics`] derives the rates. Keeping the derivation here (rather
//! than in the fleet crate) means any future multi-cluster or trace-replay
//! layer reports through the same definitions.

use serde::{Deserialize, Serialize};

/// Raw event tallies of one fleet run. All counters are monotone during a
/// run; `in_flight` is the only gauge.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FleetCounters {
    /// Requests submitted to the fleet.
    pub submitted: usize,
    /// Requests that finished executing.
    pub completed: usize,
    /// Requests currently executing.
    pub in_flight: usize,
    /// Requests rejected (429) by a per-function concurrency limit.
    pub throttled_function: usize,
    /// Requests rejected (429) by the account-wide concurrency limit.
    pub throttled_account: usize,
    /// Requests rejected because no host could place an instance.
    pub throttled_capacity: usize,
    /// Requests that terminally failed: every attempt the retry policy was
    /// willing to pay ended in an injected fault or crash.
    pub failed: usize,
    /// Individual execution attempts that failed (each retried attempt that
    /// fails counts again; terminally failed requests contribute all of
    /// their attempts).
    pub failed_attempts: usize,
    /// Retry attempts the resilience policy re-enqueued after a failure.
    pub retries_scheduled: usize,
    /// Terminal failures that had consumed at least one retry — requests
    /// the policy fought for and still lost.
    pub failed_after_retries: usize,
    /// Sum over completions of the attempt number that succeeded (1 for a
    /// first-try completion) — numerator of mean attempts per completion.
    pub sum_attempts_completed: usize,
    /// Completed-or-running requests that paid a cold start.
    pub cold_starts: usize,
    /// Sum of end-to-end latencies (init + execution) over completions, ms.
    pub sum_latency_ms: f64,
    /// Sum of billed compute cost over completions, USD.
    pub sum_cost_usd: f64,
    /// Memory-time spent executing (including initialization), MB·ms.
    pub busy_mb_ms: f64,
    /// Memory-time spent on useful execution only (no initialization),
    /// MB·ms — equal across placement policies serving the same completed
    /// work, unlike `busy_mb_ms`.
    pub exec_mb_ms: f64,
    /// Memory-time spent warm but idle, MB·ms — the waste of keep-alive.
    pub wasted_mb_ms: f64,
    /// Total host capacity × observed horizon, MB·ms.
    pub capacity_mb_ms: f64,
}

impl FleetCounters {
    /// Requests rejected with a 429 for any reason.
    pub fn throttled(&self) -> usize {
        self.throttled_function + self.throttled_account + self.throttled_capacity
    }

    /// The conservation invariant every fleet state must satisfy:
    /// `submitted == completed + failed + in_flight + throttled`.
    /// (A request awaiting a retry backoff is still in flight.)
    pub fn is_conserved(&self) -> bool {
        self.submitted == self.completed + self.failed + self.in_flight + self.throttled()
    }
}

/// Run counters of the discrete-event engine that drove a fleet: how much
/// event churn the run cost, independent of what the events did.
///
/// It carries the engine's `SimStats` under the report's JSON field names;
/// the fleet copies the numbers across when it builds a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SimRunStats {
    /// Events the simulation executed.
    pub events_executed: u64,
    /// Handlers ever scheduled (executed + pending + dropped at teardown).
    pub handlers_scheduled: u64,
    /// The most events that were ever pending at once.
    pub peak_queue_depth: usize,
}

/// Rates and ratios derived from [`FleetCounters`] — the fleet's
/// paper-style result row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetMetrics {
    /// Cold starts per started (non-throttled) request.
    pub cold_start_rate: f64,
    /// 429s per submitted request.
    pub throttle_rate: f64,
    /// Busy memory-time over capacity memory-time, in `[0, 1]`.
    pub utilization: f64,
    /// Execution-only memory-time over capacity memory-time, in `[0, 1]`
    /// — the goodput view that factors out cold-start overhead.
    pub goodput_utilization: f64,
    /// Warm-but-idle memory-time, MB·ms.
    pub wasted_mb_ms: f64,
    /// Mean end-to-end latency over completions, ms.
    pub mean_latency_ms: f64,
    /// Mean billed cost per completion, USD.
    pub mean_cost_usd: f64,
    /// Provider-side resource footprint per completion: busy plus wasted
    /// memory-time divided by completions, MB·ms. A keep-alive policy that
    /// *dominates* minimizes this — it pays neither repeated cold-start
    /// initialization (busy) nor long idle tails (wasted).
    pub resource_mb_ms_per_completion: f64,
    /// Completions over non-throttled arrivals, in `[0, 1]` — the share of
    /// admitted requests the fleet actually served under faults.
    pub availability: f64,
    /// Terminal failures per submitted request.
    pub failure_rate: f64,
    /// Mean execution attempts a completion took (1.0 when nothing fails).
    pub mean_attempts_per_completion: f64,
}

impl FleetMetrics {
    /// Derives the rate metrics from raw counters. Ratios with a zero
    /// denominator are reported as 0.
    pub fn from_counters(c: &FleetCounters) -> Self {
        let started = c.completed + c.in_flight;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        FleetMetrics {
            cold_start_rate: ratio(c.cold_starts as f64, started as f64),
            throttle_rate: ratio(c.throttled() as f64, c.submitted as f64),
            utilization: ratio(c.busy_mb_ms, c.capacity_mb_ms),
            goodput_utilization: ratio(c.exec_mb_ms, c.capacity_mb_ms),
            wasted_mb_ms: c.wasted_mb_ms,
            mean_latency_ms: ratio(c.sum_latency_ms, c.completed as f64),
            mean_cost_usd: ratio(c.sum_cost_usd, c.completed as f64),
            resource_mb_ms_per_completion: ratio(
                c.busy_mb_ms + c.wasted_mb_ms,
                c.completed as f64,
            ),
            availability: ratio(c.completed as f64, (c.submitted - c.throttled()) as f64),
            failure_rate: ratio(c.failed as f64, c.submitted as f64),
            mean_attempts_per_completion: ratio(
                c.sum_attempts_completed as f64,
                c.completed as f64,
            ),
        }
    }
}

/// Raw tallies of the closed-loop right-sizing path of a fleet run.
///
/// Completions are split by whether the invocation ran at the function's
/// *original* deployed size or at a size the sizing service directed — the
/// "before/after resize" view the closed-loop experiments report.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RightsizingCounters {
    /// Monitoring samples forwarded to the sizing service.
    pub samples_ingested: usize,
    /// Resize directives issued from a filled measurement window.
    pub recommendations: usize,
    /// Drift-triggered revert-to-base directives.
    pub drift_reverts: usize,
    /// Directives whose target differed from the live size (memory
    /// transitions actually applied to the fleet).
    pub resizes_applied: usize,
    /// Completions that ran at the function's original deployed size.
    pub completed_at_original: usize,
    /// Completions that ran at a service-directed size.
    pub completed_at_directed: usize,
    /// Sum of end-to-end latencies over original-size completions, ms.
    pub sum_latency_original_ms: f64,
    /// Sum of end-to-end latencies over directed-size completions, ms.
    pub sum_latency_directed_ms: f64,
    /// Sum of billed cost over original-size completions, USD.
    pub sum_cost_original_usd: f64,
    /// Sum of billed cost over directed-size completions, USD.
    pub sum_cost_directed_usd: f64,
    /// Execution memory-time of original-size completions, MB·ms.
    pub exec_mb_ms_original: f64,
    /// Execution memory-time of directed-size completions, MB·ms.
    pub exec_mb_ms_directed: f64,
    /// Dispatches the shadow-sampling hook routed to the base size.
    pub shadow_dispatches: usize,
    /// Completions that ran at the sizing service's *base* size — under
    /// full-revert re-measurement every revert pays a whole window of
    /// these; shadow sampling pays only its routed fraction.
    pub completed_at_base: usize,
    /// Execution time spent at the base size, ms (no memory weighting —
    /// the "time spent at base" a re-measurement policy is judged on).
    pub exec_ms_at_base: f64,
    /// Execution time across all completions, ms.
    pub exec_ms_total: f64,
    /// Simulation time of the first applied *recommendation* resize, ms —
    /// the loop's time-to-first-win. Calibrate/drift reverts to base are
    /// re-measurement cost, not payoff, and do not stamp this.
    pub first_resize_at_ms: Option<f64>,
}

/// Before/after-resize rates derived from [`RightsizingCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RightsizingMetrics {
    /// Mean latency of completions at the original size, ms.
    pub mean_latency_original_ms: f64,
    /// Mean latency of completions at a directed size, ms.
    pub mean_latency_directed_ms: f64,
    /// Mean billed cost per completion at the original size, USD.
    pub mean_cost_original_usd: f64,
    /// Mean billed cost per completion at a directed size, USD.
    pub mean_cost_directed_usd: f64,
    /// Execution memory-time per completion at the original size, MB·ms.
    pub exec_mb_ms_per_completion_original: f64,
    /// Execution memory-time per completion at a directed size, MB·ms.
    pub exec_mb_ms_per_completion_directed: f64,
    /// Share of execution time spent at the base size, in `[0, 1]` — the
    /// cost a re-measurement policy pays for fresh base-size windows.
    pub time_at_base_share: f64,
}

impl RightsizingMetrics {
    /// Derives the before/after rates. Ratios with a zero denominator are
    /// reported as 0.
    pub fn from_counters(c: &RightsizingCounters) -> Self {
        let ratio = |num: f64, den: usize| if den > 0 { num / den as f64 } else { 0.0 };
        RightsizingMetrics {
            mean_latency_original_ms: ratio(c.sum_latency_original_ms, c.completed_at_original),
            mean_latency_directed_ms: ratio(c.sum_latency_directed_ms, c.completed_at_directed),
            mean_cost_original_usd: ratio(c.sum_cost_original_usd, c.completed_at_original),
            mean_cost_directed_usd: ratio(c.sum_cost_directed_usd, c.completed_at_directed),
            exec_mb_ms_per_completion_original: ratio(
                c.exec_mb_ms_original,
                c.completed_at_original,
            ),
            exec_mb_ms_per_completion_directed: ratio(
                c.exec_mb_ms_directed,
                c.completed_at_directed,
            ),
            time_at_base_share: if c.exec_ms_total > 0.0 {
                c.exec_ms_at_base / c.exec_ms_total
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> FleetCounters {
        FleetCounters {
            submitted: 100,
            completed: 80,
            in_flight: 5,
            throttled_function: 6,
            throttled_account: 4,
            throttled_capacity: 5,
            failed: 0,
            failed_attempts: 0,
            retries_scheduled: 0,
            failed_after_retries: 0,
            sum_attempts_completed: 80,
            cold_starts: 17,
            sum_latency_ms: 8_000.0,
            sum_cost_usd: 0.004,
            busy_mb_ms: 40_000.0,
            exec_mb_ms: 30_000.0,
            wasted_mb_ms: 10_000.0,
            capacity_mb_ms: 200_000.0,
        }
    }

    #[test]
    fn conservation_invariant() {
        let c = counters();
        assert_eq!(c.throttled(), 15);
        assert!(c.is_conserved());
        let broken = FleetCounters {
            completed: 81,
            ..c
        };
        assert!(!broken.is_conserved());
        // Failures sit on the conservation ledger alongside completions.
        let faulted = FleetCounters {
            submitted: 103,
            failed: 3,
            ..c
        };
        assert!(faulted.is_conserved());
    }

    #[test]
    fn derived_rates() {
        let m = FleetMetrics::from_counters(&counters());
        assert!((m.cold_start_rate - 17.0 / 85.0).abs() < 1e-12);
        assert!((m.throttle_rate - 0.15).abs() < 1e-12);
        assert!((m.utilization - 0.2).abs() < 1e-12);
        assert!((m.goodput_utilization - 0.15).abs() < 1e-12);
        assert!((m.mean_latency_ms - 100.0).abs() < 1e-12);
        assert!((m.mean_cost_usd - 5e-5).abs() < 1e-12);
        assert!((m.resource_mb_ms_per_completion - 625.0).abs() < 1e-12);
        // 100 submitted, 15 throttled → 85 admitted, 80 served.
        assert!((m.availability - 80.0 / 85.0).abs() < 1e-12);
        assert_eq!(m.failure_rate, 0.0);
        assert!((m.mean_attempts_per_completion - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fault_and_retry_rates() {
        let c = FleetCounters {
            submitted: 103,
            failed: 3,
            failed_attempts: 11,
            retries_scheduled: 10,
            failed_after_retries: 2,
            sum_attempts_completed: 88,
            ..counters()
        };
        assert!(c.is_conserved());
        let m = FleetMetrics::from_counters(&c);
        // 103 submitted, 15 throttled → 88 admitted, 80 served.
        assert!((m.availability - 80.0 / 88.0).abs() < 1e-12);
        assert!((m.failure_rate - 3.0 / 103.0).abs() < 1e-12);
        assert!((m.mean_attempts_per_completion - 1.1).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_do_not_divide() {
        let m = FleetMetrics::from_counters(&FleetCounters::default());
        assert_eq!(m.cold_start_rate, 0.0);
        assert_eq!(m.throttle_rate, 0.0);
        assert_eq!(m.utilization, 0.0);
        assert_eq!(m.mean_latency_ms, 0.0);
        assert_eq!(m.resource_mb_ms_per_completion, 0.0);
    }

    #[test]
    fn rightsizing_before_after_rates() {
        let c = RightsizingCounters {
            samples_ingested: 100,
            recommendations: 2,
            drift_reverts: 1,
            resizes_applied: 3,
            completed_at_original: 40,
            completed_at_directed: 60,
            sum_latency_original_ms: 4_000.0,
            sum_latency_directed_ms: 3_000.0,
            sum_cost_original_usd: 0.008,
            sum_cost_directed_usd: 0.006,
            exec_mb_ms_original: 400_000.0,
            exec_mb_ms_directed: 300_000.0,
            shadow_dispatches: 5,
            completed_at_base: 40,
            exec_ms_at_base: 1_500.0,
            exec_ms_total: 6_000.0,
            first_resize_at_ms: Some(2_500.0),
        };
        let m = RightsizingMetrics::from_counters(&c);
        assert!((m.mean_latency_original_ms - 100.0).abs() < 1e-12);
        assert!((m.mean_latency_directed_ms - 50.0).abs() < 1e-12);
        assert!((m.mean_cost_original_usd - 2e-4).abs() < 1e-12);
        assert!((m.mean_cost_directed_usd - 1e-4).abs() < 1e-12);
        assert!((m.exec_mb_ms_per_completion_original - 10_000.0).abs() < 1e-12);
        assert!((m.exec_mb_ms_per_completion_directed - 5_000.0).abs() < 1e-12);
        assert!((m.time_at_base_share - 0.25).abs() < 1e-12);
        // Zero denominators stay zero.
        let empty = RightsizingMetrics::from_counters(&RightsizingCounters::default());
        assert_eq!(empty.mean_latency_original_ms, 0.0);
        assert_eq!(empty.exec_mb_ms_per_completion_directed, 0.0);
        assert_eq!(empty.time_at_base_share, 0.0);
        assert_eq!(RightsizingCounters::default().first_resize_at_ms, None);
    }
}
