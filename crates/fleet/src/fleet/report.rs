//! The fleet's invariants and its final report.

use super::{Fleet, FleetSim, FleetState};
use crate::host::Host;
use crate::stats::{FleetReport, RightsizingReport};
use sizeless_obs::TraceSink;
use sizeless_telemetry::{FleetMetrics, RightsizingMetrics, SimRunStats};

impl FleetState {
    /// The conservation and capacity invariants `FleetEvent::fire`
    /// re-checks after every event when `FleetConfig::check_invariants`
    /// is set, including that every host's running memory totals match a
    /// re-sum over its pools.
    ///
    /// # Panics
    ///
    /// Panics on any violation.
    pub(super) fn assert_invariants(&mut self, now_ms: f64) {
        assert!(
            self.counters.is_conserved(),
            "conservation violated: {:?}",
            self.counters
        );
        assert_eq!(
            self.counters.in_flight,
            self.limits.in_flight(),
            "limit ledger out of sync"
        );
        let host_in_flight: usize = self.hosts.iter().map(Host::in_flight).sum();
        // In-flight requests live on a host, are zombies of a crashed host
        // (they fail at their settle event), or are waiting out a retry
        // backoff while still holding their limit slot.
        let crash_zombies = self.faults.as_ref().map_or(0, |f| f.crash_zombies);
        let retry_pending = self.faults.as_ref().map_or(0, |f| f.retry.pending);
        assert_eq!(
            self.counters.in_flight,
            host_in_flight + crash_zombies + retry_pending,
            "host ledger out of sync"
        );
        if let Some(cap) = self.limits.account_limit() {
            assert!(self.limits.in_flight() <= cap, "account limit exceeded");
        }
        if let Some(cap) = self.limits.function_limit() {
            for fn_id in 0..self.functions.len() {
                assert!(
                    self.limits.fn_in_flight(fn_id) <= cap,
                    "function limit exceeded for fn {fn_id}"
                );
            }
        }
        for host in &mut self.hosts {
            let committed = host.committed_mb(now_ms);
            assert!(
                committed <= host.capacity_mb() + 1e-6,
                "host {} over capacity: {committed} MB",
                host.id()
            );
            let (running, resummed) = host.audit_mb(now_ms);
            assert_eq!(
                running,
                resummed,
                "host {} running (committed, idle) MB drifted from its pools",
                host.id()
            );
        }
    }
}

impl<S: TraceSink + 'static> Fleet<S> {
    /// Finalizes accounting and produces the report, handing the trace sink
    /// back to the caller for export. `sim` must be the (drained)
    /// simulation this fleet ran on.
    pub fn into_report_and_sink(self, sim: &FleetSim<S>) -> (FleetReport, S) {
        let Fleet { state: mut s, sink } = self;
        let horizon_ms = sim.now().as_millis().max(s.duration_ms);
        for host in &mut s.hosts {
            host.finalize(horizon_ms);
        }
        s.counters.busy_mb_ms = s.hosts.iter().map(Host::busy_mb_ms).sum();
        s.counters.wasted_mb_ms = s.hosts.iter().map(Host::wasted_mb_ms).sum();
        s.counters.capacity_mb_ms = s.hosts.iter().map(|h| h.capacity_mb() * horizon_ms).sum();
        debug_assert_eq!(s.counters.in_flight, 0, "drain left work in flight");

        let drained_instances = s.hosts.iter().map(Host::resize_drains).sum();
        let final_sizes_mb: Vec<u32> = s.functions.iter().map(|f| f.config.memory().mb()).collect();
        let engine = sim.stats();
        let report = FleetReport {
            scheduler: s.scheduler.name().to_string(),
            keepalive: s.keepalive.name().to_string(),
            counters: s.counters,
            metrics: FleetMetrics::from_counters(&s.counters),
            host_utilization: s
                .hosts
                .iter()
                .map(|h| h.busy_mb_ms() / (h.capacity_mb() * horizon_ms))
                .collect(),
            provisioned_instances: s.hosts.iter().map(Host::provisioned).sum(),
            evictions: s.hosts.iter().map(Host::evictions).sum(),
            expirations: s.hosts.iter().map(Host::expirations).sum(),
            max_latency_ms: s.max_latency_ms,
            horizon_ms,
            sim: SimRunStats {
                events_executed: engine.executed,
                handlers_scheduled: engine.scheduled,
                peak_queue_depth: engine.peak_pending,
            },
            faults: s.faults.as_ref().map(|f| f.summary),
            rightsizing: s.sizing.map(|z| RightsizingReport {
                counters: z.counters,
                metrics: RightsizingMetrics::from_counters(&z.counters),
                service: *z.service.stats(),
                drained_instances,
                final_sizes_mb,
            }),
        };
        (report, sink)
    }
}

#[cfg(test)]
mod tests {
    use crate::fleet::tests::{config, functions};
    use crate::fleet::Fleet;
    use crate::keepalive::KeepAliveKind;
    use crate::scheduler::SchedulerKind;
    use sizeless_platform::Platform;

    #[test]
    fn static_fleet_reports_no_rightsizing_section() {
        let report = Fleet::from_kinds(
            &Platform::aws_like(),
            &config(),
            &functions(),
            SchedulerKind::WarmFirst,
            KeepAliveKind::FixedTtl,
        )
        .run();
        assert!(report.rightsizing.is_none());
    }
}
