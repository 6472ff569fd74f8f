//! Live fault injection: crash epochs and zombie attempts, recovery
//! windows, the drift mask, region outages with failover, and retries of
//! failed attempts. The plan and the retry policy themselves live in
//! [`crate::faults`].

use super::dispatch::Completion;
use super::{Fleet, FleetEvent, FleetSim, FleetState};
use crate::faults::{FaultPlan, HostCrash, Recovery, RetryKind, TransientFaults};
use crate::stats::FaultSummary;
use sizeless_engine::{RngStream, SimTime};
use sizeless_obs::{FaultKind, ThrottleCause, TraceEvent, TraceSink};

/// Live fault-injection state, built from a [`FaultPlan`] by
/// [`Fleet::with_faults`].
pub(super) struct FaultState {
    pub(super) transient: Option<TransientFaults>,
    pub(super) recovery: Option<Recovery>,
    /// Materialized crash schedule; [`Fleet::prime`] turns it into events.
    pub(super) crashes: Vec<HostCrash>,
    /// Stream for per-attempt transient fault draws (derived from the
    /// plan's seed, independent of every other stream of the run).
    pub(super) rng: RngStream,
    /// Per-host crash epoch, bumped on every crash.
    pub(super) epoch: Vec<u64>,
    /// When each host last went down (for the rejoin trace).
    down_since: Vec<f64>,
    /// Until when each host runs slowed after a rejoin.
    pub(super) recovering_until: Vec<f64>,
    /// In-flight invocations torn down by a crash, still awaiting their
    /// originally scheduled settle event.
    pub(super) crash_zombies: usize,
    /// Drift detections before this virtual time are fault-masked.
    pub(super) mask_until_ms: f64,
    pub(super) drift_mask: bool,
    mask_pad_ms: f64,
    /// Whether a driver-controlled region outage is active.
    pub(super) outage: bool,
    pub(super) failover: bool,
    /// Arrivals diverted during an outage, drained by the region driver.
    pub(super) diverted: Vec<(f64, usize)>,
    pub(super) summary: FaultSummary,
    pub(super) retry: RetryState,
}

/// The retry policy for failed attempts, installed with the fault plan.
pub(super) struct RetryState {
    kind: RetryKind,
    /// Retries each function has consumed, drawn down by a per-function
    /// budget.
    spent: Vec<usize>,
    rng: RngStream,
    /// Requests sitting out a backoff between a failed attempt and their
    /// next one — still in flight and still holding their limit slot.
    pub(super) pending: usize,
}

impl FaultState {
    /// The live state of `plan` on `hosts` hosts over `duration_ms`, with
    /// backoff jitter drawn under the fleet's master `seed`.
    pub(super) fn new(
        plan: &FaultPlan,
        retry: RetryKind,
        hosts: usize,
        duration_ms: f64,
        seed: u64,
    ) -> Self {
        FaultState {
            transient: plan.transient,
            recovery: plan.recovery,
            crashes: plan.materialize_crashes(hosts, duration_ms),
            rng: RngStream::from_seed(plan.seed, "faults").derive("transient"),
            epoch: vec![0; hosts],
            down_since: vec![0.0; hosts],
            recovering_until: vec![f64::NEG_INFINITY; hosts],
            crash_zombies: 0,
            mask_until_ms: f64::NEG_INFINITY,
            drift_mask: plan.drift_mask,
            mask_pad_ms: plan.mask_pad_ms,
            outage: false,
            failover: plan.failover,
            diverted: Vec::new(),
            summary: FaultSummary::default(),
            retry: RetryState {
                kind: retry,
                spent: Vec::new(),
                rng: RngStream::from_seed(seed, "fleet").derive("retry"),
                pending: 0,
            },
        }
    }

    /// Extends the drift mask past the post-rejoin recovery window of
    /// hosts back up at `back_up_ms`, when crash-induced latency spikes
    /// would otherwise read as workload drift.
    fn mask_drift_after(&mut self, back_up_ms: f64) {
        if self.drift_mask {
            let recovery_ms = self.recovery.map_or(0.0, |r| r.recovery_ms);
            let until_ms = back_up_ms + recovery_ms + self.mask_pad_ms;
            self.mask_until_ms = self.mask_until_ms.max(until_ms);
        }
    }
}

impl FleetState {
    /// Whether a region-wide outage is currently active.
    pub(crate) fn in_outage(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.outage)
    }

    /// Drains the arrivals diverted away during an active outage, for the
    /// multi-region runner to route to a healthy region.
    pub(crate) fn take_diverted(&mut self) -> Vec<(f64, usize)> {
        self.faults
            .as_mut()
            .map(|f| std::mem::take(&mut f.diverted))
            .unwrap_or_default()
    }
}

impl<S: TraceSink + 'static> Fleet<S> {
    /// A failed attempt either schedules a retry (staying in flight and
    /// holding its limit slot through the backoff) or fails the request
    /// terminally.
    pub(super) fn fail_attempt(
        &mut self,
        sim: &mut FleetSim<S>,
        done: Completion,
        cause: FaultKind,
    ) {
        let now_ms = sim.now().as_millis();
        let counters = &mut self.state.counters;
        counters.failed_attempts += 1;
        self.sink.record(
            now_ms,
            TraceEvent::InvocationFailed {
                fn_id: done.fn_id as u32,
                host: done.host as u32,
                attempt: done.attempt as u32,
                cause,
            },
        );
        let next = done.attempt + 1;
        // lint: allow(panic002) reason="attempts fail only by a crash or a transient fault, both of which need a fault plan"
        let r = &mut self.state.faults.as_mut().expect("failed attempts imply faults").retry;
        if let Some(delay_ms) = r.kind.backoff_ms(&mut r.spent, done.fn_id, next, &mut r.rng) {
            r.pending += 1;
            counters.retries_scheduled += 1;
            self.sink.record(
                now_ms,
                TraceEvent::RetryScheduled {
                    fn_id: done.fn_id as u32,
                    attempt: next as u32,
                    delay_ms,
                },
            );
            sim.schedule_event_at(
                SimTime::from_millis(now_ms + delay_ms),
                FleetEvent::Retry { fn_id: done.fn_id as u32, attempt: next as u32 },
            );
        } else {
            counters.failed += 1;
            if done.attempt > 1 {
                counters.failed_after_retries += 1;
            }
            counters.in_flight -= 1;
            self.state.limits.release(done.fn_id);
        }
    }

    /// Crashes `host` at the current simulation time: warm generations are
    /// pruned, in-flight attempts become zombies that fail at their settle
    /// events, and the host rejoins cold after `down_ms`.
    pub(super) fn on_host_crash(&mut self, sim: &mut FleetSim<S>, host: usize, down_ms: f64) {
        if !self.state.hosts[host].is_available() {
            return;
        }
        let now_ms = sim.now().as_millis();
        self.crash_host(host, now_ms);
        // lint: allow(panic002) reason="crash events are only scheduled when a fault plan is installed"
        let f = self.state.faults.as_mut().expect("crash events imply faults");
        f.mask_drift_after(now_ms + down_ms);
        sim.schedule_event_at(
            SimTime::from_millis(now_ms + down_ms),
            FleetEvent::HostRejoin { host: host as u32 },
        );
    }

    pub(super) fn on_host_rejoin(&mut self, sim: &mut FleetSim<S>, host: usize) {
        if !self.state.hosts[host].is_available() {
            self.rejoin_host(host, sim.now().as_millis());
        }
    }

    /// Takes an available `host` down: its in-flight attempts become
    /// zombies under a new crash epoch, the losses go into the fault
    /// summary, and a `host_down` record is written.
    fn crash_host(&mut self, host: usize, now_ms: f64) {
        let (lost_in_flight, lost_warm) = self.state.hosts[host].crash(now_ms);
        // lint: allow(panic002) reason="crashes and outages are only scheduled when a fault plan is installed"
        let f = self.state.faults.as_mut().expect("crashes imply faults");
        f.epoch[host] += 1;
        f.down_since[host] = now_ms;
        f.crash_zombies += lost_in_flight;
        f.summary.host_crashes += 1;
        f.summary.failed_in_flight += lost_in_flight;
        f.summary.lost_warm += lost_warm;
        self.sink.record(
            now_ms,
            TraceEvent::HostDown {
                host: host as u32,
                failed_in_flight: lost_in_flight as u32,
                lost_warm: lost_warm as u32,
            },
        );
    }

    /// Brings a crashed `host` back cold: opens its recovery window and
    /// writes a `host_up` record.
    fn rejoin_host(&mut self, host: usize, now_ms: f64) {
        self.state.hosts[host].rejoin();
        // lint: allow(panic002) reason="rejoins and outages are only scheduled when a fault plan is installed"
        let f = self.state.faults.as_mut().expect("rejoins imply faults");
        let down_ms = now_ms - f.down_since[host];
        if let Some(r) = f.recovery {
            f.recovering_until[host] = now_ms + r.recovery_ms;
        }
        self.sink.record(now_ms, TraceEvent::HostUp { host: host as u32, down_ms });
    }

    /// Begins a region-wide outage: every available host crashes and new
    /// arrivals divert to failover (or shed) until [`Fleet::end_outage`].
    /// Driven externally by the multi-region runner.
    pub(super) fn begin_outage(&mut self, sim: &mut FleetSim<S>) {
        let now_ms = sim.now().as_millis();
        for host in 0..self.state.hosts.len() {
            if self.state.hosts[host].is_available() {
                self.crash_host(host, now_ms);
            }
        }
        // lint: allow(panic002) reason="outage events are only scheduled when a fault plan is installed"
        let f = self.state.faults.as_mut().expect("outage events imply faults");
        f.outage = true;
    }

    /// Ends a region-wide outage: every downed host rejoins cold.
    pub(super) fn end_outage(&mut self, sim: &mut FleetSim<S>) {
        let now_ms = sim.now().as_millis();
        // lint: allow(panic002) reason="outage events are only scheduled when a fault plan is installed"
        let f = self.state.faults.as_mut().expect("outage events imply faults");
        f.mask_drift_after(now_ms);
        f.outage = false;
        for host in 0..self.state.hosts.len() {
            if !self.state.hosts[host].is_available() {
                self.rejoin_host(host, now_ms);
            }
        }
    }

    /// Accepts a request failed over from another region: it enters this
    /// fleet's admission path like a local arrival.
    pub(super) fn accept_failover(&mut self, sim: &mut FleetSim<S>, fn_id: usize) {
        let now_ms = sim.now().as_millis();
        if let Some(f) = self.state.faults.as_mut() {
            f.summary.failovers_in += 1;
        }
        self.dispatch(sim, fn_id, now_ms);
    }

    /// Sheds a diverted arrival when no healthy failover target exists: it
    /// still counts as submitted, then throttles via the 429 path.
    pub(crate) fn shed_diverted(&mut self, now_ms: f64, fn_id: usize) {
        self.state.counters.submitted += 1;
        self.state.keepalive.observe_arrival(fn_id, now_ms);
        self.throttle(now_ms, fn_id, ThrottleCause::Capacity);
    }
}

#[cfg(test)]
mod tests {
    use crate::faults::{FaultPlan, RetryKind};
    use crate::fleet::tests::{config, functions};
    use crate::fleet::{Fleet, FleetArrival, FleetConfig, FleetFunction};
    use crate::keepalive::KeepAliveKind;
    use crate::scheduler::SchedulerKind;
    use sizeless_platform::{FunctionConfig, MemorySize, Platform, ResourceProfile, Stage};
    use sizeless_workload::ArrivalProcess;

    #[test]
    fn transient_faults_fail_requests_without_retries() {
        let plan = FaultPlan::none().with_transient(0.1, 0.15, 0.5).with_seed(3);
        let report = Fleet::from_kinds(
            &Platform::aws_like(),
            &config(),
            &functions(),
            SchedulerKind::WarmFirst,
            KeepAliveKind::FixedTtl,
        )
        .with_faults(&plan, RetryKind::None)
        .run();
        assert!(report.counters.failed > 0, "{:?}", report.counters);
        assert!(report.counters.completed > 0);
        assert!(report.counters.is_conserved());
        assert_eq!(report.counters.in_flight, 0);
        // Without retries every failed attempt is a terminal failure.
        assert_eq!(report.counters.failed_attempts, report.counters.failed);
        assert_eq!(report.counters.retries_scheduled, 0);
        assert!(report.metrics.availability < 1.0);
    }

    #[test]
    fn retries_recover_requests_that_no_retry_loses() {
        let plan = FaultPlan::none().with_transient(0.1, 0.15, 0.5).with_seed(3);
        let run = |retry: RetryKind| {
            Fleet::from_kinds(
                &Platform::aws_like(),
                &config(),
                &functions(),
                SchedulerKind::WarmFirst,
                KeepAliveKind::FixedTtl,
            )
            .with_faults(&plan, retry)
            .run()
        };
        let bare = run(RetryKind::None);
        let backed = run(RetryKind::ExponentialBackoff {
            base_ms: 50.0,
            factor: 2.0,
            cap_ms: 2_000.0,
            max_attempts: 4,
            jitter_frac: 0.2,
            budget_per_fn: None,
        });
        assert!(backed.counters.is_conserved());
        assert!(
            backed.counters.completed > bare.counters.completed,
            "backoff {:?} vs none {:?}",
            backed.counters,
            bare.counters
        );
        assert!(backed.counters.retries_scheduled > 0);
        assert!(backed.metrics.mean_attempts_per_completion > 1.0);
        assert!(backed.metrics.availability > bare.metrics.availability);
    }

    #[test]
    #[should_panic(expected = "jitter fraction must be in [0, 1]")]
    fn with_faults_rejects_an_out_of_range_backoff() {
        let _ = Fleet::from_kinds(
            &Platform::aws_like(),
            &config(),
            &functions(),
            SchedulerKind::WarmFirst,
            KeepAliveKind::FixedTtl,
        )
        .with_faults(
            &FaultPlan::none(),
            RetryKind::ExponentialBackoff {
                base_ms: 50.0,
                factor: 2.0,
                cap_ms: 2_000.0,
                max_attempts: 4,
                jitter_frac: 1.5,
                budget_per_fn: None,
            },
        );
    }

    #[test]
    fn scheduled_crash_keeps_accounting_conserved() {
        // Invariant checks stay on through crash, zombie settles, and
        // cold rejoin; the crash shows up in the report's fault summary.
        let plan = FaultPlan::none()
            .with_crash(0, 5_000.0, 2_000.0)
            .with_crash(1, 9_000.0, 1_500.0)
            .with_recovery(3_000.0, 2.0)
            .with_seed(11);
        let report = Fleet::from_kinds(
            &Platform::aws_like(),
            &config(),
            &functions(),
            SchedulerKind::WarmFirst,
            KeepAliveKind::FixedTtl,
        )
        .with_faults(&plan, RetryKind::Fixed { max_attempts: 3, delay_ms: 100.0 })
        .run();
        let faults = report.faults.expect("fault plans report a summary");
        assert_eq!(faults.host_crashes, 2);
        assert!(report.counters.is_conserved());
        assert_eq!(report.counters.in_flight, 0);
        // Crash-failed attempts are attempts, whatever their fate after
        // retries.
        assert!(report.counters.failed_attempts >= faults.failed_in_flight);
    }

    #[test]
    fn recovering_hosts_bill_the_stretched_duration() {
        // A 5 ms CPU function at 1 GB runs ~11 ms, ~33 ms at a 3x recovery
        // slowdown: stretched or not, it bills one 100 ms increment and
        // one per-request fee.
        let cpu = ResourceProfile::builder("tiny").stage(Stage::cpu("work", 5.0)).build();
        let functions = [FleetFunction::new(
            FunctionConfig::new(cpu, MemorySize::MB_1024),
            FleetArrival::Steady(ArrivalProcess::poisson(20.0)),
        )];
        let plan = FaultPlan::none()
            .with_crash(0, 5_000.0, 1_000.0)
            .with_recovery(10_000.0, 3.0)
            .with_seed(5);
        let platform = Platform::aws_like();
        let report = Fleet::from_kinds(
            &platform,
            &FleetConfig::new(1, 4096.0, 20_000.0, 3).with_invariant_checks(),
            &functions,
            SchedulerKind::WarmFirst,
            KeepAliveKind::FixedTtl,
        )
        .with_faults(&plan, RetryKind::None)
        .run();
        assert_eq!(report.faults.expect("fault plans report a summary").host_crashes, 1);
        // About 200 of the completions fall in the recovery window.
        assert!(report.counters.completed > 300, "{:?}", report.counters);
        let (_, increment_cost) = platform.pricing().bill(50.0, MemorySize::MB_1024);
        let expected =
            (0..report.counters.completed).fold(0.0, |sum: f64, _| sum + increment_cost);
        assert_eq!(report.counters.sum_cost_usd.to_bits(), expected.to_bits());
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let plan = FaultPlan::none()
            .with_crash(0, 4_000.0, 1_000.0)
            .with_crash_process(30_000.0, 2_000.0)
            .with_transient(0.05, 0.1, 0.25)
            .with_recovery(2_000.0, 1.5)
            .with_seed(21);
        let run = || {
            Fleet::from_kinds(
                &Platform::aws_like(),
                &config(),
                &functions(),
                SchedulerKind::Random,
                KeepAliveKind::Adaptive,
            )
            .with_faults(
                &plan,
                RetryKind::ExponentialBackoff {
                    base_ms: 100.0,
                    factor: 2.0,
                    cap_ms: 3_000.0,
                    max_attempts: 3,
                    jitter_frac: 0.5,
                    budget_per_fn: Some(64),
                },
            )
            .run()
        };
        assert_eq!(run(), run());
    }
}
