//! The fleet: an event-driven cluster simulation.
//!
//! A [`Fleet`] drives a set of functions — each with its own arrival
//! process — against a cluster of [`Host`]s on the engine's discrete-event
//! core. Arrivals are self-scheduling events (each arrival draws the gap
//! to the next from the function's named [`RngStream`]); completions are
//! events scheduled when an invocation starts. The single-function
//! measurement harness is the degenerate case of a one-host fleet with no
//! limits.
//!
//! Request lifecycle per arrival:
//!
//! 1. the keep-alive policy observes the arrival (demand, not admission);
//! 2. concurrency limits admit or throttle (429);
//! 3. the scheduler picks a host (or the request is throttled for
//!    capacity);
//! 4. the host reuses a warm instance or places a cold one (evicting idle
//!    instances if memory is tight);
//! 5. the platform samples the invocation; a completion event at
//!    `now + init + duration` (plus the monitor's wrapper overhead in
//!    closed-loop fleets) releases the instance with the keep-alive
//!    policy's TTL;
//! 6. (closed-loop fleets only) the completion's monitoring sample is
//!    ingested by the embedded [`SizingService`]; a resize directive
//!    redeploys the function at the directed size across the cluster.
//!
//! A fleet is its trace sink plus one sink-free state, so swapping the
//! sink moves the state whole. The code is split by concern: this file
//! holds the public types and the run driver, `dispatch.rs` the request
//! path from arrival to completion, `fault_state.rs` crashes, outages,
//! failover and retries, `sizing.rs` the embedded sizing loop, and
//! `report.rs` the invariants and the final report.

mod dispatch;
mod fault_state;
mod report;
mod sizing;

use crate::faults::{FaultPlan, RetryKind};
use crate::host::Host;
use crate::keepalive::{KeepAliveKind, KeepAlivePolicy};
use crate::limits::ConcurrencyLimits;
use crate::scheduler::{Scheduler, SchedulerKind};
use crate::stats::FleetReport;
use dispatch::{ArrivalState, SettleSlab};
use fault_state::FaultState;
use sizeless_core::service::SizingService;
use sizeless_engine::{QueueKind, RngStream, SimEvent, SimTime, Simulation};
use sizeless_obs::{NullSink, TraceSink};
use sizeless_platform::{ExecutionPlan, FunctionConfig, Platform, ResourceProfile};
use sizeless_telemetry::FleetCounters;
use sizeless_workload::{ArrivalProcess, BurstyArrival};
use sizing::SizingLoop;

/// The fleet's simulation type: typed events on the engine core.
///
/// Every fleet event is a small `Copy` value ([`FleetEvent`]); payloads too
/// big to ride in the event (the settle record) live in the fleet's slab.
/// The event queue therefore stores plain values and a steady-state run
/// performs zero allocations per event — the boxed-closure path the fleet
/// used before allocated twice per invocation.
pub type FleetSim<S> = Simulation<Fleet<S>, FleetEvent>;

/// One scheduled fleet event. Kept small (16 bytes) and `Copy`: anything
/// bigger is parked in a slab on the [`Fleet`] and referenced by slot.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // variant fields are documented on the variants
pub enum FleetEvent {
    /// A request for `fn_id` arrives (and schedules the next arrival).
    Arrival { fn_id: u32 },
    /// An in-flight attempt settles; its record sits in the settle slab.
    Settle { slot: u32 },
    /// A retry attempt of a previously failed request starts.
    Retry { fn_id: u32, attempt: u32 },
    /// A host crashes and rejoins after `down_ms`.
    HostCrash { host: u32, down_ms: f64 },
    /// A crashed host rejoins cold.
    HostRejoin { host: u32 },
    /// A region-wide outage begins (multi-region driver).
    BeginOutage,
    /// A region-wide outage ends (multi-region driver).
    EndOutage,
    /// A request failed over from another region arrives.
    AcceptFailover { fn_id: u32 },
    /// A pre-registered workload shift applies (multi-region driver);
    /// the profile lives in the fleet's shift table.
    ShiftProfile { slot: u32 },
}

impl<S: TraceSink + 'static> SimEvent<Fleet<S>> for FleetEvent {
    /// Handles the event, then re-checks the fleet's invariants when
    /// [`FleetConfig::check_invariants`] is set — the one place they are
    /// checked, so every event kind is covered.
    fn fire(self, sim: &mut FleetSim<S>, fleet: &mut Fleet<S>) {
        match self {
            FleetEvent::Arrival { fn_id } => fleet.on_arrival(sim, fn_id as usize),
            FleetEvent::Settle { slot } => fleet.on_settle(sim, slot),
            FleetEvent::Retry { fn_id, attempt } => {
                let at = sim.now().as_millis();
                fleet.start_attempt(sim, fn_id as usize, attempt as usize, at);
            }
            FleetEvent::HostCrash { host, down_ms } => {
                fleet.on_host_crash(sim, host as usize, down_ms);
            }
            FleetEvent::HostRejoin { host } => fleet.on_host_rejoin(sim, host as usize),
            FleetEvent::BeginOutage => fleet.begin_outage(sim),
            FleetEvent::EndOutage => fleet.end_outage(sim),
            FleetEvent::AcceptFailover { fn_id } => fleet.accept_failover(sim, fn_id as usize),
            FleetEvent::ShiftProfile { slot } => fleet.state.apply_shift(slot),
        }
        if fleet.state.check_invariants {
            fleet.state.assert_invariants(sim.now().as_millis());
        }
    }
}

/// The arrival process driving one fleet function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetArrival {
    /// A steady (Poisson or constant-rate) process.
    Steady(ArrivalProcess),
    /// The two-state Markov-modulated bursty process.
    Bursty(BurstyArrival),
}

impl FleetArrival {
    /// The long-run mean request rate, rps.
    pub fn mean_rps(&self) -> f64 {
        match self {
            FleetArrival::Steady(p) => p.rps(),
            FleetArrival::Bursty(b) => b.mean_rps(),
        }
    }
}

/// One function deployed on the fleet.
#[derive(Debug, Clone)]
pub struct FleetFunction {
    /// The function's deployment (profile + memory size).
    pub config: FunctionConfig,
    /// Its arrival process.
    pub arrival: FleetArrival,
}

impl FleetFunction {
    /// A fleet function driven by `arrival`.
    pub fn new(config: FunctionConfig, arrival: FleetArrival) -> Self {
        FleetFunction { config, arrival }
    }
}

/// Cluster shape, workload window, limits, and seed of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of invoker hosts.
    pub hosts: usize,
    /// Memory capacity of each host, MB.
    pub host_memory_mb: f64,
    /// Arrival window, ms (completions may drain past it).
    pub duration_ms: f64,
    /// Master seed for all named streams of the run.
    pub seed: u64,
    /// Uniform per-function concurrency cap (`None` = unlimited).
    pub function_limit: Option<usize>,
    /// Account-wide concurrency cap (`None` = unlimited).
    pub account_limit: Option<usize>,
    /// Re-check conservation/capacity invariants after every event
    /// (used by the property tests; costs a full fleet scan per event).
    pub check_invariants: bool,
    /// Event-queue implementation for the run. Defaults to the calendar
    /// queue, which pops in exactly the heap's order (property-tested in
    /// the engine crate) while scaling better on big runs.
    pub queue: QueueKind,
}

impl FleetConfig {
    /// A fleet of `hosts` hosts with `host_memory_mb` MB each, driven for
    /// `duration_ms`, unlimited concurrency.
    ///
    /// # Panics
    ///
    /// Panics unless all sizes are strictly positive.
    pub fn new(hosts: usize, host_memory_mb: f64, duration_ms: f64, seed: u64) -> Self {
        assert!(hosts > 0, "need at least one host");
        assert!(host_memory_mb > 0.0, "host memory must be positive");
        assert!(duration_ms > 0.0, "duration must be positive");
        FleetConfig {
            hosts,
            host_memory_mb,
            duration_ms,
            seed,
            function_limit: None,
            account_limit: None,
            check_invariants: false,
            queue: QueueKind::calendar(),
        }
    }

    /// Returns a copy with a uniform per-function concurrency cap.
    pub fn with_function_limit(self, limit: usize) -> Self {
        FleetConfig {
            function_limit: Some(limit),
            ..self
        }
    }

    /// Returns a copy with an account-wide concurrency cap.
    pub fn with_account_limit(self, limit: usize) -> Self {
        FleetConfig {
            account_limit: Some(limit),
            ..self
        }
    }

    /// Returns a copy that re-checks invariants after every event.
    pub fn with_invariant_checks(self) -> Self {
        FleetConfig {
            check_invariants: true,
            ..self
        }
    }

    /// Returns a copy running on the given event-queue implementation.
    pub fn with_queue(self, queue: QueueKind) -> Self {
        FleetConfig { queue, ..self }
    }
}

/// A configured cluster simulation, ready to [`Fleet::run`].
///
/// The `S` parameter is the trace sink every lifecycle event is recorded
/// into. It defaults to [`NullSink`], whose `record` is an empty inline
/// function — an un-traced fleet compiles the instrumentation away and
/// behaves exactly as before. [`Fleet::with_trace`] swaps in a real sink.
pub struct Fleet<S: TraceSink = NullSink> {
    /// Everything the simulation reads and writes, apart from the sink.
    pub(crate) state: FleetState,
    /// The trace sink; the multi-region driver records its cross-fleet
    /// events (region handoffs and failovers) here too.
    pub(crate) sink: S,
}

/// A fleet's sink-free state: the deployment, the cluster and its
/// policies, the ledgers and streams, and the optional sizing loop and
/// fault state.
pub(crate) struct FleetState {
    platform: Platform,
    functions: Vec<FleetFunction>,
    /// Each function's execution plan at its deployed size, rebuilt when a
    /// resize or a workload shift changes the deployment.
    plans: Vec<ExecutionPlan>,
    arrivals: Vec<ArrivalState>,
    hosts: Vec<Host>,
    scheduler: Box<dyn Scheduler>,
    keepalive: Box<dyn KeepAlivePolicy>,
    limits: ConcurrencyLimits,
    counters: FleetCounters,
    max_latency_ms: f64,
    duration_ms: f64,
    default_ttl_ms: f64,
    check_invariants: bool,
    exec_rng: RngStream,
    sched_rng: RngStream,
    monitor_rng: RngStream,
    sizing: Option<SizingLoop>,
    seed: u64,
    faults: Option<FaultState>,
    /// Pending settle records referenced by [`FleetEvent::Settle`] slots.
    settles: SettleSlab,
    /// Registered workload-shift profiles referenced by
    /// [`FleetEvent::ShiftProfile`] slots (multi-region driver).
    shifts: Vec<(usize, ResourceProfile)>,
    /// Event-queue implementation [`Fleet::run_traced`] builds its
    /// simulation on.
    queue: QueueKind,
}

impl Fleet {
    /// Assembles a fleet with the built-in placement and keep-alive
    /// policies. The fixed and adaptive keep-alive windows are bounded by
    /// the platform's idle TTL.
    ///
    /// # Panics
    ///
    /// Panics if `functions` is empty.
    pub fn from_kinds(
        platform: &Platform,
        config: &FleetConfig,
        functions: &[FleetFunction],
        scheduler: SchedulerKind,
        keepalive: KeepAliveKind,
    ) -> Self {
        Fleet::new(
            platform,
            config,
            functions,
            scheduler.build(),
            keepalive.build(functions.len(), platform.cold_start_model().idle_ttl_ms),
        )
    }

    /// Assembles a fleet from explicit policy objects: the extension point
    /// for a [`Scheduler`] or [`KeepAlivePolicy`] that is not one of the
    /// built-in kinds, such as a decorator that times a built-in policy's
    /// calls. [`Fleet::from_kinds`] builds the built-in policies.
    ///
    /// # Panics
    ///
    /// Panics if `functions` is empty.
    pub fn new(
        platform: &Platform,
        config: &FleetConfig,
        functions: &[FleetFunction],
        scheduler: Box<dyn Scheduler>,
        keepalive: Box<dyn KeepAlivePolicy>,
    ) -> Self {
        assert!(!functions.is_empty(), "a fleet needs at least one function");
        let root = RngStream::from_seed(config.seed, "fleet");
        let state = FleetState {
            platform: platform.clone(),
            functions: functions.to_vec(),
            plans: functions
                .iter()
                .map(|f| platform.plan(f.config.profile(), f.config.memory()))
                .collect(),
            arrivals: functions
                .iter()
                .enumerate()
                .map(|(i, f)| ArrivalState::new(&root, i, f))
                .collect(),
            hosts: (0..config.hosts)
                .map(|i| Host::new(i, config.host_memory_mb))
                .collect(),
            scheduler,
            keepalive,
            limits: ConcurrencyLimits::new(
                functions.len(),
                config.function_limit,
                config.account_limit,
            ),
            counters: FleetCounters::default(),
            max_latency_ms: 0.0,
            duration_ms: config.duration_ms,
            default_ttl_ms: platform.cold_start_model().idle_ttl_ms,
            check_invariants: config.check_invariants,
            exec_rng: root.derive("executions"),
            sched_rng: root.derive("scheduler"),
            monitor_rng: root.derive("monitor"),
            sizing: None,
            seed: config.seed,
            faults: None,
            settles: SettleSlab::default(),
            shifts: Vec::new(),
            queue: config.queue,
        };
        Fleet { state, sink: NullSink }
    }
}

impl<S: TraceSink + 'static> Fleet<S> {
    /// Replaces the trace sink, rebinding the fleet to sink type `T`.
    /// Everything recorded so far stays with the old sink (swap before
    /// running). Virtual-time stamps make the resulting trace byte-stable
    /// across repeated seeds and worker-thread counts.
    pub fn with_trace<T: TraceSink>(self, sink: T) -> Fleet<T> {
        Fleet { state: self.state, sink }
    }

    /// Embeds an online [`SizingService`]: every completion's monitoring
    /// sample is ingested, and resize directives are applied to the live
    /// fleet — the function's deployment switches to the directed size, new
    /// cold starts pay the new size's scaling laws and pricing, and warm
    /// instances of the old size drain or are evicted via the hosts'
    /// generational pools. The wrapper monitor's overhead extends instance
    /// occupancy (the paper's observation: the wrapper does not perturb the
    /// measured execution time, it only occupies the worker longer).
    ///
    /// The monitor collects only [`SizingService::monitored_metrics`]:
    /// the metrics the service's decisions read, with the same bits and
    /// the same `monitor` stream position as a full monitor.
    pub fn with_sizing(mut self, service: SizingService) -> Self {
        let s = &self.state;
        self.state.sizing = Some(SizingLoop::new(service, &s.platform, &s.functions));
        self
    }

    /// Installs a fault plan and the retry policy for the attempts it
    /// fails: host crashes are materialized and scheduled as simulation
    /// events by [`Fleet::prime`]; transient faults are drawn per attempt.
    /// All fault randomness comes from streams derived from the *plan's*
    /// seed, so installing a plan never perturbs the run's arrival,
    /// execution, scheduler, or monitor streams — a faulted run stays
    /// bit-reproducible, and an empty plan changes nothing but the
    /// report's fault summary.
    ///
    /// Backoff jitter draws from a dedicated `"retry"` stream under the
    /// fleet's master seed. A request awaiting backoff stays in flight and
    /// keeps its concurrency slot; a capacity miss on a retry sheds the
    /// request via the existing 429 path instead of queueing.
    ///
    /// # Panics
    ///
    /// Panics if an exponential backoff's parameters are out of range
    /// (see [`RetryKind::ExponentialBackoff`]).
    pub fn with_faults(mut self, plan: &FaultPlan, retry: RetryKind) -> Self {
        retry.assert_valid();
        let s = &self.state;
        let faults = FaultState::new(plan, retry, s.hosts.len(), s.duration_ms, s.seed);
        self.state.faults = Some(faults);
        self
    }

    /// Schedules every function's first arrival onto `sim`. Together with
    /// [`Fleet::into_report_and_sink`] this is the decomposed [`Fleet::run`]:
    /// external drivers (e.g. [`run_multi_region`](crate::region)) prime
    /// several fleets onto their own simulations, interleave them through
    /// one merged deterministic event loop, and report each at the end.
    pub fn prime(&mut self, sim: &mut FleetSim<S>) {
        for fn_id in 0..self.state.functions.len() {
            let at = self.state.next_arrival_gap(fn_id);
            if at < self.state.duration_ms {
                sim.schedule_event_at(
                    SimTime::from_millis(at),
                    FleetEvent::Arrival { fn_id: fn_id as u32 },
                );
            }
        }
        if let Some(f) = &self.state.faults {
            for c in &f.crashes {
                sim.schedule_event_at(
                    SimTime::from_millis(c.at_ms),
                    FleetEvent::HostCrash { host: c.host as u32, down_ms: c.down_ms },
                );
            }
        }
    }

    /// Runs the fleet to completion and reports.
    pub fn run(self) -> FleetReport {
        self.run_traced().0
    }

    /// Runs the fleet to completion and hands back the trace sink alongside
    /// the report — the traced analogue of [`Fleet::run`].
    pub fn run_traced(mut self) -> (FleetReport, S) {
        let mut sim: FleetSim<S> =
            Simulation::with_queue(self.state.queue, self.event_capacity_hint());
        self.prime(&mut sim);
        sim.run_to_completion(&mut self);
        self.into_report_and_sink(&sim)
    }

    /// Expected simultaneous event count, used to pre-reserve queue
    /// capacity: roughly one pending arrival plus one in-flight settle per
    /// function, scaled by the fleet's aggregate arrival rate.
    pub fn event_capacity_hint(&self) -> usize {
        let functions = &self.state.functions;
        let rps: f64 = functions.iter().map(|f| f.arrival.mean_rps()).sum();
        functions.len() * 2 + rps as usize + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizeless_platform::{MemorySize, ResourceProfile, Stage};

    /// Two functions, one steady and one bursty: the fixture the unit
    /// tests of every fleet concern share.
    pub(super) fn functions() -> Vec<FleetFunction> {
        let cpu = ResourceProfile::builder("fleet-cpu")
            .stage(Stage::cpu("work", 30.0))
            .build();
        let io = ResourceProfile::builder("fleet-io")
            .stage(Stage::file_io("io", 256.0, 64.0))
            .build();
        vec![
            FleetFunction::new(
                FunctionConfig::new(cpu, MemorySize::MB_512),
                FleetArrival::Steady(ArrivalProcess::poisson(20.0)),
            ),
            FleetFunction::new(
                FunctionConfig::new(io, MemorySize::MB_256),
                FleetArrival::Bursty(BurstyArrival::new(4.0, 60.0, 5_000.0, 1_000.0)),
            ),
        ]
    }

    /// Four 2 GB hosts for 20 s, invariants checked after every event.
    pub(super) fn config() -> FleetConfig {
        FleetConfig::new(4, 2048.0, 20_000.0, 7).with_invariant_checks()
    }

    #[test]
    fn fleet_conserves_requests() {
        let report = Fleet::from_kinds(
            &Platform::aws_like(),
            &config(),
            &functions(),
            SchedulerKind::WarmFirst,
            KeepAliveKind::FixedTtl,
        )
        .run();
        assert!(report.counters.is_conserved());
        assert_eq!(report.counters.in_flight, 0);
        assert!(report.counters.submitted > 100, "{:?}", report.counters);
        assert!(report.counters.completed > 0);
        assert!(report.metrics.utilization > 0.0);
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let run = || {
            Fleet::from_kinds(
                &Platform::aws_like(),
                &config(),
                &functions(),
                SchedulerKind::Random,
                KeepAliveKind::Adaptive,
            )
            .run()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let platform = Platform::aws_like();
        let a = Fleet::from_kinds(
            &platform,
            &config(),
            &functions(),
            SchedulerKind::WarmFirst,
            KeepAliveKind::FixedTtl,
        )
        .run();
        let b = Fleet::from_kinds(
            &platform,
            &FleetConfig {
                seed: 8,
                ..config()
            },
            &functions(),
            SchedulerKind::WarmFirst,
            KeepAliveKind::FixedTtl,
        )
        .run();
        assert_ne!(a.counters.submitted, b.counters.submitted);
    }

    #[test]
    fn no_keepalive_pays_more_cold_starts_than_fixed() {
        let platform = Platform::aws_like();
        let none = Fleet::from_kinds(
            &platform,
            &config(),
            &functions(),
            SchedulerKind::WarmFirst,
            KeepAliveKind::NoKeepAlive,
        )
        .run();
        let fixed = Fleet::from_kinds(
            &platform,
            &config(),
            &functions(),
            SchedulerKind::WarmFirst,
            KeepAliveKind::FixedTtl,
        )
        .run();
        assert!(
            none.metrics.cold_start_rate > 2.0 * fixed.metrics.cold_start_rate,
            "no-keepalive {} vs fixed {}",
            none.metrics.cold_start_rate,
            fixed.metrics.cold_start_rate
        );
        assert!(none.metrics.wasted_mb_ms < fixed.metrics.wasted_mb_ms);
    }

    #[test]
    fn single_host_unlimited_fleet_matches_harness_shape() {
        // The harness is the one-host, no-limit special case: everything
        // completes, nothing throttles.
        let cfg = FleetConfig::new(1, 1_000_000.0, 20_000.0, 3).with_invariant_checks();
        let report = Fleet::from_kinds(
            &Platform::aws_like(),
            &cfg,
            &functions()[..1],
            SchedulerKind::WarmFirst,
            KeepAliveKind::FixedTtl,
        )
        .run();
        assert_eq!(report.counters.throttled(), 0);
        assert_eq!(report.counters.submitted, report.counters.completed);
    }
}
