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

use crate::faults::{FaultPlan, HostCrash, Recovery, RetryKind, TransientFaults};
use crate::host::{Host, Placement};
use crate::keepalive::{KeepAliveKind, KeepAlivePolicy};
use crate::limits::ConcurrencyLimits;
use crate::scheduler::{Scheduler, SchedulerKind};
use crate::stats::{FaultSummary, FleetReport, RightsizingReport};
use sizeless_core::service::{
    DirectiveReason, FnPhase, IngestOutcome, RouteDecision, SizingDirective, SizingService,
};
use sizeless_engine::{QueueKind, RngStream, SimEvent, SimTime, Simulation};
use sizeless_obs::{
    FaultKind, LoopPhase, NullSink, ResizeCause, ThrottleCause, TraceEvent, TraceSink,
};
use sizeless_platform::{ExecutionPlan, FunctionConfig, MemorySize, Platform, ResourceProfile};
use sizeless_telemetry::{
    FleetCounters, FleetMetrics, InvocationSample, ResourceMonitor, RightsizingCounters,
    RightsizingMetrics, SimRunStats,
};
use sizeless_workload::{ArrivalProcess, BurstyArrival, BurstySampler};

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
    fn fire(self, sim: &mut FleetSim<S>, fleet: &mut Fleet<S>) {
        match self {
            FleetEvent::Arrival { fn_id } => Fleet::on_arrival(sim, fleet, fn_id as usize),
            FleetEvent::Settle { slot } => {
                let p = fleet.settles.take(slot);
                fleet.on_settle(sim, p.done, p.sample, p.fault);
            }
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
            FleetEvent::ShiftProfile { slot } => fleet.apply_shift(slot),
        }
    }
}

/// Everything a [`FleetEvent::Settle`] needs, parked in the slab between
/// dispatch and settle.
#[derive(Debug, Clone)]
struct PendingSettle {
    done: Completion,
    sample: Option<InvocationSample>,
    fault: Option<FaultKind>,
}

/// A free-list slab of pending settle records: slots are reused as
/// invocations complete, so after warmup the steady-state attempt/settle
/// path touches no allocator at all.
#[derive(Debug, Default)]
struct SettleSlab {
    slots: Vec<Option<PendingSettle>>,
    free: Vec<u32>,
}

impl SettleSlab {
    fn insert(&mut self, p: PendingSettle) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(p);
                slot
            }
            None => {
                self.slots.push(Some(p));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn take(&mut self, slot: u32) -> PendingSettle {
        self.free.push(slot);
        // lint: allow(panic001) reason="a settle event is scheduled exactly once per slab insert, so the slot is full"
        self.slots[slot as usize].take().unwrap()
    }
}

/// Maps the sizing service's phase enum onto the obs crate's primitive
/// mirror (obs sits below the core crate and cannot name its types).
fn loop_phase(p: FnPhase) -> LoopPhase {
    match p {
        FnPhase::Measuring => LoopPhase::Measuring,
        FnPhase::Referencing => LoopPhase::Referencing,
        FnPhase::Watching => LoopPhase::Watching,
        FnPhase::Shadowing => LoopPhase::Shadowing,
    }
}

/// Maps a directive reason onto the obs crate's resize-cause mirror.
fn resize_cause(r: DirectiveReason) -> ResizeCause {
    match r {
        DirectiveReason::Calibrate => ResizeCause::Calibrate,
        DirectiveReason::Recommend => ResizeCause::Recommend,
        DirectiveReason::Drift => ResizeCause::Drift,
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

/// Per-function incremental arrival state.
struct ArrivalState {
    rng: RngStream,
    gaps: GapState,
}

enum GapState {
    Steady(ArrivalProcess),
    Bursty(BurstySampler),
}

/// Everything a completion event needs to settle one invocation. `memory`
/// is the size the invocation *ran* at — captured at dispatch, because a
/// sizing directive may redeploy the function before it completes.
/// `pool` is the host-pool key the instance was placed under: the function
/// id itself, or the function's *shadow* pool (`fn_id + functions.len()`)
/// when the sizing service routed this invocation to the base size for
/// shadow re-measurement — shadow instances keep their own warm pool so
/// base-size warmth never thrashes the directed-size generations.
#[derive(Debug, Clone, Copy)]
struct Completion {
    fn_id: usize,
    pool: usize,
    host: usize,
    placement: Placement,
    memory: MemorySize,
    /// User-visible latency (init + execution), ms.
    latency_ms: f64,
    /// Instance occupancy (latency + monitoring overhead), ms.
    occupancy_ms: f64,
    exec_ms: f64,
    cost_usd: f64,
    /// Which attempt of the request this was (1-based).
    attempt: usize,
    /// The host's crash epoch captured at dispatch: a mismatch at settle
    /// time means the host crashed while this attempt was in flight.
    epoch: u64,
}

/// Live fault-injection state, built from a [`FaultPlan`] by
/// [`Fleet::with_faults`].
struct FaultState {
    transient: Option<TransientFaults>,
    recovery: Option<Recovery>,
    /// Materialized crash schedule; [`Fleet::prime`] turns it into events.
    crashes: Vec<HostCrash>,
    /// Stream for per-attempt transient fault draws (derived from the
    /// plan's seed, independent of every other stream of the run).
    rng: RngStream,
    /// Per-host crash epoch, bumped on every crash.
    epoch: Vec<u64>,
    /// When each host last went down (for the rejoin trace).
    down_since: Vec<f64>,
    /// Until when each host runs slowed after a rejoin.
    recovering_until: Vec<f64>,
    /// In-flight invocations torn down by a crash, still awaiting their
    /// originally scheduled settle event.
    crash_zombies: usize,
    /// Drift detections before this virtual time are fault-masked.
    mask_until_ms: f64,
    drift_mask: bool,
    mask_pad_ms: f64,
    /// Whether a driver-controlled region outage is active.
    outage: bool,
    failover: bool,
    /// Arrivals diverted during an outage, drained by the region driver.
    diverted: Vec<(f64, usize)>,
    summary: FaultSummary,
    retry: RetryState,
}

/// The retry policy for failed attempts, installed with the fault plan.
struct RetryState {
    kind: RetryKind,
    /// Retries each function has consumed, drawn down by a per-function
    /// budget.
    spent: Vec<usize>,
    rng: RngStream,
    /// Requests sitting out a backoff between a failed attempt and their
    /// next one — still in flight and still holding their limit slot.
    pending: usize,
}

/// The embedded closed-loop right-sizer: the wrapper-style monitor feeding
/// an online [`SizingService`] whose directives the fleet applies at
/// runtime.
struct SizingLoop {
    service: SizingService,
    monitor: ResourceMonitor,
    /// Each function's originally deployed size — the "before" side of the
    /// before/after-resize accounting.
    original: Vec<MemorySize>,
    /// Each function's execution plan at the service's base size, for
    /// shadow routes.
    base_plans: Vec<ExecutionPlan>,
    counters: RightsizingCounters,
}

/// A configured cluster simulation, ready to [`Fleet::run`].
///
/// The `S` parameter is the trace sink every lifecycle event is recorded
/// into. It defaults to [`NullSink`], whose `record` is an empty inline
/// function — an un-traced fleet compiles the instrumentation away and
/// behaves exactly as before. [`Fleet::with_trace`] swaps in a real sink.
pub struct Fleet<S: TraceSink = NullSink> {
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
    sink: S,
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
        let arrivals = functions
            .iter()
            .enumerate()
            .map(|(i, f)| {
                // Index-salted so duplicate function names stay decorrelated.
                let mut rng = root.derive(&format!("arrivals/{i}/{}", f.config.name()));
                let gaps = match f.arrival {
                    FleetArrival::Steady(p) => GapState::Steady(p),
                    FleetArrival::Bursty(b) => GapState::Bursty(b.sampler(&mut rng)),
                };
                ArrivalState { rng, gaps }
            })
            .collect();
        Fleet {
            platform: platform.clone(),
            functions: functions.to_vec(),
            plans: functions
                .iter()
                .map(|f| platform.plan(f.config.profile(), f.config.memory()))
                .collect(),
            arrivals,
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
            sink: NullSink,
            seed: config.seed,
            faults: None,
            settles: SettleSlab::default(),
            shifts: Vec::new(),
            queue: config.queue,
        }
    }
}

impl<S: TraceSink + 'static> Fleet<S> {
    /// Replaces the trace sink, rebinding the fleet to sink type `T`.
    /// Everything recorded so far stays with the old sink (swap before
    /// running). Virtual-time stamps make the resulting trace byte-stable
    /// across repeated seeds and worker-thread counts.
    pub fn with_trace<T: TraceSink>(self, sink: T) -> Fleet<T> {
        Fleet {
            platform: self.platform,
            functions: self.functions,
            plans: self.plans,
            arrivals: self.arrivals,
            hosts: self.hosts,
            scheduler: self.scheduler,
            keepalive: self.keepalive,
            limits: self.limits,
            counters: self.counters,
            max_latency_ms: self.max_latency_ms,
            duration_ms: self.duration_ms,
            default_ttl_ms: self.default_ttl_ms,
            check_invariants: self.check_invariants,
            exec_rng: self.exec_rng,
            sched_rng: self.sched_rng,
            monitor_rng: self.monitor_rng,
            sizing: self.sizing,
            sink,
            seed: self.seed,
            faults: self.faults,
            settles: self.settles,
            shifts: self.shifts,
            queue: self.queue,
        }
    }

    /// Mutable access to the trace sink — the multi-region driver records
    /// cross-fleet events (region handoffs and failovers) through this.
    pub(crate) fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
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
        let base = service.base();
        self.sizing = Some(SizingLoop {
            monitor: ResourceMonitor::collecting(&service.monitored_metrics()),
            service,
            original: self.functions.iter().map(|f| f.config.memory()).collect(),
            base_plans: self
                .functions
                .iter()
                .map(|f| self.platform.plan(f.config.profile(), base))
                .collect(),
            counters: RightsizingCounters::default(),
        });
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
        let crashes = plan.materialize_crashes(self.hosts.len(), self.duration_ms);
        self.faults = Some(FaultState {
            transient: plan.transient,
            recovery: plan.recovery,
            crashes,
            rng: RngStream::from_seed(plan.seed, "faults").derive("transient"),
            epoch: vec![0; self.hosts.len()],
            down_since: vec![0.0; self.hosts.len()],
            recovering_until: vec![f64::NEG_INFINITY; self.hosts.len()],
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
                rng: RngStream::from_seed(self.seed, "fleet").derive("retry"),
                pending: 0,
            },
        });
        self
    }

    fn next_arrival_gap(&mut self, fn_id: usize) -> f64 {
        let state = &mut self.arrivals[fn_id];
        match &mut state.gaps {
            GapState::Steady(p) => p.next_gap_ms(&mut state.rng),
            GapState::Bursty(s) => s.next_gap_ms(&mut state.rng),
        }
    }

    /// Counts a throttle (429) under its cause and records it.
    fn throttle(&mut self, now_ms: f64, fn_id: usize, cause: ThrottleCause) {
        match cause {
            ThrottleCause::Function => self.counters.throttled_function += 1,
            ThrottleCause::Account => self.counters.throttled_account += 1,
            ThrottleCause::Capacity => self.counters.throttled_capacity += 1,
        }
        self.sink.record(now_ms, TraceEvent::Throttle { fn_id: fn_id as u32, cause });
    }

    /// Handles one request for `fn_id` arriving at `now_ms`.
    fn dispatch(&mut self, sim: &mut FleetSim<S>, fn_id: usize, now_ms: f64) {
        if let Some(f) = self.faults.as_mut() {
            if f.outage && f.failover {
                // The whole region is dark: hand the arrival to the
                // multi-region driver for failover instead of counting it
                // against this region's ledgers.
                f.summary.failovers_out += 1;
                f.diverted.push((now_ms, fn_id));
                return;
            }
        }
        self.counters.submitted += 1;
        self.keepalive.observe_arrival(fn_id, now_ms);
        if let Err(cause) = self.limits.try_acquire(fn_id) {
            self.throttle(now_ms, fn_id, cause);
            return;
        }
        self.start_attempt(sim, fn_id, 1, now_ms);
    }

    /// Starts one execution attempt of an admitted request — attempt 1
    /// straight from [`Fleet::dispatch`], later attempts from
    /// self-scheduled retry events. The request already holds its
    /// concurrency slot either way.
    fn start_attempt(&mut self, sim: &mut FleetSim<S>, fn_id: usize, attempt: usize, now_ms: f64) {
        if attempt > 1 {
            // lint: allow(panic002) reason="retry attempts are only scheduled by fail_attempt, which requires a fault plan"
            let f = self.faults.as_mut().expect("retry attempt without a fault plan");
            f.retry.pending -= 1;
        }
        // Per-invocation routing hook: while a function shadow-re-measures,
        // the service sends every period-th dispatch to the base size.
        // Shadow invocations live in their own host pool (offset by the
        // function count) so base-size warmth coexists with the
        // directed-size generations instead of retiring them.
        let deployed = self.functions[fn_id].config.memory();
        let (memory, pool) = match &mut self.sizing {
            Some(s) => match s.service.route(fn_id) {
                RouteDecision::Shadow(base) => (base, self.functions.len() + fn_id),
                RouteDecision::Deployed => (deployed, fn_id),
            },
            None => (deployed, fn_id),
        };
        if pool != fn_id {
            self.sink.record(
                now_ms,
                TraceEvent::ShadowRoute { fn_id: fn_id as u32, base_mb: memory.mb() },
            );
        }
        let mem_mb = f64::from(memory.mb());
        let selected =
            self.scheduler
                .select_host(pool, mem_mb, &mut self.hosts, now_ms, &mut self.sched_rng);
        // Placing may evict idle instances; try_begin reports how many, so
        // they are attributed to this dispatch.
        let placement = selected.and_then(|h| {
            self.hosts[h]
                .try_begin(pool, mem_mb, self.default_ttl_ms, now_ms)
                .map(|(p, cold, evicted)| (h, p, cold, evicted))
        });
        let Some((host, placement, cold, evicted)) = placement else {
            // Capacity miss — shed via the existing 429 path. On a retry
            // attempt this sheds the whole already-admitted request:
            // degradation under capacity loss is throttling, never
            // unbounded queueing.
            self.limits.release(fn_id);
            if attempt > 1 {
                self.counters.in_flight -= 1;
            }
            self.throttle(now_ms, fn_id, ThrottleCause::Capacity);
            return;
        };
        if evicted > 0 {
            self.sink.record(
                now_ms,
                TraceEvent::Eviction { host: host as u32, evicted: evicted as u32 },
            );
        }
        self.sink.record(
            now_ms,
            TraceEvent::Dispatch {
                fn_id: fn_id as u32,
                host: host as u32,
                memory_mb: memory.mb(),
                cold,
                shadow: pool != fn_id,
            },
        );
        if pool != fn_id {
            // Count only shadow invocations that actually started — a
            // throttled shadow route burned its period slot but produced
            // no base-size sample.
            // lint: allow(panic002) reason="shadow pool ids are only created when a sizing service is installed"
            let sizing = self.sizing.as_mut().expect("shadow pools exist only with sizing");
            sizing.counters.shadow_dispatches += 1;
        }
        // The plans were built when the deployment last changed, so an
        // invocation only draws its noise; shadow routes run the base-size
        // plan. The record's name stays empty (the completion path tracks
        // functions by id).
        let plan = match &self.sizing {
            Some(s) if pool != fn_id => &s.base_plans[fn_id],
            _ => &self.plans[fn_id],
        };
        debug_assert_eq!(plan.memory(), memory, "stale execution plan");
        let mut record = self.platform.invoke_planned(plan, cold, &mut self.exec_rng);
        if let Some(f) = self.faults.as_ref() {
            if let Some(r) = f.recovery {
                if now_ms < f.recovering_until[host] {
                    // A recently rejoined host runs degraded: execution and
                    // CPU usage stretch, and the stretched duration is
                    // billed — the crash-induced latency spike the drift
                    // detector must not mistake for workload drift.
                    record.duration_ms *= r.slowdown;
                    (record.billed_ms, record.cost_usd) =
                        self.platform.pricing().bill(record.duration_ms, memory);
                    record.usage.duration_ms *= r.slowdown;
                    record.usage.user_cpu_ms *= r.slowdown;
                    record.usage.sys_cpu_ms *= r.slowdown;
                }
            }
        }
        if cold {
            self.counters.cold_starts += 1;
            self.sink.record(
                now_ms,
                TraceEvent::ColdStart {
                    fn_id: fn_id as u32,
                    host: host as u32,
                    memory_mb: memory.mb(),
                    init_ms: record.init_ms,
                },
            );
            // Shadow invocations cold-start at the *base* size; feeding
            // their init times to the keep-alive observer would skew the
            // function's TTL sizing toward a pool it only uses transiently.
            if pool == fn_id {
                self.keepalive.observe_cold_start(fn_id, record.init_ms);
            }
        }
        if attempt == 1 {
            self.counters.in_flight += 1;
        }
        let latency_ms = record.init_ms + record.duration_ms;
        let exec_ms = record.duration_ms;
        let cost_usd = record.cost_usd;
        // The attempt's fate is sealed at dispatch: transient fault draws
        // come from the fault stream only, so installing a fault plan
        // never perturbs arrival, execution, or scheduling randomness.
        let mut planned_fail: Option<(FaultKind, f64)> = None;
        if let Some(f) = self.faults.as_mut() {
            if let Some(t) = f.transient {
                if cold && f.rng.chance(t.init_failure_p) {
                    planned_fail = Some((FaultKind::Init, record.init_ms));
                } else if f.rng.chance(t.exec_failure_p) {
                    planned_fail = Some((
                        FaultKind::Exec,
                        record.init_ms + record.duration_ms * t.failure_duration_frac,
                    ));
                }
            }
        }
        // The monitor's wrapper overhead occupies the instance past the
        // user-visible completion; the sample itself is written (ingested)
        // when the instance is released. A failing attempt occupies its
        // instance only until the failure and never produces a sample —
        // failed executions are excluded from the sizing window.
        let (occupancy_ms, sample) = match planned_fail {
            Some((_, at)) => (at, None),
            None => match &mut self.sizing {
                Some(s) => (
                    latency_ms + s.monitor.overhead_ms,
                    Some(s.monitor.observe(now_ms, &record.usage, &mut self.monitor_rng)),
                ),
                None => (latency_ms, None),
            },
        };
        let epoch = self.faults.as_ref().map_or(0, |f| f.epoch[host]);
        let fail_cause = planned_fail.map(|(c, _)| c);
        let done = Completion {
            fn_id,
            pool,
            host,
            placement,
            memory,
            latency_ms,
            occupancy_ms,
            exec_ms,
            cost_usd,
            attempt,
            epoch,
        };
        let slot = self.settles.insert(PendingSettle { done, sample, fault: fail_cause });
        sim.schedule_event_at(
            SimTime::from_millis(now_ms + occupancy_ms),
            FleetEvent::Settle { slot },
        );
    }

    /// Every attempt settles here: a host crash since dispatch overrides
    /// everything (the placement's generation was pruned), then a planned
    /// transient fault, and only then normal completion.
    fn on_settle(
        &mut self,
        sim: &mut FleetSim<S>,
        done: Completion,
        sample: Option<InvocationSample>,
        fault: Option<FaultKind>,
    ) {
        let now_ms = sim.now().as_millis();
        let crashed = self
            .faults
            .as_ref()
            .is_some_and(|f| f.epoch[done.host] != done.epoch);
        if crashed {
            // The host crashed between dispatch and settle: its pools were
            // pruned wholesale, so there is no placement left to complete.
            // lint: allow(panic002) reason="a stale epoch is only possible when a fault plan is installed"
            let f = self.faults.as_mut().expect("stale epochs imply faults");
            f.crash_zombies -= 1;
            self.fail_attempt(sim, done, FaultKind::HostCrash);
            return;
        }
        if let Some(cause) = fault {
            // TTL 0 reclaims the instance immediately (an expiration) and
            // accounts the partial busy time up to the failure point.
            self.hosts[done.host].complete(done.pool, done.placement, now_ms, 0.0, done.occupancy_ms);
            self.fail_attempt(sim, done, cause);
            return;
        }
        self.on_complete(sim, done, sample);
    }

    /// A failed attempt either schedules a retry (staying in flight and
    /// holding its limit slot through the backoff) or fails the request
    /// terminally.
    fn fail_attempt(&mut self, sim: &mut FleetSim<S>, done: Completion, cause: FaultKind) {
        let now_ms = sim.now().as_millis();
        self.counters.failed_attempts += 1;
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
        let r = &mut self.faults.as_mut().expect("failed attempts imply faults").retry;
        if let Some(delay_ms) = r.kind.backoff_ms(&mut r.spent, done.fn_id, next, &mut r.rng) {
            r.pending += 1;
            self.counters.retries_scheduled += 1;
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
            self.counters.failed += 1;
            if done.attempt > 1 {
                self.counters.failed_after_retries += 1;
            }
            self.counters.in_flight -= 1;
            self.limits.release(done.fn_id);
        }
        if self.check_invariants {
            self.assert_invariants(now_ms);
        }
    }

    /// Crashes `host` at the current simulation time: warm generations are
    /// pruned, in-flight attempts become zombies that fail at their settle
    /// events, and the host rejoins cold after `down_ms`.
    fn on_host_crash(&mut self, sim: &mut FleetSim<S>, host: usize, down_ms: f64) {
        if !self.hosts[host].is_available() {
            return;
        }
        let now_ms = sim.now().as_millis();
        self.crash_host(host, now_ms);
        // lint: allow(panic002) reason="crash events are only scheduled when a fault plan is installed"
        let f = self.faults.as_mut().expect("crash events imply faults");
        if f.drift_mask {
            // The mask covers the outage plus the post-rejoin recovery
            // window, when crash-induced latency spikes would otherwise
            // read as workload drift.
            let recovery_ms = f.recovery.map_or(0.0, |r| r.recovery_ms);
            f.mask_until_ms = f.mask_until_ms.max(now_ms + down_ms + recovery_ms + f.mask_pad_ms);
        }
        sim.schedule_event_at(
            SimTime::from_millis(now_ms + down_ms),
            FleetEvent::HostRejoin { host: host as u32 },
        );
        if self.check_invariants {
            self.assert_invariants(now_ms);
        }
    }

    fn on_host_rejoin(&mut self, sim: &mut FleetSim<S>, host: usize) {
        if !self.hosts[host].is_available() {
            self.rejoin_host(host, sim.now().as_millis());
        }
    }

    /// Takes an available `host` down: its in-flight attempts become
    /// zombies under a new crash epoch, the losses go into the fault
    /// summary, and a `host_down` record is written.
    fn crash_host(&mut self, host: usize, now_ms: f64) {
        let (lost_in_flight, lost_warm) = self.hosts[host].crash(now_ms);
        // lint: allow(panic002) reason="crashes and outages are only scheduled when a fault plan is installed"
        let f = self.faults.as_mut().expect("crashes imply faults");
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
        self.hosts[host].rejoin();
        // lint: allow(panic002) reason="rejoins and outages are only scheduled when a fault plan is installed"
        let f = self.faults.as_mut().expect("rejoins imply faults");
        let down_ms = now_ms - f.down_since[host];
        if let Some(r) = f.recovery {
            f.recovering_until[host] = now_ms + r.recovery_ms;
        }
        self.sink.record(now_ms, TraceEvent::HostUp { host: host as u32, down_ms });
    }

    /// Begins a region-wide outage: every available host crashes and new
    /// arrivals divert to failover (or shed) until [`Fleet::end_outage`].
    /// Driven externally by the multi-region runner.
    pub(crate) fn begin_outage(&mut self, sim: &mut FleetSim<S>) {
        let now_ms = sim.now().as_millis();
        for host in 0..self.hosts.len() {
            if self.hosts[host].is_available() {
                self.crash_host(host, now_ms);
            }
        }
        // lint: allow(panic002) reason="outage events are only scheduled when a fault plan is installed"
        let f = self.faults.as_mut().expect("outage events imply faults");
        f.outage = true;
        if self.check_invariants {
            self.assert_invariants(now_ms);
        }
    }

    /// Ends a region-wide outage: every downed host rejoins cold.
    pub(crate) fn end_outage(&mut self, sim: &mut FleetSim<S>) {
        let now_ms = sim.now().as_millis();
        // lint: allow(panic002) reason="outage events are only scheduled when a fault plan is installed"
        let f = self.faults.as_mut().expect("outage events imply faults");
        if f.drift_mask {
            let recovery_ms = f.recovery.map_or(0.0, |r| r.recovery_ms);
            f.mask_until_ms = f.mask_until_ms.max(now_ms + recovery_ms + f.mask_pad_ms);
        }
        f.outage = false;
        for host in 0..self.hosts.len() {
            if !self.hosts[host].is_available() {
                self.rejoin_host(host, now_ms);
            }
        }
    }

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

    /// Accepts a request failed over from another region: it enters this
    /// fleet's admission path like a local arrival.
    pub(crate) fn accept_failover(&mut self, sim: &mut FleetSim<S>, fn_id: usize) {
        let now_ms = sim.now().as_millis();
        if let Some(f) = self.faults.as_mut() {
            f.summary.failovers_in += 1;
        }
        self.dispatch(sim, fn_id, now_ms);
        if self.check_invariants {
            self.assert_invariants(now_ms);
        }
    }

    /// Sheds a diverted arrival when no healthy failover target exists: it
    /// still counts as submitted, then throttles via the 429 path.
    pub(crate) fn shed_diverted(&mut self, now_ms: f64, fn_id: usize) {
        self.counters.submitted += 1;
        self.keepalive.observe_arrival(fn_id, now_ms);
        self.throttle(now_ms, fn_id, ThrottleCause::Capacity);
    }

    fn on_complete(
        &mut self,
        sim: &mut FleetSim<S>,
        done: Completion,
        sample: Option<InvocationSample>,
    ) {
        let now_ms = sim.now().as_millis();
        let ttl = self.keepalive.ttl_ms(done.fn_id);
        self.hosts[done.host].complete(done.pool, done.placement, now_ms, ttl, done.occupancy_ms);
        self.limits.release(done.fn_id);
        let exec_mb_ms = done.exec_ms * f64::from(done.memory.mb());
        self.counters.exec_mb_ms += exec_mb_ms;
        self.counters.in_flight -= 1;
        self.counters.completed += 1;
        self.counters.sum_attempts_completed += done.attempt;
        self.counters.sum_latency_ms += done.latency_ms;
        self.counters.sum_cost_usd += done.cost_usd;
        self.max_latency_ms = self.max_latency_ms.max(done.latency_ms);

        // While a crash or outage mask is active, drift detections are
        // suppressed: recovery-degraded samples would otherwise trigger
        // false reverts to base.
        let fault_masked = self
            .faults
            .as_ref()
            .is_some_and(|f| f.drift_mask && now_ms < f.mask_until_ms);
        let mut outcome = IngestOutcome::default();
        if let Some(sizing) = &mut self.sizing {
            let c = &mut sizing.counters;
            if done.memory == sizing.original[done.fn_id] {
                c.completed_at_original += 1;
                c.sum_latency_original_ms += done.latency_ms;
                c.sum_cost_original_usd += done.cost_usd;
                c.exec_mb_ms_original += exec_mb_ms;
            } else {
                c.completed_at_directed += 1;
                c.sum_latency_directed_ms += done.latency_ms;
                c.sum_cost_directed_usd += done.cost_usd;
                c.exec_mb_ms_directed += exec_mb_ms;
            }
            c.exec_ms_total += done.exec_ms;
            if done.memory == sizing.service.base() {
                c.completed_at_base += 1;
                c.exec_ms_at_base += done.exec_ms;
            }
            c.samples_ingested += 1;
            // lint: allow(panic002) reason="sizing fleets install a monitor for every function, so the sample is always present"
            let sample = sample.expect("sizing fleets monitor every invocation");
            outcome = sizing.service.ingest_masked(done.fn_id, done.memory, sample, fault_masked);
        }
        self.trace_ingest(now_ms, done.fn_id, outcome);
        if let Some(d) = outcome.directive {
            self.apply_directive(d, now_ms);
        }
        if self.check_invariants {
            self.assert_invariants(now_ms);
        }
    }

    /// Records the sizing-loop transitions one ingest reported, in loop
    /// order: drift, its suppression, the phase change, the artifact update.
    fn trace_ingest(&mut self, now_ms: f64, fn_id: usize, outcome: IngestOutcome) {
        let fn_id = fn_id as u32;
        if outcome.drift_detected {
            self.sink.record(now_ms, TraceEvent::DriftDetected { fn_id });
        }
        if outcome.drift_suppressed {
            self.sink.record(now_ms, TraceEvent::DriftSuppressed { fn_id });
        }
        if let Some((from, to)) = outcome.transition {
            self.sink.record(
                now_ms,
                TraceEvent::PhaseTransition { fn_id, from: loop_phase(from), to: loop_phase(to) },
            );
        }
        if let Some(updates) = outcome.artifact_updates {
            self.sink.record(now_ms, TraceEvent::ArtifactUpdate { updates: updates as u64 });
        }
    }

    /// Applies a sizing directive to the live fleet: redeploys the function
    /// at the directed size and retires old-size warmth on every host.
    fn apply_directive(&mut self, d: SizingDirective, now_ms: f64) {
        // lint: allow(panic002) reason="directives are only emitted by the installed sizing service"
        let sizing = self.sizing.as_mut().expect("directives come from the service");
        match d.reason {
            DirectiveReason::Recommend => sizing.counters.recommendations += 1,
            DirectiveReason::Drift => sizing.counters.drift_reverts += 1,
            DirectiveReason::Calibrate => {}
        }
        let config = &self.functions[d.fn_id].config;
        if config.memory() == d.target {
            return;
        }
        sizing.counters.resizes_applied += 1;
        // Time-to-first-win counts only *productive* resizes: a Calibrate
        // or Drift directive moves the function to base for re-measurement,
        // which is cost, not payoff.
        if d.reason == DirectiveReason::Recommend && sizing.counters.first_resize_at_ms.is_none() {
            sizing.counters.first_resize_at_ms = Some(now_ms);
        }
        self.sink.record(
            now_ms,
            TraceEvent::Resize {
                fn_id: d.fn_id as u32,
                from_mb: config.memory().mb(),
                to_mb: d.target.mb(),
                cause: resize_cause(d.reason),
            },
        );
        let redeployed = config.with_memory(d.target);
        self.plans[d.fn_id] = self.platform.plan(redeployed.profile(), d.target);
        self.functions[d.fn_id].config = redeployed;
        let mem_mb = f64::from(d.target.mb());
        for host in &mut self.hosts {
            host.resize(d.fn_id, mem_mb, self.default_ttl_ms, now_ms);
        }
    }

    /// Registers a workload shift for event-driven application and returns
    /// the slot to embed in a [`FleetEvent::ShiftProfile`] event. The
    /// multi-region driver registers shifts up front, then schedules the
    /// event at the shift time.
    pub(crate) fn register_shift(&mut self, fn_id: usize, profile: ResourceProfile) -> u32 {
        self.shifts.push((fn_id, profile));
        (self.shifts.len() - 1) as u32
    }

    /// Applies a shift registered with [`Fleet::register_shift`]: the
    /// function's resource profile is replaced (its deployed memory size
    /// is kept) so subsequent invocations draw from the new behavior — the
    /// genuine drift the online sizing loop exists to notice.
    fn apply_shift(&mut self, slot: u32) {
        let (fn_id, profile) = self.shifts[slot as usize].clone();
        let memory = self.functions[fn_id].config.memory();
        self.plans[fn_id] = self.platform.plan(&profile, memory);
        if let Some(s) = &mut self.sizing {
            s.base_plans[fn_id] = self.platform.plan(&profile, s.service.base());
        }
        self.functions[fn_id].config = FunctionConfig::new(profile, memory);
    }

    fn on_arrival(sim: &mut FleetSim<S>, fleet: &mut Self, fn_id: usize) {
        let now_ms = sim.now().as_millis();
        // Schedule the next arrival first: the arrival stream depends only
        // on the function's own RNG, never on dispatch decisions.
        let next = now_ms + fleet.next_arrival_gap(fn_id);
        if next < fleet.duration_ms {
            sim.schedule_event_at(
                SimTime::from_millis(next),
                FleetEvent::Arrival { fn_id: fn_id as u32 },
            );
        }
        fleet.dispatch(sim, fn_id, now_ms);
        if fleet.check_invariants {
            fleet.assert_invariants(now_ms);
        }
    }

    /// The conservation and capacity invariants re-checked per event when
    /// [`FleetConfig::check_invariants`] is set, including that every
    /// host's running memory totals match a re-sum over its pools.
    ///
    /// # Panics
    ///
    /// Panics on any violation.
    pub(crate) fn assert_invariants(&mut self, now_ms: f64) {
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

    /// Schedules every function's first arrival onto `sim`. Together with
    /// [`Fleet::into_report_and_sink`] this is the decomposed [`Fleet::run`]:
    /// external drivers (e.g. [`run_multi_region`](crate::region)) prime
    /// several fleets onto their own simulations, interleave them through
    /// one merged deterministic event loop, and report each at the end.
    pub fn prime(&mut self, sim: &mut FleetSim<S>) {
        let mut first_arrivals = Vec::with_capacity(self.functions.len());
        for fn_id in 0..self.functions.len() {
            first_arrivals.push((fn_id, self.next_arrival_gap(fn_id)));
        }
        for (fn_id, at) in first_arrivals {
            if at < self.duration_ms {
                sim.schedule_event_at(
                    SimTime::from_millis(at),
                    FleetEvent::Arrival { fn_id: fn_id as u32 },
                );
            }
        }
        if let Some(f) = &self.faults {
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
            Simulation::with_queue(self.queue, self.event_capacity_hint());
        self.prime(&mut sim);
        sim.run_to_completion(&mut self);
        self.into_report_and_sink(&sim)
    }

    /// Expected simultaneous event count, used to pre-reserve queue
    /// capacity: roughly one pending arrival plus one in-flight settle per
    /// function, scaled by the fleet's aggregate arrival rate.
    pub fn event_capacity_hint(&self) -> usize {
        let rps: f64 = self.functions.iter().map(|f| f.arrival.mean_rps()).sum();
        self.functions.len() * 2 + rps as usize + 64
    }

    /// Finalizes accounting and produces the report, handing the trace sink
    /// back to the caller for export. `sim` must be the (drained)
    /// simulation this fleet ran on.
    pub fn into_report_and_sink(mut self, sim: &FleetSim<S>) -> (FleetReport, S) {
        let horizon_ms = sim.now().as_millis().max(self.duration_ms);
        for host in &mut self.hosts {
            host.finalize(horizon_ms);
        }
        self.counters.busy_mb_ms = self.hosts.iter().map(Host::busy_mb_ms).sum();
        self.counters.wasted_mb_ms = self.hosts.iter().map(Host::wasted_mb_ms).sum();
        self.counters.capacity_mb_ms = self
            .hosts
            .iter()
            .map(|h| h.capacity_mb() * horizon_ms)
            .sum();
        debug_assert_eq!(self.counters.in_flight, 0, "drain left work in flight");

        let drained_instances = self.hosts.iter().map(Host::resize_drains).sum();
        let final_sizes_mb: Vec<u32> = self.functions.iter().map(|f| f.config.memory().mb()).collect();
        let engine = sim.stats();
        let report = FleetReport {
            scheduler: self.scheduler.name().to_string(),
            keepalive: self.keepalive.name().to_string(),
            counters: self.counters,
            metrics: FleetMetrics::from_counters(&self.counters),
            host_utilization: self
                .hosts
                .iter()
                .map(|h| h.busy_mb_ms() / (h.capacity_mb() * horizon_ms))
                .collect(),
            provisioned_instances: self.hosts.iter().map(Host::provisioned).sum(),
            evictions: self.hosts.iter().map(Host::evictions).sum(),
            expirations: self.hosts.iter().map(Host::expirations).sum(),
            max_latency_ms: self.max_latency_ms,
            horizon_ms,
            sim: SimRunStats {
                events_executed: engine.executed,
                handlers_scheduled: engine.scheduled,
                peak_queue_depth: engine.peak_pending,
            },
            faults: self.faults.as_ref().map(|f| f.summary),
            rightsizing: self.sizing.map(|s| RightsizingReport {
                counters: s.counters,
                metrics: RightsizingMetrics::from_counters(&s.counters),
                service: *s.service.stats(),
                drained_instances,
                final_sizes_mb,
            }),
        };
        (report, self.sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizeless_platform::{MemorySize, ResourceProfile, Stage};

    fn functions() -> Vec<FleetFunction> {
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

    fn config() -> FleetConfig {
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
    fn function_limit_throttles() {
        let report = Fleet::from_kinds(
            &Platform::aws_like(),
            &config().with_function_limit(1),
            &functions(),
            SchedulerKind::LeastLoaded,
            KeepAliveKind::FixedTtl,
        )
        .run();
        assert!(report.counters.throttled_function > 0);
        assert!(report.counters.is_conserved());
    }

    #[test]
    fn account_limit_throttles() {
        let report = Fleet::from_kinds(
            &Platform::aws_like(),
            &config().with_account_limit(2),
            &functions(),
            SchedulerKind::LeastLoaded,
            KeepAliveKind::FixedTtl,
        )
        .run();
        assert!(report.counters.throttled_account > 0);
        assert!(report.counters.is_conserved());
    }

    #[test]
    fn tiny_cluster_throttles_for_capacity() {
        let cfg = FleetConfig::new(1, 512.0, 20_000.0, 7).with_invariant_checks();
        let report = Fleet::from_kinds(
            &Platform::aws_like(),
            &cfg,
            &functions(),
            SchedulerKind::WarmFirst,
            KeepAliveKind::FixedTtl,
        )
        .run();
        assert!(report.counters.throttled_capacity > 0);
        assert!(report.counters.is_conserved());
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

    fn quick_service(window: usize) -> SizingService {
        use sizeless_core::dataset::DatasetConfig;
        use sizeless_core::service::ServiceConfig;
        use sizeless_core::trainer::{Trainer, TrainerConfig};
        let cfg = TrainerConfig {
            dataset: DatasetConfig::tiny(24),
            network: sizeless_neural::NetworkConfig {
                hidden_layers: 1,
                neurons: 16,
                epochs: 30,
                l2: 0.0001,
                ..sizeless_neural::NetworkConfig::default()
            },
            ..TrainerConfig::default()
        };
        let sizer = Trainer::new(cfg).train(&Platform::aws_like()).unwrap();
        SizingService::new(
            sizer,
            ServiceConfig {
                window,
                ..ServiceConfig::default()
            },
        )
    }

    /// The closed-loop workload: functions deployed at the service's base
    /// size with enough traffic to fill several windows.
    fn closed_loop_functions() -> Vec<FleetFunction> {
        let io = ResourceProfile::builder("loop-io")
            .stage(Stage::file_io("io", 512.0, 128.0))
            .build();
        let cpu = ResourceProfile::builder("loop-cpu")
            .stage(Stage::cpu("work", 60.0))
            .build();
        vec![
            FleetFunction::new(
                FunctionConfig::new(io, MemorySize::MB_256),
                FleetArrival::Steady(ArrivalProcess::poisson(20.0)),
            ),
            FleetFunction::new(
                FunctionConfig::new(cpu, MemorySize::MB_256),
                FleetArrival::Steady(ArrivalProcess::poisson(12.0)),
            ),
        ]
    }

    #[test]
    fn closed_loop_fleet_recommends_resizes_and_stays_consistent() {
        let platform = Platform::aws_like();
        let config = FleetConfig::new(4, 4096.0, 25_000.0, 5).with_invariant_checks();
        let report = Fleet::from_kinds(
            &platform,
            &config,
            &closed_loop_functions(),
            SchedulerKind::WarmFirst,
            KeepAliveKind::FixedTtl,
        )
        .with_sizing(quick_service(60))
        .run();
        assert!(report.counters.is_conserved());
        assert_eq!(report.counters.in_flight, 0);
        let rs = report.rightsizing.as_ref().expect("closed loop reports");
        // Every completion was monitored and ingested (or ignored as stale).
        assert_eq!(rs.counters.samples_ingested, report.counters.completed);
        assert_eq!(
            rs.service.samples_ingested + rs.service.stale_samples_ignored,
            report.counters.completed
        );
        // Enough traffic to fill measurement windows for both functions.
        assert!(rs.service.recommendations >= 2, "{:?}", rs.service);
        // Before/after accounting splits every completion exactly once.
        assert_eq!(
            rs.counters.completed_at_original + rs.counters.completed_at_directed,
            report.counters.completed
        );
        // If any resize was applied, directed-size completions follow and
        // the old-size warmth drained through the generational pools.
        if rs.counters.resizes_applied > 0 {
            assert!(rs.counters.completed_at_directed > 0);
            assert!(rs.counters.exec_mb_ms_directed > 0.0);
        }
        // The exec split sums to the fleet-wide exec footprint.
        let split = rs.counters.exec_mb_ms_original + rs.counters.exec_mb_ms_directed;
        assert!((split - report.counters.exec_mb_ms).abs() < 1e-6);
    }

    #[test]
    fn closed_loop_fleet_is_deterministic() {
        let platform = Platform::aws_like();
        let config = FleetConfig::new(2, 4096.0, 15_000.0, 9);
        let run = || {
            Fleet::from_kinds(
                &platform,
                &config,
                &closed_loop_functions(),
                SchedulerKind::WarmFirst,
                KeepAliveKind::Adaptive,
            )
            .with_sizing(quick_service(50))
            .run()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn traced_closed_loop_run_collects_structured_events() {
        use sizeless_obs::MemorySink;
        let platform = Platform::aws_like();
        let config = FleetConfig::new(4, 4096.0, 25_000.0, 5);
        let run = || {
            let fleet = Fleet::from_kinds(
                &platform,
                &config,
                &closed_loop_functions(),
                SchedulerKind::WarmFirst,
                KeepAliveKind::FixedTtl,
            )
            .with_sizing(quick_service(60))
            .with_trace(MemorySink::new());
            fleet.run_traced()
        };
        let (report, sink) = run();

        // The trace mirrors the report's counters exactly.
        let count = |kind: &str| sink.records().iter().filter(|r| r.event.kind() == kind).count();
        assert_eq!(count("dispatch"), report.counters.completed + report.counters.in_flight);
        assert_eq!(count("cold_start"), report.counters.cold_starts);
        assert_eq!(count("throttle"), report.counters.throttled());
        let rs = report.rightsizing.as_ref().expect("closed loop reports");
        assert_eq!(count("resize"), rs.counters.resizes_applied);
        assert_eq!(count("shadow_route"), rs.counters.shadow_dispatches);
        assert_eq!(count("drift_detected"), rs.service.drift_detections);
        assert!(count("phase_transition") > 0, "the loop must leave Measuring");

        // Timestamps are monotone and sequence numbers dense.
        for pair in sink.records().windows(2) {
            assert!(pair[0].at_ms <= pair[1].at_ms);
            assert_eq!(pair[0].seq + 1, pair[1].seq);
        }

        // Tracing must not perturb the simulation: the traced report
        // matches the untraced run bit for bit, and a repeated traced
        // run exports a byte-identical JSONL log.
        let untraced = Fleet::from_kinds(
            &platform,
            &config,
            &closed_loop_functions(),
            SchedulerKind::WarmFirst,
            KeepAliveKind::FixedTtl,
        )
        .with_sizing(quick_service(60))
        .run();
        assert_eq!(report, untraced);
        let (_, sink2) = run();
        assert_eq!(sink.to_jsonl(), sink2.to_jsonl());
        assert!(!sink.to_jsonl().is_empty());
    }

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
