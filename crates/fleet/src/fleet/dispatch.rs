//! The request path: an arrival is admitted or throttled, each attempt is
//! placed on a host and sampled, and its settle event either fails it
//! (crash or transient fault) or completes it.

use super::{Fleet, FleetArrival, FleetEvent, FleetFunction, FleetSim, FleetState};
use crate::host::Placement;
use sizeless_core::service::{IngestOutcome, RouteDecision};
use sizeless_engine::{RngStream, SimTime};
use sizeless_obs::{FaultKind, ThrottleCause, TraceEvent, TraceSink};
use sizeless_platform::MemorySize;
use sizeless_telemetry::InvocationSample;
use sizeless_workload::{ArrivalProcess, BurstySampler};

/// Per-function incremental arrival state.
pub(super) struct ArrivalState {
    rng: RngStream,
    gaps: GapState,
}

enum GapState {
    Steady(ArrivalProcess),
    Bursty(BurstySampler),
}

impl ArrivalState {
    /// The arrival state of function `i`, on a stream derived from `root`.
    pub(super) fn new(root: &RngStream, i: usize, f: &FleetFunction) -> Self {
        // Index-salted so duplicate function names stay decorrelated.
        let mut rng = root.derive(&format!("arrivals/{i}/{}", f.config.name()));
        let gaps = match f.arrival {
            FleetArrival::Steady(p) => GapState::Steady(p),
            FleetArrival::Bursty(b) => GapState::Bursty(b.sampler(&mut rng)),
        };
        ArrivalState { rng, gaps }
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
pub(super) struct SettleSlab {
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

/// Everything a completion event needs to settle one invocation. `memory`
/// is the size the invocation *ran* at — captured at dispatch, because a
/// sizing directive may redeploy the function before it completes.
/// `pool` is the host-pool key the instance was placed under: the function
/// id itself, or the function's *shadow* pool (`fn_id + functions.len()`)
/// when the sizing service routed this invocation to the base size for
/// shadow re-measurement — shadow instances keep their own warm pool so
/// base-size warmth never thrashes the directed-size generations.
#[derive(Debug, Clone, Copy)]
pub(super) struct Completion {
    pub(super) fn_id: usize,
    pool: usize,
    pub(super) host: usize,
    placement: Placement,
    pub(super) memory: MemorySize,
    /// User-visible latency (init + execution), ms.
    pub(super) latency_ms: f64,
    /// Instance occupancy (latency + monitoring overhead), ms.
    occupancy_ms: f64,
    pub(super) exec_ms: f64,
    pub(super) cost_usd: f64,
    /// Which attempt of the request this was (1-based).
    pub(super) attempt: usize,
    /// The host's crash epoch captured at dispatch: a mismatch at settle
    /// time means the host crashed while this attempt was in flight.
    epoch: u64,
}

impl FleetState {
    /// Draws the gap to `fn_id`'s next arrival from its own stream.
    pub(super) fn next_arrival_gap(&mut self, fn_id: usize) -> f64 {
        let state = &mut self.arrivals[fn_id];
        match &mut state.gaps {
            GapState::Steady(p) => p.next_gap_ms(&mut state.rng),
            GapState::Bursty(s) => s.next_gap_ms(&mut state.rng),
        }
    }
}

impl<S: TraceSink + 'static> Fleet<S> {
    pub(super) fn on_arrival(&mut self, sim: &mut FleetSim<S>, fn_id: usize) {
        let now_ms = sim.now().as_millis();
        // Schedule the next arrival first: the arrival stream depends only
        // on the function's own RNG, never on dispatch decisions.
        let next = now_ms + self.state.next_arrival_gap(fn_id);
        if next < self.state.duration_ms {
            sim.schedule_event_at(
                SimTime::from_millis(next),
                FleetEvent::Arrival { fn_id: fn_id as u32 },
            );
        }
        self.dispatch(sim, fn_id, now_ms);
    }

    /// Counts a throttle (429) under its cause and records it.
    pub(super) fn throttle(&mut self, now_ms: f64, fn_id: usize, cause: ThrottleCause) {
        let counters = &mut self.state.counters;
        match cause {
            ThrottleCause::Function => counters.throttled_function += 1,
            ThrottleCause::Account => counters.throttled_account += 1,
            ThrottleCause::Capacity => counters.throttled_capacity += 1,
        }
        self.sink.record(now_ms, TraceEvent::Throttle { fn_id: fn_id as u32, cause });
    }

    /// Handles one request for `fn_id` arriving at `now_ms`.
    pub(super) fn dispatch(&mut self, sim: &mut FleetSim<S>, fn_id: usize, now_ms: f64) {
        if let Some(f) = self.state.faults.as_mut() {
            if f.outage && f.failover {
                // The whole region is dark: hand the arrival to the
                // multi-region driver for failover instead of counting it
                // against this region's ledgers.
                f.summary.failovers_out += 1;
                f.diverted.push((now_ms, fn_id));
                return;
            }
        }
        self.state.counters.submitted += 1;
        self.state.keepalive.observe_arrival(fn_id, now_ms);
        if let Err(cause) = self.state.limits.try_acquire(fn_id) {
            self.throttle(now_ms, fn_id, cause);
            return;
        }
        self.start_attempt(sim, fn_id, 1, now_ms);
    }

    /// Starts one execution attempt of an admitted request — attempt 1
    /// straight from [`Fleet::dispatch`], later attempts from
    /// self-scheduled retry events. The request already holds its
    /// concurrency slot either way.
    pub(super) fn start_attempt(
        &mut self,
        sim: &mut FleetSim<S>,
        fn_id: usize,
        attempt: usize,
        now_ms: f64,
    ) {
        let state = &mut self.state;
        if attempt > 1 {
            // lint: allow(panic002) reason="retry attempts are only scheduled by fail_attempt, which requires a fault plan"
            let f = state.faults.as_mut().expect("retry attempt without a fault plan");
            f.retry.pending -= 1;
        }
        // Per-invocation routing hook: while a function shadow-re-measures,
        // the service sends every period-th dispatch to the base size.
        // Shadow invocations live in their own host pool (offset by the
        // function count) so base-size warmth coexists with the
        // directed-size generations instead of retiring them.
        let deployed = state.functions[fn_id].config.memory();
        let (memory, pool) = match &mut state.sizing {
            Some(s) => match s.service.route(fn_id) {
                RouteDecision::Shadow(base) => (base, state.functions.len() + fn_id),
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
            state
                .scheduler
                .select_host(pool, mem_mb, &mut state.hosts, now_ms, &mut state.sched_rng);
        // Placing may evict idle instances; try_begin reports how many, so
        // they are attributed to this dispatch.
        let placement = selected.and_then(|h| {
            state.hosts[h]
                .try_begin(pool, mem_mb, state.default_ttl_ms, now_ms)
                .map(|(p, cold, evicted)| (h, p, cold, evicted))
        });
        let Some((host, placement, cold, evicted)) = placement else {
            // Capacity miss — shed via the existing 429 path. On a retry
            // attempt this sheds the whole already-admitted request:
            // degradation under capacity loss is throttling, never
            // unbounded queueing.
            state.limits.release(fn_id);
            if attempt > 1 {
                state.counters.in_flight -= 1;
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
            let sizing = state.sizing.as_mut().expect("shadow pools exist only with sizing");
            sizing.counters.shadow_dispatches += 1;
        }
        // The plans were built when the deployment last changed, so an
        // invocation only draws its noise; shadow routes run the base-size
        // plan. The record's name stays empty (the completion path tracks
        // functions by id).
        let plan = match &state.sizing {
            Some(s) if pool != fn_id => &s.base_plans[fn_id],
            _ => &state.plans[fn_id],
        };
        debug_assert_eq!(plan.memory(), memory, "stale execution plan");
        let mut record = state.platform.invoke_planned(plan, cold, &mut state.exec_rng);
        if let Some(f) = state.faults.as_ref() {
            if let Some(r) = f.recovery {
                if now_ms < f.recovering_until[host] {
                    // A recently rejoined host runs degraded: execution and
                    // CPU usage stretch, and the stretched duration is
                    // billed — the crash-induced latency spike the drift
                    // detector must not mistake for workload drift.
                    record.duration_ms *= r.slowdown;
                    (record.billed_ms, record.cost_usd) =
                        state.platform.pricing().bill(record.duration_ms, memory);
                    record.usage.duration_ms *= r.slowdown;
                    record.usage.user_cpu_ms *= r.slowdown;
                    record.usage.sys_cpu_ms *= r.slowdown;
                }
            }
        }
        if cold {
            state.counters.cold_starts += 1;
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
                state.keepalive.observe_cold_start(fn_id, record.init_ms);
            }
        }
        if attempt == 1 {
            state.counters.in_flight += 1;
        }
        let latency_ms = record.init_ms + record.duration_ms;
        let exec_ms = record.duration_ms;
        let cost_usd = record.cost_usd;
        // The attempt's fate is sealed at dispatch: transient fault draws
        // come from the fault stream only, so installing a fault plan
        // never perturbs arrival, execution, or scheduling randomness.
        let mut planned_fail: Option<(FaultKind, f64)> = None;
        if let Some(f) = state.faults.as_mut() {
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
            None => match &mut state.sizing {
                Some(s) => (
                    latency_ms + s.monitor.overhead_ms,
                    Some(s.monitor.observe(now_ms, &record.usage, &mut state.monitor_rng)),
                ),
                None => (latency_ms, None),
            },
        };
        let epoch = state.faults.as_ref().map_or(0, |f| f.epoch[host]);
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
        let slot = state.settles.insert(PendingSettle { done, sample, fault: fail_cause });
        sim.schedule_event_at(
            SimTime::from_millis(now_ms + occupancy_ms),
            FleetEvent::Settle { slot },
        );
    }

    /// Every attempt settles here: a host crash since dispatch overrides
    /// everything (the placement's generation was pruned), then a planned
    /// transient fault, and only then normal completion.
    pub(super) fn on_settle(&mut self, sim: &mut FleetSim<S>, slot: u32) {
        let PendingSettle { done, sample, fault } = self.state.settles.take(slot);
        let now_ms = sim.now().as_millis();
        let crashed = self
            .state
            .faults
            .as_ref()
            .is_some_and(|f| f.epoch[done.host] != done.epoch);
        if crashed {
            // The host crashed between dispatch and settle: its pools were
            // pruned wholesale, so there is no placement left to complete.
            // lint: allow(panic002) reason="a stale epoch is only possible when a fault plan is installed"
            let f = self.state.faults.as_mut().expect("stale epochs imply faults");
            f.crash_zombies -= 1;
            self.fail_attempt(sim, done, FaultKind::HostCrash);
            return;
        }
        if let Some(cause) = fault {
            // TTL 0 reclaims the instance immediately (an expiration) and
            // accounts the partial busy time up to the failure point.
            self.state.hosts[done.host].complete(
                done.pool,
                done.placement,
                now_ms,
                0.0,
                done.occupancy_ms,
            );
            self.fail_attempt(sim, done, cause);
            return;
        }
        self.on_complete(sim, done, sample);
    }

    fn on_complete(
        &mut self,
        sim: &mut FleetSim<S>,
        done: Completion,
        sample: Option<InvocationSample>,
    ) {
        let now_ms = sim.now().as_millis();
        let state = &mut self.state;
        let ttl = state.keepalive.ttl_ms(done.fn_id);
        state.hosts[done.host].complete(done.pool, done.placement, now_ms, ttl, done.occupancy_ms);
        state.limits.release(done.fn_id);
        let exec_mb_ms = done.exec_ms * f64::from(done.memory.mb());
        let counters = &mut state.counters;
        counters.exec_mb_ms += exec_mb_ms;
        counters.in_flight -= 1;
        counters.completed += 1;
        counters.sum_attempts_completed += done.attempt;
        counters.sum_latency_ms += done.latency_ms;
        counters.sum_cost_usd += done.cost_usd;
        state.max_latency_ms = state.max_latency_ms.max(done.latency_ms);

        // While a crash or outage mask is active, drift detections are
        // suppressed: recovery-degraded samples would otherwise trigger
        // false reverts to base.
        let fault_masked = state
            .faults
            .as_ref()
            .is_some_and(|f| f.drift_mask && now_ms < f.mask_until_ms);
        let outcome = match &mut state.sizing {
            Some(sizing) => sizing.ingest(&done, exec_mb_ms, sample, fault_masked),
            None => IngestOutcome::default(),
        };
        self.trace_ingest(now_ms, done.fn_id, outcome);
        if let Some(d) = outcome.directive {
            self.apply_directive(d, now_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::fleet::tests::{config, functions};
    use crate::fleet::{Fleet, FleetConfig};
    use crate::keepalive::KeepAliveKind;
    use crate::scheduler::SchedulerKind;
    use sizeless_platform::Platform;

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
}
