//! The embedded closed sizing loop: the wrapper-style monitor, the online
//! [`SizingService`] it feeds, the before/after-resize ledger, and the
//! resize directives and workload shifts that change a deployment.

use super::dispatch::Completion;
use super::{Fleet, FleetFunction, FleetState};
use sizeless_core::service::{
    DirectiveReason, FnPhase, IngestOutcome, SizingDirective, SizingService,
};
use sizeless_obs::{LoopPhase, ResizeCause, TraceEvent, TraceSink};
use sizeless_platform::{ExecutionPlan, FunctionConfig, MemorySize, Platform, ResourceProfile};
use sizeless_telemetry::{InvocationSample, ResourceMonitor, RightsizingCounters};

/// The embedded closed-loop right-sizer: the wrapper-style monitor feeding
/// an online [`SizingService`] whose directives the fleet applies at
/// runtime.
pub(super) struct SizingLoop {
    pub(super) service: SizingService,
    pub(super) monitor: ResourceMonitor,
    /// Each function's originally deployed size — the "before" side of the
    /// before/after-resize accounting.
    original: Vec<MemorySize>,
    /// Each function's execution plan at the service's base size, for
    /// shadow routes.
    pub(super) base_plans: Vec<ExecutionPlan>,
    pub(super) counters: RightsizingCounters,
}

impl SizingLoop {
    /// The loop around `service` for `functions` as deployed now.
    pub(super) fn new(
        service: SizingService,
        platform: &Platform,
        functions: &[FleetFunction],
    ) -> Self {
        let base = service.base();
        SizingLoop {
            monitor: ResourceMonitor::collecting(&service.monitored_metrics()),
            service,
            original: functions.iter().map(|f| f.config.memory()).collect(),
            base_plans: functions
                .iter()
                .map(|f| platform.plan(f.config.profile(), base))
                .collect(),
            counters: RightsizingCounters::default(),
        }
    }

    /// Books one completion on the before/after-resize ledger and ingests
    /// its monitoring sample.
    pub(super) fn ingest(
        &mut self,
        done: &Completion,
        exec_mb_ms: f64,
        sample: Option<InvocationSample>,
        fault_masked: bool,
    ) -> IngestOutcome {
        let c = &mut self.counters;
        if done.memory == self.original[done.fn_id] {
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
        if done.memory == self.service.base() {
            c.completed_at_base += 1;
            c.exec_ms_at_base += done.exec_ms;
        }
        c.samples_ingested += 1;
        // lint: allow(panic002) reason="sizing fleets install a monitor for every function, so the sample is always present"
        let sample = sample.expect("sizing fleets monitor every invocation");
        self.service.ingest_masked(done.fn_id, done.memory, sample, fault_masked)
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

impl<S: TraceSink + 'static> Fleet<S> {
    /// Records the sizing-loop transitions one ingest reported, in loop
    /// order: drift, its suppression, the phase change, the artifact update.
    pub(super) fn trace_ingest(&mut self, now_ms: f64, fn_id: usize, outcome: IngestOutcome) {
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
    pub(super) fn apply_directive(&mut self, d: SizingDirective, now_ms: f64) {
        let state = &mut self.state;
        // lint: allow(panic002) reason="directives are only emitted by the installed sizing service"
        let sizing = state.sizing.as_mut().expect("directives come from the service");
        match d.reason {
            DirectiveReason::Recommend => sizing.counters.recommendations += 1,
            DirectiveReason::Drift => sizing.counters.drift_reverts += 1,
            DirectiveReason::Calibrate => {}
        }
        let config = &state.functions[d.fn_id].config;
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
        state.plans[d.fn_id] = state.platform.plan(redeployed.profile(), d.target);
        state.functions[d.fn_id].config = redeployed;
        let mem_mb = f64::from(d.target.mb());
        for host in &mut state.hosts {
            host.resize(d.fn_id, mem_mb, state.default_ttl_ms, now_ms);
        }
    }
}

impl FleetState {
    /// Registers a workload shift for event-driven application and returns
    /// the slot to embed in a [`FleetEvent::ShiftProfile`](super::FleetEvent)
    /// event. The multi-region driver registers shifts up front, then
    /// schedules the event at the shift time.
    pub(crate) fn register_shift(&mut self, fn_id: usize, profile: ResourceProfile) -> u32 {
        self.shifts.push((fn_id, profile));
        (self.shifts.len() - 1) as u32
    }

    /// Applies a shift registered with [`FleetState::register_shift`]: the
    /// function's resource profile is replaced (its deployed memory size
    /// is kept) so subsequent invocations draw from the new behavior — the
    /// genuine drift the online sizing loop exists to notice.
    pub(super) fn apply_shift(&mut self, slot: u32) {
        let (fn_id, profile) = self.shifts[slot as usize].clone();
        let memory = self.functions[fn_id].config.memory();
        self.plans[fn_id] = self.platform.plan(&profile, memory);
        if let Some(s) = &mut self.sizing {
            s.base_plans[fn_id] = self.platform.plan(&profile, s.service.base());
        }
        self.functions[fn_id].config = FunctionConfig::new(profile, memory);
    }
}

#[cfg(test)]
mod tests {
    use crate::fleet::{Fleet, FleetArrival, FleetConfig, FleetFunction};
    use crate::keepalive::KeepAliveKind;
    use crate::scheduler::SchedulerKind;
    use sizeless_core::service::SizingService;
    use sizeless_platform::{FunctionConfig, MemorySize, Platform, ResourceProfile, Stage};
    use sizeless_workload::ArrivalProcess;

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
}
