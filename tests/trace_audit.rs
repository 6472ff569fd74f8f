//! Trace ⇄ report audit: a traced fleet run folded back into counts must
//! reproduce the report's ledgers exactly.
//!
//! The report's counters and the trace are kept apart on purpose — the
//! counters are a ledger, the trace is the event log — so this audit is
//! not tautological: an event the fleet drops, or emits twice, breaks an
//! equality below. Two faulted closed loops are audited: two regions
//! sharing a fine-tuning control plane (crash process, transient faults,
//! recovery slowdown, an outage with failover, backoff retries and a
//! workload shift), under both re-measurement policies, and one
//! memory-tight region.

use sizeless::core::dataset::DatasetConfig;
use sizeless::core::service::{
    AdaptationKind, ControlPlane, FineTuneConfig, RemeasureKind, ServiceConfig, SizingService,
};
use sizeless::core::trainer::{TrainedSizer, Trainer, TrainerConfig};
use sizeless::fleet::{
    run_multi_region_faulted_traced, FaultPlan, Fleet, FleetArrival, FleetConfig, FleetFunction,
    FleetReport, KeepAliveKind, MultiRegionOptions, RegionSpec, RetryKind, SchedulerKind,
    WorkloadShift,
};
use sizeless::neural::NetworkConfig;
use sizeless::obs::{trace_metrics, MemorySink, TraceEvent, TraceMetrics, TraceRecord};
use sizeless::platform::{FunctionConfig, MemorySize, Platform, ResourceProfile, Stage};
use sizeless::workload::{ArrivalProcess, BurstyArrival};
use std::collections::BTreeMap;

const BACKOFF: RetryKind = RetryKind::ExponentialBackoff {
    base_ms: 100.0,
    factor: 2.0,
    cap_ms: 2_000.0,
    max_attempts: 4,
    jitter_frac: 0.2,
    budget_per_fn: None,
};

fn sizer(platform: &Platform) -> TrainedSizer {
    let mut dataset = DatasetConfig::tiny(16);
    dataset.seed = 31;
    let cfg = TrainerConfig {
        dataset,
        network: NetworkConfig {
            hidden_layers: 1,
            neurons: 16,
            epochs: 25,
            ..NetworkConfig::default()
        },
        seed: 31,
        ..TrainerConfig::default()
    };
    Trainer::new(cfg).train(platform).expect("trainable")
}

fn io() -> ResourceProfile {
    ResourceProfile::builder("audit-io")
        .stage(Stage::file_io("io", 384.0, 96.0))
        .build()
}

fn cpu(work_ms: f64) -> ResourceProfile {
    ResourceProfile::builder("audit-cpu")
        .stage(Stage::cpu("work", work_ms))
        .init_cpu_ms(120.0)
        .build()
}

/// Everything one region's trace says, folded into counts.
#[derive(Default)]
struct Folded {
    kinds: BTreeMap<&'static str, usize>,
    /// Phase-transition records by the phase entered.
    entered: BTreeMap<&'static str, usize>,
    shadow_dispatches: usize,
    evicted: usize,
    failed_in_flight: usize,
    lost_warm: usize,
    artifact_updates: usize,
    /// Dispatches minus failed attempts, per function: its completions.
    completions: BTreeMap<u32, i64>,
}

impl Folded {
    fn of(records: &[TraceRecord]) -> Self {
        let mut f = Folded::default();
        for r in records {
            *f.kinds.entry(r.event.kind()).or_default() += 1;
            match r.event {
                TraceEvent::Dispatch { fn_id, shadow, .. } => {
                    f.shadow_dispatches += usize::from(shadow);
                    *f.completions.entry(fn_id).or_default() += 1;
                }
                TraceEvent::InvocationFailed { fn_id, .. } => {
                    *f.completions.entry(fn_id).or_default() -= 1;
                }
                TraceEvent::Eviction { evicted, .. } => f.evicted += evicted as usize,
                TraceEvent::HostDown { failed_in_flight, lost_warm, .. } => {
                    f.failed_in_flight += failed_in_flight as usize;
                    f.lost_warm += lost_warm as usize;
                }
                TraceEvent::PhaseTransition { to, .. } => {
                    *f.entered.entry(to.name()).or_default() += 1;
                }
                TraceEvent::ArtifactUpdate { .. } => f.artifact_updates += 1,
                _ => {}
            }
        }
        f
    }

    fn count(&self, kind: &str) -> usize {
        self.kinds.get(kind).copied().unwrap_or(0)
    }

    fn entered(&self, phase: &str) -> usize {
        self.entered.get(phase).copied().unwrap_or(0)
    }
}

/// Asserts that `records` reconciles exactly with `report`, and returns
/// the fold for the caller's cross-region checks.
fn audit(region: &str, report: &FleetReport, records: &[TraceRecord]) -> Folded {
    let f = Folded::of(records);
    let c = &report.counters;
    let faults = report.faults.expect("faulted runs report a fault summary");
    let rs = report.rightsizing.as_ref().expect("closed loops report rightsizing");
    let svc = &rs.service;
    let ledger = [
        ("dispatch", c.completed + c.failed_attempts),
        ("cold_start", c.cold_starts),
        ("throttle", c.throttled()),
        ("invocation_failed", c.failed_attempts),
        ("retry_scheduled", c.retries_scheduled),
        ("host_down", faults.host_crashes),
        ("host_up", faults.host_crashes),
        ("region_failover", faults.failovers_in),
        ("resize", rs.counters.resizes_applied),
        ("drift_detected", svc.drift_detections),
        ("drift_suppressed", svc.drift_suppressed_by_fault),
    ];
    for (kind, want) in ledger {
        assert_eq!(f.count(kind), want, "{region}: `{kind}` records vs the report");
    }
    assert_eq!(f.failed_in_flight, faults.failed_in_flight, "{region}: failed in flight");
    assert_eq!(f.lost_warm, faults.lost_warm, "{region}: lost warm");
    assert_eq!(f.shadow_dispatches, rs.counters.shadow_dispatches, "{region}: shadow dispatches");

    // A function's first entry into Measuring creates its state and is not
    // traced; every function with a completion ingested one.
    let ingested = f.completions.values().filter(|&&n| n > 0).count();
    let phases = [
        ("measuring", svc.entered_measuring - ingested),
        ("referencing", svc.entered_referencing),
        ("watching", svc.entered_watching),
        ("shadowing", svc.entered_shadowing),
    ];
    for (phase, want) in phases {
        assert_eq!(f.entered(phase), want, "{region}: transitions into {phase}");
    }

    // Idle instances evicted when a resize retires their generation have
    // no trace record; every other eviction does.
    let untraced = report.evictions as i64 - (f.evicted + f.lost_warm) as i64;
    assert!(
        (0..=rs.drained_instances as i64).contains(&untraced),
        "{region}: {untraced} untraced evictions vs {} drained instances",
        rs.drained_instances
    );

    // The `--metrics` snapshot is a fold of the same trace: its counters
    // are the report's numbers.
    let metrics = trace_metrics(records);
    let n = |v: usize| v as u64;
    let want = TraceMetrics {
        dispatches: n(c.completed + c.failed_attempts),
        cold_starts: n(c.cold_starts),
        throttles: n(c.throttled()),
        evictions: n(f.evicted),
        resizes_applied: n(rs.counters.resizes_applied),
        shadow_routes: metrics.shadow_routes,
        drift_detections: n(svc.drift_detections),
        invocation_failures: n(c.failed_attempts),
        retries_scheduled: n(c.retries_scheduled),
        host_crashes: n(faults.host_crashes),
        init_ms: metrics.init_ms.clone(),
    };
    assert_eq!(metrics, want, "{region}: metrics vs the report");
    f
}

fn multi_region_specs() -> Vec<RegionSpec> {
    let functions = |io_rps: f64, cpu_rps: f64| {
        vec![
            FleetFunction::new(
                FunctionConfig::new(io(), MemorySize::MB_256),
                FleetArrival::Steady(ArrivalProcess::poisson(io_rps)),
            ),
            FleetFunction::new(
                FunctionConfig::new(cpu(70.0), MemorySize::MB_256),
                FleetArrival::Steady(ArrivalProcess::poisson(cpu_rps)),
            ),
            FleetFunction::new(
                FunctionConfig::new(cpu(30.0), MemorySize::MB_256),
                FleetArrival::Bursty(BurstyArrival::new(3.0, 30.0, 5_000.0, 1_500.0)),
            ),
        ]
    };
    vec![
        RegionSpec {
            name: "east".into(),
            config: FleetConfig::new(3, 4096.0, 30_000.0, 51),
            functions: functions(20.0, 8.0),
            shifts: vec![],
        },
        RegionSpec {
            name: "west".into(),
            config: FleetConfig::new(3, 4096.0, 30_000.0, 52),
            functions: functions(8.0, 18.0),
            shifts: vec![WorkloadShift { at_ms: 12_000.0, fn_id: 1, profile: cpu(160.0) }],
        },
    ]
}

#[test]
fn faulted_multi_region_traces_reconcile_with_their_reports() {
    let platform = Platform::aws_like();
    let sizer = sizer(&platform);
    let plan = FaultPlan::none()
        .with_crash_process(12_000.0, 1_500.0)
        .with_transient(0.03, 0.05, 0.5)
        .with_recovery(3_000.0, 2.0)
        .with_outage(1, 18_000.0, 4_000.0)
        .with_seed(53);
    let regions = multi_region_specs();
    for remeasure in [RemeasureKind::FullRevert, RemeasureKind::ShadowSampling(0.25)] {
        let fine_tune = AdaptationKind::FineTune(FineTuneConfig {
            frozen_layers: 1,
            epochs: 4,
            batch: 1,
        });
        let plane = ControlPlane::new(sizer.clone(), fine_tune);
        let opts = MultiRegionOptions {
            scheduler: SchedulerKind::WarmFirst,
            keepalive: KeepAliveKind::Adaptive,
            service: ServiceConfig {
                window: 40,
                ..ServiceConfig::default()
            },
            remeasure,
        };
        let (report, sinks) = run_multi_region_faulted_traced(
            &platform,
            &regions,
            &plane,
            &opts,
            &plan,
            BACKOFF,
            |_| MemorySink::new(),
        );
        let mut artifact_updates = 0;
        let mut exercised = BTreeMap::<&str, usize>::new();
        for (region, sink) in report.regions.iter().zip(&sinks) {
            let name = format!("{} ({})", region.region, remeasure.name());
            let f = audit(&name, &region.report, sink.records());
            artifact_updates += f.artifact_updates;
            for (kind, n) in f.kinds {
                *exercised.entry(kind).or_default() += n;
            }
        }
        let policy = remeasure.name();
        assert_eq!(artifact_updates, report.plane.artifact_updates, "{policy}");
        // The scenario must exercise what it audits.
        let kinds = [
            "host_down",
            "retry_scheduled",
            "region_failover",
            "resize",
            "drift_detected",
            "drift_suppressed",
            "artifact_update",
        ];
        for kind in kinds {
            assert!(exercised.contains_key(kind), "{policy}: no `{kind}`");
        }
        let shadowing = matches!(remeasure, RemeasureKind::ShadowSampling(_));
        assert_eq!(exercised.contains_key("shadow_route"), shadowing, "{policy}");
    }
}

#[test]
fn memory_tight_faulted_fleet_trace_reconciles_with_its_report() {
    let platform = Platform::aws_like();
    let functions: Vec<FleetFunction> = [(io(), 14.0), (cpu(70.0), 10.0), (cpu(30.0), 12.0)]
        .into_iter()
        .map(|(profile, rps)| {
            FleetFunction::new(
                FunctionConfig::new(profile, MemorySize::MB_256),
                FleetArrival::Steady(ArrivalProcess::poisson(rps)),
            )
        })
        .collect();
    let plan = FaultPlan::none()
        .with_crash_process(8_000.0, 1_000.0)
        .with_transient(0.03, 0.05, 0.5)
        .with_recovery(2_000.0, 2.0)
        .with_seed(59);
    let (report, sink) = Fleet::from_kinds(
        &platform,
        &FleetConfig::new(2, 1536.0, 25_000.0, 57),
        &functions,
        SchedulerKind::WarmFirst,
        KeepAliveKind::FixedTtl,
    )
    .with_sizing(SizingService::new(
        sizer(&platform),
        ServiceConfig {
            window: 40,
            ..ServiceConfig::default()
        },
    ))
    .with_faults(&plan, BACKOFF)
    .with_trace(MemorySink::new())
    .run_traced();
    let f = audit("memory-tight", &report, sink.records());
    for kind in ["eviction", "throttle", "host_down", "retry_scheduled", "resize"] {
        assert!(f.count(kind) > 0, "memory-tight: no `{kind}`");
    }
}
