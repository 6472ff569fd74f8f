//! **Resilience experiment** — deterministic fault injection at fleet scale.
//!
//! Three orderings that must hold, or the run aborts (non-zero exit):
//!
//! 1. **Retry beats no-retry.** Under the same transient fault plan (init
//!    and mid-execution failures) on the same arrival streams, a fleet
//!    with exponential-backoff retries completes strictly more requests
//!    than the same fleet without retries, at the same capacity.
//! 2. **Failover beats no-failover.** Under a scheduled region outage, a
//!    two-region run with outage-aware failover routing completes
//!    strictly more requests in total than the identical run with
//!    failover disabled (`nofailover` sheds the dark region's arrivals
//!    via the 429 path).
//! 3. **Fault-masked drift detection has fewer false reverts.** Host
//!    crashes with a post-rejoin recovery slowdown inject latency spikes
//!    that look exactly like workload drift. A closed-loop fleet with the
//!    crash-coincident drift mask re-measures strictly less often than
//!    the same fleet with the mask disabled — and every suppressed
//!    detection is counted, never silently dropped.
//!
//! The default fault plans can be overridden with `--faults`/`--fault-seed`
//! (experiment 1 honors the override; 2 and 3 pin their plans so the
//! orderings stay meaningful). Results are bit-identical for every
//! `--threads` value — CI byte-compares a serial and a parallel run,
//! including the `--trace` export.

use serde::Serialize;
use sizeless_bench::{gb_s_per_completion, print_table, write_output, ExperimentContext, BASE};
use sizeless_core::service::{ControlPlane, RemeasureKind, ServiceConfig, SizingService};
use sizeless_core::trainer::TrainerConfig;
use sizeless_fleet::{
    run_multi_region_faulted, FaultPlan, Fleet, FleetArrival, FleetConfig, FleetFunction,
    FleetReport, KeepAliveKind, MultiRegionOptions, MultiRegionReport, RegionSpec, RetryKind,
    SchedulerKind,
};
use sizeless_obs::MemorySink;
use sizeless_platform::{FunctionConfig, Platform, ResourceProfile, Stage};
use sizeless_workload::ArrivalProcess;

/// The retry policy under test: exponential backoff with deterministic
/// jitter and a per-request attempt cap.
const BACKOFF: RetryKind = RetryKind::ExponentialBackoff {
    base_ms: 200.0,
    factor: 2.0,
    cap_ms: 5_000.0,
    max_attempts: 4,
    jitter_frac: 0.2,
    budget_per_fn: None,
};

/// A small multi-tenant workload: IO-, CPU-, and mixed-profile functions.
fn functions() -> Vec<FleetFunction> {
    let mk = |profile: ResourceProfile, rps: f64| {
        FleetFunction::new(
            FunctionConfig::new(profile, BASE),
            FleetArrival::Steady(ArrivalProcess::poisson(rps)),
        )
    };
    vec![
        mk(
            ResourceProfile::builder("chaos-io")
                .stage(Stage::file_io("io", 512.0, 128.0))
                .init_cpu_ms(120.0)
                .build(),
            18.0,
        ),
        mk(
            ResourceProfile::builder("chaos-cpu")
                .stage(Stage::cpu("work", 60.0))
                .init_cpu_ms(150.0)
                .build(),
            10.0,
        ),
        mk(
            ResourceProfile::builder("chaos-mixed")
                .stage(Stage::cpu("parse", 20.0))
                .stage(Stage::file_io("write", 128.0, 32.0))
                .init_cpu_ms(100.0)
                .build(),
            8.0,
        ),
    ]
}

#[derive(Serialize)]
struct RetryRow {
    policy: String,
    completed: usize,
    failed: usize,
    failed_attempts: usize,
    retries_scheduled: usize,
    availability: f64,
    mean_attempts_per_completion: f64,
    gb_s_per_req: f64,
    report: FleetReport,
}

#[derive(Serialize)]
struct FailoverRow {
    routing: String,
    total_completed: usize,
    total_throttled: usize,
    failovers_out: usize,
    failovers_in: usize,
    report: MultiRegionReport,
}

#[derive(Serialize)]
struct MaskRow {
    masking: String,
    drift_detections: usize,
    drift_suppressed_by_fault: usize,
    false_reverts: usize,
    host_crashes: usize,
    report: FleetReport,
}

#[derive(Serialize)]
struct ChaosResults {
    retry: Vec<RetryRow>,
    failover: Vec<FailoverRow>,
    mask: Vec<MaskRow>,
}

fn main() {
    let ctx = ExperimentContext::from_args();
    let platform = Platform::aws_like();
    let duration_ms = (240_000.0 / ctx.scale).max(20_000.0);

    // ---- Experiment 1: retry-with-backoff vs no-retry under transient
    // faults. `--faults` overrides the default plan here.
    let transient_plan = ctx.fault_plan().unwrap_or_else(|| {
        FaultPlan::none()
            .with_transient(0.08, 0.12, 0.5)
            .with_seed(ctx.fault_seed)
    });
    let config = FleetConfig::new(4, 4096.0, duration_ms, ctx.seed);
    let fns = functions();
    let retry_fleet = |retry: RetryKind| {
        Fleet::from_kinds(
            &platform,
            &config,
            &fns,
            SchedulerKind::WarmFirst,
            KeepAliveKind::Adaptive,
        )
        .with_faults(&transient_plan, retry)
    };
    let retry_rows: Vec<RetryRow> = [("none", RetryKind::None), ("backoff", BACKOFF)]
        .into_iter()
        .map(|(policy, retry)| {
            let report = retry_fleet(retry).run();
            RetryRow {
                policy: policy.to_string(),
                completed: report.counters.completed,
                failed: report.counters.failed,
                failed_attempts: report.counters.failed_attempts,
                retries_scheduled: report.counters.retries_scheduled,
                availability: report.metrics.availability,
                mean_attempts_per_completion: report.metrics.mean_attempts_per_completion,
                gb_s_per_req: gb_s_per_completion(&report),
                report,
            }
        })
        .collect();

    // ---- Offline phase for the closed-loop experiments (2 and 3): one
    // shared artifact, reusable via `--artifact`.
    let sizer = ctx.trained_sizer(
        &platform,
        &TrainerConfig {
            dataset: ctx.dataset_config(),
            network: ctx.network_config(),
            base_size: BASE,
            seed: ctx.seed,
            ..TrainerConfig::default()
        },
    );
    let service_cfg = ServiceConfig {
        window: 40,
        ..ServiceConfig::default()
    };

    // ---- Experiment 2: outage-aware failover vs local shedding. Region 1
    // goes dark for the middle 40% of the run.
    let outage_plan = FaultPlan::none()
        .with_outage(1, 0.3 * duration_ms, 0.4 * duration_ms)
        .with_seed(ctx.fault_seed);
    let regions = || -> Vec<RegionSpec> {
        vec![
            RegionSpec {
                name: "region-a".into(),
                config: FleetConfig::new(2, 4096.0, duration_ms, ctx.seed),
                functions: functions(),
                shifts: vec![],
            },
            RegionSpec {
                name: "region-b".into(),
                config: FleetConfig::new(2, 4096.0, duration_ms, ctx.seed.wrapping_add(1)),
                functions: functions(),
                shifts: vec![],
            },
        ]
    };
    let opts = MultiRegionOptions {
        scheduler: SchedulerKind::WarmFirst,
        keepalive: KeepAliveKind::Adaptive,
        service: service_cfg,
        remeasure: RemeasureKind::FullRevert,
    };
    let run_outage = |plan: &FaultPlan| {
        let plane = ControlPlane::frozen(sizer.clone());
        run_multi_region_faulted(&platform, &regions(), &plane, &opts, plan, RetryKind::None)
    };
    let failover_rows: Vec<FailoverRow> = [
        ("failover", outage_plan.clone()),
        ("nofailover", outage_plan.clone().without_failover()),
    ]
    .iter()
    .map(|(routing, plan)| {
        let report = run_outage(plan);
        let sum = |f: &dyn Fn(&sizeless_fleet::FaultSummary) -> usize| {
            report
                .regions
                .iter()
                .filter_map(|r| r.report.faults.as_ref())
                .map(f)
                .sum::<usize>()
        };
        FailoverRow {
            routing: (*routing).to_string(),
            total_completed: report.completed(),
            total_throttled: report
                .regions
                .iter()
                .map(|r| r.report.counters.throttled())
                .sum(),
            failovers_out: sum(&|f| f.failovers_out),
            failovers_in: sum(&|f| f.failovers_in),
            report,
        }
    })
    .collect();

    // ---- Experiment 3: drift masking under crash-induced latency spikes.
    // Both hosts crash twice; rejoined hosts run 3x degraded for 6 s —
    // a latency spike indistinguishable from workload drift at the
    // monitor. No genuine drift is injected, so every drift-triggered
    // re-measurement is a false revert.
    let crash_plan = |masked: bool| {
        let mut plan = FaultPlan::none()
            .with_crash(0, 0.3 * duration_ms, 1_000.0)
            .with_crash(1, 0.3 * duration_ms, 1_000.0)
            .with_crash(0, 0.6 * duration_ms, 1_000.0)
            .with_crash(1, 0.6 * duration_ms, 1_000.0)
            .with_recovery(6_000.0, 3.0)
            .with_mask_pad_ms(2_000.0)
            .with_seed(ctx.fault_seed);
        if !masked {
            plan = plan.without_drift_mask();
        }
        plan
    };
    let run_masked = |plan: &FaultPlan| {
        Fleet::from_kinds(
            &platform,
            &FleetConfig::new(2, 4096.0, duration_ms, ctx.seed),
            &functions(),
            SchedulerKind::WarmFirst,
            KeepAliveKind::Adaptive,
        )
        .with_sizing(SizingService::new(sizer.clone(), service_cfg))
        .with_faults(plan, RetryKind::None)
        .run()
    };
    let mask_rows: Vec<MaskRow> = [("masked", true), ("unmasked", false)]
        .into_iter()
        .map(|(masking, masked)| {
            let report = run_masked(&crash_plan(masked));
            let rs = report.rightsizing.as_ref().expect("closed loop reports");
            MaskRow {
                masking: masking.to_string(),
                drift_detections: rs.service.drift_detections,
                drift_suppressed_by_fault: rs.service.drift_suppressed_by_fault,
                // Each function enters Measuring once at startup; every
                // further entry is a drift-triggered re-measurement, and
                // with no genuine drift injected, a false revert.
                false_reverts: rs.service.entered_measuring - fns_count(&report),
                host_crashes: report.faults.expect("fault plan installed").host_crashes,
                report,
            }
        })
        .collect();

    // ---- Tables.
    print_table(
        &format!(
            "Retry vs no-retry under transient faults: 4 hosts x 4 GB, {:.0} s",
            duration_ms / 1000.0
        ),
        &["Policy", "Done", "Failed", "Attempts failed", "Retries", "Avail", "Att/req", "GB·s/req"],
        &retry_rows
            .iter()
            .map(|r| {
                vec![
                    r.policy.clone(),
                    r.completed.to_string(),
                    r.failed.to_string(),
                    r.failed_attempts.to_string(),
                    r.retries_scheduled.to_string(),
                    format!("{:.4}", r.availability),
                    format!("{:.3}", r.mean_attempts_per_completion),
                    format!("{:.4}", r.gb_s_per_req),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        "Failover vs local shedding under a region outage (2 regions x 2 hosts)",
        &["Routing", "Done total", "Throttled", "Diverted", "Accepted"],
        &failover_rows
            .iter()
            .map(|r| {
                vec![
                    r.routing.clone(),
                    r.total_completed.to_string(),
                    r.total_throttled.to_string(),
                    r.failovers_out.to_string(),
                    r.failovers_in.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        "Drift masking under crash-induced latency spikes (closed loop, 2 hosts)",
        &["Masking", "Detections", "Suppressed", "False reverts", "Crashes"],
        &mask_rows
            .iter()
            .map(|r| {
                vec![
                    r.masking.clone(),
                    r.drift_detections.to_string(),
                    r.drift_suppressed_by_fault.to_string(),
                    r.false_reverts.to_string(),
                    r.host_crashes.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // ---- The three orderings.
    println!("\nQualitative checks:");
    let (bare, backed) = (&retry_rows[0], &retry_rows[1]);
    println!(
        "  retry: {} -> {} completed ({} retries scheduled)",
        bare.completed, backed.completed, backed.retries_scheduled
    );
    assert!(
        backed.completed > bare.completed,
        "backoff must complete more than no-retry: {} vs {}",
        backed.completed,
        bare.completed
    );
    assert!(backed.retries_scheduled > 0, "no retries were ever scheduled");

    let (with, without) = (&failover_rows[0], &failover_rows[1]);
    println!(
        "  failover: {} -> {} completed ({} requests rerouted)",
        without.total_completed, with.total_completed, with.failovers_out
    );
    assert!(
        with.total_completed > without.total_completed,
        "failover must complete more than shedding: {} vs {}",
        with.total_completed,
        without.total_completed
    );
    assert!(with.failovers_out > 0, "the outage never diverted traffic");
    assert_eq!(
        with.failovers_in, with.failovers_out,
        "every diverted request must be accepted somewhere"
    );

    let (masked, unmasked) = (&mask_rows[0], &mask_rows[1]);
    println!(
        "  masking: {} -> {} false reverts ({} detections suppressed)",
        unmasked.false_reverts, masked.false_reverts, masked.drift_suppressed_by_fault
    );
    assert!(
        masked.false_reverts < unmasked.false_reverts,
        "the mask must cut false reverts: masked {} vs unmasked {}",
        masked.false_reverts,
        unmasked.false_reverts
    );
    assert!(
        masked.drift_suppressed_by_fault > 0,
        "suppressions must be counted, not silently dropped"
    );

    // ---- `--trace`: replay the backoff run with a recording sink. The
    // instrumentation must not perturb the run: the traced replay has to
    // reproduce the untraced report bit for bit.
    if let Some(path) = &ctx.trace {
        let (report, sink) = retry_fleet(BACKOFF)
            .with_trace(MemorySink::new())
            .run_traced();
        assert_eq!(report, retry_rows[1].report, "tracing perturbed the faulted run");
        write_output(path, &sink.to_jsonl());
        eprintln!("[trace] wrote {} events to {}", sink.len(), path.display());
    }

    ctx.write_json(
        "fleet_chaos.json",
        &ChaosResults {
            retry: retry_rows,
            failover: failover_rows,
            mask: mask_rows,
        },
    );
}

/// The number of functions a closed-loop report sized (each enters
/// Measuring exactly once at startup).
fn fns_count(report: &FleetReport) -> usize {
    report
        .rightsizing
        .as_ref()
        .map_or(0, |rs| rs.final_sizes_mb.len())
}
