//! **Extension experiment** — sweeping the sizing service's knobs.
//!
//! `ServiceConfig { window, drift }` defaults are hand-picked; this sweep
//! measures what they actually trade off. A closed-loop fleet with one
//! genuinely drifting function (a scheduled profile shift at half-run)
//! runs once per knob combination — window length × drift alpha × minimum
//! Cliff's-delta magnitude — on identical arrival streams, and reports:
//!
//! * **false-revert rate** — of the post-drift re-recommendations, the
//!   share that chose the *same* size again: the re-measurement window was
//!   paid for nothing. Computed from the service's cumulative
//!   re-recommendation counters (`rerecommend_same`/`rerecommend_changed`),
//!   no re-simulation needed;
//! * **time-to-first-win** — simulation time of the first applied
//!   *recommendation* resize (`first_resize_at_ms`; calibration and drift
//!   reverts don't count): how long a fresh deployment waits before the
//!   loop starts paying off. Longer windows start strictly later;
//! * drift checks/detections and cross-run GB·s per completed request.
//!
//! CI smoke-runs the sweep at `--scale 50`.

use serde::Serialize;
use sizeless_bench::{gb_s_per_completion, print_table, ExperimentContext, BASE};
use sizeless_core::drift::DriftConfig;
use sizeless_core::service::{ControlPlane, RemeasureKind, ServiceConfig, ServiceStats};
use sizeless_core::trainer::TrainerConfig;
use sizeless_engine::parallel_map;
use sizeless_fleet::{
    run_multi_region, FleetArrival, FleetConfig, FleetFunction, KeepAliveKind, MultiRegionOptions,
    RegionSpec, SchedulerKind, WorkloadShift,
};
use sizeless_platform::{
    FunctionConfig, Platform, ResourceProfile, ServiceCall, ServiceKind, Stage,
};
use sizeless_stats::cliffs::DeltaMagnitude;
use sizeless_workload::ArrivalProcess;

fn functions() -> Vec<FleetFunction> {
    let gateway = ResourceProfile::builder("gateway")
        .stage(
            Stage::service("lookup", ServiceCall::new(ServiceKind::DynamoDb, 3, 8.0))
                .with_cpu(3.0, 1.0),
        )
        .init_cpu_ms(120.0)
        .package_size_mb(12.0)
        .build();
    let render = ResourceProfile::builder("render")
        .stage(Stage::cpu("render", 90.0).with_working_set(30.0))
        .init_cpu_ms(200.0)
        .package_size_mb(25.0)
        .build();
    let mutator = ResourceProfile::builder("mutator")
        .stage(Stage::cpu("transform", 70.0))
        .init_cpu_ms(140.0)
        .package_size_mb(15.0)
        .build();
    vec![
        FleetFunction::new(
            FunctionConfig::new(gateway, BASE),
            FleetArrival::Steady(ArrivalProcess::poisson(12.0)),
        ),
        FleetFunction::new(
            FunctionConfig::new(render, BASE),
            FleetArrival::Steady(ArrivalProcess::poisson(4.0)),
        ),
        FleetFunction::new(
            FunctionConfig::new(mutator, BASE),
            FleetArrival::Steady(ArrivalProcess::poisson(10.0)),
        ),
    ]
}

/// What the drifting function becomes at half-run: service-call-dominated,
/// memory-flat.
fn mutator_after() -> ResourceProfile {
    ResourceProfile::builder("mutator")
        .stage(
            Stage::service("call", ServiceCall::new(ServiceKind::ExternalApi, 2, 10.0))
                .with_cpu(2.0, 1.0),
        )
        .init_cpu_ms(140.0)
        .package_size_mb(15.0)
        .build()
}

#[derive(Serialize)]
struct SweepRow {
    window: usize,
    alpha: f64,
    min_magnitude: String,
    /// `rerecommend_same / (rerecommend_same + rerecommend_changed)`, or
    /// null before any post-drift re-recommendation happened.
    false_revert_rate: Option<f64>,
    /// Simulation time of the first applied resize, ms.
    time_to_first_win_ms: Option<f64>,
    drift_checks: usize,
    drift_detections: usize,
    gb_s_per_req: f64,
    service: ServiceStats,
}

fn main() {
    let ctx = ExperimentContext::from_args();
    let platform = Platform::aws_like();
    let duration_ms = (1_200_000.0 / ctx.scale).max(120_000.0);

    let mut dataset_cfg = ctx.dataset_config();
    dataset_cfg.function_count = dataset_cfg.function_count.max(400);
    let mut network_cfg = ctx.network_config();
    network_cfg.epochs = network_cfg.epochs.max(120);
    let sizer = ctx.trained_sizer(
        &platform,
        &TrainerConfig {
            dataset: dataset_cfg,
            network: network_cfg,
            base_size: BASE,
            seed: ctx.seed,
            ..TrainerConfig::default()
        },
    );

    let windows = [60usize, 100, 150];
    let alphas = [0.01f64, 0.05];
    let magnitudes = [DeltaMagnitude::Small, DeltaMagnitude::Medium];

    // Each knob combination is an independent closed-loop simulation with
    // its own cloned sizer and self-seeded fleet: fan the grid out across
    // the worker pool. Results come back in grid order, byte-identical at
    // any `--threads` value.
    let mut grid: Vec<(usize, f64, DeltaMagnitude)> = Vec::new();
    for &window in &windows {
        for &alpha in &alphas {
            for &min_magnitude in &magnitudes {
                grid.push((window, alpha, min_magnitude));
            }
        }
    }
    let seed = ctx.seed;
    let rows: Vec<SweepRow> = parallel_map(
        ctx.thread_count(),
        grid.len(),
        || (),
        |i, _| {
            let (window, alpha, min_magnitude) = grid[i];
            let region = RegionSpec {
                name: "sweep".into(),
                config: FleetConfig::new(4, 8192.0, duration_ms, seed.wrapping_add(17)),
                functions: functions(),
                shifts: vec![WorkloadShift {
                    at_ms: duration_ms * 0.5,
                    fn_id: 2,
                    profile: mutator_after(),
                }],
            };
            let plane = ControlPlane::frozen(sizer.clone());
            let report = run_multi_region(
                &platform,
                &[region],
                &plane,
                &MultiRegionOptions {
                    scheduler: SchedulerKind::WarmFirst,
                    keepalive: KeepAliveKind::Adaptive,
                    service: ServiceConfig {
                        window,
                        drift: DriftConfig {
                            alpha,
                            min_magnitude,
                        },
                    },
                    remeasure: RemeasureKind::FullRevert,
                },
            );
            let fleet = &report.regions[0].report;
            assert!(fleet.counters.is_conserved(), "conservation violated");
            let rs = fleet.rightsizing.as_ref().expect("closed loop");
            let rerecs = rs.service.rerecommend_same + rs.service.rerecommend_changed;
            SweepRow {
                window,
                alpha,
                min_magnitude: format!("{min_magnitude:?}"),
                false_revert_rate: (rerecs > 0)
                    .then(|| rs.service.rerecommend_same as f64 / rerecs as f64),
                time_to_first_win_ms: rs.counters.first_resize_at_ms,
                drift_checks: rs.service.drift_checks,
                drift_detections: rs.service.drift_detections,
                gb_s_per_req: gb_s_per_completion(fleet),
                service: rs.service,
            }
        },
    );

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.window.to_string(),
                format!("{}", r.alpha),
                r.min_magnitude.clone(),
                match r.false_revert_rate {
                    Some(rate) => format!("{rate:.2}"),
                    None => "-".into(),
                },
                match r.time_to_first_win_ms {
                    Some(t) => format!("{:.1}", t / 1000.0),
                    None => "-".into(),
                },
                r.drift_checks.to_string(),
                r.drift_detections.to_string(),
                format!("{:.4}", r.gb_s_per_req),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Service-knob sweep: window x alpha x magnitude, {:.0} s, drift at 50%",
            duration_ms / 1000.0
        ),
        &[
            "Window",
            "Alpha",
            "Magnitude",
            "False-revert",
            "First win s",
            "Checks",
            "Drifts",
            "GB·s/req",
        ],
        &table,
    );

    // Qualitative checks: the loop resizes under every knob combination,
    // the injected drift is caught somewhere, and longer windows pay their
    // first win strictly later (a window can only fill later).
    for r in &rows {
        assert!(
            r.time_to_first_win_ms.is_some(),
            "no resize ever applied at window={} alpha={} mag={}",
            r.window,
            r.alpha,
            r.min_magnitude
        );
    }
    assert!(
        rows.iter().any(|r| r.drift_detections > 0),
        "the injected drift went unnoticed by every knob combination"
    );
    for &alpha in &alphas {
        for &min_magnitude in &magnitudes {
            let first_win = |window: usize| {
                rows.iter()
                    .find(|r| {
                        r.window == window
                            && r.alpha == alpha
                            && r.min_magnitude == format!("{min_magnitude:?}")
                    })
                    .and_then(|r| r.time_to_first_win_ms)
                    .expect("asserted above")
            };
            assert!(
                first_win(windows[0]) <= first_win(windows[windows.len() - 1]),
                "a shorter window must win no later (alpha={alpha}, {min_magnitude:?})"
            );
        }
    }

    ctx.write_json("service_knob_sweep.json", &rows);
}
