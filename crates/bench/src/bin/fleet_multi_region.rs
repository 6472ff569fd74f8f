//! **Extension experiment** — the sizing control plane across regions.
//!
//! One offline-trained artifact serves three regional fleets with
//! region-skewed arrival mixes through a shared [`ControlPlane`]; each
//! region's `mutator` function genuinely *drifts* mid-run (a scheduled
//! profile shift swaps its CPU-bound behavior for a service-call-dominated
//! one), at staggered times per region. The 2×2 policy matrix is compared
//! on identical arrival streams:
//!
//! * **adaptation** — `Frozen` (the paper's loop) vs `FineTune`
//!   (post-resize observation windows fine-tune the shared artifact online
//!   via `neural::transfer`, so an observation from one region improves
//!   recommendations in every region);
//! * **re-measurement** — `FullRevert` (a drifted function reverts to base
//!   for a whole window) vs `ShadowSampling` (a quarter of its dispatches
//!   run at base while it keeps serving at the directed size).
//!
//! The offline phase is deliberately **capped** at 200 training functions
//! and 60 epochs — the "limited offline budget" regime where the model
//! keeps its CPU-bound prior and misjudges memory-flat functions. That is
//! the premise of online adaptation: the headroom the fine-tuned plane can
//! recover is real model error, not noise.
//!
//! The run aborts (non-zero exit) unless, seed-averaged:
//!
//! * **(a)** shadow sampling matches full revert's re-recommendation
//!   quality — after every region's drift both policies converge the
//!   drifted function to the *same* final size, and shadow re-recommends
//!   at least once — while spending **strictly less** execution time at
//!   the base size;
//! * **(b)** the fine-tuned plane is at least as good as the frozen plane
//!   on cross-region GB·s per completed request, under both re-measurement
//!   policies (and its adaptation actually ran: artifact updates are
//!   non-zero).
//!
//! Results are bit-identical for every `--threads` value — CI byte-compares
//! a serial and a parallel run of this binary.

use serde::Serialize;
use sizeless_bench::{pct, print_table, ExperimentContext, BASE, MB_MS_TO_GB_S};
use sizeless_core::service::{
    AdaptationKind, ControlPlane, FineTuneConfig, RemeasureKind, ServiceConfig,
};
use sizeless_core::trainer::TrainerConfig;
use sizeless_fleet::{
    run_multi_region, FleetArrival, FleetConfig, FleetFunction, KeepAliveKind, MultiRegionOptions,
    MultiRegionReport, RegionSpec, SchedulerKind, WorkloadShift,
};
use sizeless_platform::{
    FunctionConfig, Platform, ResourceProfile, ServiceCall, ServiceKind, Stage,
};
use sizeless_workload::ArrivalProcess;

/// Index of the drifting function in every region's portfolio.
const MUTATOR: usize = 2;

/// Service-call-dominated glue: server-side latency is memory-independent,
/// so the right answer is *down* — exactly what the capped offline phase
/// misjudges.
fn gateway() -> ResourceProfile {
    ResourceProfile::builder("gateway")
        .stage(
            Stage::service("lookup", ServiceCall::new(ServiceKind::DynamoDb, 3, 8.0))
                .with_cpu(3.0, 1.0),
        )
        .init_cpu_ms(120.0)
        .package_size_mb(12.0)
        .build()
}

/// CPU-heavy worker: right-sizing sends it *up* for latency at roughly
/// flat GB·s.
fn render() -> ResourceProfile {
    ResourceProfile::builder("render")
        .stage(Stage::cpu("render", 90.0).with_working_set(30.0))
        .init_cpu_ms(200.0)
        .package_size_mb(25.0)
        .build()
}

/// The drifting function's *initial* behavior: CPU-bound, so the loop
/// sizes it up early in the run.
fn mutator_before() -> ResourceProfile {
    ResourceProfile::builder("mutator")
        .stage(Stage::cpu("transform", 70.0))
        .init_cpu_ms(140.0)
        .package_size_mb(15.0)
        .build()
}

/// What the drifting function *becomes*: service-call-dominated (memory
/// flat), so the upsized deployment turns into pure GB·s waste until the
/// loop notices and re-recommends down.
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

fn function(profile: ResourceProfile, rps: f64) -> FleetFunction {
    FleetFunction::new(
        FunctionConfig::new(profile, BASE),
        FleetArrival::Steady(ArrivalProcess::poisson(rps)),
    )
}

/// Three regions, one portfolio, skewed mixes. Every region's `mutator`
/// drifts, at staggered times (30% / 45% / 60% of the run) — the stagger
/// is what lets a fine-tuning plane carry one region's post-drift lesson
/// into the next region's re-recommendation.
fn regions(duration_ms: f64, seed: u64) -> Vec<RegionSpec> {
    let shift = |frac: f64| WorkloadShift {
        at_ms: duration_ms * frac,
        fn_id: MUTATOR,
        profile: mutator_after(),
    };
    vec![
        RegionSpec {
            name: "glue-heavy".into(),
            config: FleetConfig::new(4, 8192.0, duration_ms, seed.wrapping_mul(3).wrapping_add(1)),
            functions: vec![
                function(gateway(), 16.0),
                function(render(), 3.0),
                function(mutator_before(), 10.0),
            ],
            shifts: vec![shift(0.30)],
        },
        RegionSpec {
            name: "compute-heavy".into(),
            config: FleetConfig::new(4, 8192.0, duration_ms, seed.wrapping_mul(3).wrapping_add(2)),
            functions: vec![
                function(gateway(), 6.0),
                function(render(), 8.0),
                function(mutator_before(), 10.0),
            ],
            shifts: vec![shift(0.45)],
        },
        RegionSpec {
            name: "drift-heavy".into(),
            config: FleetConfig::new(4, 8192.0, duration_ms, seed.wrapping_mul(3).wrapping_add(3)),
            functions: vec![
                function(gateway(), 8.0),
                function(render(), 3.0),
                function(mutator_before(), 14.0),
            ],
            shifts: vec![shift(0.60)],
        },
    ]
}

#[derive(Serialize)]
struct RunResult {
    adaptation: String,
    remeasure: String,
    seed: u64,
    /// Cross-region GB·s of execution memory-time per completed request.
    gb_s_per_req: f64,
    completed: usize,
    /// Execution time spent at the base size across regions, seconds.
    base_exec_s: f64,
    drift_detections: usize,
    rerecommendations: usize,
    /// The drifted function's final size per region, MB.
    mutator_final_mb: Vec<u32>,
    plane_observations: usize,
    artifact_updates: usize,
    /// The full per-region reports, persisted so any metric is recoverable
    /// offline.
    report: MultiRegionReport,
}

fn summarize(
    adaptation: AdaptationKind,
    remeasure: RemeasureKind,
    seed: u64,
    report: MultiRegionReport,
) -> RunResult {
    RunResult {
        adaptation: adaptation.name().to_string(),
        remeasure: remeasure.name().to_string(),
        seed,
        gb_s_per_req: report.exec_mb_ms_per_completion() * MB_MS_TO_GB_S,
        completed: report.completed(),
        base_exec_s: report.exec_ms_at_base() / 1000.0,
        drift_detections: report.drift_detections(),
        rerecommendations: report.rerecommendations(),
        mutator_final_mb: report
            .regions
            .iter()
            .map(|r| {
                r.report.rightsizing.as_ref().expect("closed loop").final_sizes_mb[MUTATOR]
            })
            .collect(),
        plane_observations: report.plane.observations,
        artifact_updates: report.plane.artifact_updates,
        report,
    }
}

fn main() {
    let ctx = ExperimentContext::from_args();
    let platform = Platform::aws_like();
    let duration_ms = (2_400_000.0 / ctx.scale).max(240_000.0);
    let seeds: Vec<u64> = (0..2).map(|i| ctx.seed.wrapping_add(i)).collect();

    // Offline phase, deliberately capped (see the module docs): the
    // limited-budget artifact whose flat-function bias is the headroom
    // online adaptation can recover. Shares the dataset cache; honors
    // `--artifact`.
    let mut dataset_cfg = ctx.dataset_config();
    dataset_cfg.function_count = dataset_cfg.function_count.min(200);
    let mut network_cfg = ctx.network_config();
    network_cfg.epochs = network_cfg.epochs.min(60);
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

    let service_cfg = ServiceConfig {
        window: 80,
        ..ServiceConfig::default()
    };
    let fine_tune = AdaptationKind::FineTune(FineTuneConfig {
        frozen_layers: 2,
        epochs: 8,
        batch: 3,
    });
    let cells: Vec<(AdaptationKind, RemeasureKind)> = vec![
        (AdaptationKind::Frozen, RemeasureKind::FullRevert),
        (AdaptationKind::Frozen, RemeasureKind::ShadowSampling(0.25)),
        (fine_tune, RemeasureKind::FullRevert),
        (fine_tune, RemeasureKind::ShadowSampling(0.25)),
    ];

    let mut rows: Vec<RunResult> = Vec::new();
    for &(adaptation, remeasure) in &cells {
        for &seed in &seeds {
            let plane = ControlPlane::new(sizer.clone(), adaptation);
            let report = run_multi_region(
                &platform,
                &regions(duration_ms, seed),
                &plane,
                &MultiRegionOptions {
                    scheduler: SchedulerKind::WarmFirst,
                    keepalive: KeepAliveKind::Adaptive,
                    service: service_cfg,
                    remeasure,
                },
            );
            rows.push(summarize(adaptation, remeasure, seed, report));
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.adaptation.clone(),
                r.remeasure.clone(),
                r.seed.to_string(),
                format!("{:.4}", r.gb_s_per_req),
                format!("{}", r.completed),
                format!("{:.1}", r.base_exec_s),
                format!("{}", r.drift_detections),
                format!("{}", r.rerecommendations),
                format!("{:?}", r.mutator_final_mb),
                format!("{}", r.artifact_updates),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Multi-region control plane: 3 regions x 4 hosts x 8 GB, {:.0} s, staggered drift",
            duration_ms / 1000.0
        ),
        &[
            "Adaptation",
            "Remeasure",
            "Seed",
            "GB·s/req",
            "Done",
            "Base exec s",
            "Drifts",
            "Re-recs",
            "Mutator MB",
            "Updates",
        ],
        &table,
    );

    for r in &rows {
        assert!(
            r.drift_detections > 0,
            "the injected workload shifts were never detected ({}/{} seed {})",
            r.adaptation,
            r.remeasure,
            r.seed
        );
        for region in &r.report.regions {
            assert!(region.report.counters.is_conserved(), "conservation violated");
        }
    }

    // Seed-averaged cell aggregates.
    let cell_rows = |adaptation: &str, remeasure: &str| -> Vec<&RunResult> {
        rows.iter()
            .filter(|r| r.adaptation == adaptation && r.remeasure == remeasure)
            .collect()
    };
    let avg_gb = |sel: &[&RunResult]| {
        sel.iter().map(|r| r.gb_s_per_req).sum::<f64>() / sel.len() as f64
    };
    let avg_base = |sel: &[&RunResult]| {
        sel.iter().map(|r| r.base_exec_s).sum::<f64>() / sel.len() as f64
    };

    println!("\nQualitative checks (seed-averaged):");

    // (a) Shadow sampling: same re-recommendations, strictly less time at
    // base.
    let full = cell_rows("frozen", "full-revert");
    let shadow = cell_rows("frozen", "shadow-sampling");
    let (full_gb, full_base) = (avg_gb(&full), avg_base(&full));
    let (shadow_gb, shadow_base) = (avg_gb(&shadow), avg_base(&shadow));
    println!(
        "  shadow vs revert (frozen): GB·s/req {full_gb:.4} -> {shadow_gb:.4}, \
         base exec {full_base:.1}s -> {shadow_base:.1}s"
    );
    assert!(
        shadow_base < full_base,
        "shadow sampling must spend strictly less execution time at base \
         ({shadow_base:.2}s vs {full_base:.2}s)"
    );
    for (f, s) in full.iter().zip(&shadow) {
        assert_eq!(f.seed, s.seed);
        assert!(
            s.rerecommendations > 0,
            "shadow sampling never re-recommended (seed {})",
            s.seed
        );
        assert_eq!(
            f.mutator_final_mb, s.mutator_final_mb,
            "shadow re-measurement converged the drifted functions elsewhere \
             (seed {}): revert {:?} vs shadow {:?}",
            f.seed, f.mutator_final_mb, s.mutator_final_mb
        );
    }

    // (b) Fine-tuning ≥ frozen on GB·s per completed request, per
    // re-measurement policy, with real adaptation activity.
    for remeasure in ["full-revert", "shadow-sampling"] {
        let frozen_gb = avg_gb(&cell_rows("frozen", remeasure));
        let fine_gb = avg_gb(&cell_rows("fine-tune", remeasure));
        println!(
            "  fine-tune vs frozen ({remeasure}): GB·s/req {frozen_gb:.4} -> {fine_gb:.4} ({} saved)",
            pct(1.0 - fine_gb / frozen_gb)
        );
        assert!(
            fine_gb <= frozen_gb * (1.0 + 1e-9),
            "fine-tuning regressed GB·s/req under {remeasure}: {fine_gb:.4} vs {frozen_gb:.4}"
        );
    }
    let updates: usize = rows
        .iter()
        .filter(|r| r.adaptation == "fine-tune")
        .map(|r| r.artifact_updates)
        .sum();
    assert!(updates > 0, "the fine-tuned plane never updated the artifact");

    ctx.write_json("fleet_multi_region.json", &rows);
}
