//! Pinned determinism contract for the hot-path rework: a rightsized
//! (closed-loop) fleet report and its full trace are byte-identical under
//! both event-queue variants and under fan-out thread counts 1 and 4, and
//! so is a plain seed × scheduler grid of fleet reports.
//!
//! The queue knob and the parallel fan-out are performance choices;
//! this suite is the executable statement that neither can move a single
//! byte of simulation output. Reports are compared as serialized JSON and
//! traces as JSONL exports — the same representations the experiment
//! binaries write to disk — so any float, ordering, or formatting drift
//! fails loudly.

use sizeless_core::dataset::DatasetConfig;
use sizeless_core::service::{ControlPlane, RemeasureKind, ServiceConfig};
use sizeless_core::trainer::{TrainedSizer, Trainer, TrainerConfig};
use sizeless_engine::{parallel_map, QueueKind};
use sizeless_fleet::{
    run_multi_region_faulted, run_multi_region_faulted_traced, FaultPlan, Fleet, FleetArrival,
    FleetConfig, FleetFunction, FleetReport, KeepAliveKind, MultiRegionOptions, RegionSpec,
    RetryKind, SchedulerKind,
};
use sizeless_obs::MemorySink;
use sizeless_platform::{
    FunctionConfig, MemorySize, Platform, ResourceProfile, Stage,
};
use sizeless_workload::ArrivalProcess;

fn quick_sizer(platform: &Platform) -> TrainedSizer {
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
    Trainer::new(cfg).train(platform).expect("training converges")
}

fn functions() -> Vec<FleetFunction> {
    let io = ResourceProfile::builder("det-io")
        .stage(Stage::file_io("io", 512.0, 128.0))
        .build();
    let cpu = ResourceProfile::builder("det-cpu")
        .stage(Stage::cpu("work", 60.0))
        .build();
    vec![
        FleetFunction::new(
            FunctionConfig::new(io, MemorySize::MB_256),
            FleetArrival::Steady(ArrivalProcess::poisson(14.0)),
        ),
        FleetFunction::new(
            FunctionConfig::new(cpu, MemorySize::MB_256),
            FleetArrival::Steady(ArrivalProcess::poisson(8.0)),
        ),
    ]
}

fn options() -> MultiRegionOptions {
    MultiRegionOptions {
        scheduler: SchedulerKind::WarmFirst,
        keepalive: KeepAliveKind::Adaptive,
        service: ServiceConfig {
            window: 50,
            ..ServiceConfig::default()
        },
        remeasure: RemeasureKind::FullRevert,
    }
}

/// One closed-loop run on the given queue and seed, rendered to the exact
/// bytes the experiment binaries persist: pretty-printed report JSON and
/// the JSONL trace export. The untraced run must report the same bytes.
fn rightsized_run(
    platform: &Platform,
    sizer: &TrainedSizer,
    queue: QueueKind,
    seed: u64,
) -> (String, String) {
    let region = RegionSpec {
        name: "determinism".into(),
        config: FleetConfig::new(2, 4096.0, 20_000.0, seed)
            .with_queue(queue)
            .with_invariant_checks(),
        functions: functions(),
        shifts: vec![],
    };
    let regions = [region];
    let plan = FaultPlan::none();
    let (report, sinks) = run_multi_region_faulted_traced(
        platform,
        &regions,
        &ControlPlane::frozen(sizer.clone()),
        &options(),
        &plan,
        RetryKind::None,
        |_| MemorySink::new(),
    );
    let untraced = run_multi_region_faulted(
        platform,
        &regions,
        &ControlPlane::frozen(sizer.clone()),
        &options(),
        &plan,
        RetryKind::None,
    );
    let fleet = &report.regions[0].report;
    assert!(fleet.rightsizing.is_some(), "closed loop must rightsize");
    assert!(fleet.counters.is_conserved(), "conservation violated");
    assert!(!sinks[0].is_empty(), "traced run recorded nothing");
    let report_json = serde_json::to_string_pretty(&report).expect("report serializes");
    assert_eq!(
        report_json,
        serde_json::to_string_pretty(&untraced).expect("report serializes"),
        "tracing perturbed the run"
    );
    (report_json, sinks[0].to_jsonl())
}

/// Queue variants: the heap and the calendar produce byte-identical
/// rightsized reports and traces.
#[test]
fn rightsized_report_and_trace_identical_across_queue_variants() {
    let platform = Platform::aws_like();
    let sizer = quick_sizer(&platform);
    let heap = rightsized_run(&platform, &sizer, QueueKind::Heap, 31);
    let calendar = rightsized_run(&platform, &sizer, QueueKind::calendar(), 31);
    assert_eq!(heap.0, calendar.0, "report bytes differ between queue variants");
    assert_eq!(heap.1, calendar.1, "trace bytes differ between queue variants");
}

/// Sweep thread counts: fanning the same rightsized jobs across 1 or 4
/// workers yields byte-identical reports and traces, in job order.
#[test]
fn rightsized_report_and_trace_identical_across_sweep_threads() {
    let platform = Platform::aws_like();
    let sizer = quick_sizer(&platform);
    // Four independent jobs spanning both queue variants and two seeds —
    // enough to catch any cross-job state bleed or ordering sensitivity.
    let jobs: Vec<(QueueKind, u64)> = vec![
        (QueueKind::Heap, 31),
        (QueueKind::calendar(), 31),
        (QueueKind::Heap, 77),
        (QueueKind::calendar(), 77),
    ];
    let run_all = |threads: usize| {
        parallel_map(
            threads,
            jobs.len(),
            || (),
            |i, _| {
                let (queue, seed) = jobs[i];
                rightsized_run(&platform, &sizer, queue, seed)
            },
        )
    };
    let serial = run_all(1);
    let parallel = run_all(4);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.0, p.0, "job {i}: report bytes differ between 1 and 4 threads");
        assert_eq!(s.1, p.1, "job {i}: trace bytes differ between 1 and 4 threads");
    }
}

/// A seed × scheduler grid of one-function fleets, run by `threads`
/// workers.
fn grid(platform: &Platform, threads: usize) -> Vec<FleetReport> {
    let profile = ResourceProfile::builder("f")
        .stage(Stage::cpu("w", 25.0))
        .init_cpu_ms(80.0)
        .build();
    let functions = vec![FleetFunction::new(
        FunctionConfig::new(profile, MemorySize::MB_512),
        FleetArrival::Steady(ArrivalProcess::poisson(6.0)),
    )];
    let mut cells = Vec::new();
    for seed in [1_u64, 2, 3] {
        for sched in [SchedulerKind::WarmFirst, SchedulerKind::Random] {
            cells.push((seed, sched));
        }
    }
    parallel_map(
        threads,
        cells.len(),
        || (),
        |i, _| {
            let (seed, sched) = cells[i];
            Fleet::from_kinds(
                platform,
                &FleetConfig::new(2, 1024.0, 20_000.0, seed),
                &functions,
                sched,
                KeepAliveKind::FixedTtl,
            )
            .run()
        },
    )
}

#[test]
fn reports_are_identical_at_any_thread_count() {
    let platform = Platform::aws_like();
    let serial = grid(&platform, 1);
    for threads in [2, 4] {
        let parallel = grid(&platform, threads);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.counters, b.counters);
            assert_eq!(
                a.metrics.mean_latency_ms.to_bits(),
                b.metrics.mean_latency_ms.to_bits()
            );
            assert_eq!(a.sim, b.sim);
        }
    }
}
