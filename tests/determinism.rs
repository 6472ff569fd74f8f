//! Guards the reproducibility contract: every random draw in the system
//! flows through seeded [`RngStream`]s (ChaCha8 under the vendored
//! `rand_chacha`), so identical seeds must give bit-identical pipelines.
//! If the RNG stack's stream layout ever changes — a version bump of the
//! vendored `rand`/`rand_chacha`, a different seed-expansion function —
//! these tests fail before any experiment numbers silently shift.

use sizeless::core::dataset::{DatasetConfig, TrainingDataset};
use sizeless::core::service::{
    AdaptationKind, ControlPlane, FineTuneConfig, RemeasureKind, ServiceConfig, SizingService,
};
use sizeless::core::trainer::{TrainedSizer, Trainer, TrainerConfig};
use sizeless::engine::RngStream;
use sizeless::fleet::{
    run_fleet, run_multi_region, run_rightsized_fleet, FaultPlan, Fleet, FleetArrival,
    FleetConfig, FleetFunction, KeepAliveKind, MultiRegionOptions, RegionSpec, RetryKind,
    SchedulerKind, WorkloadShift,
};
use sizeless::neural::NetworkConfig;
use sizeless::platform::{FunctionConfig, MemorySize, Platform, ResourceProfile, Stage};
use sizeless::workload::{run_experiment, ArrivalProcess, BurstyArrival, ExperimentConfig};

fn tiny_config(seed: u64) -> TrainerConfig {
    let mut dataset = DatasetConfig::tiny(16);
    dataset.seed = seed;
    TrainerConfig {
        dataset,
        network: NetworkConfig {
            hidden_layers: 1,
            neurons: 16,
            epochs: 25,
            ..NetworkConfig::default()
        },
        seed,
        ..TrainerConfig::default()
    }
}

/// Two pipelines trained from the same seed predict identically at every
/// memory size (bit-for-bit, not approximately).
#[test]
fn seeded_pipeline_training_is_bit_reproducible() {
    let platform = Platform::aws_like();
    let a = Trainer::new(tiny_config(7))
        .train(&platform)
        .expect("train a");
    let b = Trainer::new(tiny_config(7))
        .train(&platform)
        .expect("train b");

    let probe = ResourceProfile::builder("determinism-probe")
        .stage(Stage::cpu("work", 120.0).with_working_set(20.0))
        .stage(Stage::file_io("io", 128.0, 32.0))
        .build();
    let m = run_experiment(
        &platform,
        &probe,
        MemorySize::MB_256,
        &ExperimentConfig {
            duration_ms: 4_000.0,
            rps: 10.0,
            seed: 3,
        },
    );

    let pa = a.model().predict(&m.metrics);
    let pb = b.model().predict(&m.metrics);
    for size in MemorySize::STANDARD {
        assert_eq!(
            pa.time_ms(size).to_bits(),
            pb.time_ms(size).to_bits(),
            "prediction at {size} diverged between identically seeded runs"
        );
    }
    assert_eq!(a.recommend(&m.metrics), b.recommend(&m.metrics));
}

/// Different master seeds must actually change the generated dataset
/// (otherwise the test above would pass vacuously).
#[test]
fn different_seeds_give_different_datasets() {
    let platform = Platform::aws_like();
    let mut cfg_a = DatasetConfig::tiny(8);
    cfg_a.seed = 1;
    let mut cfg_b = DatasetConfig::tiny(8);
    cfg_b.seed = 2;
    let a = TrainingDataset::generate(&platform, &cfg_a);
    let b = TrainingDataset::generate(&platform, &cfg_b);
    assert_ne!(a.records, b.records);
}

/// The fleet simulator obeys the same contract: a seeded cluster run —
/// arrivals, placement, cold starts, keep-alive decisions, throttling —
/// produces bit-identical statistics across two executions, because every
/// draw flows through named `RngStream`s and events execute in a
/// deterministic `(time, sequence)` order.
#[test]
fn seeded_fleet_runs_are_bit_identical() {
    let platform = Platform::aws_like();
    let functions = vec![
        FleetFunction::new(
            FunctionConfig::new(
                ResourceProfile::builder("det-api")
                    .stage(Stage::cpu("work", 25.0))
                    .init_cpu_ms(120.0)
                    .build(),
                MemorySize::MB_512,
            ),
            FleetArrival::Steady(ArrivalProcess::poisson(15.0)),
        ),
        FleetFunction::new(
            FunctionConfig::new(
                ResourceProfile::builder("det-burst")
                    .stage(Stage::cpu("work", 60.0))
                    .build(),
                MemorySize::MB_1024,
            ),
            FleetArrival::Bursty(BurstyArrival::new(3.0, 30.0, 5_000.0, 1_500.0)),
        ),
    ];
    let config = FleetConfig::new(4, 2048.0, 15_000.0, 11)
        .with_function_limit(8)
        .with_account_limit(12);

    // Exercise a stateful scheduler and the stateful adaptive policy: both
    // must replay exactly.
    let run = || {
        run_fleet(
            &platform,
            &config,
            &functions,
            SchedulerKind::Random,
            KeepAliveKind::Adaptive,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identically seeded fleet runs diverged");
    assert!(a.counters.completed > 0, "run must do real work");
    assert!(
        a.metrics.mean_latency_ms.to_bits() == b.metrics.mean_latency_ms.to_bits(),
        "derived metrics must match bit-for-bit"
    );

    // And a different seed must actually change the run.
    let c = run_fleet(
        &platform,
        &config.with_seed(12),
        &functions,
        SchedulerKind::Random,
        KeepAliveKind::Adaptive,
    );
    assert_ne!(a.counters.submitted, c.counters.submitted);
}

/// The closed loop end to end — offline training (dataset measurement
/// fanned out over worker threads) feeding an online `SizingService`
/// embedded in a fleet that applies its resize directives — must be
/// **bit-identical** across thread counts and across repeated runs. Pinned
/// at dataset-measurement threads ∈ {1, 4}: every other stage (training,
/// the service, the fleet's event loop) is single-threaded by construction,
/// so the measurement fan-out is where thread-count nondeterminism would
/// enter.
#[test]
fn closed_loop_fleet_is_bit_identical_across_thread_counts() {
    let platform = Platform::aws_like();

    let sizer_with_threads = |threads: usize| {
        let mut dataset = DatasetConfig::tiny(16);
        dataset.seed = 13;
        dataset.threads = threads;
        let cfg = TrainerConfig {
            dataset,
            network: NetworkConfig {
                hidden_layers: 1,
                neurons: 16,
                epochs: 25,
                ..NetworkConfig::default()
            },
            seed: 13,
            ..TrainerConfig::default()
        };
        Trainer::new(cfg).train(&platform).expect("trainable")
    };

    let functions = vec![
        FleetFunction::new(
            FunctionConfig::new(
                ResourceProfile::builder("loop-io")
                    .stage(Stage::file_io("io", 384.0, 96.0))
                    .build(),
                MemorySize::MB_256,
            ),
            FleetArrival::Steady(ArrivalProcess::poisson(18.0)),
        ),
        FleetFunction::new(
            FunctionConfig::new(
                ResourceProfile::builder("loop-cpu")
                    .stage(Stage::cpu("work", 70.0))
                    .init_cpu_ms(120.0)
                    .build(),
                MemorySize::MB_256,
            ),
            FleetArrival::Bursty(BurstyArrival::new(3.0, 30.0, 5_000.0, 1_500.0)),
        ),
    ];
    let config = FleetConfig::new(3, 4096.0, 20_000.0, 17);
    let run = |threads: usize| {
        run_rightsized_fleet(
            &platform,
            &config,
            &functions,
            SchedulerKind::WarmFirst,
            KeepAliveKind::Adaptive,
            SizingService::new(
                sizer_with_threads(threads),
                ServiceConfig {
                    window: 50,
                    ..ServiceConfig::default()
                },
            ),
        )
    };

    let serial = run(1);
    let threaded = run(4);
    assert_eq!(
        serial, threaded,
        "closed-loop fleet diverged across dataset-measurement thread counts"
    );
    assert_eq!(serial, run(1), "closed-loop fleet diverged across repeat runs");

    // The run must exercise the loop, not just pass vacuously.
    let rs = serial.rightsizing.as_ref().expect("rightsizing section");
    assert!(serial.counters.completed > 0);
    assert!(rs.service.recommendations > 0, "no window ever filled");
    assert_eq!(rs.counters.samples_ingested, serial.counters.completed);
    // Derived floats agree bit-for-bit, not just approximately.
    let t = threaded.rightsizing.as_ref().unwrap();
    assert_eq!(
        rs.metrics.exec_mb_ms_per_completion_original.to_bits(),
        t.metrics.exec_mb_ms_per_completion_original.to_bits()
    );
    assert_eq!(
        rs.metrics.exec_mb_ms_per_completion_directed.to_bits(),
        t.metrics.exec_mb_ms_per_completion_directed.to_bits()
    );
}

/// The structured JSONL trace of a traced closed-loop run is byte-identical
/// across dataset-measurement thread counts and across repeat runs — the
/// observability layer inherits the replay contract, down to every float
/// digit of every timestamp.
#[test]
fn closed_loop_trace_is_byte_identical_across_thread_counts() {
    use sizeless::obs::{export, MemorySink};
    let platform = Platform::aws_like();
    let functions = vec![
        FleetFunction::new(
            FunctionConfig::new(
                ResourceProfile::builder("trace-io")
                    .stage(Stage::file_io("io", 384.0, 96.0))
                    .build(),
                MemorySize::MB_256,
            ),
            FleetArrival::Steady(ArrivalProcess::poisson(18.0)),
        ),
        FleetFunction::new(
            FunctionConfig::new(
                ResourceProfile::builder("trace-cpu")
                    .stage(Stage::cpu("work", 70.0))
                    .init_cpu_ms(120.0)
                    .build(),
                MemorySize::MB_256,
            ),
            FleetArrival::Bursty(BurstyArrival::new(3.0, 30.0, 5_000.0, 1_500.0)),
        ),
    ];
    let config = FleetConfig::new(3, 4096.0, 20_000.0, 23);
    let trace = |threads: usize| {
        let default_ttl = platform.cold_start_model().idle_ttl_ms;
        let fleet = Fleet::new(
            &platform,
            &config,
            &functions,
            SchedulerKind::WarmFirst.build(),
            KeepAliveKind::Adaptive.build(functions.len(), default_ttl),
        )
        .with_sizing(SizingService::new(
            sizer_with_threads(&platform, threads),
            ServiceConfig {
                window: 50,
                ..ServiceConfig::default()
            },
        ))
        .with_trace(MemorySink::new());
        let (report, sink) = fleet.run_traced();
        assert!(report.counters.completed > 0);
        (sink.to_jsonl(), report)
    };

    let (serial, serial_report) = trace(1);
    let (threaded, threaded_report) = trace(4);
    assert!(!serial.is_empty(), "traced run recorded nothing");
    assert_eq!(serial, threaded, "trace bytes diverged across thread counts");
    assert_eq!(serial, trace(1).0, "trace bytes diverged across repeat runs");
    assert_eq!(serial_report, threaded_report, "reports diverged too");

    // The emitted trace is schema-valid: every line parses back, and
    // re-exporting the parsed records reproduces the input byte for byte.
    let records = export::parse_jsonl(&serial).expect("trace is schema-valid JSONL");
    assert_eq!(records.len(), serial.lines().count());
    assert_eq!(export::jsonl(&records), serial);
}

/// Faults inherit the replay contract: a closed-loop fleet under a plan
/// mixing a scheduled crash, a stochastic crash process, transient
/// failures, recovery slowdowns, and exponential-backoff retries is
/// **bit-identical** across dataset-measurement thread counts (pinned at
/// threads ∈ {1, 4}) and across repeat runs — report *and* trace bytes.
/// Crash times, retry jitter, and failure fates all flow through named
/// `RngStream`s forked off the fault seed, so nothing leaks between the
/// fault machinery and the arrival/scheduler/monitor streams.
#[test]
fn faulted_closed_loop_is_bit_identical_across_thread_counts() {
    use sizeless::obs::MemorySink;
    let platform = Platform::aws_like();
    let functions = vec![
        FleetFunction::new(
            FunctionConfig::new(
                ResourceProfile::builder("fault-io")
                    .stage(Stage::file_io("io", 384.0, 96.0))
                    .build(),
                MemorySize::MB_256,
            ),
            FleetArrival::Steady(ArrivalProcess::poisson(18.0)),
        ),
        FleetFunction::new(
            FunctionConfig::new(
                ResourceProfile::builder("fault-cpu")
                    .stage(Stage::cpu("work", 70.0))
                    .init_cpu_ms(120.0)
                    .build(),
                MemorySize::MB_256,
            ),
            FleetArrival::Bursty(BurstyArrival::new(3.0, 30.0, 5_000.0, 1_500.0)),
        ),
    ];
    let config = FleetConfig::new(3, 4096.0, 20_000.0, 37);
    let plan = FaultPlan::none()
        .with_transient(0.05, 0.1, 0.5)
        .with_crash(1, 6_000.0, 1_500.0)
        .with_crash_process(15_000.0, 800.0)
        .with_recovery(3_000.0, 2.5)
        .with_seed(37);
    let run = |threads: usize| {
        let default_ttl = platform.cold_start_model().idle_ttl_ms;
        let fleet = Fleet::new(
            &platform,
            &config,
            &functions,
            SchedulerKind::WarmFirst.build(),
            KeepAliveKind::Adaptive.build(functions.len(), default_ttl),
        )
        .with_sizing(SizingService::new(
            sizer_with_threads(&platform, threads),
            ServiceConfig {
                window: 50,
                ..ServiceConfig::default()
            },
        ))
        .with_faults(&plan)
        .with_retries(RetryKind::ExponentialBackoff {
            base_ms: 200.0,
            factor: 2.0,
            cap_ms: 5_000.0,
            max_attempts: 4,
            jitter_frac: 0.2,
            budget_per_fn: None,
        })
        .with_trace(MemorySink::new());
        let (report, sink) = fleet.run_traced();
        (report, sink.to_jsonl())
    };

    let (serial, serial_trace) = run(1);
    let (threaded, threaded_trace) = run(4);
    assert_eq!(
        serial, threaded,
        "faulted closed-loop fleet diverged across thread counts"
    );
    assert_eq!(
        serial_trace, threaded_trace,
        "faulted trace bytes diverged across thread counts"
    );
    let (repeat, repeat_trace) = run(1);
    assert_eq!(serial, repeat, "faulted run diverged across repeats");
    assert_eq!(serial_trace, repeat_trace, "faulted trace diverged across repeats");

    // The run must actually exercise the fault machinery.
    let faults = serial.faults.expect("fault plan reports a summary");
    assert!(faults.host_crashes > 0, "no crash ever fired");
    assert!(serial.counters.failed_attempts > 0, "no attempt ever failed");
    assert!(serial.counters.retries_scheduled > 0, "no retry ever scheduled");
    assert!(serial.counters.completed > 0, "no request ever completed");
    assert!(serial.counters.is_conserved());
}

/// A small trained artifact whose offline dataset measurement fans out over
/// `threads` workers — the only multi-threaded stage anywhere in the
/// closed loop.
fn sizer_with_threads(platform: &Platform, threads: usize) -> TrainedSizer {
    let mut dataset = DatasetConfig::tiny(16);
    dataset.seed = 29;
    dataset.threads = threads;
    let cfg = TrainerConfig {
        dataset,
        network: NetworkConfig {
            hidden_layers: 1,
            neurons: 16,
            epochs: 25,
            ..NetworkConfig::default()
        },
        seed: 29,
        ..TrainerConfig::default()
    };
    Trainer::new(cfg).train(platform).expect("trainable")
}

/// Two regions with skewed mixes and a mid-run workload shift — enough
/// traffic to fill several windows, trip drift, and (under shadow
/// sampling) route shadow dispatches.
fn multi_region_specs() -> Vec<RegionSpec> {
    let io = || {
        ResourceProfile::builder("mr-io")
            .stage(Stage::file_io("io", 384.0, 96.0))
            .build()
    };
    let cpu = || {
        ResourceProfile::builder("mr-cpu")
            .stage(Stage::cpu("work", 70.0))
            .init_cpu_ms(120.0)
            .build()
    };
    let functions = |io_rps: f64, cpu_rps: f64| {
        vec![
            FleetFunction::new(
                FunctionConfig::new(io(), MemorySize::MB_256),
                FleetArrival::Steady(ArrivalProcess::poisson(io_rps)),
            ),
            FleetFunction::new(
                FunctionConfig::new(cpu(), MemorySize::MB_256),
                FleetArrival::Steady(ArrivalProcess::poisson(cpu_rps)),
            ),
        ]
    };
    vec![
        RegionSpec {
            name: "east".into(),
            config: FleetConfig::new(2, 4096.0, 30_000.0, 41),
            functions: functions(20.0, 6.0),
            shifts: vec![],
        },
        RegionSpec {
            name: "west".into(),
            config: FleetConfig::new(2, 4096.0, 30_000.0, 42),
            functions: functions(6.0, 16.0),
            shifts: vec![WorkloadShift {
                at_ms: 15_000.0,
                fn_id: 1,
                profile: ResourceProfile::builder("mr-cpu")
                    .stage(Stage::cpu("work", 160.0))
                    .init_cpu_ms(120.0)
                    .build(),
            }],
        },
    ]
}

/// The multi-region control plane obeys the reproducibility contract for
/// **both** new policy axes: `ShadowSampling` routing (counter-based, no
/// RNG) and `FineTune` adaptation (numbered rounds over the merged event
/// order) replay bit-identically across repeat runs *and* across
/// dataset-measurement thread counts, pinned at threads ∈ {1, 4}.
#[test]
fn multi_region_shadow_and_finetune_are_bit_identical_across_thread_counts() {
    let platform = Platform::aws_like();
    let run = |threads: usize, remeasure: RemeasureKind, adaptation: AdaptationKind| {
        let plane = ControlPlane::new(sizer_with_threads(&platform, threads), adaptation);
        run_multi_region(
            &platform,
            &multi_region_specs(),
            &plane,
            &MultiRegionOptions {
                scheduler: SchedulerKind::WarmFirst,
                keepalive: KeepAliveKind::Adaptive,
                service: ServiceConfig {
                    window: 40,
                    ..ServiceConfig::default()
                },
                remeasure,
            },
        )
    };

    let fine_tune = AdaptationKind::FineTune(FineTuneConfig {
        frozen_layers: 1,
        epochs: 4,
        batch: 1,
    });
    let shadow = RemeasureKind::ShadowSampling(0.25);

    // Shadow routing: serial vs threaded offline phase, plus a repeat run.
    let shadow_serial = run(1, shadow, AdaptationKind::Frozen);
    let shadow_threaded = run(4, shadow, AdaptationKind::Frozen);
    assert_eq!(
        shadow_serial, shadow_threaded,
        "shadow-sampled multi-region run diverged across thread counts"
    );
    assert_eq!(
        shadow_serial,
        run(1, shadow, AdaptationKind::Frozen),
        "shadow-sampled multi-region run diverged across repeats"
    );

    // Fine-tuned plane: same contract (the artifact mutates mid-run, in
    // merged-event order, so any hidden nondeterminism would surface here).
    let fine_serial = run(1, RemeasureKind::FullRevert, fine_tune);
    let fine_threaded = run(4, RemeasureKind::FullRevert, fine_tune);
    assert_eq!(
        fine_serial, fine_threaded,
        "fine-tuned multi-region run diverged across thread counts"
    );

    // The runs must exercise the loop, not pass vacuously.
    for (report, what) in [(&shadow_serial, "shadow"), (&fine_serial, "fine-tune")] {
        assert!(report.completed() > 0, "{what}: no traffic");
        let recommendations: usize = report
            .regions
            .iter()
            .map(|r| r.report.rightsizing.as_ref().unwrap().service.recommendations)
            .sum();
        assert!(recommendations > 0, "{what}: no window ever filled");
    }
    assert!(
        fine_serial.plane.observations > 0,
        "fine-tune run produced no post-resize observations"
    );
}

/// The raw stream layer itself: same seed + label → identical draws, and
/// the dataset generator consumes streams in a layout-stable way.
#[test]
fn rng_streams_are_stable_across_runs() {
    let mut a = RngStream::from_seed(42, "determinism");
    let mut b = RngStream::from_seed(42, "determinism");
    let xs: Vec<u64> = (0..64).map(|_| a.int_range(0, u64::MAX - 1)).collect();
    let ys: Vec<u64> = (0..64).map(|_| b.int_range(0, u64::MAX - 1)).collect();
    assert_eq!(xs, ys);

    let da = RngStream::from_seed(42, "determinism").derive("child");
    let db = RngStream::from_seed(42, "determinism").derive("child");
    assert_eq!(
        da.clone().next_f64().to_bits(),
        db.clone().next_f64().to_bits()
    );
}

/// The training-layer fan-outs obey the same contract: a grid search (and
/// the cross-validation underneath it) fanned out over worker threads must
/// be **bit-identical** to the serial run, because every configuration and
/// fold derives its RNG streams from `(seed, job)` alone and results pool
/// in job order. Pinned here at threads ∈ {1, 4}; the `--threads` knob of
/// the experiment binaries therefore trades wall-clock time only.
#[test]
fn parallel_grid_search_is_bit_identical_to_serial() {
    use sizeless::neural::prelude::*;

    let mut rng = RngStream::from_seed(21, "det-grid-data");
    let n = 48;
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..n {
        let a = rng.uniform(0.1, 1.0);
        let b = rng.uniform(0.1, 1.0);
        xs.extend_from_slice(&[a, b]);
        ys.push(1.5 * a + 0.5 * b + 0.2);
    }
    let x = Matrix::from_vec(n, 2, xs);
    let y = Matrix::from_vec(n, 1, ys);

    let spec = GridSpec {
        optimizers: vec![OptimizerKind::Adam { lr: 0.005 }, OptimizerKind::Sgd { lr: 0.01 }],
        losses: vec![Loss::Mse, Loss::Mape],
        epochs: vec![12],
        neurons: vec![6],
        l2s: vec![0.0, 0.001],
        layers: vec![1],
    };
    let serial = grid_search(&x, &y, &spec, 3, 17, 1);
    let threaded = grid_search(&x, &y, &spec, 3, 17, 4);
    assert_eq!(serial.len(), threaded.len());
    for (a, b) in serial.iter().zip(&threaded) {
        assert_eq!(a.config, b.config, "rank order diverged across thread counts");
        assert_eq!(a.mse.to_bits(), b.mse.to_bits(), "MSE bits diverged");
        assert_eq!(a.mape.to_bits(), b.mape.to_bits(), "MAPE bits diverged");
    }

    let cv_cfg = NetworkConfig {
        hidden_layers: 1,
        neurons: 8,
        loss: Loss::Mse,
        l2: 0.0,
        epochs: 15,
        batch_size: 16,
        ..NetworkConfig::default()
    };
    let cv_serial = cross_validate(&x, &y, &cv_cfg, 4, 2, 23, 1);
    let cv_threaded = cross_validate(&x, &y, &cv_cfg, 4, 2, 23, 4);
    assert_eq!(cv_serial.mse.to_bits(), cv_threaded.mse.to_bits());
    assert_eq!(cv_serial.mape.to_bits(), cv_threaded.mape.to_bits());
    assert_eq!(cv_serial.r_squared.to_bits(), cv_threaded.r_squared.to_bits());
    assert_eq!(
        cv_serial.explained_variance.to_bits(),
        cv_threaded.explained_variance.to_bits()
    );
}

/// Scratch-workspace reuse must never leak state between trainings: a
/// network fitted with a workspace that already trained a *differently
/// shaped* network predicts bit-identically to one fitted with a fresh
/// workspace.
#[test]
fn scratch_reuse_across_network_shapes_is_bit_clean() {
    use sizeless::neural::prelude::*;
    use sizeless::neural::Scratch;

    let mut rng = RngStream::from_seed(31, "det-scratch-data");
    let n = 40;
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..n {
        let a = rng.uniform(0.1, 1.0);
        xs.push(a);
        ys.push(0.7 * a + 0.1);
    }
    let x = Matrix::from_vec(n, 1, xs);
    let y = Matrix::from_vec(n, 1, ys);

    let big = NetworkConfig {
        hidden_layers: 3,
        neurons: 24,
        loss: Loss::Mse,
        l2: 0.0,
        epochs: 10,
        batch_size: 8,
        ..NetworkConfig::default()
    };
    let small = NetworkConfig {
        hidden_layers: 1,
        neurons: 5,
        ..big
    };

    // Dirty the workspace with the big shape, then fit the small one.
    let mut scratch = Scratch::new();
    let mut warmup = NeuralNetwork::new(1, 1, &big, 1);
    warmup.fit_with(&x, &y, &mut scratch);
    let mut reused = NeuralNetwork::new(1, 1, &small, 2);
    reused.fit_with(&x, &y, &mut scratch);

    let mut fresh = NeuralNetwork::new(1, 1, &small, 2);
    fresh.fit(&x, &y);

    for (a, b) in reused
        .predict(&x)
        .data()
        .iter()
        .zip(fresh.predict(&x).data())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "scratch reuse changed training");
    }
}
