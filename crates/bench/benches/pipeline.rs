//! Criterion benchmarks of the Sizeless pipeline pieces: measurement
//! harness throughput, feature extraction, statistical tests, and the
//! memory-size optimizer. Together with `platform.rs` these bound the cost
//! of regenerating the full paper dataset.

use criterion::{criterion_main, Criterion};
use sizeless_core::drift::watched_metrics;
use sizeless_core::features::FeatureSet;
use sizeless_core::optimizer::{MemoryOptimizer, Tradeoff};
use sizeless_engine::RngStream;
use sizeless_platform::{
    MemorySize, Platform, PricingModel, ResourceProfile, ResourceUsage, ServiceCall, ServiceKind,
    Stage,
};
use sizeless_stats::{cliffs_delta, mann_whitney_u};
use sizeless_telemetry::{InvocationSample, MetricVector, ResourceMonitor};
use sizeless_workload::{run_experiment, ExperimentConfig};
use std::collections::BTreeMap;

fn profile() -> ResourceProfile {
    ResourceProfile::builder("bench-fn")
        .stage(Stage::cpu("work", 25.0).with_working_set(20.0))
        .stage(Stage::file_io("io", 256.0, 64.0))
        .build()
}

fn bench_experiment(c: &mut Criterion) {
    let platform = Platform::aws_like();
    let p = profile();
    let cfg = ExperimentConfig {
        duration_ms: 5_000.0,
        rps: 30.0,
        seed: 1,
    };
    c.bench_function("pipeline/run_experiment_5s_at_30rps", |b| {
        b.iter(|| run_experiment(&platform, &p, MemorySize::MB_512, &cfg))
    });
}

fn monitored_samples(n: usize) -> Vec<InvocationSample> {
    let platform = Platform::aws_like();
    let monitor = ResourceMonitor::new();
    let mut rng = RngStream::from_seed(2, "bench-mv");
    (0..n)
        .map(|i| {
            let out = platform.execute(&profile(), MemorySize::MB_256, &mut rng);
            monitor.observe(i as f64 * 33.0, &out.usage, &mut rng)
        })
        .collect()
}

fn sample_metric_vector() -> MetricVector {
    MetricVector::from_samples(monitored_samples(500).iter())
}

fn bench_metric_vector(c: &mut Criterion) {
    // One dataset experiment: 15 s at 30 rps.
    let samples = monitored_samples(450);
    c.bench_function("pipeline/metric_vector_from_samples_450", |b| {
        b.iter(|| MetricVector::from_samples(samples.iter()))
    });
}

fn bench_feature_extraction(c: &mut Criterion) {
    let mv = sample_metric_vector();
    let mut group = c.benchmark_group("pipeline/features");
    for set in FeatureSet::ALL {
        group.bench_function(format!("{set:?}"), |b| b.iter(|| set.extract(&mv)));
    }
    group.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    let times: BTreeMap<MemorySize, f64> = MemorySize::STANDARD
        .iter()
        .enumerate()
        .map(|(i, &m)| (m, 4000.0 / (1 << i) as f64 + 50.0))
        .collect();
    let opt = MemoryOptimizer::new(PricingModel::aws(), Tradeoff::COST_LEANING);
    c.bench_function("pipeline/optimizer/six_sizes", |b| {
        b.iter(|| opt.optimize_times(&times))
    });
}

fn bench_stat_tests(c: &mut Criterion) {
    let mut rng = RngStream::from_seed(3, "bench-stats");
    let a: Vec<f64> = (0..2_000).map(|_| rng.standard_normal()).collect();
    let b_s: Vec<f64> = (0..2_000).map(|_| rng.standard_normal() + 0.05).collect();
    c.bench_function("stats/mann_whitney_2000x2000", |bch| {
        bch.iter(|| mann_whitney_u(&a, &b_s).unwrap())
    });
    c.bench_function("stats/cliffs_delta_2000x2000", |bch| {
        bch.iter(|| cliffs_delta(&a, &b_s).unwrap())
    });
}

/// The closed sizing loop's three function shapes: a service caller, a CPU
/// stage, and file IO.
fn closed_loop_profiles() -> [ResourceProfile; 3] {
    [
        ResourceProfile::builder("db-caller")
            .stage(Stage::cpu("parse", 5.0))
            .stage(Stage::service("db", ServiceCall::new(ServiceKind::DynamoDb, 2, 10.0)))
            .build(),
        ResourceProfile::builder("cpu")
            .stage(Stage::cpu("work", 70.0))
            .build(),
        ResourceProfile::builder("file-io")
            .stage(Stage::cpu("parse", 5.0))
            .stage(Stage::file_io("io", 1152.0, 288.0))
            .build(),
    ]
}

/// One `observe` per call, cycling through the three shapes: the full
/// monitor against the one a fleet builds for an F4 artifact (execution
/// time plus F4's six base metrics).
fn bench_monitor(c: &mut Criterion) {
    let platform = Platform::aws_like();
    let mut rng = RngStream::from_seed(4, "bench-mon");
    let usages: Vec<ResourceUsage> = closed_loop_profiles()
        .iter()
        .map(|p| platform.execute(p, MemorySize::MB_256, &mut rng).usage)
        .collect();
    for (name, monitor) in [
        ("telemetry/observe_all_metrics", ResourceMonitor::new()),
        (
            "telemetry/observe_f4_collected",
            ResourceMonitor::collecting(&watched_metrics()),
        ),
    ] {
        let mut next = usages.iter().cycle();
        c.bench_function(name, |b| {
            b.iter(|| monitor.observe(0.0, next.next().expect("cycle"), &mut rng))
        });
    }
}

// The macro-generated harness entry points carry no doc comments.
#[allow(missing_docs)]
mod harness {
    use super::{
        bench_experiment, bench_feature_extraction, bench_metric_vector, bench_monitor,
        bench_optimizer, bench_stat_tests,
    };
    use criterion::criterion_group;
    criterion_group!(
        benches,
        bench_experiment,
        bench_metric_vector,
        bench_feature_extraction,
        bench_optimizer,
        bench_stat_tests,
        bench_monitor
    );
}
criterion_main!(harness::benches);
