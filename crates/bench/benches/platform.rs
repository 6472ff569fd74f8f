//! Criterion benchmarks of the platform simulator: per-invocation execution
//! cost for each workload archetype (planned per call, and from a plan
//! built once), pricing, and a cold invocation from a plan.
//! These bound the wall-clock cost of dataset generation (216 M executions
//! at paper scale).

use criterion::{criterion_main, BatchSize, Criterion};
use sizeless_engine::RngStream;
use sizeless_funcgen::MotivatingFunction;
use sizeless_platform::{MemorySize, Platform, ResourceProfile, Stage};

fn bench_execute(c: &mut Criterion) {
    let platform = Platform::aws_like();
    let mut group = c.benchmark_group("platform/execute");
    for f in MotivatingFunction::ALL {
        let profile = f.profile();
        group.bench_function(f.name(), |b| {
            let mut rng = RngStream::from_seed(1, "bench-exec");
            b.iter(|| platform.execute(&profile, MemorySize::MB_512, &mut rng))
        });
    }
    // A many-stage profile: the worst case for the stage loop.
    let big = ResourceProfile::builder("many-stages")
        .stages((0..20).map(|i| Stage::cpu(format!("s{i}"), 5.0)))
        .build();
    group.bench_function("twenty_stage_profile", |b| {
        let mut rng = RngStream::from_seed(2, "bench-exec-big");
        b.iter(|| platform.execute(&big, MemorySize::MB_1024, &mut rng))
    });
    group.finish();

    // The same invocations from a plan built once, as the fleet and the
    // measurement harness run them: only the draws and the billing remain.
    let mut group = c.benchmark_group("platform/invoke_planned");
    for f in MotivatingFunction::ALL {
        let plan = platform.plan(&f.profile(), MemorySize::MB_512);
        group.bench_function(f.name(), |b| {
            let mut rng = RngStream::from_seed(1, "bench-exec");
            b.iter(|| platform.invoke_planned(&plan, false, &mut rng))
        });
    }
    let plan = platform.plan(&big, MemorySize::MB_1024);
    group.bench_function("twenty_stage_profile", |b| {
        let mut rng = RngStream::from_seed(2, "bench-exec-big");
        b.iter(|| platform.invoke_planned(&plan, false, &mut rng))
    });
    group.finish();
}

fn bench_pricing(c: &mut Criterion) {
    let pricing = sizeless_platform::PricingModel::aws();
    c.bench_function("platform/pricing/cost_usd", |b| {
        b.iter(|| pricing.cost_usd(std::hint::black_box(1234.5), MemorySize::MB_1024))
    });
}

fn bench_cold_start(c: &mut Criterion) {
    let platform = Platform::aws_like();
    let plan = platform.plan(
        &MotivatingFunction::InvertMatrix.profile(),
        MemorySize::MB_512,
    );
    c.bench_function("platform/cold_start/invoke_planned", |b| {
        let mut rng = RngStream::from_seed(3, "bench-cold");
        b.iter(|| platform.invoke_planned(&plan, true, &mut rng))
    });
}

fn bench_warm_pool(c: &mut Criterion) {
    use sizeless_platform::platform::WarmPool;
    c.bench_function("platform/warm_pool/begin_complete", |b| {
        b.iter_batched(
            || WarmPool::new(600_000.0),
            |mut pool| {
                for i in 0..100 {
                    let (id, _) = pool.begin(i as f64 * 10.0);
                    pool.complete(id, i as f64 * 10.0 + 5.0);
                }
                pool
            },
            BatchSize::SmallInput,
        )
    });
}

// The macro-generated harness entry points carry no doc comments.
#[allow(missing_docs)]
mod harness {
    use super::{bench_cold_start, bench_execute, bench_pricing, bench_warm_pool};
    use criterion::criterion_group;
    criterion_group!(benches, bench_execute, bench_pricing, bench_cold_start, bench_warm_pool);
}
criterion_main!(harness::benches);
