//! Criterion benchmarks of the fleet's scheduling hot path and of a short
//! end-to-end fleet run. `select_host` runs once per admitted request, so
//! its cost bounds the event throughput of cluster-scale experiments.

use criterion::{criterion_main, BatchSize, Criterion};
use sizeless_engine::RngStream;
use sizeless_fleet::{
    Fleet, FleetArrival, FleetConfig, FleetFunction, Host, KeepAliveKind, SchedulerKind,
};
use sizeless_platform::{FunctionConfig, MemorySize, Platform, ResourceProfile, Stage};
use sizeless_workload::ArrivalProcess;

const TTL: f64 = 600_000.0;

/// A 64-host fleet, each host warmed with instances of a few functions so
/// feasibility checks exercise the pools rather than empty vectors.
fn warmed_hosts() -> Vec<Host> {
    let mut hosts: Vec<Host> = (0..64).map(|i| Host::new(i, 4096.0)).collect();
    for (i, host) in hosts.iter_mut().enumerate() {
        for fn_id in 0..4 {
            if (i + fn_id) % 3 == 0 {
                let (id, _, _) = host
                    .try_begin(fn_id, 512.0, TTL, 0.0)
                    .expect("warming fits");
                host.complete(fn_id, id, 5.0, TTL, 5.0);
            }
        }
    }
    hosts
}

fn bench_select_host(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet/select_host");
    for kind in SchedulerKind::ALL {
        group.bench_function(kind.to_string(), |b| {
            let mut rng = RngStream::from_seed(1, "bench-sched");
            b.iter_batched(
                || (kind.build(), warmed_hosts()),
                |(mut sched, mut hosts)| {
                    for fn_id in 0..4 {
                        let _ = sched.select_host(fn_id, 512.0, &mut hosts, 10.0, &mut rng);
                    }
                    hosts
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_fleet_run(c: &mut Criterion) {
    let platform = Platform::aws_like();
    let functions = vec![FleetFunction::new(
        FunctionConfig::new(
            ResourceProfile::builder("bench-fn")
                .stage(Stage::cpu("work", 20.0))
                .build(),
            MemorySize::MB_512,
        ),
        FleetArrival::Steady(ArrivalProcess::poisson(50.0)),
    )];
    c.bench_function("fleet/run/4x2GB_5s_50rps", |b| {
        b.iter(|| {
            Fleet::from_kinds(
                &platform,
                &FleetConfig::new(4, 2048.0, 5_000.0, 1),
                &functions,
                SchedulerKind::WarmFirst,
                KeepAliveKind::Adaptive,
            )
            .run()
        })
    });
}

// The macro-generated harness entry points carry no doc comments.
#[allow(missing_docs)]
mod harness {
    use super::{bench_fleet_run, bench_select_host};
    use criterion::criterion_group;
    criterion_group!(benches, bench_select_host, bench_fleet_run);
}
criterion_main!(harness::benches);
