//! Soak: a long eviction-churn run stays linear in run length.
//!
//! Two hundred bursty functions of 256, 512 and 1024 MB on 32 tight hosts,
//! under warm-first placement and the adaptive keep-alive: every burst
//! cold-starts, evicts and expires instances on every host. The run goes
//! past a million engine events. Placement that costs O(hosts) per
//! dispatch finishes it in seconds; placement that re-scans every instance
//! ever provisioned slows down as the run goes on and takes minutes.
//!
//! Ignored by default because it wants an optimized build:
//!
//! ```sh
//! cargo test --release -p sizeless_fleet --test soak -- --ignored
//! ```

use sizeless_fleet::{
    Fleet, FleetArrival, FleetConfig, FleetFunction, KeepAliveKind, SchedulerKind,
};
use sizeless_platform::{FunctionConfig, MemorySize, Platform, ResourceProfile, Stage};
use sizeless_workload::BurstyArrival;
use std::time::{Duration, Instant};

const FUNCTIONS: usize = 200;
const TOTAL_RPS: f64 = 1200.0;
const HOSTS: usize = 32;
const HOST_MB: f64 = 10_240.0;
/// About 2.4k engine events per virtual second at this rate.
const DURATION_MS: f64 = 450_000.0;
const MIN_EVENTS: u64 = 1_000_000;
const WALL_BUDGET: Duration = Duration::from_secs(60);

fn churn_functions() -> Vec<FleetFunction> {
    let sizes = [MemorySize::MB_256, MemorySize::MB_512, MemorySize::MB_1024];
    let mean_rps = TOTAL_RPS / FUNCTIONS as f64;
    (0..FUNCTIONS)
        .map(|i| {
            // 5–30 ms of CPU, spread by a fixed permutation of the index.
            let cpu_ms = 5.0 + 25.0 * ((i * 37) % 100) as f64 / 100.0;
            let profile = ResourceProfile::builder(format!("soak-{i}"))
                .stage(Stage::cpu("work", cpu_ms))
                .build();
            // Quiet 4 s phases at half the mean rate, 0.5 s bursts at five
            // times it.
            let arrival = BurstyArrival::new(0.5 * mean_rps, 5.0 * mean_rps, 4_000.0, 500.0);
            FleetFunction::new(
                FunctionConfig::new(profile, sizes[i % sizes.len()]),
                FleetArrival::Bursty(arrival),
            )
        })
        .collect()
}

#[test]
#[ignore = "a million-event soak; run in release mode with --ignored"]
fn eviction_churn_soak_stays_within_its_wall_budget() {
    let platform = Platform::aws_like();
    let config = FleetConfig::new(HOSTS, HOST_MB, DURATION_MS, 7);
    let functions = churn_functions();
    let start = Instant::now();
    let report = Fleet::from_kinds(
        &platform,
        &config,
        &functions,
        SchedulerKind::WarmFirst,
        KeepAliveKind::Adaptive,
    )
    .run();
    let wall = start.elapsed();

    assert!(
        report.counters.is_conserved(),
        "requests not conserved: {:?}",
        report.counters
    );
    assert_eq!(report.counters.in_flight, 0, "the run did not drain");
    assert!(
        report.sim.events_executed >= MIN_EVENTS,
        "only {} engine events",
        report.sim.events_executed
    );
    assert!(
        report.evictions > 0 && report.expirations > 0,
        "the workload must churn: {} evictions, {} expirations",
        report.evictions,
        report.expirations
    );
    assert!(
        wall < WALL_BUDGET,
        "{} engine events took {wall:?}, over the {WALL_BUDGET:?} budget",
        report.sim.events_executed
    );
}
