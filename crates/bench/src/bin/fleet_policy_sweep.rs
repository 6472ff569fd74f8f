//! **Extension experiment** — the cluster-level policy sweep.
//!
//! The paper's limitations section names the scenario the per-function
//! tables cannot show: "the workload becomes substantially burstier, which
//! causes more cold starts". This binary crosses scheduler × keep-alive ×
//! burstiness on a fixed fleet and reports the cluster metrics the paper's
//! discussion predicts qualitatively:
//!
//! * no-keepalive pays the most cold starts;
//! * a fixed 10-minute TTL wastes the most memory-time;
//! * the adaptive (histogram) policy dominates both on provider resource
//!   footprint per completion;
//! * warm-first placement beats random placement on cold-start rate at
//!   equal utilization.
//!
//! The run aborts (non-zero exit) if any of these orderings fails on the
//! seed-averaged bursty workload, so CI smoke-runs guard the qualitative
//! result, not just the binary's liveness.

use serde::Serialize;
use sizeless_bench::{bursty_with_mean, pct, print_table, ExperimentContext, MB_MS_TO_GB_S};
use sizeless_engine::parallel_map;
use sizeless_fleet::{
    Fleet, FleetArrival, FleetConfig, FleetFunction, KeepAliveKind, SchedulerKind,
};
use sizeless_platform::{FunctionConfig, MemorySize, Platform, ResourceProfile, Stage};
use sizeless_workload::ArrivalProcess;

/// The sweep's multi-tenant workload: four functions with distinct
/// profiles, sizes, and rates (the sparse "cron" is where keep-alive
/// earns its keep).
fn functions(bursty: bool) -> Vec<FleetFunction> {
    let mk = |profile: ResourceProfile, memory: MemorySize, rps: f64| {
        let arrival = if bursty {
            FleetArrival::Bursty(bursty_with_mean(rps))
        } else {
            FleetArrival::Steady(ArrivalProcess::poisson(rps))
        };
        FleetFunction::new(FunctionConfig::new(profile, memory), arrival)
    };
    vec![
        mk(
            ResourceProfile::builder("api")
                .stage(Stage::cpu("handle", 20.0))
                .init_cpu_ms(150.0)
                .package_size_mb(20.0)
                .build(),
            MemorySize::MB_1024,
            12.0,
        ),
        mk(
            ResourceProfile::builder("thumbnail")
                .stage(Stage::cpu("resize", 50.0).with_working_set(40.0))
                .stage(Stage::file_io("write", 512.0, 128.0))
                .init_cpu_ms(200.0)
                .package_size_mb(35.0)
                .build(),
            MemorySize::MB_1024,
            5.0,
        ),
        mk(
            ResourceProfile::builder("etl")
                .stage(Stage::cpu("transform", 100.0))
                .init_cpu_ms(120.0)
                .package_size_mb(15.0)
                .build(),
            MemorySize::MB_512,
            2.0,
        ),
        mk(
            ResourceProfile::builder("cron")
                .stage(Stage::cpu("tick", 30.0))
                .init_cpu_ms(100.0)
                .package_size_mb(10.0)
                .build(),
            MemorySize::MB_512,
            0.5,
        ),
    ]
}

#[derive(Serialize, Clone)]
struct SweepRow {
    workload: String,
    scheduler: String,
    keepalive: String,
    seeds: usize,
    cold_start_rate: f64,
    throttle_rate: f64,
    utilization: f64,
    goodput_utilization: f64,
    wasted_gb_s: f64,
    resource_gb_s_per_completion: f64,
    mean_latency_ms: f64,
    completed: f64,
    throttled: f64,
}

fn main() {
    let ctx = ExperimentContext::from_args();
    let platform = Platform::aws_like();
    // Floor of one minute: the bursty process has a mean burst cycle of
    // 10 s, and the keep-alive comparison is only meaningful once every
    // seed has seen several cycles.
    let duration_ms = (600_000.0 / ctx.scale).max(60_000.0);
    let seeds: Vec<u64> = (0..3).map(|i| ctx.seed.wrapping_add(i)).collect();

    // Every cell × seed is an independent, self-seeded simulation: fan the
    // whole grid out across the worker pool, then reduce the index-ordered
    // reports serially — the seed-average folds run in the exact order of
    // the old nested loops, so the output is byte-identical at any
    // `--threads` value.
    let mut cells: Vec<(bool, &str, SchedulerKind, KeepAliveKind)> = Vec::new();
    for (bursty, workload) in [(false, "poisson"), (true, "bursty")] {
        for sched in SchedulerKind::ALL {
            for ka in KeepAliveKind::ALL {
                cells.push((bursty, workload, sched, ka));
            }
        }
    }
    let reports = parallel_map(
        ctx.thread_count(),
        cells.len() * seeds.len(),
        || (),
        |i, _| {
            let (bursty, _, sched, ka) = cells[i / seeds.len()];
            let config = FleetConfig::new(8, 2048.0, duration_ms, seeds[i % seeds.len()])
                .with_function_limit(12)
                .with_account_limit(32);
            Fleet::from_kinds(&platform, &config, &functions(bursty), sched, ka).run()
        },
    );

    let mut rows: Vec<SweepRow> = Vec::new();
    for (c, &(_, workload, sched, ka)) in cells.iter().enumerate() {
        let mut acc = SweepRow {
            workload: workload.to_string(),
            scheduler: sched.to_string(),
            keepalive: ka.to_string(),
            seeds: seeds.len(),
            cold_start_rate: 0.0,
            throttle_rate: 0.0,
            utilization: 0.0,
            goodput_utilization: 0.0,
            wasted_gb_s: 0.0,
            resource_gb_s_per_completion: 0.0,
            mean_latency_ms: 0.0,
            completed: 0.0,
            throttled: 0.0,
        };
        for s in 0..seeds.len() {
            let report = &reports[c * seeds.len() + s];
            let n = seeds.len() as f64;
            acc.cold_start_rate += report.metrics.cold_start_rate / n;
            acc.throttle_rate += report.metrics.throttle_rate / n;
            acc.utilization += report.metrics.utilization / n;
            acc.goodput_utilization += report.metrics.goodput_utilization / n;
            acc.wasted_gb_s += report.metrics.wasted_mb_ms * MB_MS_TO_GB_S / n;
            acc.resource_gb_s_per_completion +=
                report.metrics.resource_mb_ms_per_completion * MB_MS_TO_GB_S / n;
            acc.mean_latency_ms += report.metrics.mean_latency_ms / n;
            acc.completed += report.counters.completed as f64 / n;
            acc.throttled += report.counters.throttled() as f64 / n;
        }
        rows.push(acc);
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.scheduler.clone(),
                r.keepalive.clone(),
                pct(r.cold_start_rate),
                pct(r.throttle_rate),
                pct(r.utilization),
                format!("{:.2}", r.wasted_gb_s),
                format!("{:.4}", r.resource_gb_s_per_completion),
                format!("{:.0}", r.mean_latency_ms),
                format!("{:.0}", r.completed),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fleet policy sweep: 8 hosts x 2 GB, {:.0} s, {} seeds",
            duration_ms / 1000.0,
            seeds.len()
        ),
        &[
            "Workload",
            "Scheduler",
            "Keep-alive",
            "Cold rate",
            "Throttled",
            "Util",
            "Wasted [GB·s]",
            "GB·s/req",
            "Latency [ms]",
            "Completed",
        ],
        &table,
    );

    // Seed-averaged qualitative checks on the bursty workload. Keep-alive
    // policies are compared under warm-first scheduling — the
    // locality-preserving router every FaaS platform approximates; a
    // locality-blind scheduler starves per-host reuse and would confound
    // the keep-alive comparison with placement noise.
    let ka_row = |ka: &'static str| move |r: &SweepRow| {
        r.scheduler == "warm-first" && r.keepalive == ka
    };
    let cold_none = bursty_avg(&rows, ka_row("no-keepalive"), |r| r.cold_start_rate);
    let cold_fixed = bursty_avg(&rows, ka_row("fixed-ttl"), |r| r.cold_start_rate);
    let cold_adaptive = bursty_avg(&rows, ka_row("adaptive"), |r| r.cold_start_rate);
    let wasted_none = bursty_avg(&rows, ka_row("no-keepalive"), |r| r.wasted_gb_s);
    let wasted_fixed = bursty_avg(&rows, ka_row("fixed-ttl"), |r| r.wasted_gb_s);
    let wasted_adaptive = bursty_avg(&rows, ka_row("adaptive"), |r| r.wasted_gb_s);
    let fp_none = bursty_avg(&rows, ka_row("no-keepalive"), |r| r.resource_gb_s_per_completion);
    let fp_fixed = bursty_avg(&rows, ka_row("fixed-ttl"), |r| r.resource_gb_s_per_completion);
    let fp_adaptive = bursty_avg(&rows, ka_row("adaptive"), |r| r.resource_gb_s_per_completion);

    println!("\nQualitative checks (bursty workload, seed-averaged, warm-first scheduling):");
    println!(
        "  cold-start rate: no-keepalive {} > adaptive {} > (or ≈) fixed {}",
        pct(cold_none),
        pct(cold_adaptive),
        pct(cold_fixed)
    );
    println!(
        "  wasted memory-time [GB·s]: fixed {wasted_fixed:.2} > adaptive {wasted_adaptive:.2} > no-keepalive {wasted_none:.2}"
    );
    println!(
        "  resource footprint [GB·s/req]: adaptive {fp_adaptive:.4} < min(no-keepalive {fp_none:.4}, fixed {fp_fixed:.4})"
    );
    assert!(
        cold_none > cold_fixed && cold_none > cold_adaptive,
        "no-keepalive must show the highest cold-start rate"
    );
    assert!(
        wasted_fixed > wasted_none && wasted_fixed > wasted_adaptive,
        "fixed TTL must waste the most memory-time"
    );
    assert!(
        fp_adaptive < fp_none && fp_adaptive < fp_fixed,
        "adaptive must dominate both on resource footprint per completion"
    );

    // Warm-first vs random: compare where warm reuse is possible (the
    // no-keepalive rows are 100 % cold under every scheduler by design).
    let cold_warm = bursty_avg(
        &rows,
        |r| r.scheduler == "warm-first" && r.keepalive != "no-keepalive",
        |r| r.cold_start_rate,
    );
    let cold_random = bursty_avg(
        &rows,
        |r| r.scheduler == "random" && r.keepalive != "no-keepalive",
        |r| r.cold_start_rate,
    );
    let util_warm = bursty_avg(
        &rows,
        |r| r.scheduler == "warm-first" && r.keepalive != "no-keepalive",
        |r| r.goodput_utilization,
    );
    let util_random = bursty_avg(
        &rows,
        |r| r.scheduler == "random" && r.keepalive != "no-keepalive",
        |r| r.goodput_utilization,
    );
    println!(
        "  scheduling: warm-first cold rate {} < random {} at equal goodput utilization ({} vs {})",
        pct(cold_warm),
        pct(cold_random),
        pct(util_warm),
        pct(util_random)
    );
    assert!(
        cold_warm < cold_random,
        "warm-first must beat random on cold-start rate"
    );
    assert!(
        (util_warm - util_random).abs() / util_random.max(1e-12) < 0.15,
        "schedulers must be compared at (near-)equal goodput utilization: \
         warm-first {util_warm:.4} vs random {util_random:.4}"
    );

    ctx.write_json("fleet_policy_sweep.json", &rows);
}

/// Mean of `metric` over the bursty-workload rows matching `select`.
fn bursty_avg(
    rows: &[SweepRow],
    select: impl Fn(&SweepRow) -> bool,
    metric: impl Fn(&SweepRow) -> f64,
) -> f64 {
    let sel: Vec<f64> = rows
        .iter()
        .filter(|r| r.workload == "bursty" && select(r))
        .map(metric)
        .collect();
    assert!(!sel.is_empty(), "no rows matched the qualitative check");
    sel.iter().sum::<f64>() / sel.len() as f64
}
