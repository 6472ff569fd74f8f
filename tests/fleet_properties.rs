//! Property-based tests of the fleet simulator's safety invariants.
//!
//! Every run here executes with `FleetConfig::with_invariant_checks()`, so
//! the fleet re-asserts after *every* simulation event that
//!
//! * host memory capacity is never exceeded,
//! * per-function and account concurrency limits are never exceeded,
//! * `throttled + completed + in_flight == submitted` (conservation), and
//! * each host's running committed and idle memory totals equal a re-sum
//!   over its pools;
//!
//! a violation panics inside the run and fails the property. The final
//! report is then checked for end-state consistency, and some properties
//! check outcomes that follow from the policy alone (no keep-alive means
//! every start is cold), independent of any recorded output.

use proptest::prelude::*;
use sizeless::fleet::{
    FaultPlan, Fleet, FleetArrival, FleetConfig, FleetFunction, KeepAliveKind, RetryKind,
    SchedulerKind,
};
use sizeless::platform::{FunctionConfig, MemorySize, Platform, ResourceProfile, Stage};
use sizeless::workload::{ArrivalProcess, BurstyArrival};

/// Strategy: a small two-function workload with steady + bursty arrivals.
fn functions_strategy() -> impl Strategy<Value = Vec<FleetFunction>> {
    (
        (5.0f64..80.0, 2.0f64..30.0, 0usize..6), // steady fn: cpu ms, rps, memory idx
        (10.0f64..120.0, 1.0f64..8.0, 2.0f64..12.0, 0usize..6), // bursty fn
    )
        .prop_map(|((cpu_a, rps, mem_a), (cpu_b, base, mult, mem_b))| {
            vec![
                FleetFunction::new(
                    FunctionConfig::new(
                        ResourceProfile::builder("prop-steady")
                            .stage(Stage::cpu("work", cpu_a))
                            .init_cpu_ms(80.0)
                            .build(),
                        MemorySize::STANDARD[mem_a],
                    ),
                    FleetArrival::Steady(ArrivalProcess::poisson(rps)),
                ),
                FleetFunction::new(
                    FunctionConfig::new(
                        ResourceProfile::builder("prop-bursty")
                            .stage(Stage::cpu("work", cpu_b))
                            .package_size_mb(12.0)
                            .build(),
                        MemorySize::STANDARD[mem_b],
                    ),
                    FleetArrival::Bursty(BurstyArrival::new(
                        base,
                        base * mult,
                        4_000.0,
                        1_500.0,
                    )),
                ),
            ]
        })
}

/// Strategy: cluster shapes from a cramped single host to a small fleet.
fn config_strategy() -> impl Strategy<Value = FleetConfig> {
    (
        1usize..5,    // hosts
        0usize..3,    // host memory: 1, 2, or 4 GB
        0u64..500,    // seed
        0usize..3,    // function limit: none, 4, 8
        0usize..3,    // account limit: none, 6, 12
    )
        .prop_map(|(hosts, mem, seed, fn_cap, acct_cap)| {
            let mut cfg = FleetConfig::new(
                hosts,
                [1024.0, 2048.0, 4096.0][mem],
                6_000.0,
                seed,
            )
            .with_invariant_checks();
            if fn_cap > 0 {
                cfg = cfg.with_function_limit(4 * fn_cap);
            }
            if acct_cap > 0 {
                cfg = cfg.with_account_limit(6 * acct_cap);
            }
            cfg
        })
}

/// Strategy: one of the scheduler × keep-alive policy combinations.
fn policy_strategy() -> impl Strategy<Value = (SchedulerKind, KeepAliveKind)> {
    (0usize..4, 0usize..3)
        .prop_map(|(s, k)| (SchedulerKind::ALL[s], KeepAliveKind::ALL[k]))
}

/// Strategy: fault plans mixing transient failures, an optional scheduled
/// crash, an optional stochastic crash process, and recovery slowdowns.
fn fault_plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        (0.0f64..0.3, 0.0f64..0.3, 0.0f64..1.0), // transient: init p, exec p, duration frac
        (0usize..2, 0usize..5, 500.0f64..4_000.0, 200.0f64..2_000.0), // scheduled crash (gated)
        (0usize..2, 3_000.0f64..30_000.0, 300.0f64..1_500.0), // crash process (gated)
        (0usize..2, 500.0f64..4_000.0, 1.0f64..4.0), // recovery slowdown (gated)
        0u64..100,                                   // fault seed
    )
        .prop_map(|(transient, crash, process, recovery, seed)| {
            let (init_p, exec_p, frac) = transient;
            let mut plan = FaultPlan::none()
                .with_transient(init_p, exec_p, frac)
                .with_seed(seed);
            if let (1, host, at, down) = crash {
                plan = plan.with_crash(host, at, down);
            }
            if let (1, mtbf, down) = process {
                plan = plan.with_crash_process(mtbf, down);
            }
            if let (1, ms, slowdown) = recovery {
                plan = plan.with_recovery(ms, slowdown);
            }
            plan
        })
}

/// Strategy: one of the retry policies, including budget-capped backoff.
fn retry_strategy() -> impl Strategy<Value = RetryKind> {
    (
        0usize..3,     // policy: none, fixed, exponential
        2usize..5,     // max attempts
        50.0f64..1_000.0, // fixed delay / unused
        0.0f64..=1.0,  // backoff jitter fraction
        0usize..40,    // retry budget per fn; 0 ⇒ unbudgeted
    )
        .prop_map(|(kind, max_attempts, delay_ms, jitter_frac, budget)| match kind {
            0 => RetryKind::None,
            1 => RetryKind::Fixed {
                max_attempts,
                delay_ms,
            },
            _ => RetryKind::ExponentialBackoff {
                base_ms: 100.0,
                factor: 2.0,
                cap_ms: 2_000.0,
                max_attempts,
                jitter_frac,
                budget_per_fn: (budget > 0).then_some(budget),
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Capacity, concurrency, and conservation invariants hold after every
    /// event (checked inside the run), and the end state is consistent.
    #[test]
    fn fleet_invariants_hold_at_every_event_step(
        functions in functions_strategy(),
        config in config_strategy(),
        (scheduler, keepalive) in policy_strategy(),
    ) {
        let platform = Platform::aws_like();
        let report = Fleet::from_kinds(&platform, &config, &functions, scheduler, keepalive).run();

        // Conservation at the end, with nothing left in flight.
        prop_assert!(report.counters.is_conserved());
        prop_assert_eq!(report.counters.in_flight, 0);
        prop_assert_eq!(
            report.counters.submitted,
            report.counters.completed + report.counters.throttled()
        );

        // Cold starts only happen on invocations that actually started.
        prop_assert!(report.counters.cold_starts <= report.counters.completed);
        prop_assert!(report.provisioned_instances <= report.counters.completed);

        // Utilization and rates are proper fractions.
        prop_assert!((0.0..=1.0).contains(&report.metrics.utilization));
        prop_assert!(report.metrics.goodput_utilization <= report.metrics.utilization);
        prop_assert!((0.0..=1.0).contains(&report.metrics.cold_start_rate));
        prop_assert!((0.0..=1.0).contains(&report.metrics.throttle_rate));

        // Memory-time ledgers are non-negative and bounded by capacity.
        prop_assert!(report.counters.busy_mb_ms >= 0.0);
        prop_assert!(report.counters.wasted_mb_ms >= 0.0);
        prop_assert!(
            report.counters.busy_mb_ms + report.counters.wasted_mb_ms
                <= report.counters.capacity_mb_ms * (1.0 + 1e-9)
        );
    }

    /// A fleet with one huge host and no limits never throttles: it is the
    /// single-function harness generalized (every request completes).
    #[test]
    fn unconstrained_fleet_never_throttles(
        functions in functions_strategy(),
        seed in 0u64..500,
    ) {
        let platform = Platform::aws_like();
        let config = FleetConfig::new(1, 1e9, 6_000.0, seed).with_invariant_checks();
        let report = Fleet::from_kinds(
            &platform,
            &config,
            &functions,
            SchedulerKind::WarmFirst,
            KeepAliveKind::FixedTtl,
        )
        .run();
        prop_assert_eq!(report.counters.throttled(), 0);
        prop_assert_eq!(report.counters.submitted, report.counters.completed);
        // Memory never runs short, so nothing is ever evicted to make room.
        prop_assert_eq!(report.evictions, 0);
    }

    /// Without keep-alive every instance is reclaimed on release: each
    /// started request cold-starts its own instance and no memory ever
    /// sits idle — under any scheduler, cluster shape and limits.
    #[test]
    fn no_keepalive_makes_every_start_cold(
        functions in functions_strategy(),
        config in config_strategy(),
        scheduler_idx in 0usize..4,
    ) {
        let platform = Platform::aws_like();
        let report = Fleet::from_kinds(
            &platform,
            &config,
            &functions,
            SchedulerKind::ALL[scheduler_idx],
            KeepAliveKind::NoKeepAlive,
        )
        .run();
        prop_assert_eq!(report.counters.cold_starts, report.counters.completed);
        if report.counters.completed > 0 {
            prop_assert_eq!(report.metrics.cold_start_rate, 1.0);
        }
        prop_assert_eq!(report.counters.wasted_mb_ms, 0.0);
        prop_assert_eq!(report.provisioned_instances, report.counters.cold_starts);
    }

    /// Bit-identical reports from identical seeds, regardless of policy.
    #[test]
    fn fleet_runs_replay_exactly(
        functions in functions_strategy(),
        config in config_strategy(),
        (scheduler, keepalive) in policy_strategy(),
    ) {
        let platform = Platform::aws_like();
        let a = Fleet::from_kinds(&platform, &config, &functions, scheduler, keepalive).run();
        let b = Fleet::from_kinds(&platform, &config, &functions, scheduler, keepalive).run();
        prop_assert_eq!(a, b);
    }

    /// Conservation extends to faults: with crashes, transient failures,
    /// and retries in play, every submitted request still ends as exactly
    /// one of completed, failed, or throttled — with the per-event
    /// invariant checks (which also tie `in_flight` to the host, zombie,
    /// and retry ledgers) on for the whole run.
    #[test]
    fn faulted_fleet_conserves_requests(
        functions in functions_strategy(),
        config in config_strategy(),
        (scheduler, keepalive) in policy_strategy(),
        plan in fault_plan_strategy(),
        retry in retry_strategy(),
    ) {
        let platform = Platform::aws_like();
        let report = Fleet::from_kinds(&platform, &config, &functions, scheduler, keepalive)
            .with_faults(&plan, retry)
            .run();
        prop_assert!(report.counters.is_conserved());
        prop_assert_eq!(report.counters.in_flight, 0);
        prop_assert_eq!(
            report.counters.submitted,
            report.counters.completed + report.counters.failed + report.counters.throttled()
        );
        // Attempt accounting: terminal failures and scheduled retries
        // partition the failed attempts.
        prop_assert_eq!(
            report.counters.failed_attempts,
            report.counters.failed + report.counters.retries_scheduled
        );
        prop_assert!(report.counters.failed_after_retries <= report.counters.failed);
        prop_assert!((0.0..=1.0).contains(&report.metrics.availability));
        prop_assert!((0.0..=1.0).contains(&report.metrics.failure_rate));
        let faults = report.faults.expect("fault plans report a summary");
        prop_assert!(faults.failed_in_flight <= report.counters.failed_attempts);
    }

    /// Faulted runs replay bit-identically: same plan + same seeds ⇒ the
    /// same report, crash for crash and retry for retry.
    #[test]
    fn faulted_fleet_runs_replay_exactly(
        functions in functions_strategy(),
        config in config_strategy(),
        (scheduler, keepalive) in policy_strategy(),
        plan in fault_plan_strategy(),
        retry in retry_strategy(),
    ) {
        let platform = Platform::aws_like();
        let run = || {
            Fleet::from_kinds(&platform, &config, &functions, scheduler, keepalive)
                .with_faults(&plan, retry)
                .run()
        };
        prop_assert_eq!(run(), run());
    }
}
