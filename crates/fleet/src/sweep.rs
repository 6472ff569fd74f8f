//! Deterministic parallel sweeps: independent fleet simulations fanned
//! out across worker threads.
//!
//! Policy and knob sweeps run dozens of *independent* fleet simulations —
//! every cell of a scheduler × keep-alive × seed grid is its own
//! [`Fleet`](crate::Fleet) with its own RNG root derived from its own
//! config. That makes the fan-out embarrassingly parallel under the same
//! discipline the training stack already uses
//! ([`sizeless_neural::parallel`]): each job derives all
//! randomness from its own `(seed, name)` streams and writes only its own
//! indexed result slot, so the collected output is **byte-identical at
//! any thread count** — threads change wall-clock time, never results.
//!
//! [`sweep`] is the fan-out: a job closure builds and runs one cell, for
//! instance with [`Fleet::from_kinds`](crate::Fleet::from_kinds).
//! Reductions over the results (seed averaging, table building) stay with
//! the caller and run serially over the index-ordered output, which keeps
//! every floating-point fold in the exact order of the serial loop it
//! replaces.

use sizeless_neural::parallel::parallel_map;

/// Runs `job(0..n)` across `threads` workers and returns the results in
/// index order, bit-identically to running the jobs in a serial loop.
///
/// `threads == 1` runs inline on the caller's stack — the exact serial
/// path the parallel output is byte-compared against in the determinism
/// suite. Jobs must be self-contained: derive randomness from per-job
/// seeds, never from shared mutable state.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn sweep<T, F>(threads: usize, n: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map(threads, n, |i, _scratch| job(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{Fleet, FleetArrival, FleetConfig, FleetFunction};
    use crate::keepalive::KeepAliveKind;
    use crate::scheduler::SchedulerKind;
    use crate::stats::FleetReport;
    use sizeless_platform::{FunctionConfig, MemorySize, Platform, ResourceProfile, Stage};
    use sizeless_workload::ArrivalProcess;

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
        sweep(threads, cells.len(), |i| {
            let (seed, sched) = cells[i];
            Fleet::from_kinds(
                platform,
                &FleetConfig::new(2, 1024.0, 20_000.0, seed),
                &functions,
                sched,
                KeepAliveKind::FixedTtl,
            )
            .run()
        })
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

    #[test]
    fn generic_sweep_returns_index_order() {
        let out = sweep(3, 10, |i| i * 7);
        assert_eq!(out, (0..10).map(|i| i * 7).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let _ = sweep(0, 3, |i| i);
    }
}
