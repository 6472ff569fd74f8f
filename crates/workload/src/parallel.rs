//! Parallel fan-out of independent experiments.
//!
//! The paper's Go harness parallelizes the 12 000 performance measurements;
//! here scoped std threads do the same for simulated experiments. Every
//! experiment derives its RNG stream from `(seed, function, memory)`, so the
//! results are bit-identical regardless of thread count or scheduling.

use crate::harness::{run_experiment, ExperimentConfig, Measurement};
use parking_lot::Mutex;
use sizeless_platform::{MemorySize, Platform, ResourceProfile};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs one experiment per (profile, size) pair across `threads` workers and
/// returns the measurements in input order.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn measure_parallel(
    platform: &Platform,
    jobs: &[(&ResourceProfile, MemorySize)],
    cfg: &ExperimentConfig,
    threads: usize,
) -> Vec<Measurement> {
    map_parallel(threads, jobs.len(), |i| {
        let (profile, memory) = jobs[i];
        run_experiment(platform, profile, memory, cfg)
    })
}

/// Runs `job(i)` for every `i` in `0..n` across `threads` workers and
/// returns the results in index order.
///
/// Workers claim indices from a shared counter and each result goes to its
/// own slot, so the output does not depend on the thread count as long as
/// `job(i)` depends on `i` alone.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn map_parallel<T: Send>(threads: usize, n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    assert!(threads > 0, "at least one worker thread required");
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads.min(n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = job(i);
                *results[i].lock() = Some(out);
            });
        }
    });

    results
        .into_iter()
        // lint: allow(panic002) reason="the scope joins all workers first and every index is claimed exactly once"
        .map(|slot| slot.into_inner().expect("every job completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizeless_platform::Stage;

    fn profiles(n: usize) -> Vec<ResourceProfile> {
        (0..n)
            .map(|i| {
                ResourceProfile::builder(format!("par-fn-{i}"))
                    .stage(Stage::cpu("w", 10.0 + i as f64))
                    .build()
            })
            .collect()
    }

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            duration_ms: 2_000.0,
            rps: 10.0,
            seed: 5,
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let ps = profiles(6);
        let jobs: Vec<(&ResourceProfile, MemorySize)> =
            ps.iter().map(|p| (p, MemorySize::MB_256)).collect();
        let platform = Platform::aws_like();
        let par = measure_parallel(&platform, &jobs, &tiny(), 4);
        let seq = measure_parallel(&platform, &jobs, &tiny(), 1);
        assert_eq!(par.len(), 6);
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.summary, b.summary);
        }
    }

    #[test]
    fn results_are_in_input_order() {
        let ps = profiles(5);
        let jobs: Vec<(&ResourceProfile, MemorySize)> =
            ps.iter().map(|p| (p, MemorySize::MB_512)).collect();
        let out = measure_parallel(&Platform::aws_like(), &jobs, &tiny(), 3);
        for (i, m) in out.iter().enumerate() {
            assert_eq!(m.summary.function, format!("par-fn-{i}"));
        }
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let ps = profiles(2);
        let jobs: Vec<(&ResourceProfile, MemorySize)> =
            ps.iter().map(|p| (p, MemorySize::MB_128)).collect();
        let out = measure_parallel(&Platform::aws_like(), &jobs, &tiny(), 16);
        assert_eq!(out.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let ps = profiles(1);
        let jobs: Vec<(&ResourceProfile, MemorySize)> =
            ps.iter().map(|p| (p, MemorySize::MB_128)).collect();
        let _ = measure_parallel(&Platform::aws_like(), &jobs, &tiny(), 0);
    }
}
