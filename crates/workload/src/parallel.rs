//! Parallel fan-out of independent experiments.
//!
//! The paper's Go harness parallelizes the 12 000 performance measurements;
//! here [`sizeless_engine::parallel_map`] does the same for simulated
//! experiments. Every experiment derives its RNG stream from
//! `(seed, function, memory)`, so the results are bit-identical regardless
//! of thread count or scheduling.

use crate::harness::{run_experiment, ExperimentConfig, Measurement};
use sizeless_engine::parallel_map;
use sizeless_platform::{MemorySize, Platform, ResourceProfile};

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
    parallel_map(
        threads,
        jobs.len(),
        || (),
        |i, _| {
            let (profile, memory) = jobs[i];
            run_experiment(platform, profile, memory, cfg)
        },
    )
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
}
