//! The measurement campaign: every function at all six standard memory
//! sizes — the training dataset (Section 3.3, one experiment per size),
//! the case studies (Section 4, ten repetitions per size) and AWS Lambda
//! Power Tuning all run it. One [`parallel_map`] job per (function, size)
//! runs every repetition, pools their samples into one [`MetricVector`] and
//! averages their means, so only the samples of the jobs in flight are held.

use crate::harness::{measure, ExperimentConfig};
use serde::{Deserialize, Serialize};
use sizeless_engine::parallel_map;
use sizeless_platform::{MemorySize, Platform, ResourceProfile};
use sizeless_telemetry::MetricVector;
use std::collections::BTreeMap;

/// One function's measurements across all six standard memory sizes.
///
/// # Panics
///
/// The `*_at` accessors and [`FunctionRecord::ratio`] panic if a size is
/// not one of the six standard sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionRecord {
    /// Function name.
    pub name: String,
    /// Metric vector per standard size (index = standard-size index),
    /// pooled over all repetitions.
    pub metrics: Vec<MetricVector>,
    /// Mean execution time per standard size (repetitions averaged), ms.
    pub mean_execution_ms: Vec<f64>,
    /// Mean cost per invocation per standard size (repetitions averaged), USD.
    pub mean_cost_usd: Vec<f64>,
}

/// The index of `m` in a record's per-size vectors.
fn index_of(m: MemorySize) -> usize {
    // lint: allow(panic002) reason="documented # Panics contract of FunctionRecord's accessors: m must be one of the six standard sizes"
    m.standard_index().expect("standard size")
}

impl FunctionRecord {
    /// The metric vector at a standard size.
    pub fn metrics_at(&self, m: MemorySize) -> &MetricVector {
        &self.metrics[index_of(m)]
    }

    /// Mean execution time at a standard size, ms.
    pub fn execution_ms_at(&self, m: MemorySize) -> f64 {
        self.mean_execution_ms[index_of(m)]
    }

    /// Mean cost per invocation at a standard size, USD.
    pub fn cost_usd_at(&self, m: MemorySize) -> f64 {
        self.mean_cost_usd[index_of(m)]
    }

    /// The execution-time ratio `time(target) / time(base)` — the model's
    /// prediction target.
    pub fn ratio(&self, base: MemorySize, target: MemorySize) -> f64 {
        self.execution_ms_at(target) / self.execution_ms_at(base)
    }

    /// The measured ("ground truth") times as a size→ms map.
    pub fn times_map(&self) -> BTreeMap<MemorySize, f64> {
        MemorySize::STANDARD
            .iter()
            .map(|&m| (m, self.execution_ms_at(m)))
            .collect()
    }
}

/// Measures every profile at every standard size on `threads` workers,
/// once per config in `runs` (one repetition each; seed them apart), and
/// returns one record per profile in input order, named after
/// [`ResourceProfile::name`]. Records are bit-identical at any thread count.
///
/// # Panics
///
/// Panics if `runs` is empty, if `threads` is zero or if a run produces no
/// invocations.
pub fn measure_standard_sizes(
    platform: &Platform,
    profiles: &[&ResourceProfile],
    runs: &[ExperimentConfig],
    threads: usize,
) -> Vec<FunctionRecord> {
    assert!(!runs.is_empty(), "a campaign needs at least one run");
    let sizes = MemorySize::STANDARD.len();
    let n = runs.len() as f64;
    let measured = parallel_map(
        threads,
        profiles.len() * sizes,
        || (),
        |job, _| {
            let (profile, memory) = (profiles[job / sizes], MemorySize::STANDARD[job % sizes]);
            let reps: Vec<_> = runs
                .iter()
                .map(|cfg| measure(platform, profile, memory, cfg))
                .collect();
            (
                MetricVector::from_samples(reps.iter().flat_map(|(store, _)| store.samples())),
                reps.iter().map(|(_, s)| s.mean_execution_ms).sum::<f64>() / n,
                reps.iter().map(|(_, s)| s.mean_cost_usd).sum::<f64>() / n,
            )
        },
    );
    profiles
        .iter()
        .zip(measured.chunks(sizes))
        .map(|(profile, by_size)| FunctionRecord {
            name: profile.name().to_string(),
            metrics: by_size.iter().map(|s| s.0.clone()).collect(),
            mean_execution_ms: by_size.iter().map(|s| s.1).collect(),
            mean_cost_usd: by_size.iter().map(|s| s.2).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_experiment;
    use sizeless_platform::Stage;

    fn profile(ms: f64) -> ResourceProfile {
        ResourceProfile::builder(format!("campaign-{ms}"))
            .stage(Stage::cpu("w", ms))
            .build()
    }

    fn run(seed: u64) -> ExperimentConfig {
        ExperimentConfig::quick().with_seed(seed)
    }

    #[test]
    fn one_run_equals_its_experiment() {
        let (platform, p) = (Platform::aws_like(), profile(20.0));
        let record = measure_standard_sizes(&platform, &[&p], &[run(3)], 1).remove(0);
        assert_eq!(record.name, p.name());
        for m in MemorySize::STANDARD {
            let e = run_experiment(&platform, &p, m, &run(3));
            assert_eq!(record.metrics_at(m), &e.metrics);
            let got = [record.execution_ms_at(m), record.cost_usd_at(m)];
            let want = [e.summary.mean_execution_ms, e.summary.mean_cost_usd];
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
            let t256 = record.execution_ms_at(MemorySize::MB_256);
            assert_eq!(record.ratio(MemorySize::MB_256, m), got[0] / t256);
        }
    }

    #[test]
    fn runs_pool_their_samples_and_average_their_means() {
        let (platform, p) = (Platform::aws_like(), profile(20.0));
        let record = measure_standard_sizes(&platform, &[&p], &[run(1), run(2)], 1).remove(0);
        for m in MemorySize::STANDARD {
            let [a, b] = [1, 2].map(|seed| run_experiment(&platform, &p, m, &run(seed)).summary);
            let pooled = record.metrics_at(m).sample_count();
            assert_eq!(pooled, a.invocations + b.invocations);
            let time = (a.mean_execution_ms + b.mean_execution_ms) / 2.0;
            assert_eq!(record.execution_ms_at(m), time);
            let cost = (a.mean_cost_usd + b.mean_cost_usd) / 2.0;
            assert_eq!(record.cost_usd_at(m), cost);
        }
    }

    #[test]
    fn records_are_identical_at_any_thread_count() {
        let ps = [profile(10.0), profile(80.0), profile(300.0)];
        let refs: Vec<&ResourceProfile> = ps.iter().collect();
        let (platform, runs) = (Platform::aws_like(), [run(1), run(2)]);
        let at = |threads| measure_standard_sizes(&platform, &refs, &runs, threads);
        assert_eq!(at(1), at(4));
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_runs_panic() {
        measure_standard_sizes(&Platform::aws_like(), &[&profile(10.0)], &[], 1);
    }
}
