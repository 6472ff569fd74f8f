//! Training-dataset generation — the paper's Section 3.3.
//!
//! The paper measures 2 000 synthetic functions at six memory sizes, ten
//! minutes each at 30 rps (12 000 experiments, 216 million executions). The
//! simulated equivalent runs the same workloads through the measurement
//! harness and keeps, per function and memory size, the aggregated
//! [`MetricVector`] plus the mean execution time — exactly the inputs the
//! regression model consumes.

use crate::error::CoreError;
use serde::{Deserialize, Serialize};
use sizeless_engine::RngStream;
use sizeless_funcgen::{FunctionGenerator, GeneratorConfig};
use sizeless_platform::{MemorySize, Platform};
use sizeless_workload::{map_parallel, run_experiment, ExperimentConfig};
use sizeless_telemetry::MetricVector;
use std::path::Path;

/// Configuration of dataset generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Number of synthetic functions (paper: 2 000).
    pub function_count: usize,
    /// Per-experiment workload (paper: 10 min at 30 rps).
    pub experiment: ExperimentConfig,
    /// Generator bounds.
    pub generator: GeneratorConfig,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for the measurement fan-out.
    pub threads: usize,
}

impl DatasetConfig {
    /// The paper's full-scale configuration (expensive: ~216 M simulated
    /// executions).
    pub fn paper() -> Self {
        DatasetConfig {
            function_count: 2000,
            experiment: ExperimentConfig::paper(),
            generator: GeneratorConfig::default(),
            seed: 0,
            threads: 8,
        }
    }

    /// A scaled-down configuration: `n` functions, 40 s experiments at
    /// 25 rps (≈1 000 invocations per experiment — plenty for stable means).
    pub fn scaled(n: usize) -> Self {
        DatasetConfig {
            function_count: n,
            experiment: ExperimentConfig {
                duration_ms: 40_000.0,
                rps: 25.0,
                seed: 0,
            },
            generator: GeneratorConfig::default(),
            seed: 0,
            threads: 8,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny(n: usize) -> Self {
        DatasetConfig {
            function_count: n,
            experiment: ExperimentConfig {
                duration_ms: 4_000.0,
                rps: 15.0,
                seed: 0,
            },
            generator: GeneratorConfig::default(),
            seed: 0,
            threads: 4,
        }
    }

    /// The configuration as a dataset's identity: the worker-thread count
    /// normalized to 0. Generation is bit-identical for every thread count,
    /// so two configurations that differ only in `threads` describe the same
    /// dataset (and train the same artifact).
    pub fn identity(&self) -> DatasetConfig {
        DatasetConfig {
            threads: 0,
            ..*self
        }
    }
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One function's measurements across all six standard memory sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionRecord {
    /// Function name.
    pub name: String,
    /// Aggregated metric vector per standard size (index = standard-size
    /// index).
    pub metrics: Vec<MetricVector>,
    /// Mean execution time per standard size, ms.
    pub mean_execution_ms: Vec<f64>,
    /// Mean cost per invocation per standard size, USD.
    pub mean_cost_usd: Vec<f64>,
}

impl FunctionRecord {
    /// The metric vector at a standard size.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not one of the six standard sizes.
    pub fn metrics_at(&self, m: MemorySize) -> &MetricVector {
        // lint: allow(panic002) reason="documented # Panics contract: m must be one of the six standard sizes"
        &self.metrics[m.standard_index().expect("standard size")]
    }

    /// Mean execution time at a standard size, ms.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not one of the six standard sizes.
    pub fn execution_ms_at(&self, m: MemorySize) -> f64 {
        // lint: allow(panic002) reason="documented # Panics contract: m must be one of the six standard sizes"
        self.mean_execution_ms[m.standard_index().expect("standard size")]
    }

    /// The execution-time ratio `time(target) / time(base)` — the model's
    /// prediction target.
    pub fn ratio(&self, base: MemorySize, target: MemorySize) -> f64 {
        self.execution_ms_at(target) / self.execution_ms_at(base)
    }
}

/// The full training dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingDataset {
    /// Configuration it was generated with.
    pub config: DatasetConfig,
    /// One record per synthetic function.
    pub records: Vec<FunctionRecord>,
}

impl TrainingDataset {
    /// Generates the dataset on the given platform.
    ///
    /// Functions are generated with the synthetic function generator, then
    /// measured at every standard memory size via the parallel harness.
    pub fn generate(platform: &Platform, cfg: &DatasetConfig) -> Self {
        let mut gen_rng = RngStream::from_seed(cfg.seed, "dataset-funcgen");
        let mut generator = FunctionGenerator::new(cfg.generator);
        let functions = generator.generate_many(cfg.function_count, &mut gen_rng);

        let jobs: Vec<(&sizeless_platform::ResourceProfile, MemorySize)> = functions
            .iter()
            .flat_map(|f| MemorySize::STANDARD.iter().map(move |&m| (&f.profile, m)))
            .collect();
        let experiment = cfg.experiment.with_seed(cfg.seed.wrapping_add(0x5EED));
        // Keep only each experiment's aggregates, so the samples of the
        // jobs in flight are all that is held at once.
        let measurements = map_parallel(cfg.threads, jobs.len(), |i| {
            let (profile, memory) = jobs[i];
            let m = run_experiment(platform, profile, memory, &experiment);
            (m.metrics, m.summary)
        });

        let records = functions
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let base = i * MemorySize::STANDARD.len();
                let slice = &measurements[base..base + MemorySize::STANDARD.len()];
                FunctionRecord {
                    name: f.profile.name().to_string(),
                    metrics: slice.iter().map(|(metrics, _)| metrics.clone()).collect(),
                    mean_execution_ms: slice
                        .iter()
                        .map(|(_, summary)| summary.mean_execution_ms)
                        .collect(),
                    mean_cost_usd: slice
                        .iter()
                        .map(|(_, summary)| summary.mean_cost_usd)
                        .collect(),
                }
            })
            .collect();

        TrainingDataset {
            config: *cfg,
            records,
        }
    }

    /// Number of functions in the dataset.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Persists the dataset as JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] / [`CoreError::Serialization`] on failure.
    pub fn save(&self, path: &Path) -> Result<(), CoreError> {
        let json = serde_json::to_string(self)?;
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Loads a dataset saved by [`TrainingDataset::save`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] / [`CoreError::Serialization`] on failure.
    pub fn load(path: &Path) -> Result<Self, CoreError> {
        let json = std::fs::read_to_string(path)?;
        Ok(serde_json::from_str(&json)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> TrainingDataset {
        TrainingDataset::generate(&Platform::aws_like(), &DatasetConfig::tiny(4))
    }

    #[test]
    fn generates_requested_shape() {
        let ds = tiny_dataset();
        assert_eq!(ds.len(), 4);
        assert!(!ds.is_empty());
        for r in &ds.records {
            assert_eq!(r.metrics.len(), 6);
            assert_eq!(r.mean_execution_ms.len(), 6);
            assert_eq!(r.mean_cost_usd.len(), 6);
            assert!(r.mean_execution_ms.iter().all(|&t| t > 0.0));
        }
    }

    #[test]
    fn execution_time_decreases_or_flat_with_memory() {
        let ds = tiny_dataset();
        for r in &ds.records {
            // 128 MB should never beat 3008 MB by much for any function mix.
            let t128 = r.execution_ms_at(MemorySize::MB_128);
            let t3008 = r.execution_ms_at(MemorySize::MB_3008);
            assert!(t3008 <= t128 * 1.15, "{}: {t128} → {t3008}", r.name);
        }
    }

    #[test]
    fn ratios_are_consistent() {
        let ds = tiny_dataset();
        let r = &ds.records[0];
        let ratio = r.ratio(MemorySize::MB_256, MemorySize::MB_1024);
        let manual =
            r.execution_ms_at(MemorySize::MB_1024) / r.execution_ms_at(MemorySize::MB_256);
        assert_eq!(ratio, manual);
        assert_eq!(r.ratio(MemorySize::MB_256, MemorySize::MB_256), 1.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_dataset();
        let b = tiny_dataset();
        assert_eq!(a, b);
    }

    #[test]
    fn save_and_load_round_trip() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("sizeless-test-dataset.json");
        ds.save(&dir).unwrap();
        let loaded = TrainingDataset::load(&dir).unwrap();
        assert_eq!(ds, loaded);
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn load_missing_file_errors() {
        let err = TrainingDataset::load(Path::new("/nonexistent/sizeless.json")).unwrap_err();
        assert!(matches!(err, CoreError::Io(_)));
    }
}
