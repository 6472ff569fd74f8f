//! Training-dataset generation — the paper's Section 3.3.
//!
//! The paper measures 2 000 synthetic functions at six memory sizes, ten
//! minutes each at 30 rps (12 000 experiments, 216 million executions). The
//! simulated equivalent measures each function once per size through
//! [`measure_standard_sizes`] and keeps one [`FunctionRecord`] per function:
//! the aggregated metric vector plus the mean execution time and cost per
//! size — exactly the inputs the regression model consumes.

use crate::error::CoreError;
use serde::{Deserialize, Serialize};
use sizeless_engine::RngStream;
use sizeless_funcgen::{FunctionGenerator, GeneratorConfig};
use sizeless_platform::Platform;
use sizeless_workload::{measure_standard_sizes, ExperimentConfig, FunctionRecord};
use std::path::Path;

/// Configuration of dataset generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Number of synthetic functions (paper: 2 000).
    pub function_count: usize,
    /// Per-experiment workload (paper: 10 min at 30 rps). Its own `seed`
    /// draws nothing: [`TrainingDataset::generate`] measures with the
    /// master `seed` plus `0x5EED` instead. It still enters
    /// [`DatasetConfig::identity`], so it keys the cache and the artifact.
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
    /// measured at every standard size on `cfg.threads` workers.
    pub fn generate(platform: &Platform, cfg: &DatasetConfig) -> Self {
        let mut gen_rng = RngStream::from_seed(cfg.seed, "dataset-funcgen");
        let mut generator = FunctionGenerator::new(cfg.generator);
        let functions = generator.generate_many(cfg.function_count, &mut gen_rng);

        let profiles: Vec<_> = functions.iter().map(|f| &f.profile).collect();
        let experiment = cfg.experiment.with_seed(cfg.seed.wrapping_add(0x5EED));
        let records = measure_standard_sizes(platform, &profiles, &[experiment], cfg.threads);

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
    use sizeless_platform::MemorySize;

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
