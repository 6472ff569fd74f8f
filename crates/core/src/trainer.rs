//! The offline half of the Figure-2 loop: train once, ship an artifact.
//!
//! The paper separates an *offline* phase (generate the training dataset,
//! train the multi-target regression model) from an *online* phase (consume
//! production monitoring data, recommend a memory size). [`Trainer`] is the
//! offline phase as a first-class object; its product is a
//! [`TrainedSizer`] — a **serializable** artifact bundling the trained
//! [`SizelessModel`] with the configured [`MemoryOptimizer`], i.e. exactly
//! the state the online [`SizingService`](crate::service::SizingService)
//! needs. Persisting the artifact means the expensive offline phase runs
//! once and many services (or many fleet runs) load it.

use crate::dataset::{DatasetConfig, TrainingDataset};
use crate::error::CoreError;
use crate::features::FeatureSet;
use crate::model::SizelessModel;
use crate::optimizer::{MemoryOptimizer, Tradeoff};
use crate::service::Recommendation;
use serde::{Deserialize, Serialize};
use sizeless_neural::NetworkConfig;
use sizeless_platform::{MemorySize, Platform};
use sizeless_telemetry::MetricVector;
use std::path::Path;

/// Configuration of the offline phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Offline dataset generation.
    pub dataset: DatasetConfig,
    /// Network hyperparameters (defaults: the paper's Table 2 selection).
    pub network: NetworkConfig,
    /// Feature set (defaults to the final F4).
    pub feature_set: FeatureSet,
    /// Base memory size monitored in production (the paper recommends
    /// 256 MB, Table 3).
    pub base_size: MemorySize,
    /// Cost/performance tradeoff (the paper recommends t = 0.75).
    pub tradeoff: Tradeoff,
    /// Training seed.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            dataset: DatasetConfig::paper(),
            network: NetworkConfig::default(),
            feature_set: FeatureSet::F4,
            base_size: MemorySize::MB_256,
            tradeoff: Tradeoff::COST_LEANING,
            seed: 0,
        }
    }
}

impl TrainerConfig {
    /// A stable hash of everything that determines the trained artifact:
    /// dataset shape and seeds, network hyperparameters, feature set, base
    /// size, tradeoff, and training seed. Worker-thread counts are
    /// normalized out ([`DatasetConfig::identity`]) — the measurement
    /// fan-out is bit-identical for every thread count, so `--threads` must
    /// not invalidate artifacts.
    ///
    /// [`TrainedSizer::save`] embeds this hash and
    /// [`TrainedSizer::load_expecting`] rejects artifacts whose hash
    /// differs, so a persisted artifact can never silently be reused under
    /// a configuration it was not trained for.
    pub fn artifact_hash(&self) -> u64 {
        let canonical = TrainerConfig {
            dataset: self.dataset.identity(),
            ..*self
        };
        // lint: allow(panic002) reason="TrainerConfig is plain old data; serializing it to JSON cannot fail"
        let json = serde_json::to_string(&canonical).expect("config serializes");
        // FNV-1a (the engine's stream-labeling hash): stable across
        // platforms and runs, no hasher state to seed.
        sizeless_engine::fnv1a(&json)
    }
}

/// The offline phase: dataset generation + model training.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// A trainer with the given configuration.
    pub fn new(config: TrainerConfig) -> Self {
        Trainer { config }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Runs the full offline phase on `platform`: generates the dataset,
    /// trains the model, and packages the artifact.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DatasetTooSmall`] if the dataset configuration
    /// yields too few functions.
    pub fn train(&self, platform: &Platform) -> Result<TrainedSizer, CoreError> {
        let dataset = TrainingDataset::generate(platform, &self.config.dataset);
        self.train_from_dataset(platform, &dataset)
    }

    /// Trains the artifact from an existing dataset (e.g. the shared cache
    /// of the experiment binaries).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DatasetTooSmall`] for datasets under ten
    /// functions.
    pub fn train_from_dataset(
        &self,
        platform: &Platform,
        dataset: &TrainingDataset,
    ) -> Result<TrainedSizer, CoreError> {
        let model = SizelessModel::train(
            dataset,
            self.config.base_size,
            self.config.feature_set,
            &self.config.network,
            self.config.seed,
        )?;
        Ok(TrainedSizer {
            model,
            optimizer: MemoryOptimizer::new(*platform.pricing(), self.config.tradeoff),
            config_hash: self.config.artifact_hash(),
        })
    }
}

/// The offline phase's product: a trained model plus the optimizer that
/// turns its predictions into memory-size decisions.
///
/// Serializable end to end (network weights, optimizer state, scaler,
/// pricing, tradeoff), so it can be trained once, persisted with
/// [`TrainedSizer::save`], and loaded into any number of online
/// [`SizingService`](crate::service::SizingService)s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedSizer {
    model: SizelessModel,
    optimizer: MemoryOptimizer,
    /// [`TrainerConfig::artifact_hash`] of the configuration the artifact
    /// was trained under; 0 for artifacts assembled from loose parts.
    /// (The vendored serde derive has no `#[serde(default)]`, so this field
    /// is part of the wire format — pre-versioning artifact files no longer
    /// load, which is the point of versioning them.)
    config_hash: u64,
}

impl TrainedSizer {
    /// Assembles an artifact from parts (e.g. a model trained elsewhere).
    /// Such artifacts carry no config hash (it is stored as 0) and fail
    /// [`TrainedSizer::load_expecting`] checks by construction.
    pub fn new(model: SizelessModel, optimizer: MemoryOptimizer) -> Self {
        TrainedSizer {
            model,
            optimizer,
            config_hash: 0,
        }
    }

    /// The trained model.
    pub fn model(&self) -> &SizelessModel {
        &self.model
    }

    /// Mutable access for online adaptation policies (the control plane's
    /// fine-tuning path).
    pub fn model_mut(&mut self) -> &mut SizelessModel {
        &mut self.model
    }

    /// The [`TrainerConfig::artifact_hash`] the artifact was trained under
    /// (0 when assembled from loose parts).
    pub fn config_hash(&self) -> u64 {
        self.config_hash
    }

    /// The optimizer.
    pub fn optimizer(&self) -> &MemoryOptimizer {
        &self.optimizer
    }

    /// The base memory size the model expects monitoring data from.
    pub fn base(&self) -> MemorySize {
        self.model.base()
    }

    /// The online decision: monitoring aggregates at the base size in,
    /// memory-size recommendation out.
    pub fn recommend(&self, metrics: &MetricVector) -> Recommendation {
        let predicted = self.model.predict(metrics);
        let outcome = self.optimizer.optimize(&predicted);
        Recommendation { predicted, outcome }
    }

    /// Persists the artifact as JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] / [`CoreError::Serialization`] on failure.
    pub fn save(&self, path: &Path) -> Result<(), CoreError> {
        let json = serde_json::to_string(self)?;
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Loads an artifact saved by [`TrainedSizer::save`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] / [`CoreError::Serialization`] on failure.
    pub fn load(path: &Path) -> Result<Self, CoreError> {
        let json = std::fs::read_to_string(path)?;
        Ok(serde_json::from_str(&json)?)
    }

    /// Loads an artifact and verifies it was trained under the
    /// configuration hashing to `expected` — the guard the experiment
    /// binaries use to reuse `--artifact` files across runs without ever
    /// mixing artifacts and configurations.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArtifactMismatch`] when the stored hash
    /// differs (including hash-0 artifacts assembled from loose parts),
    /// and [`CoreError::Io`] / [`CoreError::Serialization`] on file
    /// failures.
    pub fn load_expecting(path: &Path, expected: u64) -> Result<Self, CoreError> {
        let sizer = Self::load(path)?;
        if sizer.config_hash != expected {
            return Err(CoreError::ArtifactMismatch {
                expected,
                found: sizer.config_hash,
            });
        }
        Ok(sizer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizeless_neural::NetworkConfig;
    use sizeless_workload::{run_experiment, ExperimentConfig};

    fn quick_cfg() -> TrainerConfig {
        TrainerConfig {
            dataset: DatasetConfig::tiny(24),
            network: NetworkConfig {
                hidden_layers: 1,
                neurons: 16,
                epochs: 30,
                l2: 0.0001,
                ..NetworkConfig::default()
            },
            ..TrainerConfig::default()
        }
    }

    #[test]
    fn trains_an_artifact_with_paper_defaults_wired_through() {
        let platform = Platform::aws_like();
        let sizer = Trainer::new(quick_cfg()).train(&platform).unwrap();
        assert_eq!(sizer.base(), MemorySize::MB_256);
        assert_eq!(sizer.model().feature_set(), FeatureSet::F4);
        assert_eq!(sizer.optimizer().tradeoff().value(), 0.75);
    }

    #[test]
    fn recommends_from_base_size_monitoring() {
        let platform = Platform::aws_like();
        let cfg = TrainerConfig {
            dataset: DatasetConfig::tiny(30),
            network: NetworkConfig {
                hidden_layers: 2,
                neurons: 32,
                epochs: 80,
                l2: 0.0001,
                ..NetworkConfig::default()
            },
            ..TrainerConfig::default()
        };
        let sizer = Trainer::new(cfg).train(&platform).unwrap();

        // Monitor a CPU-bound function at the base size in "production".
        let profile = sizeless_platform::ResourceProfile::builder("prod-fn")
            .stage(sizeless_platform::Stage::cpu("work", 120.0))
            .build();
        let m = run_experiment(
            &platform,
            &profile,
            MemorySize::MB_256,
            &ExperimentConfig {
                duration_ms: 6_000.0,
                rps: 15.0,
                seed: 77,
            },
        );
        let rec = sizer.recommend(&m.metrics);
        // A purely CPU-bound function should not be told to stay tiny.
        assert!(
            rec.memory_size() >= MemorySize::MB_256,
            "{}",
            rec.memory_size()
        );
        assert_eq!(rec.predicted.base(), MemorySize::MB_256);
        assert_eq!(rec.outcome.scores.len(), 6);
    }

    #[test]
    fn default_config_matches_paper_choices() {
        let cfg = TrainerConfig::default();
        assert_eq!(cfg.base_size, MemorySize::MB_256);
        assert_eq!(cfg.feature_set, FeatureSet::F4);
        assert_eq!(cfg.tradeoff.value(), 0.75);
        assert_eq!(cfg.dataset.function_count, 2000);
    }

    #[test]
    fn artifact_round_trips_through_json_bit_exactly() {
        let platform = Platform::aws_like();
        let dataset = TrainingDataset::generate(&platform, &quick_cfg().dataset);
        let trainer = Trainer::new(quick_cfg());
        let sizer = trainer.train_from_dataset(&platform, &dataset).unwrap();

        let path = std::env::temp_dir().join("sizeless-test-trained-sizer.json");
        sizer.save(&path).unwrap();
        let loaded = TrainedSizer::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded, sizer);

        // The loaded artifact recommends identically, bit for bit.
        let metrics = dataset.records[0].metrics_at(MemorySize::MB_256);
        let a = sizer.recommend(metrics);
        let b = loaded.recommend(metrics);
        assert_eq!(a, b);
        for size in MemorySize::STANDARD {
            assert_eq!(
                a.predicted.time_ms(size).to_bits(),
                b.predicted.time_ms(size).to_bits()
            );
        }
    }

    #[test]
    fn too_small_dataset_is_an_error() {
        let platform = Platform::aws_like();
        let mut cfg = quick_cfg();
        cfg.dataset = DatasetConfig::tiny(3);
        let err = Trainer::new(cfg).train(&platform).unwrap_err();
        assert!(matches!(err, CoreError::DatasetTooSmall { have: 3, .. }));
    }

    #[test]
    fn load_missing_artifact_errors() {
        let err = TrainedSizer::load(Path::new("/nonexistent/sizer.json")).unwrap_err();
        assert!(matches!(err, CoreError::Io(_)));
    }

    #[test]
    fn artifact_hash_tracks_semantics_not_thread_count() {
        let a = quick_cfg();
        let mut b = quick_cfg();
        b.dataset.threads = a.dataset.threads + 3;
        assert_eq!(a.artifact_hash(), b.artifact_hash(), "threads are cosmetic");

        let mut c = quick_cfg();
        c.seed = 99;
        assert_ne!(a.artifact_hash(), c.artifact_hash());
        let mut d = quick_cfg();
        d.dataset.function_count += 1;
        assert_ne!(a.artifact_hash(), d.artifact_hash());
        let mut e = quick_cfg();
        e.base_size = MemorySize::MB_512;
        assert_ne!(a.artifact_hash(), e.artifact_hash());
    }

    #[test]
    fn versioned_artifact_round_trips_and_rejects_mismatches() {
        let platform = Platform::aws_like();
        let cfg = quick_cfg();
        let sizer = Trainer::new(cfg).train(&platform).unwrap();
        assert_eq!(sizer.config_hash(), cfg.artifact_hash());

        let path = std::env::temp_dir().join("sizeless-test-versioned-sizer.json");
        sizer.save(&path).unwrap();
        let loaded = TrainedSizer::load_expecting(&path, cfg.artifact_hash()).unwrap();
        assert_eq!(loaded, sizer);

        // A different training configuration must refuse the stored file.
        let mut other = cfg;
        other.seed = 123;
        let err = TrainedSizer::load_expecting(&path, other.artifact_hash()).unwrap_err();
        let _ = std::fs::remove_file(&path);
        match err {
            CoreError::ArtifactMismatch { expected, found } => {
                assert_eq!(expected, other.artifact_hash());
                assert_eq!(found, cfg.artifact_hash());
            }
            e => panic!("expected ArtifactMismatch, got {e}"),
        }
    }
}
