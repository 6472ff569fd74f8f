//! The multi-target regression model — one per base memory size.
//!
//! For a chosen *base* size, the model maps the feature vector extracted
//! from that size's monitoring data to the execution-time **ratios**
//! `time(target) / time(base)` of the five remaining sizes (the paper's
//! preprocessing step that equalizes target scales). Predictions are turned
//! back into absolute times using the observed base execution time.

use crate::dataset::TrainingDataset;
use crate::error::CoreError;
use crate::features::FeatureSet;
use serde::{Deserialize, Serialize};
use sizeless_neural::crossval::{pooled_report, CrossValReport, KFold};
use sizeless_neural::parallel::parallel_map;
use sizeless_neural::{Matrix, NetworkConfig, NeuralNetwork, StandardScaler};
use sizeless_platform::MemorySize;
use sizeless_telemetry::MetricVector;
use std::collections::BTreeMap;

/// Predicted execution times for every standard memory size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictedTimes {
    base: MemorySize,
    times_ms: BTreeMap<MemorySize, f64>,
}

impl PredictedTimes {
    /// The base size the prediction was made from.
    pub fn base(&self) -> MemorySize {
        self.base
    }

    /// The (predicted, or for the base size observed) execution time, ms.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a standard size.
    pub fn time_ms(&self, m: MemorySize) -> f64 {
        // lint: allow(panic002) reason="documented # Panics contract: m must be a standard size"
        *self.times_ms.get(&m).expect("standard memory size")
    }

    /// Iterates over `(size, time_ms)` in ascending size order.
    pub fn iter(&self) -> impl Iterator<Item = (MemorySize, f64)> + '_ {
        self.times_ms.iter().map(|(&m, &t)| (m, t))
    }

    /// The underlying map.
    pub fn as_map(&self) -> &BTreeMap<MemorySize, f64> {
        &self.times_ms
    }
}

/// One post-resize observation the online control plane feeds back into
/// the model: the base-size monitoring window a recommendation was made
/// from, the size the service directed, and the mean execution time then
/// observed at that size — i.e. a single labeled `(features, ratio)` pair
/// for [`SizelessModel::fine_tune_online`].
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineObservation {
    /// Aggregate of the base-size window the recommendation consumed.
    pub metrics: MetricVector,
    /// The size the service directed the function to.
    pub directed: MemorySize,
    /// Mean execution time observed at the directed size, ms.
    pub observed_ms: f64,
}

/// The target sizes for a base size: the five other standard sizes.
pub fn target_sizes(base: MemorySize) -> Vec<MemorySize> {
    MemorySize::STANDARD
        .iter()
        .copied()
        .filter(|&m| m != base)
        .collect()
}

/// A trained Sizeless performance model for one base memory size.
///
/// Serializable (weights, scaler, optimizer state and all) so trained
/// models can ship as artifacts — see
/// [`TrainedSizer`](crate::trainer::TrainedSizer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SizelessModel {
    base: MemorySize,
    feature_set: FeatureSet,
    scaler: StandardScaler,
    network: NeuralNetwork,
}

impl SizelessModel {
    /// Trains a model on a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DatasetTooSmall`] if fewer than ten functions
    /// are available.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not one of the six standard sizes.
    pub fn train(
        dataset: &TrainingDataset,
        base: MemorySize,
        feature_set: FeatureSet,
        config: &NetworkConfig,
        seed: u64,
    ) -> Result<Self, CoreError> {
        assert!(base.standard_index().is_some(), "base must be a standard size");
        if dataset.len() < 10 {
            return Err(CoreError::DatasetTooSmall {
                have: dataset.len(),
                need: 10,
            });
        }
        let (x_raw, y) = design_matrices(dataset, base, feature_set);
        let (scaler, x) = StandardScaler::fit_transform(&x_raw);
        let mut network = NeuralNetwork::new(x.cols(), y.cols(), config, seed);
        network.fit(&x, &y);
        Ok(SizelessModel {
            base,
            feature_set,
            scaler,
            network,
        })
    }

    /// The base memory size this model expects monitoring data from.
    pub fn base(&self) -> MemorySize {
        self.base
    }

    /// The feature set the model consumes.
    pub fn feature_set(&self) -> FeatureSet {
        self.feature_set
    }

    /// Predicts the execution-time ratios for the five target sizes, in
    /// [`target_sizes`] order. Ratios are clamped to be strictly positive.
    pub fn predict_ratios(&self, metrics: &MetricVector) -> Vec<f64> {
        let raw = self.feature_set.extract(metrics);
        let scaled = self.scaler.transform_row(&raw);
        self.network
            .predict_one(&scaled)
            .into_iter()
            .map(|r| r.max(0.01))
            .collect()
    }

    /// Fine-tunes the model on online observations: for each one, the
    /// feature row is extracted from the base-size window the
    /// recommendation was made from, and the prediction target for the
    /// *directed* size is replaced by the ratio actually observed after the
    /// resize (the remaining targets keep the model's own predictions, so
    /// only the corrected output moves). One call is one fine-tuning
    /// *round* — see [`sizeless_neural::NeuralNetwork::fine_tune_with`] for
    /// the determinism contract; `frozen_layers` early layers stay fixed
    /// (the paper's transfer-learning proposal).
    ///
    /// Observations whose directed size equals the base, or whose base
    /// window has a non-positive mean execution time, carry no ratio signal
    /// and are skipped. Returns the number of rows trained on.
    pub fn fine_tune_online(
        &mut self,
        observations: &[OnlineObservation],
        frozen_layers: usize,
        epochs: usize,
        round: u64,
        scratch: &mut sizeless_neural::Scratch,
    ) -> usize {
        let targets = target_sizes(self.base);
        let dim = self.feature_set.dim();
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut rows = 0;
        for obs in observations {
            let Some(target_idx) = targets.iter().position(|&t| t == obs.directed) else {
                continue; // directed == base (or not a standard size)
            };
            let base_ms = obs.metrics.mean_execution_time_ms();
            if !base_ms.is_finite() || base_ms <= 0.0 || !obs.observed_ms.is_finite() || obs.observed_ms <= 0.0 {
                continue;
            }
            let raw = self.feature_set.extract(&obs.metrics);
            let scaled = self.scaler.transform_row(&raw);
            debug_assert_eq!(scaled.len(), dim);
            let mut ratios: Vec<f64> = self
                .network
                .predict_one(&scaled)
                .into_iter()
                .map(|r| r.max(0.01))
                .collect();
            ratios[target_idx] = (obs.observed_ms / base_ms).max(0.01);
            x.extend(scaled);
            y.extend(ratios);
            rows += 1;
        }
        if rows == 0 {
            return 0;
        }
        let x = Matrix::from_vec(rows, dim, x);
        let y = Matrix::from_vec(rows, targets.len(), y);
        let frozen = frozen_layers.min(self.network.layer_count() - 1);
        self.network.fine_tune_with(&x, &y, frozen, epochs, round, scratch);
        rows
    }

    /// Predicts absolute execution times for all six sizes. The base size
    /// carries the *observed* mean execution time.
    pub fn predict(&self, metrics: &MetricVector) -> PredictedTimes {
        let base_ms = metrics.mean_execution_time_ms();
        let ratios = self.predict_ratios(metrics);
        let mut times_ms = BTreeMap::new();
        times_ms.insert(self.base, base_ms);
        for (size, ratio) in target_sizes(self.base).into_iter().zip(ratios) {
            times_ms.insert(size, ratio * base_ms);
        }
        PredictedTimes {
            base: self.base,
            times_ms,
        }
    }
}

/// Builds the design matrices for a base size: rows = functions, x =
/// extracted features at the base size, y = ratios for the target sizes.
pub fn design_matrices(
    dataset: &TrainingDataset,
    base: MemorySize,
    feature_set: FeatureSet,
) -> (Matrix, Matrix) {
    let targets = target_sizes(base);
    let n = dataset.len();
    let dim = feature_set.dim();
    let mut x = Vec::with_capacity(n * dim);
    let mut y = Vec::with_capacity(n * targets.len());
    for record in &dataset.records {
        x.extend(feature_set.extract(record.metrics_at(base)));
        for &t in &targets {
            y.push(record.ratio(base, t));
        }
    }
    (
        Matrix::from_vec(n, dim, x),
        Matrix::from_vec(n, targets.len(), y),
    )
}

/// Cross-validates the model for one base size with per-fold feature
/// scaling — the evaluation behind Table 3 — with the folds fanned out over
/// `threads` workers.
///
/// Every fold derives its seed from `(seed, iteration, fold)` and fits its
/// own scaler on the training split only; held-out predictions are pooled
/// in fold order, so the report is **bit-identical** regardless of
/// `threads`.
///
/// # Panics
///
/// Panics if the dataset has fewer rows than `k`, `iterations` is zero, or
/// `threads` is zero.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_base_size(
    dataset: &TrainingDataset,
    base: MemorySize,
    feature_set: FeatureSet,
    config: &NetworkConfig,
    k: usize,
    iterations: usize,
    seed: u64,
    threads: usize,
) -> CrossValReport {
    assert!(iterations > 0, "at least one iteration required");
    let (x_raw, y) = design_matrices(dataset, base, feature_set);

    let mut jobs: Vec<(Vec<usize>, Vec<usize>, u64)> = Vec::with_capacity(iterations * k);
    for iter in 0..iterations {
        let folds = KFold::new(k, seed.wrapping_add(iter as u64)).splits(x_raw.rows());
        for (f, (train_idx, test_idx)) in folds.into_iter().enumerate() {
            let net_seed = seed.wrapping_mul(31).wrapping_add((iter * 100 + f) as u64);
            jobs.push((train_idx, test_idx, net_seed));
        }
    }

    let fold_results = parallel_map(threads, jobs.len(), |i, scratch| {
        let (train_idx, test_idx, net_seed) = &jobs[i];
        let x_train_raw = x_raw.select_rows(train_idx);
        let (scaler, x_train) = StandardScaler::fit_transform(&x_train_raw);
        let y_train = y.select_rows(train_idx);
        let x_test = scaler.transform(&x_raw.select_rows(test_idx));
        let y_test = y.select_rows(test_idx);

        let mut net = NeuralNetwork::new(x_train.cols(), y_train.cols(), config, *net_seed);
        net.fit_with(&x_train, &y_train, scratch);
        let pred = net.predict(&x_test);
        let clamped: Vec<f64> = pred.data().iter().map(|p| p.max(0.01)).collect();
        (y_test.data().to_vec(), clamped)
    });

    pooled_report(fold_results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use sizeless_platform::Platform;

    fn dataset() -> TrainingDataset {
        TrainingDataset::generate(&Platform::aws_like(), &DatasetConfig::tiny(24))
    }

    fn quick_net() -> NetworkConfig {
        NetworkConfig {
            hidden_layers: 2,
            neurons: 32,
            epochs: 60,
            l2: 0.0001,
            ..NetworkConfig::default()
        }
    }

    #[test]
    fn target_sizes_exclude_base() {
        let t = target_sizes(MemorySize::MB_256);
        assert_eq!(t.len(), 5);
        assert!(!t.contains(&MemorySize::MB_256));
    }

    #[test]
    fn design_matrices_shapes() {
        let ds = dataset();
        let (x, y) = design_matrices(&ds, MemorySize::MB_256, FeatureSet::F4);
        assert_eq!(x.rows(), 24);
        assert_eq!(x.cols(), 11);
        assert_eq!(y.rows(), 24);
        assert_eq!(y.cols(), 5);
        // Ratios are positive.
        assert!(y.data().iter().all(|&r| r > 0.0));
    }

    #[test]
    fn trained_model_predicts_sensible_times() {
        let ds = dataset();
        let model =
            SizelessModel::train(&ds, MemorySize::MB_256, FeatureSet::F4, &quick_net(), 1)
                .unwrap();
        assert_eq!(model.base(), MemorySize::MB_256);
        assert_eq!(model.feature_set(), FeatureSet::F4);

        let record = &ds.records[0];
        let predicted = model.predict(record.metrics_at(MemorySize::MB_256));
        // Base time is the observed one.
        let observed = record.metrics_at(MemorySize::MB_256).mean_execution_time_ms();
        assert_eq!(predicted.time_ms(MemorySize::MB_256), observed);
        // All predictions strictly positive; map covers all six sizes.
        assert_eq!(predicted.as_map().len(), 6);
        for (_, t) in predicted.iter() {
            assert!(t > 0.0);
        }
    }

    #[test]
    fn model_learns_the_scaling_direction() {
        let ds = dataset();
        let model =
            SizelessModel::train(&ds, MemorySize::MB_128, FeatureSet::F4, &quick_net(), 2)
                .unwrap();
        // In-sample sanity: predicted 3008 MB time below 128 MB time for
        // most functions (everything scales down or flat in the simulator).
        let mut down = 0;
        for r in &ds.records {
            let p = model.predict(r.metrics_at(MemorySize::MB_128));
            if p.time_ms(MemorySize::MB_3008) <= p.time_ms(MemorySize::MB_128) * 1.1 {
                down += 1;
            }
        }
        assert!(down >= ds.len() * 3 / 4, "down={down}/{}", ds.len());
    }

    #[test]
    fn evaluation_reports_finite_metrics() {
        let ds = dataset();
        let report = evaluate_base_size(
            &ds,
            MemorySize::MB_256,
            FeatureSet::F4,
            &quick_net(),
            4,
            1,
            3,
            2,
        );
        assert!(report.mse.is_finite());
        assert!(report.mape.is_finite() && report.mape > 0.0);
        assert!(report.r_squared <= 1.0);
        assert!(report.explained_variance <= 1.0);
    }

    #[test]
    fn fine_tune_online_moves_the_corrected_target_toward_the_observation() {
        let ds = dataset();
        let mut model =
            SizelessModel::train(&ds, MemorySize::MB_256, FeatureSet::F4, &quick_net(), 7)
                .unwrap();
        let record = &ds.records[0];
        let metrics = record.metrics_at(MemorySize::MB_256).clone();
        let before = model.predict(&metrics);
        let base_ms = metrics.mean_execution_time_ms();
        // Pretend production observed 1024 MB running at exactly base speed
        // (ratio 1.0) while the model predicts something else.
        let observed_ms = base_ms;
        let obs = vec![OnlineObservation {
            metrics: metrics.clone(),
            directed: MemorySize::MB_1024,
            observed_ms,
        }];
        let mut scratch = sizeless_neural::Scratch::new();
        let mut tuned = model.clone();
        let rows = tuned.fine_tune_online(&obs, 1, 40, 0, &mut scratch);
        assert_eq!(rows, 1);
        let after = tuned.predict(&metrics);
        let err_before = (before.time_ms(MemorySize::MB_1024) - observed_ms).abs();
        let err_after = (after.time_ms(MemorySize::MB_1024) - observed_ms).abs();
        assert!(
            err_after < err_before,
            "fine-tuning must move the corrected target: {err_before:.4} -> {err_after:.4}"
        );

        // Determinism: the same observations tune bit-identically.
        let mut again = model.clone();
        again.fine_tune_online(&obs, 1, 40, 0, &mut sizeless_neural::Scratch::new());
        assert_eq!(tuned, again);

        // Observations at the base size carry no signal and are skipped.
        let skipped = model.fine_tune_online(
            &[OnlineObservation {
                metrics,
                directed: MemorySize::MB_256,
                observed_ms,
            }],
            1,
            10,
            0,
            &mut scratch,
        );
        assert_eq!(skipped, 0);
    }

    #[test]
    fn too_small_dataset_is_an_error() {
        let tiny = TrainingDataset::generate(&Platform::aws_like(), &DatasetConfig::tiny(3));
        let err = SizelessModel::train(
            &tiny,
            MemorySize::MB_256,
            FeatureSet::F4,
            &quick_net(),
            0,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::DatasetTooSmall { have: 3, .. }));
    }

    #[test]
    fn ratios_are_clamped_positive() {
        let ds = dataset();
        let model =
            SizelessModel::train(&ds, MemorySize::MB_3008, FeatureSet::F4, &quick_net(), 4)
                .unwrap();
        for r in &ds.records {
            for ratio in model.predict_ratios(r.metrics_at(MemorySize::MB_3008)) {
                assert!(ratio >= 0.01);
            }
        }
    }
}
