//! k-fold cross-validation.
//!
//! The paper evaluates each base memory size with **ten iterations of
//! five-fold cross-validation with a random split** (Table 3). [`KFold`]
//! produces the splits; [`cross_validate`] trains a fresh network per fold
//! and aggregates MSE / MAPE / R² / explained variance over the held-out
//! predictions.

use crate::matrix::Matrix;
use crate::network::{NetworkConfig, NeuralNetwork};
use crate::parallel::parallel_map;
use crate::scratch::Scratch;
use serde::{Deserialize, Serialize};
use sizeless_engine::RngStream;
use sizeless_stats::regression;

/// A shuffled k-fold splitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KFold {
    /// Number of folds.
    pub k: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl KFold {
    /// Creates a splitter.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 2, "cross-validation needs at least two folds");
        KFold { k, seed }
    }

    /// Produces `(train, test)` index pairs for a dataset of `n` rows.
    ///
    /// # Panics
    ///
    /// Panics if `n < k`.
    pub fn splits(&self, n: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
        assert!(n >= self.k, "need at least one sample per fold");
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = RngStream::from_seed(self.seed, "kfold");
        rng.shuffle(&mut order);
        let mut out = Vec::with_capacity(self.k);
        let base = n / self.k;
        let extra = n % self.k;
        let mut start = 0;
        for fold in 0..self.k {
            let size = base + usize::from(fold < extra);
            let test: Vec<usize> = order[start..start + size].to_vec();
            let train: Vec<usize> = order[..start]
                .iter()
                .chain(&order[start + size..])
                .copied()
                .collect();
            out.push((train, test));
            start += size;
        }
        out
    }
}

/// Aggregated cross-validation metrics (the columns of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossValReport {
    /// Mean squared error over held-out predictions.
    pub mse: f64,
    /// Mean absolute percentage error.
    pub mape: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Explained variance score.
    pub explained_variance: f64,
}

/// Runs `iterations × k`-fold cross-validation of a network on `(x, y)`,
/// fanning the folds out over `threads` workers.
///
/// Every fold trains a fresh network from a seed derived from
/// `(seed, iteration, fold)`; held-out predictions from all folds and
/// iterations are pooled in fold order before computing the metrics,
/// matching how the paper reports a single number per base size. The
/// report is therefore **bit-identical** for every thread count (pinned by
/// the determinism suite).
///
/// # Panics
///
/// Panics if the dataset is smaller than `k`, `iterations` is zero, or
/// `threads` is zero.
pub fn cross_validate(
    x: &Matrix,
    y: &Matrix,
    config: &NetworkConfig,
    k: usize,
    iterations: usize,
    seed: u64,
    threads: usize,
) -> CrossValReport {
    let jobs = fold_jobs(x.rows(), k, iterations, seed);
    let fold_results = parallel_map(threads, jobs.len(), |i, scratch| {
        let (train_idx, test_idx, net_seed) = &jobs[i];
        fold_predictions(x, y, config, train_idx, test_idx, *net_seed, scratch)
    });
    pooled_report(fold_results)
}

/// Serial cross-validation reusing a caller-owned scratch workspace —
/// the inner loop of the parallel grid search, where each worker already
/// runs on its own thread.
pub(crate) fn cross_validate_with(
    x: &Matrix,
    y: &Matrix,
    config: &NetworkConfig,
    k: usize,
    iterations: usize,
    seed: u64,
    scratch: &mut Scratch,
) -> CrossValReport {
    let fold_results = fold_jobs(x.rows(), k, iterations, seed)
        .iter()
        .map(|(train_idx, test_idx, net_seed)| {
            fold_predictions(x, y, config, train_idx, test_idx, *net_seed, scratch)
        })
        .collect();
    pooled_report(fold_results)
}

/// The `iterations × k` fold jobs of `n` rows as `(train, test, network
/// seed)`, in pooling order. Every seed derives from `(seed, iteration,
/// fold)` alone.
fn fold_jobs(
    n: usize,
    k: usize,
    iterations: usize,
    seed: u64,
) -> Vec<(Vec<usize>, Vec<usize>, u64)> {
    assert!(iterations > 0, "at least one iteration required");
    let mut jobs = Vec::with_capacity(iterations * k);
    for iter in 0..iterations {
        let folds = KFold::new(k, seed.wrapping_add(iter as u64)).splits(n);
        for (f, (train_idx, test_idx)) in folds.into_iter().enumerate() {
            let net_seed = seed
                .wrapping_mul(1_000_003)
                .wrapping_add((iter * 31 + f) as u64);
            jobs.push((train_idx, test_idx, net_seed));
        }
    }
    jobs
}

/// Trains one fold and returns `(held-out truth, held-out predictions)`.
fn fold_predictions(
    x: &Matrix,
    y: &Matrix,
    config: &NetworkConfig,
    train_idx: &[usize],
    test_idx: &[usize],
    net_seed: u64,
    scratch: &mut Scratch,
) -> (Vec<f64>, Vec<f64>) {
    let x_train = x.select_rows(train_idx);
    let y_train = y.select_rows(train_idx);
    let x_test = x.select_rows(test_idx);
    let y_test = y.select_rows(test_idx);

    let mut net = NeuralNetwork::new(x.cols(), y.cols(), config, net_seed);
    net.fit_with(&x_train, &y_train, scratch);
    let pred = net.predict(&x_test);
    (y_test.data().to_vec(), pred.data().to_vec())
}

/// Pools per-fold `(held-out truth, held-out predictions)` pairs, in fold
/// order, into the aggregate report: every fold's values are concatenated
/// before the metrics are computed, so each metric is one number over all
/// held-out predictions.
///
/// # Panics
///
/// Panics if no fold contributes a prediction, if every target is zero, or
/// if the targets are constant.
pub fn pooled_report(fold_results: Vec<(Vec<f64>, Vec<f64>)>) -> CrossValReport {
    let total: usize = fold_results.iter().map(|(t, _)| t.len()).sum();
    let mut all_true: Vec<f64> = Vec::with_capacity(total);
    let mut all_pred: Vec<f64> = Vec::with_capacity(total);
    for (t, p) in fold_results {
        all_true.extend_from_slice(&t);
        all_pred.extend_from_slice(&p);
    }

    CrossValReport {
        // lint: allow(panic002) reason="every fold contributes at least one prediction"
        mse: regression::mse(&all_true, &all_pred).expect("non-empty predictions"),
        // lint: allow(panic002) reason="ratio targets are clamped to at least 0.01, so no MAPE denominator is zero"
        mape: regression::mape(&all_true, &all_pred).expect("non-zero targets"),
        r_squared: regression::r_squared(&all_true, &all_pred)
            // lint: allow(panic002) reason="ratio targets vary across the dataset, so variance is non-zero"
            .expect("non-constant targets"),
        explained_variance: regression::explained_variance(&all_true, &all_pred)
            // lint: allow(panic002) reason="ratio targets vary across the dataset, so variance is non-zero"
            .expect("non-constant targets"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::loss::Loss;
    use crate::optimizer::OptimizerKind;

    #[test]
    fn splits_partition_the_dataset() {
        let kf = KFold::new(5, 1);
        let splits = kf.splits(23);
        assert_eq!(splits.len(), 5);
        let mut seen: Vec<usize> = splits.iter().flat_map(|(_, t)| t.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..23).collect::<Vec<_>>());
        for (train, test) in &splits {
            assert_eq!(train.len() + test.len(), 23);
            for t in test {
                assert!(!train.contains(t));
            }
        }
    }

    #[test]
    fn fold_sizes_are_balanced() {
        let splits = KFold::new(5, 2).splits(23);
        let sizes: Vec<usize> = splits.iter().map(|(_, t)| t.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 23);
        assert!(sizes.iter().all(|&s| s == 4 || s == 5));
    }

    #[test]
    fn splits_are_shuffled_and_deterministic() {
        let a = KFold::new(4, 3).splits(40);
        let b = KFold::new(4, 3).splits(40);
        let c = KFold::new(4, 4).splits(40);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Shuffled: the first test fold should not be 0..10.
        assert_ne!(a[0].1, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cross_validation_on_learnable_data_scores_well() {
        let mut rng = RngStream::from_seed(5, "cv-data");
        let n = 120;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.uniform(0.1, 1.0);
            let b = rng.uniform(0.1, 1.0);
            xs.extend_from_slice(&[a, b]);
            ys.extend_from_slice(&[a + b, 2.0 * a]);
        }
        let x = Matrix::from_vec(n, 2, xs);
        let y = Matrix::from_vec(n, 2, ys);
        let cfg = NetworkConfig {
            hidden_layers: 2,
            neurons: 24,
            activation: Activation::Relu,
            loss: Loss::Mse,
            optimizer: OptimizerKind::Adam { lr: 0.005 },
            l2: 0.0,
            epochs: 150,
            batch_size: 16,
        };
        let report = cross_validate(&x, &y, &cfg, 4, 1, 7, 2);
        assert!(report.mse < 0.02, "mse={}", report.mse);
        assert!(report.r_squared > 0.9, "r2={}", report.r_squared);
        assert!(report.explained_variance >= report.r_squared - 0.05);
        assert!(report.mape < 0.2, "mape={}", report.mape);
    }

    /// The parallel fold fan-out must reproduce the serial report
    /// bit-for-bit: same fold seeds, same pooling order.
    #[test]
    fn threaded_cross_validation_is_bit_identical_to_serial() {
        let mut rng = RngStream::from_seed(9, "cv-par");
        let n = 40;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.uniform(0.1, 1.0);
            xs.push(a);
            ys.push(1.5 * a + 0.2);
        }
        let x = Matrix::from_vec(n, 1, xs);
        let y = Matrix::from_vec(n, 1, ys);
        let cfg = NetworkConfig {
            hidden_layers: 1,
            neurons: 8,
            loss: Loss::Mse,
            optimizer: OptimizerKind::Adam { lr: 0.01 },
            l2: 0.0,
            epochs: 20,
            batch_size: 8,
            ..NetworkConfig::default()
        };
        let serial = cross_validate(&x, &y, &cfg, 4, 2, 3, 1);
        let parallel = cross_validate(&x, &y, &cfg, 4, 2, 3, 4);
        assert_eq!(serial.mse.to_bits(), parallel.mse.to_bits());
        assert_eq!(serial.mape.to_bits(), parallel.mape.to_bits());
        assert_eq!(serial.r_squared.to_bits(), parallel.r_squared.to_bits());
        assert_eq!(
            serial.explained_variance.to_bits(),
            parallel.explained_variance.to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn k_of_one_rejected() {
        let _ = KFold::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "one sample per fold")]
    fn too_small_dataset_rejected() {
        let _ = KFold::new(5, 0).splits(3);
    }
}
