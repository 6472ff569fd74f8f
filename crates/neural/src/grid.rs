//! Hyperparameter grid search — the paper's Table 2.
//!
//! The grid covers optimizer × loss × epochs × neurons × L2 × layers
//! (3·3·3·3·4·4 = 1296 configurations in the paper). Each configuration is
//! scored by k-fold cross-validation; the lowest validation MSE wins.

use crate::crossval::cross_validate_with;
use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::network::NetworkConfig;
use crate::optimizer::OptimizerKind;
use crate::scratch::Scratch;
use serde::{Deserialize, Serialize};
use sizeless_engine::parallel_map;

/// The search space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Optimizer candidates.
    pub optimizers: Vec<OptimizerKind>,
    /// Loss candidates.
    pub losses: Vec<Loss>,
    /// Epoch counts.
    pub epochs: Vec<usize>,
    /// Hidden-layer widths.
    pub neurons: Vec<usize>,
    /// L2 strengths.
    pub l2s: Vec<f64>,
    /// Hidden-layer counts.
    pub layers: Vec<usize>,
}

impl GridSpec {
    /// The paper's full Table-2 grid (1296 points).
    pub fn paper() -> Self {
        GridSpec {
            optimizers: OptimizerKind::paper_grid().to_vec(),
            losses: Loss::ALL.to_vec(),
            epochs: vec![200, 500, 1000],
            neurons: vec![64, 128, 256],
            l2s: vec![0.0, 0.0001, 0.001, 0.01],
            layers: vec![2, 3, 4, 5],
        }
    }

    /// A reduced grid for smoke tests and quick runs: one axis value away
    /// from the paper's selected point in each dimension.
    pub fn reduced() -> Self {
        GridSpec {
            optimizers: vec![OptimizerKind::Adam { lr: 0.001 }, OptimizerKind::Sgd { lr: 0.01 }],
            losses: vec![Loss::Mape, Loss::Mse],
            epochs: vec![100],
            neurons: vec![64, 128],
            l2s: vec![0.0, 0.01],
            layers: vec![2, 4],
        }
    }

    /// All configurations in the grid, in deterministic order.
    pub fn configurations(&self) -> Vec<NetworkConfig> {
        let mut out = Vec::with_capacity(self.len());
        for &optimizer in &self.optimizers {
            for &loss in &self.losses {
                for &epochs in &self.epochs {
                    for &neurons in &self.neurons {
                        for &l2 in &self.l2s {
                            for &hidden_layers in &self.layers {
                                out.push(NetworkConfig {
                                    hidden_layers,
                                    neurons,
                                    loss,
                                    optimizer,
                                    l2,
                                    epochs,
                                    ..NetworkConfig::default()
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The number of grid points.
    pub fn len(&self) -> usize {
        self.optimizers.len()
            * self.losses.len()
            * self.epochs.len()
            * self.neurons.len()
            * self.l2s.len()
            * self.layers.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One evaluated grid point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridPoint {
    /// The configuration evaluated.
    pub config: NetworkConfig,
    /// Cross-validated MSE (the selection criterion).
    pub mse: f64,
    /// Cross-validated MAPE (reported alongside).
    pub mape: f64,
}

/// Evaluates every grid point with `k`-fold cross-validation and returns the
/// points sorted by ascending MSE (best first), with the grid points fanned
/// out over `threads` workers.
///
/// Each worker evaluates whole configurations serially, reusing one
/// [`crate::Scratch`] training workspace across all configurations it
/// claims. Each configuration's cross-validation derives all of its seeds
/// from `(seed, iteration, fold)` alone, and results land in grid order and
/// are sorted once at the end, so the output is **bit-identical** for every
/// thread count (pinned by the determinism suite and a CI smoke run).
///
/// # Panics
///
/// Panics if the grid is empty or `threads` is zero.
pub fn grid_search(
    x: &Matrix,
    y: &Matrix,
    spec: &GridSpec,
    k: usize,
    seed: u64,
    threads: usize,
) -> Vec<GridPoint> {
    let configs = spec.configurations();
    assert!(!configs.is_empty(), "grid has no configurations");
    let mut points = parallel_map(threads, configs.len(), Scratch::new, |i, scratch| {
        let config = configs[i];
        let report = cross_validate_with(x, y, &config, k, 1, seed, scratch);
        GridPoint {
            config,
            mse: report.mse,
            mape: report.mape,
        }
    });
    points.sort_unstable_by(|a, b| a.mse.total_cmp(&b.mse));
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizeless_engine::RngStream;

    #[test]
    fn paper_grid_has_1296_points() {
        let g = GridSpec::paper();
        assert_eq!(g.len(), 1296);
        assert_eq!(g.configurations().len(), 1296);
        assert!(!g.is_empty());
    }

    #[test]
    fn configurations_cover_all_axes() {
        let g = GridSpec::reduced();
        let configs = g.configurations();
        assert_eq!(configs.len(), g.len());
        assert!(configs.iter().any(|c| c.hidden_layers == 2));
        assert!(configs.iter().any(|c| c.hidden_layers == 4));
        assert!(configs.iter().any(|c| c.loss == Loss::Mape));
        assert!(configs.iter().any(|c| c.l2 == 0.01));
    }

    #[test]
    fn grid_search_ranks_by_mse() {
        // Tiny grid + tiny learnable dataset: checks ordering, not accuracy.
        let mut rng = RngStream::from_seed(1, "grid-data");
        let n = 60;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.uniform(0.1, 1.0);
            xs.push(a);
            ys.push(2.0 * a + 0.5);
        }
        let x = Matrix::from_vec(n, 1, xs);
        let y = Matrix::from_vec(n, 1, ys);
        let spec = GridSpec {
            optimizers: vec![OptimizerKind::Adam { lr: 0.005 }],
            losses: vec![Loss::Mse],
            epochs: vec![30],
            neurons: vec![8, 16],
            l2s: vec![0.0],
            layers: vec![1, 2],
        };
        let points = grid_search(&x, &y, &spec, 3, 2, 2);
        assert_eq!(points.len(), 4);
        for w in points.windows(2) {
            assert!(w[0].mse <= w[1].mse, "not sorted");
        }
    }

    /// One worker or four, the ranked grid must come out bit-identical.
    #[test]
    fn parallel_grid_search_is_bit_identical_to_serial() {
        let mut rng = RngStream::from_seed(4, "grid-par");
        let n = 40;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.uniform(0.1, 1.0);
            xs.push(a);
            ys.push(a + 0.3);
        }
        let x = Matrix::from_vec(n, 1, xs);
        let y = Matrix::from_vec(n, 1, ys);
        let spec = GridSpec {
            optimizers: vec![OptimizerKind::Adam { lr: 0.005 }, OptimizerKind::Sgd { lr: 0.01 }],
            losses: vec![Loss::Mse],
            epochs: vec![15],
            neurons: vec![4, 8],
            l2s: vec![0.0],
            layers: vec![1],
        };
        let serial = grid_search(&x, &y, &spec, 3, 5, 1);
        let parallel = grid_search(&x, &y, &spec, 3, 5, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.mse.to_bits(), b.mse.to_bits());
            assert_eq!(a.mape.to_bits(), b.mape.to_bits());
        }
    }
}
