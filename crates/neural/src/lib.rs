//! A from-scratch dense neural-network library for multi-target regression.
//!
//! The paper's performance model is a small feed-forward network (Table 2:
//! Adam optimizer, MAPE loss, 200 epochs, 256 neurons, L2 = 0.01, 4 layers)
//! trained with Keras. Mature ML crates are not available in this
//! environment, so this crate implements the required subset exactly:
//!
//! * [`matrix`] — a minimal row-major matrix with the operations training
//!   needs.
//! * [`activation`] — ReLU / linear activations.
//! * [`loss`] — MSE, MAE, and MAPE losses with analytic gradients.
//! * [`optimizer`] — SGD, Adam, and Adagrad (the paper's grid).
//! * [`layer`] / [`network`] — dense layers and the full network with
//!   mini-batch training, L2 regularization, and deterministic seeding.
//! * [`scratch`] — the reusable training workspace that makes the
//!   mini-batch hot path allocation-free.
//! * [`parallel`] — deterministic multi-threaded fan-out for the search
//!   loops (bit-identical results for every thread count).
//! * [`scale`] — feature standardization.
//! * [`crossval`] — k-fold cross-validation (the paper runs 10×5-fold).
//! * [`grid`] — hyperparameter grid search (Table 2).
//! * [`selection`] — sequential forward feature selection (Figure 4).
//! * [`pdp`] — partial dependence computation (Figure 5).
//!
//! # Examples
//!
//! Learn `y = [2x₀, x₀ + x₁]`:
//!
//! ```
//! use sizeless_neural::prelude::*;
//!
//! let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.5, 0.5], &[1.0, 0.0], &[0.0, 1.0]]);
//! let y = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 1.0], &[0.0, 1.0]]);
//! let cfg = NetworkConfig {
//!     hidden_layers: 2,
//!     neurons: 16,
//!     epochs: 800,
//!     loss: Loss::Mse,
//!     l2: 0.0,
//!     batch_size: 4,
//!     ..NetworkConfig::default()
//! };
//! let mut net = NeuralNetwork::new(2, 2, &cfg, 7);
//! net.fit(&x, &y);
//! let pred = net.predict(&x);
//! assert!((pred.get(2, 0) - 2.0).abs() < 0.2);
//! ```

pub mod activation;
pub mod crossval;
pub mod grid;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod network;
pub mod optimizer;
pub mod parallel;
pub mod pdp;
pub mod scale;
pub mod scratch;
pub mod selection;
pub mod transfer;

/// Re-exports of the most used items.
pub mod prelude {
    pub use crate::activation::Activation;
    pub use crate::crossval::{cross_validate, CrossValReport, KFold};
    pub use crate::grid::{grid_search, GridPoint, GridSpec};
    pub use crate::loss::Loss;
    pub use crate::matrix::Matrix;
    pub use crate::network::{NetworkConfig, NeuralNetwork};
    pub use crate::optimizer::OptimizerKind;
    pub use crate::pdp::partial_dependence;
    pub use crate::scale::StandardScaler;
    pub use crate::scratch::Scratch;
    pub use crate::selection::{forward_selection, SelectionResult};
}

pub use activation::Activation;
pub use crossval::{cross_validate, CrossValReport, KFold};
pub use grid::{grid_search, GridPoint, GridSpec};
pub use loss::Loss;
pub use matrix::Matrix;
pub use network::{NetworkConfig, NeuralNetwork};
pub use optimizer::OptimizerKind;
pub use scale::StandardScaler;
pub use scratch::Scratch;
pub use selection::{forward_selection, SelectionResult};
