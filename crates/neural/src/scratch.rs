//! A reusable training workspace.
//!
//! Mini-batch training needs a handful of intermediate matrices per step:
//! the batch slices, one activation matrix per layer, the backpropagated
//! gradient, and the parameter-gradient buffers. Allocating them afresh
//! every batch dominated the old hot path; a [`Scratch`] owns them all and
//! reuses their allocations across batches, epochs, folds, and even
//! networks (buffers are reshaped on the fly by the `*_into` kernels).
//!
//! [`crate::network::NeuralNetwork::fit`] creates a `Scratch` internally;
//! long-running drivers (cross-validation, grid search) hold one per worker
//! thread and pass it to
//! [`fit_with`](crate::network::NeuralNetwork::fit_with) so *zero* matrix
//! allocations happen after the first training step at a given shape.
//!
//! # Examples
//!
//! ```
//! use sizeless_neural::{Loss, Matrix, NetworkConfig, NeuralNetwork, Scratch};
//!
//! let x = Matrix::from_rows(&[&[0.0], &[0.5], &[1.0], &[1.5]]);
//! let y = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
//! let cfg = NetworkConfig {
//!     hidden_layers: 1,
//!     neurons: 8,
//!     epochs: 200,
//!     loss: Loss::Mse,
//!     l2: 0.0,
//!     batch_size: 4,
//!     ..NetworkConfig::default()
//! };
//!
//! // One workspace, many networks: the second fit reuses every buffer.
//! let mut scratch = Scratch::new();
//! let mut net_a = NeuralNetwork::new(1, 1, &cfg, 1);
//! net_a.fit_with(&x, &y, &mut scratch);
//! let mut net_b = NeuralNetwork::new(1, 1, &cfg, 2);
//! net_b.fit_with(&x, &y, &mut scratch);
//!
//! // Results are identical to the scratch-free path.
//! let mut net_c = NeuralNetwork::new(1, 1, &cfg, 2);
//! net_c.fit(&x, &y);
//! assert_eq!(net_b.predict_one(&[0.75]), net_c.predict_one(&[0.75]));
//! ```

use crate::matrix::Matrix;

/// Reusable buffers for one training worker.
///
/// Holding a `Scratch` across [`fit_with`] calls makes mini-batch training
/// allocation-free after warmup. A `Scratch` is cheap to create (all
/// buffers start empty and grow on demand) and intentionally **not**
/// shareable between threads — each worker owns one.
///
/// [`fit_with`]: crate::network::NeuralNetwork::fit_with
#[derive(Debug)]
pub struct Scratch {
    /// Post-activation output of every layer for the current batch.
    pub(crate) acts: Vec<Matrix>,
    /// Gradient flowing backwards (∂L/∂output of the current layer).
    pub(crate) delta: Matrix,
    /// Ping-pong buffer for the gradient w.r.t. the layer input.
    pub(crate) delta_next: Matrix,
    /// Weight-gradient buffer, reshaped per layer.
    pub(crate) d_w: Matrix,
    /// Bias-gradient buffer.
    pub(crate) d_b: Vec<f64>,
    /// Staging buffer for a layer's transposed weights (`Wᵀ`).
    pub(crate) w_t: Matrix,
    /// Mini-batch slice of the inputs.
    pub(crate) xb: Matrix,
    /// Mini-batch slice of the targets.
    pub(crate) yb: Matrix,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch::new()
    }
}

impl Scratch {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Scratch {
            acts: Vec::new(),
            delta: Matrix::zeros(0, 0),
            delta_next: Matrix::zeros(0, 0),
            d_w: Matrix::zeros(0, 0),
            d_b: Vec::new(),
            w_t: Matrix::zeros(0, 0),
            xb: Matrix::zeros(0, 0),
            yb: Matrix::zeros(0, 0),
        }
    }

    /// Ensures one activation buffer per layer exists.
    pub(crate) fn ensure_layers(&mut self, layers: usize) {
        while self.acts.len() < layers {
            self.acts.push(Matrix::zeros(0, 0));
        }
    }
}
