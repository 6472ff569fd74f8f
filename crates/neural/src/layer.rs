//! A dense (fully connected) layer.
//!
//! Forward and backward passes write into caller-owned buffers (see
//! [`crate::scratch::Scratch`]): the layer itself caches nothing, clones
//! nothing, and allocates nothing — all intermediates live in the reusable
//! workspace threaded through by the network.

use crate::activation::Activation;
use crate::matrix::Matrix;
use crate::optimizer::{OptimizerKind, OptimizerState};
use serde::{Deserialize, Serialize};
use sizeless_engine::RngStream;

/// A dense layer `a = act(x·W + b)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    weights: Matrix, // input_dim × output_dim
    bias: Vec<f64>,
    activation: Activation,
    w_state: OptimizerState,
    b_state: OptimizerState,
}

impl Dense {
    /// Creates a He-initialized layer.
    pub fn new(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        optimizer: OptimizerKind,
        rng: &mut RngStream,
    ) -> Self {
        Dense {
            weights: Matrix::he_init(input_dim, output_dim, rng),
            bias: vec![0.0; output_dim],
            activation,
            w_state: optimizer.state(input_dim * output_dim),
            b_state: optimizer.state(output_dim),
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The weight matrix (for inspection and tests).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Forward pass into a reusable buffer: `out = act(x·W + b)`.
    ///
    /// Allocation-free after warmup; used for both inference and training
    /// (the training caller keeps `out` around as this layer's cached
    /// activation).
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.weights, out);
        out.add_row_broadcast(&self.bias);
        self.activation.forward_inplace(out);
    }

    /// Allocating forward pass (convenience for tests and small callers).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, &mut out);
        out
    }

    /// Backward pass with zero intermediate allocations.
    ///
    /// * `input` — the batch this layer saw in the forward pass;
    /// * `output` — this layer's post-activation output from that pass;
    /// * `delta` — on entry ∂L/∂output; overwritten in place with
    ///   ∂L/∂z via the activation derivative;
    /// * `grad_input` — if present, receives ∂L/∂input (skip for the
    ///   first trainable layer, where nothing consumes it);
    /// * `d_w` / `d_b` / `w_t` — caller-owned work buffers, fully
    ///   overwritten (`w_t` stages the transposed weights).
    ///
    /// Applies the optimizer update (with L2 on weights, not biases)
    /// before returning. The weight gradient uses the fused `inputᵀ·δ`
    /// kernel; the input gradient stages `Wᵀ` in `w_t` and runs the
    /// FMA-tiled [`Matrix::matmul_into`], which at training shapes is
    /// substantially faster than a dot-product `δ·Wᵀ` kernel (that form
    /// cannot use SIMD loads).
    #[allow(clippy::too_many_arguments)]
    pub fn backward_into(
        &mut self,
        input: &Matrix,
        output: &Matrix,
        delta: &mut Matrix,
        grad_input: Option<&mut Matrix>,
        d_w: &mut Matrix,
        d_b: &mut Vec<f64>,
        w_t: &mut Matrix,
        l2: f64,
    ) {
        // δ = grad_output ⊙ act'(z), in place.
        self.activation.apply_derivative(output, delta);

        // Parameter gradients. L2 matches the Keras convention: the penalty
        // λ‖W‖² is added per batch, contributing 2λW to the gradient.
        input.matmul_transpose_a_into(delta, d_w);
        if l2 > 0.0 {
            d_w.add_scaled(&self.weights, 2.0 * l2);
        }
        delta.column_sums_into(d_b);

        if let Some(grad_input) = grad_input {
            self.weights.transpose_into(w_t);
            delta.matmul_into(w_t, grad_input);
        }

        self.w_state.step(self.weights.data_mut(), d_w.data());
        self.b_state.step(&mut self.bias, d_b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;

    fn rng() -> RngStream {
        RngStream::from_seed(11, "layer-test")
    }

    /// One training step through the scratch-style API.
    fn train_step(layer: &mut Dense, x: &Matrix, grad_out: &Matrix, l2: f64) -> Matrix {
        let out = layer.forward(x);
        let mut delta = grad_out.clone();
        let mut grad_input = Matrix::zeros(0, 0);
        let mut d_w = Matrix::zeros(0, 0);
        let mut d_b = Vec::new();
        let mut w_t = Matrix::zeros(0, 0);
        layer.backward_into(
            x,
            &out,
            &mut delta,
            Some(&mut grad_input),
            &mut d_w,
            &mut d_b,
            &mut w_t,
            l2,
        );
        grad_input
    }

    #[test]
    fn forward_shape() {
        let mut r = rng();
        let layer = Dense::new(3, 5, Activation::Relu, OptimizerKind::Sgd { lr: 0.1 }, &mut r);
        let x = Matrix::zeros(4, 3);
        let y = layer.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 5));
        assert_eq!(layer.input_dim(), 3);
        assert_eq!(layer.output_dim(), 5);
    }

    /// End-to-end gradient check of one linear layer against finite
    /// differences of the MSE loss.
    #[test]
    fn weight_gradients_match_finite_differences() {
        let mut r = rng();
        let layer =
            Dense::new(2, 2, Activation::Linear, OptimizerKind::Sgd { lr: 0.0 }, &mut r);
        let x = Matrix::from_rows(&[&[0.4, -0.3], &[1.2, 0.8]]);
        let t = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);

        let pred = layer.forward(&x);
        // The backward pass leaves the parameter gradients in its work
        // buffers; at a zero learning rate its update changes nothing.
        let mut delta = Loss::Mse.gradient(&t, &pred);
        let (mut d_w, mut d_b, mut w_t) = (Matrix::zeros(0, 0), Vec::new(), Matrix::zeros(0, 0));
        layer.clone().backward_into(
            &x, &pred, &mut delta, None, &mut d_w, &mut d_b, &mut w_t, 0.0,
        );

        let h = 1e-6;
        // Check each weight.
        for i in 0..4 {
            let mut perturbed = layer.clone();
            perturbed.weights.data_mut()[i] += h;
            let up = Loss::Mse.value(&t, &perturbed.forward(&x));
            let mut perturbed = layer.clone();
            perturbed.weights.data_mut()[i] -= h;
            let down = Loss::Mse.value(&t, &perturbed.forward(&x));
            let numeric = (up - down) / (2.0 * h);
            assert!(
                (d_w.data()[i] - numeric).abs() < 1e-5,
                "w[{i}]: analytic {} vs numeric {numeric}",
                d_w.data()[i]
            );
        }
        // Check each bias.
        for (i, &analytic) in d_b.iter().enumerate().take(2) {
            let mut perturbed = layer.clone();
            perturbed.bias[i] += h;
            let up = Loss::Mse.value(&t, &perturbed.forward(&x));
            let mut perturbed = layer.clone();
            perturbed.bias[i] -= h;
            let down = Loss::Mse.value(&t, &perturbed.forward(&x));
            let numeric = (up - down) / (2.0 * h);
            assert!((analytic - numeric).abs() < 1e-5, "b[{i}]");
        }
    }

    #[test]
    fn relu_layer_backward_masks_dead_units() {
        let mut r = rng();
        let mut layer =
            Dense::new(1, 1, Activation::Relu, OptimizerKind::Sgd { lr: 0.0 }, &mut r);
        // Force a negative pre-activation.
        layer.weights.set(0, 0, -1.0);
        let x = Matrix::from_rows(&[&[1.0]]);
        let out = layer.forward(&x);
        assert_eq!(out.get(0, 0), 0.0);
        let grad_in = train_step(&mut layer, &x, &Matrix::from_rows(&[&[1.0]]), 0.0);
        assert_eq!(grad_in.get(0, 0), 0.0, "dead ReLU passes no gradient");
    }

    #[test]
    fn backward_updates_parameters() {
        let mut r = rng();
        let mut layer =
            Dense::new(2, 1, Activation::Linear, OptimizerKind::Sgd { lr: 0.5 }, &mut r);
        let before = layer.weights.clone();
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        let _ = train_step(&mut layer, &x, &Matrix::from_rows(&[&[1.0]]), 0.0);
        assert_ne!(layer.weights, before);
    }

    #[test]
    fn l2_decays_weights_even_with_zero_data_gradient() {
        let mut r = rng();
        let mut layer =
            Dense::new(1, 1, Activation::Linear, OptimizerKind::Sgd { lr: 0.1 }, &mut r);
        layer.weights.set(0, 0, 1.0);
        let x = Matrix::from_rows(&[&[0.0]]); // zero input → zero data grad
        let _ = train_step(&mut layer, &x, &Matrix::from_rows(&[&[0.0]]), 0.1);
        assert!(layer.weights.get(0, 0) < 1.0, "L2 should shrink the weight");
    }

    /// The scratch-style backward must produce the same update as the
    /// textbook formulation computed with allocating ops.
    #[test]
    fn backward_into_matches_textbook_gradients() {
        let mut r = rng();
        let mut layer =
            Dense::new(3, 2, Activation::Relu, OptimizerKind::Sgd { lr: 0.1 }, &mut r);
        let reference_w = {
            let x = Matrix::from_rows(&[&[0.2, -0.4, 0.9], &[1.1, 0.3, -0.6]]);
            let grad_out = Matrix::from_rows(&[&[0.5, -0.2], &[0.1, 0.7]]);
            let pre = {
                let mut z = x.matmul(layer.weights());
                z.add_row_broadcast(&layer.bias);
                z
            };
            let mut delta = grad_out.clone();
            delta.hadamard_inplace(&Activation::Relu.derivative(&pre));
            let mut d_w = x.transpose().matmul(&delta);
            d_w.add_scaled(layer.weights(), 2.0 * 0.01);
            let mut w = layer.weights().clone();
            w.add_scaled(&d_w, -0.1); // SGD step
            w
        };
        let x = Matrix::from_rows(&[&[0.2, -0.4, 0.9], &[1.1, 0.3, -0.6]]);
        let _ = train_step(
            &mut layer,
            &x,
            &Matrix::from_rows(&[&[0.5, -0.2], &[0.1, 0.7]]),
            0.01,
        );
        for (a, b) in layer.weights().data().iter().zip(reference_w.data()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }
}
