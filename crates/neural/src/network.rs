//! The feed-forward network with mini-batch training.

use crate::activation::Activation;
use crate::layer::Dense;
use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::optimizer::OptimizerKind;
use crate::scratch::Scratch;
use serde::{Deserialize, Serialize};
use sizeless_engine::RngStream;

/// Network hyperparameters.
///
/// The defaults are the configuration selected by the paper's grid search
/// (Table 2): Adam, MAPE loss, 200 epochs, 256 neurons, L2 = 0.01, 4 hidden
/// layers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Number of hidden layers.
    pub hidden_layers: usize,
    /// Neurons per hidden layer.
    pub neurons: usize,
    /// Hidden activation.
    pub activation: Activation,
    /// Training loss.
    pub loss: Loss,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// L2 weight regularization strength.
    pub l2: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            hidden_layers: 4,
            neurons: 256,
            activation: Activation::Relu,
            loss: Loss::Mape,
            optimizer: OptimizerKind::Adam { lr: 0.001 },
            l2: 0.01,
            epochs: 200,
            batch_size: 32,
        }
    }
}

impl NetworkConfig {
    /// The paper's *initial* model used during feature selection: 3 layers
    /// of 128 neurons, 200 epochs (Section 3.4).
    pub fn feature_selection_baseline() -> Self {
        NetworkConfig {
            hidden_layers: 3,
            neurons: 128,
            l2: 0.0,
            loss: Loss::Mse,
            ..NetworkConfig::default()
        }
    }
}

/// A trained (or trainable) feed-forward network.
///
/// Serializable so a trained model can ship as an artifact (see
/// `sizeless_core`'s `TrainedSizer`): weights, optimizer state, and the
/// training-loss history all round-trip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeuralNetwork {
    layers: Vec<Dense>,
    config: NetworkConfig,
    seed: u64,
    epoch_losses: Vec<f64>,
}

impl NeuralNetwork {
    /// Builds an untrained network with He-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or hyperparameter is zero.
    pub fn new(input_dim: usize, output_dim: usize, config: &NetworkConfig, seed: u64) -> Self {
        assert!(input_dim > 0 && output_dim > 0, "dimensions must be positive");
        assert!(
            config.hidden_layers > 0 && config.neurons > 0,
            "network needs at least one hidden layer and neuron"
        );
        assert!(
            config.epochs > 0 && config.batch_size > 0,
            "epochs and batch size must be positive"
        );
        let rng = RngStream::from_seed(seed, "nn-init");
        let mut layers = Vec::with_capacity(config.hidden_layers + 1);
        let mut dim = input_dim;
        for i in 0..config.hidden_layers {
            let mut layer_rng = rng.derive(&format!("layer-{i}"));
            layers.push(Dense::new(
                dim,
                config.neurons,
                config.activation,
                config.optimizer,
                &mut layer_rng,
            ));
            dim = config.neurons;
        }
        let mut out_rng = rng.derive("output");
        layers.push(Dense::new(
            dim,
            output_dim,
            Activation::Linear,
            config.optimizer,
            &mut out_rng,
        ));
        NeuralNetwork {
            layers,
            config: *config,
            seed,
            epoch_losses: Vec::new(),
        }
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        // lint: allow(panic003) reason="the constructor always pushes the output layer, so layers is non-empty"
        self.layers[0].input_dim()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        // lint: allow(panic002) reason="the constructor always pushes the output layer, so layers is non-empty"
        self.layers.last().expect("at least one layer").output_dim()
    }

    /// Mean training loss per epoch, recorded by [`NeuralNetwork::fit`].
    pub fn epoch_losses(&self) -> &[f64] {
        &self.epoch_losses
    }

    /// Trains on `(x, y)` for the configured number of epochs.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or empty input.
    pub fn fit(&mut self, x: &Matrix, y: &Matrix) {
        self.fit_with(x, y, &mut Scratch::new());
    }

    /// Trains on `(x, y)` reusing a caller-owned [`Scratch`] workspace.
    ///
    /// Identical to [`NeuralNetwork::fit`] bit-for-bit, but callers that
    /// train many networks (cross-validation folds, grid-search workers)
    /// amortize every intermediate buffer across all of them: after the
    /// first batch at a given shape the training loop performs zero matrix
    /// allocations.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or empty input.
    pub fn fit_with(&mut self, x: &Matrix, y: &Matrix, scratch: &mut Scratch) {
        assert_eq!(x.rows(), y.rows(), "x and y row counts differ");
        assert_eq!(x.cols(), self.input_dim(), "x column count mismatch");
        assert_eq!(y.cols(), self.output_dim(), "y column count mismatch");
        assert!(x.rows() > 0, "cannot train on an empty dataset");

        let mut shuffle_rng = RngStream::from_seed(self.seed, "nn-shuffle");
        let n = x.rows();
        let mut order: Vec<usize> = (0..n).collect();
        self.epoch_losses.clear();
        self.epoch_losses.reserve(self.config.epochs);

        for _ in 0..self.config.epochs {
            shuffle_rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                x.select_rows_into(chunk, &mut scratch.xb);
                y.select_rows_into(chunk, &mut scratch.yb);
                epoch_loss += self.train_batch(scratch, 0);
                batches += 1;
            }
            self.epoch_losses.push(epoch_loss / batches.max(1) as f64);
        }
    }

    /// One forward + backward pass over the batch staged in
    /// `scratch.xb`/`scratch.yb`, updating every layer from `frozen`
    /// upwards. Returns the batch loss. Shared by [`NeuralNetwork::fit`]
    /// and fine-tuning (`frozen > 0`).
    pub(crate) fn train_batch(&mut self, scratch: &mut Scratch, frozen: usize) -> f64 {
        let layer_count = self.layers.len();
        scratch.ensure_layers(layer_count);

        // Forward: activations for layer l land in scratch.acts[l].
        for (l, layer) in self.layers.iter().enumerate() {
            let (prev, rest) = scratch.acts.split_at_mut(l);
            let input: &Matrix = if l == 0 { &scratch.xb } else { &prev[l - 1] };
            // lint: allow(panic003) reason="split_at_mut(l) with l < len leaves a non-empty tail"
            layer.forward_into(input, &mut rest[0]);
        }

        let pred = &scratch.acts[layer_count - 1];
        let loss = self.config.loss.value(&scratch.yb, pred);
        self.config
            .loss
            .gradient_into(&scratch.yb, pred, &mut scratch.delta);

        // Backward: δ ping-pongs between the two delta buffers; the
        // gradient w.r.t. the input of layer `frozen` is never needed.
        for l in (frozen..layer_count).rev() {
            let (prev, rest) = scratch.acts.split_at_mut(l);
            let input: &Matrix = if l == 0 { &scratch.xb } else { &prev[l - 1] };
            // lint: allow(panic003) reason="split_at_mut(l) with l < len leaves a non-empty tail"
            let output = &rest[0];
            let grad_input = if l > frozen {
                Some(&mut scratch.delta_next)
            } else {
                None
            };
            self.layers[l].backward_into(
                input,
                output,
                &mut scratch.delta,
                grad_input,
                &mut scratch.d_w,
                &mut scratch.d_b,
                &mut scratch.w_t,
                self.config.l2,
            );
            if l > frozen {
                std::mem::swap(&mut scratch.delta, &mut scratch.delta_next);
            }
        }
        loss
    }

    /// Predicts outputs for a batch of inputs.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` differs from the input dimension.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_dim(), "x column count mismatch");
        // Two ping-pong activation buffers; the layers stay untouched (the
        // old implementation cloned every weight matrix per call).
        let mut a = Matrix::zeros(0, 0);
        let mut b = Matrix::zeros(0, 0);
        // lint: allow(panic003) reason="the constructor always pushes the output layer, so layers is non-empty"
        self.layers[0].forward_into(x, &mut a);
        for layer in &self.layers[1..] {
            layer.forward_into(&a, &mut b);
            std::mem::swap(&mut a, &mut b);
        }
        a
    }

    /// Predicts a single row.
    pub fn predict_one(&self, x: &[f64]) -> Vec<f64> {
        let m = Matrix::from_rows(&[x]);
        self.predict(&m).row(0).to_vec()
    }

    /// The seed the network was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub(crate) fn layers(&self) -> &[Dense] {
        &self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> NetworkConfig {
        NetworkConfig {
            hidden_layers: 2,
            neurons: 24,
            loss: Loss::Mse,
            l2: 0.0,
            epochs: 300,
            batch_size: 8,
            ..NetworkConfig::default()
        }
    }

    /// y = [2a, a+b] — multi-target linear map.
    fn linear_dataset(n: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = RngStream::from_seed(seed, "nn-data");
        let mut xs = Vec::with_capacity(n * 2);
        let mut ys = Vec::with_capacity(n * 2);
        for _ in 0..n {
            let a = rng.uniform(0.0, 1.0);
            let b = rng.uniform(0.0, 1.0);
            xs.extend_from_slice(&[a, b]);
            ys.extend_from_slice(&[2.0 * a, a + b]);
        }
        (Matrix::from_vec(n, 2, xs), Matrix::from_vec(n, 2, ys))
    }

    #[test]
    fn learns_multi_target_linear_map() {
        let (x, y) = linear_dataset(200, 1);
        let mut net = NeuralNetwork::new(2, 2, &small_config(), 2);
        net.fit(&x, &y);
        let pred = net.predict(&x);
        let mse = Loss::Mse.value(&y, &pred);
        assert!(mse < 0.01, "mse={mse}");
    }

    #[test]
    fn learns_nonlinear_function() {
        // y = a² (needs the hidden nonlinearity).
        let mut rng = RngStream::from_seed(3, "nn-sq");
        let n = 300;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.uniform(-1.0, 1.0);
            xs.push(a);
            ys.push(a * a);
        }
        let x = Matrix::from_vec(n, 1, xs);
        let y = Matrix::from_vec(n, 1, ys);
        let mut net = NeuralNetwork::new(1, 1, &small_config(), 4);
        net.fit(&x, &y);
        let mse = Loss::Mse.value(&y, &net.predict(&x));
        assert!(mse < 0.01, "mse={mse}");
    }

    #[test]
    fn training_loss_decreases() {
        let (x, y) = linear_dataset(100, 5);
        let mut net = NeuralNetwork::new(2, 2, &small_config(), 6);
        net.fit(&x, &y);
        let losses = net.epoch_losses();
        assert_eq!(losses.len(), 300);
        let first10: f64 = losses[..10].iter().sum();
        let last10: f64 = losses[losses.len() - 10..].iter().sum();
        assert!(last10 < first10 * 0.2, "loss should drop substantially");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (x, y) = linear_dataset(50, 7);
        let train = |seed| {
            let mut net = NeuralNetwork::new(2, 2, &small_config(), seed);
            net.fit(&x, &y);
            net.predict_one(&[0.3, 0.7])
        };
        assert_eq!(train(9), train(9));
        assert_ne!(train(9), train(10));
    }

    #[test]
    fn mape_loss_trains_on_ratio_targets() {
        // MAPE-trained network on strictly positive ratio-like targets —
        // the paper's actual setting.
        let mut rng = RngStream::from_seed(8, "nn-mape");
        let n = 200;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.uniform(0.1, 1.0);
            xs.push(a);
            ys.push(0.5 + a); // ratios in [0.6, 1.5]
        }
        let x = Matrix::from_vec(n, 1, xs);
        let y = Matrix::from_vec(n, 1, ys.clone());
        let cfg = NetworkConfig {
            loss: Loss::Mape,
            epochs: 400,
            ..small_config()
        };
        let mut net = NeuralNetwork::new(1, 1, &cfg, 11);
        net.fit(&x, &y);
        let mape = Loss::Mape.value(&y, &net.predict(&x));
        assert!(mape < 0.05, "mape={mape}");
    }

    #[test]
    fn network_shape_accessors() {
        let net = NeuralNetwork::new(13, 5, &NetworkConfig::default(), 0);
        assert_eq!(net.input_dim(), 13);
        assert_eq!(net.output_dim(), 5);
    }

    #[test]
    fn feature_selection_baseline_matches_paper() {
        let cfg = NetworkConfig::feature_selection_baseline();
        assert_eq!(cfg.hidden_layers, 3);
        assert_eq!(cfg.neurons, 128);
        assert_eq!(cfg.epochs, 200);
    }

    #[test]
    fn default_config_matches_table_2() {
        let cfg = NetworkConfig::default();
        assert_eq!(cfg.hidden_layers, 4);
        assert_eq!(cfg.neurons, 256);
        assert_eq!(cfg.l2, 0.01);
        assert_eq!(cfg.epochs, 200);
        assert_eq!(cfg.loss, Loss::Mape);
        assert!(matches!(cfg.optimizer, OptimizerKind::Adam { .. }));
    }

    #[test]
    #[should_panic(expected = "row counts differ")]
    fn mismatched_dataset_panics() {
        let mut net = NeuralNetwork::new(2, 1, &small_config(), 0);
        let x = Matrix::zeros(3, 2);
        let y = Matrix::zeros(2, 1);
        net.fit(&x, &y);
    }
}
