//! Transfer learning: freeze the early layers, retrain the rest.
//!
//! The paper's limitations section proposes exactly this for model
//! longevity: "one could explore transfer learning techniques that freeze
//! the initial layers of our model and retrain only with a much smaller new
//! dataset" after a provider-side change invalidates the model.

use crate::matrix::Matrix;
use crate::network::NeuralNetwork;
use crate::scratch::Scratch;
use sizeless_engine::RngStream;

impl NeuralNetwork {
    /// Fine-tunes this trained network on a (typically much smaller) new
    /// dataset, keeping the first `frozen_layers` layers fixed.
    ///
    /// Frozen layers still participate in the forward pass; only the
    /// remaining layers receive optimizer updates. Training runs for
    /// `epochs` epochs with the network's configured loss, batch size, and
    /// L2.
    ///
    /// # Panics
    ///
    /// Panics if `frozen_layers` is not smaller than the number of layers,
    /// or on dataset shape mismatch.
    pub fn fine_tune(&mut self, x: &Matrix, y: &Matrix, frozen_layers: usize, epochs: usize) {
        self.fine_tune_with(x, y, frozen_layers, epochs, 0, &mut Scratch::new());
    }

    /// The streaming entry point behind [`NeuralNetwork::fine_tune`]: one
    /// fine-tuning *round* over `(x, y)` with a caller-owned [`Scratch`]
    /// workspace, for adapters that feed small observation batches as they
    /// arrive (e.g. an online sizing control plane digesting post-resize
    /// windows).
    ///
    /// `round` salts the shuffle stream so successive rounds visit their
    /// batches in fresh orders while staying fully deterministic: the same
    /// `(network seed, round)` pair always shuffles identically, and round 0
    /// is bit-identical to [`NeuralNetwork::fine_tune`]. The scratch
    /// workspace is reused across rounds — after the first round at a given
    /// shape, a round performs zero matrix allocations.
    ///
    /// # Panics
    ///
    /// Panics if `frozen_layers` is not smaller than the number of layers,
    /// or on dataset shape mismatch.
    pub fn fine_tune_with(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        frozen_layers: usize,
        epochs: usize,
        round: u64,
        scratch: &mut Scratch,
    ) {
        let total_layers = self.layer_count();
        assert!(
            frozen_layers < total_layers,
            "must leave at least one trainable layer ({frozen_layers} >= {total_layers})"
        );
        assert_eq!(x.rows(), y.rows(), "x and y row counts differ");
        assert_eq!(x.cols(), self.input_dim(), "x column count mismatch");
        assert_eq!(y.cols(), self.output_dim(), "y column count mismatch");
        assert!(x.rows() > 0, "cannot fine-tune on an empty dataset");

        let config = *self.config();
        // Golden-ratio round salt keeps round 0 on the historical stream.
        let salt = round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut shuffle_rng = RngStream::from_seed(self.seed() ^ 0xF17E ^ salt, "nn-finetune");
        let mut order: Vec<usize> = (0..x.rows()).collect();

        for _ in 0..epochs {
            shuffle_rng.shuffle(&mut order);
            for chunk in order.chunks(config.batch_size) {
                x.select_rows_into(chunk, &mut scratch.xb);
                y.select_rows_into(chunk, &mut scratch.yb);
                // Frozen layers participate in the forward pass; the
                // backward pass stops at the first trainable layer.
                let _ = self.train_batch(scratch, frozen_layers);
            }
        }
    }
}

// Accessors used by fine-tuning live here so `network.rs` stays focused on
// the standard training loop.
impl NeuralNetwork {
    /// The number of layers (hidden + output).
    pub fn layer_count(&self) -> usize {
        self.layers().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;
    use crate::network::NetworkConfig;

    fn dataset(slope: f64, n: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = RngStream::from_seed(seed, "transfer-data");
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.uniform(0.1, 1.0);
            xs.push(a);
            ys.push(slope * a + 0.2);
        }
        (Matrix::from_vec(n, 1, xs), Matrix::from_vec(n, 1, ys))
    }

    fn config() -> NetworkConfig {
        NetworkConfig {
            hidden_layers: 3,
            neurons: 24,
            loss: Loss::Mse,
            l2: 0.0,
            epochs: 250,
            batch_size: 16,
            ..NetworkConfig::default()
        }
    }

    #[test]
    fn fine_tuning_adapts_to_a_shifted_task() {
        // Train on slope 2, then the "platform changes" to slope 3.
        let (x_old, y_old) = dataset(2.0, 200, 1);
        let (x_new, y_new) = dataset(3.0, 40, 2); // much smaller new dataset
        let mut net = NeuralNetwork::new(1, 1, &config(), 3);
        net.fit(&x_old, &y_old);
        let before = Loss::Mse.value(&y_new, &net.predict(&x_new));

        net.fine_tune(&x_new, &y_new, 1, 150);
        let after = Loss::Mse.value(&y_new, &net.predict(&x_new));
        assert!(
            after < before * 0.3,
            "fine-tuning should adapt: before {before:.4}, after {after:.4}"
        );
    }

    #[test]
    fn frozen_layers_do_not_change() {
        let (x, y) = dataset(2.0, 100, 4);
        let mut net = NeuralNetwork::new(1, 1, &config(), 5);
        net.fit(&x, &y);
        let frozen_before = net.layers()[0].weights().clone();
        let last_before = net.layers()[net.layer_count() - 1].weights().clone();

        let (x2, y2) = dataset(3.0, 30, 6);
        net.fine_tune(&x2, &y2, 2, 50);

        assert_eq!(
            net.layers()[0].weights(),
            &frozen_before,
            "frozen layer must not move"
        );
        assert_ne!(
            net.layers()[net.layer_count() - 1].weights(),
            &last_before,
            "trainable layer must move"
        );
    }

    #[test]
    fn fine_tuning_with_small_data_beats_training_from_scratch_on_it() {
        // The motivation for transfer learning: 30 new samples are too few
        // to train from scratch but enough to adapt a pretrained model.
        let (x_old, y_old) = dataset(2.0, 300, 7);
        let (x_new, y_new) = dataset(2.6, 30, 8);
        let (x_eval, y_eval) = dataset(2.6, 200, 9);

        let mut pretrained = NeuralNetwork::new(1, 1, &config(), 10);
        pretrained.fit(&x_old, &y_old);
        pretrained.fine_tune(&x_new, &y_new, 1, 120);
        let transfer_err = Loss::Mse.value(&y_eval, &pretrained.predict(&x_eval));

        let mut scratch = NeuralNetwork::new(
            1,
            1,
            &NetworkConfig {
                epochs: 120,
                ..config()
            },
            11,
        );
        scratch.fit(&x_new, &y_new);
        let scratch_err = Loss::Mse.value(&y_eval, &scratch.predict(&x_eval));

        assert!(
            transfer_err < scratch_err,
            "transfer {transfer_err:.5} vs scratch {scratch_err:.5}"
        );
    }

    #[test]
    fn round_zero_matches_fine_tune_and_rounds_are_deterministic() {
        let (x_old, y_old) = dataset(2.0, 120, 20);
        let (x_new, y_new) = dataset(2.8, 24, 21);
        let mut base = NeuralNetwork::new(1, 1, &config(), 22);
        base.fit(&x_old, &y_old);

        let mut a = base.clone();
        a.fine_tune(&x_new, &y_new, 1, 20);
        let mut b = base.clone();
        b.fine_tune_with(&x_new, &y_new, 1, 20, 0, &mut Scratch::new());
        assert_eq!(a, b, "round 0 must be bit-identical to fine_tune");

        // Successive rounds with a shared scratch replay bit-identically.
        let run = || {
            let mut net = base.clone();
            let mut scratch = Scratch::new();
            for round in 0..3u64 {
                net.fine_tune_with(&x_new, &y_new, 1, 8, round, &mut scratch);
            }
            net
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least one trainable layer")]
    fn freezing_everything_panics() {
        let (x, y) = dataset(2.0, 20, 12);
        let mut net = NeuralNetwork::new(1, 1, &config(), 13);
        net.fit(&x, &y);
        net.fine_tune(&x, &y, net.layer_count(), 10);
    }
}
