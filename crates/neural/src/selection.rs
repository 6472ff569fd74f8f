//! Sequential forward feature selection — the engine behind the paper's
//! Figure 4.
//!
//! Starting from an empty set, each round adds the candidate feature whose
//! inclusion minimizes cross-validated MSE. The resulting error-vs-feature-
//! count curve is exactly what Figure 4 plots for the three selection
//! rounds (F0 → F1, F2 → F3, F3+stats → F4).

use crate::crossval::cross_validate_with;
use crate::matrix::Matrix;
use crate::network::NetworkConfig;
use crate::parallel::parallel_map;
use serde::{Deserialize, Serialize};

/// The outcome of a forward-selection run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectionResult {
    /// Feature indices in the order they were selected.
    pub order: Vec<usize>,
    /// Cross-validated MSE after adding each feature (same length as
    /// `order`).
    pub mse_curve: Vec<f64>,
}

impl SelectionResult {
    /// The feature subset that minimizes the MSE curve (ties resolve to the
    /// smaller subset).
    pub fn best_subset(&self) -> &[usize] {
        let best = self
            .mse_curve
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        &self.order[..=best]
    }

    /// The MSE of the best subset.
    ///
    /// # Panics
    ///
    /// Panics if the run selected no features.
    pub fn best_mse(&self) -> f64 {
        let k = self.best_subset().len();
        self.mse_curve[k - 1]
    }
}

/// Runs sequential forward selection over `candidates` (column indices of
/// `x`), scoring subsets with `k`-fold cross-validation, until `max_features`
/// are selected or candidates run out.
///
/// Candidate scoring within each round fans out over `threads` workers.
/// The selection is bit-identical for every thread count: every candidate's
/// cross-validation seed depends only on `(seed, round, candidate)`, and
/// the round winner is reduced in candidate order.
///
/// # Panics
///
/// Panics if `candidates` is empty, `max_features` is zero, or `threads`
/// is zero.
#[allow(clippy::too_many_arguments)]
pub fn forward_selection(
    x: &Matrix,
    y: &Matrix,
    candidates: &[usize],
    config: &NetworkConfig,
    k: usize,
    max_features: usize,
    seed: u64,
    threads: usize,
) -> SelectionResult {
    assert!(!candidates.is_empty(), "no candidate features");
    assert!(max_features > 0, "must select at least one feature");

    let mut remaining: Vec<usize> = candidates.to_vec();
    let mut selected: Vec<usize> = Vec::new();
    let mut mse_curve: Vec<f64> = Vec::new();

    while !remaining.is_empty() && selected.len() < max_features {
        let scores = parallel_map(threads, remaining.len(), |pos, scratch| {
            let cand = remaining[pos];
            let mut cols = selected.clone();
            cols.push(cand);
            let x_sub = x.select_columns(&cols);
            cross_validate_with(
                &x_sub,
                y,
                config,
                k,
                1,
                seed.wrapping_add(selected.len() as u64 * 1009 + cand as u64),
                scratch,
            )
            .mse
        });
        // Reduce in candidate order with a strict `<`: ties resolve to the
        // earlier candidate, exactly as the serial loop always did.
        let mut best: Option<(usize, f64)> = None; // (position in remaining, mse)
        for (pos, &mse) in scores.iter().enumerate() {
            match best {
                Some((_, best_mse)) if mse >= best_mse => {}
                _ => best = Some((pos, mse)),
            }
        }
        // lint: allow(panic002) reason="remaining is non-empty inside the loop, so at least one score exists"
        let (pos, mse) = best.expect("remaining is non-empty");
        selected.push(remaining.remove(pos));
        mse_curve.push(mse);
    }

    SelectionResult {
        order: selected,
        mse_curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::loss::Loss;
    use crate::optimizer::OptimizerKind;
    use sizeless_engine::RngStream;

    fn tiny_config() -> NetworkConfig {
        NetworkConfig {
            hidden_layers: 1,
            neurons: 12,
            activation: Activation::Relu,
            loss: Loss::Mse,
            optimizer: OptimizerKind::Adam { lr: 0.01 },
            l2: 0.0,
            epochs: 60,
            batch_size: 16,
        }
    }

    /// Three features: col 0 is the signal, col 1 weak signal, col 2 noise.
    fn dataset() -> (Matrix, Matrix) {
        let mut rng = RngStream::from_seed(3, "sfs-data");
        let n = 80;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.uniform(0.0, 1.0);
            let b = rng.uniform(0.0, 1.0);
            let noise = rng.uniform(0.0, 1.0);
            xs.extend_from_slice(&[a, b, noise]);
            ys.push(3.0 * a + 0.3 * b);
        }
        (Matrix::from_vec(n, 3, xs), Matrix::from_vec(n, 1, ys))
    }

    #[test]
    fn picks_the_dominant_feature_first() {
        let (x, y) = dataset();
        let result = forward_selection(&x, &y, &[0, 1, 2], &tiny_config(), 3, 3, 1, 2);
        assert_eq!(result.order[0], 0, "order={:?}", result.order);
        assert_eq!(result.order.len(), 3);
        assert_eq!(result.mse_curve.len(), 3);
    }

    #[test]
    fn error_improves_when_adding_signal_features() {
        let (x, y) = dataset();
        let result = forward_selection(&x, &y, &[0, 1, 2], &tiny_config(), 3, 3, 2, 2);
        // Best subset should include the dominant feature and beat using it
        // alone or be equal within noise.
        assert!(result.best_subset().contains(&0));
        assert!(result.best_mse() <= result.mse_curve[0] * 1.05);
    }

    #[test]
    fn respects_max_features() {
        let (x, y) = dataset();
        let result = forward_selection(&x, &y, &[0, 1, 2], &tiny_config(), 3, 2, 3, 2);
        assert_eq!(result.order.len(), 2);
    }

    #[test]
    fn best_subset_prefers_smaller_on_ties() {
        let r = SelectionResult {
            order: vec![4, 7, 9],
            mse_curve: vec![0.5, 0.5, 0.6],
        };
        assert_eq!(r.best_subset(), &[4]);
        assert_eq!(r.best_mse(), 0.5);
    }

    /// Parallel candidate scoring must reproduce the serial selection
    /// bit-for-bit (same order, same curve).
    #[test]
    fn parallel_selection_is_bit_identical_to_serial() {
        let (x, y) = dataset();
        let serial = forward_selection(&x, &y, &[0, 1, 2], &tiny_config(), 3, 3, 1, 1);
        let parallel = forward_selection(&x, &y, &[0, 1, 2], &tiny_config(), 3, 3, 1, 4);
        assert_eq!(serial.order, parallel.order);
        let serial_bits: Vec<u64> = serial.mse_curve.iter().map(|m| m.to_bits()).collect();
        let parallel_bits: Vec<u64> = parallel.mse_curve.iter().map(|m| m.to_bits()).collect();
        assert_eq!(serial_bits, parallel_bits);
    }

    #[test]
    #[should_panic(expected = "no candidate features")]
    fn empty_candidates_panic() {
        let (x, y) = dataset();
        let _ = forward_selection(&x, &y, &[], &tiny_config(), 3, 1, 0, 2);
    }
}
