//! Regression quality metrics (Table 3 of the paper): MSE, MAPE, R²,
//! explained variance.

use crate::descriptive::{mean, variance};
use crate::error::{validate_pair, StatsError};

/// Mean squared error between predictions and true values.
///
/// # Errors
///
/// Returns [`StatsError`] on empty, NaN, or length-mismatched input.
///
/// # Examples
///
/// ```
/// let mse = sizeless_stats::regression::mse(&[1.0, 2.0], &[1.0, 4.0]).unwrap();
/// assert_eq!(mse, 2.0);
/// ```
pub fn mse(y_true: &[f64], y_pred: &[f64]) -> Result<f64, StatsError> {
    validate_pair(y_true, y_pred)?;
    Ok(y_true
        .iter()
        .zip(y_pred)
        .map(|(t, p)| (t - p) * (t - p))
        .sum::<f64>()
        / y_true.len() as f64)
}

/// Mean absolute percentage error, expressed as a fraction (0.15 = 15%).
///
/// Pairs whose true value is exactly zero are skipped, matching the common
/// scikit-learn-style guard; if *all* true values are zero the result is an
/// error.
///
/// # Errors
///
/// Same conditions as [`mse`], plus [`StatsError::DegenerateVariance`] when
/// every true value is zero.
pub fn mape(y_true: &[f64], y_pred: &[f64]) -> Result<f64, StatsError> {
    validate_pair(y_true, y_pred)?;
    let mut total = 0.0;
    let mut n = 0usize;
    for (t, p) in y_true.iter().zip(y_pred) {
        if *t != 0.0 {
            total += ((t - p) / t).abs();
            n += 1;
        }
    }
    if n == 0 {
        return Err(StatsError::DegenerateVariance);
    }
    Ok(total / n as f64)
}

/// Coefficient of determination `R² = 1 − SS_res / SS_tot`.
///
/// # Errors
///
/// Same conditions as [`mse`], plus [`StatsError::DegenerateVariance`] when
/// the true values are constant.
pub fn r_squared(y_true: &[f64], y_pred: &[f64]) -> Result<f64, StatsError> {
    validate_pair(y_true, y_pred)?;
    let m = mean(y_true)?;
    let ss_tot: f64 = y_true.iter().map(|t| (t - m) * (t - m)).sum();
    if ss_tot == 0.0 {
        return Err(StatsError::DegenerateVariance);
    }
    let ss_res: f64 = y_true
        .iter()
        .zip(y_pred)
        .map(|(t, p)| (t - p) * (t - p))
        .sum();
    Ok(1.0 - ss_res / ss_tot)
}

/// Explained variance score `1 − Var(y − ŷ) / Var(y)`.
///
/// Unlike R², this is insensitive to a constant bias in the predictions.
///
/// # Errors
///
/// Same conditions as [`r_squared`].
pub fn explained_variance(y_true: &[f64], y_pred: &[f64]) -> Result<f64, StatsError> {
    validate_pair(y_true, y_pred)?;
    let residuals: Vec<f64> = y_true.iter().zip(y_pred).map(|(t, p)| t - p).collect();
    let var_y = variance(y_true)?;
    if var_y == 0.0 {
        return Err(StatsError::DegenerateVariance);
    }
    Ok(1.0 - variance(&residuals)? / var_y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let y = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mse(&y, &y).unwrap(), 0.0);
        assert_eq!(mape(&y, &y).unwrap(), 0.0);
        assert_eq!(r_squared(&y, &y).unwrap(), 1.0);
        assert_eq!(explained_variance(&y, &y).unwrap(), 1.0);
    }

    #[test]
    fn mse_hand_computed() {
        assert_eq!(mse(&[0.0, 0.0], &[1.0, 3.0]).unwrap(), 5.0);
    }

    #[test]
    fn mape_skips_zero_targets() {
        // Only the pair (2, 3) counts: |1/2| = 0.5.
        assert_eq!(mape(&[0.0, 2.0], &[5.0, 3.0]).unwrap(), 0.5);
    }

    #[test]
    fn mape_all_zero_targets_errors() {
        assert!(mape(&[0.0, 0.0], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn r_squared_of_mean_prediction_is_zero() {
        let y = [1.0, 2.0, 3.0];
        let pred = [2.0, 2.0, 2.0];
        assert!((r_squared(&y, &pred).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn r_squared_can_be_negative() {
        let y = [1.0, 2.0, 3.0];
        let pred = [3.0, 2.0, 1.0];
        assert!(r_squared(&y, &pred).unwrap() < 0.0);
    }

    #[test]
    fn explained_variance_ignores_bias() {
        let y = [1.0, 2.0, 3.0, 4.0];
        let biased: Vec<f64> = y.iter().map(|v| v + 10.0).collect();
        assert!((explained_variance(&y, &biased).unwrap() - 1.0).abs() < 1e-12);
        assert!(r_squared(&y, &biased).unwrap() < 0.0);
    }

    #[test]
    fn constant_target_is_degenerate() {
        assert_eq!(
            r_squared(&[2.0, 2.0], &[1.0, 3.0]).unwrap_err(),
            StatsError::DegenerateVariance
        );
    }
}
