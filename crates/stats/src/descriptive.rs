//! Descriptive statistics used to aggregate per-invocation monitoring samples.
//!
//! The Sizeless feature pipeline consumes the *mean*, *standard deviation*,
//! and *coefficient of variation* of each monitored metric over a measurement
//! window; this module provides those aggregates plus medians and quantiles
//! for the experiment reports.

use crate::error::{validate, StatsError};

/// Arithmetic mean of a sample.
///
/// # Errors
///
/// Returns [`StatsError::EmptySample`] for empty input and
/// [`StatsError::NanInput`] if any value is NaN.
///
/// # Examples
///
/// ```
/// assert_eq!(sizeless_stats::descriptive::mean(&[1.0, 2.0, 3.0]).unwrap(), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> Result<f64, StatsError> {
    validate(xs)?;
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population variance (divides by `n`).
///
/// The monitoring aggregates treat each measurement window as the full
/// population of observed invocations, matching the paper's use of plain
/// distribution statistics rather than estimators.
///
/// # Errors
///
/// Same conditions as [`mean`].
pub fn variance(xs: &[f64]) -> Result<f64, StatsError> {
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation.
///
/// # Errors
///
/// Same conditions as [`mean`].
pub fn std_dev(xs: &[f64]) -> Result<f64, StatsError> {
    Ok(variance(xs)?.sqrt())
}

/// Coefficient of variation (`std / mean`); 0 when the mean is 0.
///
/// The paper's final feature set F4 adds the coefficient of variation of each
/// retained metric, so this mirrors that definition including the guard for
/// all-zero metrics (e.g. file-system writes of a function that never writes).
///
/// # Errors
///
/// Same conditions as [`mean`].
pub fn coefficient_of_variation(xs: &[f64]) -> Result<f64, StatsError> {
    let m = mean(xs)?;
    if m == 0.0 {
        return Ok(0.0);
    }
    Ok(std_dev(xs)? / m.abs())
}

/// Linear-interpolation quantile, `q` in `[0, 1]`.
///
/// # Errors
///
/// Same conditions as [`mean`].
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64, StatsError> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    validate(xs)?;
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Ok(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Median (the 0.5 quantile).
///
/// # Errors
///
/// Same conditions as [`mean`].
pub fn median(xs: &[f64]) -> Result<f64, StatsError> {
    quantile(xs, 0.5)
}

/// A one-pass summary of a sample: count, mean, std, cv, min, max, median.
///
/// This is the aggregate record stored per metric per measurement window.
///
/// # Examples
///
/// ```
/// use sizeless_stats::descriptive::Summary;
///
/// let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.std_dev(), 2.0);
/// assert_eq!(s.count(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: usize,
    mean: f64,
    std_dev: f64,
    cv: f64,
    min: f64,
    max: f64,
    median: f64,
}

impl Summary {
    /// Computes a summary of `xs`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] or [`StatsError::NanInput`] on
    /// degenerate input.
    pub fn from_slice(xs: &[f64]) -> Result<Self, StatsError> {
        validate(xs)?;
        let mean_v = mean(xs)?;
        let std_v = std_dev(xs)?;
        let cv = if mean_v == 0.0 { 0.0 } else { std_v / mean_v.abs() };
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Ok(Summary {
            count: xs.len(),
            mean: mean_v,
            std_dev: std_v,
            cv,
            min,
            max,
            median: median(xs)?,
        })
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Coefficient of variation (`std / |mean|`, 0 when mean is 0).
    pub fn coefficient_of_variation(&self) -> f64 {
        self.cv
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Median observation.
    pub fn median(&self) -> f64 {
        self.median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_constant() {
        assert_eq!(mean(&[3.0; 7]).unwrap(), 3.0);
    }

    #[test]
    fn variance_hand_computed() {
        // Population variance of [2,4,4,4,5,5,7,9] is 4.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs).unwrap() - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cv_of_zero_mean_is_zero() {
        assert_eq!(coefficient_of_variation(&[-1.0, 1.0]).unwrap(), 0.0);
    }

    #[test]
    fn cv_hand_computed() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((coefficient_of_variation(&xs).unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn quantile_endpoints() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 5.0);
        assert_eq!(quantile(&xs, 0.5).unwrap(), 3.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.25).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn median_even_sample() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]).unwrap(), 2.5);
    }

    #[test]
    fn summary_matches_parts() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let s = Summary::from_slice(&xs).unwrap();
        assert_eq!(s.mean(), mean(&xs).unwrap());
        assert_eq!(s.std_dev(), std_dev(&xs).unwrap());
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.count(), 4);
        assert_eq!(s.median(), 2.5);
    }

    #[test]
    fn empty_sample_errors() {
        assert!(mean(&[]).is_err());
        assert!(Summary::from_slice(&[]).is_err());
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn quantile_rejects_out_of_range() {
        let _ = quantile(&[1.0], 1.5);
    }
}
