//! Statistical foundations for the Sizeless reproduction.
//!
//! This crate provides the statistical machinery the paper relies on:
//!
//! * [`descriptive`] — means, variances, coefficients of variation, and
//!   quantiles used to aggregate per-invocation monitoring samples.
//! * [`mannwhitney`] — the Mann–Whitney U test used in the metric-stability
//!   analysis behind Figure 3 of the paper.
//! * [`cliffs`] — Cliff's delta effect size, used by the paper to argue that
//!   differences observed after one minute of measurement are negligible.
//! * [`regression`] — the regression quality metrics of Table 3 (MSE, MAPE,
//!   R², explained variance).
//!
//! All routines are implemented from scratch on `&[f64]` slices, are fully
//! deterministic, and are unit-tested against hand-computed values.
//!
//! # Examples
//!
//! ```
//! use sizeless_stats::descriptive::Summary;
//!
//! let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]).unwrap();
//! assert_eq!(s.mean(), 2.5);
//! ```

pub mod cliffs;
pub mod descriptive;
pub mod error;
pub mod mannwhitney;
pub mod regression;

pub use cliffs::{cliffs_delta, cliffs_delta_sorted, DeltaMagnitude};
pub use descriptive::Summary;
pub use error::StatsError;
pub use mannwhitney::{mann_whitney_u, mann_whitney_u_sorted, MannWhitneyResult};

/// Standard normal cumulative distribution function.
///
/// Uses the Abramowitz–Stegun rational approximation of the error function,
/// accurate to about `1.5e-7` — more than sufficient for the p-values used in
/// the stability analysis.
///
/// # Examples
///
/// ```
/// let p = sizeless_stats::normal_cdf(0.0);
/// assert!((p - 0.5).abs() < 1e-7);
/// ```
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Error function approximation (Abramowitz & Stegun 7.1.26).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_at_zero_is_half() {
        // The rational approximation is accurate to ~1.5e-7, not exact.
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn normal_cdf_standard_values() {
        // Φ(1.96) ≈ 0.975, Φ(-1.96) ≈ 0.025.
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-4);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-4);
    }

    #[test]
    fn normal_cdf_is_monotone() {
        let mut prev = 0.0;
        for i in -40..=40 {
            let p = normal_cdf(i as f64 / 10.0);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn erf_is_odd() {
        for i in 0..20 {
            let x = i as f64 / 5.0;
            assert!((erf(x) + erf(-x)).abs() < 1e-7);
        }
    }

    #[test]
    fn erf_known_value() {
        // erf(1) ≈ 0.8427007929.
        assert!((erf(1.0) - 0.842_700_792_9).abs() < 1e-6);
    }
}
