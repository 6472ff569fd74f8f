//! Error type shared by the statistics routines.

use std::error::Error;
use std::fmt;

/// Error returned by statistical routines on degenerate input.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StatsError {
    /// The input sample was empty where at least one observation is required.
    EmptySample,
    /// Two paired inputs had different lengths.
    LengthMismatch {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// The input contained a NaN, which has no defined ordering.
    NanInput,
    /// A quantity that must be strictly positive was zero (e.g. variance when
    /// computing R² of a constant target).
    DegenerateVariance,
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptySample => write!(f, "sample is empty"),
            StatsError::LengthMismatch { left, right } => {
                write!(f, "paired samples have different lengths ({left} vs {right})")
            }
            StatsError::NanInput => write!(f, "input contains NaN"),
            StatsError::DegenerateVariance => {
                write!(f, "variance is zero, statistic is undefined")
            }
        }
    }
}

impl Error for StatsError {}

/// Validates that a slice is non-empty and NaN-free.
pub(crate) fn validate(xs: &[f64]) -> Result<(), StatsError> {
    if xs.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if xs.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NanInput);
    }
    Ok(())
}

/// [`validate`] for a slice sorted ascending by [`f64::total_cmp`], which
/// places negative NaNs first and positive NaNs last: only the ends need
/// checking.
pub(crate) fn validate_sorted(xs: &[f64]) -> Result<(), StatsError> {
    debug_assert!(
        xs.is_sorted_by(|l, r| l.total_cmp(r).is_le()),
        "sample must be sorted by total_cmp"
    );
    match (xs.first(), xs.last()) {
        (Some(first), Some(last)) if first.is_nan() || last.is_nan() => Err(StatsError::NanInput),
        (Some(_), Some(_)) => Ok(()),
        _ => Err(StatsError::EmptySample),
    }
}

/// A copy of `xs` sorted ascending by [`f64::total_cmp`]: the input the
/// `*_sorted` rank statistics take.
pub(crate) fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    out.sort_unstable_by(f64::total_cmp);
    out
}

/// Validates a pair of equally-sized, non-empty, NaN-free slices.
pub(crate) fn validate_pair(a: &[f64], b: &[f64]) -> Result<(), StatsError> {
    validate(a)?;
    validate(b)?;
    if a.len() != b.len() {
        return Err(StatsError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        assert_eq!(StatsError::EmptySample.to_string(), "sample is empty");
        assert_eq!(
            StatsError::LengthMismatch { left: 2, right: 3 }.to_string(),
            "paired samples have different lengths (2 vs 3)"
        );
    }

    #[test]
    fn validate_rejects_empty() {
        assert_eq!(validate(&[]), Err(StatsError::EmptySample));
    }

    #[test]
    fn validate_rejects_nan() {
        assert_eq!(validate(&[1.0, f64::NAN]), Err(StatsError::NanInput));
    }

    #[test]
    fn validate_pair_rejects_mismatch() {
        assert_eq!(
            validate_pair(&[1.0], &[1.0, 2.0]),
            Err(StatsError::LengthMismatch { left: 1, right: 2 })
        );
    }

    #[test]
    fn validate_accepts_good_input() {
        assert!(validate(&[0.0, 1.0]).is_ok());
        assert!(validate_pair(&[0.0], &[1.0]).is_ok());
    }
}
