//! Cliff's delta ordinal effect size.
//!
//! The paper applies Cliff's delta to the differences observed after one
//! minute of measurement and finds them *negligible*, justifying short
//! measurement windows. We reproduce the statistic and the conventional
//! magnitude thresholds (Romano et al.): |δ| < 0.147 negligible, < 0.33
//! small, < 0.474 medium, otherwise large.

use serde::{Deserialize, Serialize};
use crate::error::{sorted, validate_sorted, StatsError};

/// Conventional magnitude classification of Cliff's delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DeltaMagnitude {
    /// |δ| < 0.147.
    Negligible,
    /// 0.147 ≤ |δ| < 0.33.
    Small,
    /// 0.33 ≤ |δ| < 0.474.
    Medium,
    /// |δ| ≥ 0.474.
    Large,
}

impl DeltaMagnitude {
    /// Classifies a delta value into its conventional magnitude band.
    ///
    /// # Examples
    ///
    /// ```
    /// use sizeless_stats::DeltaMagnitude;
    ///
    /// assert_eq!(DeltaMagnitude::classify(0.1), DeltaMagnitude::Negligible);
    /// assert_eq!(DeltaMagnitude::classify(-0.9), DeltaMagnitude::Large);
    /// ```
    pub fn classify(delta: f64) -> Self {
        let d = delta.abs();
        if d < 0.147 {
            DeltaMagnitude::Negligible
        } else if d < 0.33 {
            DeltaMagnitude::Small
        } else if d < 0.474 {
            DeltaMagnitude::Medium
        } else {
            DeltaMagnitude::Large
        }
    }
}

impl std::fmt::Display for DeltaMagnitude {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeltaMagnitude::Negligible => "negligible",
            DeltaMagnitude::Small => "small",
            DeltaMagnitude::Medium => "medium",
            DeltaMagnitude::Large => "large",
        };
        f.write_str(s)
    }
}

/// Computes Cliff's delta `δ = (#(a > b) − #(a < b)) / (n₁·n₂)` over all
/// pairs. Sorts copies of both samples and runs [`cliffs_delta_sorted`], in
/// `O((n₁+n₂) log(n₁+n₂))`.
///
/// Returns a value in `[-1, 1]`: positive when `a` tends to dominate `b`.
///
/// # Errors
///
/// Returns [`StatsError::EmptySample`] / [`StatsError::NanInput`] on
/// degenerate input.
///
/// # Examples
///
/// ```
/// use sizeless_stats::cliffs_delta;
///
/// // All of `a` above all of `b` → δ = 1.
/// let d = cliffs_delta(&[4.0, 5.0], &[1.0, 2.0]).unwrap();
/// assert_eq!(d, 1.0);
/// ```
pub fn cliffs_delta(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    cliffs_delta_sorted(&sorted(a), &sorted(b))
}

/// [`cliffs_delta`] on samples already sorted ascending by
/// [`f64::total_cmp`], in one merge walk: `O(n₁+n₂)`, no copies.
///
/// The dominance count is an integer, so the order in which `a` is visited
/// cannot change it; walking `a` in ascending order only lets the counts
/// of smaller and not-larger `b` values advance monotonically. Comparisons
/// are IEEE (`-0.0` ties `+0.0`).
///
/// # Errors
///
/// As [`cliffs_delta`].
///
/// # Examples
///
/// ```
/// use sizeless_stats::cliffs::{cliffs_delta, cliffs_delta_sorted};
///
/// let a = [1.0, 2.0, 5.0];
/// let b = [2.0, 3.0];
/// assert_eq!(cliffs_delta_sorted(&a, &b), cliffs_delta(&a, &b));
/// ```
pub fn cliffs_delta_sorted(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    validate_sorted(a)?;
    validate_sorted(b)?;
    // #(b < x) and #(b <= x) for the current x; both only grow as x does.
    let (mut less, mut less_or_eq) = (0, 0);
    let mut dominance: i64 = 0;
    for &x in a {
        while less < b.len() && b[less] < x {
            less += 1;
        }
        while less_or_eq < b.len() && b[less_or_eq] <= x {
            less_or_eq += 1;
        }
        let greater = b.len() - less_or_eq;
        dominance += less as i64 - greater as i64;
    }
    Ok(dominance as f64 / (a.len() as f64 * b.len() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_have_zero_delta() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(cliffs_delta(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn complete_dominance_is_one() {
        assert_eq!(cliffs_delta(&[10.0, 11.0], &[1.0, 2.0]).unwrap(), 1.0);
        assert_eq!(cliffs_delta(&[1.0, 2.0], &[10.0, 11.0]).unwrap(), -1.0);
    }

    #[test]
    fn antisymmetric() {
        let a = [1.0, 5.0, 9.0, 2.0];
        let b = [3.0, 4.0, 8.0];
        let d1 = cliffs_delta(&a, &b).unwrap();
        let d2 = cliffs_delta(&b, &a).unwrap();
        assert!((d1 + d2).abs() < 1e-12);
    }

    #[test]
    fn hand_computed_example() {
        // a = [1, 3], b = [2]. Pairs: (1,2) → −1, (3,2) → +1 ⇒ δ = 0.
        assert_eq!(cliffs_delta(&[1.0, 3.0], &[2.0]).unwrap(), 0.0);
        // a = [2, 3], b = [1, 2]. Pairs: (2,1)+, (2,2)0, (3,1)+, (3,2)+ ⇒ 3/4.
        assert_eq!(cliffs_delta(&[2.0, 3.0], &[1.0, 2.0]).unwrap(), 0.75);
    }

    #[test]
    fn bounded_in_unit_interval() {
        let a = [0.5, 0.1, 0.9, 0.3, 0.3];
        let b = [0.2, 0.8, 0.4];
        let d = cliffs_delta(&a, &b).unwrap();
        assert!((-1.0..=1.0).contains(&d));
    }

    #[test]
    fn magnitude_thresholds() {
        assert_eq!(DeltaMagnitude::classify(0.0), DeltaMagnitude::Negligible);
        assert_eq!(DeltaMagnitude::classify(0.146), DeltaMagnitude::Negligible);
        assert_eq!(DeltaMagnitude::classify(0.147), DeltaMagnitude::Small);
        assert_eq!(DeltaMagnitude::classify(0.33), DeltaMagnitude::Medium);
        assert_eq!(DeltaMagnitude::classify(0.474), DeltaMagnitude::Large);
        assert_eq!(DeltaMagnitude::classify(-1.0), DeltaMagnitude::Large);
    }

    #[test]
    fn magnitude_display() {
        assert_eq!(DeltaMagnitude::Negligible.to_string(), "negligible");
        assert_eq!(DeltaMagnitude::Large.to_string(), "large");
    }

    #[test]
    fn empty_errors() {
        assert!(cliffs_delta(&[], &[1.0]).is_err());
    }
}
