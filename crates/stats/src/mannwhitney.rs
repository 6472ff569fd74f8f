//! Mann–Whitney U test (Wilcoxon rank-sum), used by the paper's
//! metric-stability analysis (Figure 3).
//!
//! The paper measures 50 functions for fifteen minutes and tests, for each
//! metric, whether the samples from the first *k* minutes come from the same
//! distribution as the full fifteen-minute sample. We implement the classic
//! two-sided test with the normal approximation and tie correction, which is
//! appropriate for the large per-window sample counts involved (hundreds to
//! thousands of invocations).

use serde::{Deserialize, Serialize};
use crate::error::{sorted, validate_sorted, StatsError};
use crate::normal_cdf;

/// Result of a two-sided Mann–Whitney U test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MannWhitneyResult {
    /// The U statistic of the first sample.
    pub u: f64,
    /// The standardized z-score (tie-corrected normal approximation).
    pub z: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

impl MannWhitneyResult {
    /// Whether the null hypothesis "both samples come from the same
    /// distribution" is rejected at significance level `alpha`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sizeless_stats::mann_whitney_u;
    ///
    /// let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
    /// let r = mann_whitney_u(&a, &a).unwrap();
    /// assert!(!r.rejects_at(0.05));
    /// ```
    pub fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Runs a two-sided Mann–Whitney U test on two independent samples.
///
/// Uses mid-ranks for ties and the tie-corrected variance
/// `σ² = (n₁·n₂/12)·((n+1) − Σ(tᵢ³−tᵢ)/(n(n−1)))`. The continuity correction
/// of 0.5 is applied to the z-score. Sorts copies of both samples and runs
/// [`mann_whitney_u_sorted`].
///
/// # Errors
///
/// Returns [`StatsError::EmptySample`] if either sample is empty,
/// [`StatsError::NanInput`] on NaN input, and
/// [`StatsError::DegenerateVariance`] when every observation across both
/// samples is identical (the test is undefined; callers should treat the
/// samples as indistinguishable).
///
/// # Examples
///
/// ```
/// use sizeless_stats::mann_whitney_u;
///
/// let small: Vec<f64> = (0..50).map(|i| i as f64).collect();
/// let large: Vec<f64> = (0..50).map(|i| i as f64 + 100.0).collect();
/// let r = mann_whitney_u(&small, &large).unwrap();
/// assert!(r.rejects_at(0.05));
/// ```
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> Result<MannWhitneyResult, StatsError> {
    mann_whitney_u_sorted(&sorted(a), &sorted(b))
}

/// [`mann_whitney_u`] on samples already sorted ascending by
/// [`f64::total_cmp`], without copying or sorting them.
///
/// A merge walk over the two samples visits the pooled observations in
/// ascending order. Each group of values equal under `==` (so `-0.0` and
/// `+0.0` tie) gets one mid-rank, and the groups are tallied in ascending
/// order, so every result is bit-identical to ranking the pooled sample.
///
/// # Errors
///
/// As [`mann_whitney_u`]. Only the ends of a sorted sample can hold a NaN,
/// so only they are checked.
///
/// # Examples
///
/// ```
/// use sizeless_stats::mannwhitney::{mann_whitney_u, mann_whitney_u_sorted};
///
/// let a = [1.0, 2.0, 2.0, 7.0];
/// let b = [2.0, 3.0, 9.0];
/// assert_eq!(mann_whitney_u_sorted(&a, &b), mann_whitney_u(&a, &b));
/// ```
pub fn mann_whitney_u_sorted(a: &[f64], b: &[f64]) -> Result<MannWhitneyResult, StatsError> {
    validate_sorted(a)?;
    validate_sorted(b)?;
    let (len_a, len_b) = (a.len(), b.len());
    let n1 = len_a as f64;
    let n2 = len_b as f64;
    let n = n1 + n2;

    let mut rank_sum_a = 0.0;
    let mut tie_term = 0.0;
    // Pooled observations ranked so far, and the heads of both samples.
    let (mut ranked, mut i, mut j) = (0, 0, 0);
    loop {
        // The next group opens at the smaller head in `total_cmp` order.
        let value = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if y.total_cmp(&x).is_lt() => y,
            (Some(&x), _) => x,
            (None, Some(&y)) => y,
            (None, None) => break,
        };
        let start_a = i;
        while i < len_a && a[i] == value {
            i += 1;
        }
        let start_b = j;
        while j < len_b && b[j] == value {
            j += 1;
        }
        let in_a = i - start_a;
        let tied = in_a + (j - start_b);
        // Pooled positions first..=last are tied; they share the mid-rank.
        let (first, last) = (ranked, ranked + tied - 1);
        let mid_rank = (first as f64 + 1.0 + last as f64 + 1.0) / 2.0;
        // Ranks are half-integers, so below 2^26 observations this product
        // and the running sum are exact: the same bits as adding the
        // mid-rank once per member of `a`.
        rank_sum_a += mid_rank * in_a as f64;
        let t = tied as f64;
        tie_term += t * t * t - t;
        ranked += tied;
    }

    let u1 = rank_sum_a - n1 * (n1 + 1.0) / 2.0;
    let mean_u = n1 * n2 / 2.0;
    let var_u = if n > 1.0 {
        (n1 * n2 / 12.0) * ((n + 1.0) - tie_term / (n * (n - 1.0)))
    } else {
        0.0
    };
    if var_u <= 0.0 {
        return Err(StatsError::DegenerateVariance);
    }

    // Continuity correction toward the mean.
    let diff = u1 - mean_u;
    let corrected = if diff > 0.0 {
        diff - 0.5
    } else if diff < 0.0 {
        diff + 0.5
    } else {
        0.0
    };
    let z = corrected / var_u.sqrt();
    let p = 2.0 * (1.0 - normal_cdf(z.abs()));
    Ok(MannWhitneyResult {
        u: u1,
        z,
        p_value: p.clamp(0.0, 1.0),
    })
}

/// Convenience predicate used by the stability analysis: are the two samples
/// statistically indistinguishable at level `alpha`?
///
/// Identical constant samples (which make the U variance degenerate) are
/// treated as indistinguishable, since a metric that never varies is trivially
/// stable.
///
/// # Errors
///
/// Propagates [`StatsError::EmptySample`] / [`StatsError::NanInput`].
pub fn same_distribution(a: &[f64], b: &[f64], alpha: f64) -> Result<bool, StatsError> {
    match mann_whitney_u(a, b) {
        Ok(r) => Ok(!r.rejects_at(alpha)),
        Err(StatsError::DegenerateVariance) => Ok(true),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_not_rejected() {
        let a: Vec<f64> = (0..200).map(|i| (i % 17) as f64).collect();
        let r = mann_whitney_u(&a, &a).unwrap();
        assert!(r.p_value > 0.9, "p={}", r.p_value);
    }

    #[test]
    fn shifted_samples_rejected() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| i as f64 + 500.0).collect();
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.rejects_at(0.001));
        // All b above all a → U1 = 0.
        assert_eq!(r.u, 0.0);
    }

    #[test]
    fn u_statistics_sum_to_n1_n2() {
        let a = [1.0, 3.0, 5.0, 9.0];
        let b = [2.0, 4.0, 6.0, 7.0, 8.0];
        let r_ab = mann_whitney_u(&a, &b).unwrap();
        let r_ba = mann_whitney_u(&b, &a).unwrap();
        assert!((r_ab.u + r_ba.u - (a.len() * b.len()) as f64).abs() < 1e-9);
    }

    #[test]
    fn symmetric_p_values() {
        let a = [1.0, 2.0, 3.0, 10.0, 11.0];
        let b = [4.0, 5.0, 6.0, 7.0];
        let r_ab = mann_whitney_u(&a, &b).unwrap();
        let r_ba = mann_whitney_u(&b, &a).unwrap();
        assert!((r_ab.p_value - r_ba.p_value).abs() < 1e-9);
        assert!((r_ab.z + r_ba.z).abs() < 1e-9);
    }

    #[test]
    fn hand_computed_small_example() {
        // a = [1,2], b = [3,4,5]: every b beats every a → U1 = 0, U2 = 6.
        let r = mann_whitney_u(&[1.0, 2.0], &[3.0, 4.0, 5.0]).unwrap();
        assert_eq!(r.u, 0.0);
    }

    #[test]
    fn ties_use_midranks() {
        // a = [1, 2], b = [2, 3]. Ranks: 1 → 1; the two 2s → 2.5; 3 → 4.
        // R_a = 3.5, U1 = 3.5 - 3 = 0.5.
        let r = mann_whitney_u(&[1.0, 2.0], &[2.0, 3.0]).unwrap();
        assert!((r.u - 0.5).abs() < 1e-9);
    }

    #[test]
    fn constant_samples_degenerate() {
        let a = [5.0; 10];
        assert_eq!(
            mann_whitney_u(&a, &a).unwrap_err(),
            StatsError::DegenerateVariance
        );
        assert!(same_distribution(&a, &a, 0.05).unwrap());
    }

    #[test]
    fn same_distribution_detects_shift() {
        let a: Vec<f64> = (0..300).map(|i| (i as f64).sin().abs()).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 10.0).collect();
        assert!(!same_distribution(&a, &b, 0.05).unwrap());
        assert!(same_distribution(&a, &a.clone(), 0.05).unwrap());
    }

    #[test]
    fn empty_sample_is_error() {
        assert!(mann_whitney_u(&[], &[1.0]).is_err());
        assert!(mann_whitney_u(&[1.0], &[]).is_err());
    }
}
