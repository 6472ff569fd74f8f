//! Differential suite: the sorted rank statistics against the pooled
//! implementations they replaced.
//!
//! [`mann_whitney_u_sorted`] ranks two sorted samples with a merge walk and
//! [`cliffs_delta_sorted`] counts dominance with two advancing cursors. The
//! references below are the earlier implementations: a stable sort of the
//! pooled, tagged observations, and a binary search per observation. Every
//! `u`, `z`, `p_value` and delta must match to the bit, on samples of 1–400
//! values with heavy ties, `-0.0` next to `+0.0`, infinities, and constant
//! samples that make the variance degenerate.

use proptest::prelude::*;
use sizeless_stats::{
    cliffs_delta, cliffs_delta_sorted, mann_whitney_u, mann_whitney_u_sorted, normal_cdf,
    MannWhitneyResult, StatsError,
};

fn validate(xs: &[f64]) -> Result<(), StatsError> {
    if xs.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if xs.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NanInput);
    }
    Ok(())
}

/// Mann–Whitney U by stable-sorting the pooled, tagged observations.
fn mann_whitney_reference(a: &[f64], b: &[f64]) -> Result<MannWhitneyResult, StatsError> {
    validate(a)?;
    validate(b)?;
    let n1 = a.len() as f64;
    let n2 = b.len() as f64;
    let n = n1 + n2;
    let mut pooled: Vec<(f64, bool)> = a
        .iter()
        .map(|&x| (x, true))
        .chain(b.iter().map(|&x| (x, false)))
        .collect();
    pooled.sort_by(|l, r| l.0.total_cmp(&r.0));
    let mut rank_sum_a = 0.0;
    let mut tie_term = 0.0;
    let mut i = 0;
    while i < pooled.len() {
        let mut j = i;
        while j + 1 < pooled.len() && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let t = (j - i + 1) as f64;
        let mid_rank = (i as f64 + 1.0 + j as f64 + 1.0) / 2.0;
        for item in &pooled[i..=j] {
            if item.1 {
                rank_sum_a += mid_rank;
            }
        }
        tie_term += t * t * t - t;
        i = j + 1;
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

/// Cliff's delta by two binary searches into sorted `b` per value of `a`.
fn cliffs_reference(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    validate(a)?;
    validate(b)?;
    let mut sb = b.to_vec();
    sb.sort_by(|l, r| l.total_cmp(r));
    let mut dominance: i64 = 0;
    for &x in a {
        let less = sb.partition_point(|&v| v < x) as i64;
        let less_or_eq = sb.partition_point(|&v| v <= x) as i64;
        dominance += less - (sb.len() as i64 - less_or_eq);
    }
    Ok(dominance as f64 / (a.len() as f64 * b.len() as f64))
}

/// SplitMix64, so each case builds its samples from one seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Number of sample shapes [`sample`] knows.
const KINDS: u64 = 6;

/// `len` values of shape `kind`:
/// 0. small integers (heavy ties), zeros randomly signed;
/// 1. continuous values in `[-1, 1)`;
/// 2. one constant, the same for both samples of a case;
/// 3. only `-0.0`, `+0.0` and `1.0`;
/// 4. like 0, with `±inf` mixed in;
/// 5. continuous values rounded to two decimals (sparse ties).
fn sample(kind: u64, len: usize, constant: f64, mix: &mut Mix) -> Vec<f64> {
    (0..len)
        .map(|_| match kind {
            0 | 4 => {
                if kind == 4 && mix.below(8) == 0 {
                    if mix.below(2) == 0 {
                        f64::INFINITY
                    } else {
                        f64::NEG_INFINITY
                    }
                } else {
                    let v = mix.below(7) as f64 - 3.0;
                    if v == 0.0 && mix.below(2) == 0 {
                        -0.0
                    } else {
                        v
                    }
                }
            }
            1 => mix.unit() * 2.0 - 1.0,
            2 => constant,
            3 => [-0.0, 0.0, 1.0][mix.below(3) as usize],
            _ => (mix.unit() * 300.0).round() / 100.0,
        })
        .collect()
}

fn same_result(
    got: Result<MannWhitneyResult, StatsError>,
    want: Result<MannWhitneyResult, StatsError>,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.u.to_bits(), w.u.to_bits(), "u: {} vs {}", g.u, w.u);
            assert_eq!(g.z.to_bits(), w.z.to_bits(), "z: {} vs {}", g.z, w.z);
            assert_eq!(
                g.p_value.to_bits(),
                w.p_value.to_bits(),
                "p: {} vs {}",
                g.p_value,
                w.p_value
            );
        }
        (g, w) => assert_eq!(g, w),
    }
}

fn same_delta(got: Result<f64, StatsError>, want: Result<f64, StatsError>) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert_eq!(g.to_bits(), w.to_bits(), "delta: {g} vs {w}"),
        (g, w) => assert_eq!(g, w),
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Every comparison for one pair of samples, in both argument orders.
fn check(a: &[f64], b: &[f64]) {
    let (sa, sb) = (sorted(a), sorted(b));
    same_result(
        mann_whitney_u_sorted(&sa, &sb),
        mann_whitney_reference(a, b),
    );
    same_result(
        mann_whitney_u_sorted(&sb, &sa),
        mann_whitney_reference(b, a),
    );
    same_result(mann_whitney_u(a, b), mann_whitney_reference(a, b));
    same_delta(cliffs_delta_sorted(&sa, &sb), cliffs_reference(a, b));
    same_delta(cliffs_delta_sorted(&sb, &sa), cliffs_reference(b, a));
    same_delta(cliffs_delta(a, b), cliffs_reference(a, b));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sorted_rank_statistics_match_the_pooled_references(
        kinds in (0u64..KINDS, 0u64..KINDS),
        lens in (1usize..401, 1usize..401),
        seed in 0u64..u64::MAX,
    ) {
        let mut mix = Mix(seed);
        let constant = [0.0, -0.0, 4.5, f64::INFINITY][mix.below(4) as usize];
        let a = sample(kinds.0, lens.0, constant, &mut mix);
        let b = sample(kinds.1, lens.1, constant, &mut mix);
        check(&a, &b);
    }
}

#[test]
fn signed_zeros_tie_across_and_within_samples() {
    check(&[-0.0, 0.0, 1.0], &[0.0, -0.0, -1.0]);
    check(&[-0.0; 5], &[0.0; 3]);
    check(&[-0.0, 0.0], &[0.0]);
    // Every value is a zero: one tie group, degenerate variance.
    assert_eq!(
        mann_whitney_u_sorted(&[-0.0, 0.0], &[-0.0, 0.0]),
        Err(StatsError::DegenerateVariance)
    );
}

#[test]
fn constant_and_single_value_samples() {
    check(&[2.0; 40], &[2.0; 7]);
    check(&[f64::INFINITY; 3], &[f64::INFINITY; 9]);
    check(&[1.0], &[1.0]);
    check(&[1.0], &[2.0]);
    check(&[3.0], &[1.0, 2.0, 3.0, 3.0]);
}

#[test]
fn empty_and_nan_samples_report_the_same_errors() {
    let nan_last = [1.0, f64::NAN];
    let nan_first = [-f64::NAN, 1.0];
    let cases: [&[f64]; 5] = [&[], &[1.0, 2.0], &nan_last, &nan_first, &[f64::NAN]];
    for a in cases {
        for b in cases {
            check(a, b);
        }
    }
}
