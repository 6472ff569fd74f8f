//! Differential suite: [`MetricVector::from_samples`] against a per-column
//! [`Summary::from_slice`] reference.
//!
//! `from_samples` aggregates all 25 metrics in two row-wise passes instead
//! of copying out each metric's column and summarising it. The offline
//! pipeline's features, and every report built on them, rely on the two
//! giving the same bits. This suite pins that on windows of 1–600 samples
//! whose columns are constant, signed zeros, noise around an offset, mixed
//! magnitudes from 1e-9 to 1e9, or carry infinities.

use proptest::prelude::*;
use sizeless_engine::RngStream;
use sizeless_stats::Summary;
use sizeless_telemetry::{InvocationSample, Metric, MetricVector, METRIC_COUNT};

/// Number of column shapes [`column`] knows.
const COLUMN_KINDS: usize = 5;

/// `±10^e · u` for a random exponent `e` in `[-9, 9]` and `u` in `[1, 10)`.
fn magnitude(rng: &mut RngStream) -> f64 {
    let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
    sign * 10f64.powi(rng.index(19) as i32 - 9) * rng.uniform(1.0, 10.0)
}

/// One metric's column of `n` values, of shape `kind`:
/// 0. one value repeated (sometimes `0.0` or `-0.0`);
/// 1. signed zeros (sometimes all `-0.0`);
/// 2. uniform noise around an offset, up to twelve decades below it;
/// 3. values spread over every magnitude from 1e-9 to 1e9;
/// 4. like 3, with `+inf`, `-inf` or both at random positions.
fn column(kind: usize, n: usize, rng: &mut RngStream) -> Vec<f64> {
    match kind {
        0 => {
            let value = match rng.index(4) {
                0 => 0.0,
                1 => -0.0,
                _ => magnitude(rng),
            };
            vec![value; n]
        }
        1 => {
            let all_negative = rng.chance(0.5);
            (0..n)
                .map(|_| {
                    if all_negative || rng.chance(0.5) {
                        -0.0
                    } else {
                        0.0
                    }
                })
                .collect()
        }
        2 => {
            let offset = magnitude(rng);
            let spread = offset.abs() * 10f64.powi(-(rng.index(13) as i32));
            (0..n)
                .map(|_| offset + spread * rng.uniform(-1.0, 1.0))
                .collect()
        }
        3 => (0..n).map(|_| magnitude(rng)).collect(),
        _ => {
            let mut values: Vec<f64> = (0..n).map(|_| magnitude(rng)).collect();
            let signs: &[f64] = match rng.index(3) {
                0 => &[f64::INFINITY],
                1 => &[f64::NEG_INFINITY],
                _ => &[f64::INFINITY, f64::NEG_INFINITY],
            };
            for &inf in signs {
                let at = rng.index(n);
                values[at] = inf;
            }
            values
        }
    }
}

/// Builds a window of `n` samples from a column kind per metric.
fn window(kinds: &[usize], n: usize, seed: u64) -> (Vec<InvocationSample>, Vec<Vec<f64>>) {
    let mut rng = RngStream::from_seed(seed, "aggregate-columns");
    let columns: Vec<Vec<f64>> = kinds.iter().map(|&k| column(k, n, &mut rng)).collect();
    let samples = (0..n)
        .map(|i| {
            let mut values = [0.0; METRIC_COUNT];
            for (value, col) in values.iter_mut().zip(&columns) {
                *value = col[i];
            }
            InvocationSample {
                at_ms: i as f64,
                values,
            }
        })
        .collect();
    (samples, columns)
}

/// `got` has the bits of `want`, or both are NaN.
fn assert_same(got: f64, want: f64, what: &str, metric: Metric) {
    if want.is_nan() {
        assert!(got.is_nan(), "{what} of {metric}: reference NaN, got {got}");
    } else {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what} of {metric}: got {got:e}, reference {want:e}"
        );
    }
}

/// Compares every aggregate of the window with the column's `Summary`.
fn check_against_reference(kinds: &[usize], n: usize, seed: u64) {
    let (samples, columns) = window(kinds, n, seed);
    let vector = MetricVector::from_samples(samples.iter());
    assert_eq!(vector.sample_count(), n);
    for (metric, col) in Metric::ALL.into_iter().zip(&columns) {
        let want = Summary::from_slice(col).expect("columns are non-empty and NaN-free");
        let got = vector.aggregate(metric);
        assert_same(got.mean, want.mean(), "mean", metric);
        assert_same(got.std_dev, want.std_dev(), "std_dev", metric);
        assert_same(got.cv, want.coefficient_of_variation(), "cv", metric);
        if col.iter().any(|x| x.is_infinite()) {
            assert!(
                got.std_dev.is_nan() && got.cv.is_nan(),
                "an infinite sample of {metric} must give a NaN std_dev and cv"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random windows of random column shapes, with the extreme sizes 1 and
    /// 600 drawn often.
    #[test]
    fn from_samples_is_bit_identical_to_per_column_summaries(
        size in (0usize..8, 1usize..601),
        kinds in proptest::collection::vec(0usize..COLUMN_KINDS, METRIC_COUNT),
        seed in 0u64..u64::MAX,
    ) {
        let n = match size.0 {
            0 => 1,
            1 => 600,
            _ => size.1,
        };
        check_against_reference(&kinds, n, seed);
    }
}

/// Every metric of one shape at once, at sizes 1, 2 and 600.
#[test]
fn single_shape_windows_match_the_reference() {
    for kind in 0..COLUMN_KINDS {
        for n in [1, 2, 600] {
            for seed in 0..4 {
                check_against_reference(&[kind; METRIC_COUNT], n, seed);
            }
        }
    }
}
