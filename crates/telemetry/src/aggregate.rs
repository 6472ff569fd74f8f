//! Aggregating per-invocation samples into the per-function metric vector.
//!
//! The paper's regression model consumes, per monitored function: the *mean*
//! of each metric over the measurement window, and (in feature set F4) the
//! standard deviation and coefficient of variation of selected metrics.
//! [`MetricVector`] holds exactly those aggregates for all 25 metrics.

use crate::metric::{Metric, METRIC_COUNT};
use crate::monitor::{InvocationSample, MetricStore};
use serde::{Deserialize, Serialize};

/// Mean / standard deviation / coefficient of variation of one metric over a
/// measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricAggregate {
    /// Mean value.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Coefficient of variation (`std/mean`, 0 for zero mean).
    pub cv: f64,
}

/// The aggregated monitoring vector of one function at one memory size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricVector {
    aggregates: [MetricAggregate; METRIC_COUNT],
    sample_count: usize,
}

impl MetricVector {
    /// Aggregates a set of samples.
    ///
    /// Two row-wise passes over `samples`: per-metric sums, then per-metric
    /// sums of squared deviations from the means. Per metric, each pass is
    /// the sequential left fold from `-0.0` (the start value of
    /// `Iterator::sum::<f64>`) over the same terms as
    /// `sizeless_stats::descriptive::{mean, variance}` on that metric's
    /// column, so every aggregate is bit-identical to theirs. No column is
    /// copied or sorted and nothing is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty — a measurement window always contains
    /// at least one invocation — or if any sample value is NaN.
    pub fn from_samples<'a, I>(samples: I) -> Self
    where
        I: IntoIterator<Item = &'a InvocationSample>,
        I::IntoIter: Clone,
    {
        let samples = samples.into_iter();
        let mut sums = [-0.0; METRIC_COUNT];
        let mut sample_count = 0usize;
        // lint: allow(hot001) reason="clones the borrowing iterator, a cursor over the caller's samples; no sample is copied"
        for sample in samples.clone() {
            for ((sum, &x), metric) in sums.iter_mut().zip(&sample.values).zip(Metric::ALL) {
                assert!(!x.is_nan(), "NaN sample value for metric {metric}");
                *sum += x;
            }
            sample_count += 1;
        }
        assert!(sample_count > 0, "cannot aggregate an empty window");
        let n = sample_count as f64;
        let means = sums.map(|sum| sum / n);
        let mut squares = [-0.0; METRIC_COUNT];
        for sample in samples {
            for ((square, &x), &mean) in squares.iter_mut().zip(&sample.values).zip(&means) {
                *square += (x - mean) * (x - mean);
            }
        }
        let mut aggregates = [MetricAggregate::default(); METRIC_COUNT];
        for ((agg, &mean), &square) in aggregates.iter_mut().zip(&means).zip(&squares) {
            let std_dev = (square / n).sqrt();
            let cv = if mean == 0.0 {
                0.0
            } else {
                std_dev / mean.abs()
            };
            *agg = MetricAggregate { mean, std_dev, cv };
        }
        MetricVector {
            aggregates,
            sample_count,
        }
    }

    /// Aggregates an entire store.
    ///
    /// # Panics
    ///
    /// Panics if the store is empty.
    pub fn from_store(store: &MetricStore) -> Self {
        Self::from_samples(store.samples())
    }

    /// The aggregate of one metric.
    pub fn aggregate(&self, metric: Metric) -> MetricAggregate {
        self.aggregates[metric.index()]
    }

    /// The mean of one metric.
    pub fn mean(&self, metric: Metric) -> f64 {
        self.aggregates[metric.index()].mean
    }

    /// The standard deviation of one metric.
    pub fn std_dev(&self, metric: Metric) -> f64 {
        self.aggregates[metric.index()].std_dev
    }

    /// The coefficient of variation of one metric.
    pub fn cv(&self, metric: Metric) -> f64 {
        self.aggregates[metric.index()].cv
    }

    /// The mean execution time, ms (the most used aggregate).
    pub fn mean_execution_time_ms(&self) -> f64 {
        self.mean(Metric::ExecutionTime)
    }

    /// Number of samples aggregated.
    pub fn sample_count(&self) -> usize {
        self.sample_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::METRIC_COUNT;

    fn sample(at: f64, exec: f64, heap: f64) -> InvocationSample {
        let mut values = [0.0; METRIC_COUNT];
        values[Metric::ExecutionTime.index()] = exec;
        values[Metric::HeapUsed.index()] = heap;
        InvocationSample { at_ms: at, values }
    }

    #[test]
    fn aggregates_match_hand_computation() {
        let samples = [
            sample(0.0, 10.0, 30.0),
            sample(1.0, 20.0, 30.0),
            sample(2.0, 30.0, 30.0),
        ];
        let v = MetricVector::from_samples(samples.iter());
        assert_eq!(v.mean(Metric::ExecutionTime), 20.0);
        assert!((v.std_dev(Metric::ExecutionTime) - (200.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(v.mean(Metric::HeapUsed), 30.0);
        assert_eq!(v.std_dev(Metric::HeapUsed), 0.0);
        assert_eq!(v.cv(Metric::HeapUsed), 0.0);
        assert_eq!(v.sample_count(), 3);
        assert_eq!(v.mean_execution_time_ms(), 20.0);
    }

    #[test]
    fn zero_metrics_have_zero_aggregates() {
        let v = MetricVector::from_samples([sample(0.0, 5.0, 1.0)].iter());
        let agg = v.aggregate(Metric::BytesReceived);
        assert_eq!(agg.mean, 0.0);
        assert_eq!(agg.std_dev, 0.0);
        assert_eq!(agg.cv, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn empty_window_panics() {
        let _ = MetricVector::from_samples(std::iter::empty());
    }

    #[test]
    #[should_panic(expected = "NaN sample value for metric heap_used")]
    fn nan_sample_panics_naming_the_metric() {
        let samples = [sample(0.0, 5.0, 1.0), sample(1.0, 6.0, f64::NAN)];
        let _ = MetricVector::from_samples(samples.iter());
    }

    #[test]
    fn from_store_matches_from_samples() {
        let store: MetricStore = [sample(0.0, 2.0, 1.0), sample(1.0, 4.0, 1.0)]
            .into_iter()
            .collect();
        let v = MetricVector::from_store(&store);
        assert_eq!(v.mean(Metric::ExecutionTime), 3.0);
    }
}
