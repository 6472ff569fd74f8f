//! Workload-shift detection.
//!
//! The paper's limitations section observes that a workload shift (burstier
//! traffic, larger payloads) changes a function's resource-consumption
//! metrics, "so our model could be used to predict the optimal memory size
//! for the changed function behavior again". That requires *noticing* the
//! shift: this module compares a fresh monitoring window against the window
//! the current recommendation was based on, metric by metric, using the
//! same Mann–Whitney machinery as the stability analysis, and triggers
//! re-optimization when a relevant metric drifts with a non-negligible
//! effect size.

use serde::{Deserialize, Serialize};
use sizeless_stats::cliffs::{cliffs_delta_sorted, DeltaMagnitude};
use sizeless_stats::mannwhitney::mann_whitney_u_sorted;
use sizeless_telemetry::{InvocationSample, Metric, MetricStore};

/// Configuration of the drift detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Significance level of the Mann–Whitney test.
    pub alpha: f64,
    /// Minimum Cliff's-delta magnitude considered actionable.
    pub min_magnitude: DeltaMagnitude,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            alpha: 0.01, // stricter than the stability analysis: this
            // triggers re-optimization, so favour precision
            min_magnitude: DeltaMagnitude::Small,
        }
    }
}

/// One drifted metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricDrift {
    /// Which metric drifted.
    pub metric: Metric,
    /// Cliff's delta between reference and fresh window (positive = the
    /// fresh window is larger).
    pub delta: f64,
    /// Its conventional magnitude.
    pub magnitude: DeltaMagnitude,
}

/// The drift verdict for one function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftReport {
    /// Metrics with statistically significant, non-negligible drift.
    pub drifted: Vec<MetricDrift>,
}

impl DriftReport {
    /// Whether a re-recommendation should be triggered.
    pub fn should_reoptimize(&self) -> bool {
        !self.drifted.is_empty()
    }
}

/// One monitoring window as drift detection reads it: a column of values
/// per watched metric, each sorted ascending by [`f64::total_cmp`].
///
/// The online sizing service keeps one per function as its drift
/// reference, sorted once when the reference window closes, and refills a
/// second one from each fresh window. Refills reuse the columns' storage.
#[derive(Debug, Clone, Default)]
pub(crate) struct DriftColumns {
    columns: Vec<Vec<f64>>,
}

impl DriftColumns {
    /// Refills the columns from `samples`: column `k` holds every sample's
    /// value of `metrics[k]`, sorted.
    pub(crate) fn refill<'a, I>(&mut self, samples: I, metrics: &[Metric])
    where
        I: IntoIterator<Item = &'a InvocationSample>,
    {
        self.columns.resize_with(metrics.len(), Default::default);
        for column in &mut self.columns {
            column.clear();
        }
        for sample in samples {
            for (column, &metric) in self.columns.iter_mut().zip(metrics) {
                column.push(sample.value(metric));
            }
        }
        for column in &mut self.columns {
            column.sort_unstable_by(f64::total_cmp);
        }
    }

    /// The sorted column of the `k`-th watched metric (empty if never
    /// filled).
    fn column(&self, k: usize) -> &[f64] {
        self.columns.get(k).map_or(&[], Vec::as_slice)
    }
}

/// Compares a fresh monitoring window against the reference window over the
/// given metrics (typically the model's six required metrics plus execution
/// time). Sorts each watched metric's column of both windows and compares
/// them exactly as the online sizing service does.
pub fn detect_drift(
    reference: &MetricStore,
    fresh: &MetricStore,
    metrics: &[Metric],
    cfg: &DriftConfig,
) -> DriftReport {
    let mut old = DriftColumns::default();
    old.refill(reference.samples(), metrics);
    let mut new = DriftColumns::default();
    new.refill(fresh.samples(), metrics);
    detect_drift_sorted(&old, &new, metrics, cfg)
}

/// [`detect_drift`] on windows already in column form: column `k` of both
/// holds `metrics[k]`. A metric is skipped when either column is empty.
pub(crate) fn detect_drift_sorted(
    reference: &DriftColumns,
    fresh: &DriftColumns,
    metrics: &[Metric],
    cfg: &DriftConfig,
) -> DriftReport {
    let mut drifted = Vec::new();
    for (k, &metric) in metrics.iter().enumerate() {
        let (old, new) = (reference.column(k), fresh.column(k));
        if old.is_empty() || new.is_empty() {
            continue;
        }
        // A test that cannot run (constant samples) means no evidence of
        // a shift.
        let same = mann_whitney_u_sorted(old, new).map_or(true, |r| !r.rejects_at(cfg.alpha));
        if same {
            continue;
        }
        // Fresh window second → positive delta means values grew.
        let delta = cliffs_delta_sorted(new, old).unwrap_or(0.0);
        let magnitude = DeltaMagnitude::classify(delta);
        if magnitude >= cfg.min_magnitude {
            drifted.push(MetricDrift {
                metric,
                delta,
                magnitude,
            });
        }
    }
    DriftReport { drifted }
}

/// The metrics worth watching in production: execution time plus the six
/// base metrics of the final feature set F4.
pub fn watched_metrics() -> Vec<Metric> {
    let mut metrics = crate::features::FeatureSet::F4.required_metrics();
    metrics.insert(0, Metric::ExecutionTime);
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizeless_engine::RngStream;
    use sizeless_telemetry::{InvocationSample, METRIC_COUNT};

    /// A store whose metric values follow `base + noise`, with an optional
    /// multiplier on one metric.
    fn store(n: usize, boosted: Option<(Metric, f64)>, seed: u64) -> MetricStore {
        let mut rng = RngStream::from_seed(seed, "drift-test");
        let mut out = MetricStore::new();
        for i in 0..n {
            let mut values = [0.0; METRIC_COUNT];
            for metric in Metric::ALL {
                let base = 50.0 + metric.index() as f64;
                let mult = match boosted {
                    Some((m, f)) if m == metric => f,
                    _ => 1.0,
                };
                values[metric.index()] = base * mult + rng.standard_normal();
            }
            out.record(InvocationSample {
                at_ms: i as f64 * 50.0,
                values,
            });
        }
        out
    }

    #[test]
    fn no_drift_between_identical_distributions() {
        let reference = store(400, None, 1);
        let fresh = store(400, None, 2);
        let report = detect_drift(&reference, &fresh, &watched_metrics(), &DriftConfig::default());
        assert!(!report.should_reoptimize(), "{:?}", report.drifted);
    }

    #[test]
    fn detects_a_boosted_metric() {
        let reference = store(400, None, 3);
        let fresh = store(400, Some((Metric::BytesReceived, 1.5)), 4);
        let report = detect_drift(&reference, &fresh, &watched_metrics(), &DriftConfig::default());
        assert!(report.should_reoptimize());
        let drift = &report.drifted[0];
        assert_eq!(drift.metric, Metric::BytesReceived);
        assert!(drift.delta > 0.0, "payload grew → positive delta");
        assert!(drift.magnitude >= DeltaMagnitude::Small);
    }

    #[test]
    fn unwatched_metrics_are_ignored() {
        let reference = store(400, None, 5);
        // PackagesReceived is not part of F4's six base metrics.
        let fresh = store(400, Some((Metric::PackagesReceived, 2.0)), 6);
        let report = detect_drift(&reference, &fresh, &watched_metrics(), &DriftConfig::default());
        assert!(!report.should_reoptimize(), "{:?}", report.drifted);
    }

    #[test]
    fn tiny_shifts_below_magnitude_threshold_do_not_trigger() {
        let reference = store(2_000, None, 7);
        // A 0.1% shift: statistically detectable with n=2000, but the
        // effect size stays negligible.
        let fresh = store(2_000, Some((Metric::UserCpuTime, 1.001)), 8);
        let report = detect_drift(&reference, &fresh, &watched_metrics(), &DriftConfig::default());
        assert!(
            report
                .drifted
                .iter()
                .all(|d| d.metric != Metric::UserCpuTime || d.magnitude >= DeltaMagnitude::Small),
        );
    }

    #[test]
    fn watched_metrics_are_execution_time_plus_f4_base() {
        let w = watched_metrics();
        assert_eq!(w[0], Metric::ExecutionTime);
        assert_eq!(w.len(), 7);
    }

    #[test]
    fn empty_windows_are_ignored() {
        let reference = store(100, None, 9);
        let fresh = MetricStore::new();
        let report = detect_drift(&reference, &fresh, &watched_metrics(), &DriftConfig::default());
        assert!(!report.should_reoptimize());
    }
}
