//! The wrapper-style resource monitor and its result store.
//!
//! The paper's monitor implements the Lambda entry point, snapshots all
//! metric sources, calls the inner handler, snapshots again, and writes the
//! deltas to DynamoDB *after* metric collection (so the write does not
//! perturb the measurements). Here the inner handler is a simulated
//! execution; the monitor's job is to add realistic collector noise and to
//! persist samples.

use crate::metric::{Metric, METRIC_COUNT};
use serde::{Deserialize, Serialize};
use sizeless_engine::{box_muller, RngStream};
use sizeless_platform::ResourceUsage;

/// The monitored metric values of one invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvocationSample {
    /// Arrival time of the invocation on the experiment clock, ms.
    pub at_ms: f64,
    /// Metric values in [`Metric::ALL`] order.
    pub values: [f64; METRIC_COUNT],
}

impl InvocationSample {
    /// The value of one metric.
    pub fn value(&self, metric: Metric) -> f64 {
        self.values[metric.index()]
    }
}

/// The wrapper-style monitor.
///
/// `overhead_ms` models the (small) cost of polling all metric sources; the
/// paper notes this overhead does **not** affect the measured inner
/// execution time, and neither does it here — it only lengthens the total
/// occupancy of the worker instance.
///
/// A monitor collects either all 25 metrics ([`ResourceMonitor::new`]) or
/// only the ones its consumer reads ([`ResourceMonitor::collecting`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceMonitor {
    /// Wrapper overhead added around the inner execution, ms.
    pub overhead_ms: f64,
    /// Bit `i` is set when the metric with index `i` is collected.
    collected: u32,
}

impl ResourceMonitor {
    /// A monitor of all 25 metrics with the default ~1.8 ms polling +
    /// DynamoDB-write overhead.
    pub fn new() -> Self {
        ResourceMonitor {
            overhead_ms: 1.8,
            collected: (1 << METRIC_COUNT) - 1,
        }
    }

    /// A monitor that collects only `metrics`, at the same overhead as
    /// [`ResourceMonitor::new`]. Its samples agree bit for bit with the
    /// full monitor's on every collected metric, read 0.0 on the others,
    /// and leave the generator at the same position.
    pub fn collecting(metrics: &[Metric]) -> Self {
        let collected = metrics.iter().fold(0, |mask, m| mask | 1 << m.index());
        ResourceMonitor {
            collected,
            ..Self::new()
        }
    }

    fn collects(&self, metric: Metric) -> bool {
        self.collected & 1 << metric.index() != 0
    }

    /// Observes one execution: extracts the collected metrics from the
    /// ground-truth usage and perturbs each with its collector's noise.
    ///
    /// A metric is noisy when both its σ and its true value are non-zero;
    /// each noisy metric, in [`Metric::ALL`] order, takes two uniforms
    /// from `rng`, collected or not, so the stream stays where the full
    /// monitor leaves it. All uniforms are drawn before any is
    /// transformed, so the generator and the `ln`/`cos` of
    /// [`box_muller`] do not wait on each other; a collected metric's
    /// value is bit-identical to one [`RngStream::standard_normal`] per
    /// noisy metric. Uncollected metrics skip the transform and read 0.0.
    pub fn observe(
        &self,
        at_ms: f64,
        usage: &ResourceUsage,
        rng: &mut RngStream,
    ) -> InvocationSample {
        let mut values = [0.0; METRIC_COUNT];
        // (metric index, σ, which uniform pair) of each collected noisy
        // metric.
        let mut noisy = [(0, 0.0, 0); METRIC_COUNT];
        let (mut count, mut draws) = (0, 0);
        for metric in Metric::ALL {
            let truth = metric.extract(usage);
            let sigma = metric.collector_noise_sigma();
            let collected = self.collects(metric);
            if collected {
                values[metric.index()] = truth;
            }
            if sigma != 0.0 && truth != 0.0 {
                if collected {
                    noisy[count] = (metric.index(), sigma, draws);
                    count += 1;
                }
                draws += 1;
            }
        }
        let mut uniforms = [[0.0; 2]; METRIC_COUNT];
        for pair in &mut uniforms[..draws] {
            *pair = [rng.next_f64(), rng.next_f64()];
        }
        for &(i, sigma, k) in &noisy[..count] {
            let [first, second] = uniforms[k];
            values[i] = (values[i] * (1.0 + sigma * box_muller(first, second))).max(0.0);
        }
        InvocationSample { at_ms, values }
    }
}

impl Default for ResourceMonitor {
    fn default() -> Self {
        Self::new()
    }
}

/// The simulated DynamoDB table collecting monitoring samples.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricStore {
    samples: Vec<InvocationSample>,
}

impl MetricStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample (the monitor's post-execution DynamoDB write).
    pub fn record(&mut self, sample: InvocationSample) {
        self.samples.push(sample);
    }

    /// All samples in arrival order.
    pub fn samples(&self) -> &[InvocationSample] {
        &self.samples
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Drops all recorded samples, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// The values of one metric across all samples, in arrival order.
    pub fn series(&self, metric: Metric) -> Vec<f64> {
        self.samples.iter().map(|s| s.value(metric)).collect()
    }

    /// The values of one metric for samples arriving before `cutoff_ms`.
    pub fn series_until(&self, metric: Metric, cutoff_ms: f64) -> Vec<f64> {
        self.window(cutoff_ms).map(|s| s.value(metric)).collect()
    }

    /// Samples arriving before `cutoff_ms`.
    pub fn window(&self, cutoff_ms: f64) -> impl Iterator<Item = &InvocationSample> {
        self.samples.iter().filter(move |s| s.at_ms < cutoff_ms)
    }
}

impl Extend<InvocationSample> for MetricStore {
    fn extend<T: IntoIterator<Item = InvocationSample>>(&mut self, iter: T) {
        self.samples.extend(iter);
    }
}

impl FromIterator<InvocationSample> for MetricStore {
    fn from_iter<T: IntoIterator<Item = InvocationSample>>(iter: T) -> Self {
        MetricStore {
            samples: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage() -> ResourceUsage {
        ResourceUsage {
            duration_ms: 100.0,
            user_cpu_ms: 60.0,
            sys_cpu_ms: 5.0,
            heap_used_mb: 40.0,
            heap_limit_mb: 96.0,
            net_rx_kb: 200.0,
            fs_writes: 12.0,
            loop_lag_max_ms: 30.0,
            ..ResourceUsage::default()
        }
    }

    #[test]
    fn observe_preserves_exact_metrics() {
        let m = ResourceMonitor::new();
        let mut rng = RngStream::from_seed(1, "mon");
        let s = m.observe(0.0, &usage(), &mut rng);
        // Zero-noise metrics pass through unchanged.
        assert_eq!(s.value(Metric::ExecutionTime), 100.0);
        assert_eq!(s.value(Metric::HeapLimit), 96.0);
    }

    #[test]
    fn observe_perturbs_noisy_metrics() {
        let m = ResourceMonitor::new();
        let mut rng = RngStream::from_seed(2, "mon2");
        let u = usage();
        let a = m.observe(0.0, &u, &mut rng);
        let b = m.observe(1.0, &u, &mut rng);
        assert_ne!(a.value(Metric::HeapUsed), b.value(Metric::HeapUsed));
        // But noise is small relative to the value.
        let rel = (a.value(Metric::HeapUsed) - 40.0).abs() / 40.0;
        assert!(rel < 0.3, "rel={rel}");
    }

    #[test]
    fn zero_valued_metrics_stay_zero() {
        let m = ResourceMonitor::new();
        let mut rng = RngStream::from_seed(3, "mon3");
        let s = m.observe(0.0, &usage(), &mut rng);
        assert_eq!(s.value(Metric::FileSystemReads), 0.0);
    }

    #[test]
    fn noisy_values_never_negative() {
        let m = ResourceMonitor::new();
        let mut rng = RngStream::from_seed(4, "mon4");
        let mut u = usage();
        u.loop_lag_std_ms = 0.001;
        for i in 0..2000 {
            let s = m.observe(i as f64, &u, &mut rng);
            for metric in Metric::ALL {
                assert!(s.value(metric) >= 0.0, "{metric} went negative");
            }
        }
    }

    #[test]
    fn store_series_and_windows() {
        let m = ResourceMonitor::new();
        let mut rng = RngStream::from_seed(5, "mon5");
        let mut store = MetricStore::new();
        for i in 0..10 {
            store.record(m.observe(i as f64 * 100.0, &usage(), &mut rng));
        }
        assert_eq!(store.len(), 10);
        assert!(!store.is_empty());
        assert_eq!(store.series(Metric::ExecutionTime).len(), 10);
        assert_eq!(store.series_until(Metric::ExecutionTime, 500.0).len(), 5);
        assert_eq!(store.window(250.0).count(), 3);
    }

    #[test]
    fn clear_empties_the_store() {
        let m = ResourceMonitor::new();
        let mut rng = RngStream::from_seed(8, "mon8");
        let mut store: MetricStore = (0..3).map(|i| m.observe(i as f64, &usage(), &mut rng)).collect();
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn store_collects_from_iterator() {
        let m = ResourceMonitor::new();
        let mut rng = RngStream::from_seed(6, "mon6");
        let u = usage();
        let store: MetricStore = (0..4).map(|i| m.observe(i as f64, &u, &mut rng)).collect();
        assert_eq!(store.len(), 4);
    }
}
