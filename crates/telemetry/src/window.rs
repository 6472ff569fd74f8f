//! Streaming, bounded monitoring windows for the online sizing service.
//!
//! The batch pipeline aggregates a whole [`MetricStore`](crate::MetricStore)
//! at once; an online right-sizer instead ingests one [`InvocationSample`]
//! at a time and needs the aggregate of the *most recent* window.
//! [`StreamingWindow`] is that primitive: an O(1)-per-push ring of the last
//! `capacity` samples whose [`StreamingWindow::aggregate`] is
//! **bit-identical** to [`MetricVector::from_samples`] over the retained
//! samples.
//!
//! Bit-identity is a contract, not an accident: the batch aggregation
//! computes each metric's mean as a sequential left-fold and its standard
//! deviation in a second pass against that mean. Incremental moment
//! maintenance (Welford updates, or subtract-on-evict running sums)
//! produces different floating-point roundings, so this window intentionally
//! defers moment computation to aggregation time and runs it through the
//! *same* code path as the batch pipeline. The streaming part is the window
//! maintenance — bounded memory, O(1) ingestion, oldest-first eviction —
//! which is what an always-on service needs; aggregation happens once per
//! recommendation decision, not once per sample.

use crate::aggregate::MetricVector;
use crate::monitor::InvocationSample;
use std::collections::VecDeque;

/// A bounded window over the most recent invocation samples.
///
/// # Examples
///
/// ```
/// use sizeless_telemetry::{InvocationSample, StreamingWindow, METRIC_COUNT};
///
/// let mut w = StreamingWindow::new(2);
/// for i in 0..3 {
///     w.push(InvocationSample { at_ms: i as f64, values: [i as f64; METRIC_COUNT] });
/// }
/// // Only the last two samples are retained.
/// assert_eq!(w.len(), 2);
/// assert_eq!(w.evicted(), 1);
/// let v = w.aggregate();
/// assert_eq!(v.sample_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingWindow {
    samples: VecDeque<InvocationSample>,
    capacity: usize,
    evicted: usize,
}

impl StreamingWindow {
    /// An empty window retaining at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        StreamingWindow {
            samples: VecDeque::with_capacity(capacity),
            capacity,
            evicted: 0,
        }
    }

    /// The maximum number of retained samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ingests one sample, evicting the oldest when the window is full.
    pub fn push(&mut self, sample: InvocationSample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.evicted += 1;
        }
        self.samples.push_back(sample);
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Whether the window has reached its capacity.
    pub fn is_full(&self) -> bool {
        self.samples.len() == self.capacity
    }

    /// Samples evicted (oldest-first) since creation or the last
    /// [`StreamingWindow::clear`].
    pub fn evicted(&self) -> usize {
        self.evicted
    }

    /// Drops all retained samples and resets the eviction counter.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.evicted = 0;
    }

    /// The retained samples in arrival order.
    pub fn samples(&self) -> impl Iterator<Item = &InvocationSample> {
        self.samples.iter()
    }

    /// Aggregates the retained window, bit-identical to
    /// [`MetricVector::from_samples`] over [`StreamingWindow::samples`].
    ///
    /// # Panics
    ///
    /// Panics if the window is empty — mirror of the batch contract that a
    /// measurement window always contains at least one invocation.
    pub fn aggregate(&self) -> MetricVector {
        MetricVector::from_samples(self.samples.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{Metric, METRIC_COUNT};

    fn sample(at: f64, exec: f64) -> InvocationSample {
        let mut values = [0.0; METRIC_COUNT];
        values[Metric::ExecutionTime.index()] = exec;
        values[Metric::HeapUsed.index()] = exec / 2.0;
        InvocationSample { at_ms: at, values }
    }

    #[test]
    fn retains_the_most_recent_capacity_samples() {
        let mut w = StreamingWindow::new(3);
        for i in 0..5 {
            w.push(sample(i as f64, 10.0 * i as f64));
        }
        assert_eq!(w.len(), 3);
        assert!(w.is_full());
        assert_eq!(w.evicted(), 2);
        let ats: Vec<f64> = w.samples().map(|s| s.at_ms).collect();
        assert_eq!(ats, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn aggregate_is_bit_identical_to_batch() {
        let mut w = StreamingWindow::new(4);
        let all: Vec<InvocationSample> =
            (0..7).map(|i| sample(i as f64, 3.0 + 1.7 * i as f64)).collect();
        for s in &all {
            w.push(s.clone());
        }
        let batch = MetricVector::from_samples(all[3..].iter());
        let streaming = w.aggregate();
        assert_eq!(streaming, batch);
        for m in Metric::ALL {
            assert_eq!(streaming.mean(m).to_bits(), batch.mean(m).to_bits());
            assert_eq!(streaming.std_dev(m).to_bits(), batch.std_dev(m).to_bits());
            assert_eq!(streaming.cv(m).to_bits(), batch.cv(m).to_bits());
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut w = StreamingWindow::new(1);
        w.push(sample(0.0, 1.0));
        w.push(sample(1.0, 2.0));
        assert_eq!(w.evicted(), 1);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.evicted(), 0);
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn empty_aggregate_panics_like_batch() {
        let _ = StreamingWindow::new(4).aggregate();
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = StreamingWindow::new(0);
    }
}
