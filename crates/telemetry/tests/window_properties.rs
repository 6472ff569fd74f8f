//! Property tests of the streaming/batch aggregation contract.
//!
//! The online sizing service trusts that a [`StreamingWindow`]'s aggregate
//! is **bit-identical** to the batch [`MetricVector`] the offline pipeline
//! was trained against — over any sample sequence, any window capacity, and
//! at any cutoff point mid-stream. These properties pin that contract.

use proptest::prelude::*;
use sizeless_telemetry::{InvocationSample, Metric, MetricVector, StreamingWindow, METRIC_COUNT};

/// Strategy: a random sample sequence with increasing arrival times.
fn sequence_strategy() -> impl Strategy<Value = Vec<InvocationSample>> {
    proptest::collection::vec(
        proptest::collection::vec(0.0f64..10_000.0, METRIC_COUNT),
        1..60,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, vals)| {
                let mut values = [0.0; METRIC_COUNT];
                values.copy_from_slice(&vals);
                InvocationSample {
                    at_ms: i as f64 * 25.0,
                    values,
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pushing a random sequence through a random-capacity window yields,
    /// at EVERY cutoff, exactly the batch aggregate of the last
    /// `min(cutoff, capacity)` samples — bit for bit, all 25 metrics, all
    /// three moments.
    #[test]
    fn streaming_aggregation_is_bit_identical_to_batch_at_every_cutoff(
        samples in sequence_strategy(),
        capacity in 1usize..40,
    ) {
        let mut window = StreamingWindow::new(capacity);
        for (cutoff, sample) in samples.iter().enumerate() {
            window.push(sample.clone());
            let retained = cutoff + 1;
            let start = retained.saturating_sub(capacity);
            let batch = MetricVector::from_samples(samples[start..=cutoff].iter());
            let streaming = window.aggregate();
            prop_assert_eq!(streaming.sample_count(), batch.sample_count());
            for metric in Metric::ALL {
                prop_assert_eq!(
                    streaming.mean(metric).to_bits(),
                    batch.mean(metric).to_bits(),
                    "mean bits diverged for {} at cutoff {}", metric, cutoff
                );
                prop_assert_eq!(
                    streaming.std_dev(metric).to_bits(),
                    batch.std_dev(metric).to_bits(),
                    "std bits diverged for {} at cutoff {}", metric, cutoff
                );
                prop_assert_eq!(
                    streaming.cv(metric).to_bits(),
                    batch.cv(metric).to_bits(),
                    "cv bits diverged for {} at cutoff {}", metric, cutoff
                );
            }
        }
    }
}
