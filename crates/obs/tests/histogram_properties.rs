//! Property tests for the log-scale histogram: every value lands in a
//! bucket whose bounds enclose it.

use proptest::prelude::*;
use sizeless_obs::LogHistogram;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_positive_value_lands_in_a_self_consistent_bucket(v in 1e-9..1e12f64) {
        let idx = LogHistogram::bucket_index(v);
        prop_assert!(idx > 0, "positive values never land in the underflow bucket");
        prop_assert!(idx < LogHistogram::bucket_len());
        // The bucket's lower bound is at or below the value...
        prop_assert!(LogHistogram::bucket_lower(idx) <= v);
        // ...and the next bucket (if any) starts above it.
        if idx + 1 < LogHistogram::bucket_len() {
            prop_assert!(LogHistogram::bucket_lower(idx + 1) > v);
        }
    }
}
