//! Deterministic metrics: log-scale histograms and a trace's counters.
//!
//! Everything here is driven by virtual time and explicit observations —
//! no wall clock, no ambient randomness — so snapshots from identical runs
//! are byte-identical. Bucketing is derived directly from the IEEE-754 bit
//! pattern (exponent plus the top mantissa bits), which is exact on every
//! platform and needs no `ln`/`log2` calls.
//!
//! A fleet's metrics are not counted alongside its trace: [`trace_metrics`]
//! folds the recorded trace into a [`TraceMetrics`] after the run, so every
//! series is a view of the events that produced it.

use crate::event::{TraceEvent, TraceRecord};
use std::fmt::Write as _;

/// Number of mantissa bits used to subdivide each power of two.
const SUB_BITS: u32 = 3;
/// Sub-buckets per power of two (`2^SUB_BITS`).
const SUBS: usize = 1 << SUB_BITS;
/// Smallest tracked binary exponent: values below `2^MIN_EXP` (~1e-6) land
/// in the underflow bucket.
const MIN_EXP: i32 = -20;
/// Largest tracked binary exponent: values at or above `2^(MAX_EXP+1)`
/// (~2e9) land in the overflow bucket.
const MAX_EXP: i32 = 30;
/// Total bucket count: underflow bucket 0, then `SUBS` sub-buckets per
/// exponent in `[MIN_EXP, MAX_EXP]`; the final bucket doubles as overflow.
const BUCKETS: usize = 1 + (MAX_EXP - MIN_EXP + 1) as usize * SUBS;

/// A fixed-bucket log-scale histogram with ~9% relative bucket width.
///
/// Buckets are fixed at construction and never reallocate, so
/// [`LogHistogram::observe`] is allocation-free (`hot001`-safe). Merging two
/// histograms is exact for counts and extrema: every bucket boundary is
/// identical across instances.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Maps a value to its bucket index. Non-positive and NaN values land
    /// in bucket 0; values beyond the tracked range clamp to the edge
    /// buckets.
    pub fn bucket_index(value: f64) -> usize {
        if value.is_nan() || value <= 0.0 {
            return 0;
        }
        if value == f64::INFINITY {
            return BUCKETS - 1;
        }
        let bits = value.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        if exp < MIN_EXP {
            // Subnormals also take this branch (their biased exponent is 0).
            return 1;
        }
        if exp > MAX_EXP {
            return BUCKETS - 1;
        }
        let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        1 + (exp - MIN_EXP) as usize * SUBS + sub
    }

    /// The inclusive lower bound of bucket `index` (0.0 for the underflow
    /// bucket).
    pub fn bucket_lower(index: usize) -> f64 {
        assert!(index < BUCKETS, "bucket index out of range");
        if index == 0 {
            return 0.0;
        }
        let exp = MIN_EXP + ((index - 1) / SUBS) as i32;
        let sub = ((index - 1) % SUBS) as u64;
        f64::from_bits((((exp + 1023) as u64) << 52) | (sub << (52 - SUB_BITS)))
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, value: f64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observed value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 { 0.0 } else { self.sum / self.count as f64 }
    }

    /// Smallest observed value (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observed value (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Raw bucket counts (length [`LogHistogram::bucket_len`]).
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Number of buckets.
    pub fn bucket_len() -> usize {
        BUCKETS
    }

    /// The estimated `q`-quantile (`q` in `[0, 1]`): walks the cumulative
    /// bucket counts and reports the matched bucket's upper bound, clamped
    /// into the observed `[min, max]`. Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i + 1 < BUCKETS {
                    LogHistogram::bucket_lower(i + 1)
                } else {
                    self.max
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// The metrics of one recorded fleet trace, as [`trace_metrics`] folds
/// them: ten counters, each counting one event kind, and the histogram of
/// cold-start initialization times. The counters are named like the JSON
/// keys [`TraceMetrics::snapshot_json`] writes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceMetrics {
    /// `Dispatch` events.
    pub dispatches: u64,
    /// `ColdStart` events.
    pub cold_starts: u64,
    /// `Throttle` events.
    pub throttles: u64,
    /// Instances evicted: the sum of `Eviction.evicted`.
    pub evictions: u64,
    /// `Resize` events.
    pub resizes_applied: u64,
    /// `ShadowRoute` events.
    pub shadow_routes: u64,
    /// `DriftDetected` events.
    pub drift_detections: u64,
    /// `InvocationFailed` events.
    pub invocation_failures: u64,
    /// `RetryScheduled` events.
    pub retries_scheduled: u64,
    /// `HostDown` events.
    pub host_crashes: u64,
    /// `ColdStart.init_ms`, in record order.
    pub init_ms: LogHistogram,
}

impl TraceMetrics {
    /// Serializes the metrics to JSON at virtual time `at_ms`.
    ///
    /// The counters appear in field order; the `init_ms` histogram reports
    /// count, sum, min/max, p50/p90/p99, and its non-empty buckets as
    /// `[lower_bound, count]` pairs.
    pub fn snapshot_json(&self, at_ms: f64) -> String {
        let counters = [
            ("dispatches", self.dispatches),
            ("cold_starts", self.cold_starts),
            ("throttles", self.throttles),
            ("evictions", self.evictions),
            ("resizes_applied", self.resizes_applied),
            ("shadow_routes", self.shadow_routes),
            ("drift_detections", self.drift_detections),
            ("invocation_failures", self.invocation_failures),
            ("retries_scheduled", self.retries_scheduled),
            ("host_crashes", self.host_crashes),
        ];
        let hist = &self.init_ms;
        let mut out = String::with_capacity(512);
        let _ = write!(out, "{{\"at_ms\":{at_ms},\"counters\":{{");
        for (i, (name, value)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        let _ = write!(
            out,
            "}},\"histograms\":{{\"init_ms\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
            hist.count(),
            hist.sum(),
            if hist.count() == 0 { 0.0 } else { hist.min() },
            if hist.count() == 0 { 0.0 } else { hist.max() },
            hist.quantile(0.5),
            hist.quantile(0.9),
            hist.quantile(0.99),
        );
        let mut first = true;
        for (b, c) in hist.buckets().iter().enumerate() {
            if *c > 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{},{c}]", LogHistogram::bucket_lower(b));
            }
        }
        out.push_str("]}}}");
        out
    }
}

/// Folds a fleet trace into its [`TraceMetrics`]: each counter counts one
/// event kind (`evictions` sums `eviction.evicted`), and `init_ms` holds
/// the cold-start initialization times, in record order.
pub fn trace_metrics(records: &[TraceRecord]) -> TraceMetrics {
    let mut m = TraceMetrics::default();
    for record in records {
        match record.event {
            TraceEvent::Dispatch { .. } => m.dispatches += 1,
            TraceEvent::ColdStart { init_ms, .. } => {
                m.cold_starts += 1;
                m.init_ms.observe(init_ms);
            }
            TraceEvent::Throttle { .. } => m.throttles += 1,
            TraceEvent::Eviction { evicted, .. } => m.evictions += u64::from(evicted),
            TraceEvent::Resize { .. } => m.resizes_applied += 1,
            TraceEvent::ShadowRoute { .. } => m.shadow_routes += 1,
            TraceEvent::DriftDetected { .. } => m.drift_detections += 1,
            TraceEvent::InvocationFailed { .. } => m.invocation_failures += 1,
            TraceEvent::RetryScheduled { .. } => m.retries_scheduled += 1,
            TraceEvent::HostDown { .. } => m.host_crashes += 1,
            _ => {}
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_lower_is_a_fixed_point_of_bucket_index() {
        for i in 0..BUCKETS {
            let lower = LogHistogram::bucket_lower(i);
            assert_eq!(
                LogHistogram::bucket_index(lower),
                i,
                "bucket {i} lower bound {lower} must map back to itself"
            );
        }
    }

    #[test]
    fn bucket_boundaries_are_strictly_increasing() {
        for i in 1..BUCKETS {
            assert!(
                LogHistogram::bucket_lower(i) > LogHistogram::bucket_lower(i - 1),
                "bucket {i} must start above bucket {}",
                i - 1
            );
        }
    }

    #[test]
    fn edge_values_land_in_edge_buckets() {
        assert_eq!(LogHistogram::bucket_index(0.0), 0);
        assert_eq!(LogHistogram::bucket_index(-1.0), 0);
        assert_eq!(LogHistogram::bucket_index(f64::NAN), 0);
        assert_eq!(LogHistogram::bucket_index(f64::MIN_POSITIVE / 2.0), 1, "subnormal underflow");
        assert_eq!(LogHistogram::bucket_index(1e-30), 1, "underflow clamps to first real bucket");
        assert_eq!(LogHistogram::bucket_index(1e300), BUCKETS - 1, "overflow clamps to last");
        assert_eq!(LogHistogram::bucket_index(f64::INFINITY), BUCKETS - 1);
    }

    #[test]
    fn nearby_values_share_a_bucket_distant_values_do_not() {
        // ~9% relative width: the bucket holding 100 spans [96, 104).
        assert_eq!(LogHistogram::bucket_index(100.0), LogHistogram::bucket_index(103.0));
        assert_ne!(LogHistogram::bucket_index(100.0), LogHistogram::bucket_index(104.0));
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.observe(i as f64);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((400.0..=600.0).contains(&p50), "p50 {p50} should be near 500");
        assert!((900.0..=1000.0).contains(&p99), "p99 {p99} should be near 990");
        assert!(h.quantile(0.0) >= h.min() && h.quantile(1.0) <= h.max());
        assert_eq!(h.mean(), 500.5);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn trace_metrics_counts_each_event_kind_once() {
        use crate::event::{FaultKind, ResizeCause, ThrottleCause};
        let events = [
            TraceEvent::Dispatch { fn_id: 0, host: 0, memory_mb: 256, cold: true, shadow: false },
            TraceEvent::ColdStart { fn_id: 0, host: 0, memory_mb: 256, init_ms: 120.0 },
            TraceEvent::Eviction { host: 0, evicted: 3 },
            TraceEvent::Dispatch { fn_id: 1, host: 1, memory_mb: 512, cold: true, shadow: true },
            TraceEvent::ColdStart { fn_id: 1, host: 1, memory_mb: 512, init_ms: 250.0 },
            TraceEvent::Eviction { host: 1, evicted: 2 },
            TraceEvent::Throttle { fn_id: 1, cause: ThrottleCause::Capacity },
            TraceEvent::ShadowRoute { fn_id: 1, base_mb: 256 },
            TraceEvent::Resize { fn_id: 0, from_mb: 256, to_mb: 512, cause: ResizeCause::Recommend },
            TraceEvent::DriftDetected { fn_id: 0 },
            TraceEvent::DriftSuppressed { fn_id: 0 },
            TraceEvent::HostDown { host: 1, failed_in_flight: 1, lost_warm: 4 },
            TraceEvent::InvocationFailed { fn_id: 1, host: 1, attempt: 1, cause: FaultKind::HostCrash },
            TraceEvent::RetryScheduled { fn_id: 1, attempt: 2, delay_ms: 50.0 },
            TraceEvent::HostUp { host: 1, down_ms: 900.0 },
        ];
        let records: Vec<TraceRecord> = events
            .iter()
            .enumerate()
            .map(|(i, &event)| TraceRecord { at_ms: i as f64, seq: i as u64, event })
            .collect();
        let reg = trace_metrics(&records);
        let snap = reg.snapshot_json(14.0);
        assert!(
            snap.starts_with(
                "{\"at_ms\":14,\"counters\":{\"dispatches\":2,\"cold_starts\":2,\"throttles\":1,\
                 \"evictions\":5,\"resizes_applied\":1,\"shadow_routes\":1,\"drift_detections\":1,\
                 \"invocation_failures\":1,\"retries_scheduled\":1,\"host_crashes\":1},\
                 \"histograms\":{\"init_ms\":{\"count\":2,\"sum\":370,"
            ),
            "{snap}"
        );
        assert_eq!(trace_metrics(&[]).dispatches, 0);
    }

    #[test]
    fn snapshot_json_is_stable_and_parseable() {
        let mut m = TraceMetrics {
            cold_starts: 3,
            ..TraceMetrics::default()
        };
        for v in [10.0, 20.0, 40.0] {
            m.init_ms.observe(v);
        }
        let snap = m.snapshot_json(1234.5);
        assert_eq!(snap, m.snapshot_json(1234.5), "snapshots are deterministic");
        assert!(
            snap.starts_with("{\"at_ms\":1234.5,\"counters\":{\"dispatches\":0,\"cold_starts\":3,"),
            "{snap}"
        );
        assert!(snap.contains("\"count\":3"), "{snap}");
        assert!(snap.contains("\"sum\":70"), "{snap}");
        // Three distinct buckets for 10/20/40 (each in its own power of two).
        assert_eq!(snap.matches(",1]").count(), 3, "{snap}");
        // The empty snapshot byte for byte: every key, in file order.
        assert_eq!(
            trace_metrics(&[]).snapshot_json(0.0),
            "{\"at_ms\":0,\"counters\":{\"dispatches\":0,\"cold_starts\":0,\"throttles\":0,\
             \"evictions\":0,\"resizes_applied\":0,\"shadow_routes\":0,\"drift_detections\":0,\
             \"invocation_failures\":0,\"retries_scheduled\":0,\"host_crashes\":0},\
             \"histograms\":{\"init_ms\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\
             \"p50\":0,\"p90\":0,\"p99\":0,\"buckets\":[]}}}"
        );
    }
}
