//! Deterministic metrics: log-scale histograms and monotone counters.
//!
//! Everything here is driven by virtual time and explicit observations —
//! no wall clock, no ambient randomness — so snapshots from identical runs
//! are byte-identical. Bucketing is derived directly from the IEEE-754 bit
//! pattern (exponent plus the top mantissa bits), which is exact on every
//! platform and needs no `ln`/`log2` calls.
//!
//! A fleet's metrics are not counted alongside its trace: [`trace_metrics`]
//! folds the recorded trace into a registry after the run, so every series
//! is a view of the events that produced it.

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

/// Handle to a registered counter (index into the registry, O(1) updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A registry of named monotone counters and log-scale histograms.
///
/// Register every series up front (allocates once), then update through the
/// returned handles from hot paths without further allocation. Snapshots
/// serialize in registration order, so identical runs produce byte-identical
/// JSON.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, LogHistogram)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or finds) a counter named `name` and returns its handle.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| *n == name) {
            return CounterId(i);
        }
        self.counters.push((name, 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) a histogram named `name` and returns its handle.
    pub fn histogram(&mut self, name: &'static str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| *n == name) {
            return HistogramId(i);
        }
        self.histograms.push((name, LogHistogram::new()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].1 += 1;
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0].1 += delta;
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        self.histograms[id.0].1.observe(value);
    }

    /// Current value of the counter named `name`, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Serializes the registry to JSON at virtual time `at_ms`.
    ///
    /// Counters appear in registration order; each histogram reports count,
    /// sum, min/max, p50/p90/p99, and its non-empty buckets as
    /// `[lower_bound, count]` pairs.
    pub fn snapshot_json(&self, at_ms: f64) -> String {
        let mut out = String::with_capacity(256 + self.histograms.len() * 256);
        let _ = write!(out, "{{\"at_ms\":{at_ms},\"counters\":{{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, hist)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
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
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// Folds a fleet trace into its metrics registry: ten counters, each
/// counting one event kind (`evictions` sums `eviction.evicted`), and the
/// `init_ms` histogram of cold-start initialization times, in record order.
pub fn trace_metrics(records: &[TraceRecord]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let dispatches = reg.counter("dispatches");
    let cold_starts = reg.counter("cold_starts");
    let throttles = reg.counter("throttles");
    let evictions = reg.counter("evictions");
    let resizes = reg.counter("resizes_applied");
    let shadow_routes = reg.counter("shadow_routes");
    let drift_detections = reg.counter("drift_detections");
    let invocation_failures = reg.counter("invocation_failures");
    let retries = reg.counter("retries_scheduled");
    let host_crashes = reg.counter("host_crashes");
    let init_ms = reg.histogram("init_ms");
    for record in records {
        match record.event {
            TraceEvent::Dispatch { .. } => reg.inc(dispatches),
            TraceEvent::ColdStart { init_ms: v, .. } => {
                reg.inc(cold_starts);
                reg.observe(init_ms, v);
            }
            TraceEvent::Throttle { .. } => reg.inc(throttles),
            TraceEvent::Eviction { evicted, .. } => reg.add(evictions, u64::from(evicted)),
            TraceEvent::Resize { .. } => reg.inc(resizes),
            TraceEvent::ShadowRoute { .. } => reg.inc(shadow_routes),
            TraceEvent::DriftDetected { .. } => reg.inc(drift_detections),
            TraceEvent::InvocationFailed { .. } => reg.inc(invocation_failures),
            TraceEvent::RetryScheduled { .. } => reg.inc(retries),
            TraceEvent::HostDown { .. } => reg.inc(host_crashes),
            _ => {}
        }
    }
    reg
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
    fn registry_dedupes_names_and_updates_by_handle() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("dispatches");
        let b = reg.counter("dispatches");
        assert_eq!(a, b);
        reg.inc(a);
        reg.add(b, 4);
        assert_eq!(reg.counter_value("dispatches"), Some(5));
        assert_eq!(reg.counter_value("missing"), None);

        let h = reg.histogram("latency_ms");
        assert_eq!(reg.histogram("latency_ms"), h);
        reg.observe(h, 12.0);
        reg.observe(h, 14.0);
        assert!(reg
            .snapshot_json(0.0)
            .contains("\"latency_ms\":{\"count\":2,\"sum\":26,"));
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
        assert_eq!(trace_metrics(&[]).counter_value("dispatches"), Some(0));
    }

    #[test]
    fn snapshot_json_is_stable_and_parseable() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("cold_starts");
        let h = reg.histogram("latency_ms");
        reg.add(c, 3);
        for v in [10.0, 20.0, 40.0] {
            reg.observe(h, v);
        }
        let snap = reg.snapshot_json(1234.5);
        assert_eq!(snap, reg.snapshot_json(1234.5), "snapshots are deterministic");
        assert!(snap.starts_with("{\"at_ms\":1234.5,\"counters\":{\"cold_starts\":3}"), "{snap}");
        assert!(snap.contains("\"count\":3"), "{snap}");
        assert!(snap.contains("\"sum\":70"), "{snap}");
        // Three distinct buckets for 10/20/40 (each in its own power of two).
        assert_eq!(snap.matches(",1]").count(), 3, "{snap}");
    }
}
