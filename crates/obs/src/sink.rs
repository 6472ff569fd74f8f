//! Trace sinks: where recorded events go.
//!
//! Sinks are statically dispatched — instrumented code is generic over
//! `S: TraceSink`, so the default [`NullSink`] compiles to nothing and an
//! un-traced run pays no branch, no virtual call, and no allocation.

use crate::event::{TraceEvent, TraceRecord};

/// A destination for trace events.
///
/// `record` is called from simulator hot paths, so implementations must be
/// allocation-free per event after construction (the `hot001` contract) and
/// must not consult wall clocks or ambient randomness (`det001`/`det002`):
/// the only inputs are the virtual timestamp and the event payload.
pub trait TraceSink {
    /// Records one event at virtual time `at_ms`.
    fn record(&mut self, at_ms: f64, event: TraceEvent);
}

/// The zero-cost sink: drops every event.
///
/// This is the default sink for every simulator entry point; with it the
/// instrumentation inlines away entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn record(&mut self, _at_ms: f64, _event: TraceEvent) {}
}

/// An unbounded in-memory sink retaining every event, for export.
///
/// Used by `--trace` runs and the determinism tests: collect everything,
/// then serialize with [`MemorySink::to_jsonl`]. `record` only ever appends
/// (amortized allocation-free), so it is safe on the hot path for bounded
/// runs.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    records: Vec<TraceRecord>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Creates a sink with room for `capacity` records before reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        MemorySink { records: Vec::with_capacity(capacity) }
    }

    /// Every recorded event, in record order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Exports the full log as JSONL (one event object per line).
    pub fn to_jsonl(&self) -> String {
        crate::export::jsonl(&self.records)
    }
}

impl TraceSink for MemorySink {
    #[inline]
    fn record(&mut self, at_ms: f64, event: TraceEvent) {
        let seq = self.records.len() as u64;
        self.records.push(TraceRecord { at_ms, seq, event });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(fn_id: u32) -> TraceEvent {
        TraceEvent::DriftDetected { fn_id }
    }

    #[test]
    fn memory_sink_assigns_dense_sequence_numbers() {
        let mut sink = MemorySink::new();
        sink.record(1.0, ev(0));
        sink.record(2.0, ev(1));
        let seqs: Vec<u64> = sink.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
        assert!(!sink.is_empty());
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn null_sink_is_a_unit() {
        let mut sink = NullSink;
        sink.record(0.0, ev(0));
        assert_eq!(std::mem::size_of::<NullSink>(), 0);
    }
}
