//! Deterministic tracing and metrics for the sizeless simulators.
//!
//! Simulated-fleet runs were previously black boxes: one final report, no
//! record of what happened along the way. This crate adds the wrapper-style
//! observability the paper itself relies on (Section 3.2's resource-monitor
//! wrappers), rebuilt for a discrete-event world:
//!
//! - [`TraceEvent`]/[`TraceRecord`]: a closed vocabulary of structured
//!   events (dispatch, cold start, eviction, throttle, resize, drift,
//!   phase transition, shadow route, artifact update, region handoff)
//!   stamped with *virtual* time — never the wall clock, so traces are
//!   `det001`-clean and byte-identical across repeated seeds and thread
//!   counts.
//! - [`TraceSink`]: statically dispatched sinks. [`NullSink`] compiles the
//!   instrumentation away entirely (the default everywhere);
//!   [`MemorySink`] retains everything for export.
//! - [`export`]: JSONL (one self-describing object per line), plus a
//!   parser for round-trip analysis.
//! - [`trace_metrics`]: folds a recorded trace into [`TraceMetrics`], ten
//!   event counters and a deterministic fixed-bucket log-scale
//!   [`LogHistogram`], snapshottable to JSON at any virtual time.
//!
//! The crate is dependency-free by design: it sits *below* the engine,
//! fleet, and sizing control plane, which all record into it.

pub mod event;
pub mod export;
pub mod metrics;
pub mod sink;

pub use event::{FaultKind, LoopPhase, ResizeCause, ThrottleCause, TraceEvent, TraceRecord};
pub use metrics::{trace_metrics, LogHistogram, TraceMetrics};
pub use sink::{MemorySink, NullSink, TraceSink};
