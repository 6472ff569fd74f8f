//! Re-measurement: how a drifted function gets fresh base-size monitoring
//! data.
//!
//! The model only consumes monitoring data collected at its *base* size, so
//! after a confirmed drift the service must somehow observe the drifted
//! workload at base again. The paper's loop does this by reverting the
//! whole function ([`RemeasureKind::FullRevert`]) — simple, but the
//! function then runs an entire window at a potentially much worse size.
//! [`RemeasureKind::ShadowSampling`] instead keeps the function at its
//! directed size and routes a small, deterministic fraction of dispatches
//! to the base size, trading a longer re-measurement for never paying a
//! full revert window. Each [`SizingService`](super::SizingService) handle
//! takes its kind from [`ControlPlane::handle`](super::ControlPlane::handle)
//! and matches on it at every confirmed drift.

/// How a drifted function re-measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RemeasureKind {
    /// Revert the function to the base size and collect a full measurement
    /// window there (the paper's loop).
    FullRevert,
    /// Keep serving at the directed size and route roughly the given
    /// fraction of dispatches to the base size until a full base-size
    /// window accumulates. The fraction is realized as a fixed dispatch
    /// period (`round(1 / fraction)`, floored at 1), so routing needs no
    /// randomness and replays bit-identically. It must be in `(0, 1]`.
    ShadowSampling(f64),
}

impl RemeasureKind {
    /// The kind itself: [`ControlPlane::handle`](super::ControlPlane::handle)
    /// takes it directly. Kept because `perfbench/src/closed_loop.rs` still
    /// calls it; it goes once the benchmark harness passes the kind.
    pub fn build(self) -> Self {
        self
    }

    /// The policy's display name.
    pub fn name(self) -> &'static str {
        match self {
            RemeasureKind::FullRevert => "full-revert",
            RemeasureKind::ShadowSampling(_) => "shadow-sampling",
        }
    }
}

/// The dispatch period that realizes a shadow `fraction`.
pub(super) fn shadow_period(fraction: f64) -> usize {
    ((1.0 / fraction).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_fraction_rounds_to_a_period() {
        assert_eq!(shadow_period(0.125), 8);
        assert_eq!(shadow_period(0.1), 10);
        assert_eq!(shadow_period(1.0), 1);
        assert_eq!(shadow_period(0.3), 3);
        assert_eq!(shadow_period(0.25), 4);
    }

    #[test]
    fn kinds_have_display_names() {
        assert_eq!(RemeasureKind::FullRevert.name(), "full-revert");
        assert_eq!(RemeasureKind::ShadowSampling(0.2).name(), "shadow-sampling");
    }
}
