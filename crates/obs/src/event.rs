//! The structured trace vocabulary: everything the simulators can say
//! about one run, as plain-data events stamped with virtual time.
//!
//! Events are deliberately `Copy` and carry only primitive fields (ids,
//! megabytes, milliseconds) rather than domain types, so the obs layer sits
//! *below* every domain crate: the engine, fleet, and sizing control plane
//! all record into it without the obs crate knowing any of them.

use std::fmt::Write as _;

/// Why a request was throttled with a 429: the fleet's concurrency limits
/// return it, and its `Throttle` trace records carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThrottleCause {
    /// The per-function concurrency cap was hit.
    Function,
    /// The account-wide concurrency cap was hit.
    Account,
    /// No host had capacity for the placement.
    Capacity,
}

impl ThrottleCause {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ThrottleCause::Function => "function",
            ThrottleCause::Account => "account",
            ThrottleCause::Capacity => "capacity",
        }
    }

    /// Inverse of [`ThrottleCause::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "function" => Some(ThrottleCause::Function),
            "account" => Some(ThrottleCause::Account),
            "capacity" => Some(ThrottleCause::Capacity),
            _ => None,
        }
    }
}

/// Why a resize directive was applied (mirrors the sizing service's
/// `DirectiveReason`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeCause {
    /// First contact at a foreign size: move to base for calibration.
    Calibrate,
    /// A filled measurement window produced a recommendation.
    Recommend,
    /// Drift was confirmed; the function re-measures.
    Drift,
}

impl ResizeCause {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ResizeCause::Calibrate => "calibrate",
            ResizeCause::Recommend => "recommend",
            ResizeCause::Drift => "drift",
        }
    }

    /// Inverse of [`ResizeCause::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "calibrate" => Some(ResizeCause::Calibrate),
            "recommend" => Some(ResizeCause::Recommend),
            "drift" => Some(ResizeCause::Drift),
            _ => None,
        }
    }
}

/// Why an invocation attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The instance crashed during initialization (cold-start failure).
    Init,
    /// The instance crashed mid-execution.
    Exec,
    /// The host serving the invocation crashed.
    HostCrash,
}

impl FaultKind {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Init => "init",
            FaultKind::Exec => "exec",
            FaultKind::HostCrash => "host_crash",
        }
    }

    /// Inverse of [`FaultKind::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "init" => Some(FaultKind::Init),
            "exec" => Some(FaultKind::Exec),
            "host_crash" => Some(FaultKind::HostCrash),
            _ => None,
        }
    }
}

/// A function's position in the sizing loop (mirrors the service's
/// `FnPhase`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopPhase {
    /// Collecting a measurement window at the base size.
    Measuring,
    /// Collecting the post-resize drift-reference window.
    Referencing,
    /// Steady state: tumbling drift checks against the reference.
    Watching,
    /// Post-drift shadow re-measurement.
    Shadowing,
}

impl LoopPhase {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            LoopPhase::Measuring => "measuring",
            LoopPhase::Referencing => "referencing",
            LoopPhase::Watching => "watching",
            LoopPhase::Shadowing => "shadowing",
        }
    }

    /// Inverse of [`LoopPhase::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "measuring" => Some(LoopPhase::Measuring),
            "referencing" => Some(LoopPhase::Referencing),
            "watching" => Some(LoopPhase::Watching),
            "shadowing" => Some(LoopPhase::Shadowing),
            _ => None,
        }
    }
}

/// One structured event on a run's virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// An admitted request began executing on a host.
    Dispatch {
        /// Function id.
        fn_id: u32,
        /// Host the invocation was placed on.
        host: u32,
        /// Memory size the invocation runs at, MB.
        memory_mb: u32,
        /// Whether a new instance was provisioned (cold start).
        cold: bool,
        /// Whether this is a shadow invocation at the base size.
        shadow: bool,
    },
    /// A cold start: a fresh instance paid its initialization.
    ColdStart {
        /// Function id.
        fn_id: u32,
        /// Host the instance was provisioned on.
        host: u32,
        /// Memory size of the new instance, MB.
        memory_mb: u32,
        /// Initialization latency, ms.
        init_ms: f64,
    },
    /// Idle warm instances were evicted under memory pressure.
    Eviction {
        /// Host that evicted.
        host: u32,
        /// Number of instances evicted by this placement.
        evicted: u32,
    },
    /// A request was throttled (429).
    Throttle {
        /// Function id.
        fn_id: u32,
        /// Which limit rejected it.
        cause: ThrottleCause,
    },
    /// A sizing directive redeployed a function at a new size.
    Resize {
        /// Function id.
        fn_id: u32,
        /// Size it ran at before, MB.
        from_mb: u32,
        /// Size it runs at from now on, MB.
        to_mb: u32,
        /// Why the directive was issued.
        cause: ResizeCause,
    },
    /// The drift detector confirmed a workload shift.
    DriftDetected {
        /// Function id.
        fn_id: u32,
    },
    /// A function moved between sizing-loop phases.
    PhaseTransition {
        /// Function id.
        fn_id: u32,
        /// Phase it left.
        from: LoopPhase,
        /// Phase it entered.
        to: LoopPhase,
    },
    /// The sizing service routed an invocation to the base size for
    /// shadow re-measurement.
    ShadowRoute {
        /// Function id.
        fn_id: u32,
        /// The base size the invocation runs at, MB.
        base_mb: u32,
    },
    /// The control plane's adaptation policy updated the shared artifact.
    ArtifactUpdate {
        /// Cumulative artifact updates on the plane so far.
        updates: u64,
    },
    /// A merged multi-region driver switched which region it advances.
    RegionHandoff {
        /// Region that ran the previous event.
        from_region: u32,
        /// Region that runs the next event.
        to_region: u32,
    },
    /// A host crashed: all warm generations lost, in-flight invocations
    /// failed, capacity withdrawn until the host rejoins.
    HostDown {
        /// Host that crashed.
        host: u32,
        /// In-flight invocations failed by the crash.
        failed_in_flight: u32,
        /// Idle warm instances destroyed by the crash.
        lost_warm: u32,
    },
    /// A crashed host rejoined the fleet with cold pools.
    HostUp {
        /// Host that rejoined.
        host: u32,
        /// How long the host was down, ms.
        down_ms: f64,
    },
    /// An invocation attempt failed (injected fault or crash).
    InvocationFailed {
        /// Function id.
        fn_id: u32,
        /// Host the attempt ran on.
        host: u32,
        /// 1-based attempt number that failed.
        attempt: u32,
        /// What killed the attempt.
        cause: FaultKind,
    },
    /// A failed invocation was re-enqueued by the retry policy.
    RetryScheduled {
        /// Function id.
        fn_id: u32,
        /// 1-based attempt number about to run.
        attempt: u32,
        /// Backoff delay before the retry fires, ms.
        delay_ms: f64,
    },
    /// A multi-region driver rerouted an arrival away from a region in
    /// outage to a healthy one.
    RegionFailover {
        /// Function id of the rerouted arrival.
        fn_id: u32,
        /// Region that was in outage.
        from_region: u32,
        /// Healthy region that absorbed the arrival.
        to_region: u32,
    },
    /// A drift detection was suppressed because it coincided with an
    /// active fault on the function's hosts.
    DriftSuppressed {
        /// Function id.
        fn_id: u32,
    },
}

impl TraceEvent {
    /// Stable machine-readable event type name (the `type` field of the
    /// JSONL schema).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Dispatch { .. } => "dispatch",
            TraceEvent::ColdStart { .. } => "cold_start",
            TraceEvent::Eviction { .. } => "eviction",
            TraceEvent::Throttle { .. } => "throttle",
            TraceEvent::Resize { .. } => "resize",
            TraceEvent::DriftDetected { .. } => "drift_detected",
            TraceEvent::PhaseTransition { .. } => "phase_transition",
            TraceEvent::ShadowRoute { .. } => "shadow_route",
            TraceEvent::ArtifactUpdate { .. } => "artifact_update",
            TraceEvent::RegionHandoff { .. } => "region_handoff",
            TraceEvent::HostDown { .. } => "host_down",
            TraceEvent::HostUp { .. } => "host_up",
            TraceEvent::InvocationFailed { .. } => "invocation_failed",
            TraceEvent::RetryScheduled { .. } => "retry_scheduled",
            TraceEvent::RegionFailover { .. } => "region_failover",
            TraceEvent::DriftSuppressed { .. } => "drift_suppressed",
        }
    }

    /// All event type names, in declaration order — the closed schema CI
    /// validates exported JSONL against.
    pub const KINDS: [&'static str; 16] = [
        "dispatch",
        "cold_start",
        "eviction",
        "throttle",
        "resize",
        "drift_detected",
        "phase_transition",
        "shadow_route",
        "artifact_update",
        "region_handoff",
        "host_down",
        "host_up",
        "invocation_failed",
        "retry_scheduled",
        "region_failover",
        "drift_suppressed",
    ];
}

/// One recorded event: a [`TraceEvent`] plus its virtual timestamp and the
/// sink-assigned sequence number (total order within one sink).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Virtual time the event happened, ms.
    pub at_ms: f64,
    /// Sink-local sequence number, starting at 0.
    pub seq: u64,
    /// The event itself.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Appends this record as one JSONL line (no trailing newline) onto
    /// `out`. Field order is fixed, numbers use Rust's shortest-round-trip
    /// formatting, and no whitespace is emitted — so identical runs export
    /// byte-identical logs.
    pub fn write_jsonl(&self, out: &mut String) {
        // Writing into a String cannot fail; `fmt::Write` only surfaces the
        // formatter contract.
        let _ = write!(out, "{{\"at_ms\":{},\"seq\":{},\"type\":\"{}\"", self.at_ms, self.seq, self.event.kind());
        match self.event {
            TraceEvent::Dispatch { fn_id, host, memory_mb, cold, shadow } => {
                let _ = write!(
                    out,
                    ",\"fn_id\":{fn_id},\"host\":{host},\"memory_mb\":{memory_mb},\"cold\":{cold},\"shadow\":{shadow}"
                );
            }
            TraceEvent::ColdStart { fn_id, host, memory_mb, init_ms } => {
                let _ = write!(
                    out,
                    ",\"fn_id\":{fn_id},\"host\":{host},\"memory_mb\":{memory_mb},\"init_ms\":{init_ms}"
                );
            }
            TraceEvent::Eviction { host, evicted } => {
                let _ = write!(out, ",\"host\":{host},\"evicted\":{evicted}");
            }
            TraceEvent::Throttle { fn_id, cause } => {
                let _ = write!(out, ",\"fn_id\":{fn_id},\"cause\":\"{}\"", cause.name());
            }
            TraceEvent::Resize { fn_id, from_mb, to_mb, cause } => {
                let _ = write!(
                    out,
                    ",\"fn_id\":{fn_id},\"from_mb\":{from_mb},\"to_mb\":{to_mb},\"cause\":\"{}\"",
                    cause.name()
                );
            }
            TraceEvent::DriftDetected { fn_id } => {
                let _ = write!(out, ",\"fn_id\":{fn_id}");
            }
            TraceEvent::PhaseTransition { fn_id, from, to } => {
                let _ = write!(
                    out,
                    ",\"fn_id\":{fn_id},\"from\":\"{}\",\"to\":\"{}\"",
                    from.name(),
                    to.name()
                );
            }
            TraceEvent::ShadowRoute { fn_id, base_mb } => {
                let _ = write!(out, ",\"fn_id\":{fn_id},\"base_mb\":{base_mb}");
            }
            TraceEvent::ArtifactUpdate { updates } => {
                let _ = write!(out, ",\"updates\":{updates}");
            }
            TraceEvent::RegionHandoff { from_region, to_region } => {
                let _ = write!(out, ",\"from_region\":{from_region},\"to_region\":{to_region}");
            }
            TraceEvent::HostDown { host, failed_in_flight, lost_warm } => {
                let _ = write!(
                    out,
                    ",\"host\":{host},\"failed_in_flight\":{failed_in_flight},\"lost_warm\":{lost_warm}"
                );
            }
            TraceEvent::HostUp { host, down_ms } => {
                let _ = write!(out, ",\"host\":{host},\"down_ms\":{down_ms}");
            }
            TraceEvent::InvocationFailed { fn_id, host, attempt, cause } => {
                let _ = write!(
                    out,
                    ",\"fn_id\":{fn_id},\"host\":{host},\"attempt\":{attempt},\"cause\":\"{}\"",
                    cause.name()
                );
            }
            TraceEvent::RetryScheduled { fn_id, attempt, delay_ms } => {
                let _ = write!(out, ",\"fn_id\":{fn_id},\"attempt\":{attempt},\"delay_ms\":{delay_ms}");
            }
            TraceEvent::RegionFailover { fn_id, from_region, to_region } => {
                let _ = write!(
                    out,
                    ",\"fn_id\":{fn_id},\"from_region\":{from_region},\"to_region\":{to_region}"
                );
            }
            TraceEvent::DriftSuppressed { fn_id } => {
                let _ = write!(out, ",\"fn_id\":{fn_id}");
            }
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_cover_every_variant() {
        let samples = [
            TraceEvent::Dispatch { fn_id: 0, host: 1, memory_mb: 256, cold: true, shadow: false },
            TraceEvent::ColdStart { fn_id: 0, host: 1, memory_mb: 256, init_ms: 120.5 },
            TraceEvent::Eviction { host: 2, evicted: 3 },
            TraceEvent::Throttle { fn_id: 4, cause: ThrottleCause::Account },
            TraceEvent::Resize { fn_id: 0, from_mb: 256, to_mb: 512, cause: ResizeCause::Recommend },
            TraceEvent::DriftDetected { fn_id: 1 },
            TraceEvent::PhaseTransition { fn_id: 1, from: LoopPhase::Watching, to: LoopPhase::Measuring },
            TraceEvent::ShadowRoute { fn_id: 2, base_mb: 256 },
            TraceEvent::ArtifactUpdate { updates: 7 },
            TraceEvent::RegionHandoff { from_region: 0, to_region: 1 },
            TraceEvent::HostDown { host: 3, failed_in_flight: 2, lost_warm: 5 },
            TraceEvent::HostUp { host: 3, down_ms: 5_000.0 },
            TraceEvent::InvocationFailed { fn_id: 1, host: 3, attempt: 1, cause: FaultKind::Exec },
            TraceEvent::RetryScheduled { fn_id: 1, attempt: 2, delay_ms: 250.0 },
            TraceEvent::RegionFailover { fn_id: 4, from_region: 0, to_region: 1 },
            TraceEvent::DriftSuppressed { fn_id: 1 },
        ];
        let mut kinds: Vec<&str> = samples.iter().map(TraceEvent::kind).collect();
        kinds.sort_unstable();
        let mut expected = TraceEvent::KINDS.to_vec();
        expected.sort_unstable();
        assert_eq!(kinds, expected);
    }

    #[test]
    fn enum_names_round_trip() {
        for c in [ThrottleCause::Function, ThrottleCause::Account, ThrottleCause::Capacity] {
            assert_eq!(ThrottleCause::parse(c.name()), Some(c));
        }
        for c in [ResizeCause::Calibrate, ResizeCause::Recommend, ResizeCause::Drift] {
            assert_eq!(ResizeCause::parse(c.name()), Some(c));
        }
        for p in [
            LoopPhase::Measuring,
            LoopPhase::Referencing,
            LoopPhase::Watching,
            LoopPhase::Shadowing,
        ] {
            assert_eq!(LoopPhase::parse(p.name()), Some(p));
        }
        for f in [FaultKind::Init, FaultKind::Exec, FaultKind::HostCrash] {
            assert_eq!(FaultKind::parse(f.name()), Some(f));
        }
        assert_eq!(ThrottleCause::parse("nope"), None);
        assert_eq!(ResizeCause::parse(""), None);
        assert_eq!(LoopPhase::parse("Watching"), None, "names are lowercase");
        assert_eq!(FaultKind::parse("HostCrash"), None, "names are snake_case");
    }

    #[test]
    fn jsonl_line_has_fixed_field_order() {
        let rec = TraceRecord {
            at_ms: 12.5,
            seq: 3,
            event: TraceEvent::Dispatch { fn_id: 1, host: 0, memory_mb: 256, cold: false, shadow: true },
        };
        let mut line = String::new();
        rec.write_jsonl(&mut line);
        assert_eq!(
            line,
            "{\"at_ms\":12.5,\"seq\":3,\"type\":\"dispatch\",\"fn_id\":1,\"host\":0,\"memory_mb\":256,\"cold\":false,\"shadow\":true}"
        );

        let rec = TraceRecord {
            at_ms: 20.0,
            seq: 4,
            event: TraceEvent::InvocationFailed {
                fn_id: 2,
                host: 1,
                attempt: 1,
                cause: FaultKind::HostCrash,
            },
        };
        let mut line = String::new();
        rec.write_jsonl(&mut line);
        assert_eq!(
            line,
            "{\"at_ms\":20,\"seq\":4,\"type\":\"invocation_failed\",\"fn_id\":2,\"host\":1,\"attempt\":1,\"cause\":\"host_crash\"}"
        );
    }
}
