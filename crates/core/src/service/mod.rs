//! The online half of the Figure-2 loop, as a layered control plane.
//!
//! The batch pipeline answers one question once: "given this monitoring
//! window, which memory size?". Production middleware needs the *loop*: a
//! service that ingests per-invocation telemetry as it happens, keeps a
//! bounded window per function, recommends when it has seen enough, and
//! notices — via [`detect_drift`](crate::drift::detect_drift)'s sorted
//! comparison — when the workload has shifted enough that the cached
//! recommendation is stale.
//!
//! The loop is three separable layers:
//!
//! * [`ControlPlane`] ([`control`]) owns the shared [`TrainedSizer`]
//!   artifact plus an [`AdaptationKind`] ([`adaptation`]) that says whether
//!   it keeps fine-tuning it online ([`AdaptationKind::Frozen`] vs
//!   [`AdaptationKind::FineTune`]); it serves any number of per-region
//!   [`SizingService`] handles against that one artifact.
//! * [`SizingService`] is the per-region serving handle: the per-function
//!   state machine below, plus a [`RemeasureKind`] ([`remeasure`]) that
//!   decides how a drifted function gets fresh base-size data —
//!   [`RemeasureKind::FullRevert`] (the paper's loop) or
//!   [`RemeasureKind::ShadowSampling`] (route a deterministic fraction of
//!   dispatches to base, never pay a full revert window).
//! * The embedding layer (e.g. the fleet simulator) calls
//!   [`SizingService::route`] per dispatch and [`SizingService::ingest`]
//!   per completion, and applies the returned [`SizingDirective`]s.
//!
//! ```text
//!           window full → recommend
//! Measuring ───────────────────────→ Referencing ──window full──→ Watching
//!   (at the model's base size)        (at the new size)         (drift checks)
//!      ↑                                   ↑                         │
//!      │ revert                            │ window full     drift   │
//!      └──────────────────────── or ─── Shadowing ◄──────────────────┘
//!                                 (every period-th dispatch runs at base)
//! ```
//!
//! * **Measuring** — the function runs at the model's *base* size (the only
//!   size the paper's model consumes monitoring data from); a full window
//!   is aggregated — via the streaming [`StreamingWindow`], bit-identical
//!   to the batch aggregation — and fed to the shared artifact. The
//!   recommendation is cached and, if it differs from the base, a resize
//!   [`SizingDirective`] is emitted.
//! * **Referencing** — after a resize the function's metrics legitimately
//!   change (execution time scales with memory), so the first full window
//!   *at the new size* becomes the drift reference. It is also the loop's
//!   labeled feedback: the mean execution time observed at the directed
//!   size is handed to the plane's adaptation policy.
//! * **Watching** — tumbling windows are compared against the reference
//!   with the Mann–Whitney/Cliff's-delta machinery of [`crate::drift`]. A
//!   confirmed shift re-measures as the [`RemeasureKind`] says:
//!   revert to base for a full measurement window (the paper's "predict
//!   the optimal memory size for the changed function behavior again"),
//!   or —
//! * **Shadowing** — stay at the directed size while every `period`-th
//!   dispatch is routed to base; the base-size shadow samples accumulate
//!   into the next measurement window, so re-recommendation costs a longer
//!   wait instead of a full window at the base size.
//!
//! Samples observed at a size the service did not direct (e.g. completions
//! draining from warm instances of the previous size after a resize) are
//! ignored as stale, so windows never mix memory sizes.

pub mod adaptation;
pub mod control;
pub mod remeasure;

pub use adaptation::{AdaptationKind, FineTuneConfig};
pub use control::{ControlPlane, PlaneStats};
pub use remeasure::RemeasureKind;

use crate::drift::{detect_drift_sorted, watched_metrics, DriftColumns, DriftConfig};
use crate::model::{OnlineObservation, PredictedTimes};
use crate::optimizer::OptimizationOutcome;
use crate::trainer::TrainedSizer;
use control::PlaneHandle;
use serde::{Deserialize, Serialize};
use sizeless_platform::MemorySize;
use sizeless_telemetry::{InvocationSample, Metric, MetricVector, StreamingWindow};

/// A memory-size recommendation for one monitored function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Predicted execution times at every size.
    pub predicted: PredictedTimes,
    /// The optimizer's scoring and decision.
    pub outcome: OptimizationOutcome,
}

impl Recommendation {
    /// The recommended memory size.
    pub fn memory_size(&self) -> MemorySize {
        self.outcome.chosen
    }
}

/// Configuration of the online sizing service.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Samples per decision window (measurement, reference, drift, and
    /// shadow windows all use this length, so drift compares like with
    /// like).
    pub window: usize,
    /// Drift-detection thresholds.
    pub drift: DriftConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            window: 150,
            drift: DriftConfig::default(),
        }
    }
}

/// Why a directive was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirectiveReason {
    /// The function was first observed at a non-base size; it must run at
    /// the base size before the model can recommend.
    Calibrate,
    /// A filled measurement window produced a recommendation.
    Recommend,
    /// Drift was detected; the function reverts to the base size for a
    /// fresh measurement window.
    Drift,
}

/// A resize instruction for the embedding layer (e.g. the fleet simulator).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SizingDirective {
    /// Which function to resize.
    pub fn_id: usize,
    /// The size to run at from now on.
    pub target: MemorySize,
    /// Why.
    pub reason: DirectiveReason,
}

/// Where a function currently stands in the service's loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FnPhase {
    /// Collecting a measurement window at the base size.
    Measuring,
    /// Collecting the post-resize drift-reference window.
    Referencing,
    /// Steady state: tumbling drift checks against the reference.
    Watching,
    /// Post-drift shadow re-measurement: serving at the directed size while
    /// a fraction of dispatches collect a base-size window.
    Shadowing,
}

/// Per-invocation routing decision for the embedding layer — ask via
/// [`SizingService::route`] before placing each admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// Run at the function's deployed size.
    Deployed,
    /// Shadow this invocation to the given (base) size for re-measurement.
    Shadow(MemorySize),
}

/// What one [`SizingService::ingest_masked`] call did: the directive plus
/// the loop transitions it made, reported explicitly so the embedding
/// layer can trace each one where it happens.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IngestOutcome {
    /// The resize directive to apply, if any.
    pub directive: Option<SizingDirective>,
    /// A drift check confirmed a shift.
    pub drift_detected: bool,
    /// ...and the detection was suppressed by the fault mask.
    pub drift_suppressed: bool,
    /// The `(from, to)` phase change of a function that already had state
    /// (a function's first entry into `Measuring` is not a transition).
    pub transition: Option<(FnPhase, FnPhase)>,
    /// The plane's new artifact-update total, when this call's feedback
    /// updated the shared artifact.
    pub artifact_updates: Option<usize>,
}

/// Running tallies of the service's activity, serializable for reports.
///
/// The `entered_*` counters are **cumulative phase transitions** (including
/// each function's initial entry into `Measuring`), so per-function phase
/// history survives reverts; together with the re-recommendation split they
/// let the knob sweep compute false-revert rates without re-simulating.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Samples accepted into a window.
    pub samples_ingested: usize,
    /// Samples ignored because they were observed at a size the service
    /// has already moved the function away from.
    pub stale_samples_ignored: usize,
    /// Measurement (or shadow) windows aggregated into recommendations.
    pub recommendations: usize,
    /// Drift checks run.
    pub drift_checks: usize,
    /// Drift checks that confirmed a shift.
    pub drift_detections: usize,
    /// Confirmed drift detections suppressed because the embedding layer
    /// reported an active fault window (a crashed host's recovery
    /// slowdown looks exactly like workload drift). Suppressed detections
    /// count in `drift_detections` too but trigger no re-measurement.
    pub drift_suppressed_by_fault: usize,
    /// Transitions into `Measuring` (initial entries + full reverts).
    pub entered_measuring: usize,
    /// Transitions into `Referencing`.
    pub entered_referencing: usize,
    /// Transitions into `Watching`.
    pub entered_watching: usize,
    /// Transitions into `Shadowing`.
    pub entered_shadowing: usize,
    /// Post-drift re-recommendations that chose the pre-drift size again —
    /// the re-measurement was paid for nothing (a *false revert* under
    /// [`RemeasureKind::FullRevert`]). Free in-place re-measurements of
    /// functions already at base are counted in neither re-recommendation
    /// bucket.
    pub rerecommend_same: usize,
    /// Post-drift re-recommendations that changed the size.
    pub rerecommend_changed: usize,
    /// Base-size samples accepted into shadow windows.
    pub shadow_samples: usize,
    /// Directed-size samples observed while shadowing (served normally,
    /// not windowed — the shadow window must stay pure base-size).
    pub shadow_passthrough: usize,
}

/// Per-function streaming state.
#[derive(Debug, Clone)]
struct FnState {
    current: MemorySize,
    phase: FnPhase,
    window: StreamingWindow,
    /// The drift reference: the watched metrics' sorted columns of the
    /// window the function entered `Watching` with.
    reference: DriftColumns,
    recommendation: Option<Recommendation>,
    /// Aggregate of the last base-size window a recommendation consumed —
    /// the feature side of the adaptation policy's labeled observation.
    last_measurement: Option<MetricVector>,
    /// The size the function ran at when drift was confirmed; compared
    /// against the re-recommendation to classify false reverts.
    pre_drift: Option<MemorySize>,
    /// Dispatch period between shadow invocations while `Shadowing`.
    shadow_period: usize,
    /// Dispatches seen since shadowing started.
    shadow_seq: usize,
}

impl FnState {
    fn new(base: MemorySize, window: usize) -> Self {
        FnState {
            current: base,
            phase: FnPhase::Measuring,
            window: StreamingWindow::new(window),
            reference: DriftColumns::default(),
            recommendation: None,
            last_measurement: None,
            pre_drift: None,
            shadow_period: 0,
            shadow_seq: 0,
        }
    }

    /// Moves to phase `to`, tallying the entry, and returns the change.
    fn enter(&mut self, to: FnPhase, stats: &mut ServiceStats) -> (FnPhase, FnPhase) {
        let from = self.phase;
        self.phase = to;
        match to {
            FnPhase::Measuring => stats.entered_measuring += 1,
            FnPhase::Referencing => stats.entered_referencing += 1,
            FnPhase::Watching => stats.entered_watching += 1,
            FnPhase::Shadowing => stats.entered_shadowing += 1,
        }
        (from, to)
    }
}

/// The per-region serving handle of the sizing control plane: ingests
/// telemetry, caches recommendations, emits resize directives, and routes
/// shadow re-measurement traffic.
///
/// Create one with [`SizingService::new`] (a private single-handle frozen
/// plane, full-revert re-measurement — the original loop) or
/// [`ControlPlane::handle`] (shared artifact, chosen policies).
#[derive(Debug)]
pub struct SizingService {
    plane: PlaneHandle,
    config: ServiceConfig,
    remeasure: RemeasureKind,
    functions: Vec<Option<FnState>>,
    watched: Vec<Metric>,
    stats: ServiceStats,
    /// The watched metrics' sorted columns of the window under a drift
    /// check, refilled in place per check.
    fresh: DriftColumns,
}

impl SizingService {
    /// A standalone service driving decisions with `sizer` under `config` —
    /// the frozen, full-revert configuration of the original loop, served
    /// from a private single-handle [`ControlPlane`].
    ///
    /// # Panics
    ///
    /// Panics if the window length is below 8 — the Mann–Whitney normal
    /// approximation in the drift path needs a handful of samples per side.
    pub fn new(sizer: TrainedSizer, config: ServiceConfig) -> Self {
        ControlPlane::frozen(sizer).handle(config, RemeasureKind::FullRevert)
    }

    /// The constructor behind [`ControlPlane::handle`].
    ///
    /// # Panics
    ///
    /// Panics if the window length is below 8.
    pub(crate) fn from_plane(
        plane: PlaneHandle,
        config: ServiceConfig,
        remeasure: RemeasureKind,
    ) -> Self {
        assert!(config.window >= 8, "service window must hold at least 8 samples");
        SizingService {
            plane,
            config,
            remeasure,
            functions: Vec::new(),
            watched: watched_metrics(),
            stats: ServiceStats::default(),
            fresh: DriftColumns::default(),
        }
    }

    #[cfg(test)]
    pub(crate) fn plane(&self) -> &PlaneHandle {
        &self.plane
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The re-measurement policy's display name.
    pub fn remeasure_name(&self) -> &'static str {
        self.remeasure.name()
    }

    /// The base memory size measurement windows are collected at.
    pub fn base(&self) -> MemorySize {
        self.plane.base()
    }

    /// A snapshot of the artifact driving decisions (a clone: under an
    /// adapting control plane the live artifact keeps moving).
    pub fn sizer_snapshot(&self) -> TrainedSizer {
        self.plane.sizer_snapshot()
    }

    /// Activity tallies so far.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Every metric a decision of this service can read, in
    /// [`Metric::ALL`] order: the artifact model's required metrics, the
    /// drift detector's watched metrics, and the execution time
    /// (prediction scales by it and the adaptation feedback observes it).
    /// A monitor feeding this service needs to collect nothing else.
    pub fn monitored_metrics(&self) -> Vec<Metric> {
        let required = self.plane.feature_set().required_metrics();
        Metric::ALL
            .into_iter()
            .filter(|m| {
                *m == Metric::ExecutionTime || required.contains(m) || self.watched.contains(m)
            })
            .collect()
    }

    /// The cached recommendation for a function, if one has been issued.
    pub fn recommendation(&self, fn_id: usize) -> Option<&Recommendation> {
        self.state(fn_id)?.recommendation.as_ref()
    }

    /// The size the service currently expects `fn_id` to run at.
    pub fn current_size(&self, fn_id: usize) -> Option<MemorySize> {
        Some(self.state(fn_id)?.current)
    }

    /// The function's position in the loop.
    pub fn phase(&self, fn_id: usize) -> Option<FnPhase> {
        Some(self.state(fn_id)?.phase)
    }

    fn state(&self, fn_id: usize) -> Option<&FnState> {
        self.functions.get(fn_id)?.as_ref()
    }

    /// Per-dispatch routing hook: call once per admitted request, *before*
    /// placement. While a function is [`FnPhase::Shadowing`], every
    /// `period`-th call returns [`RouteDecision::Shadow`] with the base
    /// size; the embedding layer should then run that invocation at the
    /// base size (its completion sample feeds the shadow window). All
    /// other calls — and all other phases — route to the deployed size.
    ///
    /// Purely counter-based, so routing replays bit-identically. The
    /// period slot is consumed whether or not the embedding layer manages
    /// to place the invocation (a throttled shadow dispatch is simply
    /// lost), so under sustained capacity pressure the *effective* shadow
    /// fraction can fall below the nominal one — the fleet counts started
    /// shadow invocations separately for exactly this reason.
    pub fn route(&mut self, fn_id: usize) -> RouteDecision {
        let base = self.plane.base();
        let Some(state) = self.functions.get_mut(fn_id).and_then(Option::as_mut) else {
            return RouteDecision::Deployed;
        };
        if state.phase != FnPhase::Shadowing {
            return RouteDecision::Deployed;
        }
        let seq = state.shadow_seq;
        state.shadow_seq += 1;
        if seq % state.shadow_period.max(1) == 0 {
            RouteDecision::Shadow(base)
        } else {
            RouteDecision::Deployed
        }
    }

    /// Ingests one invocation's monitoring sample for `fn_id`, observed at
    /// memory size `at_size`. Returns a directive when the sample completes
    /// a window that changes the function's target size.
    ///
    /// Samples at a size other than the function's current target are
    /// ignored (warm instances of a previous size draining after a resize)
    /// — except while [`FnPhase::Shadowing`], where base-size samples fill
    /// the shadow window and directed-size samples pass through unwindowed.
    pub fn ingest(
        &mut self,
        fn_id: usize,
        at_size: MemorySize,
        sample: InvocationSample,
    ) -> Option<SizingDirective> {
        self.ingest_masked(fn_id, at_size, sample, false).directive
    }

    /// [`SizingService::ingest`] with fault masking, reporting everything
    /// the call did. When `fault_masked` is `true` (the embedding layer
    /// knows a fault window — crash downtime, recovery slowdown, outage —
    /// is active for this sample's hosts), a confirmed drift detection is
    /// *suppressed* instead of triggering re-measurement, and tallied as
    /// [`ServiceStats::drift_suppressed_by_fault`]. Everything else is
    /// identical to `ingest`.
    pub fn ingest_masked(
        &mut self,
        fn_id: usize,
        at_size: MemorySize,
        sample: InvocationSample,
        fault_masked: bool,
    ) -> IngestOutcome {
        let mut out = IngestOutcome::default();
        let base = self.plane.base();
        if self.functions.len() <= fn_id {
            self.functions.resize_with(fn_id + 1, || None);
        }
        if self.functions[fn_id].is_none() {
            self.functions[fn_id] = Some(FnState::new(base, self.config.window));
            self.stats.entered_measuring += 1;
            if at_size != base {
                // First contact at a foreign size: direct to base for
                // calibration; this sample is unusable.
                self.stats.stale_samples_ignored += 1;
                out.directive = Some(SizingDirective {
                    fn_id,
                    target: base,
                    reason: DirectiveReason::Calibrate,
                });
                return out;
            }
        }

        // lint: allow(panic002) reason="the block above just created or verified this function's state slot"
        let state = self.functions[fn_id].as_mut().expect("state ensured above");
        if state.phase == FnPhase::Shadowing {
            if at_size == state.current {
                // Production traffic at the directed size: served normally,
                // never mixed into the base-size shadow window.
                self.stats.shadow_passthrough += 1;
                return out;
            }
            if at_size != base {
                self.stats.stale_samples_ignored += 1;
                return out;
            }
            self.stats.shadow_samples += 1;
        } else if at_size != state.current {
            self.stats.stale_samples_ignored += 1;
            return out;
        }
        state.window.push(sample);
        self.stats.samples_ingested += 1;
        if state.window.len() < self.config.window {
            return out;
        }

        match state.phase {
            FnPhase::Measuring | FnPhase::Shadowing => {
                let metrics = state.window.aggregate();
                let rec = self.plane.recommend(&metrics);
                let chosen = rec.memory_size();
                self.stats.recommendations += 1;
                if let Some(prev) = state.pre_drift.take() {
                    if chosen == prev {
                        self.stats.rerecommend_same += 1;
                    } else {
                        self.stats.rerecommend_changed += 1;
                    }
                }
                state.recommendation = Some(rec);
                state.last_measurement = Some(metrics);
                if state.phase == FnPhase::Shadowing {
                    // Shadow re-measurement concluded: stop routing; the
                    // next window at the (possibly new) directed size
                    // rebuilds the drift reference under the drifted
                    // workload.
                    state.window.clear();
                    state.shadow_period = 0;
                    state.shadow_seq = 0;
                    out.transition = Some(state.enter(FnPhase::Referencing, &mut self.stats));
                    if chosen != state.current {
                        state.current = chosen;
                        out.directive = Some(SizingDirective {
                            fn_id,
                            target: chosen,
                            reason: DirectiveReason::Recommend,
                        });
                    }
                } else if chosen == base {
                    // No resize: the measurement window doubles as the
                    // drift reference (same size, same length).
                    state
                        .reference
                        .refill(state.window.samples(), &self.watched);
                    state.window.clear();
                    out.transition = Some(state.enter(FnPhase::Watching, &mut self.stats));
                } else {
                    state.window.clear();
                    out.transition = Some(state.enter(FnPhase::Referencing, &mut self.stats));
                    state.current = chosen;
                    out.directive = Some(SizingDirective {
                        fn_id,
                        target: chosen,
                        reason: DirectiveReason::Recommend,
                    });
                }
            }
            FnPhase::Referencing => {
                // The first full window at the directed size: the drift
                // reference, and the loop's labeled feedback signal for the
                // plane's adaptation policy.
                if state.current != base {
                    if let Some(measurement) = &state.last_measurement {
                        let observed_ms = state.window.aggregate().mean_execution_time_ms();
                        out.artifact_updates = self.plane.observe(OnlineObservation {
                            // lint: allow(hot001) reason="runs once per completed reference window, not per invocation; the base measurement must stay owned for later re-recommendations"
                            metrics: measurement.clone(),
                            directed: state.current,
                            observed_ms,
                        });
                    }
                }
                state
                    .reference
                    .refill(state.window.samples(), &self.watched);
                state.window.clear();
                out.transition = Some(state.enter(FnPhase::Watching, &mut self.stats));
            }
            FnPhase::Watching => {
                self.fresh.refill(state.window.samples(), &self.watched);
                state.window.clear();
                self.stats.drift_checks += 1;
                let report = detect_drift_sorted(
                    &state.reference,
                    &self.fresh,
                    &self.watched,
                    &self.config.drift,
                );
                if !report.should_reoptimize() {
                    return out;
                }
                self.stats.drift_detections += 1;
                out.drift_detected = true;
                if fault_masked {
                    // The "drift" coincides with an active fault window:
                    // most likely crash fallout, not a workload shift. Stay
                    // Watching (the window is already cleared); a genuine
                    // shift re-confirms on the next full window.
                    self.stats.drift_suppressed_by_fault += 1;
                    out.drift_suppressed = true;
                    return out;
                }
                if state.current == base {
                    // Already at base: re-measure in place; no routing or
                    // directive needed regardless of policy. No revert is
                    // paid either, so this re-recommendation is *not*
                    // classified against `pre_drift` — the false-revert
                    // split only counts re-measurements that cost something.
                    out.transition = Some(state.enter(FnPhase::Measuring, &mut self.stats));
                    return out;
                }
                state.pre_drift = Some(state.current);
                match self.remeasure {
                    RemeasureKind::FullRevert => {
                        out.transition = Some(state.enter(FnPhase::Measuring, &mut self.stats));
                        state.current = base;
                        out.directive = Some(SizingDirective {
                            fn_id,
                            target: base,
                            reason: DirectiveReason::Drift,
                        });
                    }
                    RemeasureKind::ShadowSampling(fraction) => {
                        out.transition = Some(state.enter(FnPhase::Shadowing, &mut self.stats));
                        state.shadow_period = remeasure::shadow_period(fraction);
                        state.shadow_seq = 0;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use crate::trainer::{Trainer, TrainerConfig};
    use sizeless_engine::RngStream;
    use sizeless_neural::NetworkConfig;
    use sizeless_platform::Platform;
    use sizeless_telemetry::METRIC_COUNT;

    fn quick_sizer() -> TrainedSizer {
        let cfg = TrainerConfig {
            dataset: DatasetConfig::tiny(24),
            network: NetworkConfig {
                hidden_layers: 1,
                neurons: 16,
                epochs: 30,
                l2: 0.0001,
                ..NetworkConfig::default()
            },
            ..TrainerConfig::default()
        };
        Trainer::new(cfg).train(&Platform::aws_like()).unwrap()
    }

    fn service(window: usize) -> SizingService {
        SizingService::new(
            quick_sizer(),
            ServiceConfig {
                window,
                ..ServiceConfig::default()
            },
        )
    }

    /// A plausible CPU-ish sample with noise; `scale` shifts every metric.
    fn sample(rng: &mut RngStream, i: usize, scale: f64) -> InvocationSample {
        let mut values = [0.0; METRIC_COUNT];
        for metric in Metric::ALL {
            let b = (40.0 + metric.index() as f64) * scale;
            values[metric.index()] = (b + rng.standard_normal()).max(0.0);
        }
        InvocationSample {
            at_ms: i as f64 * 40.0,
            values,
        }
    }

    #[test]
    fn recommends_after_one_full_window_and_caches() {
        let mut svc = service(16);
        let base = svc.base();
        let mut rng = RngStream::from_seed(1, "svc");
        let mut directive = None;
        for i in 0..16 {
            assert!(svc.recommendation(0).is_none());
            directive = svc.ingest(0, base, sample(&mut rng, i, 1.0));
        }
        let rec = svc.recommendation(0).expect("window filled");
        assert_eq!(svc.stats().recommendations, 1);
        assert_eq!(svc.stats().samples_ingested, 16);
        match directive {
            Some(d) => {
                assert_eq!(d.reason, DirectiveReason::Recommend);
                assert_eq!(d.target, rec.memory_size());
                assert_ne!(d.target, base);
                assert_eq!(svc.phase(0), Some(FnPhase::Referencing));
                assert_eq!(svc.current_size(0), Some(d.target));
            }
            None => {
                assert_eq!(rec.memory_size(), base);
                assert_eq!(svc.phase(0), Some(FnPhase::Watching));
            }
        }
    }

    #[test]
    fn stale_sizes_are_ignored_and_windows_never_mix() {
        let mut svc = service(16);
        let base = svc.base();
        let mut rng = RngStream::from_seed(2, "svc-stale");
        for i in 0..10 {
            svc.ingest(0, base, sample(&mut rng, i, 1.0));
        }
        // A drain completion from some other size must not pollute.
        let other = MemorySize::STANDARD.iter().copied().find(|&m| m != base).unwrap();
        assert!(svc.ingest(0, other, sample(&mut rng, 10, 1.0)).is_none());
        assert_eq!(svc.stats().stale_samples_ignored, 1);
        assert_eq!(svc.stats().samples_ingested, 10);
    }

    #[test]
    fn foreign_first_size_triggers_calibration_directive() {
        let mut svc = service(16);
        let base = svc.base();
        let other = MemorySize::STANDARD.iter().copied().find(|&m| m != base).unwrap();
        let mut rng = RngStream::from_seed(3, "svc-cal");
        let d = svc.ingest(7, other, sample(&mut rng, 0, 1.0)).expect("directive");
        assert_eq!(d.reason, DirectiveReason::Calibrate);
        assert_eq!(d.target, base);
        assert_eq!(d.fn_id, 7);
        assert_eq!(svc.current_size(7), Some(base));
        // Afterwards base-size samples are accepted normally.
        assert!(svc.ingest(7, base, sample(&mut rng, 1, 1.0)).is_none());
        assert_eq!(svc.stats().samples_ingested, 1);
    }

    #[test]
    fn drift_reverts_to_base_and_remeasures() {
        let mut svc = service(64);
        let base = svc.base();
        let mut rng = RngStream::from_seed(4, "svc-drift");
        // Fill the measurement window with steady traffic.
        let mut i = 0;
        let mut directive = None;
        while directive.is_none() && i < 64 {
            directive = svc.ingest(0, base, sample(&mut rng, i, 1.0));
            i += 1;
        }
        let current = svc.current_size(0).unwrap();
        if current != base {
            // Fill the reference window at the directed size.
            for _ in 0..64 {
                svc.ingest(0, current, sample(&mut rng, i, 1.0));
                i += 1;
            }
        }
        assert_eq!(svc.phase(0), Some(FnPhase::Watching));
        // An un-shifted tumbling window does not trigger.
        for _ in 0..64 {
            assert!(svc.ingest(0, current, sample(&mut rng, i, 1.0)).is_none());
            i += 1;
        }
        assert_eq!(svc.stats().drift_checks, 1);
        assert_eq!(svc.stats().drift_detections, 0);
        assert_eq!(svc.phase(0), Some(FnPhase::Watching));
        // A strongly shifted workload does.
        let mut out = None;
        for _ in 0..64 {
            out = svc.ingest(0, current, sample(&mut rng, i, 1.6));
            i += 1;
        }
        assert_eq!(svc.stats().drift_detections, 1);
        assert_eq!(svc.phase(0), Some(FnPhase::Measuring));
        assert_eq!(svc.current_size(0), Some(base));
        if current != base {
            let d = out.expect("revert directive");
            assert_eq!(d.reason, DirectiveReason::Drift);
            assert_eq!(d.target, base);
        }
        // Phase history is cumulative: the revert's re-entry into
        // Measuring is counted, not overwritten.
        assert_eq!(svc.stats().entered_measuring, 2);

        // The post-revert re-recommendation is classified against the
        // pre-drift size once the fresh measurement window fills — but only
        // when a revert was actually paid; a function already at base
        // re-measures for free and lands in neither bucket.
        let before = *svc.stats();
        for _ in 0..64 {
            svc.ingest(0, base, sample(&mut rng, i, 1.6));
            i += 1;
        }
        let expected = usize::from(current != base);
        assert_eq!(
            svc.stats().rerecommend_same + svc.stats().rerecommend_changed,
            before.rerecommend_same + before.rerecommend_changed + expected
        );
    }

    #[test]
    fn fault_masked_drift_is_suppressed_and_stays_watching() {
        let mut svc = service(64);
        let base = svc.base();
        // Same traffic as the revert test, up to the shifted window.
        let mut rng = RngStream::from_seed(4, "svc-drift");
        let mut i = 0;
        let mut directive = None;
        while directive.is_none() && i < 64 {
            directive = svc.ingest(0, base, sample(&mut rng, i, 1.0));
            i += 1;
        }
        let current = svc.current_size(0).unwrap();
        if current != base {
            for _ in 0..64 {
                svc.ingest(0, current, sample(&mut rng, i, 1.0));
                i += 1;
            }
        }
        assert_eq!(svc.phase(0), Some(FnPhase::Watching));
        // A strongly shifted window during an active fault: the detection
        // fires but is suppressed — no revert, no re-measurement.
        let mut suppressed = 0;
        for _ in 0..64 {
            let out = svc.ingest_masked(0, current, sample(&mut rng, i, 1.6), true);
            assert!(out.directive.is_none());
            assert_eq!(out.drift_detected, out.drift_suppressed);
            assert_eq!(out.transition, None, "a suppressed detection stays Watching");
            suppressed += usize::from(out.drift_suppressed);
            i += 1;
        }
        assert_eq!(suppressed, 1);
        assert_eq!(svc.stats().drift_detections, 1);
        assert_eq!(svc.stats().drift_suppressed_by_fault, 1);
        assert_eq!(svc.phase(0), Some(FnPhase::Watching));
        assert_eq!(svc.current_size(0), Some(current), "no revert happened");
        assert_eq!(svc.stats().entered_measuring, 1);
        // Once the fault window clears, the still-shifted workload
        // re-confirms on the next tumbling window and acts normally.
        for _ in 0..64 {
            svc.ingest(0, current, sample(&mut rng, i, 1.6));
            i += 1;
        }
        assert_eq!(svc.stats().drift_detections, 2);
        assert_eq!(svc.stats().drift_suppressed_by_fault, 1);
        assert_eq!(svc.phase(0), Some(FnPhase::Measuring));
    }

    #[test]
    fn shadow_sampling_remeasures_without_a_revert() {
        let plane = ControlPlane::frozen(quick_sizer());
        let mut svc = plane.handle(
            ServiceConfig {
                window: 64,
                ..ServiceConfig::default()
            },
            RemeasureKind::ShadowSampling(0.25),
        );
        let base = svc.base();
        // Same stream as the revert test: identical traffic up to drift.
        let mut rng = RngStream::from_seed(4, "svc-drift");
        let mut i = 0;
        let mut directive = None;
        while directive.is_none() && i < 64 {
            directive = svc.ingest(0, base, sample(&mut rng, i, 1.0));
            i += 1;
        }
        let current = svc.current_size(0).unwrap();
        if current == base {
            // This artifact recommended the base size; the shadow path is
            // unreachable here (covered by the fleet-level tests).
            return;
        }
        for _ in 0..64 {
            svc.ingest(0, current, sample(&mut rng, i, 1.0));
            i += 1;
        }
        assert_eq!(svc.phase(0), Some(FnPhase::Watching));
        // Routing is a no-op outside Shadowing.
        assert_eq!(svc.route(0), RouteDecision::Deployed);
        // Shifted workload → drift → Shadowing, *no* revert directive and
        // no change to the serving size.
        for _ in 0..128 {
            let out = svc.ingest(0, current, sample(&mut rng, i, 1.6));
            assert!(out.is_none(), "shadow re-measurement must not revert");
            i += 1;
        }
        assert_eq!(svc.stats().drift_detections, 1);
        assert_eq!(svc.phase(0), Some(FnPhase::Shadowing));
        assert_eq!(svc.current_size(0), Some(current));
        assert_eq!(svc.stats().entered_shadowing, 1);

        // Every 4th dispatch shadows to base, deterministically.
        let decisions: Vec<RouteDecision> = (0..8).map(|_| svc.route(0)).collect();
        assert_eq!(decisions[0], RouteDecision::Shadow(base));
        assert!(decisions[1..4].iter().all(|d| *d == RouteDecision::Deployed));
        assert_eq!(decisions[4], RouteDecision::Shadow(base));

        // Directed-size traffic passes through; base-size shadow samples
        // fill the next measurement window.
        let mut out = None;
        while svc.phase(0) == Some(FnPhase::Shadowing) {
            assert!(svc.ingest(0, current, sample(&mut rng, i, 1.6)).is_none());
            out = svc.ingest(0, base, sample(&mut rng, i, 1.6));
            i += 1;
        }
        assert_eq!(svc.phase(0), Some(FnPhase::Referencing));
        assert_eq!(svc.stats().shadow_samples, 64);
        assert!(svc.stats().shadow_passthrough >= 64);
        assert_eq!(
            svc.stats().rerecommend_same + svc.stats().rerecommend_changed,
            1,
            "the shadow window's recommendation is classified against the pre-drift size"
        );
        // If the re-recommendation changed the size, the directive carries
        // the Recommend reason (never Drift: nothing reverted).
        if let Some(d) = out {
            assert_eq!(d.reason, DirectiveReason::Recommend);
            assert_eq!(svc.current_size(0), Some(d.target));
        } else {
            assert_eq!(svc.current_size(0), Some(current));
        }
        // Shadowing never re-entered Measuring: the full-revert cost was
        // never paid.
        assert_eq!(svc.stats().entered_measuring, 1);
    }

    #[test]
    fn outcomes_report_every_phase_change_once() {
        let mut svc = service(16);
        let base = svc.base();
        let mut rng = RngStream::from_seed(6, "svc-outcome");
        let mut at = base;
        let mut entered = [0usize; 4];
        for i in 0..400 {
            let before = svc.phase(0);
            let scale = if i < 200 { 1.0 } else { 1.6 };
            let out = svc.ingest_masked(0, at, sample(&mut rng, i, scale), false);
            match out.transition {
                Some((from, to)) => {
                    assert_eq!(Some(from), before);
                    assert_ne!(from, to);
                    entered[to as usize] += 1;
                }
                None if before.is_some() => assert_eq!(svc.phase(0), before),
                None => {}
            }
            if let Some(d) = out.directive {
                at = d.target;
            }
        }
        let s = svc.stats();
        // The first entry into Measuring is state creation, not a change.
        assert_eq!(
            entered,
            [s.entered_measuring - 1, s.entered_referencing, s.entered_watching, s.entered_shadowing]
        );
        assert!(s.entered_watching > 0, "{s:?}");
    }

    #[test]
    fn functions_are_tracked_independently() {
        let mut svc = service(16);
        let base = svc.base();
        let mut rng = RngStream::from_seed(5, "svc-multi");
        for i in 0..16 {
            svc.ingest(0, base, sample(&mut rng, i, 1.0));
            if i < 4 {
                svc.ingest(3, base, sample(&mut rng, i, 2.0));
            }
        }
        assert!(svc.recommendation(0).is_some());
        assert!(svc.recommendation(3).is_none());
        assert!(svc.recommendation(1).is_none(), "gap ids stay empty");
        assert_eq!(svc.phase(1), None);
    }

    #[test]
    fn legacy_constructor_is_frozen_full_revert() {
        let svc = service(16);
        assert_eq!(svc.remeasure_name(), "full-revert");
        let snapshot = svc.sizer_snapshot();
        assert_eq!(snapshot.base(), svc.base());
    }

    #[test]
    #[should_panic(expected = "at least 8 samples")]
    fn tiny_window_rejected() {
        let _ = service(4);
    }
}
