//! Behavioral parity of the refactored sizing service.
//!
//! The service once hard-coded its revert-to-base re-measurement; it now
//! takes a `RemeasureKind` and decides against the artifact of a shared
//! control plane. A `SizingService` in its default configuration (frozen
//! plane, `RemeasureKind::FullRevert`) must remain **behaviorally
//! identical** to the pre-refactor state machine: same directives at the
//! same points, same phase/current-size trajectory, same core tallies, for
//! *any* ingest sequence. This file re-implements the pre-refactor loop
//! verbatim as a reference model and property-tests the two against each
//! other on randomized seeded traffic.

use proptest::prelude::*;
use sizeless::core::dataset::DatasetConfig;
use sizeless::core::drift::{detect_drift, watched_metrics, DriftConfig};
use sizeless::core::service::{
    DirectiveReason, FnPhase, Recommendation, ServiceConfig, SizingDirective, SizingService,
};
use sizeless::core::trainer::{TrainedSizer, Trainer, TrainerConfig};
use sizeless::engine::RngStream;
use sizeless::neural::NetworkConfig;
use sizeless::platform::{MemorySize, Platform};
use sizeless::telemetry::{InvocationSample, Metric, MetricStore, StreamingWindow, METRIC_COUNT};
use std::sync::OnceLock;

/// One artifact for every proptest case — training is the expensive part.
fn shared_sizer() -> &'static TrainedSizer {
    static SIZER: OnceLock<TrainedSizer> = OnceLock::new();
    SIZER.get_or_init(|| {
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
        Trainer::new(cfg).train(&Platform::aws_like()).expect("trainable")
    })
}

/// The pre-refactor `SizingService` (PR 4), re-implemented verbatim: one
/// owned sizer, hard-coded revert-to-base on drift.
struct ReferenceService {
    sizer: TrainedSizer,
    window: usize,
    drift: DriftConfig,
    functions: Vec<Option<RefFnState>>,
    watched: Vec<Metric>,
    scratch: MetricStore,
    // The pre-refactor stats fields, tracked loose.
    samples_ingested: usize,
    stale_samples_ignored: usize,
    recommendations: usize,
    drift_checks: usize,
    drift_detections: usize,
}

struct RefFnState {
    current: MemorySize,
    phase: FnPhase,
    window: StreamingWindow,
    reference: MetricStore,
    recommendation: Option<Recommendation>,
}

impl ReferenceService {
    fn new(sizer: TrainedSizer, config: &ServiceConfig) -> Self {
        ReferenceService {
            sizer,
            window: config.window,
            drift: config.drift,
            functions: Vec::new(),
            watched: watched_metrics(),
            scratch: MetricStore::new(),
            samples_ingested: 0,
            stale_samples_ignored: 0,
            recommendations: 0,
            drift_checks: 0,
            drift_detections: 0,
        }
    }

    fn ingest(
        &mut self,
        fn_id: usize,
        at_size: MemorySize,
        sample: InvocationSample,
    ) -> Option<SizingDirective> {
        let base = self.sizer.base();
        if self.functions.len() <= fn_id {
            self.functions.resize_with(fn_id + 1, || None);
        }
        if self.functions[fn_id].is_none() {
            self.functions[fn_id] = Some(RefFnState {
                current: base,
                phase: FnPhase::Measuring,
                window: StreamingWindow::new(self.window),
                reference: MetricStore::new(),
                recommendation: None,
            });
            if at_size != base {
                self.stale_samples_ignored += 1;
                return Some(SizingDirective {
                    fn_id,
                    target: base,
                    reason: DirectiveReason::Calibrate,
                });
            }
        }

        let state = self.functions[fn_id].as_mut().expect("ensured");
        if at_size != state.current {
            self.stale_samples_ignored += 1;
            return None;
        }
        state.window.push(sample);
        self.samples_ingested += 1;
        if state.window.len() < self.window {
            return None;
        }

        match state.phase {
            FnPhase::Measuring => {
                let metrics = state.window.aggregate();
                let rec = self.sizer.recommend(&metrics);
                let chosen = rec.memory_size();
                self.recommendations += 1;
                state.recommendation = Some(rec);
                if chosen == base {
                    state.reference = state.window.samples().cloned().collect();
                    state.window.clear();
                    state.phase = FnPhase::Watching;
                    None
                } else {
                    state.window.clear();
                    state.phase = FnPhase::Referencing;
                    state.current = chosen;
                    Some(SizingDirective {
                        fn_id,
                        target: chosen,
                        reason: DirectiveReason::Recommend,
                    })
                }
            }
            FnPhase::Referencing => {
                state.reference = state.window.samples().cloned().collect();
                state.window.clear();
                state.phase = FnPhase::Watching;
                None
            }
            FnPhase::Watching => {
                self.scratch = state.window.samples().cloned().collect();
                state.window.clear();
                self.drift_checks += 1;
                let report =
                    detect_drift(&state.reference, &self.scratch, &self.watched, &self.drift);
                if !report.should_reoptimize() {
                    return None;
                }
                self.drift_detections += 1;
                state.phase = FnPhase::Measuring;
                let was = state.current;
                state.current = base;
                (was != base).then_some(SizingDirective {
                    fn_id,
                    target: base,
                    reason: DirectiveReason::Drift,
                })
            }
            FnPhase::Shadowing => unreachable!("the pre-refactor loop had no shadow phase"),
        }
    }

    fn current(&self, fn_id: usize) -> Option<MemorySize> {
        Some(self.functions.get(fn_id)?.as_ref()?.current)
    }
}

/// How one step of the driver picks the observed size.
#[derive(Debug, Clone, Copy)]
enum SizeChoice {
    /// The size the service currently expects (the common case).
    Current,
    /// The base size (stale after an upsize, current while measuring).
    Base,
    /// A fixed standard size (exercises stale/calibration paths).
    Fixed(usize),
}

/// One driver step: which function, which observed size, which workload
/// intensity the sample is drawn at.
#[derive(Debug, Clone, Copy)]
struct Step {
    fn_id: usize,
    choice: SizeChoice,
    scale_idx: usize,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0usize..3, 0usize..10, 0usize..3).prop_map(|(fn_id, pick, scale_idx)| Step {
        fn_id,
        // Weight: mostly "current" so windows actually fill, some base and
        // some foreign sizes to hit the stale/calibration branches.
        choice: match pick {
            0..=6 => SizeChoice::Current,
            7 | 8 => SizeChoice::Base,
            _ => SizeChoice::Fixed(pick % MemorySize::STANDARD.len()),
        },
        scale_idx,
    })
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Drive the refactored service (default: frozen plane + full revert)
    /// and the verbatim pre-refactor reference through the same randomized
    /// ingest sequence: every directive, every phase, every current size,
    /// and the pre-refactor tallies must agree at every single step.
    #[test]
    fn full_revert_service_matches_the_pre_refactor_loop(
        steps in proptest::collection::vec(step_strategy(), 1..600),
        window in 8usize..40,
        sample_seed in 0u64..1_000,
    ) {
        let config = ServiceConfig {
            window,
            ..ServiceConfig::default()
        };
        let sizer = shared_sizer().clone();
        let mut refactored = SizingService::new(sizer.clone(), config);
        let mut reference = ReferenceService::new(sizer, &config);
        let base = refactored.base();
        let mut rng = RngStream::from_seed(sample_seed, "parity");
        // Workload intensities per scale index: steady, mild, strong shift.
        let scales = [1.0, 1.15, 1.6];

        for (i, step) in steps.iter().enumerate() {
            let at_size = match step.choice {
                SizeChoice::Current => reference.current(step.fn_id).unwrap_or(base),
                SizeChoice::Base => base,
                SizeChoice::Fixed(idx) => MemorySize::STANDARD[idx],
            };
            let s = sample(&mut rng, i, scales[step.scale_idx]);
            let a = refactored.ingest(step.fn_id, at_size, s.clone());
            let b = reference.ingest(step.fn_id, at_size, s);
            prop_assert_eq!(a, b, "directive diverged at step {}", i);
            prop_assert_eq!(
                refactored.current_size(step.fn_id),
                reference.current(step.fn_id),
                "current size diverged at step {}", i
            );
            prop_assert_eq!(
                refactored.phase(step.fn_id),
                reference.functions[step.fn_id].as_ref().map(|f| f.phase),
                "phase diverged at step {}", i
            );
            prop_assert_eq!(
                refactored.recommendation(step.fn_id),
                reference.functions[step.fn_id].as_ref().and_then(|f| f.recommendation.as_ref()),
                "cached recommendation diverged at step {}", i
            );
        }

        // The pre-refactor tallies survive unchanged in the wider stats.
        let stats = refactored.stats();
        prop_assert_eq!(stats.samples_ingested, reference.samples_ingested);
        prop_assert_eq!(stats.stale_samples_ignored, reference.stale_samples_ignored);
        prop_assert_eq!(stats.recommendations, reference.recommendations);
        prop_assert_eq!(stats.drift_checks, reference.drift_checks);
        prop_assert_eq!(stats.drift_detections, reference.drift_detections);
        // A full-revert service never shadows.
        prop_assert_eq!(stats.entered_shadowing, 0);
        prop_assert_eq!(stats.shadow_samples, 0);
    }
}
