//! The sizing control plane: one shared artifact, many serving handles.
//!
//! A [`ControlPlane`] owns the [`TrainedSizer`] plus the [`AdaptationKind`]
//! that says whether it learns online, and hands out any number of
//! per-region [`SizingService`] handles that all decide against — and,
//! under [`AdaptationKind::FineTune`], learn into — the *same* artifact.
//! The plane is a cheap reference-counted handle; cloning it (or creating
//! services from it) shares state rather than copying it, which is the
//! whole point: an observation from one region improves recommendations in
//! every region.
//!
//! Everything is single-threaded by design — the fleet simulators drive
//! their regions through one merged deterministic event loop — so the
//! shared state is an `Rc<RefCell<..>>`, not a lock.

use super::adaptation::AdaptationKind;
use super::remeasure::RemeasureKind;
use super::{Recommendation, ServiceConfig, SizingService};
use crate::features::FeatureSet;
use crate::model::OnlineObservation;
use crate::trainer::TrainedSizer;
use serde::{Deserialize, Serialize};
use sizeless_neural::Scratch;
use sizeless_platform::MemorySize;
use sizeless_telemetry::MetricVector;
use std::cell::RefCell;
use std::rc::Rc;

/// Activity tallies of a control plane, serializable for reports.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PlaneStats {
    /// Service handles created from this plane.
    pub handles: usize,
    /// Recommendations served across all handles.
    pub recommendations: usize,
    /// Post-resize observations fed to the adaptation policy.
    pub observations: usize,
    /// Fine-tuning rounds that actually updated the artifact.
    pub artifact_updates: usize,
}

/// The mutable state every handle of one plane shares.
#[derive(Debug)]
pub(super) struct PlaneState {
    sizer: TrainedSizer,
    adaptation: AdaptationKind,
    fine_tune: FineTuneBuffer,
    stats: PlaneStats,
}

/// What [`AdaptationKind::FineTune`] keeps between observations (empty
/// under [`AdaptationKind::Frozen`]).
#[derive(Debug, Default)]
struct FineTuneBuffer {
    /// Observations waiting for the batch to fill.
    pending: Vec<OnlineObservation>,
    /// Completed rounds; numbering them keeps replays bit-identical.
    rounds: u64,
    /// Training workspace reused across rounds, so steady-state updates
    /// allocate nothing.
    scratch: Scratch,
}

/// A shared handle to the plane state — what a [`SizingService`] holds.
#[derive(Debug, Clone)]
pub(crate) struct PlaneHandle {
    state: Rc<RefCell<PlaneState>>,
    /// The artifact's base size, cached: it never changes (fine-tuning
    /// retrains weights, not the base), and the dispatch path asks for it
    /// constantly.
    base: MemorySize,
}

impl PlaneHandle {
    pub(super) fn base(&self) -> MemorySize {
        self.base
    }

    /// Serves one recommendation from the current artifact.
    pub(super) fn recommend(&self, metrics: &MetricVector) -> Recommendation {
        let mut state = self.state.borrow_mut();
        state.stats.recommendations += 1;
        state.sizer.recommend(metrics)
    }

    /// The feature set of the artifact's model (fine-tuning retrains
    /// weights, never the feature set).
    pub(super) fn feature_set(&self) -> FeatureSet {
        self.state.borrow().sizer.model().feature_set()
    }

    /// A clone of the artifact as it stands right now.
    pub(super) fn sizer_snapshot(&self) -> TrainedSizer {
        self.state.borrow().sizer.clone()
    }

    /// Routes one post-resize observation to the adaptation policy and
    /// returns the plane's new artifact-update total if it updated the
    /// artifact.
    pub(super) fn observe(&self, observation: OnlineObservation) -> Option<usize> {
        let mut state = self.state.borrow_mut();
        let PlaneState {
            sizer,
            adaptation,
            fine_tune,
            stats,
        } = &mut *state;
        stats.observations += 1;
        let AdaptationKind::FineTune(config) = *adaptation else {
            return None;
        };
        fine_tune.pending.push(observation);
        if fine_tune.pending.len() < config.batch {
            return None;
        }
        let rows = sizer.model_mut().fine_tune_online(
            &fine_tune.pending,
            config.frozen_layers,
            config.epochs,
            fine_tune.rounds,
            &mut fine_tune.scratch,
        );
        fine_tune.pending.clear();
        if rows == 0 {
            return None;
        }
        fine_tune.rounds += 1;
        stats.artifact_updates += 1;
        Some(stats.artifact_updates)
    }
}

/// The sizing control plane — see the [module docs](self).
///
/// # Examples
///
/// Two regional services sharing one artifact:
///
/// ```no_run
/// use sizeless_core::service::{
///     AdaptationKind, ControlPlane, FineTuneConfig, RemeasureKind, ServiceConfig,
/// };
/// use sizeless_core::trainer::{Trainer, TrainerConfig};
/// use sizeless_platform::Platform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::aws_like();
/// let sizer = Trainer::new(TrainerConfig::default()).train(&platform)?;
///
/// // The plane owns the artifact and adapts it online via fine-tuning.
/// let plane = ControlPlane::new(sizer, AdaptationKind::FineTune(FineTuneConfig::default()));
///
/// // Each region gets its own handle (and its own re-measurement policy);
/// // both serve — and improve — the same artifact.
/// let mut us_east = plane.handle(ServiceConfig::default(), RemeasureKind::FullRevert);
/// let mut eu_west = plane.handle(ServiceConfig::default(), RemeasureKind::ShadowSampling(0.125));
/// assert_eq!(us_east.base(), eu_west.base());
/// assert_eq!(plane.stats().handles, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ControlPlane {
    inner: PlaneHandle,
}

impl ControlPlane {
    /// A plane owning `sizer`, adapting it as `adaptation` says.
    ///
    /// # Panics
    ///
    /// Panics if a fine-tuning configuration has zero `epochs` or `batch`.
    pub fn new(sizer: TrainedSizer, adaptation: AdaptationKind) -> Self {
        if let AdaptationKind::FineTune(config) = adaptation {
            assert!(config.epochs > 0, "fine-tuning needs at least one epoch");
            assert!(config.batch > 0, "fine-tuning needs a positive batch size");
        }
        let base = sizer.base();
        ControlPlane {
            inner: PlaneHandle {
                state: Rc::new(RefCell::new(PlaneState {
                    sizer,
                    adaptation,
                    fine_tune: FineTuneBuffer::default(),
                    stats: PlaneStats::default(),
                })),
                base,
            },
        }
    }

    /// A plane whose artifact never changes — the paper's loop.
    pub fn frozen(sizer: TrainedSizer) -> Self {
        Self::new(sizer, AdaptationKind::Frozen)
    }

    /// Creates a serving handle: a [`SizingService`] with its own
    /// per-function state and re-measurement policy, deciding against this
    /// plane's shared artifact.
    ///
    /// # Panics
    ///
    /// Panics unless a shadow fraction is in `(0, 1]`, and if the window
    /// length is below 8.
    pub fn handle(&self, config: ServiceConfig, remeasure: RemeasureKind) -> SizingService {
        if let RemeasureKind::ShadowSampling(fraction) = remeasure {
            assert!(
                fraction > 0.0 && fraction <= 1.0,
                "shadow fraction must be in (0, 1], got {fraction}"
            );
        }
        self.inner.state.borrow_mut().stats.handles += 1;
        SizingService::from_plane(self.inner.clone(), config, remeasure)
    }

    /// The artifact's base memory size.
    pub fn base(&self) -> MemorySize {
        self.inner.base
    }

    /// The adaptation policy's display name.
    pub fn adaptation_name(&self) -> &'static str {
        self.inner.state.borrow().adaptation.name()
    }

    /// Activity tallies so far.
    pub fn stats(&self) -> PlaneStats {
        self.inner.state.borrow().stats
    }

    /// A snapshot of the artifact as it stands right now (a clone: under a
    /// fine-tuning policy the live artifact keeps moving).
    pub fn sizer_snapshot(&self) -> TrainedSizer {
        self.inner.state.borrow().sizer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::super::adaptation::FineTuneConfig;
    use super::*;
    use crate::dataset::{DatasetConfig, TrainingDataset};
    use crate::trainer::{Trainer, TrainerConfig};
    use sizeless_neural::NetworkConfig;
    use sizeless_platform::Platform;
    use std::sync::OnceLock;

    /// One artifact for every test: training is the expensive part.
    fn quick_sizer() -> TrainedSizer {
        static SIZER: OnceLock<TrainedSizer> = OnceLock::new();
        SIZER
            .get_or_init(|| {
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
            })
            .clone()
    }

    /// A labeled post-resize observation: a base-size window and its own
    /// mean time, reported at 1024 MB.
    fn observation(base: MemorySize) -> OnlineObservation {
        let dataset = TrainingDataset::generate(&Platform::aws_like(), &DatasetConfig::tiny(12));
        let metrics = dataset.records[0].metrics_at(base).clone();
        let observed_ms = metrics.mean_execution_time_ms();
        OnlineObservation {
            metrics,
            directed: MemorySize::MB_1024,
            observed_ms,
        }
    }

    fn fine_tune(batch: usize) -> AdaptationKind {
        AdaptationKind::FineTune(FineTuneConfig {
            batch,
            epochs: 5,
            frozen_layers: 1,
        })
    }

    #[test]
    fn handles_share_one_artifact() {
        let sizer = quick_sizer();
        let plane = ControlPlane::new(sizer.clone(), fine_tune(1));
        let a = plane.handle(ServiceConfig::default(), RemeasureKind::FullRevert);
        let _b = plane.handle(ServiceConfig::default(), RemeasureKind::FullRevert);
        assert_eq!(plane.stats().handles, 2);
        assert_eq!(plane.base(), sizer.base());
        assert_eq!(plane.adaptation_name(), "fine-tune");

        // An observation through one handle's plane updates the snapshot
        // every handle sees.
        let updated = a.plane().observe(observation(plane.base()));
        assert_eq!(
            updated,
            Some(1),
            "observe reports the plane's new update total"
        );
        let stats = plane.stats();
        assert_eq!(stats.observations, 1);
        assert_eq!(stats.artifact_updates, 1);
        assert_ne!(plane.sizer_snapshot(), sizer, "artifact adapted in place");
    }

    #[test]
    fn frozen_plane_serves_recommendations_without_moving() {
        let sizer = quick_sizer();
        let plane = ControlPlane::frozen(sizer.clone());
        assert_eq!(plane.adaptation_name(), "frozen");
        let svc = plane.handle(ServiceConfig::default(), RemeasureKind::FullRevert);
        let dataset = TrainingDataset::generate(&Platform::aws_like(), &DatasetConfig::tiny(12));
        let metrics = dataset.records[0].metrics_at(plane.base());
        let rec = svc.plane().recommend(metrics);
        assert_eq!(rec, sizer.recommend(metrics));
        assert_eq!(plane.stats().recommendations, 1);
        assert_eq!(plane.sizer_snapshot(), sizer);
    }

    #[test]
    fn frozen_never_touches_the_artifact() {
        let sizer = quick_sizer();
        let plane = ControlPlane::frozen(sizer.clone());
        let obs = observation(plane.base());
        for _ in 0..5 {
            assert_eq!(plane.inner.observe(obs.clone()), None);
        }
        assert_eq!(plane.stats().observations, 5);
        assert_eq!(plane.stats().artifact_updates, 0);
        assert_eq!(plane.sizer_snapshot(), sizer);
    }

    #[test]
    fn fine_tune_batches_then_updates() {
        let sizer = quick_sizer();
        let plane = ControlPlane::new(sizer.clone(), fine_tune(3));
        let obs = observation(plane.base());
        assert_eq!(plane.inner.observe(obs.clone()), None);
        assert_eq!(plane.inner.observe(obs.clone()), None);
        assert_eq!(
            plane.sizer_snapshot(),
            sizer,
            "no update before the batch fills"
        );
        assert_eq!(plane.inner.observe(obs.clone()), Some(1));
        assert_ne!(
            plane.sizer_snapshot(),
            sizer,
            "a filled batch fine-tunes the artifact"
        );
        assert_eq!(plane.stats().artifact_updates, 1);
        assert_eq!(plane.stats().observations, 3);
    }

    #[test]
    fn fine_tune_updates_are_deterministic() {
        let sizer = quick_sizer();
        let obs = observation(sizer.base());
        let run = || {
            let plane = ControlPlane::new(sizer.clone(), fine_tune(2));
            for _ in 0..4 {
                plane.inner.observe(obs.clone());
            }
            assert_eq!(plane.stats().artifact_updates, 2);
            plane.sizer_snapshot()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn zero_epochs_rejected() {
        let _ = ControlPlane::new(
            quick_sizer(),
            AdaptationKind::FineTune(FineTuneConfig {
                epochs: 0,
                ..FineTuneConfig::default()
            }),
        );
    }

    #[test]
    #[should_panic(expected = "positive batch size")]
    fn zero_batch_rejected() {
        let _ = ControlPlane::new(
            quick_sizer(),
            AdaptationKind::FineTune(FineTuneConfig {
                batch: 0,
                ..FineTuneConfig::default()
            }),
        );
    }

    fn shadow_handle(fraction: f64) {
        let plane = ControlPlane::frozen(quick_sizer());
        let _ = plane.handle(
            ServiceConfig::default(),
            RemeasureKind::ShadowSampling(fraction),
        );
    }

    #[test]
    #[should_panic(expected = "shadow fraction must be in (0, 1], got 0")]
    fn zero_fraction_rejected() {
        shadow_handle(0.0);
    }

    #[test]
    #[should_panic(expected = "shadow fraction must be in (0, 1], got 1.5")]
    fn fraction_above_one_rejected() {
        shadow_handle(1.5);
    }

    #[test]
    #[should_panic(expected = "shadow fraction must be in (0, 1], got NaN")]
    fn nan_fraction_rejected() {
        shadow_handle(f64::NAN);
    }
}
