//! Adaptation: what the control plane does with post-resize observations.
//!
//! Every resize the loop applies produces a labeled data point the offline
//! phase never had: the base-size window a recommendation was made from
//! *plus* the execution time actually observed at the directed size. The
//! paper's loop discards it ([`AdaptationKind::Frozen`]); the
//! transfer-learning proposal of its limitations section turns it into an
//! online fine-tuning signal ([`AdaptationKind::FineTune`] — freeze the
//! early layers, retrain the rest on the streaming observations via
//! [`fine_tune_online`](crate::model::SizelessModel::fine_tune_online)).
//! The [`ControlPlane`](super::ControlPlane) takes its kind at construction
//! and matches on it for every observation.

/// Configuration of [`AdaptationKind::FineTune`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FineTuneConfig {
    /// Early layers kept frozen during updates (clamped to leave at least
    /// one trainable layer).
    pub frozen_layers: usize,
    /// Epochs per fine-tuning round (at least 1).
    pub epochs: usize,
    /// Observations buffered before a round runs (at least 1).
    pub batch: usize,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        FineTuneConfig {
            frozen_layers: 2,
            epochs: 15,
            batch: 4,
        }
    }
}

/// Whether, and how, the shared artifact learns after deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdaptationKind {
    /// The paper's loop: the artifact never changes after the offline
    /// phase.
    Frozen,
    /// Online transfer learning: buffer observations and, each time a
    /// batch fills, fine-tune the artifact's network with the early layers
    /// frozen. Rounds are numbered, so repeated runs replay bit-identically
    /// (see [`fine_tune_with`](sizeless_neural::NeuralNetwork::fine_tune_with)).
    FineTune(FineTuneConfig),
}

impl AdaptationKind {
    /// The policy's display name.
    pub fn name(self) -> &'static str {
        match self {
            AdaptationKind::Frozen => "frozen",
            AdaptationKind::FineTune(_) => "fine-tune",
        }
    }
}
