//! The Sizeless approach: predicting the optimal memory size of serverless
//! functions from monitoring data of a **single** memory size.
//!
//! This crate ties the substrates together into the paper's pipeline
//! (Figure 2):
//!
//! 1. **Offline phase** — [`dataset`] drives the synthetic function
//!    generator through the measurement harness at all six memory sizes and
//!    collects a [`TrainingDataset`];
//!    [`features`] turns the monitored metric vectors into the feature sets
//!    F0–F4 of Section 3.4; [`model`] trains one multi-target regression
//!    network per base memory size that predicts execution-time *ratios*
//!    for the five unseen sizes.
//! 2. **Online phase** — given production monitoring data for one memory
//!    size, [`model::SizelessModel::predict`] yields execution times for
//!    all sizes and [`optimizer`] applies the cost/performance tradeoff
//!    (Section 3.5) to recommend a size.
//!
//! The two phases are first-class objects: [`trainer`] runs the offline
//! phase and produces a serializable, **versioned** [`TrainedSizer`]
//! artifact; [`service`] is the *online* loop as a layered control plane —
//! a [`ControlPlane`] owns the shared artifact (optionally fine-tuning it
//! from post-resize observations, as its [`AdaptationKind`] says) and
//! serves per-region [`SizingService`] handles that ingest per-invocation
//! telemetry incrementally, aggregate streaming windows (bit-identical to
//! the batch aggregation), cache recommendations, and use [`drift`] plus a
//! [`RemeasureKind`] (full revert or shadow sampling) to decide when and
//! how a function must be re-measured and re-recommended.
//!
//! # Examples
//!
//! ```no_run
//! use sizeless_core::trainer::{Trainer, TrainerConfig};
//! use sizeless_platform::Platform;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cfg = TrainerConfig::default();
//! cfg.dataset.function_count = 200; // small demo run
//! let sizer = Trainer::new(cfg).train(&Platform::aws_like())?;
//! # Ok(())
//! # }
//! ```

pub mod baselines;
pub mod dataset;
pub mod drift;
pub mod error;
pub mod features;
pub mod interpolate;
pub mod model;
pub mod optimizer;
pub mod report;
pub mod service;
pub mod trainer;

pub use baselines::{BaselineOutcome, CoseOptimizer, PowerTuning};
pub use dataset::{DatasetConfig, TrainingDataset};
pub use error::CoreError;
pub use drift::{detect_drift, DriftConfig, DriftReport};
pub use features::{FeatureDef, FeatureKind, FeatureSet};
pub use interpolate::{optimize_full_grid, TimeInterpolant};
pub use model::{OnlineObservation, PredictedTimes, SizelessModel};
pub use optimizer::{MemoryOptimizer, OptimizationOutcome, Tradeoff};
pub use report::render_report;
pub use service::{
    AdaptationKind, ControlPlane, DirectiveReason, FineTuneConfig, FnPhase, PlaneStats,
    Recommendation, RemeasureKind, RouteDecision, ServiceConfig, ServiceStats, SizingDirective,
    SizingService,
};
pub use trainer::{TrainedSizer, Trainer, TrainerConfig};
