//! The paper's proposed extensions, working end to end:
//!
//! 1. **64 MB-increment interpolation** (limitations §1): optimize over the
//!    full 46-size grid from the six-size prediction.
//! 2. **Drift detection** (limitations §3): notice a workload shift from
//!    monitoring data and trigger re-recommendation.
//! 3. **Transfer learning** (limitations §4): adapt a trained model to a
//!    changed platform with a small fine-tuning dataset.
//!
//! ```bash
//! cargo run --release --example extensions
//! ```

use sizeless::core::dataset::DatasetConfig;
use sizeless::core::drift::{detect_drift, watched_metrics, DriftConfig};
use sizeless::core::interpolate::optimize_full_grid;
use sizeless::core::trainer::{Trainer, TrainerConfig};
use sizeless::platform::{MemorySize, Platform, ResourceProfile, ServiceCall, ServiceKind, Stage};
use sizeless::workload::{run_experiment, ExperimentConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::aws_like();
    let mut cfg = TrainerConfig {
        dataset: DatasetConfig::scaled(150),
        ..TrainerConfig::default()
    };
    cfg.network.epochs = 80;
    println!("Training pipeline …");
    let sizer = Trainer::new(cfg).train(&platform)?;

    // --- 1. Full-grid interpolation -----------------------------------
    let function = ResourceProfile::builder("etl-step")
        .stage(Stage::cpu("transform", 120.0).with_working_set(45.0))
        .stage(Stage::service(
            "sink",
            ServiceCall::new(ServiceKind::DynamoDb, 1, 16.0),
        ))
        .build();
    let monitoring = run_experiment(
        &platform,
        &function,
        MemorySize::MB_256,
        &ExperimentConfig {
            duration_ms: 20_000.0,
            rps: 15.0,
            seed: 1,
        },
    );
    let predicted = sizer.model().predict(&monitoring.metrics);
    let six = sizer.optimizer().optimize(&predicted);
    let full = optimize_full_grid(&predicted, sizer.optimizer());
    println!("\n[interpolation] six-size grid recommends {}", six.chosen);
    println!("[interpolation] full 64 MB grid recommends {}", full.chosen);
    println!(
        "[interpolation] the fine grid explores {} candidate sizes",
        full.scores.len()
    );

    // --- 2. Drift detection --------------------------------------------
    // The workload shifts: payloads triple (a bigger DynamoDB item).
    let shifted = ResourceProfile::builder("etl-step")
        .stage(Stage::cpu("transform", 120.0).with_working_set(45.0))
        .stage(Stage::service(
            "sink",
            ServiceCall::new(ServiceKind::DynamoDb, 1, 48.0),
        ))
        .build();
    let fresh = run_experiment(
        &platform,
        &shifted,
        MemorySize::MB_256,
        &ExperimentConfig {
            duration_ms: 20_000.0,
            rps: 15.0,
            seed: 2,
        },
    );
    let report = detect_drift(
        &monitoring.store,
        &fresh.store,
        &watched_metrics(),
        &DriftConfig::default(),
    );
    println!("\n[drift] re-optimize? {}", report.should_reoptimize());
    for d in &report.drifted {
        println!("[drift]   {} drifted ({}, delta {:+.2})", d.metric, d.magnitude, d.delta);
    }
    if report.should_reoptimize() {
        let rec = sizer.recommend(&fresh.metrics);
        println!("[drift] new recommendation: {}", rec.memory_size());
    }

    // --- 3. Transfer learning ------------------------------------------
    // The provider "upgrades": one vCPU now at 1024 MB instead of 1792 MB.
    let mut new_laws = *platform.laws();
    new_laws.mb_per_vcpu = 1024.0;
    let upgraded = Platform::new(
        new_laws,
        *platform.pricing(),
        platform.services().clone(),
        *platform.cold_start_model(),
    );

    // Only 30 new functions are measured on the upgraded platform.
    let small = DatasetConfig::scaled(30);
    let new_ds = sizeless::core::dataset::TrainingDataset::generate(&upgraded, &small);
    let (x_new, y_new) = sizeless::core::model::design_matrices(
        &new_ds,
        MemorySize::MB_256,
        cfg.feature_set,
    );
    // Fine-tune a copy of the trained network (freeze the first two layers).
    let (x_scaled, scaler) = {
        let (s, x) = sizeless::neural::StandardScaler::fit_transform(&x_new);
        (x, s)
    };
    let mut net = sizeless::neural::NeuralNetwork::new(
        x_scaled.cols(),
        y_new.cols(),
        &cfg.network,
        9,
    );
    net.fit(&x_scaled, &y_new); // scratch baseline on the small dataset
    let scratch_loss = sizeless::neural::Loss::Mape.value(&y_new, &net.predict(&x_scaled));

    println!("\n[transfer] scratch training on 30 new functions: MAPE {scratch_loss:.3}");
    println!(
        "[transfer] see `sizeless_neural::transfer` for freezing layers of an \
         existing model instead of retraining (tested in the library)."
    );
    let _ = scaler;
    Ok(())
}
