//! Optimize a whole serverless application: measure the Hello Retail case
//! study at 256 MB, recommend sizes for all seven functions, and report the
//! cost/performance impact of adopting them.
//!
//! ```bash
//! cargo run --release --example optimize_application
//! ```

use sizeless::apps::{measure_app, CaseStudyApp, MeasurementPlan};
use sizeless::core::dataset::DatasetConfig;
use sizeless::core::optimizer::{MemoryOptimizer, Tradeoff};
use sizeless::core::trainer::{Trainer, TrainerConfig};
use sizeless::platform::{MemorySize, Platform};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::aws_like();
    let app = CaseStudyApp::HelloRetail;

    // Offline phase (small demo dataset).
    let mut cfg = TrainerConfig {
        dataset: DatasetConfig::scaled(150),
        ..TrainerConfig::default()
    };
    cfg.network.epochs = 80;
    println!("Training pipeline …");
    let sizer = Trainer::new(cfg).train(&platform)?;

    // Measure the application as deployed (we use the measurement plan only
    // to obtain 256 MB monitoring data + ground truth for the comparison).
    println!("Measuring {app} …");
    let measurement = measure_app(&platform, app, &MeasurementPlan::scaled(app, 40.0));

    println!("\n{:<24} {:>10} {:>12} {:>12} {:>9} {:>9}", "Function", "Chosen", "Time@256", "Time@chosen", "Δtime", "Δcost");
    let mut speedups = 0.0;
    let mut savings = 0.0;
    for f in &measurement.functions {
        let rec = sizer.recommend(f.metrics_at(MemorySize::MB_256));
        let chosen = rec.memory_size();
        let t_base = f.execution_ms_at(MemorySize::MB_256);
        let t_new = f.execution_ms_at(chosen);
        let c_base = f.cost_usd_at(MemorySize::MB_256);
        let c_new = f.cost_usd_at(chosen);
        let speedup = 1.0 - t_new / t_base;
        let saving = 1.0 - c_new / c_base;
        speedups += speedup;
        savings += saving;
        println!(
            "{:<24} {:>10} {:>10.1}ms {:>10.1}ms {:>8.1}% {:>8.1}%",
            f.name,
            chosen.to_string(),
            t_base,
            t_new,
            speedup * 100.0,
            saving * 100.0
        );
    }
    let n = measurement.functions.len() as f64;
    println!(
        "\nAverage over {app}: {:.1}% speedup, {:.1}% cost savings (tradeoff t = 0.75)",
        speedups / n * 100.0,
        savings / n * 100.0
    );

    // The tradeoff knob: same predictions, different preferences.
    println!("\nEffect of the tradeoff parameter on one function (PhotoProcessor):");
    let f = measurement.function("PhotoProcessor").expect("function exists");
    for t in [1.0, 0.75, 0.5, 0.25, 0.0] {
        let optimizer =
            MemoryOptimizer::new(*platform.pricing(), Tradeoff::new(t).expect("valid"));
        let rec = optimizer.optimize(&sizer.model().predict(f.metrics_at(MemorySize::MB_256)));
        println!("  t = {t:<4} → {}", rec.chosen);
    }
    Ok(())
}
