//! Quickstart: train a small Sizeless pipeline and get a memory-size
//! recommendation for a function you only monitored at 256 MB.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use sizeless::core::dataset::DatasetConfig;
use sizeless::core::trainer::{Trainer, TrainerConfig};
use sizeless::platform::{MemorySize, Platform, ResourceProfile, ServiceCall, ServiceKind, Stage};
use sizeless::workload::{run_experiment, ExperimentConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::aws_like();

    // 1. Offline phase: generate a (small) synthetic training dataset and
    //    train the multi-target regression model. The paper uses 2 000
    //    functions and 10-minute experiments; 150 functions keep this demo
    //    under a minute.
    let mut cfg = TrainerConfig {
        dataset: DatasetConfig::scaled(150),
        ..TrainerConfig::default()
    };
    cfg.network.epochs = 80;
    println!("Training the Sizeless pipeline on {} synthetic functions …", 150);
    let sizer = Trainer::new(cfg).train(&platform)?;

    // 2. "Production": a function we only ever deployed at 256 MB.
    //    It mixes CPU work with a DynamoDB query — we don't know (and the
    //    model never sees) this ground truth.
    let function = ResourceProfile::builder("checkout-handler")
        .stage(Stage::cpu("render-cart", 85.0).with_working_set(40.0))
        .stage(Stage::service(
            "load-items",
            ServiceCall::new(ServiceKind::DynamoDb, 2, 12.0),
        ))
        .build();

    // 3. Collect passive monitoring data at the single deployed size.
    let monitoring = run_experiment(
        &platform,
        &function,
        MemorySize::MB_256,
        &ExperimentConfig {
            duration_ms: 30_000.0,
            rps: 20.0,
            seed: 42,
        },
    );
    println!(
        "Monitored {} invocations at 256 MB (mean {:.1} ms)",
        monitoring.summary.invocations, monitoring.summary.mean_execution_ms
    );

    // 4. One call: predicted times for all sizes + a recommendation,
    //    rendered as the operator-facing report.
    let recommendation = sizer.recommend(&monitoring.metrics);
    println!();
    println!(
        "{}",
        sizeless::core::report::render_report(&recommendation, MemorySize::MB_256)
    );

    // 5. Compare against the simulator's ground truth.
    println!("\nGround truth (simulator oracle):");
    for m in MemorySize::STANDARD {
        println!("  {m:>7}: {:8.1} ms", platform.expected_duration_ms(&function, m));
    }
    println!(
        "\nRecommended memory size (t = {}): {}",
        recommendation.outcome.tradeoff,
        recommendation.memory_size()
    );
    Ok(())
}
