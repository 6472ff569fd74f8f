//! Transfer the approach to a *different* provider: build a platform whose
//! scaling laws and pricing differ from AWS, retrain, and compare
//! recommendations.
//!
//! The paper argues the approach "can be transferred to other platforms and
//! programming languages"; this example demonstrates the mechanism — only
//! the platform model changes, the pipeline is untouched.
//!
//! ```bash
//! cargo run --release --example custom_platform
//! ```

use sizeless::core::dataset::DatasetConfig;
use sizeless::core::trainer::{Trainer, TrainerConfig};
use sizeless::platform::coldstart::ColdStartModel;
use sizeless::platform::scaling::ScalingLaws;
use sizeless::platform::{
    MemorySize, Platform, PricingModel, ResourceProfile, ServiceCatalog, Stage,
};
use sizeless::workload::{run_experiment, ExperimentConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A fictional provider: one full vCPU already at 1024 MB, faster I/O
    // saturation, 1 ms billing, and a pricier GB-second.
    let laws = ScalingLaws {
        mb_per_vcpu: 1024.0,
        io_half_sat_mb: 400.0,
        ..ScalingLaws::aws_like()
    };
    let pricing = PricingModel {
        gb_second_usd: 0.000_024,
        per_request_usd: 0.000_000_4,
        billing_increment_ms: 1.0,
    };
    let other_cloud = Platform::new(
        laws,
        pricing,
        ServiceCatalog::aws_like(),
        ColdStartModel::aws_like(),
    );
    let aws = Platform::aws_like();

    let mut cfg = TrainerConfig {
        dataset: DatasetConfig::scaled(120),
        ..TrainerConfig::default()
    };
    cfg.network.epochs = 80;

    println!("Training one pipeline per provider …");
    let trainer = Trainer::new(cfg);
    let aws_sizer = trainer.train(&aws)?;
    let other_sizer = trainer.train(&other_cloud)?;

    // The same CPU-bound function deployed on both clouds at 256 MB.
    let function = ResourceProfile::builder("report-generator")
        .stage(Stage::cpu("render", 150.0).with_working_set(60.0))
        .build();
    let monitor_cfg = ExperimentConfig {
        duration_ms: 30_000.0,
        rps: 15.0,
        seed: 5,
    };

    for (name, platform, sizer) in [
        ("AWS-like", &aws, &aws_sizer),
        ("OtherCloud", &other_cloud, &other_sizer),
    ] {
        let m = run_experiment(platform, &function, MemorySize::MB_256, &monitor_cfg);
        let rec = sizer.recommend(&m.metrics);
        println!("\n[{name}] monitored 256 MB mean: {:.1} ms", m.summary.mean_execution_ms);
        for (size, time) in rec.predicted.iter() {
            let truth = platform.expected_duration_ms(&function, size);
            println!("  {size:>7}: predicted {time:8.1} ms   (oracle {truth:8.1} ms)");
        }
        println!("  recommendation: {}", rec.memory_size());
    }

    println!(
        "\nOn the fictional provider the CPU plateau starts at 1024 MB, so the \
         recommended size should be no larger than on AWS."
    );
    Ok(())
}
