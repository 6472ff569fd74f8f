//! End-to-end integration tests: offline phase → online phase →
//! recommendation, across crate boundaries.

use sizeless::core::dataset::{DatasetConfig, TrainingDataset};
use sizeless::core::features::FeatureSet;
use sizeless::core::model::SizelessModel;
use sizeless::core::optimizer::{MemoryOptimizer, Tradeoff};
use sizeless::core::trainer::{TrainedSizer, Trainer, TrainerConfig};
use sizeless::neural::NetworkConfig;
use sizeless::platform::{MemorySize, Platform, ResourceProfile, ServiceCall, ServiceKind, Stage};
use sizeless::workload::{run_experiment, ExperimentConfig};

fn quick_sizer(platform: &Platform) -> TrainedSizer {
    // 80 functions is the smallest training set at which the tiny model's
    // recommendations separate cpu-bound from network-bound profiles
    // robustly; 40 leaves the service-dominated regime under-represented.
    let cfg = TrainerConfig {
        dataset: DatasetConfig::tiny(80),
        network: NetworkConfig {
            hidden_layers: 2,
            neurons: 48,
            epochs: 100,
            l2: 0.0001,
            ..NetworkConfig::default()
        },
        ..TrainerConfig::default()
    };
    Trainer::new(cfg)
        .train(platform)
        .expect("training succeeds")
}

fn monitor(
    platform: &Platform,
    profile: &ResourceProfile,
    memory: MemorySize,
) -> sizeless::workload::Measurement {
    run_experiment(
        platform,
        profile,
        memory,
        &ExperimentConfig {
            duration_ms: 8_000.0,
            rps: 15.0,
            seed: 99,
        },
    )
}

#[test]
fn cpu_bound_function_gets_bigger_size_than_network_bound() {
    let platform = Platform::aws_like();
    let sizer = quick_sizer(&platform);

    let cpu_bound = ResourceProfile::builder("cpu-bound")
        .stage(Stage::cpu("crunch", 300.0).with_working_set(30.0))
        .build();
    let net_bound = ResourceProfile::builder("net-bound")
        .stage(Stage::service(
            "api",
            ServiceCall::new(ServiceKind::ExternalApi, 2, 4.0),
        ))
        .build();

    let cpu_rec = sizer.recommend(&monitor(&platform, &cpu_bound, MemorySize::MB_256).metrics);
    let net_rec = sizer.recommend(&monitor(&platform, &net_bound, MemorySize::MB_256).metrics);

    assert!(
        cpu_rec.memory_size() > net_rec.memory_size(),
        "cpu-bound chose {}, net-bound chose {}",
        cpu_rec.memory_size(),
        net_rec.memory_size()
    );
    // A network-bound function under a cost-leaning tradeoff stays small.
    assert!(net_rec.memory_size() <= MemorySize::MB_512);
}

#[test]
fn predictions_beat_the_naive_no_change_baseline() {
    // The whole point of the model: predicted times at unseen sizes should
    // be much closer to the oracle than assuming "time never changes".
    let platform = Platform::aws_like();
    let sizer = quick_sizer(&platform);

    let function = ResourceProfile::builder("mixed")
        .stage(Stage::cpu("work", 90.0).with_working_set(25.0))
        .stage(Stage::service(
            "db",
            ServiceCall::new(ServiceKind::DynamoDb, 2, 8.0),
        ))
        .build();
    let m = monitor(&platform, &function, MemorySize::MB_256);
    let predicted = sizer.model().predict(&m.metrics);

    let mut model_err = 0.0;
    let mut naive_err = 0.0;
    let base_time = m.summary.mean_execution_ms;
    for target in MemorySize::STANDARD {
        if target == MemorySize::MB_256 {
            continue;
        }
        let oracle = platform.expected_duration_ms(&function, target);
        model_err += (predicted.time_ms(target) - oracle).abs() / oracle;
        naive_err += (base_time - oracle).abs() / oracle;
    }
    assert!(
        model_err < naive_err * 0.5,
        "model {model_err:.3} vs naive {naive_err:.3}"
    );
}

#[test]
fn recommendation_is_deterministic() {
    let platform = Platform::aws_like();
    let sizer = quick_sizer(&platform);
    let function = ResourceProfile::builder("det")
        .stage(Stage::cpu("w", 50.0))
        .build();
    let m = monitor(&platform, &function, MemorySize::MB_256);
    let a = sizer.recommend(&m.metrics);
    let b = sizer.recommend(&m.metrics);
    assert_eq!(a, b);
}

#[test]
fn model_trains_for_every_base_size() {
    let platform = Platform::aws_like();
    let ds = TrainingDataset::generate(&platform, &DatasetConfig::tiny(20));
    let net = NetworkConfig {
        hidden_layers: 1,
        neurons: 16,
        epochs: 30,
        ..NetworkConfig::default()
    };
    for base in MemorySize::STANDARD {
        let model = SizelessModel::train(&ds, base, FeatureSet::F4, &net, 1).expect("train");
        let record = &ds.records[0];
        let p = model.predict(record.metrics_at(base));
        assert_eq!(p.base(), base);
        assert_eq!(p.as_map().len(), 6);
    }
}

#[test]
fn all_feature_sets_are_usable_for_training() {
    let platform = Platform::aws_like();
    let ds = TrainingDataset::generate(&platform, &DatasetConfig::tiny(16));
    let net = NetworkConfig {
        hidden_layers: 1,
        neurons: 12,
        epochs: 20,
        ..NetworkConfig::default()
    };
    for set in FeatureSet::ALL {
        let model =
            SizelessModel::train(&ds, MemorySize::MB_256, set, &net, 2).expect("train");
        let ratios = model.predict_ratios(ds.records[0].metrics_at(MemorySize::MB_256));
        assert_eq!(ratios.len(), 5, "{set:?}");
        assert!(ratios.iter().all(|r| r.is_finite() && *r > 0.0));
    }
}

#[test]
fn optimizer_rank_agrees_with_oracle_for_extreme_profiles() {
    // For an extremely network-bound function the measured-optimal size at
    // t = 0.75 must be the smallest; the pipeline should find it from
    // monitoring data alone.
    let platform = Platform::aws_like();
    let sizer = quick_sizer(&platform);
    let flat = ResourceProfile::builder("flat")
        .stage(Stage::service(
            "ext",
            ServiceCall::new(ServiceKind::ExternalPayment, 1, 2.0),
        ))
        .build();
    let m = monitor(&platform, &flat, MemorySize::MB_256);
    let rec = sizer.recommend(&m.metrics);

    let truth_times: std::collections::BTreeMap<MemorySize, f64> = MemorySize::STANDARD
        .iter()
        .map(|&s| (s, platform.expected_duration_ms(&flat, s)))
        .collect();
    let optimizer = MemoryOptimizer::new(*platform.pricing(), Tradeoff::COST_LEANING);
    let truth = optimizer.optimize_times(&truth_times);
    assert_eq!(truth.chosen, MemorySize::MB_128);
    // For a flat function neighbouring small sizes have nearly identical
    // S_total, so allow the prediction-driven choice to land in the top
    // three ranks — but it must stay in the small-size regime.
    assert!(
        truth.rank_of(rec.memory_size()) <= 2,
        "rank {}",
        truth.rank_of(rec.memory_size())
    );
    assert!(rec.memory_size() <= MemorySize::MB_512, "{}", rec.memory_size());
}
