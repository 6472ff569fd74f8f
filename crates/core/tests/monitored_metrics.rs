//! Metamorphic suite: metrics outside [`SizingService::monitored_metrics`]
//! cannot move a decision.
//!
//! A fleet's monitor collects only the metrics the service says it reads
//! and records 0.0 for the rest, so no decision may read anything else.
//! Two services on copies of one artifact ingest two sample streams that
//! agree on the monitored metrics and are arbitrary (finite, non-negative)
//! elsewhere. Every routing decision, ingest outcome (directives, drift
//! detections and suppressions, transitions, artifact updates), cached
//! recommendation (predicted times by `to_bits`) and tally must agree.
//!
//! The suite runs an F4 artifact and an F2 one, whose model reads metrics
//! F4 does not, each under frozen and fine-tuning planes and both
//! re-measurement policies.

use proptest::prelude::*;
use sizeless_core::dataset::DatasetConfig;
use sizeless_core::features::FeatureSet;
use sizeless_core::service::{
    AdaptationKind, ControlPlane, FineTuneConfig, RemeasureKind, RouteDecision, ServiceConfig,
    SizingService,
};
use sizeless_core::trainer::{TrainedSizer, Trainer, TrainerConfig};
use sizeless_engine::RngStream;
use sizeless_neural::NetworkConfig;
use sizeless_platform::{MemorySize, Platform};
use sizeless_telemetry::{InvocationSample, Metric, METRIC_COUNT};
use std::sync::OnceLock;

fn train(feature_set: FeatureSet) -> TrainedSizer {
    let cfg = TrainerConfig {
        dataset: DatasetConfig::tiny(24),
        network: NetworkConfig {
            hidden_layers: 1,
            neurons: 16,
            epochs: 30,
            l2: 0.0001,
            ..NetworkConfig::default()
        },
        feature_set,
        ..TrainerConfig::default()
    };
    Trainer::new(cfg).train(&Platform::aws_like()).expect("trainable")
}

/// One artifact per feature set for every case: training is the
/// expensive part.
fn sizer(feature_set: FeatureSet) -> &'static TrainedSizer {
    static F4: OnceLock<TrainedSizer> = OnceLock::new();
    static F2: OnceLock<TrainedSizer> = OnceLock::new();
    match feature_set {
        FeatureSet::F4 => F4.get_or_init(|| train(FeatureSet::F4)),
        FeatureSet::F2 => F2.get_or_init(|| train(FeatureSet::F2)),
        other => panic!("no artifact for {other:?}"),
    }
}

/// A service on its own plane over a copy of `sizer`.
fn service(sizer: &TrainedSizer, window: usize, fine_tune: bool, shadow: bool) -> SizingService {
    let adaptation = if fine_tune {
        AdaptationKind::FineTune(FineTuneConfig {
            frozen_layers: 1,
            epochs: 3,
            batch: 1,
        })
    } else {
        AdaptationKind::Frozen
    };
    let remeasure = if shadow {
        RemeasureKind::ShadowSampling(0.25)
    } else {
        RemeasureKind::FullRevert
    };
    let config = ServiceConfig {
        window,
        ..ServiceConfig::default()
    };
    ControlPlane::new(sizer.clone(), adaptation).handle(config, remeasure)
}

/// Any finite, non-negative value, from zero to huge.
fn arbitrary(rng: &mut RngStream) -> f64 {
    match rng.index(5) {
        0 => 0.0,
        1 => rng.next_f64(),
        2 => rng.uniform(1.0, 1e4),
        3 => 1e-300 * rng.uniform(1.0, 10.0),
        _ => 1e300 * rng.uniform(1.0, 10.0),
    }
}

/// Two samples equal on `monitored` (a plausible value shifted by
/// `scale`, so drift checks fire) and independently arbitrary elsewhere.
fn sample_pair(
    monitored: &[Metric],
    shared: &mut RngStream,
    left: &mut RngStream,
    right: &mut RngStream,
    at_ms: f64,
    scale: f64,
) -> (InvocationSample, InvocationSample) {
    let mut a = [0.0; METRIC_COUNT];
    let mut b = [0.0; METRIC_COUNT];
    for metric in Metric::ALL {
        let i = metric.index();
        if monitored.contains(&metric) {
            let value = ((40.0 + i as f64) * scale + shared.standard_normal()).max(0.0);
            (a[i], b[i]) = (value, value);
        } else {
            (a[i], b[i]) = (arbitrary(left), arbitrary(right));
        }
    }
    (
        InvocationSample { at_ms, values: a },
        InvocationSample { at_ms, values: b },
    )
}

/// The cached recommendation's predicted times, bit for bit.
fn predicted_bits(svc: &SizingService, fn_id: usize) -> Option<Vec<(MemorySize, u64)>> {
    let rec = svc.recommendation(fn_id)?;
    Some(rec.predicted.iter().map(|(m, t)| (m, t.to_bits())).collect())
}

/// One ingest step: which function, whether the sample is observed at a
/// foreign size, and the fault mask.
type Step = (usize, u8, bool);

fn run_pair(
    feature_set: FeatureSet,
    steps: &[Step],
    window: usize,
    seed: u64,
    fine_tune: bool,
    shadow: bool,
) {
    let sizer = sizer(feature_set);
    let mut a = service(sizer, window, fine_tune, shadow);
    let mut b = service(sizer, window, fine_tune, shadow);
    let monitored = a.monitored_metrics();
    prop_assert_eq!(&monitored, &b.monitored_metrics());
    let base = a.base();
    let root = RngStream::from_seed(seed, "metamorphic");
    let (mut shared, mut left, mut right) =
        (root.derive("shared"), root.derive("left"), root.derive("right"));
    // Workload intensities: steady, mild shift, strong shift. The regime
    // changes every 120 steps, so drift checks see real shifts.
    let scales = [1.0, 1.15, 1.6];
    for (i, &(fn_id, pick, fault_masked)) in steps.iter().enumerate() {
        let scale = scales[(i / 120 + seed as usize) % scales.len()];
        let route = a.route(fn_id);
        prop_assert_eq!(route, b.route(fn_id), "route diverged at step {}", i);
        let at_size = match route {
            RouteDecision::Shadow(size) => size,
            // Mostly the expected size, so windows fill; sometimes a
            // foreign one, to hit the calibration and stale paths.
            RouteDecision::Deployed if pick == 0 => MemorySize::STANDARD[i % 6],
            RouteDecision::Deployed => a.current_size(fn_id).unwrap_or(base),
        };
        let (sa, sb) = sample_pair(
            &monitored,
            &mut shared,
            &mut left,
            &mut right,
            i as f64 * 40.0,
            scale,
        );
        let out_a = a.ingest_masked(fn_id, at_size, sa, fault_masked);
        let out_b = b.ingest_masked(fn_id, at_size, sb, fault_masked);
        prop_assert_eq!(out_a, out_b, "ingest outcome diverged at step {}", i);
        prop_assert_eq!(a.phase(fn_id), b.phase(fn_id));
        prop_assert_eq!(a.current_size(fn_id), b.current_size(fn_id));
        prop_assert_eq!(
            predicted_bits(&a, fn_id),
            predicted_bits(&b, fn_id),
            "recommendation diverged at step {}",
            i
        );
    }
    prop_assert_eq!(a.stats(), b.stats());
    prop_assert!(a.stats().recommendations > 0, "no recommendation was exercised");
    prop_assert!(a.stats().drift_checks > 0, "no drift check was exercised");
    prop_assert!(a.sizer_snapshot() == b.sizer_snapshot(), "artifacts diverged");
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = (0usize..3, 0u8..12, 0u8..4).prop_map(|(fn_id, pick, mask)| (fn_id, pick, mask == 0));
    proptest::collection::vec(step, 300..700)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn unmonitored_metrics_never_move_an_f4_service(
        steps in steps(),
        window in 8usize..24,
        seed in 0u64..1_000,
        policies in 0u8..4,
    ) {
        run_pair(FeatureSet::F4, &steps, window, seed, policies & 1 == 1, policies & 2 == 2);
    }

    #[test]
    fn unmonitored_metrics_never_move_an_f2_service(
        steps in steps(),
        window in 8usize..24,
        seed in 0u64..1_000,
        policies in 0u8..4,
    ) {
        run_pair(FeatureSet::F2, &steps, window, seed, policies & 1 == 1, policies & 2 == 2);
    }
}

#[test]
fn monitored_metrics_follow_the_artifact() {
    let f4 = service(sizer(FeatureSet::F4), 16, false, false).monitored_metrics();
    assert_eq!(
        f4,
        [
            Metric::ExecutionTime,
            Metric::UserCpuTime,
            Metric::SystemCpuTime,
            Metric::VolContextSwitches,
            Metric::FileSystemWrites,
            Metric::HeapUsed,
            Metric::BytesReceived,
        ]
    );
    let f2 = service(sizer(FeatureSet::F2), 16, false, false).monitored_metrics();
    for metric in FeatureSet::F2.required_metrics().into_iter().chain(f4) {
        assert!(f2.contains(&metric), "F2 service does not monitor {metric}");
    }
    assert!(f2.windows(2).all(|w| w[0] < w[1]), "not in Metric::ALL order: {f2:?}");
}
