//! Differential suite: [`ResourceMonitor::observe`] against the per-metric
//! loop it replaced, and the collecting monitor against the full one.
//!
//! `observe` first picks the noisy metrics (σ ≠ 0 and truth ≠ 0), then
//! draws all their uniforms, then applies Box–Muller to each. The reference
//! below is the one-pass loop that calls `standard_normal` per noisy metric.
//! Both must give the same bits for every metric and leave the generator at
//! the same position, across usages with zero, negative-zero, small and
//! large truths (σ = 0 metrics included: execution time and heap limit).
//!
//! A monitor built by [`ResourceMonitor::collecting`] must give the full
//! monitor's bits on every metric it collects, +0.0 on every other, and
//! leave the generator where the full monitor leaves it.

use proptest::collection::vec;
use proptest::prelude::*;
use sizeless_engine::RngStream;
use sizeless_platform::ResourceUsage;
use sizeless_telemetry::{InvocationSample, Metric, ResourceMonitor, METRIC_COUNT};

/// The per-metric observe loop: one `standard_normal` per noisy metric, in
/// `Metric::ALL` order.
fn observe_reference(at_ms: f64, usage: &ResourceUsage, rng: &mut RngStream) -> InvocationSample {
    let mut values = [0.0; METRIC_COUNT];
    for metric in Metric::ALL {
        let truth = metric.extract(usage);
        let sigma = metric.collector_noise_sigma();
        let noisy = if sigma == 0.0 || truth == 0.0 {
            truth
        } else {
            (truth * (1.0 + sigma * rng.standard_normal())).max(0.0)
        };
        values[metric.index()] = noisy;
    }
    InvocationSample { at_ms, values }
}

/// A usage whose every field is picked by one `choice`: `0.0`, `-0.0`, a
/// value in `[0, 1)`, one in `[1, 1e4)`, or a tiny or huge magnitude.
fn usage(choices: &[u8], rng: &mut RngStream) -> ResourceUsage {
    let mut u = ResourceUsage::default();
    let fields = [
        &mut u.duration_ms,
        &mut u.user_cpu_ms,
        &mut u.sys_cpu_ms,
        &mut u.vol_ctx_switches,
        &mut u.invol_ctx_switches,
        &mut u.fs_reads,
        &mut u.fs_writes,
        &mut u.fs_read_kb,
        &mut u.fs_write_kb,
        &mut u.rss_mb,
        &mut u.max_rss_mb,
        &mut u.heap_total_mb,
        &mut u.heap_used_mb,
        &mut u.physical_heap_mb,
        &mut u.available_heap_mb,
        &mut u.heap_limit_mb,
        &mut u.malloced_mb,
        &mut u.external_mb,
        &mut u.bytecode_metadata_kb,
        &mut u.net_rx_kb,
        &mut u.net_tx_kb,
        &mut u.pkts_rx,
        &mut u.pkts_tx,
        &mut u.loop_lag_min_ms,
        &mut u.loop_lag_max_ms,
        &mut u.loop_lag_mean_ms,
        &mut u.loop_lag_std_ms,
    ];
    for (field, &choice) in fields.into_iter().zip(choices) {
        *field = match choice % 6 {
            0 => 0.0,
            1 => -0.0,
            2 => rng.next_f64(),
            3 => rng.uniform(1.0, 1e4),
            4 => 1e-300 * rng.uniform(1.0, 10.0),
            _ => 1e300 * rng.uniform(1.0, 10.0),
        };
    }
    u
}

fn assert_same_bits(got: &InvocationSample, want: &InvocationSample) {
    assert_eq!(got.at_ms.to_bits(), want.at_ms.to_bits());
    for metric in Metric::ALL {
        assert_eq!(
            got.value(metric).to_bits(),
            want.value(metric).to_bits(),
            "{} diverged: {} vs {}",
            metric,
            got.value(metric),
            want.value(metric)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn observe_matches_the_per_metric_loop(
        seed in 0u64..u64::MAX,
        usages in vec(vec(0u8..6, 27), 1..12),
    ) {
        let monitor = ResourceMonitor::new();
        let mut values_rng = RngStream::from_seed(seed, "usages");
        let mut rng = RngStream::from_seed(seed, "monitor");
        let mut reference_rng = rng.clone();
        for (i, choices) in usages.iter().enumerate() {
            let u = usage(choices, &mut values_rng);
            let at = i as f64 * 10.0;
            let got = monitor.observe(at, &u, &mut rng);
            let want = observe_reference(at, &u, &mut reference_rng);
            assert_same_bits(&got, &want);
        }
        // Both consumed exactly the same number of draws.
        prop_assert_eq!(rng.next_f64().to_bits(), reference_rng.next_f64().to_bits());
    }
}

#[test]
fn all_zero_and_all_noisy_usages_match() {
    let monitor = ResourceMonitor::new();
    let mut values_rng = RngStream::from_seed(11, "extremes");
    let mut rng = RngStream::from_seed(11, "monitor");
    let mut reference_rng = rng.clone();
    for choice in 0..6u8 {
        let u = usage(&[choice; 27], &mut values_rng);
        let got = monitor.observe(1.0, &u, &mut rng);
        let want = observe_reference(1.0, &u, &mut reference_rng);
        assert_same_bits(&got, &want);
    }
    assert_eq!(rng.next_f64().to_bits(), reference_rng.next_f64().to_bits());
}

/// Execution time plus the six base metrics of feature set F4: what the
/// fleet's monitor collects for an F4 artifact.
const F4_SEVEN: [Metric; 7] = [
    Metric::ExecutionTime,
    Metric::UserCpuTime,
    Metric::SystemCpuTime,
    Metric::VolContextSwitches,
    Metric::FileSystemWrites,
    Metric::HeapUsed,
    Metric::BytesReceived,
];

/// A metric subset: empty, F4's seven, all 25, or the metrics whose bit is
/// set in `mask`.
fn subset(kind: u8, mask: u32) -> Vec<Metric> {
    match kind % 4 {
        0 => Vec::new(),
        1 => F4_SEVEN.to_vec(),
        2 => Metric::ALL.to_vec(),
        _ => Metric::ALL
            .into_iter()
            .filter(|m| mask & 1 << m.index() != 0)
            .collect(),
    }
}

/// Observes `u` with the collecting monitor for `metrics` and with the full
/// monitor, each on its own copy of one stream, and checks the sample bits
/// and the streams' next `u64`.
fn assert_collects_like_full(
    metrics: &[Metric],
    u: &ResourceUsage,
    at_ms: f64,
    rng: &mut RngStream,
    full_rng: &mut RngStream,
) {
    let collecting = ResourceMonitor::collecting(metrics);
    let got = collecting.observe(at_ms, u, rng);
    let want = ResourceMonitor::new().observe(at_ms, u, full_rng);
    assert_eq!(got.at_ms.to_bits(), want.at_ms.to_bits());
    for metric in Metric::ALL {
        let collected = metrics.contains(&metric);
        let expected = if collected { want.value(metric) } else { 0.0 };
        assert_eq!(
            got.value(metric).to_bits(),
            expected.to_bits(),
            "{metric} (collected: {collected}): {} vs {expected}",
            got.value(metric),
        );
    }
    let next = |r: &RngStream| r.clone().int_range(0, u64::MAX);
    assert_eq!(next(rng), next(full_rng), "the streams diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn collecting_monitor_matches_the_full_monitor_on_its_metrics(
        seed in 0u64..u64::MAX,
        kind in 0u8..4,
        mask in 0u32..1 << METRIC_COUNT,
        usages in vec(vec(0u8..6, 27), 1..12),
    ) {
        let metrics = subset(kind, mask);
        let mut values_rng = RngStream::from_seed(seed, "usages");
        let mut rng = RngStream::from_seed(seed, "monitor");
        let mut full_rng = rng.clone();
        for (i, choices) in usages.iter().enumerate() {
            let u = usage(choices, &mut values_rng);
            assert_collects_like_full(&metrics, &u, i as f64 * 10.0, &mut rng, &mut full_rng);
        }
    }
}

#[test]
fn collecting_monitor_matches_on_extreme_usages() {
    for kind in 0..3 {
        let metrics = subset(kind, 0);
        let mut values_rng = RngStream::from_seed(12, "extremes");
        let mut rng = RngStream::from_seed(12, "monitor");
        let mut full_rng = rng.clone();
        for choice in 0..6u8 {
            let u = usage(&[choice; 27], &mut values_rng);
            assert_collects_like_full(&metrics, &u, 1.0, &mut rng, &mut full_rng);
        }
    }
}

#[test]
fn collecting_every_metric_is_the_full_monitor() {
    assert_eq!(ResourceMonitor::collecting(&Metric::ALL), ResourceMonitor::new());
    let f4 = ResourceMonitor::collecting(&F4_SEVEN);
    assert_eq!(f4.overhead_ms, ResourceMonitor::new().overhead_ms);
    assert_ne!(f4, ResourceMonitor::new());
}
