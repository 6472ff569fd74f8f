//! Differential suite: [`ResourceMonitor::observe`] against the per-metric
//! loop it replaced.
//!
//! `observe` first picks the noisy metrics (σ ≠ 0 and truth ≠ 0), then
//! draws all their uniforms, then applies Box–Muller to each. The reference
//! below is the one-pass loop that calls `standard_normal` per noisy metric.
//! Both must give the same bits for every metric and leave the generator at
//! the same position, across usages with zero, negative-zero, small and
//! large truths (σ = 0 metrics included: execution time and heap limit).

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
