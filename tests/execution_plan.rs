//! Differential test of execution plans against a per-invocation reference.
//!
//! `reference` below is a test-only copy of how the platform sampled an
//! invocation before execution plans: the stage loop with a catalog lookup
//! and a lognormal built per service call, the noise and jitter, the
//! event-loop lag, the cold start and the billing, all worked out again on
//! every call. A plan built once and sampled many times must give
//! bit-identical records and leave the stream at the same position.

use proptest::prelude::*;
use rand::Rng;
use sizeless::engine::dist::LogNormal;
use sizeless::engine::RngStream;
use sizeless::funcgen::{FunctionGenerator, GeneratorConfig};
use sizeless::platform::coldstart::ColdStartModel;
use sizeless::platform::scaling::ScalingLaws;
use sizeless::platform::services::transfer_time_ms;
use sizeless::platform::{
    ExecutionOutcome, FunctionConfig, InvocationRecord, MemorySize, Platform, ResourceProfile,
    ResourceUsage, ServiceCall, ServiceCatalog, ServiceKind, Stage,
};

/// The per-call sampling path: the same arithmetic and draws in the same
/// order, worked out from the models on every call through public APIs.
mod reference {
    use super::*;

    const DURATION_NOISE_SIGMA: f64 = 0.035;
    const USER_CPU_FRACTION: f64 = 0.93;
    const FS_BLOCK_KB: f64 = 16.0;
    const MTU_BYTES: f64 = 1460.0;
    const GC_MS_PER_MB: f64 = 0.18;

    fn call_time_ms(
        services: &ServiceCatalog,
        kind: ServiceKind,
        payload_kb: f64,
        m: MemorySize,
        laws: &ScalingLaws,
        rng: &mut RngStream,
    ) -> f64 {
        let model = services.model(kind);
        let mean = model.base_latency_ms + model.per_kb_ms * payload_kb;
        let server = LogNormal::with_mean(mean, model.sigma).unwrap().sample(rng);
        server + transfer_time_ms(payload_kb, m, laws)
    }

    pub fn execute(
        profile: &ResourceProfile,
        memory: MemorySize,
        laws: &ScalingLaws,
        services: &ServiceCatalog,
        rng: &mut RngStream,
    ) -> ExecutionOutcome {
        let mut usage = ResourceUsage::default();
        let peak_ws = profile.peak_working_set_mb();
        let pressure = laws.memory_pressure_factor(memory, peak_ws);

        let mut duration = 0.0;
        let mut lags: Vec<f64> = Vec::new();
        let mut total_churn_mb = 0.0;

        for stage in profile.stages() {
            let speed = laws.cpu_speed(memory, stage.parallelism);
            let throttle = laws.throttle_penalty(memory, stage.parallelism);
            let gc_cpu_ms = stage.alloc_churn_mb * GC_MS_PER_MB * pressure;
            let cpu_demand_ms = (stage.cpu_ms * pressure + gc_cpu_ms) * throttle;
            let cpu_wall_ms = cpu_demand_ms / speed;

            let io_kb = stage.io_read_kb + stage.io_write_kb;
            let io_ms = (io_kb / 1024.0) / laws.io_bandwidth_mbps(memory) * 1000.0;

            let net_kb = stage.net_in_kb + stage.net_out_kb;
            let mut net_ms = (net_kb / 1024.0) / laws.net_bandwidth_mbps(memory) * 1000.0;
            if net_kb > 0.0 {
                net_ms += 1.2;
            }

            let mut svc_ms = 0.0;
            for call in &stage.service_calls {
                for _ in 0..call.calls {
                    svc_ms += call_time_ms(services, call.kind, call.payload_kb, memory, laws, rng);
                }
                usage.net_rx_kb += call.calls as f64 * call.payload_kb * 0.5;
                usage.net_tx_kb += call.calls as f64 * call.payload_kb * 0.5;
            }

            duration += cpu_wall_ms + io_ms + net_ms + svc_ms + stage.sleep_ms;

            usage.user_cpu_ms += USER_CPU_FRACTION * cpu_demand_ms;
            usage.sys_cpu_ms += (1.0 - USER_CPU_FRACTION) * cpu_demand_ms
                + 0.002 * io_kb
                + 0.004 * (net_kb + usage.net_rx_kb * 0.0);

            usage.fs_read_kb += stage.io_read_kb;
            usage.fs_write_kb += stage.io_write_kb;
            usage.fs_reads += (stage.io_read_kb / FS_BLOCK_KB).ceil();
            usage.fs_writes += (stage.io_write_kb / FS_BLOCK_KB).ceil();

            usage.net_rx_kb += stage.net_in_kb;
            usage.net_tx_kb += stage.net_out_kb;

            let io_ops =
                (stage.io_read_kb / FS_BLOCK_KB).ceil() + (stage.io_write_kb / FS_BLOCK_KB).ceil();
            let svc_calls = stage.total_service_calls() as f64;
            let sleeps = if stage.sleep_ms > 0.0 { 1.0 } else { 0.0 };
            usage.vol_ctx_switches += io_ops + 2.0 * svc_calls + sleeps;
            if stage.parallelism > 1.0 {
                usage.vol_ctx_switches += 0.8 * cpu_demand_ms * (stage.parallelism - 1.0);
                usage.sys_cpu_ms += 0.015 * cpu_demand_ms * (stage.parallelism - 1.0);
            }

            let throttled = laws.cpu_share(memory) < stage.parallelism;
            let quantum_ms = if throttled { 4.0 } else { 40.0 };
            usage.invol_ctx_switches += cpu_wall_ms / quantum_ms;
            if stage.parallelism > 1.0 {
                usage.invol_ctx_switches += cpu_wall_ms * (stage.parallelism - 1.0) / 25.0;
            }

            if cpu_wall_ms > 0.0 {
                lags.push(cpu_wall_ms / stage.parallelism.max(1.0));
            }
            total_churn_mb += stage.alloc_churn_mb;
        }

        usage.vol_ctx_switches += 3.0;

        let noise = LogNormal::with_mean(1.0, DURATION_NOISE_SIGMA)
            .unwrap()
            .sample(rng);
        let jitter_ms = 0.4 + 0.6 * rng.next_f64();
        duration = duration * noise + jitter_ms;

        let heap_used = (peak_ws - 0.45 * profile.baseline_working_set_mb()).max(4.0);
        let heap_total = heap_used * 1.28 + 6.0;
        let heap_limit = (memory.mb() as f64 * 0.75).max(64.0);
        let external = 2.0 + 0.0006 * (usage.net_rx_kb + usage.net_tx_kb + usage.fs_read_kb);
        usage.heap_used_mb = heap_used;
        usage.heap_total_mb = heap_total;
        usage.physical_heap_mb = heap_total * 0.97;
        usage.heap_limit_mb = heap_limit;
        usage.available_heap_mb = (heap_limit - heap_used).max(0.0);
        usage.malloced_mb = heap_total + external * 0.5;
        usage.external_mb = external;
        usage.rss_mb = heap_total + external + 30.0;
        usage.max_rss_mb = usage.rss_mb * 1.05 + total_churn_mb * 0.15;
        usage.bytecode_metadata_kb = 170.0 + profile.package_size_mb() * 85.0;

        usage.pkts_rx = (usage.net_rx_kb * 1024.0 / MTU_BYTES).ceil() + 4.0;
        usage.pkts_tx = (usage.net_tx_kb * 1024.0 / MTU_BYTES).ceil() + 4.0;

        if lags.is_empty() {
            lags.push(0.02 + 0.03 * rng.next_f64());
        }
        let n = lags.len() as f64;
        let mean = lags.iter().sum::<f64>() / n;
        let var = lags.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / n;
        usage.loop_lag_min_ms = lags.iter().cloned().fold(f64::INFINITY, f64::min);
        usage.loop_lag_max_ms = lags.iter().cloned().fold(0.0, f64::max);
        usage.loop_lag_mean_ms = mean;
        usage.loop_lag_std_ms = var.sqrt();

        usage.duration_ms = duration;

        ExecutionOutcome {
            duration_ms: duration,
            cold_start: false,
            init_ms: 0.0,
            usage,
        }
    }

    pub fn sample_init_ms(
        model: &ColdStartModel,
        profile: &ResourceProfile,
        memory: MemorySize,
        laws: &ScalingLaws,
        rng: &mut RngStream,
    ) -> f64 {
        let fixed = LogNormal::with_mean(model.provision_ms + model.runtime_boot_ms, model.sigma)
            .unwrap()
            .sample(rng);
        let load_ms = profile.package_size_mb() / laws.io_bandwidth_mbps(memory) * 1000.0;
        let init_cpu_ms = profile.init_cpu_ms() / laws.cpu_speed(memory, 1.0);
        fixed + load_ms + init_cpu_ms
    }

    pub fn invoke_per_call(
        platform: &Platform,
        profile: &ResourceProfile,
        memory: MemorySize,
        cold: bool,
        rng: &mut RngStream,
    ) -> InvocationRecord {
        let laws = platform.laws();
        let mut outcome = execute(profile, memory, laws, platform.services(), rng);
        if cold {
            outcome.cold_start = true;
            outcome.init_ms =
                sample_init_ms(platform.cold_start_model(), profile, memory, laws, rng);
        }
        let pricing = platform.pricing();
        let increments = (outcome.duration_ms / pricing.billing_increment_ms)
            .ceil()
            .max(1.0);
        let billed_ms = increments * pricing.billing_increment_ms;
        let billed_s = billed_ms / 1000.0;
        let cost_usd = billed_s * memory.gb() * pricing.gb_second_usd + pricing.per_request_usd;
        InvocationRecord {
            memory,
            duration_ms: outcome.duration_ms,
            billed_ms,
            cost_usd,
            cold_start: outcome.cold_start,
            init_ms: outcome.init_ms,
            usage: outcome.usage,
        }
    }
}

/// Every float of a usage record, as bits.
fn usage_bits(u: &ResourceUsage) -> [u64; 27] {
    [
        u.duration_ms,
        u.user_cpu_ms,
        u.sys_cpu_ms,
        u.vol_ctx_switches,
        u.invol_ctx_switches,
        u.fs_reads,
        u.fs_writes,
        u.fs_read_kb,
        u.fs_write_kb,
        u.rss_mb,
        u.max_rss_mb,
        u.heap_total_mb,
        u.heap_used_mb,
        u.physical_heap_mb,
        u.available_heap_mb,
        u.heap_limit_mb,
        u.malloced_mb,
        u.external_mb,
        u.bytecode_metadata_kb,
        u.net_rx_kb,
        u.net_tx_kb,
        u.pkts_rx,
        u.pkts_tx,
        u.loop_lag_min_ms,
        u.loop_lag_max_ms,
        u.loop_lag_mean_ms,
        u.loop_lag_std_ms,
    ]
    .map(f64::to_bits)
}

/// Asserts two records agree in every field, floats compared by bits.
fn assert_same_record(got: &InvocationRecord, want: &InvocationRecord, what: &str) {
    assert_eq!(got.memory, want.memory, "{what}: memory");
    assert_eq!(
        got.duration_ms.to_bits(),
        want.duration_ms.to_bits(),
        "{what}: duration_ms"
    );
    assert_eq!(
        got.billed_ms.to_bits(),
        want.billed_ms.to_bits(),
        "{what}: billed_ms"
    );
    assert_eq!(
        got.cost_usd.to_bits(),
        want.cost_usd.to_bits(),
        "{what}: cost_usd"
    );
    assert_eq!(got.cold_start, want.cold_start, "{what}: cold_start");
    assert_eq!(
        got.init_ms.to_bits(),
        want.init_ms.to_bits(),
        "{what}: init_ms"
    );
    assert_eq!(
        usage_bits(&got.usage),
        usage_bits(&want.usage),
        "{what}: usage"
    );
}

/// Invokes one plan once per entry of `colds` and checks each record, and
/// the stream position afterwards, against the reference path.
fn check_plan(profile: &ResourceProfile, memory: MemorySize, colds: &[bool], seed: u64) {
    let platform = Platform::aws_like();
    let plan = platform.plan(profile, memory);
    let mut planned = RngStream::from_seed(seed, "plan-vs-reference");
    let mut per_call = planned.clone();
    for (i, &cold) in colds.iter().enumerate() {
        let got = platform.invoke_planned(&plan, cold, &mut planned);
        let want = reference::invoke_per_call(&platform, profile, memory, cold, &mut per_call);
        assert_same_record(
            &got,
            &want,
            &format!("{} at {memory}, call {i}", profile.name()),
        );
    }
    assert_eq!(
        planned.next_u64(),
        per_call.next_u64(),
        "{}: stream position",
        profile.name()
    );
}

/// A random hand-built profile: up to 24 stages mixing CPU (some parallel),
/// allocation churn, file and network I/O, service calls (some repeated)
/// and sleeps. About a third of the profiles use no CPU at all (no CPU
/// demand and no churn, whose GC costs CPU), so their event-loop lag is
/// drawn per invocation.
fn hand_built(seed: u64) -> ResourceProfile {
    let mut rng = RngStream::from_seed(seed, "hand-built-profile");
    let stages = 1 + rng.index(24);
    let cpu = !rng.chance(0.35);
    let mut builder = ResourceProfile::builder(format!("hand-{seed}"));
    for i in 0..stages {
        let mut stage = Stage::named(format!("s{i}"));
        if cpu && rng.chance(0.6) {
            let parallelism = if rng.chance(0.3) {
                rng.uniform(1.0, 4.0)
            } else {
                1.0
            };
            stage = stage.with_cpu(rng.uniform(0.0, 300.0), parallelism);
        }
        if rng.chance(0.3) {
            stage.io_read_kb = rng.uniform(0.0, 2048.0);
            stage.io_write_kb = rng.uniform(0.0, 512.0);
        }
        if rng.chance(0.3) {
            stage.net_in_kb = rng.uniform(0.0, 1024.0);
            stage.net_out_kb = rng.uniform(0.0, 256.0);
        }
        if rng.chance(0.4) {
            for _ in 0..1 + rng.index(3) {
                let kind = *rng.choose(&ServiceKind::ALL);
                let calls = 1 + rng.index(4) as u32;
                stage =
                    stage.with_service_call(ServiceCall::new(kind, calls, rng.uniform(0.0, 400.0)));
            }
        }
        if rng.chance(0.3) {
            stage.sleep_ms = rng.uniform(0.0, 50.0);
        }
        stage = stage.with_working_set(rng.uniform(0.0, 120.0));
        if cpu && rng.chance(0.5) {
            stage = stage.with_alloc_churn(rng.uniform(0.0, 40.0));
        }
        builder = builder.stage(stage);
    }
    builder
        .baseline_working_set_mb(rng.uniform(30.0, 60.0))
        .init_cpu_ms(rng.uniform(0.0, 150.0))
        .package_size_mb(rng.uniform(0.5, 30.0))
        .build()
}

/// A synthetic function of the dataset generator.
fn generated(seed: u64) -> ResourceProfile {
    let mut rng = RngStream::from_seed(seed, "generated-profile");
    FunctionGenerator::new(GeneratorConfig::default())
        .generate(&mut rng)
        .profile
}

/// Any valid size: a multiple of 64 MB from 128 to 3008 MB.
fn any_size(k: u32) -> MemorySize {
    MemorySize::new(128 + 64 * k).unwrap()
}

/// Five warm-or-cold flags from the low bits of `bits`.
fn colds(bits: u32) -> [bool; 5] {
    std::array::from_fn(|i| bits >> i & 1 == 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hand_built_plans_match_the_reference(
        seed in 0u64..1_000_000,
        k in 0u32..46,
        bits in 0u32..32,
    ) {
        check_plan(&hand_built(seed), any_size(k), &colds(bits), seed ^ 0x5eed);
    }

    #[test]
    fn generated_plans_match_the_reference(
        seed in 0u64..1_000_000,
        i in 0usize..6,
        bits in 0u32..32,
    ) {
        check_plan(&generated(seed), MemorySize::STANDARD[i], &colds(bits), seed);
    }
}

#[test]
fn hand_built_profiles_cover_the_edge_shapes() {
    let profiles: Vec<ResourceProfile> = (0..200).map(hand_built).collect();
    let count =
        |pred: &dyn Fn(&ResourceProfile) -> bool| profiles.iter().filter(|p| pred(p)).count();
    assert!(
        count(&|p| p.stages().len() > 16) > 10,
        "more than 16 stages"
    );
    assert!(
        count(&|p| p
            .stages()
            .iter()
            .all(|s| s.cpu_ms == 0.0 && s.alloc_churn_mb == 0.0))
            > 30,
        "no CPU use: the event-loop-lag fallback"
    );
    assert!(
        count(&|p| p.stages().iter().all(|s| s.service_calls.is_empty())) > 10,
        "no calls"
    );
    assert!(
        count(&|p| p
            .stages()
            .iter()
            .any(|s| s.service_calls.iter().any(|c| c.calls > 1)))
            > 30,
        "repeated calls"
    );
    assert!(
        count(&|p| p.stages().iter().any(|s| s.parallelism > 1.0)) > 30,
        "parallel stages"
    );
}

#[test]
fn edge_profiles_match_the_reference() {
    let call = |kind, calls, kb| ServiceCall::new(kind, calls, kb);
    let profiles = [
        // No CPU stage: the event-loop lag is drawn after the jitter.
        ResourceProfile::builder("sleep-only")
            .stage(Stage::sleep("wait", 40.0))
            .build(),
        ResourceProfile::builder("service-only")
            .stage(Stage::service("db", call(ServiceKind::DynamoDb, 3, 2.0)))
            .stage(Stage::network("fetch", 64.0, 8.0))
            .build(),
        ResourceProfile::builder("empty").build(),
        // A service call first, then stages without calls after it.
        ResourceProfile::builder("call-first")
            .stage(
                Stage::cpu("parse", 12.0)
                    .with_service_call(call(ServiceKind::S3, 2, 512.0))
                    .with_service_call(call(ServiceKind::Sns, 1, 1.0)),
            )
            .stage(Stage::cpu_parallel("zip", 80.0, 2.5))
            .stage(Stage::sleep("backoff", 7.5))
            .build(),
        // A fixed head, then a stage that both computes and calls.
        ResourceProfile::builder("head-then-busy-call")
            .stage(Stage::cpu("warm-up", 37.0))
            .stage(
                Stage::file_io("load", 300.0, 20.0)
                    .with_cpu(11.0, 1.0)
                    .with_service_call(call(ServiceKind::DynamoDb, 2, 1.5)),
            )
            .stage(Stage::sleep("settle", 3.3))
            .build(),
        // Calls at the end only, after a long fixed head.
        ResourceProfile::builder("call-last")
            .stages((0..18).map(|i| Stage::cpu(format!("s{i}"), 3.0 + i as f64)))
            .stage(Stage::service(
                "pay",
                call(ServiceKind::ExternalPayment, 2, 4.0),
            ))
            .build(),
        // More than 16 stages that use CPU, in parallel and not.
        ResourceProfile::builder("many-stages")
            .stages(
                (0..20).map(|i| Stage::cpu_parallel(format!("p{i}"), 5.0, 1.0 + (i % 4) as f64)),
            )
            .build(),
    ];
    let sizes = [
        MemorySize::MB_128,
        MemorySize::new(704).unwrap(),
        MemorySize::MB_3008,
    ];
    for (i, profile) in profiles.iter().enumerate() {
        for (j, &memory) in sizes.iter().enumerate() {
            check_plan(
                profile,
                memory,
                &[true, false, false, true, false],
                (i * 7 + j) as u64,
            );
        }
    }
}

#[test]
fn per_call_wrappers_match_the_reference() {
    let platform = Platform::aws_like();
    let memory = MemorySize::MB_512;
    for seed in 0..8 {
        let profile = hand_built(seed);
        // Deployed at another size: the wrapper must run at `memory`.
        let config = FunctionConfig::new(profile.clone(), MemorySize::MB_128);
        let mut rng = RngStream::from_seed(seed, "wrappers");
        let mut reference_rng = rng.clone();
        let got = platform.invoke_unnamed_at(&config, memory, seed % 2 == 0, &mut rng);
        let want = reference::invoke_per_call(
            &platform,
            &profile,
            memory,
            seed % 2 == 0,
            &mut reference_rng,
        );
        assert_same_record(&got, &want, "invoke_unnamed_at");

        let got = platform.execute(&profile, memory, &mut rng);
        let want = reference::execute(
            &profile,
            memory,
            platform.laws(),
            platform.services(),
            &mut reference_rng,
        );
        assert_eq!(
            got.duration_ms.to_bits(),
            want.duration_ms.to_bits(),
            "execute"
        );
        assert_eq!(
            usage_bits(&got.usage),
            usage_bits(&want.usage),
            "execute usage"
        );
        assert_eq!(rng.next_u64(), reference_rng.next_u64(), "stream position");
    }
}
