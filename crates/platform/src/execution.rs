//! Turning a [`ResourceProfile`] plus a [`MemorySize`] into a wall-clock
//! duration and a ground-truth [`ResourceUsage`] record.
//!
//! The work is split in two. An [`ExecutionPlan`]
//! ([`Platform::plan`](crate::Platform::plan)) holds everything the
//! profile and the size fix: the scaling-law arithmetic, every
//! deterministic usage field, and the lognormal parameters of the noise,
//! the service calls and the cold start. [`ExecutionPlan::sample`] then
//! makes one invocation's draws. Callers that invoke one (profile, size)
//! many times, such as the fleet and the measurement harness, build the
//! plan once.
//!
//! The execution semantics mirror a Node.js Lambda:
//!
//! * CPU demand is divided by the memory-scaled CPU speed — but the *reported*
//!   CPU time (`process.cpuUsage()`) is the demand itself, so the relative
//!   feature "user time per second of execution" measures CPU-boundedness,
//!   exactly the paper's most impactful feature (Figure 5).
//! * File and raw network traffic are served at memory-scaled bandwidths.
//! * Managed-service calls pay a memory-independent server latency plus a
//!   memory-scaled transfer time.
//! * A working set close to the configured memory triggers GC/swap pressure
//!   that inflates CPU time (the "heap used" effect of Figure 5).
//! * Long synchronous CPU stages block the event loop, producing the
//!   event-loop-lag metrics of Table 1.

use crate::coldstart::{ColdStartModel, ColdStartPlan};
use crate::memory::MemorySize;
use crate::resource::ResourceProfile;
use crate::scaling::ScalingLaws;
use crate::services::ServiceCatalog;
use serde::{Deserialize, Serialize};
use sizeless_engine::dist::LogNormal;
use sizeless_engine::RngStream;

/// Ground-truth resource consumption of one invocation.
///
/// Field names deliberately parallel the 25 metrics of the paper's Table 1;
/// the telemetry crate converts this record into the monitored metric vector
/// (adding measurement noise where the real collectors are noisy).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// Inner execution time (what the paper's wrapper measures), ms.
    pub duration_ms: f64,
    /// CPU time spent in user space, ms (as `process.cpuUsage()` reports).
    pub user_cpu_ms: f64,
    /// CPU time spent in kernel space, ms.
    pub sys_cpu_ms: f64,
    /// Voluntary context switches (blocking I/O waits).
    pub vol_ctx_switches: f64,
    /// Involuntary context switches (CPU throttling, thread migration).
    pub invol_ctx_switches: f64,
    /// File-system read operations.
    pub fs_reads: f64,
    /// File-system write operations.
    pub fs_writes: f64,
    /// Bytes read from the file system, KB.
    pub fs_read_kb: f64,
    /// Bytes written to the file system, KB.
    pub fs_write_kb: f64,
    /// Resident set size, MB.
    pub rss_mb: f64,
    /// Peak resident set size, MB.
    pub max_rss_mb: f64,
    /// Total V8 heap, MB.
    pub heap_total_mb: f64,
    /// Used V8 heap, MB.
    pub heap_used_mb: f64,
    /// Physical heap size, MB.
    pub physical_heap_mb: f64,
    /// Available heap before the limit, MB.
    pub available_heap_mb: f64,
    /// Configured heap limit, MB (scales with the memory size).
    pub heap_limit_mb: f64,
    /// Memory allocated by the V8 allocator, MB.
    pub malloced_mb: f64,
    /// External (buffer) memory, MB.
    pub external_mb: f64,
    /// Bytecode + metadata size, KB.
    pub bytecode_metadata_kb: f64,
    /// Network bytes received, KB.
    pub net_rx_kb: f64,
    /// Network bytes transmitted, KB.
    pub net_tx_kb: f64,
    /// Network packets received.
    pub pkts_rx: f64,
    /// Network packets transmitted.
    pub pkts_tx: f64,
    /// Minimum event-loop lag, ms.
    pub loop_lag_min_ms: f64,
    /// Maximum event-loop lag, ms.
    pub loop_lag_max_ms: f64,
    /// Mean event-loop lag, ms.
    pub loop_lag_mean_ms: f64,
    /// Standard deviation of event-loop lag, ms.
    pub loop_lag_std_ms: f64,
}

/// The result of executing a profile at a memory size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionOutcome {
    /// Inner execution duration, ms.
    pub duration_ms: f64,
    /// Whether this execution paid a cold start (initialization happens
    /// *before* the inner duration, matching Lambda's billing of init).
    pub cold_start: bool,
    /// Initialization duration if cold, ms.
    pub init_ms: f64,
    /// Ground-truth resource usage.
    pub usage: ResourceUsage,
}

/// Multiplicative execution-time noise (σ of the lognormal). Cloud
/// measurements show a few percent of jitter on warm executions.
const DURATION_NOISE_SIGMA: f64 = 0.035;

/// Fraction of CPU demand attributed to user space (rest is system).
const USER_CPU_FRACTION: f64 = 0.93;

/// File-system block size assumed per I/O operation, KB.
const FS_BLOCK_KB: f64 = 16.0;

/// Ethernet-ish MTU used to derive packet counts, bytes.
const MTU_BYTES: f64 = 1460.0;

/// GC CPU cost per MB of allocation churn, ms/MB at one vCPU.
const GC_MS_PER_MB: f64 = 0.18;

/// Everything about executing one profile at one memory size that no draw
/// changes, worked out once so an invocation only draws its noise.
///
/// [`ExecutionPlan::sample`] makes the draws of one invocation, in this
/// order: each service call's server latency (by stage, then call, then
/// repetition), the multiplicative noise, the platform jitter, the
/// event-loop lag of a profile without a CPU stage, and the
/// initialization time of a cold start. Fixed and drawn terms are summed
/// in stage-loop order: the stages before the first service call form one
/// fixed sum, and every later stage adds `(busy + service) + sleep`.
/// `tests/execution_plan.rs` pins each sampled bit against a per-call
/// reference.
///
/// # Examples
///
/// ```
/// use sizeless_engine::RngStream;
/// use sizeless_platform::{MemorySize, Platform, ResourceProfile, Stage};
///
/// let platform = Platform::aws_like();
/// let profile = ResourceProfile::builder("f").stage(Stage::cpu("work", 40.0)).build();
/// let plan = platform.plan(&profile, MemorySize::MB_512);
/// let mut rng = RngStream::from_seed(1, "plan-doc");
/// let warm = plan.sample(false, &mut rng);
/// let cold = plan.sample(true, &mut rng);
/// assert!(warm.init_ms == 0.0 && cold.init_ms > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    memory: MemorySize,
    /// Duration sum of the stages before the first stage with service
    /// calls, ms: no draw comes before them.
    head_ms: f64,
    /// The stages from the first one with service calls on, in order.
    tail: Vec<TailStage>,
    /// The service calls of the tail stages, in stage order.
    calls: Vec<PlannedCall>,
    /// Every deterministic usage field. `duration_ms`, and the four
    /// event-loop-lag fields when `lag_fallback` is set, are filled in
    /// per invocation.
    usage: ResourceUsage,
    /// No stage uses CPU, so the event-loop lag is one uniform draw.
    lag_fallback: bool,
    /// Multiplicative wall-clock noise.
    noise: LogNormal,
    /// The cold start's initialization time.
    init: ColdStartPlan,
}

/// One stage of an [`ExecutionPlan`]'s tail.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TailStage {
    /// CPU wall, I/O and network time, summed in that order, ms.
    busy_ms: f64,
    sleep_ms: f64,
    /// End of this stage's calls in [`ExecutionPlan::calls`]; they start
    /// where the previous tail stage's calls end.
    calls_end: usize,
}

/// One service-call entry of a tail stage: `repeat` sequential calls.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PlannedCall {
    /// Server-side latency of one call.
    latency: LogNormal,
    /// Client-side payload transfer time of one call, ms.
    transfer_ms: f64,
    repeat: u32,
}

impl ExecutionPlan {
    /// Works out everything about executing `profile` at `memory` that no
    /// draw changes; [`Platform::plan`](crate::Platform::plan) passes the
    /// platform's own models.
    ///
    /// # Panics
    ///
    /// Panics if a service the profile calls is missing from `services`.
    pub(crate) fn new(
        profile: &ResourceProfile,
        memory: MemorySize,
        laws: &ScalingLaws,
        services: &ServiceCatalog,
        cold_start: &ColdStartModel,
    ) -> Self {
        let mut usage = ResourceUsage::default();
        let peak_ws = profile.peak_working_set_mb();
        let pressure = laws.memory_pressure_factor(memory, peak_ws);

        let mut head_ms = 0.0;
        let mut tail = Vec::new();
        let mut calls = Vec::new();
        // Event-loop lag samples, one per stage that uses CPU. A stack
        // buffer covers every realistic profile, so planning a fleet's
        // functions stays allocation-light; longer profiles spill.
        const LAG_INLINE: usize = 16;
        let mut lag_buf = [0.0_f64; LAG_INLINE];
        let mut lag_spill: Vec<f64> = Vec::new();
        let mut lag_n = 0_usize;
        let mut total_churn_mb = 0.0;

        for stage in profile.stages() {
            let speed = laws.cpu_speed(memory, stage.parallelism);

            // GC work grows with allocation churn and memory pressure; CFS
            // throttling at small shares inflates the demand further.
            let throttle = laws.throttle_penalty(memory, stage.parallelism);
            let gc_cpu_ms = stage.alloc_churn_mb * GC_MS_PER_MB * pressure;
            let cpu_demand_ms = (stage.cpu_ms * pressure + gc_cpu_ms) * throttle;
            let cpu_wall_ms = cpu_demand_ms / speed;

            let io_kb = stage.io_read_kb + stage.io_write_kb;
            let io_ms = (io_kb / 1024.0) / laws.io_bandwidth_mbps(memory) * 1000.0;

            let net_kb = stage.net_in_kb + stage.net_out_kb;
            let mut net_ms = (net_kb / 1024.0) / laws.net_bandwidth_mbps(memory) * 1000.0;
            if net_kb > 0.0 {
                net_ms += 1.2; // connection/RTT overhead per raw-network stage
            }

            let busy_ms = cpu_wall_ms + io_ms + net_ms;
            if tail.is_empty() && stage.service_calls.is_empty() {
                // No draw comes before this stage: its service time is
                // exactly zero and its sum is fixed.
                head_ms += busy_ms + 0.0 + stage.sleep_ms;
            } else {
                for call in &stage.service_calls {
                    calls.push(PlannedCall {
                        latency: services.model(call.kind).latency(call.payload_kb),
                        transfer_ms: crate::services::transfer_time_ms(
                            call.payload_kb,
                            memory,
                            laws,
                        ),
                        repeat: call.calls,
                    });
                }
                tail.push(TailStage {
                    busy_ms,
                    sleep_ms: stage.sleep_ms,
                    calls_end: calls.len(),
                });
            }
            for call in &stage.service_calls {
                // Service payloads flow over the function's NIC (half each way).
                usage.net_rx_kb += call.calls as f64 * call.payload_kb * 0.5;
                usage.net_tx_kb += call.calls as f64 * call.payload_kb * 0.5;
            }

            usage.user_cpu_ms += USER_CPU_FRACTION * cpu_demand_ms;
            usage.sys_cpu_ms += (1.0 - USER_CPU_FRACTION) * cpu_demand_ms
                + 0.002 * io_kb
                + 0.004 * (net_kb + usage.net_rx_kb * 0.0); // io/net syscall time

            usage.fs_read_kb += stage.io_read_kb;
            usage.fs_write_kb += stage.io_write_kb;
            usage.fs_reads += (stage.io_read_kb / FS_BLOCK_KB).ceil();
            usage.fs_writes += (stage.io_write_kb / FS_BLOCK_KB).ceil();

            usage.net_rx_kb += stage.net_in_kb;
            usage.net_tx_kb += stage.net_out_kb;

            // Voluntary switches: every blocking wait yields the CPU, and
            // libuv-pool work adds task handoffs proportional to the parallel
            // CPU demand — this is how thread-pool parallelism shows up in the
            // monitored metrics (the paper's model sees voluntary context
            // switches among its six final metrics).
            let io_ops =
                (stage.io_read_kb / FS_BLOCK_KB).ceil() + (stage.io_write_kb / FS_BLOCK_KB).ceil();
            let svc_calls = stage.total_service_calls() as f64;
            let sleeps = if stage.sleep_ms > 0.0 { 1.0 } else { 0.0 };
            usage.vol_ctx_switches += io_ops + 2.0 * svc_calls + sleeps;
            if stage.parallelism > 1.0 {
                usage.vol_ctx_switches += 0.8 * cpu_demand_ms * (stage.parallelism - 1.0);
                // Thread coordination costs kernel time too.
                usage.sys_cpu_ms += 0.015 * cpu_demand_ms * (stage.parallelism - 1.0);
            }

            // Involuntary switches: CFS throttling while the share is below the
            // stage's exploitable parallelism, plus thread migration for
            // libuv-pool work.
            let throttled = laws.cpu_share(memory) < stage.parallelism;
            let quantum_ms = if throttled { 4.0 } else { 40.0 };
            usage.invol_ctx_switches += cpu_wall_ms / quantum_ms;
            if stage.parallelism > 1.0 {
                usage.invol_ctx_switches += cpu_wall_ms * (stage.parallelism - 1.0) / 25.0;
            }

            // A synchronous CPU stage blocks the event loop for its wall time.
            if cpu_wall_ms > 0.0 {
                let lag = cpu_wall_ms / stage.parallelism.max(1.0);
                match lag_buf.get_mut(lag_n) {
                    Some(slot) => *slot = lag,
                    None => lag_spill.push(lag),
                }
                lag_n += 1;
            }
            total_churn_mb += stage.alloc_churn_mb;
        }

        // Baseline syscalls of the handler itself.
        usage.vol_ctx_switches += 3.0;

        // --- Memory picture -------------------------------------------------
        // Peak working set includes the baseline; only ~55% of the runtime
        // baseline lives on the V8 heap (the rest is native).
        let heap_used = (peak_ws - 0.45 * profile.baseline_working_set_mb()).max(4.0);
        let heap_total = heap_used * 1.28 + 6.0;
        // Node on Lambda sizes its old space from the cgroup memory limit.
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

        // --- Packets ---------------------------------------------------------
        usage.pkts_rx = (usage.net_rx_kb * 1024.0 / MTU_BYTES).ceil() + 4.0;
        usage.pkts_tx = (usage.net_tx_kb * 1024.0 / MTU_BYTES).ceil() + 4.0;

        let lag_fallback = lag_n == 0;
        if !lag_fallback {
            let inline = &lag_buf[..lag_n.min(LAG_INLINE)];
            set_loop_lag(&mut usage, || inline.iter().chain(&lag_spill).copied());
        }

        ExecutionPlan {
            memory,
            head_ms,
            tail,
            calls,
            usage,
            lag_fallback,
            // Multiplicative noise on the wall clock.
            noise: LogNormal::with_mean(1.0, DURATION_NOISE_SIGMA)
                // lint: allow(panic002) reason="mean and sigma are fixed positive constants, so the distribution is valid"
                .expect("constant sigma is valid"),
            init: cold_start.plan(profile, memory, laws),
        }
    }

    /// The memory size this plan executes at.
    pub fn memory(&self) -> MemorySize {
        self.memory
    }

    /// Samples one execution, cold or warm. The duration includes sampled
    /// service latencies, platform jitter and lognormal noise, so repeated
    /// executions form realistic distributions for the stability analysis.
    pub fn sample(&self, cold: bool, rng: &mut RngStream) -> ExecutionOutcome {
        let mut duration = self.head_ms;
        let mut first_call = 0;
        for stage in &self.tail {
            let mut svc_ms = 0.0;
            for call in &self.calls[first_call..stage.calls_end] {
                for _ in 0..call.repeat {
                    svc_ms += call.latency.sample(rng) + call.transfer_ms;
                }
            }
            first_call = stage.calls_end;
            duration += stage.busy_ms + svc_ms + stage.sleep_ms;
        }
        let noise = self.noise.sample(rng);
        let jitter_ms = 0.4 + 0.6 * rng.next_f64();
        duration = duration * noise + jitter_ms;

        let mut usage = self.usage;
        if self.lag_fallback {
            let lag = 0.02 + 0.03 * rng.next_f64();
            set_loop_lag(&mut usage, || std::iter::once(lag));
        }
        usage.duration_ms = duration;
        ExecutionOutcome {
            duration_ms: duration,
            cold_start: cold,
            init_ms: if cold { self.init.sample(rng) } else { 0.0 },
            usage,
        }
    }
}

/// Sets the four event-loop-lag fields from the lag samples `lags()`
/// yields, one per blocking stage (never none).
fn set_loop_lag<I: Iterator<Item = f64>>(usage: &mut ResourceUsage, lags: impl Fn() -> I) {
    let n = lags().count() as f64;
    let mean = lags().sum::<f64>() / n;
    let var = lags().map(|l| (l - mean) * (l - mean)).sum::<f64>() / n;
    usage.loop_lag_min_ms = lags().fold(f64::INFINITY, f64::min);
    usage.loop_lag_max_ms = lags().fold(0.0, f64::max);
    usage.loop_lag_mean_ms = mean;
    usage.loop_lag_std_ms = var.sqrt();
}

/// The expected (noise-free) execution time at a memory size. Used by tests
/// and by the "measured ground truth" oracle in the evaluation harness.
pub fn expected_duration_ms(
    profile: &ResourceProfile,
    memory: MemorySize,
    laws: &ScalingLaws,
    services: &ServiceCatalog,
) -> f64 {
    let peak_ws = profile.peak_working_set_mb();
    let pressure = laws.memory_pressure_factor(memory, peak_ws);
    let mut duration = 0.0;
    for stage in profile.stages() {
        let speed = laws.cpu_speed(memory, stage.parallelism);
        let throttle = laws.throttle_penalty(memory, stage.parallelism);
        let gc_cpu_ms = stage.alloc_churn_mb * GC_MS_PER_MB * pressure;
        duration += (stage.cpu_ms * pressure + gc_cpu_ms) * throttle / speed;
        let io_kb = stage.io_read_kb + stage.io_write_kb;
        duration += (io_kb / 1024.0) / laws.io_bandwidth_mbps(memory) * 1000.0;
        let net_kb = stage.net_in_kb + stage.net_out_kb;
        duration += (net_kb / 1024.0) / laws.net_bandwidth_mbps(memory) * 1000.0;
        if net_kb > 0.0 {
            duration += 1.2;
        }
        for call in &stage.service_calls {
            duration += call.calls as f64
                * (services.model(call.kind).mean_latency_ms(call.payload_kb)
                    + crate::services::transfer_time_ms(call.payload_kb, memory, laws));
        }
        duration += stage.sleep_ms;
    }
    duration + 0.7 // mean jitter
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{ServiceCall, Stage};
    use crate::services::ServiceKind;

    fn setup() -> (ScalingLaws, ServiceCatalog, RngStream) {
        (
            ScalingLaws::aws_like(),
            ServiceCatalog::aws_like(),
            RngStream::from_seed(7, "exec-test"),
        )
    }

    /// One warm execution through a plan built for the call.
    fn execute(
        profile: &ResourceProfile,
        memory: MemorySize,
        laws: &ScalingLaws,
        services: &ServiceCatalog,
        rng: &mut RngStream,
    ) -> ExecutionOutcome {
        ExecutionPlan::new(profile, memory, laws, services, &ColdStartModel::aws_like())
            .sample(false, rng)
    }

    fn cpu_profile(ms: f64) -> ResourceProfile {
        ResourceProfile::builder("cpu")
            .stage(Stage::cpu("work", ms))
            .build()
    }

    #[test]
    fn cpu_bound_scales_inverse_linearly_until_one_vcpu() {
        let (laws, svc, _) = setup();
        let p = cpu_profile(200.0);
        let d128 = expected_duration_ms(&p, MemorySize::MB_128, &laws, &svc);
        let d256 = expected_duration_ms(&p, MemorySize::MB_256, &laws, &svc);
        let d1024 = expected_duration_ms(&p, MemorySize::MB_1024, &laws, &svc);
        assert!((d128 / d256 - 2.0).abs() < 0.05, "{d128} vs {d256}");
        assert!(d256 / d1024 > 3.5);
    }

    #[test]
    fn single_threaded_plateaus_past_1792() {
        let (laws, svc, _) = setup();
        let p = cpu_profile(200.0);
        let d2048 = expected_duration_ms(&p, MemorySize::MB_2048, &laws, &svc);
        let d3008 = expected_duration_ms(&p, MemorySize::MB_3008, &laws, &svc);
        assert!((d2048 - d3008).abs() < 1.0, "{d2048} vs {d3008}");
    }

    #[test]
    fn parallel_cpu_keeps_scaling_past_1792() {
        let (laws, svc, _) = setup();
        let p = ResourceProfile::builder("par")
            .stage(Stage::cpu_parallel("zip", 200.0, 2.0))
            .build();
        let d2048 = expected_duration_ms(&p, MemorySize::MB_2048, &laws, &svc);
        let d3008 = expected_duration_ms(&p, MemorySize::MB_3008, &laws, &svc);
        assert!(d3008 < d2048 * 0.8, "{d3008} vs {d2048}");
    }

    #[test]
    fn service_bound_function_is_memory_insensitive() {
        let (laws, svc, _) = setup();
        let p = ResourceProfile::builder("api")
            .stage(Stage::service(
                "call",
                ServiceCall::new(ServiceKind::ExternalApi, 1, 2.0),
            ))
            .build();
        let d128 = expected_duration_ms(&p, MemorySize::MB_128, &laws, &svc);
        let d3008 = expected_duration_ms(&p, MemorySize::MB_3008, &laws, &svc);
        assert!((d128 - d3008) / d128 < 0.05, "{d128} vs {d3008}");
    }

    #[test]
    fn large_service_payloads_transfer_faster_at_bigger_sizes() {
        let (laws, svc, mut rng) = setup();
        let p = ResourceProfile::builder("upload")
            .stage(Stage::service(
                "put",
                ServiceCall::new(ServiceKind::S3, 1, 4096.0),
            ))
            .build();
        let n = 5_000;
        let mut mean_at = |memory| {
            (0..n)
                .map(|_| execute(&p, memory, &laws, &svc, &mut rng).duration_ms)
                .sum::<f64>()
                / n as f64
        };
        let (small, large) = (mean_at(MemorySize::MB_128), mean_at(MemorySize::MB_3008));
        assert!(small > large + 10.0, "{small} vs {large}");
    }

    #[test]
    fn memory_pressure_inflates_small_sizes() {
        let (laws, svc, _) = setup();
        let p = ResourceProfile::builder("hungry")
            .stage(Stage::cpu("work", 100.0).with_working_set(95.0))
            .build();
        // At 128 MB the 95 MB working set is ~83% of usable memory.
        let d128 = expected_duration_ms(&p, MemorySize::MB_128, &laws, &svc);
        let no_pressure = cpu_profile(100.0);
        let base128 = expected_duration_ms(&no_pressure, MemorySize::MB_128, &laws, &svc);
        assert!(d128 > base128 * 1.2, "{d128} vs {base128}");
    }

    #[test]
    fn execute_matches_expected_on_average() {
        let (laws, svc, mut rng) = setup();
        let p = ResourceProfile::builder("mix")
            .stage(Stage::cpu("a", 50.0))
            .stage(Stage::file_io("b", 256.0, 128.0))
            .stage(Stage::service(
                "c",
                ServiceCall::new(ServiceKind::DynamoDb, 3, 4.0),
            ))
            .build();
        let expected = expected_duration_ms(&p, MemorySize::MB_512, &laws, &svc);
        let n = 3000;
        let avg: f64 = (0..n)
            .map(|_| execute(&p, MemorySize::MB_512, &laws, &svc, &mut rng).duration_ms)
            .sum::<f64>()
            / n as f64;
        assert!((avg - expected).abs() / expected < 0.05, "avg={avg} expected={expected}");
    }

    #[test]
    fn cpu_metrics_report_demand_not_wall_time() {
        let (laws, svc, mut rng) = setup();
        let p = cpu_profile(100.0);
        let out = execute(&p, MemorySize::MB_128, &laws, &svc, &mut rng);
        let total_cpu = out.usage.user_cpu_ms + out.usage.sys_cpu_ms;
        // Demand is ~100 ms (plus the ≤18% throttling inflation), nowhere
        // near the 14×-slowed wall time at 128 MB.
        assert!((95.0..125.0).contains(&total_cpu), "cpu={total_cpu}");
        assert!(out.duration_ms > 1000.0);
    }

    #[test]
    fn io_counters_reflect_traffic() {
        let (laws, svc, mut rng) = setup();
        let p = ResourceProfile::builder("io")
            .stage(Stage::file_io("rw", 160.0, 80.0))
            .build();
        let out = execute(&p, MemorySize::MB_256, &laws, &svc, &mut rng);
        assert_eq!(out.usage.fs_read_kb, 160.0);
        assert_eq!(out.usage.fs_write_kb, 80.0);
        assert_eq!(out.usage.fs_reads, 10.0);
        assert_eq!(out.usage.fs_writes, 5.0);
        assert!(out.usage.vol_ctx_switches >= 15.0);
    }

    #[test]
    fn network_counters_include_service_payloads() {
        let (laws, svc, mut rng) = setup();
        let p = ResourceProfile::builder("net")
            .stage(Stage::service(
                "s3",
                ServiceCall::new(ServiceKind::S3, 2, 100.0),
            ))
            .build();
        let out = execute(&p, MemorySize::MB_256, &laws, &svc, &mut rng);
        assert!((out.usage.net_rx_kb - 100.0).abs() < 1e-9);
        assert!((out.usage.net_tx_kb - 100.0).abs() < 1e-9);
        assert!(out.usage.pkts_rx > 60.0);
    }

    #[test]
    fn heap_limit_scales_with_memory() {
        let (laws, svc, mut rng) = setup();
        let p = cpu_profile(10.0);
        let small = execute(&p, MemorySize::MB_128, &laws, &svc, &mut rng);
        let large = execute(&p, MemorySize::MB_3008, &laws, &svc, &mut rng);
        assert!(large.usage.heap_limit_mb > small.usage.heap_limit_mb * 10.0);
        assert!(large.usage.available_heap_mb > small.usage.available_heap_mb);
    }

    #[test]
    fn event_loop_lag_tracks_cpu_blocks() {
        let (laws, svc, mut rng) = setup();
        let cpu_heavy = execute(&cpu_profile(500.0), MemorySize::MB_256, &laws, &svc, &mut rng);
        let idle = execute(
            &ResourceProfile::builder("idle")
                .stage(Stage::sleep("wait", 100.0))
                .build(),
            MemorySize::MB_256,
            &laws,
            &svc,
            &mut rng,
        );
        assert!(cpu_heavy.usage.loop_lag_max_ms > 100.0);
        assert!(idle.usage.loop_lag_max_ms < 1.0);
    }

    #[test]
    fn involuntary_switches_higher_when_throttled() {
        let (laws, svc, mut rng) = setup();
        let p = cpu_profile(200.0);
        let throttled = execute(&p, MemorySize::MB_128, &laws, &svc, &mut rng);
        let unthrottled = execute(&p, MemorySize::MB_2048, &laws, &svc, &mut rng);
        assert!(
            throttled.usage.invol_ctx_switches > 10.0 * unthrottled.usage.invol_ctx_switches
        );
    }

    #[test]
    fn durations_are_noisy_but_positive() {
        let (laws, svc, mut rng) = setup();
        let p = cpu_profile(20.0);
        let d: Vec<f64> = (0..100)
            .map(|_| execute(&p, MemorySize::MB_1024, &laws, &svc, &mut rng).duration_ms)
            .collect();
        assert!(d.iter().all(|&x| x > 0.0));
        let distinct: std::collections::BTreeSet<u64> =
            d.iter().map(|x| x.to_bits()).collect();
        assert!(distinct.len() > 90, "noise should make durations distinct");
    }
    #[test]
    fn plan_splits_at_the_first_stage_with_service_calls() {
        let (laws, svc, _) = setup();
        let p = ResourceProfile::builder("split")
            .stage(Stage::cpu("a", 30.0))
            .stage(Stage::sleep("b", 5.0))
            .stage(Stage::service(
                "c",
                ServiceCall::new(ServiceKind::S3, 2, 8.0),
            ))
            .stage(Stage::cpu("d", 10.0))
            .stage(Stage::service(
                "e",
                ServiceCall::new(ServiceKind::DynamoDb, 1, 1.0),
            ))
            .build();
        let plan = ExecutionPlan::new(
            &p,
            MemorySize::MB_512,
            &laws,
            &svc,
            &ColdStartModel::aws_like(),
        );
        assert_eq!(
            plan.tail.len(),
            3,
            "stages c, d and e follow the first call"
        );
        assert_eq!(plan.calls.len(), 2);
        assert_eq!(
            plan.tail.iter().map(|t| t.calls_end).collect::<Vec<_>>(),
            vec![1, 1, 2]
        );
        assert!(plan.head_ms > 5.0);
        assert!(!plan.lag_fallback);

        let no_calls = ExecutionPlan::new(
            &cpu_profile(20.0),
            MemorySize::MB_512,
            &laws,
            &svc,
            &ColdStartModel::aws_like(),
        );
        assert!(no_calls.tail.is_empty() && no_calls.calls.is_empty());
    }

    #[test]
    fn warm_samples_draw_only_noise_and_jitter() {
        let (laws, svc, _) = setup();
        let plan = ExecutionPlan::new(
            &cpu_profile(20.0),
            MemorySize::MB_512,
            &laws,
            &svc,
            &ColdStartModel::aws_like(),
        );
        let mut sampled = RngStream::from_seed(9, "plan-draws");
        let mut counted = sampled.clone();
        let out = plan.sample(false, &mut sampled);
        // One normal (two uniforms) for the noise, one uniform of jitter.
        for _ in 0..3 {
            counted.next_f64();
        }
        assert_eq!(sampled.next_f64().to_bits(), counted.next_f64().to_bits());
        assert_eq!(out.usage.duration_ms, out.duration_ms);
        assert!(!out.cold_start && out.init_ms == 0.0);
    }
}
