//! Resource-scaling laws: how CPU, I/O, and network capacity grow with the
//! configured memory size.
//!
//! These laws encode the published behaviour of AWS Lambda:
//!
//! * **CPU** — the CPU share grows linearly with memory; a function receives
//!   one full vCPU at 1792 MB and up to ~1.68 vCPU at 3008 MB. A
//!   single-threaded stage therefore stops speeding up past 1792 MB, while a
//!   parallel stage (Node.js libuv pool: crypto, zlib, image codecs) keeps
//!   scaling — this is what makes the paper's `PrimeNumbers` function scale
//!   super-linearly while `InvertMatrix` scales linearly and then plateaus.
//! * **I/O and network bandwidth** — grow with memory but saturate (Wang et
//!   al., ATC'18 measured exactly this), so network-bound functions like the
//!   paper's `API-Call` barely benefit from larger sizes.

use crate::memory::MemorySize;
use serde::{Deserialize, Serialize};

/// Memory at which a function receives exactly one vCPU, in MB (AWS value).
pub const FULL_VCPU_MB: f64 = 1792.0;

/// The scaling laws of the simulated platform.
///
/// The defaults model AWS Lambda circa 2020; tests and ablation benches can
/// construct variants (e.g. a provider whose CPU scales with a cap) to check
/// the approach is not AWS-specific.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingLaws {
    /// MB per full vCPU (1792 for AWS).
    pub mb_per_vcpu: f64,
    /// Maximum I/O bandwidth in MB/s reached at full saturation.
    pub io_bw_cap_mbps: f64,
    /// Memory size (MB) at which I/O bandwidth reaches half its cap.
    pub io_half_sat_mb: f64,
    /// Maximum network bandwidth in MB/s.
    pub net_bw_cap_mbps: f64,
    /// Memory size (MB) at which network bandwidth reaches half its cap.
    pub net_half_sat_mb: f64,
    /// Fraction of configured memory usable by the guest before memory
    /// pressure sets in (the runtime itself consumes the rest).
    pub usable_memory_fraction: f64,
}

impl ScalingLaws {
    /// AWS-Lambda-like defaults.
    ///
    /// I/O: ~80 MB/s at 128 MB rising towards ~550 MB/s; network: ~25 MB/s at
    /// 128 MB towards ~600 MB/s with later saturation, consistent with the
    /// measurements in Wang et al. (ATC'18).
    pub fn aws_like() -> Self {
        ScalingLaws {
            mb_per_vcpu: FULL_VCPU_MB,
            io_bw_cap_mbps: 550.0,
            io_half_sat_mb: 700.0,
            net_bw_cap_mbps: 600.0,
            net_half_sat_mb: 2900.0,
            usable_memory_fraction: 0.9,
        }
    }

    /// The fractional vCPU share allocated at memory size `m`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sizeless_platform::scaling::ScalingLaws;
    /// use sizeless_platform::MemorySize;
    ///
    /// let laws = ScalingLaws::aws_like();
    /// assert!((laws.cpu_share(MemorySize::new(1792)?) - 1.0).abs() < 1e-12);
    /// assert!(laws.cpu_share(MemorySize::MB_128) < 0.1);
    /// # Ok::<(), sizeless_platform::PlatformError>(())
    /// ```
    pub fn cpu_share(&self, m: MemorySize) -> f64 {
        m.mb() as f64 / self.mb_per_vcpu
    }

    /// Effective speedup factor for a stage with intrinsic `parallelism`
    /// (1.0 = strictly single-threaded) at memory size `m`.
    ///
    /// A stage can never run faster than its parallelism allows, and never
    /// faster than the allocated share permits.
    pub fn cpu_speed(&self, m: MemorySize, parallelism: f64) -> f64 {
        debug_assert!(parallelism >= 1.0, "parallelism below 1 is meaningless");
        self.cpu_share(m).min(parallelism)
    }

    /// File-system I/O bandwidth in MB/s at memory size `m`
    /// (Michaelis–Menten-style saturation).
    pub fn io_bandwidth_mbps(&self, m: MemorySize) -> f64 {
        let mb = m.mb() as f64;
        self.io_bw_cap_mbps * mb / (mb + self.io_half_sat_mb)
    }

    /// Network bandwidth in MB/s at memory size `m`.
    pub fn net_bandwidth_mbps(&self, m: MemorySize) -> f64 {
        let mb = m.mb() as f64;
        self.net_bw_cap_mbps * mb / (mb + self.net_half_sat_mb)
    }

    /// CPU-demand inflation caused by CFS throttling when the allocated
    /// share is below the stage's exploitable parallelism.
    ///
    /// Throttled processes suffer cache eviction and scheduler overhead, so
    /// the same logical work consumes *more* CPU at small sizes. This is the
    /// mechanism behind the paper's observation that `PrimeNumbers` scales
    /// **super-linearly**: going from 128 MB to 2048 MB buys more than the
    /// 16× share increase, making the bigger size simultaneously faster and
    /// cheaper.
    pub fn throttle_penalty(&self, m: MemorySize, parallelism: f64) -> f64 {
        let share = self.cpu_share(m);
        if share >= parallelism {
            1.0
        } else {
            1.0 + 0.18 * (1.0 - share / parallelism)
        }
    }

    /// Memory usable by the function's working set at size `m`, in MB.
    pub fn usable_memory_mb(&self, m: MemorySize) -> f64 {
        m.mb() as f64 * self.usable_memory_fraction
    }

    /// Memory-pressure slowdown factor for a working set of `ws_mb` MB at
    /// size `m`: 1.0 while comfortably below the usable memory, rising
    /// steeply as the working set approaches it (GC thrash / swap behaviour).
    ///
    /// This reproduces the paper's partial-dependence finding that high
    /// *heap used* predicts larger speedups from added memory.
    pub fn memory_pressure_factor(&self, m: MemorySize, ws_mb: f64) -> f64 {
        let usable = self.usable_memory_mb(m);
        let occupancy = ws_mb / usable;
        if occupancy <= 0.6 {
            1.0
        } else {
            // Quadratic ramp: 1.0 at 60% occupancy, ~2.6 at 100%.
            1.0 + 10.0 * (occupancy - 0.6) * (occupancy - 0.6)
        }
    }
}

impl Default for ScalingLaws {
    fn default() -> Self {
        Self::aws_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laws() -> ScalingLaws {
        ScalingLaws::aws_like()
    }

    #[test]
    fn cpu_share_linear_in_memory() {
        let l = laws();
        let s128 = l.cpu_share(MemorySize::MB_128);
        let s256 = l.cpu_share(MemorySize::MB_256);
        assert!((s256 / s128 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn one_vcpu_at_1792() {
        let l = laws();
        let m = MemorySize::new(1792).unwrap();
        assert!((l.cpu_share(m) - 1.0).abs() < 1e-12);
        assert!(l.cpu_share(MemorySize::MB_3008) > 1.5);
    }

    #[test]
    fn single_threaded_speed_plateaus_past_one_vcpu() {
        let l = laws();
        let at_2048 = l.cpu_speed(MemorySize::MB_2048, 1.0);
        let at_3008 = l.cpu_speed(MemorySize::MB_3008, 1.0);
        assert_eq!(at_2048, 1.0);
        assert_eq!(at_3008, 1.0);
    }

    #[test]
    fn parallel_stage_keeps_scaling() {
        let l = laws();
        let at_2048 = l.cpu_speed(MemorySize::MB_2048, 2.0);
        let at_3008 = l.cpu_speed(MemorySize::MB_3008, 2.0);
        assert!(at_3008 > at_2048);
    }

    #[test]
    fn io_bandwidth_monotone_and_saturating() {
        let l = laws();
        let mut prev = 0.0;
        for m in MemorySize::STANDARD {
            let bw = l.io_bandwidth_mbps(m);
            assert!(bw > prev);
            assert!(bw < l.io_bw_cap_mbps);
            prev = bw;
        }
        // Relative growth shrinks: saturation.
        let g1 = l.io_bandwidth_mbps(MemorySize::MB_256) / l.io_bandwidth_mbps(MemorySize::MB_128);
        let g2 =
            l.io_bandwidth_mbps(MemorySize::MB_3008) / l.io_bandwidth_mbps(MemorySize::MB_2048);
        assert!(g1 > g2);
    }

    #[test]
    fn net_bandwidth_monotone() {
        let l = laws();
        assert!(
            l.net_bandwidth_mbps(MemorySize::MB_3008) > l.net_bandwidth_mbps(MemorySize::MB_128)
        );
    }

    #[test]
    fn throttle_penalty_shrinks_with_memory() {
        let l = laws();
        let p128 = l.throttle_penalty(MemorySize::MB_128, 2.0);
        let p2048 = l.throttle_penalty(MemorySize::MB_2048, 2.0);
        assert!(p128 > p2048);
        assert!(p128 <= 1.18);
        // No penalty once the share covers the parallelism.
        assert_eq!(l.throttle_penalty(MemorySize::MB_2048, 1.0), 1.0);
    }

    #[test]
    fn throttle_penalty_makes_parallel_scaling_super_linear() {
        // Wall time ∝ penalty/share, so cost ∝ penalty·memory/share·const:
        // the penalty drop makes 2048 MB cheaper than 128 MB for parallel
        // work even though share scales exactly linearly.
        let l = laws();
        let cost_like = |m: MemorySize| {
            l.throttle_penalty(m, 2.2) / l.cpu_speed(m, 2.2) * m.mb() as f64
        };
        assert!(cost_like(MemorySize::MB_2048) < cost_like(MemorySize::MB_128));
    }

    #[test]
    fn memory_pressure_kicks_in_near_capacity() {
        let l = laws();
        let m = MemorySize::MB_128;
        assert_eq!(l.memory_pressure_factor(m, 10.0), 1.0);
        let near_full = l.usable_memory_mb(m) * 0.95;
        assert!(l.memory_pressure_factor(m, near_full) > 1.5);
        // Same working set at a larger size: no pressure.
        assert_eq!(l.memory_pressure_factor(MemorySize::MB_1024, near_full), 1.0);
    }

    #[test]
    fn pressure_is_monotone_in_working_set() {
        let l = laws();
        let m = MemorySize::MB_256;
        let mut prev = 0.0;
        for i in 1..=20 {
            let ws = i as f64 * 12.0;
            let p = l.memory_pressure_factor(m, ws);
            assert!(p >= prev);
            prev = p;
        }
    }
}
