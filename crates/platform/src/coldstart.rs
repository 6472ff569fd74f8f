//! Cold-start (initialization) latency model.
//!
//! A cold start pays for: sandbox provisioning, deployment-package load
//! (scales with package size and the memory-scaled I/O bandwidth), runtime
//! boot, and the function's own module-initialization CPU (scaled by the
//! memory-dependent CPU speed). Wang et al. (ATC'18) observed cold-start
//! times shrinking with memory size — this model reproduces that.

use crate::memory::MemorySize;
use crate::resource::ResourceProfile;
use crate::scaling::ScalingLaws;
use serde::{Deserialize, Serialize};
use sizeless_engine::dist::LogNormal;
use sizeless_engine::RngStream;

/// Parameters of the cold-start model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ColdStartModel {
    /// Median sandbox provisioning time, ms.
    pub provision_ms: f64,
    /// Median runtime (Node.js) boot time, ms.
    pub runtime_boot_ms: f64,
    /// Lognormal shape of the fixed components.
    pub sigma: f64,
    /// Idle time after which a warm instance is reclaimed, ms.
    pub idle_ttl_ms: f64,
}

impl ColdStartModel {
    /// AWS-like defaults (sub-second cold starts for Node.js, ~10 minute
    /// idle reclamation).
    pub fn aws_like() -> Self {
        ColdStartModel {
            provision_ms: 140.0,
            runtime_boot_ms: 95.0,
            sigma: 0.25,
            idle_ttl_ms: 10.0 * 60.0 * 1000.0,
        }
    }

    /// Works out the parts of a cold start of `profile` at `memory` that
    /// no draw changes.
    pub(crate) fn plan(
        &self,
        profile: &ResourceProfile,
        memory: MemorySize,
        laws: &ScalingLaws,
    ) -> ColdStartPlan {
        ColdStartPlan {
            fixed: LogNormal::with_mean(self.provision_ms + self.runtime_boot_ms, self.sigma)
                // lint: allow(panic002) reason="mean and sigma are fixed positive model constants, so the distribution is valid"
                .expect("validated parameters"),
            load_ms: profile.package_size_mb() / laws.io_bandwidth_mbps(memory) * 1000.0,
            init_cpu_ms: profile.init_cpu_ms() / laws.cpu_speed(memory, 1.0),
        }
    }

    /// Samples the initialization duration for a profile at a memory size
    /// (works out the cold start's fixed parts per call; an
    /// [`ExecutionPlan`](crate::ExecutionPlan) holds them once).
    pub fn sample_init_ms(
        &self,
        profile: &ResourceProfile,
        memory: MemorySize,
        laws: &ScalingLaws,
        rng: &mut RngStream,
    ) -> f64 {
        self.plan(profile, memory, laws).sample(rng)
    }

    /// The expected initialization duration (noise-free).
    pub fn expected_init_ms(
        &self,
        profile: &ResourceProfile,
        memory: MemorySize,
        laws: &ScalingLaws,
    ) -> f64 {
        self.provision_ms
            + self.runtime_boot_ms
            + profile.package_size_mb() / laws.io_bandwidth_mbps(memory) * 1000.0
            + profile.init_cpu_ms() / laws.cpu_speed(memory, 1.0)
    }
}

/// A cold start of one profile at one memory size with everything but the
/// draw worked out: [`ColdStartModel::plan`] builds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ColdStartPlan {
    /// Sandbox provisioning plus runtime boot, the one random component.
    fixed: LogNormal,
    /// Deployment-package load at the memory-scaled I/O bandwidth, ms.
    load_ms: f64,
    /// Module-initialization CPU at the memory-scaled CPU speed, ms.
    init_cpu_ms: f64,
}

impl ColdStartPlan {
    /// Samples one initialization duration, ms: a single lognormal draw.
    pub(crate) fn sample(&self, rng: &mut RngStream) -> f64 {
        self.fixed.sample(rng) + self.load_ms + self.init_cpu_ms
    }
}

impl Default for ColdStartModel {
    fn default() -> Self {
        Self::aws_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::Stage;

    fn profile() -> ResourceProfile {
        ResourceProfile::builder("f")
            .stage(Stage::cpu("w", 10.0))
            .init_cpu_ms(120.0)
            .package_size_mb(8.0)
            .build()
    }

    #[test]
    fn cold_starts_shrink_with_memory() {
        let m = ColdStartModel::aws_like();
        let laws = ScalingLaws::aws_like();
        let p = profile();
        let small = m.expected_init_ms(&p, MemorySize::MB_128, &laws);
        let large = m.expected_init_ms(&p, MemorySize::MB_2048, &laws);
        assert!(small > large + 100.0, "{small} vs {large}");
    }

    #[test]
    fn sampled_init_is_near_expected() {
        let m = ColdStartModel::aws_like();
        let laws = ScalingLaws::aws_like();
        let p = profile();
        let mut rng = RngStream::from_seed(4, "cold");
        let n = 20_000;
        let avg: f64 = (0..n)
            .map(|_| m.sample_init_ms(&p, MemorySize::MB_512, &laws, &mut rng))
            .sum::<f64>()
            / n as f64;
        let expected = m.expected_init_ms(&p, MemorySize::MB_512, &laws);
        assert!((avg - expected).abs() / expected < 0.03, "avg={avg} exp={expected}");
    }

    #[test]
    fn bigger_packages_start_slower() {
        let m = ColdStartModel::aws_like();
        let laws = ScalingLaws::aws_like();
        let small_pkg = profile();
        let big_pkg = ResourceProfile::builder("g")
            .init_cpu_ms(120.0)
            .package_size_mb(50.0)
            .build();
        assert!(
            m.expected_init_ms(&big_pkg, MemorySize::MB_512, &laws)
                > m.expected_init_ms(&small_pkg, MemorySize::MB_512, &laws)
        );
    }

    #[test]
    fn idle_ttl_default_is_ten_minutes() {
        assert_eq!(ColdStartModel::aws_like().idle_ttl_ms, 600_000.0);
    }
}
