//! Baseline memory-size optimizers from the paper's related work.
//!
//! All prior approaches "combine sparse measurements with interpolation /
//! modeling" and **require measuring multiple sizes** — the cost Sizeless
//! avoids. Two representatives are implemented for head-to-head comparison:
//!
//! * [`PowerTuning`] — the AWS Lambda Power Tuning tool (Casalboni): run a
//!   dedicated performance test at *every* candidate size and pick the best.
//!   Maximal measurement cost, exact answer.
//! * [`CoseOptimizer`] — a COSE-style sequential model-based optimizer
//!   (Akhtar et al., INFOCOM'20): measure a few sizes, fit a parametric
//!   latency model `t(m) = a / m + c` (CPU share ∝ memory + a floor),
//!   choose the next measurement where the model is least certain, stop
//!   after a measurement budget, and recommend from the fitted model.
//!
//! The comparison axis is **measurement cost** (number of dedicated
//! performance tests) versus **recommendation quality** — Sizeless needs
//! zero dedicated tests (it reuses production monitoring at one size).

use crate::optimizer::{MemoryOptimizer, OptimizationOutcome};
use serde::{Deserialize, Serialize};
use sizeless_engine::RngStream;
use sizeless_platform::{MemorySize, Platform, ResourceProfile};
use sizeless_workload::{measure_standard_sizes, run_experiment, ExperimentConfig};
use std::collections::BTreeMap;

/// The outcome of a baseline optimization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineOutcome {
    /// The recommended size.
    pub chosen: MemorySize,
    /// Number of dedicated performance tests the approach required.
    pub measurements: usize,
    /// The (measured or modeled) execution times used for the decision.
    pub times_ms: BTreeMap<MemorySize, f64>,
    /// The optimizer scoring.
    pub outcome: OptimizationOutcome,
}

/// AWS Lambda Power Tuning: exhaustive measurement of every candidate size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerTuning {
    /// Workload of each dedicated performance test.
    pub test: ExperimentConfig,
}

impl PowerTuning {
    /// Creates the exhaustive baseline with the given per-size test.
    pub fn new(test: ExperimentConfig) -> Self {
        PowerTuning { test }
    }

    /// Runs one performance test per standard size ([`measure_standard_sizes`]
    /// on one worker) and optimizes over the measured means.
    pub fn optimize(
        &self,
        platform: &Platform,
        profile: &ResourceProfile,
        optimizer: &MemoryOptimizer,
    ) -> BaselineOutcome {
        let times_ms = measure_standard_sizes(platform, &[profile], &[self.test], 1)
            .remove(0)
            .times_map();
        let outcome = optimizer.optimize_times(&times_ms);
        BaselineOutcome {
            chosen: outcome.chosen,
            measurements: MemorySize::STANDARD.len(),
            times_ms,
            outcome,
        }
    }
}

/// A COSE-style sequential optimizer with a parametric latency model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoseOptimizer {
    /// Workload of each dedicated performance test.
    pub test: ExperimentConfig,
    /// Total measurement budget (≥ 2; COSE's value proposition is < 6).
    pub budget: usize,
}

impl CoseOptimizer {
    /// Creates the sequential baseline.
    ///
    /// # Panics
    ///
    /// Panics if `budget < 2` (the parametric model has two parameters).
    pub fn new(test: ExperimentConfig, budget: usize) -> Self {
        assert!(budget >= 2, "the latency model needs at least two points");
        CoseOptimizer { test, budget }
    }

    /// Fits `t(m) = a/m + c` by least squares over measured points.
    fn fit(points: &BTreeMap<MemorySize, f64>) -> (f64, f64) {
        // Linear regression of t against x = 1/m.
        let n = points.len() as f64;
        let xs: Vec<f64> = points.keys().map(|m| 1.0 / m.mb() as f64).collect();
        let ys: Vec<f64> = points.values().copied().collect();
        let mean_x = xs.iter().sum::<f64>() / n;
        let mean_y = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - mean_x) * (y - mean_y))
            .sum();
        let var: f64 = xs.iter().map(|x| (x - mean_x) * (x - mean_x)).sum();
        let a = if var > 0.0 { cov / var } else { 0.0 };
        let c = mean_y - a * mean_x;
        (a.max(0.0), c.max(0.0))
    }

    /// Runs the sequential measure-fit-explore loop and recommends from the
    /// fitted model.
    pub fn optimize(
        &self,
        platform: &Platform,
        profile: &ResourceProfile,
        optimizer: &MemoryOptimizer,
        rng: &mut RngStream,
    ) -> BaselineOutcome {
        let mut measured: BTreeMap<MemorySize, f64> = BTreeMap::new();
        // Start with the extremes: they pin down both parameters.
        let mut next = vec![MemorySize::MB_128, MemorySize::MB_3008];

        for step in 0..self.budget {
            let m = match next.pop() {
                Some(m) => m,
                None => {
                    // Explore where the fitted model disagrees most with a
                    // straight line between neighbours — approximated by
                    // picking the largest unmeasured gap (COSE uses the
                    // posterior variance of its Bayesian model here).
                    let candidates: Vec<MemorySize> = MemorySize::STANDARD
                        .iter()
                        .copied()
                        .filter(|m| !measured.contains_key(m))
                        .collect();
                    if candidates.is_empty() {
                        break;
                    }
                    *rng.choose(&candidates)
                }
            };
            if measured.contains_key(&m) {
                continue;
            }
            let test = self.test.with_seed(self.test.seed.wrapping_add(step as u64));
            let result = run_experiment(platform, profile, m, &test);
            measured.insert(m, result.summary.mean_execution_ms);
        }

        let (a, c) = Self::fit(&measured);
        let times_ms: BTreeMap<MemorySize, f64> = MemorySize::STANDARD
            .iter()
            .map(|&m| {
                let modeled = a / m.mb() as f64 + c;
                // Measured points override the model.
                (m, measured.get(&m).copied().unwrap_or(modeled.max(0.1)))
            })
            .collect();
        let outcome = optimizer.optimize_times(&times_ms);
        BaselineOutcome {
            chosen: outcome.chosen,
            measurements: measured.len(),
            times_ms,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Tradeoff;
    use sizeless_platform::{PricingModel, ServiceCall, ServiceKind, Stage};

    fn quick_test() -> ExperimentConfig {
        ExperimentConfig {
            duration_ms: 4_000.0,
            rps: 15.0,
            seed: 11,
        }
    }

    fn optimizer() -> MemoryOptimizer {
        MemoryOptimizer::new(PricingModel::aws(), Tradeoff::COST_LEANING)
    }

    fn cpu_profile() -> ResourceProfile {
        ResourceProfile::builder("baseline-cpu")
            .stage(Stage::cpu("w", 150.0))
            .build()
    }

    fn flat_profile() -> ResourceProfile {
        ResourceProfile::builder("baseline-flat")
            .stage(Stage::service(
                "api",
                ServiceCall::new(ServiceKind::ExternalApi, 1, 2.0),
            ))
            .build()
    }

    #[test]
    fn power_tuning_measures_every_size_and_finds_the_optimum() {
        let platform = Platform::aws_like();
        let out = PowerTuning::new(quick_test()).optimize(&platform, &cpu_profile(), &optimizer());
        assert_eq!(out.measurements, 6);
        assert_eq!(out.times_ms.len(), 6);
        // For a pure CPU function the cost-leaning optimum is a large size
        // (halving time at doubling rate is cost-neutral, throttling makes
        // big sizes slightly cheaper).
        assert!(out.chosen >= MemorySize::MB_1024, "{}", out.chosen);
    }

    #[test]
    fn cose_uses_fewer_measurements() {
        let platform = Platform::aws_like();
        let mut rng = RngStream::from_seed(1, "cose");
        let out = CoseOptimizer::new(quick_test(), 3).optimize(
            &platform,
            &cpu_profile(),
            &optimizer(),
            &mut rng,
        );
        assert!(out.measurements <= 3);
        // The 1/m model is exact for CPU-bound functions below the vCPU
        // plateau, so COSE should land within one rank of power tuning.
        let truth = PowerTuning::new(quick_test()).optimize(&platform, &cpu_profile(), &optimizer());
        let rank = truth.outcome.rank_of(out.chosen);
        assert!(rank <= 1, "COSE rank {rank}");
    }

    #[test]
    fn cose_handles_flat_functions() {
        let platform = Platform::aws_like();
        let mut rng = RngStream::from_seed(2, "cose-flat");
        let out = CoseOptimizer::new(quick_test(), 3).optimize(
            &platform,
            &flat_profile(),
            &optimizer(),
            &mut rng,
        );
        // Flat latency → a ≈ 0 → smallest size wins on cost.
        assert!(out.chosen <= MemorySize::MB_256, "{}", out.chosen);
    }

    #[test]
    fn fit_recovers_inverse_law() {
        let mut points = BTreeMap::new();
        for &m in &[MemorySize::MB_128, MemorySize::MB_512, MemorySize::MB_3008] {
            points.insert(m, 10_000.0 / m.mb() as f64 + 25.0);
        }
        let (a, c) = CoseOptimizer::fit(&points);
        assert!((a - 10_000.0).abs() < 1.0, "a={a}");
        assert!((c - 25.0).abs() < 0.1, "c={c}");
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn budget_of_one_panics() {
        let _ = CoseOptimizer::new(quick_test(), 1);
    }
}
