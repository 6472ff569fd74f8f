//! The measurement harness: one performance test of one function at one
//! memory size.
//!
//! Mirrors the paper's setup: an open-loop load driver fires invocations at
//! the deployed function for a fixed duration; every invocation runs through
//! the resource monitor, and the samples land in a metric store. Cold starts
//! are decided by a per-function warm pool exactly as on Lambda.

use crate::arrival::ArrivalProcess;
use serde::{Deserialize, Serialize};
use sizeless_engine::RngStream;
use sizeless_platform::pool::WarmPool;
use sizeless_platform::{MemorySize, Platform, ResourceProfile};
use sizeless_telemetry::{MetricStore, MetricVector, ResourceMonitor};

/// Configuration of one performance experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Experiment duration, ms (paper: 10 minutes).
    pub duration_ms: f64,
    /// Mean request rate (paper: 30 rps, Poisson).
    pub rps: f64,
    /// Master seed; combined with the function name and memory size so each
    /// experiment draws from an independent stream.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's dataset-generation workload: 10 min at 30 rps.
    pub fn paper() -> Self {
        ExperimentConfig {
            duration_ms: 600_000.0,
            rps: 30.0,
            seed: 0,
        }
    }

    /// A shortened variant for tests and quick examples.
    pub fn quick() -> Self {
        ExperimentConfig {
            duration_ms: 20_000.0,
            rps: 10.0,
            seed: 0,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(self, seed: u64) -> Self {
        ExperimentConfig { seed, ..self }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Aggregate facts about one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasurementSummary {
    /// Function name.
    pub function: String,
    /// Memory size measured.
    pub memory: MemorySize,
    /// Number of invocations.
    pub invocations: usize,
    /// Number of cold starts among them.
    pub cold_starts: usize,
    /// Mean inner execution time, ms.
    pub mean_execution_ms: f64,
    /// Total cost of the experiment, USD.
    pub total_cost_usd: f64,
    /// Mean cost per invocation, USD.
    pub mean_cost_usd: f64,
}

/// The result of one experiment: raw samples plus aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Per-invocation monitoring samples.
    pub store: MetricStore,
    /// Aggregated metric vector (means/stds/cvs of all 25 metrics).
    pub metrics: MetricVector,
    /// Experiment summary.
    pub summary: MeasurementSummary,
}

/// Runs one performance test of `profile` at `memory`. The (profile, size)
/// is planned once ([`Platform::plan`]); each invocation only draws its
/// noise.
///
/// # Panics
///
/// Panics if the workload produces no invocations (duration or rate too
/// small) — aggregates would be undefined.
pub fn run_experiment(
    platform: &Platform,
    profile: &ResourceProfile,
    memory: MemorySize,
    cfg: &ExperimentConfig,
) -> Measurement {
    let stream_label = format!("exp/{}/{}", profile.name(), memory);
    let rng = RngStream::from_seed(cfg.seed, &stream_label);
    let mut arrival_rng = rng.derive("arrivals");
    let mut exec_rng = rng.derive("executions");
    let mut monitor_rng = rng.derive("monitor");

    let arrivals = ArrivalProcess::poisson(cfg.rps).arrivals_ms(cfg.duration_ms, &mut arrival_rng);
    assert!(
        !arrivals.is_empty(),
        "experiment produced no invocations — increase duration or rate"
    );

    let monitor = ResourceMonitor::new();
    let plan = platform.plan(profile, memory);
    let mut pool = WarmPool::new(platform.cold_start_model().idle_ttl_ms);
    let mut store = MetricStore::new();

    let mut cold_starts = 0usize;
    let mut total_cost = 0.0;
    let mut total_exec = 0.0;

    for &at in &arrivals {
        let (instance, cold) = pool.begin(at);
        let record = platform.invoke_planned(&plan, cold, &mut exec_rng);
        if cold {
            cold_starts += 1;
        }
        let finish = at + record.init_ms + record.duration_ms + monitor.overhead_ms;
        pool.complete(instance, finish);
        total_cost += record.cost_usd;
        total_exec += record.duration_ms;
        store.record(monitor.observe(at, &record.usage, &mut monitor_rng));
    }

    let metrics = MetricVector::from_store(&store);
    let n = arrivals.len();
    let summary = MeasurementSummary {
        function: profile.name().to_string(),
        memory,
        invocations: n,
        cold_starts,
        mean_execution_ms: total_exec / n as f64,
        total_cost_usd: total_cost,
        mean_cost_usd: total_cost / n as f64,
    };
    Measurement {
        store,
        metrics,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizeless_platform::Stage;
    use sizeless_telemetry::Metric;

    fn profile() -> ResourceProfile {
        ResourceProfile::builder("bench-fn")
            .stage(Stage::cpu("work", 20.0))
            .build()
    }

    fn quick() -> ExperimentConfig {
        ExperimentConfig::quick().with_seed(42)
    }

    #[test]
    fn experiment_produces_expected_invocation_count() {
        let m = run_experiment(&Platform::aws_like(), &profile(), MemorySize::MB_512, &quick());
        // 20 s at 10 rps ≈ 200 invocations.
        assert!((150..=260).contains(&m.summary.invocations), "{}", m.summary.invocations);
        assert_eq!(m.store.len(), m.summary.invocations);
    }

    #[test]
    fn summary_consistent_with_store() {
        let m = run_experiment(&Platform::aws_like(), &profile(), MemorySize::MB_512, &quick());
        let stored_mean = m.metrics.mean(Metric::ExecutionTime);
        assert!((stored_mean - m.summary.mean_execution_ms).abs() < 1e-9);
        assert!(m.summary.total_cost_usd > 0.0);
        assert!(
            (m.summary.mean_cost_usd * m.summary.invocations as f64
                - m.summary.total_cost_usd)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn low_concurrency_workload_mostly_warm() {
        let m = run_experiment(&Platform::aws_like(), &profile(), MemorySize::MB_1024, &quick());
        // 20 ms work at 10 rps: a handful of instances, rest warm hits.
        assert!(m.summary.cold_starts < m.summary.invocations / 10);
        assert!(m.summary.cold_starts >= 1);
    }

    #[test]
    fn slow_function_scales_out_more() {
        let slow = ResourceProfile::builder("slow-fn")
            .stage(Stage::cpu("work", 400.0))
            .build();
        let fast_m =
            run_experiment(&Platform::aws_like(), &profile(), MemorySize::MB_512, &quick());
        let slow_m = run_experiment(&Platform::aws_like(), &slow, MemorySize::MB_512, &quick());
        assert!(slow_m.summary.cold_starts > fast_m.summary.cold_starts);
    }

    #[test]
    fn experiments_are_deterministic() {
        let a = run_experiment(&Platform::aws_like(), &profile(), MemorySize::MB_512, &quick());
        let b = run_experiment(&Platform::aws_like(), &profile(), MemorySize::MB_512, &quick());
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.store, b.store);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_experiment(&Platform::aws_like(), &profile(), MemorySize::MB_512, &quick());
        let b = run_experiment(
            &Platform::aws_like(),
            &profile(),
            MemorySize::MB_512,
            &quick().with_seed(43),
        );
        assert_ne!(a.summary.mean_execution_ms, b.summary.mean_execution_ms);
    }

    #[test]
    fn bigger_memory_is_faster_for_cpu_bound() {
        let small =
            run_experiment(&Platform::aws_like(), &profile(), MemorySize::MB_128, &quick());
        let large =
            run_experiment(&Platform::aws_like(), &profile(), MemorySize::MB_1024, &quick());
        assert!(small.summary.mean_execution_ms > 2.0 * large.summary.mean_execution_ms);
    }
}
