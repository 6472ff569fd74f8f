//! Case-study measurement campaigns.
//!
//! The paper measures every case-study function at all six memory sizes
//! with **ten repetitions** to account for cloud performance variability.
//! [`measure_app`] reproduces that: per (function, size) it runs the
//! repetitions, averages the summaries, and pools all invocation samples
//! into one [`MetricVector`] per size (the model input).

use crate::CaseStudyApp;
use serde::{Deserialize, Serialize};
use sizeless_engine::parallel_map;
use sizeless_platform::{MemorySize, Platform, ResourceProfile};
use sizeless_telemetry::MetricVector;
use sizeless_workload::{run_experiment, ExperimentConfig, Measurement};

/// How to measure an application.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasurementPlan {
    /// Request rate per function, rps.
    pub rps: f64,
    /// Duration per repetition, ms.
    pub duration_ms: f64,
    /// Measurement repetitions (paper: 10).
    pub repetitions: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl MeasurementPlan {
    /// The paper's plan for an application (its workload × 10 repetitions).
    pub fn paper(app: CaseStudyApp) -> Self {
        let (rps, duration_ms) = app.workload();
        MeasurementPlan {
            rps,
            duration_ms,
            repetitions: 10,
            seed: 0,
            threads: 8,
        }
    }

    /// A scaled-down plan that keeps the app's workload *shape* but shrinks
    /// duration and repetitions by `factor` (≥ 1).
    pub fn scaled(app: CaseStudyApp, factor: f64) -> Self {
        assert!(factor >= 1.0, "factor must be at least 1");
        let paper = Self::paper(app);
        MeasurementPlan {
            duration_ms: (paper.duration_ms / factor).max(2_000.0),
            repetitions: ((paper.repetitions as f64 / factor).ceil() as usize).max(2),
            rps: paper.rps.min(40.0),
            ..paper
        }
    }

    /// A tiny plan for unit tests.
    pub fn quick() -> Self {
        MeasurementPlan {
            rps: 12.0,
            duration_ms: 3_000.0,
            repetitions: 2,
            seed: 0,
            threads: 4,
        }
    }
}

/// Measurements of one function across all six sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionMeasurement {
    /// Function name.
    pub name: String,
    /// Pooled metric vector per standard size.
    pub metrics: Vec<MetricVector>,
    /// Mean execution time per standard size (averaged over repetitions), ms.
    pub mean_execution_ms: Vec<f64>,
    /// Mean cost per invocation per standard size, USD.
    pub mean_cost_usd: Vec<f64>,
}

impl FunctionMeasurement {
    /// Pooled metric vector at a standard size.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a standard size.
    pub fn metrics_at(&self, m: MemorySize) -> &MetricVector {
        // lint: allow(panic002) reason="documented # Panics contract: m must be one of the six standard sizes"
        &self.metrics[m.standard_index().expect("standard size")]
    }

    /// Mean execution time at a standard size, ms.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a standard size.
    pub fn execution_ms_at(&self, m: MemorySize) -> f64 {
        // lint: allow(panic002) reason="documented # Panics contract: m must be one of the six standard sizes"
        self.mean_execution_ms[m.standard_index().expect("standard size")]
    }

    /// Mean cost per invocation at a standard size, USD.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a standard size.
    pub fn cost_usd_at(&self, m: MemorySize) -> f64 {
        // lint: allow(panic002) reason="documented # Panics contract: m must be one of the six standard sizes"
        self.mean_cost_usd[m.standard_index().expect("standard size")]
    }

    /// The measured-optimal ("ground truth") times as a size→ms map.
    pub fn times_map(&self) -> std::collections::BTreeMap<MemorySize, f64> {
        MemorySize::STANDARD
            .iter()
            .map(|&m| (m, self.execution_ms_at(m)))
            .collect()
    }
}

/// Measurements of one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppMeasurement {
    /// Which application.
    pub app_name: String,
    /// One entry per function.
    pub functions: Vec<FunctionMeasurement>,
}

impl AppMeasurement {
    /// Finds a function's measurement by name.
    pub fn function(&self, name: &str) -> Option<&FunctionMeasurement> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Measures every function of `app` at every standard size with the given
/// plan.
pub fn measure_app(platform: &Platform, app: CaseStudyApp, plan: &MeasurementPlan) -> AppMeasurement {
    let functions = app.functions();
    let sizes = MemorySize::STANDARD.len();
    // One job per (function, size) runs all its repetitions, so only the
    // samples of the jobs in flight are held at once.
    let measured = parallel_map(
        plan.threads,
        functions.len() * sizes,
        || (),
        |job, _| {
            let profile = &functions[job / sizes].profile;
            measure_size(platform, profile, MemorySize::STANDARD[job % sizes], plan)
        },
    );
    let functions_out = functions
        .iter()
        .zip(measured.chunks(sizes))
        .map(|(f, by_size)| FunctionMeasurement {
            name: f.name.to_string(),
            metrics: by_size.iter().map(|s| s.metrics.clone()).collect(),
            mean_execution_ms: by_size.iter().map(|s| s.mean_execution_ms).collect(),
            mean_cost_usd: by_size.iter().map(|s| s.mean_cost_usd).collect(),
        })
        .collect();

    AppMeasurement {
        app_name: app.name().to_string(),
        functions: functions_out,
    }
}

/// One function's measurement at one size, over all repetitions.
struct SizeMeasurement {
    metrics: MetricVector,
    mean_execution_ms: f64,
    mean_cost_usd: f64,
}

/// Runs the plan's repetitions of `profile` at `memory`, pools their samples
/// into one metric vector and averages their summaries.
fn measure_size(
    platform: &Platform,
    profile: &ResourceProfile,
    memory: MemorySize,
    plan: &MeasurementPlan,
) -> SizeMeasurement {
    // Each repetition needs an independent stream: seed it by repetition.
    let reps: Vec<Measurement> = (0..plan.repetitions)
        .map(|rep| {
            let cfg = ExperimentConfig {
                duration_ms: plan.duration_ms,
                rps: plan.rps,
                seed: plan.seed.wrapping_add(1 + rep as u64),
            };
            run_experiment(platform, profile, memory, &cfg)
        })
        .collect();
    let n = plan.repetitions as f64;
    SizeMeasurement {
        metrics: MetricVector::from_samples(reps.iter().flat_map(|r| r.store.samples())),
        mean_execution_ms: reps
            .iter()
            .map(|r| r.summary.mean_execution_ms)
            .sum::<f64>()
            / n,
        mean_cost_usd: reps.iter().map(|r| r.summary.mean_cost_usd).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_every_function_and_size() {
        let platform = Platform::aws_like();
        let m = measure_app(
            &platform,
            CaseStudyApp::FacialRecognition,
            &MeasurementPlan::quick(),
        );
        assert_eq!(m.app_name, "Facial Recognition");
        assert_eq!(m.functions.len(), 5);
        for f in &m.functions {
            assert_eq!(f.metrics.len(), 6);
            assert_eq!(f.mean_execution_ms.len(), 6);
            assert!(f.mean_execution_ms.iter().all(|&t| t > 0.0));
            assert!(f.mean_cost_usd.iter().all(|&c| c > 0.0));
            assert_eq!(f.times_map().len(), 6);
        }
        assert!(m.function("PersistMetadata").is_some());
        assert!(m.function("NoSuchFunction").is_none());
    }

    #[test]
    fn measurement_is_deterministic() {
        let platform = Platform::aws_like();
        let a = measure_app(
            &platform,
            CaseStudyApp::EventProcessing,
            &MeasurementPlan::quick(),
        );
        let b = measure_app(
            &platform,
            CaseStudyApp::EventProcessing,
            &MeasurementPlan::quick(),
        );
        let serial = measure_app(
            &platform,
            CaseStudyApp::EventProcessing,
            &MeasurementPlan {
                threads: 1,
                ..MeasurementPlan::quick()
            },
        );
        assert_eq!(a, b);
        assert_eq!(a, serial);
    }

    #[test]
    fn scaled_plan_shrinks_but_stays_valid() {
        let p = MeasurementPlan::scaled(CaseStudyApp::AirlineBooking, 20.0);
        assert!(p.duration_ms >= 2_000.0);
        assert!(p.repetitions >= 2);
        assert!(p.rps <= 40.0);
    }

    #[test]
    fn cpu_bound_functions_cost_less_at_their_sweet_spot() {
        // Sanity: measured cost at 128 MB for a CPU-bound airline function
        // is not lower than at 512 MB (time halving compensates price).
        let platform = Platform::aws_like();
        let m = measure_app(
            &platform,
            CaseStudyApp::AirlineBooking,
            &MeasurementPlan::quick(),
        );
        let notify = m.function("NotifyBooking").unwrap();
        let c128 = notify.cost_usd_at(MemorySize::MB_128);
        let c512 = notify.cost_usd_at(MemorySize::MB_512);
        assert!(c512 < c128 * 3.0);
    }
}
