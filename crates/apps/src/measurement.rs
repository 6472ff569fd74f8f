//! Case-study measurement campaigns.
//!
//! The paper measures every case-study function at all six memory sizes
//! with **ten repetitions** to account for cloud performance variability.
//! [`measure_app`] reproduces that through the workload crate's campaign,
//! [`measure_standard_sizes`]: per (function, size) it runs the
//! repetitions, averages the summaries, and pools all invocation samples
//! into one [`MetricVector`](sizeless_telemetry::MetricVector) per size
//! (the model input), one [`FunctionRecord`] per function.

use crate::CaseStudyApp;
use serde::{Deserialize, Serialize};
use sizeless_platform::{Platform, ResourceProfile};
use sizeless_workload::{measure_standard_sizes, ExperimentConfig, FunctionRecord};

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

    /// A scaled-down plan: duration and repetitions divided by `factor`
    /// (≥ 1; repetitions rounded up, floors of 2 s and 2 repetitions), and
    /// the rate capped at 40 rps whatever the factor, so Airline Booking
    /// runs at 40 rps instead of its paper's 200 (the other apps at 10).
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

/// Measurements of one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppMeasurement {
    /// Which application.
    pub app_name: String,
    /// One entry per function.
    pub functions: Vec<FunctionRecord>,
}

impl AppMeasurement {
    /// Finds a function's measurement by name.
    pub fn function(&self, name: &str) -> Option<&FunctionRecord> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Measures every function of `app` at every standard size with the given
/// plan: [`measure_standard_sizes`] with one run per repetition `rep`,
/// seeded `plan.seed + 1 + rep`.
pub fn measure_app(platform: &Platform, app: CaseStudyApp, plan: &MeasurementPlan) -> AppMeasurement {
    let functions = app.functions();
    let profiles: Vec<&ResourceProfile> = functions.iter().map(|f| &f.profile).collect();
    let runs: Vec<ExperimentConfig> = (0..plan.repetitions)
        .map(|rep| ExperimentConfig {
            duration_ms: plan.duration_ms,
            rps: plan.rps,
            seed: plan.seed.wrapping_add(1 + rep as u64),
        })
        .collect();
    AppMeasurement {
        app_name: app.name().to_string(),
        functions: measure_standard_sizes(platform, &profiles, &runs, plan.threads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizeless_platform::MemorySize;

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
