//! Application-level workflows: end-to-end request latency and cost.
//!
//! The paper's workloads "sequentially access all application features" —
//! one user request traverses several functions (via API Gateway, queues,
//! or Step Functions). Function-level optimization is what Sizeless does;
//! this module measures what the *user* sees: the end-to-end latency and
//! per-request cost of the whole chain, before and after adopting the
//! per-function recommendations.

use crate::CaseStudyApp;
use serde::{Deserialize, Serialize};
use sizeless_engine::RngStream;
use sizeless_platform::{ExecutionPlan, MemorySize, Platform};
use std::collections::BTreeMap;

/// A named sequential chain of an application's functions.
///
/// Serializable for result export, but deliberately not `Deserialize`: the
/// `&'static str` names refer to compiled-in app definitions, not data.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Workflow {
    /// Workflow name (e.g. "book-flight").
    pub name: &'static str,
    /// Function names traversed in order (must exist in the app).
    pub steps: Vec<&'static str>,
}

/// The canonical request workflows of each case-study application.
///
/// These follow each application's architecture description: the airline's
/// booking saga, the facial-recognition pipeline, the IoT ingest/format
/// path, and Hello Retail's product-photo flow.
pub fn workflows(app: CaseStudyApp) -> Vec<Workflow> {
    match app {
        CaseStudyApp::AirlineBooking => vec![
            Workflow {
                name: "book-flight",
                steps: vec![
                    "ReserveBooking",
                    "CollectPayment",
                    "ConfirmBooking",
                    "NotifyBooking",
                ],
            },
            Workflow {
                name: "charge-card",
                steps: vec!["CreateCharge", "CaptureCharge"],
            },
            Workflow {
                name: "loyalty",
                steps: vec!["IngestLoyalty", "GetLoyalty"],
            },
        ],
        CaseStudyApp::FacialRecognition => vec![Workflow {
            name: "register-photo",
            steps: vec![
                "FaceDetection",
                "FaceSearch",
                "IndexFace",
                "PersistMetadata",
                "CreateThumbnail",
            ],
        }],
        CaseStudyApp::EventProcessing => vec![
            Workflow {
                name: "ingest-sensor-event",
                steps: vec!["IngestEvent", "FormatTemp", "EventInserter"],
            },
            Workflow {
                name: "dashboard-query",
                steps: vec!["GetLatestEvents", "ListAllEvents"],
            },
        ],
        CaseStudyApp::HelloRetail => vec![
            Workflow {
                name: "new-product-photo",
                steps: vec![
                    "PhotoReceive",
                    "PhotoAssign",
                    "PhotoProcessor",
                    "ProductCatalogBuilder",
                ],
            },
            Workflow {
                name: "browse-catalog",
                steps: vec!["ProductCatalogApi"],
            },
        ],
    }
}

/// End-to-end statistics of one workflow under a size assignment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkflowStats {
    /// Mean end-to-end latency per request, ms.
    pub mean_latency_ms: f64,
    /// Mean compute cost per request, USD.
    pub mean_cost_usd: f64,
}

/// Simulates `requests` executions of a workflow with the given per-function
/// memory assignment (warm path — steady-state traffic).
///
/// # Panics
///
/// Panics if a workflow step has no assigned size or no matching function.
pub fn simulate_workflow(
    platform: &Platform,
    app: CaseStudyApp,
    workflow: &Workflow,
    sizes: &BTreeMap<String, MemorySize>,
    requests: usize,
    rng: &mut RngStream,
) -> WorkflowStats {
    assert!(requests > 0, "need at least one request");
    let functions = app.functions();
    let plans: Vec<ExecutionPlan> = workflow
        .steps
        .iter()
        .map(|step| {
            let f = functions
                .iter()
                .find(|f| f.name == *step)
                .unwrap_or_else(|| panic!("workflow step `{step}` not in {app}"));
            let size = *sizes
                .get(*step)
                .unwrap_or_else(|| panic!("no memory size assigned to `{step}`"));
            platform.plan(&f.profile, size)
        })
        .collect();

    let mut total_latency = 0.0;
    let mut total_cost = 0.0;
    for _ in 0..requests {
        for plan in &plans {
            let record = platform.invoke_planned(plan, false, rng);
            total_latency += record.duration_ms;
            total_cost += record.cost_usd;
        }
    }
    WorkflowStats {
        mean_latency_ms: total_latency / requests as f64,
        mean_cost_usd: total_cost / requests as f64,
    }
}

/// Convenience: a uniform size assignment for every function of an app.
pub fn uniform_sizes(app: CaseStudyApp, size: MemorySize) -> BTreeMap<String, MemorySize> {
    app.functions()
        .into_iter()
        .map(|f| (f.name.to_string(), size))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workflow_step_exists_in_its_app() {
        for app in CaseStudyApp::ALL {
            let names: Vec<&str> = app.functions().iter().map(|f| f.name).collect();
            for wf in workflows(app) {
                assert!(!wf.steps.is_empty(), "{app}/{}", wf.name);
                for step in &wf.steps {
                    assert!(names.contains(step), "{app}/{}: missing {step}", wf.name);
                }
            }
        }
    }

    #[test]
    fn every_app_has_at_least_one_workflow() {
        for app in CaseStudyApp::ALL {
            assert!(!workflows(app).is_empty(), "{app}");
        }
    }

    #[test]
    fn end_to_end_latency_sums_the_chain() {
        let platform = Platform::aws_like();
        let app = CaseStudyApp::EventProcessing;
        let wf = &workflows(app)[0];
        let sizes = uniform_sizes(app, MemorySize::MB_512);
        let mut rng = RngStream::from_seed(1, "wf");
        let stats = simulate_workflow(&platform, app, wf, &sizes, 200, &mut rng);

        // Compare against the sum of the steps' expected durations.
        let functions = app.functions();
        let expected: f64 = wf
            .steps
            .iter()
            .map(|s| {
                let f = functions.iter().find(|f| f.name == *s).unwrap();
                platform.expected_duration_ms(&f.profile, MemorySize::MB_512)
            })
            .sum();
        let rel = (stats.mean_latency_ms - expected).abs() / expected;
        assert!(rel < 0.1, "{} vs {expected}", stats.mean_latency_ms);
        assert!(stats.mean_cost_usd > 0.0);
    }

    #[test]
    fn upsizing_speeds_up_cpu_heavy_workflows() {
        let platform = Platform::aws_like();
        let app = CaseStudyApp::HelloRetail;
        let wf = workflows(app)
            .into_iter()
            .find(|w| w.name == "new-product-photo")
            .unwrap();
        let mut rng = RngStream::from_seed(2, "wf-upsize");
        let small = simulate_workflow(
            &platform,
            app,
            &wf,
            &uniform_sizes(app, MemorySize::MB_128),
            100,
            &mut rng,
        );
        let large = simulate_workflow(
            &platform,
            app,
            &wf,
            &uniform_sizes(app, MemorySize::MB_1024),
            100,
            &mut rng,
        );
        assert!(
            large.mean_latency_ms < small.mean_latency_ms * 0.7,
            "{} vs {}",
            large.mean_latency_ms,
            small.mean_latency_ms
        );
    }

    #[test]
    fn per_function_sizing_beats_uniform_sizing() {
        // The point of per-function recommendations: mixed chains want
        // mixed sizes. Give the CPU-heavy PhotoProcessor a big size and the
        // service-bound steps small ones; the chain should be nearly as
        // fast as uniformly-big but much cheaper.
        let platform = Platform::aws_like();
        let app = CaseStudyApp::HelloRetail;
        let wf = workflows(app)
            .into_iter()
            .find(|w| w.name == "new-product-photo")
            .unwrap();
        let mut rng = RngStream::from_seed(3, "wf-mixed");

        let mut mixed = uniform_sizes(app, MemorySize::MB_256);
        mixed.insert("PhotoProcessor".to_string(), MemorySize::MB_2048);

        let uniform_big = simulate_workflow(
            &platform,
            app,
            &wf,
            &uniform_sizes(app, MemorySize::MB_2048),
            150,
            &mut rng,
        );
        let tailored = simulate_workflow(&platform, app, &wf, &mixed, 150, &mut rng);

        // Latency within ~60% of the all-big assignment (the tail steps are
        // service-bound, so shrinking them costs little time)…
        assert!(
            tailored.mean_latency_ms < uniform_big.mean_latency_ms * 1.6,
            "{} vs {}",
            tailored.mean_latency_ms,
            uniform_big.mean_latency_ms
        );
        // …at well under 70% of its cost.
        assert!(
            tailored.mean_cost_usd < uniform_big.mean_cost_usd * 0.7,
            "{} vs {}",
            tailored.mean_cost_usd,
            uniform_big.mean_cost_usd
        );
    }

    #[test]
    #[should_panic(expected = "no memory size assigned")]
    fn missing_assignment_panics() {
        let platform = Platform::aws_like();
        let app = CaseStudyApp::EventProcessing;
        let wf = &workflows(app)[0];
        let mut rng = RngStream::from_seed(4, "wf-panic");
        let _ = simulate_workflow(&platform, app, wf, &BTreeMap::new(), 1, &mut rng);
    }
}
