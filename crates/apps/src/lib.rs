//! The four case-study applications of the paper's evaluation (Section 4).
//!
//! Twenty-seven realistic serverless functions across four applications:
//!
//! * **Airline Booking** (8 functions) — the AWS Build On Serverless
//!   full-stack app: flight search/booking, payment, loyalty points. Uses
//!   S3, SNS, Step Functions, API Gateway, and an external payment
//!   provider. Workload: 200 rps for 10 minutes.
//! * **Facial Recognition** (5 functions) — the AWS Wild Rydes workshop
//!   app; heavy use of Rekognition (absent from the training segments).
//!   Workload: 10 rps for 5 minutes (Rekognition is expensive), so less
//!   monitoring data is available.
//! * **Event Processing** (7 functions) — the IoT event-processing system
//!   of Yussupov et al.; uses API Gateway, SNS, SQS, and Aurora; very fast
//!   functions. Workload: 10 rps for 10 minutes.
//! * **Hello Retail** (7 functions) — Nordstrom's event-sourced product
//!   catalog; uses Kinesis, API Gateway, Step Functions, DynamoDB, S3.
//!   Workload: 10 rps for 10 minutes.
//!
//! Every profile here is hand-written — *not* sampled from the synthetic
//! segment generator — and the apps deliberately use services the training
//! set never saw (Rekognition, Aurora, SQS, Kinesis, SNS, Step Functions),
//! preserving the paper's synthetic→realistic transfer gap.

pub mod airline;
pub mod event_processing;
pub mod facial;
pub mod measurement;
pub mod retail;
pub mod workflow;

use sizeless_platform::ResourceProfile;
use std::fmt;

pub use measurement::{measure_app, AppMeasurement, MeasurementPlan};
pub use workflow::{simulate_workflow, uniform_sizes, workflows, Workflow, WorkflowStats};

/// One deployed case-study function.
#[derive(Debug, Clone, PartialEq)]
pub struct AppFunction {
    /// Function name as reported in the paper's tables.
    pub name: &'static str,
    /// Its resource profile.
    pub profile: ResourceProfile,
}

/// One of the four case-study applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CaseStudyApp {
    /// AWS Build On Serverless airline booking (8 functions).
    AirlineBooking,
    /// AWS Wild Rydes facial recognition (5 functions).
    FacialRecognition,
    /// IoT event processing (7 functions).
    EventProcessing,
    /// Nordstrom Hello Retail (7 functions).
    HelloRetail,
}

impl CaseStudyApp {
    /// All four applications in the paper's order.
    pub const ALL: [CaseStudyApp; 4] = [
        CaseStudyApp::AirlineBooking,
        CaseStudyApp::FacialRecognition,
        CaseStudyApp::EventProcessing,
        CaseStudyApp::HelloRetail,
    ];

    /// Display name used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            CaseStudyApp::AirlineBooking => "Airline Booking",
            CaseStudyApp::FacialRecognition => "Facial Recognition",
            CaseStudyApp::EventProcessing => "Event Processing",
            CaseStudyApp::HelloRetail => "Hello Retail",
        }
    }

    /// The application's functions.
    pub fn functions(self) -> Vec<AppFunction> {
        match self {
            CaseStudyApp::AirlineBooking => airline::functions(),
            CaseStudyApp::FacialRecognition => facial::functions(),
            CaseStudyApp::EventProcessing => event_processing::functions(),
            CaseStudyApp::HelloRetail => retail::functions(),
        }
    }

    /// The paper's workload for this application: `(rps, duration_ms)`.
    pub fn workload(self) -> (f64, f64) {
        match self {
            CaseStudyApp::AirlineBooking => (200.0, 600_000.0),
            CaseStudyApp::FacialRecognition => (10.0, 300_000.0),
            CaseStudyApp::EventProcessing => (10.0, 600_000.0),
            CaseStudyApp::HelloRetail => (10.0, 600_000.0),
        }
    }
}

impl fmt::Display for CaseStudyApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// All 27 case-study functions as `(app, function)` pairs.
pub fn all_functions() -> Vec<(CaseStudyApp, AppFunction)> {
    CaseStudyApp::ALL
        .iter()
        .flat_map(|&app| app.functions().into_iter().map(move |f| (app, f)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizeless_funcgen::SegmentKind;
    use sizeless_platform::{MemorySize, Platform, ServiceKind};

    #[test]
    fn function_counts_match_the_paper() {
        assert_eq!(CaseStudyApp::AirlineBooking.functions().len(), 8);
        assert_eq!(CaseStudyApp::FacialRecognition.functions().len(), 5);
        assert_eq!(CaseStudyApp::EventProcessing.functions().len(), 7);
        assert_eq!(CaseStudyApp::HelloRetail.functions().len(), 7);
        assert_eq!(all_functions().len(), 27);
    }

    #[test]
    fn function_names_are_unique_within_each_app() {
        for app in CaseStudyApp::ALL {
            let names: std::collections::BTreeSet<&str> =
                app.functions().iter().map(|f| f.name).collect();
            assert_eq!(names.len(), app.functions().len(), "{app}");
        }
    }

    #[test]
    fn apps_use_services_unseen_in_training() {
        // The union of case-study services must include kinds that no
        // synthetic segment uses — the transfer-gap property.
        let training: std::collections::BTreeSet<ServiceKind> = SegmentKind::ALL
            .iter()
            .filter_map(|s| s.service())
            .collect();
        let mut unseen = std::collections::BTreeSet::new();
        for (_, f) in all_functions() {
            for stage in f.profile.stages() {
                for call in &stage.service_calls {
                    if !training.contains(&call.kind) {
                        unseen.insert(call.kind);
                    }
                }
            }
        }
        assert!(
            unseen.len() >= 4,
            "expected ≥4 unseen services, got {unseen:?}"
        );
    }

    #[test]
    fn all_profiles_execute_and_scale_sanely() {
        let platform = Platform::aws_like();
        for (app, f) in all_functions() {
            let t128 = platform.expected_duration_ms(&f.profile, MemorySize::MB_128);
            let t3008 = platform.expected_duration_ms(&f.profile, MemorySize::MB_3008);
            assert!(t128 > 0.0 && t128 < 60_000.0, "{app}/{}: {t128}", f.name);
            assert!(
                t3008 <= t128 * 1.05,
                "{app}/{}: bigger memory should not be slower",
                f.name
            );
        }
    }

    #[test]
    fn function_names_are_their_profiles_names() {
        for (app, f) in all_functions() {
            assert_eq!(f.name, f.profile.name(), "{app}");
        }
    }

    #[test]
    fn workloads_match_the_paper() {
        assert_eq!(CaseStudyApp::AirlineBooking.workload(), (200.0, 600_000.0));
        assert_eq!(CaseStudyApp::FacialRecognition.workload(), (10.0, 300_000.0));
    }
}
