//! Latency models for managed services and external endpoints.
//!
//! Serverless applications spend much of their time in calls to managed
//! services. Crucially for the memory-sizing problem, the *server-side*
//! latency of these calls does not depend on the function's memory size —
//! only the data transfer does (through the memory-scaled network bandwidth).
//! This is what makes service-heavy functions like the paper's `API-Call`
//! barely benefit from larger memory sizes.

use crate::memory::MemorySize;
use crate::scaling::ScalingLaws;
use serde::{Deserialize, Serialize};
use sizeless_engine::dist::LogNormal;
use std::collections::BTreeMap;
use std::fmt;

/// The managed services and external endpoints known to the simulator.
///
/// The first eight appear in the paper's synthetic function segments or case
/// studies; `Rekognition`, `Aurora`, `Sqs`, and `Kinesis` are *deliberately
/// absent from the synthetic segments* (Section 4 stresses that the case
/// studies use services the training set never saw).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[non_exhaustive]
pub enum ServiceKind {
    /// DynamoDB key-value store (used by segments and case studies).
    DynamoDb,
    /// S3 object storage.
    S3,
    /// SNS pub/sub topic.
    Sns,
    /// SQS queue.
    Sqs,
    /// Step Functions workflow transitions.
    StepFunctions,
    /// API Gateway hop.
    ApiGateway,
    /// Aurora serverless relational database.
    Aurora,
    /// Rekognition image analysis (slow ML inference).
    Rekognition,
    /// Kinesis stream.
    Kinesis,
    /// A generic external HTTP API on the public internet.
    ExternalApi,
    /// An external payment provider (slow third-party API).
    ExternalPayment,
}

impl ServiceKind {
    /// All service kinds.
    pub const ALL: [ServiceKind; 11] = [
        ServiceKind::DynamoDb,
        ServiceKind::S3,
        ServiceKind::Sns,
        ServiceKind::Sqs,
        ServiceKind::StepFunctions,
        ServiceKind::ApiGateway,
        ServiceKind::Aurora,
        ServiceKind::Rekognition,
        ServiceKind::Kinesis,
        ServiceKind::ExternalApi,
        ServiceKind::ExternalPayment,
    ];
}

impl fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ServiceKind::DynamoDb => "DynamoDB",
            ServiceKind::S3 => "S3",
            ServiceKind::Sns => "SNS",
            ServiceKind::Sqs => "SQS",
            ServiceKind::StepFunctions => "StepFunctions",
            ServiceKind::ApiGateway => "APIGateway",
            ServiceKind::Aurora => "Aurora",
            ServiceKind::Rekognition => "Rekognition",
            ServiceKind::Kinesis => "Kinesis",
            ServiceKind::ExternalApi => "ExternalAPI",
            ServiceKind::ExternalPayment => "ExternalPayment",
        };
        f.write_str(s)
    }
}

/// Latency model of a single service.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceModel {
    /// Median server-side latency per call, ms.
    pub base_latency_ms: f64,
    /// Lognormal shape of the latency distribution.
    pub sigma: f64,
    /// Additional server-side processing per KB of payload, ms/KB.
    pub per_kb_ms: f64,
}

impl ServiceModel {
    /// Creates a service model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative or `base_latency_ms` is zero.
    pub fn new(base_latency_ms: f64, sigma: f64, per_kb_ms: f64) -> Self {
        assert!(base_latency_ms > 0.0, "base latency must be positive");
        assert!(sigma >= 0.0 && per_kb_ms >= 0.0, "parameters must be non-negative");
        ServiceModel {
            base_latency_ms,
            sigma,
            per_kb_ms,
        }
    }

    /// The server-side latency distribution of one call with `payload_kb`
    /// of request + response payload (excludes client-side transfer time).
    pub fn latency(&self, payload_kb: f64) -> LogNormal {
        LogNormal::with_mean(self.mean_latency_ms(payload_kb), self.sigma)
            // lint: allow(panic002) reason="latency parameters are validated positive at construction"
            .expect("validated at construction")
    }

    /// The expected server-side latency for a payload.
    pub fn mean_latency_ms(&self, payload_kb: f64) -> f64 {
        self.base_latency_ms + self.per_kb_ms * payload_kb
    }
}

/// A registry of service models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceCatalog {
    models: BTreeMap<ServiceKind, ServiceModel>,
}

impl ServiceCatalog {
    /// A catalog with AWS-like latencies for all known services.
    ///
    /// Values follow published measurements: single-digit ms for DynamoDB,
    /// tens of ms for S3/SNS/SQS, ~20 ms for in-region HTTP hops, hundreds
    /// of ms for Rekognition and external payment providers.
    pub fn aws_like() -> Self {
        let mut models = BTreeMap::new();
        models.insert(ServiceKind::DynamoDb, ServiceModel::new(4.0, 0.35, 0.02));
        models.insert(ServiceKind::S3, ServiceModel::new(22.0, 0.40, 0.015));
        models.insert(ServiceKind::Sns, ServiceModel::new(14.0, 0.35, 0.01));
        models.insert(ServiceKind::Sqs, ServiceModel::new(10.0, 0.35, 0.01));
        models.insert(
            ServiceKind::StepFunctions,
            ServiceModel::new(18.0, 0.40, 0.005),
        );
        models.insert(ServiceKind::ApiGateway, ServiceModel::new(8.0, 0.30, 0.005));
        models.insert(ServiceKind::Aurora, ServiceModel::new(6.0, 0.45, 0.03));
        models.insert(
            ServiceKind::Rekognition,
            ServiceModel::new(380.0, 0.30, 0.08),
        );
        models.insert(ServiceKind::Kinesis, ServiceModel::new(12.0, 0.35, 0.01));
        models.insert(
            ServiceKind::ExternalApi,
            ServiceModel::new(85.0, 0.45, 0.02),
        );
        models.insert(
            ServiceKind::ExternalPayment,
            ServiceModel::new(240.0, 0.50, 0.02),
        );
        ServiceCatalog { models }
    }

    /// The model for a service.
    ///
    /// # Panics
    ///
    /// Panics if the service is not in the catalog (the AWS-like catalog
    /// covers all kinds; custom catalogs must too).
    pub fn model(&self, kind: ServiceKind) -> &ServiceModel {
        self.models
            .get(&kind)
            .unwrap_or_else(|| panic!("service {kind} missing from catalog"))
    }

    /// Replaces the model for one service (builder-style customization).
    pub fn with_model(mut self, kind: ServiceKind, model: ServiceModel) -> Self {
        self.models.insert(kind, model);
        self
    }
}

impl Default for ServiceCatalog {
    fn default() -> Self {
        Self::aws_like()
    }
}

/// Client-side transfer time for `payload_kb` at the memory-scaled network
/// bandwidth, in ms. A call's client-observed time is a draw of its
/// server-side [`ServiceModel::latency`] plus this.
pub fn transfer_time_ms(payload_kb: f64, m: MemorySize, laws: &ScalingLaws) -> f64 {
    let mbps = laws.net_bandwidth_mbps(m);
    (payload_kb / 1024.0) / mbps * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizeless_engine::RngStream;

    #[test]
    fn catalog_covers_all_services() {
        let c = ServiceCatalog::aws_like();
        for kind in ServiceKind::ALL {
            let _ = c.model(kind); // must not panic
        }
    }

    #[test]
    fn dynamodb_is_fast_rekognition_is_slow() {
        let c = ServiceCatalog::aws_like();
        assert!(c.model(ServiceKind::DynamoDb).base_latency_ms < 10.0);
        assert!(c.model(ServiceKind::Rekognition).base_latency_ms > 100.0);
    }

    #[test]
    fn latency_sampling_is_positive_and_payload_sensitive() {
        let m = ServiceModel::new(10.0, 0.3, 0.1);
        let mut rng = RngStream::from_seed(1, "svc");
        let small: f64 = (0..2000).map(|_| m.latency(1.0).sample(&mut rng)).sum();
        let large: f64 = (0..2000).map(|_| m.latency(500.0).sample(&mut rng)).sum();
        assert!(small > 0.0);
        assert!(large / 2000.0 > small / 2000.0 + 30.0);
    }

    #[test]
    fn mean_latency_matches_sampled_mean() {
        let m = ServiceModel::new(20.0, 0.4, 0.0);
        let mut rng = RngStream::from_seed(2, "svc-mean");
        let n = 50_000;
        let avg: f64 =
            (0..n).map(|_| m.latency(0.0).sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((avg - 20.0).abs() / 20.0 < 0.03, "avg={avg}");
    }

    #[test]
    fn server_latency_is_memory_independent_but_transfer_is_not() {
        let laws = ScalingLaws::aws_like();
        let t_small = transfer_time_ms(2048.0, MemorySize::MB_128, &laws);
        let t_large = transfer_time_ms(2048.0, MemorySize::MB_3008, &laws);
        assert!(t_small > t_large);
    }

    #[test]
    fn with_model_overrides() {
        let c = ServiceCatalog::aws_like()
            .with_model(ServiceKind::DynamoDb, ServiceModel::new(99.0, 0.1, 0.0));
        assert_eq!(c.model(ServiceKind::DynamoDb).base_latency_ms, 99.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_latency_rejected() {
        let _ = ServiceModel::new(0.0, 0.1, 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(ServiceKind::DynamoDb.to_string(), "DynamoDB");
        assert_eq!(ServiceKind::ExternalPayment.to_string(), "ExternalPayment");
    }
}
