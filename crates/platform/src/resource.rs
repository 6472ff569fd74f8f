//! The ground-truth execution model of a serverless function.
//!
//! A [`ResourceProfile`] describes *what a function does* independent of any
//! memory size: a sequence of [`Stage`]s, each declaring CPU milliseconds
//! (normalized to one vCPU), file-system and network traffic, managed-service
//! calls, idle waits, and a working-set footprint. The
//! [`execution`](crate::execution) module turns a profile plus a memory size
//! into a wall-clock duration and resource-usage record.
//!
//! Synthetic function segments ([`sizeless_funcgen`](https://docs.rs)) and
//! the case-study applications both compile down to profiles, so the whole
//! reproduction shares a single notion of "what the function is".

use crate::services::ServiceKind;
use serde::{Deserialize, Serialize};

/// One or more calls to a managed service within a stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceCall {
    /// Which service is called.
    pub kind: ServiceKind,
    /// Number of sequential calls.
    pub calls: u32,
    /// Request + response payload per call, KB.
    pub payload_kb: f64,
}

impl ServiceCall {
    /// Creates a service-call description.
    ///
    /// # Panics
    ///
    /// Panics if `calls` is zero or `payload_kb` is negative.
    pub fn new(kind: ServiceKind, calls: u32, payload_kb: f64) -> Self {
        assert!(calls > 0, "a service call entry needs at least one call");
        assert!(payload_kb >= 0.0, "payload must be non-negative");
        ServiceCall {
            kind,
            calls,
            payload_kb,
        }
    }
}

/// A single sequential stage of a function's execution.
///
/// All CPU demand is expressed in milliseconds *at one full vCPU*; the
/// platform divides by the memory-dependent CPU speed. `parallelism` models
/// how many cores the stage can exploit (Node.js: 1.0 for plain JavaScript,
/// up to 4.0 for libuv-pool work such as crypto, zlib, or image codecs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// Human-readable label (segment name).
    pub label: String,
    /// CPU demand in ms at 1 vCPU.
    pub cpu_ms: f64,
    /// Exploitable cores, ≥ 1.
    pub parallelism: f64,
    /// File-system bytes read, KB.
    pub io_read_kb: f64,
    /// File-system bytes written, KB.
    pub io_write_kb: f64,
    /// Network bytes received (outside service calls), KB.
    pub net_in_kb: f64,
    /// Network bytes transmitted (outside service calls), KB.
    pub net_out_kb: f64,
    /// Managed-service calls issued by this stage.
    pub service_calls: Vec<ServiceCall>,
    /// Pure waiting time (timers), ms.
    pub sleep_ms: f64,
    /// Peak additional working set while this stage runs, MB.
    pub working_set_mb: f64,
    /// Short-lived allocation churn, MB (drives GC/allocation metrics).
    pub alloc_churn_mb: f64,
}

impl Stage {
    /// A blank stage with the given label.
    pub fn named(label: impl Into<String>) -> Self {
        Stage {
            label: label.into(),
            cpu_ms: 0.0,
            parallelism: 1.0,
            io_read_kb: 0.0,
            io_write_kb: 0.0,
            net_in_kb: 0.0,
            net_out_kb: 0.0,
            service_calls: Vec::new(),
            sleep_ms: 0.0,
            working_set_mb: 0.0,
            alloc_churn_mb: 0.0,
        }
    }

    /// A single-threaded CPU stage.
    pub fn cpu(label: impl Into<String>, cpu_ms: f64) -> Self {
        Stage {
            cpu_ms,
            ..Stage::named(label)
        }
    }

    /// A CPU stage that can exploit `parallelism` cores.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism < 1`.
    pub fn cpu_parallel(label: impl Into<String>, cpu_ms: f64, parallelism: f64) -> Self {
        assert!(parallelism >= 1.0, "parallelism must be at least 1");
        Stage {
            cpu_ms,
            parallelism,
            ..Stage::named(label)
        }
    }

    /// A file-system stage reading and writing the given KB.
    pub fn file_io(label: impl Into<String>, read_kb: f64, write_kb: f64) -> Self {
        Stage {
            io_read_kb: read_kb,
            io_write_kb: write_kb,
            ..Stage::named(label)
        }
    }

    /// A raw network stage (e.g. downloading an asset).
    pub fn network(label: impl Into<String>, in_kb: f64, out_kb: f64) -> Self {
        Stage {
            net_in_kb: in_kb,
            net_out_kb: out_kb,
            ..Stage::named(label)
        }
    }

    /// A stage that issues managed-service calls.
    pub fn service(label: impl Into<String>, call: ServiceCall) -> Self {
        Stage {
            service_calls: vec![call],
            ..Stage::named(label)
        }
    }

    /// A pure wait (timer) stage.
    pub fn sleep(label: impl Into<String>, ms: f64) -> Self {
        Stage {
            sleep_ms: ms,
            ..Stage::named(label)
        }
    }

    /// Sets the stage's peak working set, returning `self` (builder-style).
    pub fn with_working_set(mut self, mb: f64) -> Self {
        assert!(mb >= 0.0, "working set must be non-negative");
        self.working_set_mb = mb;
        self
    }

    /// Sets allocation churn, returning `self`.
    pub fn with_alloc_churn(mut self, mb: f64) -> Self {
        assert!(mb >= 0.0, "allocation churn must be non-negative");
        self.alloc_churn_mb = mb;
        self
    }

    /// Adds CPU demand to an existing stage, returning `self`.
    pub fn with_cpu(mut self, cpu_ms: f64, parallelism: f64) -> Self {
        assert!(parallelism >= 1.0, "parallelism must be at least 1");
        self.cpu_ms = cpu_ms;
        self.parallelism = parallelism;
        self
    }

    /// Adds a service call to an existing stage, returning `self`.
    pub fn with_service_call(mut self, call: ServiceCall) -> Self {
        self.service_calls.push(call);
        self
    }

    /// Total service calls in this stage.
    pub fn total_service_calls(&self) -> u32 {
        self.service_calls.iter().map(|c| c.calls).sum()
    }
}

/// A complete function description: stages plus whole-function footprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceProfile {
    name: String,
    stages: Vec<Stage>,
    /// Memory held by runtime + loaded code before any stage runs, MB.
    baseline_working_set_mb: f64,
    /// One-time initialization CPU (module load), ms at 1 vCPU — only paid
    /// on cold starts.
    init_cpu_ms: f64,
    /// Deployment package size, MB — affects cold-start load time.
    package_size_mb: f64,
}

impl ResourceProfile {
    /// Starts building a profile.
    pub fn builder(name: impl Into<String>) -> ResourceProfileBuilder {
        ResourceProfileBuilder {
            name: name.into(),
            stages: Vec::new(),
            baseline_working_set_mb: 42.0,
            init_cpu_ms: 45.0,
            package_size_mb: 2.5,
        }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The execution stages in order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Baseline working set (runtime + code), MB.
    pub fn baseline_working_set_mb(&self) -> f64 {
        self.baseline_working_set_mb
    }

    /// Cold-start initialization CPU, ms at 1 vCPU.
    pub fn init_cpu_ms(&self) -> f64 {
        self.init_cpu_ms
    }

    /// Deployment package size, MB.
    pub fn package_size_mb(&self) -> f64 {
        self.package_size_mb
    }

    /// Peak working set across stages plus baseline, MB.
    pub fn peak_working_set_mb(&self) -> f64 {
        let peak_stage = self
            .stages
            .iter()
            .map(|s| s.working_set_mb)
            .fold(0.0, f64::max);
        self.baseline_working_set_mb + peak_stage
    }
}

/// Builder for [`ResourceProfile`].
#[derive(Debug, Clone)]
pub struct ResourceProfileBuilder {
    name: String,
    stages: Vec<Stage>,
    baseline_working_set_mb: f64,
    init_cpu_ms: f64,
    package_size_mb: f64,
}

impl ResourceProfileBuilder {
    /// Appends a stage.
    pub fn stage(mut self, stage: Stage) -> Self {
        self.stages.push(stage);
        self
    }

    /// Appends several stages.
    pub fn stages(mut self, stages: impl IntoIterator<Item = Stage>) -> Self {
        self.stages.extend(stages);
        self
    }

    /// Sets the baseline working set, MB.
    ///
    /// # Panics
    ///
    /// Panics if negative.
    pub fn baseline_working_set_mb(mut self, mb: f64) -> Self {
        assert!(mb >= 0.0, "baseline working set must be non-negative");
        self.baseline_working_set_mb = mb;
        self
    }

    /// Sets the cold-start initialization CPU, ms.
    pub fn init_cpu_ms(mut self, ms: f64) -> Self {
        assert!(ms >= 0.0, "init cpu must be non-negative");
        self.init_cpu_ms = ms;
        self
    }

    /// Sets the deployment package size, MB.
    pub fn package_size_mb(mut self, mb: f64) -> Self {
        assert!(mb > 0.0, "package size must be positive");
        self.package_size_mb = mb;
        self
    }

    /// Finalizes the profile.
    pub fn build(self) -> ResourceProfile {
        ResourceProfile {
            name: self.name,
            stages: self.stages,
            baseline_working_set_mb: self.baseline_working_set_mb,
            init_cpu_ms: self.init_cpu_ms,
            package_size_mb: self.package_size_mb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_constructors_set_expected_fields() {
        let s = Stage::cpu("work", 50.0);
        assert_eq!(s.cpu_ms, 50.0);
        assert_eq!(s.parallelism, 1.0);

        let p = Stage::cpu_parallel("zip", 80.0, 4.0);
        assert_eq!(p.parallelism, 4.0);

        let io = Stage::file_io("tmp", 128.0, 64.0);
        assert_eq!(io.io_read_kb, 128.0);
        assert_eq!(io.io_write_kb, 64.0);

        let n = Stage::network("download", 2048.0, 10.0);
        assert_eq!(n.net_in_kb, 2048.0);

        let sv = Stage::service("db", ServiceCall::new(ServiceKind::DynamoDb, 3, 4.0));
        assert_eq!(sv.total_service_calls(), 3);

        let sl = Stage::sleep("wait", 25.0);
        assert_eq!(sl.sleep_ms, 25.0);
    }

    #[test]
    fn stage_builder_style_modifiers() {
        let s = Stage::cpu("x", 10.0)
            .with_working_set(64.0)
            .with_alloc_churn(5.0)
            .with_service_call(ServiceCall::new(ServiceKind::S3, 1, 100.0));
        assert_eq!(s.working_set_mb, 64.0);
        assert_eq!(s.alloc_churn_mb, 5.0);
        assert_eq!(s.service_calls.len(), 1);
    }

    #[test]
    fn profile_aggregates() {
        let p = ResourceProfile::builder("f")
            .stage(Stage::cpu("a", 30.0).with_working_set(100.0))
            .stage(Stage::cpu("b", 20.0).with_working_set(40.0))
            .baseline_working_set_mb(20.0)
            .build();
        assert_eq!(p.peak_working_set_mb(), 120.0);
        assert_eq!(p.stages().len(), 2);
        assert_eq!(p.name(), "f");
    }

    #[test]
    fn builder_defaults_are_sane() {
        let p = ResourceProfile::builder("d").build();
        assert!(p.baseline_working_set_mb() > 0.0);
        assert!(p.init_cpu_ms() > 0.0);
        assert!(p.package_size_mb() > 0.0);
        assert!(p.stages().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one call")]
    fn zero_calls_rejected() {
        let _ = ServiceCall::new(ServiceKind::S3, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn sub_unit_parallelism_rejected() {
        let _ = Stage::cpu_parallel("bad", 10.0, 0.5);
    }
}
