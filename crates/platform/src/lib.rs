//! A serverless platform simulator standing in for AWS Lambda.
//!
//! The Sizeless paper measures real Lambda functions; this crate reproduces
//! the *mechanism* the paper studies: a function's resources (CPU share, I/O
//! and network bandwidth) scale with the configured **memory size**, so its
//! execution time — and, through the GB-second pricing model, its cost — vary
//! with that single knob in function-specific ways.
//!
//! Key pieces:
//!
//! * [`memory`] — the [`MemorySize`] type and the six
//!   standard sizes of the paper's dataset (128 … 3008 MB).
//! * [`scaling`] — the resource-scaling laws: CPU share is linear in memory
//!   (1 full vCPU at 1792 MB, like Lambda), I/O and network bandwidth grow
//!   sub-linearly and saturate (Wang et al., ATC'18).
//! * [`pricing`] — the GB-second + per-request pricing model with AWS's
//!   published constants.
//! * [`resource`] — the ground-truth execution model: a function is a
//!   sequence of [`Stage`]s declaring CPU milliseconds,
//!   bytes of file/network I/O, managed-service calls, and a working-set
//!   size.
//! * [`services`] — latency models for the managed services the case studies
//!   use (DynamoDB, S3, SNS, SQS, Step Functions, API Gateway, Aurora,
//!   Rekognition, Kinesis, external HTTP APIs).
//! * [`execution`] — turns (profile, memory size) into an execution duration
//!   and a detailed [`ResourceUsage`] record that
//!   the telemetry crate converts into the paper's 25 monitoring metrics.
//!   An [`ExecutionPlan`] holds everything about one (profile, size) that
//!   no draw changes; sampling it makes only the per-invocation draws.
//! * [`coldstart`] — initialization-latency model.
//! * [`pool`] — the instance model: slab-backed [`WarmPool`]s
//!   with per-release keep-alive TTLs, eviction, and wasted-idle-time
//!   accounting, shared by the measurement harness and the fleet simulator.
//! * [`platform`] — the façade: deploy a [`FunctionConfig`],
//!   invoke it, get an [`InvocationRecord`]
//!   (duration, billed duration, cost, cold-start flag, resource usage).
//!
//! # Examples
//!
//! ```
//! use sizeless_engine::RngStream;
//! use sizeless_platform::{MemorySize, Platform, ResourceProfile, Stage};
//!
//! let profile = ResourceProfile::builder("cpu-heavy")
//!     .stage(Stage::cpu("invert-matrix", 120.0))
//!     .build();
//! let platform = Platform::aws_like();
//! let mut rng = RngStream::from_seed(1, "demo");
//!
//! let fast = platform.execute(&profile, MemorySize::MB_3008, &mut rng);
//! let slow = platform.execute(&profile, MemorySize::MB_128, &mut rng);
//! assert!(fast.duration_ms < slow.duration_ms);
//!
//! // Invoking one (profile, size) many times: plan once, then each
//! // invocation only draws its noise and is billed.
//! let plan = platform.plan(&profile, MemorySize::MB_512);
//! let cold = platform.invoke_planned(&plan, true, &mut rng);
//! let warm = platform.invoke_planned(&plan, false, &mut rng);
//! assert!(cold.init_ms > 0.0 && warm.init_ms == 0.0);
//! assert_eq!(warm.billed_ms % 100.0, 0.0);
//! ```

pub mod coldstart;
pub mod error;
pub mod execution;
pub mod function;
pub mod memory;
pub mod platform;
pub mod pool;
pub mod pricing;
pub mod resource;
pub mod scaling;
pub mod services;

pub use error::PlatformError;
pub use execution::{ExecutionOutcome, ExecutionPlan, ResourceUsage};
pub use function::FunctionConfig;
pub use memory::MemorySize;
pub use platform::{InvocationRecord, Platform};
pub use pool::{InstanceId, WarmPool};
pub use pricing::PricingModel;
pub use resource::{ResourceProfile, ServiceCall, Stage};
pub use services::{ServiceCatalog, ServiceKind};
