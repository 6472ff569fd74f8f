//! The platform façade: execute profiles, bill invocations, manage warm
//! instances.

use crate::coldstart::ColdStartModel;
use crate::execution::{self, ExecutionOutcome, ExecutionPlan, ResourceUsage};
use crate::function::FunctionConfig;
use crate::memory::MemorySize;
use crate::pricing::PricingModel;
use crate::resource::ResourceProfile;
use crate::scaling::ScalingLaws;
use crate::services::ServiceCatalog;
use serde::{Deserialize, Serialize};
use sizeless_engine::RngStream;

/// The simulated serverless platform (AWS-Lambda-like by default).
#[derive(Debug, Clone)]
pub struct Platform {
    laws: ScalingLaws,
    pricing: PricingModel,
    services: ServiceCatalog,
    cold_start: ColdStartModel,
}

/// One billed invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvocationRecord {
    /// Memory size it ran at.
    pub memory: MemorySize,
    /// Inner execution duration, ms.
    pub duration_ms: f64,
    /// Billed duration (rounded up to the billing increment), ms.
    pub billed_ms: f64,
    /// Cost of this invocation, USD.
    pub cost_usd: f64,
    /// Whether this invocation paid a cold start.
    pub cold_start: bool,
    /// Initialization time if cold, ms.
    pub init_ms: f64,
    /// Ground-truth resource usage.
    pub usage: ResourceUsage,
}

impl Platform {
    /// An AWS-Lambda-like platform.
    pub fn aws_like() -> Self {
        Platform {
            laws: ScalingLaws::aws_like(),
            pricing: PricingModel::aws(),
            services: ServiceCatalog::aws_like(),
            cold_start: ColdStartModel::aws_like(),
        }
    }

    /// A platform with custom components (for ablations and tests).
    pub fn new(
        laws: ScalingLaws,
        pricing: PricingModel,
        services: ServiceCatalog,
        cold_start: ColdStartModel,
    ) -> Self {
        Platform {
            laws,
            pricing,
            services,
            cold_start,
        }
    }

    /// The platform's scaling laws.
    pub fn laws(&self) -> &ScalingLaws {
        &self.laws
    }

    /// The platform's pricing model.
    pub fn pricing(&self) -> &PricingModel {
        &self.pricing
    }

    /// The platform's service catalog.
    pub fn services(&self) -> &ServiceCatalog {
        &self.services
    }

    /// The platform's cold-start model.
    pub fn cold_start_model(&self) -> &ColdStartModel {
        &self.cold_start
    }

    /// Works out everything about executing `profile` at `memory` that no
    /// draw changes, with this platform's scaling laws, services and
    /// cold-start model. Build a plan once per (profile, size) and pass it
    /// to [`Platform::invoke_planned`] for every invocation.
    pub fn plan(&self, profile: &ResourceProfile, memory: MemorySize) -> ExecutionPlan {
        ExecutionPlan::new(
            profile,
            memory,
            &self.laws,
            &self.services,
            &self.cold_start,
        )
    }

    /// Executes a profile at `memory` on a warm instance (builds an
    /// [`ExecutionPlan`] per call).
    pub fn execute(
        &self,
        profile: &ResourceProfile,
        memory: MemorySize,
        rng: &mut RngStream,
    ) -> ExecutionOutcome {
        self.plan(profile, memory).sample(false, rng)
    }

    /// The expected (noise-free) duration of a profile at `memory` — the
    /// evaluation oracle.
    pub fn expected_duration_ms(&self, profile: &ResourceProfile, memory: MemorySize) -> f64 {
        execution::expected_duration_ms(profile, memory, &self.laws, &self.services)
    }

    /// Expected cost per execution at `memory`, USD.
    pub fn expected_cost_usd(&self, profile: &ResourceProfile, memory: MemorySize) -> f64 {
        self.pricing
            .cost_usd(self.expected_duration_ms(profile, memory), memory)
    }

    /// Runs one invocation of `config`'s profile at `memory`, optionally
    /// cold, and bills it.
    ///
    /// It builds an [`ExecutionPlan`] per call, which costs more than the
    /// draws themselves; a caller that invokes the same (profile, size)
    /// repeatedly should build the plan once with [`Platform::plan`] and
    /// call [`Platform::invoke_planned`].
    pub fn invoke_unnamed_at(
        &self,
        config: &FunctionConfig,
        memory: MemorySize,
        cold: bool,
        rng: &mut RngStream,
    ) -> InvocationRecord {
        self.invoke_planned(&self.plan(config.profile(), memory), cold, rng)
    }

    /// Runs one invocation of a plan built by [`Platform::plan`],
    /// optionally cold, and bills it at the plan's memory size. Only the
    /// invocation's draws happen here.
    pub fn invoke_planned(
        &self,
        plan: &ExecutionPlan,
        cold: bool,
        rng: &mut RngStream,
    ) -> InvocationRecord {
        let outcome = plan.sample(cold, rng);
        let (billed_ms, cost_usd) = self.pricing.bill(outcome.duration_ms, plan.memory());
        InvocationRecord {
            memory: plan.memory(),
            duration_ms: outcome.duration_ms,
            billed_ms,
            cost_usd,
            cold_start: outcome.cold_start,
            init_ms: outcome.init_ms,
            usage: outcome.usage,
        }
    }
}

impl Default for Platform {
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
            .stage(Stage::cpu("w", 40.0))
            .build()
    }

    #[test]
    fn invoke_bills_consistently() {
        let p = Platform::aws_like();
        let plan = p.plan(&profile(), MemorySize::MB_512);
        let mut rng = RngStream::from_seed(1, "inv");
        let rec = p.invoke_planned(&plan, false, &mut rng);
        assert_eq!(rec.memory, MemorySize::MB_512);
        assert!(rec.billed_ms >= rec.duration_ms);
        assert!(rec.cost_usd > 0.0);
        assert!(!rec.cold_start);
        assert_eq!(rec.init_ms, 0.0);
    }

    #[test]
    fn cold_invocation_has_init_time() {
        let p = Platform::aws_like();
        let plan = p.plan(&profile(), MemorySize::MB_512);
        let mut rng = RngStream::from_seed(2, "inv-cold");
        let rec = p.invoke_planned(&plan, true, &mut rng);
        assert!(rec.cold_start);
        assert!(rec.init_ms > 100.0);
    }

    #[test]
    fn expected_cost_tracks_duration_and_memory() {
        let p = Platform::aws_like();
        let prof = profile();
        // For a CPU-bound function, 128→256 halves time at double rate: cost
        // roughly flat; 2048→3008 keeps time flat at a higher rate: cost up.
        let c2048 = p.expected_cost_usd(&prof, MemorySize::MB_2048);
        let c3008 = p.expected_cost_usd(&prof, MemorySize::MB_3008);
        assert!(c3008 > c2048);
    }
}
