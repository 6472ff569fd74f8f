//! The serverless pricing model.
//!
//! Cost per execution = `billed_seconds × memory_GB × gb_second_price +
//! per_request_charge`, with the billed duration rounded **up** to the
//! billing increment (100 ms on AWS at the time of the paper). The paper's
//! Section 2 example — 3 s at 512 MB costing $0.0000252 — is reproduced in
//! the tests below.

use crate::memory::MemorySize;
use serde::{Deserialize, Serialize};

/// A GB-second + per-request pricing model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PricingModel {
    /// Price per GB-second of compute, in USD ($0.00001667 on AWS).
    pub gb_second_usd: f64,
    /// Static per-request charge, in USD ($0.0000002 on AWS).
    pub per_request_usd: f64,
    /// Billing granularity in milliseconds (100 ms on AWS pre-2021).
    pub billing_increment_ms: f64,
}

impl PricingModel {
    /// AWS Lambda's published prices at the time of the paper.
    pub fn aws() -> Self {
        PricingModel {
            gb_second_usd: 0.000_016_67,
            per_request_usd: 0.000_000_2,
            billing_increment_ms: 100.0,
        }
    }

    /// A 1 ms-granularity variant (AWS moved to this in Dec 2020); used by
    /// ablation benches to study how billing granularity shifts the optimum.
    pub fn aws_1ms() -> Self {
        PricingModel {
            billing_increment_ms: 1.0,
            ..Self::aws()
        }
    }

    /// The billed duration for a raw execution duration, rounded up to the
    /// billing increment. Zero-duration executions still bill one increment.
    pub fn billed_ms(&self, duration_ms: f64) -> f64 {
        debug_assert!(duration_ms >= 0.0);
        let increments = (duration_ms / self.billing_increment_ms).ceil().max(1.0);
        increments * self.billing_increment_ms
    }

    /// The cost in USD of one execution of `duration_ms` at size `memory`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sizeless_platform::{MemorySize, PricingModel};
    ///
    /// // The paper's example: 3 s at 512 MB → $0.0000252.
    /// let cost = PricingModel::aws().cost_usd(3000.0, MemorySize::MB_512);
    /// assert!((cost - 0.0000252).abs() < 1e-8);
    /// ```
    pub fn cost_usd(&self, duration_ms: f64, memory: MemorySize) -> f64 {
        self.bill(duration_ms, memory).1
    }

    /// Bills one execution of `duration_ms` at size `memory`: the billed
    /// duration, ms, and the cost, USD — [`PricingModel::billed_ms`] and
    /// [`PricingModel::cost_usd`] in one call.
    pub fn bill(&self, duration_ms: f64, memory: MemorySize) -> (f64, f64) {
        let billed_ms = self.billed_ms(duration_ms);
        let cost_usd = billed_ms / 1000.0 * memory.gb() * self.gb_second_usd + self.per_request_usd;
        (billed_ms, cost_usd)
    }

    /// Cost in cents (the unit of the paper's Figure 1 axes).
    pub fn cost_cents(&self, duration_ms: f64, memory: MemorySize) -> f64 {
        self.cost_usd(duration_ms, memory) * 100.0
    }
}

impl Default for PricingModel {
    fn default() -> Self {
        Self::aws()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_cost() {
        // 3 s · 0.5 GB · $0.00001667 + $0.0000002 = $0.0000252.
        // Exact: 0.000025205; the paper reports the rounded 0.0000252.
        let cost = PricingModel::aws().cost_usd(3000.0, MemorySize::MB_512);
        assert!((cost - 0.000_025_2).abs() < 1e-8, "cost={cost}");
    }

    #[test]
    fn static_charge_fraction_matches_paper() {
        // The paper notes the static charge is 0.7% of that total.
        let p = PricingModel::aws();
        let cost = p.cost_usd(3000.0, MemorySize::MB_512);
        let frac = p.per_request_usd / cost;
        assert!((frac - 0.008).abs() < 0.002, "frac={frac}");
    }

    #[test]
    fn billed_duration_rounds_up() {
        let p = PricingModel::aws();
        assert_eq!(p.billed_ms(1.0), 100.0);
        assert_eq!(p.billed_ms(100.0), 100.0);
        assert_eq!(p.billed_ms(100.1), 200.0);
        assert_eq!(p.billed_ms(0.0), 100.0);
    }

    #[test]
    fn bill_pairs_billed_duration_with_cost() {
        let p = PricingModel::aws();
        for d in [0.0, 1.0, 99.9, 100.0, 100.1, 2345.6] {
            let (billed, cost) = p.bill(d, MemorySize::MB_512);
            assert_eq!(billed.to_bits(), p.billed_ms(d).to_bits());
            assert_eq!(cost.to_bits(), p.cost_usd(d, MemorySize::MB_512).to_bits());
        }
        // A 20 ms and a 60 ms execution both bill one 100 ms increment,
        // and the per-request fee is charged once.
        assert_eq!(
            p.bill(20.0, MemorySize::MB_1024),
            p.bill(60.0, MemorySize::MB_1024)
        );
        let (_, cost) = p.bill(60.0, MemorySize::MB_1024);
        assert_eq!(cost, 0.1 * 1.0 * p.gb_second_usd + p.per_request_usd);
    }

    #[test]
    fn one_ms_granularity() {
        let p = PricingModel::aws_1ms();
        assert_eq!(p.billed_ms(42.3), 43.0);
    }

    #[test]
    fn cost_monotone_in_memory_for_fixed_duration() {
        let p = PricingModel::aws();
        let mut prev = 0.0;
        for m in MemorySize::STANDARD {
            let c = p.cost_usd(500.0, m);
            assert!(c > prev);
            prev = c;
        }
    }

    #[test]
    fn cents_conversion() {
        let p = PricingModel::aws();
        let usd = p.cost_usd(1000.0, MemorySize::MB_1024);
        assert!((p.cost_cents(1000.0, MemorySize::MB_1024) - usd * 100.0).abs() < 1e-15);
    }

    #[test]
    fn halving_time_while_doubling_memory_is_nearly_cost_neutral() {
        // The fundamental tradeoff of Section 2: GB-s cost stays constant if
        // execution time halves when memory doubles; only the rounding and
        // static charge differ.
        let p = PricingModel::aws_1ms();
        let c1 = p.cost_usd(1000.0, MemorySize::MB_256);
        let c2 = p.cost_usd(500.0, MemorySize::MB_512);
        assert!((c1 - c2).abs() / c1 < 0.01);
    }
}
