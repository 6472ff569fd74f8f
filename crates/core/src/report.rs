//! Operator-facing recommendation reports.
//!
//! The online phase ends with a [`Recommendation`]; this module renders it
//! as the kind of report a platform would surface to operators (compare the
//! AWS Compute Optimizer recommendations the paper cites as the VM-world
//! precedent): predicted times, per-size scores, the decision, and the
//! expected impact of switching from the current deployment.

use crate::service::Recommendation;
use sizeless_platform::MemorySize;
use std::fmt::Write as _;

/// Renders a plain-text report for a recommendation.
///
/// `current` is the size the function runs at today (the monitoring base);
/// the impact section compares the recommended size against it.
///
/// # Examples
///
/// See `examples/quickstart.rs` for an end-to-end flow producing a
/// [`Recommendation`].
pub fn render_report(recommendation: &Recommendation, current: MemorySize) -> String {
    let mut out = String::new();
    let chosen = recommendation.memory_size();
    let outcome = &recommendation.outcome;

    // Writing into a String is infallible: discard the fmt::Result
    // instead of asserting on it.
    let _ = writeln!(out, "Sizeless memory-size recommendation");
    let _ = writeln!(out, "===================================");
    let _ = writeln!(
        out,
        "monitored at {current}, tradeoff t = {:.2} ({} priority)",
        outcome.tradeoff,
        if outcome.tradeoff > 0.5 {
            "cost"
        } else if outcome.tradeoff < 0.5 {
            "performance"
        } else {
            "balanced"
        }
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>8}  {:>12}  {:>12}  {:>8}  {:>8}  {:>8}",
        "size", "time [ms]", "cost [µ$]", "S_cost", "S_perf", "S_total"
    );
    for s in &outcome.scores {
        let marker = if s.memory == chosen {
            "  <- recommended"
        } else if s.memory == current {
            "  (current)"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:>8}  {:>12.1}  {:>12.2}  {:>8.3}  {:>8.3}  {:>8.3}{}",
            s.memory.to_string(),
            s.time_ms,
            s.cost_usd * 1e6,
            s.s_cost,
            s.s_perf,
            s.s_total,
            marker
        );
    }

    let cur = outcome.scores_for(current);
    let new = outcome.scores_for(chosen);
    let speedup = (1.0 - new.time_ms / cur.time_ms) * 100.0;
    let cost_change = (new.cost_usd / cur.cost_usd - 1.0) * 100.0;
    let _ = writeln!(out);
    if chosen == current {
        let _ = writeln!(out, "verdict: keep the current size {current}.");
    } else {
        let _ = writeln!(
            out,
            "verdict: switch {current} -> {chosen}: {speedup:+.1}% execution time, \
             {cost_change:+.1}% cost per invocation (predicted).",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PredictedTimes;
    use crate::optimizer::{MemoryOptimizer, Tradeoff};
    use sizeless_platform::PricingModel;
    use std::collections::BTreeMap;

    fn recommendation() -> Recommendation {
        let times: BTreeMap<MemorySize, f64> = MemorySize::STANDARD
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, 3200.0 / (1 << i) as f64 + 40.0))
            .collect();
        let json = serde_json::json!({
            "base": 256,
            "times_ms": times
                .iter()
                .map(|(m, t)| (m.mb().to_string(), serde_json::json!(t)))
                .collect::<serde_json::Map<_, _>>(),
        });
        let predicted: PredictedTimes = serde_json::from_value(json).expect("valid shape");
        let optimizer = MemoryOptimizer::new(PricingModel::aws(), Tradeoff::COST_LEANING);
        let outcome = optimizer.optimize(&predicted);
        Recommendation { predicted, outcome }
    }

    #[test]
    fn report_contains_all_sizes_and_the_verdict() {
        let rec = recommendation();
        let report = render_report(&rec, MemorySize::MB_256);
        for m in MemorySize::STANDARD {
            assert!(report.contains(&m.to_string()), "missing {m}");
        }
        assert!(report.contains("<- recommended"));
        assert!(report.contains("(current)"));
        assert!(report.contains("verdict: switch 256MB ->"));
        assert!(report.contains("% execution time"));
    }

    #[test]
    fn keeping_the_current_size_is_reported_as_such() {
        let rec = recommendation();
        let chosen = rec.memory_size();
        let report = render_report(&rec, chosen);
        assert!(report.contains(&format!("verdict: keep the current size {chosen}")));
    }

    #[test]
    fn tradeoff_priority_is_described() {
        let rec = recommendation();
        let report = render_report(&rec, MemorySize::MB_256);
        assert!(report.contains("cost priority"));
    }
}
