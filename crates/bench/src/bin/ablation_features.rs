//! **Ablation** — feature sets F0 … F4: how much does each feature-
//! engineering round actually buy?
//!
//! The paper's Figure 4 motivates the pipeline; this ablation re-evaluates
//! the *final* model under every feature set with identical training
//! budgets. Expected: F2/F3/F4 (with per-second rates) clearly beat the raw
//! means F0/F1, and F4 matches F3 while needing only six monitored metrics.

use serde::Serialize;
use sizeless_bench::{print_table, ExperimentContext};
use sizeless_core::features::FeatureSet;
use sizeless_core::model::evaluate_base_size;
use sizeless_platform::{MemorySize, Platform};

#[derive(Serialize)]
struct FeatureSetScore {
    feature_set: String,
    dim: usize,
    required_metrics: usize,
    mse: f64,
    mape: f64,
    r_squared: f64,
}

fn main() {
    let ctx = ExperimentContext::from_args();
    let platform = Platform::aws_like();
    let ds = ctx.dataset(&platform);
    let net = ctx.network_config();
    let base = MemorySize::MB_256;

    let mut out = Vec::new();
    for set in FeatureSet::ALL {
        eprintln!("[ablation] evaluating {set:?}");
        let report = evaluate_base_size(&ds, base, set, &net, 5, 1, ctx.seed, ctx.thread_count());
        out.push(FeatureSetScore {
            feature_set: format!("{set:?}"),
            dim: set.dim(),
            required_metrics: set.required_metrics().len(),
            mse: report.mse,
            mape: report.mape,
            r_squared: report.r_squared,
        });
    }

    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|s| {
            vec![
                s.feature_set.clone(),
                s.dim.to_string(),
                s.required_metrics.to_string(),
                format!("{:.5}", s.mse),
                format!("{:.4}", s.mape),
                format!("{:.4}", s.r_squared),
            ]
        })
        .collect();
    print_table(
        "Ablation: feature sets (base 256 MB, 5-fold CV)",
        &["Set", "#features", "#metrics", "MSE", "MAPE", "R^2"],
        &rows,
    );
    println!(
        "\nPaper: relative features improve accuracy; the std/cv round adds little \
         accuracy but cuts the monitored metrics to six."
    );

    ctx.write_json("ablation_features.json", &out);
}
