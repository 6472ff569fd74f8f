//! **Table 3** — MSE, MAPE, R², and explained variance per base memory
//! size, from repeated k-fold cross-validation.
//!
//! The paper runs ten iterations of five-fold cross-validation per base
//! size and selects **256 MB** as the default base size (best MSE,
//! second-best R²/ExpVar, good MAPE).

use serde::Serialize;
use sizeless_bench::{print_table, ExperimentContext};
use sizeless_core::features::FeatureSet;
use sizeless_core::model::evaluate_base_size;
use sizeless_platform::{MemorySize, Platform};

#[derive(Serialize)]
struct Tab3Row {
    base_mb: u32,
    mse: f64,
    mape: f64,
    r_squared: f64,
    explained_variance: f64,
}

fn main() {
    let ctx = ExperimentContext::from_args();
    let platform = Platform::aws_like();
    let ds = ctx.dataset(&platform);
    let net = ctx.network_config();
    let iterations = ((10.0 / ctx.scale) as usize).max(2);
    eprintln!(
        "[tab3] {iterations}×5-fold CV per base size on {} functions, {} epochs",
        ds.len(),
        net.epochs
    );

    let mut rows_out = Vec::new();
    for base in MemorySize::STANDARD {
        let report = evaluate_base_size(
            &ds,
            base,
            FeatureSet::F4,
            &net,
            5,
            iterations,
            ctx.seed.wrapping_add(base.mb() as u64),
            ctx.thread_count(),
        );
        rows_out.push(Tab3Row {
            base_mb: base.mb(),
            mse: report.mse,
            mape: report.mape,
            r_squared: report.r_squared,
            explained_variance: report.explained_variance,
        });
        eprintln!("  base {base}: done");
    }

    let rows: Vec<Vec<String>> = rows_out
        .iter()
        .map(|r| {
            vec![
                r.base_mb.to_string(),
                format!("{:.4}", r.mse),
                format!("{:.3}", r.mape),
                format!("{:.3}", r.r_squared),
                format!("{:.3}", r.explained_variance),
            ]
        })
        .collect();
    print_table(
        "Table 3: cross-validation per base size",
        &["Basesize", "MSE", "MAPE", "R^2", "ExpVar"],
        &rows,
    );

    let best_mse = rows_out
        .iter()
        .min_by(|a, b| a.mse.total_cmp(&b.mse))
        .expect("non-empty");
    println!(
        "\nBest-MSE base size here: {} MB (paper selects 256 MB on the same criterion; \
         paper values: MSE 0.003–0.015, MAPE 0.031–0.066, R² 0.954–0.986)",
        best_mse.base_mb
    );

    ctx.write_json("tab3_basesize_cv.json", &rows_out);
}
