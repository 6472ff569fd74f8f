//! **Table 8** — cost savings and speedup from switching each function to
//! the memory size recommended by the approach, per application and
//! tradeoff.
//!
//! Baseline: the **128 MB default deployment** — the paper's motivation
//! notes that 47% of production functions still run at the default size, so
//! the benefit of adopting Sizeless is measured from there: functions are
//! monitored at their default size and switched to the recommendation.
//! Paper (t = 0.75): +2.6% cost savings with 39.7% speedup over all
//! applications; t = 0.5 → −12.0% / 46.7%; t = 0.25 → −31.3% / 52.5%.

use serde::Serialize;
use sizeless_bench::{print_table, ExperimentContext};
use sizeless_core::optimizer::{MemoryOptimizer, Tradeoff};
use sizeless_platform::{MemorySize, Platform};

#[derive(Serialize)]
struct BenefitRow {
    app: String,
    tradeoff: f64,
    cost_savings: f64,
    speedup: f64,
}

fn main() {
    let ctx = ExperimentContext::from_args();
    let platform = Platform::aws_like();
    let ds = ctx.dataset(&platform);
    let base = MemorySize::MB_128;
    let model = ctx.model_for_base(&ds, base);
    let apps = ctx.app_measurements(&platform);

    let tradeoffs = [0.75, 0.5, 0.25];
    let mut out: Vec<BenefitRow> = Vec::new();

    for &t in &tradeoffs {
        let optimizer =
            MemoryOptimizer::new(*platform.pricing(), Tradeoff::new(t).expect("valid"));
        for (app, measurement) in &apps {
            // Average the per-function relative changes (the paper reports
            // "average percentage cost savings and execution time speedup").
            let mut cost_savings = 0.0;
            let mut speedup = 0.0;
            for f in &measurement.functions {
                let predicted = model.predict(f.metrics_at(base));
                let chosen = optimizer.optimize(&predicted).chosen;
                let base_time = f.execution_ms_at(base);
                let base_cost = f.cost_usd_at(base);
                let new_time = f.execution_ms_at(chosen);
                let new_cost = f.cost_usd_at(chosen);
                cost_savings += 1.0 - new_cost / base_cost;
                speedup += 1.0 - new_time / base_time;
            }
            let n = measurement.functions.len() as f64;
            out.push(BenefitRow {
                app: app.name().to_string(),
                tradeoff: t,
                cost_savings: cost_savings / n,
                speedup: speedup / n,
            });
        }
        // "All Applications" is the mean of the four per-app means (−22.8 / 38.2 % at
        // t = 0.75, --scale 5 --seed 0), not of all 27 functions (−21.9 / 38.7 %).
        let rows_t: Vec<&BenefitRow> = out.iter().filter(|r| r.tradeoff == t).collect();
        let all_cost = rows_t.iter().map(|r| r.cost_savings).sum::<f64>() / rows_t.len() as f64;
        let all_speed = rows_t.iter().map(|r| r.speedup).sum::<f64>() / rows_t.len() as f64;
        out.push(BenefitRow {
            app: "All Applications".to_string(),
            tradeoff: t,
            cost_savings: all_cost,
            speedup: all_speed,
        });
    }

    // Render the paper's layout: one row per app, cost/speedup per tradeoff.
    let apps_order: Vec<String> = apps
        .iter()
        .map(|(a, _)| a.name().to_string())
        .chain(std::iter::once("All Applications".to_string()))
        .collect();
    let rows: Vec<Vec<String>> = apps_order
        .iter()
        .map(|name| {
            let mut row = vec![name.clone()];
            for &t in &tradeoffs {
                let r = out
                    .iter()
                    .find(|r| &r.app == name && r.tradeoff == t)
                    .expect("computed above");
                row.push(format!("{:.1}%", r.cost_savings * 100.0));
                row.push(format!("{:.1}%", r.speedup * 100.0));
            }
            row
        })
        .collect();
    print_table(
        "Table 8: cost savings and speedup vs the 128 MB default deployment",
        &[
            "Application",
            "t=0.75 cost",
            "t=0.75 speedup",
            "t=0.5 cost",
            "t=0.5 speedup",
            "t=0.25 cost",
            "t=0.25 speedup",
        ],
        &rows,
    );

    println!(
        "\nPaper (All Applications): t=0.75 → 2.6% savings / 39.7% speedup; \
         t=0.5 → −12.0% / 46.7%; t=0.25 → −31.3% / 52.5%."
    );
    println!(
        "Expected shape: speedup grows and cost savings shrink as t moves from 0.75 to 0.25."
    );

    ctx.write_json("tab8_benefits.json", &out);
}
