//! **Table 2** — hyperparameter grid search.
//!
//! The paper's grid: optimizer {SGD, Adam, Adagrad} × loss {MSE, MAE, MAPE}
//! × epochs {200, 500, 1000} × neurons {64, 128, 256} × L2 {0, 1e-4, 1e-3,
//! 1e-2} × layers {2, 3, 4, 5} = 1296 configurations, each scored by
//! cross-validation; the winner is Adam / MAPE / 200 epochs / 256 neurons /
//! L2 = 0.01 / 4 layers.
//!
//! At `--scale 1` the full 1296-point grid runs (hours); at the default
//! scale a reduced grid demonstrates the machinery and reports the winner.

use serde::Serialize;
use sizeless_bench::{print_table, ExperimentContext};
use sizeless_core::dataset::TrainingDataset;
use sizeless_core::features::FeatureSet;
use sizeless_core::model::design_matrices;
use sizeless_neural::{grid_search, GridSpec, StandardScaler};
use sizeless_platform::{MemorySize, Platform};

#[derive(Serialize)]
struct Tab2Result {
    grid_points: usize,
    best: BestConfig,
    top10: Vec<BestConfig>,
}

#[derive(Serialize, Clone)]
struct BestConfig {
    optimizer: String,
    loss: String,
    epochs: usize,
    neurons: usize,
    l2: f64,
    layers: usize,
    cv_mse: f64,
    cv_mape: f64,
}

fn main() {
    let ctx = ExperimentContext::from_args();
    let platform = Platform::aws_like();
    let ds = ctx.dataset(&platform);

    let spec = if ctx.scale <= 1.5 {
        GridSpec::paper()
    } else {
        GridSpec::reduced()
    };
    // Grid search over a dataset slice keeps the demo tractable.
    let subset = ((ds.len() as f64 / ctx.scale.max(2.0) * 2.5) as usize)
        .clamp(120.min(ds.len()), ds.len());
    let ds_small = TrainingDataset {
        config: ds.config,
        records: ds.records[..subset].to_vec(),
    };
    eprintln!(
        "[tab2] grid of {} points on {} functions across {} threads",
        spec.len(),
        ds_small.len(),
        ctx.thread_count()
    );

    let (x_raw, y) = design_matrices(&ds_small, MemorySize::MB_256, FeatureSet::F4);
    let (_, x) = StandardScaler::fit_transform(&x_raw);
    let search_start = std::time::Instant::now();
    let points = grid_search(&x, &y, &spec, 3, ctx.seed, ctx.thread_count());
    eprintln!("[tab2] grid search took {:.2?}", search_start.elapsed());

    let to_best = |p: &sizeless_neural::GridPoint| BestConfig {
        optimizer: p.config.optimizer.to_string(),
        loss: p.config.loss.to_string(),
        epochs: p.config.epochs,
        neurons: p.config.neurons,
        l2: p.config.l2,
        layers: p.config.hidden_layers,
        cv_mse: p.mse,
        cv_mape: p.mape,
    };

    let top10: Vec<BestConfig> = points.iter().take(10).map(to_best).collect();
    let rows: Vec<Vec<String>> = top10
        .iter()
        .map(|b| {
            vec![
                b.optimizer.clone(),
                b.loss.clone(),
                b.epochs.to_string(),
                b.neurons.to_string(),
                format!("{}", b.l2),
                b.layers.to_string(),
                format!("{:.5}", b.cv_mse),
                format!("{:.4}", b.cv_mape),
            ]
        })
        .collect();
    print_table(
        "Table 2: grid search (top 10 by CV MSE)",
        &["Optimizer", "Loss", "Epochs", "Neurons", "L2", "Layers", "MSE", "MAPE"],
        &rows,
    );
    println!(
        "\nPaper's selected configuration: Adam / MAPE / 200 epochs / 256 neurons / \
         L2=0.01 / 4 layers"
    );

    ctx.write_json(
        "tab2_hyperparams.json",
        &Tab2Result {
            grid_points: points.len(),
            best: top10[0].clone(),
            top10,
        },
    );
}
