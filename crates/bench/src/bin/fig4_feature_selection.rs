//! **Figure 4** — cross-validated MSE vs number of features for the three
//! sequential-forward-selection rounds.
//!
//! Round 1 selects among the 25 metric means (F0 → F1); round 2 adds the
//! per-second relative features (F2 → F3); round 3 adds standard deviations
//! and coefficients of variation (→ F4). The paper's observation: accuracy
//! improves until ~13 features in round 1, relative features help, and the
//! stats round gives only a slight further gain.

use serde::Serialize;
use sizeless_bench::{print_table, ExperimentContext};
use sizeless_core::dataset::TrainingDataset;
use sizeless_core::features::{sfs_candidates, FeatureDef, FeatureKind};
use sizeless_core::model::target_sizes;
use sizeless_neural::{forward_selection, Matrix, NetworkConfig};
use sizeless_platform::{MemorySize, Platform};
use sizeless_telemetry::Metric;

#[derive(Serialize)]
struct Round {
    name: String,
    feature_names: Vec<String>,
    mse_curve: Vec<f64>,
}

/// Builds the design matrix over an explicit feature list.
fn design(ds: &TrainingDataset, base: MemorySize, feats: &[FeatureDef]) -> (Matrix, Matrix) {
    let targets = target_sizes(base);
    let mut x = Vec::new();
    let mut y = Vec::new();
    for r in &ds.records {
        let mv = r.metrics_at(base);
        for f in feats {
            x.push(f.value(mv));
        }
        for &t in &targets {
            y.push(r.ratio(base, t));
        }
    }
    (
        Matrix::from_vec(ds.len(), feats.len(), x),
        Matrix::from_vec(ds.len(), targets.len(), y),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_round(
    name: &str,
    ds: &TrainingDataset,
    base: MemorySize,
    candidates: &[FeatureDef],
    max_features: usize,
    cfg: &NetworkConfig,
    seed: u64,
    threads: usize,
) -> Round {
    let (x, y) = design(ds, base, candidates);
    // Standardize once over the full candidate matrix: SFS compares subsets
    // of the same standardized columns.
    let (_, x) = sizeless_neural::StandardScaler::fit_transform(&x);
    let indices: Vec<usize> = (0..candidates.len()).collect();
    let result = forward_selection(&x, &y, &indices, cfg, 3, max_features, seed, threads);
    Round {
        name: name.to_string(),
        feature_names: result.order.iter().map(|&i| candidates[i].name()).collect(),
        mse_curve: result.mse_curve,
    }
}

fn main() {
    let ctx = ExperimentContext::from_args();
    let platform = Platform::aws_like();
    let ds = ctx.dataset(&platform);
    let base = MemorySize::MB_256;

    // SFS is O(candidates² × trainings): shrink both the dataset slice and
    // the probe network with --scale.
    let subset = ((ds.len() as f64 / ctx.scale.max(2.0) * 2.0) as usize)
        .clamp(120.min(ds.len()), ds.len());
    let ds_small = TrainingDataset {
        config: ds.config,
        records: ds.records[..subset].to_vec(),
    };
    let probe = NetworkConfig {
        epochs: ((200.0 / ctx.scale) as usize).max(25),
        ..NetworkConfig::feature_selection_baseline()
    };
    let max_features = ((20.0 / ctx.scale.sqrt()) as usize).max(8);
    eprintln!(
        "[fig4] SFS on {} functions, probe epochs {}, up to {max_features} features",
        ds_small.len(),
        probe.epochs
    );

    let all = sfs_candidates();
    let means: Vec<FeatureDef> = all
        .iter()
        .filter(|f| f.kind == FeatureKind::Mean)
        .copied()
        .collect();
    let means_and_rates: Vec<FeatureDef> = all
        .iter()
        .filter(|f| matches!(f.kind, FeatureKind::Mean | FeatureKind::PerSecond))
        .copied()
        .collect();

    let rounds = vec![
        run_round(
            "Round 1 (means, F0)",
            &ds_small,
            base,
            &means,
            max_features,
            &probe,
            ctx.seed,
            ctx.thread_count(),
        ),
        run_round(
            "Round 2 (+ per-second rates, F2)",
            &ds_small,
            base,
            &means_and_rates,
            max_features,
            &probe,
            ctx.seed + 1,
            ctx.thread_count(),
        ),
        run_round(
            "Round 3 (+ std/cv, F4 candidates)",
            &ds_small,
            base,
            &all,
            max_features,
            &probe,
            ctx.seed + 2,
            ctx.thread_count(),
        ),
    ];

    for r in &rounds {
        let rows: Vec<Vec<String>> = r
            .feature_names
            .iter()
            .zip(&r.mse_curve)
            .enumerate()
            .map(|(i, (n, m))| vec![(i + 1).to_string(), n.clone(), format!("{m:.5}")])
            .collect();
        print_table(
            &format!("Figure 4: {}", r.name),
            &["#features", "added feature", "CV MSE"],
            &rows,
        );
    }

    // Paper's qualitative claims.
    let best = |r: &Round| {
        r.mse_curve
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
    };
    println!("\nBest MSE per round (paper: each round improves, round 3 only slightly):");
    for r in &rounds {
        println!("  {}: {:.5}", r.name, best(r));
    }
    let cpu_rate_rank = rounds[1]
        .feature_names
        .iter()
        .position(|n| n == "user_cpu_time/s");
    println!(
        "user_cpu_time/s selected at position {:?} in round 2 (paper: CPU \
         utilization is the most impactful feature)",
        cpu_rate_rank.map(|p| p + 1)
    );
    let _ = Metric::UserCpuTime; // (metric names appear in the JSON too)

    ctx.write_json("fig4_feature_selection.json", &rounds);
}
