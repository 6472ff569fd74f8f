//! Criterion benchmarks of the neural-network library: one training epoch
//! of the paper's Table-2 architecture, inference latency, and the
//! supporting matrix kernels. The paper notes the full model trains in
//! about three minutes — these benches verify our implementation is in the
//! same class.

use criterion::{criterion_main, Criterion};
use sizeless_engine::RngStream;
use sizeless_neural::{
    cross_validate, Loss, Matrix, NetworkConfig, NeuralNetwork, OptimizerKind, Scratch,
};

fn dataset(n: usize, dim: usize, targets: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = RngStream::from_seed(seed, "bench-nn-data");
    let x: Vec<f64> = (0..n * dim).map(|_| rng.standard_normal()).collect();
    let y: Vec<f64> = (0..n * targets).map(|_| rng.uniform(0.2, 1.5)).collect();
    (Matrix::from_vec(n, dim, x), Matrix::from_vec(n, targets, y))
}

fn bench_training_epoch(c: &mut Criterion) {
    // The paper's model: 11 features → 4×256 → 5 targets, batch 32.
    let (x, y) = dataset(512, 11, 5, 1);
    let cfg = NetworkConfig {
        epochs: 1,
        ..NetworkConfig::default()
    };
    c.bench_function("neural/train/one_epoch_table2_arch_512rows", |b| {
        b.iter(|| {
            let mut net = NeuralNetwork::new(11, 5, &cfg, 7);
            net.fit(&x, &y);
            net
        })
    });
}

fn bench_inference(c: &mut Criterion) {
    let (x, y) = dataset(256, 11, 5, 2);
    let cfg = NetworkConfig {
        epochs: 2,
        ..NetworkConfig::default()
    };
    let mut net = NeuralNetwork::new(11, 5, &cfg, 3);
    net.fit(&x, &y);
    let row = x.row(0).to_vec();
    c.bench_function("neural/predict/single_row", |b| {
        b.iter(|| net.predict_one(&row))
    });
    c.bench_function("neural/predict/batch_256", |b| b.iter(|| net.predict(&x)));
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = RngStream::from_seed(4, "bench-matmul");
    let a = Matrix::he_init(256, 256, &mut rng);
    let b_m = Matrix::he_init(256, 256, &mut rng);
    c.bench_function("neural/matrix/matmul_256x256", |bch| {
        bch.iter(|| a.matmul(&b_m))
    });

    // The fused kernels by size, with the output buffer reused the way the
    // training loop does it.
    let mut group = c.benchmark_group("neural/matrix");
    for &size in &[64usize, 128, 256] {
        let a = Matrix::he_init(size, size, &mut rng);
        let b = Matrix::he_init(size, size, &mut rng);
        let mut out = Matrix::zeros(0, 0);
        group.bench_function(format!("matmul_into_{size}x{size}"), |bch| {
            bch.iter(|| a.matmul_into(&b, &mut out))
        });
    }
    // The backward-pass shapes of the Table-2 architecture (batch 32).
    let x = Matrix::he_init(32, 256, &mut rng);
    let delta = Matrix::he_init(32, 256, &mut rng);
    let w = Matrix::he_init(256, 256, &mut rng);
    let mut out = Matrix::zeros(0, 0);
    group.bench_function("matmul_transpose_a_into_dw_256", |bch| {
        bch.iter(|| x.matmul_transpose_a_into(&delta, &mut out))
    });
    group.bench_function("matmul_transpose_b_into_grad_256", |bch| {
        bch.iter(|| delta.matmul_transpose_b_into(&w, &mut out))
    });
    // The backward pass stages Wᵀ of every hidden layer once per step.
    group.bench_function("transpose_into_256x256", |bch| {
        bch.iter(|| w.transpose_into(&mut out))
    });
    group.finish();
}

fn bench_single_train_step(c: &mut Criterion) {
    // Exactly one mini-batch step of the paper's Table-2 architecture:
    // 32 rows at batch size 32 for one epoch.
    let (x, y) = dataset(32, 11, 5, 7);
    let cfg = NetworkConfig {
        epochs: 1,
        ..NetworkConfig::default()
    };
    let mut scratch = Scratch::new();
    c.bench_function("neural/train/single_step_table2_arch_batch32", |b| {
        b.iter(|| {
            let mut net = NeuralNetwork::new(11, 5, &cfg, 9);
            net.fit_with(&x, &y, &mut scratch);
            net
        })
    });
}

fn bench_one_grid_point(c: &mut Criterion) {
    // One grid-search evaluation: 3-fold CV of a small configuration — the
    // unit of work the Table-2 search repeats 1296 times, each on a single
    // worker.
    let (x, y) = dataset(120, 11, 5, 8);
    let cfg = NetworkConfig {
        hidden_layers: 2,
        neurons: 64,
        loss: Loss::Mse,
        optimizer: OptimizerKind::Adam { lr: 0.001 },
        l2: 0.0001,
        epochs: 10,
        ..NetworkConfig::default()
    };
    c.bench_function("neural/grid/one_point_3fold_cv_10epochs", |b| {
        b.iter(|| cross_validate(&x, &y, &cfg, 3, 1, 5, 1))
    });
}

fn bench_losses(c: &mut Criterion) {
    let (_, y) = dataset(1024, 1, 5, 5);
    let (_, p) = dataset(1024, 1, 5, 6);
    let mut group = c.benchmark_group("neural/loss");
    for loss in Loss::ALL {
        group.bench_function(format!("{loss}/value+grad_1024x5"), |b| {
            b.iter(|| {
                let v = loss.value(&y, &p);
                let g = loss.gradient(&y, &p);
                (v, g)
            })
        });
    }
    group.finish();
}

// The macro-generated harness entry points carry no doc comments.
#[allow(missing_docs)]
mod harness {
    use super::{
        bench_inference, bench_losses, bench_matmul, bench_one_grid_point,
        bench_single_train_step, bench_training_epoch,
    };
    use criterion::criterion_group;
    criterion_group!(
        benches,
        bench_training_epoch,
        bench_inference,
        bench_matmul,
        bench_single_train_step,
        bench_one_grid_point,
        bench_losses
    );
}
criterion_main!(harness::benches);
