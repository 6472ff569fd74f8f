//! Developer profiling harness (ignored by default): wall-clock breakdown
//! of the grid-search unit of work per architecture. Run with
//! `cargo test --release -p sizeless_neural --test profile -- --ignored --nocapture`.

use sizeless_engine::RngStream;
use sizeless_neural::{Loss, Matrix, NetworkConfig, NeuralNetwork, OptimizerKind, Scratch};

#[test]
#[ignore = "profiling tool, not a correctness test"]
fn profile_grid_unit_of_work() {
    let mut rng = RngStream::from_seed(1, "profile-data");
    let n = 133;
    let x = Matrix::from_vec(n, 11, (0..n * 11).map(|_| rng.standard_normal()).collect());
    let y = Matrix::from_vec(n, 5, (0..n * 5).map(|_| rng.uniform(0.2, 1.5)).collect());

    for (neurons, layers, optimizer) in [
        (64usize, 2usize, OptimizerKind::Adam { lr: 0.001 }),
        (64, 4, OptimizerKind::Adam { lr: 0.001 }),
        (128, 2, OptimizerKind::Adam { lr: 0.001 }),
        (128, 4, OptimizerKind::Adam { lr: 0.001 }),
        (128, 4, OptimizerKind::Sgd { lr: 0.01 }),
        (128, 4, OptimizerKind::Adagrad { lr: 0.01 }),
    ] {
        let cfg = NetworkConfig {
            hidden_layers: layers,
            neurons,
            loss: Loss::Mse,
            optimizer,
            l2: 0.01,
            epochs: 100,
            batch_size: 32,
            ..NetworkConfig::default()
        };
        let t0 = std::time::Instant::now();
        let net = NeuralNetwork::new(11, 5, &cfg, 7);
        let init = t0.elapsed();
        let mut net = net;
        let mut scratch = Scratch::new();
        let t1 = std::time::Instant::now();
        net.fit_with(&x, &y, &mut scratch);
        let fit = t1.elapsed();
        let t2 = std::time::Instant::now();
        let _ = net.predict(&x);
        let predict = t2.elapsed();
        println!(
            "{neurons:>4}n x {layers} layers {optimizer:<12}: init {init:>9.2?}  fit(100ep) {fit:>9.2?}  predict {predict:>9.2?}",
            optimizer = format!("{optimizer}"),
        );
    }
}
