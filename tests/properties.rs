//! Property-based tests of cross-crate invariants.

use proptest::prelude::*;
use sizeless::core::optimizer::{MemoryOptimizer, Tradeoff};
use sizeless::engine::RngStream;
use sizeless::platform::{MemorySize, Platform, PricingModel, ResourceProfile, Stage};
use std::collections::BTreeMap;

/// Strategy: one of the six standard sizes.
fn standard_size() -> impl Strategy<Value = MemorySize> {
    (0usize..6).prop_map(|i| MemorySize::STANDARD[i])
}

/// Strategy: a small, valid resource profile.
fn profile_strategy() -> impl Strategy<Value = ResourceProfile> {
    (
        0.0f64..500.0,  // cpu_ms
        1.0f64..4.0,    // parallelism
        0.0f64..4096.0, // io kb
        0.0f64..1024.0, // net kb
        0.0f64..80.0,   // working set
    )
        .prop_map(|(cpu, par, io, net, ws)| {
            ResourceProfile::builder("prop-fn")
                .stage(
                    Stage::cpu_parallel("cpu", cpu, par)
                        .with_working_set(ws),
                )
                .stage(Stage::file_io("io", io, io / 2.0))
                .stage(Stage::network("net", net, net / 4.0))
                .build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Expected execution time never increases with memory size.
    #[test]
    fn expected_duration_is_monotone_nonincreasing(profile in profile_strategy()) {
        let platform = Platform::aws_like();
        let mut prev = f64::INFINITY;
        for m in MemorySize::STANDARD {
            let d = platform.expected_duration_ms(&profile, m);
            prop_assert!(d > 0.0);
            prop_assert!(d <= prev * 1.0001, "duration rose at {m}: {d} > {prev}");
            prev = d;
        }
    }

    /// Billed cost is strictly positive, increases with memory for a fixed
    /// duration, and billed duration rounds up.
    #[test]
    fn pricing_invariants(duration in 0.1f64..60_000.0, m in standard_size()) {
        let p = PricingModel::aws();
        let billed = p.billed_ms(duration);
        prop_assert!(billed >= duration);
        prop_assert!(billed % p.billing_increment_ms == 0.0);
        prop_assert!(p.cost_usd(duration, m) > 0.0);
    }

    /// Simulated executions are deterministic per seed and positive.
    #[test]
    fn execution_is_deterministic(profile in profile_strategy(), seed in 0u64..1000, m in standard_size()) {
        let platform = Platform::aws_like();
        let mut r1 = RngStream::from_seed(seed, "prop-exec");
        let mut r2 = RngStream::from_seed(seed, "prop-exec");
        let a = platform.execute(&profile, m, &mut r1);
        let b = platform.execute(&profile, m, &mut r2);
        prop_assert_eq!(a, b);
        prop_assert!(a.duration_ms > 0.0);
        prop_assert!(a.usage.user_cpu_ms >= 0.0);
        prop_assert!(a.usage.heap_used_mb > 0.0);
    }

    /// Optimizer: S_cost and S_perf always have minimum exactly 1, the
    /// chosen size has the minimal S_total, and t=0/t=1 pick the pure
    /// optima.
    #[test]
    fn optimizer_score_invariants(
        times in proptest::collection::vec(1.0f64..10_000.0, 6),
        t in 0.0f64..=1.0,
    ) {
        let map: BTreeMap<MemorySize, f64> = MemorySize::STANDARD
            .iter()
            .copied()
            .zip(times.iter().copied())
            .collect();
        let opt = MemoryOptimizer::new(PricingModel::aws(), Tradeoff::new(t).unwrap());
        let out = opt.optimize_times(&map);

        let min_cost = out.scores.iter().map(|s| s.s_cost).fold(f64::INFINITY, f64::min);
        let min_perf = out.scores.iter().map(|s| s.s_perf).fold(f64::INFINITY, f64::min);
        prop_assert!((min_cost - 1.0).abs() < 1e-12);
        prop_assert!((min_perf - 1.0).abs() < 1e-12);

        let chosen_total = out.scores_for(out.chosen).s_total;
        for s in &out.scores {
            prop_assert!(chosen_total <= s.s_total + 1e-12);
        }
    }

    /// Tradeoff monotonicity: as t moves toward performance (smaller), the
    /// chosen size never shrinks for monotone-decreasing time profiles.
    #[test]
    fn tradeoff_monotonicity(scale in 10.0f64..5_000.0) {
        // A CPU-ish profile: halving times with a floor.
        let times: BTreeMap<MemorySize, f64> = MemorySize::STANDARD
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, (scale / (1 << i) as f64).max(scale / 40.0)))
            .collect();
        let mut prev_choice = MemorySize::MB_128;
        for t in [1.0, 0.75, 0.5, 0.25, 0.0] {
            let opt = MemoryOptimizer::new(PricingModel::aws(), Tradeoff::new(t).unwrap());
            let chosen = opt.optimize_times(&times).chosen;
            prop_assert!(chosen >= prev_choice, "t={t}: {chosen} < {prev_choice}");
            prev_choice = chosen;
        }
    }

    /// Memory validation accepts exactly the documented grid.
    #[test]
    fn memory_size_validation(mb in 0u32..5000) {
        let valid = (128..=3008).contains(&mb) && (mb % 64 == 0 || mb == 3008);
        prop_assert_eq!(MemorySize::new(mb).is_ok(), valid);
    }

    /// Monitored metric vectors are non-negative in every field.
    #[test]
    fn monitored_metrics_non_negative(profile in profile_strategy(), seed in 0u64..500) {
        use sizeless::telemetry::{Metric, ResourceMonitor};
        let platform = Platform::aws_like();
        let mut rng = RngStream::from_seed(seed, "prop-mon");
        let out = platform.execute(&profile, MemorySize::MB_512, &mut rng);
        let sample = ResourceMonitor::new().observe(0.0, &out.usage, &mut rng);
        for metric in Metric::ALL {
            prop_assert!(sample.value(metric) >= 0.0, "{} negative", metric);
        }
    }

    /// Cost at the billing optimum: halving duration while doubling memory
    /// never changes GB-s cost by more than the rounding granularity.
    #[test]
    fn gb_seconds_scale_invariance(duration in 200.0f64..5_000.0) {
        let p = PricingModel::aws_1ms();
        let c1 = p.cost_usd(duration, MemorySize::MB_512);
        let c2 = p.cost_usd(duration / 2.0, MemorySize::MB_1024);
        prop_assert!((c1 - c2).abs() / c1 < 0.02, "{c1} vs {c2}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The synthetic function generator never produces duplicate functions
    /// and always honours the segment-count bounds.
    #[test]
    fn generator_invariants(seed in 0u64..100) {
        use sizeless::funcgen::{FunctionGenerator, GeneratorConfig};
        let mut generator = FunctionGenerator::new(GeneratorConfig::default());
        let mut rng = RngStream::from_seed(seed, "prop-gen");
        let fns = generator.generate_many(30, &mut rng);
        let names: std::collections::BTreeSet<&str> =
            fns.iter().map(|f| f.profile.name()).collect();
        prop_assert_eq!(names.len(), 30);
        for f in &fns {
            prop_assert!((1..=5).contains(&f.segments.len()));
        }
    }
}

/// Strategy: a matrix shape plus enough random data to fill it. The data
/// pool is sized for the largest shape so the dims stay independent draws.
const DIM_MAX: usize = 12;

fn matrix_from_pool(rows: usize, cols: usize, pool: &[f64]) -> sizeless::neural::Matrix {
    sizeless::neural::Matrix::from_vec(rows, cols, pool[..rows * cols].to_vec())
}

/// The textbook triple loop — the bit-exactness reference the fused
/// kernels promise to reproduce (single ascending-k accumulator chain
/// per output element).
fn reference_matmul(
    a: &sizeless::neural::Matrix,
    b: &sizeless::neural::Matrix,
) -> sizeless::neural::Matrix {
    let mut out = sizeless::neural::Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut sum = 0.0;
            for k in 0..a.cols() {
                sum = a.get(i, k).mul_add(b.get(k, j), sum);
            }
            out.set(i, j, sum);
        }
    }
    out
}

fn assert_bits_eq(a: &sizeless::neural::Matrix, b: &sizeless::neural::Matrix) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{x} != {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `matmul_into` (register-tiled) is bit-identical to the naive
    /// triple loop over random shapes, including tile-remainder edges.
    #[test]
    fn matmul_into_matches_naive_reference(
        m in 1usize..DIM_MAX,
        n in 1usize..DIM_MAX,
        p in 1usize..DIM_MAX,
        a_pool in proptest::collection::vec(-100.0f64..100.0, DIM_MAX * DIM_MAX),
        b_pool in proptest::collection::vec(-100.0f64..100.0, DIM_MAX * DIM_MAX),
    ) {
        use sizeless::neural::Matrix;
        let a = matrix_from_pool(m, n, &a_pool);
        let b = matrix_from_pool(n, p, &b_pool);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out);
        assert_bits_eq(&out, &reference_matmul(&a, &b));
        // The allocating wrapper takes the same kernel path.
        assert_bits_eq(&a.matmul(&b), &reference_matmul(&a, &b));
    }

    /// `Aᵀ·B` without materializing the transpose is bit-identical to
    /// materializing it and multiplying naively.
    #[test]
    fn matmul_transpose_a_into_matches_naive_reference(
        m in 1usize..DIM_MAX,
        n in 1usize..DIM_MAX,
        p in 1usize..DIM_MAX,
        a_pool in proptest::collection::vec(-100.0f64..100.0, DIM_MAX * DIM_MAX),
        b_pool in proptest::collection::vec(-100.0f64..100.0, DIM_MAX * DIM_MAX),
    ) {
        use sizeless::neural::Matrix;
        let a = matrix_from_pool(m, n, &a_pool); // used as Aᵀ: (n×m)·(m×p)
        let b = matrix_from_pool(m, p, &b_pool);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_transpose_a_into(&b, &mut out);
        assert_bits_eq(&out, &reference_matmul(&a.transpose(), &b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Parallel grid search and cross-validation reproduce the serial
    /// result bit-for-bit over random seeds and datasets.
    #[test]
    fn parallel_search_is_bit_identical_over_random_seeds(seed in 0u64..1000) {
        use sizeless::neural::{
            cross_validate, grid_search, GridSpec, Loss, Matrix, NetworkConfig, OptimizerKind,
        };
        let mut rng = RngStream::from_seed(seed, "prop-par-grid");
        let n = 36;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.uniform(0.1, 1.0);
            xs.push(a);
            ys.push(2.0 * a + 0.1);
        }
        let x = Matrix::from_vec(n, 1, xs);
        let y = Matrix::from_vec(n, 1, ys);
        let spec = GridSpec {
            optimizers: vec![OptimizerKind::Adam { lr: 0.005 }],
            losses: vec![Loss::Mse],
            epochs: vec![8],
            neurons: vec![4, 8],
            l2s: vec![0.0],
            layers: vec![1],
        };
        let serial = grid_search(&x, &y, &spec, 3, seed, 1);
        let parallel = grid_search(&x, &y, &spec, 3, seed, 4);
        for (a, b) in serial.iter().zip(&parallel) {
            prop_assert_eq!(a.config, b.config);
            prop_assert_eq!(a.mse.to_bits(), b.mse.to_bits());
            prop_assert_eq!(a.mape.to_bits(), b.mape.to_bits());
        }

        let cfg = NetworkConfig {
            hidden_layers: 1,
            neurons: 6,
            loss: Loss::Mse,
            l2: 0.0,
            epochs: 10,
            batch_size: 8,
            ..NetworkConfig::default()
        };
        let cv_serial = cross_validate(&x, &y, &cfg, 3, 2, seed, 1);
        let cv_parallel = cross_validate(&x, &y, &cfg, 3, 2, seed, 3);
        prop_assert_eq!(cv_serial.mse.to_bits(), cv_parallel.mse.to_bits());
        prop_assert_eq!(cv_serial.mape.to_bits(), cv_parallel.mape.to_bits());
    }
}
