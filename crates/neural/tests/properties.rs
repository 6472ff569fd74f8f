//! Property suite: [`Matrix::transpose_into`] and the single-row tile of
//! [`Matrix::matmul_into`] against their naive loops.
//!
//! The backward pass stages `Wᵀ` through `transpose_into`, which copies in
//! cache-sized tiles. Tiling only reorders the copies, so every shape must
//! give exactly the reference's matrix: shapes that are not multiples of the
//! tile, single rows and columns, and the Table-2 layer shapes, into an
//! output buffer still holding another shape's transpose.
//!
//! Every single-row prediction goes through the `1 × 32` tile of
//! `matmul_into`, whose last tile of a row may be narrower. Each output
//! element must still be one ascending-`k` fused-multiply-add chain, so
//! `1×n · n×p` products across the tile edges must match the triple loop
//! bit for bit.

use proptest::prelude::*;
use sizeless_engine::RngStream;
use sizeless_neural::Matrix;

/// The textbook double loop the tiled copy must reproduce.
fn reference_transpose(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), a.rows());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            out.set(c, r, a.get(r, c));
        }
    }
    out
}

/// A matrix whose every element is distinct, so a misplaced copy shows.
fn numbered(rows: usize, cols: usize, offset: f64) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|i| offset + i as f64).collect(),
    )
}

/// Transposes `a` into a buffer left over from transposing a
/// `prev_rows × prev_cols` matrix and compares it with the reference.
fn check(a: &Matrix, prev_rows: usize, prev_cols: usize) {
    let mut out = Matrix::zeros(0, 0);
    numbered(prev_rows, prev_cols, -1e6).transpose_into(&mut out);
    a.transpose_into(&mut out);
    let want = reference_transpose(a);
    assert_eq!((out.rows(), out.cols()), (want.rows(), want.cols()));
    for (i, (x, y)) in out.data().iter().zip(want.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "element {i} of the transpose of a {}x{} matrix",
            a.rows(),
            a.cols()
        );
    }
    assert_eq!(a.transpose(), want);
}

#[test]
fn edge_and_layer_shapes_match_the_naive_transpose() {
    let shapes = [
        (1, 1),
        (1, 256),
        (256, 1),
        (1, 7),
        (7, 1),
        (11, 256),
        (256, 11),
        (256, 256),
        (256, 5),
        (32, 256),
        (8, 8),
        (9, 8),
        (8, 9),
        (15, 17),
        (33, 31),
    ];
    for (rows, cols) in shapes {
        let a = numbered(rows, cols, 0.5);
        // A fresh buffer, a stale one of the same length but the swapped
        // shape (not re-zeroed by the resize), and a stale one of another
        // length.
        check(&a, 1, 1);
        check(&a, cols, rows);
        check(&a, rows + 3, cols + 1);
    }
}

/// The textbook triple loop, one fused-multiply-add chain per element in
/// ascending `k`.
fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut sum = 0.0f64;
            for k in 0..a.cols() {
                sum = a.get(i, k).mul_add(b.get(k, j), sum);
            }
            out.set(i, j, sum);
        }
    }
    out
}

/// A matrix of uniform values in `[-1, 1)`: mixed signs and magnitudes, so
/// any change in summation order changes the rounding.
fn random(rows: usize, cols: usize, rng: &mut RngStream) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.uniform(-1.0, 1.0)).collect(),
    )
}

#[test]
fn single_row_products_match_the_triple_loop_across_tile_edges() {
    let mut rng = RngStream::from_seed(3, "single-row-tile");
    for n in [1, 7, 31, 32, 33, 256] {
        for p in [5, 31, 32, 33, 64, 257] {
            // One row alone, and single rows left after the 8- and 4-row
            // tiles (3 = 1+1+1, 13 = 8+4+1).
            for m in [1, 3, 13] {
                let a = random(m, n, &mut rng);
                let b = random(n, p, &mut rng);
                // A stale output buffer of another shape.
                let mut out = numbered(p + 1, m + 2, -1e6);
                a.matmul_into(&b, &mut out);
                let want = reference_matmul(&a, &b);
                assert_eq!((out.rows(), out.cols()), (m, p));
                for (i, (x, y)) in out.data().iter().zip(want.data()).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "element {i} of {m}x{n} · {n}x{p}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn transpose_into_matches_the_naive_transpose(
        shape in (1usize..70, 1usize..70),
        prev in (0u32..2, 1usize..70, 1usize..70),
    ) {
        let (rows, cols) = shape;
        let a = numbered(rows, cols, 0.25);
        // Half the cases reuse a buffer of exactly the new length.
        let (prev_rows, prev_cols) = if prev.0 == 0 { (cols, rows) } else { (prev.1, prev.2) };
        check(&a, prev_rows, prev_cols);
    }
}
