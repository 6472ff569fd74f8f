//! A minimal row-major matrix.
//!
//! Only the operations the training loop needs, implemented on a flat
//! `Vec<f64>` with cache-friendly loops. No BLAS, no unsafe.
//!
//! # Fused, allocation-free kernels
//!
//! The training hot path goes through the `*_into` kernels —
//! [`Matrix::matmul_into`] and [`Matrix::matmul_transpose_a_into`] (`Aᵀ·B`
//! without materializing `Aᵀ`) — which write into a caller-owned output
//! matrix whose allocation is reused across calls. Both use register-tiled
//! microkernels (up to `MR2 × NR` = 8×8 accumulators held in
//! registers) so the active slice of the right-hand operand (`n × NR × 8`
//! bytes per column chunk) stays L1-resident while the inner loop streams
//! over `k`.
//!
//! Every kernel accumulates each output element as a single chain of adds
//! in ascending-`k` order — exactly the order of the textbook triple loop —
//! so the fused kernels are **bit-identical** to the naive reference (a
//! property-tested guarantee; see `tests/properties.rs`).

use serde::{Deserialize, Serialize};
use sizeless_engine::RngStream;

/// Rows of `A` processed per microkernel tile (remainder tile).
const MR: usize = 4;
/// Rows of `A` processed per wide microkernel tile: 8 rows × NR columns of
/// independent FMA chains fully hide the FMA latency.
const MR2: usize = 8;
/// Output columns processed per microkernel tile (two AVX2 lanes of f64,
/// one AVX-512 lane; `n × NR` doubles of the B operand stay L1-resident).
const NR: usize = 8;
/// Output columns of the single-row tile of [`Matrix::matmul_into`]: with
/// one row of `A` there is no row reuse, so 4·NR independent column chains
/// are what hide the FMA latency.
const NR1: usize = 4 * NR;
/// Side of the square tiles [`Matrix::transpose_into`] copies through.
const TB: usize = 16;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        // lint: allow(panic003) reason="non-empty asserted on the line above"
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape does not match data length");
        Matrix { rows, cols, data }
    }

    /// He-initialized random matrix (for ReLU layers).
    pub fn he_init(rows: usize, cols: usize, rng: &mut RngStream) -> Self {
        let std = (2.0 / rows as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.standard_normal() * std)
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Extracts column `c` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Builds a new matrix from a subset of rows.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.data[i * self.cols..(i + 1) * self.cols].copy_from_slice(self.row(r));
        }
        out
    }

    /// Copies a subset of rows into `out`, reusing its allocation.
    ///
    /// The allocation-free counterpart of [`Matrix::select_rows`] used by
    /// the mini-batch training loop.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        for &r in indices {
            out.data.extend_from_slice(self.row(r));
        }
    }

    /// Builds a new matrix from a subset of columns.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_columns(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            for (j, &c) in indices.iter().enumerate() {
                out.set(r, j, self.get(r, c));
            }
        }
        out
    }

    /// Reshapes for a kernel that fully overwrites every element: reuses
    /// the allocation and skips the zero-fill (old values may briefly
    /// persist but are never read). This is the entry point every `*_into`
    /// kernel uses to size its output — after the first call at a given
    /// shape it neither allocates nor touches memory it won't overwrite.
    pub(crate) fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        if self.data.len() != rows * cols {
            self.data.clear();
            self.data.resize(rows * cols, 0.0);
        }
    }

    /// Matrix product `self × other`.
    ///
    /// Allocates the output; the hot path uses [`Matrix::matmul_into`].
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `out = self × other`, allocation-free after warmup.
    ///
    /// `out` is reshaped (reusing its allocation) and fully overwritten.
    /// Accumulation per output element is a single ascending-`k` chain, so
    /// the result is bit-identical to the textbook triple loop. NaN and Inf
    /// propagate through zero operands per IEEE 754 (`0 × NaN = NaN`).
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    ///
    /// # Examples
    ///
    /// ```
    /// use sizeless_neural::Matrix;
    ///
    /// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
    /// let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
    /// let mut out = Matrix::zeros(0, 0); // reused across calls
    /// a.matmul_into(&b, &mut out);
    /// assert_eq!(out, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    /// ```
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch ({}x{} × {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, n, p) = (self.rows, self.cols, other.cols);
        out.resize_for_overwrite(m, p);
        let b = &other.data;
        // Register tiles of MR2 (then MR) rows × NR columns, then 1 row ×
        // NR1 columns: many independent ascending-k accumulator chains hide
        // the FMA latency without changing the summation order of any
        // single element.
        let mut i = 0;
        while i + MR2 <= m {
            let a_rows: [&[f64]; MR2] =
                std::array::from_fn(|r| &self.data[(i + r) * n..(i + r + 1) * n]);
            mm_block(&a_rows, b, &mut out.data, i, n, p);
            i += MR2;
        }
        while i + MR <= m {
            let a_rows: [&[f64]; MR] =
                std::array::from_fn(|r| &self.data[(i + r) * n..(i + r + 1) * n]);
            mm_block(&a_rows, b, &mut out.data, i, n, p);
            i += MR;
        }
        while i < m {
            mm_row(
                &self.data[i * n..(i + 1) * n],
                b,
                &mut out.data[i * p..(i + 1) * p],
            );
            i += 1;
        }
    }

    /// Fused `out = selfᵀ × other` without materializing the transpose.
    ///
    /// `self` is `m × n`, `other` is `m × p`, `out` becomes `n × p`. Both
    /// operands are read row-wise (contiguously); the result is
    /// bit-identical to `self.transpose().matmul(other)`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts disagree.
    ///
    /// # Examples
    ///
    /// ```
    /// use sizeless_neural::Matrix;
    ///
    /// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
    /// let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
    /// let mut out = Matrix::zeros(0, 0);
    /// a.matmul_transpose_a_into(&b, &mut out); // Aᵀ·B
    /// assert_eq!(out, a.transpose().matmul(&b));
    /// ```
    pub fn matmul_transpose_a_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_transpose_a dimension mismatch ({}x{})ᵀ × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (depth, n, p) = (self.rows, self.cols, other.cols);
        out.resize_for_overwrite(n, p);
        // A[k][i..i+R] is contiguous: the transpose is never formed, yet
        // every load walks forward in memory.
        let mut i = 0;
        while i + MR2 <= n {
            mm_t_a_block::<MR2>(&self.data, &other.data, &mut out.data, i, depth, n, p);
            i += MR2;
        }
        while i + MR <= n {
            mm_t_a_block::<MR>(&self.data, &other.data, &mut out.data, i, depth, n, p);
            i += MR;
        }
        while i < n {
            mm_t_a_block::<1>(&self.data, &other.data, &mut out.data, i, depth, n, p);
            i += 1;
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a reusable buffer (allocation-free after warmup).
    ///
    /// The backward pass uses this to stage `Wᵀ` in scratch once per
    /// layer per batch: the FMA-vectorized [`Matrix::matmul_into`] on the
    /// staged transpose outpaces the gather-bound `A·Bᵀ` dot-product form
    /// for the training shapes, and the result is bit-identical.
    ///
    /// The copy runs in `TB`×`TB` tiles: a column-order write at a
    /// row-length stride would touch a new cache line per element and keep
    /// evicting its own lines, while one tile's source and destination rows
    /// stay L1-resident until the tile is done.
    pub fn transpose_into(&self, out: &mut Matrix) {
        let (rows, cols) = (self.rows, self.cols);
        out.resize_for_overwrite(cols, rows);
        for r0 in (0..rows).step_by(TB) {
            let r1 = (r0 + TB).min(rows);
            for c0 in (0..cols).step_by(TB) {
                let c1 = (c0 + TB).min(cols);
                for c in c0..c1 {
                    let dst = &mut out.data[c * rows + r0..c * rows + r1];
                    for (d, r) in dst.iter_mut().zip(r0..r1) {
                        *d = self.data[r * cols + c];
                    }
                }
            }
        }
    }

    /// Adds a row vector to every row (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_row_broadcast(&mut self, bias: &[f64]) {
        assert_eq!(bias.len(), self.cols, "bias length must match columns");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise product in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard_inplace(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "hadamard shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Column sums (used for bias gradients).
    pub fn column_sums(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.column_sums_into(&mut out);
        out
    }

    /// Column sums written into a reusable buffer.
    pub fn column_sums_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for row in self.data.chunks_exact(self.cols) {
            for (acc, x) in out.iter_mut().zip(row) {
                *acc += x;
            }
        }
    }

    /// `self += other * scale`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f64) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_scaled shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b * scale;
        }
    }

    /// Vertically stacks two matrices.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }
}


/// The `R × NR` microkernel of [`Matrix::matmul_into`]: computes output
/// rows `i..i+R` from `R` row slices of `A` and the flat data of `B`
/// (`n × p`). Each output element is one ascending-`k` fused-multiply-add
/// chain; `R` chains per column run independently for ILP.
#[inline]
fn mm_block<const R: usize>(
    a_rows: &[&[f64]; R],
    b: &[f64],
    out: &mut [f64],
    i: usize,
    n: usize,
    p: usize,
) {
    let mut jb = 0;
    while jb + NR <= p {
        let mut acc = [[0.0f64; NR]; R];
        for k in 0..n {
            let b_row: &[f64; NR] = b[k * p + jb..k * p + jb + NR]
                .try_into()
                // lint: allow(panic002) reason="the while condition guarantees jb + NR <= p, so the slice is exactly NR long"
                .expect("NR-sized chunk");
            for (acc_r, a_r) in acc.iter_mut().zip(a_rows) {
                let x = a_r[k];
                for (o, &bv) in acc_r.iter_mut().zip(b_row) {
                    *o = x.mul_add(bv, *o);
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            out[(i + r) * p + jb..(i + r) * p + jb + NR].copy_from_slice(acc_r);
        }
        jb += NR;
    }
    for j in jb..p {
        let mut acc = [0.0f64; R];
        for k in 0..n {
            let bv = b[k * p + j];
            for (o, a_r) in acc.iter_mut().zip(a_rows) {
                *o = a_r[k].mul_add(bv, *o);
            }
        }
        for (r, &v) in acc.iter().enumerate() {
            out[(i + r) * p + j] = v;
        }
    }
}

/// The `1 × NR1` microkernel of [`Matrix::matmul_into`]: computes one
/// output row from one row of `A` and the flat data of `B` (`n × p`), each
/// element one ascending-`k` fused-multiply-add chain like [`mm_block`]'s.
/// The last tile of a row narrower than `NR1` keeps its accumulators in
/// memory, which still runs its chains side by side.
#[inline]
fn mm_row(a_row: &[f64], b: &[f64], out_row: &mut [f64]) {
    let p = out_row.len();
    let mut jb = 0;
    while jb + NR1 <= p {
        let mut acc = [0.0f64; NR1];
        for (k, &x) in a_row.iter().enumerate() {
            let b_row: &[f64; NR1] = b[k * p + jb..k * p + jb + NR1]
                .try_into()
                // lint: allow(panic002) reason="the while condition guarantees jb + NR1 <= p, so the slice is exactly NR1 long"
                .expect("NR1-sized chunk");
            for (o, &bv) in acc.iter_mut().zip(b_row) {
                *o = x.mul_add(bv, *o);
            }
        }
        out_row[jb..jb + NR1].copy_from_slice(&acc);
        jb += NR1;
    }
    let width = p - jb;
    if width > 0 {
        let mut acc = [0.0f64; NR1];
        let acc = &mut acc[..width];
        for (k, &x) in a_row.iter().enumerate() {
            for (o, &bv) in acc.iter_mut().zip(&b[k * p + jb..k * p + p]) {
                *o = x.mul_add(bv, *o);
            }
        }
        out_row[jb..].copy_from_slice(acc);
    }
}

/// The `R × NR` microkernel of [`Matrix::matmul_transpose_a_into`]:
/// computes output rows `i..i+R` of `Aᵀ·B` reading `A` (`depth × n`) and
/// `B` (`depth × p`) row-wise. Same ascending-`k` chains as [`mm_block`].
#[inline]
fn mm_t_a_block<const R: usize>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    i: usize,
    depth: usize,
    n: usize,
    p: usize,
) {
    let mut jb = 0;
    while jb + NR <= p {
        let mut acc = [[0.0f64; NR]; R];
        for k in 0..depth {
            let a_chunk: &[f64; R] = a[k * n + i..k * n + i + R]
                .try_into()
                // lint: allow(panic002) reason="the caller advances i in full R-column steps, so the slice is exactly R long"
                .expect("R-sized chunk");
            let b_row: &[f64; NR] = b[k * p + jb..k * p + jb + NR]
                .try_into()
                // lint: allow(panic002) reason="the while condition guarantees jb + NR <= p, so the slice is exactly NR long"
                .expect("NR-sized chunk");
            for (acc_r, &x) in acc.iter_mut().zip(a_chunk) {
                for (o, &bv) in acc_r.iter_mut().zip(b_row) {
                    *o = x.mul_add(bv, *o);
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            out[(i + r) * p + jb..(i + r) * p + jb + NR].copy_from_slice(acc_r);
        }
        jb += NR;
    }
    for j in jb..p {
        let mut acc = [0.0f64; R];
        for k in 0..depth {
            let bv = b[k * p + j];
            for (r, o) in acc.iter_mut().enumerate() {
                *o = a[k * n + i + r].mul_add(bv, *o);
            }
        }
        for (r, &v) in acc.iter().enumerate() {
            out[(i + r) * p + j] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.column(1), vec![2.0, 4.0]);
    }

    #[test]
    fn matmul_hand_computed() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[5.0], &[3.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), 7.0);
        assert_eq!((c.rows(), c.cols()), (1, 1));
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!((t.rows(), t.cols()), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn broadcast_and_hadamard() {
        let mut m = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        m.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(m, Matrix::from_rows(&[&[11.0, 21.0], &[12.0, 22.0]]));
        let mask = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        m.hadamard_inplace(&mask);
        assert_eq!(m, Matrix::from_rows(&[&[11.0, 0.0], &[0.0, 22.0]]));
    }

    #[test]
    fn column_sums_and_add_scaled() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.column_sums(), vec![4.0, 6.0]);
        let mut acc = Matrix::zeros(2, 2);
        acc.add_scaled(&m, 0.5);
        assert_eq!(acc.get(1, 1), 2.0);
    }

    #[test]
    fn row_and_column_selection() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let rows = m.select_rows(&[2, 0]);
        assert_eq!(rows, Matrix::from_rows(&[&[7.0, 8.0, 9.0], &[1.0, 2.0, 3.0]]));
        let cols = m.select_columns(&[1]);
        assert_eq!(cols.column(0), vec![2.0, 5.0, 8.0]);
    }

    #[test]
    fn vstack_concatenates() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = a.vstack(&b);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn he_init_statistics() {
        let mut rng = RngStream::from_seed(1, "he");
        let m = Matrix::he_init(100, 100, &mut rng);
        let mean = m.data().iter().sum::<f64>() / 10_000.0;
        let var = m.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 10_000.0;
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 0.02).abs() < 0.005, "var={var}");
    }

    /// Regression: a zero row must not short-circuit NaN/Inf propagation —
    /// `0 × NaN = NaN` per IEEE 754. The old kernel skipped zero elements
    /// of the left operand and silently produced `0.0` here.
    #[test]
    fn nan_propagates_through_zero_rows() {
        let a = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0]]);
        let b = Matrix::from_rows(&[&[f64::NAN, 2.0], &[3.0, f64::INFINITY]]);
        let c = a.matmul(&b);
        assert!(c.get(0, 0).is_nan(), "0×NaN row must stay NaN");
        assert!(c.get(0, 1).is_nan(), "0×Inf must poison the sum");
        assert!(c.get(1, 0).is_nan(), "NaN from the non-zero path");
    }

    fn random_matrix(rows: usize, cols: usize, rng: &mut RngStream) -> Matrix {
        let data = (0..rows * cols).map(|_| rng.uniform(-2.0, 2.0)).collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// The textbook triple loop: the bit-exactness reference for all fused
    /// kernels (ascending-k single-chain accumulation per element).
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
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

    fn assert_bits_eq(a: &Matrix, b: &Matrix) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} != {y}");
        }
    }

    /// Tile-edge coverage: shapes around the MR×NR microkernel boundaries
    /// must all agree bit-for-bit with the reference.
    #[test]
    fn fused_kernels_match_reference_at_tile_edges() {
        let mut rng = RngStream::from_seed(9, "kernel-edges");
        for &(m, n, p) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (8, 3, 9),
            (12, 16, 24),
            (13, 2, 31),
        ] {
            let a = random_matrix(m, n, &mut rng);
            let b = random_matrix(n, p, &mut rng);
            let mut out = Matrix::zeros(0, 0);
            a.matmul_into(&b, &mut out);
            assert_bits_eq(&out, &reference_matmul(&a, &b));

            let at = random_matrix(n, m, &mut rng);
            at.matmul_transpose_a_into(&b, &mut out);
            assert_bits_eq(&out, &reference_matmul(&at.transpose(), &b));
        }
    }

    #[test]
    fn select_rows_into_matches_select_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut out = Matrix::zeros(0, 0);
        m.select_rows_into(&[2, 0], &mut out);
        assert_eq!(out, m.select_rows(&[2, 0]));
    }

    #[test]
    fn column_sums_into_matches_column_sums() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut buf = vec![9.0; 7];
        m.column_sums_into(&mut buf);
        assert_eq!(buf, m.column_sums());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn ragged_rows_rejected() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }
}
