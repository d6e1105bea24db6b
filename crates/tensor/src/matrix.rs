use serde::{Deserialize, Serialize};

use crate::gemm;

/// A dense row-major `f32` matrix.
///
/// The workhorse of the NN stack. Products run on the packed,
/// register-tiled engine in [`crate::gemm`]; the `_into` variants write
/// into caller-owned buffers so hot loops can run allocation-free, and
/// `threads` shares the output blocks out over the worker pool, with
/// results bit-identical for every thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
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
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// The `r`-th row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The `r`-th row as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes the matrix to `rows × cols`, reusing the existing
    /// allocation when the element count matches. **Contents are
    /// unspecified afterwards** — this is a buffer-recycling primitive
    /// for the `_into` operations, not a view change.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        let len = rows * cols;
        if self.data.len() != len {
            self.data.resize(len, 0.0);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Makes `self` a copy of `other`, reusing the existing allocation
    /// when possible.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.resize(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Sets every element to `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// `self · other`.
    ///
    /// Allocates the output; see [`Matrix::matmul_into`] for the
    /// buffer-reusing variant. Uses [`gemm::num_threads`] threads.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out, gemm::num_threads());
        out
    }

    /// `out = self · other`, writing into a caller-owned buffer that is
    /// reshaped (allocation-free when already the right size).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix, threads: usize) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        out.resize(self.rows, other.cols);
        gemm::gemm_nn(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
            false,
            threads,
        );
    }

    /// `self · otherᵀ` (used for backprop input gradients).
    ///
    /// Allocates the output; see [`Matrix::matmul_nt_into`] for the
    /// buffer-reusing variant. Uses [`gemm::num_threads`] threads.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out, gemm::num_threads());
        out
    }

    /// `out = self · otherᵀ`, writing into a caller-owned buffer that is
    /// reshaped (allocation-free when already the right size).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix, threads: usize) {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        out.resize(self.rows, other.rows);
        gemm::gemm_nt(
            self.rows,
            self.cols,
            other.rows,
            &self.data,
            &other.data,
            &mut out.data,
            false,
            threads,
        );
    }

    /// `selfᵀ · other` (used for backprop weight gradients).
    ///
    /// Allocates the output; see [`Matrix::matmul_tn_into`] for the
    /// buffer-reusing variant. Uses [`gemm::num_threads`] threads.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_tn_into(other, &mut out, gemm::num_threads());
        out
    }

    /// `out = selfᵀ · other`, writing into a caller-owned buffer that is
    /// reshaped (allocation-free when already the right size).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix, threads: usize) {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        out.resize(self.cols, other.cols);
        gemm::gemm_tn(
            self.cols,
            self.rows,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
            false,
            threads,
        );
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        gemm::transpose_into(&self.data, self.rows, self.cols, &mut out.data);
        out
    }

    /// Adds `other` element-wise in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Adds `row` to every row in place (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols()`.
    pub fn add_row_broadcast(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "broadcast width mismatch");
        for r in 0..self.rows {
            for (a, &b) in self.row_mut(r).iter_mut().zip(row) {
                *a += b;
            }
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Sum of each column (used for bias gradients).
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }

    /// Extracts rows `[start, end)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start < end && end <= self.rows, "bad row range");
        Matrix::from_vec(
            end - start,
            self.cols,
            self.data[start * self.cols..end * self.cols].to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn approx_eq(a: &Matrix, b: &Matrix) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() < 1e-4)
    }

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Tiny deterministic LCG to avoid pulling rand into unit tests.
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let data: Vec<f32> = (0..rows * cols).map(|_| next()).collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn matmul_matches_naive() {
        let a = rand_matrix(7, 13, 1);
        let b = rand_matrix(13, 5, 2);
        assert!(approx_eq(&a.matmul(&b), &naive_matmul(&a, &b)));
    }

    #[test]
    fn matmul_nt_matches_transpose() {
        let a = rand_matrix(6, 9, 3);
        let b = rand_matrix(4, 9, 4);
        assert!(approx_eq(&a.matmul_nt(&b), &a.matmul(&b.transpose())));
    }

    #[test]
    fn matmul_tn_matches_transpose() {
        let a = rand_matrix(9, 6, 5);
        let b = rand_matrix(9, 4, 6);
        assert!(approx_eq(&a.matmul_tn(&b), &a.transpose().matmul(&b)));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = rand_matrix(5, 8, 7);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_row_broadcast_adds_bias() {
        let mut m = Matrix::zeros(2, 3);
        m.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn column_sums() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.column_sums(), vec![9.0, 12.0]);
    }

    #[test]
    fn slice_rows_extracts_range() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let s = m.slice_rows(1, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.get(0, 0), 2.0);
        assert_eq!(s.get(1, 0), 3.0);
    }

    #[test]
    fn matmul_into_reuses_buffer_and_reshapes() {
        let a = rand_matrix(5, 4, 8);
        let b = rand_matrix(4, 6, 9);
        let mut out = Matrix::zeros(1, 1);
        a.matmul_into(&b, &mut out, 1);
        assert_eq!((out.rows(), out.cols()), (5, 6));
        assert!(approx_eq(&out, &naive_matmul(&a, &b)));
        // Same shape again: the buffer is reused in place.
        a.matmul_into(&b, &mut out, 2);
        assert!(approx_eq(&out, &naive_matmul(&a, &b)));
    }

    #[test]
    fn nt_and_tn_into_match_allocating_variants() {
        let a = rand_matrix(6, 9, 10);
        let b = rand_matrix(4, 9, 11);
        let mut out = Matrix::zeros(1, 1);
        a.matmul_nt_into(&b, &mut out, 1);
        assert_eq!(out, a.matmul_nt(&b));
        let c = rand_matrix(9, 7, 12);
        let d = rand_matrix(9, 3, 13);
        let mut out2 = Matrix::zeros(1, 1);
        c.matmul_tn_into(&d, &mut out2, 1);
        assert_eq!(out2, c.matmul_tn(&d));
    }

    #[test]
    fn resize_and_copy_from() {
        let mut m = Matrix::zeros(2, 2);
        m.resize(3, 5);
        assert_eq!((m.rows(), m.cols()), (3, 5));
        let src = rand_matrix(4, 4, 14);
        m.copy_from(&src);
        assert_eq!(m, src);
        m.fill(1.5);
        assert!(m.as_slice().iter().all(|&v| v == 1.5));
    }

    #[test]
    fn scale_and_add_assign() {
        let mut a = Matrix::from_rows(&[&[1.0, -2.0]]);
        let b = Matrix::from_rows(&[&[0.5, 0.5]]);
        a.scale(2.0);
        a.add_assign(&b);
        assert_eq!(a.row(0), &[2.5, -3.5]);
    }
}
