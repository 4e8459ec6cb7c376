//! Dense row-major `f64` matrices — the only tensor type the networks need.
//!
//! The RLBackfilling networks are tiny (3-layer MLPs with tens of hidden
//! units over at most a few hundred rows), so plain cache-aware loops are
//! enough. `f64` keeps finite-difference gradient checks tight.
//!
//! Two kinds of operation live here. The composed ops (`matmul`,
//! `transpose`, `add_row_broadcast`, `col_sums`, `hadamard`, ...) each
//! return a fresh matrix; they are the readable reference. The fused
//! in-place kernels the training path runs
//! ([`Matrix::add_transposed_matmul_assign`],
//! [`Matrix::add_col_sums_assign`], [`Matrix::add_row_map_assign`]) skip
//! the temporaries but are **bit-identical** to their composed
//! counterparts: every output element is summed in the same order, from
//! the same `+0.0` start, skipping the same exact zeros.
//! `tests/proptest_nn.rs` checks this `to_bits()` for `to_bits()`.
//!
//! The same argument lets callers drop work that contributes only zeros.
//! Adding `±0.0` to a sum that starts at `+0.0` cannot change it, so a
//! batch row whose output gradient is exactly zero adds nothing to
//! `aᵀ·b`: `rlbf`'s policy network never evaluates the rows its mask
//! excludes, and its gradients keep their bits.

use rand::Rng;
use serde::{Deserialize, Serialize, Value};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Rejects a `data` array whose length is not `rows · cols`, so a corrupt
/// checkpoint fails to load instead of silently dropping weights or
/// panicking mid-evaluation.
impl Deserialize for Matrix {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let rows: usize = serde::field(v, "rows")?;
        let cols: usize = serde::field(v, "cols")?;
        let data: Vec<f64> = serde::field(v, "data")?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::Error::msg(format!(
                "matrix data has {} elements, expected rows·cols = {rows}·{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row-major data. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Self { rows, cols, data }
    }

    /// A 1×n row vector.
    pub fn row(data: Vec<f64>) -> Self {
        Self {
            rows: 1,
            cols: data.len(),
            data,
        }
    }

    /// Xavier/Glorot-uniform initialization for a `rows × cols` weight
    /// matrix: uniform in `±sqrt(6/(fan_in+fan_out))`.
    pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-limit..limit))
            .collect();
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

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    pub fn row_slice(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · rhs`. Panics on shape mismatch.
    ///
    /// The k-loop is hoisted outside the column loop (ikj order), which
    /// keeps all inner accesses sequential — the standard cache-friendly
    /// layout for row-major data.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch: {:?} × {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// In-place `self += aᵀ · b`; bit-identical to
    /// `self.add_scaled_assign(&a.transpose().matmul(b), 1.0)`, without
    /// materializing `aᵀ` or the product. Panics on shape mismatch.
    ///
    /// Row `i` of the product is summed over the rows of `a` in order
    /// (skipping exact zeros of `a`) in a row-sized scratch, then added to
    /// row `i` of `self` once. A row with every `a[·][i]` zero is left
    /// alone: its product is `+0.0`, the identity on any accumulator that
    /// is not `-0.0`, which a sum started at `+0.0` never is. When `a` has
    /// one row, each sum has one term and row `i` gets `0.0 + x·y`
    /// directly, with no scratch pass.
    pub fn add_transposed_matmul_assign(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(
            (a.rows, self.rows, self.cols),
            (b.rows, a.cols, b.cols),
            "add_transposed_matmul shape mismatch: {:?} += {:?}ᵀ × {:?}",
            self.shape(),
            a.shape(),
            b.shape()
        );
        if self.cols == 0 {
            return;
        }
        if a.rows == 1 {
            // One term per sum: the scratch would hold exactly
            // `0.0 + x·y`, and the `0.0 +` keeps its rounding (−0 → +0).
            for (out_row, &x) in self.data.chunks_exact_mut(self.cols).zip(&a.data) {
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out_row.iter_mut().zip(&b.data) {
                    *o += 0.0 + x * y;
                }
            }
            return;
        }
        let mut scratch = vec![0.0; self.cols];
        for (i, out_row) in self.data.chunks_exact_mut(self.cols).enumerate() {
            scratch.fill(0.0);
            let mut touched = false;
            let column = a.data.iter().skip(i).step_by(a.cols);
            for (&x, b_row) in column.zip(b.data.chunks_exact(b.cols)) {
                if x == 0.0 {
                    continue;
                }
                touched = true;
                for (s, &y) in scratch.iter_mut().zip(b_row) {
                    *s += x * y;
                }
            }
            if touched {
                for (o, &s) in out_row.iter_mut().zip(&scratch) {
                    *o += s;
                }
            }
        }
    }

    /// In-place `self += a.col_sums()`; bit-identical to
    /// `self.add_scaled_assign(&a.col_sums(), 1.0)`.
    pub fn add_col_sums_assign(&mut self, a: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (1, a.cols),
            "add_col_sums shape mismatch"
        );
        if a.cols == 0 {
            return;
        }
        let mut sums = vec![0.0; a.cols];
        for row in a.data.chunks_exact(a.cols) {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
        for (o, s) in self.data.iter_mut().zip(sums) {
            *o += s;
        }
    }

    /// In place, `v ← f(v + bias[c])` for every element `v` in column `c`:
    /// the bias broadcast and an element-wise map fused into one pass;
    /// bit-identical to `self.add_row_broadcast(bias).map(f)`.
    pub fn add_row_map_assign(&mut self, bias: &Matrix, f: impl Fn(f64) -> f64) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        if self.cols == 0 {
            return;
        }
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, &b) in row.iter_mut().zip(&bias.data) {
                *v = f(*v + b);
            }
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds a 1×cols row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        let mut out = self.clone();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[r * self.cols + c] += bias.data[c];
            }
        }
        out
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise sum with another matrix of the same shape.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        self.zip(rhs, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        self.zip(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        self.zip(rhs, |a, b| a * b)
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Element-wise combination of two same-shape matrices.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Column-wise sums as a 1×cols row vector (used for bias gradients).
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// In-place `self += rhs * s` (gradient accumulation).
    pub fn add_scaled_assign(&mut self, rhs: &Matrix, s: f64) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b * s;
        }
    }

    /// Sets every element to zero (cheap gradient reset).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Flattens an `r×c` matrix into a `1×(r·c)` row vector.
    pub fn flatten(&self) -> Matrix {
        Matrix {
            rows: 1,
            cols: self.rows * self.cols,
            data: self.data.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let i = Matrix::from_vec(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn bias_broadcast_adds_to_every_row() {
        let a = Matrix::zeros(3, 2);
        let b = Matrix::row(vec![1.0, -1.0]);
        let c = a.add_row_broadcast(&b);
        for r in 0..3 {
            assert_eq!(c.row_slice(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn col_sums_match() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.col_sums().data(), &[5., 7., 9.]);
    }

    #[test]
    fn xavier_respects_limit() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = Matrix::xavier(10, 20, &mut rng);
        let limit = (6.0 / 30.0f64).sqrt();
        assert!(m.data().iter().all(|x| x.abs() <= limit));
        assert!(m.data().iter().any(|x| x.abs() > 1e-4), "not all ~zero");
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.hadamard(&b).data(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
        assert_eq!(a.sum(), 6.0);
    }

    #[test]
    fn add_scaled_assign_accumulates() {
        let mut a = Matrix::zeros(1, 2);
        let g = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        a.add_scaled_assign(&g, 0.5);
        a.add_scaled_assign(&g, 0.5);
        assert_eq!(a.data(), &[1.0, 2.0]);
        a.fill_zero();
        assert_eq!(a.data(), &[0.0, 0.0]);
    }

    #[test]
    fn add_transposed_matmul_matches_hand_computation() {
        // aᵀ·b for a = [[1, 0], [2, 3]], b = [[1, 2], [3, 4]].
        let a = Matrix::from_vec(2, 2, vec![1., 0., 2., 3.]);
        let b = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let mut acc = Matrix::from_vec(2, 2, vec![10., 10., 10., 10.]);
        acc.add_transposed_matmul_assign(&a, &b);
        assert_eq!(acc.data(), &[17., 20., 19., 22.]);
        // An empty batch adds nothing.
        acc.add_transposed_matmul_assign(&Matrix::zeros(0, 2), &Matrix::zeros(0, 2));
        assert_eq!(acc.data(), &[17., 20., 19., 22.]);
    }

    #[test]
    #[should_panic(expected = "add_transposed_matmul shape mismatch")]
    fn add_transposed_matmul_rejects_bad_shapes() {
        let mut acc = Matrix::zeros(3, 2);
        acc.add_transposed_matmul_assign(&Matrix::zeros(4, 2), &Matrix::zeros(4, 2));
    }

    #[test]
    fn deserialize_checks_data_length() {
        let ok: Matrix = serde_json::from_str(r#"{"rows":2,"cols":2,"data":[1.0,2.0,3.0,4.0]}"#)
            .expect("consistent matrix loads");
        assert_eq!(ok, Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        for data in ["[1.0]", "[1.0,2.0,3.0,4.0,5.0]"] {
            let json = format!(r#"{{"rows":2,"cols":2,"data":{data}}}"#);
            let err = serde_json::from_str::<Matrix>(&json)
                .unwrap_err()
                .to_string();
            assert!(
                err.contains("rows·cols = 2·2"),
                "error names the shape: {err}"
            );
        }
        let huge = r#"{"rows":18446744073709551615,"cols":2,"data":[]}"#;
        assert!(serde_json::from_str::<Matrix>(huge).is_err());
    }

    #[test]
    fn flatten_preserves_data() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let f = a.flatten();
        assert_eq!(f.shape(), (1, 4));
        assert_eq!(f.data(), a.data());
    }
}
