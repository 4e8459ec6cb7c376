//! Dense row-major `f64` matrices — the only tensor type the networks need.
//!
//! The RLBackfilling networks are tiny (3-layer MLPs with tens of hidden
//! units over at most a few hundred rows), so plain cache-aware loops are
//! enough. `f64` keeps finite-difference gradient checks tight.
//!
//! Two kinds of operation live here. The composed ops (`matmul`,
//! `transpose`, `add_row_broadcast`, `col_sums`, `hadamard`, ...) each
//! return a fresh matrix from plain loops; they are the readable
//! reference. The fused in-place kernels the networks run
//! ([`Matrix::matmul_into`],
//! [`Matrix::add_segmented_transposed_matmul_assign`],
//! [`Matrix::add_segmented_col_sums_assign`],
//! [`Matrix::add_row_map_assign`]) skip the temporaries and sum in
//! register blocks ([`add_weighted_sum`]), but are **bit-identical** to
//! their composed counterparts: every output element is summed in the
//! same order, from the same `+0.0` start, skipping the same exact zeros.
//! `tests/proptest_nn.rs` checks this `to_bits()` for `to_bits()`; no
//! composed op shares code with a kernel it is checked against.
//!
//! The segmented kernels serve a batch that stacks the rows of several
//! samples. Each sample's rows form one segment; the kernel sums every
//! segment from `+0.0` on its own and adds the sum to the accumulator at
//! the segment's end, so a batch of many samples rounds exactly as one
//! call per sample does.
//!
//! The same argument lets callers drop work that contributes only zeros.
//! Adding `±0.0` to a sum that starts at `+0.0` cannot change it, so a
//! batch row whose output gradient is exactly zero adds nothing to
//! `aᵀ·b`: `rlbf`'s policy network never evaluates the rows its mask
//! excludes, and its gradients keep their bits.

use rand::Rng;
use serde::{Deserialize, Serialize, Value};

/// Columns summed per pass of [`add_weighted_sum`]: the partial sums of
/// a block fit in registers.
const SUM_BLOCK: usize = 16;

/// Adds `Σ a·w` over `terms` (each `w` at least `out.len()` long), summed
/// in order from `+0.0`, to `out`; leaves `out` alone when `terms` is
/// empty. Each block of 16 columns is summed in a register array over one
/// pass of `terms`, and added to `out` once.
///
/// Every product kernel here is this sum. A sum started at `+0.0` is
/// never `-0.0`, so adding it to an all-zero row writes exactly the sum.
#[inline]
pub fn add_weighted_sum<'w>(
    out: &mut [f64],
    terms: impl Iterator<Item = (f64, &'w [f64])> + Clone,
) {
    let mut blocks = out.chunks_exact_mut(SUM_BLOCK);
    let mut c0 = 0;
    for block in &mut blocks {
        let mut sums = [0.0; SUM_BLOCK];
        let mut touched = false;
        for (a, w) in terms.clone() {
            touched = true;
            let w: &[f64; SUM_BLOCK] = w[c0..c0 + SUM_BLOCK].try_into().expect("block width");
            for (s, &y) in sums.iter_mut().zip(w) {
                *s += a * y;
            }
        }
        if touched {
            for (o, s) in block.iter_mut().zip(sums) {
                *o += s;
            }
        }
        c0 += SUM_BLOCK;
    }
    let tail = blocks.into_remainder();
    if tail.is_empty() {
        return;
    }
    let mut sums = [0.0; SUM_BLOCK];
    let sums = &mut sums[..tail.len()];
    let mut touched = false;
    for (a, w) in terms {
        touched = true;
        for (s, &y) in sums.iter_mut().zip(&w[c0..]) {
            *s += a * y;
        }
    }
    if touched {
        for (o, &s) in tail.iter_mut().zip(sums.iter()) {
            *o += s;
        }
    }
}

/// A dense row-major matrix.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
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
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    #[inline]
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
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes to an all-zeros `rows × cols` matrix, keeping the
    /// allocation: the reused buffers of a training step grow once.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Appends `row` as a new last row. Panics if its length is not
    /// [`Self::cols`].
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Matrix product `self · rhs`. Panics on shape mismatch.
    ///
    /// The k-loop is hoisted outside the column loop (ikj order), which
    /// keeps all inner accesses sequential — the standard cache-friendly
    /// layout for row-major data. Exact zeros of `self` are skipped.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.check_matmul(rhs);
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

    /// [`Self::matmul`] written into `out`, reusing its allocation; the
    /// bits are [`Self::matmul`]'s. Each row of the product is one
    /// [`add_weighted_sum`] over the nonzeros of row `i` of `self`, so
    /// stacking several batches into one `self` leaves every row's bits
    /// as they are.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.check_matmul(rhs);
        out.reset(self.rows, rhs.cols);
        if self.cols == 0 || rhs.cols == 0 {
            return;
        }
        for (row, out_row) in self
            .data
            .chunks_exact(self.cols)
            .zip(out.data.chunks_exact_mut(rhs.cols))
        {
            let terms = row.iter().zip(rhs.data.chunks_exact(rhs.cols));
            add_weighted_sum(
                out_row,
                terms.filter(|(&a, _)| a != 0.0).map(|(&a, w)| (a, w)),
            );
        }
    }

    /// Panics unless `self · rhs` is defined.
    fn check_matmul(&self, rhs: &Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch: {:?} × {:?}",
            self.shape(),
            rhs.shape()
        );
    }

    /// In-place `self += aᵀ · b`; bit-identical to
    /// `self.add_scaled_assign(&a.transpose().matmul(b), 1.0)`: the
    /// segmented kernel with one segment.
    pub fn add_transposed_matmul_assign(&mut self, a: &Matrix, b: &Matrix) {
        self.add_segmented_transposed_matmul_assign(a, b, &[a.rows]);
    }

    /// In-place `self += a_sᵀ · b_s` for each segment `s` in turn, where
    /// segment `s` is rows `ends[s-1]..ends[s]` of `a` and `b` (from row 0
    /// for the first): bit-identical to
    /// `self.add_scaled_assign(&a_s.transpose().matmul(b_s), 1.0)` once per
    /// segment, without materializing a transpose or a product. `ends`
    /// must not decrease and must end at `a.rows()`; a repeated end is an
    /// empty segment. Panics on shape mismatch.
    ///
    /// Row `i` of a segment's product is summed over the segment's rows
    /// in order (skipping exact zeros of `a`), from `+0.0`, then added to
    /// row `i` of `self` once ([`add_weighted_sum`]). A row with every
    /// `a[·][i]` zero is left alone: its product is `+0.0`, the identity
    /// on any accumulator that is not `-0.0`, which a sum started at
    /// `+0.0` never is.
    pub fn add_segmented_transposed_matmul_assign(
        &mut self,
        a: &Matrix,
        b: &Matrix,
        ends: &[usize],
    ) {
        assert_eq!(
            (a.rows, self.rows, self.cols),
            (b.rows, a.cols, b.cols),
            "add_transposed_matmul shape mismatch: {:?} += {:?}ᵀ × {:?}",
            self.shape(),
            a.shape(),
            b.shape()
        );
        check_segments(ends, a.rows);
        if self.cols == 0 {
            return;
        }
        for (i, out_row) in self.data.chunks_exact_mut(self.cols).enumerate() {
            let mut lo = 0;
            for &hi in ends {
                let terms = (lo..hi).map(|r| (a.data[r * a.cols + i], b.row_slice(r)));
                add_weighted_sum(out_row, terms.filter(|&(x, _)| x != 0.0));
                lo = hi;
            }
        }
    }

    /// In-place `self += a.col_sums()`; bit-identical to
    /// `self.add_scaled_assign(&a.col_sums(), 1.0)`: the segmented kernel
    /// with one segment.
    pub fn add_col_sums_assign(&mut self, a: &Matrix) {
        self.add_segmented_col_sums_assign(a, &[a.rows]);
    }

    /// In-place `self += a_s.col_sums()` for each segment `s` of `a`'s
    /// rows in turn (segments as in
    /// [`Self::add_segmented_transposed_matmul_assign`]); bit-identical to
    /// `self.add_scaled_assign(&a_s.col_sums(), 1.0)` once per segment. An
    /// empty segment adds its `+0.0` sums too, as the composed op does.
    pub fn add_segmented_col_sums_assign(&mut self, a: &Matrix, ends: &[usize]) {
        assert_eq!(
            (self.rows, self.cols),
            (1, a.cols),
            "add_col_sums shape mismatch"
        );
        check_segments(ends, a.rows);
        if a.cols == 0 {
            return;
        }
        let mut lo = 0;
        for &hi in ends {
            for (c0, out) in (0..)
                .step_by(SUM_BLOCK)
                .zip(self.data.chunks_mut(SUM_BLOCK))
            {
                let mut sums = [0.0; SUM_BLOCK];
                let sums = &mut sums[..out.len()];
                for r in lo..hi {
                    for (s, &v) in sums.iter_mut().zip(&a.row_slice(r)[c0..]) {
                        *s += v;
                    }
                }
                for (o, &s) in out.iter_mut().zip(sums.iter()) {
                    *o += s;
                }
            }
            lo = hi;
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
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// [`Self::transpose`] written into `out`, reusing its allocation.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reset(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
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
}

/// Panics unless `ends` is a valid segmentation of `rows` rows: not
/// decreasing, and ending at `rows` (an empty `ends` is valid for zero
/// rows).
fn check_segments(ends: &[usize], rows: usize) {
    assert!(
        ends.windows(2).all(|w| w[0] <= w[1]) && ends.last().copied().unwrap_or(0) == rows,
        "segment ends {ends:?} do not split {rows} rows"
    );
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
    fn segmented_kernels_sum_each_segment_apart() {
        // Rows [1, 2] | [] | [3]: a two-row, an empty and a one-row segment.
        let a = Matrix::from_vec(3, 1, vec![1., 2., 3.]);
        let b = Matrix::from_vec(3, 2, vec![1., 10., 1., 10., 1., 10.]);
        let mut acc = Matrix::zeros(1, 2);
        acc.add_segmented_transposed_matmul_assign(&a, &b, &[2, 2, 3]);
        assert_eq!(acc.data(), &[6., 60.]);
        let mut sums = Matrix::zeros(1, 2);
        sums.add_segmented_col_sums_assign(&b, &[2, 2, 3]);
        assert_eq!(sums.data(), &[3., 30.]);
    }

    #[test]
    #[should_panic(expected = "do not split")]
    fn segments_must_cover_the_rows() {
        let mut acc = Matrix::zeros(1, 2);
        acc.add_segmented_col_sums_assign(&Matrix::zeros(3, 2), &[2]);
    }

    #[test]
    fn reset_and_push_row_reuse_the_matrix() {
        let mut m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        m.reset(0, 3);
        m.push_row(&[5., 6., 7.]);
        assert_eq!((m.shape(), m.data()), ((1, 3), &[5., 6., 7.][..]));
        m.reset(1, 2);
        assert_eq!(m.data(), &[0., 0.]);
    }
}
