//! Dense row-major `f32` matrices.
//!
//! This is deliberately a small, predictable kernel: everything the learned
//! estimators need (mat-mul, transposed mat-mul, row slicing, elementwise
//! combinators) and nothing else. The three mat-mul entry points are
//! cache-blocked, unrolled, and dispatched row-parallel on `ce-parallel`.
//!
//! # Determinism
//!
//! Every output element accumulates its products over the reduction
//! dimension in strictly increasing index order, with a single accumulator —
//! blocking and unrolling only regroup *independent* output elements, never
//! reassociate floating-point sums. Results are therefore bit-identical at
//! any thread count (see `DESIGN.md`, "Determinism contract").

use ce_parallel::par_chunks_mut;

/// Reduction-dimension tile: four scalar/row pairs at a time over tiles of
/// this many `k` steps, so the touched rows of the right operand stay hot in
/// cache while the output row stays in registers.
const K_TILE: usize = 128;

/// Mul-adds per parallel task, sized to amortize dispatch overhead.
const TASK_FLOPS: usize = 1 << 16;

/// Smallest product (in flops, `2·m·k·n`) whose throughput is published to
/// the `nn.matmul_gflops` telemetry gauge. Serving-path products (one row
/// through a small layer, ~8k flops) stay below this floor so enabling
/// telemetry adds no clock reads to the batched serving path.
const MATMUL_GAUGE_MIN_FLOPS: f64 = 32_768.0;

/// Rows of output handled by one parallel task; pure shape arithmetic.
fn rows_per_task(flops_per_row: usize) -> usize {
    TASK_FLOPS.div_ceil(flops_per_row.max(1)).max(1)
}

/// `out[j] += Σ_k scalars[k] * b.row(k0 + k)[j]`, with `k` strictly
/// increasing and one accumulator per output element (the `+`-chain below is
/// left-associative, i.e. exactly the sequential order). The 4-way unroll
/// spans the reduction dimension, so each pass reuses the output row from
/// registers four times.
#[inline]
fn axpy_block(out: &mut [f32], scalars: &[f32], b: &Matrix, k0: usize) {
    let n = out.len();
    let mut quads = scalars.chunks_exact(4);
    let mut k = k0;
    for quad in quads.by_ref() {
        let (b0, b1, b2, b3) =
            (&b.row(k)[..n], &b.row(k + 1)[..n], &b.row(k + 2)[..n], &b.row(k + 3)[..n]);
        for j in 0..n {
            out[j] = out[j] + quad[0] * b0[j] + quad[1] * b1[j] + quad[2] * b2[j] + quad[3] * b3[j];
        }
        k += 4;
    }
    for &a in quads.remainder() {
        let b_row = &b.row(k)[..n];
        let mut out_c = out.chunks_exact_mut(8);
        let mut b_c = b_row.chunks_exact(8);
        for (o, bv) in out_c.by_ref().zip(b_c.by_ref()) {
            for (ov, &be) in o.iter_mut().zip(bv) {
                *ov += a * be;
            }
        }
        for (ov, &be) in out_c.into_remainder().iter_mut().zip(b_c.remainder()) {
            *ov += a * be;
        }
        k += 1;
    }
}

/// Unrolled dot product with a single accumulator: the left-associative
/// `+`-chain adds the eight products of each chunk in index order, so the
/// result is bit-identical to the naive sequential loop.
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    let mut a_c = a.chunks_exact(8);
    let mut b_c = b.chunks_exact(8);
    for (x, y) in a_c.by_ref().zip(b_c.by_ref()) {
        acc = acc
            + x[0] * y[0]
            + x[1] * y[1]
            + x[2] * y[2]
            + x[3] * y[3]
            + x[4] * y[4]
            + x[5] * y[5]
            + x[6] * y[6]
            + x[7] * y[7];
    }
    for (&x, &y) in a_c.remainder().iter().zip(b_c.remainder()) {
        acc += x * y;
    }
    acc
}

/// A dense row-major matrix of `f32` values.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates a single-column matrix from a slice.
    pub fn column_vector(values: &[f32]) -> Self {
        Matrix::from_vec(values.len(), 1, values.to_vec())
    }

    /// Builds a matrix by stacking the given equal-length rows.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows passed to from_rows");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
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

    /// The underlying row-major data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Value at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the value at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * other`.
    ///
    /// Cache-blocked i-k-j kernel: each output row is swept once per
    /// `K_TILE`-wide reduction tile, rows are dispatched in parallel, and
    /// every output element accumulates in fixed `k` order — so results are
    /// bit-identical at any thread count. No zero-skip: `0.0 * NaN` must
    /// yield `NaN` (IEEE 754), so non-finite weights surface instead of
    /// being silently masked.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k_dim, n) = (self.cols, other.cols);
        let mut out = Matrix::zeros(self.rows, n);
        if out.data.is_empty() {
            return out;
        }
        // Throughput gauge for training-sized products only: the flop floor
        // keeps serving-path row-vector matmuls free of clock reads.
        let flops = 2.0 * self.rows as f64 * k_dim as f64 * n as f64;
        let timed = ce_telemetry::enabled() && flops >= MATMUL_GAUGE_MIN_FLOPS;
        let start = timed.then(std::time::Instant::now);
        let block = rows_per_task(k_dim * n);
        par_chunks_mut(&mut out.data, block * n, |blk, out_block| {
            for (r, out_row) in out_block.chunks_mut(n).enumerate() {
                let a_row = self.row(blk * block + r);
                for k0 in (0..k_dim).step_by(K_TILE) {
                    let k1 = (k0 + K_TILE).min(k_dim);
                    axpy_block(out_row, &a_row[k0..k1], other, k0);
                }
            }
        });
        if let Some(start) = start {
            let secs = start.elapsed().as_secs_f64();
            if secs > 0.0 {
                ce_telemetry::gauge("nn.matmul_gflops").set(flops / secs / 1e9);
            }
        }
        out
    }

    /// `self^T * other` without materializing the transpose.
    ///
    /// Parallel over output rows (columns of `self`); the strided column of
    /// `self` is packed into a contiguous tile buffer so the inner kernel is
    /// shared with [`Matrix::matmul`]. Accumulation order per output element
    /// is increasing `r`, exactly as the naive loop — bit-identical at any
    /// thread count, and no zero-skip (IEEE `NaN` propagation).
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul dimension mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (r_dim, n) = (self.rows, other.cols);
        let mut out = Matrix::zeros(self.cols, n);
        if out.data.is_empty() {
            return out;
        }
        let block = rows_per_task(r_dim * n);
        par_chunks_mut(&mut out.data, block * n, |blk, out_block| {
            let mut packed = [0.0f32; K_TILE];
            for (r, out_row) in out_block.chunks_mut(n).enumerate() {
                let i = blk * block + r;
                for r0 in (0..r_dim).step_by(K_TILE) {
                    let len = K_TILE.min(r_dim - r0);
                    for (t, p) in packed[..len].iter_mut().enumerate() {
                        *p = self.data[(r0 + t) * self.cols + i];
                    }
                    axpy_block(out_row, &packed[..len], other, r0);
                }
            }
        });
        out
    }

    /// `self * other^T` without materializing the transpose.
    ///
    /// Parallel over output rows; each element is an unrolled
    /// single-accumulator dot product of two contiguous rows, summed in
    /// index order — bit-identical at any thread count.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t dimension mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let n = other.rows;
        let mut out = Matrix::zeros(self.rows, n);
        if out.data.is_empty() {
            return out;
        }
        let block = rows_per_task(self.cols * n);
        par_chunks_mut(&mut out.data, block * n, |blk, out_block| {
            for (r, out_row) in out_block.chunks_mut(n).enumerate() {
                let a_row = self.row(blk * block + r);
                for (j, o) in out_row.iter_mut().enumerate() {
                    *o = dot(a_row, other.row(j));
                }
            }
        });
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds `row` (a 1 x cols bias) to every row of `self` in place.
    pub fn add_row_broadcast(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "broadcast row length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(row) {
                *v += b;
            }
        }
    }

    /// Elementwise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Elementwise in-place combine: `self[i] = f(self[i], other[i])`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_inplace(&mut self, other: &Matrix, f: impl Fn(f32, f32) -> f32) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "zip shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
    }

    /// Sums each column into a length-`cols` vector.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }

    /// Scales every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Frobenius norm, used by tests and gradient clipping.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// True if every entry is finite; used as a training sanity check.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.data().iter().zip(b.data()).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_stacks_rows() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged_input() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        let expected = Matrix::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]);
        assert!(approx_eq(&c, &expected, 1e-6));
    }

    #[test]
    fn t_matmul_equals_explicit_transpose_product() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.0, 1.5, 3.0]);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert!(approx_eq(&fast, &slow, 1e-5));
    }

    #[test]
    fn matmul_t_equals_explicit_transpose_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(4, 3, vec![1.0; 12]);
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        assert!(approx_eq(&fast, &slow, 1e-5));
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(approx_eq(&a.transpose().transpose(), &a, 0.0));
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_each_row() {
        let mut m = Matrix::zeros(2, 2);
        m.add_row_broadcast(&[1.0, -2.0]);
        assert_eq!(m.row(0), &[1.0, -2.0]);
        assert_eq!(m.row(1), &[1.0, -2.0]);
    }

    #[test]
    fn column_sums_sums_rows() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.column_sums(), vec![4.0, 6.0]);
    }

    #[test]
    fn map_and_zip_apply_elementwise() {
        let m = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        let relu = m.map(|v| v.max(0.0));
        assert_eq!(relu.data(), &[0.0, 0.0, 2.0]);
        let mut sum = m.clone();
        sum.zip_inplace(&relu, |a, b| a + b);
        assert_eq!(sum.data(), &[-1.0, 0.0, 4.0]);
    }

    #[test]
    fn frobenius_norm_matches_definition() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Naive reference product, element-at-a-time in increasing-k order.
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn matmul_propagates_nan_through_zero_in_left_operand() {
        // Regression: the old kernel skipped k when a == 0.0, so 0.0 * NaN
        // evaluated to 0.0 instead of NaN — masking non-finite weights.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![f32::NAN, 2.0]);
        assert!(a.matmul(&b).get(0, 0).is_nan(), "0.0 * NaN must propagate NaN");
    }

    #[test]
    fn t_matmul_propagates_nan_through_zero_in_left_operand() {
        let a = Matrix::from_vec(2, 1, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![f32::NAN, 2.0]);
        assert!(a.t_matmul(&b).get(0, 0).is_nan(), "0.0 * NaN must propagate NaN");
    }

    #[test]
    fn blocked_kernels_match_reference_bit_for_bit() {
        // Shapes straddling the K_TILE and unroll boundaries, with values
        // spread over enough magnitudes that reassociation would show up.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 3.0
        };
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (4, 129, 9), (5, 260, 17), (2, 8, 8)] {
            let a = Matrix::from_vec(m, k, (0..m * k).map(|_| next()).collect());
            let b = Matrix::from_vec(k, n, (0..k * n).map(|_| next()).collect());
            assert_eq!(a.matmul(&b), reference_matmul(&a, &b), "matmul {m}x{k}x{n}");
            let at = a.transpose();
            assert_eq!(at.t_matmul(&b), reference_matmul(&a, &b), "t_matmul {m}x{k}x{n}");
            let bt = b.transpose();
            assert_eq!(a.matmul_t(&bt), reference_matmul(&a, &b), "matmul_t {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_is_bit_identical_across_thread_counts() {
        let a = Matrix::from_vec(64, 96, (0..64 * 96).map(|i| (i as f32).sin()).collect());
        let b = Matrix::from_vec(96, 48, (0..96 * 48).map(|i| (i as f32).cos()).collect());
        let serial = ce_parallel::with_threads(1, || a.matmul(&b));
        let parallel = ce_parallel::with_threads(4, || a.matmul(&b));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = Matrix::zeros(1, 2);
        assert!(m.all_finite());
        m.set(0, 1, f32::NAN);
        assert!(!m.all_finite());
    }
}
