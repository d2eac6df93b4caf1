//! Segment mean pooling for set-structured inputs.
//!
//! MSCN averages the per-predicate hidden vectors of a query into one fixed
//! vector. A batch of queries therefore arrives as one big `total_items x dim`
//! matrix plus segment lengths; pooling reduces it to `num_segments x dim`,
//! and the backward pass redistributes the pooled gradient `1/len`-wise.

/// Mean-pools contiguous row segments of the row-major `items` (`dim`
/// columns) into the leading `dim` columns of `out`, one row per segment.
/// `out` holds `segments.len()` rows of equal width, at least `dim`; the
/// columns after the pooled ones are left as they are, so that a caller can
/// pool straight into a wider row that carries more features after them.
///
/// `segments[i]` is the number of rows belonging to segment `i`; they must
/// sum to the number of item rows. Zero-length segments produce an all-zero
/// pooled row (a query with no predicates of a given kind).
///
/// # Panics
/// Panics if the lengths do not sum to the number of item rows, or if `out`
/// is not `segments.len()` rows of at least `dim` columns.
pub fn segment_mean_into(items: &[f32], dim: usize, segments: &[usize], out: &mut [f32]) {
    let total: usize = segments.iter().sum();
    assert_eq!(total * dim, items.len(), "segment lengths must cover all item rows");
    if segments.is_empty() {
        assert!(out.is_empty(), "output rows without segments");
        return;
    }
    let width = out.len() / segments.len();
    assert!(
        width >= dim && width * segments.len() == out.len(),
        "output is not one row per segment at least as wide as the items"
    );
    let mut rows = items.chunks_exact(dim.max(1));
    for (&len, dst) in segments.iter().zip(out.chunks_exact_mut(width.max(1))) {
        let dst = &mut dst[..dim];
        dst.fill(0.0);
        if len == 0 {
            continue;
        }
        let inv = 1.0 / len as f32;
        for row in rows.by_ref().take(len) {
            for (d, &v) in dst.iter_mut().zip(row) {
                *d += v * inv;
            }
        }
    }
}

/// Backward of [`segment_mean_into`]: writes each item row's gradient, the
/// leading `dim` columns of its segment's row of `grad_pooled` scaled by
/// `1/len`, into the row-major `out` (`dim` columns). The rows of
/// `grad_pooled` are equally wide and at least `dim` wide, like the rows
/// `segment_mean_into` pools into, so a caller can pass the gradient of
/// those wider rows as it is.
///
/// # Panics
/// Panics if the lengths do not sum to the number of rows of `out`, or if
/// `grad_pooled` is not `segments.len()` rows of at least `dim` columns.
pub fn segment_mean_backward_into(
    grad_pooled: &[f32],
    dim: usize,
    segments: &[usize],
    out: &mut [f32],
) {
    let total: usize = segments.iter().sum();
    assert_eq!(total * dim, out.len(), "segment lengths must cover all item rows");
    if segments.is_empty() {
        return;
    }
    let width = grad_pooled.len() / segments.len();
    assert!(
        width >= dim && width * segments.len() == grad_pooled.len(),
        "pooled gradient is not one row per segment at least as wide as the items"
    );
    let mut rows = out.chunks_exact_mut(dim.max(1));
    for (&len, grad) in segments.iter().zip(grad_pooled.chunks_exact(width.max(1))) {
        if len == 0 {
            continue;
        }
        let inv = 1.0 / len as f32;
        for dst in rows.by_ref().take(len) {
            for (d, &g) in dst.iter_mut().zip(&grad[..dim]) {
                *d = g * inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn segment_mean(items: &Matrix, segments: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(segments.len(), items.cols());
        segment_mean_into(items.data(), items.cols(), segments, out.data_mut());
        out
    }

    fn segment_mean_backward(grad_pooled: &Matrix, segments: &[usize]) -> Matrix {
        let total = segments.iter().sum();
        let mut out = Matrix::zeros(total, grad_pooled.cols());
        segment_mean_backward_into(grad_pooled.data(), out.cols(), segments, out.data_mut());
        out
    }

    #[test]
    fn segment_mean_averages_each_segment() {
        let items = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![10.0, 20.0],
        ]);
        let pooled = segment_mean(&items, &[2, 1]);
        assert_eq!(pooled.row(0), &[2.0, 3.0]);
        assert_eq!(pooled.row(1), &[10.0, 20.0]);
    }

    #[test]
    fn empty_segment_pools_to_zero() {
        let items = Matrix::from_rows(&[vec![5.0, 5.0]]);
        let pooled = segment_mean(&items, &[0, 1]);
        assert_eq!(pooled.row(0), &[0.0, 0.0]);
        assert_eq!(pooled.row(1), &[5.0, 5.0]);
    }

    #[test]
    fn backward_redistributes_inverse_length() {
        let grad = Matrix::from_rows(&[vec![2.0], vec![9.0]]);
        let out = segment_mean_backward(&grad, &[2, 3]);
        assert_eq!(out.rows(), 5);
        assert_eq!(out.row(0), &[1.0]);
        assert_eq!(out.row(1), &[1.0]);
        for r in 2..5 {
            assert_eq!(out.row(r), &[3.0]);
        }
    }

    #[test]
    fn backward_reads_the_leading_columns_of_wider_rows() {
        // Rows of three: two pooled columns, then a context column whose
        // gradient belongs to no item.
        let grad = [4.0, 8.0, 99.0, 1.0, 3.0, 99.0, 5.0, 6.0, 99.0];
        let mut out = [f32::NAN; 6];
        segment_mean_backward_into(&grad, 2, &[2, 0, 1], &mut out);
        assert_eq!(out, [2.0, 4.0, 2.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn forward_backward_gradient_check() {
        // d(mean)/d(item) is 1/len; a finite-difference probe confirms it.
        let items = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let segments = [3usize];
        let eps = 1e-3f32;
        let f = |m: &Matrix| segment_mean(m, &segments).get(0, 0);
        let mut plus = items.clone();
        plus.set(1, 0, 2.0 + eps);
        let mut minus = items.clone();
        minus.set(1, 0, 2.0 - eps);
        let numeric = (f(&plus) - f(&minus)) / (2.0 * eps);
        let analytic =
            segment_mean_backward(&Matrix::from_rows(&[vec![1.0]]), &segments).get(1, 0);
        assert!((numeric - analytic).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "segment lengths must cover")]
    fn segment_mean_rejects_bad_lengths() {
        let items = Matrix::zeros(3, 1);
        segment_mean(&items, &[1, 1]);
    }
}
