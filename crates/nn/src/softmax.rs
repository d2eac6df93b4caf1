//! Softmax + cross-entropy head for categorical conditionals.
//!
//! The Naru stand-in factorizes the joint distribution into per-column
//! conditionals `P(A_i | A_<i)`; each conditional ends in this head.

use crate::matrix::Matrix;

/// Row-wise numerically-stable softmax.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    out
}

/// Mean negative log-likelihood of `targets` under row-wise softmax(`logits`).
///
/// Returns `(mean_nll, grad_logits)` where the gradient is already divided by
/// the batch size — written as the output gradient of the tape that
/// `Mlp::backward` then runs, it trains the head on the mean NLL.
pub fn softmax_cross_entropy(logits: &Matrix, targets: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), targets.len(), "target count must match batch");
    let probs = softmax_rows(logits);
    let n = targets.len().max(1) as f32;
    let mut nll = 0.0f32;
    let mut grad = probs.clone();
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < logits.cols(), "target class {t} out of range {}", logits.cols());
        let p = probs.get(r, t).max(1e-12);
        nll -= p.ln();
        grad.set(r, t, grad.get(r, t) - 1.0);
    }
    grad.scale(1.0 / n);
    (nll / n, grad)
}

/// Probability of class `target` in row `r` of softmax(`logits`) — inference
/// helper for evaluating one conditional.
pub fn class_probability(logits: &Matrix, r: usize, target: usize) -> f32 {
    let row = logits.row(r);
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let denom: f32 = row.iter().map(|&v| (v - max).exp()).sum();
    ((row[target] - max).exp()) / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let p = softmax_rows(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(p.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = softmax_rows(&Matrix::row_vector(&[1.0, 2.0]));
        let b = softmax_rows(&Matrix::row_vector(&[1001.0, 1002.0]));
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        assert!(b.all_finite());
    }

    #[test]
    fn cross_entropy_gradient_matches_numeric() {
        let logits = Matrix::from_rows(&[vec![0.5, -0.3, 0.1]]);
        let targets = [2usize];
        let (_, grad) = softmax_cross_entropy(&logits, &targets);
        let eps = 1e-3f32;
        for c in 0..3 {
            let mut plus = logits.clone();
            plus.set(0, c, logits.get(0, c) + eps);
            let mut minus = logits.clone();
            minus.set(0, c, logits.get(0, c) - eps);
            let (lp, _) = softmax_cross_entropy(&plus, &targets);
            let (lm, _) = softmax_cross_entropy(&minus, &targets);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad.get(0, c)).abs() < 1e-3,
                "logit {c}: numeric {numeric} vs {}",
                grad.get(0, c)
            );
        }
    }

    #[test]
    fn perfect_prediction_has_low_loss() {
        let logits = Matrix::row_vector(&[20.0, 0.0]);
        let (nll, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(nll < 1e-3);
    }

    #[test]
    fn class_probability_matches_softmax() {
        let logits = Matrix::row_vector(&[0.2, 1.4, -0.7]);
        let p = softmax_rows(&logits);
        for c in 0..3 {
            assert!((class_probability(&logits, 0, c) - p.get(0, c)).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_rejects_bad_target() {
        let logits = Matrix::row_vector(&[0.0, 0.0]);
        softmax_cross_entropy(&logits, &[5]);
    }
}
