//! Property-based tests of the numeric kernels.

use ce_nn::{
    segment_mean_into, softmax_rows, Huber, Loss, Matrix, Mse, Pinball,
};
use proptest::prelude::*;

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    /// (A B) C == A (B C) up to float error.
    #[test]
    fn matmul_is_associative(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 5),
        c in matrix_strategy(5, 2),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(approx_eq(&left, &right, 1e-3));
    }

    /// (A B)^T == B^T A^T.
    #[test]
    fn transpose_reverses_products(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 2),
    ) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(approx_eq(&left, &right, 1e-4));
    }

    /// The fused transposed products agree with explicit transposes.
    #[test]
    fn fused_transpose_products_agree(
        a in matrix_strategy(4, 3),
        b in matrix_strategy(4, 2),
        d in matrix_strategy(5, 3),
    ) {
        prop_assert!(approx_eq(&a.t_matmul(&b), &a.transpose().matmul(&b), 1e-4));
        prop_assert!(approx_eq(&a.matmul_t(&d), &a.matmul(&d.transpose()), 1e-4));
    }

    /// Pooling one segment over everything equals the column means.
    #[test]
    fn segment_mean_of_single_segment_is_global_mean(m in matrix_strategy(6, 3)) {
        let mut pooled = Matrix::zeros(1, 3);
        segment_mean_into(m.data(), m.cols(), &[6], pooled.data_mut());
        let sums = m.column_sums();
        for (c, &s) in sums.iter().enumerate() {
            prop_assert!((pooled.get(0, c) - s / 6.0).abs() < 1e-4);
        }
    }

    /// Softmax rows are probability distributions for arbitrary logits.
    #[test]
    fn softmax_rows_are_distributions(m in matrix_strategy(4, 6)) {
        let p = softmax_rows(&m);
        for r in 0..4 {
            let s: f32 = p.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    /// Losses are non-negative and zero at the target.
    #[test]
    fn losses_are_nonnegative_and_zero_at_target(p in -100.0f32..100.0, t in -100.0f32..100.0) {
        prop_assert!(Mse.loss(p, t) >= 0.0);
        prop_assert!(Huber::default().loss(p, t) >= 0.0);
        prop_assert!(Pinball::new(0.3).loss(p, t) >= 0.0);
        prop_assert!(Mse.loss(t, t) == 0.0);
        prop_assert!(Huber::default().loss(t, t) == 0.0);
        prop_assert!(Pinball::new(0.3).loss(t, t) == 0.0);
    }

    /// Pinball at tau = 0.5 is half the absolute error.
    #[test]
    fn pinball_half_is_half_abs(p in -50.0f32..50.0, t in -50.0f32..50.0) {
        let pb = Pinball::new(0.5);
        prop_assert!((pb.loss(p, t) - 0.5 * (p - t).abs()).abs() < 1e-4);
    }

    /// Loss gradients match finite differences away from kinks.
    #[test]
    fn loss_gradients_match_numeric(p in -20.0f32..20.0, t in -20.0f32..20.0) {
        prop_assume!((p - t).abs() > 0.05);
        let eps = 1e-2f32;
        for loss in [&Mse as &dyn Loss, &Huber::default(), &Pinball::new(0.7)] {
            let numeric = (loss.loss(p + eps, t) - loss.loss(p - eps, t)) / (2.0 * eps);
            prop_assert!(
                (numeric - loss.grad(p, t)).abs() < 0.5,
                "numeric {} vs grad {}",
                numeric,
                loss.grad(p, t)
            );
        }
    }
}
