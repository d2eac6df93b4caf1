//! Property tests for the determinism contract of the parallel execution
//! layer: every parallelized path — K-fold resampling fits, batched PI
//! serving, fold assignment — and the matmul kernels they run must produce
//! bit-identical results at any requested thread count (see DESIGN.md,
//! "Determinism contract").

use cardest::conformal::{
    assign_folds, AbsoluteResidual, CvPlus, PiService, PiServiceConfig,
};
use cardest::estimators::fit_difficulty_model;
use cardest::gbdt::GbdtConfig;
use cardest::nn::Matrix;
use ce_parallel::with_threads;
use proptest::prelude::*;

/// Deterministic pseudo-random matrix from an LCG stream.
fn lcg_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
    let mut state = seed | 1;
    let data: Vec<Vec<f32>> = (0..rows)
        .map(|_| {
            (0..cols)
                .map(|_| {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (state >> 16) as f32 / 65_536.0 - 0.5
                })
                .collect()
        })
        .collect();
    Matrix::from_rows(&data)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// All three blocked kernels are bit-identical at 1 vs 4 threads for
    /// arbitrary shapes. Products run on the calling thread; this guards
    /// against a dispatch inside them returning and changing a bit.
    #[test]
    fn matmul_kernels_are_thread_count_invariant(
        m in 1usize..10,
        k in 1usize..200,
        n in 1usize..10,
        seed in any::<u32>(),
    ) {
        let a = lcg_matrix(m, k, seed);
        let b = lcg_matrix(k, n, seed.wrapping_add(1));
        let c = lcg_matrix(m, n, seed.wrapping_add(2));
        let d = lcg_matrix(m, n, seed.wrapping_add(3));

        let serial = with_threads(1, || (a.matmul(&b), a.t_matmul(&c), c.matmul_t(&d)));
        let wide = with_threads(4, || (a.matmul(&b), a.t_matmul(&c), c.matmul_t(&d)));
        prop_assert_eq!(bits(&serial.0), bits(&wide.0));
        prop_assert_eq!(bits(&serial.1), bits(&wide.1));
        prop_assert_eq!(bits(&serial.2), bits(&wide.2));
    }

    /// CV+ with a GBDT trainer: fold fits and out-of-fold residuals run in
    /// parallel, yet the calibrated intervals match bitwise at 1 vs 4
    /// threads.
    #[test]
    fn cv_plus_fit_is_thread_count_invariant(
        n in 12usize..40,
        k in 2usize..5,
        seed in any::<u64>(),
    ) {
        let x: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32, (i * i % 7) as f32]).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + i as f64 * 0.1).collect();
        let trainer = |x: &[Vec<f32>], y: &[f64], _seed: u64| {
            fit_difficulty_model(x, y, &GbdtConfig { n_trees: 12, ..Default::default() })
        };

        let serial = with_threads(1, || CvPlus::fit(&trainer, &x, &y, k, 0.1, seed));
        let wide = with_threads(4, || CvPlus::fit(&trainer, &x, &y, k, 0.1, seed));
        for f in &x {
            let a = serial.interval(f);
            let b = wide.interval(f);
            prop_assert_eq!(a.lo.to_bits(), b.lo.to_bits());
            prop_assert_eq!(a.hi.to_bits(), b.hi.to_bits());
        }
    }

    /// Batched serving equals the serial per-query loop, bit for bit, at
    /// any thread count.
    #[test]
    fn predict_interval_batch_is_thread_count_invariant(
        n_calib in 4usize..40,
        n_query in 1usize..30,
    ) {
        let calib_x: Vec<Vec<f32>> = (0..n_calib).map(|i| vec![i as f32]).collect();
        let calib_y: Vec<f64> =
            (0..n_calib).map(|i| i as f64 + ((i % 5) as f64 - 2.0) * 0.1).collect();
        let queries: Vec<Vec<f32>> =
            (0..n_query).map(|i| vec![i as f32 * 1.5 - 3.0]).collect();
        let model = |f: &[f32]| f[0] as f64;
        let service = PiService::new(
            model,
            AbsoluteResidual,
            &calib_x,
            &calib_y,
            PiServiceConfig::default(),
        );

        let one_by_one: Vec<_> = queries.iter().map(|q| service.interval(q)).collect();
        let serial = with_threads(1, || service.predict_interval_batch(&queries));
        let wide = with_threads(4, || service.predict_interval_batch(&queries));
        prop_assert_eq!(&serial, &one_by_one);
        prop_assert_eq!(&wide, &one_by_one);
    }

    /// Fold assignment is a pure function of `(n, k, seed)` — the ambient
    /// thread count must not leak into it — and stays balanced.
    #[test]
    fn assign_folds_is_thread_count_invariant(
        n in 2usize..200,
        k in 2usize..8,
        seed in any::<u64>(),
    ) {
        let k = k.min(n);
        let serial = with_threads(1, || assign_folds(n, k, seed));
        let wide = with_threads(4, || assign_folds(n, k, seed));
        prop_assert_eq!(&serial, &wide);

        let mut counts = vec![0usize; k];
        for &f in &serial {
            prop_assert!(f < k);
            counts[f] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced folds: {:?}", counts);
    }
}
