//! Property-based tests of the conformal core's invariants, plus
//! cross-crate round-trip properties.

use cardest::conformal::{
    conformal_quantile, conformal_quantile_lower, AbsoluteResidual, PredictionInterval,
    QErrorScore, RelativeErrorScore, ScoreFunction, SplitConformal,
};
use cardest::estimators::SingleTableFeaturizer;
use cardest::storage::{ColumnKind, ConjunctiveQuery, Predicate, Schema};
use proptest::prelude::*;

fn scores_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1e6, 1..200)
}

proptest! {
    /// The conformal quantile is an order statistic: permutation-invariant,
    /// at least the median for alpha <= 0.5, and monotone in alpha.
    #[test]
    fn conformal_quantile_is_permutation_invariant(mut scores in scores_strategy(), alpha in 0.01f64..0.5) {
        let q1 = conformal_quantile(&scores, alpha);
        scores.reverse();
        let q2 = conformal_quantile(&scores, alpha);
        prop_assert_eq!(q1, q2);
    }

    #[test]
    fn conformal_quantile_is_monotone_in_alpha(scores in scores_strategy(), a in 0.02f64..0.4, b in 0.02f64..0.4) {
        let (lo_a, hi_a) = (a.min(b), a.max(b));
        // Smaller alpha (higher coverage) -> larger threshold.
        let q_hi_cov = conformal_quantile(&scores, lo_a);
        let q_lo_cov = conformal_quantile(&scores, hi_a);
        prop_assert!(q_hi_cov >= q_lo_cov);
    }

    #[test]
    fn conformal_quantile_bounds_the_right_mass(scores in scores_strategy(), alpha in 0.05f64..0.5) {
        let q = conformal_quantile(&scores, alpha);
        if q.is_finite() {
            let below = scores.iter().filter(|&&s| s <= q).count() as f64;
            // By construction at least ceil((1-alpha)(n+1)) of n+1 ranks are
            // covered; on the observed n that is at least (1-alpha)*n.
            prop_assert!(below >= ((1.0 - alpha) * scores.len() as f64).floor());
        }
    }

    #[test]
    fn lower_quantile_never_exceeds_upper(scores in scores_strategy(), alpha in 0.01f64..0.5) {
        prop_assert!(
            conformal_quantile_lower(&scores, alpha) <= conformal_quantile(&scores, alpha)
        );
    }

    /// Score inversion: any y inside the returned interval scores <= delta.
    #[test]
    fn absolute_residual_inversion_sound(y_hat in -1e3f64..1e3, delta in 0.0f64..1e3, t in 0.0f64..1.0) {
        let (lo, hi) = AbsoluteResidual.interval(y_hat, delta);
        let y = lo + t * (hi - lo);
        prop_assert!(AbsoluteResidual.score(y, y_hat) <= delta + 1e-9);
    }

    #[test]
    fn q_error_inversion_sound(y_hat in 1e-6f64..1.0, delta in 1.0f64..1e3, t in 0.0f64..1.0) {
        let score = QErrorScore::new(1e-9);
        let (lo, hi) = score.interval(y_hat, delta);
        let y = lo + t * (hi - lo);
        prop_assert!(score.score(y, y_hat) <= delta * (1.0 + 1e-9));
    }

    #[test]
    fn relative_error_inversion_sound(y_hat in 1e-6f64..1.0, delta in 0.0f64..3.0, t in 0.0f64..1.0) {
        let score = RelativeErrorScore::new(1e-12);
        let (lo, hi) = score.interval(y_hat, delta);
        prop_assert!(hi.is_finite(), "estimate-normalized inversion is bounded");
        let y = lo + t * (hi - lo);
        prop_assert!(score.score(y, y_hat) <= delta + 1e-9);
    }

    /// Q-error is symmetric, >= 1, and multiplicative-scale invariant.
    #[test]
    fn q_error_score_properties(a in 1e-6f64..1e6, b in 1e-6f64..1e6, k in 0.5f64..2.0) {
        let s = QErrorScore::new(1e-12);
        prop_assert!((s.score(a, b) - s.score(b, a)).abs() < 1e-9 * s.score(a, b));
        prop_assert!(s.score(a, b) >= 1.0);
        let scaled = s.score(a * k, b * k);
        prop_assert!((scaled - s.score(a, b)).abs() < 1e-6 * scaled);
    }

    /// Interval clipping: result inside [min,max], ordered, width shrinks.
    #[test]
    fn clip_properties(lo in -2.0f64..2.0, hi in -2.0f64..2.0) {
        let iv = PredictionInterval::new(lo, hi);
        let clipped = iv.clip(0.0, 1.0);
        prop_assert!(clipped.lo >= 0.0 && clipped.hi <= 1.0);
        prop_assert!(clipped.lo <= clipped.hi);
        prop_assert!(clipped.width() <= iv.width() + 1e-12);
    }

    /// The canonical encoding round-trips arbitrary valid queries exactly.
    #[test]
    fn featurizer_round_trip(
        a_val in 0u32..7,
        b_lo in 0u32..50,
        b_width in 0u32..49,
        c_val in 0u32..3,
        use_a in any::<bool>(),
        use_b in any::<bool>(),
        use_c in any::<bool>(),
    ) {
        let schema = Schema::from_specs(&[
            ("a", 7, ColumnKind::Categorical),
            ("b", 50, ColumnKind::Numeric),
            ("c", 3, ColumnKind::Categorical),
        ]);
        let feat = SingleTableFeaturizer::new(schema);
        let mut preds = Vec::new();
        if use_a { preds.push(Predicate::eq(0, a_val)); }
        if use_b {
            let hi = (b_lo + b_width).min(49);
            preds.push(Predicate::range(1, b_lo.min(hi), hi));
        }
        if use_c { preds.push(Predicate::eq(2, c_val)); }
        let q = ConjunctiveQuery::new(preds);
        prop_assert_eq!(feat.decode(&feat.encode(&q)), q);
    }

    /// Split conformal around an arbitrary linear model on exchangeable
    /// noisy data achieves close-to-nominal coverage.
    #[test]
    fn split_conformal_covers_synthetic(seed in 0u64..1000) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = |rng: &mut StdRng| {
            let x: Vec<Vec<f32>> = (0..150).map(|_| vec![rng.gen_range(0.0..1.0f32)]).collect();
            let y: Vec<f64> = x.iter().map(|f| f[0] as f64 + rng.gen_range(-0.2..0.2)).collect();
            (x, y)
        };
        let (cx, cy) = gen(&mut rng);
        let (tx, ty) = gen(&mut rng);
        let model = |f: &[f32]| f[0] as f64;
        let scp = SplitConformal::calibrate(model, AbsoluteResidual, &cx, &cy, 0.2);
        let covered = tx.iter().zip(&ty)
            .filter(|(f, &y)| scp.interval(f).contains(y))
            .count() as f64 / tx.len() as f64;
        // Per-seed bound is deliberately loose (n = 150 gives ~0.04 std and
        // proptest tries hundreds of seeds); the tight check on the *mean*
        // coverage lives in `mean_coverage_hits_nominal_rate` below.
        prop_assert!(covered >= 0.55, "coverage {}", covered);
    }
}

/// Averaged over many seeds, split-conformal coverage meets the nominal
/// rate — the sharp version of the property above.
#[test]
fn mean_coverage_hits_nominal_rate() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut total = 0.0;
    let trials = 40;
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = |rng: &mut StdRng| {
            let x: Vec<Vec<f32>> =
                (0..150).map(|_| vec![rng.gen_range(0.0..1.0f32)]).collect();
            let y: Vec<f64> =
                x.iter().map(|f| f[0] as f64 + rng.gen_range(-0.2..0.2)).collect();
            (x, y)
        };
        let (cx, cy) = gen(&mut rng);
        let (tx, ty) = gen(&mut rng);
        let model = |f: &[f32]| f[0] as f64;
        let scp = SplitConformal::calibrate(model, AbsoluteResidual, &cx, &cy, 0.2);
        total += tx
            .iter()
            .zip(&ty)
            .filter(|(f, &y)| scp.interval(f).contains(y))
            .count() as f64
            / tx.len() as f64;
    }
    let mean = total / trials as f64;
    assert!(mean >= 0.78, "mean coverage {mean} below nominal 0.8");
}

/// Split, online and windowed calibration hold the conformal guarantee on
/// exchangeable streams. With `n` scores held, one fresh query is covered
/// with probability in `[1 − α, 1 − α + 1/(n+1)]`; over many seeded
/// streams the mean coverage must sit in that range, widened by four
/// binomial standard deviations on each side.
#[test]
fn online_and_windowed_mean_coverage_stays_in_the_conformal_band() {
    use cardest::conformal::OnlineConformal;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let alpha = 0.1;
    let (n_split, n_online, window) = (29usize, 24usize, 19usize);
    // Enough trials that serving one order statistic too high or too low
    // leaves the band for the online calibrator.
    let trials = 10_000;
    let model = |f: &[f32]| f64::from(f[0]);
    let draw = |rng: &mut StdRng| {
        let x = rng.gen_range(0.0..1.0f32);
        (vec![x], f64::from(x) + rng.gen_range(-1.0..1.0))
    };
    let (mut split_hits, mut online_hits, mut window_hits) = (0usize, 0usize, 0usize);
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut online = OnlineConformal::new(model, AbsoluteResidual, &[], &[], alpha);
        let mut windowed = OnlineConformal::windowed(model, AbsoluteResidual, window, alpha);
        // The window sees three windows' worth and keeps the last; the
        // online calibrator keeps everything it sees, the last `n_online`.
        let stream = 3 * window;
        for i in 0..stream {
            let (x, y) = draw(&mut rng);
            if i >= stream - n_online {
                online.observe(&x, y);
            }
            windowed.observe(&x, y);
        }
        assert_eq!(online.calibration_size(), n_online);
        assert_eq!(windowed.calibration_size(), window);
        let (x, y) = draw(&mut rng);
        online_hits += usize::from(online.interval(&x).contains(y));
        window_hits += usize::from(windowed.interval(&x).contains(y));
        // Split CP calibrates once on `n_split` fresh draws.
        let (cx, cy): (Vec<Vec<f32>>, Vec<f64>) = (0..n_split).map(|_| draw(&mut rng)).unzip();
        let split = SplitConformal::calibrate(model, AbsoluteResidual, &cx, &cy, alpha);
        let (x, y) = draw(&mut rng);
        split_hits += usize::from(split.interval(&x).contains(y));
    }
    for (name, hits, n) in [
        ("split", split_hits, n_split),
        ("online", online_hits, n_online),
        ("windowed", window_hits, window),
    ] {
        let mean = hits as f64 / trials as f64;
        let (lo, hi) = (1.0 - alpha, 1.0 - alpha + 1.0 / (n as f64 + 1.0));
        let sd = |p: f64| (p * (1.0 - p) / trials as f64).sqrt();
        assert!(
            mean >= lo - 4.0 * sd(lo) && mean <= hi + 4.0 * sd(hi),
            "{name} mean coverage {mean} outside [{lo}, {hi}] ± 4 sd over {trials} seeds"
        );
    }
}
