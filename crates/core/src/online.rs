//! Online and windowed conformal calibration (paper §IV).
//!
//! Conformal prediction is naturally online: once a query executes, its true
//! cardinality is known and the pair can be folded into the calibration set
//! without breaking exchangeability. [`OnlineConformal::new`] grows the score
//! set forever (Fig. 8); [`OnlineConformal::windowed`] keeps only the last
//! `w` scores so the calibration tracks the recent workload. Both are one
//! type over one score state; only its window differs.

use std::collections::VecDeque;

use crate::error::{check_alpha, check_lengths, finite_or_err, CardEstError};
use crate::interval::PredictionInterval;
use crate::regressor::Regressor;
use crate::score::ScoreFunction;

/// Maintains a sorted score multiset supporting O(log n) insertion position
/// lookup and O(1) conformal-quantile reads.
///
/// Non-finite scores (a NaN residual from a corrupt model output, say) are
/// not stored in the sorted vector; they are *counted* and treated as `+∞`
/// order statistics, so a bad observation conservatively widens the
/// threshold instead of panicking or poisoning the sort order.
#[derive(Debug, Clone, Default)]
struct SortedScores {
    values: Vec<f64>,
    n_nonfinite: usize,
}

impl SortedScores {
    fn insert(&mut self, v: f64) {
        if !v.is_finite() {
            self.n_nonfinite += 1;
            return;
        }
        let pos = self.values.partition_point(|&x| x < v);
        self.values.insert(pos, v);
    }

    /// Removes one copy of `v`, matched exactly: scores round-trip through
    /// checkpoints bit for bit, so a miss means the multiset and the caller
    /// disagree and is reported as [`CardEstError::ScoreNotFound`] — the
    /// serve loop must degrade, never abort.
    fn remove(&mut self, v: f64) -> Result<(), CardEstError> {
        if !v.is_finite() {
            if self.n_nonfinite == 0 {
                return Err(CardEstError::ScoreNotFound { score: v });
            }
            self.n_nonfinite -= 1;
            return Ok(());
        }
        let pos = self.values.partition_point(|&x| x < v);
        if self.values.get(pos) != Some(&v) {
            return Err(CardEstError::ScoreNotFound { score: v });
        }
        self.values.remove(pos);
        Ok(())
    }

    fn len(&self) -> usize {
        self.values.len() + self.n_nonfinite
    }

    /// The `⌈(1-α)(n+1)⌉`-th smallest, `+∞` if out of range or if the rank
    /// lands in the non-finite tail.
    fn conformal_quantile(&self, alpha: f64) -> f64 {
        let n = self.len();
        let rank = ((1.0 - alpha) * (n as f64 + 1.0)).ceil() as usize;
        if rank == 0 || rank > self.values.len() {
            f64::INFINITY
        } else {
            self.values[rank - 1]
        }
    }
}

/// The calibration state of one conformal calibrator: the sorted score
/// multiset, the miscoverage level, and — for a windowed calibrator — the
/// scores in arrival order, capped at the window size.
#[derive(Debug, Clone)]
pub(crate) struct ScoreState {
    sorted: SortedScores,
    /// Arrival order; kept only when `window` is set.
    recency: VecDeque<f64>,
    /// Cap on the number of scores kept; `None` grows forever.
    window: Option<usize>,
    alpha: f64,
}

impl ScoreState {
    /// An empty state; `window` of `None` keeps every score.
    pub(crate) fn new(window: Option<usize>, alpha: f64) -> Result<Self, CardEstError> {
        check_alpha(alpha)?;
        if window == Some(0) {
            return Err(CardEstError::InvalidParameter("window must be positive"));
        }
        Ok(ScoreState {
            sorted: SortedScores::default(),
            recency: VecDeque::with_capacity(window.map_or(0, |w| w + 1)),
            window,
            alpha,
        })
    }

    /// Current threshold δ (`+∞` while too few scores are held).
    pub(crate) fn delta(&self) -> f64 {
        self.sorted.conformal_quantile(self.alpha)
    }

    /// Adds one score, evicting the oldest when a window is full. A
    /// non-finite score is recorded as `+∞` (and evicted like any other).
    ///
    /// An eviction whose score is not in the multiset (a float changed
    /// behind the calibrator's back) is dropped and counted under the
    /// `windowed.evict_miss` telemetry counter rather than aborting the
    /// serve loop.
    pub(crate) fn insert(&mut self, s: f64) {
        self.sorted.insert(s);
        let Some(window) = self.window else { return };
        self.recency.push_back(s);
        if self.recency.len() > window {
            let old = self.recency.pop_front().expect("non-empty window");
            if self.sorted.remove(old).is_err() {
                ce_telemetry::counter("windowed.evict_miss").inc();
            }
        }
    }

    /// Replaces every score with `scores` (in arrival order), keeping only
    /// the most recent `window` of them when windowed.
    pub(crate) fn replace_scores(&mut self, scores: &[f64]) {
        self.sorted = SortedScores::default();
        self.recency.clear();
        let start = self.window.map_or(0, |w| scores.len().saturating_sub(w));
        for &s in &scores[start..] {
            self.insert(s);
        }
    }

    /// Checkpoint restore of an unwindowed state: adopts already-sorted
    /// finite scores plus a non-finite count without re-sorting. The
    /// checkpoint decoder rejects unsorted or non-finite values before they
    /// get here.
    pub(crate) fn restore_sorted(&mut self, values: Vec<f64>, n_nonfinite: usize) {
        self.sorted = SortedScores { values, n_nonfinite };
    }

    /// The window's scores in arrival order, oldest first (raw values —
    /// non-finite scores appear as observed).
    pub(crate) fn recency(&self) -> impl Iterator<Item = f64> + '_ {
        self.recency.iter().copied()
    }
}

/// A conformal calibrator around one black-box model, updated online.
///
/// Built by [`OnlineConformal::new`] it keeps every score (Fig. 8); built by
/// [`OnlineConformal::windowed`] it keeps only the most recent `window`.
#[derive(Debug, Clone)]
pub struct OnlineConformal<M, S> {
    model: M,
    score: S,
    scores: ScoreState,
}

impl<M: Regressor, S: ScoreFunction> OnlineConformal<M, S> {
    /// Starts from an initial calibration set (may be small — intervals are
    /// infinite/clipped until enough scores accumulate).
    ///
    /// # Panics
    /// Panics on any input [`OnlineConformal::try_new`] rejects.
    pub fn new(
        model: M,
        score: S,
        calib_x: &[Vec<f32>],
        calib_y: &[f64],
        alpha: f64,
    ) -> Self {
        Self::try_new(model, score, calib_x, calib_y, alpha)
            .expect("invalid OnlineConformal configuration")
    }

    /// Non-panicking [`OnlineConformal::new`]: reports mismatched lengths and
    /// bad `alpha` as errors. An *empty* calibration set is valid — the
    /// predictor starts with an infinite threshold and tightens as it
    /// observes — and non-finite calibration scores are counted as `+∞`
    /// (conservative) rather than rejected.
    pub fn try_new(
        model: M,
        score: S,
        calib_x: &[Vec<f32>],
        calib_y: &[f64],
        alpha: f64,
    ) -> Result<Self, CardEstError> {
        check_lengths(calib_x.len(), calib_y.len())?;
        let mut oc = OnlineConformal { model, score, scores: ScoreState::new(None, alpha)? };
        for (x, &y) in calib_x.iter().zip(calib_y) {
            oc.observe(x, y);
        }
        Ok(oc)
    }

    /// A sliding-window calibrator that starts empty and keeps the most
    /// recent `window` scores.
    ///
    /// # Panics
    /// Panics if `window == 0` or `alpha` outside `(0, 1)`.
    pub fn windowed(model: M, score: S, window: usize, alpha: f64) -> Self {
        Self::try_windowed(model, score, window, alpha)
            .expect("invalid windowed OnlineConformal configuration")
    }

    /// Non-panicking [`OnlineConformal::windowed`].
    pub fn try_windowed(
        model: M,
        score: S,
        window: usize,
        alpha: f64,
    ) -> Result<Self, CardEstError> {
        Ok(OnlineConformal { model, score, scores: ScoreState::new(Some(window), alpha)? })
    }

    /// Current calibration-set size (for a windowed calibrator, at most the
    /// window).
    pub fn calibration_size(&self) -> usize {
        self.scores.sorted.len()
    }

    /// Current threshold δ.
    pub fn delta(&self) -> f64 {
        self.scores.delta()
    }

    /// The model's point estimate.
    pub fn predict(&self, features: &[f32]) -> f64 {
        self.model.predict(features)
    }

    /// Interval under the current calibration set.
    pub fn interval(&self, features: &[f32]) -> PredictionInterval {
        self.interval_at(features, self.delta())
    }

    /// Like [`OnlineConformal::interval`], but a non-finite model prediction
    /// is reported as [`CardEstError::NonFiniteScore`] instead of silently
    /// producing a garbage interval.
    pub fn try_interval(&self, features: &[f32]) -> Result<PredictionInterval, CardEstError> {
        self.try_interval_at(features, self.delta())
    }

    /// Batched [`OnlineConformal::try_interval`]: one
    /// [`Regressor::predict_batch`] call for the whole batch (models with a
    /// real batch path amortize their forward pass), one threshold read,
    /// per-query finiteness checks. Output `i` equals
    /// `try_interval(&queries[i])` exactly — the threshold is a pure read
    /// and the batch predict is row-identical by the regressor contract.
    pub fn try_interval_batch(
        &self,
        queries: &[Vec<f32>],
    ) -> Vec<Result<PredictionInterval, CardEstError>> {
        self.try_interval_batch_at(queries, self.delta())
    }

    /// Batched [`OnlineConformal::interval`] (infallible form; a non-finite
    /// prediction propagates into the interval exactly as on the single
    /// path).
    pub fn interval_batch(&self, queries: &[Vec<f32>]) -> Vec<PredictionInterval> {
        self.interval_batch_at(queries, self.delta())
    }

    /// [`OnlineConformal::interval`] under a caller-chosen threshold.
    pub(crate) fn interval_at(&self, features: &[f32], delta: f64) -> PredictionInterval {
        self.interval_around(self.model.predict(features), delta)
    }

    /// [`OnlineConformal::try_interval`] under a caller-chosen threshold.
    pub(crate) fn try_interval_at(
        &self,
        features: &[f32],
        delta: f64,
    ) -> Result<PredictionInterval, CardEstError> {
        let y_hat = finite_or_err(self.model.predict(features), "model prediction")?;
        Ok(self.interval_around(y_hat, delta))
    }

    /// [`OnlineConformal::interval_batch`] under a caller-chosen threshold.
    pub(crate) fn interval_batch_at(
        &self,
        queries: &[Vec<f32>],
        delta: f64,
    ) -> Vec<PredictionInterval> {
        let y_hats = self.model.predict_batch(queries);
        y_hats.into_iter().map(|y_hat| self.interval_around(y_hat, delta)).collect()
    }

    /// [`OnlineConformal::try_interval_batch`] under a caller-chosen
    /// threshold.
    pub(crate) fn try_interval_batch_at(
        &self,
        queries: &[Vec<f32>],
        delta: f64,
    ) -> Vec<Result<PredictionInterval, CardEstError>> {
        let y_hats = self.model.predict_batch(queries);
        y_hats
            .into_iter()
            .map(|y_hat| {
                let y_hat = finite_or_err(y_hat, "model prediction")?;
                Ok(self.interval_around(y_hat, delta))
            })
            .collect()
    }

    /// The interval of threshold `delta` around an already-computed
    /// prediction.
    pub(crate) fn interval_around(&self, y_hat: f64, delta: f64) -> PredictionInterval {
        let (lo, hi) = self.score.interval(y_hat, delta);
        PredictionInterval::new(lo, hi)
    }

    /// The conformal score of a truth against an already-computed
    /// prediction.
    pub(crate) fn score(&self, y_true: f64, y_hat: f64) -> f64 {
        self.score.score(y_true, y_hat)
    }

    /// Folds an executed query's observed truth into the calibration set.
    /// A non-finite score (corrupt prediction or label) is recorded as `+∞`;
    /// a windowed calibrator evicts its oldest score when full.
    pub fn observe(&mut self, features: &[f32], y_true: f64) {
        let s = self.score(y_true, self.model.predict(features));
        self.scores.insert(s);
    }

    /// Folds an already-computed score into the calibration set.
    pub(crate) fn observe_score(&mut self, s: f64) {
        self.scores.insert(s);
    }

    /// The finite calibration scores in sorted order (non-finite
    /// observations are counted separately, see
    /// [`OnlineConformal::nonfinite_count`]).
    pub fn calibration_scores(&self) -> &[f64] {
        &self.scores.sorted.values
    }

    /// Number of non-finite scores absorbed (each an implicit `+∞` order
    /// statistic).
    pub fn nonfinite_count(&self) -> usize {
        self.scores.sorted.n_nonfinite
    }

    /// Atomically replaces the whole calibration set with `scores` (the
    /// promotion step of drift remediation), given in arrival order; a
    /// windowed calibrator keeps only the most recent `window`. Non-finite
    /// entries are counted as `+∞` like any observed score.
    pub fn replace_scores(&mut self, scores: &[f64]) {
        self.scores.replace_scores(scores);
    }

    /// Checkpoint restore: adopts already-sorted finite scores plus a
    /// non-finite count without re-sorting.
    pub(crate) fn restore_sorted(&mut self, values: Vec<f64>, n_nonfinite: usize) {
        self.scores.restore_sorted(values, n_nonfinite);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::AbsoluteResidual;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sorted_scores_maintain_order_with_duplicates() {
        let mut s = SortedScores::default();
        for v in [3.0, 1.0, 2.0, 2.0, 5.0] {
            s.insert(v);
        }
        assert_eq!(s.values, vec![1.0, 2.0, 2.0, 3.0, 5.0]);
        s.remove(2.0).unwrap();
        assert_eq!(s.values, vec![1.0, 2.0, 3.0, 5.0]);
    }

    /// Evictions are exact: a score perturbed by a few ulps between insert
    /// and remove, like a genuinely absent one, comes back as a typed error
    /// (not a panic) and leaves the multiset untouched.
    #[test]
    fn remove_is_exact_and_reports_missing() {
        use crate::error::CardEstError;
        let mut s = SortedScores::default();
        for v in [0.5, 1.0, 2.0] {
            s.insert(v);
        }
        let perturbed = 1.0 + 1e-13;
        assert_ne!(perturbed, 1.0);
        assert_eq!(
            s.remove(perturbed),
            Err(CardEstError::ScoreNotFound { score: perturbed })
        );
        assert_eq!(s.values, vec![0.5, 1.0, 2.0]);
        s.remove(1.0).unwrap();
        assert_eq!(s.values, vec![0.5, 2.0]);
        assert_eq!(
            s.remove(1.5),
            Err(CardEstError::ScoreNotFound { score: 1.5 })
        );
        assert_eq!(s.values, vec![0.5, 2.0]);
        // A non-finite removal with no non-finite entries is also typed.
        assert!(matches!(
            s.remove(f64::NAN),
            Err(CardEstError::ScoreNotFound { .. })
        ));
    }

    /// The windowed serve loop survives a perturbed eviction: a miss is
    /// dropped (and counted), never a panic.
    #[test]
    fn windowed_observe_survives_score_not_found() {
        let model = |_: &[f32]| 0.0;
        let mut wc = OnlineConformal::windowed(model, AbsoluteResidual, 2, 0.5);
        wc.observe(&[0.0], 1.0);
        wc.observe(&[0.0], 2.0);
        // Sabotage the multiset so the upcoming eviction of score 1.0 misses.
        wc.scores.sorted = SortedScores::default();
        wc.scores.sorted.insert(10.0);
        wc.scores.sorted.insert(20.0);
        wc.observe(&[0.0], 3.0); // evicts 1.0 -> not present -> dropped
        assert_eq!(wc.scores.recency.len(), 2, "recency window stays bounded");
    }

    #[test]
    fn online_delta_matches_batch_quantile() {
        use crate::quantile::conformal_quantile;
        let mut rng = StdRng::seed_from_u64(1);
        let scores: Vec<f64> = (0..57).map(|_| rng.gen::<f64>()).collect();
        let model = |_: &[f32]| 0.0;
        let mut oc = OnlineConformal::new(model, AbsoluteResidual, &[], &[], 0.1);
        for &s in &scores {
            // Observe with y = s so |y - 0| = s.
            oc.observe(&[0.0], s);
        }
        assert_eq!(oc.delta(), conformal_quantile(&scores, 0.1));
    }

    #[test]
    fn intervals_tighten_as_calibration_grows_under_shrinking_noise() {
        // The Fig. 8 mechanism: with a fixed noise level, tiny calibration
        // sets force conservative (even infinite) thresholds; as n grows the
        // threshold converges down to the noise quantile.
        let mut rng = StdRng::seed_from_u64(2);
        let model = |f: &[f32]| f[0] as f64;
        let mut oc = OnlineConformal::new(model, AbsoluteResidual, &[], &[], 0.1);
        let mut deltas = Vec::new();
        for i in 0..500 {
            let x = [rng.gen_range(0.0..1.0f32)];
            let y = x[0] as f64 + rng.gen_range(-1.0..1.0);
            oc.observe(&x, y);
            if [5, 50, 499].contains(&i) {
                deltas.push(oc.delta());
            }
        }
        assert!(deltas[0] >= deltas[1] && deltas[1] >= deltas[2] - 0.05,
            "thresholds should tighten: {deltas:?}");
        assert!(deltas[2] < 1.0 + 0.1, "converges near the 0.9 noise quantile");
    }

    #[test]
    fn online_coverage_holds_on_stream() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = |f: &[f32]| f[0] as f64;
        let mut oc = OnlineConformal::new(model, AbsoluteResidual, &[], &[], 0.1);
        // Warm up.
        for _ in 0..100 {
            let x = [rng.gen_range(0.0..1.0f32)];
            let y = x[0] as f64 + rng.gen_range(-1.0..1.0);
            oc.observe(&x, y);
        }
        let mut covered = 0usize;
        let n = 1000;
        for _ in 0..n {
            let x = [rng.gen_range(0.0..1.0f32)];
            let y = x[0] as f64 + rng.gen_range(-1.0..1.0);
            if oc.interval(&x).contains(y) {
                covered += 1;
            }
            oc.observe(&x, y);
        }
        let rate = covered as f64 / n as f64;
        assert!(rate >= 0.87, "stream coverage {rate}");
    }

    #[test]
    fn window_evicts_old_scores_and_adapts_to_shift() {
        let model = |_: &[f32]| 0.0;
        let mut wc = OnlineConformal::windowed(model, AbsoluteResidual, 50, 0.1);
        // Old regime: huge errors.
        for _ in 0..50 {
            wc.observe(&[0.0], 100.0);
        }
        let old_delta = wc.delta();
        // New regime: small errors; after 50 observations the window has
        // fully turned over.
        for _ in 0..50 {
            wc.observe(&[0.0], 1.0);
        }
        assert_eq!(wc.calibration_size(), 50);
        assert!(wc.delta() < old_delta / 10.0, "window should forget the old regime");
    }

    #[test]
    fn empty_window_gives_infinite_interval() {
        let model = |_: &[f32]| 5.0;
        let wc = OnlineConformal::windowed(model, AbsoluteResidual, 10, 0.1);
        assert_eq!(wc.calibration_size(), 0);
        let iv = wc.interval(&[0.0]);
        assert!(iv.lo.is_infinite() && iv.hi.is_infinite());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rejects_zero_window() {
        let model = |_: &[f32]| 0.0;
        OnlineConformal::windowed(model, AbsoluteResidual, 0, 0.1);
    }

    #[test]
    fn non_finite_scores_count_as_infinite_order_statistics() {
        let mut s = SortedScores::default();
        for v in [1.0, 2.0, f64::NAN, 3.0, f64::INFINITY] {
            s.insert(v);
        }
        assert_eq!(s.len(), 5);
        // alpha = 0.05: rank = ceil(0.95 * 6) = 6 > 3 finite values.
        assert!(s.conformal_quantile(0.05).is_infinite());
        // alpha = 0.5: rank = ceil(0.5 * 6) = 3 -> still in the finite run.
        assert_eq!(s.conformal_quantile(0.5), 3.0);
        s.remove(f64::NAN).unwrap();
        s.remove(f64::INFINITY).unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn windowed_evicts_non_finite_scores_cleanly() {
        // NaN feature -> NaN prediction -> NaN score; it must flow through
        // the window (insert, quantile, evict) without panicking.
        // alpha = 0.5 so a 3-score window has a finite conformal rank
        // (ceil(0.5 * 4) = 2) once the NaN is gone.
        let model = |f: &[f32]| f[0] as f64;
        let mut wc = OnlineConformal::windowed(model, AbsoluteResidual, 3, 0.5);
        wc.observe(&[f32::NAN], 1.0);
        assert!(wc.delta().is_infinite());
        for _ in 0..3 {
            wc.observe(&[0.0], 0.5);
        }
        assert_eq!(wc.calibration_size(), 3);
        assert!(wc.delta().is_finite(), "NaN score must have been evicted");
    }

    #[test]
    fn empty_calibration_yields_conservative_interval_not_panic() {
        let model = |_: &[f32]| 5.0;
        let oc = OnlineConformal::new(model, AbsoluteResidual, &[], &[], 0.1);
        assert_eq!(oc.calibration_size(), 0);
        let iv = oc.interval(&[0.0]);
        assert!(iv.lo.is_infinite() && iv.hi.is_infinite());
        assert!(iv.contains(5.0));
    }

    #[test]
    fn try_constructors_report_errors_instead_of_panicking() {
        use crate::error::CardEstError;
        let model = |_: &[f32]| 0.0;
        assert!(OnlineConformal::new(model, AbsoluteResidual, &[], &[], 0.1)
            .try_interval(&[0.0])
            .is_ok());
        assert_eq!(
            OnlineConformal::try_new(model, AbsoluteResidual, &[vec![0.0]], &[], 0.1)
                .err(),
            Some(CardEstError::LengthMismatch { features: 1, targets: 0 })
        );
        assert_eq!(
            OnlineConformal::try_new(model, AbsoluteResidual, &[], &[], 1.5).err(),
            Some(CardEstError::InvalidAlpha(1.5))
        );
        assert_eq!(
            OnlineConformal::try_windowed(model, AbsoluteResidual, 0, 0.1).err(),
            Some(CardEstError::InvalidParameter("window must be positive"))
        );
        let nan_model = |_: &[f32]| f64::NAN;
        let oc = OnlineConformal::try_new(nan_model, AbsoluteResidual, &[], &[], 0.1)
            .expect("empty calibration is valid");
        assert!(matches!(
            oc.try_interval(&[0.0]),
            Err(CardEstError::NonFiniteScore { .. })
        ));
    }
}
