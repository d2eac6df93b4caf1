//! A managed prediction-interval service for production query streams.
//!
//! Ties the paper's §IV operational pieces into one component: intervals are
//! served from an ever-growing online calibration set; every observed score
//! also feeds a sliding window and an exchangeability martingale; when the
//! martingale detects a workload shift, serving switches to the
//! recent-window thresholds until the detector (restarted at the switch)
//! stays quiet for a full window — the recover-don't-crash behaviour Fig. 11
//! motivates.

use crate::error::CardEstError;
use crate::exchangeability::{ExchangeabilityMartingale, MartingaleSnapshot};
use crate::interval::PredictionInterval;
use crate::monitor::{CoverageDrift, CoverageMonitor, CoverageMonitorConfig};
use crate::online::{OnlineConformal, ScoreState};
use crate::regressor::Regressor;
use crate::score::ScoreFunction;

/// Serving mode of the [`PiService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceMode {
    /// Exchangeability holds: serve from the full online calibration set.
    Stable,
    /// Shift detected: serve from the sliding window until it clears.
    Drifted,
}

/// Configuration of the managed service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiServiceConfig {
    /// Miscoverage level.
    pub alpha: f64,
    /// Sliding-window size (also the quarantine length after a shift).
    pub window: usize,
    /// Martingale capital-growth factor that triggers drift handling.
    pub shift_threshold: f64,
    /// When set, a latched [`CoverageMonitor`] alarm also switches serving
    /// to [`ServiceMode::Drifted`] (and must clear before the service
    /// returns to Stable). Off by default: the martingale alone decides and
    /// the coverage monitor stays strictly out-of-band.
    pub couple_coverage_alarm: bool,
}

impl Default for PiServiceConfig {
    fn default() -> Self {
        PiServiceConfig {
            alpha: 0.1,
            window: 200,
            shift_threshold: 1e4,
            couple_coverage_alarm: false,
        }
    }
}

/// A self-maintaining PI server around one black-box model.
///
/// It holds the model once, inside the full-history calibrator, and scores
/// each truth with one forward pass that feeds both score sets.
#[derive(Debug, Clone)]
pub struct PiService<M, S> {
    /// The model, the score function and the full-history scores.
    online: OnlineConformal<M, S>,
    /// The recent-window scores, served while Drifted.
    window: ScoreState,
    monitor: ExchangeabilityMartingale,
    config: PiServiceConfig,
    mode: ServiceMode,
    /// Observations since the last mode switch to Drifted.
    since_switch: usize,
    shifts_detected: usize,
    /// Out-of-band health signal: rolling coverage over served intervals.
    /// Nothing in the serving path reads it back (DESIGN.md §5b).
    coverage: CoverageMonitor,
}

impl<M: Regressor, S: ScoreFunction> PiService<M, S> {
    /// Builds the service from an initial calibration set.
    ///
    /// # Panics
    /// Panics on mismatched calibration lengths, `alpha` outside `(0, 1)`,
    /// a zero window, or a shift threshold ≤ 1.
    pub fn new(
        model: M,
        score: S,
        calib_x: &[Vec<f32>],
        calib_y: &[f64],
        config: PiServiceConfig,
    ) -> Self {
        Self::try_new(model, score, calib_x, calib_y, config)
            .expect("invalid PiService configuration")
    }

    /// Non-panicking [`PiService::new`]: configuration and calibration-shape
    /// problems become errors; an empty calibration set is valid (the
    /// service starts conservative and tightens as it observes).
    pub fn try_new(
        model: M,
        score: S,
        calib_x: &[Vec<f32>],
        calib_y: &[f64],
        config: PiServiceConfig,
    ) -> Result<Self, CardEstError> {
        let online = OnlineConformal::try_new(model, score, calib_x, calib_y, config.alpha)?;
        let window = ScoreState::new(Some(config.window), config.alpha)?;
        // `<=` would accept NaN; the negated `>` rejects it too.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(config.shift_threshold > 1.0) {
            return Err(CardEstError::InvalidParameter("shift threshold must exceed 1"));
        }
        let coverage = CoverageMonitor::new(CoverageMonitorConfig {
            alpha: config.alpha,
            window: config.window,
            min_samples: (config.window / 4).max(30),
            ..Default::default()
        });
        Ok(PiService {
            online,
            window,
            monitor: ExchangeabilityMartingale::new(),
            config,
            mode: ServiceMode::Stable,
            since_switch: 0,
            shifts_detected: 0,
            coverage,
        })
    }

    /// Current serving mode.
    pub fn mode(&self) -> ServiceMode {
        self.mode
    }

    /// Number of distinct shift activations so far.
    pub fn shifts_detected(&self) -> usize {
        self.shifts_detected
    }

    /// The model's point estimate.
    pub fn predict(&self, features: &[f32]) -> f64 {
        self.online.predict(features)
    }

    /// Serves an interval under the current mode. While the window is still
    /// filling after a shift, its (conservative, possibly infinite)
    /// threshold applies — clip downstream.
    pub fn interval(&self, features: &[f32]) -> PredictionInterval {
        let _span = ce_telemetry::Span::enter("pi_interval");
        self.online.interval_at(features, self.serving_delta())
    }

    /// Like [`PiService::interval`], but a non-finite model prediction is
    /// reported as [`CardEstError::NonFiniteScore`].
    pub fn try_interval(&self, features: &[f32]) -> Result<PredictionInterval, CardEstError> {
        self.online.try_interval_at(features, self.serving_delta())
    }

    /// Serves a whole batch of queries under the *current* mode with one
    /// batched calibrator call — a single [`Regressor::predict_batch`]
    /// forward pass plus one threshold read for the whole batch.
    ///
    /// The serving mode and thresholds are snapshotted for the batch (the
    /// method takes `&self`, and feedback arrives separately via
    /// [`PiService::observe`]), so output `i` is exactly
    /// `self.interval(&queries[i])` — the batch forward is row-identical by
    /// the regressor contract, and any internal parallelism keeps the
    /// bit-identical-at-any-thread-count guarantee.
    pub fn predict_interval_batch(&self, queries: &[Vec<f32>]) -> Vec<PredictionInterval>
    where
        M: Sync,
        S: Sync,
    {
        let _span = batch_span(queries.len());
        self.online.interval_batch_at(queries, self.serving_delta())
    }

    /// Batched [`PiService::try_interval`]: the fallible form of
    /// [`PiService::predict_interval_batch`], with non-finite predictions
    /// reported per query as typed errors.
    pub fn try_interval_batch(
        &self,
        queries: &[Vec<f32>],
    ) -> Vec<Result<PredictionInterval, CardEstError>> {
        let _span = batch_span(queries.len());
        self.online.try_interval_batch_at(queries, self.serving_delta())
    }

    /// Feeds back an executed query's truth: updates both score sets and
    /// the drift monitor, switching modes as needed.
    ///
    /// A non-finite score (corrupt prediction or label) still reaches both
    /// score sets — they record it as a conservative `+∞` — but is kept out
    /// of the drift monitor, whose betting martingale is only defined over
    /// finite scores.
    pub fn observe(&mut self, features: &[f32], y_true: f64) {
        self.observe_scored(features, y_true);
    }

    /// [`PiService::observe`], returning the truth's conformal score so the
    /// healing layer reuses this one forward pass instead of running its
    /// own.
    pub(crate) fn observe_scored(&mut self, features: &[f32], y_true: f64) -> f64 {
        let _span = ce_telemetry::Span::enter("pi_observe");
        let y_hat = self.online.predict(features);
        // Score the served interval against the truth *before* the
        // calibrators absorb it — this is the monitor's honest view of what
        // the service actually answered for this query.
        let served = self.online.interval_around(y_hat, self.serving_delta());
        self.coverage.observe_interval(&served, y_true);
        let score = self.online.score(y_true, y_hat);
        self.online.observe_score(score);
        self.window.insert(score);
        if score.is_finite() {
            self.monitor.observe(score);
        }
        self.since_switch += 1;
        self.update_mode();
        score
    }

    /// Switches between Stable and Drifted after an observation.
    fn update_mode(&mut self) {
        match self.mode {
            ServiceMode::Stable => {
                let martingale_trip =
                    self.monitor.detects_shift_at(self.config.shift_threshold);
                // Opt-in second trigger: a latched coverage alarm means the
                // intervals actually served are under-covering, even if the
                // score stream still looks exchangeable to the martingale.
                let alarm_trip =
                    self.config.couple_coverage_alarm && self.coverage.drift().is_some();
                if martingale_trip || alarm_trip {
                    self.mode = ServiceMode::Drifted;
                    self.shifts_detected += 1;
                    self.since_switch = 0;
                    // Restart the monitor so recovery is judged on the new
                    // regime only.
                    self.monitor = ExchangeabilityMartingale::new();
                    ce_telemetry::counter("pi.mode_to_drifted").inc();
                    if alarm_trip && !martingale_trip {
                        ce_telemetry::counter("pi.alarm_coupled_trips").inc();
                    }
                }
            }
            ServiceMode::Drifted => {
                if self.since_switch < self.config.window {
                    return;
                }
                if self.monitor.detects_shift_at(self.config.shift_threshold) {
                    // Still shifting: restart the quarantine clock.
                    self.shifts_detected += 1;
                    self.monitor = ExchangeabilityMartingale::new();
                    self.since_switch = 0;
                    return;
                }
                // Return to the full-history calibration only once it has
                // actually absorbed the new regime: the monitor stayed quiet
                // for a full window AND the global threshold agrees with the
                // recent-window one. Until then the online set is a mixture
                // dominated by the old regime and would under-cover.
                let d_online = self.online.delta();
                let d_window = self.window.delta();
                let agree = d_online.is_finite()
                    && d_window.is_finite()
                    && (d_online - d_window).abs()
                        <= 0.2 * d_window.abs().max(f64::MIN_POSITIVE);
                // With alarm coupling on, a still-latched coverage alarm
                // vetoes the return: served coverage must be back in band,
                // not just the score stream quiet.
                let alarm_clear =
                    !self.config.couple_coverage_alarm || self.coverage.drift().is_none();
                if agree && alarm_clear {
                    self.mode = ServiceMode::Stable;
                    self.since_switch = 0;
                    ce_telemetry::counter("pi.mode_to_stable").inc();
                }
            }
        }
    }

    /// Total calibration scores absorbed.
    pub fn calibration_size(&self) -> usize {
        self.online.calibration_size()
    }

    /// The rolling coverage/width health monitor fed by
    /// [`PiService::observe`]. Strictly out-of-band: serving decisions never
    /// read it.
    pub fn coverage_monitor(&self) -> &CoverageMonitor {
        &self.coverage
    }

    /// The service configuration.
    pub fn config(&self) -> PiServiceConfig {
        self.config
    }

    /// The threshold δ the *current mode* would serve with.
    pub fn serving_delta(&self) -> f64 {
        match self.mode {
            ServiceMode::Stable => self.online.delta(),
            ServiceMode::Drifted => self.window.delta(),
        }
    }

    /// Atomically promotes a validated recalibration: both score sets adopt
    /// `scores` as their entire score set, the drift detector restarts, the
    /// coverage window (and any latched alarm) clears, and serving returns to
    /// [`ServiceMode::Stable`]. This is the commit point of the self-healing
    /// state machine — between the first and last field update no query can
    /// observe a mixed state because the method holds `&mut self`.
    pub fn promote_calibration(&mut self, scores: &[f64]) {
        self.online.replace_scores(scores);
        self.window.replace_scores(scores);
        self.monitor = ExchangeabilityMartingale::new();
        self.coverage.reset_window();
        self.mode = ServiceMode::Stable;
        self.since_switch = 0;
        ce_telemetry::counter("pi.calibration_promoted").inc();
    }

    /// Extracts the full mutable state for checkpointing. Everything the
    /// serving path can read is captured, so
    /// [`PiService::from_state`] resumes bit-for-bit.
    pub(crate) fn export_state(&self) -> PiServiceState {
        let (monitor_alarm, monitor_alarms_raised, monitor_observed_total) =
            self.coverage.alarm_state();
        PiServiceState {
            config: self.config,
            online_scores: self.online.calibration_scores().to_vec(),
            online_nonfinite: self.online.nonfinite_count(),
            window_scores: self.window.recency().collect(),
            martingale: self.monitor.snapshot(),
            mode: self.mode,
            since_switch: self.since_switch,
            shifts_detected: self.shifts_detected,
            monitor_entries: self.coverage.entries().collect(),
            monitor_alarm,
            monitor_alarms_raised,
            monitor_observed_total,
        }
    }

    /// Rebuilds a service from checkpointed state around fresh copies of the
    /// (unserializable) model and score function.
    pub(crate) fn from_state(
        model: M,
        score: S,
        state: PiServiceState,
    ) -> Result<Self, CardEstError> {
        let mut svc = PiService::try_new(model, score, &[], &[], state.config)?;
        if state.window_scores.len() > state.config.window {
            return Err(CardEstError::CheckpointCorrupt("window scores overflow the config"));
        }
        svc.online.restore_sorted(state.online_scores, state.online_nonfinite);
        svc.window.replace_scores(&state.window_scores);
        svc.monitor = ExchangeabilityMartingale::restore_snapshot(state.martingale);
        svc.mode = state.mode;
        svc.since_switch = state.since_switch;
        svc.shifts_detected = state.shifts_detected;
        svc.coverage = CoverageMonitor::restore(
            svc.coverage.config(),
            state.monitor_entries,
            state.monitor_alarm,
            state.monitor_alarms_raised,
            state.monitor_observed_total,
        )?;
        Ok(svc)
    }
}

/// The span and batch-size record every batched serving call carries
/// (batch-level, so per-query spans never land inside a parallel loop).
fn batch_span(len: usize) -> ce_telemetry::Span {
    let span = ce_telemetry::Span::enter("pi_batch");
    if ce_telemetry::enabled() {
        ce_telemetry::histogram("pi.batch_size").record(len as u64);
    }
    span
}

/// The checkpointable state of a [`PiService`] (everything except the
/// black-box model and score function, which the caller re-supplies on
/// restore).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PiServiceState {
    pub config: PiServiceConfig,
    /// Finite online scores in sorted order.
    pub online_scores: Vec<f64>,
    /// Non-finite online observations (implicit `+∞` order statistics).
    pub online_nonfinite: usize,
    /// Window scores in arrival order, raw (non-finite values included).
    pub window_scores: Vec<f64>,
    pub martingale: MartingaleSnapshot,
    pub mode: ServiceMode,
    pub since_switch: usize,
    pub shifts_detected: usize,
    /// Coverage-monitor `(covered, width)` window, oldest first.
    pub monitor_entries: Vec<(bool, f64)>,
    pub monitor_alarm: Option<CoverageDrift>,
    pub monitor_alarms_raised: usize,
    pub monitor_observed_total: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::AbsoluteResidual;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn calm_point(rng: &mut StdRng) -> (Vec<f32>, f64) {
        let x = vec![rng.gen_range(0.0..1.0f32)];
        let y = x[0] as f64 + rng.gen_range(-0.2..0.2);
        (x, y)
    }

    /// A regime the model is terrible in: truth far above every estimate.
    fn shifted_point(rng: &mut StdRng) -> (Vec<f32>, f64) {
        let x = vec![rng.gen_range(0.0..1.0f32)];
        let y = x[0] as f64 + rng.gen_range(5.0..6.0);
        (x, y)
    }

    fn service(seed: u64) -> (PiService<impl Regressor + Clone, AbsoluteResidual>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = |f: &[f32]| f[0] as f64;
        let (cx, cy): (Vec<Vec<f32>>, Vec<f64>) =
            (0..300).map(|_| calm_point(&mut rng)).unzip();
        let svc = PiService::new(
            model,
            AbsoluteResidual,
            &cx,
            &cy,
            PiServiceConfig { window: 150, ..Default::default() },
        );
        (svc, rng)
    }

    #[test]
    fn stays_stable_and_covers_on_calm_stream() {
        let (mut svc, mut rng) = service(1);
        let mut covered = 0usize;
        let n = 800;
        for _ in 0..n {
            let (x, y) = calm_point(&mut rng);
            if svc.interval(&x).contains(y) {
                covered += 1;
            }
            svc.observe(&x, y);
        }
        assert_eq!(svc.mode(), ServiceMode::Stable);
        assert_eq!(svc.shifts_detected(), 0);
        let rate = covered as f64 / n as f64;
        assert!(rate >= 0.87, "calm coverage {rate}");
    }

    #[test]
    fn detects_shift_switches_modes_and_recovers_coverage() {
        let (mut svc, mut rng) = service(2);
        // Warm the stream.
        for _ in 0..200 {
            let (x, y) = calm_point(&mut rng);
            svc.observe(&x, y);
        }
        // Shifted regime: feed enough to trip the detector and fill the
        // window.
        for _ in 0..400 {
            let (x, y) = shifted_point(&mut rng);
            svc.observe(&x, y);
        }
        assert!(svc.shifts_detected() >= 1, "shift never detected");
        // Coverage on fresh shifted queries after adaptation.
        let mut covered = 0usize;
        let n = 300;
        for _ in 0..n {
            let (x, y) = shifted_point(&mut rng);
            if svc.interval(&x).clip(-100.0, 100.0).contains(y) {
                covered += 1;
            }
            svc.observe(&x, y);
        }
        let rate = covered as f64 / n as f64;
        assert!(rate >= 0.8, "post-shift coverage {rate}");
    }

    #[test]
    fn returns_to_stable_after_quarantine() {
        let (mut svc, mut rng) = service(3);
        for _ in 0..200 {
            let (x, y) = calm_point(&mut rng);
            svc.observe(&x, y);
        }
        for _ in 0..250 {
            let (x, y) = shifted_point(&mut rng);
            svc.observe(&x, y);
        }
        assert!(svc.shifts_detected() >= 1);
        // Keep streaming the (now-stationary) shifted regime: the restarted
        // monitor stays quiet and the service settles back to Stable.
        for _ in 0..600 {
            let (x, y) = shifted_point(&mut rng);
            svc.observe(&x, y);
        }
        assert_eq!(svc.mode(), ServiceMode::Stable, "should leave quarantine");
    }

    #[test]
    fn survives_non_finite_observations_and_queries() {
        let (mut svc, mut rng) = service(4);
        // Poison the stream: NaN labels, NaN features, infinite labels.
        for i in 0..120 {
            match i % 3 {
                0 => svc.observe(&[0.5], f64::NAN),
                1 => svc.observe(&[f32::NAN], 0.5),
                _ => svc.observe(&[0.5], f64::INFINITY),
            }
        }
        // The service keeps serving: the poisoned scores sit in the +inf
        // tail, so intervals are conservative (here: infinite) but valid.
        assert!(svc.interval(&[0.5]).contains(0.5));
        // A healthy stream keeps flowing afterwards; 10%+ of the score set
        // is poisoned, so the 90th-percentile threshold stays pinned at +inf
        // in the full-history calibrator — by design, corruption can only
        // widen. The serving path itself must stay panic-free and typed.
        for _ in 0..300 {
            let (x, y) = calm_point(&mut rng);
            svc.observe(&x, y);
        }
        assert!(svc.interval(&[0.5]).contains(0.5));
        assert!(svc.try_interval(&[0.5]).is_ok());
        assert!(svc.try_interval(&[f32::NAN]).is_err());
    }

    #[test]
    fn coverage_monitor_alarms_on_shift_and_stays_silent_when_calm() {
        let (mut svc, mut rng) = service(5);
        for _ in 0..300 {
            let (x, y) = calm_point(&mut rng);
            svc.observe(&x, y);
        }
        assert!(svc.coverage_monitor().drift().is_none(), "false alarm on calm stream");
        assert_eq!(svc.coverage_monitor().alarms_raised(), 0);
        // A hard shift must raise the drift alarm within one window.
        let mut alarmed_after = None;
        for i in 0..svc.coverage_monitor().config().window {
            let (x, y) = shifted_point(&mut rng);
            svc.observe(&x, y);
            if svc.coverage_monitor().drift().is_some() {
                alarmed_after = Some(i + 1);
                break;
            }
        }
        assert!(alarmed_after.is_some(), "coverage drift not raised within one window");
    }

    /// A service whose martingale can never fire (astronomical threshold),
    /// isolating the coverage-alarm trigger.
    fn martingale_pinned_service(
        seed: u64,
        couple: bool,
    ) -> (PiService<impl Regressor + Clone, AbsoluteResidual>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = |f: &[f32]| f[0] as f64;
        let (cx, cy): (Vec<Vec<f32>>, Vec<f64>) =
            (0..300).map(|_| calm_point(&mut rng)).unzip();
        let svc = PiService::new(
            model,
            AbsoluteResidual,
            &cx,
            &cy,
            PiServiceConfig {
                window: 150,
                shift_threshold: 1e300,
                couple_coverage_alarm: couple,
                ..Default::default()
            },
        );
        (svc, rng)
    }

    #[test]
    fn coverage_alarm_coupling_switches_mode_when_enabled() {
        let (mut svc, mut rng) = martingale_pinned_service(7, true);
        for _ in 0..100 {
            let (x, y) = calm_point(&mut rng);
            svc.observe(&x, y);
        }
        assert_eq!(svc.mode(), ServiceMode::Stable);
        // Under-coverage regime: the martingale cannot fire (threshold
        // 1e300), so only the coupled coverage alarm can switch modes.
        for _ in 0..200 {
            let (x, y) = shifted_point(&mut rng);
            svc.observe(&x, y);
        }
        assert_eq!(svc.mode(), ServiceMode::Drifted, "coupled alarm should trip Drifted");
        assert!(svc.shifts_detected() >= 1);
        // Keep streaming the now-stationary shifted regime: the windowed
        // calibrator restores served coverage, the alarm clears, and the
        // service returns to Stable only once both conditions hold. Rolling
        // coverage hovers near the hysteresis band, so poll for the
        // recovery instead of asserting an exact end state.
        let mut recovered = false;
        for _ in 0..1500 {
            let (x, y) = shifted_point(&mut rng);
            svc.observe(&x, y);
            if svc.mode() == ServiceMode::Stable {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "should recover to Stable once the alarm clears");
        assert!(svc.coverage_monitor().drift().is_none());
    }

    #[test]
    fn coverage_alarm_is_out_of_band_when_coupling_disabled() {
        let (mut svc, mut rng) = martingale_pinned_service(7, false);
        for _ in 0..100 {
            let (x, y) = calm_point(&mut rng);
            svc.observe(&x, y);
        }
        for _ in 0..200 {
            let (x, y) = shifted_point(&mut rng);
            svc.observe(&x, y);
        }
        // The alarm latches but, uncoupled, never touches serving mode —
        // the PR-3 out-of-band contract is the default behaviour.
        assert!(svc.coverage_monitor().drift().is_some(), "alarm should have latched");
        assert_eq!(svc.mode(), ServiceMode::Stable);
        assert_eq!(svc.shifts_detected(), 0);
    }

    #[test]
    fn try_new_reports_config_errors() {
        use crate::error::CardEstError;
        let model = |_: &[f32]| 0.0;
        assert!(PiService::try_new(
            model,
            AbsoluteResidual,
            &[],
            &[],
            PiServiceConfig::default(),
        )
        .is_ok());
        assert_eq!(
            PiService::try_new(
                model,
                AbsoluteResidual,
                &[],
                &[],
                PiServiceConfig { shift_threshold: 1.0, ..Default::default() },
            )
            .err(),
            Some(CardEstError::InvalidParameter("shift threshold must exceed 1"))
        );
        assert_eq!(
            PiService::try_new(
                model,
                AbsoluteResidual,
                &[],
                &[],
                PiServiceConfig { window: 0, ..Default::default() },
            )
            .err(),
            Some(CardEstError::InvalidParameter("window must be positive"))
        );
        assert!(matches!(
            PiService::try_new(
                model,
                AbsoluteResidual,
                &[],
                &[],
                PiServiceConfig { alpha: -0.1, ..Default::default() },
            ),
            Err(CardEstError::InvalidAlpha(_))
        ));
    }

    #[test]
    #[should_panic(expected = "shift threshold must exceed 1")]
    fn rejects_bad_threshold() {
        let model = |_: &[f32]| 0.0;
        PiService::new(
            model,
            AbsoluteResidual,
            &[],
            &[],
            PiServiceConfig { shift_threshold: 1.0, ..Default::default() },
        );
    }
}
