//! Drift-triggered self-healing: automatic recalibration with shadow
//! validation, rollback, and exponential-backoff cooldown.
//!
//! PR 3 built a [`CoverageMonitor`](crate::CoverageMonitor) that *detects*
//! coverage drift; this module wires its alarms to a remediation state
//! machine so the service can *act* on them (DESIGN.md §9):
//!
//! ```text
//!              alarm (cooldown elapsed)
//!   Healthy ──────────────────────────▶ Recalibrating
//!      ▲                                     │ gathered min_history
//!      │ promote (shadow validation passed)  │ fresh-regime scores
//!      ├─────────────────────────────────────┤
//!      │ cooldown elapsed                    │ validation failed
//!   RolledBack ◀─────────────────────────────┘
//! ```
//!
//! On alarm the layer gathers `min_history` *post-alarm* conformal scores —
//! the fresh regime only, never the mixture that tripped the alarm — splits
//! them into a refit slice (older) and a shadow slice (newest
//! `shadow_fraction`), fits a candidate threshold on the refit slice, and
//! validates it in shadow mode: the candidate must cover the shadow slice at
//! `≥ 1 − α − ε` *and* must not blow the live threshold up by more than
//! `max_width_blowup`. A validated candidate is promoted atomically
//! ([`PiService::promote_calibration`]); a rejected one is rolled back — the
//! live config keeps serving — and the next attempt waits out a cooldown that
//! doubles per consecutive failure.

use crate::error::CardEstError;
use crate::interval::PredictionInterval;
use crate::quantile::conformal_quantile;
use crate::regressor::Regressor;
use crate::score::ScoreFunction;
use crate::service::{PiService, PiServiceConfig};

/// Remediation state of a [`SelfHealingService`]. The discriminant is the
/// state's code in checkpoints and in the `heal_state` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealState {
    /// No remediation in flight; drift alarms are acted on.
    Healthy = 0,
    /// An alarm fired; gathering fresh-regime scores for the refit.
    Recalibrating = 1,
    /// The last candidate failed shadow validation; alarms are ignored until
    /// the cooldown elapses.
    RolledBack = 2,
}

/// Why a recalibration candidate was rejected during shadow validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealReason {
    /// Candidate coverage on the shadow slice fell below `1 − α − ε`.
    ShadowCoverageLow,
    /// The candidate threshold is non-finite or exceeds the live threshold
    /// by more than the configured blow-up factor.
    WidthBlowup,
}

impl std::fmt::Display for HealReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealReason::ShadowCoverageLow => write!(f, "shadow-coverage-low"),
            HealReason::WidthBlowup => write!(f, "width-blowup"),
        }
    }
}

/// Tuning of the self-healing layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealConfig {
    /// Validation slack: the candidate's shadow coverage must reach
    /// `1 − α − ε`.
    pub epsilon: f64,
    /// Fresh-regime observations gathered after an alarm before refitting.
    pub min_history: usize,
    /// Newest fraction of the gathered history held out for shadow
    /// validation (the rest is the refit slice).
    pub shadow_fraction: f64,
    /// A finite candidate threshold may exceed the live one by at most this
    /// factor (unenforced while the live threshold is infinite — anything
    /// finite improves on `+∞`).
    pub max_width_blowup: f64,
    /// Cooldown, in observations, after a failed recalibration before the
    /// next alarm is acted on; doubles per consecutive failure.
    pub cooldown_base: u64,
    /// Cap on the backoff exponent:
    /// `cooldown_base << min(failures − 1, max_backoff_exp)`.
    pub max_backoff_exp: u32,
}

impl Default for HealConfig {
    fn default() -> Self {
        HealConfig {
            epsilon: 0.05,
            min_history: 100,
            shadow_fraction: 0.25,
            max_width_blowup: 50.0,
            cooldown_base: 200,
            max_backoff_exp: 6,
        }
    }
}

/// One entry of the remediation history (bounded ring, newest last).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealEvent {
    /// A coverage-drift alarm started a recalibration attempt.
    AlarmReceived {
        /// Observation counter when the alarm was acted on.
        at: u64,
        /// Rolling coverage at that moment.
        coverage: f64,
    },
    /// Shadow validation passed and the candidate was promoted.
    Promoted {
        /// Observation counter at promotion.
        at: u64,
        /// Candidate coverage measured on the shadow slice.
        shadow_coverage: f64,
        /// The promoted threshold δ.
        candidate_delta: f64,
    },
    /// Shadow validation failed; the live config kept serving.
    RolledBack {
        /// Observation counter at rollback.
        at: u64,
        /// Which guard rejected the candidate.
        reason: HealReason,
        /// Candidate coverage measured on the shadow slice.
        shadow_coverage: f64,
        /// Observation counter before which new alarms are ignored.
        cooldown_until: u64,
    },
}

impl HealEvent {
    /// The observation counter the event was recorded at.
    pub fn at(&self) -> u64 {
        match *self {
            HealEvent::AlarmReceived { at, .. }
            | HealEvent::Promoted { at, .. }
            | HealEvent::RolledBack { at, .. } => at,
        }
    }
}

/// The checkpointable state of the healing layer (everything except the
/// wrapped service, which holds the model and score function).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HealSnapshot {
    pub config: HealConfig,
    pub state: HealState,
    pub observations: u64,
    pub gathered: Vec<f64>,
    pub gathered_dropped: u64,
    pub failures: u32,
    pub cooldown_until: u64,
    pub rollbacks: u64,
    pub promotions: u64,
    pub history: Vec<HealEvent>,
}

/// A [`PiService`] wrapped in the drift-remediation state machine.
///
/// Serving delegates straight through — on a calm stream (no alarm) the layer
/// never mutates anything, so intervals are bit-identical to the bare
/// service. Only [`SelfHealingService::observe`] drives the state machine.
#[derive(Debug, Clone)]
pub struct SelfHealingService<M, S> {
    service: PiService<M, S>,
    config: HealConfig,
    state: HealState,
    /// Observations fed through this layer (the state machine's clock).
    observations: u64,
    /// Fresh-regime finite scores gathered while Recalibrating.
    gathered: Vec<f64>,
    /// Non-finite scores dropped from the gather (they cannot be refit on).
    gathered_dropped: u64,
    /// Consecutive failed recalibrations (drives the backoff exponent).
    failures: u32,
    /// Alarms are ignored until the observation counter reaches this.
    cooldown_until: u64,
    rollbacks: u64,
    promotions: u64,
    history: Vec<HealEvent>,
}

impl<M: Regressor, S: ScoreFunction> SelfHealingService<M, S> {
    /// Bound on the remediation history kept for diagnostics.
    pub const HISTORY_CAP: usize = 32;

    /// Builds the service from an initial calibration set.
    ///
    /// # Panics
    /// Panics on any configuration the non-panicking
    /// [`SelfHealingService::try_new`] rejects.
    pub fn new(
        model: M,
        score: S,
        calib_x: &[Vec<f32>],
        calib_y: &[f64],
        service_config: PiServiceConfig,
        heal_config: HealConfig,
    ) -> Self {
        Self::try_new(model, score, calib_x, calib_y, service_config, heal_config)
            .expect("invalid SelfHealingService configuration")
    }

    /// Non-panicking [`SelfHealingService::new`].
    pub fn try_new(
        model: M,
        score: S,
        calib_x: &[Vec<f32>],
        calib_y: &[f64],
        service_config: PiServiceConfig,
        heal_config: HealConfig,
    ) -> Result<Self, CardEstError> {
        Self::check_config(&heal_config)?;
        let service = PiService::try_new(model, score, calib_x, calib_y, service_config)?;
        Ok(Self::from_parts(service, heal_config))
    }

    fn check_config(config: &HealConfig) -> Result<(), CardEstError> {
        if !config.epsilon.is_finite() || config.epsilon < 0.0 {
            return Err(CardEstError::InvalidParameter("heal epsilon must be finite and >= 0"));
        }
        if config.min_history < 2 {
            return Err(CardEstError::InvalidParameter("min_history must be at least 2"));
        }
        if !(config.shadow_fraction > 0.0 && config.shadow_fraction < 1.0) {
            return Err(CardEstError::InvalidParameter("shadow_fraction must be in (0,1)"));
        }
        // `<=` would accept NaN; the negated `>` rejects it too.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(config.max_width_blowup > 1.0) {
            return Err(CardEstError::InvalidParameter("max_width_blowup must exceed 1"));
        }
        if config.cooldown_base == 0 {
            return Err(CardEstError::InvalidParameter("cooldown_base must be positive"));
        }
        Ok(())
    }

    fn from_parts(service: PiService<M, S>, config: HealConfig) -> Self {
        SelfHealingService {
            service,
            config,
            state: HealState::Healthy,
            observations: 0,
            gathered: Vec::new(),
            gathered_dropped: 0,
            failures: 0,
            cooldown_until: 0,
            rollbacks: 0,
            promotions: 0,
            history: Vec::new(),
        }
    }

    /// Current remediation state.
    pub fn state(&self) -> HealState {
        self.state
    }

    /// The healing-layer configuration.
    pub fn heal_config(&self) -> HealConfig {
        self.config
    }

    /// The wrapped service (mode, coverage monitor, calibration size, …).
    pub fn service(&self) -> &PiService<M, S> {
        &self.service
    }

    /// Observations fed through this layer.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Lifetime count of failed recalibrations (rollbacks).
    pub fn rollback_count(&self) -> u64 {
        self.rollbacks
    }

    /// Lifetime count of promoted recalibrations.
    pub fn promotion_count(&self) -> u64 {
        self.promotions
    }

    /// The remediation history, oldest first (bounded to
    /// [`SelfHealingService::HISTORY_CAP`] entries).
    pub fn history(&self) -> &[HealEvent] {
        &self.history
    }

    /// The most recent acted-on alarm, if any.
    pub fn last_alarm(&self) -> Option<&HealEvent> {
        self.history.iter().rev().find(|e| matches!(e, HealEvent::AlarmReceived { .. }))
    }

    /// The most recent recalibration outcome (promotion or rollback), if any.
    pub fn last_outcome(&self) -> Option<&HealEvent> {
        self.history
            .iter()
            .rev()
            .find(|e| matches!(e, HealEvent::Promoted { .. } | HealEvent::RolledBack { .. }))
    }

    /// The model's point estimate.
    pub fn predict(&self, features: &[f32]) -> f64 {
        self.service.predict(features)
    }

    /// Serves an interval under the wrapped service's current mode.
    pub fn interval(&self, features: &[f32]) -> PredictionInterval {
        self.service.interval(features)
    }

    /// Like [`SelfHealingService::interval`], with non-finite predictions
    /// reported as typed errors.
    pub fn try_interval(&self, features: &[f32]) -> Result<PredictionInterval, CardEstError> {
        self.service.try_interval(features)
    }

    /// Serves a whole batch with one batched calibrator call (delegates to
    /// [`PiService::predict_interval_batch`]).
    pub fn predict_interval_batch(&self, queries: &[Vec<f32>]) -> Vec<PredictionInterval>
    where
        M: Sync,
        S: Sync,
    {
        self.service.predict_interval_batch(queries)
    }

    /// Batched [`SelfHealingService::try_interval`] (delegates to
    /// [`PiService::try_interval_batch`]).
    pub fn try_interval_batch(
        &self,
        queries: &[Vec<f32>],
    ) -> Vec<Result<PredictionInterval, CardEstError>> {
        self.service.try_interval_batch(queries)
    }

    /// Feeds back an executed query's truth and drives the remediation state
    /// machine one step.
    pub fn observe(&mut self, features: &[f32], y_true: f64) {
        self.observations += 1;
        // The service's one forward pass for this truth also yields the
        // fresh-regime score the gather needs.
        let score = self.service.observe_scored(features, y_true);
        match self.state {
            HealState::Healthy => {
                if self.service.coverage_monitor().drift().is_some()
                    && self.observations >= self.cooldown_until
                {
                    self.state = HealState::Recalibrating;
                    self.gathered.clear();
                    self.push_event(HealEvent::AlarmReceived {
                        at: self.observations,
                        coverage: self.service.coverage_monitor().coverage(),
                    });
                    ce_telemetry::counter("heal.alarm").inc();
                    ce_telemetry::trace::anomaly(
                        "coverage_alarm",
                        &format!("coverage {:.4}", self.service.coverage_monitor().coverage()),
                    );
                }
            }
            HealState::Recalibrating => {
                if score.is_finite() {
                    self.gathered.push(score);
                } else {
                    self.gathered_dropped += 1;
                }
                if self.gathered.len() >= self.config.min_history {
                    self.attempt_recalibration();
                }
            }
            HealState::RolledBack => {
                if self.observations >= self.cooldown_until {
                    self.state = HealState::Healthy;
                    ce_telemetry::counter("heal.cooldown_elapsed").inc();
                }
            }
        }
    }

    /// Refits on the gathered fresh-regime scores and validates the candidate
    /// in shadow mode; promotes or rolls back.
    fn attempt_recalibration(&mut self) {
        let n = self.gathered.len();
        let n_shadow =
            (((n as f64) * self.config.shadow_fraction).round() as usize).clamp(1, n - 1);
        let (refit, shadow) = self.gathered.split_at(n - n_shadow);
        let alpha = self.service.config().alpha;
        let candidate = conformal_quantile(refit, alpha);
        let shadow_coverage =
            shadow.iter().filter(|&&s| s <= candidate).count() as f64 / shadow.len() as f64;
        let live = self.service.serving_delta();
        let width_ok = candidate.is_finite()
            && (!live.is_finite() || candidate <= live * self.config.max_width_blowup);
        let coverage_ok = shadow_coverage >= 1.0 - alpha - self.config.epsilon;
        if coverage_ok && width_ok {
            // Promote exactly the validated refit scores: the shadow slice
            // judged this threshold, so this threshold is what goes live.
            let refit: Vec<f64> = refit.to_vec();
            self.service.promote_calibration(&refit);
            self.failures = 0;
            self.promotions += 1;
            self.state = HealState::Healthy;
            self.push_event(HealEvent::Promoted {
                at: self.observations,
                shadow_coverage,
                candidate_delta: candidate,
            });
            ce_telemetry::counter("heal.promoted").inc();
            ce_telemetry::trace::event(
                "recalibration_promoted",
                &format!("shadow coverage {shadow_coverage:.4}"),
            );
        } else {
            let reason = if width_ok {
                HealReason::ShadowCoverageLow
            } else {
                HealReason::WidthBlowup
            };
            self.failures = self.failures.saturating_add(1);
            self.rollbacks += 1;
            let exp = self.failures.saturating_sub(1).min(self.config.max_backoff_exp);
            let cooldown = self.config.cooldown_base.saturating_mul(1u64 << exp);
            self.cooldown_until = self.observations.saturating_add(cooldown);
            self.state = HealState::RolledBack;
            self.push_event(HealEvent::RolledBack {
                at: self.observations,
                reason,
                shadow_coverage,
                cooldown_until: self.cooldown_until,
            });
            ce_telemetry::counter("heal.rolled_back").inc();
            ce_telemetry::trace::event(
                "recalibration_rolled_back",
                &format!("shadow coverage {shadow_coverage:.4}"),
            );
        }
        self.gathered.clear();
    }

    fn push_event(&mut self, event: HealEvent) {
        self.history.push(event);
        if self.history.len() > Self::HISTORY_CAP {
            let excess = self.history.len() - Self::HISTORY_CAP;
            self.history.drain(..excess);
        }
    }

    /// Extracts the healing layer's checkpointable state.
    pub(crate) fn export_heal(&self) -> HealSnapshot {
        HealSnapshot {
            config: self.config,
            state: self.state,
            observations: self.observations,
            gathered: self.gathered.clone(),
            gathered_dropped: self.gathered_dropped,
            failures: self.failures,
            cooldown_until: self.cooldown_until,
            rollbacks: self.rollbacks,
            promotions: self.promotions,
            history: self.history.clone(),
        }
    }

    /// Rebuilds the layer from checkpointed state around a restored service.
    pub(crate) fn from_snapshot(
        service: PiService<M, S>,
        snap: HealSnapshot,
    ) -> Result<Self, CardEstError> {
        Self::check_config(&snap.config)?;
        let mut svc = Self::from_parts(service, snap.config);
        svc.state = snap.state;
        svc.observations = snap.observations;
        svc.gathered = snap.gathered;
        svc.gathered_dropped = snap.gathered_dropped;
        svc.failures = snap.failures;
        svc.cooldown_until = snap.cooldown_until;
        svc.rollbacks = snap.rollbacks;
        svc.promotions = snap.promotions;
        svc.history = snap.history;
        Ok(svc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::AbsoluteResidual;
    use crate::service::ServiceMode;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn calib_point(rng: &mut StdRng) -> (Vec<f32>, f64) {
        let x = vec![rng.gen_range(0.0..1.0f32)];
        let y = x[0] as f64 + rng.gen_range(-0.2..0.2);
        (x, y)
    }

    // Serving-time calm residuals (±0.1) sit strictly inside the calibrated
    // band (±0.2), so rolling coverage stays ≈1.0 and the monitor can only
    // alarm under real drift — keeps these tests free of binomial false
    // alarms.
    fn calm_point(rng: &mut StdRng) -> (Vec<f32>, f64) {
        let x = vec![rng.gen_range(0.0..1.0f32)];
        let y = x[0] as f64 + rng.gen_range(-0.1..0.1);
        (x, y)
    }

    fn shifted_point(rng: &mut StdRng) -> (Vec<f32>, f64) {
        let x = vec![rng.gen_range(0.0..1.0f32)];
        let y = x[0] as f64 + rng.gen_range(5.0..6.0);
        (x, y)
    }

    fn healing_service(
        seed: u64,
        heal: HealConfig,
    ) -> (SelfHealingService<impl Regressor + Clone, AbsoluteResidual>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = |f: &[f32]| f[0] as f64;
        let (cx, cy): (Vec<Vec<f32>>, Vec<f64>) = (0..300).map(|_| calib_point(&mut rng)).unzip();
        let svc = SelfHealingService::new(
            model,
            AbsoluteResidual,
            &cx,
            &cy,
            PiServiceConfig { window: 150, ..Default::default() },
            heal,
        );
        (svc, rng)
    }

    #[test]
    fn calm_stream_never_leaves_healthy_and_matches_bare_service() {
        let heal = HealConfig::default();
        let (mut svc, mut rng) = healing_service(1, heal);
        // A bare service built identically (same seed stream).
        let mut rng2 = StdRng::seed_from_u64(1);
        let model = |f: &[f32]| f[0] as f64;
        let (cx, cy): (Vec<Vec<f32>>, Vec<f64>) =
            (0..300).map(|_| calib_point(&mut rng2)).unzip();
        let mut bare = PiService::new(
            model,
            AbsoluteResidual,
            &cx,
            &cy,
            PiServiceConfig { window: 150, ..Default::default() },
        );
        for _ in 0..600 {
            let (x, y) = calm_point(&mut rng);
            let (x2, y2) = calm_point(&mut rng2);
            assert_eq!(x, x2);
            // Bit-identical serving with the healing layer idle.
            assert_eq!(svc.interval(&x), bare.interval(&x2));
            svc.observe(&x, y);
            bare.observe(&x2, y2);
        }
        assert_eq!(svc.state(), HealState::Healthy);
        assert_eq!(svc.promotion_count(), 0);
        assert_eq!(svc.rollback_count(), 0);
        assert!(svc.history().is_empty());
    }

    #[test]
    fn drift_triggers_alarm_recalibration_and_coverage_recovery() {
        let heal = HealConfig { min_history: 80, ..Default::default() };
        let (mut svc, mut rng) = healing_service(2, heal);
        for _ in 0..300 {
            let (x, y) = calm_point(&mut rng);
            svc.observe(&x, y);
        }
        // Hard drift: stream until the layer promotes a recalibration.
        let mut promoted_after = None;
        for i in 0..1500 {
            let (x, y) = shifted_point(&mut rng);
            svc.observe(&x, y);
            if svc.promotion_count() > 0 {
                promoted_after = Some(i + 1);
                break;
            }
        }
        let promoted_after = promoted_after.expect("drift never healed");
        assert!(svc.last_alarm().is_some(), "no alarm in history");
        assert!(matches!(svc.last_outcome(), Some(HealEvent::Promoted { .. })));
        // After promotion the service serves Stable from fresh scores and
        // covers the shifted regime.
        assert_eq!(svc.service().mode(), ServiceMode::Stable);
        let mut covered = 0usize;
        let n = 300;
        for _ in 0..n {
            let (x, y) = shifted_point(&mut rng);
            if svc.interval(&x).contains(y) {
                covered += 1;
            }
            svc.observe(&x, y);
        }
        let alpha = svc.service().config().alpha;
        let rate = covered as f64 / n as f64;
        assert!(
            rate >= 1.0 - alpha - heal.epsilon,
            "post-heal coverage {rate} (promoted after {promoted_after})"
        );
    }

    #[test]
    fn failed_shadow_validation_rolls_back_with_backoff() {
        // epsilon = 0 and an adversarial gather: the refit slice sees small
        // scores, the shadow slice large ones, so the candidate undercovers
        // the shadow slice and must be rejected.
        let heal = HealConfig {
            epsilon: 0.0,
            min_history: 40,
            shadow_fraction: 0.5,
            cooldown_base: 100,
            ..Default::default()
        };
        let (mut svc, mut rng) = healing_service(3, heal);
        for _ in 0..300 {
            let (x, y) = calm_point(&mut rng);
            svc.observe(&x, y);
        }
        // Collapse coverage to raise the alarm.
        while svc.state() == HealState::Healthy {
            let (x, y) = shifted_point(&mut rng);
            svc.observe(&x, y);
        }
        assert_eq!(svc.state(), HealState::Recalibrating);
        // Feed 20 moderate then 20 much-worse observations: the refit slice
        // (older half) cannot cover the shadow slice (newer half).
        for _ in 0..20 {
            svc.observe(&[0.5], 0.5 + 2.0);
        }
        for i in 0..20 {
            svc.observe(&[0.5], 0.5 + 50.0 + i as f64);
        }
        assert_eq!(svc.state(), HealState::RolledBack, "history {:?}", svc.history());
        assert_eq!(svc.rollback_count(), 1);
        assert!(matches!(
            svc.last_outcome(),
            Some(HealEvent::RolledBack { reason: HealReason::ShadowCoverageLow, .. })
        ));
        // The bad candidate never went live.
        assert_eq!(svc.promotion_count(), 0);
        // Cooldown: alarms are ignored until it elapses, then remediation
        // re-arms.
        let HealEvent::RolledBack { cooldown_until, .. } = *svc.last_outcome().unwrap() else {
            unreachable!()
        };
        assert_eq!(cooldown_until, svc.observations() + 100, "first failure uses the base");
        while svc.observations() < cooldown_until {
            let (x, y) = shifted_point(&mut rng);
            svc.observe(&x, y);
            assert_ne!(svc.state(), HealState::Recalibrating, "alarm acted on during cooldown");
        }
        let (x, y) = shifted_point(&mut rng);
        svc.observe(&x, y);
        assert_ne!(svc.state(), HealState::RolledBack, "cooldown must elapse");
    }

    #[test]
    fn backoff_doubles_per_consecutive_failure_and_caps() {
        let config = HealConfig { cooldown_base: 100, max_backoff_exp: 3, ..Default::default() };
        let (mut svc, _) = healing_service(4, config);
        // Drive the failure counter directly through repeated rollbacks.
        for (failures, expect) in [(1u32, 100u64), (2, 200), (3, 400), (4, 800), (9, 800)] {
            svc.failures = failures - 1;
            svc.observations = 1000;
            svc.gathered = (0..40).map(|i| if i < 20 { 0.1 } else { 1e6 }).collect();
            svc.config.epsilon = 0.0;
            svc.config.shadow_fraction = 0.5;
            svc.attempt_recalibration();
            assert_eq!(svc.state, HealState::RolledBack);
            assert_eq!(
                svc.cooldown_until,
                1000 + expect,
                "failures={failures} should back off by {expect}"
            );
        }
    }

    #[test]
    fn width_blowup_guard_rejects_pathological_candidates() {
        let config = HealConfig {
            min_history: 40,
            shadow_fraction: 0.5,
            max_width_blowup: 2.0,
            ..Default::default()
        };
        let (mut svc, _) = healing_service(5, config);
        let live = svc.service().serving_delta();
        assert!(live.is_finite());
        // Gathered scores whose refit threshold is >> live * 2 but which
        // cover their own shadow slice perfectly.
        svc.gathered = vec![live * 1000.0; 40];
        svc.observations = 500;
        svc.attempt_recalibration();
        assert!(matches!(
            svc.last_outcome(),
            Some(HealEvent::RolledBack { reason: HealReason::WidthBlowup, .. })
        ));
        assert_eq!(svc.service().serving_delta(), live, "candidate must not go live");
    }

    #[test]
    fn history_ring_is_bounded() {
        let (mut svc, _) = healing_service(6, HealConfig::default());
        for i in 0..(SelfHealingService::<fn(&[f32]) -> f64, AbsoluteResidual>::HISTORY_CAP * 3) {
            svc.push_event(HealEvent::AlarmReceived { at: i as u64, coverage: 0.5 });
        }
        let cap = SelfHealingService::<fn(&[f32]) -> f64, AbsoluteResidual>::HISTORY_CAP;
        assert_eq!(svc.history().len(), cap);
        assert_eq!(svc.history().last().unwrap().at(), (cap * 3 - 1) as u64);
    }

    #[test]
    fn try_new_rejects_bad_heal_config() {
        let model = |f: &[f32]| f[0] as f64;
        let bad = |heal: HealConfig| {
            SelfHealingService::try_new(
                model,
                AbsoluteResidual,
                &[],
                &[],
                PiServiceConfig::default(),
                heal,
            )
            .is_err()
        };
        assert!(bad(HealConfig { epsilon: f64::NAN, ..Default::default() }));
        assert!(bad(HealConfig { epsilon: -0.1, ..Default::default() }));
        assert!(bad(HealConfig { min_history: 1, ..Default::default() }));
        assert!(bad(HealConfig { shadow_fraction: 0.0, ..Default::default() }));
        assert!(bad(HealConfig { shadow_fraction: 1.0, ..Default::default() }));
        assert!(bad(HealConfig { max_width_blowup: 1.0, ..Default::default() }));
        assert!(bad(HealConfig { cooldown_base: 0, ..Default::default() }));
        assert!(!bad(HealConfig::default()));
    }
}
