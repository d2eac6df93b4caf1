//! Fault-tolerant interval serving: sanitization, panic isolation, circuit
//! breaking, and estimator fallback.
//!
//! A production cardinality-interval server fronts a *black-box* learned
//! model. The paper's desiderata demand wrapping without internal changes —
//! which also means the server cannot trust the model: it may emit NaN,
//! panic on odd inputs, stall, or silently degrade. [`ResilientService`]
//! layers four defenses around any chain of [`PiEstimator`]s:
//!
//! 1. **Input sanitization** — wrong-dimension or non-finite feature vectors
//!    are rejected with a typed error before any model sees them.
//! 2. **Panic isolation** — every estimator call runs under `catch_unwind`;
//!    a panicking model is a failed call, never a crashed process.
//! 3. **Circuit breaking** — per-estimator breakers trip after a run of
//!    consecutive failures, skip the estimator while open, and probe it
//!    again (half-open) after a cooldown counted in queries, so recovery is
//!    deterministic and testable.
//! 4. **Fallback chain** — when the primary fails, the query falls through
//!    to cheaper estimators (classical histogram/sampling models wrapped in
//!    their own conformal calibration, so their intervals are widened by
//!    their *own* observed error profile). An optional conservative floor
//!    serves the infinite interval when every estimator is down: degraded
//!    but never unavailable.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::error::{finite_or_err, CardEstError};
use crate::heal::SelfHealingService;
use crate::interval::PredictionInterval;
use crate::online::OnlineConformal;
use crate::regressor::Regressor;
use crate::score::ScoreFunction;
use crate::service::PiService;

/// An object-safe prediction-interval estimator: the unit of the fallback
/// chain. All serving methods are total — failures are values, not panics
/// (panics from buggy implementations are still caught by the service).
///
/// `Sync` is a supertrait so whole chains can be shared read-only across the
/// `ce-parallel` pool for batched serving: the serving methods take `&self`,
/// and only [`PiEstimator::observe`] mutates.
pub trait PiEstimator: Sync + Send {
    /// Short name for diagnostics and error messages.
    fn name(&self) -> &str;

    /// Point estimate for one query.
    fn predict(&self, features: &[f32]) -> Result<f64, CardEstError>;

    /// Prediction interval for one query.
    fn interval(&self, features: &[f32]) -> Result<PredictionInterval, CardEstError>;

    /// Prediction intervals for a whole batch, one `Result` per query in
    /// input order. The default loops over [`PiEstimator::interval`];
    /// estimators with a real batch path (one model forward for the whole
    /// batch) override it. Implementations must keep output `i` equal to
    /// `self.interval(&queries[i])` — the resilient batch fast path relies
    /// on that identity.
    fn interval_batch(
        &self,
        queries: &[Vec<f32>],
    ) -> Vec<Result<PredictionInterval, CardEstError>> {
        queries.iter().map(|q| self.interval(q)).collect()
    }

    /// Folds an executed query's truth into the estimator's calibration.
    fn observe(&mut self, features: &[f32], y_true: f64);
}

impl<T: PiEstimator + ?Sized> PiEstimator for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn predict(&self, features: &[f32]) -> Result<f64, CardEstError> {
        (**self).predict(features)
    }
    fn interval(&self, features: &[f32]) -> Result<PredictionInterval, CardEstError> {
        (**self).interval(features)
    }
    fn interval_batch(
        &self,
        queries: &[Vec<f32>],
    ) -> Vec<Result<PredictionInterval, CardEstError>> {
        (**self).interval_batch(queries)
    }
    fn observe(&mut self, features: &[f32], y_true: f64) {
        (**self).observe(features, y_true);
    }
}

impl<M: Regressor + Sync + Send, S: ScoreFunction + Sync + Send> PiEstimator for OnlineConformal<M, S> {
    fn name(&self) -> &str {
        "online-conformal"
    }
    fn predict(&self, features: &[f32]) -> Result<f64, CardEstError> {
        finite_or_err(OnlineConformal::predict(self, features), "model prediction")
    }
    fn interval(&self, features: &[f32]) -> Result<PredictionInterval, CardEstError> {
        self.try_interval(features)
    }
    fn interval_batch(
        &self,
        queries: &[Vec<f32>],
    ) -> Vec<Result<PredictionInterval, CardEstError>> {
        self.try_interval_batch(queries)
    }
    fn observe(&mut self, features: &[f32], y_true: f64) {
        OnlineConformal::observe(self, features, y_true);
    }
}

impl<M: Regressor + Sync + Send, S: ScoreFunction + Sync + Send> PiEstimator for PiService<M, S> {
    fn name(&self) -> &str {
        "pi-service"
    }
    fn predict(&self, features: &[f32]) -> Result<f64, CardEstError> {
        finite_or_err(PiService::predict(self, features), "model prediction")
    }
    fn interval(&self, features: &[f32]) -> Result<PredictionInterval, CardEstError> {
        self.try_interval(features)
    }
    fn interval_batch(
        &self,
        queries: &[Vec<f32>],
    ) -> Vec<Result<PredictionInterval, CardEstError>> {
        self.try_interval_batch(queries)
    }
    fn observe(&mut self, features: &[f32], y_true: f64) {
        PiService::observe(self, features, y_true);
    }
}

impl<M: Regressor + Sync + Send, S: ScoreFunction + Sync + Send> PiEstimator
    for SelfHealingService<M, S>
{
    fn name(&self) -> &str {
        "self-healing"
    }
    fn predict(&self, features: &[f32]) -> Result<f64, CardEstError> {
        finite_or_err(SelfHealingService::predict(self, features), "model prediction")
    }
    fn interval(&self, features: &[f32]) -> Result<PredictionInterval, CardEstError> {
        self.try_interval(features)
    }
    fn interval_batch(
        &self,
        queries: &[Vec<f32>],
    ) -> Vec<Result<PredictionInterval, CardEstError>> {
        self.try_interval_batch(queries)
    }
    fn observe(&mut self, features: &[f32], y_true: f64) {
        SelfHealingService::observe(self, features, y_true);
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Queries to wait, once open, before letting one probe call through.
    pub cooldown_queries: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 5, cooldown_queries: 50 }
    }
}

/// State of one estimator's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow through.
    Closed,
    /// Tripped: calls are skipped until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe call is allowed; success closes
    /// the breaker, failure re-opens it immediately.
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: u64,
}

/// Point-in-time state of one chain entry's circuit breaker, keyed by the
/// estimator's name so a checkpoint can be matched against the chain it is
/// restored onto.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// Name of the estimator the breaker guards.
    pub name: String,
    /// Breaker state at snapshot time.
    pub state: BreakerState,
    /// Consecutive failures accumulated toward the trip threshold.
    pub consecutive_failures: u32,
    /// Query counter at which the breaker last opened.
    pub opened_at: u64,
}

impl Breaker {
    fn new() -> Self {
        Breaker { state: BreakerState::Closed, consecutive_failures: 0, opened_at: 0 }
    }

    /// Whether a call may go through at query-counter `now`, advancing
    /// Open -> HalfOpen when the cooldown has elapsed.
    fn admit(&mut self, now: u64, config: &BreakerConfig) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now.saturating_sub(self.opened_at) >= config.cooldown_queries {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a success; returns true when this transition closed a
    /// previously non-Closed breaker.
    fn record_success(&mut self) -> bool {
        let closed = self.state != BreakerState::Closed;
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        closed
    }

    /// Records a failure; returns true when this transition tripped the
    /// breaker open.
    fn record_failure(&mut self, now: u64, config: &BreakerConfig) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = self.state == BreakerState::HalfOpen
            || (self.state == BreakerState::Closed
                && self.consecutive_failures >= config.failure_threshold);
        if trip {
            self.state = BreakerState::Open;
            self.opened_at = now;
        }
        trip
    }
}

/// Runs one estimator call under panic isolation: a panic becomes
/// [`CardEstError::ModelPanic`]. A failure carries whether the call
/// panicked, since panics and typed failures are counted apart.
fn run_isolated(
    call: impl FnOnce() -> Result<PredictionInterval, CardEstError>,
) -> Result<PredictionInterval, (bool, CardEstError)> {
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(Ok(interval)) => Ok(interval),
        Ok(Err(e)) => Err((false, e)),
        Err(payload) => Err((true, CardEstError::ModelPanic(panic_message(payload.as_ref())))),
    }
}

/// Counters describing how a [`ResilientService`] has behaved so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Total `interval()` calls.
    pub queries: u64,
    /// Queries answered by some estimator in the chain.
    pub answered: u64,
    /// Queries answered only by the conservative infinite-interval floor.
    pub floor_served: u64,
    /// Queries rejected by input sanitization (bad dims / non-finite).
    pub rejected_inputs: u64,
    /// Panics caught and isolated (across interval, predict, and observe).
    pub panics_caught: u64,
    /// Typed estimator failures (non-panic errors) across the chain.
    pub estimator_failures: u64,
    /// Circuit-breaker open transitions.
    pub breaker_trips: u64,
    /// Per-chain-position answer counts (`served_by[0]` = primary).
    pub served_by: Vec<u64>,
}

impl ResilienceStats {
    /// Fraction of queries that got an interval from an estimator (the
    /// floor, if enabled, pushes *availability* to 1.0 but is tracked
    /// separately here).
    pub fn answer_rate(&self) -> f64 {
        if self.queries == 0 {
            return 1.0;
        }
        self.answered as f64 / self.queries as f64
    }

    /// Fraction of answered queries that came from a fallback (position > 0).
    pub fn fallback_rate(&self) -> f64 {
        if self.answered == 0 {
            return 0.0;
        }
        let fallback: u64 = self.served_by.iter().skip(1).sum();
        fallback as f64 / self.answered as f64
    }
}

/// A fault-tolerant serving wrapper around a fallback chain of estimators.
///
/// Construction is builder-style: start from the primary estimator, push
/// fallbacks in preference order, then serve via
/// [`interval`](ResilientService::interval) /
/// [`predict`](ResilientService::predict) and feed truths back through
/// [`observe`](ResilientService::observe).
///
/// The primary is held by value as `P` (a boxed estimator by default), so
/// an owner that needs the primary's own state reads it through
/// [`primary`](ResilientService::primary) under whatever guards the
/// service; fallbacks are always boxed.
pub struct ResilientService<P = Box<dyn PiEstimator>> {
    primary: P,
    fallbacks: Vec<Box<dyn PiEstimator>>,
    /// One breaker per chain position, primary first.
    breakers: Vec<Breaker>,
    breaker_config: BreakerConfig,
    expected_dims: Option<usize>,
    conservative_floor: bool,
    stats: ResilienceStats,
    last_errors: Vec<(String, CardEstError)>,
}

impl<P: PiEstimator> std::fmt::Debug for ResilientService<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientService")
            .field("chain", &self.chain_names())
            .field("breaker_config", &self.breaker_config)
            .field("expected_dims", &self.expected_dims)
            .field("conservative_floor", &self.conservative_floor)
            .field("stats", &self.stats)
            .finish()
    }
}

/// See [`ResilientService::LAST_ERRORS_CAP`].
const LAST_ERRORS_CAP: usize = 64;

impl ResilientService {
    /// Capacity bound of the [`ResilientService::last_errors`] buffer: a
    /// long-running chaos workload accumulates at most this many entries.
    pub const LAST_ERRORS_CAP: usize = LAST_ERRORS_CAP;
}

impl<P: PiEstimator> ResilientService<P> {
    /// Creates a service around the primary estimator, with the conservative
    /// floor enabled (never-unavailable by default).
    pub fn new(primary: P) -> Self {
        ResilientService {
            primary,
            fallbacks: Vec::new(),
            breakers: vec![Breaker::new()],
            breaker_config: BreakerConfig::default(),
            expected_dims: None,
            conservative_floor: true,
            stats: ResilienceStats { served_by: vec![0], ..Default::default() },
            last_errors: Vec::new(),
        }
    }

    /// Appends a fallback estimator (tried in push order after the primary).
    pub fn with_fallback(mut self, estimator: Box<dyn PiEstimator>) -> Self {
        self.fallbacks.push(estimator);
        self.breakers.push(Breaker::new());
        self.stats.served_by.push(0);
        self
    }

    /// Overrides the circuit-breaker tuning (applies to every estimator).
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker_config = config;
        self
    }

    /// Enables dimension checking: queries whose feature vectors are not
    /// exactly `dims` long are rejected before reaching any model.
    pub fn with_expected_dims(mut self, dims: usize) -> Self {
        self.expected_dims = Some(dims);
        self
    }

    /// Controls the conservative floor. When `true` (the default) a query
    /// that exhausts the chain is answered with the infinite interval —
    /// valid by vacuity — instead of an error.
    pub fn with_conservative_floor(mut self, enabled: bool) -> Self {
        self.conservative_floor = enabled;
        self
    }

    /// The primary estimator (chain position 0).
    pub fn primary(&self) -> &P {
        &self.primary
    }

    /// The estimator at chain `position`: the primary, then the fallbacks.
    fn estimator(&self, position: usize) -> &dyn PiEstimator {
        match position {
            0 => &self.primary,
            p => &*self.fallbacks[p - 1],
        }
    }

    fn estimator_mut(&mut self, position: usize) -> &mut dyn PiEstimator {
        match position {
            0 => &mut self.primary,
            p => &mut *self.fallbacks[p - 1],
        }
    }

    /// The chain's estimators, primary first.
    fn estimators(&self) -> impl Iterator<Item = &dyn PiEstimator> {
        (0..self.breakers.len()).map(|p| self.estimator(p))
    }

    /// Serving statistics so far.
    pub fn stats(&self) -> &ResilienceStats {
        &self.stats
    }

    /// Breaker state of the estimator at `position` in the chain.
    pub fn breaker_state(&self, position: usize) -> Option<BreakerState> {
        self.breakers.get(position).map(|b| b.state)
    }

    /// Names of the chain's estimators, primary first.
    pub fn chain_names(&self) -> Vec<&str> {
        self.estimators().map(|e| e.name()).collect()
    }

    /// The per-estimator errors from recent queries that exhausted the whole
    /// chain, oldest first (empty if no query has). Bounded to
    /// [`ResilientService::LAST_ERRORS_CAP`] entries: older errors are
    /// evicted from the front.
    pub fn last_errors(&self) -> &[(String, CardEstError)] {
        &self.last_errors
    }

    /// Appends one exhausted query's error trail, evicting the oldest
    /// entries past [`ResilientService::LAST_ERRORS_CAP`].
    fn push_last_errors(&mut self, errors: Vec<(String, CardEstError)>) {
        self.last_errors.extend(errors);
        if self.last_errors.len() > LAST_ERRORS_CAP {
            let excess = self.last_errors.len() - LAST_ERRORS_CAP;
            self.last_errors.drain(..excess);
        }
    }

    /// Publishes the service's counters, per-position answer counts, and
    /// breaker states to the global telemetry registry as gauges (they are
    /// point-in-time readings of state the service owns). Breaker states
    /// encode as Closed=0, HalfOpen=1, Open=2. No-op while telemetry is
    /// disabled.
    pub fn publish_telemetry(&self) {
        if !ce_telemetry::enabled() {
            return;
        }
        let g = |name: &str, v: f64| ce_telemetry::gauge(name).set(v);
        g("resilient.queries", self.stats.queries as f64);
        g("resilient.answered", self.stats.answered as f64);
        g("resilient.floor_served", self.stats.floor_served as f64);
        g("resilient.rejected_inputs", self.stats.rejected_inputs as f64);
        g("resilient.panics_caught", self.stats.panics_caught as f64);
        g("resilient.estimator_failures", self.stats.estimator_failures as f64);
        g("resilient.breaker_trips", self.stats.breaker_trips as f64);
        g("resilient.answer_rate", self.stats.answer_rate());
        g("resilient.fallback_rate", self.stats.fallback_rate());
        g("resilient.last_errors_buffered", self.last_errors.len() as f64);
        for (position, breaker) in self.breakers.iter().enumerate() {
            g(&format!("resilient.served_by.{position}"), self.stats.served_by[position] as f64);
            let state = match breaker.state {
                BreakerState::Closed => 0.0,
                BreakerState::HalfOpen => 1.0,
                BreakerState::Open => 2.0,
            };
            g(&format!("resilient.breaker_state.{position}"), state);
        }
    }

    /// Point-in-time circuit-breaker states, chain order, for checkpointing.
    pub fn export_breakers(&self) -> Vec<BreakerSnapshot> {
        self.estimators()
            .zip(&self.breakers)
            .map(|(e, b)| BreakerSnapshot {
                name: e.name().to_string(),
                state: b.state,
                consecutive_failures: b.consecutive_failures,
                opened_at: b.opened_at,
            })
            .collect()
    }

    /// Restores checkpointed breaker states onto this chain. The snapshot
    /// must match the chain entry-for-entry (same length, same estimator
    /// names in order) — a mismatch means the checkpoint belongs to a
    /// different deployment and is rejected as corrupt.
    pub fn restore_breakers(&mut self, snapshots: &[BreakerSnapshot]) -> Result<(), CardEstError> {
        if snapshots.len() != self.breakers.len() {
            return Err(CardEstError::CheckpointCorrupt("breaker count mismatch"));
        }
        for (estimator, snap) in self.estimators().zip(snapshots) {
            if estimator.name() != snap.name {
                return Err(CardEstError::CheckpointCorrupt("breaker chain name mismatch"));
            }
        }
        for (breaker, snap) in self.breakers.iter_mut().zip(snapshots) {
            breaker.state = snap.state;
            breaker.consecutive_failures = snap.consecutive_failures;
            breaker.opened_at = snap.opened_at;
        }
        Ok(())
    }

    fn sanitize(&self, features: &[f32]) -> Result<(), CardEstError> {
        if let Some(dims) = self.expected_dims {
            if features.len() != dims {
                return Err(CardEstError::DimensionMismatch {
                    expected: dims,
                    actual: features.len(),
                });
            }
        }
        if let Some(index) = features.iter().position(|v| !v.is_finite()) {
            return Err(CardEstError::NonFiniteFeature { index });
        }
        Ok(())
    }

    /// Serves a prediction interval, walking the fallback chain.
    pub fn interval(&mut self, features: &[f32]) -> Result<PredictionInterval, CardEstError> {
        self.serve(features, |est, f| est.interval(f))
    }

    /// Serves a point estimate, walking the fallback chain. When only the
    /// floor remains, returns an error (there is no conservative point
    /// estimate the way there is a conservative interval).
    pub fn predict(&mut self, features: &[f32]) -> Result<f64, CardEstError> {
        let floor = self.conservative_floor;
        self.conservative_floor = false;
        let out = self.serve(features, |est, f| {
            est.predict(f)
                .and_then(|p| finite_or_err(p, "point estimate"))
                .map(|p| PredictionInterval::new(p, p))
        });
        self.conservative_floor = floor;
        out.map(|iv| iv.midpoint())
    }

    fn serve(
        &mut self,
        features: &[f32],
        call: impl Fn(&dyn PiEstimator, &[f32]) -> Result<PredictionInterval, CardEstError>,
    ) -> Result<PredictionInterval, CardEstError> {
        let _span = ce_telemetry::Span::enter("resilient_serve");
        self.stats.queries += 1;
        {
            let _sanitize = ce_telemetry::Span::enter("sanitize");
            if let Err(e) = self.sanitize(features) {
                self.stats.rejected_inputs += 1;
                return Err(e);
            }
        }
        let now = self.stats.queries;
        let mut errors: Vec<(String, CardEstError)> = Vec::new();
        for position in 0..self.breakers.len() {
            if !self.breakers[position].admit(now, &self.breaker_config) {
                let name = self.estimator(position).name().to_string();
                errors.push((name.clone(), CardEstError::CircuitOpen { estimator: name }));
                continue;
            }
            let estimator = self.estimator(position);
            let outcome = {
                let _stage = ce_telemetry::Span::enter(if position == 0 {
                    "predict"
                } else {
                    "fallback"
                });
                run_isolated(|| call(estimator, features))
            };
            match outcome {
                Ok(interval) => {
                    self.record_success(position);
                    if ce_telemetry::enabled() {
                        ce_telemetry::histogram("resilient.fallback_depth")
                            .record(position as u64);
                    }
                    return Ok(interval);
                }
                Err((panicked, e)) => {
                    self.count_failure(panicked);
                    errors.push((self.estimator(position).name().to_string(), e));
                }
            }
            self.record_failure(position, now);
        }
        let tried = errors.len();
        self.push_last_errors(errors);
        if self.conservative_floor {
            self.stats.answered += 1;
            self.stats.floor_served += 1;
            if ce_telemetry::enabled() {
                ce_telemetry::histogram("resilient.fallback_depth")
                    .record(self.breakers.len() as u64);
            }
            return Ok(PredictionInterval::new(f64::NEG_INFINITY, f64::INFINITY));
        }
        Err(CardEstError::AllEstimatorsFailed { tried })
    }

    /// Serves a whole batch of queries, evaluating them in parallel across
    /// the `ce-parallel` pool while keeping every defense of
    /// [`ResilientService::interval`] per query (sanitization, panic
    /// isolation, fallback walk, floor).
    ///
    /// Circuit-breaker *admission* is snapshotted once per estimator at the
    /// start of the batch (an Open breaker whose cooldown has elapsed lets
    /// the whole batch probe it), and all outcomes are folded into the
    /// breakers and stats afterwards in query-index order. That makes the
    /// returned intervals a pure function of the pre-batch service state for
    /// deterministic models — bit-identical at any thread count — at the
    /// cost of trips taking effect only between batches, not within one.
    pub fn predict_interval_batch(
        &mut self,
        queries: &[Vec<f32>],
    ) -> Vec<Result<PredictionInterval, CardEstError>> {
        // Batch-level telemetry only: per-query stage spans stay off this
        // path so instrumentation cost never lands inside the parallel loop.
        let _span = ce_telemetry::Span::enter("resilient_batch");
        if ce_telemetry::enabled() {
            ce_telemetry::histogram("resilient.batch_size").record(queries.len() as u64);
        }
        // Phase 1 (serial, mutating): one admission decision per estimator.
        let config = self.breaker_config;
        let now = self.stats.queries + 1;
        let admitted: Vec<bool> =
            self.breakers.iter_mut().map(|b| b.admit(now, &config)).collect();

        // Phase 2a (read-only): batched primary fast path. One
        // panic-isolated `interval_batch` call on the first admitted
        // estimator answers the whole sanitized batch when that estimator
        // is healthy — estimators with a real batch path run one model
        // forward for all queries instead of one per query. Any query the
        // batch call does not answer `Ok` (typed failure, panic, mis-sized
        // return) re-runs the *unmodified* serial walk in phase 2b, so
        // failure accounting and fallback order stay exactly the serial
        // path's. Intervals are identical either way: the
        // `PiEstimator::interval_batch` contract requires output `i` to
        // equal `interval(&queries[i])`.
        let this: &Self = self;
        let sanitized: Vec<Option<CardEstError>> =
            queries.iter().map(|q| this.sanitize(q).err()).collect();
        let primary = admitted.iter().position(|&a| a);
        let mut fast: Vec<Option<PredictionInterval>> = vec![None; queries.len()];
        if let Some(p) = primary {
            let sane_idx: Vec<usize> =
                (0..queries.len()).filter(|&i| sanitized[i].is_none()).collect();
            if !sane_idx.is_empty() {
                let estimator = this.estimator(p);
                let results = catch_unwind(AssertUnwindSafe(|| {
                    if sane_idx.len() == queries.len() {
                        estimator.interval_batch(queries)
                    } else {
                        let subset: Vec<Vec<f32>> =
                            sane_idx.iter().map(|&i| queries[i].clone()).collect();
                        estimator.interval_batch(&subset)
                    }
                }));
                if let Some(results) = results.ok().filter(|r| r.len() == sane_idx.len()) {
                    for (&qi, result) in sane_idx.iter().zip(results) {
                        if let Ok(interval) = result {
                            fast[qi] = Some(interval);
                        }
                    }
                }
            }
        }

        // Phase 2b (parallel, read-only): walk the snapshotted chain for
        // everything the fast path did not answer, with the same panic
        // isolation per call as the serial path. When every query was either
        // rejected by sanitization or answered by the fast path (the healthy
        // common case), no closure calls a model, so they run inline on the
        // caller instead of waking the pool.
        let admitted_ref = &admitted;
        let sanitized_ref = &sanitized;
        let fast_ref = &fast;
        let walk = |qi: usize| {
            let features = &queries[qi];
            if let Some(e) = &sanitized_ref[qi] {
                return BatchOutcome::Rejected(e.clone());
            }
            if let Some(interval) = fast_ref[qi] {
                // Same outcome shape the serial walk produces for a success
                // at `position`: circuit-open records for the skipped closed
                // entries ahead of it.
                let position = primary.expect("fast path implies an admitted estimator");
                let failures: Vec<(usize, bool, CardEstError)> = (0..position)
                    .map(|skipped| {
                        let estimator = this.estimator(skipped).name().to_string();
                        (skipped, false, CardEstError::CircuitOpen { estimator })
                    })
                    .collect();
                return BatchOutcome::Served { position, interval, failures };
            }
            let mut failures: Vec<(usize, bool, CardEstError)> = Vec::new();
            for (position, estimator) in this.estimators().enumerate() {
                if !admitted_ref[position] {
                    let estimator = estimator.name().to_string();
                    failures.push((position, false, CardEstError::CircuitOpen { estimator }));
                    continue;
                }
                match run_isolated(|| estimator.interval(features)) {
                    Ok(interval) => {
                        return BatchOutcome::Served { position, interval, failures };
                    }
                    Err((panicked, e)) => failures.push((position, panicked, e)),
                }
            }
            BatchOutcome::Exhausted { failures }
        };
        let settled = (0..queries.len()).all(|qi| sanitized[qi].is_some() || fast[qi].is_some());
        let outcomes: Vec<BatchOutcome> = if settled {
            (0..queries.len()).map(walk).collect()
        } else {
            ce_parallel::par_map(queries.len(), 4, walk)
        };

        // Phase 3 (serial, mutating): fold outcomes in query-index order.
        // The histogram handle is fetched once so the per-query cost while
        // enabled is a few relaxed atomic ops, not a registry lookup.
        let depth_hist =
            ce_telemetry::enabled().then(|| ce_telemetry::histogram("resilient.fallback_depth"));
        let mut results = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            self.stats.queries += 1;
            let now = self.stats.queries;
            match outcome {
                BatchOutcome::Rejected(e) => {
                    self.stats.rejected_inputs += 1;
                    results.push(Err(e));
                }
                BatchOutcome::Served { position, interval, failures } => {
                    self.fold_failures(&failures, &admitted, now);
                    self.record_success(position);
                    if let Some(hist) = &depth_hist {
                        hist.record(position as u64);
                    }
                    results.push(Ok(interval));
                }
                BatchOutcome::Exhausted { failures } => {
                    self.fold_failures(&failures, &admitted, now);
                    let tried = failures.len();
                    let errors: Vec<(String, CardEstError)> = failures
                        .into_iter()
                        .map(|(pos, _, e)| (self.estimator(pos).name().to_string(), e))
                        .collect();
                    self.push_last_errors(errors);
                    if self.conservative_floor {
                        self.stats.answered += 1;
                        self.stats.floor_served += 1;
                        if let Some(hist) = &depth_hist {
                            hist.record(self.breakers.len() as u64);
                        }
                        results.push(Ok(PredictionInterval::new(
                            f64::NEG_INFINITY,
                            f64::INFINITY,
                        )));
                    } else {
                        results.push(Err(CardEstError::AllEstimatorsFailed { tried }));
                    }
                }
            }
        }
        results
    }

    /// Applies one query's recorded failures to stats and breakers.
    /// Skipped (circuit-open) positions were never called and record nothing.
    fn fold_failures(
        &mut self,
        failures: &[(usize, bool, CardEstError)],
        admitted: &[bool],
        now: u64,
    ) {
        for &(position, panicked, _) in failures {
            if admitted[position] {
                self.count_failure(panicked);
                self.record_failure(position, now);
            }
        }
    }

    /// Records an answer from the estimator at `position`: its breaker
    /// closes, and the answer is counted.
    fn record_success(&mut self, position: usize) {
        if self.breakers[position].record_success() {
            ce_telemetry::counter("resilient.breaker_close").inc();
            ce_telemetry::trace::event("breaker_close", self.estimator(position).name());
        }
        self.stats.answered += 1;
        self.stats.served_by[position] += 1;
    }

    /// Records a failed call at `position` toward its breaker's trip.
    fn record_failure(&mut self, position: usize, now: u64) {
        if self.breakers[position].record_failure(now, &self.breaker_config) {
            self.stats.breaker_trips += 1;
            ce_telemetry::counter("resilient.breaker_open").inc();
            ce_telemetry::trace::anomaly("breaker_open", self.estimator(position).name());
        }
    }

    /// Counts one failed call as a caught panic or a typed failure.
    fn count_failure(&mut self, panicked: bool) {
        if panicked {
            self.stats.panics_caught += 1;
        } else {
            self.stats.estimator_failures += 1;
        }
    }

    /// Feeds an executed query's truth to every estimator in the chain (so
    /// fallbacks stay calibrated even while idle). Unsanitizable inputs are
    /// dropped; a panicking `observe` is isolated and counted.
    pub fn observe(&mut self, features: &[f32], y_true: f64) {
        let _span = ce_telemetry::Span::enter("resilient_observe");
        if self.sanitize(features).is_err() {
            self.stats.rejected_inputs += 1;
            return;
        }
        for position in 0..self.breakers.len() {
            let estimator = self.estimator_mut(position);
            if catch_unwind(AssertUnwindSafe(|| estimator.observe(features, y_true))).is_err() {
                self.stats.panics_caught += 1;
            }
        }
    }
}

/// Per-query outcome of the read-only parallel phase of
/// [`ResilientService::predict_interval_batch`]. Failure tuples carry
/// `(chain position, whether the call panicked, error)`.
enum BatchOutcome {
    Rejected(CardEstError),
    Served {
        position: usize,
        interval: PredictionInterval,
        failures: Vec<(usize, bool, CardEstError)>,
    },
    Exhausted {
        failures: Vec<(usize, bool, CardEstError)>,
    },
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if payload.downcast_ref::<crate::chaos::ChaosPanic>().is_some() {
        crate::chaos::ChaosPanic.to_string()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{install_quiet_chaos_hook, ChaosConfig, ChaosRegressor};
    use crate::score::AbsoluteResidual;

    /// An online-conformal estimator over `model`, pre-calibrated on a
    /// clean linear stream.
    fn calibrated<M: Regressor>(model: M) -> OnlineConformal<M, AbsoluteResidual> {
        let calib_x: Vec<Vec<f32>> = (0..200).map(|i| vec![i as f32 / 200.0]).collect();
        let calib_y: Vec<f64> = calib_x
            .iter()
            .map(|f| f[0] as f64 + 0.1 * ((f[0] * 37.0) as f64).sin())
            .collect();
        OnlineConformal::new(model, AbsoluteResidual, &calib_x, &calib_y, 0.1)
    }

    fn healthy_model() -> impl Fn(&[f32]) -> f64 {
        |f: &[f32]| f[0] as f64
    }

    #[test]
    fn healthy_primary_serves_everything() {
        let mut svc = ResilientService::new(Box::new(calibrated(healthy_model())));
        for i in 0..100 {
            let iv = svc.interval(&[i as f32 / 100.0]).expect("healthy chain");
            assert!(iv.lo <= iv.hi);
        }
        assert_eq!(svc.stats().served_by[0], 100);
        assert_eq!(svc.stats().fallback_rate(), 0.0);
    }

    #[test]
    fn sanitization_rejects_bad_inputs_before_models() {
        use std::sync::atomic::{AtomicU32, Ordering};
        // Empty calibration: the estimator only calls the model at serving
        // time, so the counter sees exactly the calls that reached it.
        let calls = std::sync::Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        let counting = move |f: &[f32]| {
            c.fetch_add(1, Ordering::SeqCst);
            f[0] as f64
        };
        let primary = OnlineConformal::new(counting, AbsoluteResidual, &[], &[], 0.1);
        let mut svc = ResilientService::new(Box::new(primary)).with_expected_dims(1);
        assert!(matches!(
            svc.interval(&[1.0, 2.0]),
            Err(CardEstError::DimensionMismatch { expected: 1, actual: 2 })
        ));
        assert!(matches!(
            svc.interval(&[f32::NAN]),
            Err(CardEstError::NonFiniteFeature { index: 0 })
        ));
        assert_eq!(svc.stats().rejected_inputs, 2);
        assert_eq!(svc.stats().answered, 0);
        assert_eq!(calls.load(Ordering::SeqCst), 0, "rejected input never reaches the model");
        let _ = svc.predict_interval_batch(&[vec![f32::NAN], vec![0.5, 0.5]]);
        assert_eq!(calls.load(Ordering::SeqCst), 0, "nor on the batched path");
        svc.interval(&[0.5]).expect("a sane query is served");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nan_primary_falls_back() {
        let nan_model = |_: &[f32]| f64::NAN;
        let mut svc = ResilientService::new(Box::new(calibrated(nan_model)))
            .with_fallback(Box::new(calibrated(healthy_model())));
        let iv = svc.interval(&[0.5]).expect("fallback must answer");
        assert!(iv.contains(0.5));
        assert_eq!(svc.stats().served_by, vec![0, 1]);
        assert_eq!(svc.stats().fallback_rate(), 1.0);
    }

    #[test]
    fn panicking_primary_is_isolated_and_breaker_trips() {
        install_quiet_chaos_hook();
        let chaos = ChaosRegressor::new(
            healthy_model(),
            ChaosConfig { panic_rate: 1.0, seed: 11, ..Default::default() },
        );
        let primary = OnlineConformal::new(chaos, AbsoluteResidual, &[], &[], 0.1);
        let mut svc = ResilientService::new(Box::new(primary))
            .with_fallback(Box::new(calibrated(healthy_model())))
            .with_breaker(BreakerConfig { failure_threshold: 3, cooldown_queries: 10 });
        for _ in 0..5 {
            svc.interval(&[0.5]).expect("fallback answers");
        }
        assert_eq!(svc.stats().panics_caught, 3, "breaker stops probing after 3");
        assert_eq!(svc.breaker_state(0), Some(BreakerState::Open));
        assert_eq!(svc.stats().breaker_trips, 1);
        assert_eq!(svc.stats().served_by[1], 5);
    }

    #[test]
    fn breaker_recovers_through_half_open_probe() {
        // A model that fails for a while, then heals. (Arc<AtomicBool>
        // rather than Rc<Cell>: PiEstimator requires Sync.)
        use std::sync::atomic::{AtomicBool, Ordering};
        let healthy = std::sync::Arc::new(AtomicBool::new(false));
        let flag = healthy.clone();
        let flaky = move |f: &[f32]| {
            if flag.load(Ordering::Relaxed) {
                f[0] as f64
            } else {
                f64::NAN
            }
        };
        let primary = OnlineConformal::new(flaky, AbsoluteResidual, &[], &[], 0.1);
        let mut svc = ResilientService::new(Box::new(primary))
            .with_fallback(Box::new(calibrated(healthy_model())))
            .with_breaker(BreakerConfig { failure_threshold: 2, cooldown_queries: 5 });
        for _ in 0..2 {
            svc.interval(&[0.5]).unwrap();
        }
        assert_eq!(svc.breaker_state(0), Some(BreakerState::Open));
        healthy.store(true, Ordering::Relaxed);
        // Queries inside the cooldown skip the primary entirely.
        for _ in 0..4 {
            svc.interval(&[0.5]).unwrap();
        }
        assert_eq!(svc.breaker_state(0), Some(BreakerState::Open));
        // Cooldown elapsed: the next query probes the (now healthy) primary
        // and closes the breaker.
        svc.interval(&[0.5]).unwrap();
        assert_eq!(svc.breaker_state(0), Some(BreakerState::Closed));
        let final_count = svc.stats().served_by[0];
        svc.interval(&[0.5]).unwrap();
        assert_eq!(svc.stats().served_by[0], final_count + 1);
    }

    #[test]
    fn half_open_failure_reopens_immediately() {
        let nan_model = |_: &[f32]| f64::NAN;
        let primary = OnlineConformal::new(nan_model, AbsoluteResidual, &[], &[], 0.1);
        let mut svc = ResilientService::new(Box::new(primary))
            .with_fallback(Box::new(calibrated(healthy_model())))
            .with_breaker(BreakerConfig { failure_threshold: 1, cooldown_queries: 3 });
        svc.interval(&[0.5]).unwrap();
        assert_eq!(svc.breaker_state(0), Some(BreakerState::Open));
        for _ in 0..3 {
            svc.interval(&[0.5]).unwrap();
        }
        // The probe failed: open again without needing `failure_threshold`
        // fresh failures.
        assert_eq!(svc.breaker_state(0), Some(BreakerState::Open));
        assert_eq!(svc.stats().breaker_trips, 2);
    }

    #[test]
    fn floor_serves_infinite_interval_when_chain_exhausted() {
        let nan_model = |_: &[f32]| f64::NAN;
        let primary = OnlineConformal::new(nan_model, AbsoluteResidual, &[], &[], 0.1);
        let mut svc = ResilientService::new(Box::new(primary));
        let iv = svc.interval(&[0.5]).expect("floor answers");
        assert!(iv.lo == f64::NEG_INFINITY && iv.hi == f64::INFINITY);
        assert_eq!(svc.stats().floor_served, 1);
        assert!(!svc.last_errors().is_empty());

        let primary = OnlineConformal::new(nan_model, AbsoluteResidual, &[], &[], 0.1);
        let mut strict = ResilientService::new(Box::new(primary)).with_conservative_floor(false);
        assert!(matches!(
            strict.interval(&[0.5]),
            Err(CardEstError::AllEstimatorsFailed { tried: 1 })
        ));
        assert!(matches!(
            strict.last_errors()[0].1,
            CardEstError::NonFiniteScore { .. }
        ));
    }

    #[test]
    fn predict_has_no_floor_and_propagates_exhaustion() {
        let nan_model = |_: &[f32]| f64::NAN;
        let primary = OnlineConformal::new(nan_model, AbsoluteResidual, &[], &[], 0.1);
        let mut svc = ResilientService::new(Box::new(primary));
        assert!(matches!(
            svc.predict(&[0.5]),
            Err(CardEstError::AllEstimatorsFailed { .. })
        ));
        // The floor flag is restored for interval serving.
        assert!(svc.interval(&[0.5]).is_ok());
    }

    #[test]
    fn observe_feeds_all_estimators_and_isolates_panics() {
        install_quiet_chaos_hook();
        let chaos = ChaosRegressor::new(
            healthy_model(),
            ChaosConfig { panic_rate: 1.0, seed: 2, ..Default::default() },
        );
        let primary = OnlineConformal::new(chaos, AbsoluteResidual, &[], &[], 0.1);
        let fallback = OnlineConformal::new(healthy_model(), AbsoluteResidual, &[], &[], 0.1);
        let mut svc = ResilientService::new(Box::new(primary)).with_fallback(Box::new(fallback));
        for i in 0..50 {
            let x = i as f32 / 50.0;
            svc.observe(&[x], x as f64 + 0.05);
        }
        assert_eq!(svc.stats().panics_caught, 50);
        // The fallback calibrated from the same stream: it can now serve
        // finite intervals.
        let iv = svc.interval(&[0.5]).expect("fallback calibrated via observe");
        assert!(iv.hi.is_finite(), "fallback should have a finite threshold");
    }

    #[test]
    fn batched_serving_matches_serial_and_updates_stats() {
        let queries: Vec<Vec<f32>> = (0..64).map(|i| vec![i as f32 / 64.0]).collect();
        let mut serial = ResilientService::new(Box::new(calibrated(healthy_model())));
        let expect: Vec<_> = queries.iter().map(|q| serial.interval(q).unwrap()).collect();

        let mut batched = ResilientService::new(Box::new(calibrated(healthy_model())));
        let got = batched.predict_interval_batch(&queries);
        for (iv, want) in got.iter().zip(&expect) {
            assert_eq!(iv.as_ref().unwrap(), want);
        }
        assert_eq!(batched.stats().queries, 64);
        assert_eq!(batched.stats().served_by[0], 64);
        assert_eq!(batched.stats().answer_rate(), 1.0);
    }

    /// A batch answers bit for bit what the per-query `interval` loop
    /// answers, with the same stats, whether phase 2b runs inline (every
    /// query answered by the fast path or rejected) or walks the chain on
    /// the pool (some query failed over).
    #[test]
    fn batch_matches_the_per_query_loop_inline_and_on_the_pool() {
        // The primary fails (NaN) on negative inputs; the fallback answers.
        let chain = || {
            let flaky = |f: &[f32]| if f[0] < 0.0 { f64::NAN } else { f[0] as f64 };
            ResilientService::new(Box::new(calibrated(flaky)))
                .with_fallback(Box::new(calibrated(healthy_model())))
                .with_expected_dims(1)
        };
        let all_fast: Vec<Vec<f32>> = (0..16).map(|i| vec![i as f32 / 16.0]).collect();
        // Every third query fails over, so the primary's breaker never
        // reaches its threshold; one input is rejected.
        let mut mixed: Vec<Vec<f32>> = (0..24)
            .map(|i| vec![if i % 3 == 0 { -(i as f32 + 1.0) / 24.0 } else { i as f32 / 24.0 }])
            .collect();
        mixed[7] = vec![f32::NAN];
        let all_rejected: Vec<Vec<f32>> =
            vec![vec![f32::NAN], vec![0.5, 0.5], vec![], vec![f32::INFINITY]];
        let bits = |r: &Result<PredictionInterval, CardEstError>| {
            r.as_ref().map(|iv| (iv.lo.to_bits(), iv.hi.to_bits())).map_err(Clone::clone)
        };
        for (batch, served_by, rejected) in
            [(&all_fast, [16, 0], 0), (&mixed, [15, 8], 1), (&all_rejected, [0, 0], 4)]
        {
            let mut serial = chain();
            let expect: Vec<_> = batch.iter().map(|q| bits(&serial.interval(q))).collect();
            assert_eq!(serial.stats().served_by, served_by);
            assert_eq!(serial.stats().rejected_inputs, rejected);
            for threads in [1, 4] {
                let mut batched = chain();
                let got = ce_parallel::with_threads(threads, || batched.predict_interval_batch(batch));
                let got: Vec<_> = got.iter().map(bits).collect();
                assert_eq!(got, expect, "threads={threads}");
                assert_eq!(batched.stats(), serial.stats(), "threads={threads}");
                assert_eq!(batched.last_errors(), serial.last_errors(), "threads={threads}");
            }
        }
    }

    #[test]
    fn batched_serving_walks_fallbacks_and_rejects_bad_inputs() {
        let nan_model = |_: &[f32]| f64::NAN;
        let mut svc = ResilientService::new(Box::new(OnlineConformal::new(
            nan_model,
            AbsoluteResidual,
            &[],
            &[],
            0.1,
        )))
        .with_fallback(Box::new(calibrated(healthy_model())))
        .with_expected_dims(1);
        let queries =
            vec![vec![0.25f32], vec![f32::NAN], vec![0.5, 0.5], vec![0.75]];
        let got = svc.predict_interval_batch(&queries);
        assert!(got[0].as_ref().unwrap().contains(0.25));
        assert!(matches!(got[1], Err(CardEstError::NonFiniteFeature { index: 0 })));
        assert!(matches!(
            got[2],
            Err(CardEstError::DimensionMismatch { expected: 1, actual: 2 })
        ));
        assert!(got[3].as_ref().unwrap().contains(0.75));
        assert_eq!(svc.stats().rejected_inputs, 2);
        assert_eq!(svc.stats().served_by, vec![0, 2]);
        assert_eq!(svc.stats().estimator_failures, 2, "primary failed twice");
    }

    #[test]
    fn batched_serving_folds_breaker_trips_after_the_batch() {
        let nan_model = |_: &[f32]| f64::NAN;
        let primary = OnlineConformal::new(nan_model, AbsoluteResidual, &[], &[], 0.1);
        let mut svc = ResilientService::new(Box::new(primary))
            .with_fallback(Box::new(calibrated(healthy_model())))
            .with_breaker(BreakerConfig { failure_threshold: 3, cooldown_queries: 100 });
        // Admission is snapshotted: every query in the batch still probes the
        // primary, but the folded failures trip the breaker exactly once.
        let queries: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32 / 10.0]).collect();
        let got = svc.predict_interval_batch(&queries);
        assert!(got.iter().all(|r| r.is_ok()));
        assert_eq!(svc.breaker_state(0), Some(BreakerState::Open));
        assert_eq!(svc.stats().breaker_trips, 1);
        assert_eq!(svc.stats().served_by[1], 10);
        // The next batch skips the open primary entirely.
        let failures_before = svc.stats().estimator_failures;
        let _ = svc.predict_interval_batch(&queries);
        assert_eq!(svc.stats().estimator_failures, failures_before);
        assert_eq!(svc.stats().served_by[1], 20);
    }

    #[test]
    fn last_errors_buffer_is_bounded() {
        let nan_model = |_: &[f32]| f64::NAN;
        let primary = OnlineConformal::new(nan_model, AbsoluteResidual, &[], &[], 0.1);
        let mut svc = ResilientService::new(Box::new(primary));
        // Every query exhausts the single-estimator chain and appends one
        // error; a long chaos workload must not grow the buffer past the cap.
        for _ in 0..(ResilientService::LAST_ERRORS_CAP * 4) {
            svc.interval(&[0.5]).expect("floor answers");
        }
        assert_eq!(svc.last_errors().len(), ResilientService::LAST_ERRORS_CAP);
        // Entries are NaN failures until the breaker opens, CircuitOpen after.
        assert!(svc.last_errors().iter().all(|(name, e)| name == "online-conformal"
            && matches!(
                e,
                CardEstError::NonFiniteScore { .. } | CardEstError::CircuitOpen { .. }
            )));
        // The batched path shares the same bound.
        let queries: Vec<Vec<f32>> = (0..200).map(|i| vec![i as f32 / 200.0]).collect();
        let _ = svc.predict_interval_batch(&queries);
        assert_eq!(svc.last_errors().len(), ResilientService::LAST_ERRORS_CAP);
    }

    #[test]
    fn telemetry_exposes_stats_and_breaker_states() {
        ce_telemetry::set_enabled(true);
        let nan_model = |_: &[f32]| f64::NAN;
        let primary = OnlineConformal::new(nan_model, AbsoluteResidual, &[], &[], 0.1);
        let mut svc = ResilientService::new(Box::new(primary))
            .with_fallback(Box::new(calibrated(healthy_model())))
            .with_breaker(BreakerConfig { failure_threshold: 2, cooldown_queries: 1000 });
        for i in 0..10 {
            svc.interval(&[i as f32 / 10.0]).expect("fallback answers");
        }
        svc.publish_telemetry();
        ce_telemetry::set_enabled(false);
        let snapshot = ce_telemetry::global().snapshot();
        let gauge = |name: &str| match snapshot.get(name) {
            Some(ce_telemetry::MetricValue::Gauge(v)) => *v,
            other => panic!("expected gauge {name}, got {other:?}"),
        };
        assert_eq!(gauge("resilient.queries"), 10.0);
        assert_eq!(gauge("resilient.served_by.1"), 10.0);
        assert_eq!(gauge("resilient.breaker_state.0"), 2.0, "primary breaker is Open");
        assert_eq!(gauge("resilient.breaker_state.1"), 0.0, "fallback breaker is Closed");
        assert_eq!(gauge("resilient.fallback_rate"), 1.0);
        // Transition counters and the depth histogram recorded live. Other
        // concurrently running tests may also record while the flag is up,
        // so assert lower bounds, not equality.
        assert!(ce_telemetry::counter("resilient.breaker_open").get() >= 1);
        assert!(ce_telemetry::histogram("resilient.fallback_depth").count() >= 10);
    }

    #[test]
    fn chain_names_and_debug_are_usable() {
        let svc = ResilientService::new(Box::new(calibrated(healthy_model())))
            .with_fallback(Box::new(calibrated(healthy_model())));
        assert_eq!(svc.chain_names(), vec!["online-conformal", "online-conformal"]);
        let dbg = format!("{svc:?}");
        assert!(dbg.contains("ResilientService"));
    }

    #[test]
    fn breaker_snapshots_round_trip_and_reject_mismatched_chains() {
        let nan_model = |_: &[f32]| f64::NAN;
        let tripped = |threshold: u32| {
            let primary = OnlineConformal::new(nan_model, AbsoluteResidual, &[], &[], 0.1);
            let mut svc = ResilientService::new(Box::new(primary))
                .with_fallback(Box::new(calibrated(healthy_model())))
                .with_breaker(BreakerConfig { failure_threshold: threshold, cooldown_queries: 50 });
            svc.interval(&[0.5]).unwrap();
            svc
        };
        let svc = tripped(1);
        assert_eq!(svc.breaker_state(0), Some(BreakerState::Open));
        let snaps = svc.export_breakers();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].state, BreakerState::Open);
        assert_eq!(snaps[1].state, BreakerState::Closed);

        // Restoring onto an identically-shaped fresh chain reproduces the
        // breaker states exactly.
        let mut fresh = tripped(100); // same chain, breaker still closed
        assert_eq!(fresh.breaker_state(0), Some(BreakerState::Closed));
        fresh.restore_breakers(&snaps).expect("matching chain");
        assert_eq!(fresh.breaker_state(0), Some(BreakerState::Open));
        assert_eq!(fresh.export_breakers(), snaps);

        // A chain of a different length is rejected...
        let mut short = ResilientService::new(Box::new(calibrated(healthy_model())));
        assert!(matches!(
            short.restore_breakers(&snaps),
            Err(CardEstError::CheckpointCorrupt("breaker count mismatch"))
        ));
        // ...and so is one whose estimator names differ.
        let mut renamed = snaps.clone();
        renamed[0].name = "someone-else".to_string();
        let mut fresh2 = tripped(100);
        assert!(matches!(
            fresh2.restore_breakers(&renamed),
            Err(CardEstError::CheckpointCorrupt("breaker chain name mismatch"))
        ));
        // A rejected restore must leave the live breakers untouched.
        assert_eq!(fresh2.breaker_state(0), Some(BreakerState::Closed));
    }
}
