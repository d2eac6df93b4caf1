//! Network-facing PI serving: the glue between `ce-server`'s HTTP substrate
//! and the core's resilient, self-healing estimator chain (DESIGN.md §10).
//!
//! ```text
//! acceptor ─▶ dispatch queue ─▶ worker pool ─▶ router ─▶ micro-batcher
//! (max_conns)      ▲                 │ idle              │ coalesced
//!                  └── poller ◀──────┘                   ▼
//!                          ResilientService (breakers, fallbacks, floor)
//!                                 └─ primary: SelfHealingService (RwLock)
//! ```
//!
//! Endpoints:
//!
//! - `POST /v1/predict` — JSON batch of feature vectors, answered with one
//!   interval per query. Requests are coalesced by the micro-batcher into
//!   `predict_interval_batch` calls; admission overflow sheds with `503` +
//!   `Retry-After`. Optional `truths` feed the prequential loop (calibration,
//!   drift detection, self-healing) after the predictions are made.
//! - `POST /v1/observe` — the same body with `truths` *required*, feeding
//!   calibration without serving predictions. This is the replication
//!   target: a cluster router fans each observed truth out to the key's
//!   backup replicas here, so a promoted backup serves from warm
//!   calibration (DESIGN.md §14). Both observe paths deduplicate by the
//!   router-minted `x-ce-truth-id` header (bounded id memory), so fan-out
//!   overlap and hedge duplicates cannot double-count an observation.
//! - `GET /metrics` — Prometheus text from the `ce-telemetry` registry,
//!   including the server's connection/poller counters.
//! - `GET /debug/trace` — JSON snapshot of the flight recorder: the last
//!   traced requests with per-stage latency attribution plus structured
//!   events (DESIGN.md §13).
//! - `GET /healthz` — liveness (always `200` while the process serves).
//! - `GET /readyz` — readiness; `503` while the self-healing layer is
//!   recalibrating or the server is draining.
//!
//! Tracing: a sampled `POST /v1/predict` (head sampling, default 1 in
//! `ce_telemetry::trace::DEFAULT_SAMPLE_RATE`; every request inside an
//! anomaly window) is traced end to end. The client may supply its own
//! 32-hex-digit `x-ce-trace` ID; a missing or malformed header mints a fresh
//! one — a hostile value can only ever be ignored, never poisons the
//! connection. The response echoes `x-ce-trace` and reports this hop's stage
//! breakdown in `x-ce-stages` so an upstream router can merge it.
//!
//! Determinism contract: the batcher's request coalescing never changes
//! results — `predict_interval_batch` snapshots state per batch and per-query
//! results are independent, so an HTTP-served interval is bit-identical to a
//! direct in-process call on the same state (the `net` experiment audits
//! this; non-finite endpoints travel as the JSON strings `"inf"`/`"-inf"`/
//! `"nan"` since JSON has no `Infinity`).
//!
//! Serving generation: each [`ServeEngine`] carries one process-unique
//! number for its serving state, replaced under the chain mutex whenever
//! that state may change. The micro-batcher runner returns every batch's
//! results with a [`BatchStamp`] — that generation and the serving mode,
//! read under the same mutex — so a response's `mode` and its intervals
//! always describe one state, and the interval cache (DESIGN.md §15) keys
//! bodies by the generation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;

use crate::conformal::{
    BreakerSnapshot, BreakerState, CardEstError, Checkpoint, HealConfig, HealState,
    PiEstimator, PredictionInterval, Regressor, ResilienceStats, ResilientService,
    ScoreFunction, SelfHealingService, ServiceMode,
};
use ce_server::{BatcherStats, HttpServer, Response, ServerStats};
use ce_telemetry::trace;

/// Interval results for one batch, in query order.
pub type BatchResults = Vec<Result<PredictionInterval, CardEstError>>;

/// A [`SelfHealingService`] shared between the HTTP workers (read: serve
/// intervals) and the feedback path (write: observe truths), adapted to the
/// resilient chain's object-safe [`PiEstimator`] interface.
pub struct SharedHealing<M, S>(Arc<RwLock<SelfHealingService<M, S>>>);

impl<M, S> Clone for SharedHealing<M, S> {
    fn clone(&self) -> Self {
        SharedHealing(Arc::clone(&self.0))
    }
}

impl<M, S> SharedHealing<M, S> {
    fn read(&self) -> std::sync::RwLockReadGuard<'_, SelfHealingService<M, S>> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, SelfHealingService<M, S>> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

impl<M, S> PiEstimator for SharedHealing<M, S>
where
    M: Regressor + Clone + Send + Sync,
    S: ScoreFunction + Clone + Send + Sync,
{
    fn name(&self) -> &str {
        "self-healing"
    }

    fn predict(&self, features: &[f32]) -> Result<f64, CardEstError> {
        let value = self.read().predict(features);
        if value.is_finite() {
            Ok(value)
        } else {
            Err(CardEstError::NonFiniteScore { value, context: "model prediction" })
        }
    }

    fn interval(&self, features: &[f32]) -> Result<PredictionInterval, CardEstError> {
        self.read().try_interval(features)
    }

    fn interval_batch(
        &self,
        queries: &[Vec<f32>],
    ) -> Vec<Result<PredictionInterval, CardEstError>> {
        // One read lock and one batched model forward for the whole batch.
        self.read().try_interval_batch(queries)
    }

    fn observe(&mut self, features: &[f32], y_true: f64) {
        self.write().observe(features, y_true);
    }
}

/// The serving engine: the self-healing primary behind the resilient chain,
/// with full-chain checkpointing.
///
/// Lock order is `resilient` → `healing` everywhere (the chain's serving
/// calls take the healing read lock while holding the resilient mutex, so
/// every other path must do the same to stay deadlock-free).
pub struct ServeEngine<M, S> {
    healing: SharedHealing<M, S>,
    resilient: Mutex<ResilientService>,
    truth_dedupe: Mutex<TruthDedupe>,
    /// Serving generation (DESIGN.md §15): a process-unique number for the
    /// engine's current serving state. It is replaced, always while the
    /// chain mutex is held, whenever that state may change: every
    /// observation (promotion and rollback happen inside one), a breaker
    /// restore, and any predict batch that starts or ends with a breaker
    /// not `Closed`. Equal readings therefore mean equal serving state.
    generation: AtomicU64,
}

/// The interval results of one batch and the serving state they were
/// computed at, read under the chain mutex that computed them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStamp {
    /// The engine generation the batch ran at; `None` when its results may
    /// not be cached because a breaker was not `Closed` before or after it.
    pub generation: Option<u64>,
    /// The serving mode the intervals were computed in.
    pub mode: ServiceMode,
}

/// Source of serving generations. One counter serves every engine in the
/// process, so no two serving states — across engines and reloads — ever
/// share a value.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// Whether every chain breaker is `Closed`. Only then does a batch admit
/// every estimator whatever the query counter says, so its results depend
/// on calibration state alone.
fn breakers_closed(resilient: &ResilientService) -> bool {
    (0..).map_while(|p| resilient.breaker_state(p)).all(|s| s == BreakerState::Closed)
}

/// Bounded memory of recently seen truth-post IDs (`x-ce-truth-id`). A
/// replicated truth post and a hedge duplicate both replay an observation
/// body the shard may already have absorbed; observing it twice would put
/// the same residual into calibration twice and skew coverage. The set is
/// bounded FIFO — old IDs age out once the window of plausible replays
/// (router retry budget × fan-out) is long past.
struct TruthDedupe {
    seen: std::collections::HashSet<u64>,
    order: std::collections::VecDeque<u64>,
}

impl TruthDedupe {
    /// IDs remembered; far beyond any in-flight replay window.
    const CAP: usize = 4096;

    fn new() -> TruthDedupe {
        TruthDedupe {
            seen: std::collections::HashSet::new(),
            order: std::collections::VecDeque::new(),
        }
    }

    /// Claims `id`; `false` means it was already seen (a replay).
    fn claim(&mut self, id: u64) -> bool {
        if !self.seen.insert(id) {
            return false;
        }
        self.order.push_back(id);
        if self.order.len() > Self::CAP {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        true
    }
}

impl<M, S> ServeEngine<M, S>
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    /// Builds the engine: `healing` becomes the chain's primary, followed by
    /// the given fallbacks, with input sanitization against `expected_dims`
    /// and the conservative ±∞ floor as the last resort.
    pub fn new(
        healing: SelfHealingService<M, S>,
        fallbacks: Vec<Box<dyn PiEstimator>>,
        expected_dims: usize,
    ) -> Self {
        let healing = SharedHealing(Arc::new(RwLock::new(healing)));
        let mut resilient = ResilientService::new(Box::new(healing.clone()))
            .with_expected_dims(expected_dims)
            .with_conservative_floor(true);
        for fallback in fallbacks {
            resilient = resilient.with_fallback(fallback);
        }
        ServeEngine {
            healing,
            resilient: Mutex::new(resilient),
            truth_dedupe: Mutex::new(TruthDedupe::new()),
            generation: AtomicU64::new(NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)),
        }
    }

    fn resilient(&self) -> MutexGuard<'_, ResilientService> {
        self.resilient.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes a fresh serving generation. The chain guard is the proof that
    /// the caller holds the mutex every batch stamps under; as it is held
    /// across the whole state change, renewing before or after the change
    /// is the same to every reader.
    fn renew_generation(&self, _chain: &MutexGuard<'_, ResilientService>) {
        self.generation.store(NEXT_GENERATION.fetch_add(1, Ordering::Relaxed), Ordering::SeqCst);
    }

    /// Serves a batch through the full resilient chain (breakers, fallbacks,
    /// conservative floor all apply). Pure with respect to calibration
    /// state: feedback only ever arrives via [`ServeEngine::observe`].
    pub fn predict_batch(&self, queries: &[Vec<f32>]) -> BatchResults {
        self.predict_batch_stamped(queries).0
    }

    /// [`ServeEngine::predict_batch`] plus the [`BatchStamp`] of the state
    /// it ran at. A batch that starts or ends with a breaker not `Closed`
    /// takes a fresh generation: an `Open` breaker's cooldown counts
    /// queries, so even a batch without a transition moves what later
    /// batches serve.
    pub fn predict_batch_stamped(&self, queries: &[Vec<f32>]) -> (BatchResults, BatchStamp) {
        let mut resilient = self.resilient();
        let closed_before = breakers_closed(&resilient);
        let results = resilient.predict_interval_batch(queries);
        let generation = (closed_before && breakers_closed(&resilient)).then(|| self.generation());
        if generation.is_none() {
            self.renew_generation(&resilient);
        }
        let mode = self.healing.read().service().mode();
        (results, BatchStamp { generation, mode })
    }

    /// Feeds one executed query's truth to every chain entry — the primary's
    /// write routes into the self-healing state machine — and takes a fresh
    /// generation before releasing the chain mutex.
    pub fn observe(&self, features: &[f32], y_true: f64) {
        let mut resilient = self.resilient();
        resilient.observe(features, y_true);
        self.renew_generation(&resilient);
    }

    /// The serving generation (see the field docs).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Feeds a whole batch of truths, atomically claiming `truth_id` first
    /// when one is present. Returns `false` — and observes *nothing* — when
    /// the ID was already seen: the batch is a replica-fan-out or hedge
    /// replay of an observation this shard has absorbed. The claim happens
    /// outside the chain locks, so the dedupe check never extends the
    /// serving critical section.
    pub fn observe_all(&self, features: &[Vec<f32>], truths: &[f64], truth_id: Option<u64>) -> bool {
        if let Some(id) = truth_id {
            let fresh = self.truth_dedupe.lock().unwrap_or_else(|e| e.into_inner()).claim(id);
            if !fresh {
                ce_telemetry::counter("serve.truth_deduped").inc();
                return false;
            }
        }
        for (x, y) in features.iter().zip(truths) {
            self.observe(x, *y);
        }
        true
    }

    /// Serving mode of the wrapped [`crate::conformal::PiService`].
    pub fn mode(&self) -> ServiceMode {
        self.healing.read().service().mode()
    }

    /// Remediation state of the self-healing layer.
    pub fn heal_state(&self) -> HealState {
        self.healing.read().state()
    }

    /// Total truths absorbed by the self-healing layer.
    pub fn observations(&self) -> u64 {
        self.healing.read().observations()
    }

    /// Full-chain checkpoint: the self-healing service state plus every
    /// breaker's snapshot, so a restore resumes the *whole* serving chain.
    pub fn checkpoint(&self) -> Checkpoint {
        let resilient = self.resilient();
        let ckpt = self.healing.read().checkpoint();
        ckpt.with_breakers(resilient.export_breakers())
    }

    /// Restores breaker state from a checkpoint's snapshots (the healing
    /// half is restored by constructing the engine from
    /// [`SelfHealingService::restore`]). Counts as a serving-state change:
    /// the engine takes a fresh generation.
    pub fn restore_breakers(&self, snapshots: &[BreakerSnapshot]) -> Result<(), CardEstError> {
        let mut resilient = self.resilient();
        self.renew_generation(&resilient);
        resilient.restore_breakers(snapshots)
    }

    /// The healing layer's remediation tuning (the reload validator reuses
    /// its `epsilon` slack and `max_width_blowup` guard).
    pub fn heal_config(&self) -> HealConfig {
        self.healing.read().heal_config()
    }

    /// The wrapped service's miscoverage target α.
    pub fn alpha(&self) -> f64 {
        self.healing.read().service().config().alpha
    }

    /// Resilience counters (copied out; the chain lock is released before
    /// returning).
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.resilient().stats().clone()
    }

    /// Mirrors chain + heal state into the telemetry registry.
    pub fn publish_metrics(&self) {
        {
            let resilient = self.resilient();
            resilient.publish_telemetry();
        }
        if ce_telemetry::enabled() {
            let healing = self.healing.read();
            ce_telemetry::gauge("serve.heal_state").set(match healing.state() {
                HealState::Healthy => 0.0,
                HealState::Recalibrating => 1.0,
                HealState::RolledBack => 2.0,
            });
            ce_telemetry::gauge("serve.mode_drifted").set(match healing.service().mode() {
                ServiceMode::Stable => 0.0,
                ServiceMode::Drifted => 1.0,
            });
            ce_telemetry::gauge("serve.observations").set(healing.observations() as f64);
            ce_telemetry::gauge("serve.promotions").set(healing.promotion_count() as f64);
            ce_telemetry::gauge("serve.rollbacks").set(healing.rollback_count() as f64);
        }
    }
}

/// Tuning for [`start_server`].
#[derive(Debug, Clone, Copy)]
pub struct HttpServeConfig {
    /// HTTP worker threads.
    pub workers: usize,
    /// Micro-batcher admission queue capacity in queries (overflow: JSON
    /// 503 + `Retry-After`).
    pub queue_cap: usize,
    /// Maximum queries coalesced into one `predict_interval_batch` call.
    pub max_batch: usize,
    /// Batch window: how long the batcher lingers for stragglers. The
    /// default is zero: the batcher's inline fast path serves uncontended
    /// submissions on the caller's thread, and under contention queued
    /// requests coalesce naturally while the runner is busy — a measured
    /// sweep (500µs, 100µs, 0) showed no throughput gain from lingering,
    /// only added per-request latency at low concurrency.
    pub batch_window: Duration,
    /// Maximum concurrently open connections (overflow is shed with a raw
    /// 503 at accept).
    pub max_conns: usize,
}

impl Default for HttpServeConfig {
    fn default() -> Self {
        HttpServeConfig {
            workers: 4,
            queue_cap: 1024,
            max_batch: 64,
            batch_window: Duration::ZERO,
            max_conns: 4096,
        }
    }
}

/// A running HTTP PI server; dropping it (or calling
/// [`ServeHandle::drain`]) shuts it down gracefully.
///
/// Since the multi-tenant registry landed (DESIGN.md §15) every server —
/// including the single-engine [`start_server`] path — serves a
/// [`crate::tenant::ModelRegistry`]; the handle reaches the per-model
/// micro-batchers through the registry's control surface.
pub struct ServeHandle {
    pub(crate) server: HttpServer,
    pub(crate) registry: Arc<dyn crate::tenant::RegistryCtl>,
    pub(crate) draining: Arc<AtomicBool>,
}

impl ServeHandle {
    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Connection-level counters.
    pub fn server_stats(&self) -> ServerStats {
        self.server.stats()
    }

    /// Micro-batcher counters (admitted/shed/batches), summed over every
    /// registered model's batcher (`max_batch_seen` is the max).
    pub fn batcher_stats(&self) -> BatcherStats {
        self.registry.batcher_stats_sum()
    }

    /// Graceful drain: readiness flips to 503, the acceptor stops, in-flight
    /// requests finish (their batcher submissions included), every model's
    /// batcher flushes, and all threads join. Blocks until done; idempotent.
    pub fn drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            trace::event("drain", "serve drain requested");
        }
        self.server.shutdown();
        self.registry.shutdown_batchers();
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Starts the HTTP server for a single `engine` on `listen` (e.g.
/// `127.0.0.1:0`), registered as the `default` model of a fresh
/// [`crate::tenant::ModelRegistry`] — so `POST /v1/predict` and
/// `POST /v1/predict/default` are the same engine, byte for byte. No
/// reload factory, rate limiter, or interval cache is attached; use
/// [`crate::tenant::start_registry_server`] for the full multi-tenant
/// surface.
///
/// The returned handle owns the accept/worker/batcher threads; the caller
/// keeps its own `Arc` to the engine for checkpointing and shutdown policy.
pub fn start_server<M, S>(
    engine: Arc<ServeEngine<M, S>>,
    listen: &str,
    config: HttpServeConfig,
) -> std::io::Result<ServeHandle>
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    let registry = Arc::new(crate::tenant::ModelRegistry::new(
        crate::tenant::RegistryTuning::from_http(&config),
    ));
    registry.register_shared(crate::tenant::DEFAULT_MODEL, engine);
    crate::tenant::start_registry_server(registry, listen, config)
}

/// Formats an f64 for the JSON wire: finite values use Rust's shortest
/// round-trip `Display` (bit-exact through parse), non-finite become the
/// strings `"inf"` / `"-inf"` / `"nan"` since JSON has no literal for them.
pub fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else if value.is_nan() {
        "\"nan\"".to_string()
    } else if value > 0.0 {
        "\"inf\"".to_string()
    } else {
        "\"-inf\"".to_string()
    }
}

/// Inverse of [`json_f64`] over parsed values: accepts a JSON number or one
/// of the non-finite marker strings.
pub fn value_to_f64(value: &serde_json::Value) -> Result<f64, String> {
    match value {
        serde_json::Value::Num(n) => Ok(*n),
        serde_json::Value::Str(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            other => Err(format!("not a number: `{other}`")),
        },
        _ => Err("expected number".to_string()),
    }
}

/// `s` as a quoted JSON string literal, escaped by the vendored writer:
/// quotes, backslashes and every control character below 0x20.
pub(crate) fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("a string always serializes")
}

pub(crate) fn json_error(status: u16, message: &str) -> Response {
    Response::json(status, format!("{{\"error\":{}}}", json_str(message)))
}

/// Mirrors the server's connection/poller counters into the telemetry
/// registry (satellite of `/metrics`: the PR 7 event-loop counters —
/// `poller_wakeups`, `poller_dispatches`, the parked-connection gauge, and
/// the instantaneous dispatch depth — become scrapeable).
pub(crate) fn publish_server_stats(stats: &ServerStats) {
    if !ce_telemetry::enabled() {
        return;
    }
    ce_telemetry::gauge("serve.conns_accepted").set(stats.accepted as f64);
    ce_telemetry::gauge("serve.conns_shed").set(stats.conn_shed as f64);
    ce_telemetry::gauge("serve.conns_open").set(stats.open as f64);
    ce_telemetry::gauge("serve.requests").set(stats.requests as f64);
    ce_telemetry::gauge("serve.parse_errors").set(stats.parse_errors as f64);
    ce_telemetry::gauge("serve.buffer_allocs").set(stats.buffer_allocs as f64);
    ce_telemetry::gauge("serve.poller_wakeups").set(stats.poller_wakeups as f64);
    ce_telemetry::gauge("serve.poller_dispatches").set(stats.poller_dispatches as f64);
    ce_telemetry::gauge("serve.parked_conns").set(stats.parked as f64);
    ce_telemetry::gauge("serve.dispatch_depth").set(stats.dispatch_depth as f64);
}

/// Parses `x-ce-truth-id`: exactly 16 lowercase hex digits encoding a
/// nonzero `u64`. Anything else — wrong length, uppercase, zero — yields
/// `None` and the post proceeds *undeduplicated*: a malformed ID can only
/// cost idempotency, never reject the observation.
pub(crate) fn parse_truth_id(text: &str) -> Option<u64> {
    if text.len() != 16 || !text.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    match u64::from_str_radix(text, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

/// A parsed predict request: feature rows plus optional truths.
pub(crate) type PredictBody = (Vec<Vec<f32>>, Option<Vec<f64>>);

/// Parses the predict request body: `{"features": [[f32...]...],
/// "truths": [f64...]?}`.
pub(crate) fn parse_predict_body(body: &[u8]) -> Result<PredictBody, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value = serde_json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let features_value = value.field("features").map_err(|e| e.to_string())?;
    let serde_json::Value::Array(rows) = features_value else {
        return Err("`features` must be an array of arrays".to_string());
    };
    let mut features = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let serde_json::Value::Array(nums) = row else {
            return Err(format!("`features[{i}]` must be an array of numbers"));
        };
        let mut q = Vec::with_capacity(nums.len());
        for n in nums {
            q.push(value_to_f64(n).map_err(|e| format!("`features[{i}]`: {e}"))? as f32);
        }
        features.push(q);
    }
    let truths = match value.field("truths") {
        Err(_) => None,
        Ok(serde_json::Value::Array(vals)) => {
            let mut t = Vec::with_capacity(vals.len());
            for (i, v) in vals.iter().enumerate() {
                t.push(value_to_f64(v).map_err(|e| format!("`truths[{i}]`: {e}"))?);
            }
            Some(t)
        }
        Ok(_) => return Err("`truths` must be an array of numbers".to_string()),
    };
    if let Some(t) = &truths {
        if t.len() != features.len() {
            return Err(format!(
                "`truths` length {} != `features` length {}",
                t.len(),
                features.len()
            ));
        }
    }
    Ok((features, truths))
}

/// Renders a batch of interval results as the predict response body:
/// `{"mode":"…","results":[{"lo":…,"hi":…}|{"error":"…"}…]}`. The byte
/// layout is part of the determinism contract — the interval cache stores
/// these bodies verbatim and the bit-audits compare them on the wire.
pub(crate) fn render_predict_body(
    mode: ServiceMode,
    results: &[Result<PredictionInterval, CardEstError>],
) -> String {
    let mode = match mode {
        ServiceMode::Stable => "stable",
        ServiceMode::Drifted => "drifted",
    };
    let mut body = String::with_capacity(64 + results.len() * 48);
    body.push_str("{\"mode\":\"");
    body.push_str(mode);
    body.push_str("\",\"results\":[");
    for (i, result) in results.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        match result {
            Ok(iv) => {
                body.push_str("{\"lo\":");
                body.push_str(&json_f64(iv.lo));
                body.push_str(",\"hi\":");
                body.push_str(&json_f64(iv.hi));
                body.push('}');
            }
            Err(e) => {
                body.push_str("{\"error\":");
                body.push_str(&json_str(&e.to_string()));
                body.push('}');
            }
        }
    }
    body.push_str("]}");
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_f64_round_trips_every_class() {
        for v in [0.0, -0.0, 1.5, -2.25, 1e-300, 1e300, f64::MIN_POSITIVE, f64::MAX] {
            let text = json_f64(v);
            let parsed = value_to_f64(&serde_json::parse(&text).unwrap()).unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "round-trip of {v}");
        }
        let inf = value_to_f64(&serde_json::parse(&json_f64(f64::INFINITY)).unwrap()).unwrap();
        assert_eq!(inf, f64::INFINITY);
        let ninf =
            value_to_f64(&serde_json::parse(&json_f64(f64::NEG_INFINITY)).unwrap()).unwrap();
        assert_eq!(ninf, f64::NEG_INFINITY);
        let nan = value_to_f64(&serde_json::parse(&json_f64(f64::NAN)).unwrap()).unwrap();
        assert!(nan.is_nan());
    }

    #[test]
    fn parse_predict_body_validates() {
        let (f, t) = parse_predict_body(br#"{"features":[[1.0,2.0],[3.5,4.5]]}"#).unwrap();
        assert_eq!(f, vec![vec![1.0f32, 2.0], vec![3.5, 4.5]]);
        assert!(t.is_none());
        let (f, t) =
            parse_predict_body(br#"{"features":[[1.0]],"truths":[0.25]}"#).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(t, Some(vec![0.25]));
        assert!(parse_predict_body(b"not json").is_err());
        assert!(parse_predict_body(br#"{"truths":[1.0]}"#).is_err(), "missing features");
        assert!(parse_predict_body(br#"{"features":[1.0]}"#).is_err(), "non-nested");
        assert!(
            parse_predict_body(br#"{"features":[[1.0]],"truths":[1.0,2.0]}"#).is_err(),
            "length mismatch"
        );
        assert!(parse_predict_body(br#"{"features":[["x"]]}"#).is_err(), "non-number");
    }

    #[test]
    fn parse_truth_id_accepts_only_nonzero_lowercase_hex64() {
        assert_eq!(parse_truth_id("00000000000000ff"), Some(0xff));
        assert_eq!(parse_truth_id("ffffffffffffffff"), Some(u64::MAX));
        assert_eq!(parse_truth_id("0000000000000000"), None, "zero is reserved");
        assert_eq!(parse_truth_id("00000000000000FF"), None, "uppercase");
        assert_eq!(parse_truth_id("ff"), None, "too short");
        assert_eq!(parse_truth_id("00000000000000ff0"), None, "too long");
        assert_eq!(parse_truth_id("00000000000000fg"), None, "non-hex");
        assert_eq!(parse_truth_id(""), None);
    }

    #[test]
    fn truth_dedupe_claims_once_and_evicts_fifo() {
        let mut dedupe = TruthDedupe::new();
        assert!(dedupe.claim(7));
        assert!(!dedupe.claim(7), "replay rejected");
        // Fill past capacity: the oldest id (7) falls out and can be
        // claimed again, while a recent one stays deduplicated.
        for id in 1_000..(1_000 + TruthDedupe::CAP as u64) {
            assert!(dedupe.claim(id));
        }
        assert!(dedupe.claim(7), "evicted id is claimable again");
        let recent = 1_000 + TruthDedupe::CAP as u64 - 1;
        assert!(!dedupe.claim(recent), "recent id still deduplicated");
    }
}
