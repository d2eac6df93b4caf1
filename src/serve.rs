//! Network-facing PI serving: the glue between `ce-server`'s HTTP substrate
//! and the core's resilient, self-healing estimator chain (DESIGN.md §10).
//!
//! ```text
//! acceptor ─▶ dispatch queue ─▶ worker pool ─▶ router ─▶ micro-batcher
//! (max_conns)      ▲                 │ idle              │ coalesced
//!                  └── poller ◀──────┘                   ▼
//!                  ResilientService (breakers, fallbacks, floor; one mutex)
//!                                 └─ primary: SelfHealingService
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
//! - `GET /metrics` — one Prometheus exposition, with telemetry on or off:
//!   the `ce-telemetry` registry (process facts only) plus the stats the
//!   process owns (server connections and poller, batchers, cache,
//!   per-model and per-tenant series), rendered from their structs. Each
//!   model's chain facts (heal state and counts, rolling coverage, drift
//!   alarm, resilience counters, open breakers) come from its engine's
//!   snapshot, so a scrape never waits on a running batch.
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

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::conformal::{
    BreakerSnapshot, BreakerState, CardEstError, Checkpoint, HealConfig, HealState,
    PiEstimator, PredictionInterval, Regressor, ResilientService, ScoreFunction,
    SelfHealingService, ServiceMode,
};
use ce_server::{BatcherConfig, BatcherStats, HttpServer, Response, ServerStats};
use ce_telemetry::trace;

/// Interval results for one batch, in query order.
pub type BatchResults = Vec<Result<PredictionInterval, CardEstError>>;

/// The engine's chain: the self-healing service as the typed primary of
/// the resilient wrapper.
type Chain<M, S> = ResilientService<SelfHealingService<M, S>>;

/// The engine's facts as of the last call into its chain, copied out so
/// readers outside it (readiness, `/metrics`, the CLI) never wait on a
/// running batch. Every field is a fixed-size value: republishing it
/// allocates nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineSnapshot {
    pub(crate) mode: ServiceMode,
    pub(crate) state: HealState,
    pub(crate) observations: u64,
    pub(crate) promotions: u64,
    pub(crate) rollbacks: u64,
    /// The coverage monitor's rolling coverage and whether its drift alarm
    /// is active.
    pub(crate) coverage: f64,
    pub(crate) drift_active: bool,
    /// The chain's `ResilienceStats` counters.
    pub(crate) queries: u64,
    pub(crate) answered: u64,
    pub(crate) floor_served: u64,
    pub(crate) rejected_inputs: u64,
    pub(crate) panics_caught: u64,
    pub(crate) estimator_failures: u64,
    pub(crate) breaker_trips: u64,
    /// Queries answered by a fallback: `served_by[1..]` summed.
    pub(crate) fallback_served: u64,
    /// Breakers not `Closed`.
    pub(crate) breakers_open: u64,
}

impl EngineSnapshot {
    fn of<M, S>(chain: &Chain<M, S>) -> EngineSnapshot
    where
        M: Regressor + Send + Sync,
        S: ScoreFunction + Send + Sync,
    {
        let healing = chain.primary();
        let monitor = healing.service().coverage_monitor();
        let stats = chain.stats();
        EngineSnapshot {
            mode: healing.service().mode(),
            state: healing.state(),
            observations: healing.observations(),
            promotions: healing.promotion_count(),
            rollbacks: healing.rollback_count(),
            coverage: monitor.coverage(),
            drift_active: monitor.drift().is_some(),
            queries: stats.queries,
            answered: stats.answered,
            floor_served: stats.floor_served,
            rejected_inputs: stats.rejected_inputs,
            panics_caught: stats.panics_caught,
            estimator_failures: stats.estimator_failures,
            breaker_trips: stats.breaker_trips,
            fallback_served: stats.served_by.iter().skip(1).sum(),
            breakers_open: breakers_open(chain),
        }
    }
}

/// The serving engine: the self-healing primary behind the resilient chain,
/// with full-chain checkpointing.
///
/// Every call into the chain holds one mutex. The engine snapshot sits
/// behind a leaf lock that is only ever held to copy the snapshot in or out.
pub struct ServeEngine<M, S> {
    resilient: Mutex<Chain<M, S>>,
    /// Republished at the end of every call that changes the chain (see
    /// `publish`).
    snapshot: Mutex<EngineSnapshot>,
    /// Fixed at construction: neither the heal config nor the wrapped
    /// service's α ever changes afterwards.
    heal_config: HealConfig,
    alpha: f64,
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

/// The number of chain breakers not `Closed`. Only while there are none
/// does a batch admit every estimator whatever the query counter says, so
/// its results depend on calibration state alone.
fn breakers_open<P: PiEstimator>(resilient: &ResilientService<P>) -> u64 {
    let states = (0..).map_while(|p| resilient.breaker_state(p));
    states.filter(|&s| s != BreakerState::Closed).count() as u64
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
    M: Regressor + Send + Sync + 'static,
    S: ScoreFunction + Send + Sync + 'static,
{
    /// Builds the engine: `healing` becomes the chain's primary, followed by
    /// the given fallbacks, with input sanitization against `expected_dims`
    /// and the conservative ±∞ floor as the last resort.
    pub fn new(
        healing: SelfHealingService<M, S>,
        fallbacks: Vec<Box<dyn PiEstimator>>,
        expected_dims: usize,
    ) -> Self {
        let heal_config = healing.heal_config();
        let alpha = healing.service().config().alpha;
        let mut resilient = ResilientService::new(healing)
            .with_expected_dims(expected_dims)
            .with_conservative_floor(true);
        for fallback in fallbacks {
            resilient = resilient.with_fallback(fallback);
        }
        ServeEngine {
            snapshot: Mutex::new(EngineSnapshot::of(&resilient)),
            resilient: Mutex::new(resilient),
            heal_config,
            alpha,
            truth_dedupe: Mutex::new(TruthDedupe::new()),
            generation: AtomicU64::new(NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)),
        }
    }

    fn resilient(&self) -> MutexGuard<'_, Chain<M, S>> {
        self.resilient.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The engine's facts as of the last call into its chain, without
    /// waiting on a running one.
    pub(crate) fn snapshot(&self) -> EngineSnapshot {
        *self.snapshot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Copies the chain's facts into the snapshot and returns them. Called
    /// under the chain guard, after the change, at the end of every call
    /// that changes the chain, so a reading is never staler than the call
    /// still holding it.
    fn publish(&self, chain: &MutexGuard<'_, Chain<M, S>>) -> EngineSnapshot {
        let snapshot = EngineSnapshot::of(chain);
        *self.snapshot.lock().unwrap_or_else(|e| e.into_inner()) = snapshot;
        snapshot
    }

    /// Takes a fresh serving generation. The chain guard is the proof that
    /// the caller holds the mutex every batch stamps under; as it is held
    /// across the whole state change, renewing the generation before or
    /// after the change is the same to every reader.
    fn renew_generation(&self, _chain: &MutexGuard<'_, Chain<M, S>>) {
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
        let closed_before = breakers_open(&resilient) == 0;
        let results = resilient.predict_interval_batch(queries);
        let snapshot = self.publish(&resilient);
        let generation =
            (closed_before && snapshot.breakers_open == 0).then(|| self.generation());
        if generation.is_none() {
            self.renew_generation(&resilient);
        }
        (results, BatchStamp { generation, mode: snapshot.mode })
    }

    /// Feeds one executed query's truth to every chain entry — the primary's
    /// write routes into the self-healing state machine — and takes a fresh
    /// generation before releasing the chain mutex.
    pub fn observe(&self, features: &[f32], y_true: f64) {
        let mut resilient = self.resilient();
        resilient.observe(features, y_true);
        self.renew_generation(&resilient);
        self.publish(&resilient);
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
        self.snapshot().mode
    }

    /// Remediation state of the self-healing layer.
    pub fn heal_state(&self) -> HealState {
        self.snapshot().state
    }

    /// Total truths absorbed by the self-healing layer.
    pub fn observations(&self) -> u64 {
        self.snapshot().observations
    }

    /// Full-chain checkpoint: the self-healing service state plus every
    /// breaker's snapshot, so a restore resumes the *whole* serving chain.
    pub fn checkpoint(&self) -> Checkpoint {
        let resilient = self.resilient();
        resilient.primary().checkpoint().with_breakers(resilient.export_breakers())
    }

    /// Restores breaker state from a checkpoint's snapshots (the healing
    /// half is restored by constructing the engine from
    /// [`SelfHealingService::restore`]). Counts as a serving-state change:
    /// the engine takes a fresh generation.
    pub fn restore_breakers(&self, snapshots: &[BreakerSnapshot]) -> Result<(), CardEstError> {
        let mut resilient = self.resilient();
        self.renew_generation(&resilient);
        let restored = resilient.restore_breakers(snapshots);
        self.publish(&resilient);
        restored
    }

    /// The healing layer's remediation tuning (the reload validator reuses
    /// its `epsilon` slack and `max_width_blowup` guard).
    pub fn heal_config(&self) -> HealConfig {
        self.heal_config
    }

    /// The wrapped service's miscoverage target α.
    pub fn alpha(&self) -> f64 {
        self.alpha
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
    /// The batcher never lingers for stragglers: an uncontended request
    /// runs on its own worker thread, and requests that arrive while the
    /// runner is busy coalesce into the next batch.
    pub max_batch: usize,
    /// Maximum concurrently open connections (overflow is shed with a raw
    /// 503 at accept).
    pub max_conns: usize,
}

impl Default for HttpServeConfig {
    fn default() -> Self {
        let batcher = BatcherConfig::default();
        HttpServeConfig {
            workers: 4,
            queue_cap: batcher.queue_cap,
            max_batch: batcher.max_batch,
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
    /// batcher stops admitting, and all threads join. Blocks until done;
    /// idempotent.
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
/// The returned handle owns the poller/accept/worker threads; the caller
/// keeps its own `Arc` to the engine for checkpointing and shutdown policy.
pub fn start_server<M, S>(
    engine: Arc<ServeEngine<M, S>>,
    listen: &str,
    config: HttpServeConfig,
) -> std::io::Result<ServeHandle>
where
    M: Regressor + Send + Sync + 'static,
    S: ScoreFunction + Send + Sync + 'static,
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
    let mut out = String::new();
    write_json_f64(&mut out, value);
    out
}

/// Appends [`json_f64`]`(value)` to `out` without a temporary `String`.
fn write_json_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{value}");
    } else if value.is_nan() {
        out.push_str("\"nan\"");
    } else if value > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Inverse of [`json_f64`] over parsed values: accepts a JSON number or one
/// of the non-finite marker strings.
pub fn value_to_f64(value: &serde_json::Value) -> Result<f64, String> {
    match value {
        serde_json::Value::Num(n) => Ok(*n),
        serde_json::Value::Str(s) => marker_f64(s),
        _ => Err("expected number".to_string()),
    }
}

/// The value of a non-finite marker string.
fn marker_f64(s: &str) -> Result<f64, String> {
    match s {
        "inf" => Ok(f64::INFINITY),
        "-inf" => Ok(f64::NEG_INFINITY),
        "nan" => Ok(f64::NAN),
        other => Err(format!("not a number: `{other}`")),
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
/// "truths": [f64...]?}`. Numbers are JSON numbers or the non-finite
/// markers [`json_f64`] writes; rows may be ragged or empty.
///
/// One pass over the bytes with the vendored tokenizer
/// ([`serde_json::Reader`]), so it accepts and converts exactly what
/// `serde_json::parse` followed by a walk of the tree would: unknown fields
/// are skipped under the same nesting limit, the first of duplicate keys
/// wins, and trailing bytes are an error. Each feature row is one
/// allocation of exactly its own length.
pub(crate) fn parse_predict_body(body: &[u8]) -> Result<PredictBody, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let mut r = serde_json::Reader::new(text);
    if r.peek() != Some(b'{') {
        r.skip_value(0).and_then(|()| r.finish()).map_err(invalid_json)?;
        return Err(serde_json::Error::new("expected object with field `features`").to_string());
    }
    r.open(0).map_err(invalid_json)?;
    let mut features = None;
    let mut truths = None;
    if !r.eat(b'}') {
        loop {
            match &*r.key().map_err(invalid_json)? {
                "features" if features.is_none() => features = Some(read_features(&mut r)?),
                "truths" if truths.is_none() => truths = Some(read_truths(&mut r)?),
                _ => r.skip_value(1).map_err(invalid_json)?,
            }
            if !r.separator(b'}').map_err(invalid_json)? {
                break;
            }
        }
    }
    r.finish().map_err(invalid_json)?;
    let features = features
        .ok_or_else(|| serde_json::Error::new("missing field `features`").to_string())?;
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

fn invalid_json(e: serde_json::Error) -> String {
    format!("invalid JSON: {e}")
}

/// Reads the `features` value: an array of number arrays.
fn read_features(r: &mut serde_json::Reader<'_>) -> Result<Vec<Vec<f32>>, String> {
    if r.peek() != Some(b'[') {
        return Err("`features` must be an array of arrays".to_string());
    }
    r.open(1).map_err(invalid_json)?;
    let mut rows: Vec<Vec<f32>> = Vec::new();
    if r.eat(b']') {
        return Ok(rows);
    }
    // Rows are read into one reused buffer, sized from the first row's
    // comma count, and copied out at their exact length: one allocation
    // per row, and no row reserves more than it holds.
    let mut buf: Vec<f32> = Vec::new();
    loop {
        let i = rows.len();
        if r.peek() != Some(b'[') {
            return Err(format!("`features[{i}]` must be an array of numbers"));
        }
        r.open(2).map_err(invalid_json)?;
        if i == 0 {
            let commas =
                r.rest().bytes().take_while(|&b| b != b']').filter(|&b| b == b',').count();
            buf.reserve(commas + 1);
        }
        buf.clear();
        read_numbers(r, |v| buf.push(v as f32), |_, e| format!("`features[{i}]`: {e}"))?;
        rows.push(buf.to_vec());
        if !r.separator(b']').map_err(invalid_json)? {
            return Ok(rows);
        }
    }
}

/// Reads the `truths` value: one number array.
fn read_truths(r: &mut serde_json::Reader<'_>) -> Result<Vec<f64>, String> {
    if r.peek() != Some(b'[') {
        return Err("`truths` must be an array of numbers".to_string());
    }
    r.open(1).map_err(invalid_json)?;
    let mut truths = Vec::new();
    read_numbers(r, |v| truths.push(v), |j, e| format!("`truths[{j}]`: {e}"))?;
    Ok(truths)
}

/// Reads a number array whose `[` is consumed, through its `]`, passing
/// each element to `push`. `field` words a bad element's error from its
/// index and the reason.
fn read_numbers(
    r: &mut serde_json::Reader<'_>,
    mut push: impl FnMut(f64),
    field: impl Fn(usize, String) -> String,
) -> Result<(), String> {
    if r.eat(b']') {
        return Ok(());
    }
    for j in 0.. {
        let value = match r.peek() {
            None => return Err(invalid_json(serde_json::Error::new("unexpected end of input"))),
            Some(b'"') => {
                marker_f64(&r.string().map_err(invalid_json)?).map_err(|e| field(j, e))?
            }
            Some(b'n' | b't' | b'f' | b'[' | b'{') => {
                return Err(field(j, "expected number".to_string()))
            }
            Some(_) => r.number().map_err(invalid_json)?,
        };
        push(value);
        if !r.separator(b']').map_err(invalid_json)? {
            break;
        }
    }
    Ok(())
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
    // 64 bytes hold an interval whose endpoints print in up to 24
    // characters each, so a typical body is written without growing.
    let mut body = String::with_capacity(32 + results.len() * 64);
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
                write_json_f64(&mut body, iv.lo);
                body.push_str(",\"hi\":");
                write_json_f64(&mut body, iv.hi);
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

/// The predict wire format against reference implementations built the
/// plain way: a body parsed into a `serde_json::Value` tree and walked, and
/// a response concatenated from `json_f64` strings.
///
/// `parse_predict_body` reads the body in one pass and `render_predict_body`
/// writes floats in place; both must agree with the references bit for bit
/// (bodies) and byte for byte (responses). Generated bodies cover random
/// row counts and widths, ragged and empty rows, whitespace, key order,
/// unknown, duplicate and escaped keys, truths, the non-finite markers and
/// nesting around the depth limit; byte-mutated copies cover the error
/// paths, where both parsers must reject.
#[cfg(test)]
mod wire_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The tree-based parser `parse_predict_body` replaced.
    fn reference_parse(body: &[u8]) -> Result<PredictBody, String> {
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

    /// The `json_f64`-concatenating renderer `render_predict_body` replaced.
    fn reference_render(
        mode: ServiceMode,
        results: &[Result<PredictionInterval, CardEstError>],
    ) -> String {
        let mode = match mode {
            ServiceMode::Stable => "stable",
            ServiceMode::Drifted => "drifted",
        };
        let mut body = String::new();
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
                    body.push_str(&serde_json::to_string(&e.to_string()).unwrap());
                    body.push('}');
                }
            }
        }
        body.push_str("]}");
        body
    }

    /// Bit patterns of a parse result, so NaN rows compare equal to themselves.
    type Bits = (Vec<Vec<u32>>, Option<Vec<u64>>);

    fn bits(parsed: &Result<PredictBody, String>) -> Result<Bits, &str> {
        match parsed {
            Ok((features, truths)) => Ok((
                features.iter().map(|row| row.iter().map(|v| v.to_bits()).collect()).collect(),
                truths.as_ref().map(|t| t.iter().map(|v| v.to_bits()).collect()),
            )),
            Err(e) => Err(e.as_str()),
        }
    }

    /// Optional whitespace.
    fn ws(rng: &mut StdRng, out: &mut String) {
        for _ in 0..rng.gen_range(0..3usize).saturating_sub(1) {
            out.push(*[' ', '\t', '\n', '\r'].choose(rng).unwrap());
        }
    }

    /// One wire number: a JSON number in one of several spellings, or a
    /// non-finite marker string (sometimes spelled with escapes).
    fn number(rng: &mut StdRng) -> String {
        let v: f64 = match rng.gen_range(0..10u32) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
            3 => f64::from(f32::MAX) * rng.gen_range(0.99..1.01),
            4 => rng.gen_range(-1e6..1e6f64).round(),
            5 => f64::from_bits(rng.gen::<u64>()),
            _ => rng.gen_range(-1.0..1.0f64),
        };
        if !v.is_finite() {
            return json_f64(v);
        }
        match rng.gen_range(0..12u32) {
            0 => "\"inf\"".to_string(),
            1 => "\"-inf\"".to_string(),
            2 => "\"nan\"".to_string(),
            3 => "\"\\u0069nf\"".to_string(),
            4 => format!("{v:e}"),
            5 => format!("{v:E}"),
            6 if (v as f32).is_finite() => format!("{}", v as f32),
            7 => format!("{v:.3}"),
            _ => format!("{v}"),
        }
    }

    fn number_array(rng: &mut StdRng, len: usize, out: &mut String) {
        out.push('[');
        for j in 0..len {
            if j > 0 {
                out.push(',');
            }
            ws(rng, out);
            out.push_str(&number(rng));
            ws(rng, out);
        }
        out.push(']');
    }

    /// A JSON value of any kind, nested up to `depth` more levels.
    fn any_value(rng: &mut StdRng, depth: usize, out: &mut String) {
        let kind = if depth == 0 { rng.gen_range(0..4u32) } else { rng.gen_range(0..6u32) };
        match kind {
            0 => out.push_str(["null", "true", "false"].choose(rng).unwrap()),
            1 => out.push_str(&number(rng)),
            2 => {
                let strings = ["\"\"", "\"x\"", "\"a\\\"b\\\\c\"", "\"\\u00e9\\n\"", "\"é]\""];
                out.push_str(strings.choose(rng).unwrap());
            }
            3 => out.push_str(&format!("{}", rng.gen_range(-5..5i32))),
            4 => {
                out.push('[');
                for j in 0..rng.gen_range(0..3usize) {
                    if j > 0 {
                        out.push(',');
                    }
                    ws(rng, out);
                    any_value(rng, depth - 1, out);
                }
                out.push(']');
            }
            _ => {
                out.push('{');
                for j in 0..rng.gen_range(0..3usize) {
                    if j > 0 {
                        out.push(',');
                    }
                    let keys = ["\"k\"", "\"\"", "\"features\"", "\"truths\""];
                    out.push_str(keys.choose(rng).unwrap());
                    ws(rng, out);
                    out.push(':');
                    any_value(rng, depth - 1, out);
                }
                out.push('}');
            }
        }
    }

    /// A well-formed predict body, sometimes with a deliberate field-level
    /// error (a non-number, a missing field or a truths length mismatch), and
    /// whether it is *plain*: no unknown field can fail it (no duplicate of a
    /// known key ahead of the real one, no nesting past the limit), so either
    /// parser reports the same first error.
    fn valid_body(rng: &mut StdRng) -> (String, bool) {
        let rows = rng.gen_range(0..6usize);
        let width = rng.gen_range(0..6usize);
        let ragged = rng.gen_bool(0.2);
        let mut fields: Vec<String> = Vec::new();

        let mut features = String::from("[");
        for i in 0..rows {
            if i > 0 {
                features.push(',');
            }
            ws(rng, &mut features);
            let len = if ragged { rng.gen_range(0..6usize) } else { width };
            number_array(rng, len, &mut features);
        }
        features.push(']');
        if rng.gen_bool(0.05) {
            // One bad element, word for word in both parsers' messages.
            let bad = ["[\"x\"]", "[null]", "[[1]]", "[\"in\\u0046\"]"].choose(rng).unwrap();
            features = if rows == 0 {
                format!("[{bad}]")
            } else {
                features.replacen('[', &format!("[{bad},"), 1)
            };
        }
        let key = if rng.gen_bool(0.1) { "\"feat\\u0075res\"" } else { "\"features\"" };
        if !rng.gen_bool(0.03) {
            fields.push(format!("{key}:{features}"));
        }
        if rng.gen_bool(0.4) {
            let len = if rng.gen_bool(0.05) { rows + 1 } else { rows };
            let mut truths = String::new();
            number_array(rng, len, &mut truths);
            fields.push(format!("\"truths\":{truths}"));
        }
        let mut plain = true;
        for _ in 0..rng.gen_range(0..3usize) {
            let key =
                ["\"x\"", "\"features\"", "\"truths\"", "\"\\u0078\"", "\"\""].choose(rng).unwrap();
            let mut value = String::new();
            plain &= !key.ends_with("s\"");
            if rng.gen_bool(0.05) {
                plain = false;
                // Nesting around the limit: both parsers draw the same line.
                let depth = rng.gen_range(serde_json::MAX_DEPTH - 2..serde_json::MAX_DEPTH + 2);
                value = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            } else {
                any_value(rng, 3, &mut value);
            }
            fields.push(format!("{key}:{value}"));
        }
        fields.shuffle(rng);

        let mut body = String::new();
        ws(rng, &mut body);
        body.push('{');
        for (i, field) in fields.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            ws(rng, &mut body);
            let (key, value) = field.split_once(':').unwrap();
            body.push_str(key);
            ws(rng, &mut body);
            body.push(':');
            ws(rng, &mut body);
            body.push_str(value);
            ws(rng, &mut body);
        }
        body.push('}');
        ws(rng, &mut body);
        (body, plain)
    }

    /// `body` with one to three random edits: a byte replaced, inserted or
    /// removed, the tail cut off, or a whole token (a run of number or letter
    /// bytes, which leaves `[1,]`-style gaps) removed.
    fn mutate(rng: &mut StdRng, body: &str) -> Vec<u8> {
        const ALPHABET: &[u8] = b"[]{},:\"\\ 0123456789-+.eEntfuaxi\xff";
        let token = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'+' | b'.');
        let mut bytes = body.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..4usize) {
            let at = rng.gen_range(0..bytes.len() + 1);
            let byte = ALPHABET[rng.gen_range(0..ALPHABET.len())];
            match rng.gen_range(0..5u32) {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                2 => bytes.truncate(at),
                3 => {
                    let end = (at..bytes.len()).find(|&i| !token(bytes[i])).unwrap_or(bytes.len());
                    let start = (0..at).rev().find(|&i| !token(bytes[i])).map_or(0, |i| i + 1);
                    bytes.drain(start..end);
                }
                _ => bytes.insert(at, byte),
            }
        }
        bytes
    }

    proptest! {
        /// Well-formed bodies: the same bits, or both rejected; a plain body
        /// is rejected with the same message.
        #[test]
        fn valid_bodies_parse_like_the_tree_parser(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                let (body, plain) = valid_body(&mut rng);
                let got = parse_predict_body(body.as_bytes());
                let want = reference_parse(body.as_bytes());
                let (got, want) = (bits(&got), bits(&want));
                if plain {
                    prop_assert_eq!(got, want, "body: {}", body);
                } else {
                    prop_assert_eq!(got.map_err(|_| ()), want.map_err(|_| ()), "body: {}", body);
                }
            }
        }

        /// Byte-mutated bodies: the same bits, or both rejected.
        #[test]
        fn mutated_bodies_are_accepted_or_rejected_like_the_tree_parser(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                let (body, _) = valid_body(&mut rng);
                for _ in 0..8 {
                    let mutated = mutate(&mut rng, &body);
                    let got = bits(&parse_predict_body(&mutated)).map_err(|_| ());
                    let want = bits(&reference_parse(&mutated)).map_err(|_| ());
                    prop_assert_eq!(got, want, "body: {}", String::from_utf8_lossy(&mutated));
                }
            }
        }
    }

    #[test]
    fn field_level_messages_are_unchanged() {
        let cases: [(&[u8], &str); 6] = [
            (br#"{"features":[[1],["x"]]}"#, "`features[1]`: not a number: `x`"),
            (br#"{"features":[[null]]}"#, "`features[0]`: expected number"),
            (br#"{"features":[[1]],"truths":["nope"]}"#, "`truths[0]`: not a number: `nope`"),
            (br#"{"features":[[1],[2]],"truths":[1]}"#, "`truths` length 1 != `features` length 2"),
            (br#"{"truths":[]}"#, "json error: missing field `features`"),
            (b"{\"features\":[[1]]}\xff", "body is not UTF-8"),
        ];
        for (body, message) in cases {
            assert_eq!(parse_predict_body(body).unwrap_err(), message);
            assert_eq!(reference_parse(body).unwrap_err(), message);
        }
    }

    #[test]
    fn each_row_reserves_only_its_own_elements() {
        // A wide first row followed by many empty, spaced and ragged rows:
        // no row may take its capacity from another.
        let wide = vec!["0"; 1000].join(",");
        let body = format!(r#"{{"features":[[{wide}],{}[ ],["nan", 1]]}}"#, "[],".repeat(1000));
        let (rows, _) = parse_predict_body(body.as_bytes()).unwrap();
        assert_eq!(rows.len(), 1003);
        for row in &rows {
            assert_eq!(row.capacity(), row.len());
        }
    }

    #[test]
    fn rendered_bodies_match_the_concatenating_renderer() {
        let values = [
            0.0,
            -0.0,
            1.5,
            -2.25e-7,
            0.1 + 0.2,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut results: Vec<Result<PredictionInterval, CardEstError>> = Vec::new();
        for &lo in &values {
            for &hi in &values {
                results.push(Ok(PredictionInterval { lo, hi }));
            }
        }
        let message = "quote \" backslash \\ newline \n bell \u{7}";
        results.push(Err(CardEstError::ModelPanic(message.into())));
        results.push(Err(CardEstError::NonFiniteFeature { index: 3 }));
        for mode in [ServiceMode::Stable, ServiceMode::Drifted] {
            for n in [0, 1, 2, results.len()] {
                let batch = &results[..n];
                assert_eq!(render_predict_body(mode, batch), reference_render(mode, batch));
            }
        }
    }
}
