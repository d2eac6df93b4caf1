//! Multi-tenant serving: a registry of named engines with hot reload,
//! per-tenant fairness, and an interval cache (DESIGN.md §15).
//!
//! A production estimator fleet serves *many* models and tenants from one
//! process. This module promotes the single [`ServeEngine`] of
//! [`crate::serve`] into a [`ModelRegistry`]:
//!
//! - **Named routes** — `POST /v1/predict/{model}` and
//!   `POST /v1/observe/{model}` address one registered engine each;
//!   unknown names answer `404`. The bare `POST /v1/predict` and
//!   `POST /v1/observe` stay wire-compatible, aliased to the
//!   [`DEFAULT_MODEL`] — a PR 9 cluster router keeps working unchanged.
//! - **Hot reload** — `POST /v1/admin/models/{model}` with a raw
//!   checkpoint body builds a *shadow* engine through the registry's
//!   factory, validates it against a held-back replay buffer of recently
//!   observed truths (coverage ≥ 1−α−ε and bounded width blow-up — the
//!   same acceptance rule the `SelfHealingService` applies to its own
//!   recalibration candidates), then atomically swaps it in. A failed
//!   validation rolls back: the old engine keeps serving, the response is
//!   `409`, and the `reload.*` counters + flight-recorder events record
//!   the trail. In-flight requests always finish on the engine they
//!   started on — a swap drops no requests.
//! - **Per-tenant fairness** — admission is token-bucket rate limited per
//!   `x-ce-tenant` header ([`ce_server::TenantLimiter`]): an exhausted
//!   bucket sheds with JSON `429` + deterministic `Retry-After`, and the
//!   admission-queue 503 hands the tenant currently over its fair share a
//!   longer hint than its victims. Per-tenant shed counters and
//!   queue-depth gauges ride `/metrics`.
//! - **Interval cache** — an LRU keyed by (model, request signature,
//!   serving generation) memoizes predict response bodies. Truth-carrying
//!   requests bypass it (they mutate state). The generation is the
//!   engine's process-unique serving-state number ([`crate::serve`]): a
//!   lookup reads it once, and a body is inserted only under the
//!   generation its batch stamped, so an entry always holds what a fresh
//!   prediction at that state renders — a hit is *byte-identical*, which
//!   the `tenant` experiment bit-audits on the wire. A reload swaps in an
//!   engine whose generation no earlier state shared, then invalidates the
//!   model's entries wholesale to reclaim their memory.
//!
//! Lock order: the registry's model map read-lock, then a model's engine
//! slot read-lock, then the engine's documented `resilient → healing`
//! chain order. The cache and limiter use their own leaf mutexes and are
//! never held across an engine call.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::conformal::{
    decode_checkpoint, CardEstError, Checkpoint, HealState, PredictionInterval, Regressor,
    ScoreFunction,
};
use crate::serve::{
    json_error, json_str, parse_predict_body, parse_truth_id, publish_server_stats,
    render_predict_body, BatchResults, BatchStamp, HttpServeConfig, ServeEngine, ServeHandle,
};
use ce_server::{
    fnv1a64, Admission, BatchError, BatcherConfig, BatcherStats, HttpServer, MicroBatcher,
    RateLimit, Request, Response, ServerConfig, ServerStatsProbe, TenantLimiter,
    STAGES_HEADER, TENANT_HEADER, TRACE_HEADER, TRUTH_HEADER,
};
use ce_telemetry::trace::{self, TraceId};

/// The model name the bare (PR 5–9 era) endpoints alias to.
pub const DEFAULT_MODEL: &str = "default";

/// Builds a fresh engine from a decoded checkpoint — the hot-reload
/// hook. The model weights are not in the checkpoint (they are retrained
/// or cloned deterministically by the host), so the registry owner
/// supplies the closure that marries a checkpoint's calibration state to
/// a model and fallback chain.
pub type EngineFactory<M, S> =
    Box<dyn Fn(Checkpoint) -> Result<ServeEngine<M, S>, CardEstError> + Send + Sync>;

/// One query's result from the micro-batcher, with its batch's stamp.
type StampedResult = (Result<PredictionInterval, CardEstError>, BatchStamp);

/// Monotonic nanoseconds since the first call in this process — the
/// limiter's deterministic clock input.
fn now_nanos() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    let anchor = *ANCHOR.get_or_init(Instant::now);
    anchor.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

// ---------------------------------------------------------------------------
// Registry tuning
// ---------------------------------------------------------------------------

/// Tuning shared by every model in a [`ModelRegistry`].
#[derive(Debug, Clone, Copy)]
pub struct RegistryTuning {
    /// Per-model micro-batcher admission tuning.
    pub batcher: BatcherConfig,
    /// Interval-cache capacity in entries; `0` disables caching.
    pub cache_entries: usize,
    /// Held-back replay pairs kept per model for reload validation.
    pub replay_cap: usize,
    /// Minimum replay pairs required to validate a reload candidate; with
    /// fewer, validation is *skipped* (the swap reports
    /// `"validated":false`) — a freshly registered model has nothing to
    /// validate against yet.
    pub min_replay: usize,
}

impl Default for RegistryTuning {
    fn default() -> Self {
        RegistryTuning {
            batcher: BatcherConfig {
                queue_cap: 1024,
                max_batch: 64,
                window: std::time::Duration::ZERO,
            },
            cache_entries: 0,
            replay_cap: 256,
            min_replay: 32,
        }
    }
}

impl RegistryTuning {
    /// Batcher tuning lifted from the single-engine HTTP config (cache and
    /// limiter off — [`crate::serve::start_server`] semantics).
    pub fn from_http(config: &HttpServeConfig) -> RegistryTuning {
        RegistryTuning {
            batcher: BatcherConfig {
                queue_cap: config.queue_cap,
                max_batch: config.max_batch,
                window: config.batch_window,
            },
            ..RegistryTuning::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Interval cache
// ---------------------------------------------------------------------------

/// Cache key: one model's request signature at one serving state. The
/// serving generation makes stale entries unreachable rather than deleted —
/// any state change moves the key space, and LRU pressure reclaims the
/// orphans.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    model: String,
    signature: u64,
    generation: u64,
}

struct CacheSlot {
    stamp: u64,
    body: Arc<str>,
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<CacheKey, CacheSlot>,
    /// True LRU order: stamp → key, oldest first. Stamps are unique (the
    /// clock increments on every touch), so `BTreeMap` gives O(log n)
    /// touch and eviction.
    lru: BTreeMap<u64, CacheKey>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

/// Counters for the metrics surface and the bench gates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a body.
    pub hits: u64,
    /// Lookups that missed (including generation moves).
    pub misses: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Entries dropped by wholesale model invalidation (reload).
    pub invalidations: u64,
    /// Entries resident now.
    pub entries: usize,
}

/// The LRU interval cache (module docs). The PostBOUND
/// `PreciseCardinalityHintGenerator` keeps a per-estimator cardinality
/// cache that is manually reset on data shift; this is that idea adapted
/// to interval *responses*, with the reset made automatic and provable
/// via the generation key.
pub struct IntervalCache {
    cap: usize,
    inner: Mutex<CacheInner>,
}

impl IntervalCache {
    /// A cache holding at most `cap` bodies; `cap == 0` disables it (every
    /// lookup misses, every insert is dropped).
    pub fn new(cap: usize) -> IntervalCache {
        IntervalCache { cap, inner: Mutex::new(CacheInner::default()) }
    }

    /// Whether inserts can ever succeed.
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn get(&self, model: &str, signature: u64, generation: u64) -> Option<Arc<str>> {
        if self.cap == 0 {
            return None;
        }
        let key = CacheKey { model: model.to_string(), signature, generation };
        let mut inner = self.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        match inner.map.get_mut(&key) {
            Some(slot) => {
                let old = std::mem::replace(&mut slot.stamp, stamp);
                let body = Arc::clone(&slot.body);
                inner.lru.remove(&old);
                inner.lru.insert(stamp, key);
                inner.hits += 1;
                Some(body)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    fn insert(&self, model: &str, signature: u64, generation: u64, body: &str) {
        if self.cap == 0 {
            return;
        }
        let key = CacheKey { model: model.to_string(), signature, generation };
        let mut inner = self.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(old) = inner.map.remove(&key) {
            inner.lru.remove(&old.stamp);
        }
        while inner.map.len() >= self.cap {
            let Some((&oldest, _)) = inner.lru.iter().next() else { break };
            if let Some(victim) = inner.lru.remove(&oldest) {
                inner.map.remove(&victim);
                inner.evictions += 1;
            }
        }
        inner.lru.insert(stamp, key.clone());
        inner.map.insert(key, CacheSlot { stamp, body: Arc::from(body) });
    }

    /// Drops every entry belonging to `model` (any generation) — the
    /// wholesale reset on reload. The generation key already makes stale
    /// entries unreachable; this reclaims their memory immediately.
    fn invalidate_model(&self, model: &str) {
        let mut inner = self.lock();
        let victims: Vec<CacheKey> =
            inner.map.keys().filter(|k| k.model == model).cloned().collect();
        for key in victims {
            if let Some(slot) = inner.map.remove(&key) {
                inner.lru.remove(&slot.stamp);
                inner.invalidations += 1;
            }
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            invalidations: inner.invalidations,
            entries: inner.map.len(),
        }
    }
}

// ---------------------------------------------------------------------------
// Model entries and the registry
// ---------------------------------------------------------------------------

/// One named model: the engine slot (swapped atomically on reload), its
/// micro-batcher (which outlives reloads — in-flight batches finish on
/// the engine they resolved), and the held-back replay buffer.
pub struct ModelEntry<M, S> {
    name: String,
    slot: Arc<RwLock<Arc<ServeEngine<M, S>>>>,
    batcher: Arc<MicroBatcher<Vec<f32>, StampedResult>>,
    reloads: AtomicU64,
    reload_rejects: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    replay: Mutex<VecDeque<(Vec<f32>, f64)>>,
    replay_cap: usize,
}

impl<M, S> ModelEntry<M, S>
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    fn new(name: &str, engine: Arc<ServeEngine<M, S>>, tuning: &RegistryTuning) -> ModelEntry<M, S> {
        let slot = Arc::new(RwLock::new(engine));
        let batcher_slot = Arc::clone(&slot);
        let batcher = MicroBatcher::new(tuning.batcher, move |items: Vec<Vec<f32>>| {
            // Resolve the engine per batch and release the slot lock before
            // inference: a reload swap never waits on a running batch, and
            // the batch finishes on the engine it started with.
            let engine =
                Arc::clone(&*batcher_slot.read().unwrap_or_else(|e| e.into_inner()));
            let (results, stamp) = engine.predict_batch_stamped(&items);
            results.into_iter().map(|r| (r, stamp)).collect()
        });
        ModelEntry {
            name: name.to_string(),
            slot,
            batcher,
            reloads: AtomicU64::new(0),
            reload_rejects: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            replay: Mutex::new(VecDeque::new()),
            replay_cap: tuning.replay_cap,
        }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The engine serving this model right now.
    pub fn engine(&self) -> Arc<ServeEngine<M, S>> {
        Arc::clone(&*self.slot.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Completed reload swaps.
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// Reload candidates rejected by shadow validation.
    pub fn reload_rejects(&self) -> u64 {
        self.reload_rejects.load(Ordering::Relaxed)
    }

    /// Remembers observed truths for reload validation (bounded FIFO).
    fn remember(&self, features: &[Vec<f32>], truths: &[f64]) {
        let mut replay = self.replay.lock().unwrap_or_else(|e| e.into_inner());
        for (x, y) in features.iter().zip(truths) {
            if replay.len() == self.replay_cap {
                replay.pop_front();
            }
            replay.push_back((x.clone(), *y));
        }
    }

    /// A copy of the held-back replay pairs.
    fn replay_snapshot(&self) -> Vec<(Vec<f32>, f64)> {
        self.replay.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned().collect()
    }

    /// Replay pairs currently held.
    pub fn replay_len(&self) -> usize {
        self.replay.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// Why a reload request failed before reaching validation.
#[derive(Debug)]
pub enum ReloadError {
    /// No model registered under that name.
    UnknownModel,
    /// The registry has no [`EngineFactory`] — reload is not supported.
    NoFactory,
    /// The posted bytes are not a valid checkpoint.
    BadCheckpoint(CardEstError),
    /// The factory could not build an engine from the checkpoint.
    BuildFailed(CardEstError),
}

/// What a reload attempt measured and decided.
#[derive(Debug, Clone)]
pub struct ReloadReport {
    /// Model name.
    pub model: String,
    /// Whether the candidate was promoted (swapped in).
    pub promoted: bool,
    /// Whether shadow validation actually ran (enough replay pairs).
    pub validated: bool,
    /// Replay pairs the candidate was validated against.
    pub replay_len: usize,
    /// Candidate coverage on the replay buffer (NaN when not validated).
    pub shadow_coverage: f64,
    /// Coverage floor the candidate had to clear: 1 − α − ε.
    pub coverage_floor: f64,
    /// Mean candidate width over mean live width (NaN when not validated).
    pub width_ratio: f64,
    /// Width ceiling from the live engine's heal config.
    pub width_ceiling: f64,
}

impl ReloadReport {
    /// The report as a JSON object (the admin endpoint's response body).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"model\":{},\"promoted\":{},\"validated\":{},\"replay\":{},\
             \"shadow_coverage\":{},\"coverage_floor\":{},\"width_ratio\":{},\
             \"width_ceiling\":{}}}",
            json_str(&self.model),
            self.promoted,
            self.validated,
            self.replay_len,
            crate::serve::json_f64(self.shadow_coverage),
            crate::serve::json_f64(self.coverage_floor),
            crate::serve::json_f64(self.width_ratio),
            crate::serve::json_f64(self.width_ceiling),
        )
    }
}

/// The registry: named engines plus the shared cache, limiter, and reload
/// factory (module docs).
pub struct ModelRegistry<M, S> {
    tuning: RegistryTuning,
    models: RwLock<BTreeMap<String, Arc<ModelEntry<M, S>>>>,
    cache: IntervalCache,
    limiter: Option<TenantLimiter>,
    factory: Option<EngineFactory<M, S>>,
}

impl<M, S> ModelRegistry<M, S>
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    /// An empty registry with the given tuning (no limiter, no factory).
    pub fn new(tuning: RegistryTuning) -> ModelRegistry<M, S> {
        ModelRegistry {
            tuning,
            models: RwLock::new(BTreeMap::new()),
            cache: IntervalCache::new(tuning.cache_entries),
            limiter: None,
            factory: None,
        }
    }

    /// Attaches per-tenant token-bucket rate limiting.
    pub fn with_limiter(mut self, limit: RateLimit) -> Self {
        self.limiter = Some(TenantLimiter::new(limit));
        self
    }

    /// Attaches the checkpoint→engine factory that enables hot reload.
    pub fn with_factory(mut self, factory: EngineFactory<M, S>) -> Self {
        self.factory = Some(factory);
        self
    }

    fn models_read(
        &self,
    ) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<ModelEntry<M, S>>>> {
        self.models.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers (or replaces) a model under `name`.
    pub fn register(&self, name: &str, engine: ServeEngine<M, S>) -> Arc<ModelEntry<M, S>> {
        self.register_shared(name, Arc::new(engine))
    }

    /// Registers (or replaces) a model around a caller-held engine `Arc`
    /// (the caller keeps it for checkpointing, like
    /// [`crate::serve::start_server`] does).
    pub fn register_shared(
        &self,
        name: &str,
        engine: Arc<ServeEngine<M, S>>,
    ) -> Arc<ModelEntry<M, S>> {
        let entry = Arc::new(ModelEntry::new(name, engine, &self.tuning));
        let mut models = self.models.write().unwrap_or_else(|e| e.into_inner());
        models.insert(name.to_string(), Arc::clone(&entry));
        entry
    }

    /// The entry serving `name`, if registered.
    pub fn entry(&self, name: &str) -> Option<Arc<ModelEntry<M, S>>> {
        self.models_read().get(name).cloned()
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.models_read().keys().cloned().collect()
    }

    /// The shared interval cache.
    pub fn cache(&self) -> &IntervalCache {
        &self.cache
    }

    /// The per-tenant limiter, when rate limiting is on.
    pub fn limiter(&self) -> Option<&TenantLimiter> {
        self.limiter.as_ref()
    }

    /// The `Retry-After` hint for an admission-queue overflow: a tenant
    /// currently over its fair share of in-flight depth is told to back
    /// off longer than the tenants it is crowding out.
    fn overflow_retry_hint(&self, tenant: &str) -> &'static str {
        match &self.limiter {
            Some(limiter) if limiter.over_fair_share(tenant) => "3",
            _ => "1",
        }
    }

    /// Hot reload (module docs): decode → build shadow → validate on the
    /// replay buffer → atomic swap, or roll back. Never touches the live
    /// engine on any failure path.
    pub fn reload(&self, name: &str, checkpoint_bytes: &[u8]) -> Result<ReloadReport, ReloadError> {
        let entry = self.entry(name).ok_or(ReloadError::UnknownModel)?;
        let factory = self.factory.as_ref().ok_or(ReloadError::NoFactory)?;
        let checkpoint = decode_checkpoint(checkpoint_bytes).map_err(|e| {
            ce_telemetry::counter("reload.invalid").inc();
            trace::event("reload", &format!("model {name}: bad checkpoint ({e})"));
            ReloadError::BadCheckpoint(e)
        })?;
        let shadow = factory(checkpoint).map_err(|e| {
            ce_telemetry::counter("reload.build_failed").inc();
            trace::event("reload", &format!("model {name}: factory failed ({e})"));
            ReloadError::BuildFailed(e)
        })?;
        let live = entry.engine();
        let replay = entry.replay_snapshot();
        let heal = live.heal_config();
        let mut report = ReloadReport {
            model: name.to_string(),
            promoted: false,
            validated: false,
            replay_len: replay.len(),
            shadow_coverage: f64::NAN,
            coverage_floor: 1.0 - live.alpha() - heal.epsilon,
            width_ratio: f64::NAN,
            width_ceiling: heal.max_width_blowup,
        };
        if replay.len() >= self.tuning.min_replay {
            report.validated = true;
            let features: Vec<Vec<f32>> = replay.iter().map(|(x, _)| x.clone()).collect();
            let shadow_results = shadow.predict_batch(&features);
            let live_results = live.predict_batch(&features);
            let covered = shadow_results
                .iter()
                .zip(replay.iter())
                .filter(|(r, (_, y))| matches!(r, Ok(iv) if iv.contains(*y)))
                .count();
            report.shadow_coverage = covered as f64 / replay.len() as f64;
            report.width_ratio = width_ratio(&shadow_results, &live_results);
            let coverage_ok = report.shadow_coverage >= report.coverage_floor;
            let width_ok = report.width_ratio.is_finite() && report.width_ratio <= report.width_ceiling;
            if !coverage_ok || !width_ok {
                entry.reload_rejects.fetch_add(1, Ordering::Relaxed);
                ce_telemetry::counter("reload.rejected").inc();
                trace::event(
                    "reload",
                    &format!(
                        "model {name}: rejected (coverage {:.4} floor {:.4}, width ratio {:.3} \
                         ceiling {:.1}) — old engine keeps serving",
                        report.shadow_coverage,
                        report.coverage_floor,
                        report.width_ratio,
                        report.width_ceiling,
                    ),
                );
                return Ok(report);
            }
        }
        // An insert from a batch that straddles the swap lands under the old
        // engine's generation, which no later lookup reads.
        *entry.slot.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(shadow);
        self.cache.invalidate_model(name);
        entry.reloads.fetch_add(1, Ordering::Relaxed);
        report.promoted = true;
        ce_telemetry::counter("reload.promoted").inc();
        trace::event(
            "reload",
            &format!(
                "model {name}: promoted (validated {}, coverage {:.4}, width ratio {:.3})",
                report.validated, report.shadow_coverage, report.width_ratio,
            ),
        );
        Ok(report)
    }
}

/// Mean finite candidate width over mean finite live width on the same
/// queries. Infinite (floor) intervals are excluded on both sides — the
/// guard is about the candidate *blowing up* relative to the live engine,
/// and ±∞ floors would drown that signal. Degenerate denominators fall
/// back conservatively: a zero/absent live width with a nonzero candidate
/// width reports ∞ (fails the ceiling), matching widths report 1.
fn width_ratio(shadow: &BatchResults, live: &BatchResults) -> f64 {
    fn mean_width(results: &BatchResults) -> Option<f64> {
        let widths: Vec<f64> = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|iv| iv.hi - iv.lo)
            .filter(|w| w.is_finite())
            .collect();
        if widths.is_empty() {
            None
        } else {
            Some(widths.iter().sum::<f64>() / widths.len() as f64)
        }
    }
    match (mean_width(shadow), mean_width(live)) {
        (Some(s), Some(l)) if l > 0.0 => s / l,
        (Some(s), _) if s <= 0.0 => 1.0,
        (Some(_), _) => f64::INFINITY,
        (None, _) => f64::INFINITY,
    }
}

// ---------------------------------------------------------------------------
// Registry control surface (for ServeHandle)
// ---------------------------------------------------------------------------

/// Type-erased batcher control, so the non-generic [`ServeHandle`] can
/// drain and sum a generic registry's per-model batchers.
pub trait RegistryCtl: Send + Sync {
    /// Shuts down every model's micro-batcher (flushes queues, joins).
    fn shutdown_batchers(&self);
    /// Sums counters over every model's batcher (`max_batch_seen` is the
    /// max).
    fn batcher_stats_sum(&self) -> BatcherStats;
}

impl<M, S> RegistryCtl for ModelRegistry<M, S>
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    fn shutdown_batchers(&self) {
        let batchers: Vec<_> =
            self.models_read().values().map(|e| Arc::clone(&e.batcher)).collect();
        for batcher in batchers {
            batcher.shutdown();
        }
    }

    fn batcher_stats_sum(&self) -> BatcherStats {
        let mut sum = BatcherStats::default();
        for entry in self.models_read().values() {
            let stats = entry.batcher.stats();
            sum.admitted += stats.admitted;
            sum.shed += stats.shed;
            sum.batches += stats.batches;
            sum.max_batch_seen = sum.max_batch_seen.max(stats.max_batch_seen);
        }
        sum
    }
}

// ---------------------------------------------------------------------------
// HTTP surface
// ---------------------------------------------------------------------------

/// Starts the multi-tenant HTTP server for `registry` on `listen`.
///
/// Endpoints (module docs): named + bare predict/observe, the admin
/// reload route, `/metrics` with `model="…"` and `tenant="…"` labeled
/// series, `/healthz`, `/readyz`, `/debug/trace`.
pub fn start_registry_server<M, S>(
    registry: Arc<ModelRegistry<M, S>>,
    listen: &str,
    config: HttpServeConfig,
) -> std::io::Result<ServeHandle>
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    // Pre-size the flight recorder off the hot path: the first traced
    // request must not pay the ring allocation.
    trace::warm();
    let draining = Arc::new(AtomicBool::new(false));
    // The handler closure outlives `bind`, but the server's stats probe only
    // exists after it — a OnceLock filled post-bind closes the loop so
    // `/metrics` can report connection/poller counters.
    let probe: Arc<OnceLock<ServerStatsProbe>> = Arc::new(OnceLock::new());
    let handler = {
        let registry = Arc::clone(&registry);
        let draining = Arc::clone(&draining);
        let probe = Arc::clone(&probe);
        move |req: &Request| route_registry(req, &registry, &draining, &probe)
    };
    let server = HttpServer::bind(
        listen,
        ServerConfig {
            workers: config.workers,
            max_conns: config.max_conns,
            ..ServerConfig::default()
        },
        Arc::new(handler),
    )?;
    let _ = probe.set(server.stats_probe());
    Ok(ServeHandle { server, registry, draining })
}

/// Splits `/v1/predict/foo` → `Some("foo")` for a given prefix; the bare
/// path (no trailing segment) is not a match.
fn model_suffix<'p>(path: &'p str, prefix: &str) -> Option<&'p str> {
    path.strip_prefix(prefix).filter(|rest| !rest.is_empty())
}

fn unknown_model(name: &str) -> Response {
    Response::json(404, format!("{{\"error\":\"no such model\",\"model\":{}}}", json_str(name)))
}

fn route_registry<M, S>(
    req: &Request,
    registry: &ModelRegistry<M, S>,
    draining: &AtomicBool,
    probe: &OnceLock<ServerStatsProbe>,
) -> Response
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    let path = req.path();
    match (req.method, path) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => {
            if draining.load(Ordering::SeqCst) {
                Response::text(503, "draining\n")
            } else if registry
                .models_read()
                .values()
                .any(|e| e.engine().heal_state() == HealState::Recalibrating)
            {
                Response::text(503, "recalibrating\n")
            } else {
                Response::text(200, "ready\n")
            }
        }
        ("GET", "/metrics") => metrics(registry, probe),
        ("GET", "/debug/trace") => Response::json(200, trace::snapshot_json()),
        (_, "/healthz" | "/readyz" | "/metrics" | "/debug/trace") => {
            json_error(405, "method not allowed")
        }
        ("POST", "/v1/predict") => admit_predict(req, registry, DEFAULT_MODEL),
        ("POST", "/v1/observe") => observe_post(req, registry, DEFAULT_MODEL),
        ("POST", p) => {
            if let Some(model) = model_suffix(p, "/v1/predict/") {
                admit_predict(req, registry, model)
            } else if let Some(model) = model_suffix(p, "/v1/observe/") {
                observe_post(req, registry, model)
            } else if let Some(model) = model_suffix(p, "/v1/admin/models/") {
                admin_reload(req, registry, model)
            } else {
                json_error(404, "no such endpoint")
            }
        }
        (_, "/v1/predict" | "/v1/observe") => json_error(405, "method not allowed"),
        (_, p)
            if p.starts_with("/v1/predict/")
                || p.starts_with("/v1/observe/")
                || p.starts_with("/v1/admin/models/") =>
        {
            json_error(405, "method not allowed")
        }
        _ => json_error(404, "no such endpoint"),
    }
}

/// Predict admission: resolve the model, charge the tenant's token
/// bucket, then serve. The in-flight depth is held for the full request
/// so the queue-depth gauge and fair-share hint see reality.
fn admit_predict<M, S>(req: &Request, registry: &ModelRegistry<M, S>, model: &str) -> Response
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    let Some(entry) = registry.entry(model) else {
        return unknown_model(model);
    };
    let tenant = req.header(TENANT_HEADER).unwrap_or("");
    if let Some(limiter) = registry.limiter() {
        match limiter.admit(tenant, now_nanos()) {
            Admission::Allowed => {}
            Admission::Limited { retry_after_secs } => {
                ce_telemetry::counter("tenant.rate_limited").inc();
                return Response::json(
                    429,
                    format!("{{\"error\":\"rate limited\",\"tenant\":{}}}", json_str(tenant)),
                )
                .header("Retry-After", &retry_after_secs.to_string());
            }
        }
    }
    let response = predict(req, registry, &entry, tenant);
    if let Some(limiter) = registry.limiter() {
        limiter.finish(tenant);
    }
    response
}

fn predict<M, S>(
    req: &Request,
    registry: &ModelRegistry<M, S>,
    entry: &ModelEntry<M, S>,
    tenant: &str,
) -> Response
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    // A valid client-supplied ID (exactly 32 lowercase hex digits) is an
    // explicit opt-in: it forces sampling so an upstream hop's decision
    // propagates. Otherwise head sampling decides and a fresh ID is minted.
    // A malformed or oversized header is simply ignored — the request
    // itself always proceeds.
    let client_id = req.header(TRACE_HEADER).and_then(TraceId::parse);
    if client_id.is_some() || trace::should_sample() {
        trace::begin(client_id.unwrap_or_else(trace::mint));
    }
    let response = predict_inner(req, registry, entry, tenant);
    // While a trace is active, echo its ID and report this hop's stage
    // breakdown so an upstream router can merge it. The server's connection
    // loop appends the `write` stage and publishes the record after flush.
    if let Some(id) = trace::active_id() {
        let mut response = response.header(TRACE_HEADER, &id.to_string());
        if let Some(stages) = trace::stages_header() {
            response = response.header(STAGES_HEADER, &stages);
        }
        response
    } else {
        response
    }
}

fn predict_inner<M, S>(
    req: &Request,
    registry: &ModelRegistry<M, S>,
    entry: &ModelEntry<M, S>,
    tenant: &str,
) -> Response
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    let (features, truths) = match parse_predict_body(req.body) {
        Ok(parsed) => parsed,
        Err(msg) => return json_error(422, &msg),
    };
    // Cache protocol (module docs): a truth-free request may be answered
    // from the cache, keyed by the raw body signature at the generation
    // read here; a miss is inserted under the generation its batch stamped.
    let lookup = (truths.is_none() && registry.cache.enabled())
        .then(|| (fnv1a64(req.body), entry.engine().generation()));
    if let Some((signature, generation)) = lookup {
        if let Some(body) = registry.cache.get(&entry.name, signature, generation) {
            entry.cache_hits.fetch_add(1, Ordering::Relaxed);
            ce_telemetry::counter("tenant.cache_hit").inc();
            return Response::json(200, body.as_ref());
        }
        entry.cache_misses.fetch_add(1, Ordering::Relaxed);
        ce_telemetry::counter("tenant.cache_miss").inc();
    }
    let (results, stamps): (BatchResults, Vec<BatchStamp>) =
        match entry.batcher.submit_all(features.clone()) {
            Ok(served) => served.into_iter().unzip(),
            Err(BatchError::QueueFull) => {
                trace::event("shed", "admission queue full");
                if let Some(limiter) = registry.limiter() {
                    limiter.note_overflow(tenant);
                }
                return json_error(503, "admission queue full")
                    .header("Retry-After", registry.overflow_retry_hint(tenant));
            }
            Err(BatchError::Shutdown) => {
                return json_error(503, "server draining").header("Retry-After", "1");
            }
            Err(BatchError::Failed) => return json_error(500, "batch execution failed"),
        };
    // Prequential feedback strictly after the predictions: the intervals
    // above were served from pre-feedback state, like the offline loops.
    if let Some(truths) = &truths {
        let truth_id = req.header(TRUTH_HEADER).and_then(parse_truth_id);
        if entry.engine().observe_all(&features, truths, truth_id) {
            entry.remember(&features, truths);
        }
    }
    // `mode` comes from the state the intervals were computed in (a request
    // may span two batches; the last one labels it).
    let mode = stamps.last().map_or_else(|| entry.engine().mode(), |s| s.mode);
    let body = render_predict_body(mode, &results);
    let generation = stamps.first().and_then(|s| s.generation);
    if let (Some((signature, _)), Some(generation)) = (lookup, generation) {
        if stamps.iter().all(|s| s.generation == Some(generation))
            && results.iter().all(|r| r.is_ok())
        {
            registry.cache.insert(&entry.name, signature, generation, &body);
        }
    }
    Response::json(200, body)
}

/// `POST /v1/observe[/{model}]`: calibration feedback without predictions
/// — the truth replication target (DESIGN.md §14). Same body as predict
/// but `truths` is mandatory; answers `{"observed":N,"deduped":bool}`.
/// Not rate limited: replicated truths come from the router's fan-out,
/// and shedding them would skew replica calibration.
fn observe_post<M, S>(req: &Request, registry: &ModelRegistry<M, S>, model: &str) -> Response
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    let Some(entry) = registry.entry(model) else {
        return unknown_model(model);
    };
    let (features, truths) = match parse_predict_body(req.body) {
        Ok(parsed) => parsed,
        Err(msg) => return json_error(422, &msg),
    };
    let Some(truths) = truths else {
        return json_error(422, "`truths` is required on /v1/observe");
    };
    let truth_id = req.header(TRUTH_HEADER).and_then(parse_truth_id);
    let fresh = entry.engine().observe_all(&features, &truths, truth_id);
    if fresh {
        entry.remember(&features, &truths);
    }
    let observed = if fresh { truths.len() } else { 0 };
    Response::json(200, format!("{{\"observed\":{observed},\"deduped\":{}}}", !fresh))
}

/// `POST /v1/admin/models/{model}`: the hot-reload endpoint. The body is
/// a raw encoded checkpoint (the exact bytes `encode_checkpoint`
/// produces / the durable checkpoint files contain).
fn admin_reload<M, S>(req: &Request, registry: &ModelRegistry<M, S>, model: &str) -> Response
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    match registry.reload(model, req.body) {
        Ok(report) if report.promoted => Response::json(200, report.to_json()),
        Ok(report) => Response::json(409, report.to_json()),
        Err(ReloadError::UnknownModel) => unknown_model(model),
        Err(ReloadError::NoFactory) => {
            json_error(501, "hot reload is not enabled (no engine factory)")
        }
        Err(ReloadError::BadCheckpoint(e)) => json_error(422, &format!("bad checkpoint: {e}")),
        Err(ReloadError::BuildFailed(e)) => {
            json_error(500, &format!("engine build failed: {e}"))
        }
    }
}

/// `GET /metrics`: the global registry in Prometheus text form, then the
/// `model="…"`-labeled per-model series and the `tenant="…"`-labeled
/// fairness series appended (both hand-rendered — the `ce-telemetry`
/// registry is label-free by design, mirroring how the cluster router
/// injects `shard="…"`).
fn metrics<M, S>(registry: &ModelRegistry<M, S>, probe: &OnceLock<ServerStatsProbe>) -> Response
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    // Legacy single-engine gauges track the default model (bare-endpoint
    // compatibility); per-model truth lives in the labeled series below.
    if let Some(entry) = registry.entry(DEFAULT_MODEL) {
        entry.engine().publish_metrics();
    } else if let Some(name) = registry.names().first() {
        if let Some(entry) = registry.entry(name) {
            entry.engine().publish_metrics();
        }
    }
    if ce_telemetry::enabled() {
        let stats = registry.batcher_stats_sum();
        ce_telemetry::gauge("serve.batch_admitted").set(stats.admitted as f64);
        ce_telemetry::gauge("serve.batch_shed").set(stats.shed as f64);
        ce_telemetry::gauge("serve.batches").set(stats.batches as f64);
        ce_telemetry::gauge("serve.max_batch").set(stats.max_batch_seen as f64);
        let cache = registry.cache.stats();
        ce_telemetry::gauge("tenant.cache_entries").set(cache.entries as f64);
        ce_telemetry::gauge("tenant.cache_evictions").set(cache.evictions as f64);
        ce_telemetry::gauge("tenant.cache_invalidations").set(cache.invalidations as f64);
    }
    if let Some(probe) = probe.get() {
        publish_server_stats(&probe.stats());
    }
    let mut body = ce_telemetry::global().to_prometheus();
    body.push_str(&model_metrics_text(registry));
    body.push_str(&tenant_metrics_text(registry));
    Response::new(200)
        .header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        .body(body)
}

/// Per-model metric series with `model="…"` labels, metric-major so each
/// `# TYPE` header appears once.
fn model_metrics_text<M, S>(registry: &ModelRegistry<M, S>) -> String
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    let entries: Vec<Arc<ModelEntry<M, S>>> = registry.models_read().values().cloned().collect();
    if entries.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let mut series = |name: &str, values: &[(String, f64)]| {
        out.push_str(&format!("# TYPE cardest_{name} gauge\n"));
        for (label, value) in values {
            out.push_str(&format!("cardest_{name}{{model=\"{label}\"}} {value}\n"));
        }
    };
    let labels: Vec<String> = entries
        .iter()
        .map(|e| ce_telemetry::escape_label_value(&e.name))
        .collect();
    let collect = |f: &dyn Fn(&ModelEntry<M, S>) -> f64| -> Vec<(String, f64)> {
        entries.iter().zip(&labels).map(|(e, l)| (l.clone(), f(e))).collect()
    };
    series("model_observations", &collect(&|e| e.engine().observations() as f64));
    series("model_generation", &collect(&|e| e.engine().generation() as f64));
    series("model_reloads", &collect(&|e| e.reloads() as f64));
    series("model_reload_rejects", &collect(&|e| e.reload_rejects() as f64));
    series("model_cache_hits", &collect(&|e| e.cache_hits.load(Ordering::Relaxed) as f64));
    series("model_cache_misses", &collect(&|e| e.cache_misses.load(Ordering::Relaxed) as f64));
    series("model_replay_len", &collect(&|e| e.replay_len() as f64));
    series("model_batch_admitted", &collect(&|e| e.batcher.stats().admitted as f64));
    series("model_batch_shed", &collect(&|e| e.batcher.stats().shed as f64));
    series(
        "model_heal_state",
        &collect(&|e| match e.engine().heal_state() {
            HealState::Healthy => 0.0,
            HealState::Recalibrating => 1.0,
            HealState::RolledBack => 2.0,
        }),
    );
    out
}

/// Per-tenant fairness series with `tenant="…"` labels: queue depth
/// (gauge), admitted/shed/overflow-shed (counters as gauges — the limiter
/// owns the truth).
fn tenant_metrics_text<M, S>(registry: &ModelRegistry<M, S>) -> String
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    let Some(limiter) = registry.limiter() else {
        return String::new();
    };
    let snapshot = limiter.snapshot();
    if snapshot.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let mut series = |name: &str, value: &dyn Fn(&ce_server::TenantStats) -> f64| {
        out.push_str(&format!("# TYPE cardest_{name} gauge\n"));
        for stats in &snapshot {
            let label = ce_telemetry::escape_label_value(&stats.tenant);
            out.push_str(&format!("cardest_{name}{{tenant=\"{label}\"}} {}\n", value(stats)));
        }
    };
    series("tenant_queue_depth", &|s| s.in_flight as f64);
    series("tenant_admitted", &|s| s.admitted as f64);
    series("tenant_rate_shed", &|s| s.shed as f64);
    series("tenant_overflow_shed", &|s| s.overflow_shed as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformal::{
        encode_checkpoint, AbsoluteResidual, BreakerState, HealConfig, PiServiceConfig,
        SelfHealingService, ServiceMode,
    };
    use crate::serve::{start_server, HttpServeConfig};
    use ce_server::{Headers, HttpClient};

    /// fn pointers give every test engine one nameable model type.
    type Model = fn(&[f32]) -> f64;

    fn ident(f: &[f32]) -> f64 {
        f[0] as f64
    }

    /// Deterministic calibration set: y = x + structured noise in [-1, 1].
    fn calib(n: usize) -> (Vec<Vec<f32>>, Vec<f64>) {
        (0..n)
            .map(|i| {
                let x = i as f32;
                let noise = ((i * 37) % 21) as f64 / 10.0 - 1.0;
                (vec![x], f64::from(x) + noise)
            })
            .unzip()
    }

    fn healing(cx: &[Vec<f32>], cy: &[f64]) -> SelfHealingService<Model, AbsoluteResidual> {
        healing_with(ident as Model, cx, cy)
    }

    fn healing_with<M>(
        model: M,
        cx: &[Vec<f32>],
        cy: &[f64],
    ) -> SelfHealingService<M, AbsoluteResidual>
    where
        M: Regressor + Clone + Send + Sync,
    {
        SelfHealingService::new(
            model,
            AbsoluteResidual,
            cx,
            cy,
            PiServiceConfig { window: 100, ..Default::default() },
            HealConfig { min_history: 60, cooldown_base: 100, ..Default::default() },
        )
    }

    fn engine() -> ServeEngine<Model, AbsoluteResidual> {
        let (cx, cy) = calib(200);
        ServeEngine::new(healing(&cx, &cy), vec![], 1)
    }

    fn factory() -> EngineFactory<Model, AbsoluteResidual> {
        Box::new(|checkpoint: Checkpoint| {
            let breakers = checkpoint.breakers.clone();
            let svc =
                SelfHealingService::restore(ident as Model, AbsoluteResidual, checkpoint)?;
            let engine = ServeEngine::new(svc, vec![], 1);
            engine.restore_breakers(&breakers)?;
            Ok(engine)
        })
    }

    fn tuning() -> RegistryTuning {
        RegistryTuning { cache_entries: 64, min_replay: 4, ..RegistryTuning::default() }
    }

    /// An in-process request against `route_registry` (no sockets): the
    /// deterministic harness for the cache/race tests.
    fn post<M>(
        registry: &ModelRegistry<M, AbsoluteResidual>,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Response
    where
        M: Regressor + Clone + Send + Sync + 'static,
    {
        let req = Request {
            method: "POST",
            target,
            http11: true,
            headers: Headers::from_pairs(headers),
            body,
        };
        let draining = AtomicBool::new(false);
        let probe = OnceLock::new();
        route_registry(&req, registry, &draining, &probe)
    }

    /// What `engine` renders for `queries` right now, computed in process.
    fn fresh_render<M>(engine: &ServeEngine<M, AbsoluteResidual>, queries: &[Vec<f32>]) -> String
    where
        M: Regressor + Clone + Send + Sync + 'static,
    {
        let (results, stamp) = engine.predict_batch_stamped(queries);
        render_predict_body(stamp.mode, &results)
    }

    /// A model gate: once armed, the next forward parks until released.
    #[derive(Default)]
    struct Gate {
        state: Mutex<GateState>,
        wake: std::sync::Condvar,
    }

    #[derive(Default)]
    struct GateState {
        armed: bool,
        parked: bool,
        released: bool,
    }

    impl Gate {
        fn wait_while(&self, blocked: impl Fn(&GateState) -> bool) {
            let state = self.state.lock().unwrap();
            drop(self.wake.wait_while(state, |st| blocked(st)).unwrap());
        }

        /// Called from the model's forward.
        fn pass(&self) {
            let mut state = self.state.lock().unwrap();
            if state.armed {
                state.armed = false;
                state.parked = true;
                drop(state);
                self.wake.notify_all();
                self.wait_while(|st| !st.released);
            }
        }

        fn arm(&self) {
            self.state.lock().unwrap().armed = true;
        }

        fn release(&self) {
            self.state.lock().unwrap().released = true;
            self.wake.notify_all();
        }
    }

    #[test]
    fn probe_endpoints_answer_405_to_post() {
        let registry: ModelRegistry<Model, AbsoluteResidual> = ModelRegistry::new(tuning());
        registry.register(DEFAULT_MODEL, engine());
        for path in ["/healthz", "/readyz", "/metrics", "/debug/trace"] {
            assert_eq!(post(&registry, path, &[], b"").status, 405, "POST {path}");
        }
        registry.shutdown_batchers();
    }

    #[test]
    fn error_bodies_escape_control_characters() {
        let registry: ModelRegistry<Model, AbsoluteResidual> = ModelRegistry::new(tuning());
        registry.register(DEFAULT_MODEL, engine());
        // The JSON escape `\n` decodes to a raw newline inside the feature
        // string, and the 422 message quotes that string back.
        let resp = post(&registry, "/v1/predict", &[], br#"{"features":[["a\nb"]]}"#);
        assert_eq!(resp.status, 422);
        // The vendored parser accepts raw control characters, so parsing
        // alone would not catch them: check the bytes.
        assert!(
            resp.body.iter().all(|&b| b >= 0x20),
            "raw control byte in {:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let parsed = serde_json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let serde_json::Value::Str(error) = parsed.field("error").unwrap() else {
            panic!("`error` is not a string: {parsed:?}");
        };
        assert!(error.contains("a\nb"), "{error:?}");
        registry.shutdown_batchers();
    }

    #[test]
    fn predict_parked_across_a_reload_is_labeled_and_cached_by_its_own_engine() {
        let gate = Arc::new(Gate::default());
        let model = {
            let gate = Arc::clone(&gate);
            move |f: &[f32]| {
                gate.pass();
                f64::from(f[0])
            }
        };
        let (cx, cy) = calib(200);
        let e1 = ServeEngine::new(healing_with(model.clone(), &cx, &cy), vec![], 1);
        // E2 is driven into `Drifted` by ever larger residuals.
        let e2 = ServeEngine::new(healing_with(model, &cx, &cy), vec![], 1);
        for i in 0..400 {
            if e2.mode() == ServiceMode::Drifted {
                break;
            }
            let x = (i % 200) as f32;
            e2.observe(&[x], f64::from(x) + 2.0 + f64::from(i));
        }
        assert_eq!(e2.mode(), ServiceMode::Drifted);
        let e2 = Mutex::new(Some(e2));
        let factory: EngineFactory<_, AbsoluteResidual> =
            Box::new(move |_| Ok(e2.lock().unwrap().take().expect("one reload")));
        // No truths are posted, so `min_replay` stays unmet and the swap
        // skips validation (which would otherwise wait on E1's chain).
        let registry = Arc::new(ModelRegistry::new(tuning()).with_factory(factory));
        let entry = registry.register(DEFAULT_MODEL, e1);
        let e1 = entry.engine();
        assert_eq!(e1.mode(), ServiceMode::Stable);
        let queries = [vec![21.0f32]];
        let body = br#"{"features":[[21.0]]}"#;
        let e1_body = fresh_render(&e1, &queries);
        let checkpoint = encode_checkpoint(&e1.checkpoint());

        // Park a cache-miss predict inside E1's forward, then swap in E2.
        gate.arm();
        let parked = {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || post(&registry, "/v1/predict", &[], body))
        };
        gate.wait_while(|st| !st.parked);
        assert_eq!(registry.cache().stats().misses, 1, "the parked predict missed");
        let report = registry.reload(DEFAULT_MODEL, &checkpoint).expect("reload");
        assert!(report.promoted && !report.validated);
        gate.release();

        let parked = parked.join().expect("parked predict");
        assert_eq!(parked.status, 200);
        let parked = String::from_utf8_lossy(&parked.body).into_owned();
        assert!(parked.contains("\"mode\":\"stable\""), "{parked}");
        assert_eq!(parked, e1_body, "the parked response is E1's, mode included");

        let e2 = entry.engine();
        assert!(!Arc::ptr_eq(&e1, &e2));
        let misses = registry.cache().stats().misses;
        let next = post(&registry, "/v1/predict", &[], body);
        assert_eq!(registry.cache().stats().misses, misses + 1, "E1's body is not served");
        let e2_body = fresh_render(&e2, &queries);
        assert_ne!(e2_body, e1_body);
        assert_eq!(String::from_utf8_lossy(&next.body), e2_body);
        let hits = registry.cache().stats().hits;
        let again = post(&registry, "/v1/predict", &[], body);
        assert_eq!(registry.cache().stats().hits, hits + 1);
        assert_eq!(String::from_utf8_lossy(&again.body), e2_body);
        registry.shutdown_batchers();
    }

    #[test]
    fn nothing_is_cached_while_a_breaker_is_open() {
        // The primary returns NaN on the next `fails` forwards, then recovers.
        let fails = Arc::new(AtomicU64::new(0));
        let model = {
            let fails = Arc::clone(&fails);
            move |f: &[f32]| {
                let failing =
                    fails.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
                if failing.is_ok() {
                    f64::NAN
                } else {
                    f64::from(f[0])
                }
            }
        };
        let (cx, cy) = calib(200);
        let registry = ModelRegistry::new(tuning());
        let engine = ServeEngine::new(healing_with(model, &cx, &cy), vec![], 1);
        let entry = registry.register(DEFAULT_MODEL, engine);
        let primary_state = || entry.engine().checkpoint().breakers[0].state;
        // Five queries fail on the batched forward and again on the serial
        // walk: five consecutive failures trip the primary's breaker.
        fails.store(10, Ordering::SeqCst);
        let five = br#"{"features":[[1.0],[2.0],[3.0],[4.0],[5.0]]}"#;
        let trip = post(&registry, "/v1/predict", &[], five);
        assert_eq!(trip.status, 200);
        assert_eq!(primary_state(), BreakerState::Open);
        assert_eq!(registry.cache().stats().entries, 0);

        // While the breaker is open the floor answers, and nothing is cached.
        let body = br#"{"features":[[7.0]]}"#;
        for _ in 0..2 {
            let open = post(&registry, "/v1/predict", &[], body);
            assert!(String::from_utf8_lossy(&open.body).contains("inf"));
            assert_eq!(registry.cache().stats().entries, 0, "no insert while Open");
        }
        // Count the cooldown down without a breaker transition.
        entry.engine().predict_batch(&vec![vec![8.0]; 60]);
        assert_eq!(primary_state(), BreakerState::Open);

        // The cooldown has passed and the primary has recovered: the served
        // body is a fresh prediction, not the cached fallback floor.
        let recovered = post(&registry, "/v1/predict", &[], body);
        assert_eq!(primary_state(), BreakerState::Closed);
        let fresh = fresh_render(&entry.engine(), &[vec![7.0]]);
        assert!(!fresh.contains("inf"), "{fresh}");
        assert_eq!(String::from_utf8_lossy(&recovered.body), fresh);
        // With every breaker closed again, the body is cached and hit.
        post(&registry, "/v1/predict", &[], body);
        assert_eq!(registry.cache().stats().entries, 1);
        let hits = registry.cache().stats().hits;
        let hit = post(&registry, "/v1/predict", &[], body);
        assert_eq!(registry.cache().stats().hits, hits + 1);
        assert_eq!(String::from_utf8_lossy(&hit.body), fresh);
        registry.shutdown_batchers();
    }

    #[test]
    fn bare_predict_aliases_default_and_unknown_models_404() {
        let handle =
            start_server(Arc::new(engine()), "127.0.0.1:0", HttpServeConfig::default())
                .expect("bind");
        let mut client = HttpClient::connect(handle.local_addr()).unwrap();
        let body = br#"{"features":[[7.0],[42.0]]}"#;
        let bare = client.post("/v1/predict", body).unwrap();
        let named = client.post("/v1/predict/default", body).unwrap();
        assert_eq!(bare.status, 200);
        assert_eq!(named.status, 200);
        assert_eq!(bare.body, named.body, "bare predict must alias `default`, byte for byte");
        let missing = client.post("/v1/predict/nope", body).unwrap();
        assert_eq!(missing.status, 404);
        assert!(String::from_utf8_lossy(&missing.body).contains("no such model"));
        assert_eq!(client.post("/v1/observe/nope", body).unwrap().status, 404);
        // Named routes reject wrong methods without falling through to 404.
        assert_eq!(client.get("/v1/predict/default").unwrap().status, 405);
        // Reload against a factory-less registry is explicit, not a 404.
        assert_eq!(client.post("/v1/admin/models/default", b"junk").unwrap().status, 501);
        let metrics = client.get("/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        let text = String::from_utf8_lossy(&metrics.body).into_owned();
        assert!(
            text.contains("cardest_model_observations{model=\"default\"}"),
            "per-model labeled series must be exposed"
        );
        assert!(text.contains("cardest_model_generation{model=\"default\"}"));
        handle.drain();
    }

    #[test]
    fn registry_serves_models_independently() {
        let registry: ModelRegistry<Model, AbsoluteResidual> = ModelRegistry::new(tuning());
        let (cx, cy) = calib(200);
        registry.register("a", ServeEngine::new(healing(&cx, &cy), vec![], 1));
        // Model "b" calibrates on a shifted stream: wider intervals.
        let wide: Vec<f64> = cy.iter().map(|y| y * 3.0).collect();
        registry.register("b", ServeEngine::new(healing(&cx, &wide), vec![], 1));
        assert_eq!(registry.names(), vec!["a".to_string(), "b".to_string()]);
        let body = br#"{"features":[[50.0]]}"#;
        let a = post(&registry, "/v1/predict/a", &[], body);
        let b = post(&registry, "/v1/predict/b", &[], body);
        assert_eq!(a.status, 200);
        assert_eq!(b.status, 200);
        assert_ne!(a.body, b.body, "differently calibrated models must answer differently");
        // Observing into "a" never perturbs "b".
        let before = post(&registry, "/v1/predict/b", &[], body);
        let obs = post(
            &registry,
            "/v1/observe/a",
            &[],
            br#"{"features":[[50.0]],"truths":[50.5]}"#,
        );
        assert_eq!(obs.status, 200);
        let after = post(&registry, "/v1/predict/b", &[], body);
        assert_eq!(before.body, after.body, "tenant isolation: a's truths must not move b");
        registry.shutdown_batchers();
    }

    #[test]
    fn cache_hits_are_byte_identical_and_any_state_change_invalidates() {
        let registry: ModelRegistry<Model, AbsoluteResidual> = ModelRegistry::new(tuning());
        registry.register(DEFAULT_MODEL, engine());
        let body = br#"{"features":[[3.0],[9.0]]}"#;
        let first = post(&registry, "/v1/predict", &[], body);
        assert_eq!(first.status, 200);
        let baseline = registry.cache().stats();
        assert_eq!(baseline.hits, 0);
        let second = post(&registry, "/v1/predict", &[], body);
        assert_eq!(second.body, first.body, "a cache hit must be byte-identical");
        assert_eq!(registry.cache().stats().hits, baseline.hits + 1);
        // A truth-carrying request bypasses the cache entirely…
        let hits_before = registry.cache().stats().hits;
        let with_truths = post(
            &registry,
            "/v1/predict",
            &[],
            br#"{"features":[[3.0],[9.0]],"truths":[3.5,9.5]}"#,
        );
        assert_eq!(with_truths.status, 200);
        assert_eq!(registry.cache().stats().hits, hits_before, "truths must bypass the cache");
        // …and, being an observation, it moved the serving generation: the old
        // entry is unreachable, the next predict is a miss at the new key.
        let misses_before = registry.cache().stats().misses;
        let third = post(&registry, "/v1/predict", &[], body);
        assert_eq!(third.status, 200);
        assert_eq!(
            registry.cache().stats().misses,
            misses_before + 1,
            "an observation must invalidate cached intervals"
        );
        registry.shutdown_batchers();
    }

    #[test]
    fn reload_validates_promotes_and_rolls_back() {
        let registry: ModelRegistry<Model, AbsoluteResidual> =
            ModelRegistry::new(tuning()).with_factory(factory());
        let entry = registry.register(DEFAULT_MODEL, engine());
        // Feed the replay buffer through the observe path (tight truths:
        // y = x + noise/2, well inside the live threshold).
        for i in 0..8 {
            let x = 30 + i * 3;
            let noise = (f64::from(i) / 7.0 - 0.5) * 0.5;
            let body =
                format!("{{\"features\":[[{x}.0]],\"truths\":[{}]}}", f64::from(x) + noise);
            assert_eq!(post(&registry, "/v1/observe", &[], body.as_bytes()).status, 200);
        }
        assert!(entry.replay_len() >= 4);
        // Prime the cache so promotion provably invalidates it.
        let probe_body = br#"{"features":[[12.0]]}"#;
        let before_reload = post(&registry, "/v1/predict", &[], probe_body);
        assert_eq!(before_reload.status, 200);
        let gen_before = entry.engine().generation();
        // A healthy checkpoint (the live engine's own state) promotes.
        let good = encode_checkpoint(&entry.engine().checkpoint());
        let resp = post(&registry, "/v1/admin/models/default", &[], &good);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        assert!(text.contains("\"promoted\":true"));
        assert!(text.contains("\"validated\":true"));
        assert_eq!(entry.reloads(), 1);
        assert_ne!(entry.engine().generation(), gen_before, "a swap must change the generation");
        assert_eq!(
            String::from_utf8_lossy(&post(&registry, "/v1/predict", &[], probe_body).body),
            fresh_render(&entry.engine(), &[vec![12.0]]),
            "the post-swap body must equal a fresh render"
        );
        assert!(
            registry.cache().stats().invalidations > 0,
            "promotion must invalidate the model's cached intervals"
        );
        // A checkpoint calibrated on zero residuals yields near-degenerate
        // intervals: shadow coverage collapses, validation rejects, and the
        // old engine keeps serving.
        let (cx, _) = calib(200);
        let exact: Vec<f64> = cx.iter().map(|x| f64::from(x[0])).collect();
        let bad_engine = ServeEngine::new(healing(&cx, &exact), vec![], 1);
        let bad = encode_checkpoint(&bad_engine.checkpoint());
        let live_before = entry.engine();
        let resp = post(&registry, "/v1/admin/models/default", &[], &bad);
        assert_eq!(resp.status, 409, "{}", String::from_utf8_lossy(&resp.body));
        assert!(String::from_utf8_lossy(&resp.body).contains("\"promoted\":false"));
        assert_eq!(entry.reload_rejects(), 1);
        assert!(
            Arc::ptr_eq(&live_before, &entry.engine()),
            "a rejected reload must leave the live engine in place"
        );
        // Garbage bytes are a 422, not a crash or a swap.
        assert_eq!(post(&registry, "/v1/admin/models/default", &[], b"junk").status, 422);
        assert_eq!(entry.reloads(), 1);
        registry.shutdown_batchers();
    }

    #[test]
    fn concurrent_predicts_survive_reloads_with_fresh_bytes() {
        let registry: Arc<ModelRegistry<Model, AbsoluteResidual>> =
            Arc::new(ModelRegistry::new(tuning()).with_factory(factory()));
        let entry = registry.register(DEFAULT_MODEL, engine());
        let checkpoint = encode_checkpoint(&entry.engine().checkpoint());
        let gen_before = entry.engine().generation();
        let stop = Arc::new(AtomicBool::new(false));
        let started = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..3)
            .map(|w| {
                let registry = Arc::clone(&registry);
                let stop = Arc::clone(&stop);
                let started = Arc::clone(&started);
                std::thread::spawn(move || {
                    let body = format!("{{\"features\":[[{}.0]]}}", 5 + w);
                    let mut served = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let resp = post(&registry, "/v1/predict", &[], body.as_bytes());
                        assert_eq!(resp.status, 200, "a reload must never drop a request");
                        served += 1;
                        if served == 1 {
                            started.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    served
                })
            })
            .collect();
        // Every worker is mid-stream before the churn starts, so each one
        // provably straddles at least one swap.
        while started.load(Ordering::Relaxed) < 3 {
            std::thread::yield_now();
        }
        // Hot-reload the same checkpoint repeatedly under fire (replay is
        // below min_replay here, so swaps are immediate — maximum churn).
        for _ in 0..20 {
            let report = registry.reload(DEFAULT_MODEL, &checkpoint).expect("reload");
            assert!(report.promoted);
        }
        stop.store(true, Ordering::Relaxed);
        for worker in workers {
            assert!(worker.join().expect("worker must not panic") > 0);
        }
        assert_eq!(entry.reloads(), 20);
        assert_ne!(entry.engine().generation(), gen_before, "swaps must change the generation");
        // Post-churn: a served (possibly cached) response must match a
        // fresh render from the live engine — no stale bytes survive.
        let body = br#"{"features":[[5.0]]}"#;
        let served = post(&registry, "/v1/predict", &[], body);
        let fresh = fresh_render(&entry.engine(), &[vec![5.0]]);
        assert_eq!(String::from_utf8_lossy(&served.body), fresh);
        registry.shutdown_batchers();
    }

    #[test]
    fn aggressor_tenant_is_rate_limited_while_victim_is_served() {
        let registry: ModelRegistry<Model, AbsoluteResidual> = ModelRegistry::new(tuning())
            .with_limiter(RateLimit::new(1.0, 2.0).expect("valid limit"));
        registry.register(DEFAULT_MODEL, engine());
        let body = br#"{"features":[[4.0]]}"#;
        let agg = [(TENANT_HEADER, "aggressor")];
        assert_eq!(post(&registry, "/v1/predict", &agg, body).status, 200);
        assert_eq!(post(&registry, "/v1/predict", &agg, body).status, 200);
        let shed = post(&registry, "/v1/predict", &agg, body);
        assert_eq!(shed.status, 429, "the burst is exhausted");
        let retry_after = shed
            .headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("Retry-After"))
            .map(|(_, v)| v.clone())
            .expect("429 must carry Retry-After");
        assert!(retry_after.parse::<u64>().expect("integer seconds") >= 1);
        assert!(String::from_utf8_lossy(&shed.body).contains("aggressor"));
        // The victim's bucket is untouched.
        let victim = [(TENANT_HEADER, "victim")];
        assert_eq!(post(&registry, "/v1/predict", &victim, body).status, 200);
        // Observes are exempt: replicated truths must never be shed.
        let obs_body = br#"{"features":[[4.0]],"truths":[4.2]}"#;
        assert_eq!(post(&registry, "/v1/observe", &agg, obs_body).status, 200);
        // The fairness series expose both tenants.
        let text = tenant_metrics_text(&registry);
        assert!(text.contains("cardest_tenant_rate_shed{tenant=\"aggressor\"} 1"));
        assert!(text.contains("cardest_tenant_admitted{tenant=\"victim\"} 1"));
        registry.shutdown_batchers();
    }

    #[test]
    fn overflow_hint_is_longer_for_the_over_budget_tenant() {
        let registry: ModelRegistry<Model, AbsoluteResidual> = ModelRegistry::new(tuning())
            .with_limiter(RateLimit::new(1000.0, 1000.0).expect("valid limit"));
        let limiter = registry.limiter().expect("limiter attached");
        // The hog admits five in-flight requests and never finishes them;
        // the victim holds one.
        for _ in 0..5 {
            assert!(matches!(limiter.admit("hog", 0), Admission::Allowed));
        }
        assert!(matches!(limiter.admit("victim", 0), Admission::Allowed));
        assert_eq!(registry.overflow_retry_hint("hog"), "3");
        assert_eq!(registry.overflow_retry_hint("victim"), "1");
    }

    #[test]
    fn interval_cache_lru_evicts_oldest_and_model_invalidation_is_scoped() {
        let cache = IntervalCache::new(2);
        cache.insert("m", 1, 0, "one");
        cache.insert("m", 2, 0, "two");
        assert_eq!(cache.get("m", 1, 0).as_deref(), Some("one"));
        // Key 2 is now least-recently-used; a third insert evicts it.
        cache.insert("m", 3, 0, "three");
        assert!(cache.get("m", 2, 0).is_none(), "LRU victim");
        assert_eq!(cache.get("m", 1, 0).as_deref(), Some("one"));
        assert_eq!(cache.stats().evictions, 1);
        // A different generation is a different key: no accidental aliasing.
        assert!(cache.get("m", 1, 2).is_none());
        // Invalidation is scoped to the named model.
        cache.insert("other", 9, 0, "kept");
        cache.invalidate_model("m");
        assert!(cache.get("m", 1, 0).is_none());
        assert!(cache.get("m", 3, 0).is_none());
        assert_eq!(cache.get("other", 9, 0).as_deref(), Some("kept"));
        assert!(cache.stats().invalidations >= 1);
        // cap == 0 disables: inserts drop, lookups miss.
        let off = IntervalCache::new(0);
        off.insert("m", 1, 0, "x");
        assert!(off.get("m", 1, 0).is_none());
        assert!(!off.enabled());
    }

    #[test]
    fn width_ratio_guards_degenerate_denominators() {
        let iv = |lo: f64, hi: f64| Ok(PredictionInterval { lo, hi });
        let shadow: BatchResults = vec![iv(0.0, 4.0)];
        let live: BatchResults = vec![iv(0.0, 2.0)];
        assert!((width_ratio(&shadow, &live) - 2.0).abs() < 1e-12);
        // All-infinite live widths: a finite candidate cannot be judged
        // against them, and a *zero*-width candidate is trivially fine.
        let inf_live: BatchResults = vec![iv(f64::NEG_INFINITY, f64::INFINITY)];
        let zero: BatchResults = vec![iv(1.0, 1.0)];
        assert_eq!(width_ratio(&zero, &inf_live), 1.0);
        assert_eq!(width_ratio(&shadow, &inf_live), f64::INFINITY);
        // An all-error shadow can never promote.
        let errs: BatchResults = vec![Err(CardEstError::InvalidParameter("x"))];
        assert_eq!(width_ratio(&errs, &live), f64::INFINITY);
    }
}
