//! `tenant`: the multi-tenant serving drills — hot reload under live
//! traffic, per-tenant fairness, and the interval-cache bit-audit.
//!
//! Three operational claims about the `cardest::tenant` registry stack
//! (DESIGN.md §15) are checked in one run, each behind a CI-greppable
//! gate in `BENCH_tenant.json`:
//!
//! 1. **`reload_zero_loss`** — while a fleet of keep-alive clients streams
//!    predicts, `POST /v1/admin/models/default` alternates promotable and
//!    rejectable checkpoints. Every in-flight request finishes with `200`
//!    (zero dropped, zero shed), promotions land (`200`), bad candidates
//!    roll back (`409`, old engine keeps serving), and after the churn the
//!    served intervals are *bit-identical* to a cold engine built from the
//!    same checkpoint through the same factory.
//! 2. **`tenant_isolation_held`** — an aggressor tenant hammering the
//!    predict route is capped by its token bucket (JSON `429` +
//!    `Retry-After`, admitted throughput bounded by rate × time + burst)
//!    while a paced victim tenant sees every request answered `200` with a
//!    p99 within 2× its uncontended solo run (5 ms absolute floor for
//!    noisy CI runners). An admission-queue overflow is also shed with
//!    `503` + a tenant-aware `Retry-After`.
//! 3. **`cache_hit_identical`** — ≥192 queries are served cold (cache
//!    misses) and then repeatedly hot (hits): every hot body is
//!    byte-identical to its cold counterpart on the wire, the hit counters
//!    advance, and the hit path is faster than the miss path.
//!
//! The routing contract rides along: named routes serve per-model, the
//! bare route aliases `default` byte-for-byte, unknown models answer
//! `404`, and `/metrics` carries `model="…"` / `tenant="…"` series.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cardest::conformal::{
    decode_checkpoint, encode_checkpoint, AbsoluteResidual, CardEstError, Checkpoint, HealConfig,
    OnlineConformal, PiEstimator, PiServiceConfig, Regressor, SelfHealingService,
};
use cardest::estimators::{AviModel, Mscn};
use cardest::pipeline::train_mscn;
use cardest::serve::{HttpServeConfig, ServeEngine};
use cardest::server::{BatcherConfig, ClientResponse, HttpClient, RateLimit, TENANT_HEADER};
use cardest::tenant::{
    start_registry_server, ModelRegistry, RegistryTuning, DEFAULT_MODEL,
};

use crate::report::ExperimentRecord;
use crate::scale::Scale;

use super::net::{parse_intervals, percentile, predict_body};
use super::single_table::{sel_floor, standard_bench, ALPHA};

/// One registered engine with the MSCN primary and AVI fallback.
type Engine = ServeEngine<Mscn, AbsoluteResidual>;

/// Replay pairs posted through `/v1/observe/default` before the reload
/// drill, so candidate validation actually runs (≥ `min_replay`).
const REPLAY_SEED: usize = 64;

/// Keep-alive clients streaming predicts through the reload churn.
const LIVE_CLIENTS: usize = 3;

/// Minimum predicts each live client must land (they keep going until the
/// churn ends, so the real count is higher).
const LIVE_MIN_REQUESTS: usize = 40;

/// Queries per live-traffic request body.
const LIVE_BATCH: usize = 8;

/// Admin reloads fired during the churn (alternating good/bad).
const RELOADS: usize = 12;

/// Queries bit-audited against the cold-started engine after the churn.
const SWAP_AUDIT_QUERIES: usize = 96;

/// Queries per post-swap audit request (distinct from every other phase's
/// chunk size, so request bodies never collide across phases).
const SWAP_AUDIT_CHUNK: usize = 16;

/// Queries in the cache drill (the ISSUE floor is 192).
const CACHE_QUERIES: usize = 192;

/// Queries per cache-drill request body.
const CACHE_CHUNK: usize = 24;

/// Hot passes over the cached set; the fastest is the hit-path time.
const CACHE_HOT_PASSES: usize = 3;

/// Aggressor token bucket: sustained requests/second and burst.
const TENANT_RATE: f64 = 400.0;
const TENANT_BURST: f64 = 64.0;

/// Victim pacing: requests and inter-request sleep (≈190 req/s, well
/// under the bucket rate, so the victim never self-sheds).
const VICTIM_REQUESTS: usize = 150;
const VICTIM_PACE: Duration = Duration::from_millis(5);

/// Aggressor attempt cap (a backstop; it stops when the victim finishes).
const AGGRESSOR_CAP: usize = 20_000;

/// Victim p99 ceiling under contention: 2× solo with an absolute floor
/// for noisy shared runners.
const VICTIM_P99_FLOOR_US: f64 = 5_000.0;

/// Admission queue capacity on the fairness server; the overflow probe
/// posts one more query than this in a single request.
const FAIR_QUEUE_CAP: usize = 256;

/// Posts `body` and reconnects when the server caps the keep-alive
/// connection (`Connection: close`), like any well-behaved client.
fn post_keepalive(
    client: &mut HttpClient,
    addr: std::net::SocketAddr,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> ClientResponse {
    let resp = client
        .request("POST", path, headers.iter().copied(), body)
        .expect("POST over keep-alive");
    if resp.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")) {
        *client = HttpClient::connect(addr).expect("reconnect after keep-alive cap");
    }
    resp
}

/// Runs the multi-tenant serving experiment; see the module docs.
pub fn tenant(scale: &Scale) -> Vec<ExperimentRecord> {
    let mut rec = ExperimentRecord::new(
        "tenant",
        "multi-tenant serving: hot reload under fire, per-tenant fairness, \
         interval-cache bit-audit",
    );
    let bench = standard_bench(scale, "dmv");
    let floor = sel_floor(scale.rows);
    let model = train_mscn(&bench.feat, &bench.train, scale.epochs.clamp(1, 10), scale.seed);
    let dims = bench.test.x[0].len();
    let avi = AviModel::build(&bench.table, floor);
    let make_fallbacks = {
        let avi = avi.clone();
        let cx = bench.calib.x.clone();
        let cy = bench.calib.y.clone();
        Arc::new(move || -> Vec<Box<dyn PiEstimator>> {
            vec![Box::new(OnlineConformal::new(
                avi.clone(),
                AbsoluteResidual,
                &cx,
                &cy,
                ALPHA,
            ))]
        })
    };
    // The one deterministic checkpoint→engine recipe, used three ways: as
    // the registry's hot-reload factory, to cold-start the post-swap audit
    // engine, and to stock the fairness server — identical inputs must
    // yield bit-identical serving state.
    let build_engine = {
        let model = model.clone();
        let make_fallbacks = Arc::clone(&make_fallbacks);
        Arc::new(move |ckpt: Checkpoint| -> Result<Engine, CardEstError> {
            let breakers = ckpt.breakers.clone();
            let svc = SelfHealingService::restore(model.clone(), AbsoluteResidual, ckpt)?;
            let engine = Engine::new(svc, make_fallbacks(), dims);
            engine.restore_breakers(&breakers)?;
            Ok(engine)
        })
    };

    // A generous validation epsilon (floor = 1−α−ε = 0.65) keeps the
    // accept/reject contrast deterministic at every scale: a calibrated
    // candidate's replay coverage (~0.9) clears it with huge margin, while
    // the zero-width rollback candidate covers ~nothing. The config rides
    // the checkpoint, so every promoted engine keeps the same floor.
    let heal_cfg = HealConfig { epsilon: 0.25, ..Default::default() };
    let healing = SelfHealingService::new(
        model.clone(),
        AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        PiServiceConfig { alpha: ALPHA, ..Default::default() },
        heal_cfg,
    );
    let registry = Arc::new(
        ModelRegistry::new(RegistryTuning { cache_entries: 512, ..Default::default() })
            .with_factory(Box::new({
                let build_engine = Arc::clone(&build_engine);
                move |ckpt| build_engine(ckpt)
            })),
    );
    registry.register(DEFAULT_MODEL, Engine::new(healing, make_fallbacks(), dims));
    // A second tenant's model at a tighter miscoverage level — its wider
    // intervals prove named routes really address distinct engines.
    let healing_alt = SelfHealingService::new(
        model.clone(),
        AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        PiServiceConfig { alpha: ALPHA / 2.0, ..Default::default() },
        HealConfig::default(),
    );
    registry.register("alt", Engine::new(healing_alt, make_fallbacks(), dims));
    ce_telemetry::set_enabled(true);
    let handle = start_registry_server(
        Arc::clone(&registry),
        "127.0.0.1:0",
        HttpServeConfig::default(),
    )
    .expect("bind registry server");
    let addr = handle.local_addr();
    rec.extra("server_started", 1.0);

    // --- 0. routing contract: named routes, default alias, 404 ----------
    let mut probe = HttpClient::connect(addr).expect("connect probe client");
    let contract_body = predict_body(&bench.test.x[..LIVE_BATCH.min(bench.test.len())], None);
    let bare = probe.post("/v1/predict", &contract_body).expect("bare predict");
    let named = probe.post("/v1/predict/default", &contract_body).expect("named predict");
    let alt = probe.post("/v1/predict/alt", &contract_body).expect("alt predict");
    let missing = probe.post("/v1/predict/nope", &contract_body).expect("unknown model");
    let routes_ok = bare.status == 200
        && named.status == 200
        && bare.body == named.body
        && alt.status == 200
        && alt.body != named.body
        && missing.status == 404;
    assert!(
        routes_ok,
        "routing contract broken: bare {} named {} alias {} alt {} distinct {} unknown {}",
        bare.status,
        named.status,
        bare.body == named.body,
        alt.status,
        alt.body != named.body,
        missing.status
    );
    rec.extra("routes_ok", 1.0);

    // --- 1. hot reload under live traffic --------------------------------
    // Seed the held-back replay buffer through the named observe route so
    // candidate validation has ground truth to check coverage against.
    for chunk in 0..REPLAY_SEED.div_ceil(16) {
        let idx: Vec<usize> =
            (0..16).map(|j| (chunk * 16 + j) % bench.test.len()).collect();
        let xs: Vec<Vec<f32>> = idx.iter().map(|&i| bench.test.x[i].clone()).collect();
        let ys: Vec<f64> = idx.iter().map(|&i| bench.test.y[i]).collect();
        let resp =
            probe.post("/v1/observe/default", &predict_body(&xs, Some(&ys))).expect("observe");
        assert_eq!(resp.status, 200, "replay seed observe failed");
    }
    let entry = registry.entry(DEFAULT_MODEL).expect("default registered");
    assert!(entry.replay_len() >= 32, "replay buffer too small to validate reloads");

    // The promotable candidate: the live engine's own checkpoint (a
    // properly calibrated state the validator must accept). The rollback
    // candidate: a zero-residual calibration — its near-zero-width
    // intervals cover nothing, so the validator must bounce it.
    let good_bytes = encode_checkpoint(&entry.engine().checkpoint());
    let bad_bytes = {
        let cheat_y: Vec<f64> = bench.calib.x.iter().map(|x| model.predict(x)).collect();
        let cheat = SelfHealingService::new(
            model.clone(),
            AbsoluteResidual,
            &bench.calib.x,
            &cheat_y,
            PiServiceConfig { alpha: ALPHA, ..Default::default() },
            heal_cfg,
        );
        encode_checkpoint(&Engine::new(cheat, make_fallbacks(), dims).checkpoint())
    };

    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicUsize::new(0));
    let live_bodies: Arc<Vec<Vec<u8>>> = Arc::new(
        (0..8)
            .map(|b| {
                let xs: Vec<Vec<f32>> = (0..LIVE_BATCH)
                    .map(|j| bench.test.x[(b * LIVE_BATCH + j) % bench.test.len()].clone())
                    .collect();
                predict_body(&xs, None)
            })
            .collect(),
    );
    let workers: Vec<_> = (0..LIVE_CLIENTS)
        .map(|c| {
            let bodies = Arc::clone(&live_bodies);
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect live client");
                let mut sent = 0usize;
                let mut ok = 0usize;
                while sent < LIVE_MIN_REQUESTS || !stop.load(Ordering::Relaxed) {
                    let body = &bodies[(c + sent) % bodies.len()];
                    let resp = post_keepalive(&mut client, addr, "/v1/predict/default", &[], body);
                    sent += 1;
                    if resp.status == 200 && parse_intervals(&resp.body).is_ok() {
                        ok += 1;
                    }
                    if sent == 1 {
                        started.fetch_add(1, Ordering::Relaxed);
                    }
                }
                (sent, ok)
            })
        })
        .collect();
    while started.load(Ordering::Relaxed) < LIVE_CLIENTS {
        std::thread::yield_now();
    }
    let mut admin = HttpClient::connect(addr).expect("connect admin client");
    let mut promoted = 0usize;
    let mut rejected = 0usize;
    for r in 0..RELOADS {
        // Even rounds promote, odd rounds must roll back; the last round is
        // odd, so the engine serving after the churn came from `good_bytes`.
        let (bytes, want) = if r % 2 == 0 { (&good_bytes, 200) } else { (&bad_bytes, 409) };
        let resp = admin
            .request(
                "POST",
                "/v1/admin/models/default",
                [("content-type", "application/octet-stream")],
                bytes,
            )
            .expect("admin reload POST");
        assert_eq!(
            resp.status,
            want,
            "reload round {r}: {}",
            String::from_utf8_lossy(&resp.body)
        );
        if resp.status == 200 {
            promoted += 1;
        } else {
            rejected += 1;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);
    let mut live_requests = 0usize;
    let mut live_ok = 0usize;
    for w in workers {
        let (sent, ok) = w.join().expect("live client panicked");
        live_requests += sent;
        live_ok += ok;
    }
    let live_shed = handle.batcher_stats().shed;
    let zero_dropped = live_ok == live_requests && live_shed == 0;
    assert!(
        zero_dropped,
        "reload churn dropped traffic: {live_ok}/{live_requests} ok, shed {live_shed}"
    );
    assert_eq!(entry.reloads(), promoted as u64, "promotion counter disagrees");
    assert_eq!(entry.reload_rejects(), rejected as u64, "rollback counter disagrees");

    // Post-swap bit-audit: the engine now serving must be indistinguishable
    // from a cold engine built from the same promoted checkpoint.
    let cold = build_engine(decode_checkpoint(&good_bytes).expect("decode promoted checkpoint"))
        .expect("cold-start audit engine");
    let audit_n = bench.test.len().min(SWAP_AUDIT_QUERIES);
    let direct: Vec<_> = cold
        .predict_batch(&bench.test.x[..audit_n])
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("cold engine predicts");
    let mut served = Vec::with_capacity(audit_n);
    for chunk in bench.test.x[..audit_n].chunks(SWAP_AUDIT_CHUNK) {
        let resp =
            probe.post("/v1/predict/default", &predict_body(chunk, None)).expect("audit POST");
        assert_eq!(resp.status, 200, "post-swap audit predict failed");
        served.extend(parse_intervals(&resp.body).expect("audit response"));
    }
    let swap_mismatches = direct
        .iter()
        .zip(&served)
        .filter(|(d, (lo, hi))| d.lo.to_bits() != lo.to_bits() || d.hi.to_bits() != hi.to_bits())
        .count();
    let post_swap_identical = served.len() == direct.len() && swap_mismatches == 0;
    assert!(
        post_swap_identical,
        "{swap_mismatches}/{audit_n} post-swap intervals differ from the cold-started engine"
    );
    let reload_zero_loss =
        zero_dropped && promoted >= 1 && rejected >= 1 && post_swap_identical;
    rec.extra("live_requests", live_requests as f64);
    rec.extra("reloads_promoted", promoted as f64);
    rec.extra("reloads_rejected", rejected as f64);
    rec.extra("post_swap_identical", 1.0);
    rec.extra("reload_zero_loss", 1.0);
    println!(
        "  [reload] {live_requests} live requests, {promoted} promoted / {rejected} rolled \
         back, 0 dropped, post-swap bit-identical"
    );

    // --- 2. interval cache: cold vs hot bit-audit + hit-path timing ------
    // Serving state is frozen from here (no truths posted), so every query
    // is cacheable at one serving generation. Bodies use a chunk size
    // no other phase uses, so the cold pass really starts cold.
    let cache_bodies: Vec<Vec<u8>> = (0..CACHE_QUERIES / CACHE_CHUNK)
        .map(|b| {
            let xs: Vec<Vec<f32>> = (0..CACHE_CHUNK)
                .map(|j| bench.test.x[(b * CACHE_CHUNK + j) % bench.test.len()].clone())
                .collect();
            predict_body(&xs, None)
        })
        .collect();
    let distinct: HashSet<&[u8]> = cache_bodies.iter().map(Vec::as_slice).collect();
    assert_eq!(distinct.len(), cache_bodies.len(), "cache-drill bodies must be distinct");
    let stats_before = registry.cache().stats();
    let cold_t0 = Instant::now();
    let cold_bodies: Vec<Vec<u8>> = cache_bodies
        .iter()
        .map(|body| {
            let resp = probe.post("/v1/predict/default", body).expect("cold cache POST");
            assert_eq!(resp.status, 200, "cold cache predict failed");
            resp.body
        })
        .collect();
    let miss_us = cold_t0.elapsed().as_micros() as f64;
    let mut hot_us = f64::INFINITY;
    let mut hot_identical = true;
    for _ in 0..CACHE_HOT_PASSES {
        let t0 = Instant::now();
        for (body, cold) in cache_bodies.iter().zip(&cold_bodies) {
            let resp = probe.post("/v1/predict/default", body).expect("hot cache POST");
            assert_eq!(resp.status, 200, "hot cache predict failed");
            hot_identical &= resp.body == *cold;
        }
        hot_us = hot_us.min(t0.elapsed().as_micros() as f64);
    }
    let stats_after = registry.cache().stats();
    let hits = stats_after.hits - stats_before.hits;
    let expected_hits = (CACHE_HOT_PASSES * cache_bodies.len()) as u64;
    let cache_speedup = miss_us / hot_us.max(1.0);
    let cache_hit_identical =
        hot_identical && hits >= expected_hits && cache_speedup > 1.0;
    assert!(hot_identical, "cache hit served different bytes than the cold prediction");
    assert!(hits >= expected_hits, "expected ≥{expected_hits} cache hits, counted {hits}");
    assert!(
        cache_speedup > 1.0,
        "cache hit path not faster: {miss_us:.0}us cold vs {hot_us:.0}us hot"
    );
    rec.extra("cache_queries", CACHE_QUERIES as f64);
    rec.extra("cache_hits", hits as f64);
    rec.extra("cache_speedup", cache_speedup);
    rec.extra("cache_hit_identical", 1.0);
    println!(
        "  [cache] {CACHE_QUERIES} queries, {hits} hits byte-identical, hit path {:.1}x \
         faster ({:.0}us -> {:.0}us)",
        cache_speedup, miss_us, hot_us
    );

    // Labeled series reached /metrics before the first server drains.
    let metrics = probe.get("/metrics").expect("GET /metrics");
    let metrics_text = String::from_utf8_lossy(&metrics.body).to_string();
    let labeled_metrics_ok = metrics.status == 200
        && metrics_text.contains("cardest_model_reloads{model=\"default\"}")
        && metrics_text.contains("cardest_model_cache_hits{model=\"default\"}")
        && metrics_text.contains("cardest_model_observations{model=\"alt\"}");
    assert!(labeled_metrics_ok, "model-labeled metrics series missing");
    rec.extra("labeled_metrics_ok", 1.0);
    handle.drain();

    // --- 3. per-tenant fairness on a fresh rate-limited server ------------
    let fair_registry = Arc::new(
        ModelRegistry::<Mscn, AbsoluteResidual>::new(RegistryTuning {
            batcher: BatcherConfig {
                queue_cap: FAIR_QUEUE_CAP,
                max_batch: 64,
                window: Duration::ZERO,
            },
            cache_entries: 0,
            ..Default::default()
        })
        .with_limiter(
            RateLimit::new(TENANT_RATE, TENANT_BURST).expect("valid rate limit"),
        ),
    );
    fair_registry.register(
        DEFAULT_MODEL,
        build_engine(decode_checkpoint(&good_bytes).expect("decode for fairness"))
            .expect("fairness engine"),
    );
    let fair_handle = start_registry_server(
        Arc::clone(&fair_registry),
        "127.0.0.1:0",
        HttpServeConfig::default(),
    )
    .expect("bind fairness server");
    let fair_addr = fair_handle.local_addr();
    let victim_body = Arc::new(predict_body(
        &bench.test.x[..LIVE_BATCH.min(bench.test.len())],
        None,
    ));

    let run_victim = |stop: Option<Arc<AtomicBool>>| {
        let body = Arc::clone(&victim_body);
        std::thread::spawn(move || {
            let mut client = HttpClient::connect(fair_addr).expect("connect victim");
            let mut lat = Vec::with_capacity(VICTIM_REQUESTS);
            let mut ok = 0usize;
            for _ in 0..VICTIM_REQUESTS {
                let t = Instant::now();
                let resp = post_keepalive(
                    &mut client,
                    fair_addr,
                    "/v1/predict",
                    &[(TENANT_HEADER, "victim")],
                    &body,
                );
                lat.push(t.elapsed().as_micros());
                if resp.status == 200 {
                    ok += 1;
                }
                std::thread::sleep(VICTIM_PACE);
            }
            if let Some(stop) = stop {
                stop.store(true, Ordering::Relaxed);
            }
            lat.sort_unstable();
            (ok, lat)
        })
    };

    // Solo baseline, then the same pacing with an aggressor alongside.
    let (solo_ok, solo_lat) = run_victim(None).join().expect("solo victim");
    assert_eq!(solo_ok, VICTIM_REQUESTS, "solo victim saw non-200s");
    let solo_p99 = percentile(&solo_lat, 0.99);

    let aggressor_stop = Arc::new(AtomicBool::new(false));
    let victim = run_victim(Some(Arc::clone(&aggressor_stop)));
    let aggressor = {
        let body = Arc::clone(&victim_body);
        let stop = Arc::clone(&aggressor_stop);
        std::thread::spawn(move || {
            let mut client = HttpClient::connect(fair_addr).expect("connect aggressor");
            let t0 = Instant::now();
            let mut ok = 0usize;
            let mut shed = 0usize;
            let mut retry_after_ok = true;
            let mut attempts = 0usize;
            while !stop.load(Ordering::Relaxed) && attempts < AGGRESSOR_CAP {
                let resp = post_keepalive(
                    &mut client,
                    fair_addr,
                    "/v1/predict",
                    &[(TENANT_HEADER, "aggressor")],
                    &body,
                );
                attempts += 1;
                match resp.status {
                    200 => ok += 1,
                    429 => {
                        shed += 1;
                        retry_after_ok &= resp.retry_after().is_some();
                    }
                    other => panic!("aggressor got unexpected status {other}"),
                }
            }
            (ok, shed, retry_after_ok, t0.elapsed().as_secs_f64())
        })
    };
    let (victim_ok, victim_lat) = victim.join().expect("contended victim");
    let (agg_ok, agg_shed, agg_retry_after_ok, agg_secs) =
        aggressor.join().expect("aggressor");
    let victim_p99 = percentile(&victim_lat, 0.99);
    let p99_ceiling = (2.0 * solo_p99).max(VICTIM_P99_FLOOR_US);
    let admitted_budget = TENANT_RATE * agg_secs + TENANT_BURST + 32.0;
    let aggressor_capped =
        agg_shed > 0 && agg_retry_after_ok && (agg_ok as f64) <= admitted_budget;

    // Admission-queue overflow: one request larger than the queue sheds
    // with 503 + a tenant-aware Retry-After instead of queueing unboundedly.
    // The probe runs as a tenant of its own: its bucket is full, so only
    // the queue can refuse it (the aggressor's just-drained bucket would
    // answer 429 first whenever its next token is not yet due).
    let oversized: Vec<Vec<f32>> = vec![bench.test.x[0].clone(); FAIR_QUEUE_CAP + 1];
    let mut fair_probe = HttpClient::connect(fair_addr).expect("connect overflow probe");
    let overflow = fair_probe
        .request(
            "POST",
            "/v1/predict",
            [(TENANT_HEADER, "overflow-probe")],
            &predict_body(&oversized, None),
        )
        .expect("overflow POST");
    let overflow_503 = overflow.status == 503 && overflow.retry_after().is_some();
    assert!(overflow_503, "oversized request got {} (want 503 + Retry-After)", overflow.status);

    let fair_metrics = fair_probe.get("/metrics").expect("GET fairness /metrics");
    let fair_text = String::from_utf8_lossy(&fair_metrics.body).to_string();
    let tenant_metrics_ok = fair_text.contains("cardest_tenant_rate_shed{tenant=\"aggressor\"}")
        && fair_text.contains("cardest_tenant_queue_depth{tenant=\"victim\"}");
    assert!(tenant_metrics_ok, "tenant-labeled metrics series missing");
    let tenant_isolation_held = victim_ok == VICTIM_REQUESTS
        && aggressor_capped
        && victim_p99 <= p99_ceiling
        && overflow_503;
    assert_eq!(victim_ok, VICTIM_REQUESTS, "victim shed while aggressor hammered");
    assert!(
        aggressor_capped,
        "aggressor not capped: {agg_ok} admitted / {agg_shed} shed in {agg_secs:.2}s \
         (budget {admitted_budget:.0})"
    );
    assert!(
        victim_p99 <= p99_ceiling,
        "victim p99 {victim_p99:.0}us over ceiling {p99_ceiling:.0}us (solo {solo_p99:.0}us)"
    );
    fair_handle.drain();
    rec.extra("victim_solo_p99_us", solo_p99);
    rec.extra("victim_contended_p99_us", victim_p99);
    rec.extra("aggressor_admitted", agg_ok as f64);
    rec.extra("aggressor_shed", agg_shed as f64);
    rec.extra("overflow_shed_503", 1.0);
    rec.extra("tenant_isolation_held", 1.0);
    println!(
        "  [fairness] victim p99 {victim_p99:.0}us (solo {solo_p99:.0}us), aggressor \
         {agg_ok} admitted / {agg_shed} shed"
    );
    ce_telemetry::set_enabled(false);
    ce_telemetry::global().reset();

    write_bench_summary(
        scale,
        Gates { reload_zero_loss, tenant_isolation_held, cache_hit_identical },
        &rec,
    );
    vec![rec]
}

/// The three CI-greppable gate booleans.
struct Gates {
    reload_zero_loss: bool,
    tenant_isolation_held: bool,
    cache_hit_identical: bool,
}

/// Writes `BENCH_tenant.json` in the working directory: the gate fields CI
/// greps plus the scalar metrics.
fn write_bench_summary(scale: &Scale, gates: Gates, rec: &ExperimentRecord) {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"setting_rows\": {},\n", scale.rows));
    json.push_str(&format!("  \"reload_zero_loss\": {},\n", gates.reload_zero_loss));
    json.push_str(&format!("  \"tenant_isolation_held\": {},\n", gates.tenant_isolation_held));
    json.push_str(&format!("  \"cache_hit_identical\": {},\n", gates.cache_hit_identical));
    json.push_str("  \"metrics\": {\n");
    let scalars: Vec<String> = rec
        .extras
        .iter()
        .map(|(name, value)| format!("    \"{name}\": {value}"))
        .collect();
    json.push_str(&scalars.join(",\n"));
    json.push_str("\n  }\n}\n");
    std::fs::write("BENCH_tenant.json", &json).expect("write BENCH_tenant.json");
    println!("  [saved BENCH_tenant.json]");
}
