//! `net`: the HTTP serving layer — endpoint health, the wire bit-audit, a
//! prequential feedback fleet, a sustained multi-tier soak, and
//! admission-control shedding.
//!
//! Five operational claims about the `ce-server` + `cardest::serve` stack
//! are checked in one run (DESIGN.md §10, §12):
//!
//! 1. **It serves** — the server binds an ephemeral loopback port and all
//!    four endpoints answer: `GET /healthz`, `GET /readyz`, `GET /metrics`
//!    (Prometheus text carrying the serve gauges) and `POST /v1/predict`;
//!    wrong methods get `405`, unknown paths `404`, malformed bodies `422`.
//! 2. **Bit-identical** — intervals served over HTTP (JSON round-trip,
//!    micro-batcher coalescing, worker threads) match direct in-process
//!    `predict_batch` calls bit for bit.
//! 3. **Feedback survives concurrency** — a fleet of keep-alive clients
//!    streams batches with prequential truths; every truth lands in the
//!    self-healing layer and nothing sheds.
//! 4. **Sustained throughput** — a ≥100k-query soak sweeps client counts
//!    1/2/4/8/16 and records the full qps + p50/p95/p99 curve per tier;
//!    the 4-client tier is the headline number CI gates (generous floor /
//!    ceiling so weak runners pass; committed numbers come from a real box).
//! 5. **Bounded** — a request larger than the admission queue is shed with
//!    `503` + `Retry-After` instead of queuing unboundedly, and after a
//!    graceful drain the port stops accepting.
//!
//! The summary is exported to `BENCH_net.json` in the working directory
//! (grep-gated by CI) alongside the usual `results/net.json` record.

use std::sync::Arc;
use std::time::Instant;

use cardest::conformal::{
    AbsoluteResidual, HealConfig, OnlineConformal, PiEstimator, PiServiceConfig,
    PredictionInterval, SelfHealingService,
};
use cardest::estimators::AviModel;
use cardest::pipeline::train_mscn;
use cardest::serve::{json_f64, start_server, value_to_f64, HttpServeConfig, ServeEngine};
use cardest::server::HttpClient;

use crate::report::ExperimentRecord;
use crate::scale::Scale;

use super::single_table::{sel_floor, standard_bench, ALPHA};

/// Admission queue capacity in queries; the overload probe submits one more
/// than this in a single request to force a deterministic shed.
const QUEUE_CAP: usize = 512;

/// Concurrent keep-alive clients in the fleet phase.
const CLIENTS: usize = 4;

/// Requests each fleet client issues.
const REQUESTS_PER_CLIENT: usize = 40;

/// Queries per fleet request (shipped with truths, so the fleet also
/// exercises the prequential feedback path under concurrency).
const FLEET_BATCH: usize = 8;

/// Soak sweep: concurrent keep-alive clients per tier.
const SOAK_TIERS: [usize; 5] = [1, 2, 4, 8, 16];

/// Queries per soak tier (5 tiers x 20k >= the 100k-query floor).
const SOAK_QUERIES_PER_TIER: usize = 20_000;

/// Queries per soak request body.
const SOAK_BATCH: usize = 8;

/// Distinct prebuilt soak bodies (cycled), so body serialization stays out
/// of the timed loop.
const SOAK_BODIES: usize = 32;

/// The client tier whose qps/latency is the headline (and CI-gated) number.
const SOAK_HEADLINE_CLIENTS: usize = 4;

/// CI gate: headline-tier qps floor. Deliberately generous — shared CI
/// runners are slow; the committed artifact from a dedicated box runs at
/// ~48k qps, well above this.
const SOAK_QPS_FLOOR: f64 = 15_000.0;

/// CI gate: headline-tier p99 request-latency ceiling, microseconds.
/// The committed artifact measures ~2.5ms p99 at the headline tier.
const SOAK_P99_CEILING_US: f64 = 20_000.0;

/// Queries audited for HTTP-vs-direct bit identity.
const AUDIT_QUERIES: usize = 192;

/// Queries per audit request (below `max_batch`, so coalescing across
/// requests is what the audit actually exercises).
const AUDIT_CHUNK: usize = 24;

/// Serializes feature rows (and optional truths) as a predict request body.
pub(super) fn predict_body(features: &[Vec<f32>], truths: Option<&[f64]>) -> Vec<u8> {
    let mut body = String::from("{\"features\":[");
    for (i, row) in features.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            body.push_str(&json_f64(f64::from(*v)));
        }
        body.push(']');
    }
    body.push(']');
    if let Some(truths) = truths {
        body.push_str(",\"truths\":[");
        for (i, y) in truths.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&json_f64(*y));
        }
        body.push(']');
    }
    body.push('}');
    body.into_bytes()
}

/// Parses a predict response body into `(lo, hi)` pairs; interval-level
/// errors (which the calm phases must not produce) surface as `Err`.
pub(super) fn parse_intervals(body: &[u8]) -> Result<Vec<(f64, f64)>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-utf8 body".to_string())?;
    let value = serde_json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let serde_json::Value::Array(results) = value.field("results").map_err(|e| e.to_string())?
    else {
        return Err("`results` is not an array".to_string());
    };
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        let lo = value_to_f64(r.field("lo").map_err(|e| e.to_string())?)
            .map_err(|e| format!("lo: {e}"))?;
        let hi = value_to_f64(r.field("hi").map_err(|e| e.to_string())?)
            .map_err(|e| format!("hi: {e}"))?;
        out.push((lo, hi));
    }
    Ok(out)
}

/// One soak tier's measurements: a fixed client count driving keep-alive
/// connections until its query quota is met.
struct SoakTier {
    clients: usize,
    queries: usize,
    qps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

/// Percentile over an ascending-sorted latency sample (nearest-rank).
pub(super) fn percentile(sorted: &[u128], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

/// Runs the network serving experiment; see the module docs.
pub fn net(scale: &Scale) -> Vec<ExperimentRecord> {
    let mut rec = ExperimentRecord::new(
        "net",
        "HTTP serving: endpoints, wire bit-audit, loopback fleet qps/latency, \
         admission shedding",
    );
    let bench = standard_bench(scale, "dmv");
    let floor = sel_floor(scale.rows);
    let model = train_mscn(&bench.feat, &bench.train, scale.epochs.clamp(1, 10), scale.seed);
    let healing = SelfHealingService::new(
        model,
        AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        PiServiceConfig { alpha: ALPHA, ..Default::default() },
        HealConfig::default(),
    );
    let fallbacks: Vec<Box<dyn PiEstimator>> = vec![Box::new(OnlineConformal::new(
        AviModel::build(&bench.table, floor),
        AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        ALPHA,
    ))];
    let dims = bench.test.x[0].len();
    let engine = Arc::new(ServeEngine::new(healing, fallbacks, dims));
    ce_telemetry::set_enabled(true);
    let handle = start_server(
        Arc::clone(&engine),
        "127.0.0.1:0",
        HttpServeConfig { queue_cap: QUEUE_CAP, ..Default::default() },
    )
    .expect("bind loopback server");
    let addr = handle.local_addr();
    let server_started = true;
    rec.extra("server_started", 1.0);

    // --- 1. every endpoint answers, errors map to the right statuses -----
    let mut probe = HttpClient::connect(addr).expect("connect probe client");
    let healthz = probe.get("/healthz").expect("GET /healthz");
    let readyz = probe.get("/readyz").expect("GET /readyz");
    let metrics = probe.get("/metrics").expect("GET /metrics");
    let metrics_text = String::from_utf8_lossy(&metrics.body).to_string();
    let not_found = probe.get("/nope").expect("GET /nope");
    let bad_method = probe.post("/healthz", b"{}").expect("POST /healthz");
    let bad_body = probe.post("/v1/predict", b"not json").expect("POST garbage");
    let endpoints_ok = healthz.status == 200
        && readyz.status == 200
        && metrics.status == 200
        && metrics_text.contains("cardest_")
        && not_found.status == 404
        && bad_method.status == 405
        && bad_body.status == 422;
    assert!(
        endpoints_ok,
        "endpoint contract broken: healthz {} readyz {} metrics {} 404 {} 405 {} 422 {}",
        healthz.status,
        readyz.status,
        metrics.status,
        not_found.status,
        bad_method.status,
        bad_body.status
    );
    rec.extra("endpoints_ok", 1.0);

    // --- 2. bit-audit: HTTP-served intervals == direct calls -------------
    // No truths are posted in this phase, so the serving state is frozen and
    // the only variables are the JSON round-trip, the batcher's coalescing,
    // and the worker threads.
    let audit_n = bench.test.len().min(AUDIT_QUERIES);
    let direct: Vec<PredictionInterval> = engine
        .predict_batch(&bench.test.x[..audit_n])
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("calm direct serving must not error");
    let mut served = Vec::with_capacity(audit_n);
    for chunk in bench.test.x[..audit_n].chunks(AUDIT_CHUNK) {
        let resp = probe.post("/v1/predict", &predict_body(chunk, None)).expect("audit POST");
        assert_eq!(resp.status, 200, "audit predict: {}", String::from_utf8_lossy(&resp.body));
        served.extend(parse_intervals(&resp.body).expect("audit response"));
    }
    let mismatches = direct
        .iter()
        .zip(&served)
        .filter(|(d, (lo, hi))| d.lo.to_bits() != lo.to_bits() || d.hi.to_bits() != hi.to_bits())
        .count();
    let bit_audit_identical = served.len() == direct.len() && mismatches == 0;
    assert!(
        bit_audit_identical,
        "{mismatches}/{audit_n} HTTP-served intervals differ from direct calls"
    );
    rec.extra("bit_audit_queries", audit_n as f64);
    rec.extra("bit_audit_identical", 1.0);

    // --- 3. loopback fleet: concurrent keep-alive clients with truths ----
    let fleet_t0 = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let xs = bench.test.x.clone();
            let ys = bench.test.y.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect fleet client");
                let mut latencies_us = Vec::with_capacity(REQUESTS_PER_CLIENT);
                let mut posted = 0usize;
                for r in 0..REQUESTS_PER_CLIENT {
                    // Wrap-around slices near the end of the test set may be
                    // shorter than FLEET_BATCH; count what was really posted.
                    let at = (c * REQUESTS_PER_CLIENT + r) * FLEET_BATCH % xs.len();
                    let end = (at + FLEET_BATCH).min(xs.len());
                    posted += end - at;
                    let body = predict_body(&xs[at..end], Some(&ys[at..end]));
                    let t = Instant::now();
                    let resp = client.post("/v1/predict", &body).expect("fleet POST");
                    latencies_us.push(t.elapsed().as_micros());
                    assert_eq!(resp.status, 200, "fleet predict shed or failed");
                    parse_intervals(&resp.body).expect("fleet response");
                }
                (latencies_us, posted)
            })
        })
        .collect();
    let mut latencies: Vec<u128> = Vec::with_capacity(CLIENTS * REQUESTS_PER_CLIENT);
    let mut fleet_queries = 0usize;
    for w in workers {
        let (lat, posted) = w.join().expect("fleet client panicked");
        latencies.extend(lat);
        fleet_queries += posted;
    }
    let fleet_secs = fleet_t0.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let fleet_qps = fleet_queries as f64 / fleet_secs;
    let calm_stats = handle.batcher_stats();
    let calm_shed = calm_stats.shed;
    assert_eq!(calm_shed, 0, "calm fleet must not shed");
    rec.extra("fleet_clients", CLIENTS as f64);
    rec.extra("fleet_queries", fleet_queries as f64);
    rec.extra("fleet_qps", fleet_qps);
    rec.extra("fleet_p50_us", percentile(&latencies, 0.50));
    rec.extra("calm_shed", calm_shed as f64);
    rec.extra("batches", calm_stats.batches as f64);
    rec.extra("max_batch_seen", calm_stats.max_batch_seen as f64);
    // The fleet posted truths, so the feedback path must have advanced the
    // healing layer and the metrics scrape must reflect it.
    let observations = engine.observations();
    assert!(observations >= fleet_queries as u64, "prequential feedback lost");
    let metrics_after = probe.get("/metrics").expect("GET /metrics after fleet");
    let metrics_ok = metrics_after.status == 200
        && String::from_utf8_lossy(&metrics_after.body)
            .contains("cardest_model_observations{model=\"default\"}");
    assert!(metrics_ok, "metrics scrape lost the per-model series");
    rec.extra("observations", observations as f64);

    // --- 3b. sustained soak: qps/latency curve over client tiers ---------
    // First pin down the application floor: the direct (no-HTTP) cost of
    // one SOAK_BATCH-sized `predict_batch` call, so the soak numbers can
    // be read as floor + wire overhead.
    let direct_batch_us = {
        let rounds = 500usize;
        let t = Instant::now();
        for r in 0..rounds {
            let at = (r * SOAK_BATCH) % bench.test.x.len().max(1);
            let end = (at + SOAK_BATCH).min(bench.test.x.len());
            for out in engine.predict_batch(&bench.test.x[at..end]) {
                out.expect("direct floor predict");
            }
        }
        t.elapsed().as_micros() as f64 / rounds as f64
    };
    rec.extra("direct_batch_us", direct_batch_us);
    eprintln!("  [direct floor] {direct_batch_us:.0}us per {SOAK_BATCH}-query predict_batch");

    // Truth-free (pure serving path), bodies prebuilt outside the timed
    // loop, every tier >= SOAK_QUERIES_PER_TIER queries over keep-alive
    // connections — the sweep that shows where the event loop saturates.
    let soak_bodies: Arc<Vec<Vec<u8>>> = Arc::new(
        (0..SOAK_BODIES)
            .map(|b| {
                let at = (b * SOAK_BATCH) % bench.test.x.len().max(1);
                let end = (at + SOAK_BATCH).min(bench.test.x.len());
                predict_body(&bench.test.x[at..end], None)
            })
            .collect(),
    );
    let mut soak_tiers: Vec<SoakTier> = Vec::with_capacity(SOAK_TIERS.len());
    for &clients in &SOAK_TIERS {
        let per_client = SOAK_QUERIES_PER_TIER.div_ceil(clients * SOAK_BATCH);
        let t0 = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let bodies = Arc::clone(&soak_bodies);
                std::thread::spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect soak client");
                    let mut latencies_us = Vec::with_capacity(per_client);
                    for r in 0..per_client {
                        let body = &bodies[(c * per_client + r) % bodies.len()];
                        let t = Instant::now();
                        let resp = client.post("/v1/predict", body).expect("soak POST");
                        latencies_us.push(t.elapsed().as_micros());
                        assert_eq!(resp.status, 200, "soak predict shed or failed");
                        // The server caps requests per keep-alive connection
                        // (`keep_alive_max_requests`) and says so; reconnect
                        // like any well-behaved client.
                        if resp.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
                        {
                            client = HttpClient::connect(addr).expect("soak reconnect");
                        }
                    }
                    latencies_us
                })
            })
            .collect();
        let mut lat: Vec<u128> = Vec::with_capacity(clients * per_client);
        for w in workers {
            lat.extend(w.join().expect("soak client panicked"));
        }
        let secs = t0.elapsed().as_secs_f64();
        lat.sort_unstable();
        let queries = lat.len() * SOAK_BATCH;
        let tier = SoakTier {
            clients,
            queries,
            qps: queries as f64 / secs,
            p50_us: percentile(&lat, 0.50),
            p95_us: percentile(&lat, 0.95),
            p99_us: percentile(&lat, 0.99),
        };
        println!(
            "  [soak c={:2}] {:7} queries  {:9.0} qps  p50 {:6.0}us  p95 {:6.0}us  p99 {:6.0}us",
            tier.clients, tier.queries, tier.qps, tier.p50_us, tier.p95_us, tier.p99_us
        );
        rec.extra(&format!("soak_qps_c{clients}"), tier.qps);
        rec.extra(&format!("soak_p50_us_c{clients}"), tier.p50_us);
        rec.extra(&format!("soak_p99_us_c{clients}"), tier.p99_us);
        soak_tiers.push(tier);
    }
    let soak_queries: usize = soak_tiers.iter().map(|t| t.queries).sum();
    assert!(soak_queries >= 100_000, "soak must cover >= 100k queries, got {soak_queries}");
    let headline = soak_tiers
        .iter()
        .find(|t| t.clients == SOAK_HEADLINE_CLIENTS)
        .expect("headline tier ran");
    let qps = headline.qps;
    let (p50_us, p95_us, p99_us) = (headline.p50_us, headline.p95_us, headline.p99_us);
    let soak_qps_floor_met = qps >= SOAK_QPS_FLOOR;
    let soak_p99_under_ceiling = p99_us <= SOAK_P99_CEILING_US;
    assert!(
        soak_qps_floor_met,
        "headline tier ({SOAK_HEADLINE_CLIENTS} clients) qps {qps:.0} under the \
         {SOAK_QPS_FLOOR:.0} floor"
    );
    assert!(
        soak_p99_under_ceiling,
        "headline tier p99 {p99_us:.0}us over the {SOAK_P99_CEILING_US:.0}us ceiling"
    );
    assert_eq!(handle.batcher_stats().shed, calm_shed, "soak must not shed");
    rec.extra("soak_queries", soak_queries as f64);
    rec.extra("qps", qps);
    rec.extra("p50_us", p50_us);
    rec.extra("p95_us", p95_us);
    rec.extra("p99_us", p99_us);

    // --- 4. overload shed + graceful drain -------------------------------
    // The probe connection idled through the soak past the server's
    // keep-alive deadline and was reaped (by design); reconnect.
    let mut probe = HttpClient::connect(addr).expect("reconnect probe client");
    // One request larger than the admission queue: all-or-nothing admission
    // rejects it up front with 503 + Retry-After (no partial enqueue).
    let oversized: Vec<Vec<f32>> = vec![bench.test.x[0].clone(); QUEUE_CAP + 1];
    let shed_resp =
        probe.post("/v1/predict", &predict_body(&oversized, None)).expect("overload POST");
    let overload_shed_503 =
        shed_resp.status == 503 && shed_resp.header("retry-after").is_some();
    assert!(
        overload_shed_503,
        "oversized request got {} (want 503 + Retry-After)",
        shed_resp.status
    );
    let shed_after = handle.batcher_stats().shed;
    assert!(shed_after > calm_shed, "overload shed not counted");
    rec.extra("overload_shed_503", 1.0);

    handle.drain();
    let drained_refuses = HttpClient::connect(addr).is_err();
    assert!(drained_refuses, "port still accepting after drain");
    rec.extra("drained_refuses_connections", 1.0);
    let server_stats = handle.server_stats();
    rec.extra("http_requests", server_stats.requests as f64);
    rec.extra("http_connections", server_stats.accepted as f64);
    rec.extra("http_conn_shed", server_stats.conn_shed as f64);
    rec.extra("http_parse_errors", server_stats.parse_errors as f64);
    ce_telemetry::set_enabled(false);
    ce_telemetry::global().reset();

    write_bench_summary(
        scale,
        server_started,
        endpoints_ok,
        bit_audit_identical,
        calm_shed,
        overload_shed_503,
        (soak_qps_floor_met, soak_p99_under_ceiling),
        &soak_tiers,
        qps,
        (p50_us, p95_us, p99_us),
        &rec,
    );
    vec![rec]
}

/// Writes `BENCH_net.json` in the working directory: the gate fields CI
/// greps, the per-tier soak curve, and the scalar metrics.
#[allow(clippy::too_many_arguments)]
fn write_bench_summary(
    scale: &Scale,
    server_started: bool,
    endpoints_ok: bool,
    bit_audit_identical: bool,
    calm_shed: u64,
    overload_shed_503: bool,
    (soak_qps_floor_met, soak_p99_under_ceiling): (bool, bool),
    soak_tiers: &[SoakTier],
    qps: f64,
    (p50_us, p95_us, p99_us): (f64, f64, f64),
    rec: &ExperimentRecord,
) {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"setting_rows\": {},\n", scale.rows));
    json.push_str(&format!("  \"server_started\": {server_started},\n"));
    json.push_str(&format!("  \"endpoints_ok\": {endpoints_ok},\n"));
    json.push_str(&format!("  \"bit_audit_identical\": {bit_audit_identical},\n"));
    json.push_str(&format!("  \"calm_shed\": {calm_shed},\n"));
    json.push_str(&format!("  \"overload_shed_503\": {overload_shed_503},\n"));
    json.push_str(&format!("  \"soak_qps_floor_met\": {soak_qps_floor_met},\n"));
    json.push_str(&format!("  \"soak_p99_under_ceiling\": {soak_p99_under_ceiling},\n"));
    json.push_str(&format!("  \"qps\": {qps:.1},\n"));
    json.push_str(&format!("  \"p50_us\": {p50_us},\n"));
    json.push_str(&format!("  \"p95_us\": {p95_us},\n"));
    json.push_str(&format!("  \"p99_us\": {p99_us},\n"));
    json.push_str("  \"soak\": [\n");
    for (i, t) in soak_tiers.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"clients\": {}, \"queries\": {}, \"qps\": {:.1}, \"p50_us\": {}, \
             \"p95_us\": {}, \"p99_us\": {}}}{}\n",
            t.clients,
            t.queries,
            t.qps,
            t.p50_us,
            t.p95_us,
            t.p99_us,
            if i + 1 < soak_tiers.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"metrics\": {\n");
    let scalars: Vec<String> = rec
        .extras
        .iter()
        .map(|(name, value)| format!("    \"{name}\": {value}"))
        .collect();
    json.push_str(&scalars.join(",\n"));
    json.push_str("\n  }\n}\n");
    std::fs::write("BENCH_net.json", &json).expect("write BENCH_net.json");
    println!("  [saved BENCH_net.json]");
}
