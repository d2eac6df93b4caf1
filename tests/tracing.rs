//! End-to-end tests for distributed request tracing (DESIGN.md §13): trace
//! ID propagation across the router→shard hop, per-stage latency
//! attribution, the anomaly flight recorder, and the observability
//! satellites (Prometheus content type, fleet-labeled aggregation, poller
//! counters, the router's and the shard's series names).
//!
//! The trace rings, sample rate, and anomaly window are process-global by
//! design (one flight recorder per process), so every test here serializes
//! on a local mutex and resets the subsystem before touching it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cardest::conformal::{
    AbsoluteResidual, BreakerConfig, HealConfig, HealState, OnlineConformal, PiServiceConfig,
    ResilientService, SelfHealingService,
};
use cardest::router::{start_cluster_router, ClusterRouterConfig, ClusterRouterHandle};
use cardest::serve::{start_server, HttpServeConfig, ServeEngine, ServeHandle};
use cardest::server::{
    HealthConfig, HttpClient, HttpServer, RateLimit, Request, Response, RouterConfig,
    ServerConfig, TENANT_HEADER, TRACE_HEADER,
};
use cardest::tenant::{start_registry_server, ModelRegistry, RegistryTuning};
use ce_telemetry::trace;

/// Serializes tests in this binary: the trace subsystem is process-global.
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A real PI-serving shard (tiny calibrated model) bound on an ephemeral
/// port. `delay` is injected into every model forward — tests that assert
/// on stage attribution use it to make inference the dominant cost, so
/// scheduling jitter stays inside their tolerance.
fn pi_shard(delay: Duration) -> ServeHandle {
    start_server(
        Arc::new(pi_engine(delay)),
        "127.0.0.1:0",
        HttpServeConfig { workers: 2, ..Default::default() },
    )
    .expect("bind pi shard")
}

/// The tiny calibration set behind [`pi_engine`]: residuals of 0.01.
fn pi_calibration() -> (Vec<Vec<f32>>, Vec<f64>) {
    let n = 32usize;
    (0..n).map(|i| (vec![i as f32 / n as f32], i as f64 / n as f64 + 0.01)).unzip()
}

/// The tiny calibrated engine behind [`pi_shard`].
fn pi_engine(
    delay: Duration,
) -> ServeEngine<impl Fn(&[f32]) -> f64 + Send + Sync + 'static, AbsoluteResidual> {
    let (xs, ys) = pi_calibration();
    let model = move |f: &[f32]| {
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        f[0] as f64
    };
    let healing = SelfHealingService::new(
        model,
        AbsoluteResidual,
        &xs,
        &ys,
        PiServiceConfig::default(),
        HealConfig::default(),
    );
    ServeEngine::new(healing, Vec::new(), 1)
}

/// A router over one live PI shard, with a fast prober so readiness
/// settles immediately.
fn router_over(shard: &ServeHandle) -> ClusterRouterHandle {
    start_cluster_router(
        &[("shard-0".to_string(), shard.local_addr())],
        "127.0.0.1:0",
        ClusterRouterConfig {
            health: HealthConfig {
                probe_interval: Duration::from_millis(10),
                fail_threshold: 2,
                recover_threshold: 1,
                ..HealthConfig::default()
            },
            ..Default::default()
        },
    )
    .expect("bind router")
}

const PREDICT_BODY: &[u8] = b"{\"features\":[[0.5]]}";

/// Waits for a trace record to land in the flight recorder. The serving
/// thread publishes it right *after* flushing the response bytes, so a
/// client that just read the response can race the publish by a hair.
fn wait_for_record(id: u128) -> trace::TraceRecord {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        if let Some(r) = trace::trace_snapshot().into_iter().find(|r| r.id == id) {
            return r;
        }
        assert!(Instant::now() < deadline, "trace {id:x} never reached the flight recorder");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn post_predict(
    client: &mut HttpClient,
    trace_header: Option<&str>,
) -> cardest::server::ClientResponse {
    let headers: Vec<(&str, &str)> = match trace_header {
        Some(v) => vec![("content-type", "application/json"), (TRACE_HEADER, v)],
        None => vec![("content-type", "application/json")],
    };
    client
        .request("POST", "/v1/predict", headers, PREDICT_BODY)
        .expect("predict request")
}

/// A client-minted trace ID rides the request direct to a shard and comes
/// back on the response — even with head sampling off, because an explicit
/// upstream ID forces sampling at this hop.
#[test]
fn client_trace_id_round_trips_direct_to_shard() {
    let _guard = trace_lock();
    trace::reset();
    trace::set_sample_rate(0);
    let shard = pi_shard(Duration::ZERO);
    let mut client = HttpClient::connect(shard.local_addr()).expect("connect");

    // No header, sampling off: the response carries no trace ID.
    let resp = post_predict(&mut client, None);
    assert_eq!(resp.status, 200);
    assert_eq!(resp.trace_id(), None, "untraced request must not mint an ID");

    let id = "00000000000000000000000000c0ffee";
    let resp = post_predict(&mut client, Some(id));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.trace_id(), Some(id), "shard must echo the client's trace ID");
    let stages = resp.header("x-ce-stages").expect("stage breakdown header");
    // The handler's own work around inference is attributed too.
    for stage in ["parse=", "infer=", "render="] {
        assert!(stages.contains(stage), "stage header missing {stage}: {stages}");
    }

    // The flight recorder retained the record under the client's ID.
    let record = wait_for_record(0xc0ffee);
    for stage in ["parse", "infer", "render"] {
        assert!(
            record.stages().iter().any(|s| s.name == stage),
            "record missing {stage}: {:?}",
            record.stages()
        );
    }
    shard.drain();
}

/// Satellite: a request sent *through the router* returns the same trace
/// ID the client supplied — the router adopts it, propagates it to the
/// shard, and re-emits it on the merged response.
#[test]
fn router_echoes_the_clients_trace_id_end_to_end() {
    let _guard = trace_lock();
    trace::reset();
    trace::set_sample_rate(0);
    let shard = pi_shard(Duration::ZERO);
    let router = router_over(&shard);
    let mut client = HttpClient::connect(router.local_addr()).expect("connect");

    let id = "0000000000000000000000000000beef";
    let resp = post_predict(&mut client, Some(id));
    assert_eq!(resp.status, 200, "body: {}", String::from_utf8_lossy(&resp.body));
    assert_eq!(resp.trace_id(), Some(id), "router must echo the client's trace ID");
    // The router's merged stage view spans both hops: its own transport
    // stages plus the shard-reported inference breakdown.
    let stages = resp.header("x-ce-stages").expect("merged stage header");
    for stage in ["network=", "route=", "infer="] {
        assert!(stages.contains(stage), "merged stages missing {stage}: {stages}");
    }
    // Exactly one trace header on the wire — the router strips the shard's
    // echo before emitting its own.
    let count = resp.headers.iter().filter(|(k, _)| k == TRACE_HEADER).count();
    assert_eq!(count, 1, "duplicate trace headers on the routed response");

    router.drain();
    shard.drain();
}

/// Malformed or oversized `x-ce-trace` values are ignored — never an
/// error, never a minted trace — and the connection keeps working.
#[test]
fn malformed_trace_headers_are_ignored_without_poisoning_the_connection() {
    let _guard = trace_lock();
    trace::reset();
    trace::set_sample_rate(0);
    let shard = pi_shard(Duration::ZERO);
    let router = router_over(&shard);
    let oversized = "f".repeat(1024);
    let hostile = [
        "deadbeef",                            // too short
        "DEADBEEFDEADBEEFDEADBEEFDEADBEEF",    // uppercase hex
        "00000000000000000000000000000000",    // all-zero (reserved)
        "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz",    // non-hex
        "00000000000000000000000000c0ffeez",   // trailing junk
        oversized.as_str(),                    // oversized
    ];
    for addr in [shard.local_addr(), router.local_addr()] {
        let mut client = HttpClient::connect(addr).expect("connect");
        for bad in hostile {
            let resp = post_predict(&mut client, Some(bad));
            assert_eq!(resp.status, 200, "malformed trace header must not fail the request");
            assert_eq!(resp.trace_id(), None, "malformed ID {bad:?} must not be adopted");
        }
        // Same connection, valid request: the parser state survived.
        let resp = post_predict(&mut client, Some("00000000000000000000000000000abc"));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.trace_id(), Some("00000000000000000000000000000abc"));
    }
    router.drain();
    shard.drain();
}

/// Acceptance: one traced request's transport stages sum to within 10% of
/// the client-observed end-to-end latency. The model forward is slowed to
/// 25ms so fixed costs — loopback RTT, thread wakeups — stay inside the
/// tolerance.
#[test]
fn stage_attribution_accounts_for_the_observed_latency() {
    let _guard = trace_lock();
    trace::reset();
    trace::set_sample_rate(0);
    let shard = pi_shard(Duration::from_millis(25));
    let mut client = HttpClient::connect(shard.local_addr()).expect("connect");
    // Warm the connection and the serving path untraced.
    assert_eq!(post_predict(&mut client, None).status, 200);

    let id = "00000000000000000000000000001a7e";
    let t0 = Instant::now();
    let resp = post_predict(&mut client, Some(id));
    let e2e_ns = t0.elapsed().as_nanos() as u64;
    assert_eq!(resp.status, 200);
    assert_eq!(resp.trace_id(), Some(id));

    let record = wait_for_record(0x1a7e);
    // Sum only the transport stages: telemetry span names (pi_batch, …)
    // nest inside `infer` and would double-count.
    let sum: u64 = record
        .stages()
        .iter()
        .filter(|s| trace::TRANSPORT_STAGES.contains(&s.name))
        .map(|s| s.ns)
        .sum();
    let delay_ns = 25_000_000u64;
    assert!(e2e_ns >= delay_ns, "the model delay bounds e2e from below");
    assert!(
        sum <= e2e_ns,
        "server-side stages ({sum}ns) cannot exceed client e2e ({e2e_ns}ns)"
    );
    assert!(
        sum >= e2e_ns - e2e_ns / 10,
        "stages must attribute >=90% of e2e: sum {sum}ns vs e2e {e2e_ns}ns \
         (stages: {:?})",
        record.stages()
    );
    shard.drain();
}

/// Acceptance: tripping a circuit breaker freezes a flight-recorder
/// snapshot containing the triggering event and at least one trace that
/// preceded it.
#[test]
fn breaker_open_freezes_an_anomaly_snapshot_with_preceding_traces() {
    let _guard = trace_lock();
    trace::reset();
    trace::set_sample_rate(1);
    let shard = pi_shard(Duration::ZERO);
    let mut client = HttpClient::connect(shard.local_addr()).expect("connect");

    // A healthy traced request first, so the dump has history to show.
    let id = "0000000000000000000000000000f00d";
    assert_eq!(post_predict(&mut client, Some(id)).status, 200);
    wait_for_record(0xf00d);

    // Force a breaker trip: a primary that only produces NaN, threshold 1.
    let nan_model = |_: &[f32]| f64::NAN;
    let primary = OnlineConformal::new(nan_model, AbsoluteResidual, &[], &[], 0.1);
    let mut svc = ResilientService::new(Box::new(primary))
        .with_breaker(BreakerConfig { failure_threshold: 1, cooldown_queries: 8 });
    svc.interval(&[0.5]).expect("conservative floor still answers");
    assert!(svc.stats().breaker_trips >= 1, "breaker must have tripped");

    let dump = trace::last_anomaly_dump().expect("anomaly must freeze a snapshot");
    assert!(dump.contains("breaker_open"), "dump missing the trigger: {dump}");
    assert!(
        dump.contains("0000000000000000000000000000f00d"),
        "dump missing the preceding trace"
    );
    // The live debug endpoint serves the same flight recorder.
    let resp = client.get("/debug/trace").expect("debug endpoint");
    assert_eq!(resp.status, 200);
    let body = String::from_utf8_lossy(&resp.body).to_string();
    assert!(body.contains("breaker_open"), "/debug/trace missing the event");
    assert!(body.contains("\"anomaly\": true"), "event not flagged anomalous");
    shard.drain();
}

/// Satellite regression: every `/metrics` endpoint — the shard's, and the
/// router's with telemetry on *and* off — declares the Prometheus
/// text-exposition version in its Content-Type.
#[test]
fn metrics_content_type_carries_the_prometheus_version_everywhere() {
    let _guard = trace_lock();
    trace::reset();
    trace::set_sample_rate(0);
    let shard = pi_shard(Duration::ZERO);
    let router = router_over(&shard);
    let was_enabled = ce_telemetry::enabled();
    for telemetry_on in [true, false] {
        ce_telemetry::set_enabled(telemetry_on);
        for addr in [shard.local_addr(), router.local_addr()] {
            let mut client = HttpClient::connect(addr).expect("connect");
            let resp = client.get("/metrics").expect("scrape");
            assert_eq!(resp.status, 200);
            let ct = resp.header("content-type").expect("content type");
            assert!(
                ct.contains("version=0.0.4"),
                "telemetry={telemetry_on}: missing exposition version in {ct:?}"
            );
        }
    }
    ce_telemetry::set_enabled(was_enabled);
    router.drain();
    shard.drain();
}

/// Satellite: the event-driven poller's counters surface on the shard's
/// `/metrics` exposition.
#[test]
fn poller_counters_surface_in_shard_metrics() {
    let _guard = trace_lock();
    trace::reset();
    trace::set_sample_rate(0);
    let was_enabled = ce_telemetry::enabled();
    ce_telemetry::set_enabled(true);
    let shard = pi_shard(Duration::ZERO);
    let mut client = HttpClient::connect(shard.local_addr()).expect("connect");
    assert_eq!(post_predict(&mut client, None).status, 200);
    let resp = client.get("/metrics").expect("scrape");
    assert_eq!(resp.status, 200);
    let body = String::from_utf8_lossy(&resp.body).to_string();
    for metric in [
        "cardest_serve_poller_wakeups",
        "cardest_serve_poller_dispatches",
        "cardest_serve_parked_conns",
        "cardest_serve_dispatch_depth",
    ] {
        assert!(body.contains(metric), "missing {metric} in exposition:\n{body}");
    }
    ce_telemetry::set_enabled(was_enabled);
    shard.drain();
}

/// The router's `/metrics` aggregates every live shard's exposition with a
/// `shard="…"` label — and hostile shard names (quotes, newlines) are
/// escaped per the Prometheus text format.
#[test]
fn router_metrics_aggregate_the_fleet_with_escaped_labels() {
    let _guard = trace_lock();
    trace::reset();
    trace::set_sample_rate(0);
    let was_enabled = ce_telemetry::enabled();
    ce_telemetry::set_enabled(true);
    let shard = pi_shard(Duration::ZERO);
    // A second "shard" with a hostile name, exposing one bare metric line.
    let hostile = HttpServer::bind(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::new(|req: &Request| match (req.method, req.path()) {
            ("GET", "/readyz") => Response::text(200, "ready"),
            ("GET", "/metrics") => Response::new(200)
                .header("Content-Type", "text/plain; version=0.0.4")
                .body("# TYPE hostile_up gauge\nhostile_up 1\n".to_string()),
            _ => Response::text(404, "nope"),
        }),
    )
    .expect("bind hostile shard");
    let router = start_cluster_router(
        &[
            ("shard-0".to_string(), shard.local_addr()),
            ("ev\"il\nshard".to_string(), hostile.local_addr()),
        ],
        "127.0.0.1:0",
        ClusterRouterConfig::default(),
    )
    .expect("bind router");
    let mut client = HttpClient::connect(router.local_addr()).expect("connect");
    // Prime the shard's own metrics registry, then scrape the router.
    let mut shard_client = HttpClient::connect(shard.local_addr()).expect("connect");
    assert_eq!(shard_client.get("/metrics").expect("prime").status, 200);
    let resp = client.get("/metrics").expect("scrape");
    assert_eq!(resp.status, 200);
    let body = String::from_utf8_lossy(&resp.body).to_string();
    assert!(
        body.contains("{shard=\"shard-0\"}") || body.contains("shard=\"shard-0\","),
        "missing shard-labeled samples:\n{body}"
    );
    assert!(
        body.contains("hostile_up{shard=\"ev\\\"il\\nshard\"} 1"),
        "hostile shard name not escaped:\n{body}"
    );
    // The merged view must stay free of per-shard comment lines (duplicate
    // # TYPE metadata would make the exposition invalid).
    assert!(!body.contains("# TYPE hostile_up"), "shard comments must be dropped");
    ce_telemetry::set_enabled(was_enabled);
    router.drain();
    hostile.shutdown();
    shard.drain();
}

/// The router renders its own series through one function, so `/metrics`
/// names them `cardest_cluster_*` with telemetry on and off alike, and the
/// truth-lag family labels each shard by its name verbatim: shards `a.b`
/// and `a-b` stay two series instead of colliding in a mangled metric name.
/// No scrape declares a metric family twice, even after the prober has run
/// a round over both shards with telemetry on.
#[test]
fn router_cluster_series_have_the_same_names_with_telemetry_on_and_off() {
    let _guard = trace_lock();
    trace::reset();
    trace::set_sample_rate(0);
    let was_enabled = ce_telemetry::enabled();
    ce_telemetry::set_enabled(true);
    // Stub shards answer predicts but reject the truth fan-out, so every
    // replicated truth is charged to the backup's lag.
    let stub = || {
        HttpServer::bind(
            "127.0.0.1:0",
            ServerConfig::default(),
            Arc::new(|req: &Request| match (req.method, req.path()) {
                ("GET", "/readyz") => Response::text(200, "ready"),
                ("POST", "/v1/predict") => Response::json(200, "{\"results\":[]}"),
                ("POST", "/v1/observe") => Response::json(400, "{\"error\":\"rejected\"}"),
                _ => Response::text(404, "nope"),
            }),
        )
        .expect("bind stub shard")
    };
    let (dotted, dashed) = (stub(), stub());
    let router = start_cluster_router(
        &[("a.b".to_string(), dotted.local_addr()), ("a-b".to_string(), dashed.local_addr())],
        "127.0.0.1:0",
        ClusterRouterConfig {
            router: RouterConfig { replicas: 2, ..RouterConfig::default() },
            ..ClusterRouterConfig::default()
        },
    )
    .expect("bind router");
    let mut client = HttpClient::connect(router.local_addr()).expect("connect");
    for i in 0..16 {
        let body = format!("{{\"features\":[[{i}]],\"truths\":[0.5]}}");
        assert_eq!(client.post("/v1/predict", body.as_bytes()).expect("predict").status, 200);
    }
    let scrape = |client: &mut HttpClient| {
        let resp = client.get("/metrics").expect("scrape");
        assert_eq!(resp.status, 200);
        String::from_utf8_lossy(&resp.body).into_owned()
    };
    let lag_series = [
        "cardest_cluster_truth_lag{shard=\"a.b\"}",
        "cardest_cluster_truth_lag{shard=\"a-b\"}",
    ];
    let deadline = Instant::now() + Duration::from_secs(5);
    while !lag_series.iter().all(|s| scrape(&mut client).contains(s))
        || router.fleet_stats().probe_rounds == 0
    {
        assert!(Instant::now() < deadline, "both shards should lag:\n{}", scrape(&mut client));
        std::thread::sleep(Duration::from_millis(20));
    }
    let cluster_names = |body: &str| -> std::collections::BTreeSet<String> {
        body.lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| line.split(['{', ' ']).next())
            .filter(|name| name.starts_with("cardest_cluster_"))
            .map(str::to_string)
            .collect()
    };
    let mut bodies = Vec::new();
    for telemetry_on in [true, false] {
        ce_telemetry::set_enabled(telemetry_on);
        bodies.push(scrape(&mut client));
    }
    ce_telemetry::set_enabled(was_enabled);
    for body in &bodies {
        for series in lag_series {
            assert!(body.contains(series), "missing {series}:\n{body}");
        }
        let mut declared = std::collections::BTreeSet::new();
        for family in body.lines().filter_map(|line| line.strip_prefix("# TYPE ")) {
            let name = family.split(' ').next().unwrap_or(family);
            assert!(declared.insert(name), "`# TYPE {name}` declared twice:\n{body}");
        }
    }
    let (on, off) = (cluster_names(&bodies[0]), cluster_names(&bodies[1]));
    assert!(on.contains("cardest_cluster_requests"), "{on:?}");
    assert!(on.contains("cardest_cluster_truth_lag"), "{on:?}");
    assert_eq!(on, off, "telemetry on and off must name the same series");
    router.drain();
    dotted.shutdown();
    dashed.shutdown();
}

/// The shard renders `/metrics` as one exposition with telemetry on or off:
/// no family is declared twice, every sample sits under its own family's
/// `# TYPE` line, and the series the process owns (connections, poller,
/// batchers, cache, per-model and per-tenant) leave in both scrapes, read
/// fresh from their structs.
#[test]
fn shard_scrape_declares_each_family_once_with_telemetry_on_and_off() {
    let _guard = trace_lock();
    trace::reset();
    trace::set_sample_rate(0);
    ce_telemetry::global().reset();
    let was_enabled = ce_telemetry::enabled();
    ce_telemetry::set_enabled(true);
    let registry = ModelRegistry::new(RegistryTuning { cache_entries: 16, ..Default::default() })
        .with_limiter(RateLimit::new(1000.0, 1000.0).expect("valid limit"));
    registry.register("default", pi_engine(Duration::ZERO));
    registry.register("alt", pi_engine(Duration::ZERO));
    let shard = start_registry_server(
        Arc::new(registry),
        "127.0.0.1:0",
        HttpServeConfig { workers: 2, ..Default::default() },
    )
    .expect("bind registry shard");
    let mut client = HttpClient::connect(shard.local_addr()).expect("connect");
    // Twice per model, so the second request of each is a cache hit.
    for path in ["/v1/predict", "/v1/predict/alt", "/v1/predict", "/v1/predict/alt"] {
        let headers = vec![("content-type", "application/json"), (TENANT_HEADER, "t\"1")];
        let resp = client.request("POST", path, headers, PREDICT_BODY).expect("predict");
        assert_eq!(resp.status, 200, "{path}");
    }
    let mut bodies = Vec::new();
    for telemetry_on in [true, false] {
        ce_telemetry::set_enabled(telemetry_on);
        let resp = client.get("/metrics").expect("scrape");
        assert_eq!(resp.status, 200);
        bodies.push(String::from_utf8_lossy(&resp.body).into_owned());
    }
    ce_telemetry::set_enabled(was_enabled);
    shard.drain();

    let owned = |body: &str| -> std::collections::BTreeSet<String> {
        let mut declared = std::collections::BTreeSet::new();
        let mut family: Option<(&str, &str)> = None;
        let mut series = std::collections::BTreeSet::new();
        for line in body.lines() {
            if let Some(decl) = line.strip_prefix("# TYPE ") {
                let (name, kind) = decl.split_once(' ').expect("`# TYPE name kind`");
                assert!(declared.insert(name), "`# TYPE {name}` declared twice:\n{body}");
                family = Some((name, kind));
                continue;
            }
            let (sample, _value) = line.rsplit_once(' ').expect("`series value`");
            let name = sample.split('{').next().unwrap_or(sample);
            let (current, kind) = family.unwrap_or_else(|| panic!("{line} before any # TYPE"));
            let base = match kind {
                "histogram" => ["_bucket", "_sum", "_count"]
                    .iter()
                    .find_map(|suffix| name.strip_suffix(suffix))
                    .unwrap_or(name),
                _ => name,
            };
            assert_eq!(base, current, "`{line}` is not under its family's # TYPE:\n{body}");
            if ["cardest_serve_", "cardest_tenant_", "cardest_model_"]
                .iter()
                .any(|prefix| name.starts_with(prefix))
            {
                series.insert(sample.to_string());
            }
        }
        series
    };
    let (on, off) = (owned(&bodies[0]), owned(&bodies[1]));
    assert_eq!(on, off, "telemetry on and off must carry the same owned series");
    // Owned series are read at scrape time, not copied while telemetry was
    // on: the second scrape counts the first as a served request.
    let served = |body: &str| -> f64 {
        let line = body.lines().find_map(|l| l.strip_prefix("cardest_serve_requests "));
        line.and_then(|v| v.parse().ok()).expect("cardest_serve_requests sample")
    };
    assert_eq!(served(&bodies[1]), served(&bodies[0]) + 1.0, "stale:\n{}", bodies[1]);
    // Each cache lookup is counted once, by its model: the shard totals are
    // the per-model counts summed (one miss, then one hit, per model).
    let sum = |body: &str, prefix: &str| -> f64 {
        let samples = body.lines().filter(|l| l.starts_with(prefix));
        samples.map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<f64>().ok()).unwrap()).sum()
    };
    for body in &bodies {
        for (total, per_model) in [
            ("cardest_tenant_cache_hit ", "cardest_model_cache_hits{"),
            ("cardest_tenant_cache_miss ", "cardest_model_cache_misses{"),
        ] {
            assert_eq!(sum(body, total), 2.0, "{total}:\n{body}");
            assert_eq!(sum(body, per_model), 2.0, "{per_model}:\n{body}");
        }
    }
    for prefix in [
        "cardest_serve_conns_",
        "cardest_serve_poller_",
        "cardest_serve_batch_",
        "cardest_tenant_cache_",
        "cardest_tenant_queue_depth{tenant=\"t\\\"1\"}",
        "cardest_tenant_rate_shed{tenant=\"t\\\"1\"}",
        "cardest_model_observations{model=\"default\"}",
        "cardest_model_observations{model=\"alt\"}",
        "cardest_model_mode_drifted{model=\"default\"}",
        "cardest_model_mode_drifted{model=\"alt\"}",
    ] {
        assert!(off.iter().any(|s| s.starts_with(prefix)), "missing {prefix}*:\n{}", bodies[1]);
    }
}

/// [`pi_engine`]'s calibration behind a primary whose forward returns NaN
/// while `failing` is set, with a conformal fallback. Every call returns
/// one type, so two of these share a registry.
fn switchable_engine(
    failing: Arc<AtomicBool>,
) -> ServeEngine<impl Fn(&[f32]) -> f64 + Send + Sync + 'static, AbsoluteResidual> {
    let (xs, ys) = pi_calibration();
    let model = move |f: &[f32]| {
        if failing.load(Ordering::SeqCst) {
            f64::NAN
        } else {
            f64::from(f[0])
        }
    };
    let healing = SelfHealingService::new(
        model,
        AbsoluteResidual,
        &xs,
        &ys,
        PiServiceConfig::default(),
        HealConfig::default(),
    );
    let fallback =
        OnlineConformal::new(|f: &[f32]| f64::from(f[0]), AbsoluteResidual, &xs, &ys, 0.1);
    ServeEngine::new(healing, vec![Box::new(fallback)], 1)
}

/// A request body: the features `xs`, and the truths `xs[i] + shifts[i]`
/// when `shifts` is given.
fn body(xs: &[f32], shifts: Option<&[f64]>) -> Vec<u8> {
    let list = |items: Vec<String>| items.join(",");
    let features = list(xs.iter().map(|x| format!("[{x}]")).collect());
    let Some(shifts) = shifts else {
        return format!("{{\"features\":[{features}]}}").into_bytes();
    };
    let truths =
        list(xs.iter().zip(shifts).map(|(&x, s)| (f64::from(x) + s).to_string()).collect());
    format!("{{\"features\":[{features}],\"truths\":[{truths}]}}").into_bytes()
}

/// Each model explains itself on `/metrics`, with telemetry on and off:
/// `default` has an open primary breaker, a fallback that served, a
/// promoted recalibration and a rolling coverage of one half; `alt` is
/// calm. Every chain fact leaves labeled with its model, and no
/// process-level family carries one.
#[test]
fn shard_scrape_labels_each_models_chain_facts_with_telemetry_on_and_off() {
    let _guard = trace_lock();
    trace::reset();
    trace::set_sample_rate(0);
    ce_telemetry::global().reset();
    let was_enabled = ce_telemetry::enabled();
    ce_telemetry::set_enabled(true);

    // Residuals that grow past every calibrated score (each truth is
    // missed, so the coverage alarm fires), then settle at 0.25: the
    // healing layer gathers the settled scores and promotes a refit. An
    // identical engine finds the truth that promotes.
    let xs: Vec<f32> = (0..400).map(|i| (i % 32) as f32 / 32.0).collect();
    let shifts: Vec<f64> =
        (0..xs.len()).map(|i| if i < 80 { 0.1 + i as f64 / 1000.0 } else { 0.25 }).collect();
    let probe = switchable_engine(Arc::new(AtomicBool::new(false)));
    let promoting = (0..xs.len())
        .find(|&i| {
            let before = probe.heal_state();
            probe.observe(&[xs[i]], f64::from(xs[i]) + shifts[i]);
            before == HealState::Recalibrating && probe.heal_state() == HealState::Healthy
        })
        .expect("the drifted stream promotes")
        + 1;

    let failing = Arc::new(AtomicBool::new(false));
    let registry = ModelRegistry::new(RegistryTuning::default());
    registry.register("default", switchable_engine(Arc::clone(&failing)));
    registry.register("alt", switchable_engine(Arc::new(AtomicBool::new(false))));
    let shard = start_registry_server(
        Arc::new(registry),
        "127.0.0.1:0",
        HttpServeConfig { workers: 2, ..Default::default() },
    )
    .expect("bind registry shard");
    let mut client = HttpClient::connect(shard.local_addr()).expect("connect");
    let mut post = |path: &str, body: &[u8]| {
        let headers = vec![("content-type", "application/json")];
        let resp = client.request("POST", path, headers, body).expect("post");
        assert_eq!(resp.status, 200, "{path}: {}", String::from_utf8_lossy(&resp.body));
    };
    post("/v1/observe/default", &body(&xs[..promoting], Some(&shifts)));
    // After the promotion one truth is covered and one missed.
    post("/v1/observe/default", &body(&[0.5, 0.5], Some(&[0.0, 10.0])));
    post("/v1/observe/alt", &body(&xs[..8], Some(&[0.01; 8])));
    let eight = body(&xs[..8], None);
    post("/v1/predict/alt", &eight);
    // A primary that answers NaN fails five queries and its breaker opens;
    // the fallback answers all eight.
    failing.store(true, Ordering::SeqCst);
    post("/v1/predict/default", &eight);

    let mut bodies = Vec::new();
    for telemetry_on in [true, false] {
        ce_telemetry::set_enabled(telemetry_on);
        let resp = client.get("/metrics").expect("scrape");
        assert_eq!(resp.status, 200);
        bodies.push(String::from_utf8_lossy(&resp.body).into_owned());
    }
    ce_telemetry::set_enabled(was_enabled);
    shard.drain();

    let model_series = |body: &str| -> Vec<String> {
        body.lines().filter(|l| l.starts_with("cardest_model_")).map(str::to_string).collect()
    };
    assert_eq!(model_series(&bodies[0]), model_series(&bodies[1]), "on and off differ");
    for body in &bodies {
        for (fact, default, alt) in [
            ("breakers_open", "1", "0"),
            ("breaker_trips", "1", "0"),
            ("fallback_served", "8", "0"),
            ("promotions", "1", "0"),
            ("coverage", "0.5", "1.0"),
            ("queries", "8", "8"),
        ] {
            for (model, value) in [("default", default), ("alt", alt)] {
                let series = format!("cardest_model_{fact}{{model=\"{model}\"}} {value}");
                assert!(body.lines().any(|l| l == series), "missing `{series}`:\n{body}");
            }
        }
        // Process families hold process facts only: no unlabeled mirror of
        // one chain's gauges, and no gauge every engine overwrites.
        for decl in body.lines().filter_map(|line| line.strip_prefix("# TYPE ")) {
            let (name, kind) = decl.split_once(' ').expect("`# TYPE name kind`");
            assert!(
                !(name.starts_with("cardest_resilient_") && kind == "gauge"),
                "per-chain gauge `{name}` in the shard scrape:\n{body}"
            );
            assert!(
                ![
                    "cardest_heal_state",
                    "cardest_heal_rollbacks",
                    "cardest_heal_promotions",
                    "cardest_monitor_coverage",
                    "cardest_monitor_drift_active",
                ]
                .contains(&name),
                "per-model family `{name}` in the process registry:\n{body}"
            );
        }
    }
}
