//! Cluster mode: the cardest-facing router process in front of a fleet of
//! shared-nothing `serve --listen` shards (DESIGN.md §11).
//!
//! ```text
//!                        ┌────────────────────────────┐
//!  clients ──▶ router ───┤ consistent-hash ring       │──▶ shard 0 (serve --listen)
//!              │         │ (signature = FNV-1a(body)) │──▶ shard 1
//!              │         └────────────────────────────┘──▶ shard N-1
//!              └── health checker: GET /readyz per shard, hysteresis
//! ```
//!
//! The router owns no estimator state — it hashes each predict request's
//! body to a signature, walks the ring's candidate list, and forwards to
//! the first shard that answers (`ce_server::router` does the legwork:
//! pooled connections, failover on refusal/error, retry budget, deadline).
//! Because the signature is a pure function of the request bytes, a given
//! query always lands on the same live shard — its calibration feedback
//! (truths ride the predict body) accumulates on one shard's state, and
//! re-asking the same query hits the same state. Shard loss degrades
//! capacity, never correctness: ejected shards' keys fail over to their
//! ring successors, and a shard restarted from its checkpoint (`--resume`)
//! is readmitted with its exact placement — shards are keyed by stable
//! *name*, so a restart on a new port re-registers the address without
//! moving any keys.
//!
//! Local endpoints (not proxied): `GET /healthz` (router liveness),
//! `GET /readyz` (`200` iff ≥ 1 live shard), `GET /metrics` (router,
//! fleet, and server counters as Prometheus text — plus every live shard's
//! own `/metrics`, each sample re-labeled with `shard="<name>"` so one
//! scrape shows the whole fleet), `GET /debug/trace` (the router's flight
//! recorder as JSON). `POST /v1/predict` is routed; everything else is
//! `404`/`405` at the router without burning a shard leg.
//!
//! Tracing (DESIGN.md §13): a sampled predict (or any predict carrying a
//! valid 32-hex `x-ce-trace`) is traced across the hop — the router mints
//! or adopts the ID, injects it into the forwarded request, merges the
//! shard's `x-ce-stages` report into its own record, and attributes the
//! un-reported remainder of the forward time to the `network` stage. The
//! response carries the router's ID and combined stage view.
//!
//! Replication and hedging (DESIGN.md §14): with `replicas > 1` each
//! signature owns an R-way replica set (the first R distinct live shards
//! clockwise on the ring). Predictions go to the primary with failover
//! preferring the backups, optionally hedged against tail latency
//! (`RouterConfig::hedge`). Truth-carrying predicts are stamped with a
//! minted `x-ce-truth-id` and, after a successful response, fanned out to
//! the remaining replicas as `POST /v1/observe` — best-effort with a
//! bounded retry budget, so a promoted backup serves from warm calibration
//! state. The truth ID makes the fan-out idempotent per shard: a backup
//! that already absorbed the truths (it served the hedged predict) drops
//! the duplicate.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ce_server::{
    fnv1a64, ClientConfig, Fleet, FleetStats, Headers, HealthChecker, HealthConfig,
    HttpClient, HttpServer, Request, Response, Router, RouterConfig, RouterStats,
    ServerConfig, ServerStats, STAGES_HEADER, TRACE_HEADER, TRUTH_HEADER,
};
use ce_telemetry::trace::{self, TraceId};

/// Tuning for [`start_cluster_router`]: the front server, the failover
/// engine, and the health prober in one bundle.
#[derive(Debug, Clone)]
pub struct ClusterRouterConfig {
    /// HTTP worker threads on the router's front server.
    pub workers: usize,
    /// Virtual nodes per shard on the ring.
    pub vnodes: usize,
    /// Failover engine tuning (retry budget, deadline, leg timeouts).
    pub router: RouterConfig,
    /// Health prober tuning (probe path/interval, hysteresis thresholds).
    pub health: HealthConfig,
}

impl Default for ClusterRouterConfig {
    fn default() -> Self {
        ClusterRouterConfig {
            workers: 4,
            vnodes: 64,
            router: RouterConfig::default(),
            health: HealthConfig::default(),
        }
    }
}

/// A running cluster router; dropping it (or calling
/// [`ClusterRouterHandle::drain`]) stops the prober and drains the server.
pub struct ClusterRouterHandle {
    server: HttpServer,
    router: Arc<Router>,
    checker: std::sync::Mutex<HealthChecker>,
    draining: Arc<AtomicBool>,
}

impl ClusterRouterHandle {
    /// The router's bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The shared fleet — used to re-register a restarted shard's address
    /// ([`Fleet::set_addr`]) and to inspect liveness.
    pub fn fleet(&self) -> &Fleet {
        self.router.fleet()
    }

    /// Forwarding counters.
    pub fn router_stats(&self) -> RouterStats {
        self.router.stats()
    }

    /// Per-backup truth propagation lag: replicas that missed fan-outs
    /// (after the retry budget), sorted by shard name.
    pub fn truth_lag(&self) -> Vec<(String, u64)> {
        self.router.truth_lag()
    }

    /// Health/hysteresis counters.
    pub fn fleet_stats(&self) -> FleetStats {
        self.router.fleet().stats()
    }

    /// Front-server connection counters.
    pub fn server_stats(&self) -> ServerStats {
        self.server.stats()
    }

    /// Graceful drain: readiness flips to 503, the prober stops, the accept
    /// loop stops, and in-flight requests finish. Blocks; idempotent.
    pub fn drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            trace::event("drain", "router drain requested");
        }
        self.checker.lock().unwrap_or_else(|e| e.into_inner()).stop();
        self.server.shutdown();
    }
}

impl Drop for ClusterRouterHandle {
    fn drop(&mut self) {
        self.drain();
    }
}

/// The routing signature of a predict request: FNV-1a over the raw body
/// bytes. Pure, stable across processes — every router instance (and the
/// experiment's direct audit) places a given request identically.
pub fn request_signature(body: &[u8]) -> u64 {
    fnv1a64(body)
}

/// The placement key for a (possibly model-addressed) predict request.
///
/// The bare `POST /v1/predict` keeps its original content-addressed key
/// ([`request_signature`]) — a PR 9 fleet's placement is unchanged byte for
/// byte. A named `POST /v1/predict/{model}` folds the model name into the
/// FNV-1a chain *before* the body (`name ++ '/' ++ body` — `/` cannot
/// appear inside a path segment, so distinct (model, body) pairs can never
/// collide by concatenation), so the same query text against two models
/// lands on independently-placed shards: one hot model cannot gravitate an
/// entire multi-tenant workload onto one shard's calibration state.
pub fn placement_signature(model: Option<&str>, body: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    match model {
        None => fnv1a64(body),
        Some(name) => {
            let mut hash = fnv1a64(name.as_bytes());
            for &byte in std::iter::once(&b'/').chain(body) {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
            hash
        }
    }
}

/// Starts the cluster router on `listen` over `shards` (`(name, addr)`
/// pairs; names are the stable ring identity, addresses may be updated
/// later via [`Fleet::set_addr`]).
pub fn start_cluster_router(
    shards: &[(String, SocketAddr)],
    listen: &str,
    config: ClusterRouterConfig,
) -> std::io::Result<ClusterRouterHandle> {
    // Pre-size the flight recorder off the hot path.
    trace::warm();
    let fleet = Fleet::new(shards, config.vnodes, config.health.clone());
    let router = Arc::new(Router::new(fleet.clone(), config.router));
    let checker = HealthChecker::start(fleet);
    let draining = Arc::new(AtomicBool::new(false));
    let handler = {
        let router = Arc::clone(&router);
        let draining = Arc::clone(&draining);
        move |req: &Request| route(req, &router, &draining)
    };
    let server = HttpServer::bind(
        listen,
        ServerConfig { workers: config.workers, ..ServerConfig::default() },
        Arc::new(handler),
    )?;
    Ok(ClusterRouterHandle {
        server,
        router,
        checker: std::sync::Mutex::new(checker),
        draining,
    })
}

fn route(req: &Request, router: &Router, draining: &AtomicBool) -> Response {
    match (req.method, req.path()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => {
            if draining.load(Ordering::SeqCst) {
                Response::text(503, "draining\n")
            } else if router.fleet().live_count() == 0 {
                Response::text(503, "no live shards\n")
            } else {
                Response::text(200, "ready\n")
            }
        }
        ("GET", "/metrics") => {
            publish_metrics(router);
            let mut body = if ce_telemetry::enabled() {
                ce_telemetry::global().to_prometheus()
            } else {
                metrics_text(router)
            };
            body.push_str(&fleet_metrics(router));
            // Either branch is the Prometheus text exposition format, so
            // both must carry the `version=0.0.4` content type — scrapers
            // key parsing off it.
            Response::new(200)
                .header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
                .body(body)
        }
        ("GET", "/debug/trace") => Response::json(200, trace::snapshot_json()),
        ("POST", "/v1/predict") => {
            if draining.load(Ordering::SeqCst) {
                return Response::json(503, "{\"error\":\"router draining\"}")
                    .header("Retry-After", "1");
            }
            forward_traced(req, router, None)
        }
        // Multi-tenant passthrough (DESIGN.md §15): a named predict is
        // forwarded verbatim — the shard resolves the model — but its
        // placement key folds the model name in, so per-model workloads
        // spread independently across the ring.
        ("POST", p) if model_suffix(p).is_some() => {
            if draining.load(Ordering::SeqCst) {
                return Response::json(503, "{\"error\":\"router draining\"}")
                    .header("Retry-After", "1");
            }
            forward_traced(req, router, model_suffix(p))
        }
        (_, "/healthz" | "/readyz" | "/metrics" | "/debug/trace" | "/v1/predict") => {
            Response::json(405, "{\"error\":\"method not allowed\"}")
        }
        (_, p) if model_suffix(p).is_some() => {
            Response::json(405, "{\"error\":\"method not allowed\"}")
        }
        _ => Response::json(404, "{\"error\":\"no such endpoint\"}"),
    }
}

/// `/v1/predict/foo` → `Some("foo")`; the bare path (or an empty trailing
/// segment) is not a named route.
fn model_suffix(path: &str) -> Option<&str> {
    path.strip_prefix("/v1/predict/").filter(|rest| !rest.is_empty())
}

/// Mints a process-unique truth ID: 16 lowercase hex digits, never zero.
/// A SplitMix64 stream over an atomic sequence, seeded once per process
/// from the clock and PID so two routers never collide on a stream.
fn mint_truth_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        nanos ^ (u64::from(std::process::id()) << 32)
    });
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut z = seed.wrapping_add((n.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    if z == 0 {
        z = 1; // zero is the shard-side "no ID" sentinel
    }
    format!("{z:016x}")
}

/// Whether a predict body carries calibration truths. A substring probe,
/// not a JSON parse — a `"truths"` key inside a string literal is a false
/// positive, which costs one redundant fan-out of a body the shards will
/// ignore, never a lost truth.
fn body_has_truths(body: &[u8]) -> bool {
    body.windows(8).any(|w| w == b"\"truths\"")
}

/// After a served truth-carrying predict, re-posts the truths to the other
/// replicas as `POST /v1/observe` (or the model-addressed
/// `POST /v1/observe/{model}` when the predict was named) so a promoted
/// backup serves from warm calibration state. Best-effort: failures land in
/// the router's `truth_lag` ledger, never in the client's response.
fn replicate_truths(
    router: &Router,
    body: &[u8],
    signature: u64,
    id: &str,
    served: Option<&str>,
    model: Option<&str>,
) {
    let headers = [("content-type", "application/json"), (TRUTH_HEADER, id)];
    let target = match model {
        Some(name) => format!("/v1/observe/{name}"),
        None => "/v1/observe".to_string(),
    };
    let observe = Request {
        method: "POST",
        target: &target,
        http11: true,
        headers: Headers::from_pairs(&headers),
        body,
    };
    router.replicate(&observe, signature, served, &[]);
}

/// Forwards one predict request, threading the distributed trace across the
/// hop: the router's ID rides the outgoing leg as `x-ce-trace`, the shard's
/// `x-ce-stages` report is merged into the router's record, and whatever
/// part of the forward time the shard did not account for is attributed to
/// the `network` stage. Un-sampled requests take the plain forwarding path
/// untouched.
///
/// Replication rides the same path: at `replicas > 1` a truth-carrying
/// body is stamped with a minted truth ID on the predict leg and, on a
/// `200`, fanned out to the backups before the response returns. Hedging
/// is vetoed for truth-carrying bodies at single-owner — a lost hedge race
/// would observe the truths on a shard that does not own the key.
fn forward_traced(req: &Request, router: &Router, model: Option<&str>) -> Response {
    let signature = placement_signature(model, req.body);
    let has_truths = body_has_truths(req.body);
    let replicas = router.config().replicas;
    let allow_hedge = replicas > 1 || !has_truths;
    let truth_id =
        if has_truths && replicas > 1 { Some(mint_truth_id()) } else { None };
    // A valid client-supplied trace ID forces sampling (the upstream
    // decision propagates); a malformed one is ignored, never an error.
    let client_id = req.header(TRACE_HEADER).and_then(TraceId::parse);
    if client_id.is_none() && !trace::should_sample() {
        let mut extras: Vec<(&str, &str)> = Vec::new();
        if let Some(id) = &truth_id {
            extras.push((TRUTH_HEADER, id));
        }
        let (resp, outcome) = router.forward_opts(req, signature, &extras, allow_hedge);
        if let Some(id) = &truth_id {
            if resp.status == 200 {
                replicate_truths(
                    router,
                    req.body,
                    signature,
                    id,
                    outcome.served_by.as_deref(),
                    model,
                );
            }
        }
        return resp;
    }
    let id = client_id.unwrap_or_else(trace::mint);
    trace::begin(id);
    let id_text = id.to_string();
    let mut extras: Vec<(&str, &str)> = vec![(TRACE_HEADER, &id_text)];
    if let Some(tid) = &truth_id {
        extras.push((TRUTH_HEADER, tid));
    }
    let t_handle = Instant::now();
    let (mut resp, outcome) = router.forward_opts(req, signature, &extras, allow_hedge);
    let forward_ns = t_handle.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    if let Some(tid) = &truth_id {
        if resp.status == 200 {
            replicate_truths(
                router,
                req.body,
                signature,
                tid,
                outcome.served_by.as_deref(),
                model,
            );
        }
    }
    // Merge the shard's stage breakdown; the rest of the forward time is
    // connect/serialize/wire/shard-unreported — the network's share.
    let merged_ns = resp
        .headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(STAGES_HEADER))
        .map(|(_, v)| trace::merge_stages_header(v))
        .unwrap_or(0);
    trace::stage("network", forward_ns.saturating_sub(merged_ns));
    trace::stage("route", now_sub(t_handle).saturating_sub(forward_ns));
    // The response presents the *router's* combined view: drop whatever
    // trace headers the shard echoed and emit our own.
    resp.headers.retain(|(k, _)| {
        !k.eq_ignore_ascii_case(TRACE_HEADER) && !k.eq_ignore_ascii_case(STAGES_HEADER)
    });
    let mut resp = resp.header(TRACE_HEADER, &id_text);
    if let Some(stages) = trace::stages_header() {
        resp = resp.header(STAGES_HEADER, &stages);
    }
    resp
}

/// Saturating nanoseconds since `t`.
fn now_sub(t: Instant) -> u64 {
    t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Shard scrapes dropped at the fleet-wide deadline (satellite of the
/// replication PR): a hung shard must never stall `/metrics` exposition.
static FLEET_SCRAPE_TIMEOUTS: AtomicU64 = AtomicU64::new(0);

/// Scrapes every live shard's `/metrics` and re-labels each sample with
/// `shard="<name>"` (label values escaped per the exposition format — shard
/// names are operator-controlled and may contain anything), producing one
/// fleet-wide Prometheus view. Dead shards are skipped; a slow or broken
/// scrape only omits that shard's section.
///
/// Shards are scraped in parallel against one fleet-wide deadline: a
/// black-holed shard (accepting but never answering) costs at most
/// `SCRAPE_DEADLINE`, not a serial head-of-line stall of everyone behind
/// it. Shards missing at the deadline are counted in
/// `fleet_scrape_timeouts`; their threads finish on their own client
/// timeouts and their late sections are discarded.
fn fleet_metrics(router: &Router) -> String {
    const SCRAPE_DEADLINE: Duration = Duration::from_millis(750);
    let scrape_config = ClientConfig {
        connect_timeout: Duration::from_millis(200),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(200),
    };
    let (tx, rx) = mpsc::channel::<(String, Option<String>)>();
    let mut expected = 0usize;
    for (name, addr, live) in router.fleet().snapshot() {
        if !live {
            continue;
        }
        let tx = tx.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("ce-scrape-{name}"))
            .spawn(move || {
                let section = (|| {
                    let mut client = HttpClient::connect_with(addr, scrape_config).ok()?;
                    let resp = client.get("/metrics").ok()?;
                    if resp.status != 200 {
                        return None;
                    }
                    Some(String::from_utf8_lossy(&resp.body).into_owned())
                })();
                let _ = tx.send((name, section));
            });
        if spawned.is_ok() {
            expected += 1;
        }
    }
    drop(tx);
    let deadline = Instant::now() + SCRAPE_DEADLINE;
    let mut sections: Vec<(String, String)> = Vec::with_capacity(expected);
    let mut received = 0usize;
    while received < expected {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        match rx.recv_timeout(remaining) {
            Ok((name, Some(body))) => {
                sections.push((name, body));
                received += 1;
            }
            Ok((_, None)) => received += 1,
            Err(_) => break,
        }
    }
    let missing = (expected - received) as u64;
    if missing > 0 {
        FLEET_SCRAPE_TIMEOUTS.fetch_add(missing, Ordering::Relaxed);
        trace::event("scrape_timeout", "shard metrics scrape hit the fleet deadline");
    }
    // Deterministic section order regardless of which scrape won the race.
    sections.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::new();
    for (name, body) in &sections {
        out.push_str(&inject_shard_label(body, name));
    }
    out
}

/// Rewrites one shard's Prometheus text so every sample carries a
/// `shard="<escaped name>"` label. Comment lines (`# TYPE`, `# HELP`) are
/// dropped — repeated per-shard metadata would make the merged exposition
/// invalid.
fn inject_shard_label(body: &str, shard: &str) -> String {
    let label = format!("shard=\"{}\"", ce_telemetry::escape_label_value(shard));
    let mut out = String::with_capacity(body.len() + body.lines().count() * (label.len() + 2));
    for line in body.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(space) = line.rfind(' ') else { continue };
        let (series, value) = line.split_at(space);
        match series.find('{') {
            // `name{le="…"} v` → `name{shard="…",le="…"} v`
            Some(brace) => {
                out.push_str(&series[..=brace]);
                out.push_str(&label);
                if !series[brace + 1..].trim_start().starts_with('}') {
                    out.push(',');
                }
                out.push_str(&series[brace + 1..]);
            }
            // `name v` → `name{shard="…"} v`
            None => {
                out.push_str(series);
                out.push('{');
                out.push_str(&label);
                out.push('}');
            }
        }
        out.push_str(value);
        out.push('\n');
    }
    out
}

/// Mirrors router + fleet counters into the `ce-telemetry` registry (scraped
/// by `/metrics` when telemetry is enabled).
fn publish_metrics(router: &Router) {
    if !ce_telemetry::enabled() {
        return;
    }
    let stats = router.stats();
    ce_telemetry::gauge("cluster.requests").set(stats.requests as f64);
    ce_telemetry::gauge("cluster.served_primary").set(stats.served_primary as f64);
    ce_telemetry::gauge("cluster.served_failover").set(stats.served_failover as f64);
    ce_telemetry::gauge("cluster.leg_errors").set(stats.leg_errors as f64);
    ce_telemetry::gauge("cluster.pool_stale").set(stats.pool_stale as f64);
    ce_telemetry::gauge("cluster.leg_sheds").set(stats.leg_sheds as f64);
    ce_telemetry::gauge("cluster.exhausted").set(stats.exhausted as f64);
    ce_telemetry::gauge("cluster.deadline_exceeded").set(stats.deadline_exceeded as f64);
    ce_telemetry::gauge("cluster.hedges_fired").set(stats.hedges_fired as f64);
    ce_telemetry::gauge("cluster.hedge_wins").set(stats.hedge_wins as f64);
    ce_telemetry::gauge("cluster.hedge_cancelled").set(stats.hedge_cancelled as f64);
    ce_telemetry::gauge("cluster.truth_fanouts").set(stats.truth_fanouts as f64);
    ce_telemetry::gauge("cluster.truth_replicated").set(stats.truth_replicated as f64);
    ce_telemetry::gauge("cluster.fleet_scrape_timeouts")
        .set(FLEET_SCRAPE_TIMEOUTS.load(Ordering::Relaxed) as f64);
    for (name, lag) in router.truth_lag() {
        ce_telemetry::gauge(&format!("cluster.truth_lag.{name}")).set(lag as f64);
    }
    let fleet = router.fleet().stats();
    ce_telemetry::gauge("cluster.live_shards").set(router.fleet().live_count() as f64);
    ce_telemetry::gauge("cluster.ejections").set(fleet.ejections as f64);
    ce_telemetry::gauge("cluster.readmissions").set(fleet.readmissions as f64);
    ce_telemetry::gauge("cluster.probe_failed").set(fleet.probe_failed as f64);
}

/// Plain-text fallback for `/metrics` when telemetry is globally off: the
/// same counters, one `name value` per line.
fn metrics_text(router: &Router) -> String {
    let stats = router.stats();
    let fleet = router.fleet().stats();
    let mut out = String::with_capacity(512);
    for (name, value) in [
        ("cluster_requests", stats.requests),
        ("cluster_served_primary", stats.served_primary),
        ("cluster_served_failover", stats.served_failover),
        ("cluster_leg_errors", stats.leg_errors),
        ("cluster_pool_stale", stats.pool_stale),
        ("cluster_leg_sheds", stats.leg_sheds),
        ("cluster_exhausted", stats.exhausted),
        ("cluster_deadline_exceeded", stats.deadline_exceeded),
        ("cluster_hedges_fired", stats.hedges_fired),
        ("cluster_hedge_wins", stats.hedge_wins),
        ("cluster_hedge_cancelled", stats.hedge_cancelled),
        ("cluster_truth_fanouts", stats.truth_fanouts),
        ("cluster_truth_replicated", stats.truth_replicated),
        ("cluster_fleet_scrape_timeouts", FLEET_SCRAPE_TIMEOUTS.load(Ordering::Relaxed)),
        ("cluster_live_shards", router.fleet().live_count() as u64),
        ("cluster_ejections", fleet.ejections),
        ("cluster_readmissions", fleet.readmissions),
        ("cluster_probe_failed", fleet.probe_failed),
    ] {
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    for (name, lag) in router.truth_lag() {
        out.push_str("cluster_truth_lag{shard=\"");
        out.push_str(&ce_telemetry::escape_label_value(&name));
        out.push_str("\"} ");
        out.push_str(&lag.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_server::HttpClient;

    /// A stand-in shard: answers /readyz and echoes predict bodies with a
    /// tag, so routing (not estimation) is what these tests exercise.
    fn stub_shard(tag: &'static str) -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0",
            ServerConfig::default(),
            Arc::new(move |req: &Request| match (req.method, req.path()) {
                ("GET", "/readyz") => Response::text(200, "ready"),
                ("POST", p) if p.starts_with("/v1/predict") => {
                    let mut body = req.body.to_vec();
                    body.extend_from_slice(tag.as_bytes());
                    Response::json(200, body)
                }
                _ => Response::text(404, "nope"),
            }),
        )
        .expect("bind stub shard")
    }

    fn quick_health() -> HealthConfig {
        HealthConfig {
            probe_interval: Duration::from_millis(10),
            connect_timeout: Duration::from_millis(100),
            read_timeout: Duration::from_millis(200),
            fail_threshold: 2,
            recover_threshold: 2,
            ..HealthConfig::default()
        }
    }

    #[test]
    fn truth_ids_are_unique_nonzero_lowercase_hex() {
        let a = mint_truth_id();
        let b = mint_truth_id();
        assert_ne!(a, b, "sequential mints must differ");
        for id in [&a, &b] {
            assert_eq!(id.len(), 16);
            assert!(id.bytes().all(|c| matches!(c, b'0'..=b'9' | b'a'..=b'f')));
            assert_ne!(u64::from_str_radix(id, 16).unwrap(), 0);
        }
    }

    #[test]
    fn body_has_truths_probes_for_the_key() {
        assert!(body_has_truths(br#"{"features":[[1.0]],"truths":[2.0]}"#));
        assert!(!body_has_truths(br#"{"features":[[1.0]]}"#));
        assert!(!body_has_truths(b""));
    }

    /// A stub shard that also counts `/v1/observe` posts, for the
    /// replication fan-out test.
    fn counting_shard(
        tag: &'static str,
        observes: Arc<std::sync::atomic::AtomicU64>,
    ) -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0",
            ServerConfig::default(),
            Arc::new(move |req: &Request| match (req.method, req.path()) {
                ("GET", "/readyz") => Response::text(200, "ready"),
                ("POST", "/v1/predict") => {
                    let mut body = req.body.to_vec();
                    body.extend_from_slice(tag.as_bytes());
                    Response::json(200, body)
                }
                ("POST", "/v1/observe") => {
                    observes.fetch_add(1, Ordering::Relaxed);
                    Response::json(200, "{\"observed\":1,\"deduped\":false}")
                }
                _ => Response::text(404, "nope"),
            }),
        )
        .expect("bind counting shard")
    }

    #[test]
    fn truths_fan_out_to_the_backup_replica_only() {
        let obs0 = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let obs1 = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let s0 = counting_shard("@0", Arc::clone(&obs0));
        let s1 = counting_shard("@1", Arc::clone(&obs1));
        let shards = vec![
            ("shard-0".to_string(), s0.local_addr()),
            ("shard-1".to_string(), s1.local_addr()),
        ];
        let handle = start_cluster_router(
            &shards,
            "127.0.0.1:0",
            ClusterRouterConfig {
                router: RouterConfig { replicas: 2, ..RouterConfig::default() },
                health: quick_health(),
                ..Default::default()
            },
        )
        .expect("bind router");
        let mut client = HttpClient::connect(handle.local_addr()).unwrap();
        // Truth-less predict: served, but no fan-out.
        let resp = client.post("/v1/predict", br#"{"features":[[1.0]]}"#).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            obs0.load(Ordering::Relaxed) + obs1.load(Ordering::Relaxed),
            0,
            "no truths, no fan-out"
        );
        // Truth-carrying predict: the serving shard absorbs via the predict
        // path, the *other* replica gets exactly one /v1/observe post.
        let body = br#"{"features":[[1.0]],"truths":[4.0]}"#;
        let resp = client.post("/v1/predict", body).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            obs0.load(Ordering::Relaxed) + obs1.load(Ordering::Relaxed),
            1,
            "exactly the non-serving replica is posted to"
        );
        let stats = handle.router_stats();
        assert_eq!(stats.truth_fanouts, 1);
        assert_eq!(stats.truth_replicated, 1);
        assert!(handle.router_stats().requests >= 2);
        assert!(
            handle.truth_lag().iter().all(|(_, lag)| *lag == 0),
            "healthy backups must not accrue lag"
        );
        handle.drain();
    }

    #[test]
    fn signature_is_stable_and_content_addressed() {
        let a = request_signature(b"{\"features\":[[1.0,2.0]]}");
        let b = request_signature(b"{\"features\":[[1.0,2.0]]}");
        let c = request_signature(b"{\"features\":[[1.0,2.5]]}");
        assert_eq!(a, b, "same bytes, same signature");
        assert_ne!(a, c, "different bytes, different signature");
    }

    /// Property sweep over generated (model, body) pairs: the placement
    /// key is deterministic, the bare path is bit-compatible with the PR 9
    /// content-addressed key, the model fold is exactly FNV-1a over
    /// `name ++ '/' ++ body` (so any implementation of the chain agrees),
    /// and distinct models separate identical bodies.
    #[test]
    fn placement_signature_is_deterministic_and_folds_the_model() {
        let bodies: Vec<Vec<u8>> = (0..32)
            .map(|i| format!("{{\"features\":[[{i}.0,{}.5]]}}", i * 7 % 13).into_bytes())
            .collect();
        let models = ["default", "mscn", "lw-nn", "a/b", "m"];
        for body in &bodies {
            assert_eq!(
                placement_signature(None, body),
                request_signature(body),
                "bare path must keep the PR 9 placement"
            );
            for model in models {
                let named = placement_signature(Some(model), body);
                assert_eq!(
                    named,
                    placement_signature(Some(model), body),
                    "placement must be a pure function"
                );
                let mut concat = model.as_bytes().to_vec();
                concat.push(b'/');
                concat.extend_from_slice(body);
                assert_eq!(
                    named,
                    fnv1a64(&concat),
                    "chained fold must equal FNV-1a of the concatenation"
                );
            }
            // Same body, different models → independent placement keys.
            let keys: std::collections::HashSet<u64> = models
                .iter()
                .map(|m| placement_signature(Some(m), body))
                .collect();
            assert_eq!(keys.len(), models.len(), "models must not collide on {body:?}");
        }
    }

    #[test]
    fn model_suffix_extracts_only_named_predicts() {
        assert_eq!(model_suffix("/v1/predict/mscn"), Some("mscn"));
        assert_eq!(model_suffix("/v1/predict/"), None, "empty segment");
        assert_eq!(model_suffix("/v1/predict"), None, "bare path");
        assert_eq!(model_suffix("/v1/observe/mscn"), None, "observe is not proxied");
    }

    #[test]
    fn named_predicts_pass_through_and_pin_per_model() {
        let s0 = stub_shard("@0");
        let s1 = stub_shard("@1");
        let shards = vec![
            ("shard-0".to_string(), s0.local_addr()),
            ("shard-1".to_string(), s1.local_addr()),
        ];
        let handle = start_cluster_router(
            &shards,
            "127.0.0.1:0",
            ClusterRouterConfig { health: quick_health(), ..Default::default() },
        )
        .expect("bind router");
        let mut client = HttpClient::connect(handle.local_addr()).unwrap();
        let body = br#"{"features":[[0.5]]}"#;
        // Named predicts forward (stub shards answer any predict path) and
        // pin: the same (model, body) repeatedly lands on one shard.
        let first = client.post("/v1/predict/mscn", body).unwrap();
        assert_eq!(first.status, 200);
        for _ in 0..5 {
            let again = client.post("/v1/predict/mscn", body).unwrap();
            assert_eq!(again.body, first.body, "named route must pin per (model, body)");
        }
        // Wrong method on a named route is 405, not a burned shard leg.
        assert_eq!(client.get("/v1/predict/mscn").unwrap().status, 405);
        handle.drain();
    }

    #[test]
    fn router_serves_local_endpoints_and_proxies_predict() {
        let s0 = stub_shard("@0");
        let s1 = stub_shard("@1");
        let shards = vec![
            ("shard-0".to_string(), s0.local_addr()),
            ("shard-1".to_string(), s1.local_addr()),
        ];
        let handle = start_cluster_router(
            &shards,
            "127.0.0.1:0",
            ClusterRouterConfig { health: quick_health(), ..Default::default() },
        )
        .expect("bind router");
        let mut client = HttpClient::connect(handle.local_addr()).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        assert_eq!(client.get("/readyz").unwrap().status, 200);
        let metrics = client.get("/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        assert!(String::from_utf8_lossy(&metrics.body).contains("cluster_requests"));
        assert_eq!(client.get("/nope").unwrap().status, 404);
        assert_eq!(client.post("/healthz", b"{}").unwrap().status, 405);
        // Proxied predict: body passes through, tagged by whichever shard
        // owns the signature — and repeatably by the *same* shard.
        let body = br#"{"features":[[0.5]]}"#;
        let first = client.post("/v1/predict", body).unwrap();
        assert_eq!(first.status, 200);
        let tag = &first.body[first.body.len() - 2..];
        assert!(tag == b"@0" || tag == b"@1");
        for _ in 0..5 {
            let again = client.post("/v1/predict", body).unwrap();
            assert_eq!(again.body, first.body, "same signature must pin to one shard");
        }
        handle.drain();
    }

    #[test]
    fn killing_a_shard_fails_over_and_readyz_tracks_the_fleet() {
        let s0 = stub_shard("@0");
        let s1 = stub_shard("@1");
        let shards = vec![
            ("shard-0".to_string(), s0.local_addr()),
            ("shard-1".to_string(), s1.local_addr()),
        ];
        let handle = start_cluster_router(
            &shards,
            "127.0.0.1:0",
            ClusterRouterConfig { health: quick_health(), ..Default::default() },
        )
        .expect("bind router");
        let mut client = HttpClient::connect(handle.local_addr()).unwrap();
        // Find a body owned by shard 0 so its death forces a failover.
        let mut owned_by_0 = None;
        for i in 0..64 {
            let body = format!("{{\"features\":[[{i}.0]]}}").into_bytes();
            let resp = client.post("/v1/predict", &body).unwrap();
            if resp.body.ends_with(b"@0") {
                owned_by_0 = Some(body);
                break;
            }
        }
        let body = owned_by_0.expect("some signature must hash to shard 0");
        s0.shutdown();
        // The very next request fails over within the same call (no health
        // round-trip needed) and is answered by shard 1.
        let resp = client.post("/v1/predict", &body).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body.ends_with(b"@1"), "failover must land on the live shard");
        assert!(handle.router_stats().served_failover >= 1);
        // The prober ejects shard 0 shortly after (2 failures @ 10ms).
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while handle.fleet().is_live("shard-0") {
            assert!(std::time::Instant::now() < deadline, "ejection never happened");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(handle.fleet_stats().ejections, 1);
        // Still ready with one live shard; drain flips readiness.
        assert_eq!(client.get("/readyz").unwrap().status, 200);
        handle.drain();
    }
}
