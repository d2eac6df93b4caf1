//! The four timed workloads and the checks on what they serve.
//!
//! Each workload is a *stage*: set up (the part `setup_s` times), verified
//! against in-process calls, then driven for a fixed number of requests by
//! one closed-loop client on one keep-alive connection. The request count
//! is a fixed function of `--seconds`, never of elapsed time, so the served
//! sequence — and with it `coverage` and `mean_width` — repeats bit for bit.

use std::hint::black_box;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use cardest::conformal::{CardEstError, PredictionInterval};
use cardest::router::{start_cluster_router, ClusterRouterConfig, ClusterRouterHandle};
use cardest::serve::{start_server, value_to_f64, HttpServeConfig, ServeHandle};
use cardest::server::{ClientResponse, HttpClient};
use cardest::tenant::{start_registry_server, ModelRegistry, RegistryTuning, DEFAULT_MODEL};

use crate::bodies::{batches, Batch};
use crate::fixture::{Engine, Fixture, Scale};
use crate::host::{self, Window, WindowStats};
use crate::stats::{interquartile_mean, percentile};
use crate::{Outcome, Workload};

/// Queries per HTTP request (the optimizer's per-subplan call).
pub const BATCH: usize = 8;
/// Queries per `bulk` call.
pub const BULK_BATCH: usize = 256;
/// `feedback`: every this-many-th request carries its truths.
pub const TRUTH_EVERY: usize = 4;
/// `routed-hot`: distinct bodies in the hot set.
pub const HOT_SET: usize = 64;
/// `routed-hot`: interval-cache capacity of the shard, in entries.
pub const CACHE_CAP: usize = 1024;
/// Each timed pass is cut into this many blocks; `qps` is their
/// interquartile mean, which drops brief stalls and averages passes that
/// ran in different host states instead of picking one.
const BLOCKS: usize = 40;
/// A timed `point` or `feedback` stage is driven in this many passes, each
/// against a freshly started server around the same engine, so the request
/// sequence and the engine's state carry on from pass to pass. A server's
/// requests settle into a fast or a slow path through the scheduler for the
/// server's life (its threads' placement); several starts per stage sample
/// both instead of one.
pub const SERVER_STARTS: usize = 4;
/// Truth-free requests sent to a restarted server before its pass is timed.
const RESTART_WARMUP: usize = 16;
/// The predict route every HTTP workload posts to.
pub const PREDICT: &str = "/v1/predict";

/// Requests (calls, for `bulk`) one run sends per second of `--seconds`:
/// about what the workload sustains on a 2-vCPU host, so a run measures for
/// roughly the requested time while its request count stays fixed.
pub fn requests_per_second(workload: Workload) -> f64 {
    match workload {
        Workload::Point => 4_000.0,
        Workload::Bulk => 1_000.0,
        Workload::Feedback => 650.0,
        Workload::RoutedHot => 10_000.0,
    }
}

/// The fixed request count of a run of `seconds`.
pub fn request_count(workload: Workload, seconds: f64) -> usize {
    ((requests_per_second(workload) * seconds).round() as usize).max(16)
}

/// Server tuning every HTTP workload uses: the library defaults with one
/// worker per hardware thread.
pub fn http_config() -> HttpServeConfig {
    HttpServeConfig {
        workers: host::nproc(),
        ..HttpServeConfig::default()
    }
}

/// Runs `build` once and returns its wall time in seconds with its result.
pub fn timed_setup<T>(build: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let built = build();
    (t.elapsed().as_secs_f64(), built)
}

/// One client connection, reopened only when the server closes it at its
/// keep-alive request cap.
pub struct Conn {
    addr: SocketAddr,
    client: HttpClient,
}

impl Conn {
    /// Connects to `addr`.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        Ok(Conn {
            addr,
            client: HttpClient::connect(addr)?,
        })
    }

    fn reopen_if_closed(&mut self, resp: &ClientResponse) -> std::io::Result<()> {
        if resp
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            self.client = HttpClient::connect(self.addr)?;
        }
        Ok(())
    }

    /// `POST path` with `body`.
    pub fn post(&mut self, path: &str, body: &[u8]) -> std::io::Result<ClientResponse> {
        let resp = self.client.post(path, body)?;
        self.reopen_if_closed(&resp)?;
        Ok(resp)
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        let resp = self.client.get(path)?;
        self.reopen_if_closed(&resp)?;
        Ok(resp)
    }
}

/// Clocks of one timed window.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Per-request (per-call) latency in µs, ascending.
    pub latencies_us: Vec<f64>,
    /// Queries per second in each of [`BLOCKS`] consecutive blocks.
    pub block_qps: Vec<f64>,
    /// Wall, CPU and steal over the whole window.
    pub window: WindowStats,
    /// Queries sent.
    pub queries: usize,
}

/// Calls `call(i)` for each `i` in `calls`, one after another, timing each.
pub fn timed(calls: Range<usize>, queries_per_call: usize, mut call: impl FnMut(usize)) -> Timing {
    let n = calls.len();
    let mut latencies_us = Vec::with_capacity(n);
    let block = (n / BLOCKS).max(1);
    let mut block_qps = Vec::with_capacity(BLOCKS + 1);
    let window = Window::start();
    let mut block_start = Instant::now();
    for (done_calls, i) in calls.enumerate() {
        let t = Instant::now();
        call(i);
        let done = Instant::now();
        latencies_us.push((done - t).as_nanos() as f64 / 1e3);
        if (done_calls + 1) % block == 0 {
            let secs = (done - block_start).as_secs_f64();
            block_qps.push((block * queries_per_call) as f64 / secs);
            block_start = done;
        }
    }
    let window = window.stop();
    latencies_us.sort_by(f64::total_cmp);
    Timing {
        latencies_us,
        block_qps,
        window,
        queries: n * queries_per_call,
    }
}

impl Timing {
    /// Several timed passes taken as one window.
    pub fn pool(passes: Vec<Timing>) -> Timing {
        let windows: Vec<WindowStats> = passes.iter().map(|t| t.window).collect();
        let queries = passes.iter().map(|t| t.queries).sum();
        let (mut latencies_us, mut block_qps) = (Vec::new(), Vec::new());
        for t in passes {
            latencies_us.extend(t.latencies_us);
            block_qps.extend(t.block_qps);
        }
        latencies_us.sort_by(f64::total_cmp);
        Timing {
            latencies_us,
            block_qps,
            window: WindowStats::pool(&windows),
            queries,
        }
    }
}

/// Splits `0..n` into `passes` consecutive ranges of near-equal length.
pub fn pass_ranges(n: usize, passes: usize) -> impl Iterator<Item = Range<usize>> {
    let passes = passes.clamp(1, n.max(1));
    (0..passes).map(move |k| k * n / passes..(k + 1) * n / passes)
}

/// Interval quality over everything served.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    served: u64,
    covered: u64,
    width_sum: f64,
}

impl Quality {
    /// Adds one served interval and the query's truth.
    pub fn add(&mut self, lo: f64, hi: f64, truth: f64) {
        self.served += 1;
        self.covered += u64::from(lo <= truth && truth <= hi);
        self.width_sum += hi - lo;
    }

    /// Share of intervals containing the truth.
    pub fn coverage(&self) -> f64 {
        self.covered as f64 / self.served as f64
    }

    /// Mean interval width, in selectivity.
    pub fn mean_width(&self) -> f64 {
        self.width_sum / self.served as f64
    }
}

/// A finished pass: its clocks, its failures and the quality served.
pub struct Pass {
    /// The timed window.
    pub timing: Timing,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed or answered other than the in-process reference.
    pub failed: u64,
    /// Quality of the intervals served.
    pub quality: Quality,
    /// Whether the pass's own end-of-run checks held (the `feedback` replay).
    pub checks_ok: bool,
}

/// Parses a predict response body into `(lo, hi)` pairs.
pub fn parse_intervals(body: &[u8]) -> Result<Vec<(f64, f64)>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-utf8 body".to_string())?;
    let value = serde_json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let serde_json::Value::Array(results) = value.field("results").map_err(|e| e.to_string())?
    else {
        return Err("`results` is not an array".to_string());
    };
    results
        .iter()
        .map(|r| {
            let lo = value_to_f64(r.field("lo").map_err(|e| e.to_string())?)?;
            let hi = value_to_f64(r.field("hi").map_err(|e| e.to_string())?)?;
            Ok((lo, hi))
        })
        .collect()
}

/// Whether served `(lo, hi)` pairs equal in-process results bit for bit.
pub fn same_bits(
    served: &[(f64, f64)],
    direct: &[Result<PredictionInterval, CardEstError>],
) -> bool {
    served.len() == direct.len()
        && served.iter().zip(direct).all(|((lo, hi), d)| {
            d.as_ref()
                .is_ok_and(|d| d.lo.to_bits() == lo.to_bits() && d.hi.to_bits() == hi.to_bits())
        })
}

/// Posts each body once, returning the response bodies (`None` on a
/// transport error or a non-200 status).
fn post_each<'b>(conn: &mut Conn, bodies: impl Iterator<Item = &'b [u8]>) -> Vec<Option<Vec<u8>>> {
    bodies
        .map(|body| match conn.post(PREDICT, body) {
            Ok(r) if r.status == 200 => Some(r.body),
            _ => None,
        })
        .collect()
}

/// Checks first responses against in-process `predict_batch` on the same
/// engine; returns per-batch verdicts.
fn verify_against(engine: &Engine, batches: &[Batch], first: &[Option<Vec<u8>>]) -> Vec<bool> {
    batches
        .iter()
        .zip(first)
        .map(|(b, resp)| {
            resp.as_ref().is_some_and(|body| {
                parse_intervals(body)
                    .is_ok_and(|served| same_bits(&served, &engine.predict_batch(&b.features)))
            })
        })
        .collect()
}

/// Drives truth-free requests over `batches` cycled in order, in `passes`
/// timed passes with `restart` run untimed before every pass but the
/// first; a request passes when it answers 200 with exactly the verified
/// first response.
fn drive_replayed(
    conn: &mut Conn,
    batches: &[Batch],
    first: &[Option<Vec<u8>>],
    good: &[bool],
    n: usize,
    passes: usize,
    mut restart: impl FnMut(&mut Conn),
) -> Pass {
    let mut failed = 0u64;
    let mut timings = Vec::with_capacity(passes);
    for (k, calls) in pass_ranges(n, passes).enumerate() {
        if k > 0 {
            restart(conn);
        }
        timings.push(timed(calls, BATCH, |i| {
            let b = i % batches.len();
            let ok = match conn.post(PREDICT, &batches[b].plain) {
                Ok(r) => r.status == 200 && good[b] && first[b].as_deref() == Some(&r.body[..]),
                Err(_) => false,
            };
            failed += u64::from(!ok);
        }));
    }
    let timing = Timing::pool(timings);
    let served: Vec<Vec<(f64, f64)>> = first
        .iter()
        .map(|f| {
            f.as_deref()
                .and_then(|body| parse_intervals(body).ok())
                .unwrap_or_default()
        })
        .collect();
    let mut quality = Quality::default();
    for i in 0..n {
        let b = i % batches.len();
        for ((lo, hi), y) in served[b].iter().zip(&batches[b].truths) {
            quality.add(*lo, *hi, *y);
        }
    }
    Pass {
        timing,
        attempted: n as u64,
        failed,
        quality,
        checks_ok: true,
    }
}

/// Replaces `handle` with a freshly started server around the same
/// `engine`, moves `conn` over to it (closing the old connection before the
/// old server drains) and warms the new server with truth-free requests.
fn restart_server(
    engine: &Arc<Engine>,
    handle: &mut ServeHandle,
    conn: &mut Conn,
    batches: &[Batch],
) {
    let fresh = start_server(Arc::clone(engine), "127.0.0.1:0", http_config())
        .expect("bind a loopback port");
    *conn = Conn::open(fresh.local_addr()).expect("connect to the server");
    *handle = fresh;
    let warm = batches.iter().cycle().take(RESTART_WARMUP);
    post_each(conn, warm.map(|b| &b.plain[..]));
}

/// `point`: truth-free 8-query predicts against `start_server`.
pub struct PointStage {
    engine: Arc<Engine>,
    /// The running server.
    pub handle: ServeHandle,
    conn: Conn,
    batches: Vec<Batch>,
    first: Vec<Option<Vec<u8>>>,
    good: Vec<bool>,
}

impl PointStage {
    /// Starts the server and warms it with one request per body.
    pub fn start(fx: &Fixture, seed: u64) -> PointStage {
        let engine = Arc::new(fx.engine());
        let handle = start_server(Arc::clone(&engine), "127.0.0.1:0", http_config())
            .expect("bind a loopback port");
        let batches = batches(fx.test(), BATCH, seed);
        let mut conn = Conn::open(handle.local_addr()).expect("connect to the server");
        let first = post_each(&mut conn, batches.iter().map(|b| &b.plain[..]));
        PointStage {
            engine,
            handle,
            conn,
            batches,
            first,
            good: Vec::new(),
        }
    }

    /// Checks every first response against in-process calls.
    pub fn verify(&mut self) -> bool {
        self.good = verify_against(&self.engine, &self.batches, &self.first);
        self.good.iter().all(|&g| g)
    }

    /// Sends `n` requests in `passes` passes, restarting the server
    /// between passes (see [`SERVER_STARTS`]).
    pub fn drive(&mut self, n: usize, passes: usize) -> Pass {
        let (engine, handle, batches) = (&self.engine, &mut self.handle, &self.batches);
        drive_replayed(
            &mut self.conn,
            batches,
            &self.first,
            &self.good,
            n,
            passes,
            |conn| restart_server(engine, handle, conn, batches),
        )
    }

    /// Median round trip of `GET /healthz` on the serving connection, µs.
    pub fn healthz_rtt_us(&mut self, n: usize) -> f64 {
        let mut lat: Vec<f64> = (0..n)
            .map(|_| {
                let t = Instant::now();
                let resp = self.conn.get("/healthz").expect("GET /healthz");
                assert_eq!(resp.status, 200, "GET /healthz answers 200");
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        lat.sort_by(f64::total_cmp);
        percentile(&lat, 0.5)
    }
}

/// `bulk`: 256-query in-process `ServeEngine::predict_batch` calls.
pub struct BulkStage {
    engine: Engine,
    batches: Vec<Batch>,
    reference: Vec<Vec<Result<PredictionInterval, CardEstError>>>,
}

impl BulkStage {
    /// Builds the engine and warms it with one call per batch.
    pub fn start(fx: &Fixture, seed: u64) -> BulkStage {
        let engine = fx.engine();
        let batches = batches(fx.test(), BULK_BATCH, seed);
        for b in &batches {
            black_box(engine.predict_batch(&b.features));
        }
        BulkStage {
            engine,
            batches,
            reference: Vec::new(),
        }
    }

    /// Computes each batch's per-query reference (one call per query) and
    /// checks the batched call against it.
    pub fn verify(&mut self) -> bool {
        self.reference = self
            .batches
            .iter()
            .map(|b| {
                b.features
                    .iter()
                    .map(|q| {
                        let mut one = self.engine.predict_batch(std::slice::from_ref(q));
                        one.pop().expect("one result per query")
                    })
                    .collect()
            })
            .collect();
        self.batches.iter().zip(&self.reference).all(|(b, want)| {
            let got = self.engine.predict_batch(&b.features);
            same_results(&got, want)
        })
    }

    /// Makes `n` calls; a call passes when it equals the per-query reference.
    pub fn drive(&mut self, n: usize) -> Pass {
        let mut failed = 0u64;
        let (engine, batches, reference) = (&self.engine, &self.batches, &self.reference);
        let timing = timed(0..n, BULK_BATCH, |i| {
            let b = i % batches.len();
            let got = engine.predict_batch(&batches[b].features);
            failed += u64::from(!same_results(&got, &reference[b]));
        });
        let mut quality = Quality::default();
        for i in 0..n {
            let b = i % batches.len();
            for (r, y) in reference[b].iter().zip(&batches[b].truths) {
                if let Ok(iv) = r {
                    quality.add(iv.lo, iv.hi, *y);
                }
            }
        }
        Pass {
            timing,
            attempted: n as u64,
            failed,
            quality,
            checks_ok: true,
        }
    }
}

fn same_results(
    got: &[Result<PredictionInterval, CardEstError>],
    want: &[Result<PredictionInterval, CardEstError>],
) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| match (g, w) {
            (Ok(g), Ok(w)) => g.lo.to_bits() == w.lo.to_bits() && g.hi.to_bits() == w.hi.to_bits(),
            _ => false,
        })
}

/// `feedback`: like `point`, with every fourth request carrying truths.
pub struct FeedbackStage {
    engine: Arc<Engine>,
    handle: ServeHandle,
    conn: Conn,
    batches: Vec<Batch>,
}

impl FeedbackStage {
    /// Starts the server and warms it with one truth-free request per body
    /// (truth-free, so the calibration state stays fresh).
    pub fn start(fx: &Fixture, seed: u64) -> FeedbackStage {
        let engine = Arc::new(fx.engine());
        let handle = start_server(Arc::clone(&engine), "127.0.0.1:0", http_config())
            .expect("bind a loopback port");
        let batches = batches(fx.test(), BATCH, seed);
        let mut conn = Conn::open(handle.local_addr()).expect("connect to the server");
        post_each(&mut conn, batches.iter().map(|b| &b.plain[..]));
        FeedbackStage {
            engine,
            handle,
            conn,
            batches,
        }
    }

    /// Sends `n` requests in `passes` passes, restarting the server
    /// between passes (see [`SERVER_STARTS`]), then replays the same
    /// predict-then-observe sequence in process on a fresh engine: every
    /// served interval, the observation count and the final coverage must
    /// match it bit for bit.
    pub fn drive(&mut self, fx: &Fixture, n: usize, passes: usize) -> Pass {
        let batches = &self.batches;
        let conn = &mut self.conn;
        let mut responses: Vec<Option<Vec<u8>>> = Vec::with_capacity(n);
        let mut timings = Vec::with_capacity(passes);
        for (k, calls) in pass_ranges(n, passes).enumerate() {
            if k > 0 {
                restart_server(&self.engine, &mut self.handle, conn, batches);
            }
            timings.push(timed(calls, BATCH, |i| {
                let b = &batches[i % batches.len()];
                let body = if i % TRUTH_EVERY == TRUTH_EVERY - 1 {
                    &b.with_truths
                } else {
                    &b.plain
                };
                responses.push(match conn.post(PREDICT, body) {
                    Ok(r) if r.status == 200 => Some(r.body),
                    _ => None,
                });
            }));
        }
        let timing = Timing::pool(timings);
        let replay = fx.engine();
        let (mut served_q, mut replay_q) = (Quality::default(), Quality::default());
        let mut failed = 0u64;
        for (i, resp) in responses.iter().enumerate() {
            let b = &batches[i % batches.len()];
            let direct = replay.predict_batch(&b.features);
            if i % TRUTH_EVERY == TRUTH_EVERY - 1 {
                replay.observe_all(&b.features, &b.truths, None);
            }
            for (d, y) in direct.iter().zip(&b.truths) {
                if let Ok(d) = d {
                    replay_q.add(d.lo, d.hi, *y);
                }
            }
            match resp.as_deref().map(parse_intervals) {
                Some(Ok(served)) if same_bits(&served, &direct) => {
                    for ((lo, hi), y) in served.iter().zip(&b.truths) {
                        served_q.add(*lo, *hi, *y);
                    }
                }
                _ => failed += 1,
            }
        }
        let checks_ok = self.engine.observations() == replay.observations()
            && served_q.coverage().to_bits() == replay_q.coverage().to_bits();
        Pass {
            timing,
            attempted: n as u64,
            failed,
            quality: served_q,
            checks_ok,
        }
    }
}

/// `routed-hot`: a hot set of 64 bodies sent through the cluster router to
/// one registry shard with the interval cache on.
pub struct RoutedStage {
    engine: Arc<Engine>,
    /// The shard's registry (for cache counters).
    pub registry:
        Arc<ModelRegistry<cardest::estimators::Mscn, cardest::conformal::AbsoluteResidual>>,
    conn: Conn,
    /// The router in front of the shard (declared first, so dropped first).
    pub router: ClusterRouterHandle,
    /// The shard server.
    pub shard: ServeHandle,
    batches: Vec<Batch>,
    first: Vec<Option<Vec<u8>>>,
    good: Vec<bool>,
}

impl RoutedStage {
    /// Starts shard and router, then warms the cache: each hot body is sent
    /// once (a miss, whose response is kept) and once more (a hit).
    pub fn start(fx: &Fixture, seed: u64) -> RoutedStage {
        let engine = Arc::new(fx.engine());
        let config = http_config();
        let tuning = RegistryTuning {
            cache_entries: CACHE_CAP,
            ..RegistryTuning::from_http(&config)
        };
        let registry = Arc::new(ModelRegistry::new(tuning));
        registry.register_shared(DEFAULT_MODEL, Arc::clone(&engine));
        let shard = start_registry_server(Arc::clone(&registry), "127.0.0.1:0", config)
            .expect("bind the shard");
        let router = start_cluster_router(
            &[("shard-0".to_string(), shard.local_addr())],
            "127.0.0.1:0",
            ClusterRouterConfig {
                workers: host::nproc(),
                ..ClusterRouterConfig::default()
            },
        )
        .expect("bind the router");
        let mut batches = batches(fx.test(), BATCH, seed);
        batches.truncate(HOT_SET);
        let mut conn = Conn::open(router.local_addr()).expect("connect to the router");
        let first = post_each(&mut conn, batches.iter().map(|b| &b.plain[..]));
        let hits = post_each(&mut conn, batches.iter().map(|b| &b.plain[..]));
        let good = first
            .iter()
            .zip(&hits)
            .map(|(m, h)| m.is_some() && m == h)
            .collect();
        RoutedStage {
            engine,
            registry,
            conn,
            router,
            shard,
            batches,
            first,
            good,
        }
    }

    /// Checks each cached miss response against in-process calls, on top of
    /// the warm-up's hit-equals-miss check.
    pub fn verify(&mut self) -> bool {
        let direct = verify_against(&self.engine, &self.batches, &self.first);
        for (g, d) in self.good.iter_mut().zip(direct) {
            *g &= d;
        }
        self.good.iter().all(|&g| g)
    }

    /// Sends `n` requests; each must equal its body's miss response byte
    /// for byte.
    pub fn drive(&mut self, n: usize) -> Pass {
        drive_replayed(
            &mut self.conn,
            &self.batches,
            &self.first,
            &self.good,
            n,
            1,
            |_| {},
        )
    }

    /// The hot set's truth-free bodies.
    pub fn bodies(&self) -> impl Iterator<Item = &[u8]> {
        self.batches.iter().map(|b| &b.plain[..])
    }
}

/// The end-to-end report of one timed pass.
pub fn report(setup_s: f64, verified: bool, pass: &Pass) -> Outcome {
    let t = &pass.timing;
    let mut out = Outcome {
        correct: verified && pass.checks_ok && pass.failed == 0,
        attempted: pass.attempted,
        failed: pass.failed,
        metrics: Vec::new(),
        steal_shares: vec![t.window.steal_share],
    };
    out.push("setup_s", setup_s, "s");
    out.push("qps", interquartile_mean(&t.block_qps), "1/s");
    out.push("p50_us", percentile(&t.latencies_us, 0.50), "us");
    out.push("p90_us", percentile(&t.latencies_us, 0.90), "us");
    out.push(
        "cpu_us_per_query",
        t.window.cpu_secs * 1e6 / t.queries as f64,
        "us",
    );
    out.push(
        "ok_ratio",
        (pass.attempted - pass.failed) as f64 / pass.attempted as f64,
        "ratio",
    );
    out.push("coverage", pass.quality.coverage(), "ratio");
    out.push("mean_width", pass.quality.mean_width(), "selectivity");
    out.push("peak_rss_mb", host::peak_rss_mb(), "MB");
    eprintln!(
        "  {} requests, {} queries in {:.2}s wall, {:.2}s cpu; p50 {:.1}us p90 {:.1}us \
         over {} samples; steal share {:.3}",
        pass.attempted,
        t.queries,
        t.window.wall_secs,
        t.window.cpu_secs,
        percentile(&t.latencies_us, 0.5),
        percentile(&t.latencies_us, 0.9),
        t.latencies_us.len(),
        t.window.steal_share
    );
    out
}

/// One timed run of `workload`.
pub fn run(workload: Workload, seed: u64, seconds: f64, scale: &Scale) -> Outcome {
    let n = request_count(workload, seconds);
    match workload {
        Workload::Point => {
            let (setup_s, (_fx, mut st)) = timed_setup(|| {
                let fx = Fixture::build(scale);
                let st = PointStage::start(&fx, seed);
                (fx, st)
            });
            let verified = st.verify();
            report(setup_s, verified, &st.drive(n, SERVER_STARTS))
        }
        Workload::Bulk => {
            let (setup_s, (_fx, mut st)) = timed_setup(|| {
                let fx = Fixture::build(scale);
                let st = BulkStage::start(&fx, seed);
                (fx, st)
            });
            let verified = st.verify();
            report(setup_s, verified, &st.drive(n))
        }
        Workload::Feedback => {
            let (setup_s, (fx, mut st)) = timed_setup(|| {
                let fx = Fixture::build(scale);
                let st = FeedbackStage::start(&fx, seed);
                (fx, st)
            });
            let pass = st.drive(&fx, n, SERVER_STARTS);
            report(setup_s, true, &pass)
        }
        Workload::RoutedHot => {
            let (setup_s, (_fx, mut st)) = timed_setup(|| {
                let fx = Fixture::build(scale);
                let st = RoutedStage::start(&fx, seed);
                (fx, st)
            });
            let verified = st.verify();
            report(setup_s, verified, &st.drive(n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_ranges_cover_every_call_once() {
        let ranges: Vec<_> = pass_ranges(10, 4).collect();
        assert_eq!(ranges, vec![0..2, 2..5, 5..7, 7..10]);
        assert_eq!(pass_ranges(3, 4).count(), 3, "no empty pass");
        assert_eq!(pass_ranges(0, 4).collect::<Vec<_>>(), vec![0..0]);
    }

    #[test]
    fn pooled_timing_adds_clocks_and_weights_steal_by_wall() {
        let pass = |lat: &[f64], wall: f64, steal: f64| Timing {
            latencies_us: lat.to_vec(),
            block_qps: vec![lat.len() as f64],
            window: WindowStats {
                wall_secs: wall,
                cpu_secs: wall / 2.0,
                steal_share: steal,
            },
            queries: lat.len() * BATCH,
        };
        let t = Timing::pool(vec![pass(&[3.0, 1.0], 1.0, 0.0), pass(&[2.0], 3.0, 0.4)]);
        assert_eq!(t.latencies_us, vec![1.0, 2.0, 3.0]);
        assert_eq!(t.block_qps, vec![2.0, 1.0]);
        assert_eq!(t.queries, 3 * BATCH);
        assert_eq!(t.window.wall_secs, 4.0);
        assert_eq!(t.window.cpu_secs, 2.0);
        assert!((t.window.steal_share - 0.3).abs() < 1e-12);
    }
}
