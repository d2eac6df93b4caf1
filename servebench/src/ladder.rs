//! The traced run: the per-layer ladder.
//!
//! Every figure here comes from timing a layer's public functions from
//! outside the program, with the counting allocator switched on around the
//! calls whose allocations are reported; nothing inside the program is
//! instrumented. The network figures come from short probes of the `point`,
//! `bulk` and `routed-hot` stages, and the named workload is driven twice —
//! once plain, once with allocation counting on — for its tail latency and
//! the cost of tracing.

use std::hint::black_box;

use cardest::conformal::{PredictionInterval, ResilientService};
use cardest::nn::Matrix;
use cardest::serve::json_f64;

use crate::alloc;
use crate::bodies::permutation;
use crate::fixture::{Fixture, Scale};
use crate::host;
use crate::stats::{interleaved_rounds, median, median_difference, median_ns_per_call, percentile};
use crate::workloads::{
    self, request_count, BulkStage, Conn, FeedbackStage, Pass, PointStage, RoutedStage, BATCH,
    BULK_BATCH, PREDICT,
};
use crate::{Outcome, Workload};

/// Rounds per micro-benchmark; each reports the median round.
const ROUNDS: usize = 9;
/// Requests in the `point` probe.
const POINT_PROBE: usize = 2_000;
/// Calls in the `bulk` probe.
const BULK_PROBE: usize = 120;
/// Round trips per router-vs-direct comparison body.
const HOP_ROUNDS: usize = 12;
/// Requests in the router's cache-hit pass.
const HOT_ROUNDS_REQUESTS: usize = 4 * workloads::HOT_SET;

/// Runs the ladder and the named workload's traced passes.
pub fn run(workload: Workload, seed: u64, seconds: f64, scale: &Scale) -> Outcome {
    let fx = Fixture::build(scale);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let test = fx.test();
    let order = permutation(test.len(), seed);
    let take = |n: usize| -> Vec<Vec<f32>> {
        order
            .iter()
            .cycle()
            .take(n)
            .map(|&i| test.x[i].clone())
            .collect()
    };
    let (q1, q8, q256) = (take(1), take(BATCH), take(BULK_BATCH));
    let truths: Vec<(Vec<f32>, f64)> = order
        .iter()
        .map(|&i| (test.x[i].clone(), test.y[i]))
        .collect();

    // ce_parallel: the thread-count lookup every parallel call makes, and a
    // two-chunk dispatch through the pool.
    out.push(
        "ce_parallel.threads_lookup_ns",
        median_ns_per_call(ROUNDS, 2_000, || {
            black_box(ce_parallel::current_threads());
        }),
        "ns",
    );
    out.push(
        "ce_parallel.dispatch_ns",
        median_ns_per_call(ROUNDS, 500, || {
            black_box(ce_parallel::par_map(2, 1, black_box));
        }),
        "ns",
    );

    // ce_nn: the MSCN top network's hidden layer, (b x 65) * (65 x 64).
    let weights = Matrix::from_vec(
        65,
        64,
        (0..65 * 64).map(|i| (i % 13) as f32 * 0.01).collect(),
    );
    for (b, iters) in [(1, 2_000), (8, 1_000), (256, 50)] {
        let input = Matrix::from_vec(b, 65, (0..b * 65).map(|i| (i % 7) as f32 * 0.1).collect());
        let ns = median_ns_per_call(ROUNDS, iters, || {
            black_box(input.matmul(&weights));
        });
        out.push(&format!("ce_nn.matmul_ns.b{b}"), ns, "ns");
        if b == 256 {
            out.push(
                "ce_nn.matmul_gflops.b256",
                2.0 * 256.0 * 65.0 * 64.0 / ns,
                "GFLOP/s",
            );
        }
    }

    // The predict chain, rung by rung: the MSCN forward, the conformal
    // service around it, the self-healing and resilient wrappers, and the
    // full engine. Each batch size's rungs are timed interleaved, so their
    // differences compare like with like.
    let model = &fx.model;
    let pi = fx.pi_service();
    let healing = fx.healing();
    let mut resilient = fx.fallbacks().into_iter().fold(
        ResilientService::new(Box::new(fx.pi_service()))
            .with_expected_dims(fx.dims())
            .with_conservative_floor(true),
        ResilientService::with_fallback,
    );
    let engine = fx.engine();
    // One query takes the single-row path, as `observe` does.
    let fwd1 = median_ns_per_call(ROUNDS, 500, || {
        black_box(model.predict_log_selectivity(&q1[0]));
    });
    let [fwd8, pi8, heal8, res8, serve8] = &interleaved_rounds(
        2 * ROUNDS,
        50,
        &mut [
            &mut || {
                black_box(model.predict_log_selectivity_batch(&q8));
            },
            &mut || {
                black_box(pi.predict_interval_batch(&q8));
            },
            &mut || {
                black_box(healing.try_interval_batch(&q8));
            },
            &mut || {
                black_box(resilient.predict_interval_batch(&q8));
            },
            &mut || {
                black_box(engine.predict_batch(&q8));
            },
        ],
    )[..] else {
        unreachable!("five functions timed")
    };
    let [fwd256, pi256, serve256] = &interleaved_rounds(
        2 * ROUNDS,
        4,
        &mut [
            &mut || {
                black_box(model.predict_log_selectivity_batch(&q256));
            },
            &mut || {
                black_box(pi.predict_interval_batch(&q256));
            },
            &mut || {
                black_box(engine.predict_batch(&q256));
            },
        ],
    )[..] else {
        unreachable!("three functions timed")
    };
    // Self times of the wrappers: the engine (heal + resilient + locks)
    // over the bare conformal service, per batch.
    let wrap8 = median_difference(serve8, pi8);
    let wrap256 = median_difference(serve256, pi256);
    let (fwd8, heal8, res8, serve8) = (median(fwd8), median(heal8), median(res8), median(serve8));
    let (fwd256, serve256) = (median(fwd256), median(serve256));
    let forward_ns = [fwd1, fwd8 / 8.0, fwd256 / 256.0];
    for (slot, queries) in [&q1, &q8, &q256].into_iter().enumerate() {
        let b = queries.len();
        let (_, allocs) = alloc::count(|| {
            if b == 1 {
                black_box(model.predict_log_selectivity(&queries[0]));
            } else {
                black_box(model.predict_log_selectivity_batch(queries));
            }
        });
        out.push(
            &format!("mscn.forward_ns_per_query.b{b}"),
            forward_ns[slot],
            "ns",
        );
        out.push(
            &format!("mscn.allocs_per_query.b{b}"),
            allocs as f64 / b as f64,
            "count",
        );
    }

    // conformal: the service's own work per query, isolated by calibrating
    // it around a model whose forward is a single load.
    let stub: fn(&[f32]) -> f64 = |features| f64::from(features[0]);
    let pi_stub = fx.pi_service_over(stub);
    let [stub8, stub256] = &interleaved_rounds(
        ROUNDS,
        2_000,
        &mut [
            &mut || {
                black_box(pi_stub.predict_interval_batch(&q8));
            },
            &mut || {
                black_box(pi_stub.predict_interval_batch(&q256));
            },
        ],
    )[..] else {
        unreachable!("two functions timed")
    };
    let conformal_ns = [median(stub8) / 8.0, median(stub256) / 256.0];
    out.push("conformal.interval_ns_per_query.b8", conformal_ns[0], "ns");
    out.push(
        "conformal.interval_ns_per_query.b256",
        conformal_ns[1],
        "ns",
    );
    let mut pi_obs = fx.pi_service();
    out.push(
        "conformal.observe_ns",
        per_truth(&truths, |x, y| pi_obs.observe(x, y)),
        "ns",
    );
    out.push(
        "conformal.calib_size",
        pi.calibration_size() as f64,
        "count",
    );

    // heal / resilient / serve: the wrappers and the engine.
    out.push("heal.batch_ns.b8", heal8, "ns");
    let mut heal_obs = fx.healing();
    out.push(
        "heal.observe_ns",
        per_truth(&truths, |x, y| heal_obs.observe(x, y)),
        "ns",
    );
    out.push("resilient.batch_ns.b8", res8, "ns");
    let serve_ns = [serve8, serve256];
    for (slot, queries) in [&q8, &q256].into_iter().enumerate() {
        let b = queries.len();
        let (_, allocs) = alloc::count(|| black_box(engine.predict_batch(queries)));
        out.push(
            &format!("serve.predict_batch_ns.b{b}"),
            serve_ns[slot],
            "ns",
        );
        out.push(
            &format!("serve.allocs_per_query.b{b}"),
            allocs as f64 / b as f64,
            "count",
        );
    }
    let engine_obs = fx.engine();
    out.push(
        "serve.observe_ns",
        per_truth(&truths, |x, y| {
            engine_obs.observe_all(std::slice::from_ref(&x.to_vec()), &[y], None);
        }),
        "ns",
    );

    // json: parsing the workload's bodies and rendering interval fields.
    let point_bodies: Vec<Vec<u8>> = crate::bodies::batches(test, BATCH, seed)
        .into_iter()
        .map(|b| b.plain)
        .collect();
    let mut next = 0usize;
    let parse_ns = median_ns_per_call(ROUNDS, 300, || {
        let body = &point_bodies[next % point_bodies.len()];
        next += 1;
        black_box(serde_json::parse(std::str::from_utf8(body).expect("bodies are UTF-8")).ok());
    });
    out.push("json.parse_ns_per_body", parse_ns, "ns");
    let intervals: Vec<PredictionInterval> = pi.predict_interval_batch(&q8).into_iter().collect();
    let render_ns = median_ns_per_call(ROUNDS, 1_000, || {
        let mut body = String::with_capacity(64 + intervals.len() * 48);
        for iv in &intervals {
            body.push_str("{\"lo\":");
            body.push_str(&json_f64(iv.lo));
            body.push_str(",\"hi\":");
            body.push_str(&json_f64(iv.hi));
            body.push('}');
        }
        black_box(body);
    }) / intervals.len() as f64;
    out.push("json.render_ns_per_query", render_ns, "ns");
    let (_, parse_allocs) = alloc::count(|| {
        for body in &point_bodies {
            black_box(serde_json::parse(std::str::from_utf8(body).expect("UTF-8")).ok());
        }
    });
    out.push(
        "json.allocs_per_body",
        parse_allocs as f64 / point_bodies.len() as f64,
        "count",
    );

    // ce_server: a short point probe.
    let mut point = PointStage::start(&fx, seed);
    out.correct &= point.verify();
    let probe = point.drive(POINT_PROBE, 1);
    tally(&mut out, &probe);
    let point_p50 = percentile(&probe.timing.latencies_us, 0.5);
    let healthz_us = point.healthz_rtt_us(500);
    out.push("server.healthz_rtt_us", healthz_us, "us");
    let json_us = (parse_ns + render_ns * BATCH as f64) / 1e3;
    out.push(
        "server.wire_us",
        point_p50 - serve_ns[0] / 1e3 - json_us,
        "us",
    );
    out.push(
        "server.buffer_allocs",
        point.handle.server_stats().buffer_allocs as f64,
        "count",
    );
    let (counted, allocs) = alloc::count(|| point.drive(500, 1));
    tally(&mut out, &counted);
    out.push("server.allocs_per_request", allocs as f64 / 500.0, "count");
    let batcher = point.handle.batcher_stats();
    out.push(
        "batcher.mean_batch",
        batcher.admitted as f64 / batcher.batches.max(1) as f64,
        "count",
    );
    out.push("batcher.shed", batcher.shed as f64, "count");
    drop(point);

    // tenant / router: cache hits against misses, router against direct.
    let mut routed = RoutedStage::start(&fx, seed);
    out.correct &= routed.verify();
    let shard_addr = routed.shard.local_addr();
    let mut direct = Conn::open(shard_addr).expect("connect to the shard");
    // Another seed's permutation cuts other batches: bodies the cache has
    // not seen, so their first post misses and their second hits.
    let cold: Vec<Vec<u8>> = crate::bodies::batches(test, BATCH, seed.wrapping_add(1))
        .into_iter()
        .take(workloads::HOT_SET)
        .map(|b| b.plain)
        .collect();
    let miss = timed_posts(&mut direct, cold.iter().map(|b| &b[..]), &mut out);
    let hit = timed_posts(&mut direct, cold.iter().map(|b| &b[..]), &mut out);
    out.push("cache.miss_us", miss, "us");
    out.push("cache.hit_us", hit, "us");
    let hot: Vec<Vec<u8>> = routed.bodies().map(<[u8]>::to_vec).collect();
    let before = routed.registry.cache().stats();
    let pass = routed.drive(HOT_ROUNDS_REQUESTS);
    tally(&mut out, &pass);
    let after = routed.registry.cache().stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    out.push(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    let mut via_router = Vec::new();
    let mut via_shard = Vec::new();
    let mut router_conn = Conn::open(routed.router.local_addr()).expect("connect to the router");
    for _ in 0..HOP_ROUNDS {
        via_router.push(timed_posts(
            &mut router_conn,
            hot.iter().map(|b| &b[..]),
            &mut out,
        ));
        via_shard.push(timed_posts(
            &mut direct,
            hot.iter().map(|b| &b[..]),
            &mut out,
        ));
    }
    let hop = median(&via_router) - median(&via_shard);
    out.push("router.hop_us", hop, "us");
    let rs = routed.router.router_stats();
    out.push(
        "router.retries",
        (rs.leg_errors + rs.leg_sheds) as f64,
        "count",
    );
    out.push("router.failovers", rs.served_failover as f64, "count");
    drop(routed);

    // bulk: a short probe for the bulk rung sum.
    let mut bulk = BulkStage::start(&fx, seed);
    out.correct &= bulk.verify();
    let probe = bulk.drive(BULK_PROBE);
    tally(&mut out, &probe);
    let bulk_p50 = percentile(&probe.timing.latencies_us, 0.5);
    drop(bulk);

    // The named workload: plain, then with allocation counting on.
    let n = (request_count(workload, seconds) / 2).max(16);
    let plain = drive_workload(workload, &fx, seed, n, &mut out);
    alloc::set_counting(true);
    let traced = drive_workload(workload, &fx, seed, n, &mut out);
    alloc::set_counting(false);
    let p99 = percentile(&plain.timing.latencies_us, 0.99);
    out.push("tail.p99_us", p99, "us");
    out.push(
        "tail.samples",
        plain.timing.latencies_us.len() as f64,
        "count",
    );
    let plain_p50 = percentile(&plain.timing.latencies_us, 0.5);
    let traced_p50 = percentile(&traced.timing.latencies_us, 0.5);
    out.push("trace.overhead", traced_p50 / plain_p50 - 1.0, "ratio");
    out.steal_shares = vec![
        plain.timing.window.steal_share,
        traced.timing.window.steal_share,
    ];
    let steal = out.steal_shares.iter().sum::<f64>() / out.steal_shares.len() as f64;
    out.push("host.steal_share", steal, "ratio");
    out.push("host.nproc", host::nproc() as f64, "count");

    // The rung sums beside the end-to-end p50s; the remainder is printed,
    // not hidden.
    let point_rungs = [
        ("ce_nn+mscn forward", fwd8 / 1e3),
        ("conformal", conformal_ns[0] * 8.0 / 1e3),
        ("heal+resilient+serve", wrap8 / 1e3),
        ("json parse+render", json_us),
        ("ce_server round trip", healthz_us),
    ];
    rung_table(&mut out, "point", &point_rungs, point_p50);
    let bulk_rungs = [
        ("ce_nn+mscn forward", fwd256 / 1e3),
        ("conformal", conformal_ns[1] * 256.0 / 1e3),
        ("heal+resilient+serve", wrap256 / 1e3),
    ];
    rung_table(&mut out, "bulk", &bulk_rungs, bulk_p50);
    out
}

/// Median nanoseconds per observed truth, cycling through `truths`.
fn per_truth(truths: &[(Vec<f32>, f64)], mut observe: impl FnMut(&[f32], f64)) -> f64 {
    let mut next = 0usize;
    median_ns_per_call(ROUNDS, 20, || {
        let (x, y) = &truths[next % truths.len()];
        next += 1;
        observe(x, *y);
    })
}

/// Posts each body once and returns the median round trip in µs; a
/// non-200 answer marks the run incorrect.
fn timed_posts<'b>(
    conn: &mut Conn,
    bodies: impl Iterator<Item = &'b [u8]>,
    out: &mut Outcome,
) -> f64 {
    let mut lat = Vec::new();
    for body in bodies {
        let t = std::time::Instant::now();
        let ok = conn.post(PREDICT, body).is_ok_and(|r| r.status == 200);
        lat.push(t.elapsed().as_nanos() as f64 / 1e3);
        out.attempted += 1;
        if !ok {
            out.failed += 1;
            out.correct = false;
        }
    }
    lat.sort_by(f64::total_cmp);
    percentile(&lat, 0.5)
}

/// Folds a pass's counts and checks into the outcome.
fn tally(out: &mut Outcome, pass: &Pass) {
    out.attempted += pass.attempted;
    out.failed += pass.failed;
    out.correct &= pass.failed == 0 && pass.checks_ok;
}

/// One pass of `workload` on a fresh stage.
fn drive_workload(
    workload: Workload,
    fx: &Fixture,
    seed: u64,
    n: usize,
    out: &mut Outcome,
) -> Pass {
    let pass = match workload {
        Workload::Point => {
            let mut st = PointStage::start(fx, seed);
            out.correct &= st.verify();
            st.drive(n, 1)
        }
        Workload::Bulk => {
            let mut st = BulkStage::start(fx, seed);
            out.correct &= st.verify();
            st.drive(n)
        }
        Workload::Feedback => FeedbackStage::start(fx, seed).drive(fx, n, 1),
        Workload::RoutedHot => {
            let mut st = RoutedStage::start(fx, seed);
            out.correct &= st.verify();
            st.drive(n)
        }
    };
    tally(out, &pass);
    pass
}

/// Prints a ladder's rungs beside the measured p50 and reports the sum,
/// the p50 and the unattributed remainder.
fn rung_table(out: &mut Outcome, name: &str, rungs: &[(&str, f64)], p50_us: f64) {
    let sum: f64 = rungs.iter().map(|(_, us)| us).sum();
    eprintln!("  ladder {name}:");
    for (rung, us) in rungs {
        eprintln!("    {rung:<24} {us:>10.2} us");
    }
    eprintln!("    {:<24} {sum:>10.2} us", "rung sum");
    eprintln!("    {:<24} {p50_us:>10.2} us", "measured p50");
    eprintln!("    {:<24} {:>10.2} us", "unattributed", p50_us - sum);
    out.push(&format!("ladder.{name}.p50_us"), p50_us, "us");
    out.push(&format!("ladder.{name}.rung_sum_us"), sum, "us");
    out.push(
        &format!("ladder.{name}.unattributed_us"),
        p50_us - sum,
        "us",
    );
}
