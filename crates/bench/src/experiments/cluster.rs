//! `cluster`: the consistent-hash routed shard fleet — qps scaling, router
//! overhead, the through-router bit-audit, a kill/checkpoint-resume soak
//! with zero accepted-query loss, and a seeded network-fault storm.
//!
//! Five operational claims about the cluster stack (DESIGN.md §11) are
//! checked in one run:
//!
//! 1. **It scales** — aggregate qps over the same client fleet rises
//!    monotonically as the router fronts 1 → 2 → 4 shards. Each shard's
//!    model is wrapped in a `PacedModel` that sleeps a fixed
//!    `PACE` per prediction, so per-query service time is wall-clock
//!    (like real inference or I/O) rather than host-CPU-bound — the
//!    measurement exercises the *routing fan-out* and holds on a 1-core
//!    runner, where raw CPU parallelism would show nothing.
//! 2. **It is cheap** — routed p50 latency for a pinned request exceeds
//!    direct-to-shard p50 by under 1ms (the router adds one loopback hop,
//!    a hash, and a pooled forward).
//! 3. **It is transparent** — intervals served through the router match
//!    direct in-process `predict_batch` calls bit for bit (shards start
//!    from identical state and the audit posts no truths, so placement
//!    cannot matter).
//! 4. **It loses nothing on a kill** — mid-soak, one shard is drained,
//!    checkpointed, and restarted from that checkpoint (`--resume`
//!    semantics) on a fresh port under the same ring name. Every query the
//!    fleet posted is eventually accepted (the router fails refused legs
//!    over to ring successors), the restored state is byte-identical to
//!    the checkpoint (`resume_divergence` 0), and the sum of shard-side
//!    observations equals the truths posted — no accepted query's
//!    feedback is lost or double-counted. The prober ejects the dead
//!    shard and readmits the restarted one.
//! 5. **It survives a fault storm** — a seeded [`ChaosProxy`] in front of
//!    one shard refuses, black-holes, truncates mid-response, and delays
//!    connections; every client request still completes, a full blackout
//!    ejects the shard, and calm readmits it through the same proxy.
//!
//! The replication PR (DESIGN.md §14) adds two more drills on fresh
//! fleets:
//!
//! 6. **A replica kill loses nothing** — with `--replicas 2`, truths fan
//!    out to each signature's backup as idempotent `/v1/observe` posts.
//!    Killing the primary of a pinned key mid-stream loses zero accepted
//!    queries, the promoted backup serves the key from *warm* calibration
//!    state (interval width within 2x of the primary's pre-kill answer),
//!    and the fleet-wide observation ledger balances: every posted truth
//!    is absorbed once by its serving replica plus once per successful
//!    fan-out — nothing lost, nothing double-counted on any one shard.
//! 7. **Hedging recovers the injected tail** — a [`ChaosProxy`] delay
//!    table stalls every Nth request on the primary's wire; firing a
//!    hedge at the first backup recovers >= 50% of the injected p99
//!    inflation without raising the error rate.
//!
//! The summary is exported to `BENCH_cluster.json` in the working
//! directory (grep-gated by CI) alongside the usual `results/cluster.json`
//! record.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cardest::conformal::{
    encode_checkpoint, read_checkpoint, write_checkpoint, AbsoluteResidual, HealConfig,
    OnlineConformal, PiEstimator, PiServiceConfig, PredictionInterval, Regressor,
    SelfHealingService,
};
use cardest::estimators::{AviModel, Mscn};
use cardest::pipeline::train_mscn;
use cardest::router::{request_signature, start_cluster_router, ClusterRouterConfig};
use cardest::serve::{start_server, HttpServeConfig, ServeEngine, ServeHandle};
use cardest::server::{
    ChaosProxy, ClientConfig, FaultRates, Fleet, HealthConfig, HedgePolicy, HttpClient,
    RouterConfig,
};

use crate::report::ExperimentRecord;
use crate::scale::Scale;

use super::net::{parse_intervals, percentile, predict_body};
use super::single_table::{sel_floor, standard_bench, ALPHA};

/// Fixed per-prediction pause: the simulated service time that makes shard
/// work wall-clock-bound (see module docs, claim 1).
const PACE: Duration = Duration::from_millis(2);

/// Clients in the scaling fleet.
const SCALE_CLIENTS: usize = 6;

/// Single-query requests each scaling client issues per shard count.
const SCALE_REQUESTS: usize = 80;

/// Sequential samples per side of the router-overhead comparison.
const OVERHEAD_SAMPLES: usize = 60;

/// Queries audited for through-router bit identity (chunks of
/// [`AUDIT_CHUNK`]).
const AUDIT_QUERIES: usize = 96;
const AUDIT_CHUNK: usize = 8;

/// Clients in the kill/restart soak; each posts one query + truth per
/// request and retries until accepted.
const KILL_CLIENTS: usize = 4;

/// Minimum requests each soak client posts (they keep going until the kill
/// choreography completes).
const KILL_MIN_REQUESTS: usize = 60;

/// Requests per chaos-storm burst, per client.
const CHAOS_BURST: usize = 25;

/// Attempts before a retrying client declares a query lost.
const RETRY_LIMIT: usize = 100;

/// A [`Regressor`] that sleeps a fixed pause before delegating — simulated
/// compute/I/O-bound inference, so shard throughput is bounded by
/// wall-clock service time instead of host cores.
#[derive(Clone)]
struct PacedModel {
    inner: Mscn,
    pause: Duration,
}

impl Regressor for PacedModel {
    fn predict(&self, features: &[f32]) -> f64 {
        std::thread::sleep(self.pause);
        self.inner.predict(features)
    }
}

type Shard = (Arc<ServeEngine<PacedModel, AbsoluteResidual>>, ServeHandle);

/// Builds one shared-nothing shard: its own self-healing service + AVI
/// fallback over the common model, served on an ephemeral loopback port.
fn start_shard(
    model: &PacedModel,
    bench: &cardest::pipeline::SingleTableBench,
    floor: f64,
) -> Shard {
    let healing = SelfHealingService::new(
        model.clone(),
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
    let handle = start_server(Arc::clone(&engine), "127.0.0.1:0", shard_http_config())
        .expect("bind shard");
    (engine, handle)
}

/// Shard HTTP tuning: enough workers to cover the router's pooled legs plus
/// the prober's fresh connections (workers are parked threads, cheap on any
/// core count).
fn shard_http_config() -> HttpServeConfig {
    HttpServeConfig { workers: 12, queue_cap: 4096, ..Default::default() }
}

/// Router tuning for the experiment: tight leg timeouts so black-holed
/// connections burn 300ms, not the 1s default, and a fast prober so
/// ejection/readmission land within the soak.
fn cluster_config() -> ClusterRouterConfig {
    ClusterRouterConfig {
        workers: 8,
        // 512 vnodes per shard: at 2 shards the 64-vnode default can split
        // keys 65/35, and the hot shard caps the whole fleet's throughput.
        vnodes: 512,
        router: RouterConfig {
            retry_budget: 2,
            deadline: Duration::from_secs(2),
            connect_timeout: Duration::from_millis(250),
            read_timeout: Duration::from_millis(300),
            ..RouterConfig::default()
        },
        health: HealthConfig {
            probe_interval: Duration::from_millis(25),
            connect_timeout: Duration::from_millis(150),
            read_timeout: Duration::from_millis(150),
            fail_threshold: 3,
            recover_threshold: 2,
            ..HealthConfig::default()
        },
    }
}

/// Posts `body` until the router accepts it with a 200, reconnecting on
/// transport errors; panics (failing the experiment) past [`RETRY_LIMIT`].
fn post_until_accepted(
    client: &mut Option<HttpClient>,
    router_addr: std::net::SocketAddr,
    body: &[u8],
) -> Vec<u8> {
    for _ in 0..RETRY_LIMIT {
        if client.is_none() {
            *client = HttpClient::connect_with(
                router_addr,
                ClientConfig {
                    read_timeout: Duration::from_secs(5),
                    ..ClientConfig::default()
                },
            )
            .ok();
            if client.is_none() {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        }
        let resp = match client.as_mut().unwrap().post("/v1/predict", body) {
            Ok(resp) => resp,
            Err(_) => {
                *client = None;
                continue;
            }
        };
        if resp.status == 200 {
            return resp.body;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("query not accepted after {RETRY_LIMIT} attempts: accepted-query loss");
}

/// Waits until `predicate` holds, failing the experiment after `budget`.
fn await_condition(budget: Duration, what: &str, predicate: impl Fn() -> bool) {
    let deadline = Instant::now() + budget;
    while !predicate() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Runs the cluster experiment; see the module docs.
pub fn cluster(scale: &Scale) -> Vec<ExperimentRecord> {
    let mut rec = ExperimentRecord::new(
        "cluster",
        "consistent-hash routed shard fleet: qps scaling, router overhead, \
         through-router bit-audit, kill/resume zero-loss soak, chaos-proxy storm",
    );
    let bench = standard_bench(scale, "dmv");
    let floor = sel_floor(scale.rows);
    let mscn = train_mscn(&bench.feat, &bench.train, scale.epochs.clamp(1, 10), scale.seed);
    let model = PacedModel { inner: mscn, pause: PACE };

    println!("  building 4 shared-nothing shards ...");
    let shards: Vec<Shard> = (0..4).map(|_| start_shard(&model, &bench, floor)).collect();
    let names: Vec<String> = (0..4).map(|i| format!("shard-{i}")).collect();
    let fleet_spec = |n: usize| -> Vec<(String, std::net::SocketAddr)> {
        (0..n).map(|i| (names[i].clone(), shards[i].1.local_addr())).collect()
    };

    // --- 1. aggregate qps is monotonic over 1 -> 2 -> 4 shards -----------
    let mut qps_by_shards = Vec::new();
    for &n in &[1usize, 2, 4] {
        let handle = start_cluster_router(&fleet_spec(n), "127.0.0.1:0", cluster_config())
            .expect("bind scaling router");
        let addr = handle.local_addr();
        // Warm the pools and the ring outside the timed window.
        let mut warm = HttpClient::connect(addr).expect("warm client");
        for i in 0..8 {
            let body = predict_body(std::slice::from_ref(&bench.test.x[i]), None);
            assert_eq!(warm.post("/v1/predict", &body).unwrap().status, 200);
        }
        let t0 = Instant::now();
        let workers: Vec<_> = (0..SCALE_CLIENTS)
            .map(|c| {
                let xs = bench.test.x.clone();
                std::thread::spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("scaling client");
                    for r in 0..SCALE_REQUESTS {
                        let i = (c * SCALE_REQUESTS + r) % xs.len();
                        let body = predict_body(std::slice::from_ref(&xs[i]), None);
                        let resp = client.post("/v1/predict", &body).expect("scaling POST");
                        assert_eq!(resp.status, 200, "scaling fleet must not fail");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("scaling client panicked");
        }
        let secs = t0.elapsed().as_secs_f64();
        let qps = (SCALE_CLIENTS * SCALE_REQUESTS) as f64 / secs;
        println!("  {n} shard(s): {qps:.0} qps over {:.2}s", secs);
        qps_by_shards.push((n, qps));
        handle.drain();
    }
    let (qps_1, qps_2, qps_4) =
        (qps_by_shards[0].1, qps_by_shards[1].1, qps_by_shards[2].1);
    // "Monotonic" with teeth: each doubling must buy at least 25% — the
    // paced-service model predicts ~2x, so 1.25x still flags a regression
    // while riding out scheduler jitter.
    let qps_monotonic = qps_2 >= qps_1 * 1.25 && qps_4 >= qps_2 * 1.25;
    assert!(
        qps_monotonic,
        "aggregate qps not monotonic over shard count: {qps_1:.0} -> {qps_2:.0} -> {qps_4:.0}"
    );
    rec.extra("qps_1shard", qps_1);
    rec.extra("qps_2shards", qps_2);
    rec.extra("qps_4shards", qps_4);
    rec.extra("qps_monotonic", 1.0);

    // From here on, one router over all four shards.
    let handle = start_cluster_router(&fleet_spec(4), "127.0.0.1:0", cluster_config())
        .expect("bind cluster router");
    let router_addr = handle.local_addr();

    // --- 2. router overhead: routed p50 - direct p50 < 1ms ---------------
    // One pinned body, measured sequentially against the shard that owns it
    // and then through the router; the paced service time cancels in the
    // difference, leaving the hop + hash + pooled forward.
    let pinned = predict_body(std::slice::from_ref(&bench.test.x[0]), None);
    let owner = handle
        .fleet()
        .candidates(request_signature(&pinned))
        .first()
        .map(|(name, addr)| (name.clone(), *addr))
        .expect("live ring");
    let mut direct = HttpClient::connect(owner.1).expect("direct client");
    let mut routed = HttpClient::connect(router_addr).expect("routed client");
    let measure = |client: &mut HttpClient| -> Vec<u128> {
        let mut lat = Vec::with_capacity(OVERHEAD_SAMPLES);
        for _ in 0..OVERHEAD_SAMPLES {
            let t = Instant::now();
            let resp = client.post("/v1/predict", &pinned).expect("overhead POST");
            lat.push(t.elapsed().as_micros());
            assert_eq!(resp.status, 200);
        }
        lat.sort_unstable();
        lat
    };
    // Warm both paths (connection setup, pool population) before timing.
    let _ = measure(&mut direct);
    let _ = measure(&mut routed);
    let direct_p50 = percentile(&measure(&mut direct), 0.50);
    let routed_p50 = percentile(&measure(&mut routed), 0.50);
    let overhead_us = routed_p50 - direct_p50;
    let overhead_under_1ms = overhead_us < 1000.0;
    assert!(
        overhead_under_1ms,
        "router p50 overhead {overhead_us:.0}us (direct {direct_p50:.0}us, routed {routed_p50:.0}us)"
    );
    println!("  router p50 overhead: {overhead_us:.0}us");
    rec.extra("direct_p50_us", direct_p50);
    rec.extra("routed_p50_us", routed_p50);
    rec.extra("router_overhead_p50_us", overhead_us);
    rec.extra("overhead_under_1ms", 1.0);

    // --- 3. bit-audit through the router ---------------------------------
    // No truths posted yet, so every shard still holds identical state and
    // shard 0's direct answers are the reference for all placements.
    let audit_n = bench.test.len().min(AUDIT_QUERIES);
    let reference: Vec<PredictionInterval> = shards[0]
        .0
        .predict_batch(&bench.test.x[..audit_n])
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("calm direct serving must not error");
    let mut served = Vec::with_capacity(audit_n);
    for chunk in bench.test.x[..audit_n].chunks(AUDIT_CHUNK) {
        let resp = routed.post("/v1/predict", &predict_body(chunk, None)).expect("audit POST");
        assert_eq!(resp.status, 200, "audit predict: {}", String::from_utf8_lossy(&resp.body));
        served.extend(parse_intervals(&resp.body).expect("audit response"));
    }
    let mismatches = reference
        .iter()
        .zip(&served)
        .filter(|(d, (lo, hi))| d.lo.to_bits() != lo.to_bits() || d.hi.to_bits() != hi.to_bits())
        .count();
    let bit_audit_identical = served.len() == reference.len() && mismatches == 0;
    assert!(
        bit_audit_identical,
        "{mismatches}/{audit_n} routed intervals differ from direct calls"
    );
    rec.extra("bit_audit_queries", audit_n as f64);
    rec.extra("bit_audit_identical", 1.0);

    // --- 4. kill/checkpoint-resume soak: zero accepted-query loss ---------
    println!("  soak: kill shard-0 mid-stream, restart from checkpoint ...");
    let soak_done = Arc::new(AtomicBool::new(false));
    let truths_posted = Arc::new(AtomicUsize::new(0));
    let soak_clients: Vec<_> = (0..KILL_CLIENTS)
        .map(|c| {
            let xs = bench.test.x.clone();
            let ys = bench.test.y.clone();
            let soak_done = Arc::clone(&soak_done);
            let truths_posted = Arc::clone(&truths_posted);
            std::thread::spawn(move || {
                let mut client = None;
                let mut r = 0usize;
                while r < KILL_MIN_REQUESTS || !soak_done.load(Ordering::SeqCst) {
                    let i = (c * KILL_MIN_REQUESTS + r) % xs.len();
                    let body = predict_body(
                        std::slice::from_ref(&xs[i]),
                        Some(std::slice::from_ref(&ys[i])),
                    );
                    post_until_accepted(&mut client, router_addr, &body);
                    truths_posted.fetch_add(1, Ordering::SeqCst);
                    r += 1;
                }
                r
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150)); // soak warm, all shards hot
    // Kill: drain finishes in-flight requests, then the port refuses. The
    // checkpoint is cut from the drained engine, so it carries every truth
    // shard-0 ever absorbed.
    shards[0].1.drain();
    let ckpt_path = std::env::temp_dir().join(format!("ce-cluster-{}.ckpt", std::process::id()));
    write_checkpoint(&ckpt_path, &shards[0].0.checkpoint()).expect("write checkpoint");
    await_condition(Duration::from_secs(10), "shard-0 ejection", || {
        !handle.fleet().is_live("shard-0")
    });
    let kill_ejected = true;
    // Restart under the same ring name: restore the healing state from
    // disk byte-for-byte, rebuild the chain, re-register the new address.
    let from_disk = read_checkpoint(&ckpt_path).expect("read checkpoint");
    let disk_bytes = encode_checkpoint(&from_disk);
    let saved_breakers = from_disk.breakers.clone();
    let restored_svc = SelfHealingService::restore(model.clone(), AbsoluteResidual, from_disk)
        .expect("restore from checkpoint");
    let restored_engine = {
        let fallbacks: Vec<Box<dyn PiEstimator>> = vec![Box::new(OnlineConformal::new(
            AviModel::build(&bench.table, floor),
            AbsoluteResidual,
            &bench.calib.x,
            &bench.calib.y,
            ALPHA,
        ))];
        Arc::new(ServeEngine::new(restored_svc, fallbacks, bench.test.x[0].len()))
    };
    restored_engine.restore_breakers(&saved_breakers).expect("restore breakers");
    let resume_divergence =
        usize::from(encode_checkpoint(&restored_engine.checkpoint()) != disk_bytes);
    assert_eq!(resume_divergence, 0, "restored checkpoint must be byte-identical");
    let restarted =
        start_server(Arc::clone(&restored_engine), "127.0.0.1:0", shard_http_config())
            .expect("rebind shard-0");
    assert!(
        handle.fleet().set_addr("shard-0", restarted.local_addr()),
        "shard-0 must still be on the ring"
    );
    await_condition(Duration::from_secs(10), "shard-0 readmission", || {
        handle.fleet().is_live("shard-0")
    });
    let kill_readmitted = true;
    soak_done.store(true, Ordering::SeqCst);
    let mut soak_requests = 0usize;
    for w in soak_clients {
        soak_requests += w.join().expect("soak client panicked");
    }
    let posted = truths_posted.load(Ordering::SeqCst);
    assert_eq!(soak_requests, posted, "every soak request posts exactly one truth");
    // Zero-loss ledger: the restored checkpoint carries shard-0's pre-kill
    // truths, the live engines carry everything else (failovers included);
    // the sum must equal what the fleet posted — nothing lost, nothing
    // double-observed.
    let observed: u64 = restored_engine.observations()
        + shards[1..].iter().map(|(e, _)| e.observations()).sum::<u64>();
    let zero_loss = observed == posted as u64;
    assert!(
        zero_loss,
        "feedback ledger off: {observed} observed vs {posted} truths posted"
    );
    let fleet_stats = handle.fleet_stats();
    assert!(fleet_stats.ejections >= 1 && fleet_stats.readmissions >= 1);
    println!(
        "  soak: {posted} queries all accepted, {observed} truths observed, \
         ejections {} readmissions {}",
        fleet_stats.ejections, fleet_stats.readmissions
    );
    rec.extra("soak_queries", posted as f64);
    rec.extra("soak_truths_observed", observed as f64);
    rec.extra("zero_loss", 1.0);
    rec.extra("resume_divergence", resume_divergence as f64);
    rec.extra("kill_ejected", f64::from(u8::from(kill_ejected)));
    rec.extra("kill_readmitted", f64::from(u8::from(kill_readmitted)));

    // --- 5. chaos-proxy storm over shard-3 -------------------------------
    println!("  chaos: seeded fault storm on shard-3's wire ...");
    let shard3_addr = handle.fleet().addr_of("shard-3").expect("shard-3 on ring");
    let proxy = ChaosProxy::start("127.0.0.1:0", shard3_addr, scale.seed ^ 0xC1A0_5EED, {
        FaultRates::calm()
    })
    .expect("bind chaos proxy");
    assert!(handle.fleet().set_addr("shard-3", proxy.local_addr()));
    let storm = FaultRates {
        refuse: 0.3,
        black_hole: 0.1,
        truncate: 0.25,
        delay_rate: 0.2,
        truncate_after: 40,
        delay: Duration::from_millis(20),
        ..FaultRates::calm()
    };
    let ejections_before = handle.fleet_stats().ejections;
    let chaos_posted = Arc::new(AtomicUsize::new(0));
    let chaos_burst = |tag: usize| {
        let workers: Vec<_> = (0..KILL_CLIENTS)
            .map(|c| {
                let xs = bench.test.x.clone();
                let chaos_posted = Arc::clone(&chaos_posted);
                std::thread::spawn(move || {
                    let mut client = None;
                    for r in 0..CHAOS_BURST {
                        let i = (tag * 1000 + c * CHAOS_BURST + r) % xs.len();
                        let body = predict_body(std::slice::from_ref(&xs[i]), None);
                        post_until_accepted(&mut client, router_addr, &body);
                        chaos_posted.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("chaos client panicked");
        }
    };
    chaos_burst(0); // calm through the proxy: transparent
    proxy.set_faults(storm);
    chaos_burst(1); // storm: every request still lands via failover
    proxy.set_faults(FaultRates::blackout());
    chaos_burst(2); // blackout: shard-3 goes fully dark
    await_condition(Duration::from_secs(10), "shard-3 ejection", || {
        !handle.fleet().is_live("shard-3")
    });
    proxy.set_faults(FaultRates::calm());
    await_condition(Duration::from_secs(10), "shard-3 readmission", || {
        handle.fleet().is_live("shard-3")
    });
    chaos_burst(3); // calm again: readmitted shard serves through the proxy
    let chaos_queries = chaos_posted.load(Ordering::SeqCst);
    assert_eq!(chaos_queries, 4 * KILL_CLIENTS * CHAOS_BURST, "chaos queries all accepted");
    let proxy_stats = proxy.stats();
    let faults_injected = proxy_stats.refused + proxy_stats.black_holed + proxy_stats.truncated;
    assert!(faults_injected >= 1, "the storm must actually inject faults");
    let fleet_after = handle.fleet_stats();
    let chaos_ejected = fleet_after.ejections > ejections_before;
    let chaos_readmitted = handle.fleet().is_live("shard-3");
    assert!(chaos_ejected && chaos_readmitted);
    println!(
        "  chaos: {chaos_queries} queries all accepted through {} injected faults \
         ({} refused, {} black-holed, {} truncated, {} delayed)",
        faults_injected,
        proxy_stats.refused,
        proxy_stats.black_holed,
        proxy_stats.truncated,
        proxy_stats.delayed
    );
    rec.extra("chaos_queries", chaos_queries as f64);
    rec.extra("chaos_faults_injected", faults_injected as f64);
    rec.extra("chaos_ejected", 1.0);
    rec.extra("chaos_readmitted", 1.0);

    let router_stats = handle.router_stats();
    assert!(router_stats.served_failover >= 1, "the soak+storm must exercise failover");
    rec.extra("router_requests", router_stats.requests as f64);
    rec.extra("served_failover", router_stats.served_failover as f64);
    rec.extra("leg_errors", router_stats.leg_errors as f64);
    rec.extra("ejections", fleet_after.ejections as f64);
    rec.extra("readmissions", fleet_after.readmissions as f64);

    handle.drain();
    let _ = std::fs::remove_file(&ckpt_path);
    drop(proxy);
    for (_, shard) in &shards[1..] {
        shard.drain();
    }
    restarted.drain();

    // --- 6. replica kill drill: R=2, primary death loses nothing ----------
    println!("  replica drill: R=2 fleet, kill the pinned key's primary mid-stream ...");
    let r_shards: Vec<Shard> = (0..3).map(|_| start_shard(&model, &bench, floor)).collect();
    let r_names = ["replica-0", "replica-1", "replica-2"];
    let r_spec: Vec<(String, std::net::SocketAddr)> = r_shards
        .iter()
        .zip(r_names)
        .map(|((_, h), name)| (name.to_string(), h.local_addr()))
        .collect();
    let mut r_config = cluster_config();
    r_config.router.replicas = 2;
    let r_handle =
        start_cluster_router(&r_spec, "127.0.0.1:0", r_config).expect("bind replica router");
    let r_addr = r_handle.local_addr();
    // The pinned probe (truth-less, so probing never disturbs calibration)
    // names the replica set under test.
    let probe = predict_body(std::slice::from_ref(&bench.test.x[1]), None);
    let probe_set = r_handle.fleet().replica_set(request_signature(&probe), 2);
    assert_eq!(probe_set.len(), 2, "R=2 over 3 live shards");
    let primary_name = probe_set[0].0.clone();
    let primary_idx = r_names
        .iter()
        .position(|n| *n == primary_name)
        .expect("primary is one of the drill shards");
    let drill_done = Arc::new(AtomicBool::new(false));
    let drill_posted = Arc::new(AtomicUsize::new(0));
    let drill_clients: Vec<_> = (0..KILL_CLIENTS)
        .map(|c| {
            let xs = bench.test.x.clone();
            let ys = bench.test.y.clone();
            let drill_done = Arc::clone(&drill_done);
            let drill_posted = Arc::clone(&drill_posted);
            std::thread::spawn(move || {
                let mut client = None;
                let mut r = 0usize;
                while r < KILL_MIN_REQUESTS || !drill_done.load(Ordering::SeqCst) {
                    let i = (c * KILL_MIN_REQUESTS + r) % xs.len();
                    let body = predict_body(
                        std::slice::from_ref(&xs[i]),
                        Some(std::slice::from_ref(&ys[i])),
                    );
                    post_until_accepted(&mut client, r_addr, &body);
                    drill_posted.fetch_add(1, Ordering::SeqCst);
                    r += 1;
                }
                r
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200)); // fan-outs warm every backup
    let mut prober = HttpClient::connect(r_addr).expect("drill probe client");
    let before_resp = prober.post("/v1/predict", &probe).expect("pre-kill probe");
    assert_eq!(before_resp.status, 200);
    let before = parse_intervals(&before_resp.body).expect("pre-kill intervals");
    let width_before = (before[0].1 - before[0].0).abs().max(f64::MIN_POSITIVE);
    // Kill mid-stream: drain finishes in-flight requests, then the port
    // refuses; the prober ejects it and the backup is promoted.
    r_shards[primary_idx].1.drain();
    await_condition(Duration::from_secs(10), "drill primary ejection", || {
        !r_handle.fleet().is_live(&primary_name)
    });
    let after_resp = prober.post("/v1/predict", &probe).expect("promoted probe");
    assert_eq!(after_resp.status, 200, "promoted backup must serve the pinned key");
    let after = parse_intervals(&after_resp.body).expect("promoted intervals");
    let width_after = (after[0].1 - after[0].0).abs().max(f64::MIN_POSITIVE);
    let warm_log_ratio = (width_after / width_before).ln().abs();
    drill_done.store(true, Ordering::SeqCst);
    let mut drill_requests = 0usize;
    for w in drill_clients {
        drill_requests += w.join().expect("drill client panicked");
    }
    let drill_total = drill_posted.load(Ordering::SeqCst);
    assert_eq!(drill_requests, drill_total);
    // `post_until_accepted` panics on loss, so reaching here IS the gate.
    let replica_kill_zero_loss = true;
    let r_stats = r_handle.router_stats();
    let lag_total: u64 = r_handle.truth_lag().iter().map(|(_, l)| *l).sum();
    // Fan-out ledger: every accepted truth is absorbed once by its serving
    // replica (predict path) plus once per successful /v1/observe fan-out.
    // The truth-ID dedupe keeps retried posts from double-counting on any
    // one shard, so the fleet-wide sum balances exactly.
    let r_observed: u64 = r_shards.iter().map(|(e, _)| e.observations()).sum();
    assert_eq!(
        r_observed,
        drill_total as u64 + r_stats.truth_replicated,
        "fan-out ledger off (lag {lag_total}, fanouts {})",
        r_stats.truth_fanouts
    );
    // Lag accrues only in the death-to-ejection window; it must stay a
    // small fraction of the stream — that is the "bounded calibration dip".
    assert!(
        lag_total < drill_total as u64 / 2,
        "truth lag {lag_total} out of {drill_total} posts: fan-out effectively dead"
    );
    let promoted_backup_warm = warm_log_ratio <= std::f64::consts::LN_2
        && r_stats.truth_replicated >= drill_total as u64 / 2;
    assert!(
        promoted_backup_warm,
        "promoted backup not warm: |ln width ratio| {warm_log_ratio:.3} \
         (before {width_before:.3}, after {width_after:.3}), \
         {} fan-outs replicated of {drill_total} posts",
        r_stats.truth_replicated
    );
    println!(
        "  replica drill: {drill_total} posts, {} replicated, lag {lag_total}, \
         promoted-width ratio e^{warm_log_ratio:.3}",
        r_stats.truth_replicated
    );
    rec.extra("replica_drill_posts", drill_total as f64);
    rec.extra("replica_truth_replicated", r_stats.truth_replicated as f64);
    rec.extra("replica_truth_lag", lag_total as f64);
    rec.extra("replica_warm_log_ratio", warm_log_ratio);
    rec.extra("replica_kill_zero_loss", 1.0);
    rec.extra("promoted_backup_warm", 1.0);
    r_handle.drain();
    for (i, (_, shard)) in r_shards.iter().enumerate() {
        if i != primary_idx {
            shard.drain();
        }
    }

    // --- 7. hedge drill: recover the injected p99 tail --------------------
    println!("  hedge drill: deterministic stall table on the primary's wire ...");
    const HEDGE_REQUESTS: usize = 160;
    const TAIL_EVERY: u32 = 8;
    const TAIL_STALL: Duration = Duration::from_millis(90);
    let h_shards: Vec<Shard> = (0..2).map(|_| start_shard(&model, &bench, floor)).collect();
    let h_names = ["hedge-0", "hedge-1"];
    let h_real: Vec<(String, std::net::SocketAddr)> = h_shards
        .iter()
        .zip(h_names)
        .map(|((_, h), name)| (name.to_string(), h.local_addr()))
        .collect();
    let h_probe = predict_body(std::slice::from_ref(&bench.test.x[2]), None);
    let h_sig = request_signature(&h_probe);
    // Placement is a pure function of names + vnodes, so a throwaway fleet
    // names the primary before any router exists — every router below
    // places identically (the two-router determinism gate in tests/).
    let placement = Fleet::new(&h_real, cluster_config().vnodes, HealthConfig::default());
    let (h_primary_name, h_primary_addr) =
        placement.replica_set(h_sig, 1).first().cloned().expect("pinned primary");
    let h_proxy =
        ChaosProxy::start("127.0.0.1:0", h_primary_addr, scale.seed ^ 0x7A11, FaultRates::calm())
            .expect("bind tail proxy");
    let h_spec: Vec<(String, std::net::SocketAddr)> = h_real
        .iter()
        .map(|(name, addr)| {
            let addr = if *name == h_primary_name { h_proxy.local_addr() } else { *addr };
            (name.clone(), addr)
        })
        .collect();
    // One measured run per configuration: fresh router (clean pools and
    // counters), same proxy, same pinned truth-less body.
    let run = |hedge: Option<Duration>, tail: bool| -> (f64, u64, u64) {
        h_proxy.set_faults(if tail {
            FaultRates::tail(TAIL_EVERY, vec![TAIL_STALL])
        } else {
            FaultRates::calm()
        });
        let mut config = cluster_config();
        config.router.replicas = 2;
        config.router.hedge = match hedge {
            Some(delay) => HedgePolicy::Fixed(delay),
            None => HedgePolicy::Off,
        };
        let handle =
            start_cluster_router(&h_spec, "127.0.0.1:0", config).expect("bind hedge router");
        let mut client = HttpClient::connect(handle.local_addr()).expect("hedge client");
        for _ in 0..8 {
            assert_eq!(client.post("/v1/predict", &h_probe).expect("warm").status, 200);
        }
        let mut lat = Vec::with_capacity(HEDGE_REQUESTS);
        for _ in 0..HEDGE_REQUESTS {
            let t = Instant::now();
            let resp = client.post("/v1/predict", &h_probe).expect("hedge POST");
            lat.push(t.elapsed().as_micros());
            assert_eq!(resp.status, 200, "hedging must not raise the error rate");
        }
        lat.sort_unstable();
        let stats = handle.router_stats();
        handle.drain();
        (percentile(&lat, 0.99), stats.hedges_fired, stats.hedge_wins)
    };
    let (p99_calm, _, _) = run(None, false);
    let (p99_tail, _, _) = run(None, true);
    let (p99_hedged, hedges_fired, hedge_wins) =
        run(Some(Duration::from_millis(15)), true);
    drop(h_proxy);
    for (_, shard) in &h_shards {
        shard.drain();
    }
    assert!(
        p99_tail > p99_calm + 1_000.0,
        "the injected tail must be visible: calm p99 {p99_calm:.0}us, tail {p99_tail:.0}us"
    );
    assert!(hedges_fired >= 1 && hedge_wins >= 1, "the hedge must fire and win");
    let hedge_recovered = (p99_tail - p99_hedged) / (p99_tail - p99_calm);
    let hedge_p99_recovered = hedge_recovered >= 0.5;
    assert!(
        hedge_p99_recovered,
        "hedging recovered only {:.0}% of the injected p99 inflation \
         (calm {p99_calm:.0}us, tail {p99_tail:.0}us, hedged {p99_hedged:.0}us)",
        hedge_recovered * 100.0
    );
    println!(
        "  hedge drill: p99 calm {p99_calm:.0}us / tail {p99_tail:.0}us / hedged \
         {p99_hedged:.0}us — {:.0}% recovered, {hedges_fired} fired, {hedge_wins} wins",
        hedge_recovered * 100.0
    );
    rec.extra("hedge_p99_calm_us", p99_calm);
    rec.extra("hedge_p99_tail_us", p99_tail);
    rec.extra("hedge_p99_hedged_us", p99_hedged);
    rec.extra("hedge_recovered_frac", hedge_recovered);
    rec.extra("hedges_fired", hedges_fired as f64);
    rec.extra("hedge_wins", hedge_wins as f64);
    rec.extra("hedge_p99_recovered", 1.0);

    write_bench_summary(
        scale,
        (qps_1, qps_2, qps_4),
        overhead_us,
        bit_audit_identical,
        zero_loss,
        resume_divergence,
        faults_injected,
        (replica_kill_zero_loss, promoted_backup_warm, hedge_p99_recovered),
        &rec,
    );
    vec![rec]
}

/// Writes `BENCH_cluster.json` in the working directory: the gate fields CI
/// greps plus the scalar metrics.
#[allow(clippy::too_many_arguments)]
fn write_bench_summary(
    scale: &Scale,
    (qps_1, qps_2, qps_4): (f64, f64, f64),
    overhead_us: f64,
    bit_audit_identical: bool,
    zero_loss: bool,
    resume_divergence: usize,
    faults_injected: u64,
    (replica_kill_zero_loss, promoted_backup_warm, hedge_p99_recovered): (bool, bool, bool),
    rec: &ExperimentRecord,
) {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"setting_rows\": {},\n", scale.rows));
    json.push_str(&format!("  \"qps_1shard\": {qps_1:.1},\n"));
    json.push_str(&format!("  \"qps_2shards\": {qps_2:.1},\n"));
    json.push_str(&format!("  \"qps_4shards\": {qps_4:.1},\n"));
    json.push_str("  \"qps_monotonic\": true,\n");
    json.push_str(&format!("  \"router_overhead_p50_us\": {overhead_us:.0},\n"));
    json.push_str("  \"overhead_under_1ms\": true,\n");
    json.push_str(&format!("  \"bit_audit_identical\": {bit_audit_identical},\n"));
    json.push_str(&format!("  \"zero_loss\": {zero_loss},\n"));
    json.push_str(&format!("  \"resume_divergence\": {resume_divergence},\n"));
    json.push_str(&format!("  \"chaos_faults_injected\": {faults_injected},\n"));
    json.push_str(&format!("  \"replica_kill_zero_loss\": {replica_kill_zero_loss},\n"));
    json.push_str(&format!("  \"promoted_backup_warm\": {promoted_backup_warm},\n"));
    json.push_str(&format!("  \"hedge_p99_recovered\": {hedge_p99_recovered},\n"));
    json.push_str("  \"metrics\": {\n");
    let scalars: Vec<String> = rec
        .extras
        .iter()
        .map(|(name, value)| format!("    \"{name}\": {value}"))
        .collect();
    json.push_str(&scalars.join(",\n"));
    json.push_str("\n  }\n}\n");
    std::fs::write("BENCH_cluster.json", &json).expect("write BENCH_cluster.json");
    println!("  [saved BENCH_cluster.json]");
}
