//! Property and integration tests for cluster mode: the consistent-hash
//! ring's placement laws, and the routed fleet's failover behavior over
//! real loopback shards.
//!
//! The ring properties are the load-bearing guarantees of DESIGN.md §11:
//!
//! - **Balance** — with enough virtual nodes, no shard owns a wildly
//!   disproportionate share of the keyspace.
//! - **Minimal movement** — ejecting a shard moves *only* that shard's
//!   keys (everyone else's placement is untouched), and readmitting it
//!   restores the exact original placement, so a restarted shard gets its
//!   own keys back.
//! - **Determinism** — placement is a pure function of (shard names,
//!   vnodes, key): two independently built rings agree on every key, which
//!   is what lets any router replica (or an offline audit) compute where a
//!   query lives.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use cardest::router::request_signature;
use cardest::server::{
    Fleet, HashRing, Headers, HealthConfig, HttpClient, HttpServer, Request, Response,
    Router, RouterConfig, ServerConfig,
};
use proptest::prelude::*;

/// Builds a ring over `n` shards named `shard-0..n`.
fn ring(n: usize, vnodes: usize) -> HashRing {
    let names: Vec<String> = (0..n).map(|i| format!("shard-{i}")).collect();
    HashRing::new(&names, vnodes)
}

/// Key signatures derived from a seed — arbitrary but reproducible.
fn signatures(seed: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|i| request_signature(format!("key-{seed}-{i}").as_bytes()))
        .collect()
}

proptest! {
    /// Balance: over thousands of keys, every shard's share stays within
    /// a constant factor of fair (vnodes smooth the ring enough that no
    /// shard is starved or doubly loaded beyond bound).
    #[test]
    fn ring_distributes_keys_roughly_evenly(
        n_shards in 2usize..8,
        seed in 0u64..1_000,
    ) {
        let ring = ring(n_shards, 512);
        let keys = signatures(seed, 4_000);
        let mut counts: HashMap<String, usize> = HashMap::new();
        for &k in &keys {
            *counts.entry(ring.primary(k).expect("live ring").to_string()).or_default() += 1;
        }
        let fair = keys.len() as f64 / n_shards as f64;
        for i in 0..n_shards {
            let got = *counts.get(&format!("shard-{i}")).unwrap_or(&0) as f64;
            prop_assert!(
                got > fair * 0.5 && got < fair * 1.7,
                "shard-{} owns {} of {} keys (fair share {:.0})",
                i, got, keys.len(), fair
            );
        }
    }

    /// Minimal movement: ejecting one shard relocates exactly that shard's
    /// keys — every key owned by a surviving shard keeps its owner — and
    /// readmission restores the original placement for every key.
    #[test]
    fn eject_moves_only_the_dead_shards_keys_and_readmit_restores(
        n_shards in 2usize..8,
        victim in 0usize..8,
        seed in 0u64..1_000,
    ) {
        let victim = victim % n_shards;
        let victim_name = format!("shard-{victim}");
        let mut ring = ring(n_shards, 64);
        let keys = signatures(seed, 1_000);
        let before: Vec<String> =
            keys.iter().map(|&k| ring.primary(k).expect("live").to_string()).collect();
        ring.eject(&victim_name);
        for (&k, owner_before) in keys.iter().zip(&before) {
            let owner_after = ring.primary(k).expect("survivors stay live");
            if owner_before == &victim_name {
                prop_assert!(
                    owner_after != victim_name,
                    "key still on the ejected shard"
                );
            } else {
                prop_assert_eq!(
                    owner_after, owner_before.as_str(),
                    "a survivor's key moved on an unrelated ejection"
                );
            }
        }
        ring.readmit(&victim_name);
        for (&k, owner_before) in keys.iter().zip(&before) {
            prop_assert_eq!(
                ring.primary(k).expect("live"), owner_before.as_str(),
                "readmission must restore the exact original placement"
            );
        }
    }

    /// Determinism: placement and failover order are pure functions of the
    /// configuration — two independently constructed rings agree on every
    /// key's owner, on the full candidate walk, and on every replica set.
    #[test]
    fn independently_built_rings_agree_on_every_placement(
        n_shards in 1usize..8,
        vnodes in 1usize..128,
        seed in 0u64..1_000,
    ) {
        let a = ring(n_shards, vnodes);
        let b = ring(n_shards, vnodes);
        for &k in &signatures(seed, 500) {
            prop_assert_eq!(a.primary(k), b.primary(k));
            prop_assert_eq!(a.candidates(k), b.candidates(k));
            prop_assert_eq!(a.replica_set(k, 2), b.replica_set(k, 2));
            prop_assert_eq!(a.replica_set(k, 3), b.replica_set(k, 3));
        }
    }

    /// Replica sets are distinct live prefixes of the candidate walk: the
    /// set has exactly `min(r, live)` members, no duplicates, every member
    /// live, and failover order (the walk) starts with exactly the set.
    #[test]
    fn replica_sets_are_distinct_live_prefixes_of_the_candidate_walk(
        n_shards in 1usize..8,
        r in 1usize..5,
        ejected in 0usize..8,
        seed in 0u64..1_000,
    ) {
        let mut ring = ring(n_shards, 32);
        if n_shards > 1 {
            ring.eject(&format!("shard-{}", ejected % n_shards));
        }
        for &k in &signatures(seed, 200) {
            let set = ring.replica_set(k, r);
            prop_assert_eq!(set.len(), r.min(ring.live_count()));
            let mut uniq = set.clone();
            uniq.sort_unstable();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), set.len(), "duplicate replica");
            for name in &set {
                prop_assert!(ring.is_live(name), "dead shard in a replica set");
            }
            prop_assert_eq!(&ring.candidates(k)[..set.len()], &set[..]);
        }
    }

    /// Ejection stability: only replica sets containing the dead shard
    /// change, and those change in exactly one position — the victim drops
    /// out, every survivor keeps its slot and relative order, and the next
    /// eligible shard (if any) is appended at the end. This is what keeps
    /// an R-1 subset of every affected set warm across a failure.
    #[test]
    fn ejection_changes_only_sets_containing_the_victim_and_only_in_one_slot(
        n_shards in 2usize..8,
        victim in 0usize..8,
        r in 2usize..4,
        seed in 0u64..1_000,
    ) {
        let victim_name = format!("shard-{}", victim % n_shards);
        let mut ring = ring(n_shards, 64);
        let keys = signatures(seed, 500);
        let before: Vec<Vec<String>> = keys
            .iter()
            .map(|&k| ring.replica_set(k, r).iter().map(|s| s.to_string()).collect())
            .collect();
        ring.eject(&victim_name);
        for (&k, old) in keys.iter().zip(&before) {
            let new: Vec<String> =
                ring.replica_set(k, r).iter().map(|s| s.to_string()).collect();
            if !old.contains(&victim_name) {
                prop_assert_eq!(&new, old, "an unaffected replica set changed");
                continue;
            }
            let survivors: Vec<String> =
                old.iter().filter(|s| **s != victim_name).cloned().collect();
            prop_assert!(
                new.len() >= survivors.len() && new.len() <= survivors.len() + 1,
                "ejection changed more than one slot: {:?} -> {:?}", old, new
            );
            prop_assert_eq!(
                &new[..survivors.len()], &survivors[..],
                "survivors must keep their slots and order"
            );
        }
    }

    /// The candidate walk is a permutation of the live shards starting at
    /// the primary: failover always has somewhere to go until the fleet is
    /// actually empty.
    #[test]
    fn candidates_cover_every_live_shard_exactly_once(
        n_shards in 1usize..8,
        ejected in 0usize..8,
        seed in 0u64..1_000,
    ) {
        let mut ring = ring(n_shards, 32);
        if n_shards > 1 {
            ring.eject(&format!("shard-{}", ejected % n_shards));
        }
        for &k in &signatures(seed, 200) {
            let candidates = ring.candidates(k);
            prop_assert_eq!(candidates.len(), ring.live_count());
            let mut seen: Vec<&str> = candidates.clone();
            seen.sort_unstable();
            seen.dedup();
            prop_assert_eq!(seen.len(), candidates.len(), "duplicate candidate");
            prop_assert_eq!(candidates.first().copied(), ring.primary(k));
            for name in candidates {
                prop_assert!(ring.is_live(name), "dead shard offered as a candidate");
            }
        }
    }
}

/// An echo shard for integration tests: tags responses so the test can see
/// which shard served each request.
fn echo_shard(tag: &'static str) -> HttpServer {
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
            _ => Response::text(404, "nope"),
        }),
    )
    .expect("bind echo shard")
}

/// End-to-end restart-by-name: kill a shard, rebind it on a *different*
/// port, re-register the same ring name at the new address, and verify the
/// shard's keys come home — the property the cluster experiment relies on
/// for checkpoint-resume.
#[test]
fn restarted_shard_on_a_new_port_gets_its_keys_back() {
    let s0 = echo_shard("@0");
    let s1 = echo_shard("@1");
    let fleet = Fleet::new(
        &[
            ("shard-0".to_string(), s0.local_addr()),
            ("shard-1".to_string(), s1.local_addr()),
        ],
        64,
        HealthConfig {
            fail_threshold: 1,
            recover_threshold: 1,
            ..HealthConfig::default()
        },
    );
    let router = Router::new(
        fleet.clone(),
        RouterConfig { retry_budget: 2, ..RouterConfig::default() },
    );
    let post = |router: &Router, body: &[u8]| -> Vec<u8> {
        let req = Request {
            method: "POST",
            target: "/v1/predict",
            http11: true,
            headers: Headers::from_pairs(&[("content-type", "application/json")]),
            body,
        };
        let resp = router.forward(&req, request_signature(body));
        assert_eq!(resp.status, 200, "forward failed");
        resp.body.clone()
    };
    // Find a body owned by shard-0.
    let body = (0..64)
        .map(|i| format!("{{\"q\":{i}}}").into_bytes())
        .find(|b| post(&router, b).ends_with(b"@0"))
        .expect("some key must land on shard-0");
    // Kill shard-0 and mark it ejected (the prober's job, done by hand here
    // so the test controls timing). Its keys fail over to shard-1.
    s0.shutdown();
    fleet.report("shard-0", false, true);
    assert!(!fleet.is_live("shard-0"));
    assert!(post(&router, &body).ends_with(b"@1"), "failover to the survivor");
    // Restart under the same name on a fresh port; readmit. The key
    // returns to shard-0 even though its address changed.
    let s0b = echo_shard("@0");
    assert!(fleet.set_addr("shard-0", s0b.local_addr()));
    fleet.report("shard-0", true, true);
    assert!(fleet.is_live("shard-0"));
    assert!(
        post(&router, &body).ends_with(b"@0"),
        "restarted shard must get its keys back at the new address"
    );
    s0b.shutdown();
    s1.shutdown();
}

/// A drained (connection-refusing) shard never costs an accepted query:
/// the router keeps answering 200 through the survivors while the dead
/// shard refuses every leg.
#[test]
fn refusing_shard_never_costs_a_request() {
    let s0 = echo_shard("@0");
    let s1 = echo_shard("@1");
    let dead_addr = s0.local_addr();
    let fleet = Fleet::new(
        &[
            ("shard-0".to_string(), dead_addr),
            ("shard-1".to_string(), s1.local_addr()),
        ],
        64,
        HealthConfig::default(),
    );
    let router = Router::new(fleet.clone(), RouterConfig::default());
    s0.shutdown(); // port now refuses, but the ring still lists shard-0
    for i in 0..24 {
        let body = format!("{{\"q\":{i}}}").into_bytes();
        let req = Request {
            method: "POST",
            target: "/v1/predict",
            http11: true,
            headers: Headers::empty(),
            body: &body,
        };
        let resp = router.forward(&req, request_signature(&body));
        assert_eq!(resp.status, 200, "request {i} lost to a refusing shard");
    }
    assert!(router.stats().served_failover >= 1, "shard-0's keys must have failed over");
    s1.shutdown();
}

/// The cardest-level cluster router serves its local endpoints and proxies
/// predicts with a stable content-addressed placement (same body, same
/// shard) — exercised over real sockets.
#[test]
fn cluster_router_end_to_end_over_loopback() {
    let s0 = echo_shard("@0");
    let s1 = echo_shard("@1");
    let handle = cardest::router::start_cluster_router(
        &[
            ("shard-0".to_string(), s0.local_addr()),
            ("shard-1".to_string(), s1.local_addr()),
        ],
        "127.0.0.1:0",
        cardest::router::ClusterRouterConfig {
            health: HealthConfig {
                probe_interval: Duration::from_millis(10),
                ..HealthConfig::default()
            },
            ..Default::default()
        },
    )
    .expect("bind cluster router");
    let mut client = HttpClient::connect(handle.local_addr()).expect("connect");
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    assert_eq!(client.get("/readyz").expect("readyz").status, 200);
    let body = br#"{"features":[[0.25]]}"#;
    let first = client.post("/v1/predict", body).expect("predict");
    assert_eq!(first.status, 200);
    for _ in 0..8 {
        let again = client.post("/v1/predict", body).expect("repeat predict");
        assert_eq!(again.body, first.body, "placement must be content-addressed");
    }
    handle.drain();
    assert!(
        HttpClient::connect(handle.local_addr()).is_err(),
        "router port still accepting after drain"
    );
}

/// The router-fleet gate: two independently constructed fleets serve
/// byte-identical replica placements through a scripted churn sequence —
/// ejection, live shard addition, readmission, a second ejection. Any
/// router replica (or an offline audit) can therefore compute where a
/// query and its backups live at every point in the fleet's history.
#[test]
fn two_fleets_agree_on_replica_placement_under_scripted_churn() {
    let spec: Vec<(String, std::net::SocketAddr)> = (0..4)
        .map(|i| (format!("shard-{i}"), format!("127.0.0.1:{}", 9100 + i).parse().unwrap()))
        .collect();
    let config = HealthConfig {
        fail_threshold: 1,
        recover_threshold: 1,
        ..HealthConfig::default()
    };
    let a = Fleet::new(&spec, 128, config.clone());
    let b = Fleet::new(&spec, 128, config.clone());
    let sigs = signatures(1234, 400);
    let check = |a: &Fleet, b: &Fleet, step: &str| {
        for &sig in &sigs {
            for r in [1usize, 2, 3] {
                assert_eq!(
                    a.replica_set(sig, r),
                    b.replica_set(sig, r),
                    "fleets diverged after {step} (r={r})"
                );
            }
        }
    };
    check(&a, &b, "construction");
    for fleet in [&a, &b] {
        fleet.report("shard-2", false, true);
    }
    check(&a, &b, "ejecting shard-2");
    let new_addr: std::net::SocketAddr = "127.0.0.1:9104".parse().unwrap();
    for fleet in [&a, &b] {
        assert!(fleet.add_shard("shard-4", new_addr), "live addition must register");
    }
    check(&a, &b, "adding shard-4");
    for fleet in [&a, &b] {
        fleet.report("shard-2", true, true);
    }
    check(&a, &b, "readmitting shard-2");
    // With every shard live again, the *grown* fleet must place exactly
    // like a fleet constructed fresh with the full five-shard roster —
    // live addition is indistinguishable from having always been there.
    let mut full_spec = spec.clone();
    full_spec.push(("shard-4".to_string(), new_addr));
    let fresh = Fleet::new(&full_spec, 128, config);
    check(&a, &fresh, "comparing grown against fresh construction");
    for fleet in [&a, &b] {
        fleet.report("shard-0", false, true);
    }
    check(&a, &b, "ejecting shard-0");
}

/// A raw TCP stub that answers any request with headers and then dribbles
/// the body one byte at a time — each individual read on the scraping side
/// succeeds within its socket timeout, so only a wall-clock deadline can
/// bound the scrape. Returns the address and a stop flag.
fn dribble_shard() -> (std::net::SocketAddr, Arc<std::sync::atomic::AtomicBool>) {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind dribbler");
    let addr = listener.local_addr().expect("dribbler addr");
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            if flag.load(std::sync::atomic::Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { break };
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                let _ = stream.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\n");
                for _ in 0..100 {
                    if flag.load(std::sync::atomic::Ordering::SeqCst) {
                        break;
                    }
                    if stream.write_all(b"x").is_err() {
                        break;
                    }
                    let _ = stream.flush();
                    std::thread::sleep(Duration::from_millis(50));
                }
            });
        }
    });
    (addr, stop)
}

/// A shard whose `/metrics` is a fixed marker line, so the fleet scrape
/// test can recognize its section in the merged exposition.
fn metric_shard(marker: &'static str) -> HttpServer {
    HttpServer::bind(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::new(move |req: &Request| match (req.method, req.path()) {
            ("GET", "/readyz") => Response::text(200, "ready"),
            ("GET", "/metrics") => Response::text(200, marker),
            _ => Response::text(404, "nope"),
        }),
    )
    .expect("bind metric shard")
}

/// Scrape-timeout regression: a shard that accepts connections but
/// dribbles its `/metrics` body byte by byte must not stall the router's
/// fleet exposition. The merged view returns within the fleet deadline,
/// still carries the healthy shard's section, and `fleet_scrape_timeouts`
/// records the drop.
#[test]
fn a_dribbling_shard_cannot_stall_fleet_metrics() {
    let (slow_addr, stop) = dribble_shard();
    let healthy = metric_shard("healthy_scrape_marker 7\n");
    let handle = cardest::router::start_cluster_router(
        &[
            ("shard-slow".to_string(), slow_addr),
            ("shard-ok".to_string(), healthy.local_addr()),
        ],
        "127.0.0.1:0",
        cardest::router::ClusterRouterConfig {
            // Keep the prober out of the picture: the dribbler only speaks
            // to the scrape, and hysteresis never ejects it mid-test.
            health: HealthConfig {
                probe_interval: Duration::from_secs(60),
                fail_threshold: 1_000,
                ..HealthConfig::default()
            },
            ..Default::default()
        },
    )
    .expect("bind cluster router");
    let mut client = HttpClient::connect_with(
        handle.local_addr(),
        cardest::server::ClientConfig {
            read_timeout: Duration::from_secs(10),
            ..cardest::server::ClientConfig::default()
        },
    )
    .expect("connect");
    // First scrape hits the deadline and charges the counter; the counter
    // line itself is rendered before the fleet section, so a second scrape
    // reads the recorded drop.
    for round in 0..2 {
        let t = std::time::Instant::now();
        let resp = client.get("/metrics").expect("metrics");
        let elapsed = t.elapsed();
        assert_eq!(resp.status, 200);
        assert!(
            elapsed < Duration::from_secs(3),
            "scrape round {round} stalled for {elapsed:?}"
        );
        let body = String::from_utf8_lossy(&resp.body).into_owned();
        assert!(
            body.contains("healthy_scrape_marker{shard=\"shard-ok\"} 7"),
            "healthy shard's section missing:\n{body}"
        );
    }
    let resp = client.get("/metrics").expect("metrics");
    let body = String::from_utf8_lossy(&resp.body).into_owned();
    let timeouts: u64 = body
        .lines()
        .find_map(|line| line.strip_prefix("cluster_fleet_scrape_timeouts "))
        .expect("fleet_scrape_timeouts line")
        .trim()
        .parse()
        .expect("counter value");
    assert!(timeouts >= 2, "dribbled scrapes must be counted, saw {timeouts}");
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.drain();
}
