//! Adversarial property tests for the HTTP serving substrate, plus
//! concurrency tests for the micro-batcher and the full loopback server.
//!
//! The parser faces the network, so it gets the same treatment as the
//! checkpoint codec: arbitrary garbage must never panic or wedge it,
//! chunk boundaries must be invisible, truncated bodies must never
//! surface as requests, and every size limit must map to the right 4xx.
//! The batcher and server face N concurrent callers, so the tests here
//! hammer them from thread fleets and assert nothing deadlocks and no
//! result is lost or cross-wired.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cardest::conformal::{
    AbsoluteResidual, HealConfig, PiServiceConfig, SelfHealingService,
};
use cardest::serve::{start_server, HttpServeConfig, ServeEngine};
use cardest::server::{
    BatcherConfig, HttpClient, HttpServer, MicroBatcher, ParserLimits, Request, RequestParser,
    Response, ServerConfig,
};
use proptest::prelude::*;

/// Drains every complete request currently parseable from `parser`.
///
/// The parser hands out zero-copy views borrowed from its buffer, so the
/// helper detaches each one (`to_owned`) before pulling the next.
fn drain(parser: &mut RequestParser) -> Result<Vec<cardest::server::OwnedRequest>, u16> {
    let mut out = Vec::new();
    loop {
        match parser.next_request() {
            Ok(Some(req)) => out.push(req.to_owned()),
            Ok(None) => return Ok(out),
            Err(e) => return Err(e.status()),
        }
    }
}

/// Builds one syntactically valid POST with the given body.
fn valid_post(path_tag: usize, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST /echo/{path_tag} HTTP/1.1\r\nHost: test\r\nX-Tag: {path_tag}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

proptest! {
    /// Arbitrary bytes from the network: the parser either produces
    /// requests, asks for more bytes, or dies with a mappable 4xx/5xx
    /// status — it never panics and never loops.
    #[test]
    fn parser_survives_arbitrary_garbage(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let mut parser = RequestParser::new(ParserLimits::default());
        parser.push(&bytes);
        match drain(&mut parser) {
            Ok(requests) => {
                for req in requests {
                    prop_assert!(!req.method.is_empty());
                }
            }
            Err(status) => {
                prop_assert!((400..=505).contains(&status), "unmappable status {status}");
                // Poisoned: the same error must keep coming back.
                prop_assert_eq!(drain(&mut parser).unwrap_err(), status);
            }
        }
    }

    /// A pipelined stream of valid requests parses to the same requests no
    /// matter how the bytes are split into socket reads — chunk boundaries
    /// (mid-line, mid-header, mid-body) are invisible.
    #[test]
    fn chunk_boundaries_are_invisible(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..96), 1..6),
        chunk_sizes in prop::collection::vec(1usize..48, 1..12),
    ) {
        let mut stream = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            stream.extend_from_slice(&valid_post(i, body));
        }

        let mut whole = RequestParser::new(ParserLimits::default());
        whole.push(&stream);
        let expect = drain(&mut whole).expect("valid stream");
        prop_assert_eq!(expect.len(), bodies.len());

        let mut chunked = RequestParser::new(ParserLimits::default());
        let mut got = Vec::new();
        let mut at = 0;
        let mut turn = 0;
        while at < stream.len() {
            let step = chunk_sizes[turn % chunk_sizes.len()].min(stream.len() - at);
            chunked.push(&stream[at..at + step]);
            at += step;
            turn += 1;
            got.extend(drain(&mut chunked).expect("valid stream, chunked"));
        }
        prop_assert_eq!(got.len(), expect.len());
        for (a, b) in got.iter().zip(&expect) {
            prop_assert_eq!(&a.method, &b.method);
            prop_assert_eq!(&a.target, &b.target);
            prop_assert_eq!(&a.body, &b.body);
            prop_assert_eq!(a.header("x-tag"), b.header("x-tag"));
        }
    }

    /// A truncated body never surfaces as a request: with every byte short
    /// of `Content-Length` the parser reports "need more", and the final
    /// byte completes exactly one request with the full body.
    #[test]
    fn truncated_bodies_never_surface(body in prop::collection::vec(any::<u8>(), 1..256)) {
        let raw = valid_post(0, &body);
        let mut parser = RequestParser::new(ParserLimits::default());
        parser.push(&raw[..raw.len() - 1]);
        prop_assert!(drain(&mut parser).expect("prefix is not an error").is_empty());
        parser.push(&raw[raw.len() - 1..]);
        let done = drain(&mut parser).expect("completed request");
        prop_assert_eq!(done.len(), 1);
        prop_assert_eq!(&done[0].body, &body);
    }

    /// Oversized request lines, header blocks, and declared bodies die with
    /// the matching status (414 / 431 / 413) instead of buffering without
    /// bound — even when the oversized head arrives one byte at a time.
    #[test]
    fn size_limits_map_to_statuses(fill in 1usize..64, drip in any::<bool>()) {
        let limits = ParserLimits {
            max_request_line: 128,
            max_head_bytes: 512,
            max_headers: 8,
            max_body_bytes: 256,
        };

        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(128 + fill));
        let mut parser = RequestParser::new(limits);
        if drip {
            for b in long_line.as_bytes() {
                parser.push(std::slice::from_ref(b));
                if drain(&mut parser).is_err() {
                    break;
                }
            }
        } else {
            parser.push(long_line.as_bytes());
        }
        prop_assert_eq!(drain(&mut parser).unwrap_err(), 414);

        let mut many_headers = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(8 + fill) {
            many_headers.push_str(&format!("X-H-{i}: v\r\n"));
        }
        many_headers.push_str("\r\n");
        let mut parser = RequestParser::new(limits);
        parser.push(many_headers.as_bytes());
        prop_assert_eq!(drain(&mut parser).unwrap_err(), 431);

        let big_body =
            format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 256 + fill);
        let mut parser = RequestParser::new(limits);
        parser.push(big_body.as_bytes());
        prop_assert_eq!(drain(&mut parser).unwrap_err(), 413);
    }
}

#[test]
fn malformed_request_lines_reject_cleanly() {
    for (raw, want) in [
        (&b"GARBAGE\r\n\r\n"[..], 400u16),
        (b"GET /x HTTP/2.0\r\n\r\n", 505),
        (b"GET /x HTTP/1.1\r\nno-colon\r\n\r\n", 400),
        (b"POST /x HTTP/1.1\r\nContent-Length: two\r\n\r\n", 400),
        (b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
        (b"POST /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n", 400),
    ] {
        let mut parser = RequestParser::new(ParserLimits::default());
        parser.push(raw);
        let err = parser.next_request().expect_err("malformed input must error");
        assert_eq!(err.status(), want, "for {:?}", String::from_utf8_lossy(raw));
    }
}

/// A fleet of threads pushing overlapping batches through one micro-batcher:
/// every submission must come back complete, in order, and correctly paired
/// (no cross-wiring between coalesced submissions), with nothing deadlocked.
#[test]
fn micro_batcher_survives_a_concurrent_fleet() {
    let batcher: Arc<MicroBatcher<u64, u64>> = MicroBatcher::new(
        BatcherConfig {
            queue_cap: 256,
            max_batch: 16,
            window: std::time::Duration::from_micros(200),
        },
        |items: Vec<u64>| items.iter().map(|v| v * 2 + 1).collect(),
    );
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || {
                for round in 0..50u64 {
                    let base = t * 10_000 + round * 100;
                    let items: Vec<u64> = (base..base + 1 + round % 7).collect();
                    let results = batcher.submit_all(items.clone()).expect("calm submit");
                    assert_eq!(results.len(), items.len());
                    for (x, y) in items.iter().zip(&results) {
                        assert_eq!(*y, x * 2 + 1, "cross-wired batch result");
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("fleet thread panicked");
    }
    let stats = batcher.stats();
    assert_eq!(stats.shed, 0, "calm fleet must not shed");
    assert!(stats.admitted >= 8 * 50, "all submissions admitted");
    batcher.shutdown();
}

/// End-to-end loopback serving: concurrent keep-alive clients stream
/// predict batches (with prequential truths) through the real HTTP server
/// and micro-batcher; everything answers 200, nothing deadlocks, and a
/// graceful drain closes the port.
#[test]
fn loopback_fleet_never_deadlocks_the_server() {
    let n = 64usize;
    let xs: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32 / n as f32]).collect();
    let ys: Vec<f64> = (0..n).map(|i| i as f64 / n as f64 + 0.02).collect();
    let model = |f: &[f32]| f[0] as f64;
    let healing = SelfHealingService::new(
        model,
        AbsoluteResidual,
        &xs,
        &ys,
        PiServiceConfig::default(),
        HealConfig::default(),
    );
    let engine = Arc::new(ServeEngine::new(healing, Vec::new(), 1));
    let handle = start_server(
        Arc::clone(&engine),
        "127.0.0.1:0",
        HttpServeConfig {
            workers: 4,
            queue_cap: 64,
            max_batch: 8,
            batch_window: std::time::Duration::from_micros(200),
            ..Default::default()
        },
    )
    .expect("bind loopback server");
    let addr = handle.local_addr();

    let clients: Vec<_> = (0..8)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                for r in 0..15 {
                    let v = (c * 17 + r) as f64 / 120.0;
                    let body = format!(
                        "{{\"features\":[[{v}],[{}]],\"truths\":[{v},{}]}}",
                        v / 2.0,
                        v / 2.0 + 0.01,
                    );
                    let resp =
                        client.post("/v1/predict", body.as_bytes()).expect("predict");
                    assert_eq!(
                        resp.status,
                        200,
                        "predict failed: {}",
                        String::from_utf8_lossy(&resp.body)
                    );
                    let text = String::from_utf8_lossy(&resp.body).to_string();
                    assert!(text.contains("\"results\":[{"), "unexpected body {text}");
                }
                let health = client.get("/healthz").expect("healthz");
                assert_eq!(health.status, 200);
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread panicked");
    }
    assert_eq!(engine.observations(), 8 * 15 * 2, "prequential truths lost");
    assert_eq!(handle.batcher_stats().shed, 0, "calm fleet must not shed");

    handle.drain();
    assert!(
        HttpClient::connect(addr).is_err(),
        "port still accepting after graceful drain"
    );
}

/// A bare echo server for connection-level stress tests (no estimator, no
/// batcher — just the event-driven substrate).
fn stress_server(read_timeout: Duration) -> HttpServer {
    HttpServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            read_timeout,
            max_conns: 2048,
            ..ServerConfig::default()
        },
        Arc::new(|req: &Request| match (req.method, req.path()) {
            ("GET", "/ping") => Response::text(200, "pong"),
            ("POST", "/echo") => Response::json(200, req.body),
            _ => Response::text(404, "nope"),
        }),
    )
    .expect("bind stress server")
}

/// One poller thread multiplexes a thousand idle keep-alive connections:
/// every connection stays open and parked between requests, sampled
/// connections can still issue a second request (dispatched by the poller,
/// not a per-connection thread), and the whole fleet fits in
/// `workers + 2` server threads (the workers, the poller, the acceptor).
#[test]
fn one_poller_parks_a_thousand_idle_keepalive_connections() {
    let server = stress_server(Duration::from_secs(30));
    let addr = server.local_addr();
    let mut clients = Vec::with_capacity(1000);
    for i in 0..1000 {
        let mut client = HttpClient::connect(addr).expect("connect");
        let resp = client.get("/ping").unwrap_or_else(|e| panic!("request {i}: {e}"));
        assert_eq!(resp.status, 200);
        clients.push(client);
    }
    let stats = server.stats();
    assert_eq!(stats.open, 1000, "every keep-alive connection must stay parked");
    assert_eq!(stats.requests, 1000);
    // Parked connections are live: a second request on a sample must be
    // noticed by the poller and dispatched to a worker.
    for client in clients.iter_mut().step_by(97) {
        assert_eq!(client.get("/ping").expect("reuse parked conn").status, 200);
    }
    let stats = server.stats();
    assert!(stats.poller_dispatches > 0, "reuse must flow through the poller");
    drop(clients);
    server.shutdown();
}

/// A slowloris client dripping bytes cannot wedge the server: while it
/// drips, other clients are served (the poller never blocks a worker on the
/// dripper); once the drip stops, the connection is reaped at the idle
/// deadline instead of holding resources forever.
#[test]
fn slowloris_drip_neither_blocks_others_nor_survives_the_idle_deadline() {
    let server = stress_server(Duration::from_millis(150));
    let addr = server.local_addr();
    let mut dripper = TcpStream::connect(addr).expect("connect dripper");
    let mut healthy = HttpClient::connect(addr).expect("connect healthy");
    // Drip a request head a few bytes at a time, slower than any sane
    // client but faster than the idle deadline: the connection survives
    // (bytes are activity) and healthy traffic flows throughout.
    for chunk in [&b"GET /pi"[..], b"ng HTT", b"P/1."] {
        dripper.write_all(chunk).expect("drip");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(healthy.get("/ping").expect("healthy during drip").status, 200);
    }
    // Stop dripping mid-request-line: the idle deadline must reap the
    // connection without ever producing a response.
    dripper.set_read_timeout(Some(Duration::from_millis(250))).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut buf = [0u8; 64];
    loop {
        match dripper.read(&mut buf) {
            Ok(0) => break, // clean EOF: reaped
            Ok(n) => panic!("server answered a half-request: {:?}", &buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                assert!(Instant::now() < deadline, "stalled dripper never reaped");
            }
            Err(_) => break, // reset: an equally clean reap
        }
    }
    assert_eq!(healthy.get("/ping").expect("healthy after reap").status, 200);
    server.shutdown();
}

/// An abrupt half-close (FIN) mid-body releases the connection cleanly: no
/// response is invented for the truncated request, the connection slot is
/// freed, and the server keeps serving others.
#[test]
fn abrupt_half_close_mid_body_releases_the_connection() {
    let server = stress_server(Duration::from_secs(5));
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(b"POST /echo HTTP/1.1\r\nContent-Length: 64\r\n\r\npartial")
        .expect("send truncated request");
    s.shutdown(std::net::Shutdown::Write).expect("half-close");
    // The server sees EOF with an incomplete body: it must close without
    // answering (an invented 200/400 here would desync any pipeline).
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut rest = Vec::new();
    // An Err here (reset) is an equally clean release.
    if s.read_to_end(&mut rest).is_ok() {
        assert!(rest.is_empty(), "no response for a truncated body");
    }
    // The slot is freed and service continues.
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.stats().open > 0 {
        assert!(Instant::now() < deadline, "half-closed connection never released");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut healthy = HttpClient::connect(addr).expect("connect after half-close");
    assert_eq!(healthy.get("/ping").expect("serve after half-close").status, 200);
    server.shutdown();
}

/// The SIGTERM drain path (`ServeHandle::drain`, what the CLI's signal
/// handler invokes) completes promptly even with a fleet of idle
/// connections parked in the poller — parked conns are dropped, in-flight
/// work finishes, and the port closes.
#[test]
fn drain_completes_promptly_with_connections_parked_in_the_poller() {
    let xs: Vec<Vec<f32>> = (0..32).map(|i| vec![i as f32 / 32.0]).collect();
    let ys: Vec<f64> = (0..32).map(|i| i as f64 / 32.0).collect();
    let healing = SelfHealingService::new(
        |f: &[f32]| f[0] as f64,
        AbsoluteResidual,
        &xs,
        &ys,
        PiServiceConfig::default(),
        HealConfig::default(),
    );
    let engine = Arc::new(ServeEngine::new(healing, Vec::new(), 1));
    let handle = start_server(engine, "127.0.0.1:0", HttpServeConfig::default())
        .expect("bind server");
    let addr = handle.local_addr();
    let clients: Vec<HttpClient> = (0..32)
        .map(|_| {
            let mut client = HttpClient::connect(addr).expect("connect");
            assert_eq!(client.get("/healthz").expect("warm request").status, 200);
            client
        })
        .collect();
    // All 32 are idle and parked. Drain must not wait out any read timeout.
    let t0 = Instant::now();
    handle.drain();
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "drain stalled on parked connections ({:?})",
        t0.elapsed()
    );
    assert!(HttpClient::connect(addr).is_err(), "port open after drain");
    drop(clients);
}
