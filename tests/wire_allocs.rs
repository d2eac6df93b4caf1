//! Heap allocations a served predict costs, counted by a real allocator.
//!
//! A std-only counting `#[global_allocator]` counts every allocation in the
//! process: the server's worker threads as well as the client.
//! One keep-alive connection sends truth-free 8-query predicts and then as
//! many `GET /healthz` requests; the difference per request is what the
//! predict path allocates beyond a bare request/response round trip (its
//! parse, batch, forward and render). This file holds one test so nothing
//! else runs in the process while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cardest::conformal::{AbsoluteResidual, HealConfig, PiServiceConfig, SelfHealingService};
use cardest::serve::{start_server, HttpServeConfig, ServeEngine};
use cardest::server::HttpClient;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a static atomic, so counting never allocates
// or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Feature width of the benchmark's MSCN encoding.
const DIMS: usize = 44;
/// Queries per predict, as in the benchmark's `point` workload.
const QUERIES: usize = 8;
/// Requests counted per kind.
const REQUESTS: usize = 200;
/// The target for a served predict's own allocations.
const BUDGET: f64 = 32.0;

/// Mean allocations per call of `send`, over `REQUESTS` calls.
fn allocs_per_request(mut send: impl FnMut()) -> f64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..REQUESTS {
        send();
    }
    (ALLOCS.load(Ordering::SeqCst) - before) as f64 / REQUESTS as f64
}

#[test]
fn a_served_predict_allocates_within_budget() {
    let n = 64usize;
    let xs: Vec<Vec<f32>> =
        (0..n).map(|i| (0..DIMS).map(|d| ((i * 7 + d) % 13) as f32 / 13.0).collect()).collect();
    let model = |f: &[f32]| f.iter().map(|&v| f64::from(v)).sum::<f64>() / DIMS as f64;
    let ys: Vec<f64> = xs.iter().map(|x| model(x) + 0.01).collect();
    let healing = SelfHealingService::new(
        model,
        AbsoluteResidual,
        &xs,
        &ys,
        PiServiceConfig::default(),
        HealConfig::default(),
    );
    let engine = Arc::new(ServeEngine::new(healing, Vec::new(), DIMS));
    let handle = start_server(engine, "127.0.0.1:0", HttpServeConfig::default())
        .expect("bind loopback server");

    // Benchmark-shaped bodies: 8 rows of 44 shortest round-trip numbers.
    let bodies: Vec<Vec<u8>> = (0..4)
        .map(|b| {
            let rows: Vec<String> = (0..QUERIES)
                .map(|q| {
                    let row: Vec<String> = (0..DIMS)
                        .map(|d| format!("{}", ((b * 31 + q * 7 + d) % 97) as f32 / 97.0))
                        .collect();
                    format!("[{}]", row.join(","))
                })
                .collect();
            format!("{{\"features\":[{}]}}", rows.join(",")).into_bytes()
        })
        .collect();
    let mut client = HttpClient::connect(handle.local_addr()).expect("connect");
    let mut predict = |i: usize| {
        let resp = client.post("/v1/predict", &bodies[i % bodies.len()]).expect("predict");
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    };
    // Warm every lazily grown buffer on both sides of the connection.
    (0..32).for_each(&mut predict);
    let mut i = 0;
    let predicts = allocs_per_request(|| {
        predict(i);
        i += 1;
    });
    let healthz = allocs_per_request(|| {
        let resp = client.get("/healthz").expect("healthz");
        assert_eq!(resp.status, 200);
    });
    handle.drain();
    let handler = predicts - healthz;
    println!("allocations per request: predict {predicts:.1}, healthz {healthz:.1}, handler {handler:.1}");
    assert!(
        handler <= BUDGET,
        "a {QUERIES}-query predict allocates {handler:.1} times beyond a healthz round trip \
         (predict {predicts:.1}, healthz {healthz:.1}); the budget is {BUDGET}"
    );
}
