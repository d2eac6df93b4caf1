//! With telemetry enabled, a product allocates exactly its output: the
//! throughput gauge is recorded through a handle fetched once, not looked
//! up by name on every call, and a product runs on the calling thread
//! whatever thread count the process asks for, so it makes no pool
//! dispatch and no completion latch.
//!
//! A std-only counting `#[global_allocator]` counts allocations made on the
//! calling thread (the test harness allocates on its own threads).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ce_nn::Matrix;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialized thread-local with no
// destructor, so touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocs_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn timed_serving_product_allocates_only_its_output() {
    // Two threads, asked for as a deployment asks, before any product runs:
    // a product runs on the calling thread whatever the process's count.
    std::env::set_var("CE_PARALLEL_THREADS", "2");
    ce_telemetry::set_enabled(true);
    // The MSCN top network's hidden layer at a batch of 8 (66 560 flops,
    // above the gauge's floor, so the product is timed) and of 256, which a
    // row-split dispatch at two threads would cut into four tasks, with a
    // completion latch allocated on the caller.
    let b = Matrix::from_vec(65, 64, (0..65 * 64).map(|i| (i % 13) as f32 * 0.01).collect());
    for rows in [8, 256] {
        let a = Matrix::from_vec(rows, 65, (0..rows * 65).map(|i| (i % 7) as f32 * 0.1).collect());
        // Warm-up: resolves the once-per-process kernel level and gauge
        // handle.
        std::hint::black_box(a.matmul(&b));

        for _ in 0..100 {
            let allocs = allocs_during(|| {
                std::hint::black_box(a.matmul(std::hint::black_box(&b)));
            });
            assert_eq!(allocs, 1, "a timed ({rows}x65)·(65x64) matmul allocated {allocs} times");
        }
    }
    let gauge = ce_telemetry::global().snapshot().remove("nn.matmul_gflops");
    assert!(
        matches!(gauge, Some(ce_telemetry::MetricValue::Gauge(v)) if v > 0.0),
        "the throughput gauge was not recorded: {gauge:?}"
    );
}
