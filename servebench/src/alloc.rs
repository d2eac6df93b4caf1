//! A counting global allocator for the traced run.
//!
//! Every allocation goes through [`Counting`]; it increments the counter only
//! while counting is switched on, so untimed-but-untraced runs pay a single
//! relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a process-wide allocation counter.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a side effect that touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Switches counting on or off for the whole process.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

/// Allocations (including reallocations) counted so far, process-wide.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// Runs `f` with counting on and returns its result with the number of
/// allocations made meanwhile by every thread of the process.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    set_counting(true);
    let before = allocs();
    let out = f();
    let after = allocs();
    set_counting(false);
    (out, after - before)
}
