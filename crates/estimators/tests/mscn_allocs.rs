//! A warm MSCN forward allocates nothing but its result: every buffer it
//! packs and computes in lives in a per-thread workspace that is sized on
//! first use and never shrinks. A training step allocates nothing either:
//! a fit packs and trains through tapes it makes once.
//!
//! A std-only counting `#[global_allocator]` counts allocations made on the
//! calling thread (the test harness and the pool's workers allocate on
//! their own threads).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use ce_datagen::dmv;
use ce_estimators::{Mscn, MscnConfig, MscnLayout, SingleTableFeaturizer};
use ce_query::{generate_workload, GeneratorConfig};

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
fn warm_forwards_allocate_only_their_results() {
    let table = dmv(4000, 0);
    let feat = SingleTableFeaturizer::new(table.schema().clone());
    let workload = generate_workload(&table, 300, &GeneratorConfig::default(), 1);
    let x: Vec<Vec<f32>> = workload.iter().map(|lq| feat.encode(&lq.query)).collect();
    let y: Vec<f64> = workload.iter().map(|lq| lq.selectivity).collect();
    let config = MscnConfig { epochs: 2, ..Default::default() };
    let model = Mscn::fit(MscnLayout::Single(feat), &x, &y, &config);
    let q8 = x[..8].to_vec();
    let q256: Vec<Vec<f32>> = x.iter().cycle().take(256).cloned().collect();

    // Warm-up: one thread runs every task of the bulk batch and every query
    // alone, so its workspace fits all of them; the pool, its queue and the
    // workers' workspaces come up in a two-thread bulk call.
    ce_parallel::with_threads(1, || model.predict_log_selectivity_batch(&q256));
    for q in &x {
        model.predict_log_selectivity(q);
    }
    ce_parallel::with_threads(2, || model.predict_log_selectivity_batch(&q256));

    for q in &x {
        let allocs = allocs_during(|| {
            black_box(model.predict_log_selectivity(black_box(q)));
        });
        assert_eq!(allocs, 0, "a single-query forward allocated {allocs} times");
    }
    for _ in 0..20 {
        let allocs = allocs_during(|| {
            black_box(model.predict_log_selectivity_batch(black_box(&q8)));
        });
        assert_eq!(allocs, 1, "an 8-query forward allocated {allocs} times, not just its result");
    }
    for _ in 0..20 {
        // The batch spans several tasks. On one thread they all run inline
        // on the caller, so it allocates only its result.
        let allocs = allocs_during(|| {
            ce_parallel::with_threads(1, || {
                black_box(model.predict_log_selectivity_batch(black_box(&q256)));
            });
        });
        assert_eq!(allocs, 1, "a serial 256-query forward allocated {allocs} times");
        // On two, the one pool dispatch adds its completion latch.
        let allocs = allocs_during(|| {
            ce_parallel::with_threads(2, || {
                black_box(model.predict_log_selectivity_batch(black_box(&q256)));
            });
        });
        assert_eq!(
            allocs, 2,
            "a 256-query forward allocated {allocs} times, not its result and one dispatch"
        );
    }
}

#[test]
fn training_steps_allocate_nothing() {
    let table = dmv(4000, 0);
    let feat = SingleTableFeaturizer::new(table.schema().clone());
    let workload = generate_workload(&table, 300, &GeneratorConfig::default(), 1);
    let x: Vec<Vec<f32>> = workload.iter().map(|lq| feat.encode(&lq.query)).collect();
    let y: Vec<f64> = workload.iter().map(|lq| lq.selectivity).collect();
    let layout = MscnLayout::Single(feat);
    // Two threads: a fit makes no pool dispatch, which would allocate a
    // completion latch on the caller at every step.
    let fit_allocs = |epochs| {
        let config = MscnConfig { epochs, ..Default::default() };
        allocs_during(|| {
            ce_parallel::with_threads(2, || {
                black_box(Mscn::fit(layout.clone(), &x, &y, &config));
            });
        })
    };
    let two = fit_allocs(2);
    let twenty = fit_allocs(20);
    assert!(
        twenty <= two,
        "a 20-epoch fit allocated {twenty} times, a 2-epoch one {two}: \
         training steps allocate"
    );
}
