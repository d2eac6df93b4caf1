//! `perf`: performance baseline for the deterministic parallel execution
//! layer.
//!
//! Times four representative workloads:
//!
//! 1. blocked `Matrix::matmul` (GFLOP/s) on a synthetic dense 96×256×96
//!    product, wider than any estimator layer (MSCN's hidden width is 64,
//!    Naru's 48),
//! 2. MSCN training (epochs/s),
//! 3. JK-CV+ fit over a GBDT trainer (wall-clock seconds — the fold fits run
//!    as one parallel batch),
//! 4. batched PI serving through [`PiService::predict_interval_batch`]
//!    (queries/s), plus one row with no thread override
//!    (`serving_default_qps`): the default path production serving takes.
//!
//! A product and a training step run on the calling thread, so the first
//! two are timed once at the default thread count. The last two split their
//! work over the pool and are timed at 1/2/4/8 requested threads via
//! `ce_parallel::with_threads`; one run doubles as a determinism audit:
//! their *outputs* (the JK-CV+ δ, served intervals) are compared
//! bit-for-bit across thread counts and the experiment panics on any
//! divergence. Before the timings, the three mat-mul entry points at the
//! kernel level this host dispatches to are compared bit-for-bit with a
//! naive loop on the MSCN layer shapes, once on dense operands and once on
//! post-ReLU left operands (about half exact zeros, which the kernel
//! skips); the summary records that level (`kernel_level`) and the
//! verdicts (`kernel_matches_reference`,
//! `kernel_zero_skip_matches_reference`). Wall
//! times are recorded in the [`samples`](crate::samples) registry, and the
//! summary, with every sample, is exported to `BENCH_perf.json` in the
//! working directory alongside the usual `results/perf.json` record.
//!
//! On a single-core host the thread counts ≥ 2 measure pure overhead (the
//! pool degrades to serial chunk draining), so throughput parity — not a
//! speedup — is the expectation there; `effective_parallelism` in the
//! summary records which regime produced the numbers.

use cardest::conformal::{AbsoluteResidual, JackknifeCv, PiService, PiServiceConfig};
use cardest::estimators::fit_difficulty_model;
use cardest::gbdt::GbdtConfig;
use cardest::nn::Matrix;
use cardest::pipeline::train_mscn;
use ce_parallel::with_threads;

use crate::report::ExperimentRecord;
use crate::samples::{best_of, samples_member};
use crate::scale::Scale;

use super::single_table::{standard_bench, ALPHA};

/// Requested thread counts of the JK-CV+ and serving sweeps, in
/// measurement order.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Minimum 4-thread / 1-thread serving-throughput ratio tolerated before the
/// experiment fails. Parity (ratio ≈ 1) is the single-core expectation;
/// multi-core hosts should clear 1.0 comfortably, so 0.8 only trips when
/// parallel dispatch actively loses throughput beyond measurement noise.
const MIN_SERVING_RATIO: f64 = 0.8;

/// Deterministic pseudo-random matrix (same LCG the kernel tests use).
fn lcg_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
    let mut state = seed;
    let data: Vec<Vec<f32>> = (0..rows)
        .map(|_| {
            (0..cols)
                .map(|_| {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (state >> 16) as f32 / 65_536.0 - 0.5
                })
                .collect()
        })
        .collect();
    Matrix::from_rows(&data)
}

/// Naive `a · b` as bit patterns: every element summed from `+0.0` over `k`
/// in increasing order, a separate multiply and add per step.
fn naive_product_bits(a: &Matrix, b: &Matrix) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.rows() * b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.push(acc.to_bits());
        }
    }
    out
}

/// Whether the dispatched `matmul`, `t_matmul` and `matmul_t` all equal the
/// naive loop bit for bit on the MSCN layer shapes: reduction widths 14, 64
/// and 65, output widths 1 and 64, and 1, 8, 22 and 256 rows. With
/// `post_relu`, the left operand goes through ReLU first, so about half its
/// values are exact zeros, as in a hidden layer's input, and the kernel's
/// zero-skipping path runs. The unit tests check every level too, but only
/// this check runs the release build.
fn kernel_matches_reference(post_relu: bool) -> bool {
    let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut seed = 10;
    let mut all_match = true;
    for k in [14, 64, 65] {
        for n in [1, 64] {
            for m in [1, 8, 22, 256] {
                seed += 2;
                let mut a = lcg_matrix(m, k, seed);
                if post_relu {
                    a.map_inplace(|v| v.max(0.0));
                }
                let b = lcg_matrix(k, n, seed + 1);
                let want = naive_product_bits(&a, &b);
                all_match &= bits(&a.matmul(&b)) == want
                    && bits(&a.transpose().t_matmul(&b)) == want
                    && bits(&a.matmul_t(&b.transpose())) == want;
            }
        }
    }
    all_match
}

/// Runs the perf baseline; see the module docs for what is measured.
pub fn perf(scale: &Scale) -> Vec<ExperimentRecord> {
    let mut rec = ExperimentRecord::new(
        "perf",
        "parallel layer baseline: kernel and MSCN fit rates, fold fits and serving at \
         1/2/4/8 threads, outputs bit-audited",
    );
    let hw = ce_parallel::available_threads();
    rec.extra("effective_parallelism", hw as f64);

    // --- 0. kernel audit ------------------------------------------------
    let kernel_level = cardest::nn::matmul_kernel_level();
    let kernel_ok = kernel_matches_reference(false);
    assert!(kernel_ok, "the {kernel_level} mat-mul kernel diverged from the naive loop");
    let zero_skip_ok = kernel_matches_reference(true);
    assert!(
        zero_skip_ok,
        "the {kernel_level} mat-mul kernel diverged from the naive loop on post-ReLU operands"
    );

    // --- 1. blocked matmul GFLOP/s -------------------------------------
    let (m, k, n) = (96, 256, 96);
    let a = lcg_matrix(m, k, 1);
    let b = lcg_matrix(k, n, 2);
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let (_, secs) = best_of("perf/matmul", 5, || a.matmul(&b));
    rec.extra("matmul_gflops", flops / secs / 1e9);

    // --- shared workload for the model-level phases --------------------
    let bench = standard_bench(scale, "dmv");

    // --- 2. MSCN training epochs/s -------------------------------------
    let epochs = scale.epochs.clamp(1, 10);
    let (_, secs) = best_of("perf/mscn_fit", 1, || {
        train_mscn(&bench.feat, &bench.train, epochs, scale.seed)
    });
    rec.extra("mscn_epochs_per_s", epochs as f64 / secs);

    // --- 3. JK-CV+ fit wall-clock --------------------------------------
    let trainer = |x: &[Vec<f32>], y: &[f64], _seed: u64| {
        fit_difficulty_model(x, y, &GbdtConfig { n_trees: 60, ..Default::default() })
    };
    let mut jkcv_ref: Option<u64> = None;
    let mut jkcv_secs = Vec::new();
    for &t in &THREADS {
        let label = format!("perf/jkcv_fit/t{t}");
        let (jk, secs) = best_of(&label, 1, || {
            with_threads(t, || {
                JackknifeCv::fit(
                    &trainer,
                    AbsoluteResidual,
                    &bench.train.x,
                    &bench.train.y,
                    8,
                    ALPHA,
                    scale.seed,
                )
            })
        });
        match jkcv_ref {
            None => jkcv_ref = Some(jk.delta().to_bits()),
            Some(reference) => assert_eq!(
                reference,
                jk.delta().to_bits(),
                "JK-CV+ delta diverged at {t} threads"
            ),
        }
        jkcv_secs.push((t, secs));
        rec.extra(&format!("jkcv_fit_s/t{t}"), secs);
    }

    // --- 4. batched PI serving queries/s -------------------------------
    let model = train_mscn(&bench.feat, &bench.train, epochs, scale.seed);
    let service = PiService::new(
        model,
        AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        PiServiceConfig { alpha: ALPHA, ..Default::default() },
    );
    let mut serving_ref = None;
    let mut serving_qps = Vec::new();
    for &t in &THREADS {
        let label = format!("perf/serving_batch/t{t}");
        let (ivs, secs) = best_of(&label, 3, || {
            with_threads(t, || service.predict_interval_batch(&bench.test.x))
        });
        match &serving_ref {
            None => serving_ref = Some(ivs),
            Some(reference) => {
                assert_eq!(*reference, ivs, "batched serving diverged at {t} threads")
            }
        }
        serving_qps.push((t, bench.test.x.len() as f64 / secs));
        rec.extra(&format!("serving_qps/t{t}"), bench.test.x.len() as f64 / secs);
    }
    // The path production takes: no override, so every parallel call
    // resolves the thread count itself.
    let (ivs, secs) =
        best_of("perf/serving_batch/default", 3, || service.predict_interval_batch(&bench.test.x));
    assert_eq!(
        serving_ref.as_ref(),
        Some(&ivs),
        "batched serving diverged with no thread override"
    );
    rec.extra("serving_default_qps", bench.test.x.len() as f64 / secs);

    // --- speedups + smoke gate -----------------------------------------
    let ratio = |series: &[(usize, f64)], num: usize, den: usize| {
        let get = |t| series.iter().find(|(tt, _)| *tt == t).expect("thread count").1;
        get(num) / get(den)
    };
    let speedup_jkcv = ratio(&jkcv_secs, 1, 4);
    let speedup_serving = ratio(&serving_qps, 4, 1);
    rec.extra("speedup_jkcv_fit_4t", speedup_jkcv);
    rec.extra("speedup_serving_4t", speedup_serving);
    assert!(
        speedup_serving >= MIN_SERVING_RATIO,
        "4-thread batched serving regressed vs 1 thread: ratio {speedup_serving:.3} \
         (floor {MIN_SERVING_RATIO})"
    );

    write_bench_summary(scale, hw, kernel_level, kernel_ok, zero_skip_ok, &rec);
    vec![rec]
}

/// Writes `BENCH_perf.json` in the working directory: the scalar summary
/// plus the raw nanosecond samples.
fn write_bench_summary(
    scale: &Scale,
    hw: usize,
    kernel_level: &str,
    kernel_ok: bool,
    zero_skip_ok: bool,
    rec: &ExperimentRecord,
) {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"setting_rows\": {},\n", scale.rows));
    json.push_str(&format!("  \"effective_parallelism\": {hw},\n"));
    json.push_str(&format!("  \"kernel_level\": \"{kernel_level}\",\n"));
    json.push_str(&format!("  \"kernel_matches_reference\": {kernel_ok},\n"));
    json.push_str(&format!("  \"kernel_zero_skip_matches_reference\": {zero_skip_ok},\n"));
    json.push_str("  \"threads\": [1, 2, 4, 8],\n");
    json.push_str("  \"bit_identical_across_threads\": true,\n");
    json.push_str("  \"metrics\": {\n");
    let scalars: Vec<String> = rec
        .extras
        .iter()
        .map(|(name, value)| format!("    \"{name}\": {value}"))
        .collect();
    json.push_str(&scalars.join(",\n"));
    json.push_str("\n  },\n");
    json.push_str(&samples_member());
    json.push_str("\n}\n");
    std::fs::write("BENCH_perf.json", &json).expect("write BENCH_perf.json");
    println!("  [saved BENCH_perf.json]");
}
