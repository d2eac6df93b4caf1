//! Dense row-major `f32` matrices.
//!
//! This is deliberately a small, predictable kernel: everything the learned
//! estimators need (mat-mul, transposed mat-mul, row slicing, elementwise
//! combinators) and nothing else. Every product runs one register-blocked
//! micro-kernel: it keeps a block of output rows × a 16-wide column strip
//! in registers over the whole reduction. Its one source is compiled for
//! AVX-512, AVX2 and the build target's baseline; the level is picked once
//! per process from the host's features. A product runs on the calling
//! thread: callers that gain from more cores split their own work at coarse
//! boundaries (fold fits, queries of a forward). `t_matmul` and `matmul_t`
//! transpose their strided operand once and then run the same kernel. A
//! dense layer's bias and activation are fused into the kernel's store:
//! each register block's rows get them right after they are written, while
//! still in cache, instead of in two passes over the whole output.
//!
//! Layer inputs are mostly exact zeros (one-hot encodings, ReLU outputs),
//! so the kernel skips the terms whose left-operand value is ±0.0. Each
//! register block of rows builds its rows' non-zero masks on the stack, a
//! vector compare per 16 (AVX-512) or 8 (AVX2) values, and counts their
//! bits. A block sparse enough ([`SKIP_MAX_NONZERO`]) runs a row at a time,
//! adding `a[r][kk] · b[kk][..]` into a 64-wide strip of accumulators for
//! each set bit `kk` of the row's mask; a denser block runs the
//! register-blocked kernel. Skipping is exact only over a right operand
//! with no infinity or NaN (below), so a product whose `b` holds one
//! multiplies every term; a [`Matrix`] remembers whether its values are all
//! finite until they are written, so a layer's weights are scanned once
//! per update.
//!
//! Training runs the same kernel into caller-owned slices: [`gemm_into`]
//! writes a product into a slice of a [`Tape`](crate::Tape) and
//! [`transpose_into`] builds a transposed operand in the tape's buffer, so
//! a training step makes the products `t_matmul` and `matmul_t` make
//! without allocating their operands or outputs.
//!
//! # Determinism
//!
//! Every output element starts from `+0.0` and adds its products over the
//! reduction dimension in strictly increasing index order, into a single
//! accumulator, with a separate multiply and add (no fused multiply-add).
//! The register block and the SIMD width only regroup *independent* output
//! elements, never reassociate a sum. A fused bias is added to the finished
//! sum and the activation applied to that, with the same `f32` operations as
//! a separate bias pass and activation pass.
//!
//! Skipping a term whose left value is ±0.0 changes no bits while `b` is
//! finite. The accumulator starts at `+0.0`, and under round-to-nearest a
//! sum is −0.0 only when both addends are −0.0, so it never holds −0.0. The
//! skipped product `±0.0 · b[kk][j]` is ±0.0, and adding ±0.0 to anything
//! but −0.0 returns it unchanged (a NaN stays the same NaN). Only `0 · ∞` and
//! `0 · NaN` are not zero, hence the finiteness guard; a NaN on the left is
//! not equal to zero and is never skipped. Results are therefore
//! bit-identical at every kernel level, fused or not, and skipping or not
//! (see `DESIGN.md`, "Determinism contract").

use std::sync::OnceLock;

use crate::layer::Activation;

/// Smallest product (in flops, `2·m·k·n`) whose throughput is published to
/// the `nn.matmul_gflops` telemetry gauge while telemetry is enabled. The
/// floor keeps single-row products untimed, but batched serving products
/// clear it (an 8-query MSCN layer is 40k–180k flops), so each of those
/// reads the clock twice and stores to the gauge through a handle fetched
/// once per process: no lock and no allocation after the first. Products
/// run by [`gemm_rows`] are not timed: an MSCN forward runs three
/// or four of them per task, and per-task clock reads and gauge stores
/// from every worker would cost the serving path more than the gauge is
/// worth. Every product that goes through [`gemm_into`] is timed: the
/// `Matrix` products and every forward and backward product of a training
/// step, so training keeps the gauge current.
const MATMUL_GAUGE_MIN_FLOPS: f64 = 32_768.0;

/// Output columns in one register strip: one AVX-512 vector, two AVX2
/// vectors.
const NR: usize = 16;

/// The `nn.matmul_gflops` gauge, fetched from the registry once. A later
/// `Registry::reset` detaches the handle, so the gauge then stops exporting
/// for the rest of the process.
fn gflops_gauge() -> &'static ce_telemetry::Gauge {
    static GAUGE: OnceLock<ce_telemetry::Gauge> = OnceLock::new();
    GAUGE.get_or_init(|| ce_telemetry::gauge("nn.matmul_gflops"))
}

/// An instruction-set level the kernel is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    /// 512-bit vectors, 8-row register blocks.
    Avx512,
    /// 256-bit vectors, 4-row register blocks.
    Avx2,
    /// The build target's baseline (SSE2 on x86-64), 2-row register blocks.
    Baseline,
}

impl Level {
    /// Every level, fastest first.
    const ALL: [Level; 3] = [Level::Avx512, Level::Avx2, Level::Baseline];

    /// Whether this host can run the level.
    fn available(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            match self {
                Level::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
                Level::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
                Level::Baseline => true,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Level::Baseline
        }
    }

    /// The fastest level this host runs, resolved once per process.
    fn detected() -> Level {
        static LEVEL: OnceLock<Level> = OnceLock::new();
        *LEVEL.get_or_init(|| {
            Level::ALL.into_iter().find(|level| level.available()).unwrap_or(Level::Baseline)
        })
    }
}

/// Name of the kernel level mat-muls run at on this host: `"avx512"`,
/// `"avx2"` or `"baseline"`. Read-only: the level is detected, not chosen,
/// and every level gives identical bits.
pub fn matmul_kernel_level() -> &'static str {
    match Level::detected() {
        Level::Avx512 => "avx512",
        Level::Avx2 => "avx2",
        Level::Baseline => "baseline",
    }
}

/// The right-hand side of one product and the store it ends in:
/// `out = act(a · b + bias)` for a row-major `b` of `k × n` (an empty
/// `bias` adds nothing), and whether the terms whose left-operand value is
/// ±0.0 may be skipped.
#[derive(Clone, Copy)]
pub(crate) struct Rhs<'a> {
    b: &'a [f32],
    n: usize,
    bias: &'a [f32],
    act: Activation,
    zeros: Zeros,
}

impl<'a> Rhs<'a> {
    /// A plain product over `b` (`k × n`). `b_finite` must be true only if
    /// every value of `b` is finite: it lets the kernel skip exact-zero
    /// terms, and callers know it without a scan of their own
    /// ([`Matrix::all_finite`], or a pass that already reads every value).
    pub(crate) fn new(b: &'a [f32], n: usize, b_finite: bool) -> Self {
        let k = b.len().checked_div(n).unwrap_or(0);
        let skip = b_finite && n >= SKIP_MIN_COLUMNS && k <= 64 * MASK_WORDS;
        let zeros = if skip { Zeros::Skip } else { Zeros::Multiply };
        Rhs { b, n, bias: &[], act: Activation::Identity, zeros }
    }

    /// The same product, ending in a dense layer's store: `act(· + bias)`.
    pub(crate) fn then(self, bias: &'a [f32], act: Activation) -> Self {
        Rhs { bias, act, ..self }
    }
}

/// Which terms `a[r][kk] · b[kk][j]` with `a[r][kk] = ±0.0` a product
/// multiplies. Skipping them is exact only while every value of `b` is
/// finite (see the module docs); [`Rhs::new`] picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Zeros {
    /// Multiply every term: `b` may hold an infinity or a NaN, and `0 · ∞`
    /// is NaN; or the product is narrower than [`SKIP_MIN_COLUMNS`], or its
    /// reduction longer than [`MASK_WORDS`] words of mask.
    Multiply,
    /// Skip them in each register block of rows at most
    /// [`SKIP_MAX_NONZERO`] 64ths of whose values are non-zero; denser
    /// blocks run the register-blocked kernel.
    Skip,
    /// Skip them in every block, however dense (tests only).
    #[cfg(test)]
    SkipAlways,
}

/// Densest register block, in 64ths of its left-operand values non-zero,
/// that takes the zero-skipping row path. The row path adds a product into
/// one output row per non-zero value and loads its slice of `b` per term;
/// the register-blocked kernel shares each load of `b` over a block of rows
/// but multiplies every term. On a 2-vCPU AVX-512 host the MSCN serving
/// forward over the servebench fixture ran fastest with this between 48 and
/// 64 (8- and 256-query batches); synthetic blocks with `n` = 64 broke even
/// at 44–48 for `k` = 64, at AVX-512 and at AVX2.
const SKIP_MAX_NONZERO: usize = 48;

/// Words of a left-operand row's non-zero mask, 64 values a word. A
/// register block's masks live on the stack, so a product with a longer
/// reduction than `64 · MASK_WORDS` multiplies every term.
const MASK_WORDS: usize = 4;

/// Narrowest product, in output columns, that skips exact-zero terms. The
/// row path pays its mask walk once per strip of one row; a narrow strip
/// does too few multiply-adds per term to repay it (an `n = 1` output layer
/// ran 1.3–3× slower by it than by the register-blocked kernel).
const SKIP_MIN_COLUMNS: usize = 32;

/// How a kernel level finds the non-zero values among up to 64 consecutive
/// left-operand values.
trait NonZero {
    /// Bit `i` is set unless `values[i]` is +0.0 or −0.0; a NaN is not
    /// equal to zero, so its term is kept. `values` holds at most 64, and no
    /// bit at or above `values.len()` is set (the row path indexes by the
    /// set bits unchecked).
    ///
    /// # Safety
    /// Callable only on a host that runs the level.
    unsafe fn mask(values: &[f32]) -> u64;
}

/// The baseline's mask: one compare per value.
struct Portable;

impl NonZero for Portable {
    #[inline(always)]
    unsafe fn mask(values: &[f32]) -> u64 {
        values.iter().enumerate().fold(0, |mask, (i, &v)| mask | u64::from(v != 0.0) << i)
    }
}

/// The AVX-512 mask: one compare per 16 values, the last fewer-than-16
/// loaded under a lane mask.
#[cfg(target_arch = "x86_64")]
struct Avx512;

#[cfg(target_arch = "x86_64")]
impl NonZero for Avx512 {
    #[inline(always)]
    unsafe fn mask(values: &[f32]) -> u64 {
        use std::arch::x86_64::{
            _mm512_cmp_ps_mask, _mm512_loadu_ps, _mm512_maskz_loadu_ps, _mm512_setzero_ps,
            _CMP_NEQ_UQ,
        };
        let mut groups = values.chunks_exact(16);
        let mut mask = 0;
        for (g, group) in groups.by_ref().enumerate() {
            // SAFETY: the caller's host runs AVX-512F; the load reads the
            // group's 16 values.
            let nonzero = unsafe {
                let v = _mm512_loadu_ps(group.as_ptr());
                _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(v, _mm512_setzero_ps())
            };
            mask |= u64::from(nonzero) << (16 * g);
        }
        let tail = groups.remainder();
        if !tail.is_empty() {
            let lanes = (1u16 << tail.len()) - 1;
            // SAFETY: as above; the masked load reads only the tail's lanes.
            let nonzero = unsafe {
                let v = _mm512_maskz_loadu_ps(lanes, tail.as_ptr());
                _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(v, _mm512_setzero_ps())
            };
            mask |= u64::from(nonzero) << (values.len() - tail.len());
        }
        mask
    }
}

/// The AVX2 mask: one compare per 8 values, the last fewer-than-8 as the
/// baseline does.
#[cfg(target_arch = "x86_64")]
struct Avx2;

#[cfg(target_arch = "x86_64")]
impl NonZero for Avx2 {
    #[inline(always)]
    unsafe fn mask(values: &[f32]) -> u64 {
        use std::arch::x86_64::{
            _mm256_cmp_ps, _mm256_loadu_ps, _mm256_movemask_ps, _mm256_setzero_ps, _CMP_NEQ_UQ,
        };
        let mut groups = values.chunks_exact(8);
        let mut mask = 0;
        for (g, group) in groups.by_ref().enumerate() {
            // SAFETY: the caller's host runs AVX2; the load reads the
            // group's 8 values.
            let nonzero = unsafe {
                let v = _mm256_loadu_ps(group.as_ptr());
                _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NEQ_UQ>(v, _mm256_setzero_ps()))
            };
            mask |= u64::from(nonzero as u8) << (8 * g);
        }
        let tail = groups.remainder();
        if !tail.is_empty() {
            // SAFETY: the baseline runs everywhere.
            mask |= unsafe { Portable::mask(tail) } << (values.len() - tail.len());
        }
        mask
    }
}

/// `out = act(a · b + bias)` at `level`, for row-major `a` (`out.len() / n`
/// rows × `k`) and the right-hand side `rhs`, on the calling thread. Every
/// element of `out` is overwritten.
///
/// # Panics
/// Panics if the operands do not hold `out`'s rows × `k` and `k × n` values,
/// or on a bias of the wrong length.
fn gemm_at(level: Level, a: &[f32], k: usize, rhs: Rhs, out: &mut [f32]) {
    // A cached feature read, negligible next to a product; it keeps a level
    // the host lacks from reaching the `unsafe` calls in a release build.
    assert!(level.available(), "{level:?} is not available on this host");
    let n = rhs.n;
    assert!(rhs.bias.is_empty() || rhs.bias.len() == n, "bias length {} for {n} columns", rhs.bias.len());
    assert!(rhs.zeros == Zeros::Multiply || k <= 64 * MASK_WORDS, "no mask words for k = {k}");
    if out.is_empty() {
        return;
    }
    assert_eq!(a.len(), out.len() / n * k, "left operand holds {} values", a.len());
    assert_eq!(rhs.b.len(), k * n, "right operand holds {} values for {k}x{n}", rhs.b.len());
    match level {
        // SAFETY: the assert above saw the feature on this host.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { gemm_avx512(a, k, rhs, out) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { gemm_avx2(a, k, rhs, out) },
        // SAFETY: the baseline runs everywhere.
        _ => unsafe { gemm::<2, 32, Portable>(a, k, rhs, out) },
    }
}

/// [`gemm`] compiled for AVX-512: 8-row register blocks, 64-wide
/// zero-skipping strips.
///
/// # Safety
/// Callable only where `is_x86_feature_detected!("avx512f")` holds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_avx512(a: &[f32], k: usize, rhs: Rhs, out: &mut [f32]) {
    // SAFETY: the caller's host runs AVX-512F.
    unsafe { gemm::<8, 64, Avx512>(a, k, rhs, out) }
}

/// [`gemm`] compiled for AVX2: 4-row register blocks, 64-wide
/// zero-skipping strips.
///
/// # Safety
/// Callable only where `is_x86_feature_detected!("avx2")` holds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2(a: &[f32], k: usize, rhs: Rhs, out: &mut [f32]) {
    // SAFETY: the caller's host runs AVX2.
    unsafe { gemm::<4, 64, Avx2>(a, k, rhs, out) }
}

/// The kernel's one source: the rows of `out` in register blocks of `MR`,
/// then the fewer-than-`MR` left over in blocks of 4, 2 and 1. A block
/// whose left-operand values are sparse enough takes the zero-skipping row
/// path in strips of `SW` columns (see [`Zeros`]); every other block the
/// register-blocked kernel. Always inlined, so each `#[target_feature]`
/// caller compiles it for its level.
///
/// # Safety
/// Callable only on a host that runs `L`'s level.
#[inline(always)]
unsafe fn gemm<const MR: usize, const SW: usize, L: NonZero>(
    a: &[f32],
    k: usize,
    rhs: Rhs,
    out: &mut [f32],
) {
    let Rhs { b, n, bias, act, zeros } = rhs;
    if k == 0 {
        out.fill(0.0);
        finish(out, n, bias, act);
        return;
    }
    let rows = out.len() / n;
    let mut i = 0;
    while i < rows {
        let mr = match rows - i {
            left if left >= MR => MR,
            left if left >= 4 => 4,
            left if left >= 2 => 2,
            _ => 1,
        };
        let a = &a[i * k..(i + mr) * k];
        let out = &mut out[i * n..(i + mr) * n];
        let mut masks = [[0u64; MASK_WORDS]; MR];
        // SAFETY: the caller's host runs `L`'s level.
        if unsafe { skips_zeros::<L, MR>(zeros, a, k, &mut masks) } {
            for ((a_row, masks), out_row) in a.chunks_exact(k).zip(&masks).zip(out.chunks_exact_mut(n)) {
                // SAFETY: `skips_zeros` built `masks` from this row by
                // `L::mask`, which sets no bit past the values it saw.
                unsafe { sparse_row::<SW>(a_row, masks, b, n, out_row) };
            }
            finish(out, n, bias, act);
        } else if mr == MR {
            block::<MR>(a, k, b, n, bias, act, out);
        } else if mr == 4 {
            block::<4>(a, k, b, n, bias, act, out);
        } else if mr == 2 {
            block::<2>(a, k, b, n, bias, act, out);
        } else {
            block::<1>(a, k, b, n, bias, act, out);
        }
        i += mr;
    }
}

/// Whether the register block of left-operand rows `a` (`k` values each)
/// takes the zero-skipping row path. When `zeros` lets it, each row's
/// non-zero mask is written to `masks`, 64 values a word, for the row path
/// to walk.
///
/// # Safety
/// Callable only on a host that runs `L`'s level.
#[inline(always)]
unsafe fn skips_zeros<L: NonZero, const MR: usize>(
    zeros: Zeros,
    a: &[f32],
    k: usize,
    masks: &mut [[u64; MASK_WORDS]; MR],
) -> bool {
    if zeros == Zeros::Multiply {
        return false;
    }
    let mut nonzero = 0;
    for (row_masks, a_row) in masks.iter_mut().zip(a.chunks_exact(k)) {
        for (mask, values) in row_masks.iter_mut().zip(a_row.chunks(64)) {
            // SAFETY: the caller's host runs `L`'s level.
            *mask = unsafe { L::mask(values) };
            nonzero += mask.count_ones() as usize;
        }
    }
    match zeros {
        #[cfg(test)]
        Zeros::SkipAlways => true,
        _ => nonzero * 64 <= SKIP_MAX_NONZERO * a.len(),
    }
}

/// One output row by the zero-skipping path, over the row's non-zero
/// `masks`: strips of `SW` columns, then the fewer-than-`SW` left over in
/// strips of 32, 16, 8, 4, 2 and 1.
///
/// # Safety
/// Bit `i` of `masks[c]` may be set only where `64 * c + i < a_row.len()`.
#[inline(always)]
unsafe fn sparse_row<const SW: usize>(
    a_row: &[f32],
    masks: &[u64],
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let mut j0 = 0;
    // SAFETY (every call below): the caller's guarantee on `masks`.
    while j0 + SW <= n {
        unsafe { sparse_strip::<SW>(a_row, masks, b, n, j0, out) };
        j0 += SW;
    }
    if SW > 32 && n - j0 >= 32 {
        unsafe { sparse_strip::<32>(a_row, masks, b, n, j0, out) };
        j0 += 32;
    }
    if SW > 16 && n - j0 >= 16 {
        unsafe { sparse_strip::<16>(a_row, masks, b, n, j0, out) };
        j0 += 16;
    }
    if n - j0 >= 8 {
        unsafe { sparse_strip::<8>(a_row, masks, b, n, j0, out) };
        j0 += 8;
    }
    if n - j0 >= 4 {
        unsafe { sparse_strip::<4>(a_row, masks, b, n, j0, out) };
        j0 += 4;
    }
    if n - j0 >= 2 {
        unsafe { sparse_strip::<2>(a_row, masks, b, n, j0, out) };
        j0 += 2;
    }
    if n - j0 >= 1 {
        unsafe { sparse_strip::<1>(a_row, masks, b, n, j0, out) };
    }
}

/// The zero-skipping micro-kernel: the `W` outputs of one row at columns
/// `j0..j0 + W`, held in registers over the reduction. Each starts at
/// `+0.0` and adds `a_row[kk] * b[kk][j0 + c]` for each set bit `kk` of the
/// row's non-zero `masks` (bit `kk % 64` of word `kk / 64`), in increasing
/// `kk`, a separate multiply and add per step, and is stored once.
///
/// # Safety
/// Bit `i` of `masks[c]` may be set only where `64 * c + i < a_row.len()`.
#[inline(always)]
unsafe fn sparse_strip<const W: usize>(
    a_row: &[f32],
    masks: &[u64],
    b: &[f32],
    n: usize,
    j0: usize,
    out: &mut [f32],
) {
    assert!(b.len() >= a_row.len() * n && j0 + W <= n, "strip outside b");
    let mut acc = [0.0f32; W];
    for ((c, &mask), values) in masks.iter().enumerate().zip(a_row.chunks(64)) {
        let b_chunk = &b[64 * c * n + j0..];
        let mut mask = mask;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            // SAFETY: the caller sets bit `i` only for `i < values.len()`,
            // so row `64 * c + i` of `b` is inside it (the assert above) and
            // columns `j0..j0 + W` inside that row. Unchecked indexing made
            // the MSCN forward 5–15% faster in a standalone loop.
            let (a, b_strip) = unsafe {
                (*values.get_unchecked(i), &*b_chunk.as_ptr().add(i * n).cast::<[f32; W]>())
            };
            for (o, &bv) in acc.iter_mut().zip(b_strip) {
                *o += a * bv;
            }
        }
    }
    out[j0..j0 + W].copy_from_slice(&acc);
}

/// One register block: `MR` rows of `out`, in strips of `NR` columns, then
/// the fewer-than-`NR` left over in strips of 8, 4, 2 and 1; then the
/// layer's bias and activation on those rows, while they are still in cache.
#[inline(always)]
fn block<const MR: usize>(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    bias: &[f32],
    act: Activation,
    out: &mut [f32],
) {
    let mut rows = a.chunks_exact(k);
    let a_rows: [&[f32]; MR] = std::array::from_fn(|_| rows.next().expect("MR rows of a"));
    let mut j0 = 0;
    while j0 + NR <= n {
        strip::<MR, NR>(&a_rows, b, n, j0, out);
        j0 += NR;
    }
    if n - j0 >= 8 {
        strip::<MR, 8>(&a_rows, b, n, j0, out);
        j0 += 8;
    }
    if n - j0 >= 4 {
        strip::<MR, 4>(&a_rows, b, n, j0, out);
        j0 += 4;
    }
    if n - j0 >= 2 {
        strip::<MR, 2>(&a_rows, b, n, j0, out);
        j0 += 2;
    }
    if n - j0 >= 1 {
        strip::<MR, 1>(&a_rows, b, n, j0, out);
    }
    finish(out, n, bias, act);
}

/// The fused store's second half: `v = act(v + bias[j])` over the `n`-wide
/// rows of `out` (no add when `bias` is empty). The same `f32` operations,
/// in the same order per element, as a bias pass followed by an activation
/// pass. Each arm passes its variant as a constant, so the per-element
/// `match` in [`Activation::apply`] folds away.
#[inline(always)]
fn finish(out: &mut [f32], n: usize, bias: &[f32], act: Activation) {
    match act {
        Activation::Relu => epilogue(out, n, bias, |v| Activation::Relu.apply(v)),
        Activation::Identity if !bias.is_empty() => epilogue(out, n, bias, |v| v),
        Activation::Identity => {}
    }
}

#[inline(always)]
fn epilogue(out: &mut [f32], n: usize, bias: &[f32], f: impl Fn(f32) -> f32) {
    if bias.is_empty() {
        for v in out.iter_mut() {
            *v = f(*v);
        }
    } else {
        for row in out.chunks_exact_mut(n) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v = f(*v + b);
            }
        }
    }
}

/// The micro-kernel: the `MR × W` outputs at rows `a_rows`, columns
/// `j0..j0 + W`, held in registers over the whole reduction. Each starts at
/// `+0.0` and adds `a[r][kk] * b[kk][j0 + c]` for `kk` in increasing order,
/// a separate multiply and add per step, and is stored once.
#[inline(always)]
fn strip<const MR: usize, const W: usize>(
    a_rows: &[&[f32]; MR],
    b: &[f32],
    n: usize,
    j0: usize,
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; W]; MR];
    for (kk, b_row) in b.chunks_exact(n).enumerate() {
        let b_strip: &[f32; W] = b_row[j0..j0 + W].try_into().expect("strip is W wide");
        for (acc_row, a_row) in acc.iter_mut().zip(a_rows) {
            let a = a_row[kk];
            for (o, &bv) in acc_row.iter_mut().zip(b_strip) {
                *o += a * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n + j0..r * n + j0 + W].copy_from_slice(acc_row);
    }
}

/// `out = act(input · weights + bias)` on the calling thread, for the
/// row-major `input` rows (`out.len() / weights.cols()` of them): the
/// kernel and fused store of [`Matrix::matmul_bias_act`] without its
/// `nn.matmul_gflops` timing, for the serving forward's per-task products.
/// Every element of `out` is overwritten.
///
/// # Panics
/// Panics if `input` and `out` do not hold the same number of rows, or on a
/// bias of the wrong length.
pub(crate) fn gemm_rows(
    input: &[f32],
    weights: &Matrix,
    bias: &[f32],
    act: Activation,
    out: &mut [f32],
) {
    let (k, n) = (weights.rows, weights.cols);
    let rhs = Rhs::new(&weights.data, n, weights.all_finite()).then(bias, act);
    gemm_at(Level::detected(), input, k, rhs, out);
}

/// `out = act(a · b + bias)` for row-major `a` (`out.len() / n` rows × `k`)
/// and the right-hand side `rhs` (`b` of `k × n`) at the host's kernel
/// level, timed into the `nn.matmul_gflops` gauge while telemetry is
/// enabled (see [`MATMUL_GAUGE_MIN_FLOPS`]). Every element of `out` is
/// overwritten.
///
/// # Panics
/// Panics if the operands do not hold `out`'s rows × `k` and `k × n` values,
/// or on a bias of the wrong length.
pub(crate) fn gemm_into(a: &[f32], k: usize, rhs: Rhs, out: &mut [f32]) {
    let flops = 2.0 * out.len() as f64 * k as f64;
    let timed = ce_telemetry::enabled() && flops >= MATMUL_GAUGE_MIN_FLOPS;
    let start = timed.then(std::time::Instant::now);
    gemm_at(Level::detected(), a, k, rhs, out);
    if let Some(start) = start {
        let secs = start.elapsed().as_secs_f64();
        if secs > 0.0 {
            gflops_gauge().set(flops / secs / 1e9);
        }
    }
}

/// A prefix of `len` values of `buf`, which grows (zero-filled) when it is
/// too short and never shrinks, so a buffer kept across calls stops
/// allocating once it fits the largest request.
pub(crate) fn prefix_mut(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Rows of the source [`transpose_into`] reads at once: each column of
/// such a block becomes one contiguous run of the output.
const TRANSPOSE_ROWS: usize = 8;

/// The transpose of the row-major `src` (`src.len() / cols` rows × `cols`)
/// into a prefix of `out` (see [`prefix_mut`]), which it returns.
pub(crate) fn transpose_into<'o>(src: &[f32], cols: usize, out: &'o mut Vec<f32>) -> &'o [f32] {
    let rows = src.len().checked_div(cols).unwrap_or(0);
    let out = prefix_mut(out, rows * cols);
    if out.is_empty() {
        return out;
    }
    let mut blocks = src.chunks_exact(TRANSPOSE_ROWS * cols);
    for (b, block) in blocks.by_ref().enumerate() {
        let block: [&[f32]; TRANSPOSE_ROWS] =
            std::array::from_fn(|i| &block[i * cols..(i + 1) * cols]);
        let r0 = b * TRANSPOSE_ROWS;
        for (c, out_row) in out.chunks_exact_mut(rows).enumerate() {
            for (o, row) in out_row[r0..r0 + TRANSPOSE_ROWS].iter_mut().zip(&block) {
                *o = row[c];
            }
        }
    }
    let r0 = rows - blocks.remainder().len() / cols;
    for (r, row) in blocks.remainder().chunks_exact(cols).enumerate() {
        for (out_row, &v) in out.chunks_exact_mut(rows).zip(row) {
            out_row[r0 + r] = v;
        }
    }
    out
}

/// A dense row-major matrix of `f32` values.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
    /// Whether every value of `data` is finite, worked out on first use and
    /// forgotten by every method that can change `data`, so a layer's
    /// weights are scanned once per update rather than once per product.
    #[serde(skip)]
    finite: OnceLock<bool>,
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Matrix) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.data == other.data
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::from_vec(rows, cols, vec![0.0; rows * cols])
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data, finite: OnceLock::new() }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates a single-column matrix from a slice.
    pub fn column_vector(values: &[f32]) -> Self {
        Matrix::from_vec(values.len(), 1, values.to_vec())
    }

    /// Builds a matrix by stacking the given equal-length rows.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows passed to from_rows");
            data.extend_from_slice(r);
        }
        Matrix::from_vec(rows.len(), cols, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.finite.take();
        &mut self.data
    }

    /// Value at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the value at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        let i = r * self.cols + c;
        self.data_mut()[i] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let cols = self.cols;
        &mut self.data_mut()[r * cols..(r + 1) * cols]
    }

    /// Matrix product `self * other`.
    ///
    /// Runs the register-blocked kernel (see the module docs) on the calling
    /// thread. Every output element accumulates in fixed `k` order, so
    /// results are bit-identical at every kernel level. Exact-zero terms of `self` are skipped only while every value
    /// of `other` is finite: `0.0 * NaN` must yield `NaN` (IEEE 754), so
    /// non-finite weights surface instead of being silently masked.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_bias_act(other, &[], Activation::Identity)
    }

    /// `act(self * other + bias)`: a dense layer's forward, with the bias
    /// and activation fused into the kernel's store (an empty `bias` adds
    /// nothing, so a plain product passes `&[]` and
    /// [`Activation::Identity`]).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or a bias of the wrong length.
    pub(crate) fn matmul_bias_act(&self, other: &Matrix, bias: &[f32], act: Activation) -> Matrix {
        self.check_matmul(other);
        let mut out = Matrix::zeros(self.rows, other.cols);
        let rhs = Rhs::new(&other.data, other.cols, other.all_finite()).then(bias, act);
        gemm_into(&self.data, self.cols, rhs, &mut out.data);
        out
    }

    /// Panics unless `self * other` is defined.
    fn check_matmul(&self, other: &Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
    }

    /// `act(self * other + bias)` at kernel `level`, untimed. The output
    /// comes zeroed from the allocator and the kernel overwrites every
    /// element.
    fn matmul_at(&self, level: Level, other: &Matrix, bias: &[f32], act: Activation) -> Matrix {
        self.check_matmul(other);
        let mut out = Matrix::zeros(self.rows, other.cols);
        let rhs = Rhs::new(&other.data, other.cols, other.all_finite()).then(bias, act);
        gemm_at(level, &self.data, self.cols, rhs, &mut out.data);
        out
    }

    /// `self^T * other`: the same kernel as [`Matrix::matmul`] after one
    /// transpose of `self`, so each output element still sums over the rows
    /// of `self` in increasing order, as the naive loop does.
    ///
    /// # Panics
    /// Panics on a row-count mismatch.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        self.t_matmul_at(Level::detected(), other)
    }

    fn t_matmul_at(&self, level: Level, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul dimension mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        self.transpose().matmul_at(level, other, &[], Activation::Identity)
    }

    /// `self * other^T`: the same kernel as [`Matrix::matmul`] after one
    /// transpose of `other`, so each output element is the dot product of
    /// two rows summed in index order.
    ///
    /// # Panics
    /// Panics on a column-count mismatch.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        self.matmul_t_at(Level::detected(), other)
    }

    fn matmul_t_at(&self, level: Level, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t dimension mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        self.matmul_at(level, &other.transpose(), &[], Activation::Identity)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut data = Vec::new();
        transpose_into(&self.data, self.cols, &mut data);
        Matrix::from_vec(self.cols, self.rows, data)
    }

    /// Elementwise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Elementwise in-place combine: `self[i] = f(self[i], other[i])`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_inplace(&mut self, other: &Matrix, f: impl Fn(f32, f32) -> f32) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "zip shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
    }

    /// Sums each column into a length-`cols` vector.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }

    /// Scales every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for v in self.data_mut() {
            *v *= s;
        }
    }

    /// Frobenius norm, used by tests and gradient clipping.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// True if every entry is finite; used as a training sanity check and
    /// to let products over this matrix skip exact-zero terms. Scanned once
    /// per change to the values, in one pass with no early exit, which the
    /// compiler vectorizes.
    pub fn all_finite(&self) -> bool {
        *self.finite.get_or_init(|| self.data.iter().fold(true, |ok, v| ok & v.is_finite()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.data().iter().zip(b.data()).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_stacks_rows() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged_input() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        let expected = Matrix::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]);
        assert!(approx_eq(&c, &expected, 1e-6));
    }

    #[test]
    fn t_matmul_equals_explicit_transpose_product() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.0, 1.5, 3.0]);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert!(approx_eq(&fast, &slow, 1e-5));
    }

    #[test]
    fn matmul_t_equals_explicit_transpose_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(4, 3, vec![1.0; 12]);
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        assert!(approx_eq(&fast, &slow, 1e-5));
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(approx_eq(&a.transpose().transpose(), &a, 0.0));
    }

    #[test]
    fn fused_store_adds_bias_to_each_row() {
        let (a, b) = (Matrix::zeros(2, 3), Matrix::zeros(3, 2));
        let m = a.matmul_bias_act(&b, &[1.0, -2.0], Activation::Identity);
        assert_eq!(m.row(0), &[1.0, -2.0]);
        assert_eq!(m.row(1), &[1.0, -2.0]);
        let m = a.matmul_bias_act(&b, &[1.0, -2.0], Activation::Relu);
        assert_eq!(m.data(), &[1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn column_sums_sums_rows() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.column_sums(), vec![4.0, 6.0]);
    }

    #[test]
    fn map_and_zip_apply_elementwise() {
        let m = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        let relu = m.map(|v| v.max(0.0));
        assert_eq!(relu.data(), &[0.0, 0.0, 2.0]);
        let mut sum = m.clone();
        sum.zip_inplace(&relu, |a, b| a + b);
        assert_eq!(sum.data(), &[-1.0, 0.0, 4.0]);
    }

    #[test]
    fn frobenius_norm_matches_definition() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Naive reference product, element-at-a-time in increasing-k order.
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn matmul_propagates_nan_through_zero_in_left_operand() {
        // Regression: the old kernel skipped k when a == 0.0, so 0.0 * NaN
        // evaluated to 0.0 instead of NaN — masking non-finite weights.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![f32::NAN, 2.0]);
        assert!(a.matmul(&b).get(0, 0).is_nan(), "0.0 * NaN must propagate NaN");
    }

    #[test]
    fn t_matmul_propagates_nan_through_zero_in_left_operand() {
        let a = Matrix::from_vec(2, 1, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![f32::NAN, 2.0]);
        assert!(a.t_matmul(&b).get(0, 0).is_nan(), "0.0 * NaN must propagate NaN");
    }

    /// Exact agreement with the reference: equal bits, except that a NaN
    /// only has to be a NaN (its payload is not part of the contract).
    fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{what}: shape");
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            if w.is_nan() {
                assert!(g.is_nan(), "{what}: element {i} is {g}, want NaN");
            } else {
                assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i} is {g}, want {w}");
            }
        }
    }

    /// Values over several magnitudes, so a reassociated sum would show up.
    /// With `specials`, about one entry in 40 is a −0.0, ±∞, subnormal or
    /// NaN instead.
    fn lcg_matrix(rows: usize, cols: usize, seed: u64, specials: bool) -> Matrix {
        const SPECIAL: [f32; 6] =
            [-0.0, f32::INFINITY, f32::NEG_INFINITY, 1.0e-40, -3.0e-39, f32::NAN];
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let bits = state >> 33;
                if specials && bits.is_multiple_of(40) {
                    SPECIAL[(bits / 40) as usize % SPECIAL.len()]
                } else {
                    ((bits as f32 / (1u64 << 31) as f32) - 0.5) * 3.0 * (1 << (bits % 7)) as f32
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// The unfused layer: the reference product, then a bias pass, then an
    /// activation pass, each activation written out as its formula.
    fn reference_layer(a: &Matrix, b: &Matrix, bias: &[f32], act: Activation) -> Matrix {
        let mut out = reference_matmul(a, b);
        if !bias.is_empty() {
            for r in 0..out.rows() {
                for (v, &bv) in out.row_mut(r).iter_mut().zip(bias) {
                    *v += bv;
                }
            }
        }
        match act {
            Activation::Relu => out.map_inplace(|v| v.max(0.0)),
            Activation::Identity => {}
        }
        out
    }

    #[test]
    fn blocked_kernels_match_reference_bit_for_bit() {
        let levels: Vec<Level> = Level::ALL.into_iter().filter(|l| l.available()).collect();
        assert!(levels.contains(&Level::Baseline));
        assert!(levels.contains(&Level::detected()));
        // The MSCN shapes (predicate widths 14 and 64, top input 65; hidden
        // and output widths 64 and 1; batches of 1, 8, ~22 predicate rows
        // and 256), then remainder shapes: widths off the 16-lane strip and
        // row counts off every register block, and a zero-length reduction.
        let mut shapes = Vec::new();
        for k in [14, 64, 65] {
            for n in [1, 64] {
                for m in [1, 8, 22, 256] {
                    shapes.push((m, k, n));
                }
            }
        }
        shapes.extend([(3, 7, 5), (7, 33, 17), (13, 9, 31), (11, 5, 15), (6, 129, 2), (9, 0, 4)]);
        let acts = [Activation::Relu, Activation::Identity];
        for (case, &(m, k, n)) in shapes.iter().enumerate() {
            for specials in [false, true] {
                let seed = 2 * case as u64 + u64::from(specials);
                let a = lcg_matrix(m, k, seed, specials);
                let b = lcg_matrix(k, n, seed + 1000, specials);
                let bias = lcg_matrix(1, n, seed + 2000, specials).data().to_vec();
                let want = reference_matmul(&a, &b);
                let (at, bt) = (a.transpose(), b.transpose());
                for &level in &levels {
                    let what = format!("{level:?} {m}x{k}x{n} specials={specials}");
                    let got = a.matmul_at(level, &b, &[], Activation::Identity);
                    assert_same_bits(&got, &want, &format!("matmul {what}"));
                    assert_same_bits(&at.t_matmul_at(level, &b), &want, &format!("t_matmul {what}"));
                    assert_same_bits(&a.matmul_t_at(level, &bt), &want, &format!("matmul_t {what}"));
                    // The fused store: every activation, with and without a
                    // bias.
                    // (A sum starts at +0.0, so no pre-activation is −0.0;
                    // −0.0 reaches the store through the inputs and bias.)
                    for act in acts {
                        for bias in [&bias[..], &[]] {
                            let want = reference_layer(&a, &b, bias, act);
                            let what = format!("{what} {act:?} bias={}", !bias.is_empty());
                            let got = a.matmul_at(level, &b, bias, act);
                            assert_same_bits(&got, &want, &format!("fused {what}"));
                        }
                    }
                }
                // The untimed entry point the MSCN forward runs.
                for act in acts {
                    let mut got = vec![f32::NAN; m * n];
                    gemm_rows(a.data(), &b, &bias, act, &mut got);
                    let got = Matrix::from_vec(m, n, got);
                    let want = reference_layer(&a, &b, &bias, act);
                    assert_same_bits(&got, &want, &format!("gemm_rows {m}x{k}x{n} {act:?}"));
                }
            }
        }
    }

    /// A `rows × cols` left operand whose values are exact zeros (every
    /// other one −0.0) with probability `zero_64ths / 64`, else values over
    /// several magnitudes; with `special`, about one value in 16 is that
    /// special instead (only one kind per operand, so every NaN that can
    /// arise carries the same payload and bits compare exactly).
    fn sparse_matrix(rows: usize, cols: usize, zero_64ths: u64, special: Option<f32>, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut zeros = 0;
        let data = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let bits = state >> 33;
                match special {
                    Some(v) if bits % 16 == 7 => v,
                    _ if (bits >> 8) % 64 < zero_64ths => {
                        zeros += 1;
                        if zeros % 2 == 0 { -0.0 } else { 0.0 }
                    }
                    _ => ((bits as f32 / (1u64 << 31) as f32) - 0.5) * (1 << (bits % 5)) as f32,
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn exact_bits(got: &[f32], want: &[f32], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i} is {g}, want {w}");
        }
    }

    /// `act(a · b + bias)` by [`gemm_at`] at `level` with `zeros` forced.
    fn product_at(level: Level, a: &Matrix, b: &Matrix, bias: &[f32], act: Activation, zeros: Zeros) -> Vec<f32> {
        let mut out = vec![f32::NAN; a.rows() * b.cols()];
        let rhs = Rhs { b: b.data(), n: b.cols(), bias, act, zeros };
        gemm_at(level, a.data(), a.cols(), rhs, &mut out);
        out
    }

    #[test]
    fn zero_skipping_matches_the_dense_kernel_and_the_reference_bit_for_bit() {
        let levels: Vec<Level> = Level::ALL.into_iter().filter(|l| l.available()).collect();
        let mut case = 0;
        for k in [0, 1, 14, 63, 64, 65, 130, 192] {
            for n in [1, 15, 16, 64, 65] {
                for zero_64ths in [0, 16, 32, 48, 60, 64] {
                    for special in [None, Some(f32::NAN), Some(f32::INFINITY)] {
                        case += 1;
                        // 13 rows: a full register block and every
                        // remainder block at each level.
                        let a = sparse_matrix(13, k, zero_64ths, special, case);
                        let b = lcg_matrix(k, n, case + 5000, false);
                        let bias = lcg_matrix(1, n, case + 9000, false).data().to_vec();
                        let (bias, act) = match case % 3 {
                            0 => (&bias[..], Activation::Relu),
                            1 => (&bias[..], Activation::Identity),
                            _ => (&[][..], Activation::Identity),
                        };
                        let want = reference_layer(&a, &b, bias, act);
                        for &level in &levels {
                            let what = format!("{level:?} 13x{k}x{n} zeros {zero_64ths}/64 {special:?} {act:?}");
                            let dense = product_at(level, &a, &b, bias, act, Zeros::Multiply);
                            let dense_m = Matrix::from_vec(13, n, dense.clone());
                            assert_same_bits(&dense_m, &want, &format!("dense {what}"));
                            for zeros in [Zeros::Skip, Zeros::SkipAlways] {
                                let got = product_at(level, &a, &b, bias, act, zeros);
                                exact_bits(&got, &dense, &format!("{zeros:?} vs dense {what}"));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_non_finite_right_operand_keeps_every_term() {
        // 0 · ∞ and 0 · NaN are NaN: a product over such a right operand
        // must multiply the zeros of the left, so its output carries the
        // NaNs the dense kernel's does, in the same bits.
        for (bad, (r, c)) in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN].into_iter().zip([(0, 0), (40, 17), (63, 63)]) {
            let a = sparse_matrix(13, 64, 48, None, r as u64 + 1);
            let mut b = lcg_matrix(64, 64, c as u64 + 2, false);
            b.set(r, c, bad);
            for level in Level::ALL.into_iter().filter(|l| l.available()) {
                let dense = product_at(level, &a, &b, &[], Activation::Identity, Zeros::Multiply);
                assert!(dense.iter().any(|v| v.is_nan()), "some row has a zero at {r}");
                let got = a.matmul_at(level, &b, &[], Activation::Identity);
                exact_bits(got.data(), &dense, &format!("{level:?} {bad} at ({r}, {c})"));
                let mut rows = vec![0.0; 13 * 64];
                gemm_rows(a.data(), &b, &[], Activation::Identity, &mut rows);
                if level == Level::detected() {
                    exact_bits(&rows, &dense, &format!("gemm_rows {bad} at ({r}, {c})"));
                }
            }
        }
    }

    #[test]
    fn a_matrix_forgets_its_finiteness_when_written() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.all_finite());
        m.set(1, 1, f32::INFINITY);
        assert!(!m.all_finite());
        m.row_mut(1)[1] = 1.0;
        assert!(m.all_finite());
        m.data_mut()[0] = f32::NAN;
        assert!(!m.all_finite());
        m.map_inplace(|_| 2.0);
        assert!(m.all_finite());
        m.scale(f32::INFINITY);
        assert!(!m.all_finite());
        let finite = Matrix::zeros(2, 2);
        m.zip_inplace(&finite, |_, b| b);
        assert!(m.all_finite());
        assert_eq!(m, finite, "equality ignores the memo");
        // The memo is not part of the serialized form.
        let mut w = serde::json::Writer::new(false);
        serde::Serialize::serialize(&m, &mut w);
        let json = w.finish();
        assert!(!json.contains("finite"), "{json}");
        let back: Matrix = serde::Deserialize::deserialize(&serde::json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, m);
        assert!(back.all_finite());
    }

    #[test]
    fn products_of_negative_zeros_sum_to_positive_zero() {
        // Every product is −0.0; the sum starts from +0.0 as the naive loop's
        // does, and +0.0 + −0.0 is +0.0.
        let a = Matrix::from_vec(3, 4, vec![-0.0; 12]);
        let b = Matrix::from_vec(4, 20, vec![1.0; 80]);
        for level in Level::ALL.into_iter().filter(|l| l.available()) {
            let got = a.matmul_at(level, &b, &[], Activation::Identity);
            assert!(got.data().iter().all(|v| v.to_bits() == 0), "{level:?}");
        }
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = Matrix::zeros(1, 2);
        assert!(m.all_finite());
        m.set(0, 1, f32::NAN);
        assert!(!m.all_finite());
    }
}
