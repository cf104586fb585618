//! Runtime SIMD dispatch, 32-byte-aligned scratch buffers, and the
//! vectorized reduction primitives the statistics kernels build on.
//!
//! Every hot kernel in the workspace comes in (at least) two flavours: the
//! portable scalar loop the crate has always shipped, and an explicit
//! AVX2+FMA `std::arch` implementation. A third tier, [`SimdIsa::Avx512`],
//! is numerically the AVX2+FMA flavour: every kernel runs its AVX2+FMA body
//! there except the two with a 512-bit body of the same bits (the GEMM
//! microkernel and the weight-gradient correlation —
//! `bnff_kernels::dispatch` lists them). Which flavour
//! runs is decided *once per kernel entry* by [`active_isa`], in priority
//! order:
//!
//! 1. a scoped [`with_isa`] override on the calling thread (used by the
//!    equivalence tests),
//! 2. the `BNFF_SIMD` environment variable (`scalar` forces the portable
//!    path, `avx2` pins the 256-bit kernels, `avx512` requests the 512-bit
//!    GEMM, `auto`/unset detects), and
//! 3. `is_x86_feature_detected!` for avx2 + fma, then avx512f.
//!
//! Requests for a vector ISA the hardware cannot run step down —
//! [`SimdIsa::Avx512`] to [`SimdIsa::Avx2Fma`] to [`SimdIsa::Scalar`] — so
//! forcing `BNFF_SIMD=avx512` on an older machine degrades instead of
//! faulting. Kernels resolve the ISA on the *calling*
//! thread and pass the value into their worker closures — thread-local
//! overrides do not propagate into the `bnff-parallel` pool by themselves.
//!
//! ## Determinism contract
//!
//! Within one ISA the kernels stay bit-identical across `BNFF_THREADS`
//! (work is still partitioned at problem-granular boundaries and each
//! output element keeps a thread-count-independent accumulation order).
//! Between the scalar and the vector ISAs results may differ in the last
//! bits: the AVX2 paths use FMA contraction and lane-split accumulators,
//! which round differently from the scalar loops. The `simd_equivalence`
//! suite bounds that difference explicitly. [`SimdIsa::Avx512`] and
//! [`SimdIsa::Avx2Fma`] give the same bits: the wider GEMM accumulates
//! every element in the same order with the same operations.
//!
//! ## Two planes per call
//!
//! The f64 reductions (`Σx`, `(Σx, Σx²)`, `Σ(x − m)²` of a plane) are
//! bound by their dependent add chain, not by the bytes they read: one
//! chain per plane leaves the vector units idle for most of each add's
//! latency. Their crate-private forms (`sum_f64_pair`, `sum_sq_f64_pair`,
//! `sq_dev_sum_f64_pair`) walk two planes in one loop with two
//! independent chains. The bits hold because nothing is shared between the
//! planes: each keeps its own four lane partials (or, scalar, its own
//! sequential fold), takes its values in its own order, and ends with its
//! own lane reduce and scalar tail — so each result is exactly the
//! single-plane call's, whatever the two lengths. The single-plane forms
//! (`sum_f64`, `sum_sq_f64`, `sq_dev_sum_f64`), the two-plane ones with an
//! empty second plane, are built for the tests that hold them to that.
//!
//! ```rust
//! use bnff_tensor::simd::{active_isa, with_isa, SimdIsa};
//!
//! let forced = with_isa(SimdIsa::Scalar, active_isa);
//! assert_eq!(forced, SimdIsa::Scalar);
//! ```

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

/// An instruction-set flavour a kernel can execute with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdIsa {
    /// The portable scalar loops — the reference implementation and the
    /// fallback on hardware without AVX2+FMA.
    Scalar,
    /// Explicit 256-bit AVX2 intrinsics with FMA contraction.
    Avx2Fma,
    /// [`SimdIsa::Avx2Fma`] with the GEMM microkernel at 512 bits (AVX-512F)
    /// — bit-identical results, every other kernel the AVX2+FMA body.
    Avx512,
}

impl SimdIsa {
    /// A stable lowercase name for bench artifacts and logs.
    pub fn name(self) -> &'static str {
        match self {
            SimdIsa::Scalar => "scalar",
            SimdIsa::Avx2Fma => "avx2+fma",
            SimdIsa::Avx512 => "avx512",
        }
    }

    /// The widest ISA the running CPU and OS support (ignoring every
    /// override). The feature checks include the OS saving the vector
    /// registers' state.
    pub(crate) fn detected() -> SimdIsa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                if is_x86_feature_detected!("avx512f") {
                    return SimdIsa::Avx512;
                }
                return SimdIsa::Avx2Fma;
            }
        }
        SimdIsa::Scalar
    }
}

impl std::fmt::Display for SimdIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

thread_local! {
    /// Scoped override installed by [`with_isa`].
    static ISA_OVERRIDE: Cell<Option<SimdIsa>> = const { Cell::new(None) };
}

/// Clamps a requested ISA to what the hardware can actually execute,
/// stepping down `Avx512 → Avx2Fma → Scalar`.
fn clamp_to_hardware(requested: SimdIsa) -> SimdIsa {
    match (requested, SimdIsa::detected()) {
        (SimdIsa::Avx512, SimdIsa::Avx512) => SimdIsa::Avx512,
        (SimdIsa::Avx512 | SimdIsa::Avx2Fma, SimdIsa::Avx512 | SimdIsa::Avx2Fma) => {
            SimdIsa::Avx2Fma
        }
        _ => SimdIsa::Scalar,
    }
}

/// The process-wide default ISA: `BNFF_SIMD` when set (`scalar` | `avx2` |
/// `avx512` | `auto`; unknown values fall back to `auto`), otherwise
/// hardware detection. Read once per process.
fn env_isa() -> SimdIsa {
    static ENV: OnceLock<SimdIsa> = OnceLock::new();
    *ENV.get_or_init(|| {
        let requested = std::env::var("BNFF_SIMD").ok();
        match requested.as_deref().map(str::trim) {
            Some(s) if s.eq_ignore_ascii_case("scalar") => SimdIsa::Scalar,
            Some(s) if s.eq_ignore_ascii_case("avx2") || s.eq_ignore_ascii_case("avx2fma") => {
                clamp_to_hardware(SimdIsa::Avx2Fma)
            }
            Some(s) if s.eq_ignore_ascii_case("avx512") => clamp_to_hardware(SimdIsa::Avx512),
            _ => SimdIsa::detected(),
        }
    })
}

/// The ISA a kernel entered from this thread will execute with: the
/// innermost [`with_isa`] override if one is active, otherwise the
/// `BNFF_SIMD` / detection default. Always executable on this machine.
pub fn active_isa() -> SimdIsa {
    ISA_OVERRIDE.with(Cell::get).unwrap_or_else(env_isa)
}

/// Runs `f` with the calling thread's ISA pinned to `isa` (clamped to what
/// the hardware supports), restoring the previous setting afterwards — also
/// on panic. The override is thread-local: kernels capture the resolved ISA
/// at entry and carry it into their pool workers by value.
pub fn with_isa<R>(isa: SimdIsa, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SimdIsa>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ISA_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = ISA_OVERRIDE.with(|o| o.replace(Some(clamp_to_hardware(isa))));
    let _restore = Restore(prev);
    f()
}

/// One 32-byte-aligned chunk of eight `f32` lanes: the unit of storage
/// behind [`AlignedBuf`]. `size == align == 32`, so a `Vec<Lane>` is a
/// gap-free f32 carpet whose base pointer is 32-byte aligned.
#[repr(C, align(32))]
#[derive(Debug, Clone, Copy, Default)]
struct Lane([f32; 8]);

const LANE_F32S: usize = 8;

/// A growable `f32` buffer whose storage is guaranteed 32-byte aligned —
/// what `_mm256_load_ps` requires. `Vec<f32>` cannot promise alignment, so
/// the packed-GEMM panels (and any scratch consumed with aligned vector
/// loads) live in this type instead. Dereferences to `[f32]`.
///
/// ```rust
/// use bnff_tensor::simd::AlignedBuf;
///
/// let mut buf = AlignedBuf::zeroed(10);
/// assert_eq!(buf.as_ptr() as usize % 32, 0);
/// buf[9] = 4.0;
/// assert_eq!(buf.len(), 10);
/// ```
#[derive(Debug, Default)]
pub struct AlignedBuf {
    lanes: Vec<Lane>,
    len: usize,
}

impl AlignedBuf {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        AlignedBuf::default()
    }

    /// A zero-filled buffer of `len` elements.
    pub fn zeroed(len: usize) -> Self {
        AlignedBuf { lanes: vec![Lane::default(); len.div_ceil(LANE_F32S)], len }
    }

    /// Number of accessible `f32` elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of `f32` elements the allocation can hold without growing.
    pub fn capacity(&self) -> usize {
        self.lanes.capacity() * LANE_F32S
    }

    /// Resizes to exactly `len` elements. Existing contents (and recycled
    /// lane remainders) are preserved, growth beyond the old lane count is
    /// zero-filled — the aligned analogue of `BufferPool::take_dirty`
    /// semantics: callers overwrite before reading.
    pub(crate) fn resize_dirty(&mut self, len: usize) {
        self.lanes.resize(len.div_ceil(LANE_F32S), Lane::default());
        self.len = len;
    }

    /// The elements as a plain `f32` slice (32-byte-aligned base pointer).
    pub fn as_slice(&self) -> &[f32] {
        // SAFETY: `Lane` is `repr(C, align(32))` with size 32 and no
        // padding, so `lanes` is a contiguous run of `8 * lanes.len()`
        // initialized f32 values, and `len <= lanes.len() * 8` by
        // construction.
        unsafe { std::slice::from_raw_parts(self.lanes.as_ptr().cast::<f32>(), self.len) }
    }

    /// The elements as a mutable `f32` slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        // SAFETY: as in `as_slice`; the borrow is exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.lanes.as_mut_ptr().cast::<f32>(), self.len) }
    }
}

impl Deref for AlignedBuf {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl DerefMut for AlignedBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

/// `Σx` of a slice accumulated in `f64`, on the given ISA. The scalar path
/// is the exact sequential fold the statistics kernels have always used;
/// the AVX2 path converts eight lanes per step to `f64` and keeps four
/// partial sums, reduced in a fixed lane order (deterministic, but rounded
/// differently from the scalar fold). It is `sum_f64_pair` with an empty
/// second plane.
#[cfg(test)]
pub(crate) fn sum_f64(isa: SimdIsa, x: &[f32]) -> f64 {
    sum_f64_pair(isa, x, &[])[0]
}

/// `(Σx, Σx²)` of a slice accumulated in `f64`, on the given ISA — the MVF
/// one-pass statistics primitive. Scalar path matches the historical
/// element loop bit-for-bit; see [`sum_f64`] for the AVX2 rounding caveat.
#[cfg(test)]
pub(crate) fn sum_sq_f64(isa: SimdIsa, x: &[f32]) -> (f64, f64) {
    sum_sq_f64_pair(isa, x, &[])[0]
}

/// `Σ(x − mean)²` of a slice accumulated in `f64`, on the given ISA — the
/// second sweep of the baseline two-pass variance.
#[cfg(test)]
pub(crate) fn sq_dev_sum_f64(isa: SimdIsa, x: &[f32], mean: f64) -> f64 {
    sq_dev_sum_f64_pair(isa, x, &[], [mean, 0.0])[0]
}

/// [`sum_f64`] of two planes at once: `[sum_f64(isa, a), sum_f64(isa, b)]`,
/// bit for bit, whatever the two lengths (an empty `b` sums to `0.0`). Each
/// plane keeps its own lane partials, order, lane reduce and scalar tail;
/// the two independent add chains only hide each other's latency.
pub(crate) fn sum_f64_pair(isa: SimdIsa, a: &[f32], b: &[f32]) -> [f64; 2] {
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            // SAFETY: `Avx2Fma` and `Avx512` imply runtime-verified avx2+fma
            // support.
            unsafe { avx2::sum_f64_pair(a, b) }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => sum_f64_pair_scalar(a, b),
        SimdIsa::Scalar => sum_f64_pair_scalar(a, b),
    }
}

/// [`sum_sq_f64`] of two planes at once, bit for bit the two single-plane
/// calls whatever the two lengths — see [`sum_f64_pair`].
pub(crate) fn sum_sq_f64_pair(isa: SimdIsa, a: &[f32], b: &[f32]) -> [(f64, f64); 2] {
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            // SAFETY: `Avx2Fma` and `Avx512` imply runtime-verified avx2+fma
            // support.
            unsafe { avx2::sum_sq_f64_pair(a, b) }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => sum_sq_f64_pair_scalar(a, b),
        SimdIsa::Scalar => sum_sq_f64_pair_scalar(a, b),
    }
}

/// [`sq_dev_sum_f64`] of two planes around their own means at once, bit for
/// bit the two single-plane calls whatever the two lengths — see
/// [`sum_f64_pair`].
pub(crate) fn sq_dev_sum_f64_pair(isa: SimdIsa, a: &[f32], b: &[f32], means: [f64; 2]) -> [f64; 2] {
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            // SAFETY: `Avx2Fma` and `Avx512` imply runtime-verified avx2+fma
            // support.
            unsafe { avx2::sq_dev_sum_f64_pair(a, b, means) }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => sq_dev_sum_f64_pair_scalar(a, b, means),
        SimdIsa::Scalar => sq_dev_sum_f64_pair_scalar(a, b, means),
    }
}

/// Adds `Σg` and `Σg·h` of two equal-length planes, in `f64`, to the running
/// sums `sum` and `dot` — the ∂β/∂γ reduction of BN backward, one
/// `(sample, channel)` plane at a time. The scalar path *continues* the
/// running sums element by element (the historical per-channel fold, bit for
/// bit, whatever the plane boundaries); the AVX2 path adds one plane
/// subtotal built from four lane partials, like `sum_sq_f64`.
///
/// Its callers in `bnff-kernels`: BN backward over a stored `x̂`
/// (`bn_backward`), and the tests that hold the one-pass recompute epilogue
/// (`vecops::norm_grad_plane`, which keeps this order in registers) to it.
///
/// # Panics
/// Panics if the planes differ in length.
pub fn sum_dot_f64(isa: SimdIsa, g: &[f32], h: &[f32], sum: &mut f64, dot: &mut f64) {
    assert_eq!(g.len(), h.len(), "sum_dot_f64 planes differ in length");
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            // SAFETY: `Avx2Fma` and `Avx512` imply runtime-verified avx2+fma
            // support.
            let (s, d) = unsafe { avx2::sum_dot_f64(g, h) };
            *sum += s;
            *dot += d;
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => sum_dot_f64_scalar(g, h, sum, dot),
        SimdIsa::Scalar => sum_dot_f64_scalar(g, h, sum, dot),
    }
}

/// Two element-by-element folds in one loop over the planes' common prefix,
/// then each over the rest of its own plane: per plane the sequential fold
/// `step(plane, acc, v)` of a single-plane loop, bit for bit, with the two
/// dependent chains interleaved.
fn fold_pair<T: Copy>(a: &[f32], b: &[f32], zero: T, step: impl Fn(usize, &mut T, f32)) -> [T; 2] {
    let mut acc = [zero; 2];
    let common = a.len().min(b.len());
    for (&u, &v) in a.iter().zip(b) {
        step(0, &mut acc[0], u);
        step(1, &mut acc[1], v);
    }
    for &u in &a[common..] {
        step(0, &mut acc[0], u);
    }
    for &v in &b[common..] {
        step(1, &mut acc[1], v);
    }
    acc
}

fn sum_f64_pair_scalar(a: &[f32], b: &[f32]) -> [f64; 2] {
    fold_pair(a, b, 0.0f64, |_, s, v| *s += f64::from(v))
}

fn sum_sq_f64_pair_scalar(a: &[f32], b: &[f32]) -> [(f64, f64); 2] {
    fold_pair(a, b, (0.0f64, 0.0f64), |_, (s, q), v| {
        let v = f64::from(v);
        *s += v;
        *q += v * v;
    })
}

fn sq_dev_sum_f64_pair_scalar(a: &[f32], b: &[f32], means: [f64; 2]) -> [f64; 2] {
    fold_pair(a, b, 0.0f64, |plane, acc, v| {
        let d = f64::from(v) - means[plane];
        *acc += d * d;
    })
}

fn sum_dot_f64_scalar(g: &[f32], h: &[f32], sum: &mut f64, dot: &mut f64) {
    for (&g, &h) in g.iter().zip(h) {
        *sum += f64::from(g);
        *dot += f64::from(g) * f64::from(h);
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Reduces four f64 lanes in a fixed left-to-right order, so the result
    /// depends only on the lane contents — never on thread count.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn hsum_pd(v: __m256d) -> f64 {
        let mut lanes = [0.0f64; 4];
        // SAFETY: `lanes` has room for all four f64 lanes.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), v) };
        ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3]
    }

    /// The eight values of `chunk` widened to f64: lanes 0–3, then 4–7.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn widen(chunk: &[f32; 8]) -> (__m256d, __m256d) {
        // SAFETY: `chunk` holds exactly eight f32 values.
        let v = unsafe { _mm256_loadu_ps(chunk.as_ptr()) };
        (_mm256_cvtps_pd(_mm256_castps256_ps128(v)), _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v)))
    }

    /// One step of a plane's `Σx`: the eight values of `chunk` added to the
    /// lane partials `s`, lanes 0–3 first.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn add_chunk(s: __m256d, chunk: &[f32; 8]) -> __m256d {
        let (lo, hi) = widen(chunk);
        _mm256_add_pd(_mm256_add_pd(s, lo), hi)
    }

    /// One step of a plane's `(Σx, Σx²)`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn add_sq_chunk((s, q): (__m256d, __m256d), chunk: &[f32; 8]) -> (__m256d, __m256d) {
        let (lo, hi) = widen(chunk);
        (
            _mm256_add_pd(_mm256_add_pd(s, lo), hi),
            _mm256_fmadd_pd(hi, hi, _mm256_fmadd_pd(lo, lo, q)),
        )
    }

    /// One step of a plane's `Σ(x − m)²`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn add_sq_dev_chunk(acc: __m256d, chunk: &[f32; 8], m: __m256d) -> __m256d {
        let (lo, hi) = widen(chunk);
        let (lo, hi) = (_mm256_sub_pd(lo, m), _mm256_sub_pd(hi, m));
        _mm256_fmadd_pd(hi, hi, _mm256_fmadd_pd(lo, lo, acc))
    }

    // The pair kernels walk both planes eight values at a time, jointly over
    // their common prefix and then each alone, so each plane takes the steps
    // a walk of it alone takes, in its order; the steps are named functions,
    // not closures, so they inline into the loops whatever the codegen units.

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn sum_f64_pair(a: &[f32], b: &[f32]) -> [f64; 2] {
        let ((a_chunks, a_tail), (b_chunks, b_tail)) = (a.as_chunks::<8>(), b.as_chunks::<8>());
        let common = a_chunks.len().min(b_chunks.len());
        let mut acc = [_mm256_setzero_pd(); 2];
        for (u, v) in a_chunks.iter().zip(b_chunks) {
            acc[0] = add_chunk(acc[0], u);
            acc[1] = add_chunk(acc[1], v);
        }
        for (p, rest) in [&a_chunks[common..], &b_chunks[common..]].into_iter().enumerate() {
            for chunk in rest {
                acc[p] = add_chunk(acc[p], chunk);
            }
        }
        let mut sums = [hsum_pd(acc[0]), hsum_pd(acc[1])];
        for (sum, tail) in sums.iter_mut().zip([a_tail, b_tail]) {
            for &v in tail {
                *sum += f64::from(v);
            }
        }
        sums
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn sum_sq_f64_pair(a: &[f32], b: &[f32]) -> [(f64, f64); 2] {
        let ((a_chunks, a_tail), (b_chunks, b_tail)) = (a.as_chunks::<8>(), b.as_chunks::<8>());
        let common = a_chunks.len().min(b_chunks.len());
        let zero = _mm256_setzero_pd();
        let mut acc = [(zero, zero); 2];
        for (u, v) in a_chunks.iter().zip(b_chunks) {
            acc[0] = add_sq_chunk(acc[0], u);
            acc[1] = add_sq_chunk(acc[1], v);
        }
        for (p, rest) in [&a_chunks[common..], &b_chunks[common..]].into_iter().enumerate() {
            for chunk in rest {
                acc[p] = add_sq_chunk(acc[p], chunk);
            }
        }
        let mut sums =
            [(hsum_pd(acc[0].0), hsum_pd(acc[0].1)), (hsum_pd(acc[1].0), hsum_pd(acc[1].1))];
        for ((sum, sq), tail) in sums.iter_mut().zip([a_tail, b_tail]) {
            for &v in tail {
                let v = f64::from(v);
                *sum += v;
                *sq += v * v;
            }
        }
        sums
    }

    /// `(Σg, Σg·h)` of two planes of equal length (asserted by the caller).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn sum_dot_f64(g: &[f32], h: &[f32]) -> (f64, f64) {
        let mut s = _mm256_setzero_pd();
        let mut d = _mm256_setzero_pd();
        let (g_chunks, h_chunks) = (g.chunks_exact(8), h.chunks_exact(8));
        let (g_tail, h_tail) = (g_chunks.remainder(), h_chunks.remainder());
        for (gc, hc) in g_chunks.zip(h_chunks) {
            // SAFETY: each chunk holds exactly eight f32 values.
            let (gv, hv) = unsafe { (_mm256_loadu_ps(gc.as_ptr()), _mm256_loadu_ps(hc.as_ptr())) };
            let g_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(gv));
            let g_hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(gv));
            s = _mm256_add_pd(s, g_lo);
            s = _mm256_add_pd(s, g_hi);
            // An f32·f32 product is exact in f64, so the contraction rounds
            // exactly where a separate multiply and add would.
            d = _mm256_fmadd_pd(g_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(hv)), d);
            d = _mm256_fmadd_pd(g_hi, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(hv)), d);
        }
        let mut sum = hsum_pd(s);
        let mut dot = hsum_pd(d);
        for (&g, &h) in g_tail.iter().zip(h_tail) {
            sum += f64::from(g);
            dot += f64::from(g) * f64::from(h);
        }
        (sum, dot)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn sq_dev_sum_f64_pair(a: &[f32], b: &[f32], means: [f64; 2]) -> [f64; 2] {
        let ((a_chunks, a_tail), (b_chunks, b_tail)) = (a.as_chunks::<8>(), b.as_chunks::<8>());
        let common = a_chunks.len().min(b_chunks.len());
        let m = [_mm256_set1_pd(means[0]), _mm256_set1_pd(means[1])];
        let mut acc = [_mm256_setzero_pd(); 2];
        for (u, v) in a_chunks.iter().zip(b_chunks) {
            acc[0] = add_sq_dev_chunk(acc[0], u, m[0]);
            acc[1] = add_sq_dev_chunk(acc[1], v, m[1]);
        }
        for (p, rest) in [&a_chunks[common..], &b_chunks[common..]].into_iter().enumerate() {
            for chunk in rest {
                acc[p] = add_sq_dev_chunk(acc[p], chunk, m[p]);
            }
        }
        let mut sums = [hsum_pd(acc[0]), hsum_pd(acc[1])];
        for ((sum, tail), mean) in sums.iter_mut().zip([a_tail, b_tail]).zip(means) {
            for &v in tail {
                let d = f64::from(v) - mean;
                *sum += d * d;
            }
        }
        sums
    }
}

/// The dispatch paths a unit test can run on this machine: the scalar path
/// and every vector tier the hardware has.
#[cfg(test)]
pub(crate) fn test_isas() -> Vec<SimdIsa> {
    [SimdIsa::Scalar, SimdIsa::Avx2Fma, SimdIsa::Avx512]
        .into_iter()
        .filter(|&isa| with_isa(isa, active_isa) == isa)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 37 % 29) as f32 - 14.0) * 0.173).collect()
    }

    #[test]
    fn with_isa_overrides_and_restores() {
        let before = active_isa();
        with_isa(SimdIsa::Scalar, || {
            assert_eq!(active_isa(), SimdIsa::Scalar);
            with_isa(SimdIsa::Avx2Fma, || {
                // Clamped to hardware: either the real thing or Scalar.
                assert_eq!(active_isa(), clamp_to_hardware(SimdIsa::Avx2Fma));
            });
            with_isa(SimdIsa::Avx512, || {
                assert_eq!(active_isa(), clamp_to_hardware(SimdIsa::Avx512));
            });
            assert_eq!(active_isa(), SimdIsa::Scalar);
        });
        assert_eq!(active_isa(), before);
    }

    #[test]
    fn active_isa_is_always_executable() {
        // Whatever the env/override state, the returned ISA must be one the
        // hardware can run.
        let isa = active_isa();
        if SimdIsa::detected() == SimdIsa::Scalar {
            assert_eq!(isa, SimdIsa::Scalar);
        }
        if SimdIsa::detected() != SimdIsa::Avx512 {
            assert_ne!(isa, SimdIsa::Avx512);
        }
    }

    #[test]
    fn clamping_steps_down_one_tier_at_a_time() {
        let detected = SimdIsa::detected();
        assert_eq!(clamp_to_hardware(SimdIsa::Scalar), SimdIsa::Scalar);
        // The widest request yields whatever the host has.
        assert_eq!(clamp_to_hardware(SimdIsa::Avx512), detected);
        let avx2 = if detected == SimdIsa::Scalar { SimdIsa::Scalar } else { SimdIsa::Avx2Fma };
        assert_eq!(clamp_to_hardware(SimdIsa::Avx2Fma), avx2);
    }

    #[test]
    fn isa_names_are_stable() {
        assert_eq!(SimdIsa::Scalar.name(), "scalar");
        assert_eq!(SimdIsa::Avx2Fma.name(), "avx2+fma");
        assert_eq!(SimdIsa::Avx512.name(), "avx512");
        assert_eq!(format!("{}", SimdIsa::Scalar), "scalar");
    }

    #[test]
    fn aligned_buf_is_32_byte_aligned_and_sized() {
        for len in [0usize, 1, 7, 8, 9, 64, 100] {
            let mut buf = AlignedBuf::zeroed(len);
            assert_eq!(buf.len(), len);
            assert_eq!(buf.is_empty(), len == 0);
            assert!(buf.iter().all(|&v| v == 0.0));
            if len > 0 {
                assert_eq!(buf.as_ptr() as usize % 32, 0, "len {len}");
                buf[len - 1] = 3.5;
                assert_eq!(buf[len - 1], 3.5);
            }
        }
    }

    #[test]
    fn aligned_buf_resize_preserves_prefix_and_alignment() {
        let mut buf = AlignedBuf::zeroed(4);
        buf.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        buf.resize_dirty(19);
        assert_eq!(buf.len(), 19);
        assert_eq!(&buf[..4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(buf.as_ptr() as usize % 32, 0);
        buf.resize_dirty(2);
        assert_eq!(&buf[..], &[1.0, 2.0]);
        assert!(buf.capacity() >= 19);
    }

    #[test]
    fn scalar_reductions_match_the_historical_folds() {
        let x = data(103);
        let (s, q) = sum_sq_f64(SimdIsa::Scalar, &x);
        let mut es = 0.0f64;
        let mut eq = 0.0f64;
        for &v in &x {
            let v = f64::from(v);
            es += v;
            eq += v * v;
        }
        assert_eq!(s.to_bits(), es.to_bits());
        assert_eq!(q.to_bits(), eq.to_bits());
        assert_eq!(sum_f64(SimdIsa::Scalar, &x).to_bits(), es.to_bits());
        let m = es / x.len() as f64;
        let dev: f64 = x.iter().map(|&v| (f64::from(v) - m) * (f64::from(v) - m)).sum();
        assert_eq!(sq_dev_sum_f64(SimdIsa::Scalar, &x, m).to_bits(), dev.to_bits());
    }

    #[test]
    fn sum_dot_continues_running_sums_across_planes() {
        let (g, h) = (data(103), data(103).iter().map(|v| v * 0.7 - 0.2).collect::<Vec<_>>());
        let (mut es, mut ed) = (0.0f64, 0.0f64);
        for (&a, &b) in g.iter().zip(&h) {
            es += f64::from(a);
            ed += f64::from(a) * f64::from(b);
        }
        // Scalar: two planes continue one fold, bit for bit.
        let (mut s, mut d) = (0.0f64, 0.0f64);
        sum_dot_f64(SimdIsa::Scalar, &g[..40], &h[..40], &mut s, &mut d);
        sum_dot_f64(SimdIsa::Scalar, &g[40..], &h[40..], &mut s, &mut d);
        assert_eq!((s.to_bits(), d.to_bits()), (es.to_bits(), ed.to_bits()));
        // Vector: plane subtotals, within f64 reassociation of the fold.
        let isa = clamp_to_hardware(SimdIsa::Avx2Fma);
        for split in [0usize, 7, 8, 40, 103] {
            let (mut s, mut d) = (0.0f64, 0.0f64);
            sum_dot_f64(isa, &g[..split], &h[..split], &mut s, &mut d);
            sum_dot_f64(isa, &g[split..], &h[split..], &mut s, &mut d);
            assert!((s - es).abs() <= 1e-9 * (1.0 + es.abs()), "split {split}: {s} vs {es}");
            assert!((d - ed).abs() <= 1e-9 * (1.0 + ed.abs()), "split {split}: {d} vs {ed}");
        }
    }

    /// Each two-plane kernel returns what two single-plane calls return, bit
    /// for bit, on every tier and for every pair of lengths — equal, unequal
    /// and an empty second plane — shorter than, at and past one vector.
    #[test]
    fn pair_kernels_equal_two_single_plane_calls() {
        let lengths = [0usize, 1, 7, 8, 9, 63, 64, 65, 1024];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for isa in test_isas() {
            for &la in &lengths[1..] {
                for lb in lengths {
                    let label = format!("{isa} {la}+{lb}");
                    let a = data(la);
                    let b: Vec<f32> = data(lb + 3)[3..].iter().map(|v| v * 1.7 - 0.4).collect();
                    let got = sum_f64_pair(isa, &a, &b);
                    let want = [sum_f64(isa, &a), sum_f64(isa, &b)];
                    assert_eq!(bits(&got), bits(&want), "Σx {label}");
                    let [(sa, qa), (sb, qb)] = sum_sq_f64_pair(isa, &a, &b);
                    let ((wsa, wqa), (wsb, wqb)) = (sum_sq_f64(isa, &a), sum_sq_f64(isa, &b));
                    assert_eq!(bits(&[sa, qa, sb, qb]), bits(&[wsa, wqa, wsb, wqb]), "Σx² {label}");
                    let means = [0.3, -1.1];
                    let got = sq_dev_sum_f64_pair(isa, &a, &b, means);
                    let want =
                        [sq_dev_sum_f64(isa, &a, means[0]), sq_dev_sum_f64(isa, &b, means[1])];
                    assert_eq!(bits(&got), bits(&want), "Σ(x − m)² {label}");
                }
            }
        }
    }

    /// The vector tiers' single-plane order, written out: lane `j` of the
    /// four f64 partials takes values `8i + j`, then `8i + 4 + j`, from
    /// zero; the lanes reduce as `((l0 + l1) + l2) + l3`; the tail adds on
    /// in order. (Every f32 square is exact in f64, so a contracted Σx²
    /// rounds where a separate multiply-add would; Σ(x − m)² contracts.)
    #[test]
    fn vector_single_plane_kernels_keep_their_lane_order() {
        let Some(&isa) = test_isas().iter().find(|&&isa| isa != SimdIsa::Scalar) else {
            eprintln!("skipping the lane-order check: this host has no vector tier");
            return;
        };
        let mean = 0.3f64;
        for n in [1usize, 7, 8, 9, 63, 64, 65, 1024] {
            let x = data(n);
            let (mut s, mut q, mut d) = ([0.0f64; 4], [0.0f64; 4], [0.0f64; 4]);
            let (chunks, tail) = x.as_chunks::<8>();
            for chunk in chunks {
                for half in [0, 4] {
                    for j in 0..4 {
                        let v = f64::from(chunk[half + j]);
                        s[j] += v;
                        q[j] += v * v;
                        d[j] = (v - mean).mul_add(v - mean, d[j]);
                    }
                }
            }
            let reduce = |l: [f64; 4]| ((l[0] + l[1]) + l[2]) + l[3];
            let (mut s, mut q, mut d) = (reduce(s), reduce(q), reduce(d));
            for &v in tail {
                let v = f64::from(v);
                s += v;
                q += v * v;
                d += (v - mean) * (v - mean);
            }
            assert_eq!(sum_f64(isa, &x).to_bits(), s.to_bits(), "Σx n={n}");
            let (gs, gq) = sum_sq_f64(isa, &x);
            assert_eq!((gs.to_bits(), gq.to_bits()), (s.to_bits(), q.to_bits()), "Σx² n={n}");
            assert_eq!(sq_dev_sum_f64(isa, &x, mean).to_bits(), d.to_bits(), "Σ(x − m)² n={n}");
        }
    }

    #[test]
    fn vector_reductions_agree_with_scalar_within_tolerance() {
        // On non-AVX2 hardware Avx2Fma clamps to Scalar and this becomes a
        // trivial identity check — intended, the suite must pass anywhere.
        let isa = clamp_to_hardware(SimdIsa::Avx2Fma);
        for n in [0usize, 1, 7, 8, 9, 31, 32, 33, 1023] {
            let x = data(n);
            let (s_ref, q_ref) = sum_sq_f64(SimdIsa::Scalar, &x);
            let (s, q) = sum_sq_f64(isa, &x);
            assert!((s - s_ref).abs() <= 1e-9 * (1.0 + s_ref.abs()), "n={n}: {s} vs {s_ref}");
            assert!((q - q_ref).abs() <= 1e-9 * (1.0 + q_ref.abs()), "n={n}: {q} vs {q_ref}");
            let sv = sum_f64(isa, &x);
            assert!((sv - s_ref).abs() <= 1e-9 * (1.0 + s_ref.abs()));
            let m = if n == 0 { 0.0 } else { s_ref / n as f64 };
            let d_ref = sq_dev_sum_f64(SimdIsa::Scalar, &x, m);
            let d = sq_dev_sum_f64(isa, &x, m);
            assert!((d - d_ref).abs() <= 1e-9 * (1.0 + d_ref.abs()));
        }
    }
}
