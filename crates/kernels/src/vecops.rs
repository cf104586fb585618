//! Shared vectorized sweeps for the bandwidth-bound kernels.
//!
//! ReLU and its backward mask, channel affine, BN normalize and the BN
//! input gradient, the element-wise sum and the conv bias/ReLU epilogue are
//! all memory-sweep kernels — exactly the loops the paper's DRAM-byte
//! argument is about. Each helper here takes the
//! [`SimdIsa`] the calling kernel resolved at entry (on the calling
//! thread) and runs either the historical scalar loop, bit-for-bit, or an
//! AVX2+FMA sweep.
//!
//! Determinism notes, per helper:
//!
//! * [`relu_into`] / [`relu_inplace`] / [`relu_mask`] / [`add_assign`] /
//!   [`add_scalar`] / [`bn_dx_plane`]: the vector and scalar flavours are
//!   bit-identical for every input (`max`, the compare-and-mask, `+` and
//!   the uncontracted f64 `mul`/`sub` are exact-rounded elementwise ops),
//!   so these helpers are safe on *arbitrary* chunk boundaries — a worker
//!   split mid-slice cannot change results.
//! * [`affine`] / [`normalize_plane`]: the AVX2 flavour contracts
//!   `scale·x + shift` (and `γ·x̂ + β`) with FMA, rounding once where the
//!   scalar loop rounds twice. Within one ISA results are deterministic,
//!   but the two ISAs differ in the last bits; callers only invoke these
//!   on whole planes, whose boundaries do not depend on thread count.
//! * [`stage_plane`]: a plane copied, clipped or normalized+clipped into
//!   the rows of a bordered scratch, one call per plane that runs each row
//!   through the same ISA's body of the element-wise sweep it names
//!   ([`relu_into`], or [`normalize_plane`] with the clip) — the same code,
//!   so the same bits, wherever a row starts.
//! * [`norm_grad_plane`]: [`normalize_plane`] → [`relu_mask`] →
//!   `sum_dot_f64` in one pass, bit for bit per ISA; its reductions are
//!   `sum_dot_f64`'s (the AVX2 flavour adds a plane subtotal, the scalar one
//!   continues the running sums), so it too is called on whole planes.

use bnff_tensor::simd::SimdIsa;

/// `dst[i] = max(src[i], 0)`. Bit-identical across ISAs (NaN clips to 0.0
/// on both paths, ties at ±0.0 resolve to +0.0 on both paths).
pub(crate) fn relu_into(isa: SimdIsa, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            // SAFETY: `Avx2Fma` and `Avx512` imply runtime-verified avx2+fma
            // support.
            unsafe { avx2::relu_into(src, dst) }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => relu_into_scalar(src, dst),
        SimdIsa::Scalar => relu_into_scalar(src, dst),
    }
}

/// `dst[i] = max(dst[i], 0)` in place. Bit-identical across ISAs.
pub(crate) fn relu_inplace(isa: SimdIsa, dst: &mut [f32]) {
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            // SAFETY: `Avx2Fma` and `Avx512` imply runtime-verified avx2+fma
            // support.
            unsafe { avx2::relu_inplace(dst) }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => relu_inplace_scalar(dst),
        SimdIsa::Scalar => relu_inplace_scalar(dst),
    }
}

/// ReLU backward: `g[i]` is kept where `y[i] > 0` and becomes `+0.0`
/// elsewhere (NaN activations block the gradient, matching the forward
/// clip), without a data-dependent branch. Bit-identical across ISAs.
pub(crate) fn relu_mask(isa: SimdIsa, g: &mut [f32], y: &[f32]) {
    assert_eq!(g.len(), y.len(), "gradient and mask planes differ in length");
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            // SAFETY: `Avx2Fma` and `Avx512` imply runtime-verified avx2+fma
            // support.
            unsafe { avx2::relu_mask(g, y) }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => relu_mask_scalar(g, y),
        SimdIsa::Scalar => relu_mask_scalar(g, y),
    }
}

/// The BN input gradient over one plane, in place on the upstream gradient:
/// `g = scale·(g − mean_g − x̂·mean_gx̂)` with `x̂ = (x − mean)·inv_std`
/// recomputed from `x`; a caller holding a stored `x̂` passes it as `x` with
/// `mean = 0`, `inv_std = 1`, which reproduces it bit for bit. The f64
/// `mul`/`sub` chain is not contracted, so the ISAs are bit-identical.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bn_dx_plane(
    isa: SimdIsa,
    g: &mut [f32],
    x: &[f32],
    mean: f32,
    inv_std: f32,
    scale: f64,
    mean_g: f64,
    mean_gxhat: f64,
) {
    assert_eq!(g.len(), x.len(), "gradient and activation planes differ in length");
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            // SAFETY: `Avx2Fma` and `Avx512` imply runtime-verified avx2+fma
            // support.
            unsafe { avx2::bn_dx_plane(g, x, mean, inv_std, scale, mean_g, mean_gxhat) }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            bn_dx_plane_scalar(g, x, mean, inv_std, scale, mean_g, mean_gxhat)
        }
        SimdIsa::Scalar => bn_dx_plane_scalar(g, x, mean, inv_std, scale, mean_g, mean_gxhat),
    }
}

/// `dst[i] += src[i]`. Bit-identical across ISAs (exact-rounded adds, no
/// cross-lane interaction).
pub(crate) fn add_assign(isa: SimdIsa, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(src.len(), dst.len());
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            // SAFETY: `Avx2Fma` and `Avx512` imply runtime-verified avx2+fma
            // support.
            unsafe { avx2::add_assign(dst, src) }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => add_assign_scalar(dst, src),
        SimdIsa::Scalar => add_assign_scalar(dst, src),
    }
}

/// `dst[i] += value`. Bit-identical across ISAs.
pub(crate) fn add_scalar(isa: SimdIsa, dst: &mut [f32], value: f32) {
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            // SAFETY: `Avx2Fma` and `Avx512` imply runtime-verified avx2+fma
            // support.
            unsafe { avx2::add_scalar(dst, value) }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => add_scalar_scalar(dst, value),
        SimdIsa::Scalar => add_scalar_scalar(dst, value),
    }
}

/// `dst[i] = scale·src[i] + shift` (clamped at zero when `fuse_relu`),
/// reading from `src`. AVX2 contracts with FMA.
pub(crate) fn affine(
    isa: SimdIsa,
    src: &[f32],
    dst: &mut [f32],
    scale: f32,
    shift: f32,
    fuse_relu: bool,
) {
    debug_assert_eq!(src.len(), dst.len());
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            // SAFETY: `Avx2Fma` and `Avx512` imply runtime-verified avx2+fma
            // support.
            unsafe { avx2::affine(src, dst, scale, shift, fuse_relu) }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => affine_scalar(src, dst, scale, shift, fuse_relu),
        SimdIsa::Scalar => affine_scalar(src, dst, scale, shift, fuse_relu),
    }
}

/// In-place [`affine`]: `dst[i] = scale·dst[i] + shift` (clamped when
/// `fuse_relu`).
pub(crate) fn affine_inplace(
    isa: SimdIsa,
    dst: &mut [f32],
    scale: f32,
    shift: f32,
    fuse_relu: bool,
) {
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            // SAFETY: `Avx2Fma` and `Avx512` imply runtime-verified avx2+fma
            // support.
            unsafe { avx2::affine_inplace(dst, scale, shift, fuse_relu) }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => affine_inplace_scalar(dst, scale, shift, fuse_relu),
        SimdIsa::Scalar => affine_inplace_scalar(dst, scale, shift, fuse_relu),
    }
}

/// The BN normalize sweep over one `(sample, channel)` plane: writes
/// `y = γ·x̂ + β` (clamped at zero when `fuse_relu`) into `y` and, when the
/// caller keeps it, `x̂ = (x − mean)·inv_std` into `hat`, in lockstep. The
/// `x̂` stream is bit-identical across ISAs (sub + mul only); the `y` stream
/// contracts with FMA on AVX2.
#[allow(clippy::too_many_arguments)]
pub(crate) fn normalize_plane(
    isa: SimdIsa,
    src: &[f32],
    hat: Option<&mut [f32]>,
    y: &mut [f32],
    mean: f32,
    inv_std: f32,
    gamma: f32,
    beta: f32,
    fuse_relu: bool,
) {
    assert_eq!(src.len(), y.len(), "normalize planes differ in length");
    assert!(hat.as_ref().is_none_or(|h| h.len() == src.len()), "x̂ plane differs in length");
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            // SAFETY: `Avx2Fma` and `Avx512` imply runtime-verified avx2+fma
            // support.
            unsafe { avx2::normalize_plane(src, hat, y, mean, inv_std, gamma, beta, fuse_relu) }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            normalize_plane_scalar(src, hat, y, mean, inv_std, gamma, beta, fuse_relu)
        }
        SimdIsa::Scalar => {
            normalize_plane_scalar(src, hat, y, mean, inv_std, gamma, beta, fuse_relu)
        }
    }
}

/// What [`stage_plane`] applies to each value it copies.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StageOp {
    /// The value as it is.
    Copy,
    /// `max(x, 0)`: [`relu_into`]'s arithmetic.
    Relu,
    /// `max(γ·((x − mean)·inv_std) + β, 0)`: [`normalize_plane`]'s
    /// arithmetic with the clip, minus the `x̂` store.
    NormClip { mean: f32, inv_std: f32, gamma: f32, beta: f32 },
}

/// Writes the plane `src` — `rows` rows of `width` values, one after
/// another — through `op` into `dst`, whose rows start `pitch` values apart:
/// row `r` lands in `dst[r·pitch..r·pitch + width]` and nothing between two
/// rows is touched. One call walks every row; per element the result is
/// `op`'s element-wise sweep on the same ISA, bit for bit.
///
/// # Panics
/// Panics if `src` is not `rows × width` values, `pitch < width`, or `dst`
/// is too short to hold the rows.
#[inline(always)]
pub(crate) fn stage_plane(
    isa: SimdIsa,
    op: StageOp,
    src: &[f32],
    dst: &mut [f32],
    (rows, width): (usize, usize),
    pitch: usize,
) {
    assert!(src.len() == rows * width && pitch >= width, "ragged plane");
    if src.is_empty() {
        return;
    }
    assert!(dst.len() >= (rows - 1) * pitch + width, "staged rows overrun the scratch");
    // Rows that abut are one row.
    let (width, pitch) = if pitch == width { (src.len(), src.len()) } else { (width, pitch) };
    match (op, isa) {
        // A copy has no ISA flavour: its rows are `memcpy`s, walked here —
        // and this function always inlined — so the staging loop calls
        // nothing else per plane. An 8×8 plane's eight row copies cost
        // about what one more call does (the 8×8 3×3 rows of `conv_shapes`
        // read 3–6 % slower with that call).
        (StageOp::Copy, _) => {
            for (x, y) in src.chunks_exact(width).zip(dst.chunks_mut(pitch)) {
                y[..width].copy_from_slice(x);
            }
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        (_, SimdIsa::Avx2Fma | SimdIsa::Avx512) => {
            // SAFETY: `Avx2Fma` and `Avx512` imply runtime-verified avx2+fma
            // support.
            unsafe { avx2::stage_plane(op, src, dst, width, pitch) }
        }
        _ => stage_plane_scalar(op, src, dst, width, pitch),
    }
}

/// The recompute half of a normalization's backward over one
/// `(sample, channel)` plane, in one pass: `x̂ = (x − mean)·inv_std` and —
/// `relu` — `y = γ·x̂ + β` are derived in registers, `g` is zeroed in place
/// where `!(y > 0)` (the ordered compare: a NaN `y` masks), and `Σg`,
/// `Σg·x̂` of the masked `g` are added to `sums` in f64. Bit for bit
/// [`normalize_plane`] (clipping when `relu`) → [`relu_mask`] on its `y` →
/// `bnff_tensor::simd::sum_dot_f64` of `g` and its `x̂`, per ISA, without
/// writing `x̂` or `y` anywhere: the AVX2 flavour keeps `sum_dot_f64`'s four
/// f64 lane partials and adds their subtotal, the scalar one continues the
/// running sums element by element.
#[allow(clippy::too_many_arguments)]
pub(crate) fn norm_grad_plane(
    isa: SimdIsa,
    g: &mut [f32],
    x: &[f32],
    mean: f32,
    inv_std: f32,
    gamma: f32,
    beta: f32,
    relu: bool,
    sums: &mut (f64, f64),
) {
    assert_eq!(g.len(), x.len(), "gradient and activation planes differ in length");
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            // SAFETY: `Avx2Fma` and `Avx512` imply runtime-verified avx2+fma
            // support.
            let (sum, dot) =
                unsafe { avx2::norm_grad_plane(g, x, mean, inv_std, gamma, beta, relu) };
            sums.0 += sum;
            sums.1 += dot;
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            norm_grad_plane_scalar(g, x, mean, inv_std, gamma, beta, relu, sums)
        }
        SimdIsa::Scalar => norm_grad_plane_scalar(g, x, mean, inv_std, gamma, beta, relu, sums),
    }
}

fn stage_plane_scalar(op: StageOp, src: &[f32], dst: &mut [f32], width: usize, pitch: usize) {
    let rows = src.chunks_exact(width).zip(dst.chunks_mut(pitch));
    match op {
        StageOp::Copy => unreachable!("stage_plane copies"),
        StageOp::Relu => rows.for_each(|(x, y)| relu_into_scalar(x, &mut y[..width])),
        StageOp::NormClip { mean, inv_std, gamma, beta } => rows.for_each(|(x, y)| {
            normalize_plane_scalar(x, None, &mut y[..width], mean, inv_std, gamma, beta, true)
        }),
    }
}

fn relu_into_scalar(src: &[f32], dst: &mut [f32]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = v.max(0.0);
    }
}

fn relu_inplace_scalar(dst: &mut [f32]) {
    for v in dst {
        *v = v.max(0.0);
    }
}

fn relu_mask_scalar(g: &mut [f32], y: &[f32]) {
    for (g, &v) in g.iter_mut().zip(y) {
        // All ones where the gradient passes, all zeros (`+0.0`) elsewhere.
        let keep = u32::from(v > 0.0).wrapping_neg();
        *g = f32::from_bits(g.to_bits() & keep);
    }
}

fn bn_dx_plane_scalar(
    g: &mut [f32],
    x: &[f32],
    mean: f32,
    inv_std: f32,
    scale: f64,
    mean_g: f64,
    mean_gxhat: f64,
) {
    for (g, &v) in g.iter_mut().zip(x) {
        let hat = (v - mean) * inv_std;
        *g = (scale * (f64::from(*g) - mean_g - f64::from(hat) * mean_gxhat)) as f32;
    }
}

#[allow(clippy::too_many_arguments)]
fn norm_grad_plane_scalar(
    g: &mut [f32],
    x: &[f32],
    mean: f32,
    inv_std: f32,
    gamma: f32,
    beta: f32,
    relu: bool,
    sums: &mut (f64, f64),
) {
    for (g, &v) in g.iter_mut().zip(x) {
        let hat = (v - mean) * inv_std;
        if relu {
            // `max(y, 0) > 0` ⇔ `y > 0`, NaN included.
            let keep = u32::from(gamma * hat + beta > 0.0).wrapping_neg();
            *g = f32::from_bits(g.to_bits() & keep);
        }
        sums.0 += f64::from(*g);
        sums.1 += f64::from(*g) * f64::from(hat);
    }
}

fn add_assign_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d += v;
    }
}

fn add_scalar_scalar(dst: &mut [f32], value: f32) {
    for v in dst {
        *v += value;
    }
}

fn affine_scalar(src: &[f32], dst: &mut [f32], scale: f32, shift: f32, fuse_relu: bool) {
    if fuse_relu {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = (scale * v + shift).max(0.0);
        }
    } else {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = scale * v + shift;
        }
    }
}

fn affine_inplace_scalar(dst: &mut [f32], scale: f32, shift: f32, fuse_relu: bool) {
    if fuse_relu {
        for v in dst {
            *v = (scale * *v + shift).max(0.0);
        }
    } else {
        for v in dst {
            *v = scale * *v + shift;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn normalize_plane_scalar(
    src: &[f32],
    hat: Option<&mut [f32]>,
    y: &mut [f32],
    mean: f32,
    inv_std: f32,
    gamma: f32,
    beta: f32,
    fuse_relu: bool,
) {
    let affine = |h: f32| {
        let r = gamma * h + beta;
        if fuse_relu {
            r.max(0.0)
        } else {
            r
        }
    };
    match hat {
        Some(hat) => {
            for ((h, o), &v) in hat.iter_mut().zip(y.iter_mut()).zip(src) {
                *h = (v - mean) * inv_std;
                *o = affine(*h);
            }
        }
        None => {
            for (o, &v) in y.iter_mut().zip(src) {
                *o = affine((v - mean) * inv_std);
            }
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    use super::StageOp;
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// The scalar twin of `_mm256_max_ps(v, 0)`: `v` where `v > 0`, `+0.0`
    /// elsewhere (NaN and `−0.0` included), so a tail value has the bits a
    /// vector lane gives it in every build — `f32::max` leaves the sign of
    /// a zero tie unspecified.
    #[inline]
    fn clip(v: f32) -> f32 {
        if v > 0.0 {
            v
        } else {
            0.0
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub fn relu_into(src: &[f32], dst: &mut [f32]) {
        let zero = _mm256_setzero_ps();
        let n = src.len();
        let vec_end = n - n % 8;
        for i in (0..vec_end).step_by(8) {
            // SAFETY: i + 8 <= vec_end <= len of both slices.
            unsafe {
                let v = _mm256_loadu_ps(src.as_ptr().add(i));
                _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_max_ps(v, zero));
            }
        }
        for (d, &v) in dst[vec_end..].iter_mut().zip(&src[vec_end..]) {
            *d = clip(v);
        }
    }

    /// `op`'s AVX2 sweep over every row, dispatched once per plane.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub fn stage_plane(op: StageOp, src: &[f32], dst: &mut [f32], width: usize, pitch: usize) {
        let rows = src.chunks_exact(width).zip(dst.chunks_mut(pitch));
        match op {
            StageOp::Copy => unreachable!("super::stage_plane copies"),
            StageOp::Relu => {
                for (x, y) in rows {
                    relu_into(x, &mut y[..width]);
                }
            }
            StageOp::NormClip { mean, inv_std, gamma, beta } => {
                for (x, y) in rows {
                    normalize_plane(x, None, &mut y[..width], mean, inv_std, gamma, beta, true);
                }
            }
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub fn relu_inplace(dst: &mut [f32]) {
        let zero = _mm256_setzero_ps();
        let n = dst.len();
        let vec_end = n - n % 8;
        for i in (0..vec_end).step_by(8) {
            // SAFETY: i + 8 <= vec_end <= dst.len().
            unsafe {
                let p = dst.as_mut_ptr().add(i);
                _mm256_storeu_ps(p, _mm256_max_ps(_mm256_loadu_ps(p), zero));
            }
        }
        for v in &mut dst[vec_end..] {
            *v = clip(*v);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub fn relu_mask(g: &mut [f32], y: &[f32]) {
        let zero = _mm256_setzero_ps();
        let n = g.len();
        let vec_end = n - n % 8;
        for i in (0..vec_end).step_by(8) {
            // SAFETY: i + 8 <= vec_end <= len of both slices (equal lengths
            // are asserted by the dispatcher).
            unsafe {
                let p = g.as_mut_ptr().add(i);
                // Ordered compare: a NaN activation yields an all-zero lane.
                let keep = _mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_loadu_ps(y.as_ptr().add(i)), zero);
                _mm256_storeu_ps(p, _mm256_and_ps(_mm256_loadu_ps(p), keep));
            }
        }
        super::relu_mask_scalar(&mut g[vec_end..], &y[vec_end..]);
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub fn bn_dx_plane(
        g: &mut [f32],
        x: &[f32],
        mean: f32,
        inv_std: f32,
        scale: f64,
        mean_g: f64,
        mean_gxhat: f64,
    ) {
        let (m, is) = (_mm256_set1_ps(mean), _mm256_set1_ps(inv_std));
        let (sc, mg, mgx) =
            (_mm256_set1_pd(scale), _mm256_set1_pd(mean_g), _mm256_set1_pd(mean_gxhat));
        // `scale·((g − mean_g) − x̂·mean_gx̂)` on four f64 lanes, rounded to
        // f32 by the conversion exactly as the scalar `as f32` does.
        let dx = |g: __m128, hat: __m128| {
            let t = _mm256_sub_pd(_mm256_cvtps_pd(g), mg);
            let t = _mm256_sub_pd(t, _mm256_mul_pd(_mm256_cvtps_pd(hat), mgx));
            _mm256_cvtpd_ps(_mm256_mul_pd(sc, t))
        };
        let n = g.len();
        let vec_end = n - n % 8;
        for i in (0..vec_end).step_by(8) {
            // SAFETY: i + 8 <= vec_end <= len of both slices (equal lengths
            // are asserted by the dispatcher).
            unsafe {
                let p = g.as_mut_ptr().add(i);
                let gv = _mm256_loadu_ps(p);
                let hat = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x.as_ptr().add(i)), m), is);
                let lo = dx(_mm256_castps256_ps128(gv), _mm256_castps256_ps128(hat));
                let hi = dx(_mm256_extractf128_ps::<1>(gv), _mm256_extractf128_ps::<1>(hat));
                _mm256_storeu_ps(p, _mm256_set_m128(hi, lo));
            }
        }
        super::bn_dx_plane_scalar(
            &mut g[vec_end..],
            &x[vec_end..],
            mean,
            inv_std,
            scale,
            mean_g,
            mean_gxhat,
        );
    }

    /// `bnff_tensor::simd`'s fixed-order reduce of four f64 lanes.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn hsum_pd(v: __m256d) -> f64 {
        let mut lanes = [0.0f64; 4];
        // SAFETY: `lanes` has room for all four f64 lanes.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), v) };
        ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3]
    }

    /// The plane's `(Σg, Σg·x̂)` after the mask: `normalize_plane`'s `x̂`
    /// and FMA-contracted `y`, `relu_mask`'s compare-and-`and`, then
    /// `sum_dot_f64`'s lane partials, `hsum_pd` and scalar tail.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub fn norm_grad_plane(
        g: &mut [f32],
        x: &[f32],
        mean: f32,
        inv_std: f32,
        gamma: f32,
        beta: f32,
        relu: bool,
    ) -> (f64, f64) {
        let (m, is) = (_mm256_set1_ps(mean), _mm256_set1_ps(inv_std));
        let (ga, b, zero) = (_mm256_set1_ps(gamma), _mm256_set1_ps(beta), _mm256_setzero_ps());
        let mut s = _mm256_setzero_pd();
        let mut d = _mm256_setzero_pd();
        let n = g.len();
        let vec_end = n - n % 8;
        for i in (0..vec_end).step_by(8) {
            // SAFETY: i + 8 <= vec_end <= len of both slices (equal lengths
            // are asserted by the dispatcher).
            let (p, xv) = unsafe { (g.as_mut_ptr().add(i), _mm256_loadu_ps(x.as_ptr().add(i))) };
            let hat = _mm256_mul_ps(_mm256_sub_ps(xv, m), is);
            // SAFETY: as above — the 8 values at `p` lie inside `g`.
            let mut gv = unsafe { _mm256_loadu_ps(p) };
            if relu {
                // `max(y, 0) > 0` ⇔ `y > 0`; ordered, so a NaN `y` masks.
                let keep = _mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_fmadd_ps(ga, hat, b), zero);
                gv = _mm256_and_ps(gv, keep);
                // SAFETY: as above.
                unsafe { _mm256_storeu_ps(p, gv) };
            }
            let g_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(gv));
            let g_hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(gv));
            s = _mm256_add_pd(s, g_lo);
            s = _mm256_add_pd(s, g_hi);
            // An f32·f32 product is exact in f64, so the contraction rounds
            // exactly where a separate multiply and add would.
            d = _mm256_fmadd_pd(g_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(hat)), d);
            d = _mm256_fmadd_pd(g_hi, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(hat)), d);
        }
        let mut sums = (hsum_pd(s), hsum_pd(d));
        for (g, &v) in g[vec_end..].iter_mut().zip(&x[vec_end..]) {
            let hat = (v - mean) * inv_std;
            if relu {
                let keep = u32::from(gamma.mul_add(hat, beta) > 0.0).wrapping_neg();
                *g = f32::from_bits(g.to_bits() & keep);
            }
            sums.0 += f64::from(*g);
            sums.1 += f64::from(*g) * f64::from(hat);
        }
        sums
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub fn add_assign(dst: &mut [f32], src: &[f32]) {
        let n = src.len();
        let vec_end = n - n % 8;
        for i in (0..vec_end).step_by(8) {
            // SAFETY: i + 8 <= vec_end <= len of both slices.
            unsafe {
                let p = dst.as_mut_ptr().add(i);
                let s = _mm256_loadu_ps(src.as_ptr().add(i));
                _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), s));
            }
        }
        for (d, &v) in dst[vec_end..].iter_mut().zip(&src[vec_end..]) {
            *d += v;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub fn add_scalar(dst: &mut [f32], value: f32) {
        let b = _mm256_set1_ps(value);
        let n = dst.len();
        let vec_end = n - n % 8;
        for i in (0..vec_end).step_by(8) {
            // SAFETY: i + 8 <= vec_end <= dst.len().
            unsafe {
                let p = dst.as_mut_ptr().add(i);
                _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), b));
            }
        }
        for v in &mut dst[vec_end..] {
            *v += value;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub fn affine(src: &[f32], dst: &mut [f32], scale: f32, shift: f32, fuse_relu: bool) {
        let s = _mm256_set1_ps(scale);
        let b = _mm256_set1_ps(shift);
        let zero = _mm256_setzero_ps();
        let n = src.len();
        let vec_end = n - n % 8;
        for i in (0..vec_end).step_by(8) {
            // SAFETY: i + 8 <= vec_end <= len of both slices.
            unsafe {
                let v = _mm256_loadu_ps(src.as_ptr().add(i));
                let mut r = _mm256_fmadd_ps(s, v, b);
                if fuse_relu {
                    r = _mm256_max_ps(r, zero);
                }
                _mm256_storeu_ps(dst.as_mut_ptr().add(i), r);
            }
        }
        for (d, &v) in dst[vec_end..].iter_mut().zip(&src[vec_end..]) {
            let r = scale.mul_add(v, shift);
            *d = if fuse_relu { clip(r) } else { r };
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub fn affine_inplace(dst: &mut [f32], scale: f32, shift: f32, fuse_relu: bool) {
        let s = _mm256_set1_ps(scale);
        let b = _mm256_set1_ps(shift);
        let zero = _mm256_setzero_ps();
        let n = dst.len();
        let vec_end = n - n % 8;
        for i in (0..vec_end).step_by(8) {
            // SAFETY: i + 8 <= vec_end <= dst.len().
            unsafe {
                let p = dst.as_mut_ptr().add(i);
                let mut r = _mm256_fmadd_ps(s, _mm256_loadu_ps(p), b);
                if fuse_relu {
                    r = _mm256_max_ps(r, zero);
                }
                _mm256_storeu_ps(p, r);
            }
        }
        for v in &mut dst[vec_end..] {
            let r = scale.mul_add(*v, shift);
            *v = if fuse_relu { clip(r) } else { r };
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub fn normalize_plane(
        src: &[f32],
        mut hat: Option<&mut [f32]>,
        y: &mut [f32],
        mean: f32,
        inv_std: f32,
        gamma: f32,
        beta: f32,
        fuse_relu: bool,
    ) {
        let m = _mm256_set1_ps(mean);
        let is = _mm256_set1_ps(inv_std);
        let g = _mm256_set1_ps(gamma);
        let b = _mm256_set1_ps(beta);
        let zero = _mm256_setzero_ps();
        let n = src.len();
        let vec_end = n - n % 8;
        for i in (0..vec_end).step_by(8) {
            // SAFETY: i + 8 <= vec_end <= len of all three slices (equal
            // lengths are asserted by the dispatcher).
            unsafe {
                let v = _mm256_loadu_ps(src.as_ptr().add(i));
                let h = _mm256_mul_ps(_mm256_sub_ps(v, m), is);
                let mut o = _mm256_fmadd_ps(g, h, b);
                if fuse_relu {
                    o = _mm256_max_ps(o, zero);
                }
                if let Some(hat) = hat.as_deref_mut() {
                    _mm256_storeu_ps(hat.as_mut_ptr().add(i), h);
                }
                _mm256_storeu_ps(y.as_mut_ptr().add(i), o);
            }
        }
        for (i, (o, &v)) in y[vec_end..].iter_mut().zip(&src[vec_end..]).enumerate() {
            let h = (v - mean) * inv_std;
            if let Some(hat) = hat.as_deref_mut() {
                hat[vec_end + i] = h;
            }
            let r = gamma.mul_add(h, beta);
            *o = if fuse_relu { clip(r) } else { r };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::test_isas;
    use bnff_tensor::simd::{sum_dot_f64, with_isa};

    fn active_vector_isa() -> SimdIsa {
        with_isa(SimdIsa::Avx2Fma, bnff_tensor::simd::active_isa)
    }

    fn data(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 53 % 31) as f32 - 15.0) * 0.37).collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn relu_and_adds_are_bit_identical_across_isas() {
        let isa = active_vector_isa();
        for n in [0usize, 1, 7, 8, 9, 63, 100] {
            let src = data(n);
            let mut a = vec![0.0; n];
            let mut b = vec![0.0; n];
            relu_into(SimdIsa::Scalar, &src, &mut a);
            relu_into(isa, &src, &mut b);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            let mut c = src.clone();
            let mut d = src.clone();
            add_assign(SimdIsa::Scalar, &mut c, &a);
            add_assign(isa, &mut d, &a);
            assert_eq!(c, d);
            add_scalar(SimdIsa::Scalar, &mut c, 0.75);
            add_scalar(isa, &mut d, 0.75);
            assert_eq!(c, d);
            let mut e = src.clone();
            relu_inplace(isa, &mut e);
            assert_eq!(e, b);
        }
    }

    #[test]
    fn relu_clips_nan_to_zero_on_both_isas() {
        let isa = active_vector_isa();
        let src = vec![f32::NAN; 9];
        for path in [SimdIsa::Scalar, isa] {
            let mut out = vec![7.0; 9];
            relu_into(path, &src, &mut out);
            assert!(out.iter().all(|&v| v == 0.0), "{path}: {out:?}");
        }
    }

    #[test]
    fn affine_matches_scalar_within_fma_tolerance() {
        let isa = active_vector_isa();
        for n in [1usize, 8, 13, 64, 100] {
            let src = data(n);
            for fuse in [false, true] {
                let mut a = vec![0.0; n];
                let mut b = vec![0.0; n];
                affine(SimdIsa::Scalar, &src, &mut a, 1.3, -0.4, fuse);
                affine(isa, &src, &mut b, 1.3, -0.4, fuse);
                for (x, y) in a.iter().zip(&b) {
                    assert!((x - y).abs() <= 1e-5, "{x} vs {y}");
                }
                let mut c = src.clone();
                affine_inplace(isa, &mut c, 1.3, -0.4, fuse);
                assert_eq!(b, c, "in-place must match out-of-place on one ISA");
            }
        }
    }

    #[test]
    fn normalize_hat_stream_is_bit_identical_across_isas() {
        let isa = active_vector_isa();
        let n = 77;
        let src = data(n);
        let (mut h1, mut y1) = (vec![0.0; n], vec![0.0; n]);
        let (mut h2, mut y2) = (vec![0.0; n], vec![0.0; n]);
        normalize_plane(SimdIsa::Scalar, &src, Some(&mut h1), &mut y1, 0.3, 1.7, 0.9, -0.2, false);
        normalize_plane(isa, &src, Some(&mut h2), &mut y2, 0.3, 1.7, 0.9, -0.2, false);
        // x̂ uses only sub+mul — exact elementwise ops — on both paths.
        assert_eq!(
            h1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            h2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() <= 1e-5, "{a} vs {b}");
        }
        // Dropping the x̂ store changes nothing about `y`, on either ISA.
        for (path, y_ref) in [(SimdIsa::Scalar, &y1), (isa, &y2)] {
            for fuse in [false, true] {
                let (mut h, mut with_hat, mut without) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                normalize_plane(path, &src, Some(&mut h), &mut with_hat, 0.3, 1.7, 0.9, -0.2, fuse);
                normalize_plane(path, &src, None, &mut without, 0.3, 1.7, 0.9, -0.2, fuse);
                assert_eq!(bits(&with_hat), bits(&without), "{path} relu={fuse}");
                if !fuse {
                    assert_eq!(bits(&with_hat), bits(y_ref));
                }
            }
        }
    }

    #[test]
    fn relu_mask_and_bn_dx_are_bit_identical_across_isas() {
        let isa = active_vector_isa();
        for n in [0usize, 1, 7, 8, 9, 63, 100] {
            let g0 = data(n);
            // A mask with NaN, ±0.0 and both signs.
            let specials = [f32::NAN, 0.0, -0.0, 1.5, -2.0, f32::INFINITY, f32::NEG_INFINITY];
            let y: Vec<f32> = (0..n).map(|i| specials[i % specials.len()]).collect();
            let (mut a, mut b) = (g0.clone(), g0.clone());
            relu_mask(SimdIsa::Scalar, &mut a, &y);
            relu_mask(isa, &mut b, &y);
            assert_eq!(bits(&a), bits(&b), "mask n={n}");
            for ((&kept, &g), &v) in a.iter().zip(&g0).zip(&y) {
                let want = if v > 0.0 { g } else { 0.0 };
                assert_eq!(kept.to_bits(), want.to_bits(), "mask {v}");
            }
            let x: Vec<f32> = data(n).iter().map(|v| v * 1.3 + 0.4).collect();
            let (mut a, mut b) = (g0.clone(), g0.clone());
            bn_dx_plane(SimdIsa::Scalar, &mut a, &x, 0.3, 1.7, 0.81, 0.013, -0.27);
            bn_dx_plane(isa, &mut b, &x, 0.3, 1.7, 0.81, 0.013, -0.27);
            assert_eq!(bits(&a), bits(&b), "bn_dx n={n}");
            // A stored x̂ passes through `(v − 0)·1` unchanged.
            let hat: Vec<f32> = x.iter().map(|v| (v - 0.3) * 1.7).collect();
            let mut c = g0.clone();
            bn_dx_plane(isa, &mut c, &hat, 0.0, 1.0, 0.81, 0.013, -0.27);
            assert_eq!(bits(&a), bits(&c), "stored x̂ n={n}");
        }
    }

    /// The one-pass epilogue is [`normalize_plane`] → [`relu_mask`] →
    /// `sum_dot_f64` bit for bit, `g` and sums, on every tier: planes
    /// shorter than, equal to and past one vector, with and without the
    /// clip, `γ < 0` and `β = ±0.0` with some `x` exactly at the mean (so
    /// `y = −0.0` or `+0.0` there, both masked), and NaN activations (a
    /// masked lane under the ordered compare; the Σg·x̂ it feeds is NaN).
    #[test]
    fn norm_grad_plane_is_the_three_kernels_in_one_pass() {
        let (mean, inv_std) = (0.3f32, 1.7f32);
        for isa in test_isas() {
            for n in [1usize, 7, 8, 9, 63, 64, 65, 1024] {
                for nan in [false, true] {
                    let x: Vec<f32> = data(n)
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| match i % 11 {
                            3 if nan => f32::NAN,
                            1 | 6 => mean,
                            _ => v * 0.4 + 0.2,
                        })
                        .collect();
                    let g0: Vec<f32> = data(n + 5)[5..].to_vec();
                    let params = [(0.9f32, -0.2f32), (-0.7, -0.0), (-0.7, 0.0), (1.1, 0.0)];
                    for (gamma, beta) in params {
                        for relu in [false, true] {
                            let label = format!("{isa} n={n} γ={gamma} β={beta} relu={relu}");
                            let (mut hat, mut y) = (vec![0.0; n], vec![0.0; n]);
                            normalize_plane(
                                isa,
                                &x,
                                Some(&mut hat),
                                &mut y,
                                mean,
                                inv_std,
                                gamma,
                                beta,
                                relu,
                            );
                            let mut want = g0.clone();
                            if relu {
                                relu_mask(isa, &mut want, &y);
                            }
                            let mut want_sums = (0.25f64, -1.5f64);
                            sum_dot_f64(isa, &want, &hat, &mut want_sums.0, &mut want_sums.1);
                            let mut got = g0.clone();
                            let mut got_sums = (0.25f64, -1.5f64);
                            norm_grad_plane(
                                isa,
                                &mut got,
                                &x,
                                mean,
                                inv_std,
                                gamma,
                                beta,
                                relu,
                                &mut got_sums,
                            );
                            assert_eq!(bits(&got), bits(&want), "g {label}");
                            assert_eq!(got_sums.0.to_bits(), want_sums.0.to_bits(), "Σg {label}");
                            assert_eq!(got_sums.1.to_bits(), want_sums.1.to_bits(), "Σg·x̂ {label}");
                        }
                    }
                }
            }
        }
    }

    /// The scalar twin continues the running sums element by element, so a
    /// channel split into planes of 3, 5 and 64 values folds exactly as one
    /// element-by-element loop over the whole channel.
    #[test]
    fn scalar_norm_grad_plane_continues_one_fold() {
        let (mean, inv_std, gamma, beta) = (0.3f32, 1.7f32, -0.7f32, 0.15f32);
        let x: Vec<f32> = data(72).iter().map(|v| v * 0.4 + 0.2).collect();
        let g0 = data(77)[5..].to_vec();
        let mut want = g0.clone();
        let mut want_sums = (0.0f64, 0.0f64);
        for (g, &v) in want.iter_mut().zip(&x) {
            let hat = (v - mean) * inv_std;
            if gamma * hat + beta <= 0.0 {
                *g = 0.0;
            }
            want_sums.0 += f64::from(*g);
            want_sums.1 += f64::from(*g) * f64::from(hat);
        }
        let mut got = g0;
        let mut got_sums = (0.0f64, 0.0f64);
        let (mut g_rest, mut x_rest) = (&mut got[..], &x[..]);
        for len in [3usize, 5, 64] {
            let (g_plane, g_next) = g_rest.split_at_mut(len);
            let (x_plane, x_next) = x_rest.split_at(len);
            norm_grad_plane(
                SimdIsa::Scalar,
                g_plane,
                x_plane,
                mean,
                inv_std,
                gamma,
                beta,
                true,
                &mut got_sums,
            );
            (g_rest, x_rest) = (g_next, x_next);
        }
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got_sums.0.to_bits(), want_sums.0.to_bits());
        assert_eq!(got_sums.1.to_bits(), want_sums.1.to_bits());
    }
}
