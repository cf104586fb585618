//! Spatial pooling layers: max, average and global average pooling.
//!
//! Average pooling over disjoint windows that all fit (`stride == kernel`,
//! no padding: the DenseNet transitions' 2×2/2) runs without the general
//! per-output window loop. The forward computes each output row from its
//! `kernel` input rows with no bounds test and one divisor — at `k = 2` both
//! vector tiers run one AVX2 body that splits the even and odd lanes of the
//! two input rows — and the backward writes every input-gradient element
//! once. Both
//! perform the general loop's floating-point operations in its order, so
//! every result keeps its bits (±0.0, NaN and ±∞ included) on every ISA;
//! padded or overlapping windows keep the general loop.

use crate::batchnorm::min_planes_per_thread;
use crate::error::KernelError;
use crate::im2col::conv_out_dim;
use crate::Result;
use bnff_graph::op::PoolAttrs;
use bnff_parallel::{parallel_rows_mut, parallel_rows_mut2};
use bnff_tensor::simd::{active_isa, SimdIsa};
use bnff_tensor::{Shape, Tensor};

/// What the max-pooling backward pass needs from the forward pass: the
/// output shape plus the argmax indices (linear indices into each input
/// channel plane). The pooled output itself is *not* retained, so the
/// executor's liveness plan can release it at its last forward use.
#[derive(Debug, Clone)]
pub struct MaxPoolState {
    /// Shape of the pooled output.
    pub output_shape: Shape,
    /// For every output element, the linear index (within its input plane)
    /// of the maximum that produced it.
    pub argmax: Vec<usize>,
}

fn pooled_shape(x: &Tensor, attrs: &PoolAttrs) -> Result<(usize, usize)> {
    x.shape().expect_nchw()?;
    let oh = conv_out_dim(x.shape().h(), attrs.kernel, attrs.stride, attrs.pad)?;
    let ow = conv_out_dim(x.shape().w(), attrs.kernel, attrs.stride, attrs.pad)?;
    Ok((oh, ow))
}

/// Max-pooling forward pass, returning the pooled output and the backward
/// state.
///
/// # Errors
/// Returns an error if the input is not 4-D or the window does not fit.
pub fn max_pool_forward(x: &Tensor, attrs: &PoolAttrs) -> Result<(Tensor, MaxPoolState)> {
    let (oh, ow) = pooled_shape(x, attrs)?;
    let mut output = Tensor::zeros(Shape::nchw(x.shape().n(), x.shape().c(), oh, ow));
    let state = max_pool_forward_argmax_into(x, attrs, &mut output)?;
    Ok((output, state))
}

/// [`max_pool_forward`] into a caller-provided output tensor, returning the
/// backward state. Every element of `out` is overwritten.
///
/// # Errors
/// Returns an error if the input is not 4-D, the window does not fit, or
/// `out` has the wrong shape.
pub fn max_pool_forward_argmax_into(
    x: &Tensor,
    attrs: &PoolAttrs,
    out: &mut Tensor,
) -> Result<MaxPoolState> {
    let (oh, ow) = pooled_shape(x, attrs)?;
    let (n, c, h, w) = (x.shape().n(), x.shape().c(), x.shape().h(), x.shape().w());
    check_pooled_output(out, &Shape::nchw(n, c, oh, ow))?;
    let mut argmax = vec![0usize; n * c * oh * ow];
    // One task per `(sample, channel)` plane; output values and argmax
    // indices for a plane occupy matching contiguous runs.
    let plane_out = oh * ow;
    let min_planes = min_planes_per_thread(plane_out * attrs.kernel * attrs.kernel);
    parallel_rows_mut2(
        out.as_mut_slice(),
        plane_out,
        &mut argmax,
        plane_out,
        min_planes,
        |first_plane, out_block, arg_block| {
            for (p_local, (out_plane, arg_plane)) in
                out_block.chunks_mut(plane_out).zip(arg_block.chunks_mut(plane_out)).enumerate()
            {
                let p = first_plane + p_local;
                let plane = x.channel_plane(p / c, p % c);
                for po in 0..oh {
                    for qo in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for kh in 0..attrs.kernel {
                            let ih = (po * attrs.stride + kh) as isize - attrs.pad as isize;
                            if ih < 0 || ih as usize >= h {
                                continue;
                            }
                            for kw in 0..attrs.kernel {
                                let iw = (qo * attrs.stride + kw) as isize - attrs.pad as isize;
                                if iw < 0 || iw as usize >= w {
                                    continue;
                                }
                                let idx = ih as usize * w + iw as usize;
                                if plane[idx] > best {
                                    best = plane[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        out_plane[po * ow + qo] = best;
                        arg_plane[po * ow + qo] = best_idx;
                    }
                }
            }
        },
    );
    Ok(MaxPoolState { output_shape: out.shape().clone(), argmax })
}

/// Checks a caller-provided pooling output against the shape the input
/// pools to.
fn check_pooled_output(out: &Tensor, expected: &Shape) -> Result<()> {
    if out.shape() != expected {
        return Err(KernelError::ShapeMismatch(format!(
            "pool output tensor is {}, input pools to {expected}",
            out.shape()
        )));
    }
    Ok(())
}

/// Inference-only max-pooling forward pass into a caller-provided output
/// tensor: no argmax state is materialized (frozen graphs never run a
/// backward pass). Every element of `out` is overwritten.
///
/// # Errors
/// Returns an error if the input is not 4-D, the window does not fit, or
/// `out` has the wrong shape.
pub fn max_pool_forward_into(x: &Tensor, attrs: &PoolAttrs, out: &mut Tensor) -> Result<()> {
    let (oh, ow) = pooled_shape(x, attrs)?;
    let (c, h, w) = (x.shape().c(), x.shape().h(), x.shape().w());
    check_pooled_output(out, &Shape::nchw(x.shape().n(), c, oh, ow))?;
    let plane_out = oh * ow;
    let min_planes = min_planes_per_thread(plane_out * attrs.kernel * attrs.kernel);
    parallel_rows_mut(out.as_mut_slice(), plane_out.max(1), min_planes, |first_plane, block| {
        for (p_local, out_plane) in block.chunks_mut(plane_out.max(1)).enumerate() {
            let p = first_plane + p_local;
            let plane = x.channel_plane(p / c, p % c);
            for po in 0..oh {
                for qo in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for kh in 0..attrs.kernel {
                        let ih = (po * attrs.stride + kh) as isize - attrs.pad as isize;
                        if ih < 0 || ih as usize >= h {
                            continue;
                        }
                        for kw in 0..attrs.kernel {
                            let iw = (qo * attrs.stride + kw) as isize - attrs.pad as isize;
                            if iw < 0 || iw as usize >= w {
                                continue;
                            }
                            let idx = ih as usize * w + iw as usize;
                            if plane[idx] > best {
                                best = plane[idx];
                            }
                        }
                    }
                    out_plane[po * ow + qo] = best;
                }
            }
        }
    });
    Ok(())
}

/// Max-pooling backward pass: routes each output gradient to the input
/// position that won the max.
///
/// # Errors
/// Returns an error if the shapes are inconsistent with the forward state.
pub fn max_pool_backward(
    d_y: &Tensor,
    state: &MaxPoolState,
    input_shape: &Shape,
) -> Result<Tensor> {
    let mut d_x = Tensor::zeros(input_shape.clone());
    max_pool_backward_into(d_y, state, &mut d_x)?;
    Ok(d_x)
}

/// [`max_pool_backward`] into a caller-provided gradient tensor of the
/// pooling input's shape. Every element of `d_x` is overwritten.
///
/// # Errors
/// Returns an error if the shapes are inconsistent with the forward state.
pub fn max_pool_backward_into(d_y: &Tensor, state: &MaxPoolState, d_x: &mut Tensor) -> Result<()> {
    d_y.shape().expect_same(&state.output_shape).map_err(KernelError::Tensor)?;
    let (c, plane_in) = check_pool_gradient(d_y, d_x)?;
    let plane_out = d_y.shape().h() * d_y.shape().w();
    parallel_rows_mut(
        d_x.as_mut_slice(),
        plane_in.max(1),
        min_planes_per_thread(plane_out),
        |first_plane, block| {
            for (p_local, plane) in block.chunks_mut(plane_in.max(1)).enumerate() {
                let p = first_plane + p_local;
                let grads = d_y.channel_plane(p / c, p % c);
                let args = &state.argmax[p * plane_out..(p + 1) * plane_out];
                plane.fill(0.0);
                for (&arg, &g) in args.iter().zip(grads.iter()) {
                    plane[arg] += g;
                }
            }
        },
    );
    Ok(())
}

/// Checks that `d_x` can hold the input gradient of a pooling whose output
/// gradient is `d_y` (same batch and channels), returning the channel count
/// and the input plane length.
fn check_pool_gradient(d_y: &Tensor, d_x: &Tensor) -> Result<(usize, usize)> {
    d_y.shape().expect_nchw()?;
    d_x.shape().expect_nchw()?;
    let (dy, dx) = (d_y.shape(), d_x.shape());
    if dy.n() != dx.n() || dy.c() != dx.c() {
        return Err(KernelError::ShapeMismatch(format!(
            "pooling gradient {dy} does not match the input gradient {dx}"
        )));
    }
    Ok((dx.c(), dx.h() * dx.w()))
}

/// Average-pooling forward pass (count includes padding positions excluded,
/// i.e. the divisor is the number of valid input positions in the window).
///
/// # Errors
/// Returns an error if the input is not 4-D or the window does not fit.
pub fn avg_pool_forward(x: &Tensor, attrs: &PoolAttrs) -> Result<Tensor> {
    let (oh, ow) = pooled_shape(x, attrs)?;
    let (n, c) = (x.shape().n(), x.shape().c());
    let mut output = Tensor::zeros(Shape::nchw(n, c, oh, ow));
    avg_pool_forward_into(x, attrs, &mut output)?;
    Ok(output)
}

/// [`avg_pool_forward`] into a caller-provided output tensor. Every element
/// of `out` is overwritten. Disjoint windows that all fit (`stride ==
/// kernel`, no padding) take a path without the per-output window loop
/// (module docs), with the same bits; every other window shape takes the
/// general loop.
///
/// # Errors
/// Returns an error if the shapes (including `out`'s) are inconsistent.
pub fn avg_pool_forward_into(x: &Tensor, attrs: &PoolAttrs, out: &mut Tensor) -> Result<()> {
    let (oh, ow) = pooled_shape(x, attrs)?;
    let (n, c, h, w) = (x.shape().n(), x.shape().c(), x.shape().h(), x.shape().w());
    check_pooled_output(out, &Shape::nchw(n, c, oh, ow))?;
    let plane_out = oh * ow;
    let min_planes = min_planes_per_thread(plane_out * attrs.kernel * attrs.kernel);
    // Resolved on the caller's thread: pool workers don't inherit a scoped
    // `with_isa` override.
    let isa = active_isa();
    parallel_rows_mut(out.as_mut_slice(), plane_out, min_planes, |first_plane, block| {
        for (p_local, out_plane) in block.chunks_mut(plane_out).enumerate() {
            let p = first_plane + p_local;
            let plane = x.channel_plane(p / c, p % c);
            if disjoint(attrs) {
                avg_pool_disjoint(isa, attrs.kernel, plane, w, out_plane, ow);
            } else {
                avg_pool_windows(plane, (h, w), attrs, out_plane, (oh, ow));
            }
        }
    });
    Ok(())
}

/// Whether `attrs` tiles a plane with disjoint windows that all fit — the
/// DenseNet transitions' 2×2/2 pooling.
fn disjoint(attrs: &PoolAttrs) -> bool {
    attrs.stride == attrs.kernel && attrs.pad == 0
}

/// The general average-pooling loop over one plane, for any window: each
/// output is `0.0`, plus the window's valid positions in `(kh, kw)` order,
/// divided by their count (`0.0` for a window with none).
fn avg_pool_windows(
    plane: &[f32],
    (h, w): (usize, usize),
    attrs: &PoolAttrs,
    out_plane: &mut [f32],
    (oh, ow): (usize, usize),
) {
    for po in 0..oh {
        for qo in 0..ow {
            let mut acc = 0.0f32;
            let mut count = 0usize;
            for kh in 0..attrs.kernel {
                let ih = (po * attrs.stride + kh) as isize - attrs.pad as isize;
                if ih < 0 || ih as usize >= h {
                    continue;
                }
                for kw in 0..attrs.kernel {
                    let iw = (qo * attrs.stride + kw) as isize - attrs.pad as isize;
                    if iw < 0 || iw as usize >= w {
                        continue;
                    }
                    acc += plane[ih as usize * w + iw as usize];
                    count += 1;
                }
            }
            out_plane[po * ow + qo] = if count > 0 { acc / count as f32 } else { 0.0 };
        }
    }
}

/// [`avg_pool_windows`] for disjoint `k × k` windows that all fit, one
/// output row per `k` input rows of width `w`, with no bounds test and one
/// divisor: each output is `0.0`, plus its window in `(kh, kw)` order,
/// divided by `(k·k) as f32` — the general loop's operations in its order,
/// so every result (±0.0, NaN and ±∞ included) has its bits. At `k = 2`
/// the vector tiers take the even and odd lanes of the two input rows.
fn avg_pool_disjoint(
    isa: SimdIsa,
    k: usize,
    plane: &[f32],
    w: usize,
    out_plane: &mut [f32],
    ow: usize,
) {
    let scale = (k * k) as f32;
    for (out_row, rows) in out_plane.chunks_exact_mut(ow.max(1)).zip(plane.chunks_exact(k * w)) {
        let done = match isa {
            // SAFETY: both vector tiers imply runtime-verified avx2+fma
            // support, and each of the two input rows holds `w ≥ 2·ow`
            // values (`ow = ⌊w / 2⌋` at `k = 2`).
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdIsa::Avx2Fma | SimdIsa::Avx512 if k == 2 => unsafe {
                avx2::pool2_row(rows.split_at(w), out_row)
            },
            _ => 0,
        };
        for (qo, o) in out_row.iter_mut().enumerate().skip(done) {
            let mut acc = 0.0f32;
            for row in rows.chunks_exact(w) {
                for &v in &row[qo * k..][..k] {
                    acc += v;
                }
            }
            *o = acc / scale;
        }
    }
}

/// Average-pooling backward pass.
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn avg_pool_backward(d_y: &Tensor, input_shape: &Shape, attrs: &PoolAttrs) -> Result<Tensor> {
    let mut d_x = Tensor::zeros(input_shape.clone());
    avg_pool_backward_into(d_y, attrs, &mut d_x)?;
    Ok(d_x)
}

/// [`avg_pool_backward`] into a caller-provided gradient tensor of the
/// pooling input's shape. Every element of `d_x` is overwritten: each plane
/// is zeroed, then every window adds `share = g / count` to its valid
/// positions in window order (`count` being the number of valid positions,
/// as in the forward pass). Disjoint windows that all fit write each element
/// once instead, with the same values.
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn avg_pool_backward_into(d_y: &Tensor, attrs: &PoolAttrs, d_x: &mut Tensor) -> Result<()> {
    let (c, plane_in) = check_pool_gradient(d_y, d_x)?;
    let (h, w) = (d_x.shape().h(), d_x.shape().w());
    let (oh, ow) = (d_y.shape().h(), d_y.shape().w());
    if pooled_shape(d_x, attrs)? != (oh, ow) {
        return Err(KernelError::ShapeMismatch(format!(
            "pooling gradient is {}, input {} pools to {oh}x{ow}",
            d_y.shape(),
            d_x.shape()
        )));
    }
    let min_planes = min_planes_per_thread(oh * ow * attrs.kernel * attrs.kernel);
    let isa = active_isa();
    parallel_rows_mut(d_x.as_mut_slice(), plane_in.max(1), min_planes, |first_plane, block| {
        for (p_local, plane) in block.chunks_mut(plane_in.max(1)).enumerate() {
            let p = first_plane + p_local;
            let grads = d_y.channel_plane(p / c, p % c);
            if disjoint(attrs) {
                avg_pool_backward_disjoint(isa, attrs.kernel, grads, ow, plane, w);
            } else {
                avg_pool_backward_windows(grads, (oh, ow), attrs, plane, (h, w));
            }
        }
    });
    Ok(())
}

/// The general average-pooling backward over one plane, for any window:
/// the plane is zeroed, then every window adds `g / count` to its valid
/// positions.
fn avg_pool_backward_windows(
    grads: &[f32],
    (oh, ow): (usize, usize),
    attrs: &PoolAttrs,
    plane: &mut [f32],
    (h, w): (usize, usize),
) {
    let (kernel, stride, pad) = (attrs.kernel, attrs.stride, attrs.pad);
    // The kernel taps of output index `o` that land inside an axis of `len`.
    let taps = |o: usize, len: usize| {
        let start = o * stride;
        let lo = pad.saturating_sub(start);
        lo..(len + pad).saturating_sub(start).min(kernel).max(lo)
    };
    plane.fill(0.0);
    for po in 0..oh {
        let rows = taps(po, h);
        for qo in 0..ow {
            let cols = taps(qo, w);
            let count = rows.len() * cols.len();
            if count == 0 {
                continue;
            }
            let share = grads[po * ow + qo] / count as f32;
            for kh in rows.clone() {
                let row = &mut plane[(po * stride + kh - pad) * w..][..w];
                for v in &mut row[qo * stride + cols.start - pad..][..cols.len()] {
                    *v += share;
                }
            }
        }
    }
}

/// [`avg_pool_backward_windows`] for disjoint `k × k` windows that all fit:
/// every covered element is written once with `0.0 + g / (k·k)` — the value
/// zeroing then adding gives, `+0.0` for a `−0.0` share — and only the rows
/// and columns no window covers (odd `H` or `W` at `k = 2`) are zeroed.
fn avg_pool_backward_disjoint(
    isa: SimdIsa,
    k: usize,
    grads: &[f32],
    ow: usize,
    plane: &mut [f32],
    w: usize,
) {
    let scale = (k * k) as f32;
    let covered = grads.len() / ow.max(1) * k * w;
    let (rows, uncovered) = plane.split_at_mut(covered);
    for (g_row, rows) in grads.chunks_exact(ow.max(1)).zip(rows.chunks_exact_mut(k * w)) {
        for row in rows.chunks_exact_mut(w) {
            let done = match isa {
                // SAFETY: both vector tiers imply runtime-verified avx2+fma
                // support, and the row holds `w ≥ 2·ow` values.
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                SimdIsa::Avx2Fma | SimdIsa::Avx512 if k == 2 => unsafe {
                    avx2::unpool2_row(g_row, row)
                },
                _ => 0,
            };
            for (window, &g) in row.chunks_exact_mut(k).zip(g_row).skip(done) {
                window.fill(0.0 + g / scale);
            }
            row[ow * k..].fill(0.0);
        }
    }
    uncovered.fill(0.0);
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// One 2×2/2 output row, eight outputs at a time, from the input rows
    /// `r0` and `r1`: each is `((((0 + r0[2q]) + r0[2q + 1]) + r1[2q]) +
    /// r1[2q + 1]) / 4`, with the even and odd lanes of sixteen input values
    /// split by two shuffles (which leave the 64-bit quarters in the order
    /// 0, 2, 1, 3 — put back by one permute of the result). Returns how
    /// many outputs are done; the caller finishes the rest.
    ///
    /// # Safety
    /// The CPU must support avx2 and fma, and both rows must hold at least
    /// `2·out.len()` values.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn pool2_row((r0, r1): (&[f32], &[f32]), out: &mut [f32]) -> usize {
        debug_assert!(r0.len() >= 2 * out.len() && r1.len() >= 2 * out.len());
        let (zero, four) = (_mm256_setzero_ps(), _mm256_set1_ps(4.0));
        let end = out.len() / 8 * 8;
        for q in (0..end).step_by(8) {
            // SAFETY: q + 8 <= out.len(), so the 16 values at 2q lie inside
            // both rows (the caller's contract), and the 8 at q inside `out`.
            unsafe {
                let (a, b) = (r0.as_ptr().add(2 * q), r1.as_ptr().add(2 * q));
                let (a0, a1) = (_mm256_loadu_ps(a), _mm256_loadu_ps(a.add(8)));
                let (b0, b1) = (_mm256_loadu_ps(b), _mm256_loadu_ps(b.add(8)));
                let mut acc = _mm256_add_ps(zero, _mm256_shuffle_ps::<0x88>(a0, a1));
                acc = _mm256_add_ps(acc, _mm256_shuffle_ps::<0xDD>(a0, a1));
                acc = _mm256_add_ps(acc, _mm256_shuffle_ps::<0x88>(b0, b1));
                acc = _mm256_add_ps(acc, _mm256_shuffle_ps::<0xDD>(b0, b1));
                let mean = _mm256_castps_pd(_mm256_div_ps(acc, four));
                let mean = _mm256_castpd_ps(_mm256_permute4x64_pd::<0xD8>(mean));
                _mm256_storeu_ps(out.as_mut_ptr().add(q), mean);
            }
        }
        end
    }

    /// The covered part of one input-gradient row under 2×2/2 windows,
    /// eight gradients at a time: `0 + g / 4` twice each, in order. Returns
    /// how many gradients are done; the caller finishes the rest.
    ///
    /// # Safety
    /// The CPU must support avx2 and fma, and `row` must hold at least
    /// `2·g.len()` values.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn unpool2_row(g: &[f32], row: &mut [f32]) -> usize {
        debug_assert!(row.len() >= 2 * g.len());
        let (zero, four) = (_mm256_setzero_ps(), _mm256_set1_ps(4.0));
        let end = g.len() / 8 * 8;
        for q in (0..end).step_by(8) {
            // SAFETY: q + 8 <= g.len(), and the 16 values at 2q lie inside
            // `row` by the caller's contract.
            unsafe {
                let share =
                    _mm256_add_ps(zero, _mm256_div_ps(_mm256_loadu_ps(g.as_ptr().add(q)), four));
                // Lanes [0, 0, 1, 1 | 4, 4, 5, 5] and [2, 2, 3, 3 | 6, 6, 7, 7].
                let (lo, hi) = (_mm256_unpacklo_ps(share, share), _mm256_unpackhi_ps(share, share));
                let dst = row.as_mut_ptr().add(2 * q);
                _mm256_storeu_ps(dst, _mm256_permute2f128_ps::<0x20>(lo, hi));
                _mm256_storeu_ps(dst.add(8), _mm256_permute2f128_ps::<0x31>(lo, hi));
            }
        }
        end
    }
}

/// Global average pooling forward: reduces every channel plane to a single
/// value, producing an `N × C × 1 × 1` tensor.
///
/// # Errors
/// Returns an error if the input is not 4-D.
pub fn global_avg_pool_forward(x: &Tensor) -> Result<Tensor> {
    x.shape().expect_nchw()?;
    let mut out = Tensor::zeros(Shape::nchw(x.shape().n(), x.shape().c(), 1, 1));
    global_avg_pool_forward_into(x, &mut out)?;
    Ok(out)
}

/// [`global_avg_pool_forward`] into a caller-provided `N × C × 1 × 1`
/// output tensor; every element of `out` is overwritten.
///
/// # Errors
/// Returns an error if the input is not 4-D or `out` has the wrong shape.
pub fn global_avg_pool_forward_into(x: &Tensor, out: &mut Tensor) -> Result<()> {
    x.shape().expect_nchw()?;
    let (n, c) = (x.shape().n(), x.shape().c());
    let expected = Shape::nchw(n, c, 1, 1);
    if out.shape() != &expected {
        return Err(KernelError::ShapeMismatch(format!(
            "output tensor is {}, global average pooling produces {expected}",
            out.shape()
        )));
    }
    let plane_len = (x.shape().h() * x.shape().w()) as f32;
    let min_planes = min_planes_per_thread(x.shape().h() * x.shape().w());
    parallel_rows_mut(out.as_mut_slice(), 1, min_planes, |first_plane, block| {
        for (p_local, slot) in block.iter_mut().enumerate() {
            let p = first_plane + p_local;
            let sum: f32 = x.channel_plane(p / c, p % c).iter().sum();
            *slot = sum / plane_len;
        }
    });
    Ok(())
}

/// Global average pooling backward.
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn global_avg_pool_backward(d_y: &Tensor, input_shape: &Shape) -> Result<Tensor> {
    let mut d_x = Tensor::zeros(input_shape.clone());
    global_avg_pool_backward_into(d_y, &mut d_x)?;
    Ok(d_x)
}

/// [`global_avg_pool_backward`] into a caller-provided gradient tensor of
/// the pooling input's shape. Every element of `d_x` is overwritten.
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn global_avg_pool_backward_into(d_y: &Tensor, d_x: &mut Tensor) -> Result<()> {
    let (c, plane_in) = check_pool_gradient(d_y, d_x)?;
    let plane_len = plane_in as f32;
    parallel_rows_mut(
        d_x.as_mut_slice(),
        plane_in.max(1),
        min_planes_per_thread(plane_in),
        |first_plane, block| {
            for (p_local, plane) in block.chunks_mut(plane_in.max(1)).enumerate() {
                let p = first_plane + p_local;
                plane.fill(d_y.at(p / c, p % c, 0, 0) / plane_len);
            }
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_tensor::simd::with_isa;

    #[test]
    fn max_pool_picks_maximum() {
        let x = Tensor::from_vec(
            Shape::nchw(1, 1, 4, 4),
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let (output, state) = max_pool_forward(&x, &PoolAttrs::new(2, 2, 0)).unwrap();
        assert_eq!(output.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
        assert_eq!(state.output_shape, Shape::nchw(1, 1, 2, 2));
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 5.0, 3.0, 2.0]).unwrap();
        let (_, state) = max_pool_forward(&x, &PoolAttrs::new(2, 2, 0)).unwrap();
        let d_y = Tensor::from_vec(Shape::nchw(1, 1, 1, 1), vec![7.0]).unwrap();
        let d_x = max_pool_backward(&d_y, &state, x.shape()).unwrap();
        assert_eq!(d_x.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_pool_matches_mean() {
        let x = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = avg_pool_forward(&x, &PoolAttrs::new(2, 2, 0)).unwrap();
        assert_eq!(y.as_slice(), &[2.5]);
        let d_y = Tensor::from_vec(Shape::nchw(1, 1, 1, 1), vec![4.0]).unwrap();
        let d_x = avg_pool_backward(&d_y, x.shape(), &PoolAttrs::new(2, 2, 0)).unwrap();
        assert_eq!(d_x.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn avg_pool_into_overwrites_recycled_buffers() {
        let x = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let attrs = PoolAttrs::new(2, 2, 0);
        let mut out = Tensor::filled(Shape::nchw(1, 1, 1, 1), f32::NAN);
        avg_pool_forward_into(&x, &attrs, &mut out).unwrap();
        assert_eq!(out.as_slice(), &[2.5]);
        let mut bad = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        assert!(avg_pool_forward_into(&x, &attrs, &mut bad).is_err());
    }

    /// The disjoint-window path against the general loop (called per plane),
    /// bit for bit, forward and backward, on every tier: 2×2/2 and 3×3/3 over
    /// even, odd and single-window planes (and 25 outputs a row: three
    /// vector steps and a scalar tail), inputs with ±0.0, NaN, ±∞ and
    /// subnormals, gradients with −0.0, into NaN-filled outputs — so every
    /// element, the uncovered odd row and column included, must be written.
    #[test]
    fn disjoint_windows_match_the_window_loop() {
        let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40, -3e-39];
        // A special every 17th value, so most windows sum four finite values
        // whose rounding depends on the order they are added in.
        let value = |i: usize, salt: usize| match (i + salt) % 17 {
            5 => specials[i / 17 % specials.len()],
            _ => ((i * 7919 + salt) % 1000) as f32 / 97.0 - 5.0,
        };
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for isa in crate::dispatch::test_isas() {
            for k in [2usize, 3] {
                for (h, w) in [(2usize, 2usize), (7, 9), (8, 8), (32, 32), (3, 50)] {
                    if k > h || k > w {
                        continue;
                    }
                    let label = format!("{isa} {k}x{k}/{k} over {h}x{w}");
                    let attrs = PoolAttrs::new(k, k, 0);
                    let shape = Shape::nchw(2, 3, h, w);
                    let x = Tensor::from_vec(
                        shape.clone(),
                        (0..shape.volume()).map(|i| value(i, 0)).collect(),
                    )
                    .unwrap();
                    let (oh, ow) = (h / k, w / k);
                    let mut y = Tensor::filled(Shape::nchw(2, 3, oh, ow), f32::NAN);
                    with_isa(isa, || avg_pool_forward_into(&x, &attrs, &mut y)).unwrap();
                    let mut want = vec![f32::NAN; oh * ow];
                    for (p, got) in y.as_slice().chunks_exact(oh * ow).enumerate() {
                        let plane = x.channel_plane(p / 3, p % 3);
                        avg_pool_windows(plane, (h, w), &attrs, &mut want, (oh, ow));
                        assert_eq!(bits(got), bits(&want), "forward {label} plane {p}");
                    }
                    let g = Tensor::from_vec(
                        y.shape().clone(),
                        (0..y.len()).map(|i| if i % 5 == 1 { -0.0 } else { value(i, 3) }).collect(),
                    )
                    .unwrap();
                    let mut d_x = Tensor::filled(shape.clone(), f32::NAN);
                    with_isa(isa, || avg_pool_backward_into(&g, &attrs, &mut d_x)).unwrap();
                    let mut want = vec![f32::NAN; h * w];
                    for (p, got) in d_x.as_slice().chunks_exact(h * w).enumerate() {
                        let grads = g.channel_plane(p / 3, p % 3);
                        avg_pool_backward_windows(grads, (oh, ow), &attrs, &mut want, (h, w));
                        assert_eq!(bits(got), bits(&want), "backward {label} plane {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let x = Tensor::from_vec(
            Shape::nchw(1, 2, 2, 2),
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
        )
        .unwrap();
        let y = global_avg_pool_forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[2.5, 25.0]);
        let d_y = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![4.0, 8.0]).unwrap();
        let d_x = global_avg_pool_backward(&d_y, x.shape()).unwrap();
        assert_eq!(d_x.channel_plane(0, 0), &[1.0; 4]);
        assert_eq!(d_x.channel_plane(0, 1), &[2.0; 4]);
    }

    #[test]
    fn padded_max_pool_shape() {
        let x = Tensor::ones(Shape::nchw(2, 3, 112, 112));
        let (output, state) = max_pool_forward(&x, &PoolAttrs::new(3, 2, 1)).unwrap();
        assert_eq!(output.shape(), &Shape::nchw(2, 3, 56, 56));
        assert_eq!(state.output_shape, Shape::nchw(2, 3, 56, 56));
    }

    #[test]
    fn non_nchw_is_rejected() {
        let x = Tensor::zeros(Shape::matrix(4, 4));
        assert!(max_pool_forward(&x, &PoolAttrs::new(2, 2, 0)).is_err());
        assert!(avg_pool_forward(&x, &PoolAttrs::new(2, 2, 0)).is_err());
        assert!(global_avg_pool_forward(&x).is_err());
    }

    #[test]
    fn max_pool_into_matches_stateful_forward() {
        use bnff_tensor::init::Initializer;
        let x = Initializer::seeded(31).uniform(Shape::nchw(2, 3, 7, 7), -2.0, 2.0);
        let attrs = PoolAttrs::new(3, 2, 1);
        let (reference, _state) = max_pool_forward(&x, &attrs).unwrap();
        let mut out = Tensor::filled(reference.shape().clone(), f32::NAN);
        max_pool_forward_into(&x, &attrs, &mut out).unwrap();
        assert_eq!(out.as_slice(), reference.as_slice());
        let mut bad = Tensor::zeros(Shape::nchw(1, 3, 4, 4));
        assert!(max_pool_forward_into(&x, &attrs, &mut bad).is_err());
    }
}
