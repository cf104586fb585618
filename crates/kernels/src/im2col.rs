//! The reference im2col lowering and the strided col2im adjoint.
//!
//! The reference CNN libraries in the paper (MKL-DNN, CUTLASS) execute
//! convolutions as matrix multiplies over an im2col-expanded input. The
//! production kernels in [`crate::conv`] never write that matrix — the
//! GEMM reads the windows of a (zero-bordered) staged sample where they lie
//! or gathers them while packing ([`crate::gemm::Im2colView`]) — so what
//! lives here is:
//!
//! * [`im2col`], the element-wise materializing lowering, the oracle both
//!   of those are tested bit-identical against. It pads by *clipping* —
//!   a bounds test per element — where the production path pads with a
//!   border, which is what makes it an independent check;
//! * [`col2im_accumulate`], its adjoint, which the input gradient of a
//!   *strided* convolution scatters a `d_col` through (stride-1
//!   convolutions compute their input gradient as a forward convolution
//!   with rotated weights instead); `taps_inside` resolves, once per row
//!   segment, which of its taps land inside the image;
//! * the output-extent helpers the convolution kernels and the GEMM's view
//!   check share.

use crate::error::KernelError;
use crate::Result;
use bnff_graph::op::Conv2dAttrs;
use bnff_parallel::{min_items_per_thread, parallel_rows_mut};
use bnff_tensor::{Shape, Tensor};
use std::ops::Range;

/// Computes the output spatial size of a convolution dimension.
pub(crate) fn conv_out_dim(dim: usize, kernel: usize, stride: usize, pad: usize) -> Result<usize> {
    let padded = dim + 2 * pad;
    if stride == 0 {
        return Err(KernelError::InvalidArgument("stride must be positive".to_string()));
    }
    if padded < kernel {
        return Err(KernelError::ShapeMismatch(format!(
            "kernel {kernel} does not fit input extent {dim} with pad {pad}"
        )));
    }
    Ok((padded - kernel) / stride + 1)
}

/// Output spatial extent `(Ho, Wo)` of a convolution over a 4-D input shape.
pub(crate) fn conv_out_hw(input: &Shape, attrs: &Conv2dAttrs) -> Result<(usize, usize)> {
    input.expect_nchw()?;
    let ho = conv_out_dim(input.h(), attrs.kernel_h, attrs.stride, attrs.pad)?;
    let wo = conv_out_dim(input.w(), attrs.kernel_w, attrs.stride, attrs.pad)?;
    Ok((ho, wo))
}

/// The shape a convolution produces for a 4-D input shape.
pub(crate) fn conv_out_shape(input: &Shape, attrs: &Conv2dAttrs) -> Result<Shape> {
    let (ho, wo) = conv_out_hw(input, attrs)?;
    Ok(Shape::nchw(input.n(), attrs.out_channels, ho, wo))
}

/// The taps `t` in `0..len` whose input position `start + t·stride` lies
/// inside `0..extent` (`start` is negative inside the leading padding).
/// They form one run, resolved here once per row segment, so the scatter
/// loop of [`col2im_accumulate`] tests no bounds per element. Empty when
/// padding clips the whole segment.
#[inline(always)]
fn taps_inside(start: isize, stride: usize, extent: usize, len: usize) -> Range<usize> {
    let ceil_div = |x: usize| if stride == 1 { x } else { x.div_ceil(stride) };
    let first = if start < 0 { ceil_div(start.unsigned_abs()) } else { 0 }.min(len);
    let end =
        if start < extent as isize { ceil_div((extent as isize - start) as usize) } else { 0 };
    first..end.clamp(first, len)
}

/// Expands one sample of an NCHW tensor into a `(C·Kh·Kw) × (Ho·Wo)` column
/// matrix (row-major).
///
/// # Errors
/// Returns an error if the input is not 4-D or the window does not fit.
pub fn im2col(input: &Tensor, sample: usize, attrs: &Conv2dAttrs) -> Result<Vec<f32>> {
    let shape = input.shape();
    let (ho, wo) = conv_out_hw(shape, attrs)?;
    let (c, h, w) = (shape.c(), shape.h(), shape.w());
    let rows = c * attrs.kernel_h * attrs.kernel_w;
    let cols = ho * wo;
    let mut out = vec![0.0f32; rows * cols];
    // One task per output row `(ci, kh, kw)`; rows are disjoint in `out`.
    let min_rows = min_items_per_thread(cols.saturating_mul(4));
    parallel_rows_mut(&mut out, cols, min_rows, |first_row, block| {
        for (row_local, row_slice) in block.chunks_mut(cols).enumerate() {
            let row = first_row + row_local;
            let kw_off = row % attrs.kernel_w;
            let kh_off = (row / attrs.kernel_w) % attrs.kernel_h;
            let ci = row / (attrs.kernel_w * attrs.kernel_h);
            let plane = input.channel_plane(sample, ci);
            for oh in 0..ho {
                let ih = (oh * attrs.stride + kh_off) as isize - attrs.pad as isize;
                for ow in 0..wo {
                    let iw = (ow * attrs.stride + kw_off) as isize - attrs.pad as isize;
                    let value = if ih >= 0 && iw >= 0 && (ih as usize) < h && (iw as usize) < w {
                        plane[ih as usize * w + iw as usize]
                    } else {
                        0.0
                    };
                    row_slice[oh * wo + ow] = value;
                }
            }
        }
    });
    Ok(out)
}

/// Accumulates a `(C·Kh·Kw) × (Ho·Wo)` column matrix back into one sample of
/// an NCHW tensor (the adjoint of [`im2col`], used for the gradient with
/// respect to the convolution input).
///
/// # Errors
/// Returns an error if the target is not 4-D or the dimensions disagree.
pub fn col2im_accumulate(
    cols_data: &[f32],
    target: &mut Tensor,
    sample: usize,
    attrs: &Conv2dAttrs,
) -> Result<()> {
    let shape = target.shape().clone();
    let (ho, wo) = conv_out_hw(&shape, attrs)?;
    let (c, h, w) = (shape.c(), shape.h(), shape.w());
    let rows = c * attrs.kernel_h * attrs.kernel_w;
    let cols = ho * wo;
    if cols_data.len() != rows * cols {
        return Err(KernelError::ShapeMismatch(format!(
            "column matrix has {} elements, expected {}",
            cols_data.len(),
            rows * cols
        )));
    }
    // All rows of channel `ci` scatter into that channel's plane only, so
    // the per-sample region splits cleanly into one task per channel.
    let plane_len = h * w;
    let start = shape.offset4(sample, 0, 0, 0);
    let sample_region = &mut target.as_mut_slice()[start..start + c * plane_len];
    let min_channels =
        min_items_per_thread((attrs.kernel_h * attrs.kernel_w * cols).saturating_mul(4));
    parallel_rows_mut(sample_region, plane_len, min_channels, |first_c, block| {
        for (ci_local, plane) in block.chunks_mut(plane_len).enumerate() {
            let ci = first_c + ci_local;
            for kh in 0..attrs.kernel_h {
                for kw in 0..attrs.kernel_w {
                    let row = (ci * attrs.kernel_h + kh) * attrs.kernel_w + kw;
                    // Per output row the columns that land inside the
                    // image are one run, resolved once; the scatter below
                    // tests no bounds per element.
                    let pad = attrs.pad as isize;
                    let valid = taps_inside(kw as isize - pad, attrs.stride, w, wo);
                    if valid.is_empty() {
                        continue;
                    }
                    let iw0 = valid.start * attrs.stride + kw - attrs.pad;
                    for oh in taps_inside(kh as isize - pad, attrs.stride, h, ho) {
                        let ih = oh * attrs.stride + kh - attrs.pad;
                        let src = &cols_data[row * cols + oh * wo..][valid.clone()];
                        let dst = plane[ih * w + iw0..].iter_mut().step_by(attrs.stride);
                        for (slot, v) in dst.zip(src) {
                            *slot += *v;
                        }
                    }
                }
            }
        }
    });
    Ok(())
}

/// Shape of the column matrix produced by [`im2col`] for the given input
/// shape and attributes: `(rows, cols)`.
///
/// # Errors
/// Returns an error if the input shape is not 4-D or the window does not fit.
pub fn col_shape(input: &Shape, attrs: &Conv2dAttrs) -> Result<(usize, usize)> {
    let (ho, wo) = conv_out_hw(input, attrs)?;
    Ok((input.c() * attrs.kernel_h * attrs.kernel_w, ho * wo))
}

/// The convolution geometries `(C_in, H, W, attrs)` the bordered views —
/// packed and read in place (`gemm` tests) — both gradient paths (`conv`
/// tests) and the fused prologues (`fused` tests) are checked over.
#[cfg(test)]
pub(crate) fn test_geometries() -> Vec<(usize, usize, usize, Conv2dAttrs)> {
    let conv = |out_channels, kernel_h, kernel_w, stride, pad| Conv2dAttrs {
        out_channels,
        kernel_h,
        kernel_w,
        stride,
        pad,
        bias: false,
    };
    vec![
        // 8×8 and 4×4 maps, and a one-column output: `out_w < NR`, so one
        // packed strip spans several output rows.
        (3, 8, 8, conv(5, 3, 3, 1, 1)),
        (6, 4, 4, conv(30, 3, 3, 1, 1)), // C_out·9 = 270 straddles KC in the rotated GEMM
        (2, 5, 3, conv(3, 3, 3, 1, 0)),
        // `out_w` not a multiple of NR: 17 and 33 (and 33² > NC columns).
        (3, 17, 17, conv(4, 3, 3, 1, 1)),
        (2, 33, 33, conv(3, 3, 3, 1, 1)),
        // `k = C·Kh·Kw` straddling KC; `m` past MC; no padding.
        (32, 10, 10, conv(crate::gemm::MC + 2, 3, 3, 2, 1)),
        (40, 9, 7, conv(4, 3, 3, 1, 0)),
        // Non-square filters (the rotated padding differs per axis).
        (3, 9, 12, conv(4, 3, 5, 1, 1)),
        (2, 10, 9, conv(3, 1, 3, 2, 0)),
        // pad > 1, at stride 1 and 2; pad > K − 1 (strided-path fallback).
        (2, 11, 11, conv(3, 5, 5, 1, 2)),
        (2, 33, 33, conv(7, 5, 5, 2, 2)),
        (3, 6, 6, conv(4, 2, 2, 1, 2)),
        // Stride 4.
        (4, 19, 19, conv(6, 5, 5, 4, 2)),
        // Pointwise: the sample is the operand.
        (5, 6, 6, conv(7, 1, 1, 1, 0)),
        // Stride 1 with `out_w` a multiple of 8: the windows are read in
        // place, through a zero-bordered copy of the sample when padded.
        // `out_w = 8`, `C·Kh·Kw = 288` (two KC slabs), `m = 8` on `MR = 6`.
        (32, 8, 8, conv(8, 3, 3, 1, 1)),
        // `out_w = 16`; the rotated GEMM's `C_out·9 = 270` straddles KC.
        (4, 16, 16, conv(30, 3, 3, 1, 1)),
        // `out_w = 24`, `n = 120` (the ragged last strip is packed beside
        // seven read in place), `m = MC + 2`: past MC and no multiple of MR.
        (3, 5, 24, conv(crate::gemm::MC + 2, 3, 3, 1, 1)),
        // `out_w = 32`, and a two-deep border.
        (2, 6, 32, conv(5, 3, 3, 1, 1)),
        (2, 8, 16, conv(3, 5, 5, 1, 2)),
        // A `valid` 3×3 (`out_w = 8`, `n = 40`): in place with no copy.
        (3, 7, 10, conv(4, 3, 3, 1, 0)),
        // Non-square: the input gradient's border is 1 row by 3 columns.
        (3, 9, 16, conv(4, 3, 5, 1, 1)),
        // `C_out = 13` and `16`: the AVX-512 correlation's 8-channel tile,
        // then its 4- and 1-channel tails, or two whole tiles (pointwise).
        (5, 8, 8, conv(13, 3, 3, 1, 1)),
        (4, 16, 16, conv(16, 1, 1, 1, 0)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_out_shape_matches_conv() {
        let attrs = Conv2dAttrs::new(16, 3, 2, 1);
        let shape = conv_out_shape(&Shape::nchw(4, 8, 17, 17), &attrs).unwrap();
        assert_eq!(shape, Shape::nchw(4, 16, 9, 9));
        assert!(conv_out_shape(&Shape::matrix(2, 2), &attrs).is_err());
    }

    #[test]
    fn identity_kernel_copies_input() {
        let x = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let attrs = Conv2dAttrs::pointwise(1);
        let cols = im2col(&x, 0, &attrs).unwrap();
        assert_eq!(cols, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn padding_produces_zero_border() {
        let x = Tensor::ones(Shape::nchw(1, 1, 2, 2));
        let attrs = Conv2dAttrs::same_3x3(1);
        let cols = im2col(&x, 0, &attrs).unwrap();
        let (rows, ncols) = col_shape(x.shape(), &attrs).unwrap();
        assert_eq!((rows, ncols), (9, 4));
        // First row corresponds to kernel offset (0,0): for output (0,0) it
        // samples input (-1,-1), i.e. padding.
        assert_eq!(cols[0], 0.0);
        // Center kernel offset (1,1) samples the input directly.
        let center_row = 4;
        assert_eq!(&cols[center_row * 4..center_row * 4 + 4], &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn stride_subsamples() {
        let data: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let x = Tensor::from_vec(Shape::nchw(1, 1, 4, 4), data).unwrap();
        let attrs = Conv2dAttrs::new(1, 2, 2, 0);
        let cols = im2col(&x, 0, &attrs).unwrap();
        let (rows, ncols) = col_shape(x.shape(), &attrs).unwrap();
        assert_eq!((rows, ncols), (4, 4));
        // Row 0 = kernel offset (0,0): top-left corner of each 2x2 window.
        assert_eq!(&cols[0..4], &[0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_for_disjoint_windows() {
        // With stride == kernel the windows are disjoint, so
        // col2im(im2col(x)) == x.
        let data: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let x = Tensor::from_vec(Shape::nchw(1, 1, 4, 4), data).unwrap();
        let attrs = Conv2dAttrs::new(1, 2, 2, 0);
        let cols = im2col(&x, 0, &attrs).unwrap();
        let mut back = Tensor::zeros(x.shape().clone());
        col2im_accumulate(&cols, &mut back, 0, &attrs).unwrap();
        assert!(back.all_close(&x, 1e-6).unwrap());
    }

    #[test]
    fn errors_on_bad_input() {
        let x = Tensor::zeros(Shape::matrix(2, 2));
        assert!(im2col(&x, 0, &Conv2dAttrs::pointwise(1)).is_err());
        let x = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        let attrs = Conv2dAttrs::new(1, 5, 1, 0);
        assert!(im2col(&x, 0, &attrs).is_err());
        let mut t = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        assert!(col2im_accumulate(&[0.0; 3], &mut t, 0, &Conv2dAttrs::pointwise(1)).is_err());
    }
}
