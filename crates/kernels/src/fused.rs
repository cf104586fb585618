//! Fused kernels introduced by BN Fission-n-Fusion.
//!
//! * [`conv2d_forward_with_stats`] — the `CONV1-(sub-BN1)` fused layer: the
//!   convolution accumulates Σx and Σx² of every output value it produces,
//!   so the following BN's mean/variance are available without re-reading
//!   the output feature map.
//! * [`norm_relu_conv_forward`] — the `(sub-BN2)-ReLU-CONV2` fused layer:
//!   normalization and clipping happen while the following convolution
//!   reads its input feature map. The normalized activation is also
//!   returned (the paper's `O2'` write) because the backward pass needs it.
//! * [`relu_conv_forward`] — the RCF fused layer: clipping while reading.
//! * [`concat_forward_with_stats`] — the ICF fused layer: Σx/Σx² accumulated
//!   while the concatenation writes its output.
//! * [`norm_relu_conv_backward`] — the fused backward path, composed of the
//!   same arithmetic as the unfused layers (the memory benefit is modelled
//!   by `bnff-memsim`; numerically the result must be identical).

use crate::batchnorm::{
    bn_backward, min_planes_per_thread, BnForwardState, BnParamGrads, BnParams,
};
use crate::conv::{
    conv2d_backward_input, conv2d_backward_weights, conv2d_forward, conv2d_forward_into,
    conv2d_forward_stats_into,
};
use crate::error::KernelError;
use crate::relu::relu_backward;
use crate::vecops;
use crate::Result;
use bnff_graph::op::Conv2dAttrs;
use bnff_parallel::parallel_rows_mut2;
use bnff_tensor::stats::{ChannelAccumulator, ChannelStats};
use bnff_tensor::{active_isa, Shape, Tensor};

/// Convolution that also accumulates per-channel Σx / Σx² of its output
/// (the paper's `CONV1-(sub-BN1)` fused layer). Returns the output feature
/// map and the finalized mini-batch statistics.
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn conv2d_forward_with_stats(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
) -> Result<(Tensor, ChannelStats)> {
    let mut out = Tensor::zeros(fused_conv_output_shape(input.shape(), attrs)?);
    let stats = conv2d_forward_with_stats_into(input, weights, bias, attrs, &mut out)?;
    Ok((out, stats))
}

/// [`conv2d_forward_with_stats`] into a caller-provided output tensor.
/// Every element of `out` is overwritten. The accumulation rides along the
/// output write: the convolution's per-sample epilogue pushes each freshly
/// produced output plane into its channel's accumulator while the sample is
/// still cache-hot, so the feature map is not swept a second time.
///
/// # Errors
/// Returns an error if the shapes (including `out`'s) are inconsistent.
pub fn conv2d_forward_with_stats_into(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
    out: &mut Tensor,
) -> Result<ChannelStats> {
    let mut stats = ChannelAccumulator::new(attrs.out_channels);
    conv2d_forward_stats_into(input, weights, bias, attrs, &mut stats, out)?;
    Ok(stats.finalize()?)
}

/// ReLU applied while reading the ifmaps of a convolution (RCF).
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn relu_conv_forward(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
) -> Result<Tensor> {
    let clipped = crate::relu::relu_forward(input);
    conv2d_forward(&clipped, weights, bias, attrs)
}

/// Everything the fused `(sub-BN2)-ReLU-CONV2` backward pass needs from the
/// forward pass.
#[derive(Debug, Clone)]
pub struct NormReluConvState {
    /// The statistics used for normalization and the normalized activations
    /// `x̂` (before γ/β and ReLU) — the `O2'` sweep the fused layer still
    /// writes because backward reuses it — held in the form BN backward
    /// borrows.
    pub bn: BnForwardState,
    /// The post-γ/β, post-ReLU activations actually fed to the convolution.
    pub conv_input: Tensor,
}

/// The `(sub-BN2)-ReLU-CONV2` fused forward pass: normalize the raw
/// activations with the provided mini-batch statistics, clip, and convolve.
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn norm_relu_conv_forward(
    raw: &Tensor,
    stats: &ChannelStats,
    bn: &BnParams,
    epsilon: f32,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
) -> Result<(Tensor, NormReluConvState)> {
    let mut out = Tensor::zeros(fused_conv_output_shape(raw.shape(), attrs)?);
    let state =
        norm_relu_conv_forward_into(raw, stats, bn, epsilon, weights, bias, attrs, &mut out)?;
    Ok((out, state))
}

/// [`norm_relu_conv_forward`] into a caller-provided output tensor. Every
/// element of `out` is overwritten; the returned state owns the (freshly
/// allocated) `x̂` and clipped activations the backward pass retains.
///
/// # Errors
/// Returns an error if the shapes (including `out`'s) are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn norm_relu_conv_forward_into(
    raw: &Tensor,
    stats: &ChannelStats,
    bn: &BnParams,
    epsilon: f32,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
    out: &mut Tensor,
) -> Result<NormReluConvState> {
    raw.shape().expect_nchw()?;
    let c = raw.shape().c();
    if stats.channels() != c || bn.channels() != c {
        return Err(KernelError::ShapeMismatch(format!(
            "statistics/parameters cover {}/{} channels, input has {c}",
            stats.channels(),
            bn.channels()
        )));
    }
    if epsilon <= 0.0 {
        return Err(KernelError::InvalidArgument("epsilon must be positive".to_string()));
    }
    let mut x_hat = Tensor::zeros(raw.shape().clone());
    let mut conv_input = Tensor::zeros(raw.shape().clone());
    let plane_len = raw.shape().h() * raw.shape().w();
    let src = raw.as_slice();
    // One task per `(sample, channel)` plane; `x̂` and the clipped conv
    // input are produced in the same sweep of the raw activations. ISA
    // resolved on the caller's thread (workers don't inherit `with_isa`).
    let isa = active_isa();
    parallel_rows_mut2(
        x_hat.as_mut_slice(),
        plane_len.max(1),
        conv_input.as_mut_slice(),
        plane_len.max(1),
        min_planes_per_thread(plane_len),
        |first_plane, hat_block, in_block| {
            for (p_local, (hat_plane, ci_plane)) in hat_block
                .chunks_mut(plane_len.max(1))
                .zip(in_block.chunks_mut(plane_len.max(1)))
                .enumerate()
            {
                let p = first_plane + p_local;
                let ci = p % c;
                let mean = stats.mean[ci];
                let inv_std = 1.0 / (stats.var[ci] + epsilon).sqrt();
                let src_plane = &src[p * plane_len..(p + 1) * plane_len];
                vecops::normalize_plane(
                    isa,
                    src_plane,
                    hat_plane,
                    ci_plane,
                    mean,
                    inv_std,
                    bn.gamma[ci],
                    bn.beta[ci],
                    true,
                );
            }
        },
    );
    conv2d_forward_into(&conv_input, weights, bias, attrs, out)?;
    Ok(NormReluConvState { bn: BnForwardState { stats: stats.clone(), x_hat }, conv_input })
}

/// Gradients produced by [`norm_relu_conv_backward`].
#[derive(Debug, Clone)]
pub struct NormReluConvGrads {
    /// Gradient with respect to the raw (pre-normalization) activations.
    pub d_raw: Tensor,
    /// Gradient with respect to the convolution weights.
    pub d_weights: Tensor,
    /// Gradient with respect to the convolution bias (empty if no bias).
    pub d_bias: Vec<f32>,
    /// Gradients of the absorbed BN's γ/β.
    pub d_bn: BnParamGrads,
}

/// Backward pass of the fused `(sub-BN2)-ReLU-CONV2` layer.
///
/// Numerically this is the composition conv-backward → ReLU-backward →
/// BN-backward; the fusion's benefit is in memory traffic, which the
/// performance model accounts for separately.
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn norm_relu_conv_backward(
    d_out: &Tensor,
    state: &NormReluConvState,
    bn: &BnParams,
    epsilon: f32,
    weights: &Tensor,
    attrs: &Conv2dAttrs,
    with_bias: bool,
) -> Result<NormReluConvGrads> {
    // Convolution backward.
    let d_conv_input = conv2d_backward_input(d_out, weights, state.conv_input.shape(), attrs)?;
    let (d_weights, d_bias) = conv2d_backward_weights(&state.conv_input, d_out, attrs, with_bias)?;
    // ReLU backward (mask taken from the post-ReLU conv input).
    let d_post_bn = relu_backward(&d_conv_input, &state.conv_input)?;
    // BN backward using the saved normalized activations.
    let (d_raw, d_bn) = bn_backward(&d_post_bn, &state.bn, bn, epsilon)?;
    Ok(NormReluConvGrads { d_raw, d_weights, d_bias, d_bn })
}

/// Channel concatenation that also accumulates Σx / Σx² of its output (the
/// ICF fused layer). Returns the concatenated tensor and its statistics.
///
/// # Errors
/// Returns an error if the inputs are incompatible.
pub fn concat_forward_with_stats(inputs: &[&Tensor]) -> Result<(Tensor, ChannelStats)> {
    let out = crate::concat::concat_forward(inputs)?;
    let stats = ChannelAccumulator::from_tensor(&out)?.finalize()?;
    Ok((out, stats))
}

/// [`concat_forward_with_stats`] into a caller-provided output tensor.
/// Every element of `out` is overwritten.
///
/// # Errors
/// Returns an error if the inputs (or `out`'s shape) are incompatible.
pub fn concat_forward_with_stats_into(
    inputs: &[&Tensor],
    out: &mut Tensor,
) -> Result<ChannelStats> {
    crate::concat::concat_forward_into(inputs, out)?;
    Ok(ChannelAccumulator::from_tensor(out)?.finalize()?)
}

/// Convenience: the shape of the output produced by a fused convolution with
/// the given input shape.
///
/// # Errors
/// Returns an error if the window does not fit the input.
pub fn fused_conv_output_shape(input: &Shape, attrs: &Conv2dAttrs) -> Result<Shape> {
    input.expect_nchw()?;
    let ho = crate::im2col::conv_out_dim(input.h(), attrs.kernel_h, attrs.stride, attrs.pad)?;
    let wo = crate::im2col::conv_out_dim(input.w(), attrs.kernel_w, attrs.stride, attrs.pad)?;
    Ok(Shape::nchw(input.n(), attrs.out_channels, ho, wo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batchnorm::{bn_forward, bn_statistics};
    use crate::relu::relu_forward;
    use bnff_tensor::init::Initializer;

    fn random(shape: Shape, seed: u64) -> Tensor {
        Initializer::seeded(seed).uniform(shape, -1.0, 1.0)
    }

    #[test]
    fn conv_with_stats_matches_separate_computation() {
        let attrs = Conv2dAttrs::same_3x3(6);
        let x = random(Shape::nchw(3, 4, 8, 8), 1);
        let w = random(Shape::nchw(6, 4, 3, 3), 2);
        let (fused_out, fused_stats) = conv2d_forward_with_stats(&x, &w, None, &attrs).unwrap();
        let plain_out = conv2d_forward(&x, &w, None, &attrs).unwrap();
        assert!(fused_out.all_close(&plain_out, 1e-6).unwrap());
        let separate_stats = bn_statistics(&plain_out, false).unwrap();
        assert!(fused_stats.max_abs_diff(&separate_stats).unwrap() < 1e-4);
    }

    #[test]
    fn relu_conv_matches_relu_then_conv() {
        let attrs = Conv2dAttrs::pointwise(5);
        let x = random(Shape::nchw(2, 3, 6, 6), 3);
        let w = random(Shape::nchw(5, 3, 1, 1), 4);
        let fused = relu_conv_forward(&x, &w, None, &attrs).unwrap();
        let unfused = conv2d_forward(&relu_forward(&x), &w, None, &attrs).unwrap();
        assert!(fused.all_close(&unfused, 1e-6).unwrap());
    }

    #[test]
    fn norm_relu_conv_matches_unfused_pipeline() {
        let attrs = Conv2dAttrs::same_3x3(4);
        let raw = random(Shape::nchw(4, 3, 6, 6), 5);
        let w = random(Shape::nchw(4, 3, 3, 3), 6);
        let bn = BnParams::new(vec![1.2, 0.8, 1.0], vec![0.1, -0.1, 0.0]).unwrap();
        let eps = 1e-5;

        let stats = bn_statistics(&raw, false).unwrap();
        let (fused_out, state) =
            norm_relu_conv_forward(&raw, &stats, &bn, eps, &w, None, &attrs).unwrap();

        // Unfused: BN forward -> ReLU -> conv.
        let (bn_out, bn_state) = bn_forward(&raw, &bn, eps, false).unwrap();
        let relu_out = relu_forward(&bn_out);
        let unfused_out = conv2d_forward(&relu_out, &w, None, &attrs).unwrap();

        assert!(fused_out.all_close(&unfused_out, 1e-4).unwrap());
        assert!(state.bn.x_hat.all_close(&bn_state.x_hat, 1e-4).unwrap());
        assert!(state.conv_input.all_close(&relu_out, 1e-4).unwrap());
    }

    #[test]
    fn norm_relu_conv_backward_matches_unfused_gradients() {
        let attrs = Conv2dAttrs::pointwise(3);
        let raw = random(Shape::nchw(2, 2, 4, 4), 7);
        let w = random(Shape::nchw(3, 2, 1, 1), 8);
        let bn = BnParams::new(vec![1.1, 0.9], vec![0.05, -0.05]).unwrap();
        let eps = 1e-5;
        let stats = bn_statistics(&raw, false).unwrap();
        let (out, state) =
            norm_relu_conv_forward(&raw, &stats, &bn, eps, &w, None, &attrs).unwrap();
        let d_out = random(out.shape().clone(), 9);

        let fused = norm_relu_conv_backward(&d_out, &state, &bn, eps, &w, &attrs, false).unwrap();

        // Unfused reference.
        let (bn_out, bn_state) = bn_forward(&raw, &bn, eps, false).unwrap();
        let relu_out = relu_forward(&bn_out);
        let d_relu_out = conv2d_backward_input(&d_out, &w, relu_out.shape(), &attrs).unwrap();
        let (d_w_ref, _) = conv2d_backward_weights(&relu_out, &d_out, &attrs, false).unwrap();
        let d_bn_out = relu_backward(&d_relu_out, &relu_out).unwrap();
        let (d_raw_ref, d_bn_ref) =
            crate::batchnorm::bn_backward(&d_bn_out, &bn_state, &bn, eps).unwrap();

        assert!(fused.d_raw.all_close(&d_raw_ref, 1e-4).unwrap());
        assert!(fused.d_weights.all_close(&d_w_ref, 1e-4).unwrap());
        for c in 0..2 {
            assert!((fused.d_bn.d_gamma[c] - d_bn_ref.d_gamma[c]).abs() < 1e-3);
            assert!((fused.d_bn.d_beta[c] - d_bn_ref.d_beta[c]).abs() < 1e-3);
        }
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let attrs = Conv2dAttrs::same_3x3(4);
        let x = random(Shape::nchw(2, 3, 6, 6), 31);
        let w = random(Shape::nchw(4, 3, 3, 3), 32);
        let (out_ref, stats_ref) = conv2d_forward_with_stats(&x, &w, None, &attrs).unwrap();
        let mut out = Tensor::filled(out_ref.shape().clone(), f32::NAN);
        let stats = conv2d_forward_with_stats_into(&x, &w, None, &attrs, &mut out).unwrap();
        assert_eq!(out.as_slice(), out_ref.as_slice());
        assert_eq!(stats.mean, stats_ref.mean);
        assert_eq!(stats.var, stats_ref.var);

        let bn = BnParams::identity(3);
        let in_stats = bn_statistics(&x, false).unwrap();
        let (nrc_ref, state_ref) =
            norm_relu_conv_forward(&x, &in_stats, &bn, 1e-5, &w, None, &attrs).unwrap();
        let mut nrc = Tensor::filled(nrc_ref.shape().clone(), f32::NAN);
        let state =
            norm_relu_conv_forward_into(&x, &in_stats, &bn, 1e-5, &w, None, &attrs, &mut nrc)
                .unwrap();
        assert_eq!(nrc.as_slice(), nrc_ref.as_slice());
        assert_eq!(state.bn.x_hat.as_slice(), state_ref.bn.x_hat.as_slice());
        assert_eq!(state.conv_input.as_slice(), state_ref.conv_input.as_slice());
    }

    #[test]
    fn concat_with_stats_matches_separate() {
        let a = random(Shape::nchw(2, 2, 4, 4), 10);
        let b = random(Shape::nchw(2, 3, 4, 4), 11);
        let (out, stats) = concat_forward_with_stats(&[&a, &b]).unwrap();
        let plain = crate::concat::concat_forward(&[&a, &b]).unwrap();
        assert!(out.all_close(&plain, 1e-6).unwrap());
        let reference = bn_statistics(&plain, false).unwrap();
        assert!(stats.max_abs_diff(&reference).unwrap() < 1e-4);
    }

    #[test]
    fn mismatched_channels_rejected() {
        let attrs = Conv2dAttrs::pointwise(2);
        let raw = random(Shape::nchw(1, 3, 4, 4), 12);
        let w = random(Shape::nchw(2, 3, 1, 1), 13);
        let bn = BnParams::identity(4); // wrong channel count
        let stats = bn_statistics(&raw, false).unwrap();
        assert!(norm_relu_conv_forward(&raw, &stats, &bn, 1e-5, &w, None, &attrs).is_err());
    }

    #[test]
    fn fused_conv_output_shape_matches_conv() {
        let attrs = Conv2dAttrs::new(16, 3, 2, 1);
        let shape = fused_conv_output_shape(&Shape::nchw(4, 8, 17, 17), &attrs).unwrap();
        assert_eq!(shape, Shape::nchw(4, 16, 9, 9));
        assert!(fused_conv_output_shape(&Shape::matrix(2, 2), &attrs).is_err());
    }
}
