//! Fused kernels introduced by BN Fission-n-Fusion.
//!
//! The paper's fused layers are a convolution with a *prologue* (applied to
//! its input feature map while it is read) and/or an *epilogue* (accumulated
//! while its output feature map is written), so every kernel here is a
//! composition of the one normalize sweep
//! ([`normalize_sweep_into`]) and the one convolution body:
//!
//! * [`conv2d_forward_with_stats`] — the `CONV1-(sub-BN1)` epilogue: the
//!   convolution accumulates Σx and Σx² of every output value it produces,
//!   so the following BN's mean/variance are available without re-reading
//!   the output feature map.
//! * [`norm_relu_conv_forward`] — the `(sub-BN2)-ReLU-CONV2` prologue:
//!   normalize + clip in one sweep, then convolve. The normalized activation
//!   is also returned (the paper's `O2'` write) because the backward pass
//!   needs it.
//! * [`concat_forward_with_stats`] — the ICF fused layer: Σx/Σx² accumulated
//!   while the concatenation writes its output.
//!
//! There is no fused backward kernel: backward is conv-backward →
//! ReLU-backward → BN-backward on the tensors the forward pass saved, which
//! the train executor composes itself (the memory benefit is modelled by
//! `bnff-memsim`; numerically the result must be identical).

use crate::batchnorm::{normalize_sweep_into, BnForwardState, BnParams};
use crate::conv::{conv2d_forward_into, conv2d_forward_stats_into};
use crate::im2col::conv_out_shape;
use crate::Result;
use bnff_graph::op::Conv2dAttrs;
use bnff_tensor::stats::{ChannelAccumulator, ChannelStats};
use bnff_tensor::Tensor;

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
    let mut out = Tensor::zeros(conv_out_shape(input.shape(), attrs)?);
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
    let mut out = Tensor::zeros(conv_out_shape(raw.shape(), attrs)?);
    let state =
        norm_relu_conv_forward_into(raw, stats, bn, epsilon, weights, bias, attrs, &mut out)?;
    Ok((out, state))
}

/// [`norm_relu_conv_forward`] into a caller-provided output tensor: the
/// normalize+clip sweep, then the convolution. Every element of `out` is
/// overwritten; the returned state owns the (freshly allocated) `x̂` and
/// clipped activations the backward pass retains.
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
    let mut conv_input = Tensor::zeros(raw.shape().clone());
    let x_hat = normalize_sweep_into(raw, stats, bn, epsilon, true, &mut conv_input)?;
    conv2d_forward_into(&conv_input, weights, bias, attrs, out)?;
    Ok(NormReluConvState { bn: BnForwardState { stats: stats.clone(), x_hat }, conv_input })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batchnorm::{bn_forward, bn_statistics};
    use crate::conv::conv2d_forward;
    use crate::relu::relu_forward;
    use bnff_tensor::init::Initializer;
    use bnff_tensor::Shape;

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
}
