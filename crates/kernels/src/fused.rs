//! Fused kernels introduced by BN Fission-n-Fusion.
//!
//! The paper's fused layers are a convolution with a *prologue* (applied to
//! its input feature map while it is read) and/or an *epilogue* (accumulated
//! while its output feature map is written). Both ride the convolution's
//! sample loop ([`crate::conv`]), in both directions, so no batch-wide
//! BN/ReLU sweep is left standing around a fused convolution:
//!
//! * [`fused_conv_forward_into`] — the one forward. The prologue is the
//!   [`ConvInput`]: `(sub-BN2)-ReLU-CONV2` normalizes+clips one sample
//!   (RCF: clips it) into an L2-sized scratch right before the packer reads
//!   it; neither `x̂` nor the clipped ifmap is ever stored. The epilogue is
//!   `CONV1-(sub-BN1)`: Σx and Σx² of every output plane, pushed while the
//!   sample's output is cache-hot. [`conv2d_forward_with_stats`] and
//!   [`norm_relu_conv_forward`] are its two single-sided wrappers.
//! * [`fused_conv_backward_into`] — the one backward. The weight gradient
//!   reads the same [`ConvInput`]; the input gradient is written per sample
//!   and, while that sample is cache-hot, an epilogue recomputes `x̂` and
//!   `y = γ·x̂ + β` from the raw input and the 2×C statistics, applies ReLU′
//!   branch-free and adds the planes' Σg and Σg·x̂ to the ∂β/∂γ
//!   accumulators; one in-place pass then turns the masked gradient into
//!   `d_x`. The unfused [`crate::relu::relu_backward`] and
//!   [`crate::batchnorm::bn_backward`] run the same plane helpers, which is
//!   what keeps fused and unfused training bit-identical per ISA.
//! * [`concat_forward_with_stats_into`] — the ICF fused layer as a copy:
//!   Σx/Σx² of the concatenation written into one buffer. No executor calls
//!   it (a training `ConcatStats` is a rope whose statistics are assembled,
//!   a served one a plain concatenation); it stays public for the
//!   benchmark's kernel replay (`benchmark/src/replay.rs`), which times it.
//!
//! The cost model (`bnff_graph::analysis`, `bnff-memsim`) still charges the
//! fused layer the `O2'` write of the paper's Figure 5, which these kernels
//! no longer perform.

use crate::batchnorm::{norm_dx_sweep, param_grads, BnParamGrads, BnParams, NormRecompute};
use crate::conv::{backward_input, backward_weights, conv_forward, ConvInput};
use crate::error::KernelError;
use crate::im2col::conv_out_shape;
use crate::vecops;
use crate::Result;
use bnff_graph::op::Conv2dAttrs;
use bnff_tensor::stats::{ChannelAccumulator, ChannelStats};
use bnff_tensor::{active_isa, Tensor};

/// The fused convolution forward pass into a caller-provided output tensor
/// (every element is overwritten): `input`'s prologue per sample, the
/// convolution, and — `with_stats` — the Σx/Σx² epilogue, whose finalized
/// mini-batch statistics are returned.
///
/// # Errors
/// Returns an error if the shapes (including `out`'s) are inconsistent.
pub fn fused_conv_forward_into(
    input: ConvInput<'_>,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
    with_stats: bool,
    out: &mut Tensor,
) -> Result<Option<ChannelStats>> {
    let mut stats = with_stats.then(|| ChannelAccumulator::new(attrs.out_channels));
    conv_forward(input, weights, bias, attrs, stats.as_mut(), out)?;
    Ok(stats.map(|acc| acc.finalize()).transpose()?)
}

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
    let input = ConvInput::Raw(input.into());
    let stats = fused_conv_forward_into(input, weights, bias, attrs, true, out)?;
    Ok(stats.expect("statistics were requested"))
}

/// The `(sub-BN2)-ReLU-CONV2` fused forward pass: normalize the raw
/// activations with the provided mini-batch statistics, clip, and convolve —
/// one sample at a time, storing neither `x̂` nor the clipped activations
/// (backward recomputes both from `raw` and `stats`).
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
) -> Result<Tensor> {
    let mut out = Tensor::zeros(conv_out_shape(raw.shape(), attrs)?);
    norm_relu_conv_forward_into(raw, stats, bn, epsilon, weights, bias, attrs, &mut out)?;
    Ok(out)
}

/// [`norm_relu_conv_forward`] into a caller-provided output tensor. Every
/// element of `out` is overwritten.
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
) -> Result<()> {
    let input = ConvInput::NormClip { x: raw.into(), stats, params: bn, epsilon };
    fused_conv_forward_into(input, weights, bias, attrs, false, out).map(|_| ())
}

/// The parameter gradients of one fused convolution.
#[derive(Debug, Clone)]
pub struct ConvGrads {
    /// ∂L/∂W, in the weights' layout.
    pub d_weights: Tensor,
    /// ∂L/∂bias (empty without a bias).
    pub d_bias: Vec<f32>,
    /// ∂γ/∂β of the BN a [`ConvInput::NormClip`] prologue absorbed.
    pub d_bn: Option<BnParamGrads>,
}

/// The fused convolution backward pass. The weight gradient is taken
/// against `input` as the forward pass read it. With `d_input`, the gradient
/// with respect to the *raw* input tensor is written into it (every element
/// is overwritten, so a dirty recycled buffer is fine): the convolution's
/// input gradient per sample, then — while that sample is cache-hot — the
/// backward of `input`'s prologue: ReLU′ from the recomputed activation and,
/// for [`ConvInput::NormClip`], the plane's Σg and Σg·x̂ into per-channel f64
/// accumulators in batch order, followed by one in-place pass
/// `d_x = γ/σ·(g − mean(g) − x̂·mean(g·x̂))`. Numerically this is
/// conv-backward → ReLU-backward → BN-backward on a stored `x̂`, per ISA.
///
/// # Errors
/// Returns an error if the shapes are inconsistent, or a normalizing
/// prologue is given no `d_input` (its ∂γ/∂β are reductions of it).
pub fn fused_conv_backward_into(
    input: ConvInput<'_>,
    d_out: &Tensor,
    weights: &Tensor,
    attrs: &Conv2dAttrs,
    with_bias: bool,
    d_input: Option<&mut Tensor>,
) -> Result<ConvGrads> {
    let (d_weights, d_bias) = backward_weights(input, d_out, attrs, with_bias)?;
    let x = input.x();
    // Resolved here, on the caller's thread; the epilogues run on it too.
    let isa = active_isa();
    if let Some(d_x) = &d_input {
        x.shape().expect_same(d_x.shape())?;
    }
    let Some(d_x) = d_input else {
        return match input {
            ConvInput::NormClip { .. } => Err(KernelError::InvalidArgument(
                "a normalizing prologue's parameter gradients need the input gradient".to_string(),
            )),
            _ => Ok(ConvGrads { d_weights, d_bias, d_bn: None }),
        };
    };
    match input {
        ConvInput::Raw(_) => backward_input(d_out, weights, attrs, true, d_x, |_, _| {})?,
        ConvInput::Clip(_) => {
            // relu(x) > 0 ⇔ x > 0: the raw input is its own mask.
            let plane_len = (x.h() * x.w()).max(1);
            backward_input(d_out, weights, attrs, true, d_x, |ni, g| {
                for (g_plane, x_plane) in g.chunks_exact_mut(plane_len).zip(x.sample_planes(ni)) {
                    vecops::relu_mask(isa, g_plane, x_plane);
                }
            })?;
        }
        ConvInput::NormClip { stats, params, epsilon, .. } => {
            let plane_len = (x.h() * x.w()).max(1);
            let mut sums = vec![(0.0f64, 0.0f64); x.c()];
            let recompute = NormRecompute::new(isa, stats, params, epsilon, true);
            backward_input(d_out, weights, attrs, true, d_x, |ni, g| {
                let planes = g.chunks_exact_mut(plane_len).zip(x.sample_planes(ni));
                for (ci, (g_plane, x_plane)) in planes.enumerate() {
                    recompute.plane(ci, g_plane, x_plane, &mut sums[ci]);
                }
            })?;
            norm_dx_sweep(isa, d_x, x, &sums, stats, params, epsilon);
            return Ok(ConvGrads { d_weights, d_bias, d_bn: Some(param_grads(&sums)) });
        }
    }
    Ok(ConvGrads { d_weights, d_bias, d_bn: None })
}

/// Channel concatenation into a caller-provided output tensor that also
/// returns Σx / Σx² of that output (the ICF fused layer). Every element of
/// `out` is overwritten.
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
    use crate::batchnorm::{bn_backward, bn_normalize_into, bn_statistics, BnForwardState};
    use crate::conv::{conv2d_backward_input_into, conv2d_backward_weights, conv2d_forward};
    use crate::dispatch::test_isas;
    use crate::im2col::test_geometries;
    use crate::relu::{relu_backward, relu_forward};
    use bnff_tensor::init::Initializer;
    use bnff_tensor::simd::{with_isa, SimdIsa};
    use bnff_tensor::Shape;

    const EPS: f32 = 1e-5;

    fn random(shape: Shape, seed: u64) -> Tensor {
        Initializer::seeded(seed).uniform(shape, -1.0, 1.0)
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// γ of both signs and β around zero, so the clip is live everywhere;
    /// channel 0 has `γ < 0, β = −0.0` and channel 1 `β = +0.0`.
    fn bn_params(channels: usize) -> BnParams {
        let gamma = (0..channels).map(|c| if c % 3 == 0 { -0.7 } else { 0.6 + 0.1 * c as f32 });
        let beta = (0..channels).map(|c| [-0.0, 0.0, 0.15, -0.2][c % 4]);
        BnParams::new(gamma.collect(), beta.collect()).unwrap()
    }

    /// A three-sample input, its statistics, and — after the statistics were
    /// taken — a few elements set to their channel's mean, so `x̂ = +0.0`
    /// there and `y = γ·x̂ + β` is `−0.0` in channel 0 and `+0.0` in channel 1.
    fn normalized_input(in_c: usize, h: usize, w: usize) -> (Tensor, ChannelStats) {
        let mut x = random(Shape::nchw(3, in_c, h, w), 5);
        let stats = bn_statistics(&x, true).unwrap();
        for ci in 0..in_c.min(2) {
            for ni in 0..3 {
                x.channel_plane_mut(ni, ci)[ni] = stats.mean[ci];
            }
        }
        (x, stats)
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

    /// (a) The prologue per sample is the batch-wide sweeps, bit for bit:
    /// `bn_normalize_into → relu_forward → conv2d_forward_into`, with and
    /// without the statistics epilogue, on both ISAs; likewise the RCF clip.
    #[test]
    fn norm_relu_conv_matches_unfused_pipeline() {
        for isa in test_isas() {
            with_isa(isa, || {
                for (in_c, h, w, attrs) in test_geometries() {
                    let label = format!("{isa} {attrs:?}");
                    let (x, stats) = normalized_input(in_c, h, w);
                    let bn = bn_params(in_c);
                    let wt = random(
                        Shape::nchw(attrs.out_channels, in_c, attrs.kernel_h, attrs.kernel_w),
                        6,
                    );
                    let mut y = Tensor::zeros(x.shape().clone());
                    bn_normalize_into(&x, &stats, &bn, EPS, &mut y).unwrap();
                    let want = conv2d_forward(&relu_forward(&y), &wt, None, &attrs).unwrap();
                    let want_stats = bn_statistics(&want, true).unwrap();
                    for with_stats in [false, true] {
                        let input = ConvInput::NormClip {
                            x: (&x).into(),
                            stats: &stats,
                            params: &bn,
                            epsilon: EPS,
                        };
                        let mut got = Tensor::filled(want.shape().clone(), f32::NAN);
                        let ridden =
                            fused_conv_forward_into(input, &wt, None, &attrs, with_stats, &mut got)
                                .unwrap();
                        assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{label}");
                        assert_eq!(ridden.is_some(), with_stats);
                        if let Some(ridden) = ridden {
                            assert_eq!(bits(&ridden.mean), bits(&want_stats.mean), "{label}");
                            assert_eq!(bits(&ridden.var), bits(&want_stats.var), "{label}");
                        }
                    }
                    let want = conv2d_forward(&relu_forward(&x), &wt, None, &attrs).unwrap();
                    let mut got = Tensor::filled(want.shape().clone(), f32::NAN);
                    fused_conv_forward_into(
                        ConvInput::Clip((&x).into()),
                        &wt,
                        None,
                        &attrs,
                        false,
                        &mut got,
                    )
                    .unwrap();
                    assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "clip {label}");
                }
            });
        }
    }

    /// What the parent commit computed for one `(sub-BN2)-ReLU-CONV2`
    /// backward, written out: convolution gradients against the stored
    /// clipped ifmap (the input gradient into zeros), the branching ReLU
    /// mask, then BN backward as one sequential f64 fold per channel over a
    /// stored `x̂`.
    struct Reference {
        d_weights: Tensor,
        d_bias: Vec<f32>,
        d_x: Vec<f32>,
        d_gamma: Vec<f32>,
        d_beta: Vec<f32>,
    }

    fn reference_backward(
        x: &Tensor,
        stats: &ChannelStats,
        bn: &BnParams,
        wt: &Tensor,
        attrs: &Conv2dAttrs,
        d_out: &Tensor,
    ) -> Reference {
        let mut y = Tensor::zeros(x.shape().clone());
        let x_hat = bn_normalize_into(x, stats, bn, EPS, &mut y).unwrap();
        let clipped = relu_forward(&y);
        let (d_weights, d_bias) = conv2d_backward_weights(&clipped, d_out, attrs, true).unwrap();
        let mut g = Tensor::zeros(x.shape().clone());
        conv2d_backward_input_into(d_out, wt, attrs, &mut g).unwrap();
        for (g, &v) in g.as_mut_slice().iter_mut().zip(clipped.as_slice()) {
            let passes = v > 0.0;
            if !passes {
                *g = 0.0;
            }
        }
        let (n, c) = (x.shape().n(), x.shape().c());
        let per_channel = (n * x.shape().h() * x.shape().w()) as f64;
        let mut d_x = Tensor::zeros(x.shape().clone());
        let (mut d_gamma, mut d_beta) = (Vec::new(), Vec::new());
        for ci in 0..c {
            let (mut beta_acc, mut gamma_acc) = (0.0f64, 0.0f64);
            for ni in 0..n {
                for (&g, &h) in g.channel_plane(ni, ci).iter().zip(x_hat.channel_plane(ni, ci)) {
                    beta_acc += f64::from(g);
                    gamma_acc += f64::from(g) * f64::from(h);
                }
            }
            let inv_std = 1.0 / (stats.var[ci] + EPS).sqrt();
            let scale = f64::from(bn.gamma[ci]) * f64::from(inv_std);
            let (mean_dy, mean_dy_xhat) = (beta_acc / per_channel, gamma_acc / per_channel);
            for ni in 0..n {
                let planes = g.channel_plane(ni, ci).iter().zip(x_hat.channel_plane(ni, ci));
                for (dst, (&g, &h)) in d_x.channel_plane_mut(ni, ci).iter_mut().zip(planes) {
                    *dst = (scale * (f64::from(g) - mean_dy - f64::from(h) * mean_dy_xhat)) as f32;
                }
            }
            d_gamma.push(gamma_acc as f32);
            d_beta.push(beta_acc as f32);
        }
        Reference { d_weights, d_bias, d_x: d_x.into_vec(), d_gamma, d_beta }
    }

    /// Bit-identical on the scalar path; on the vector path within 1e-6 of
    /// the largest reference magnitude (the ∂γ/∂β plane subtotals are the one
    /// summation order that differs).
    fn assert_matches(label: &str, isa: SimdIsa, got: &[f32], want: &[f32]) {
        if isa == SimdIsa::Scalar {
            assert_eq!(bits(got), bits(want), "{label} under {isa}");
            return;
        }
        let scale = want.iter().fold(f32::MIN_POSITIVE, |m, v| m.max(v.abs()));
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() <= 1e-6 * scale, "{label}[{i}] under {isa}: {g} vs {w}");
        }
    }

    /// (b) The fused backward is the parent's composition — stride-1
    /// (rotated) and strided (fallback) geometries, dirty `d_input`.
    #[test]
    fn fused_backward_matches_the_composed_reference() {
        for isa in test_isas() {
            with_isa(isa, || {
                for (in_c, h, w, attrs) in test_geometries() {
                    let label = format!("{attrs:?}");
                    let (x, stats) = normalized_input(in_c, h, w);
                    let bn = bn_params(in_c);
                    let wt = random(
                        Shape::nchw(attrs.out_channels, in_c, attrs.kernel_h, attrs.kernel_w),
                        6,
                    );
                    let d_out = random(conv_out_shape(x.shape(), &attrs).unwrap(), 7);
                    let want = reference_backward(&x, &stats, &bn, &wt, &attrs, &d_out);

                    let input = ConvInput::NormClip {
                        x: (&x).into(),
                        stats: &stats,
                        params: &bn,
                        epsilon: EPS,
                    };
                    let mut d_x = Tensor::filled(x.shape().clone(), f32::NAN);
                    let got =
                        fused_conv_backward_into(input, &d_out, &wt, &attrs, true, Some(&mut d_x))
                            .unwrap();
                    let d_bn = got.d_bn.expect("a normalizing prologue yields ∂γ/∂β");
                    // The weight gradient reads bit-identical samples on both ISAs.
                    assert_eq!(
                        bits(got.d_weights.as_slice()),
                        bits(want.d_weights.as_slice()),
                        "{label}"
                    );
                    assert_eq!(bits(&got.d_bias), bits(&want.d_bias), "{label}");
                    assert_matches(&format!("d_x {label}"), isa, d_x.as_slice(), &want.d_x);
                    assert_matches(&format!("d_gamma {label}"), isa, &d_bn.d_gamma, &want.d_gamma);
                    assert_matches(&format!("d_beta {label}"), isa, &d_bn.d_beta, &want.d_beta);

                    // Against the unfused kernels the match is exact on every
                    // ISA: they run the same plane helpers over a stored x̂.
                    let mut y = Tensor::zeros(x.shape().clone());
                    let x_hat = bn_normalize_into(&x, &stats, &bn, EPS, &mut y).unwrap();
                    let mut g = Tensor::zeros(x.shape().clone());
                    conv2d_backward_input_into(&d_out, &wt, &attrs, &mut g).unwrap();
                    let masked = relu_backward(&g, &relu_forward(&y)).unwrap();
                    let state = BnForwardState { stats: stats.clone(), x_hat };
                    let (unfused, unfused_bn) = bn_backward(&masked, &state, &bn, EPS).unwrap();
                    assert_eq!(
                        bits(d_x.as_slice()),
                        bits(unfused.as_slice()),
                        "{label} under {isa}"
                    );
                    assert_eq!(
                        bits(&d_bn.d_gamma),
                        bits(&unfused_bn.d_gamma),
                        "{label} under {isa}"
                    );
                    assert_eq!(bits(&d_bn.d_beta), bits(&unfused_bn.d_beta), "{label} under {isa}");
                }
            });
        }
    }

    /// The RCF prologue's mask comes from the raw input — NaN, ±0.0 and ±∞
    /// included — and a bare input leaves the gradient alone; on both
    /// input-gradient paths, into a dirty buffer.
    #[test]
    fn clip_and_raw_backward_match_the_unfused_kernels() {
        let specials = [f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1e-30, -1e-30];
        for isa in test_isas() {
            with_isa(isa, || {
                for attrs in [Conv2dAttrs::same_3x3(5), Conv2dAttrs::new(5, 3, 2, 1)] {
                    let mut x = random(Shape::nchw(2, 4, 9, 9), 21);
                    for (i, v) in x.as_mut_slice().iter_mut().step_by(5).enumerate() {
                        *v = specials[i % specials.len()];
                    }
                    let wt = random(Shape::nchw(5, 4, 3, 3), 22);
                    let d_out = random(conv_out_shape(x.shape(), &attrs).unwrap(), 23);
                    let mut plain = Tensor::zeros(x.shape().clone());
                    conv2d_backward_input_into(&d_out, &wt, &attrs, &mut plain).unwrap();
                    let clipped = relu_forward(&x);
                    let cases = [
                        (ConvInput::Raw((&x).into()), &x, plain.clone()),
                        (
                            ConvInput::Clip((&x).into()),
                            &clipped,
                            relu_backward(&plain, &clipped).unwrap(),
                        ),
                    ];
                    for (input, read, want) in cases {
                        let (d_w, d_b) =
                            conv2d_backward_weights(read, &d_out, &attrs, true).unwrap();
                        let mut d_x = Tensor::filled(x.shape().clone(), f32::NAN);
                        let got = fused_conv_backward_into(
                            input,
                            &d_out,
                            &wt,
                            &attrs,
                            true,
                            Some(&mut d_x),
                        )
                        .unwrap();
                        assert_eq!(bits(d_x.as_slice()), bits(want.as_slice()), "{input:?} {isa}");
                        assert_eq!(bits(got.d_weights.as_slice()), bits(d_w.as_slice()));
                        assert_eq!(bits(&got.d_bias), bits(&d_b));
                        assert!(got.d_bn.is_none());
                        // Without a `d_input` only the parameter gradients are computed.
                        let skipped =
                            fused_conv_backward_into(input, &d_out, &wt, &attrs, true, None)
                                .unwrap();
                        assert_eq!(bits(skipped.d_weights.as_slice()), bits(d_w.as_slice()));
                    }
                }
            });
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
        let nrc_ref = norm_relu_conv_forward(&x, &in_stats, &bn, 1e-5, &w, None, &attrs).unwrap();
        let mut nrc = Tensor::filled(nrc_ref.shape().clone(), f32::NAN);
        norm_relu_conv_forward_into(&x, &in_stats, &bn, 1e-5, &w, None, &attrs, &mut nrc).unwrap();
        assert_eq!(nrc.as_slice(), nrc_ref.as_slice());
    }

    #[test]
    fn concat_with_stats_matches_separate() {
        let a = random(Shape::nchw(2, 2, 4, 4), 10);
        let b = random(Shape::nchw(2, 3, 4, 4), 11);
        let mut out = Tensor::filled(Shape::nchw(2, 5, 4, 4), f32::NAN);
        let stats = concat_forward_with_stats_into(&[&a, &b], &mut out).unwrap();
        let plain = crate::concat::concat_forward(&[&a, &b]).unwrap();
        assert!(out.all_close(&plain, 1e-6).unwrap());
        let reference = bn_statistics(&plain, false).unwrap();
        assert!(stats.max_abs_diff(&reference).unwrap() < 1e-4);
    }

    /// A rope is read as the tensor it would be copied into, bit for bit:
    /// statistics, the normalize sweep, the normalization's backward, and
    /// both directions of the fused convolution under each prologue, the
    /// input gradient included.
    #[test]
    fn rope_inputs_give_the_bits_of_their_copy() {
        use crate::batchnorm::{norm_backward_inplace, normalize_sweep_into};
        use bnff_tensor::ChannelRope;
        for isa in test_isas() {
            with_isa(isa, || {
                let (a, b) =
                    (random(Shape::nchw(3, 2, 9, 9), 51), random(Shape::nchw(3, 3, 9, 9), 52));
                let parts = [&a, &b];
                let rope = ChannelRope::new(&parts).unwrap();
                let mut copy = Tensor::zeros(rope.shape());
                rope.copy_into(&mut copy).unwrap();
                for one_pass in [true, false] {
                    let (got, want) = (
                        bn_statistics(rope, one_pass).unwrap(),
                        bn_statistics(&copy, one_pass).unwrap(),
                    );
                    assert_eq!(
                        (bits(&got.mean), bits(&got.var)),
                        (bits(&want.mean), bits(&want.var))
                    );
                }
                let stats = bn_statistics(&copy, true).unwrap();
                let bn = bn_params(5);
                let (mut y_rope, mut y_copy) =
                    (Tensor::zeros(rope.shape()), Tensor::zeros(rope.shape()));
                normalize_sweep_into(rope, &stats, &bn, EPS, true, None, &mut y_rope).unwrap();
                normalize_sweep_into(&copy, &stats, &bn, EPS, true, None, &mut y_copy).unwrap();
                assert_eq!(bits(y_rope.as_slice()), bits(y_copy.as_slice()), "{isa}");

                let d_y = random(rope.shape(), 53);
                let (mut got, mut want) = (d_y.clone(), d_y);
                let got_bn = norm_backward_inplace(&mut got, rope, &stats, &bn, EPS, true).unwrap();
                let want_bn =
                    norm_backward_inplace(&mut want, &copy, &stats, &bn, EPS, true).unwrap();
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "norm backward {isa}");
                assert_eq!(got_bn, want_bn);

                let attrs = Conv2dAttrs::same_3x3(4);
                let wt = random(Shape::nchw(4, 5, 3, 3), 54);
                let d_out = random(Shape::nchw(3, 4, 9, 9), 55);
                for (from_rope, from_copy) in [
                    (ConvInput::Raw(rope), ConvInput::Raw((&copy).into())),
                    (ConvInput::Clip(rope), ConvInput::Clip((&copy).into())),
                    (
                        ConvInput::NormClip { x: rope, stats: &stats, params: &bn, epsilon: EPS },
                        ConvInput::NormClip {
                            x: (&copy).into(),
                            stats: &stats,
                            params: &bn,
                            epsilon: EPS,
                        },
                    ),
                ] {
                    let label = format!("{from_copy:?} under {isa}");
                    let mut want = Tensor::zeros(d_out.shape().clone());
                    fused_conv_forward_into(from_copy, &wt, None, &attrs, true, &mut want).unwrap();
                    let mut got = Tensor::filled(d_out.shape().clone(), f32::NAN);
                    fused_conv_forward_into(from_rope, &wt, None, &attrs, true, &mut got).unwrap();
                    assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{label}");

                    let backward = |input, d_x: &mut Tensor| {
                        fused_conv_backward_into(input, &d_out, &wt, &attrs, false, Some(d_x))
                            .unwrap()
                    };
                    let mut want_dx = Tensor::zeros(rope.shape());
                    let want = backward(from_copy, &mut want_dx);
                    let mut got_dx = Tensor::filled(rope.shape(), f32::NAN);
                    let got = backward(from_rope, &mut got_dx);
                    assert_eq!(bits(got_dx.as_slice()), bits(want_dx.as_slice()), "{label}");
                    assert_eq!(
                        bits(got.d_weights.as_slice()),
                        bits(want.d_weights.as_slice()),
                        "{label}"
                    );
                    assert_eq!(
                        got.d_bn.map(|g| (bits(&g.d_gamma), bits(&g.d_beta))),
                        want.d_bn.map(|g| (bits(&g.d_gamma), bits(&g.d_beta)))
                    );
                }
            });
        }
    }

    #[test]
    fn mismatched_channels_rejected() {
        let attrs = Conv2dAttrs::pointwise(2);
        let raw = random(Shape::nchw(1, 3, 4, 4), 12);
        let w = random(Shape::nchw(2, 3, 1, 1), 13);
        let bn = BnParams::identity(4); // wrong channel count
        let stats = bn_statistics(&raw, false).unwrap();
        assert!(norm_relu_conv_forward(&raw, &stats, &bn, 1e-5, &w, None, &attrs).is_err());
        // Both directions validate the prologue's operands, and a
        // normalizing prologue cannot skip the input gradient.
        let d_out = Tensor::zeros(Shape::nchw(1, 2, 4, 4));
        let bad =
            ConvInput::NormClip { x: (&raw).into(), stats: &stats, params: &bn, epsilon: 1e-5 };
        let mut d_x = Tensor::zeros(raw.shape().clone());
        assert!(fused_conv_backward_into(bad, &d_out, &w, &attrs, false, Some(&mut d_x)).is_err());
        let bn = BnParams::identity(3);
        let good =
            ConvInput::NormClip { x: (&raw).into(), stats: &stats, params: &bn, epsilon: 1e-5 };
        assert!(fused_conv_backward_into(good, &d_out, &w, &attrs, false, None).is_err());
        assert!(fused_conv_backward_into(good, &d_out, &w, &attrs, false, Some(&mut d_x)).is_ok());
        let mut wrong = Tensor::zeros(Shape::nchw(1, 3, 4, 5));
        assert!(
            fused_conv_backward_into(good, &d_out, &w, &attrs, false, Some(&mut wrong)).is_err()
        );
    }
}
