//! Training-mode Batch Normalization kernels.
//!
//! The forward pass computes per-channel mean/variance over the mini-batch
//! (either in the baseline two-pass fashion or the single-pass MVF fashion),
//! then normalizes with the learnable scale γ and shift β. The backward
//! pass produces ∂γ, ∂β and ∂x with the standard BN gradient formulas, in
//! two forms over the same plane helpers:
//!
//! * [`norm_backward_inplace`] keeps nothing from the forward pass: `x̂` —
//!   and, for a clipping normalization, the ReLU mask — is recomputed plane
//!   by plane from the layer's input and the 2×C statistics by
//!   `NormRecompute`, the body the fused convolution's input-gradient
//!   epilogue ([`crate::fused::fused_conv_backward_into`]) runs too. This is
//!   what the train executor calls, with [`normalize_sweep_into`] storing no
//!   `x̂` on the way forward.
//! * [`bn_forward`] / [`bn_backward`] are the stored-`x̂` form
//!   ([`BnForwardState`]) — the reference the recomputed form is
//!   bit-identical to, per ISA.

use crate::error::KernelError;
use crate::vecops;
use crate::Result;
use bnff_parallel::{
    min_items_per_thread, parallel_map_collect, parallel_rows_mut, parallel_rows_mut2,
};
use bnff_tensor::simd::{sum_dot_f64, SimdIsa};
use bnff_tensor::stats::{channel_stats_one_pass, channel_stats_two_pass, ChannelStats};
use bnff_tensor::{active_isa, Tensor};

/// Minimum `(sample, channel)` planes per worker for planes of `plane_len`
/// activations (each costing a few floating-point operations).
pub(crate) fn min_planes_per_thread(plane_len: usize) -> usize {
    min_items_per_thread(plane_len.saturating_mul(4))
}

/// Learnable per-channel parameters of a BN layer.
#[derive(Debug, Clone, PartialEq)]
pub struct BnParams {
    /// Scale γ, one entry per channel.
    pub gamma: Vec<f32>,
    /// Shift β, one entry per channel.
    pub beta: Vec<f32>,
}

impl BnParams {
    /// Identity parameters (γ = 1, β = 0) for `channels` channels.
    pub fn identity(channels: usize) -> Self {
        BnParams { gamma: vec![1.0; channels], beta: vec![0.0; channels] }
    }

    /// Creates parameters from explicit γ and β vectors.
    ///
    /// # Errors
    /// Returns [`KernelError::ShapeMismatch`] when the lengths differ.
    pub fn new(gamma: Vec<f32>, beta: Vec<f32>) -> Result<Self> {
        if gamma.len() != beta.len() {
            return Err(KernelError::ShapeMismatch(format!(
                "gamma has {} channels, beta has {}",
                gamma.len(),
                beta.len()
            )));
        }
        Ok(BnParams { gamma, beta })
    }

    /// Number of channels covered.
    pub fn channels(&self) -> usize {
        self.gamma.len()
    }
}

/// Gradients of a BN layer's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BnParamGrads {
    /// ∂L/∂γ per channel.
    pub d_gamma: Vec<f32>,
    /// ∂L/∂β per channel.
    pub d_beta: Vec<f32>,
}

/// Everything the BN backward pass needs from the forward pass.
#[derive(Debug, Clone)]
pub struct BnForwardState {
    /// The mini-batch statistics used for normalization.
    pub stats: ChannelStats,
    /// The normalized activations `x̂` (before γ/β), kept for the backward
    /// pass exactly like the `O2'` sweep in the paper's Figure 5.
    pub x_hat: Tensor,
}

fn check_channels(x: &Tensor, params: &BnParams) -> Result<usize> {
    x.shape().expect_nchw()?;
    let c = x.shape().c();
    if params.channels() != c {
        return Err(KernelError::ShapeMismatch(format!(
            "input has {c} channels but parameters have {}",
            params.channels()
        )));
    }
    Ok(c)
}

/// Validates the operands of a normalization of `x`, returning its channel
/// count.
pub(crate) fn check_normalize(
    x: &Tensor,
    stats: &ChannelStats,
    params: &BnParams,
    epsilon: f32,
) -> Result<usize> {
    let c = check_channels(x, params)?;
    if stats.channels() != c {
        return Err(KernelError::ShapeMismatch(format!(
            "statistics cover {} channels, input has {c}",
            stats.channels()
        )));
    }
    if epsilon <= 0.0 {
        return Err(KernelError::InvalidArgument("epsilon must be positive".to_string()));
    }
    Ok(c)
}

/// Computes mini-batch statistics, two-pass (baseline) or one-pass (MVF).
///
/// # Errors
/// Returns an error for non-4-D inputs.
pub fn bn_statistics(x: &Tensor, one_pass: bool) -> Result<ChannelStats> {
    let stats = if one_pass { channel_stats_one_pass(x)? } else { channel_stats_two_pass(x)? };
    Ok(stats)
}

/// Normalizes `x` with the given statistics and parameters, returning the
/// output and the pre-γ/β normalized activations.
///
/// # Errors
/// Returns an error if shapes or channel counts disagree.
pub fn bn_normalize(
    x: &Tensor,
    stats: &ChannelStats,
    params: &BnParams,
    epsilon: f32,
) -> Result<(Tensor, Tensor)> {
    let mut y = Tensor::zeros(x.shape().clone());
    let x_hat = bn_normalize_into(x, stats, params, epsilon, &mut y)?;
    Ok((y, x_hat))
}

/// [`bn_normalize`] into a caller-provided output tensor `y`, returning the
/// (freshly allocated) normalized activations `x̂` that the backward pass
/// retains. Every element of `y` is overwritten.
///
/// # Errors
/// Returns an error if shapes or channel counts disagree.
pub fn bn_normalize_into(
    x: &Tensor,
    stats: &ChannelStats,
    params: &BnParams,
    epsilon: f32,
    y: &mut Tensor,
) -> Result<Tensor> {
    let mut x_hat = Tensor::zeros(x.shape().clone());
    normalize_sweep_into(x, stats, params, epsilon, false, Some(&mut x_hat), y)?;
    Ok(x_hat)
}

/// The one batch-wide normalize sweep, behind [`bn_normalize_into`] and a
/// standalone normalization node: writes `y = γ·x̂ + β` — clipped at zero in
/// the same pass when `fuse_relu` — into `y` and, for a caller that keeps
/// it, `x̂ = (x − μ)/√(σ² + ε)` into `x_hat`. Every element of both is
/// overwritten.
///
/// # Errors
/// Returns an error if shapes or channel counts disagree.
pub fn normalize_sweep_into(
    x: &Tensor,
    stats: &ChannelStats,
    params: &BnParams,
    epsilon: f32,
    fuse_relu: bool,
    x_hat: Option<&mut Tensor>,
    y: &mut Tensor,
) -> Result<()> {
    let c = check_normalize(x, stats, params, epsilon)?;
    x.shape().expect_same(y.shape())?;
    let plane_len = (x.shape().h() * x.shape().w()).max(1);
    let src = x.as_slice();
    // One task per `(sample, channel)` plane; `x̂` and `y` are written in
    // lockstep so the feature map is swept once. The ISA is resolved here,
    // on the caller's thread, because pool workers don't inherit the
    // caller's `with_isa` override; workers split on whole planes, so the
    // vectorized sweep stays deterministic across thread counts.
    let isa = active_isa();
    let plane = |p: usize, hat_plane: Option<&mut [f32]>, y_plane: &mut [f32]| {
        let ci = p % c;
        vecops::normalize_plane(
            isa,
            &src[p * plane_len..(p + 1) * plane_len],
            hat_plane,
            y_plane,
            stats.mean[ci],
            inv_std(stats, ci, epsilon),
            params.gamma[ci],
            params.beta[ci],
            fuse_relu,
        );
    };
    let min_planes = min_planes_per_thread(plane_len);
    match x_hat {
        Some(x_hat) => {
            x.shape().expect_same(x_hat.shape())?;
            let (hat, y) = (x_hat.as_mut_slice(), y.as_mut_slice());
            parallel_rows_mut2(hat, plane_len, y, plane_len, min_planes, |first, hat, y| {
                let planes = hat.chunks_mut(plane_len).zip(y.chunks_mut(plane_len));
                for (offset, (hat_plane, y_plane)) in planes.enumerate() {
                    plane(first + offset, Some(hat_plane), y_plane);
                }
            });
        }
        None => parallel_rows_mut(y.as_mut_slice(), plane_len, min_planes, |first, y| {
            for (offset, y_plane) in y.chunks_mut(plane_len).enumerate() {
                plane(first + offset, None, y_plane);
            }
        }),
    }
    Ok(())
}

/// Full BN forward pass: statistics + normalization.
///
/// # Errors
/// Returns an error if shapes or channel counts disagree.
pub fn bn_forward(
    x: &Tensor,
    params: &BnParams,
    epsilon: f32,
    one_pass: bool,
) -> Result<(Tensor, BnForwardState)> {
    let stats = bn_statistics(x, one_pass)?;
    let (y, x_hat) = bn_normalize(x, &stats, params, epsilon)?;
    Ok((y, BnForwardState { stats, x_hat }))
}

/// `1/√(σ² + ε)` of channel `ci` — the one place the normalize sweep, the
/// fused prologue and both backward passes take it from, so a recomputed
/// `x̂` matches the stored one bit for bit.
pub(crate) fn inv_std(stats: &ChannelStats, ci: usize, epsilon: f32) -> f32 {
    1.0 / (stats.var[ci] + epsilon).sqrt()
}

/// BN backward pass over a stored `x̂`.
///
/// Given the upstream gradient `d_y`, the forward state and the parameters,
/// returns `(d_x, parameter gradients)` using the standard training-mode BN
/// gradient:
///
/// `d_x = (γ / √(σ²+ε)) · (d_y − mean(d_y) − x̂ · mean(d_y · x̂))`
///
/// # Errors
/// Returns an error if shapes or channel counts disagree.
pub fn bn_backward(
    d_y: &Tensor,
    state: &BnForwardState,
    params: &BnParams,
    epsilon: f32,
) -> Result<(Tensor, BnParamGrads)> {
    let c = check_channels(d_y, params)?;
    d_y.shape().expect_same(state.x_hat.shape())?;
    let n = d_y.shape().n();
    let plane_len = d_y.shape().h() * d_y.shape().w();
    let isa = active_isa();

    // First reduction: ∂β = Σ d_y, ∂γ = Σ d_y · x̂. One worker partial per
    // channel, each accumulating its planes in mini-batch order, so the
    // result matches a serial sweep bit-for-bit.
    let x_hat = &state.x_hat;
    let sums = parallel_map_collect(c, min_planes_per_thread(n * plane_len), |ci| {
        let (mut sum, mut dot) = (0.0f64, 0.0f64);
        for ni in 0..n {
            let (dy, xh) = (d_y.channel_plane(ni, ci), x_hat.channel_plane(ni, ci));
            sum_dot_f64(isa, dy, xh, &mut sum, &mut dot);
        }
        (sum, dot)
    });

    // Second pass: ∂x over the stored x̂ (`mean 0`, `inv_std 1`).
    let mut d_x = d_y.clone();
    bn_dx_sweep(isa, &mut d_x, x_hat, &sums, |ci| {
        (0.0, 1.0, f64::from(params.gamma[ci]) * f64::from(inv_std(&state.stats, ci, epsilon)))
    });
    Ok((d_x, param_grads(&sums)))
}

/// What a normalization's backward re-derives per `(sample, channel)` plane
/// from the layer's raw input and the 2×C statistics instead of reading it
/// from a stored tensor: `x̂`, `y = γ·x̂ + β` and from it the ReLU mask — in
/// registers, by one [`vecops::norm_grad_plane`] pass per plane, so nothing
/// plane-sized is written but the masked gradient. The one recompute body
/// of its two callers: the standalone [`norm_backward_inplace`] and the
/// fused convolution's input-gradient epilogue
/// ([`crate::fused::fused_conv_backward_into`]).
pub(crate) struct NormRecompute<'a> {
    isa: SimdIsa,
    stats: &'a ChannelStats,
    params: &'a BnParams,
    epsilon: f32,
    relu: bool,
}

impl<'a> NormRecompute<'a> {
    pub(crate) fn new(
        isa: SimdIsa,
        stats: &'a ChannelStats,
        params: &'a BnParams,
        epsilon: f32,
        relu: bool,
    ) -> Self {
        NormRecompute { isa, stats, params, epsilon, relu }
    }

    /// One plane of channel `ci`, up to the reductions: `g` passes ReLU′ in
    /// place (a clipping normalization) and its Σg and Σg·x̂ continue the
    /// channel's running `sums` — called in batch order per channel, which
    /// makes the scalar fold the historical one, bit for bit.
    pub(crate) fn plane(&self, ci: usize, g: &mut [f32], x: &[f32], sums: &mut (f64, f64)) {
        vecops::norm_grad_plane(
            self.isa,
            g,
            x,
            self.stats.mean[ci],
            inv_std(self.stats, ci, self.epsilon),
            self.params.gamma[ci],
            self.params.beta[ci],
            self.relu,
            sums,
        );
    }
}

/// The backward pass of a normalization that stored nothing, in place:
/// `grad` holds the gradient of `y = γ·x̂ + β` (of `max(y, 0)` when `relu`)
/// on entry and `d_x` on return. `x̂` and the ReLU mask are recomputed from
/// the layer's input `x` and its statistics (`NormRecompute`); numerically
/// this is `relu_backward` on the stored `y`, then [`bn_backward`] on a
/// stored `x̂`, per ISA and for any thread count.
///
/// # Errors
/// Returns an error if shapes or channel counts disagree.
pub fn norm_backward_inplace(
    grad: &mut Tensor,
    x: &Tensor,
    stats: &ChannelStats,
    params: &BnParams,
    epsilon: f32,
    relu: bool,
) -> Result<BnParamGrads> {
    let c = check_normalize(x, stats, params, epsilon)?;
    x.shape().expect_same(grad.shape())?;
    let n = x.shape().n();
    let plane_len = (x.shape().h() * x.shape().w()).max(1);
    let isa = active_isa();

    // Mask + reductions: one task per channel, handed that channel's planes
    // of every sample, so its running (Σg, Σg·x̂) folds them in mini-batch
    // order whatever the worker count.
    let mut by_channel: Vec<Vec<&mut [f32]>> = (0..c).map(|_| Vec::with_capacity(n)).collect();
    for (p, g_plane) in grad.as_mut_slice().chunks_mut(plane_len).enumerate() {
        by_channel[p % c].push(g_plane);
    }
    let mut sums = vec![(0.0f64, 0.0f64); c];
    let min_channels = min_planes_per_thread(n * plane_len);
    parallel_rows_mut2(&mut by_channel, 1, &mut sums, 1, min_channels, |first, channels, sums| {
        let recompute = NormRecompute::new(isa, stats, params, epsilon, relu);
        for (offset, (g_planes, sums)) in channels.iter_mut().zip(sums).enumerate() {
            let ci = first + offset;
            for (ni, g_plane) in g_planes.iter_mut().enumerate() {
                recompute.plane(ci, g_plane, x.channel_plane(ni, ci), sums);
            }
        }
    });

    norm_dx_sweep(isa, grad, x, &sums, stats, params, epsilon);
    Ok(param_grads(&sums))
}

/// [`bn_dx_sweep`] over the raw input `x`: `x̂` is recomputed from `stats`.
pub(crate) fn norm_dx_sweep(
    isa: SimdIsa,
    grad: &mut Tensor,
    x: &Tensor,
    sums: &[(f64, f64)],
    stats: &ChannelStats,
    params: &BnParams,
    epsilon: f32,
) {
    bn_dx_sweep(isa, grad, x, sums, |ci| {
        let inv_std = inv_std(stats, ci, epsilon);
        (stats.mean[ci], inv_std, f64::from(params.gamma[ci]) * f64::from(inv_std))
    });
}

/// The BN input-gradient sweep, in place on `grad`, one task per
/// `(sample, channel)` plane: `d_x = scale·(g − mean_g − x̂·mean_gx̂)` from
/// the per-channel `(Σg, Σg·x̂)` in `sums`, with `x̂ = (x − mean)·inv_std`
/// and `(mean, inv_std, scale)` supplied per channel by `channel`.
pub(crate) fn bn_dx_sweep(
    isa: SimdIsa,
    grad: &mut Tensor,
    x: &Tensor,
    sums: &[(f64, f64)],
    channel: impl Fn(usize) -> (f32, f32, f64) + Sync,
) {
    let shape = grad.shape();
    let (c, plane_len) = (shape.c(), shape.h() * shape.w());
    let per_channel = (shape.n() * plane_len) as f64;
    let x_all = x.as_slice();
    parallel_rows_mut(
        grad.as_mut_slice(),
        plane_len.max(1),
        min_planes_per_thread(plane_len),
        |first_plane, block| {
            for (p_local, g_plane) in block.chunks_mut(plane_len.max(1)).enumerate() {
                let p = first_plane + p_local;
                let ci = p % c;
                let (mean, inv_std, scale) = channel(ci);
                let (sum, dot) = sums[ci];
                let x_plane = &x_all[p * plane_len..(p + 1) * plane_len];
                vecops::bn_dx_plane(
                    isa,
                    g_plane,
                    x_plane,
                    mean,
                    inv_std,
                    scale,
                    sum / per_channel,
                    dot / per_channel,
                );
            }
        },
    );
}

/// `(∂γ, ∂β)` from the per-channel `(Σg, Σg·x̂)`.
pub(crate) fn param_grads(sums: &[(f64, f64)]) -> BnParamGrads {
    BnParamGrads {
        d_gamma: sums.iter().map(|&(_, dot)| dot as f32).collect(),
        d_beta: sums.iter().map(|&(sum, _)| sum as f32).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_tensor::init::Initializer;
    use bnff_tensor::Shape;

    fn random(shape: Shape, seed: u64) -> Tensor {
        Initializer::seeded(seed).uniform(shape, -2.0, 2.0)
    }

    #[test]
    fn output_is_normalized_per_channel() {
        let x = random(Shape::nchw(8, 4, 6, 6), 1);
        let params = BnParams::identity(4);
        let (y, _) = bn_forward(&x, &params, 1e-5, false).unwrap();
        let stats = bn_statistics(&y, false).unwrap();
        for ci in 0..4 {
            assert!(stats.mean[ci].abs() < 1e-4, "mean {}", stats.mean[ci]);
            assert!((stats.var[ci] - 1.0).abs() < 1e-2, "var {}", stats.var[ci]);
        }
    }

    #[test]
    fn gamma_beta_are_applied() {
        let x = random(Shape::nchw(4, 2, 4, 4), 2);
        let params = BnParams::new(vec![2.0, 0.5], vec![1.0, -1.0]).unwrap();
        let (y, state) = bn_forward(&x, &params, 1e-5, false).unwrap();
        let expected = state.x_hat.clone();
        for ni in 0..4 {
            for (ci, (g, b)) in [(2.0f32, 1.0f32), (0.5, -1.0)].iter().enumerate() {
                for (yv, xv) in
                    y.channel_plane(ni, ci).iter().zip(expected.channel_plane(ni, ci).iter())
                {
                    assert!((yv - (g * xv + b)).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn one_pass_and_two_pass_agree() {
        let x = random(Shape::nchw(6, 5, 7, 7), 3);
        let params = BnParams::identity(5);
        let (y1, _) = bn_forward(&x, &params, 1e-5, false).unwrap();
        let (y2, _) = bn_forward(&x, &params, 1e-5, true).unwrap();
        assert!(y1.all_close(&y2, 1e-4).unwrap());
    }

    #[test]
    fn channel_mismatch_is_rejected() {
        let x = random(Shape::nchw(2, 3, 4, 4), 4);
        let params = BnParams::identity(5);
        assert!(bn_forward(&x, &params, 1e-5, false).is_err());
        assert!(BnParams::new(vec![1.0], vec![0.0, 0.0]).is_err());
    }

    #[test]
    fn invalid_epsilon_is_rejected() {
        let x = random(Shape::nchw(2, 3, 4, 4), 4);
        let params = BnParams::identity(3);
        let stats = bn_statistics(&x, false).unwrap();
        assert!(bn_normalize(&x, &stats, &params, 0.0).is_err());
    }

    #[test]
    fn normalize_into_matches_allocating_path() {
        let x = random(Shape::nchw(2, 3, 4, 4), 9);
        let params = BnParams::identity(3);
        let stats = bn_statistics(&x, false).unwrap();
        let (y_ref, xh_ref) = bn_normalize(&x, &stats, &params, 1e-5).unwrap();
        let mut y = Tensor::filled(x.shape().clone(), f32::NAN);
        let xh = bn_normalize_into(&x, &stats, &params, 1e-5, &mut y).unwrap();
        assert_eq!(y.as_slice(), y_ref.as_slice());
        assert_eq!(xh.as_slice(), xh_ref.as_slice());
        let mut bad = Tensor::zeros(Shape::nchw(1, 3, 4, 4));
        assert!(bn_normalize_into(&x, &stats, &params, 1e-5, &mut bad).is_err());
    }

    #[test]
    fn backward_param_grads_match_reductions() {
        let x = random(Shape::nchw(3, 2, 4, 4), 5);
        let params = BnParams::new(vec![1.5, 0.7], vec![0.2, -0.3]).unwrap();
        let (_, state) = bn_forward(&x, &params, 1e-5, false).unwrap();
        let d_y = random(x.shape().clone(), 6);
        let (_, grads) = bn_backward(&d_y, &state, &params, 1e-5).unwrap();
        // d_beta must equal the plain per-channel sum of d_y.
        for ci in 0..2 {
            let mut expected = 0.0f64;
            for ni in 0..3 {
                expected += d_y.channel_plane(ni, ci).iter().map(|&v| f64::from(v)).sum::<f64>();
            }
            assert!((f64::from(grads.d_beta[ci]) - expected).abs() < 1e-3);
        }
    }

    /// Full numerical gradient check of the BN backward pass.
    #[test]
    fn gradient_check() {
        let x = random(Shape::nchw(2, 2, 3, 3), 7);
        let params = BnParams::new(vec![1.2, 0.8], vec![0.1, -0.2]).unwrap();
        let eps_bn = 1e-3f32;
        let g = random(x.shape().clone(), 8);

        let loss = |input: &Tensor| -> f64 {
            let (y, _) = bn_forward(input, &params, eps_bn, false).unwrap();
            y.as_slice().iter().zip(g.as_slice()).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum()
        };

        let (_, state) = bn_forward(&x, &params, eps_bn, false).unwrap();
        let (d_x, _) = bn_backward(&g, &state, &params, eps_bn).unwrap();

        let h = 1e-2f32;
        for &idx in &[0usize, 5, 11, 17, 23, 31] {
            let mut xp = x.clone();
            xp.set(idx, x.get(idx).unwrap() + h).unwrap();
            let mut xm = x.clone();
            xm.set(idx, x.get(idx).unwrap() - h).unwrap();
            let numeric = (loss(&xp) - loss(&xm)) / (2.0 * f64::from(h));
            let analytic = f64::from(d_x.get(idx).unwrap());
            assert!(
                (numeric - analytic).abs() < 5e-2,
                "d_x[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn identity_params_constructor() {
        let p = BnParams::identity(3);
        assert_eq!(p.gamma, vec![1.0, 1.0, 1.0]);
        assert_eq!(p.beta, vec![0.0, 0.0, 0.0]);
        assert_eq!(p.channels(), 3);
    }
}
