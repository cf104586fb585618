//! 2-D convolution kernels: the forward pass, the backward passes with
//! respect to the inputs and the weights, and the direct loop-nest
//! reference.
//!
//! No kernel here writes a `(C·Kh·Kw) × (Ho·Wo)` column matrix. All three
//! passes read their windows through one [`Im2colView`] — two GEMMs and,
//! where the view's windows lie in place, a correlation:
//!
//! * **forward** — `out_n = W · im2col(x_n)`, bias/ReLU (and, for the fused
//!   `CONV1-(sub-BN1)` layer, the Σx/Σx² accumulation) applied per sample
//!   while the output is cache-hot;
//! * **weight gradient** — `d_W += d_out_n · im2col(x_n)ᵀ`, summed across a
//!   group's samples in batch order. Its reduction axis — the output
//!   positions — is the contiguous axis of both `d_out_n` and the windows
//!   of a view that reads in place, so there it is a register-tiled
//!   correlation of the two operands where they lie (`crate::correlate`):
//!   no pack, no transpose. A strided or ragged-width view keeps the GEMM
//!   over the transposed form of its windows;
//! * **input gradient**, stride 1 — `d_x_n (+)= W_rot · im2col(d_out_n)`
//!   with padding `K − 1 − pad`: a forward convolution of the output
//!   gradient with the 180°-rotated, channel-transposed weights, run by
//!   the same per-sample body as the forward pass (`conv_samples`). A
//!   strided convolution (or `pad > K − 1`) has no such form and keeps
//!   `d_col = Wᵀ · d_out_n` scattered by [`col2im_accumulate`]; which of
//!   the two runs is decided from the attributes alone.
//!
//! ## What is staged, what is packed, what is read in place
//!
//! *Staged.* Padding is a border, and nothing else: a convolution with
//! `pad ≠ 0` stages every sample it reads — in all three GEMMs, at any
//! stride and width — in a pooled `C × (H + 2·pad_h) × (W + 2·pad_w)`
//! scratch (`Staging`) whose zero border is laid once per take (the scratch
//! is recycled dirty), and hands the GEMM — or the correlation — the view
//! of those windows over the bordered copy, where none of them is clipped
//! (`Windows::staged` is the rule; an [`Im2colView`] has no padding to
//! express). For a
//! [`ConvInput`] prologue the staging *is* the copy the prologue makes
//! anyway, written into the interior one plane per call
//! (`vecops::stage_plane` walks the plane's rows itself, so a 32-wide row
//! costs no dispatched sweep call of its own) — so the padding comes after
//! the prologue, as `max(γ·(0 − μ)/σ + β, 0) ≠ 0` requires; a raw input
//! pays `1.1×` its sample. An unpadded convolution (pointwise,
//! `valid`) without a prologue stages nothing and is read from the
//! caller's tensor. The forward pass and the input gradient hold one
//! scratch per call, the weight gradient one per sample group.
//!
//! *Packed once per call.* The forward pass and the stride-1 input gradient
//! are one multiply per sample by the *same* left operand, so that
//! operand's panels (`W`, or `W_rot`) are packed once (`gemm::Im2colGemm`).
//!
//! *Read in place, or gathered.* When the view has stride 1 and an output
//! width that is a multiple of 8 (every convolution of the CIFAR models),
//! the GEMM's microkernel reads the windows of the staged sample where they
//! lie, and the weight gradient packs nothing at all: its correlation reads
//! both the windows and `d_out_n` in place. Strided or ragged-width views
//! go through the GEMM's gather packer, which expands the same pad-free
//! windows — transposed, for the weight gradient. For the two GEMMs none of
//! this shows in a result: the multiply consumes the same bits in the same
//! order either way. The weight gradient's two forms sum a sample's
//! positions in different orders (`crate::correlate` states its own); which
//! one runs is decided by the view's shape alone, never by a thread count.
//!
//! The two passes that read the input feature map take it as a
//! [`ConvInput`] and ask it for one sample at a time: the borrowed slice, or
//! — the paper's RCF and `(sub-BN2)-ReLU` prologues — that sample clipped or
//! normalized+clipped into the L2-sized staging scratch right before the
//! GEMM reads it, so no batch-wide transformed copy is ever written.
//! The input gradient mirrors the forward epilogue: a per-sample hook runs
//! on each freshly written `d_x_n` while it is cache-hot
//! ([`crate::fused::fused_conv_backward_into`] hangs the ReLU mask and the
//! ∂γ/∂β reductions there).
//!
//! The direct path partitions work over `(sample, out_channel)` output
//! planes, the GEMM paths inherit the GEMM's row-block partitioning, and
//! the weight gradient reduces per-group partials with a deterministic
//! tree — so all paths scale across `BNFF_THREADS` cores while producing
//! thread-count-independent results.

use crate::batchnorm::{check_normalize, inv_std, BnParams};
use crate::correlate::WindowCorrelation;
use crate::error::KernelError;
use crate::gemm::{gemm_nt_im2col_acc, gemm_tn, Im2colGemm, Im2colView};
use crate::im2col::{col2im_accumulate, col_shape, conv_out_hw, conv_out_shape};
use crate::vecops::{self, StageOp};
use crate::Result;
use bnff_graph::op::Conv2dAttrs;
use bnff_parallel::{chunk_ranges, min_items_per_thread, parallel_reduce, parallel_rows_mut};
use bnff_tensor::pool::SharedBufferPool;
use bnff_tensor::simd::SimdIsa;
use bnff_tensor::stats::{ChannelAccumulator, ChannelStats};
use bnff_tensor::{Shape, Tensor};

/// Per-call scratch recycled across calls and steps: the staged sample of a
/// padded convolution or of a [`ConvInput`] prologue (`Staging`), the
/// rotated weights, and the `d_col` of the strided input gradient (the one
/// path that materializes a column matrix).
static COL_POOL: SharedBufferPool = SharedBufferPool::bounded(64 << 20);

/// The input feature map of a convolution together with what is applied to
/// it while it is read — 1:1 with [`bnff_graph::op::ConvPrologue`].
#[derive(Debug, Clone, Copy)]
pub enum ConvInput<'a> {
    /// The tensor as is: every sample is borrowed, nothing is copied.
    Raw(&'a Tensor),
    /// RCF: the tensor clipped at zero.
    Clip(&'a Tensor),
    /// `(sub-BN2)-ReLU`: `max(γ·(x − μ)/√(σ² + ε) + β, 0)`.
    NormClip {
        /// The raw activations.
        x: &'a Tensor,
        /// The statistics `x` is normalized with.
        stats: &'a ChannelStats,
        /// The γ/β applied after normalization.
        params: &'a BnParams,
        /// The ε under the square root.
        epsilon: f32,
    },
}

impl<'a> ConvInput<'a> {
    /// The tensor the prologue is applied to.
    pub fn tensor(&self) -> &'a Tensor {
        match *self {
            ConvInput::Raw(x) | ConvInput::Clip(x) | ConvInput::NormClip { x, .. } => x,
        }
    }

    fn check(&self) -> Result<()> {
        if let ConvInput::NormClip { x, stats, params, epsilon } = *self {
            check_normalize(x, stats, params, epsilon)?;
        }
        Ok(())
    }

    /// The `(C, H, W)` of one sample.
    fn sample_dims(&self) -> (usize, usize, usize) {
        let shape = self.tensor().shape();
        (shape.c(), shape.h(), shape.w())
    }

    /// Whether the convolution reads a transformed copy of each sample.
    fn transforms(&self) -> bool {
        !matches!(self, ConvInput::Raw(_))
    }

    /// Sample `ni` of the untransformed tensor.
    pub(crate) fn raw_sample(&self, ni: usize) -> &'a [f32] {
        let x = self.tensor();
        let len = x.len() / x.shape().n().max(1);
        &x.as_slice()[ni * len..(ni + 1) * len]
    }

    /// Sample `ni` as the convolution reads it: the borrowed slice (`stage`
    /// is `None`), or the sample written plane by plane into `stage` —
    /// copied, clipped or normalized+clipped (the normalize sweep's
    /// arithmetic per ISA, minus the `x̂` store; per element it does not
    /// depend on where a row starts).
    fn sample<'s>(&self, isa: SimdIsa, ni: usize, stage: Option<&'s mut Staging>) -> &'s [f32]
    where
        'a: 's,
    {
        let src = self.raw_sample(ni);
        let Some(stage) = stage else { return src };
        match *self {
            ConvInput::Raw(_) => stage.write(isa, src, |_| StageOp::Copy),
            ConvInput::Clip(_) => stage.write(isa, src, |_| StageOp::Relu),
            // `1/σ` once per plane.
            ConvInput::NormClip { stats, params, epsilon, .. } => {
                stage.write(isa, src, |ci| StageOp::NormClip {
                    mean: stats.mean[ci],
                    inv_std: inv_std(stats, ci, epsilon),
                    gamma: params.gamma[ci],
                    beta: params.beta[ci],
                })
            }
        }
    }
}

/// The windows one of the per-sample convolution GEMMs reads: the filter
/// extent, the stride, the zero padding `(rows, columns)` around every plane
/// and the `(Ho, Wo)` map of window positions.
#[derive(Debug, Clone, Copy)]
struct Windows {
    kernel: (usize, usize),
    stride: usize,
    pad: (usize, usize),
    out: (usize, usize),
}

impl Windows {
    /// The windows of the forward convolution `attrs` producing `out`.
    fn of(attrs: &Conv2dAttrs, out: (usize, usize)) -> Self {
        Windows {
            kernel: (attrs.kernel_h, attrs.kernel_w),
            stride: attrs.stride,
            pad: (attrs.pad, attrs.pad),
            out,
        }
    }

    /// How the GEMM sees a `(C, H, W)` sample. Padding is a border: the
    /// sample is staged with every plane inside a zero border of `pad`
    /// rows and columns ([`Staging::take`]), and the view names these
    /// windows over that `C × (H + 2·pad.0) × (W + 2·pad.1)` copy, where
    /// none of them is clipped — over the sample as it is when there is no
    /// padding. The view's `sample` is the caller's to set.
    fn staged(&self, (channels, h, w): (usize, usize, usize)) -> Im2colView<'static> {
        Im2colView {
            sample: &[],
            channels,
            in_h: h + 2 * self.pad.0,
            in_w: w + 2 * self.pad.1,
            kernel_h: self.kernel.0,
            kernel_w: self.kernel.1,
            stride: self.stride,
            out_h: self.out.0,
            out_w: self.out.1,
        }
    }
}

/// The pooled scratch one sample is staged in before a GEMM reads it: `C`
/// planes of `H × W` values, each inside a zero border of `border.0` rows
/// and `border.1` columns — the convolution's padding, made real (see
/// [`Windows::staged`]). The border is laid once, on take — the buffer is
/// recycled dirty — and every [`Staging::write`] fills exactly the
/// interior, plane by plane. Without a border this is the plain `C·H·W`
/// scratch of a [`ConvInput`] prologue.
struct Staging {
    dims: (usize, usize, usize),
    border: (usize, usize),
    buf: Vec<f32>,
}

impl Staging {
    /// Scratch for `dims = (C, H, W)` samples inside `border`, or `None`
    /// when there is nothing to stage: no border and no transformation, so
    /// the GEMM reads the caller's sample itself.
    fn take(dims: (usize, usize, usize), border: (usize, usize), transforms: bool) -> Option<Self> {
        if border == (0, 0) && !transforms {
            return None;
        }
        let (c, h, w) = dims;
        let len = c * (h + 2 * border.0) * (w + 2 * border.1);
        Some(Staging::bordered(dims, border, COL_POOL.take_dirty(len)))
    }

    /// The dirty buffer `buf` as the scratch, its zero border laid.
    fn bordered(dims: (usize, usize, usize), border: (usize, usize), mut buf: Vec<f32>) -> Self {
        let (_, h, w) = dims;
        let (rows, cols) = (h + 2 * border.0, w + 2 * border.1);
        if border != (0, 0) {
            let first = border.0 * cols + border.1;
            for plane in buf.chunks_exact_mut(rows * cols) {
                // Zero everything between the interior row segments.
                let mut at = 0;
                for r in 0..h {
                    plane[at..first + r * cols].fill(0.0);
                    at = first + r * cols + w;
                }
                plane[at..].fill(0.0);
            }
        }
        Staging { dims, border, buf }
    }

    /// Writes one sample, plane `ci` through `op(ci)` by one
    /// [`vecops::stage_plane`] call that walks the plane's interior rows,
    /// and returns the staged sample.
    fn write(&mut self, isa: SimdIsa, src: &[f32], op: impl Fn(usize) -> StageOp) -> &[f32] {
        let ((_, h, w), (bh, bw)) = (self.dims, self.border);
        let (rows, cols) = (h + 2 * bh, w + 2 * bw);
        let first = bh * cols + bw;
        let planes = src.chunks_exact((h * w).max(1)).zip(self.buf.chunks_exact_mut(rows * cols));
        for (ci, (x_plane, plane)) in planes.enumerate() {
            vecops::stage_plane(isa, op(ci), x_plane, &mut plane[first..], (h, w), cols);
        }
        &self.buf
    }
}

impl Drop for Staging {
    fn drop(&mut self) {
        COL_POOL.give(std::mem::take(&mut self.buf));
    }
}

/// Validates the weight tensor layout `(Cout, Cin, Kh, Kw)` against the
/// input channels and attributes, returning `(in_c, out_h, out_w)`.
fn check_conv(
    input: &Tensor,
    weights: &Tensor,
    attrs: &Conv2dAttrs,
) -> Result<(usize, usize, usize)> {
    weights.shape().expect_nchw()?;
    let (out_h, out_w) = conv_out_hw(input.shape(), attrs)?;
    let in_c = input.shape().c();
    let ws = weights.shape();
    if ws.n() != attrs.out_channels
        || ws.c() != in_c
        || ws.h() != attrs.kernel_h
        || ws.w() != attrs.kernel_w
    {
        return Err(KernelError::ShapeMismatch(format!(
            "weights {} do not match attrs (oc {}, ic {}, k {}x{})",
            ws, attrs.out_channels, in_c, attrs.kernel_h, attrs.kernel_w
        )));
    }
    Ok((in_c, out_h, out_w))
}

/// Checks that `tensor` (the forward output, or the gradient flowing back
/// into it) has exactly the shape the convolution produces for `input`.
fn check_conv_output(
    what: &str,
    tensor: &Tensor,
    input: &Shape,
    attrs: &Conv2dAttrs,
    (out_h, out_w): (usize, usize),
) -> Result<()> {
    let expected = Shape::nchw(input.n(), attrs.out_channels, out_h, out_w);
    if tensor.shape() != &expected {
        return Err(KernelError::ShapeMismatch(format!(
            "{what} is {}, convolution produces {expected}",
            tensor.shape()
        )));
    }
    Ok(())
}

fn check_bias(bias: Option<&[f32]>, attrs: &Conv2dAttrs) -> Result<()> {
    if let Some(b) = bias {
        if b.len() != attrs.out_channels {
            return Err(KernelError::ShapeMismatch(format!(
                "bias has {} entries, expected {}",
                b.len(),
                attrs.out_channels
            )));
        }
    }
    Ok(())
}

/// Direct (loop-nest) convolution forward pass.
///
/// Weight layout is `(Cout, Cin, Kh, Kw)`; an optional per-output-channel
/// bias of length `Cout` may be provided.
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn conv2d_forward_direct(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
) -> Result<Tensor> {
    let (in_c, out_h, out_w) = check_conv(input, weights, attrs)?;
    check_bias(bias, attrs)?;
    let mut out = Tensor::zeros(conv_out_shape(input.shape(), attrs)?);
    let (h, w) = (input.shape().h(), input.shape().w());
    // One task per `(sample, out_channel)` output plane; every plane is a
    // disjoint contiguous run of the NCHW output buffer.
    let plane_len = out_h * out_w;
    let plane_macs = plane_len * in_c * attrs.kernel_h * attrs.kernel_w;
    let min_planes = min_items_per_thread(plane_macs);
    parallel_rows_mut(out.as_mut_slice(), plane_len, min_planes, |first_plane, block| {
        for (p_local, out_plane) in block.chunks_mut(plane_len).enumerate() {
            let p = first_plane + p_local;
            let ni = p / attrs.out_channels;
            let oc = p % attrs.out_channels;
            let bias_v = bias.map(|b| b[oc]).unwrap_or(0.0);
            for oh in 0..out_h {
                for ow in 0..out_w {
                    let mut acc = bias_v;
                    for ic in 0..in_c {
                        let plane = input.channel_plane(ni, ic);
                        for kh in 0..attrs.kernel_h {
                            let ih = (oh * attrs.stride + kh) as isize - attrs.pad as isize;
                            if ih < 0 || ih as usize >= h {
                                continue;
                            }
                            for kw in 0..attrs.kernel_w {
                                let iw = (ow * attrs.stride + kw) as isize - attrs.pad as isize;
                                if iw < 0 || iw as usize >= w {
                                    continue;
                                }
                                acc += plane[ih as usize * w + iw as usize]
                                    * weights.at(oc, ic, kh, kw);
                            }
                        }
                    }
                    out_plane[oh * out_w + ow] = acc;
                }
            }
        }
    });
    Ok(out)
}

/// The production convolution forward pass: each sample is one GEMM
/// `out_n = W · im2col(x_n)` that reads the windows where they lie or
/// gathers them while packing (see [`Im2colView`]), so no column matrix is
/// written. Pointwise (`1×1`/stride-1/no-pad) convolutions are the
/// degenerate case — each input sample already *is* the operand.
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn conv2d_forward(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
) -> Result<Tensor> {
    let mut out = Tensor::zeros(conv_out_shape(input.shape(), attrs)?);
    conv2d_forward_into(input, weights, bias, attrs, &mut out)?;
    Ok(out)
}

/// [`conv2d_forward`] into a caller-provided output tensor (every element
/// is overwritten — the packed GEMM's `beta == 0` path never reads the
/// recycled buffer). This is the one entry point the plan-driven executor,
/// the serving tape and the fused kernels route their convolutions through.
///
/// # Errors
/// Returns an error if the shapes (including `out`'s) are inconsistent.
pub fn conv2d_forward_into(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
    out: &mut Tensor,
) -> Result<()> {
    conv_forward(ConvInput::Raw(input), weights, bias, attrs, false, None, out)
}

/// Inference entry point for the frozen graph's fused `CONV+ReLU` operator:
/// [`conv2d_forward_into`] that clamps each output sample to `max(·, 0)`
/// while the written tile is still cache-hot, so the frozen graph pays no
/// separate ReLU sweep.
///
/// # Errors
/// Returns an error if the shapes (including `out`'s) are inconsistent.
pub fn conv2d_forward_relu_into(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
    out: &mut Tensor,
) -> Result<()> {
    conv_forward(ConvInput::Raw(input), weights, bias, attrs, true, None, out)
}

/// The per-sample epilogue's bias add and optional fused ReLU clamp, applied
/// to one sample's run of output planes.
fn apply_bias_relu(out_slice: &mut [f32], bias: Option<&[f32]>, cols: usize, fuse_relu: bool) {
    // Runs on the caller's thread, so resolving the ISA here honours any
    // scoped `with_isa` override. Add and clamp are bit-identical across
    // ISAs, so this never perturbs the conv results.
    let isa = bnff_tensor::active_isa();
    if let Some(b) = bias {
        for (oc, &bv) in b.iter().enumerate() {
            crate::vecops::add_scalar(isa, &mut out_slice[oc * cols..(oc + 1) * cols], bv);
        }
    }
    if fuse_relu {
        crate::vecops::relu_inplace(isa, out_slice);
    }
}

/// The per-sample loop behind the forward pass and the stride-1 input
/// gradient: `out_n = beta · out_n + A · im2col(x_n)` for every sample of
/// `input` — `A` is `m × (C·Kh·Kw)`, its panels packed once for all samples;
/// `x_n` is staged inside its zero border and through `input`'s prologue,
/// or borrowed when neither applies — then `epilogue(n, out_n)` on the
/// cache-hot result, in sample order, on the calling thread.
fn conv_samples(
    input: ConvInput<'_>,
    m: usize,
    a: &[f32],
    windows: &Windows,
    beta: f32,
    out: &mut [f32],
    mut epilogue: impl FnMut(usize, &mut [f32]),
) -> Result<()> {
    let dims = input.sample_dims();
    let gemm = Im2colGemm::new(m, a, &windows.staged(dims))?;
    let mut stage = Staging::take(dims, windows.pad, input.transforms());
    let isa = bnff_tensor::active_isa();
    let out_len = m * windows.out.0 * windows.out.1;
    for ni in 0..input.tensor().shape().n() {
        let sample = input.sample(isa, ni, stage.as_mut());
        let out_n = &mut out[ni * out_len..(ni + 1) * out_len];
        gemm.run(sample, 1.0, beta, out_n)?;
        epilogue(ni, out_n);
    }
    Ok(())
}

/// The one convolution forward body behind every entry point: per sample,
/// the prologue of `input`, one GEMM (module docs: what it packs and what it
/// reads in place), then the epilogue on the cache-hot output — bias, the
/// frozen graph's ReLU clamp, and (the `CONV1-(sub-BN1)` accumulation) a
/// push of the sample's output planes into `stats`, two channels at a time
/// and in sample order, so the sums are bit-identical to
/// [`ChannelAccumulator::from_tensor`] on `out`.
pub(crate) fn conv_forward(
    input: ConvInput<'_>,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
    fuse_relu: bool,
    mut stats: Option<&mut ChannelAccumulator>,
    out: &mut Tensor,
) -> Result<()> {
    input.check()?;
    let x = input.tensor();
    let (_, out_h, out_w) = check_conv(x, weights, attrs)?;
    check_bias(bias, attrs)?;
    check_conv_output("output tensor", out, x.shape(), attrs, (out_h, out_w))?;
    let cols = out_h * out_w;
    // out_n = W (Cout x C·Kh·Kw, row-major by construction) · im2col(x_n)
    let windows = Windows::of(attrs, (out_h, out_w));
    let (m, w_mat) = (attrs.out_channels, weights.as_slice());
    conv_samples(input, m, w_mat, &windows, 0.0, out.as_mut_slice(), |_, out_n| {
        apply_bias_relu(out_n, bias, cols, fuse_relu);
        if let Some(acc) = stats.as_deref_mut() {
            acc.push_sample(out_n);
            acc.add_count(cols);
        }
    })
}

/// Gradient of the convolution with respect to its input.
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn conv2d_backward_input(
    d_out: &Tensor,
    weights: &Tensor,
    input_shape: &Shape,
    attrs: &Conv2dAttrs,
) -> Result<Tensor> {
    let mut d_input = Tensor::zeros(input_shape.clone());
    conv2d_backward_input_into(d_out, weights, attrs, &mut d_input)?;
    Ok(d_input)
}

/// `W_rot[ci][co][kh][kw] = W[co][ci][Kh−1−kh][Kw−1−kw]`: the weights of the
/// forward convolution that maps `d_out` to `d_input` at stride 1, as the
/// row-major `C_in × (C_out·Kh·Kw)` matrix its GEMM multiplies by.
fn rotated_weights(weights: &Tensor) -> Vec<f32> {
    let ws = weights.shape();
    let (out_c, in_c, taps) = (ws.n(), ws.c(), ws.h() * ws.w());
    let w = weights.as_slice();
    // Every element is written below.
    let mut rot = COL_POOL.take_dirty(w.len());
    for co in 0..out_c {
        for ci in 0..in_c {
            let src = &w[(co * in_c + ci) * taps..][..taps];
            let dst = &mut rot[(ci * out_c + co) * taps..][..taps];
            // Reversing the flattened taps is the 180° rotation.
            for (d, s) in dst.iter_mut().zip(src.iter().rev()) {
                *d = *s;
            }
        }
    }
    rot
}

/// [`conv2d_backward_input`] accumulating into a caller-provided gradient
/// tensor (whose shape is the convolution's input shape). The gradient is
/// *added* to `d_input`, so callers wanting the plain gradient must pass a
/// zero-filled tensor — e.g. one taken from a
/// [`bnff_tensor::pool::BufferPool`].
///
/// At stride 1 (with `pad ≤ K − 1`) each sample is one GEMM
/// `d_x_n += W_rot · im2col(d_out_n)` — a forward convolution of the output
/// gradient with the rotated weights at padding `K − 1 − pad`, its windows
/// read the way the forward pass reads its own, with no `d_col` and no
/// scatter.
/// Otherwise `d_col = Wᵀ · d_out_n` is scattered back by
/// [`col2im_accumulate`].
///
/// # Errors
/// Returns [`KernelError::ShapeMismatch`] when `weights` or `d_out` do not
/// match what the convolution over `d_input`'s shape consumes and produces.
pub fn conv2d_backward_input_into(
    d_out: &Tensor,
    weights: &Tensor,
    attrs: &Conv2dAttrs,
    d_input: &mut Tensor,
) -> Result<()> {
    backward_input(d_out, weights, attrs, false, d_input, |_, _| {})
}

/// The one input-gradient body: [`conv2d_backward_input_into`] that either
/// adds to `d_input` or — `overwrite` — replaces it (no element is read, so
/// a dirty recycled buffer is fine), and runs `epilogue(ni, d_x_n)` on each
/// sample's gradient right after it is complete, in sample order, on the
/// calling thread — the mirror of the forward pass's per-sample epilogue.
pub(crate) fn backward_input(
    d_out: &Tensor,
    weights: &Tensor,
    attrs: &Conv2dAttrs,
    overwrite: bool,
    d_input: &mut Tensor,
    epilogue: impl FnMut(usize, &mut [f32]),
) -> Result<()> {
    let (_, out_h, out_w) = check_conv(d_input, weights, attrs)?;
    check_conv_output("d_out", d_out, d_input.shape(), attrs, (out_h, out_w))?;
    if attrs.stride == 1 && attrs.pad < attrs.kernel_h.min(attrs.kernel_w) {
        backward_input_rotated(d_out, weights, attrs, overwrite, d_input, epilogue)
    } else {
        backward_input_strided(d_out, weights, attrs, overwrite, d_input, epilogue)
    }
}

/// Stride-1 input gradient: per sample, `d_x_n (+)= W_rot · im2col(d_out_n)`
/// — the forward body over `d_out` with the rotated weights, padding
/// `K − 1 − pad` per axis and the input's extent as the output map.
fn backward_input_rotated(
    d_out: &Tensor,
    weights: &Tensor,
    attrs: &Conv2dAttrs,
    overwrite: bool,
    d_input: &mut Tensor,
    epilogue: impl FnMut(usize, &mut [f32]),
) -> Result<()> {
    let windows = Windows {
        kernel: (attrs.kernel_h, attrs.kernel_w),
        stride: 1,
        pad: (attrs.kernel_h - 1 - attrs.pad, attrs.kernel_w - 1 - attrs.pad),
        out: (d_input.shape().h(), d_input.shape().w()),
    };
    let (in_c, beta) = (d_input.shape().c(), if overwrite { 0.0 } else { 1.0 });
    let w_rot = rotated_weights(weights);
    let d_x = d_input.as_mut_slice();
    let done = conv_samples(ConvInput::Raw(d_out), in_c, &w_rot, &windows, beta, d_x, epilogue);
    COL_POOL.give(w_rot);
    done
}

/// Strided input gradient: per sample, `d_col = Wᵀ · d_out_n` scattered
/// back by [`col2im_accumulate`] (onto zeros when overwriting).
fn backward_input_strided(
    d_out: &Tensor,
    weights: &Tensor,
    attrs: &Conv2dAttrs,
    overwrite: bool,
    d_input: &mut Tensor,
    mut epilogue: impl FnMut(usize, &mut [f32]),
) -> Result<()> {
    let (rows, cols) = col_shape(d_input.shape(), attrs)?;
    let d_out_len = attrs.out_channels * cols;
    let sample_len = d_input.len() / d_input.shape().n().max(1);
    // One recycled gradient column matrix serves every sample (the packed
    // gemm_tn overwrites it without reading it).
    let mut d_col = COL_POOL.take_dirty(rows * cols);
    for ni in 0..d_input.shape().n() {
        // d_col (rows x cols) = Wᵀ (rows x Cout) · d_out_sample (Cout x cols)
        let d_out_n = &d_out.as_slice()[ni * d_out_len..(ni + 1) * d_out_len];
        gemm_tn(rows, cols, attrs.out_channels, weights.as_slice(), d_out_n, &mut d_col)?;
        if overwrite {
            d_input.as_mut_slice()[ni * sample_len..(ni + 1) * sample_len].fill(0.0);
        }
        col2im_accumulate(&d_col, d_input, ni, attrs)?;
        epilogue(ni, &mut d_input.as_mut_slice()[ni * sample_len..(ni + 1) * sample_len]);
    }
    COL_POOL.give(d_col);
    Ok(())
}

/// Gradient of the convolution with respect to its weights (and bias when
/// `with_bias` is set).
///
/// Returns `(d_weights, d_bias)`, where `d_bias` is empty when `with_bias`
/// is `false`.
///
/// # Errors
/// Returns [`KernelError::ShapeMismatch`] when `d_out` is not the shape the
/// convolution produces for `input`.
pub fn conv2d_backward_weights(
    input: &Tensor,
    d_out: &Tensor,
    attrs: &Conv2dAttrs,
    with_bias: bool,
) -> Result<(Tensor, Vec<f32>)> {
    backward_weights(ConvInput::Raw(input), d_out, attrs, with_bias)
}

/// The one weight-gradient body: [`conv2d_backward_weights`] against the
/// input as the forward pass read it, each group transforming its samples
/// into its own pooled scratch.
pub(crate) fn backward_weights(
    input: ConvInput<'_>,
    d_out: &Tensor,
    attrs: &Conv2dAttrs,
    with_bias: bool,
) -> Result<(Tensor, Vec<f32>)> {
    input.check()?;
    let x = input.tensor();
    let out_hw = conv_out_hw(x.shape(), attrs)?;
    check_conv_output("d_out", d_out, x.shape(), attrs, out_hw)?;
    let n = x.shape().n();
    let in_dims = (x.shape().c(), x.shape().h(), x.shape().w());
    let (rows, cols) = (in_dims.0 * attrs.kernel_h * attrs.kernel_w, out_hw.0 * out_hw.1);
    let d_w_shape = Shape::nchw(attrs.out_channels, in_dims.0, attrs.kernel_h, attrs.kernel_w);
    // Samples are grouped into a bounded number of chunks fixed by the
    // problem (never by the thread count): each chunk accumulates its
    // samples serially in batch order into one (d_W, d_bias) partial, and
    // the partials combine with a deterministic tree. Bounding the chunk
    // count caps transient memory at MAX_WGRAD_PARTIALS weight buffers
    // whatever the batch size. The gathering GEMM inside each partial runs
    // serially when this level already fans out, and in parallel when it
    // does not (single chunk).
    const MAX_WGRAD_PARTIALS: usize = 8;
    let sample_macs = attrs.out_channels * rows * cols;
    let min_samples = min_items_per_thread(sample_macs);
    let groups = chunk_ranges(n, n.div_ceil(min_samples).min(MAX_WGRAD_PARTIALS));
    // The kernels below run on pool workers, which do not inherit a scoped
    // `with_isa` override: resolve the ISA here and re-pin it per group.
    let isa = bnff_tensor::active_isa();
    let d_out_len = attrs.out_channels * cols;
    let windows = Windows::of(attrs, out_hw);
    let geometry = windows.staged(in_dims);
    // Windows that lie in place are correlated with `d_out_n` where both
    // lie; the others are gathered, transposed, by the GEMM's packer.
    let correlation = WindowCorrelation::new(&geometry);
    let reduced = parallel_reduce(
        groups.len(),
        1,
        |gi| {
            bnff_tensor::with_isa(isa, || -> Result<(Vec<f32>, Vec<f32>)> {
                let mut d_w_flat = vec![0.0f32; attrs.out_channels * rows];
                let mut d_bias = vec![0.0f32; if with_bias { attrs.out_channels } else { 0 }];
                let mut stage = Staging::take(in_dims, windows.pad, input.transforms());
                // The correlation's interleaved `d_out_n` tiles, laid per
                // sample into one scratch per group, like the staging.
                let pairs_len =
                    correlation.as_ref().map_or(0, |c| c.pairs_len(isa, attrs.out_channels));
                let mut pairs =
                    if pairs_len > 0 { COL_POOL.take_dirty(pairs_len) } else { Vec::new() };
                for ni in groups[gi].clone() {
                    let sample = input.sample(isa, ni, stage.as_mut());
                    let d_out_n = &d_out.as_slice()[ni * d_out_len..(ni + 1) * d_out_len];
                    match &correlation {
                        Some(correlation) => {
                            correlation.accumulate(isa, sample, d_out_n, &mut d_w_flat, &mut pairs)
                        }
                        // d_W (Cout x rows) += d_out_n (Cout x cols) · im2col(sample)ᵀ (cols x rows)
                        None => gemm_nt_im2col_acc(
                            attrs.out_channels,
                            rows,
                            cols,
                            d_out_n,
                            Im2colView { sample, ..geometry },
                            &mut d_w_flat,
                        )?,
                    }
                    for (db, plane) in d_bias.iter_mut().zip(d_out_n.chunks_exact(cols)) {
                        *db += plane.iter().sum::<f32>();
                    }
                }
                COL_POOL.give(pairs);
                Ok((d_w_flat, d_bias))
            })
        },
        |a, b| match (a, b) {
            (Ok((mut w1, mut b1)), Ok((w2, b2))) => {
                for (x, y) in w1.iter_mut().zip(&w2) {
                    *x += *y;
                }
                for (x, y) in b1.iter_mut().zip(&b2) {
                    *x += *y;
                }
                Ok((w1, b1))
            }
            (Err(e), _) | (_, Err(e)) => Err(e),
        },
    );
    match reduced {
        Some(partials) => {
            let (d_w_flat, d_bias) = partials?;
            Ok((Tensor::from_vec(d_w_shape, d_w_flat)?, d_bias))
        }
        // Empty batch: zero gradients.
        None => Ok((
            Tensor::zeros(d_w_shape),
            vec![0.0f32; if with_bias { attrs.out_channels } else { 0 }],
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;
    use crate::im2col::{im2col, test_geometries};
    use bnff_tensor::init::Initializer;

    fn random(shape: Shape, seed: u64) -> Tensor {
        Initializer::seeded(seed).uniform(shape, -1.0, 1.0)
    }

    #[test]
    fn pointwise_conv_is_channel_mix() {
        // 1x1 conv with identity-like weights just scales channels.
        let x = Tensor::from_vec(
            Shape::nchw(1, 2, 2, 2),
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
        )
        .unwrap();
        let w = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![1.0, 0.5]).unwrap();
        let attrs = Conv2dAttrs::pointwise(1);
        let y = conv2d_forward_direct(&x, &w, None, &attrs).unwrap();
        assert_eq!(y.as_slice(), &[6.0, 12.0, 18.0, 24.0]);
    }

    #[test]
    fn direct_and_im2col_paths_agree() {
        let attrs = Conv2dAttrs::new(5, 3, 2, 1);
        let x = random(Shape::nchw(2, 4, 9, 9), 1);
        let w = random(Shape::nchw(5, 4, 3, 3), 2);
        let direct = conv2d_forward_direct(&x, &w, None, &attrs).unwrap();
        let lowered = conv2d_forward(&x, &w, None, &attrs).unwrap();
        assert!(direct.all_close(&lowered, 1e-4).unwrap());
    }

    /// The materialized lowering, composed from the reference pieces: the
    /// element-wise `im2col`, the plain GEMM and the shared epilogue.
    fn conv_materialized(
        x: &Tensor,
        w: &Tensor,
        bias: Option<&[f32]>,
        attrs: &Conv2dAttrs,
        fuse_relu: bool,
    ) -> Vec<f32> {
        let (rows, cols) = col_shape(x.shape(), attrs).unwrap();
        let mut out = Vec::new();
        for ni in 0..x.shape().n() {
            let col = im2col(x, ni, attrs).unwrap();
            let mut out_n = vec![f32::NAN; attrs.out_channels * cols];
            gemm(attrs.out_channels, cols, rows, 1.0, w.as_slice(), &col, 0.0, &mut out_n).unwrap();
            apply_bias_relu(&mut out_n, bias, cols, fuse_relu);
            out.extend(out_n);
        }
        out
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// `d_W = Σ_n g_n · im2col(x_n)ᵀ` through a materialized column matrix.
    fn weight_gradient_materialized(x: &Tensor, g: &Tensor, attrs: &Conv2dAttrs) -> Vec<f32> {
        let (rows, cols) = col_shape(x.shape(), attrs).unwrap();
        let oc = attrs.out_channels;
        let mut d_w = vec![0.0f32; oc * rows];
        let mut partial = vec![0.0f32; oc * rows];
        for ni in 0..x.shape().n() {
            let col = im2col(x, ni, attrs).unwrap();
            let g_n = &g.as_slice()[ni * oc * cols..(ni + 1) * oc * cols];
            crate::gemm::gemm_nt(oc, rows, cols, g_n, &col, &mut partial).unwrap();
            d_w.iter_mut().zip(&partial).for_each(|(acc, v)| *acc += *v);
        }
        d_w
    }

    #[test]
    fn gather_path_is_bit_identical_to_materialized() {
        // Strided, padded, pointwise and biased variants, with and without
        // the fused ReLU, then the whole geometry table; the gather path
        // must match the materialized lowering bit for bit.
        let mut cases = vec![
            ("same3x3".to_string(), Conv2dAttrs::same_3x3(6), 4usize, 9usize, 9usize),
            ("strided".to_string(), Conv2dAttrs::new(5, 3, 2, 1), 4, 9, 9),
            ("pointwise".to_string(), Conv2dAttrs::pointwise(7), 3, 8, 8),
            ("biased".to_string(), Conv2dAttrs::new(6, 5, 2, 2).with_bias(), 2, 11, 11),
        ];
        for (in_c, in_h, in_w, attrs) in test_geometries() {
            cases.push((format!("{attrs:?}"), attrs, in_c, in_h, in_w));
        }
        for (case, attrs, in_c, in_h, in_w) in cases {
            let x = random(Shape::nchw(2, in_c, in_h, in_w), 3);
            let w =
                random(Shape::nchw(attrs.out_channels, in_c, attrs.kernel_h, attrs.kernel_w), 4);
            let bias: Option<Vec<f32>> =
                attrs.bias.then(|| (0..attrs.out_channels).map(|i| i as f32 * 0.3 - 0.5).collect());
            for fuse_relu in [false, true] {
                let (_, oh, ow) = check_conv(&x, &w, &attrs).unwrap();
                let mut gathered =
                    Tensor::filled(Shape::nchw(2, attrs.out_channels, oh, ow), f32::NAN);
                if fuse_relu {
                    conv2d_forward_relu_into(&x, &w, bias.as_deref(), &attrs, &mut gathered)
                        .unwrap();
                } else {
                    conv2d_forward_into(&x, &w, bias.as_deref(), &attrs, &mut gathered).unwrap();
                }
                let reference = conv_materialized(&x, &w, bias.as_deref(), &attrs, fuse_relu);
                assert_eq!(bits(gathered.as_slice()), bits(&reference), "{case} relu={fuse_relu}");
            }
        }
    }

    /// The staging scratch is recycled dirty, so its zero border has to be
    /// laid on every take: a larger convolution over NaN leaves NaN where a
    /// smaller one's border will lie, and a NaN-filled buffer of exactly
    /// the smaller one's scratch size is the best fit the pool hands out.
    /// All three GEMMs stage that way, at any stride.
    #[test]
    fn bordered_scratch_is_rezeroed_per_call() {
        let attrs = Conv2dAttrs::same_3x3(5);
        let poison = Tensor::filled(Shape::nchw(1, 3, 24, 24), f32::NAN);
        let w = random(Shape::nchw(5, 3, 3, 3), 31);
        let mut out = Tensor::zeros(Shape::nchw(1, 5, 24, 24));
        conv2d_forward_into(&poison, &w, None, &attrs, &mut out).unwrap();
        assert!(out.as_slice().iter().all(|v| v.is_nan()));

        let x = random(Shape::nchw(2, 3, 8, 16), 32);
        let g = random(Shape::nchw(2, 5, 8, 16), 33);
        let scratch_len = 3 * 10 * 18;
        let stats = crate::batchnorm::bn_statistics(&x, true).unwrap();
        let params = BnParams::new(vec![0.8, -0.6, 1.1], vec![0.1, 0.0, -0.2]).unwrap();
        let norm_clip =
            ConvInput::NormClip { x: &x, stats: &stats, params: &params, epsilon: 1e-5 };
        let inputs =
            [("raw", ConvInput::Raw(&x)), ("clip", ConvInput::Clip(&x)), ("norm", norm_clip)];
        // Each sample as the convolution reads it, from the batch-wide sweeps.
        let reads = [
            x.clone(),
            crate::relu::relu_forward(&x),
            crate::relu::relu_forward(
                &crate::batchnorm::bn_normalize(&x, &stats, &params, 1e-5).unwrap().0,
            ),
        ];
        let strided = Conv2dAttrs::new(5, 3, 2, 1);
        for ((name, input), read) in inputs.into_iter().zip(&reads) {
            for attrs in [attrs, strided] {
                let want = conv_materialized(read, &w, None, &attrs, false);
                COL_POOL.give(vec![f32::NAN; scratch_len]);
                let mut got = Tensor::filled(conv_out_shape(x.shape(), &attrs).unwrap(), f32::NAN);
                conv_forward(input, &w, None, &attrs, false, None, &mut got).unwrap();
                assert_eq!(bits(got.as_slice()), bits(&want), "{name} {attrs:?}");
            }
            // The weight gradient: every sample group stages in a scratch of
            // its own, so poison one per group there can be.
            let want = weight_gradient_materialized(read, &g, &attrs);
            COL_POOL.give(vec![f32::NAN; scratch_len]);
            COL_POOL.give(vec![f32::NAN; scratch_len]);
            let (d_w, _) = backward_weights(input, &g, &attrs, false).unwrap();
            assert!(d_w.as_slice().iter().all(|v| v.is_finite()), "d_w {name}");
            assert_close_relative(&format!("d_w {name}"), d_w.as_slice(), &want, 1e-5);
        }
        // The input gradient stages `d_out` (5 channels) the same way.
        let mut want = Tensor::zeros(x.shape().clone());
        backward_input_strided(&g, &w, &attrs, true, &mut want, |_, _| {}).unwrap();
        COL_POOL.give(vec![f32::NAN; 5 * 10 * 18]);
        let mut d_x = Tensor::filled(x.shape().clone(), f32::NAN);
        backward_input(&g, &w, &attrs, true, &mut d_x, |_, _| {}).unwrap();
        assert!(d_x.as_slice().iter().all(|v| v.is_finite()));
        assert_close_relative("d_x", d_x.as_slice(), want.as_slice(), 1e-5);
    }

    /// Every staged plane, into a NaN-filled scratch: border elements `+0.0`,
    /// interior elements the bits of the element-wise sweep the prologue
    /// names (the copy, `relu_into`, or `normalize_plane` with the clip) on
    /// the same tier — for borders 1, 2 and 1×2, and widths below, at, past
    /// and well past one vector; the input carries NaN, ±∞ and ±0.0.
    #[test]
    fn staged_planes_match_the_elementwise_reference() {
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        for isa in crate::dispatch::test_isas() {
            for w in [1usize, 7, 8, 9, 33] {
                let (c, h) = (3usize, 4usize);
                let mut x = random(Shape::nchw(2, c, h, w), 61);
                for (i, v) in x.as_mut_slice().iter_mut().enumerate().filter(|(i, _)| i % 7 == 3) {
                    *v = specials[i % specials.len()];
                }
                let finite = random(x.shape().clone(), 62);
                let stats = crate::batchnorm::bn_statistics(&finite, true).unwrap();
                let params = BnParams::new(vec![0.8, -0.6, 1.1], vec![0.1, -0.0, -0.2]).unwrap();
                let norm_clip =
                    ConvInput::NormClip { x: &x, stats: &stats, params: &params, epsilon: 1e-5 };
                let mut clipped = x.clone();
                vecops::relu_into(isa, x.as_slice(), clipped.as_mut_slice());
                let mut normed = x.clone();
                for (p, y) in normed.as_mut_slice().chunks_exact_mut(h * w).enumerate() {
                    let ci = p % c;
                    let (mean, gamma, beta) = (stats.mean[ci], params.gamma[ci], params.beta[ci]);
                    let inv_std = inv_std(&stats, ci, 1e-5);
                    let src = x.channel_plane(p / c, ci);
                    vecops::normalize_plane(isa, src, None, y, mean, inv_std, gamma, beta, true);
                }
                let inputs = [
                    ("raw", ConvInput::Raw(&x), &x),
                    ("clip", ConvInput::Clip(&x), &clipped),
                    ("norm", norm_clip, &normed),
                ];
                for (name, input, read) in inputs {
                    for border in [(1usize, 1usize), (2, 2), (1, 2)] {
                        let (rows, cols) = (h + 2 * border.0, w + 2 * border.1);
                        for ni in 0..2 {
                            let label = format!("{isa} {name} w={w} border {border:?} n={ni}");
                            let scratch = vec![f32::NAN; c * rows * cols];
                            let mut stage = Staging::bordered((c, h, w), border, scratch);
                            let staged = input.sample(isa, ni, Some(&mut stage));
                            for (i, &v) in staged.iter().enumerate() {
                                let (ci, r, col) = (i / (rows * cols), i / cols % rows, i % cols);
                                let inside = (border.0..border.0 + h).contains(&r)
                                    && (border.1..border.1 + w).contains(&col);
                                let want = if inside {
                                    read.at(ni, ci, r - border.0, col - border.1)
                                } else {
                                    0.0
                                };
                                assert_eq!(v.to_bits(), want.to_bits(), "{label} at {i}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// `x` (two samples), `w` and an output gradient `g` for one geometry.
    fn gradient_fixture(
        (in_c, in_h, in_w, attrs): (usize, usize, usize, Conv2dAttrs),
    ) -> (Tensor, Tensor, Tensor) {
        let x = random(Shape::nchw(2, in_c, in_h, in_w), 11);
        let w = random(Shape::nchw(attrs.out_channels, in_c, attrs.kernel_h, attrs.kernel_w), 12);
        let (_, oh, ow) = check_conv(&x, &w, &attrs).unwrap();
        let g = random(Shape::nchw(2, attrs.out_channels, oh, ow), 13);
        (x, w, g)
    }

    /// Element-wise col2im with a bounds test per element: the scatter the
    /// production paths are checked against.
    fn scatter_naive(d_col: &[f32], d_x: &mut Tensor, ni: usize, attrs: &Conv2dAttrs) {
        let (c, h, w) = (d_x.shape().c(), d_x.shape().h(), d_x.shape().w());
        let (_, cols) = col_shape(d_x.shape(), attrs).unwrap();
        let wo = (w + 2 * attrs.pad - attrs.kernel_w) / attrs.stride + 1;
        let start = d_x.shape().offset4(ni, 0, 0, 0);
        for row in 0..c * attrs.kernel_h * attrs.kernel_w {
            let (ci, kh, kw) = (
                row / (attrs.kernel_h * attrs.kernel_w),
                (row / attrs.kernel_w) % attrs.kernel_h,
                row % attrs.kernel_w,
            );
            for col in 0..cols {
                let ih = ((col / wo) * attrs.stride + kh) as isize - attrs.pad as isize;
                let iw = ((col % wo) * attrs.stride + kw) as isize - attrs.pad as isize;
                if ih >= 0 && iw >= 0 && (ih as usize) < h && (iw as usize) < w {
                    d_x.as_mut_slice()[start + (ci * h + ih as usize) * w + iw as usize] +=
                        d_col[row * cols + col];
                }
            }
        }
    }

    /// `|got − want| ≤ tol · max|want|` element-wise.
    fn assert_close_relative(label: &str, got: &[f32], want: &[f32], tol: f32) {
        let scale = want.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() <= tol * scale, "{label}[{i}]: {g} vs {w} (scale {scale})");
        }
    }

    #[test]
    fn gradients_match_the_materialized_oracle() {
        for geometry in test_geometries() {
            let attrs = geometry.3;
            let label = format!("{attrs:?}");
            let (x, w, g) = gradient_fixture(geometry);
            let (rows, cols) = col_shape(x.shape(), &attrs).unwrap();
            let oc = attrs.out_channels;
            // d_W = Σ_n g_n · im2col(x_n)ᵀ and d_x_n = col2im(Wᵀ · g_n),
            // both through a materialized column matrix.
            let d_w_ref = weight_gradient_materialized(&x, &g, &attrs);
            let mut d_x_ref = Tensor::zeros(x.shape().clone());
            let mut d_col = vec![0.0f32; rows * cols];
            for ni in 0..2 {
                let g_n = &g.as_slice()[ni * oc * cols..(ni + 1) * oc * cols];
                gemm_tn(rows, cols, oc, w.as_slice(), g_n, &mut d_col).unwrap();
                scatter_naive(&d_col, &mut d_x_ref, ni, &attrs);
            }
            let (d_w, _) = conv2d_backward_weights(&x, &g, &attrs, false).unwrap();
            let d_x = conv2d_backward_input(&g, &w, x.shape(), &attrs).unwrap();
            assert_close_relative(&format!("d_w {label}"), d_w.as_slice(), &d_w_ref, 1e-5);
            assert_close_relative(
                &format!("d_x {label}"),
                d_x.as_slice(),
                d_x_ref.as_slice(),
                1e-5,
            );
        }
    }

    /// The order the correlation states for `d_W`: per `(co, j)` a sample's
    /// products in eight lane partials (lane `ow mod 8`, which is `pos mod 8`
    /// at these widths), combined by the fixed tree, samples in batch order.
    fn weight_gradient_lane_model(x: &Tensor, g: &Tensor, attrs: &Conv2dAttrs) -> Vec<f32> {
        let (rows, cols) = col_shape(x.shape(), attrs).unwrap();
        let mut d_w = vec![0.0f32; attrs.out_channels * rows];
        for ni in 0..x.shape().n() {
            let col = im2col(x, ni, attrs).unwrap();
            let g_n = &g.as_slice()[ni * attrs.out_channels * cols..];
            for (i, slot) in d_w.iter_mut().enumerate() {
                let (g_row, col_row) = (&g_n[i / rows * cols..][..cols], &col[i % rows * cols..]);
                let mut l = [0.0f32; 8];
                for (pos, (g, c)) in g_row.iter().zip(col_row).enumerate() {
                    l[pos % 8] += g * c;
                }
                *slot += ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
            }
        }
        d_w
    }

    #[test]
    fn in_place_weight_gradient_covers_every_tile_tail() {
        // `(C, H, W, attrs)`: `C_out` of 1, 5 and 8 (on tiles of 4 rows),
        // `C·Kh·Kw mod 3` of 0, 1 and 2 (on tiles of 3 columns), `out_w` of
        // 8, 16 and 32; padded 3×3, valid 5×5 and pointwise windows.
        let geometries = [
            (3, 8, 16, Conv2dAttrs::same_3x3(5)),
            (4, 8, 8, Conv2dAttrs::same_3x3(8)),
            (2, 3, 32, Conv2dAttrs::same_3x3(1)),
            (1, 12, 12, Conv2dAttrs::new(1, 5, 1, 0)),
            (2, 6, 36, Conv2dAttrs::new(8, 5, 1, 0)),
            (5, 4, 8, Conv2dAttrs::pointwise(5)),
            (7, 3, 16, Conv2dAttrs::pointwise(1)),
            (6, 2, 32, Conv2dAttrs::pointwise(8)),
        ];
        for (in_c, in_h, in_w, attrs) in geometries {
            for n in [2, 9] {
                let label = format!("n={n} c={in_c} {in_h}x{in_w} {attrs:?}");
                let x = random(Shape::nchw(n, in_c, in_h, in_w), 51);
                let out_hw = conv_out_hw(x.shape(), &attrs).unwrap();
                let g = random(Shape::nchw(n, attrs.out_channels, out_hw.0, out_hw.1), 52);
                let view = Windows::of(&attrs, out_hw).staged((in_c, in_h, in_w));
                assert!(WindowCorrelation::new(&view).is_some(), "{label}");
                let want = weight_gradient_materialized(&x, &g, &attrs);
                for isa in crate::dispatch::test_isas() {
                    let (d_w, _) = bnff_tensor::with_isa(isa, || {
                        conv2d_backward_weights(&x, &g, &attrs, false).unwrap()
                    });
                    assert_close_relative(&format!("{label} {isa}"), d_w.as_slice(), &want, 1e-5);
                }
                // One sample group, so the batch is summed in batch order.
                let (d_w, _) = bnff_parallel::with_grain(usize::MAX, || {
                    bnff_tensor::with_isa(SimdIsa::Scalar, || {
                        conv2d_backward_weights(&x, &g, &attrs, false).unwrap()
                    })
                });
                let model = weight_gradient_lane_model(&x, &g, &attrs);
                assert_eq!(bits(d_w.as_slice()), bits(&model), "{label}");
            }
        }
    }

    /// `⟨conv(x, w), g⟩ = ⟨x, d_x⟩ = ⟨w, d_w⟩`, the inner products taken in
    /// f64: the convolution is linear in `x` and in `w`, and the backward
    /// passes are its adjoints.
    #[test]
    fn gradients_satisfy_the_adjoint_identity() {
        fn dot(a: &[f32], b: &[f32]) -> (f64, f64) {
            let products = a.iter().zip(b).map(|(&p, &q)| f64::from(p) * f64::from(q));
            products.fold((0.0, 0.0), |(sum, abs), v| (sum + v, abs + v.abs()))
        }
        for geometry in test_geometries() {
            let attrs = geometry.3;
            let (x, w, g) = gradient_fixture(geometry);
            let y = conv2d_forward(&x, &w, None, &attrs).unwrap();
            let (d_w, _) = conv2d_backward_weights(&x, &g, &attrs, false).unwrap();
            let d_x = conv2d_backward_input(&g, &w, x.shape(), &attrs).unwrap();
            let (forward, magnitude) = dot(y.as_slice(), g.as_slice());
            for (side, (value, _)) in [
                ("x·d_x", dot(x.as_slice(), d_x.as_slice())),
                ("w·d_w", dot(w.as_slice(), d_w.as_slice())),
            ] {
                assert!(
                    (value - forward).abs() <= 1e-5 * magnitude,
                    "{attrs:?}: ⟨y, g⟩ = {forward} but {side} = {value}"
                );
            }
        }
    }

    #[test]
    fn input_gradient_adds_into_a_nonzero_d_input() {
        // One geometry per path: stride 1 (rotated gather) and stride 2
        // (`d_col` + col2im).
        for attrs in [Conv2dAttrs::same_3x3(5), Conv2dAttrs::new(5, 3, 2, 1)] {
            let (x, w, g) = gradient_fixture((4, 9, 9, attrs));
            let plain = conv2d_backward_input(&g, &w, x.shape(), &attrs).unwrap();
            let base = random(x.shape().clone(), 14);
            let mut d_input = base.clone();
            conv2d_backward_input_into(&g, &w, &attrs, &mut d_input).unwrap();
            let want: Vec<f32> =
                base.as_slice().iter().zip(plain.as_slice()).map(|(b, p)| b + p).collect();
            assert_close_relative(&format!("{attrs:?}"), d_input.as_slice(), &want, 1e-6);
        }
    }

    #[test]
    fn backward_entry_points_reject_mismatched_shapes() {
        let attrs = Conv2dAttrs::same_3x3(4);
        let x = random(Shape::nchw(2, 3, 6, 6), 15);
        let w = random(Shape::nchw(4, 3, 3, 3), 16);
        let good = Tensor::zeros(Shape::nchw(2, 4, 6, 6));
        let mismatch = |r: Result<()>| matches!(r, Err(KernelError::ShapeMismatch(_)));
        let input_grad = |d_out: &Tensor, weights: &Tensor| {
            conv2d_backward_input_into(
                d_out,
                weights,
                &attrs,
                &mut Tensor::zeros(x.shape().clone()),
            )
        };
        let weight_grad =
            |d_out: &Tensor| conv2d_backward_weights(&x, d_out, &attrs, false).map(|_| ());
        assert!(input_grad(&good, &w).is_ok() && weight_grad(&good).is_ok());
        // Wrong batch, too-small and too-large spatial extent: each used to
        // panic (slice out of range) or be silently accepted.
        for bad in [Shape::nchw(1, 4, 6, 6), Shape::nchw(2, 4, 5, 5), Shape::nchw(2, 4, 7, 7)] {
            let d_out = Tensor::zeros(bad.clone());
            assert!(mismatch(input_grad(&d_out, &w)), "input gradient accepted d_out {bad}");
            assert!(mismatch(weight_grad(&d_out)), "weight gradient accepted d_out {bad}");
        }
        // Same element count, wrong layout.
        let transposed = Tensor::zeros(Shape::nchw(3, 4, 3, 3));
        assert!(mismatch(input_grad(&good, &transposed)));
    }

    #[test]
    fn bias_is_added_per_channel() {
        let attrs = Conv2dAttrs::pointwise(2).with_bias();
        let x = Tensor::ones(Shape::nchw(1, 1, 2, 2));
        let w = Tensor::from_vec(Shape::nchw(2, 1, 1, 1), vec![1.0, 2.0]).unwrap();
        let bias = vec![10.0, -5.0];
        let y = conv2d_forward_direct(&x, &w, Some(&bias), &attrs).unwrap();
        assert_eq!(y.channel_plane(0, 0), &[11.0; 4]);
        assert_eq!(y.channel_plane(0, 1), &[-3.0; 4]);
        let y2 = conv2d_forward(&x, &w, Some(&bias), &attrs).unwrap();
        assert!(y.all_close(&y2, 1e-6).unwrap());
    }

    #[test]
    fn weight_shape_mismatch_rejected() {
        let attrs = Conv2dAttrs::same_3x3(4);
        let x = Tensor::zeros(Shape::nchw(1, 3, 8, 8));
        let w = Tensor::zeros(Shape::nchw(4, 3, 5, 5));
        assert!(conv2d_forward_direct(&x, &w, None, &attrs).is_err());
        let w = Tensor::zeros(Shape::nchw(4, 2, 3, 3));
        assert!(conv2d_forward(&x, &w, None, &attrs).is_err());
    }

    /// Numerical gradient check for the convolution backward passes.
    #[test]
    fn gradient_check() {
        let attrs = Conv2dAttrs::new(3, 3, 1, 1);
        let x = random(Shape::nchw(1, 2, 5, 5), 3);
        let w = random(Shape::nchw(3, 2, 3, 3), 4);
        let y = conv2d_forward_direct(&x, &w, None, &attrs).unwrap();
        // Loss = sum(y * g) for a fixed random g, so dL/dy = g.
        let g = random(y.shape().clone(), 5);
        let d_x = conv2d_backward_input(&g, &w, x.shape(), &attrs).unwrap();
        let (d_w, _) = conv2d_backward_weights(&x, &g, &attrs, false).unwrap();

        let loss = |input: &Tensor, weights: &Tensor| -> f64 {
            let out = conv2d_forward_direct(input, weights, None, &attrs).unwrap();
            out.as_slice()
                .iter()
                .zip(g.as_slice())
                .map(|(&a, &b)| f64::from(a) * f64::from(b))
                .sum()
        };

        let eps = 1e-2f32;
        // Check a handful of input coordinates.
        for &idx in &[0usize, 7, 23, 49] {
            let mut xp = x.clone();
            xp.set(idx, x.get(idx).unwrap() + eps).unwrap();
            let mut xm = x.clone();
            xm.set(idx, x.get(idx).unwrap() - eps).unwrap();
            let numeric = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * f64::from(eps));
            let analytic = f64::from(d_x.get(idx).unwrap());
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "d_input[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Check a handful of weight coordinates.
        for &idx in &[0usize, 5, 17, 53] {
            let mut wp = w.clone();
            wp.set(idx, w.get(idx).unwrap() + eps).unwrap();
            let mut wm = w.clone();
            wm.set(idx, w.get(idx).unwrap() - eps).unwrap();
            let numeric = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * f64::from(eps));
            let analytic = f64::from(d_w.get(idx).unwrap());
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "d_weights[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn into_variant_overwrites_recycled_buffers() {
        let attrs = Conv2dAttrs::same_3x3(4);
        let x = random(Shape::nchw(2, 3, 6, 6), 21);
        let w = random(Shape::nchw(4, 3, 3, 3), 22);
        let reference = conv2d_forward(&x, &w, None, &attrs).unwrap();
        // A dirty buffer of the right shape must give bit-identical results.
        let mut out = Tensor::filled(Shape::nchw(2, 4, 6, 6), f32::NAN);
        conv2d_forward_into(&x, &w, None, &attrs, &mut out).unwrap();
        assert_eq!(bits(out.as_slice()), bits(reference.as_slice()));
        // A wrong-shaped output tensor is rejected.
        let mut bad = Tensor::zeros(Shape::nchw(2, 4, 5, 5));
        assert!(conv2d_forward_into(&x, &w, None, &attrs, &mut bad).is_err());
    }

    #[test]
    fn bias_gradient_sums_output_gradient() {
        let attrs = Conv2dAttrs::pointwise(2).with_bias();
        let x = random(Shape::nchw(2, 3, 4, 4), 6);
        let d_out = Tensor::ones(Shape::nchw(2, 2, 4, 4));
        let (_, d_bias) = conv2d_backward_weights(&x, &d_out, &attrs, true).unwrap();
        // Each bias sees N*H*W ones.
        assert_eq!(d_bias, vec![32.0, 32.0]);
    }

    #[test]
    fn strided_conv_output_size() {
        let attrs = Conv2dAttrs::new(8, 7, 2, 3);
        let x = random(Shape::nchw(1, 3, 32, 32), 7);
        let w = random(Shape::nchw(8, 3, 7, 7), 8);
        let y = conv2d_forward(&x, &w, None, &attrs).unwrap();
        assert_eq!(y.shape(), &Shape::nchw(1, 8, 16, 16));
    }
}
