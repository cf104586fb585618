//! Parallel/serial determinism: every kernel must produce matching outputs
//! (within 1e-5; in practice bit-identical) whatever the worker count.
//!
//! `with_threads(n, ...)` installs the same per-call worker count that
//! `BNFF_THREADS=n` would set process-wide, so these tests cover the
//! `BNFF_THREADS=1` vs `BNFF_THREADS=4` acceptance check — plus counts
//! chosen to hit the awkward partitions: thread counts that do not divide
//! the work, more threads than work items, and single-element inputs.

use bnff_graph::op::{Conv2dAttrs, PoolAttrs};
use bnff_kernels::batchnorm::{bn_backward, bn_forward, norm_backward_inplace, BnParams};
use bnff_kernels::conv::{
    conv2d_backward_input, conv2d_backward_weights, conv2d_forward, conv2d_forward_direct,
    ConvInput,
};
use bnff_kernels::eltwise::eltwise_sum_forward;
use bnff_kernels::fused::{
    conv2d_forward_with_stats, fused_conv_backward_into, fused_conv_forward_into,
    norm_relu_conv_forward,
};
use bnff_kernels::gemm::{gemm, gemm_nt, gemm_tn};
use bnff_kernels::pool::{
    avg_pool_backward, avg_pool_forward, global_avg_pool_backward, max_pool_backward,
    max_pool_forward,
};
use bnff_kernels::relu::{relu_backward, relu_forward};
use bnff_kernels::softmax::softmax_loss_forward;
use bnff_parallel::{with_grain, with_threads};
use bnff_tensor::init::Initializer;
use bnff_tensor::stats::{channel_stats_one_pass, channel_stats_two_pass};
use bnff_tensor::{Shape, Tensor};

/// Worker counts exercised against the single-threaded reference: the
/// acceptance pair (1 vs 4), non-dividing counts (3, 7), and far more
/// threads than most of the work items below (16).
const THREADS: &[usize] = &[4, 3, 7, 16];

const TOL: f32 = 1e-5;

fn random(shape: Shape, seed: u64) -> Tensor {
    Initializer::seeded(seed).uniform(shape, -2.0, 2.0)
}

fn assert_close(label: &str, threads: usize, reference: &[f32], candidate: &[f32]) {
    assert_eq!(reference.len(), candidate.len(), "{label}: length mismatch");
    for (i, (r, c)) in reference.iter().zip(candidate.iter()).enumerate() {
        assert!(
            (r - c).abs() <= TOL,
            "{label}[{i}] with {threads} threads: serial {r} vs parallel {c}"
        );
    }
}

/// Runs `f` serially and under every thread count, comparing the flattened
/// outputs. The spawn-amortization grain is pinned to 1 so these small
/// fixtures genuinely split into per-worker tasks (at the default grain
/// most of them would collapse to a single task and the comparison would
/// be vacuous); a default-grain pass is kept as a sanity check.
fn check<F>(label: &str, f: F)
where
    F: Fn() -> Vec<f32>,
{
    let reference = with_grain(1, || with_threads(1, &f));
    for &t in THREADS {
        let candidate = with_grain(1, || with_threads(t, &f));
        assert_close(label, t, &reference, &candidate);
    }
    // The production grain must not change results either.
    let default_grain = with_threads(THREADS[0], &f);
    assert_close(label, THREADS[0], &reference, &default_grain);
}

#[test]
fn gemm_matches_serial_across_odd_sizes() {
    // (m, n, k): single element, non-divisible row counts, sizes straddling
    // the 48-element cache tile, and fewer rows than workers.
    for &(m, n, k) in &[(1usize, 1usize, 1usize), (3, 5, 2), (7, 9, 11), (70, 65, 50), (2, 128, 16)]
    {
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 13) as f32 - 6.0) * 0.25).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 29 % 11) as f32 - 5.0) * 0.5).collect();
        check(&format!("gemm {m}x{n}x{k}"), || {
            let mut c = vec![0.5; m * n];
            gemm(m, n, k, 1.25, &a, &b, 0.5, &mut c).unwrap();
            c
        });
        let bt: Vec<f32> = (0..n * k).map(|i| ((i * 17 % 7) as f32 - 3.0) * 0.5).collect();
        check(&format!("gemm_nt {m}x{n}x{k}"), || {
            let mut c = vec![0.0; m * n];
            gemm_nt(m, n, k, &a, &bt, &mut c).unwrap();
            c
        });
        let at: Vec<f32> = (0..k * m).map(|i| ((i * 23 % 9) as f32 - 4.0) * 0.5).collect();
        let bb: Vec<f32> = (0..k * n).map(|i| ((i * 31 % 12) as f32 - 5.5) * 0.25).collect();
        check(&format!("gemm_tn {m}x{n}x{k}"), || {
            let mut c = vec![0.0; m * n];
            gemm_tn(m, n, k, &at, &bb, &mut c).unwrap();
            c
        });
    }
}

#[test]
fn conv_forward_and_backward_match_serial() {
    // Batch 1 (threads > samples), odd channel counts, odd spatial sizes;
    // then stride 2 (the `d_col` + col2im input gradient) and 4×4 maps
    // (`out_w < NR`: one packed strip spans four output rows); then 8- and
    // 16-wide maps, whose windows are read in place from a bordered copy;
    // then nine samples — more than the weight gradient has sample groups,
    // so a group restages its bordered scratch — strided under a two-deep
    // border, at a ragged width (`out_w = 12`) and at an in-place one
    // (`out_w = 16`: a group runs two samples through the weight-gradient
    // correlation).
    let same = |oc, hw| Conv2dAttrs::new(oc, if hw >= 3 { 3 } else { 1 }, 1, usize::from(hw >= 3));
    for &(n, ic, oc, hw, seed, attrs) in &[
        (1usize, 1usize, 1usize, 1usize, 1u64, same(1, 1)),
        (1, 3, 5, 7, 2, same(5, 7)),
        (3, 4, 6, 9, 3, same(6, 9)),
        (2, 2, 8, 5, 4, same(8, 5)),
        (3, 4, 6, 9, 5, Conv2dAttrs::new(6, 3, 2, 1)),
        (3, 5, 7, 4, 6, same(7, 4)),
        (3, 5, 7, 8, 7, same(7, 8)),
        (2, 3, 100, 16, 8, same(100, 16)),
        (9, 3, 5, 11, 9, Conv2dAttrs::new(5, 5, 2, 2)),
        (9, 3, 5, 12, 10, same(5, 12)),
        (9, 3, 5, 16, 11, same(5, 16)),
        // 13 and 16 output channels: the AVX-512 correlation's 8-channel
        // tile, then its 4- and 1-channel tails, or two whole tiles.
        (3, 5, 13, 8, 12, same(13, 8)),
        (2, 4, 16, 16, 13, Conv2dAttrs::pointwise(16)),
    ] {
        let x = random(Shape::nchw(n, ic, hw, hw), seed);
        let w = random(Shape::nchw(oc, ic, attrs.kernel_h, attrs.kernel_w), seed + 100);
        check(&format!("conv_direct n={n} ic={ic} oc={oc} hw={hw}"), || {
            conv2d_forward_direct(&x, &w, None, &attrs).unwrap().into_vec()
        });
        check(&format!("conv_im2col n={n} ic={ic} oc={oc} hw={hw}"), || {
            conv2d_forward(&x, &w, None, &attrs).unwrap().into_vec()
        });
        let y = conv2d_forward_direct(&x, &w, None, &attrs).unwrap();
        let d_out = random(y.shape().clone(), seed + 200);
        check(&format!("conv_backward_input n={n} ic={ic} oc={oc} hw={hw}"), || {
            conv2d_backward_input(&d_out, &w, x.shape(), &attrs).unwrap().into_vec()
        });
        check(&format!("conv_backward_weights n={n} ic={ic} oc={oc} hw={hw}"), || {
            let (d_w, d_b) = conv2d_backward_weights(&x, &d_out, &attrs, false).unwrap();
            let mut flat = d_w.into_vec();
            flat.extend(d_b);
            flat
        });
    }
}

#[test]
fn batchnorm_matches_serial() {
    // Channel counts that do not divide typical worker counts, plus a
    // single-element feature map.
    for &(n, c, hw, seed) in
        &[(1usize, 1usize, 1usize, 5u64), (2, 3, 5, 6), (5, 7, 3, 7), (8, 4, 6, 8)]
    {
        let x = random(Shape::nchw(n, c, hw, hw), seed);
        let params = BnParams::new(
            (0..c).map(|i| 0.5 + i as f32 * 0.1).collect(),
            (0..c).map(|i| -0.2 + i as f32 * 0.05).collect(),
        )
        .unwrap();
        for one_pass in [false, true] {
            check(&format!("bn_forward n={n} c={c} hw={hw} one_pass={one_pass}"), || {
                let (y, state) = bn_forward(&x, &params, 1e-5, one_pass).unwrap();
                let mut flat = y.into_vec();
                flat.extend(state.stats.mean);
                flat.extend(state.stats.var);
                flat
            });
        }
        check(&format!("bn_backward n={n} c={c} hw={hw}"), || {
            let (_, state) = bn_forward(&x, &params, 1e-5, false).unwrap();
            let d_y = random(x.shape().clone(), seed + 50);
            let (d_x, grads) = bn_backward(&d_y, &state, &params, 1e-5).unwrap();
            let mut flat = d_x.into_vec();
            flat.extend(grads.d_gamma);
            flat.extend(grads.d_beta);
            flat
        });
    }
}

#[test]
fn channel_statistics_match_serial() {
    for &(n, c, hw, seed) in &[(1usize, 1usize, 1usize, 9u64), (3, 5, 7, 10), (4, 16, 4, 11)] {
        let x = random(Shape::nchw(n, c, hw, hw), seed);
        check(&format!("stats_two_pass n={n} c={c} hw={hw}"), || {
            let s = channel_stats_two_pass(&x).unwrap();
            let mut flat = s.mean;
            flat.extend(s.var);
            flat
        });
        check(&format!("stats_one_pass n={n} c={c} hw={hw}"), || {
            let s = channel_stats_one_pass(&x).unwrap();
            let mut flat = s.mean;
            flat.extend(s.var);
            flat
        });
    }
}

#[test]
fn pool_relu_eltwise_match_serial() {
    let x = random(Shape::nchw(3, 5, 9, 9), 12);
    let pool = PoolAttrs::new(3, 2, 1);
    check("max_pool_forward", || {
        let (output, _) = max_pool_forward(&x, &pool).unwrap();
        output.into_vec()
    });
    check("max_pool_backward", || {
        let (_, state) = max_pool_forward(&x, &pool).unwrap();
        let d_y = random(state.output_shape.clone(), 13);
        max_pool_backward(&d_y, &state, x.shape()).unwrap().into_vec()
    });
    check("avg_pool_forward", || avg_pool_forward(&x, &pool).unwrap().into_vec());
    // The padded, overlapping window and the disjoint 2×2/2 fast path.
    for (label, attrs) in [("padded", pool), ("disjoint", PoolAttrs::new(2, 2, 0))] {
        let d_y = random(avg_pool_forward(&x, &attrs).unwrap().shape().clone(), 20);
        check(&format!("avg_pool_backward {label}"), || {
            avg_pool_backward(&d_y, x.shape(), &attrs).unwrap().into_vec()
        });
    }
    check("global_avg_pool_backward", || {
        let d_y = random(Shape::nchw(3, 5, 1, 1), 21);
        global_avg_pool_backward(&d_y, x.shape()).unwrap().into_vec()
    });
    check("relu_forward", || relu_forward(&x).into_vec());
    check("relu_backward", || {
        let d_y = random(x.shape().clone(), 14);
        relu_backward(&d_y, &x).unwrap().into_vec()
    });
    let b = random(x.shape().clone(), 15);
    let c = random(x.shape().clone(), 16);
    check("eltwise_sum", || eltwise_sum_forward(&[&x, &b, &c]).unwrap().into_vec());
    // A single-element tensor exercises the degenerate partitions.
    let tiny = Tensor::from_slice(&[-1.5]);
    check("relu_single_element", || relu_forward(&tiny).into_vec());
}

#[test]
fn fused_kernels_match_serial() {
    let attrs = Conv2dAttrs::same_3x3(6);
    let x = random(Shape::nchw(3, 4, 7, 7), 17);
    let w = random(Shape::nchw(6, 4, 3, 3), 18);
    check("conv_with_stats", || {
        let (out, stats) = conv2d_forward_with_stats(&x, &w, None, &attrs).unwrap();
        let mut flat = out.into_vec();
        flat.extend(stats.mean);
        flat.extend(stats.var);
        flat
    });
    let bn = BnParams::new(vec![1.2, 0.8, 1.0, 0.9], vec![0.1, -0.1, 0.0, 0.2]).unwrap();
    let stats = channel_stats_one_pass(&x).unwrap();
    check("norm_relu_conv", || {
        norm_relu_conv_forward(&x, &stats, &bn, 1e-5, &w, None, &attrs).unwrap().into_vec()
    });
    let normalized = ConvInput::NormClip { x: &x, stats: &stats, params: &bn, epsilon: 1e-5 };
    for (label, input) in [("norm_clip", normalized), ("clip", ConvInput::Clip(&x))] {
        check(&format!("fused_conv_forward {label}"), || fused_forward(input, &w, &attrs));
        check(&format!("fused_conv_backward {label}"), || fused_backward(input, &w, &attrs));
    }
}

/// The fused forward with its statistics epilogue, flattened.
fn fused_forward(input: ConvInput<'_>, w: &Tensor, attrs: &Conv2dAttrs) -> Vec<f32> {
    let mut out = conv2d_forward(input.tensor(), w, None, attrs).unwrap();
    let stats = fused_conv_forward_into(input, w, None, attrs, true, &mut out).unwrap().unwrap();
    let mut flat = out.into_vec();
    flat.extend(stats.mean);
    flat.extend(stats.var);
    flat
}

/// The fused backward against its own forward output as the gradient, into
/// a dirty buffer: `d_x`, `d_W` and (for a normalizing prologue) ∂γ/∂β,
/// flattened.
fn fused_backward(input: ConvInput<'_>, w: &Tensor, attrs: &Conv2dAttrs) -> Vec<f32> {
    let mut d_out = conv2d_forward(input.tensor(), w, None, attrs).unwrap();
    fused_conv_forward_into(input, w, None, attrs, false, &mut d_out).unwrap();
    let mut d_x = Tensor::filled(input.tensor().shape().clone(), f32::NAN);
    let grads = fused_conv_backward_into(input, &d_out, w, attrs, false, Some(&mut d_x)).unwrap();
    let mut flat = d_x.into_vec();
    flat.extend(grads.d_weights.into_vec());
    if let Some(bn) = grads.d_bn {
        flat.extend(bn.d_gamma);
        flat.extend(bn.d_beta);
    }
    flat
}

/// The determinism contract is *per dispatch path*: under a fixed ISA the
/// outputs must be **bit-identical** for every worker count, because worker
/// partitions either fall on whole planes (BN normalize, affine) or use
/// sweeps whose vector and tail flavours round identically (ReLU, sums,
/// GEMM's per-element ascending-k accumulation). Checked under the scalar
/// path and, where the hardware allows, the AVX2+FMA path.
/// A normalization's backward with `x̂` (and, `relu`, the mask) recomputed
/// from the input, flattened — and bit-identical to `relu_backward` then
/// `bn_backward` on the stored `y` and `x̂`, under the ISA and worker count
/// it runs at.
fn norm_backward(x: &Tensor, d_y: &Tensor, params: &BnParams, relu: bool) -> Vec<f32> {
    let flat = |d_x: Tensor, d_gamma: Vec<f32>, d_beta: Vec<f32>| {
        let mut flat = d_x.into_vec();
        flat.extend(d_gamma);
        flat.extend(d_beta);
        flat.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
    };
    let (y, state) = bn_forward(x, params, 1e-5, true).unwrap();
    let masked = if relu { relu_backward(d_y, &y).unwrap() } else { d_y.clone() };
    let (stored, grads) = bn_backward(&masked, &state, params, 1e-5).unwrap();
    let stored = flat(stored, grads.d_gamma, grads.d_beta);
    let mut d_x = d_y.clone();
    let grads = norm_backward_inplace(&mut d_x, x, &state.stats, params, 1e-5, relu).unwrap();
    let recomputed = flat(d_x, grads.d_gamma, grads.d_beta);
    assert_eq!(recomputed, stored, "recomputed vs stored x̂, relu={relu}");
    recomputed.into_iter().map(f32::from_bits).collect()
}

#[test]
fn kernels_are_bit_identical_across_thread_counts_on_both_paths() {
    use bnff_kernels::dispatch::{active_isa, with_isa, SimdIsa};

    let x = random(Shape::nchw(3, 5, 9, 9), 41);
    let w = random(Shape::nchw(6, 5, 3, 3), 42);
    let attrs = Conv2dAttrs::same_3x3(6);
    let params = BnParams::new(
        (0..5).map(|i| 0.6 + i as f32 * 0.1).collect(),
        (0..5).map(|i| -0.1 + i as f32 * 0.05).collect(),
    )
    .unwrap();
    let b = random(x.shape().clone(), 43);
    // Forward and both gradients, at stride 1 on 4×4 maps (`out_w < NR`)
    // and at stride 2.
    let small = random(Shape::nchw(3, 5, 4, 4), 44);
    // 8×8 and 16×16 maps: stride-1 windows read in place (`out_w % 8 == 0`).
    let (wide8, wide16) =
        (random(Shape::nchw(3, 5, 8, 8), 47), random(Shape::nchw(2, 5, 16, 16), 48));
    // Nine samples: more than the weight gradient has sample groups, so one
    // group's partial sums two samples' correlations in batch order.
    let nine = random(Shape::nchw(9, 5, 8, 8), 49);
    let (tiny, tiny_grad) =
        (random(Shape::nchw(3, 5, 2, 2), 45), random(Shape::nchw(3, 5, 2, 2), 46));
    let strided = Conv2dAttrs::new(6, 3, 2, 1);
    // 13 and 16 output channels: the AVX-512 correlation's 8-channel tile,
    // then its 4- and 1-channel tails, or two whole tiles (pointwise).
    let (same13, point16) = (Conv2dAttrs::same_3x3(13), Conv2dAttrs::pointwise(16));
    let (w13, w16) = (random(Shape::nchw(13, 5, 3, 3), 50), random(Shape::nchw(16, 5, 1, 1), 51));
    let conv_case = |input: &Tensor, attrs: &Conv2dAttrs| {
        let w = match attrs.out_channels {
            13 => &w13,
            16 => &w16,
            _ => &w,
        };
        let y = conv2d_forward(input, w, None, attrs).unwrap();
        let d_x = conv2d_backward_input(&y, w, input.shape(), attrs).unwrap();
        let (d_w, _) = conv2d_backward_weights(input, &y, attrs, false).unwrap();
        let mut flat = y.into_vec();
        flat.extend(d_x.into_vec());
        flat.extend(d_w.into_vec());
        flat
    };

    // Fixed statistics (not the batch's): the prologue only has to be
    // deterministic, and 9×9 and 4×4 inputs can share them.
    let stats = channel_stats_one_pass(&x).unwrap();
    let normalized =
        |input| ConvInput::NormClip { x: input, stats: &stats, params: &params, epsilon: 1e-5 };

    // Every ISA the host can run: the scalar path and each vector tier.
    let isas: Vec<SimdIsa> = [SimdIsa::Scalar, SimdIsa::Avx2Fma, SimdIsa::Avx512]
        .into_iter()
        .filter(|&isa| with_isa(isa, active_isa) == isa)
        .collect();
    let cases: &[(&str, &dyn Fn() -> Vec<f32>)] = &[
        ("gemm_70x65x50", &|| {
            let (m, n, k) = (70, 65, 50);
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 13) as f32 - 6.0) * 0.25).collect();
            let bb: Vec<f32> = (0..k * n).map(|i| ((i * 29 % 11) as f32 - 5.0) * 0.5).collect();
            let mut c = vec![0.5; m * n];
            gemm(m, n, k, 1.25, &a, &bb, 0.5, &mut c).unwrap();
            c
        }),
        ("bn_forward_one_pass", &|| {
            let (y, state) = bn_forward(&x, &params, 1e-5, true).unwrap();
            let mut flat = y.into_vec();
            flat.extend(state.stats.mean);
            flat.extend(state.stats.var);
            flat
        }),
        ("relu", &|| relu_forward(&x).into_vec()),
        ("eltwise_sum", &|| eltwise_sum_forward(&[&x, &b]).unwrap().into_vec()),
        ("conv_with_stats", &|| {
            let (out, stats) = conv2d_forward_with_stats(&x, &w, None, &attrs).unwrap();
            let mut flat = out.into_vec();
            flat.extend(stats.mean);
            flat.extend(stats.var);
            flat
        }),
        ("conv_fwd_bwd_4x4", &|| conv_case(&small, &attrs)),
        ("conv_fwd_bwd_stride2", &|| conv_case(&x, &strided)),
        ("conv_fwd_bwd_8x8", &|| conv_case(&wide8, &attrs)),
        ("conv_fwd_bwd_16x16", &|| conv_case(&wide16, &attrs)),
        ("conv_fwd_bwd_8x8_nine", &|| conv_case(&nine, &attrs)),
        ("conv_fwd_bwd_8x8_13", &|| conv_case(&wide8, &same13)),
        ("conv_fwd_bwd_16x16_16_1x1", &|| conv_case(&wide16, &point16)),
        ("relu_backward", &|| relu_backward(&b, &x).unwrap().into_vec()),
        ("bn_backward", &|| {
            let (_, state) = bn_forward(&x, &params, 1e-5, true).unwrap();
            let (d_x, grads) = bn_backward(&b, &state, &params, 1e-5).unwrap();
            let mut flat = d_x.into_vec();
            flat.extend(grads.d_gamma);
            flat.extend(grads.d_beta);
            flat
        }),
        // The same backward storing nothing, without and with the clip, and
        // on 2×2 planes — shorter than one vector.
        ("norm_backward", &|| norm_backward(&x, &b, &params, false)),
        ("norm_backward_clip", &|| norm_backward(&x, &b, &params, true)),
        ("norm_backward_clip_2x2", &|| norm_backward(&tiny, &tiny_grad, &params, true)),
        ("avg_pool_backward", &|| {
            let attrs = PoolAttrs::new(3, 2, 1);
            let d_y = avg_pool_forward(&x, &attrs).unwrap();
            avg_pool_backward(&d_y, x.shape(), &attrs).unwrap().into_vec()
        }),
        // The fused layer in both directions: normalize+clip prologue and
        // statistics epilogue forward; mask + ∂γ/∂β epilogue backward, on
        // the rotated (stride 1, 4×4 and 9×9) and strided paths.
        ("fused_forward", &|| fused_forward(normalized(&x), &w, &attrs)),
        ("fused_backward_4x4", &|| fused_backward(normalized(&small), &w, &attrs)),
        ("fused_backward_9x9", &|| fused_backward(normalized(&x), &w, &attrs)),
        ("fused_backward_stride2", &|| fused_backward(normalized(&x), &w, &strided)),
        ("fused_backward_clip", &|| fused_backward(ConvInput::Clip(&x), &w, &attrs)),
        // The same through the bordered scratch the in-place reads need.
        ("fused_forward_8x8", &|| fused_forward(normalized(&wide8), &w, &attrs)),
        ("fused_backward_16x16", &|| fused_backward(normalized(&wide16), &w, &attrs)),
        ("fused_backward_clip_8x8", &|| fused_backward(ConvInput::Clip(&wide8), &w, &attrs)),
        ("fused_backward_8x8_13", &|| fused_backward(normalized(&wide8), &w13, &same13)),
    ];
    for &isa in &isas {
        for (label, f) in cases {
            with_isa(isa, || {
                let reference: Vec<u32> =
                    with_grain(1, || with_threads(1, f)).iter().map(|v| v.to_bits()).collect();
                for &t in &[3usize, 4, 7, 16] {
                    let candidate: Vec<u32> =
                        with_grain(1, || with_threads(t, f)).iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        reference, candidate,
                        "{label} under {isa}: bits differ between 1 and {t} threads"
                    );
                }
            });
        }
    }
}

#[test]
fn softmax_matches_serial() {
    let scores = random(Shape::matrix(7, 13), 19);
    let labels: Vec<usize> = (0..7).map(|i| i % 13).collect();
    check("softmax_forward", || {
        let state = softmax_loss_forward(&scores, &labels).unwrap();
        let mut flat = state.probs.into_vec();
        flat.push(state.loss);
        flat
    });
}
