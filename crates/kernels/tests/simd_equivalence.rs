//! Scalar-vs-SIMD equivalence for every kernel with an explicit AVX2+FMA
//! flavour.
//!
//! The two dispatch paths are *not* bit-identical by design: the AVX2
//! microkernel contracts multiply-adds with FMA (one rounding where the
//! scalar path rounds twice) and the f64 statistics sums split across
//! vector lanes before a fixed-order horizontal reduce. Both effects are
//! bounded reassociations, so the paths must agree within an accumulated-
//! rounding tolerance that scales with the reduction depth — that bound is
//! what these tests pin down. Kernels whose vector flavour uses only
//! exact-rounded elementwise ops (ReLU and its backward mask, element-wise
//! sum, bias add) must match bit-for-bit and are asserted exactly.
//!
//! Every vector tier the host has runs each case: the AVX-512 tier must
//! give the AVX2+FMA tier's bits exactly (only its GEMM microkernel is
//! wider, with the same per-element arithmetic), and both must lie within
//! the bound of the scalar path. On hardware without AVX2+FMA there is no
//! vector tier and every comparison holds trivially — the suite still
//! passes, it just stops being a cross-path check.

use bnff_graph::op::Conv2dAttrs;
use bnff_kernels::batchnorm::{
    bn_backward, bn_forward, norm_backward_inplace, BnParamGrads, BnParams,
};
use bnff_kernels::conv::{conv2d_backward_weights, conv2d_forward_relu_into, ConvInput};
use bnff_kernels::dispatch::{active_isa, with_isa, SimdIsa};
use bnff_kernels::eltwise::eltwise_sum_forward;
use bnff_kernels::fused::{
    fused_conv_backward_into, fused_conv_forward_into, norm_relu_conv_forward,
};
use bnff_kernels::gemm::{gemm, gemm_nt, gemm_tn, KC, MC, MR, NR};
use bnff_kernels::relu::{relu_backward, relu_forward};
use bnff_kernels::{affine, fc};
use bnff_tensor::init::Initializer;
use bnff_tensor::stats::{channel_stats_one_pass, channel_stats_two_pass};
use bnff_tensor::{Shape, Tensor};
use proptest::prelude::*;

/// The vector tiers under test: each one a scoped request survives
/// hardware clamping for.
fn vector_isas() -> Vec<SimdIsa> {
    [SimdIsa::Avx2Fma, SimdIsa::Avx512]
        .into_iter()
        .filter(|&isa| with_isa(isa, active_isa) == isa)
        .collect()
}

fn data(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Cross-path tolerance for a depth-`k` dot product of values in
/// `[-0.5, 0.5)`: each FMA contraction removes one rounding of magnitude
/// ≤ ulp(partial sum) ≈ 2⁻²⁴·|partial|, and |partial| ≤ 0.25·k, so the
/// paths can drift by ~k·2⁻²⁶ — comfortably under `1e-5·k` with slack for
/// the `KC`-slab reassociation the packed kernel already documents.
fn tol(k: usize) -> f32 {
    1e-5 * (k.max(8) as f32)
}

fn assert_paths_close(label: &str, k: usize, scalar: &[f32], vector: &[f32]) {
    assert_eq!(scalar.len(), vector.len(), "{label}: length mismatch");
    for (i, (s, v)) in scalar.iter().zip(vector.iter()).enumerate() {
        assert!((s - v).abs() <= tol(k), "{label}[{i}]: scalar {s} vs vector {v} (tol {})", tol(k));
    }
}

/// Runs `f` once under the scalar path and once under each vector tier,
/// checks that the vector tiers agree bit for bit, and returns (scalar,
/// vector) — the scalar result twice on a host without a vector tier.
fn both_paths<F: Fn() -> Vec<f32>>(f: F) -> (Vec<f32>, Vec<f32>) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let scalar = with_isa(SimdIsa::Scalar, &f);
    let mut vectors = vector_isas().into_iter().map(|isa| (isa, with_isa(isa, &f)));
    let Some((first, vector)) = vectors.next() else {
        return (scalar.clone(), scalar);
    };
    for (isa, other) in vectors {
        assert_eq!(bits(&other), bits(&vector), "{isa} must reproduce {first} bit for bit");
    }
    (scalar, vector)
}

proptest! {
    /// All three transpose variants across ragged shapes straddling the
    /// widened 6×16 microtile, the `MC` row grid and the `KC` slabs,
    /// including `K = 0` and α/β accumulation.
    #[test]
    fn gemm_paths_agree_on_ragged_shapes(
        case in (1usize..MC + MR + 2, 1usize..2 * NR + 5, 0usize..KC + 33, 0usize..1_000_000)
    ) {
        let (m, n, k, seed) = (case.0, case.1, case.2, case.3 as u64);
        let a = data(m * k, seed);
        let b = data(k * n, seed ^ 0xABCD);
        let c0 = data(m * n, seed ^ 0x7777);

        let (s, v) = both_paths(|| {
            let mut c = vec![0.0; m * n];
            gemm(m, n, k, 1.0, &a, &b, 0.0, &mut c).unwrap();
            c
        });
        assert_paths_close("gemm", k, &s, &v);

        let (s, v) = both_paths(|| {
            let mut c = c0.clone();
            gemm(m, n, k, 1.25, &a, &b, -0.5, &mut c).unwrap();
            c
        });
        assert_paths_close("gemm(alpha,beta)", k, &s, &v);

        // Transposed-operand entry points share the packed core, but their
        // packing routines must feed both microkernels identically.
        let mut bt = vec![0.0; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        let (s, v) = both_paths(|| {
            let mut c = vec![0.0; m * n];
            gemm_nt(m, n, k, &a, &bt, &mut c).unwrap();
            c
        });
        assert_paths_close("gemm_nt", k, &s, &v);

        let mut at = vec![0.0; k * m];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let (s, v) = both_paths(|| {
            let mut c = vec![0.0; m * n];
            gemm_tn(m, n, k, &at, &b, &mut c).unwrap();
            c
        });
        assert_paths_close("gemm_tn", k, &s, &v);
    }
}

#[test]
fn relu_and_eltwise_are_bit_identical_across_paths() {
    let mut init = Initializer::seeded(21);
    let x = init.uniform(Shape::nchw(2, 3, 9, 9), -2.0, 2.0);
    let b = init.uniform(Shape::nchw(2, 3, 9, 9), -2.0, 2.0);
    let (s, v) = both_paths(|| relu_forward(&x).into_vec());
    assert_eq!(
        s.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        v.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        "relu must not differ across dispatch paths"
    );
    // The backward mask, over activations with NaN and both zeros.
    let mut mask = x.clone();
    for (i, v) in mask.as_mut_slice().iter_mut().step_by(7).enumerate() {
        *v = [f32::NAN, 0.0, -0.0][i % 3];
    }
    let (s, v) = both_paths(|| relu_backward(&b, &mask).unwrap().into_vec());
    assert_eq!(
        s.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        v.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        "the ReLU mask must not differ across dispatch paths"
    );
    let (s, v) = both_paths(|| eltwise_sum_forward(&[&x, &b, &x]).unwrap().into_vec());
    assert_eq!(
        s.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        v.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        "eltwise sum must not differ across dispatch paths"
    );
}

#[test]
fn statistics_paths_agree() {
    let mut init = Initializer::seeded(22);
    // Odd plane length (7·7) exercises the vector-tail split of the f64
    // accumulators.
    let x = init.uniform(Shape::nchw(5, 6, 7, 7), -2.0, 2.0);
    let per_channel = 5 * 7 * 7;
    for (label, f) in [
        (
            "one_pass",
            &(|| {
                let s = channel_stats_one_pass(&x).unwrap();
                let mut flat = s.mean;
                flat.extend(s.var);
                flat
            }) as &dyn Fn() -> Vec<f32>,
        ),
        ("two_pass", &|| {
            let s = channel_stats_two_pass(&x).unwrap();
            let mut flat = s.mean;
            flat.extend(s.var);
            flat
        }),
    ] {
        let (s, v) = both_paths(f);
        // f64 accumulation: lane-splitting reassociates an f64 sum, whose
        // error is far below f32 resolution once cast back.
        assert_paths_close(label, per_channel, &s, &v);
    }
}

#[test]
fn bn_affine_and_fused_paths_agree() {
    let mut init = Initializer::seeded(23);
    let x = init.uniform(Shape::nchw(3, 4, 5, 5), -2.0, 2.0);
    let params = BnParams::new(vec![1.2, 0.8, -0.4, 1.0], vec![0.1, -0.2, 0.3, 0.0]).unwrap();

    let (s, v) = both_paths(|| {
        let (y, state) = bn_forward(&x, &params, 1e-5, true).unwrap();
        let mut flat = y.into_vec();
        flat.extend(state.x_hat.into_vec());
        flat
    });
    // Normalize is one FMA deep; statistics dominate the (tiny) drift.
    assert_paths_close("bn_forward", 3 * 5 * 5, &s, &v);

    let scale = [1.5f32, -0.5, 0.25, 2.0];
    let shift = [0.1f32, -0.3, 0.0, 0.7];
    let (s, v) = both_paths(|| {
        let mut out = Tensor::zeros(x.shape().clone());
        affine::channel_affine_relu_into(&x, &scale, &shift, &mut out).unwrap();
        out.into_vec()
    });
    assert_paths_close("channel_affine_relu", 1, &s, &v);

    let attrs = Conv2dAttrs::same_3x3(6);
    let w = init.uniform(Shape::nchw(6, 4, 3, 3), -0.5, 0.5);
    let bias: Vec<f32> = (0..6).map(|i| 0.05 * i as f32 - 0.1).collect();
    let (s, v) = both_paths(|| {
        let mut out = Tensor::zeros(Shape::nchw(3, 6, 5, 5));
        conv2d_forward_relu_into(&x, &w, Some(&bias), &attrs, &mut out).unwrap();
        out.into_vec()
    });
    assert_paths_close("conv2d_forward_relu", 4 * 9, &s, &v);

    let (s, v) = both_paths(|| {
        let stats = channel_stats_one_pass(&x).unwrap();
        norm_relu_conv_forward(&x, &stats, &params, 1e-5, &w, None, &attrs).unwrap().into_vec()
    });
    assert_paths_close("norm_relu_conv", 4 * 9 + 3 * 5 * 5, &s, &v);

    // 8- and 16-wide maps: the microkernel reads the windows where they lie
    // (a zero-bordered copy of each sample) instead of from packed strips.
    for (h, w_in) in [(8, 8), (6, 16)] {
        let wide = init.uniform(Shape::nchw(2, 4, h, w_in), -2.0, 2.0);
        let (s, v) = both_paths(|| {
            let mut out = Tensor::zeros(Shape::nchw(2, 6, h, w_in));
            conv2d_forward_relu_into(&wide, &w, Some(&bias), &attrs, &mut out).unwrap();
            out.into_vec()
        });
        assert_paths_close("conv2d_forward_relu in place", 4 * 9, &s, &v);
        let (s, v) = both_paths(|| {
            let stats = channel_stats_one_pass(&wide).unwrap();
            let input =
                ConvInput::NormClip { x: &wide, stats: &stats, params: &params, epsilon: 1e-5 };
            let mut out = Tensor::zeros(Shape::nchw(2, 6, h, w_in));
            fused_conv_forward_into(input, &w, None, &attrs, false, &mut out).unwrap();
            let mut d_x = Tensor::zeros(wide.shape().clone());
            let grads =
                fused_conv_backward_into(input, &out, &w, &attrs, false, Some(&mut d_x)).unwrap();
            let mut flat = out.into_vec();
            flat.extend(d_x.into_vec());
            flat.extend(grads.d_weights.into_vec());
            flat
        });
        assert_paths_close("fused conv in place", 6 * 9 + 2 * h * w_in, &s, &v);
    }

    // Backward: the ∂γ/∂β reductions add per-plane lane partials on the
    // vector path where the scalar path continues one fold per channel;
    // unfused on a stored x̂, unfused with x̂ (and a clipping normalization's
    // mask) recomputed from the input — bit-identical to the stored form on
    // each path, 2×2 planes shorter than one vector included — and fused
    // (recomputed in the conv's epilogue).
    let d_y = init.uniform(x.shape().clone(), -1.0, 1.0);
    let mut tiny_init = Initializer::seeded(29);
    let tiny = tiny_init.uniform(Shape::nchw(3, 4, 2, 2), -2.0, 2.0);
    let d_tiny = tiny_init.uniform(tiny.shape().clone(), -1.0, 1.0);
    for (x, d_y, relu) in [(&x, &d_y, false), (&x, &d_y, true), (&tiny, &d_tiny, true)] {
        let (s, v) = both_paths(|| {
            let (y, state) = bn_forward(x, &params, 1e-5, true).unwrap();
            let masked = if relu { relu_backward(d_y, &y).unwrap() } else { d_y.clone() };
            let flat = |d_x: Tensor, grads: BnParamGrads| {
                let mut flat = d_x.into_vec();
                flat.extend(grads.d_gamma);
                flat.extend(grads.d_beta);
                flat
            };
            let (d_x, grads) = bn_backward(&masked, &state, &params, 1e-5).unwrap();
            let stored = flat(d_x, grads);
            let mut d_x = d_y.clone();
            let grads =
                norm_backward_inplace(&mut d_x, x, &state.stats, &params, 1e-5, relu).unwrap();
            let recomputed = flat(d_x, grads);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&recomputed), bits(&stored), "relu={relu} under {}", active_isa());
            recomputed
        });
        assert_paths_close("bn_backward", 3 * 5 * 5, &s, &v);
    }
    let d_out = init.uniform(Shape::nchw(3, 6, 5, 5), -1.0, 1.0);
    let (s, v) = both_paths(|| {
        let stats = channel_stats_one_pass(&x).unwrap();
        let input = ConvInput::NormClip { x: &x, stats: &stats, params: &params, epsilon: 1e-5 };
        let mut d_x = Tensor::zeros(x.shape().clone());
        let grads =
            fused_conv_backward_into(input, &d_out, &w, &attrs, false, Some(&mut d_x)).unwrap();
        let bn = grads.d_bn.unwrap();
        let mut flat = d_x.into_vec();
        flat.extend(grads.d_weights.into_vec());
        flat.extend(bn.d_gamma);
        flat.extend(bn.d_beta);
        flat
    });
    assert_paths_close("fused_conv_backward", 6 * 9 + 3 * 5 * 5, &s, &v);

    // The weight gradient's transposed windows, gathered from a bordered
    // copy of each sample — a strided-padded and a ragged-width padded shape
    // — and its correlation over windows read in place: padded, pointwise,
    // and with 13 and 16 output channels (the AVX-512 tier's 8-channel tile,
    // then its 4- and 1-channel tails, or two whole tiles).
    for (hw, attrs) in [
        (9, Conv2dAttrs::new(6, 3, 2, 1)),
        (7, Conv2dAttrs::new(6, 5, 1, 2)),
        (8, Conv2dAttrs::same_3x3(6)),
        (8, Conv2dAttrs::pointwise(6)),
        (8, Conv2dAttrs::same_3x3(13)),
        (16, Conv2dAttrs::pointwise(16)),
    ] {
        let x = init.uniform(Shape::nchw(3, 4, hw, hw), -0.5, 0.5);
        let out_hw = (hw + 2 * attrs.pad - attrs.kernel_h) / attrs.stride + 1;
        let d_out = init.uniform(Shape::nchw(3, attrs.out_channels, out_hw, out_hw), -0.5, 0.5);
        let (s, v) =
            both_paths(|| conv2d_backward_weights(&x, &d_out, &attrs, false).unwrap().0.into_vec());
        assert_paths_close(&format!("conv2d_backward_weights {attrs:?}"), 3 * hw * hw, &s, &v);
    }
}

#[test]
fn fully_connected_rides_the_dispatched_gemm() {
    let mut init = Initializer::seeded(24);
    let x = init.uniform(Shape::matrix(9, 37), -1.0, 1.0);
    let w = init.uniform(Shape::matrix(11, 37), -1.0, 1.0);
    let bias: Vec<f32> = (0..11).map(|i| 0.01 * i as f32).collect();
    let (s, v) = both_paths(|| fc::fc_forward(&x, &w, &bias).unwrap().into_vec());
    assert_paths_close("fc_forward", 37, &s, &v);
}

#[test]
fn env_override_clamps_to_hardware() {
    // A scoped request for a vector tier never yields an ISA the host
    // cannot execute: AVX-512 steps down to AVX2+FMA, and that to Scalar.
    let (avx2, avx512) =
        (with_isa(SimdIsa::Avx2Fma, active_isa), with_isa(SimdIsa::Avx512, active_isa));
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        assert_eq!(avx2, SimdIsa::Avx2Fma);
        let wide = if is_x86_feature_detected!("avx512f") { SimdIsa::Avx512 } else { avx2 };
        assert_eq!(avx512, wide);
    } else {
        assert_eq!((avx2, avx512), (SimdIsa::Scalar, SimdIsa::Scalar));
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    assert_eq!((avx2, avx512), (SimdIsa::Scalar, SimdIsa::Scalar));
}
