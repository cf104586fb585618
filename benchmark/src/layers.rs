//! Isolated measurements of the layers under every workload: the kernels at
//! the model's widest dense-block shapes, the thread-pool dispatch, and the
//! host's caches and bandwidth. Everything runs on one thread unless named
//! otherwise; `.res` is the shape at batch 2 (cache-resident), `.str` at
//! batch 64 (streams from beyond L2).

use crate::gen;
use crate::host;
use crate::report::Metrics;
use crate::stats::time_median;
use crate::Res;
use bnff_graph::op::{Conv2dAttrs, OpKind};
use bnff_kernels::batchnorm::{bn_backward, bn_forward, bn_normalize, bn_statistics, BnParams};
use bnff_kernels::conv::{
    conv2d_backward_input_into, conv2d_backward_weights, conv2d_forward, conv2d_forward_into,
};
use bnff_kernels::fused::{conv2d_forward_with_stats, norm_relu_conv_forward};
use bnff_kernels::gemm::{gemm, pack_pool_reuse};
use bnff_kernels::relu::{relu_forward, relu_forward_into};
use bnff_parallel::{parallel_for, with_threads};
use bnff_tensor::init::Initializer;
use bnff_tensor::{Shape, Tensor};

const GEMM_DIM: usize = 256;
const REPS: usize = 7;
const EPSILON: f32 = 1e-5;

/// Input shape and attributes of the widest convolution with a `k × k`
/// filter inside the dense blocks (the stem, fed by the image, is skipped).
fn widest_conv(batch: usize, kernel: usize) -> Res<(Shape, Conv2dAttrs)> {
    let graph = gen::baseline_graph(batch)?;
    let mut widest: Option<(Shape, Conv2dAttrs)> = None;
    for node in graph.nodes() {
        let OpKind::Conv2d(attrs) = &node.op else { continue };
        let input = &graph.node(node.inputs[0])?.output_shape;
        if attrs.kernel_h != kernel || input.c() == gen::IMAGE.0 {
            continue;
        }
        if widest.as_ref().is_none_or(|(shape, _)| input.volume() > shape.volume()) {
            widest = Some((input.clone(), *attrs));
        }
    }
    widest.ok_or_else(|| format!("the model has no {kernel}x{kernel} convolution").into())
}

fn conv_flops(input: &Shape, attrs: &Conv2dAttrs) -> f64 {
    // Stride 1 and "same" padding inside the dense blocks: output H×W = input H×W.
    2.0 * (input.n() * attrs.out_channels * input.h() * input.w()) as f64
        * (input.c() * attrs.kernel_h * attrs.kernel_w) as f64
}

/// Emits the `kernels.*`, `parallel.dispatch_us` and `host.*` metrics.
pub fn kernel_and_host_layers(seeds: &gen::Seeds, out: &mut Metrics) -> Res<()> {
    let mut init = Initializer::seeded(seeds.samples);
    with_threads(1, || -> Res<()> {
        let n = GEMM_DIM;
        let a = init.uniform(Shape::matrix(n, n), -1.0, 1.0);
        let b = init.uniform(Shape::matrix(n, n), -1.0, 1.0);
        let mut c = vec![0.0f32; n * n];
        let gemm_s =
            time_median(25, || Ok(gemm(n, n, n, 1.0, a.as_slice(), b.as_slice(), 0.0, &mut c)?))?;
        out.put("kernels.gemm_gflops_256", 2.0 * (n * n * n) as f64 / gemm_s / 1e9, "GFLOP/s");

        for (tag, batch) in [("res", 2usize), ("str", 64)] {
            let streaming = tag == "str";
            let (in3, attrs3) = widest_conv(batch, 3)?;
            let (in1, attrs1) = widest_conv(batch, 1)?;
            let x3 = init.uniform(in3.clone(), -1.0, 1.0);
            let w3 = init.uniform(Shape::nchw(attrs3.out_channels, in3.c(), 3, 3), -0.1, 0.1);
            let x1 = init.uniform(in1.clone(), -1.0, 1.0);
            let w1 = init.uniform(Shape::nchw(attrs1.out_channels, in1.c(), 1, 1), -0.1, 0.1);
            let mut y3 = Tensor::zeros(Shape::nchw(in3.n(), attrs3.out_channels, in3.h(), in3.w()));
            let mut y1 = Tensor::zeros(Shape::nchw(in1.n(), attrs1.out_channels, in1.h(), in1.w()));

            let conv3_s =
                time_median(REPS, || Ok(conv2d_forward_into(&x3, &w3, None, &attrs3, &mut y3)?))?;
            let conv1_s =
                time_median(REPS, || Ok(conv2d_forward_into(&x1, &w1, None, &attrs1, &mut y1)?))?;
            out.put(
                format!("kernels.conv3x3_gflops.{tag}"),
                conv_flops(&in3, &attrs3) / conv3_s / 1e9,
                "GFLOP/s",
            );
            out.put(
                format!("kernels.conv1x1_gflops.{tag}"),
                conv_flops(&in1, &attrs1) / conv1_s / 1e9,
                "GFLOP/s",
            );

            // The bandwidth-bound sweeps, on the 3×3 convolution's input.
            // GB/s divide *computed* bytes — the tensors each kernel must
            // read and write once — by measured seconds.
            let bytes = x3.bytes() as f64;
            let params = BnParams::identity(in3.c());
            let bn_fwd_s = time_median(REPS, || Ok(bn_forward(&x3, &params, EPSILON, true)?))?;
            let (_, state) = bn_forward(&x3, &params, EPSILON, true)?;
            let d_y = init.uniform(in3.clone(), -1.0, 1.0);
            let bn_bwd_s = time_median(REPS, || Ok(bn_backward(&d_y, &state, &params, EPSILON)?))?;
            let mut clipped = Tensor::zeros(in3.clone());
            let relu_s = time_median(REPS, || Ok(relu_forward_into(&x3, &mut clipped)?))?;
            out.put(format!("kernels.bn_forward_gbps.{tag}"), 3.0 * bytes / bn_fwd_s / 1e9, "GB/s");
            out.put(
                format!("kernels.bn_backward_gbps.{tag}"),
                3.0 * bytes / bn_bwd_s / 1e9,
                "GB/s",
            );
            out.put(format!("kernels.relu_gbps.{tag}"), 2.0 * bytes / relu_s / 1e9, "GB/s");

            if !streaming {
                continue;
            }
            let d_out = init.uniform(y3.shape().clone(), -1.0, 1.0);
            let mut d_in = Tensor::zeros(in3.clone());
            let bwd_in_s = time_median(REPS, || {
                Ok(conv2d_backward_input_into(&d_out, &w3, &attrs3, &mut d_in)?)
            })?;
            let bwd_w_s =
                time_median(REPS, || Ok(conv2d_backward_weights(&x3, &d_out, &attrs3, false)?))?;
            out.put(
                "kernels.conv_bwd_input_gflops.str",
                conv_flops(&in3, &attrs3) / bwd_in_s / 1e9,
                "GFLOP/s",
            );
            out.put(
                "kernels.conv_bwd_weights_gflops.str",
                conv_flops(&in3, &attrs3) / bwd_w_s / 1e9,
                "GFLOP/s",
            );

            // CONV1 + sub-BN1 on the bottleneck convolution, fused vs apart.
            let apart_s = time_median(REPS, || {
                let y = conv2d_forward(&x1, &w1, None, &attrs1)?;
                let stats = bn_statistics(&y, true)?;
                Ok((y, stats))
            })?;
            let fused_s =
                time_median(REPS, || Ok(conv2d_forward_with_stats(&x1, &w1, None, &attrs1)?))?;
            out.put("kernels.fusion_gain_conv_stats.str", apart_s / fused_s, "ratio");

            // sub-BN2 + ReLU + CONV2 on the growth convolution, fused vs apart.
            let stats = bn_statistics(&x3, true)?;
            let apart_s = time_median(REPS, || {
                let (y, x_hat) = bn_normalize(&x3, &stats, &params, EPSILON)?;
                let out = conv2d_forward(&relu_forward(&y), &w3, None, &attrs3)?;
                Ok((out, x_hat))
            })?;
            let fused_s = time_median(REPS, || {
                Ok(norm_relu_conv_forward(&x3, &stats, &params, EPSILON, &w3, None, &attrs3)?)
            })?;
            out.put("kernels.fusion_gain_norm_relu_conv.str", apart_s / fused_s, "ratio");
        }
        Ok(())
    })?;
    let (hits, takes) = pack_pool_reuse();
    out.put("kernels.pack_pool_hit_rate", hits as f64 / takes.max(1) as f64, "ratio");

    // An empty two-item dispatch over two workers: the fork-join cost every
    // parallel kernel pays before doing any work.
    let dispatch_s = with_threads(2, || {
        time_median(25, || {
            for _ in 0..100 {
                parallel_for(2, 1, |range| {
                    std::hint::black_box(range);
                });
            }
            Ok(())
        })
    })?;
    out.put("parallel.dispatch_us", dispatch_s * 1e6 / 100.0, "us");

    let (l2, llc) = host::cache_sizes();
    let triad = host::stream_triad(llc);
    out.put("host.triad_gbps", triad.gbps, "GB/s");
    out.put("host.l2_bytes", l2 as f64, "B");
    out.put("host.llc_bytes", llc as f64, "B");
    out.note("host.triad_array_bytes", triad.array_bytes as f64);
    Ok(())
}
