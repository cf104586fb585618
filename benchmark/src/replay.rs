//! Kernel replay: every distinct (op, input shapes) of a training graph's
//! forward pass, timed through `bnff_kernels`' public functions with
//! pre-allocated outputs and multiplied by how often it occurs. What the
//! executor's measured forward takes beyond this sum is dispatch, arena and
//! bookkeeping overhead (`train.overhead_share`).

use crate::stats::time_median;
use crate::Res;
use bnff_graph::op::{OpKind, PoolKind};
use bnff_graph::{Graph, Node};
use bnff_kernels::batchnorm::{bn_normalize_into, bn_statistics, BnParams};
use bnff_kernels::concat::concat_forward_into;
use bnff_kernels::conv::conv2d_forward_into;
use bnff_kernels::eltwise::eltwise_sum_forward_into;
use bnff_kernels::fc::fc_forward;
use bnff_kernels::fused::{
    concat_forward_with_stats_into, conv2d_forward_with_stats_into, norm_relu_conv_forward_into,
};
use bnff_kernels::pool::{avg_pool_forward_into, global_avg_pool_forward, max_pool_forward};
use bnff_kernels::relu::{relu_forward, relu_forward_inplace, relu_forward_into};
use bnff_kernels::softmax::softmax_loss_forward;
use bnff_tensor::init::Initializer;
use bnff_tensor::{Shape, Tensor};
use std::collections::BTreeMap;

/// Kernel-only seconds of one forward pass of `graph`, in total and per op
/// kind, under the caller's thread setting.
pub fn forward_kernel_seconds(
    graph: &Graph,
    reps: usize,
    seed: u64,
) -> Res<(f64, BTreeMap<&'static str, f64>)> {
    let mut distinct: BTreeMap<String, (usize, &Node)> = BTreeMap::new();
    for node in graph.nodes() {
        if matches!(node.op, OpKind::Input | OpKind::Split { .. }) {
            continue;
        }
        let shapes: Vec<&Shape> = input_shapes(graph, node)?;
        let key = format!("{:?} {:?}", node.op, shapes);
        distinct.entry(key).or_insert((0, node)).0 += 1;
    }
    let mut init = Initializer::seeded(seed);
    let mut total = 0.0;
    let mut by_kind: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (count, node) in distinct.values() {
        let seconds = time_node(graph, node, reps, &mut init)? * *count as f64;
        total += seconds;
        *by_kind.entry(node.op.name()).or_default() += seconds;
    }
    Ok((total, by_kind))
}

fn input_shapes<'g>(graph: &'g Graph, node: &Node) -> Res<Vec<&'g Shape>> {
    node.inputs.iter().map(|id| Ok(&graph.node(*id)?.output_shape)).collect()
}

fn time_node(graph: &Graph, node: &Node, reps: usize, init: &mut Initializer) -> Res<f64> {
    let shapes = input_shapes(graph, node)?;
    let first = *shapes.first().ok_or("replayed node has no input")?;
    let x = init.uniform(first.clone(), -1.0, 1.0);
    let mut out = Tensor::zeros(node.output_shape.clone());
    let conv_weights = |init: &mut Initializer| {
        node.op.conv_attrs().map(|a| {
            init.uniform(Shape::nchw(a.out_channels, first.c(), a.kernel_h, a.kernel_w), -0.1, 0.1)
        })
    };
    match &node.op {
        OpKind::Conv2d(a) => {
            let w = conv_weights(init).ok_or("conv without attrs")?;
            time_median(reps, || Ok(conv2d_forward_into(&x, &w, None, a, &mut out)?))
        }
        OpKind::ReluConv(a) => {
            let w = conv_weights(init).ok_or("conv without attrs")?;
            time_median(reps, || {
                let clipped = relu_forward(&x);
                Ok(conv2d_forward_into(&clipped, &w, None, a, &mut out)?)
            })
        }
        OpKind::ConvStats { conv: a, .. } => {
            let w = conv_weights(init).ok_or("conv without attrs")?;
            time_median(reps, || Ok(conv2d_forward_with_stats_into(&x, &w, None, a, &mut out)?))
        }
        OpKind::BatchNorm(attrs) => {
            let p = BnParams::identity(first.c());
            time_median(reps, || {
                let s = bn_statistics(&x, attrs.one_pass_stats)?;
                Ok(bn_normalize_into(&x, &s, &p, attrs.epsilon, &mut out)?)
            })
        }
        OpKind::SubBnStats(attrs) => {
            time_median(reps, || Ok(bn_statistics(&x, attrs.one_pass_stats)?))
        }
        OpKind::SubBnNorm(attrs) | OpKind::NormRelu(attrs) => {
            let p = BnParams::identity(first.c());
            let s = bn_statistics(&x, true)?;
            let clip = matches!(node.op, OpKind::NormRelu(_));
            time_median(reps, || {
                let x_hat = bn_normalize_into(&x, &s, &p, attrs.epsilon, &mut out)?;
                if clip {
                    relu_forward_inplace(&mut out);
                }
                Ok(x_hat)
            })
        }
        OpKind::NormReluConv { conv: a, bn }
        | OpKind::NormReluConvStats { conv: a, bn_in: bn, .. } => {
            let w = conv_weights(init).ok_or("conv without attrs")?;
            let p = BnParams::identity(first.c());
            let s = bn_statistics(&x, true)?;
            let stats_out = match &node.op {
                OpKind::NormReluConvStats { bn_out, .. } => Some(bn_out.one_pass_stats),
                _ => None,
            };
            time_median(reps, || {
                let state =
                    norm_relu_conv_forward_into(&x, &s, &p, bn.epsilon, &w, None, a, &mut out)?;
                let stats = stats_out.map(|one_pass| bn_statistics(&out, one_pass)).transpose()?;
                Ok((state, stats))
            })
        }
        OpKind::Relu => time_median(reps, || Ok(relu_forward_into(&x, &mut out)?)),
        OpKind::Pool { kind: PoolKind::Max, attrs } => {
            time_median(reps, || Ok(max_pool_forward(&x, attrs)?))
        }
        OpKind::Pool { kind: PoolKind::Average, attrs } => {
            time_median(reps, || Ok(avg_pool_forward_into(&x, attrs, &mut out)?))
        }
        OpKind::GlobalAvgPool => time_median(reps, || Ok(global_avg_pool_forward(&x)?)),
        OpKind::Concat | OpKind::ConcatStats(_) | OpKind::EltwiseSum => {
            let inputs: Vec<Tensor> =
                shapes.iter().map(|s| init.uniform((*s).clone(), -1.0, 1.0)).collect();
            let refs: Vec<&Tensor> = inputs.iter().collect();
            time_median(reps, || {
                Ok(match &node.op {
                    OpKind::Concat => concat_forward_into(&refs, &mut out).map(|()| None)?,
                    OpKind::EltwiseSum => {
                        eltwise_sum_forward_into(&refs, &mut out).map(|()| None)?
                    }
                    _ => Some(concat_forward_with_stats_into(&refs, &mut out)?),
                })
            })
        }
        OpKind::FullyConnected { out_features } => {
            let features = first.volume() / first.dims()[0].max(1);
            let w = init.uniform(Shape::matrix(*out_features, features), -0.1, 0.1);
            let bias = vec![0.0f32; *out_features];
            time_median(reps, || Ok(fc_forward(&x, &w, &bias)?))
        }
        OpKind::SoftmaxLoss => {
            let labels: Vec<usize> = (0..first.dims()[0]).map(|i| i % first.dims()[1]).collect();
            time_median(reps, || Ok(softmax_loss_forward(&x, &labels)?))
        }
        OpKind::Input | OpKind::Split { .. } | OpKind::ConvRelu(_) | OpKind::ChannelAffine => {
            Err(format!("'{}' is not part of a training forward pass", node.op.name()).into())
        }
    }
}
