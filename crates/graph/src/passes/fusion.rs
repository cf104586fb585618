//! The two Fusion halves of BN Fission-n-Fusion.
//!
//! After [`FissionPass`](crate::passes::FissionPass) has split each BN layer
//! into `sub-BN1` (statistics) and `sub-BN2` (normalization):
//!
//! * [`FuseStatsIntoConvPass`] glues `sub-BN1` onto the *preceding*
//!   convolution, which then accumulates Σx and Σx² while writing its output
//!   feature map (`CONV1-(sub-BN1)` in the paper, [`OpKind::ConvStats`]).
//! * [`FuseNormReluConvPass`] glues `sub-BN2` onto the *following* ReLU and
//!   convolution, which normalizes and clips while reading its input feature
//!   map (`(sub-BN2)-ReLU-CONV2`, [`OpKind::NormReluConv`]). When no
//!   convolution follows, the normalization and ReLU are still merged into a
//!   single [`OpKind::NormRelu`] sweep.

use crate::graph::Graph;
use crate::node::NodeId;
use crate::op::OpKind;
use crate::passes::Pass;
use crate::Result;
use std::collections::HashSet;

/// Fuses each `sub-BN1` statistics node into the convolution that produces
/// its input, yielding [`OpKind::ConvStats`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FuseStatsIntoConvPass;

impl FuseStatsIntoConvPass {
    /// Creates the pass.
    pub(crate) fn new() -> Self {
        FuseStatsIntoConvPass
    }
}

impl Pass for FuseStatsIntoConvPass {
    fn name(&self) -> &'static str {
        "fuse-stats-into-conv"
    }

    fn run(&self, graph: &Graph) -> Result<Graph> {
        let mut out = graph.clone();
        let mut removed: HashSet<NodeId> = HashSet::new();

        let stats_nodes: Vec<NodeId> =
            graph.nodes().filter(|n| matches!(n.op, OpKind::SubBnStats(_))).map(|n| n.id).collect();

        for stats_id in stats_nodes {
            let (bn_attrs, producer_id) = {
                let node = out.node(stats_id)?;
                let attrs = match node.op {
                    OpKind::SubBnStats(a) => a,
                    _ => continue,
                };
                (attrs, node.inputs[0])
            };
            let producer_op = out.node(producer_id)?.op.clone();
            let fused_op = match producer_op {
                OpKind::Conv2d(conv) => OpKind::ConvStats { conv, bn: bn_attrs },
                // A convolution that already normalizes its inputs can still
                // accumulate statistics on its outputs (fused on both sides).
                OpKind::NormReluConv { conv, bn } => {
                    OpKind::NormReluConvStats { conv, bn_in: bn, bn_out: bn_attrs }
                }
                // Anything else (Concat, Pool, Input, an already-fused
                // statistics producer) cannot absorb the accumulator here;
                // Concat is handled by the ICF pass.
                _ => continue,
            };
            out.set_op(producer_id, fused_op)?;
            let producer_name = out.node(producer_id)?.name.clone();
            out.set_node_name(producer_id, format!("{producer_name}+stats"))?;
            // Consumers of the statistics (the sub-BN2 node) now read them
            // from the fused convolution's on-chip accumulator.
            out.rewire_consumers(stats_id, producer_id)?;
            removed.insert(stats_id);
        }
        out.compacted(&removed)
    }
}

/// Fuses each `sub-BN2` normalization node with the ReLU and convolution
/// that consume it, yielding [`OpKind::NormReluConv`] (or [`OpKind::NormRelu`]
/// when no convolution follows).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FuseNormReluConvPass;

impl FuseNormReluConvPass {
    /// Creates the pass.
    pub(crate) fn new() -> Self {
        FuseNormReluConvPass
    }
}

impl Pass for FuseNormReluConvPass {
    fn name(&self) -> &'static str {
        "fuse-norm-relu-conv"
    }

    fn run(&self, graph: &Graph) -> Result<Graph> {
        let mut out = graph.clone();
        let mut removed: HashSet<NodeId> = HashSet::new();

        let norm_nodes: Vec<NodeId> =
            graph.nodes().filter(|n| matches!(n.op, OpKind::SubBnNorm(_))).map(|n| n.id).collect();

        for norm_id in norm_nodes {
            let (bn_attrs, norm_inputs) = {
                let node = out.node(norm_id)?;
                let attrs = match node.op {
                    OpKind::SubBnNorm(a) => a,
                    _ => continue,
                };
                (attrs, node.inputs.clone())
            };
            let consumers = out.consumers(norm_id);
            if consumers.len() != 1 {
                continue;
            }
            let relu_id = consumers[0];
            if !matches!(out.node(relu_id)?.op, OpKind::Relu) {
                continue;
            }
            let relu_consumers = out.consumers(relu_id);
            if relu_consumers.len() == 1 {
                let conv_id = relu_consumers[0];
                let fused_op = match out.node(conv_id)?.op.clone() {
                    // Full fusion: sub-BN2 + ReLU + CONV2.
                    OpKind::Conv2d(conv) => Some(OpKind::NormReluConv { conv, bn: bn_attrs }),
                    // The following convolution already accumulates the next
                    // BN's statistics: fuse on both sides.
                    OpKind::ConvStats { conv, bn } => {
                        Some(OpKind::NormReluConvStats { conv, bn_in: bn_attrs, bn_out: bn })
                    }
                    _ => None,
                };
                if let Some(fused_op) = fused_op {
                    out.set_op(conv_id, fused_op)?;
                    out.set_inputs(conv_id, norm_inputs.clone())?;
                    let conv_name = out.node(conv_id)?.name.clone();
                    out.set_node_name(conv_id, format!("{conv_name}+norm+relu"))?;
                    removed.insert(norm_id);
                    removed.insert(relu_id);
                    continue;
                }
            }
            // Tail case: no single following convolution. Merge the
            // normalization with the ReLU so the pair still costs a single
            // read + write sweep.
            out.set_op(norm_id, OpKind::NormRelu(bn_attrs))?;
            let norm_name = out.node(norm_id)?.name.clone();
            out.set_node_name(norm_id, format!("{norm_name}+relu"))?;
            out.rewire_consumers(relu_id, norm_id)?;
            removed.insert(relu_id);
        }
        out.compacted(&removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::builder::GraphBuilder;
    use crate::op::Conv2dAttrs;
    use crate::passes::FissionPass;
    use bnff_tensor::Shape;

    /// CONV1 -> BN -> ReLU -> CONV2, the canonical DenseNet CPL interior.
    fn cpl_graph() -> Graph {
        let mut b = GraphBuilder::new("cpl");
        let x = b.input("in", Shape::nchw(8, 64, 16, 16)).unwrap();
        let c1 = b.conv2d(x, Conv2dAttrs::pointwise(128), "conv1").unwrap();
        let bn = b.batch_norm_default(c1, "bn").unwrap();
        let r = b.relu(bn, "relu").unwrap();
        b.conv2d(r, Conv2dAttrs::same_3x3(32), "conv2").unwrap();
        b.finish()
    }

    #[test]
    fn stats_fuse_into_preceding_conv() {
        let g = FissionPass::new().run(&cpl_graph()).unwrap();
        let out = FuseStatsIntoConvPass::new().run(&g).unwrap();
        assert!(out.validate().is_ok());
        let hist = out.op_histogram();
        assert!(!hist.contains_key("SubBnStats"));
        assert_eq!(hist["ConvStats"], 1);
        // The normalization node now reads its statistics from the fused conv.
        let norm = out.nodes().find(|n| matches!(n.op, OpKind::SubBnNorm(_))).unwrap();
        let stats_src = out.node(norm.inputs[1]).unwrap();
        assert!(matches!(stats_src.op, OpKind::ConvStats { .. }));
    }

    #[test]
    fn norm_relu_conv_full_fusion() {
        let g = FissionPass::new().run(&cpl_graph()).unwrap();
        let g = FuseStatsIntoConvPass::new().run(&g).unwrap();
        let out = FuseNormReluConvPass::new().run(&g).unwrap();
        assert!(out.validate().is_ok());
        let hist = out.op_histogram();
        assert!(!hist.contains_key("SubBnNorm"));
        assert!(!hist.contains_key("ReLU"));
        assert_eq!(hist["NormReluConv"], 1);
        assert_eq!(hist["ConvStats"], 1);
        // Input, ConvStats, NormReluConv: 3 nodes.
        assert_eq!(out.node_count(), 3);
    }

    #[test]
    fn full_fusion_reduces_activation_sweeps() {
        let baseline = cpl_graph();
        let before = analysis::activation_sweep_count(&baseline).unwrap();
        let g = FissionPass::new().run(&baseline).unwrap();
        let g = FuseStatsIntoConvPass::new().run(&g).unwrap();
        let out = FuseNormReluConvPass::new().run(&g).unwrap();
        let after = analysis::activation_sweep_count(&out).unwrap();
        assert!(after < before, "BNFF fusion must reduce sweeps ({after} vs {before})");
    }

    #[test]
    fn stats_after_non_conv_producer_stay() {
        // BN directly after a pooling layer: sub-BN1 cannot fuse.
        let mut b = GraphBuilder::new("g");
        let x = b.input("in", Shape::nchw(2, 8, 8, 8)).unwrap();
        let p = b.max_pool(x, crate::op::PoolAttrs::new(2, 2, 0), "pool").unwrap();
        b.batch_norm_default(p, "bn").unwrap();
        let g = FissionPass::new().run(&b.finish()).unwrap();
        let out = FuseStatsIntoConvPass::new().run(&g).unwrap();
        assert_eq!(out.op_histogram()["SubBnStats"], 1);
    }

    #[test]
    fn norm_without_following_conv_becomes_norm_relu() {
        // BN -> ReLU -> GlobalAvgPool (the DenseNet classifier tail).
        let mut b = GraphBuilder::new("g");
        let x = b.input("in", Shape::nchw(2, 8, 8, 8)).unwrap();
        let c = b.conv2d(x, Conv2dAttrs::pointwise(16), "conv").unwrap();
        let bn = b.batch_norm_default(c, "bn").unwrap();
        let r = b.relu(bn, "relu").unwrap();
        b.global_avg_pool(r, "gap").unwrap();
        let g = FissionPass::new().run(&b.finish()).unwrap();
        let g = FuseStatsIntoConvPass::new().run(&g).unwrap();
        let out = FuseNormReluConvPass::new().run(&g).unwrap();
        assert!(out.validate().is_ok());
        let hist = out.op_histogram();
        assert_eq!(hist["NormRelu"], 1);
        assert!(!hist.contains_key("ReLU"));
        assert!(!hist.contains_key("SubBnNorm"));
    }

    #[test]
    fn norm_without_relu_is_left_alone() {
        // ResNet residual-branch tail: CONV -> BN -> EltwiseSum.
        let mut b = GraphBuilder::new("g");
        let x = b.input("in", Shape::nchw(2, 8, 8, 8)).unwrap();
        let c = b.conv2d(x, Conv2dAttrs::pointwise(8), "conv").unwrap();
        let bn = b.batch_norm_default(c, "bn").unwrap();
        b.eltwise_sum(vec![bn, x], "ews").unwrap();
        let g = FissionPass::new().run(&b.finish()).unwrap();
        let g = FuseStatsIntoConvPass::new().run(&g).unwrap();
        let out = FuseNormReluConvPass::new().run(&g).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.op_histogram()["SubBnNorm"], 1);
    }
}
