//! The complete BN Fission-n-Fusion pipeline.

use crate::graph::Graph;
use crate::passes::{
    FissionPass, FuseNormReluConvPass, FuseStatsIntoConvPass, MvfPass, Pass, PassPipeline, RcfPass,
};
use crate::Result;

/// The paper's full BNFF restructuring: Fission, MVF, both Fusion halves,
/// and RCF for the ReLUs that are not adjacent to a BN layer.
///
/// The order matters:
///
/// 1. `FissionPass` exposes `sub-BN1` / `sub-BN2`.
/// 2. [`MvfPass`] makes the statistics single-sweep so they can ride along
///    the preceding convolution's output sweep.
/// 3. `FuseStatsIntoConvPass` produces `CONV1-(sub-BN1)`.
/// 4. `FuseNormReluConvPass` produces `(sub-BN2)-ReLU-CONV2`.
/// 5. [`RcfPass`] fuses any remaining standalone ReLU into its following
///    convolution (e.g. ResNet's post-shortcut ReLUs).
#[derive(Debug, Default, Clone, Copy)]
pub struct BnffPass;

impl BnffPass {
    /// Creates the pass.
    pub fn new() -> Self {
        BnffPass
    }

    fn pipeline() -> PassPipeline {
        PassPipeline::new()
            .with(Box::new(FissionPass::new()))
            .with(Box::new(MvfPass::new()))
            .with(Box::new(FuseStatsIntoConvPass::new()))
            .with(Box::new(FuseNormReluConvPass::new()))
            .with(Box::new(RcfPass::new()))
    }
}

impl Pass for BnffPass {
    fn name(&self) -> &'static str {
        "bn-fission-n-fusion"
    }

    fn run(&self, graph: &Graph) -> Result<Graph> {
        Self::pipeline().run(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::builder::GraphBuilder;
    use crate::op::{Conv2dAttrs, OpKind, PoolAttrs};
    use bnff_tensor::Shape;

    /// Two chained DenseNet-style composite layers with a Concat in between.
    fn two_cpl_graph() -> Graph {
        let mut b = GraphBuilder::new("two-cpl");
        let x = b.input("in", Shape::nchw(8, 64, 16, 16)).unwrap();

        // CPL 1: BN -> ReLU -> 1x1 CONV -> BN -> ReLU -> 3x3 CONV
        let c1 = b.bn_relu_conv(x, Conv2dAttrs::pointwise(128), "cpl1/a").unwrap();
        let c1 = b.bn_relu_conv(c1, Conv2dAttrs::same_3x3(32), "cpl1/b").unwrap();
        let cat1 = b.concat(vec![x, c1], "concat1").unwrap();

        // CPL 2
        let c2 = b.bn_relu_conv(cat1, Conv2dAttrs::pointwise(128), "cpl2/a").unwrap();
        let c2 = b.bn_relu_conv(c2, Conv2dAttrs::same_3x3(32), "cpl2/b").unwrap();
        b.concat(vec![cat1, c2], "concat2").unwrap();
        b.finish()
    }

    #[test]
    fn bnff_restructures_dense_block() {
        let g = two_cpl_graph();
        let out = BnffPass::new().run(&g).unwrap();
        assert!(out.validate().is_ok());
        let hist = out.op_histogram();
        // No unfissioned BN, no standalone ReLU remains.
        assert!(!hist.contains_key("BatchNorm"));
        assert!(!hist.contains_key("ReLU"));
        // The two interior BNs (those preceded by the 1x1 convs) are fully
        // fused on both sides; because the 1x1 convolutions both absorb the
        // next BN's statistics *and* the previous BN's normalization they
        // become NormReluConvStats. The two boundary BNs (preceded by the
        // input / Concat) keep a standalone statistics sub-layer (removed
        // only by ICF).
        assert_eq!(hist["NormReluConvStats"], 2);
        assert_eq!(hist["NormReluConv"], 2);
        assert_eq!(hist["SubBnStats"], 2);
        assert!(!hist.contains_key("ConvStats"));
        assert!(!hist.contains_key("SubBnNorm"));
    }

    #[test]
    fn bnff_reduces_sweeps_and_bytes() {
        let g = two_cpl_graph();
        let out = BnffPass::new().run(&g).unwrap();
        let sweeps_before = analysis::activation_sweep_count(&g).unwrap();
        let sweeps_after = analysis::activation_sweep_count(&out).unwrap();
        assert!(sweeps_after < sweeps_before);

        let cost_before = analysis::graph_cost(&g).unwrap();
        let cost_after = analysis::graph_cost(&out).unwrap();
        assert!(
            cost_after.bytes_fwd + cost_after.bytes_bwd
                < cost_before.bytes_fwd + cost_before.bytes_bwd
        );
        // Forward savings are proportionally larger than backward savings
        // (Section 5: 47.9% vs 15.4% for DenseNet-121).
        let fwd_saving = 1.0 - cost_after.bytes_fwd as f64 / cost_before.bytes_fwd as f64;
        let bwd_saving = 1.0 - cost_after.bytes_bwd as f64 / cost_before.bytes_bwd as f64;
        assert!(fwd_saving > bwd_saving);
    }

    #[test]
    fn bnff_preserves_arithmetic_structure() {
        // The number of convolution-bearing nodes must not change: fusion
        // merges layers, it does not delete convolutions.
        let g = two_cpl_graph();
        let out = BnffPass::new().run(&g).unwrap();
        let convs_before = g.nodes().filter(|n| n.op.contains_conv()).count();
        let convs_after = out.nodes().filter(|n| n.op.contains_conv()).count();
        assert_eq!(convs_before, convs_after);
    }

    #[test]
    fn bnff_on_resnet_style_block() {
        // CONV-BN-ReLU x2 + CONV-BN + shortcut EWS + ReLU -> next CONV.
        let mut b = GraphBuilder::new("res-block");
        let x = b.input("in", Shape::nchw(4, 64, 16, 16)).unwrap();
        let r1 = b.conv_bn_relu(x, Conv2dAttrs::pointwise(64), "b1").unwrap();
        let r2 = b.conv_bn_relu(r1, Conv2dAttrs::same_3x3(64), "b2").unwrap();
        let bn3 = b.conv_bn(r2, Conv2dAttrs::pointwise(256), "b3").unwrap();
        let short = b.conv_bn(x, Conv2dAttrs::pointwise(256), "short").unwrap();
        let ews = b.eltwise_sum(vec![bn3, short], "ews").unwrap();
        let relu = b.relu(ews, "relu_out").unwrap();
        b.conv2d(relu, Conv2dAttrs::pointwise(128), "next_conv").unwrap();
        let g = b.finish();

        let out = BnffPass::new().run(&g).unwrap();
        assert!(out.validate().is_ok());
        let hist = out.op_histogram();
        assert!(!hist.contains_key("BatchNorm"));
        // All four BN statistics sub-layers ride on their preceding convs;
        // the two interior convolutions are additionally fused with the
        // previous BN's normalization + ReLU.
        assert_eq!(hist["ConvStats"], 2);
        assert_eq!(hist["NormReluConvStats"], 2);
        // The two residual-branch tail BNs (followed by EWS, not ReLU+CONV)
        // keep their normalization sub-layer.
        assert_eq!(hist["SubBnNorm"], 2);
        // The post-EWS ReLU fuses with next_conv through RCF.
        assert_eq!(hist["ReluConv"], 1);
        assert!(!hist.contains_key("ReLU"));
    }

    #[test]
    fn bnff_is_idempotent_on_node_count() {
        let g = two_cpl_graph();
        let once = BnffPass::new().run(&g).unwrap();
        let twice = BnffPass::new().run(&once).unwrap();
        assert_eq!(once.node_count(), twice.node_count());
    }

    #[test]
    fn bnff_handles_models_with_pooling_stem() {
        let mut b = GraphBuilder::new("stem");
        let x = b.input("in", Shape::nchw(4, 3, 64, 64)).unwrap();
        let c = b.conv2d(x, Conv2dAttrs::new(64, 7, 2, 3), "stem_conv").unwrap();
        let bn = b.batch_norm_default(c, "stem_bn").unwrap();
        let r = b.relu(bn, "stem_relu").unwrap();
        b.max_pool(r, PoolAttrs::new(3, 2, 1), "stem_pool").unwrap();
        let g = b.finish();
        let out = BnffPass::new().run(&g).unwrap();
        assert!(out.validate().is_ok());
        // Stats fuse into the stem conv; norm+relu cannot fuse into the pool,
        // so they collapse into a NormRelu node.
        let hist = out.op_histogram();
        assert_eq!(hist["ConvStats"], 1);
        assert_eq!(hist["NormRelu"], 1);
    }

    #[test]
    fn fused_graph_contains_no_plain_conv_after_bn() {
        let g = two_cpl_graph();
        let out = BnffPass::new().run(&g).unwrap();
        // Every convolution that followed a BN+ReLU pair must now be a fused
        // NormReluConv; the only plain Conv2d allowed is one not preceded by
        // BN (none in this graph).
        for node in out.nodes() {
            if let OpKind::Conv2d(_) = node.op {
                panic!("unexpected plain Conv2d '{}' after BNFF", node.name);
            }
        }
    }
}
