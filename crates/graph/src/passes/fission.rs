//! BN Fission: split every Batch Normalization layer into a statistics
//! sub-layer (`sub-BN1`) and a normalization sub-layer (`sub-BN2`).

use crate::graph::Graph;
use crate::node::NodeId;
use crate::op::OpKind;
use crate::passes::Pass;
use crate::Result;

/// Splits each [`OpKind::BatchNorm`] node into an [`OpKind::SubBnStats`]
/// node (per-channel Σx/Σx² over the mini-batch) and an
/// [`OpKind::SubBnNorm`] node (γ/β normalization).
///
/// Fission by itself does not change the number of memory sweeps — the
/// statistics sub-layer still reads the ifmaps and the normalization
/// sub-layer reads them again — but it exposes the two halves to the fusion
/// passes so each can be absorbed by an adjacent convolution (Section 3.2 of
/// the paper).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FissionPass;

impl FissionPass {
    /// Creates the pass.
    pub(crate) fn new() -> Self {
        FissionPass
    }
}

impl Pass for FissionPass {
    fn name(&self) -> &'static str {
        "bn-fission"
    }

    fn run(&self, graph: &Graph) -> Result<Graph> {
        let mut out = graph.clone();
        let bn_nodes: Vec<(NodeId, OpKind, NodeId, String)> = graph
            .nodes()
            .filter_map(|n| match &n.op {
                OpKind::BatchNorm(attrs) => {
                    Some((n.id, OpKind::BatchNorm(*attrs), *n.inputs.first()?, n.name.clone()))
                }
                _ => None,
            })
            .collect();

        for (bn_id, op, input, name) in bn_nodes {
            let attrs = match op {
                OpKind::BatchNorm(a) => a,
                _ => unreachable!("filtered to BatchNorm above"),
            };
            let stats =
                out.add_node(format!("{name}/stats"), OpKind::SubBnStats(attrs), vec![input])?;
            out.set_op(bn_id, OpKind::SubBnNorm(attrs))?;
            out.set_inputs(bn_id, vec![input, stats])?;
            out.set_node_name(bn_id, format!("{name}/norm"))?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::builder::GraphBuilder;
    use crate::op::{BatchNormAttrs, Conv2dAttrs};
    use bnff_tensor::Shape;

    fn bn_graph() -> Graph {
        let mut b = GraphBuilder::new("g");
        let x = b.input("in", Shape::nchw(4, 16, 8, 8)).unwrap();
        let c = b.conv2d(x, Conv2dAttrs::pointwise(32), "conv").unwrap();
        let bn = b.batch_norm(c, BatchNormAttrs::default(), "bn").unwrap();
        let r = b.relu(bn, "relu").unwrap();
        b.conv2d(r, Conv2dAttrs::same_3x3(8), "conv2").unwrap();
        b.finish()
    }

    #[test]
    fn splits_bn_into_two_sub_layers() {
        let g = bn_graph();
        let out = FissionPass::new().run(&g).unwrap();
        assert!(out.validate().is_ok());
        let hist = out.op_histogram();
        assert!(!hist.contains_key("BatchNorm"));
        assert_eq!(hist["SubBnStats"], 1);
        assert_eq!(hist["SubBnNorm"], 1);
        // One extra node: BN became two.
        assert_eq!(out.node_count(), g.node_count() + 1);
    }

    #[test]
    fn norm_sub_layer_keeps_consumers() {
        let g = bn_graph();
        let out = FissionPass::new().run(&g).unwrap();
        // The ReLU must still read from the (renamed) normalization node,
        // which re-uses the original BN node id.
        let relu = out.nodes().find(|n| n.name == "relu").unwrap();
        let norm = out.node(relu.inputs[0]).unwrap();
        assert!(matches!(norm.op, OpKind::SubBnNorm(_)));
        assert!(norm.name.ends_with("/norm"));
    }

    #[test]
    fn fission_alone_does_not_reduce_sweeps() {
        let g = bn_graph();
        let before = analysis::activation_sweep_count(&g).unwrap();
        let out = FissionPass::new().run(&g).unwrap();
        let after = analysis::activation_sweep_count(&out).unwrap();
        assert_eq!(before, after, "fission must be traffic-neutral");
    }

    #[test]
    fn graph_without_bn_is_unchanged() {
        let mut b = GraphBuilder::new("nobn");
        let x = b.input("in", Shape::nchw(1, 3, 4, 4)).unwrap();
        b.conv2d(x, Conv2dAttrs::same_3x3(4), "conv").unwrap();
        let g = b.finish();
        let out = FissionPass::new().run(&g).unwrap();
        assert_eq!(out.node_count(), g.node_count());
    }

    #[test]
    fn preserves_one_pass_attribute() {
        let mut b = GraphBuilder::new("g");
        let x = b.input("in", Shape::nchw(2, 8, 4, 4)).unwrap();
        let c = b.conv2d(x, Conv2dAttrs::pointwise(8), "conv").unwrap();
        b.batch_norm(c, BatchNormAttrs::one_pass(), "bn").unwrap();
        let g = b.finish();
        let out = FissionPass::new().run(&g).unwrap();
        let stats = out.nodes().find(|n| matches!(n.op, OpKind::SubBnStats(_))).unwrap();
        match stats.op {
            OpKind::SubBnStats(a) => assert!(a.one_pass_stats),
            _ => unreachable!(),
        }
    }
}
