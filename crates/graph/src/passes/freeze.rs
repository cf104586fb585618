//! The freeze pass: strips a *training* graph (at any fusion level) down to
//! the graph serving runs.
//!
//! Serving computes what the training executor's `forward_eval` computes:
//! every normalization — a whole `BatchNorm`, a fission product, or the
//! prologue a fused convolution absorbed — reads the *running* statistics of
//! its statistics source, and nothing else about the arithmetic changes. So the
//! pass rewrites no operator. It drops the two nodes with no inference
//! counterpart, the `SoftmaxLoss` head (the frozen output is the classifier
//! scores that fed it) and the label input, and keeps every other node with
//! its training [`OpKind`], statistics nodes, statistics edges and epilogues
//! included: [`OpKind::form`] decodes a frozen node exactly as it decodes
//! its training twin. The inference memory plan gives a statistics node no
//! tensor (its value is a parameter, the running statistics), and the eval
//! walk only publishes those statistics for it.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;
use crate::op::OpKind;
use crate::Result;
use std::collections::HashSet;

/// A training graph stripped for inference, with the node map back to it.
#[derive(Debug, Clone)]
pub struct FrozenGraph {
    /// The inference graph: the training graph without its loss head and
    /// label input.
    pub graph: Graph,
    /// Frozen node index → the training-graph node it copies (whose
    /// parameters and running statistics it runs with).
    pub training: Vec<NodeId>,
    /// The data input of the frozen graph.
    pub input: NodeId,
    /// The score output of the frozen graph (the tensor that fed the
    /// training graph's `SoftmaxLoss`).
    pub output: NodeId,
}

/// Freezes a training graph for inference (see the module docs).
///
/// # Errors
/// Returns [`GraphError::PassError`] if the graph is not a training graph:
/// it has no `SoftmaxLoss` head or no 4-D data input.
pub fn freeze(graph: &Graph) -> Result<FrozenGraph> {
    graph.validate()?;
    let pass_err = |what: &str| GraphError::PassError {
        pass: "freeze".to_string(),
        reason: format!("graph '{}' has no {what}; freeze expects a training graph", graph.name()),
    };
    let loss = graph.nodes().find(|n| matches!(n.op, OpKind::SoftmaxLoss));
    let loss = loss.ok_or_else(|| pass_err("SoftmaxLoss head"))?;
    let labels = loss.inputs[1];
    let dropped = HashSet::from([loss.id, labels]);
    let training: Vec<NodeId> =
        graph.nodes().map(|n| n.id).filter(|id| !dropped.contains(id)).collect();
    let frozen = |id: NodeId| training.iter().position(|&t| t == id).map(NodeId::new);
    let data = graph.nodes().find(|n| matches!(n.op, OpKind::Input) && n.output_shape.is_nchw());
    let input = data.and_then(|n| frozen(n.id)).ok_or_else(|| pass_err("4-D data input"))?;
    let output = frozen(loss.inputs[0]).ok_or_else(|| pass_err("scores"))?;
    Ok(FrozenGraph { graph: graph.compacted(&dropped)?, training, input, output })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::op::{Conv2dAttrs, OpForm};
    use crate::passes::{BnffPass, IcfPass, Pass, RcfPass};
    use bnff_tensor::Shape;

    fn classifier(batch: usize) -> Graph {
        let mut b = GraphBuilder::new("cls");
        let x = b.input("data", Shape::nchw(batch, 3, 8, 8)).unwrap();
        let labels = b.input("labels", Shape::vector(batch)).unwrap();
        let c0 = b.conv2d(x, Conv2dAttrs::same_3x3(8), "stem").unwrap();
        let c1 = b.bn_relu_conv(c0, Conv2dAttrs::pointwise(16), "cpl/a").unwrap();
        let c2 = b.bn_relu_conv(c1, Conv2dAttrs::same_3x3(8), "cpl/b").unwrap();
        let cat = b.concat(vec![c0, c2], "concat").unwrap();
        let bn = b.batch_norm_default(cat, "tailbn").unwrap();
        let r = b.relu(bn, "tailrelu").unwrap();
        let gap = b.global_avg_pool(r, "gap").unwrap();
        let fc = b.fully_connected(gap, 4, "fc").unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        b.finish()
    }

    /// Checks that `frozen` is `graph` without its loss head and labels.
    fn assert_stripped(graph: &Graph, frozen: &FrozenGraph) {
        frozen.graph.validate().unwrap();
        assert_eq!(frozen.graph.node_count(), graph.node_count() - 2, "{}", graph.name());
        // Every kept node is its training twin: same operator (so the same
        // decoded form), same name, same shape.
        for node in frozen.graph.nodes() {
            let twin = graph.node(frozen.training[node.id.index()]).unwrap();
            assert_eq!((&node.op, &node.name), (&twin.op, &twin.name));
            assert_eq!(
                (&node.output_shape, node.inputs.len()),
                (&twin.output_shape, twin.inputs.len())
            );
        }
        // The output is the FC scores, the only sink; the input is the data.
        let out = frozen.graph.node(frozen.output).unwrap();
        assert!(matches!(out.op, OpKind::FullyConnected { .. }));
        assert_eq!(frozen.graph.output_nodes(), vec![frozen.output]);
        assert_eq!(frozen.graph.input_nodes(), vec![frozen.input]);
    }

    #[test]
    fn freezes_the_baseline_graph() {
        let graph = classifier(4);
        let frozen = freeze(&graph).unwrap();
        assert_stripped(&graph, &frozen);
        // Every BatchNorm survives as trained.
        assert_eq!(frozen.graph.op_histogram().get("BatchNorm"), Some(&3));
        let out = frozen.graph.node(frozen.output).unwrap();
        assert_eq!(out.output_shape, Shape::matrix(4, 4));
    }

    #[test]
    fn freezes_every_fusion_level_to_the_same_shape() {
        let base = classifier(2);
        let variants = [
            base.clone(),
            RcfPass::new().run(&base).unwrap(),
            BnffPass::new().run(&base).unwrap(),
            IcfPass::new().run(&BnffPass::new().run(&base).unwrap()).unwrap(),
        ];
        for graph in &variants {
            let frozen = freeze(graph).unwrap();
            assert_stripped(graph, &frozen);
            let out = frozen.graph.node(frozen.output).unwrap();
            assert_eq!(out.output_shape, Shape::matrix(2, 4), "{}", graph.name());
        }
        // The fused levels keep their fused convolutions.
        let bnff = freeze(&variants[2]).unwrap();
        assert!(bnff.graph.nodes().any(|n| matches!(
            n.op.form(),
            OpForm::Conv { prologue: crate::op::ConvPrologue::NormRelu(_), .. }
        )));
    }

    #[test]
    fn freeze_rejects_already_frozen_graphs() {
        let frozen = freeze(&classifier(2)).unwrap();
        assert!(freeze(&frozen.graph).is_err(), "a frozen graph has no loss head");
    }

    #[test]
    fn inference_plan_recycles_everything_but_the_output() {
        let frozen = freeze(&BnffPass::new().run(&classifier(2)).unwrap()).unwrap();
        let plan = crate::ExecutionPlan::for_inference(&frozen.graph).unwrap();
        // Only the pinned output (and the input, whose register holds the
        // caller's buffer) survives; peak memory sits well below the
        // keep-everything total.
        assert!(plan.planned_peak_bytes() < plan.naive_total_bytes());
        assert!(plan.is_saved(frozen.output) && plan.is_saved(frozen.input));
        let ends = [frozen.input, frozen.output];
        let interior =
            frozen.graph.nodes().filter(|n| !ends.contains(&n.id) && plan.is_saved(n.id)).count();
        assert_eq!(interior, 0, "inference plans must retain nothing for backward");
        // A statistics node's value is a parameter: it owns no tensor.
        for node in frozen.graph.nodes().filter(|n| matches!(n.op, OpKind::SubBnStats(_))) {
            assert!(plan.liveness(node.id).is_none(), "{} owns a tensor", node.name);
        }
    }
}
