//! Property tests for the memory plan: across randomly shaped
//! chain/residual/dense graphs, as built and BNFF+ICF-restructured, under
//! both the training plan and the inference plan of the frozen graph,
//! - two tensors that share an arena slot have disjoint `[def, last_use]`
//!   intervals, and each fits its slot;
//! - every part of a channel rope stays live through the rope's last
//!   consumer (a Split of the rope counts as its consumers).

use bnff_graph::builder::GraphBuilder;
use bnff_graph::op::{Conv2dAttrs, OpKind};
use bnff_graph::passes::freeze::freeze;
use bnff_graph::passes::{BnffPass, IcfPass, Pass};
use bnff_graph::plan::ExecutionPlan;
use bnff_graph::{Graph, NodeId};
use bnff_tensor::Shape;
use proptest::prelude::*;

/// Builds a trainable graph with `blocks` body blocks of the requested
/// topology: 0 = plain chain, 1 = residual (eltwise sum), 2 = dense
/// (channel concat). All three stress slot reuse differently — chains free
/// aggressively, residuals hold a value across a block, concatenations are
/// ropes whose parts outlive them.
fn build_graph(
    batch: usize,
    channels: usize,
    blocks: usize,
    kind: usize,
    classes: usize,
    spatial: usize,
) -> Graph {
    let mut b = GraphBuilder::new("plan-prop");
    let x = b.input("in", Shape::nchw(batch, 3, spatial, spatial)).unwrap();
    let mut cur = b.conv_bn_relu(x, Conv2dAttrs::same_3x3(channels), "stem").unwrap();
    for i in 0..blocks {
        cur = match kind {
            0 => b.conv_bn_relu(cur, Conv2dAttrs::same_3x3(channels), &format!("c{i}")).unwrap(),
            1 => {
                let branch =
                    b.conv_bn_relu(cur, Conv2dAttrs::same_3x3(channels), &format!("r{i}")).unwrap();
                b.eltwise_sum(vec![cur, branch], &format!("sum{i}")).unwrap()
            }
            _ => {
                let branch = b
                    .bn_relu_conv(cur, Conv2dAttrs::pointwise(channels), &format!("d{i}"))
                    .unwrap();
                b.concat(vec![cur, branch], &format!("cat{i}")).unwrap()
            }
        };
    }
    let gap = b.global_avg_pool(cur, "gap").unwrap();
    let fc = b.fully_connected(gap, classes, "fc").unwrap();
    let labels = b.input("labels", Shape::vector(batch)).unwrap();
    b.softmax_loss(fc, labels, "loss").unwrap();
    b.finish()
}

/// The topological positions of every node that reads `id`'s tensor,
/// looking through Splits.
fn reader_positions(graph: &Graph, plan: &ExecutionPlan, id: NodeId) -> Vec<usize> {
    let mut out = Vec::new();
    for consumer in graph.consumers(id) {
        match graph.node(consumer).unwrap().op {
            OpKind::Split { .. } => out.extend(reader_positions(graph, plan, consumer)),
            _ => out.push(plan.position(consumer)),
        }
    }
    out
}

/// Checks both properties of the module docs on one plan.
fn check_plan(graph: &Graph, plan: &ExecutionPlan, what: &str) -> Result<(), TestCaseError> {
    let nodes: Vec<NodeId> = graph.nodes().map(|n| n.id).collect();
    for (i, &a) in nodes.iter().enumerate() {
        let Some(slot) = plan.slot(a) else { continue };
        let live_a = plan.liveness(a).unwrap();
        prop_assert!(live_a.bytes <= plan.slot_sizes()[slot], "{what}: {a} outgrows slot {slot}");
        for &b in &nodes[i + 1..] {
            if plan.slot(b) != Some(slot) {
                continue;
            }
            let live_b = plan.liveness(b).unwrap();
            let (first, second) =
                if live_a.def <= live_b.def { (live_a, live_b) } else { (live_b, live_a) };
            prop_assert!(
                first.last_use < second.def,
                "{what}: slot {slot} holds {a} and {b} over [{}, {}] and [{}, {}]",
                first.def,
                first.last_use,
                second.def,
                second.last_use
            );
        }
    }
    for &rope in nodes.iter().filter(|&&id| plan.is_rope(id)) {
        let last_read = reader_positions(graph, plan, rope).into_iter().max();
        prop_assert!(last_read.is_some(), "{what}: rope {rope} has no reader");
        for &part in plan.concat_parts(rope).unwrap() {
            let live = plan.liveness(NodeId::new(part));
            prop_assert!(live.is_some(), "{what}: part {part} of rope {rope} owns no tensor");
            prop_assert!(
                live.unwrap().last_use >= last_read.unwrap(),
                "{what}: part {part} of rope {rope} dies at {} before its read at {}",
                live.unwrap().last_use,
                last_read.unwrap()
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn slots_never_hold_two_live_tensors_and_rope_parts_outlive_their_readers(
        batch in 1usize..3,
        channels in 2usize..7,
        blocks in 1usize..4,
        kind in 0usize..3,
        classes in 2usize..6,
        spatial in 6usize..11,
        fused in 0usize..2,
    ) {
        let mut graph = build_graph(batch, channels, blocks, kind, classes, spatial);
        if fused == 1 {
            graph = IcfPass::new().run(&BnffPass::new().run(&graph).unwrap()).unwrap();
        }
        check_plan(&graph, &ExecutionPlan::for_graph(&graph).unwrap(), "training")?;
        let frozen = freeze(&graph).unwrap().graph;
        let serving = ExecutionPlan::for_inference(&frozen).unwrap();
        check_plan(&frozen, &serving, "inference")?;
        // A dense block's concatenation that feeds the next block's
        // normalization, a plane reader, is a rope in serving too.
        let ropes = frozen.nodes().filter(|n| serving.is_rope(n.id)).count();
        prop_assert!(kind != 2 || blocks < 2 || ropes > 0);
    }
}
