//! Property tests for the memory plan: across randomly shaped
//! chain/residual/dense graphs, as built and BNFF+ICF-restructured, under
//! both the training plan and the inference plan of the frozen graph,
//! - two tensors that share an arena slot have disjoint `[def, last_use]`
//!   intervals, and each fits its slot; the step's lower bound is at most
//!   the planned peak (the whole step's buffers, gradients and scratch
//!   included, are checked against their slots by `plan.rs`'s own tests);
//! - every part of a channel rope stays live through the rope's last
//!   consumer (a Split of the rope counts as its consumers);
//! - the backward hands every saved tensor back exactly once, right after
//!   the backward of its last reader: no node whose backward reads it —
//!   directly, through a Split or as a rope's part — runs after its release
//!   (an inference plan schedules nothing).

use bnff_graph::builder::GraphBuilder;
use bnff_graph::op::{Conv2dAttrs, OpForm, OpKind};
use bnff_graph::passes::freeze::freeze;
use bnff_graph::passes::{BnffPass, IcfPass, Pass};
use bnff_graph::ExecutionPlan;
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

/// The producers whose tensors the backward of `node` reads. A ReLU reads
/// its own output — through the alias, its input's tensor if it clipped
/// that in place. Convolutions, normalizations and fully-connected layers
/// read their first input, through Splits and in-place ReLUs, or every
/// part of that input if it is a rope; nothing else reads a tensor.
fn backward_reads(graph: &Graph, plan: &ExecutionPlan, node: NodeId) -> Vec<usize> {
    let op = &graph.node(node).unwrap().op;
    if let OpKind::Relu = op {
        return vec![plan.resolve(node).index()];
    }
    let reads = matches!(op.form(), OpForm::Conv { .. } | OpForm::Norm { .. })
        || matches!(op, OpKind::FullyConnected { .. });
    if !reads {
        return Vec::new();
    }
    let mut input = graph.node(node).unwrap().inputs[0];
    while let OpKind::Split { .. } = graph.node(input).unwrap().op {
        input = graph.node(input).unwrap().inputs[0];
    }
    match plan.concat_parts(input).filter(|_| plan.is_rope(input)) {
        Some(parts) => parts.iter().map(|&p| plan.resolve(NodeId::new(p)).index()).collect(),
        None => vec![plan.resolve(input).index()],
    }
}

/// Checks the backward release schedule of a training plan: each saved
/// tensor is released once, at the position of its backward reader that is
/// earliest in forward order (the backward walks positions in reverse).
fn check_backward_schedule(graph: &Graph, plan: &ExecutionPlan) -> Result<(), TestCaseError> {
    let mut released_at = vec![Vec::new(); graph.node_count()];
    for pos in 0..plan.order().len() {
        for &tensor in plan.released_after_backward(pos) {
            released_at[tensor].push(pos);
        }
    }
    let mut last_reader: Vec<Option<usize>> = vec![None; graph.node_count()];
    for node in graph.nodes() {
        let pos = plan.position(node.id);
        for tensor in backward_reads(graph, plan, node.id) {
            let first = last_reader[tensor].get_or_insert(pos);
            *first = (*first).min(pos);
        }
    }
    for node in graph.nodes() {
        let idx = node.id.index();
        let saved = plan.liveness(node.id).is_some_and(|live| live.saved_for_backward);
        let (reader, released) = (last_reader[idx], &released_at[idx]);
        prop_assert!(
            reader.is_some() == saved,
            "{idx}: saved {saved}, last backward reader {reader:?}"
        );
        let expected: Vec<usize> = reader.into_iter().collect();
        prop_assert!(
            *released == expected,
            "{idx} is released after the backward at {released:?}, its last reader is at {reader:?}"
        );
    }
    Ok(())
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
    prop_assert!(plan.step_lower_bound_bytes() <= plan.planned_peak_bytes(), "{what}");
    for &rope in nodes.iter().filter(|&&id| plan.is_rope(id)) {
        let last_read = reader_positions(graph, plan, rope).into_iter().max();
        prop_assert!(last_read.is_some(), "{what}: rope {rope} has no reader");
        for &part in plan.concat_parts(rope).unwrap() {
            // An in-place ReLU's tensor is its input's.
            let live = plan.liveness(plan.resolve(NodeId::new(part)));
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
        let training = ExecutionPlan::for_graph(&graph).unwrap();
        check_plan(&graph, &training, "training")?;
        check_backward_schedule(&graph, &training)?;
        let frozen = freeze(&graph).unwrap().graph;
        let serving = ExecutionPlan::for_inference(&frozen).unwrap();
        check_plan(&frozen, &serving, "inference")?;
        let positions = 0..serving.order().len();
        prop_assert!(positions.into_iter().all(|pos| serving.released_after_backward(pos).is_empty()));
        // A dense block's concatenation that feeds the next block's
        // normalization, a plane reader, is a rope in serving too.
        let ropes = frozen.nodes().filter(|n| serving.is_rope(n.id)).count();
        prop_assert!(kind != 2 || blocks < 2 || ropes > 0);
    }
}
