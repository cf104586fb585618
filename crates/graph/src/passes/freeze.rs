//! The freeze pass: rewrites a *training* graph (at any fusion level) into
//! an *inference* graph plus a fold plan.
//!
//! At inference time the paper's whole restructuring collapses: Batch
//! Normalization no longer depends on the mini-batch — it normalizes with
//! *running* statistics, which makes it a per-channel affine
//! `y = scale[c]·x + shift[c]` with
//!
//! ```text
//! scale[c] = γ[c] / √(running_var[c] + ε)
//! shift[c] = β[c] − scale[c] · running_mean[c]
//! ```
//!
//! An affine that directly follows a convolution (or fully-connected layer)
//! folds into its weights and bias — `scale ⊙ W` rows and
//! `scale·b + shift` — so the frozen graph runs with **zero** normalization
//! cost. The pass works in three stages:
//!
//! 1. **Lower** — every training operator is rewritten to its inference
//!    form, read off its decoded [`OpForm`]: a normalization becomes an
//!    [`OpKind::ChannelAffine`] node (plus a `Relu` when it clips), a fused
//!    convolution is de-fused into its prologue chain (affine → ReLU) and
//!    the bare convolution, epilogue statistics and statistics nodes
//!    (`SubBnStats`, `ConcatStats`) and the `SoftmaxLoss` head are stripped
//!    (the frozen output is the classifier scores).
//! 2. **Fold** — every `ChannelAffine` whose producer is a `Conv2d` or
//!    `FullyConnected` with no other consumer is absorbed into that
//!    producer's [`FoldRecipe`]; the conv gains a bias term. Affines that
//!    cannot fold (after a `Concat` or an `EltwiseSum`) stay as explicit
//!    `ChannelAffine` nodes.
//! 3. **Fuse** — a `Relu` that is the sole consumer of a `Conv2d` is fused
//!    into it as [`OpKind::ConvRelu`], clamping while the output is written.
//!
//! The pass is purely *structural*: recipes reference nodes of the original
//! training graph, and `bnff-serve` applies them numerically against a
//! trained parameter set and its running statistics.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;
use crate::op::{ConvPrologue, OpForm, OpKind};
use crate::Result;
use std::collections::{HashMap, HashSet};

/// Where the numbers of a folded (or standalone) affine come from in the
/// *training* graph: the node owning γ/β and the node whose running
/// statistics feed the normalization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineSource {
    /// Training-graph node that owns the γ/β parameters (a `BatchNorm`,
    /// `SubBnNorm`, `NormRelu`, or a fused `NormReluConv*` whose `ConvBn`
    /// parameters carry the absorbed γ/β).
    pub gamma_beta: NodeId,
    /// Training-graph node whose running statistics normalize the
    /// activation (the statistics producer: the BN itself, a `SubBnStats`,
    /// `ConvStats`, `ConcatStats` or `NormReluConvStats`).
    pub stats: NodeId,
    /// The ε of the folded normalization.
    pub epsilon: f32,
}

/// How one frozen-graph node derives its parameters from the training
/// graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FoldRecipe {
    /// A convolution: weights (and optional bias) come from `source`; when
    /// `affine` is set, the following normalization was folded in — scale
    /// the filters per output channel and absorb the shift into the bias.
    Conv {
        /// Training-graph node owning the filters.
        source: NodeId,
        /// The folded normalization, if any.
        affine: Option<AffineSource>,
    },
    /// A fully-connected layer, same folding rule over weight rows.
    Fc {
        /// Training-graph node owning the weights.
        source: NodeId,
        /// The folded normalization, if any.
        affine: Option<AffineSource>,
    },
    /// A standalone per-channel affine that could not be folded into a
    /// producer.
    Affine(AffineSource),
}

/// A training graph rewritten for inference: the restructured topology plus
/// the fold plan that maps every parameterised frozen node back to the
/// training-graph nodes its numbers are derived from.
#[derive(Debug, Clone)]
pub struct FrozenGraph {
    /// The inference graph (no BN, no statistics nodes, no loss head).
    pub graph: Graph,
    /// Frozen-node index → parameter derivation recipe.
    pub recipes: HashMap<usize, FoldRecipe>,
    /// The data input of the frozen graph.
    pub input: NodeId,
    /// The score output of the frozen graph (the tensor that fed the
    /// training graph's `SoftmaxLoss`).
    pub output: NodeId,
}

/// Freezes a training graph for inference. See the module docs for the
/// three stages.
///
/// # Errors
/// Returns [`GraphError::PassError`] if the graph has no 4-D data input, no
/// unambiguous output, or contains an edge the lowering cannot express.
pub fn freeze(graph: &Graph) -> Result<FrozenGraph> {
    let lowered = lower(graph)?;
    let folded = fold_and_fuse(lowered)?;
    folded.graph.validate()?;
    Ok(folded)
}

fn pass_err(reason: impl Into<String>) -> GraphError {
    GraphError::PassError { pass: "freeze".to_string(), reason: reason.into() }
}

/// Stage 1 output: the lowered graph plus recipes, before folding.
struct Lowered {
    graph: Graph,
    recipes: HashMap<usize, FoldRecipe>,
    input: NodeId,
    output: NodeId,
}

/// Adds the `ChannelAffine` a normalization lowers to; `source` names the
/// training nodes owning its γ/β and publishing its statistics.
fn add_affine(
    out: &mut Graph,
    recipes: &mut HashMap<usize, FoldRecipe>,
    name: String,
    x: NodeId,
    source: AffineSource,
) -> Result<NodeId> {
    let affine = out.add_node(name, OpKind::ChannelAffine, vec![x])?;
    recipes.insert(affine.index(), FoldRecipe::Affine(source));
    Ok(affine)
}

fn lower(graph: &Graph) -> Result<Lowered> {
    graph.validate()?;
    let order = graph.topo_order()?;
    let mut out = Graph::new(format!("{}-frozen", graph.name()));
    let mut recipes: HashMap<usize, FoldRecipe> = HashMap::new();
    // Training node index → the frozen node carrying its activation.
    let mut map: Vec<Option<NodeId>> = vec![None; graph.node_count()];
    let mut input: Option<NodeId> = None;
    let mut scores_source: Option<NodeId> = None;

    let mapped = |map: &[Option<NodeId>], id: NodeId| -> Result<NodeId> {
        map[id.index()]
            .ok_or_else(|| pass_err(format!("node {id} consumed by the frozen graph was dropped")))
    };

    for &id in &order {
        let node = graph.node(id)?;
        let new_id = match node.op.form() {
            // A fused convolution de-fuses into its prologue chain
            // (affine → ReLU) followed by the bare convolution; epilogue
            // statistics have no inference counterpart.
            OpForm::Conv { attrs, prologue, relu_out: false, .. } => {
                let mut x = mapped(&map, node.inputs[0])?;
                if let ConvPrologue::NormRelu(bn) = prologue {
                    let source =
                        AffineSource { gamma_beta: id, stats: node.inputs[1], epsilon: bn.epsilon };
                    x = add_affine(
                        &mut out,
                        &mut recipes,
                        format!("{}/affine", node.name),
                        x,
                        source,
                    )?;
                }
                if prologue != ConvPrologue::None {
                    x = out.add_node(format!("{}/relu", node.name), OpKind::Relu, vec![x])?;
                }
                let conv = out.add_node(&node.name, OpKind::Conv2d(attrs), vec![x])?;
                recipes.insert(conv.index(), FoldRecipe::Conv { source: id, affine: None });
                Some(conv)
            }
            OpForm::Norm { bn, stats_from_input, relu } => {
                let x = mapped(&map, node.inputs[0])?;
                let stats = if stats_from_input { id } else { node.inputs[1] };
                let source = AffineSource { gamma_beta: id, stats, epsilon: bn.epsilon };
                if relu {
                    let name = format!("{}/affine", node.name);
                    let affine = add_affine(&mut out, &mut recipes, name, x, source)?;
                    Some(out.add_node(&node.name, OpKind::Relu, vec![affine])?)
                } else {
                    Some(add_affine(&mut out, &mut recipes, node.name.clone(), x, source)?)
                }
            }
            OpForm::Conv { relu_out: true, .. } | OpForm::Other => match &node.op {
                OpKind::Input => {
                    if node.output_shape.is_nchw() {
                        let data = out.add_input(&node.name, node.output_shape.clone());
                        input = Some(data);
                        Some(data)
                    } else {
                        None // Label inputs have no inference counterpart.
                    }
                }
                OpKind::SubBnStats(_) => None, // Running stats replace batch stats.
                OpKind::SoftmaxLoss => {
                    scores_source = Some(node.inputs[0]);
                    None
                }
                OpKind::Relu
                | OpKind::Pool { .. }
                | OpKind::GlobalAvgPool
                | OpKind::Split { .. }
                | OpKind::EltwiseSum
                | OpKind::Concat
                | OpKind::ConcatStats(_)
                | OpKind::FullyConnected { .. } => {
                    let inputs = node
                        .inputs
                        .iter()
                        .map(|i| mapped(&map, *i))
                        .collect::<Result<Vec<NodeId>>>()?;
                    // A concat's epilogue statistics have no inference
                    // counterpart either.
                    let op = match node.op {
                        OpKind::ConcatStats(_) => OpKind::Concat,
                        ref other => other.clone(),
                    };
                    let lowered = out.add_node(&node.name, op, inputs)?;
                    if matches!(node.op, OpKind::FullyConnected { .. }) {
                        let recipe = FoldRecipe::Fc { source: id, affine: None };
                        recipes.insert(lowered.index(), recipe);
                    }
                    Some(lowered)
                }
                _ => {
                    return Err(pass_err(format!(
                        "node '{}' is already an inference operator; freeze expects a training \
                         graph",
                        node.name
                    )));
                }
            },
        };
        map[id.index()] = new_id;
    }

    let input = input.ok_or_else(|| pass_err("graph has no 4-D data input"))?;
    let output = match scores_source {
        Some(src) => mapped(&map, src)?,
        None => {
            let outputs = out.output_nodes();
            match outputs.as_slice() {
                [single] => *single,
                _ => {
                    return Err(pass_err(format!(
                        "graph has {} output candidates and no SoftmaxLoss head",
                        outputs.len()
                    )))
                }
            }
        }
    };
    Ok(Lowered { graph: out, recipes, input, output })
}

/// Stages 2 + 3: fold affines into their producing conv/FC, fuse trailing
/// ReLUs into convs, then compact the graph and remap recipe keys.
fn fold_and_fuse(lowered: Lowered) -> Result<FrozenGraph> {
    let Lowered { mut graph, mut recipes, input, mut output } = lowered;
    let mut removed: HashSet<NodeId> = HashSet::new();

    // Live consumers of a node (edges from removed nodes don't count — a
    // folded affine's stale input edge must not block further rewrites).
    let live_consumers = |graph: &Graph, removed: &HashSet<NodeId>, id: NodeId| -> Vec<NodeId> {
        graph.consumers(id).into_iter().filter(|c| !removed.contains(c)).collect()
    };

    // Stage 2: fold ChannelAffine into a sole-consumer Conv2d/FC producer.
    let ids: Vec<NodeId> = graph.nodes().map(|n| n.id).collect();
    for id in &ids {
        let node = graph.node(*id)?.clone();
        if !matches!(node.op, OpKind::ChannelAffine) {
            continue;
        }
        let producer = node.inputs[0];
        if live_consumers(&graph, &removed, producer) != vec![*id] {
            continue;
        }
        let source = match recipes.get(&id.index()) {
            Some(FoldRecipe::Affine(src)) => *src,
            _ => continue,
        };
        let folded = match (&graph.node(producer)?.op, recipes.get(&producer.index())) {
            (OpKind::Conv2d(a), Some(FoldRecipe::Conv { source: conv_src, affine: None })) => {
                let with_bias = OpKind::Conv2d(a.with_bias());
                let conv_src = *conv_src;
                graph.set_op(producer, with_bias)?;
                recipes.insert(
                    producer.index(),
                    FoldRecipe::Conv { source: conv_src, affine: Some(source) },
                );
                true
            }
            (
                OpKind::FullyConnected { .. },
                Some(FoldRecipe::Fc { source: fc_src, affine: None }),
            ) => {
                let fc_src = *fc_src;
                recipes.insert(
                    producer.index(),
                    FoldRecipe::Fc { source: fc_src, affine: Some(source) },
                );
                true
            }
            _ => false,
        };
        if folded {
            graph.rewire_consumers(*id, producer)?;
            removed.insert(*id);
            recipes.remove(&id.index());
            if output == *id {
                output = producer;
            }
        }
    }

    // Stage 3: fuse a sole-consumer trailing ReLU into its Conv2d producer.
    for id in &ids {
        if removed.contains(id) {
            continue;
        }
        let node = graph.node(*id)?.clone();
        if !matches!(node.op, OpKind::Relu) {
            continue;
        }
        let producer = node.inputs[0];
        if live_consumers(&graph, &removed, producer) != vec![*id] {
            continue;
        }
        if let OpKind::Conv2d(a) = graph.node(producer)?.op {
            graph.set_op(producer, OpKind::ConvRelu(a))?;
            graph.rewire_consumers(*id, producer)?;
            removed.insert(*id);
            if output == *id {
                output = producer;
            }
        }
    }

    // Compact: drop removed nodes, re-assign dense ids, remap recipe keys
    // (Graph::compacted assigns new ids in retained insertion order, so the
    // mapping is reproducible here).
    let mut remap: HashMap<usize, usize> = HashMap::new();
    let mut next = 0usize;
    for node in graph.nodes() {
        if !removed.contains(&node.id) {
            remap.insert(node.id.index(), next);
            next += 1;
        }
    }
    let compacted = graph.compacted(&removed)?;
    let recipes = recipes
        .into_iter()
        .map(|(idx, recipe)| {
            remap
                .get(&idx)
                .map(|new| (*new, recipe))
                .ok_or_else(|| pass_err(format!("recipe for removed node {idx}")))
        })
        .collect::<Result<HashMap<usize, FoldRecipe>>>()?;
    let map_id = |id: NodeId| -> Result<NodeId> {
        remap
            .get(&id.index())
            .map(|new| NodeId::new(*new))
            .ok_or_else(|| pass_err(format!("{id} was removed but is still referenced")))
    };

    Ok(FrozenGraph { graph: compacted, recipes, input: map_id(input)?, output: map_id(output)? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::op::Conv2dAttrs;
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

    fn assert_inference_only(frozen: &FrozenGraph) {
        for node in frozen.graph.nodes() {
            assert!(
                !node.op.is_bn_related()
                    && !matches!(
                        node.op,
                        OpKind::SoftmaxLoss
                            | OpKind::ConvStats { .. }
                            | OpKind::NormReluConv { .. }
                            | OpKind::NormReluConvStats { .. }
                            | OpKind::ReluConv(_)
                            | OpKind::ConcatStats(_)
                    ),
                "training op {} survived the freeze",
                node.op
            );
        }
    }

    #[test]
    fn freezes_the_baseline_graph() {
        let frozen = freeze(&classifier(4)).unwrap();
        assert_inference_only(&frozen);
        assert!(frozen.graph.validate().is_ok());
        // cpl/b's BN folds into cpl/a's conv (its sole consumer); the BN on
        // the stem (whose conv also feeds the concat) and the BN behind the
        // concat must survive as standalone affines.
        let hist = frozen.graph.op_histogram();
        assert_eq!(hist.get("ChannelAffine").copied().unwrap_or(0), 2);
        // The folded conv picked up a bias term.
        let biased = frozen
            .graph
            .nodes()
            .filter(|n| matches!(n.op, OpKind::Conv2d(a) | OpKind::ConvRelu(a) if a.bias))
            .count();
        assert!(biased >= 1, "expected folded convs with bias, got {biased}");
        // The output is the FC scores, not a loss scalar.
        let out = frozen.graph.node(frozen.output).unwrap();
        assert!(matches!(out.op, OpKind::FullyConnected { .. }));
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
            assert_inference_only(&frozen);
            let out = frozen.graph.node(frozen.output).unwrap();
            assert_eq!(out.output_shape, Shape::matrix(2, 4), "{}", graph.name());
            // Every parameterised frozen node has a recipe.
            for node in frozen.graph.nodes() {
                if node.op.has_parameters() {
                    assert!(
                        frozen.recipes.contains_key(&node.id.index()),
                        "{}: no recipe for {}",
                        graph.name(),
                        node.name
                    );
                }
            }
        }
    }

    #[test]
    fn relu_fuses_into_the_folded_conv() {
        let mut b = GraphBuilder::new("chain");
        let x = b.input("data", Shape::nchw(2, 3, 8, 8)).unwrap();
        let labels = b.input("labels", Shape::vector(2)).unwrap();
        let c = b.conv_bn_relu(x, Conv2dAttrs::same_3x3(4), "block").unwrap();
        let gap = b.global_avg_pool(c, "gap").unwrap();
        let fc = b.fully_connected(gap, 2, "fc").unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        let frozen = freeze(&b.finish()).unwrap();
        let hist = frozen.graph.op_histogram();
        assert_eq!(hist.get("ConvRelu").copied().unwrap_or(0), 1);
        assert_eq!(hist.get("ChannelAffine").copied().unwrap_or(0), 0);
        assert_eq!(hist.get("ReLU").copied().unwrap_or(0), 0);
        // The fused conv carries the folded affine recipe.
        let conv =
            frozen.graph.nodes().find(|n| matches!(n.op, OpKind::ConvRelu(_))).expect("fused conv");
        assert!(matches!(
            frozen.recipes.get(&conv.id.index()),
            Some(FoldRecipe::Conv { affine: Some(_), .. })
        ));
    }

    #[test]
    fn freeze_rejects_already_frozen_graphs() {
        let frozen = freeze(&classifier(2)).unwrap();
        assert!(freeze(&frozen.graph).is_err());
    }

    #[test]
    fn inference_plan_recycles_everything_but_the_output() {
        let frozen = freeze(&classifier(2)).unwrap();
        let plan = crate::plan::ExecutionPlan::for_inference(&frozen.graph).unwrap();
        // Only the pinned output survives; peak memory sits well below the
        // keep-everything total.
        assert!(plan.planned_peak_bytes() < plan.naive_total_bytes());
        assert!(plan.is_saved(frozen.output));
        let interior =
            frozen.graph.nodes().filter(|n| n.id != frozen.output && plan.is_saved(n.id)).count();
        assert_eq!(interior, 0, "inference plans must retain nothing for backward");
    }
}
