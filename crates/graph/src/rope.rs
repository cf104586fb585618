//! Concatenations without copies: what a graph's `Concat` and
//! `ConcatStats` nodes are at run time, and where a statistics node over
//! one finds statistics already published.
//!
//! A concatenation's value is its inputs' tensors in channel order — a
//! *channel rope* (`bnff_tensor::ChannelRope`). Nested concatenations
//! flatten, and a Split's alias resolves to its producer, so every
//! concatenation has one list of *parts*: the producers whose tensors it
//! is made of. Its gradient is theirs: whatever flows into a concatenation
//! is handed to its parts, channel range by channel range.
//!
//! A concatenation whose every consumer reads feature maps plane by plane
//! ([`reads_ropes`]) owns no buffer: the [`crate::plan`] gives it no
//! liveness of its own and extends its parts' instead, as it does for a
//! Split. One with any other consumer (or none) is *materialized*: it owns
//! a buffer its parts are copied into once, which those consumers read.
//!
//! Statistics by assembly: a per-channel statistic depends on that
//! channel's planes alone, so a `SubBnStats` or `ConcatStats` over a rope
//! copies the mean and variance of every part that an earlier node already
//! published with the same estimator (one-pass or two-pass) and sweeps only
//! the rest. In a dense block that is the newest growth convolution's
//! channels: the block input's come from the statistics that normalized it
//! first, the older growth channels' from the previous concatenation's.

use crate::graph::Graph;
use crate::node::NodeId;
use crate::op::{OpForm, OpKind};
use crate::Result;
use serde::Serialize;
use std::collections::HashMap;

/// Whether `op` reads its feature-map input plane by plane — the consumers a concatenation can stay a rope for: a
/// convolution's per-sample staging, a normalization's sweeps (forward and
/// backward), a statistics node, and another concatenation.
pub(crate) fn reads_ropes(op: &OpKind) -> bool {
    matches!(op.form(), OpForm::Conv { .. } | OpForm::Norm { .. })
        || matches!(op, OpKind::SubBnStats(_) | OpKind::Concat | OpKind::ConcatStats(_))
}

/// One part of the value a statistics node sweeps, and where its
/// statistics come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StatsPart {
    /// The producer whose tensor holds these channels.
    pub tensor: NodeId,
    /// Channels in the part.
    pub channels: usize,
    /// An earlier node that published these channels' statistics with the
    /// same estimator, and the channel offset they start at in its
    /// statistics; `None` when this node sweeps them.
    pub published: Option<(NodeId, usize)>,
}

/// The concatenations of a graph as channel ropes, and the statistics
/// nodes that assemble their output from published statistics.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct ChannelRopes {
    /// Node index → the producers a concatenation is made of, flattened.
    parts: Vec<Option<Vec<usize>>>,
    /// Node index → the concatenation owns no buffer.
    rope: Vec<bool>,
    /// Node index → a `SubBnStats` / `ConcatStats`' parts and their sources.
    assembly: Vec<Option<Vec<StatsPart>>>,
}

impl ChannelRopes {
    /// Walks `graph` in topological order.
    ///
    /// # Errors
    /// Returns an error if the graph is cyclic or references unknown nodes.
    pub(crate) fn of(graph: &Graph) -> Result<ChannelRopes> {
        let order = graph.topo_order()?;
        let n = graph.node_count();
        let mut alias_of: Vec<Option<usize>> = vec![None; n];
        let mut parts: Vec<Option<Vec<usize>>> = vec![None; n];
        for &id in &order {
            let node = graph.node(id)?;
            match node.op {
                OpKind::Split { .. } => {
                    let target = node.inputs[0].index();
                    alias_of[id.index()] = Some(alias_of[target].unwrap_or(target));
                }
                OpKind::Concat | OpKind::ConcatStats(_) => {
                    let mut flat = Vec::new();
                    for input in &node.inputs {
                        let producer = alias_of[input.index()].unwrap_or(input.index());
                        match &parts[producer] {
                            Some(inner) => flat.extend_from_slice(inner),
                            None => flat.push(producer),
                        }
                    }
                    parts[id.index()] = Some(flat);
                }
                _ => {}
            }
        }

        // A concatenation stays a rope when it has consumers and all of
        // them read planes.
        let mut rope: Vec<bool> = parts.iter().map(Option::is_some).collect();
        let mut consumed = vec![false; n];
        for node in graph.nodes() {
            for input in &node.inputs {
                consumed[input.index()] = true;
                if !reads_ropes(&node.op) {
                    rope[input.index()] = false;
                }
            }
        }
        rope.iter_mut().zip(&consumed).for_each(|(rope, consumed)| *rope &= *consumed);

        let mut ropes = ChannelRopes { parts, rope, assembly: vec![None; n] };
        ropes.assemble(graph, &order, &alias_of)?;
        Ok(ropes)
    }

    /// Records, in execution order, which statistics each node publishes
    /// over which parts, and gives every `SubBnStats` / `ConcatStats` its
    /// sources.
    fn assemble(
        &mut self,
        graph: &Graph,
        order: &[NodeId],
        alias_of: &[Option<usize>],
    ) -> Result<()> {
        // (tensor, one-pass) → the first node that published it, and where.
        let mut published: HashMap<(usize, bool), (NodeId, usize)> = HashMap::new();
        for &id in order {
            let node = graph.node(id)?;
            let Some(bn) = node.op.stats_out() else { continue };
            // The tensors the statistics are over, all live where the node
            // runs: a concatenation's own parts (it reads them there), or
            // the input a node reads — a rope's parts, or the one tensor,
            // a copied concatenation's own buffer included.
            let over: Vec<usize> = match (node.op.form(), &node.op) {
                (OpForm::Conv { .. }, _) => vec![id.index()],
                (_, OpKind::ConcatStats(_)) => self.parts[id.index()].clone().unwrap_or_default(),
                _ => {
                    let input = node.inputs[0].index();
                    let input = alias_of[input].unwrap_or(input);
                    match self.rope[input] {
                        true => self.parts[input].clone().unwrap_or_default(),
                        false => vec![input],
                    }
                }
            };
            let assembles = matches!(node.op, OpKind::SubBnStats(_) | OpKind::ConcatStats(_));
            let mut assembly = Vec::with_capacity(over.len());
            for tensor in over {
                let shape = &graph.node(NodeId::new(tensor))?.output_shape;
                let channels = if shape.is_nchw() { shape.c() } else { 0 };
                let published = published.get(&(tensor, bn.one_pass_stats)).copied();
                assembly.push(StatsPart { tensor: NodeId::new(tensor), channels, published });
            }
            // Published once the node has run: a tensor repeated among its
            // parts is swept each time, never read back from the node itself.
            let mut offset = 0;
            for part in &assembly {
                let key = (part.tensor.index(), bn.one_pass_stats);
                published.entry(key).or_insert((id, offset));
                offset += part.channels;
            }
            if assembles {
                self.assembly[id.index()] = Some(assembly);
            }
        }
        Ok(())
    }

    /// The producers a concatenation is made of, flattened through nested
    /// concatenations and Split aliases; `None` for any other node.
    pub(crate) fn parts(&self, id: NodeId) -> Option<&[usize]> {
        self.parts.get(id.index()).and_then(Option::as_deref)
    }

    /// Whether `id` is a concatenation that owns no buffer.
    pub(crate) fn is_rope(&self, id: NodeId) -> bool {
        self.rope.get(id.index()).copied().unwrap_or(false)
    }

    /// The parts a `SubBnStats` or `ConcatStats` node's statistics are
    /// assembled from, each with its published source or none (swept).
    pub(crate) fn assembly(&self, id: NodeId) -> Option<&[StatsPart]> {
        self.assembly.get(id.index()).and_then(Option::as_deref)
    }

    /// Channels of `id`'s statistics the node sweeps itself: all of them
    /// unless it assembles them.
    pub(crate) fn swept_channels(&self, id: NodeId) -> Option<usize> {
        let assembly = self.assembly(id)?;
        Some(assembly.iter().filter(|p| p.published.is_none()).map(|p| p.channels).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::op::Conv2dAttrs;
    use crate::passes::{BnffPass, IcfPass, Pass};
    use bnff_tensor::Shape;

    /// A stem and a two-layer dense block (growth 2), closed by a
    /// transition's BN-ReLU-CONV.
    fn dense_block() -> Graph {
        let mut b = GraphBuilder::new("block");
        let x = b.input("in", Shape::nchw(2, 3, 8, 8)).unwrap();
        let stem = b.conv2d(x, Conv2dAttrs::same_3x3(4), "stem").unwrap();
        let mut current = stem;
        for layer in 1..=2 {
            let name = format!("cpl{layer}");
            let bottleneck =
                b.bn_relu_conv(current, Conv2dAttrs::pointwise(8), &format!("{name}/a")).unwrap();
            let growth =
                b.bn_relu_conv(bottleneck, Conv2dAttrs::same_3x3(2), &format!("{name}/b")).unwrap();
            current = b.concat(vec![current, growth], &format!("{name}/concat")).unwrap();
        }
        b.bn_relu_conv(current, Conv2dAttrs::pointwise(4), "transition").unwrap();
        b.finish()
    }

    fn concats(graph: &Graph) -> Vec<NodeId> {
        let concat = |n: &&crate::Node| matches!(n.op, OpKind::Concat | OpKind::ConcatStats(_));
        graph.nodes().filter(concat).map(|n| n.id).collect()
    }

    #[test]
    fn dense_block_concatenations_are_flattened_ropes() {
        let graph = dense_block();
        let ropes = ChannelRopes::of(&graph).unwrap();
        let [first, last] = concats(&graph)[..] else { panic!("two concatenations") };
        assert!(ropes.is_rope(first) && ropes.is_rope(last));
        let inputs = |id: NodeId| graph.node(id).unwrap().inputs.clone();
        let stem = inputs(first)[0].index();
        let growth = |id: NodeId| inputs(id)[1].index();
        assert_eq!(ropes.parts(first).unwrap(), [stem, growth(first)]);
        assert_eq!(ropes.parts(last).unwrap(), [stem, growth(first), growth(last)]);
        // A whole BatchNorm sweeps its input: nothing is assembled.
        assert!(graph.nodes().all(|n| ropes.assembly(n.id).is_none()));
    }

    #[test]
    fn statistics_nodes_sweep_only_the_newest_growth_channels() {
        let bnff = BnffPass::new().run(&dense_block()).unwrap();
        let icf = IcfPass::new().run(&bnff).unwrap();
        for graph in [bnff, icf] {
            let ropes = ChannelRopes::of(&graph).unwrap();
            let [first, last] = concats(&graph)[..] else { panic!("two concatenations") };
            // The statistics over each concatenation: a SubBnStats reading it
            // (BNFF), or the ConcatStats itself (ICF).
            let stats_of = |cat: NodeId| {
                graph
                    .nodes()
                    .find(|n| matches!(n.op, OpKind::SubBnStats(_)) && n.inputs[0] == cat)
                    .map_or(cat, |n| n.id)
            };
            let stem = NodeId::new(ropes.parts(last).unwrap()[0]);
            assert!(matches!(graph.node(stem).unwrap().op, OpKind::ConvStats { .. }));
            let published: Vec<_> =
                ropes.assembly(stats_of(last)).unwrap().iter().map(|p| p.published).collect();
            assert_eq!(published, [Some((stem, 0)), Some((stats_of(first), 4)), None]);
            assert_eq!(ropes.swept_channels(stats_of(last)), Some(2));
            assert_eq!(ropes.swept_channels(stats_of(first)), Some(2));
        }
    }

    #[test]
    fn other_consumers_and_outputs_keep_a_buffer_that_statistics_read() {
        let mut b = GraphBuilder::new("copied");
        let x = b.input("in", Shape::nchw(2, 3, 8, 8)).unwrap();
        let c = b.conv2d(x, Conv2dAttrs::pointwise(4), "conv").unwrap();
        let clipped = b.concat(vec![x, c], "clipped").unwrap();
        b.relu(clipped, "relu").unwrap();
        b.bn_relu_conv(clipped, Conv2dAttrs::pointwise(2), "read").unwrap();
        let twice = b.concat(vec![c, c], "twice").unwrap();
        b.batch_norm_default(twice, "bn").unwrap();
        b.concat(vec![clipped, x], "nested").unwrap();
        let graph = BnffPass::new().run(&b.finish()).unwrap();
        let id = |name: &str| graph.nodes().find(|n| n.name == name).unwrap().id;
        let [x, c, clipped, twice, nested] = ["in", "conv", "clipped", "twice", "nested"].map(id);
        let ropes = ChannelRopes::of(&graph).unwrap();
        assert!(!ropes.is_rope(clipped) && !ropes.is_rope(nested));
        // A copied concatenation still flattens into the ones built on it,
        // and a repeated part is read twice.
        assert_eq!(ropes.parts(nested).unwrap(), [x.index(), c.index(), x.index()]);
        assert!(ropes.is_rope(twice));
        assert_eq!(ropes.parts(twice).unwrap(), [c.index(), c.index()]);

        let stats_over = |input: NodeId| {
            let over =
                |n: &&crate::Node| matches!(n.op, OpKind::SubBnStats(_)) && n.inputs[0] == input;
            ropes.assembly(graph.nodes().find(over).unwrap().id).unwrap().to_vec()
        };
        // Statistics over a copied concatenation sweep its own buffer, the
        // one tensor of it alive where they run.
        let swept = |tensor: NodeId, channels| StatsPart { tensor, channels, published: None };
        assert_eq!(stats_over(clipped), [swept(clipped, 7)]);
        // A repeated part is swept each time, not read back from the node
        // that sweeps it.
        assert_eq!(stats_over(twice), [swept(c, 4), swept(c, 4)]);
    }
}
