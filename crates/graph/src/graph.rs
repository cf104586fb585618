//! The computational graph container.

use crate::error::GraphError;
use crate::node::{Node, NodeId};
use crate::op::{ConvPrologue, OpForm, OpKind};
use crate::shape_infer::infer_output_shape;
use crate::Result;
use bnff_tensor::Shape;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A directed acyclic graph of layer nodes.
///
/// Nodes are stored in insertion order; [`NodeId`]s are dense indices into
/// that storage. Each node produces exactly one primary output tensor;
/// operators that also produce auxiliary values (e.g. the Σx/Σx² statistics
/// of a fused [`OpKind::ConvStats`]) expose those through the executor's
/// side channel, not through extra graph edges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        Graph { name: name.into(), nodes: Vec::new() }
    }

    /// The graph's name (typically the model name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the graph.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over all nodes in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Looks a node up by id.
    ///
    /// # Errors
    /// Returns [`GraphError::UnknownNode`] if the id is not in this graph.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id.index()).ok_or(GraphError::UnknownNode(id))
    }

    /// Adds an input node with an explicit shape.
    pub(crate) fn add_input(&mut self, name: impl Into<String>, shape: Shape) -> NodeId {
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(Node::new(id, name, OpKind::Input, vec![], shape));
        id
    }

    /// Adds an operation node, inferring its output shape from its inputs.
    ///
    /// # Errors
    /// Returns an error if an input id is unknown, the arity is wrong or
    /// shape inference fails.
    pub(crate) fn add_node(
        &mut self,
        name: impl Into<String>,
        op: OpKind,
        inputs: Vec<NodeId>,
    ) -> Result<NodeId> {
        let name = name.into();
        let mut shapes = Vec::with_capacity(inputs.len());
        for id in &inputs {
            shapes.push(self.node(*id)?.output_shape.clone());
        }
        let shape_refs: Vec<&Shape> = shapes.iter().collect();
        let output_shape = infer_output_shape(&op, &shape_refs).map_err(|e| match e {
            GraphError::ShapeInference { reason, .. } => {
                GraphError::ShapeInference { node: name.clone(), reason }
            }
            other => other,
        })?;
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(Node::new(id, name, op, inputs, output_shape));
        Ok(id)
    }

    /// Replaces the operation of an existing node (shape is kept).
    ///
    /// # Errors
    /// Returns [`GraphError::UnknownNode`] if the id is not in this graph.
    pub fn set_op(&mut self, id: NodeId, op: OpKind) -> Result<()> {
        let idx = id.index();
        if idx >= self.nodes.len() {
            return Err(GraphError::UnknownNode(id));
        }
        self.nodes[idx].op = op;
        Ok(())
    }

    /// Replaces the inputs of an existing node.
    ///
    /// # Errors
    /// Returns [`GraphError::UnknownNode`] if any id is not in this graph.
    pub(crate) fn set_inputs(&mut self, id: NodeId, inputs: Vec<NodeId>) -> Result<()> {
        for i in &inputs {
            self.node(*i)?;
        }
        let idx = id.index();
        if idx >= self.nodes.len() {
            return Err(GraphError::UnknownNode(id));
        }
        self.nodes[idx].inputs = inputs;
        Ok(())
    }

    /// Renames an existing node.
    ///
    /// # Errors
    /// Returns [`GraphError::UnknownNode`] if the id is not in this graph.
    pub(crate) fn set_node_name(&mut self, id: NodeId, name: impl Into<String>) -> Result<()> {
        let idx = id.index();
        if idx >= self.nodes.len() {
            return Err(GraphError::UnknownNode(id));
        }
        self.nodes[idx].name = name.into();
        Ok(())
    }

    /// Rewires every consumer of `old` to read from `new` instead.
    ///
    /// # Errors
    /// Returns [`GraphError::UnknownNode`] if either id is not in this graph.
    pub(crate) fn rewire_consumers(&mut self, old: NodeId, new: NodeId) -> Result<()> {
        self.node(old)?;
        self.node(new)?;
        for node in self.nodes.iter_mut() {
            for input in node.inputs.iter_mut() {
                if *input == old {
                    *input = new;
                }
            }
        }
        Ok(())
    }

    /// Map from node id to the ids of the nodes that consume its output.
    pub(crate) fn consumer_map(&self) -> HashMap<NodeId, Vec<NodeId>> {
        let mut map: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for node in &self.nodes {
            for input in &node.inputs {
                map.entry(*input).or_default().push(node.id);
            }
        }
        map
    }

    /// The ids of the nodes that consume `id`'s output.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes.iter().filter(|n| n.inputs.contains(&id)).map(|n| n.id).collect()
    }

    /// All [`OpKind::Input`] nodes.
    pub fn input_nodes(&self) -> Vec<NodeId> {
        self.nodes.iter().filter(|n| matches!(n.op, OpKind::Input)).map(|n| n.id).collect()
    }

    /// All nodes whose output is not consumed by any other node.
    #[cfg(test)]
    pub(crate) fn output_nodes(&self) -> Vec<NodeId> {
        let consumed: HashSet<NodeId> =
            self.nodes.iter().flat_map(|n| n.inputs.iter().copied()).collect();
        self.nodes.iter().filter(|n| !consumed.contains(&n.id)).map(|n| n.id).collect()
    }

    /// Topological order of the graph (inputs first).
    ///
    /// # Errors
    /// Returns [`GraphError::CyclicGraph`] if the graph contains a cycle.
    pub fn topo_order(&self) -> Result<Vec<NodeId>> {
        let mut in_degree: Vec<usize> = self.nodes.iter().map(|n| n.inputs.len()).collect();
        let consumer_map = self.consumer_map();
        let mut queue: Vec<NodeId> =
            self.nodes.iter().filter(|n| n.inputs.is_empty()).map(|n| n.id).collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut head = 0usize;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            order.push(id);
            if let Some(consumers) = consumer_map.get(&id) {
                // The consumer map lists a consumer once per edge, so a node
                // that reads the same producer twice (e.g. a fused node
                // consuming both the activation and the auxiliary statistics
                // of one producer) appears twice and each occurrence retires
                // one unit of in-degree.
                for &c in consumers {
                    in_degree[c.index()] -= 1;
                    if in_degree[c.index()] == 0 {
                        queue.push(c);
                    }
                }
            }
        }
        if order.len() != self.nodes.len() {
            return Err(GraphError::CyclicGraph);
        }
        Ok(order)
    }

    /// Validates the structural integrity of the graph: every referenced
    /// node exists, the graph is acyclic and every non-input node's recorded
    /// output shape matches re-inference from its inputs (fused operators
    /// are exempt from re-inference only in that their shape was provided at
    /// construction, but they still must re-infer consistently).
    ///
    /// # Errors
    /// Returns the first structural error found.
    pub fn validate(&self) -> Result<()> {
        for node in &self.nodes {
            for input in &node.inputs {
                self.node(*input)?;
            }
        }
        self.topo_order()?;
        for node in &self.nodes {
            if matches!(node.op, OpKind::Input) {
                continue;
            }
            let shapes: Vec<Shape> = node
                .inputs
                .iter()
                .map(|i| self.node(*i).map(|n| n.output_shape.clone()))
                .collect::<Result<_>>()?;
            let refs: Vec<&Shape> = shapes.iter().collect();
            let inferred = infer_output_shape(&node.op, &refs).map_err(|e| match e {
                GraphError::ShapeInference { reason, .. } => {
                    GraphError::ShapeInference { node: node.name.clone(), reason }
                }
                other => other,
            })?;
            if inferred != node.output_shape {
                return Err(GraphError::ShapeInference {
                    node: node.name.clone(),
                    reason: format!(
                        "recorded output shape {} disagrees with inferred {}",
                        node.output_shape, inferred
                    ),
                });
            }
        }
        Ok(())
    }

    /// Returns a new graph that omits the nodes in `removed`, with node ids
    /// re-assigned densely and all edges remapped.
    ///
    /// # Errors
    /// Returns [`GraphError::PassError`] if a retained node still references
    /// a removed node.
    pub(crate) fn compacted(&self, removed: &HashSet<NodeId>) -> Result<Graph> {
        let mut mapping: HashMap<NodeId, NodeId> = HashMap::new();
        let mut new_graph = Graph::new(self.name.clone());
        for node in &self.nodes {
            if removed.contains(&node.id) {
                continue;
            }
            let new_id = NodeId::new(new_graph.nodes.len());
            mapping.insert(node.id, new_id);
            let mut new_node = node.clone();
            new_node.id = new_id;
            new_graph.nodes.push(new_node);
        }
        for node in new_graph.nodes.iter_mut() {
            for input in node.inputs.iter_mut() {
                *input = *mapping.get(input).ok_or_else(|| GraphError::PassError {
                    pass: "compact".to_string(),
                    reason: format!("node '{}' references removed node {}", node.name, input),
                })?;
            }
        }
        Ok(new_graph)
    }

    /// Counts nodes per operation name (e.g. `"Conv2d" -> 120`).
    #[cfg(test)]
    pub(crate) fn op_histogram(&self) -> HashMap<&'static str, usize> {
        let mut hist = HashMap::new();
        for node in &self.nodes {
            *hist.entry(node.op.name()).or_insert(0) += 1;
        }
        hist
    }

    /// Total number of learnable parameters in the graph.
    ///
    /// Convolution weights are `Cout × Cin × Kh × Kw` (+ `Cout` bias when
    /// enabled), fully-connected weights are `in × out + out`, and every BN
    /// (or BN-derived) layer owns `2 × C` parameters (γ and β).
    pub fn parameter_count(&self) -> usize {
        let mut total = 0usize;
        for node in &self.nodes {
            total += self.node_parameter_count(node);
        }
        total
    }

    /// Number of learnable parameters owned by one node.
    pub(crate) fn node_parameter_count(&self, node: &Node) -> usize {
        let in_shape =
            node.inputs.first().and_then(|id| self.node(*id).ok()).map(|n| &n.output_shape);
        match (node.op.form(), &node.op) {
            (OpForm::Conv { attrs: a, prologue, .. }, _) => {
                let in_c = in_shape.map(|s| s.c()).unwrap_or(0);
                // A normalizing prologue brings the γ/β of the BN it
                // absorbed, which cover the convolution's input channels.
                let absorbed =
                    if matches!(prologue, ConvPrologue::NormRelu(_)) { 2 * in_c } else { 0 };
                a.weight_elems(in_c) + if a.bias { a.out_channels } else { 0 } + absorbed
            }
            (OpForm::Norm { .. }, _) => 2 * node.output_shape.c(),
            (_, OpKind::FullyConnected { out_features }) => {
                let in_features =
                    in_shape.map(|s| s.volume() / s.dim(0).unwrap_or(1).max(1)).unwrap_or(0);
                in_features * out_features + out_features
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BatchNormAttrs, Conv2dAttrs};

    fn chain_graph() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new("chain");
        let input = g.add_input("in", Shape::nchw(4, 16, 8, 8));
        let conv1 =
            g.add_node("conv1", OpKind::Conv2d(Conv2dAttrs::pointwise(32)), vec![input]).unwrap();
        let bn =
            g.add_node("bn", OpKind::BatchNorm(BatchNormAttrs::default()), vec![conv1]).unwrap();
        let relu = g.add_node("relu", OpKind::Relu, vec![bn]).unwrap();
        let conv2 =
            g.add_node("conv2", OpKind::Conv2d(Conv2dAttrs::same_3x3(8)), vec![relu]).unwrap();
        (g, vec![input, conv1, bn, relu, conv2])
    }

    #[test]
    fn build_and_lookup() {
        let (g, ids) = chain_graph();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.node(ids[1]).unwrap().output_shape, Shape::nchw(4, 32, 8, 8));
        assert_eq!(g.node(ids[4]).unwrap().output_shape, Shape::nchw(4, 8, 8, 8));
        assert!(g.node(NodeId::new(99)).is_err());
    }

    #[test]
    fn consumers_and_io_nodes() {
        let (g, ids) = chain_graph();
        assert_eq!(g.consumers(ids[0]), vec![ids[1]]);
        assert_eq!(g.consumers(ids[4]), vec![]);
        assert_eq!(g.input_nodes(), vec![ids[0]]);
        assert_eq!(g.output_nodes(), vec![ids[4]]);
    }

    #[test]
    fn topo_order_is_consistent() {
        let (g, ids) = chain_graph();
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), 5);
        let pos: HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        for node in g.nodes() {
            for input in &node.inputs {
                assert!(pos[input] < pos[&node.id]);
            }
        }
        assert_eq!(order[0], ids[0]);
    }

    #[test]
    fn cycle_detection() {
        let (mut g, ids) = chain_graph();
        // Introduce a cycle: conv1 also reads conv2.
        g.set_inputs(ids[1], vec![ids[0], ids[4]]).ok();
        // conv1 has fixed arity 1, so wire the cycle through set_inputs on
        // the bn node instead (BatchNorm arity is 1 too); emulate a raw
        // cycle by pointing relu at conv2.
        g.set_inputs(ids[3], vec![ids[4]]).unwrap();
        assert!(matches!(g.topo_order(), Err(GraphError::CyclicGraph)));
    }

    #[test]
    fn validate_detects_stale_shapes() {
        let (mut g, ids) = chain_graph();
        assert!(g.validate().is_ok());
        // Corrupt: change conv1's op to output fewer channels without
        // updating the recorded shape.
        g.set_op(ids[1], OpKind::Conv2d(Conv2dAttrs::pointwise(16))).unwrap();
        assert!(g.validate().is_err());
    }

    #[test]
    fn rewire_and_compact() {
        let (mut g, ids) = chain_graph();
        // Bypass the ReLU: conv2 reads bn directly, then drop relu.
        g.rewire_consumers(ids[3], ids[2]).unwrap();
        let mut removed = HashSet::new();
        removed.insert(ids[3]);
        let compacted = g.compacted(&removed).unwrap();
        assert_eq!(compacted.node_count(), 4);
        assert!(compacted.validate().is_ok());
        assert_eq!(compacted.op_histogram().get("ReLU"), None);
    }

    #[test]
    fn compact_rejects_dangling_references() {
        let (g, ids) = chain_graph();
        let mut removed = HashSet::new();
        removed.insert(ids[2]); // bn is still consumed by relu
        assert!(g.compacted(&removed).is_err());
    }

    #[test]
    fn histogram_counts() {
        let (g, _) = chain_graph();
        let hist = g.op_histogram();
        assert_eq!(hist["Conv2d"], 2);
        assert_eq!(hist["BatchNorm"], 1);
        assert_eq!(hist["ReLU"], 1);
        assert_eq!(hist["Input"], 1);
    }

    #[test]
    fn parameter_counts() {
        let (g, _) = chain_graph();
        // conv1: 32*16*1*1, bn: 2*32, conv2: 8*32*3*3
        let expected = 32 * 16 + 64 + 8 * 32 * 9;
        assert_eq!(g.parameter_count(), expected);
    }

    #[test]
    fn unknown_node_mutations_fail() {
        let (mut g, _) = chain_graph();
        assert!(g.set_op(NodeId::new(77), OpKind::Relu).is_err());
        assert!(g.set_inputs(NodeId::new(77), vec![]).is_err());
        assert!(g.set_node_name(NodeId::new(77), "x").is_err());
        assert!(g.rewire_consumers(NodeId::new(77), NodeId::new(0)).is_err());
    }
}
