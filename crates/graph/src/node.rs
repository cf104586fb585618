//! Graph nodes and node identifiers.

use crate::op::OpKind;
use bnff_tensor::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A stable identifier for a node within one [`Graph`](crate::Graph).
///
/// Ids are dense indices assigned in insertion order; restructuring passes
/// that remove nodes produce a new graph with re-assigned ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node id from a raw index.
    pub fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One layer (operation) instance in a computational graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The node's identifier.
    pub id: NodeId,
    /// Human-readable name (e.g. `"denseblock1/cpl3/conv1"`).
    pub name: String,
    /// The operation this node performs.
    pub op: OpKind,
    /// Producer nodes whose outputs feed this node, in argument order.
    pub inputs: Vec<NodeId>,
    /// Shape of this node's (primary) output tensor.
    pub output_shape: Shape,
}

impl Node {
    /// Creates a node.
    pub fn new(
        id: NodeId,
        name: impl Into<String>,
        op: OpKind,
        inputs: Vec<NodeId>,
        output_shape: Shape,
    ) -> Self {
        Node { id, name: name.into(), op, inputs, output_shape }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {} -> {}", self.id, self.name, self.op, self.output_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Conv2dAttrs;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "n42");
    }

    #[test]
    fn node_displays_its_id_name_op_and_shape() {
        let n = Node::new(
            NodeId::new(0),
            "conv",
            OpKind::Conv2d(Conv2dAttrs::same_3x3(8)),
            vec![],
            Shape::nchw(2, 8, 4, 4),
        );
        let shown = n.to_string();
        assert!(shown.starts_with("n0 [conv] "), "{shown}");
        assert!(shown.ends_with(&format!("-> {}", n.output_shape)), "{shown}");
    }

    #[test]
    fn node_ids_order() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }
}
