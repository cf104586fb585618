//! Error types for graph construction and restructuring.

use crate::node::NodeId;
use std::fmt;

/// Errors produced while building, validating or restructuring a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A node id referenced a node that does not exist in the graph.
    UnknownNode(NodeId),
    /// An operation received the wrong number of inputs.
    ArityMismatch {
        /// The operation's display name.
        op: String,
        /// Number of inputs the operation requires.
        expected: usize,
        /// Number of inputs actually wired.
        got: usize,
    },
    /// Shape inference failed for a node.
    ShapeInference {
        /// Name of the node that failed.
        node: String,
        /// Why inference failed.
        reason: String,
    },
    /// The graph contains a cycle and cannot be topologically ordered.
    CyclicGraph,
    /// An executor read a node's output before anything produced it (a
    /// consumer wired to a label input, or a walk out of plan order).
    MissingValue(NodeId),
    /// A restructuring pass encountered a structural precondition violation.
    PassError {
        /// Name of the pass.
        pass: String,
        /// What went wrong.
        reason: String,
    },
    /// An error bubbled up from the tensor substrate.
    Tensor(bnff_tensor::TensorError),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            GraphError::ArityMismatch { op, expected, got } => {
                write!(f, "{op} expects {expected} inputs, got {got}")
            }
            GraphError::ShapeInference { node, reason } => {
                write!(f, "shape inference failed for node '{node}': {reason}")
            }
            GraphError::CyclicGraph => write!(f, "graph contains a cycle"),
            GraphError::MissingValue(id) => write!(f, "missing output of {id}"),
            GraphError::PassError { pass, reason } => write!(f, "pass '{pass}' failed: {reason}"),
            GraphError::Tensor(err) => write!(f, "tensor error: {err}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Tensor(err) => Some(err),
            _ => None,
        }
    }
}

impl From<bnff_tensor::TensorError> for GraphError {
    fn from(err: bnff_tensor::TensorError) -> Self {
        GraphError::Tensor(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GraphError::ArityMismatch { op: "Concat".into(), expected: 2, got: 1 };
        assert!(e.to_string().contains("Concat"));
        let e = GraphError::UnknownNode(NodeId::new(7));
        assert!(e.to_string().contains('7'));
        let e = GraphError::CyclicGraph;
        assert!(e.to_string().contains("cycle"));
        let e = GraphError::MissingValue(NodeId::new(3));
        assert!(e.to_string().contains("missing output"));
    }

    #[test]
    fn tensor_error_conversion() {
        let te = bnff_tensor::TensorError::InvalidArgument("x".into());
        let ge: GraphError = te.into();
        assert!(matches!(ge, GraphError::Tensor(_)));
        assert!(std::error::Error::source(&ge).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<E: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<GraphError>();
    }
}
