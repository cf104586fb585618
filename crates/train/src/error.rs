//! Error type for the training substrate.

use std::fmt;

/// Errors produced by the executor, optimizer or trainer.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The executor met an operation it cannot execute numerically.
    Unsupported(String),
    /// A required input, parameter or intermediate value was missing.
    Missing(String),
    /// An invalid configuration or argument.
    InvalidArgument(String),
    /// An error bubbled up from the graph crate.
    Graph(bnff_graph::GraphError),
    /// An error bubbled up from a kernel.
    Kernel(bnff_kernels::KernelError),
    /// An error bubbled up from the tensor substrate.
    Tensor(bnff_tensor::TensorError),
    /// A `.bnff` model artifact could not be loaded or stored — the shared
    /// typed hierarchy from `bnff-artifact`.
    Model(bnff_artifact::ModelError),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            TrainError::Missing(msg) => write!(f, "missing value: {msg}"),
            TrainError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            TrainError::Graph(err) => write!(f, "graph error: {err}"),
            TrainError::Kernel(err) => write!(f, "kernel error: {err}"),
            TrainError::Tensor(err) => write!(f, "tensor error: {err}"),
            TrainError::Model(err) => write!(f, "model error: {err}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Graph(err) => Some(err),
            TrainError::Kernel(err) => Some(err),
            TrainError::Tensor(err) => Some(err),
            TrainError::Model(err) => Some(err),
            _ => None,
        }
    }
}

impl From<bnff_graph::GraphError> for TrainError {
    fn from(err: bnff_graph::GraphError) -> Self {
        TrainError::Graph(err)
    }
}

impl From<bnff_kernels::KernelError> for TrainError {
    fn from(err: bnff_kernels::KernelError) -> Self {
        TrainError::Kernel(err)
    }
}

impl From<bnff_tensor::TensorError> for TrainError {
    fn from(err: bnff_tensor::TensorError) -> Self {
        TrainError::Tensor(err)
    }
}

impl From<bnff_artifact::ModelError> for TrainError {
    fn from(err: bnff_artifact::ModelError) -> Self {
        TrainError::Model(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: TrainError = bnff_graph::GraphError::CyclicGraph.into();
        assert!(e.to_string().contains("cycle"));
        let e: TrainError = bnff_kernels::KernelError::InvalidArgument("x".into()).into();
        assert!(std::error::Error::source(&e).is_some());
        let e: TrainError = bnff_tensor::TensorError::InvalidArgument("y".into()).into();
        assert!(e.to_string().contains("tensor"));
        let e = TrainError::Unsupported("op".into());
        assert!(e.to_string().contains("unsupported"));
        let e: TrainError = bnff_artifact::ModelError::Truncated { needed: 9, available: 1 }.into();
        assert!(e.to_string().contains("truncated"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn error_bounds() {
        fn assert_bounds<E: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<TrainError>();
    }
}
