//! Error type for the serving subsystem.

use std::fmt;

/// Errors produced while freezing or serving a model.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A frozen node lacks what the eval walk reads for it: trained
    /// parameters that fit its operator, or the running statistics of a
    /// statistics source.
    Params(String),
    /// A request or configuration was invalid.
    InvalidArgument(String),
    /// The engine is shutting down and no longer accepts requests.
    ShuttingDown,
    /// Admission control shed the request: every shard's bounded queue was
    /// full. Carries the total number of requests queued across shards at
    /// the moment of rejection, for callers that log or adapt their rate.
    Overloaded {
        /// Requests queued engine-wide when admission was refused.
        queued: usize,
    },
    /// The request waited in the queue past the engine's configured
    /// deadline and was expired instead of served.
    DeadlineExceeded,
    /// An error bubbled up from the graph crate.
    Graph(bnff_graph::GraphError),
    /// An error bubbled up from a kernel.
    Kernel(bnff_kernels::KernelError),
    /// An error bubbled up from the tensor substrate.
    Tensor(bnff_tensor::TensorError),
    /// A `.bnff` model artifact could not be loaded — the shared typed
    /// hierarchy from `bnff-artifact`.
    Model(bnff_artifact::ModelError),
    /// An error bubbled up from the training substrate (checkpoint load).
    Train(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Params(msg) => write!(f, "parameter error: {msg}"),
            ServeError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            ServeError::ShuttingDown => write!(f, "the serving engine is shutting down"),
            ServeError::Overloaded { queued } => {
                write!(f, "engine overloaded: all bounded shard queues full ({queued} queued)")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "request expired in the queue past its deadline")
            }
            ServeError::Graph(err) => write!(f, "graph error: {err}"),
            ServeError::Kernel(err) => write!(f, "kernel error: {err}"),
            ServeError::Tensor(err) => write!(f, "tensor error: {err}"),
            ServeError::Model(err) => write!(f, "model error: {err}"),
            ServeError::Train(msg) => write!(f, "training-state error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Graph(err) => Some(err),
            ServeError::Kernel(err) => Some(err),
            ServeError::Tensor(err) => Some(err),
            ServeError::Model(err) => Some(err),
            _ => None,
        }
    }
}

impl From<bnff_graph::GraphError> for ServeError {
    fn from(err: bnff_graph::GraphError) -> Self {
        ServeError::Graph(err)
    }
}

impl From<bnff_kernels::KernelError> for ServeError {
    fn from(err: bnff_kernels::KernelError) -> Self {
        ServeError::Kernel(err)
    }
}

impl From<bnff_tensor::TensorError> for ServeError {
    fn from(err: bnff_tensor::TensorError) -> Self {
        ServeError::Tensor(err)
    }
}

impl From<bnff_train::TrainError> for ServeError {
    fn from(err: bnff_train::TrainError) -> Self {
        match err {
            // Model-loading and kernel failures keep their typed identity
            // across the layer boundary so callers (and the HTTP/C ABI
            // surfaces) can match on one hierarchy.
            bnff_train::TrainError::Model(err) => ServeError::Model(err),
            bnff_train::TrainError::Graph(err) => ServeError::Graph(err),
            bnff_train::TrainError::Kernel(err) => ServeError::Kernel(err),
            bnff_train::TrainError::Tensor(err) => ServeError::Tensor(err),
            bnff_train::TrainError::InvalidArgument(msg) => ServeError::InvalidArgument(msg),
            other => ServeError::Train(other.to_string()),
        }
    }
}

impl From<bnff_artifact::ModelError> for ServeError {
    fn from(err: bnff_artifact::ModelError) -> Self {
        ServeError::Model(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: ServeError = bnff_graph::GraphError::CyclicGraph.into();
        assert!(e.to_string().contains("cycle"));
        let e: ServeError = bnff_tensor::TensorError::InvalidArgument("x".into()).into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(ServeError::ShuttingDown.to_string().contains("shutting down"));
        assert!(ServeError::Overloaded { queued: 7 }.to_string().contains("7 queued"));
        assert!(ServeError::DeadlineExceeded.to_string().contains("deadline"));
        let model = bnff_artifact::ModelError::BadMagic { found: *b"NOPE" };
        let e: ServeError = bnff_train::TrainError::Model(model.clone()).into();
        assert_eq!(e, ServeError::Model(model));
        assert!(std::error::Error::source(&e).is_some());
        let e: ServeError = bnff_train::TrainError::Unsupported("op".into()).into();
        assert!(matches!(e, ServeError::Train(_)));
        fn assert_bounds<E: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<ServeError>();
    }
}
