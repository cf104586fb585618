//! The frozen model: a batch-retargetable frozen graph plus its folded
//! parameters.
//!
//! A [`FrozenModel`] is built once — from a live
//! [`Executor`](bnff_train::Executor), or from the `.bnff` artifact of a
//! [`Checkpoint`] written by a separate training process — and then stamped
//! into per-batch-size [`FrozenExecutor`]s. Shapes in the graph IR are
//! concrete, so retargeting rebuilds the node list with the requested batch
//! dimension and re-infers every shape; node ids (and therefore the folded
//! parameter keys) are preserved because insertion order is.

use crate::error::ServeError;
use crate::executor::FrozenExecutor;
use crate::params::{fold_params, FrozenParamSet};
use crate::Result;
use bnff_graph::passes::freeze::{freeze, FrozenGraph};
use bnff_graph::{Graph, NodeId};
use bnff_tensor::Shape;
use bnff_train::checkpoint::Checkpoint;
use bnff_train::running::RunningStatSet;
use bnff_train::ParamSet;
use std::path::Path;
use std::sync::Arc;

/// A frozen, BN-folded model ready for serving.
#[derive(Debug, Clone)]
pub struct FrozenModel {
    template: Graph,
    params: Arc<FrozenParamSet>,
    input: NodeId,
    output: NodeId,
}

impl FrozenModel {
    /// Freezes a training graph and folds its parameters + running
    /// statistics.
    ///
    /// # Errors
    /// Returns an error when the freeze pass or the numeric fold fails.
    pub fn from_parts(graph: &Graph, params: &ParamSet, running: &RunningStatSet) -> Result<Self> {
        let frozen: FrozenGraph = freeze(graph)?;
        let folded = fold_params(&frozen, params, running)?;
        Ok(FrozenModel {
            template: frozen.graph,
            params: Arc::new(folded),
            input: frozen.input,
            output: frozen.output,
        })
    }

    /// Loads and freezes a `.bnff` model artifact — the process-separation
    /// path: the trainer wrote the file, the server folds it. The file is
    /// read once and CRC-verified before any tensor is touched.
    ///
    /// # Errors
    /// Returns [`ServeError::Model`] when the file fails any format
    /// validation (anything that is not an artifact is a typed
    /// `BadMagic`/`Truncated`), and a fold error when the model cannot be
    /// frozen.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let checkpoint = Checkpoint::read_artifact(path)?;
        Self::from_parts(&checkpoint.graph, &checkpoint.params, &checkpoint.running)
    }

    /// The frozen graph at its template batch size.
    pub fn template(&self) -> &Graph {
        &self.template
    }

    /// The folded parameters (shared by every stamped executor).
    pub fn params(&self) -> &Arc<FrozenParamSet> {
        &self.params
    }

    /// The per-sample input shape (`C × H × W`, batch stripped).
    pub fn sample_shape(&self) -> Result<Shape> {
        let shape = &self.template.node(self.input)?.output_shape;
        Ok(Shape::new(shape.dims()[1..].to_vec()))
    }

    /// Number of classifier outputs per sample.
    pub fn classes(&self) -> Result<usize> {
        let shape = &self.template.node(self.output)?.output_shape;
        shape.dim(shape.rank().saturating_sub(1)).map_err(ServeError::Tensor)
    }

    /// Stamps an executor bound to `batch` samples per forward pass.
    ///
    /// # Errors
    /// Returns an error when `batch` is zero or shape re-inference fails.
    pub fn executor(&self, batch: usize) -> Result<FrozenExecutor> {
        if batch == 0 {
            return Err(ServeError::InvalidArgument("batch size must be positive".into()));
        }
        let graph = self.rebatch(batch)?;
        FrozenExecutor::new(graph, Arc::clone(&self.params), self.input, self.output)
    }

    /// Rebuilds the template graph with a different batch dimension.
    fn rebatch(&self, batch: usize) -> Result<Graph> {
        let mut out = Graph::new(self.template.name().to_string());
        for node in self.template.nodes() {
            if node.inputs.is_empty() {
                let mut dims = node.output_shape.dims().to_vec();
                if dims.is_empty() {
                    return Err(ServeError::InvalidArgument(format!(
                        "input '{}' has no batch dimension",
                        node.name
                    )));
                }
                dims[0] = batch;
                out.add_input(&node.name, Shape::new(dims));
            } else {
                // Insertion order is topological (freeze builds it that
                // way), so every input already exists; `add_node` re-infers
                // the output shape at the new batch size.
                out.add_node(&node.name, node.op.clone(), node.inputs.clone())?;
            }
        }
        Ok(out)
    }
}
