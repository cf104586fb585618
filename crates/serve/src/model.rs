//! The frozen model: a frozen graph template plus copies of its trained
//! parameters and running statistics.
//!
//! A [`FrozenModel`] is built once — from a live
//! [`Executor`](bnff_train::Executor), or from the `.bnff` artifact of a
//! [`Checkpoint`] written by a separate training process — and then lowered
//! into [`FrozenExecutor`]s. The template keeps the training batch size in
//! its shapes, but no frozen operator couples samples, so the tape lowered
//! from it (per-sample shapes, see [`bnff_graph::linear`]) serves every
//! batch size up to the executor's `max_batch`; nothing is re-inferred per
//! batch.

use crate::error::ServeError;
use crate::executor::FrozenExecutor;
use crate::params::FrozenParamSet;
use crate::Result;
use bnff_graph::passes::freeze::{freeze, FrozenGraph};
use bnff_graph::{Graph, NodeId};
use bnff_tensor::Shape;
use bnff_train::checkpoint::Checkpoint;
use bnff_train::running::RunningStatSet;
use bnff_train::ParamSet;
use std::path::Path;
use std::sync::Arc;

/// A frozen model ready for serving: the eval-mode forward of its training
/// graph.
#[derive(Debug, Clone)]
pub struct FrozenModel {
    template: Graph,
    params: Arc<FrozenParamSet>,
    input: NodeId,
    output: NodeId,
}

impl FrozenModel {
    /// Freezes a training graph and copies its parameters and running
    /// statistics.
    ///
    /// # Errors
    /// Returns an error when the freeze pass fails or a node's parameters
    /// cannot be copied.
    pub fn from_parts(graph: &Graph, params: &ParamSet, running: &RunningStatSet) -> Result<Self> {
        let frozen: FrozenGraph = freeze(graph)?;
        let params = FrozenParamSet::from_training(&frozen, params, running)?;
        Ok(FrozenModel {
            template: frozen.graph,
            params: Arc::new(params),
            input: frozen.input,
            output: frozen.output,
        })
    }

    /// Loads and freezes a `.bnff` model artifact — the process-separation
    /// path: the trainer wrote the file, the server freezes it. The file is
    /// read once and CRC-verified before any tensor is touched.
    ///
    /// # Errors
    /// Returns [`ServeError::Model`] when the file fails any format
    /// validation (anything that is not an artifact is a typed
    /// `BadMagic`/`Truncated`), and a parameter error when the model cannot be
    /// frozen.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let checkpoint = Checkpoint::read_artifact(path)?;
        Self::from_parts(&checkpoint.graph, &checkpoint.params, &checkpoint.running)
    }

    /// The frozen graph at its template batch size.
    pub fn template(&self) -> &Graph {
        &self.template
    }

    /// The frozen parameters (shared by every stamped executor).
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

    /// Lowers the template into an executor that runs any batch of 1 to
    /// `max_batch` samples per forward pass.
    ///
    /// # Errors
    /// Returns an error when `max_batch` is zero or lowering fails.
    pub fn executor(&self, max_batch: usize) -> Result<FrozenExecutor> {
        FrozenExecutor::new(
            &self.template,
            Arc::clone(&self.params),
            self.input,
            self.output,
            max_batch,
        )
    }
}
