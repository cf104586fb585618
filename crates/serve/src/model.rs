//! The frozen model: a frozen graph template plus its trained parameters
//! and running statistics, re-keyed to the frozen graph's nodes.
//!
//! A [`FrozenModel`] is built once — from a live
//! [`Executor`](bnff_train::Executor), or from the `.bnff` artifact of a
//! [`Checkpoint`] written by a separate training process — and then turned
//! into [`FrozenExecutor`]s, which share its parameters. The template keeps
//! the training batch size in its shapes, but no frozen operator couples
//! samples, so an executor's walk sizes every feature map for the batch it
//! is handed and serves every batch size up to its `max_batch`; nothing is
//! re-inferred per batch.

use crate::error::ServeError;
use crate::executor::FrozenExecutor;
use crate::Result;
use bnff_graph::op::{ConvPrologue, OpForm, OpKind};
use bnff_graph::passes::freeze::{freeze, FrozenGraph};
use bnff_graph::{Graph, NodeId};
use bnff_tensor::Shape;
use bnff_train::checkpoint::Checkpoint;
use bnff_train::running::RunningStatSet;
use bnff_train::{NodeParams, ParamSet};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// A frozen model ready for serving: the eval-mode forward of its training
/// graph.
#[derive(Debug, Clone)]
pub struct FrozenModel {
    template: Graph,
    params: Arc<ParamSet>,
    running: Arc<RunningStatSet>,
    input: NodeId,
    output: NodeId,
}

impl FrozenModel {
    /// Freezes a training graph and re-keys its parameters and running
    /// statistics to the frozen graph's nodes.
    ///
    /// # Errors
    /// Returns an error when the freeze pass fails, and
    /// [`ServeError::Params`] when a convolution, normalization or
    /// fully-connected node lacks its parameters or a statistics source
    /// lacks its running statistics — at load, never at the first request.
    pub fn from_parts(graph: &Graph, params: &ParamSet, running: &RunningStatSet) -> Result<Self> {
        let frozen: FrozenGraph = freeze(graph)?;
        let (params, running) = rekey(&frozen, params, running)?;
        Ok(FrozenModel {
            template: frozen.graph,
            params: Arc::new(params),
            running: Arc::new(running),
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

    /// An executor that runs any batch of 1 to `max_batch` samples per
    /// forward pass, sharing this model's parameters.
    ///
    /// # Errors
    /// Returns an error when `max_batch` is zero or the graph cannot be
    /// memory-planned.
    pub fn executor(&self, max_batch: usize) -> Result<FrozenExecutor> {
        FrozenExecutor::new(
            self.template.clone(),
            Arc::clone(&self.params),
            Arc::clone(&self.running),
            self.input,
            max_batch,
        )
    }
}

/// Re-keys the training parameters and running statistics through the
/// freeze pass's frozen → training node map, checking that every node the
/// eval walk reads them for has them.
fn rekey(
    frozen: &FrozenGraph,
    params: &ParamSet,
    running: &RunningStatSet,
) -> Result<(ParamSet, RunningStatSet)> {
    let mut kept = ParamSet::new();
    let mut stats = HashMap::new();
    for node in frozen.graph.nodes() {
        let source = frozen.training[node.id.index()];
        let trained = params.get(source);
        let (weights, norm) = match trained {
            Some(NodeParams::Conv { .. }) => (true, false),
            Some(NodeParams::ConvBn { .. }) => (true, true),
            Some(NodeParams::Bn(_)) => (false, true),
            _ => (false, false),
        };
        let fits = match (node.op.form(), &node.op) {
            (OpForm::Conv { prologue: ConvPrologue::NormRelu(_), .. }, _) => weights && norm,
            (OpForm::Conv { .. }, _) => weights,
            (OpForm::Norm { .. }, _) => norm,
            (_, OpKind::FullyConnected { .. }) => matches!(trained, Some(NodeParams::Fc { .. })),
            _ => true,
        };
        if !fits {
            return Err(ServeError::Params(format!(
                "'{}' ({}) has no trained parameters that fit it",
                node.name, node.op
            )));
        }
        if let Some(trained) = trained {
            kept.insert(node.id, trained.clone());
        }
        if node.op.stats_out().is_some() {
            let source_stats = running.get(source).ok_or_else(|| {
                ServeError::Params(format!("'{}' has no running statistics", node.name))
            })?;
            stats.insert(node.id.index(), source_stats.clone());
        }
    }
    Ok((kept, RunningStatSet::from_entries(stats, running.momentum())))
}
