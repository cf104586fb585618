//! The parameters a frozen graph runs with.
//!
//! Serving computes the eval-mode forward of the training executor, so the
//! frozen parameters are copies of the training ones, taken node by node
//! through the freeze pass's frozen → training node map: filters and biases,
//! and, for every normalization (standalone, or a prologue a fused
//! convolution absorbed), its γ/β, its ε and the running statistics of its
//! statistics source. No arithmetic is done at load.

use crate::error::ServeError;
use crate::Result;
use bnff_graph::op::{BatchNormAttrs, ConvPrologue, OpForm};
use bnff_graph::passes::freeze::FrozenGraph;
use bnff_graph::{Node, NodeId};
use bnff_kernels::batchnorm::BnParams;
use bnff_tensor::stats::ChannelStats;
use bnff_tensor::Tensor;
use bnff_train::params::NodeParams;
use bnff_train::running::RunningStatSet;
use bnff_train::ParamSet;
use std::collections::HashMap;
use std::sync::Arc;

/// What a normalization reads at inference.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenNorm {
    /// γ/β.
    pub params: BnParams,
    /// The running statistics of the normalization's statistics source.
    pub running: ChannelStats,
    /// The ε under the square root.
    pub epsilon: f32,
}

/// The parameters of one frozen node.
#[derive(Debug, Clone, PartialEq)]
pub enum FrozenParams {
    /// A convolution: filters, bias and, with a normalizing prologue, the
    /// normalization it absorbed.
    Conv {
        /// Filter tensor `(Cout, Cin, Kh, Kw)`.
        weights: Tensor,
        /// Optional per-output-channel bias.
        bias: Option<Vec<f32>>,
        /// The prologue's normalization, if it normalizes.
        norm: Option<FrozenNorm>,
    },
    /// A standalone normalization.
    Norm(FrozenNorm),
    /// Fully-connected weights `(out, in)` and bias.
    Fc {
        /// Weight matrix `(out, in)`.
        weights: Tensor,
        /// Bias of length `out`.
        bias: Vec<f32>,
    },
}

/// All frozen parameters, keyed by frozen-graph node index. Entries are
/// reference-counted so a tape compiler can pre-bind per-instruction
/// parameter handles without cloning weights.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrozenParamSet {
    entries: HashMap<usize, Arc<FrozenParams>>,
}

impl FrozenParamSet {
    /// Copies a frozen graph's parameters out of the trained parameter set
    /// and its running statistics.
    ///
    /// # Errors
    /// Returns [`ServeError::Params`] when a node's training parameters do
    /// not fit its operator or a normalization's statistics source has no
    /// running statistics.
    pub fn from_training(
        frozen: &FrozenGraph,
        params: &ParamSet,
        running: &RunningStatSet,
    ) -> Result<Self> {
        let mut entries = HashMap::new();
        for node in frozen.graph.nodes() {
            let Some(trained) = params.get(frozen.training[node.id.index()]) else { continue };
            let norm = |bn: BatchNormAttrs, own: bool| -> Result<FrozenNorm> {
                let source = frozen.training[if own { node.id } else { node.inputs[1] }.index()];
                let stats = running.get(source).ok_or_else(|| {
                    ServeError::Params(format!("no running statistics for {source}"))
                })?;
                let params = match trained {
                    NodeParams::Bn(p) | NodeParams::ConvBn { bn: p, .. } => p.clone(),
                    _ => return Err(misfit(node)),
                };
                Ok(FrozenNorm { params, running: stats.as_channel_stats(), epsilon: bn.epsilon })
            };
            let entry = match (node.op.form(), trained) {
                (
                    OpForm::Conv { prologue, .. },
                    NodeParams::Conv { weights, bias } | NodeParams::ConvBn { weights, bias, .. },
                ) => FrozenParams::Conv {
                    weights: weights.clone(),
                    bias: bias.clone(),
                    norm: match prologue {
                        ConvPrologue::NormRelu(bn) => Some(norm(bn, false)?),
                        ConvPrologue::None | ConvPrologue::Relu => None,
                    },
                },
                (OpForm::Norm { bn, stats_from_input, .. }, _) => {
                    FrozenParams::Norm(norm(bn, stats_from_input)?)
                }
                (OpForm::Other, NodeParams::Fc { weights, bias }) => {
                    FrozenParams::Fc { weights: weights.clone(), bias: bias.clone() }
                }
                _ => return Err(misfit(node)),
            };
            entries.insert(node.id.index(), Arc::new(entry));
        }
        Ok(FrozenParamSet { entries })
    }

    /// Looks up the parameters of a frozen node.
    pub fn get(&self, id: NodeId) -> Option<&FrozenParams> {
        self.entries.get(&id.index()).map(Arc::as_ref)
    }

    /// Looks up the parameters of a frozen node as a shared handle, for
    /// executors that bind parameters per instruction ahead of time.
    pub fn get_shared(&self, id: NodeId) -> Option<Arc<FrozenParams>> {
        self.entries.get(&id.index()).cloned()
    }

    /// Number of parameterised frozen nodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar parameters the frozen model carries (running
    /// statistics included).
    pub fn scalar_count(&self) -> usize {
        let norm = |n: &FrozenNorm| 2 * n.params.gamma.len() + 2 * n.running.channels();
        self.entries
            .values()
            .map(|p| match p.as_ref() {
                FrozenParams::Conv { weights, bias, norm: n } => {
                    weights.len() + bias.as_ref().map_or(0, Vec::len) + n.as_ref().map_or(0, norm)
                }
                FrozenParams::Norm(n) => norm(n),
                FrozenParams::Fc { weights, bias } => weights.len() + bias.len(),
            })
            .sum()
    }
}

/// The error for training parameters that do not fit the node's operator.
fn misfit(node: &Node) -> ServeError {
    ServeError::Params(format!(
        "the training parameters of '{}' do not fit its {}",
        node.name, node.op
    ))
}
