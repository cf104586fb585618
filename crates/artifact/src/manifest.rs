//! The artifact's JSON manifest: everything about the model *except* the
//! bulk parameter bytes.
//!
//! The manifest is deliberately small — graph topology, a tensor table
//! whose entries point into the raw tensor section, parameter/statistics
//! wiring, provenance. All `f32` bulk data lives outside the JSON in the
//! aligned tensor section, so loading a model never runs a number parser
//! over megabytes of weights (the paper's DRAM-byte economy, applied to
//! model loading).

use bnff_graph::Graph;
use serde::{Deserialize, Serialize};

/// The scalar element type of a stored tensor.
///
/// Only `f32` exists today; the field is in the format so a future
/// quantized artifact (`i8` weights, `i32` accumulators) extends the enum
/// instead of revving the container version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dtype {
    /// IEEE-754 binary32, little-endian.
    F32,
}

impl Dtype {
    /// Bytes per scalar element.
    pub fn size_of(self) -> usize {
        match self {
            Dtype::F32 => 4,
        }
    }
}

/// One entry of the tensor table: where a tensor's raw bytes live inside
/// the tensor section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TensorEntry {
    /// Human-readable name (`node12/weights`), for tooling and diagnostics.
    pub name: String,
    /// Element type of the stored bytes.
    pub dtype: Dtype,
    /// The tensor's logical shape; its volume times the dtype width must
    /// equal `byte_len`.
    pub shape: Vec<usize>,
    /// Byte offset inside the tensor section, always a multiple of the
    /// section alignment (64) so views stay cache-line/SIMD aligned and the
    /// section can be mmapped.
    pub offset: u64,
    /// Length of the tensor's bytes.
    pub byte_len: u64,
}

/// How one parameterised graph node's tensors are wired together, by
/// tensor-table index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamKind {
    /// A convolution's filters and optional bias.
    Conv {
        /// Tensor-table index of the filter tensor.
        weights: usize,
        /// Tensor-table index of the bias vector, if the layer has one.
        bias: Option<usize>,
    },
    /// A Batch Normalization layer's γ/β.
    Bn {
        /// Tensor-table index of γ.
        gamma: usize,
        /// Tensor-table index of β.
        beta: usize,
    },
    /// A fused convolution that also owns the absorbed normalization's γ/β.
    ConvBn {
        /// Tensor-table index of the filter tensor.
        weights: usize,
        /// Tensor-table index of the bias vector, if the layer has one.
        bias: Option<usize>,
        /// Tensor-table index of γ.
        gamma: usize,
        /// Tensor-table index of β.
        beta: usize,
    },
    /// A fully-connected layer's weights and bias.
    Fc {
        /// Tensor-table index of the weight matrix.
        weights: usize,
        /// Tensor-table index of the bias vector.
        bias: usize,
    },
}

/// The parameters of one graph node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamEntry {
    /// The owning node's index in the graph.
    pub node: usize,
    /// Which tensors make up the node's parameters.
    pub kind: ParamKind,
}

/// The running BN statistics of one statistics-producing node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsEntry {
    /// The statistics-producer's node index in the graph.
    pub node: usize,
    /// Tensor-table index of the per-channel running mean.
    pub mean: usize,
    /// Tensor-table index of the per-channel running (biased) variance.
    pub var: usize,
}

/// Who wrote the artifact, from what.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// The writing tool and its version (`bnff-artifact 0.1.0`).
    pub created_by: String,
    /// A free-form description of the source (graph name, experiment tag).
    pub source: String,
    /// The *checkpoint* format version the model state was exported from —
    /// distinct from the artifact container version in the binary header.
    pub source_format_version: u32,
}

/// The artifact manifest: the model minus its bulk bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// The (training) graph topology, verbatim.
    pub graph: Graph,
    /// The tensor table; `ParamKind` and `StatsEntry` reference it by index.
    pub tensors: Vec<TensorEntry>,
    /// Parameter wiring, sorted by node index (deterministic bytes).
    pub params: Vec<ParamEntry>,
    /// Running-statistics wiring, sorted by node index.
    pub stats: Vec<StatsEntry>,
    /// The running-statistics EMA momentum.
    pub momentum: f32,
    /// Where the artifact came from.
    pub provenance: Provenance,
}

impl ParamKind {
    /// Every tensor-table index the entry references.
    pub(crate) fn tensor_refs(&self) -> Vec<usize> {
        match self {
            ParamKind::Conv { weights, bias } => {
                let mut v = vec![*weights];
                v.extend(bias.iter().copied());
                v
            }
            ParamKind::Bn { gamma, beta } => vec![*gamma, *beta],
            ParamKind::ConvBn { weights, bias, gamma, beta } => {
                let mut v = vec![*weights];
                v.extend(bias.iter().copied());
                v.push(*gamma);
                v.push(*beta);
                v
            }
            ParamKind::Fc { weights, bias } => vec![*weights, *bias],
        }
    }
}
