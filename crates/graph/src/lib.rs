//! # bnff-graph — layer-level computational graph IR and BN restructuring
//!
//! The paper's contribution — **BN Fission-n-Fusion (BNFF)** — is a
//! *restructuring of the training computational graph*: a Batch
//! Normalization layer is split into a statistics sub-layer and a
//! normalization sub-layer, and the two halves are fused into the
//! surrounding convolution / ReLU layers so that no dedicated memory sweep
//! over the mini-batch feature maps remains.
//!
//! This crate provides:
//!
//! * an [`OpKind`] vocabulary covering every layer type in
//!   DenseNet / ResNet training plus the fused operators BNFF introduces,
//! * a [`Graph`] of layer nodes with shape inference,
//!   topological ordering and validation,
//! * a [`GraphBuilder`] used by the model zoo,
//! * the restructuring passes of the paper — Fission, RCF, MVF, BNFF and ICF
//!   — in [`passes`],
//! * a machine-independent cost analysis ([`analysis`]) that reports FLOPs
//!   and whole-tensor memory sweeps per node, for both the forward and the
//!   backward pass.
//!
//! ## Example
//!
//! ```rust
//! use bnff_graph::builder::GraphBuilder;
//! use bnff_graph::op::{BatchNormAttrs, Conv2dAttrs};
//! use bnff_graph::passes::{self, Pass};
//! use bnff_tensor::Shape;
//!
//! # fn main() -> Result<(), bnff_graph::GraphError> {
//! // A DenseNet-style composite-layer fragment: CONV -> BN -> ReLU -> CONV.
//! let mut b = GraphBuilder::new("fragment");
//! let input = b.input("in", Shape::nchw(8, 64, 16, 16))?;
//! let c1 = b.conv2d(input, Conv2dAttrs::pointwise(128), "conv1")?;
//! let bn = b.batch_norm(c1, BatchNormAttrs::default(), "bn")?;
//! let relu = b.relu(bn, "relu")?;
//! let _c2 = b.conv2d(relu, Conv2dAttrs::same_3x3(32), "conv2")?;
//! let graph = b.finish();
//!
//! // Apply the full BN Fission-n-Fusion restructuring.
//! let restructured = passes::BnffPass::new().run(&graph)?;
//! assert!(restructured.node_count() < graph.node_count());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod builder;
pub mod dot;
pub mod error;
pub mod graph;
pub mod linear;
pub mod node;
pub mod op;
pub mod passes;
pub mod plan;
pub mod shape_infer;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::Graph;
pub use linear::{Instr, Kernel, LinearProgram, Reg};
pub use node::{Node, NodeId};
pub use op::OpKind;
pub use plan::{ExecutionPlan, MemoryPlanSummary};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
