//! # bnff-models — the CNN model zoo as computational graphs
//!
//! Graph builders for every network the paper evaluates or references:
//!
//! * [`densenet121`] (and the other DenseNet-BC depths) — the primary
//!   optimization target,
//! * [`resnet50`] (and ResNet-18/34) — the secondary target,
//! * [`alexnet`] and VGG-16 — the early, CONV-dominated models of
//!   Figure 1,
//! * CIFAR-scale variants of DenseNet and ResNet used by the numerical
//!   training tests, where running the real arithmetic is cheap.
//!
//! Every builder returns a [`bnff_graph::Graph`] that ends in a softmax
//! cross-entropy head, so the same graph drives both the performance model
//! (`bnff-memsim`) and the numerical executor (`bnff-train`).
//!
//! ## Example
//!
//! ```rust
//! # fn main() -> bnff_models::Result<()> {
//! // A CIFAR-scale DenseNet-BC: growth rate 12, 4 layers per dense block.
//! let graph = bnff_models::densenet_cifar(8, 12, 4, 10)?;
//! assert!(graph.node_count() > 20);
//! graph.validate()?; // shapes infer and the topology is a DAG
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod alexnet;
mod densenet;
mod resnet;
mod vgg;
pub mod zoo;

pub use alexnet::alexnet;
pub use densenet::{densenet121, densenet_cifar};
pub use resnet::{resnet50, resnet_cifar};
pub use zoo::{build, Model};

/// Convenience result alias re-exported from the graph crate.
pub type Result<T> = bnff_graph::Result<T>;
