//! # bnff-train — numeric training substrate
//!
//! This crate runs the real arithmetic of the model graphs: an
//! [`Executor`] walks a graph in topological order, dispatching every node
//! (including the fused BNFF operators) to the kernels in `bnff-kernels`,
//! keeps the per-node state the backward pass needs, and produces
//! parameter gradients; an [`SgdOptimizer`] applies them. Synthetic
//! labelled datasets ([`data`]) make end-to-end training runs
//! self-contained.
//!
//! The paper's restructuring is legal because it moves memory traffic, not
//! arithmetic, and here it leaves the bits unchanged: at every fusion level
//! a training step gives the Baseline's loss, parameters and running
//! statistics bit for bit. The workspace test `tests/equivalence.rs` and this
//! crate's `tests/golden_bits.rs` assert it.
//!
//! Each dispatched kernel fans out across the `bnff-parallel` pool, so a
//! training step uses every core `BNFF_THREADS` allows.
//!
//! ## Example
//!
//! ```rust
//! use bnff_graph::builder::GraphBuilder;
//! use bnff_graph::op::Conv2dAttrs;
//! use bnff_tensor::{init::Initializer, Shape};
//! use bnff_train::Executor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A minimal classifier: conv -> BN -> ReLU -> GAP -> FC -> loss.
//! let mut b = GraphBuilder::new("tiny");
//! let x = b.input("data", Shape::nchw(2, 3, 8, 8))?;
//! let labels = b.input("labels", Shape::vector(2))?;
//! let c = b.conv2d(x, Conv2dAttrs::same_3x3(4), "conv")?;
//! let bn = b.batch_norm_default(c, "bn")?;
//! let r = b.relu(bn, "relu")?;
//! let gap = b.global_avg_pool(r, "gap")?;
//! let fc = b.fully_connected(gap, 2, "fc")?;
//! b.softmax_loss(fc, labels, "loss")?;
//!
//! let exec = Executor::new(b.finish(), 42)?;
//! let data = Initializer::seeded(1).uniform(Shape::nchw(2, 3, 8, 8), -1.0, 1.0);
//! let fwd = exec.forward(&data, &[0, 1])?;
//! assert!(fwd.loss.is_finite());
//! let grads = exec.backward(&fwd)?;
//! assert!(grads.global_norm() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod data;
mod error;
mod executor;
mod optimizer;
pub mod params;
pub mod running;
mod trainer;

pub use checkpoint::Checkpoint;
pub use error::TrainError;
pub use executor::{Executor, ForwardResult};
pub use optimizer::SgdOptimizer;
pub use params::{Gradients, NodeParams, ParamSet};
pub use running::{RunningStatSet, RunningStats};
pub use trainer::{TrainConfig, Trainer};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TrainError>;
