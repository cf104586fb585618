//! # bnff-serve — the inference serving subsystem
//!
//! At inference time the paper's restructuring collapses entirely: Batch
//! Normalization (and every BNFF-fused variant of it) normalizes with
//! *running* statistics, which is a per-channel affine that folds into the
//! adjacent convolution's weights and bias. This crate turns that
//! observation into a servable system, in three layers:
//!
//! 1. **Freeze + fold** — [`FrozenModel`] applies the structural freeze
//!    pass (`bnff_graph::passes::freeze`) to a trained graph at *any*
//!    fusion level, then applies the fold plan numerically
//!    ([`params::fold_params`]): scaled filters, folded biases, residual
//!    [`ChannelAffine`](bnff_graph::op::OpKind::ChannelAffine) nodes only
//!    where a Concat or element-wise sum blocks the fold.
//! 2. **Execute** — [`FrozenExecutor`] runs the frozen graph forward-only
//!    over an [`ExecutionPlan::for_inference`](bnff_graph::plan::ExecutionPlan::for_inference)
//!    memory plan, so every intermediate activation recycles through one
//!    small arena and the same `bnff-parallel`-threaded kernels the trainer
//!    uses keep results bit-identical across `BNFF_THREADS`.
//! 3. **Serve** — [`ServeEngine`] admits single-sample requests into
//!    per-worker bounded shard queues (spilling to siblings, shedding with
//!    [`ServeError::Overloaded`] only when every queue is full), coalesces
//!    them into dynamic micro-batches (`max_batch`/`max_wait` bounded, with
//!    optional deadline expiry), partitions the kernel-thread budget
//!    disjointly across workers, and records its counters and latency
//!    histograms on one registry ([`ServeMetrics`]), scraped as Prometheus
//!    text.
//!
//! Training and serving are separate processes in principle: the trainer
//! writes its [`Checkpoint`](bnff_train::Checkpoint) as a `.bnff` model
//! artifact (`bnff-artifact`) and the server loads it via
//! [`ServeEngine::builder`]`().model_file(..)` (or [`FrozenModel::load`]).
//!
//! ## Example
//!
//! Every construction path goes through one fluent pipeline — *model
//! source → batching knobs → start*:
//!
//! ```rust
//! use bnff_graph::builder::GraphBuilder;
//! use bnff_graph::op::Conv2dAttrs;
//! use bnff_serve::ServeEngine;
//! use bnff_tensor::{init::Initializer, Shape};
//! use bnff_train::Executor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new("tiny");
//! let x = b.input("data", Shape::nchw(4, 3, 8, 8))?;
//! let labels = b.input("labels", Shape::vector(4))?;
//! let c = b.conv_bn_relu(x, Conv2dAttrs::same_3x3(4), "block")?;
//! let gap = b.global_avg_pool(c, "gap")?;
//! let fc = b.fully_connected(gap, 2, "fc")?;
//! b.softmax_loss(fc, labels, "loss")?;
//!
//! let exec = Executor::new(b.finish(), 42)?;
//! // Freeze + fold through the builder; `.start()` would spin up workers,
//! // `.build_model()` hands back the frozen model for direct execution.
//! let model = ServeEngine::builder().executor(&exec).build_model()?;
//! // Stamp a single-sample executor and classify one image.
//! let single = model.executor(1)?;
//! let image = Initializer::seeded(1).uniform(Shape::nchw(1, 3, 8, 8), -1.0, 1.0);
//! let scores = single.infer(&image)?;
//! assert_eq!(scores.shape(), &Shape::matrix(1, 2));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assembly;
pub mod builder;
pub mod engine;
pub mod error;
pub mod executor;
pub mod http;
pub mod httpd;
pub mod metrics;
pub mod model;
pub mod params;

pub use builder::ServeEngineBuilder;
pub use engine::{BatchingConfig, Completion, RequestTrace, ServeEngine};
pub use error::ServeError;
pub use executor::{FrozenExecutor, OpProfile};
pub use httpd::{HttpOptions, HttpServer};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use model::FrozenModel;
pub use params::{FrozenParamSet, FrozenParams};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, ServeError>;
