//! # bnff-serve — the inference serving subsystem
//!
//! At inference time the paper's restructuring changes nothing about the
//! arithmetic: Batch Normalization (and every BNFF-fused variant of it)
//! normalizes with *running* statistics instead of the mini-batch's, which
//! is exactly the training executor's eval-mode forward. This crate serves
//! that forward, bit for bit, in three layers:
//!
//! 1. **Freeze** — [`FrozenModel`] strips a trained graph at *any* fusion
//!    level of its loss head and label input (`bnff_graph::passes::freeze`)
//!    and re-keys its parameters and running statistics to the frozen
//!    nodes, failing at load when one is missing; every operator stays as
//!    trained.
//! 2. **Execute** — [`FrozenExecutor`] runs the training executor's own
//!    forward walk ([`bnff_train::Executor::infer`]) in eval mode over an
//!    [`ExecutionPlan::for_inference`](bnff_graph::ExecutionPlan::for_inference)
//!    memory plan, so every intermediate activation recycles through one
//!    small arena and a concatenation is read as a rope of its inputs. A
//!    served score is the eval-mode forward's, bit for bit, at any
//!    `BNFF_THREADS`. One executor runs any batch of 1 to its `max_batch`
//!    samples.
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
//! // Freeze through the builder; `.start()` would spin up workers,
//! // `.build_model()` hands back the frozen model for direct execution.
//! let model = ServeEngine::builder().executor(&exec).build_model()?;
//! // An executor for up to four samples per pass classifies one image,
//! // then three.
//! let executor = model.executor(4)?;
//! let mut init = Initializer::seeded(1);
//! let image = init.uniform(Shape::nchw(1, 3, 8, 8), -1.0, 1.0);
//! assert_eq!(executor.infer(&image)?.shape(), &Shape::matrix(1, 2));
//! let images = init.uniform(Shape::nchw(3, 3, 8, 8), -1.0, 1.0);
//! assert_eq!(executor.infer(&images)?.shape(), &Shape::matrix(3, 2));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assembly;
mod builder;
mod engine;
mod error;
mod executor;
pub mod http;
mod httpd;
mod metrics;
mod model;

pub use builder::ServeEngineBuilder;
pub use engine::{BatchingConfig, Completion, RequestTrace, ServeEngine};
pub use error::ServeError;
pub use executor::{FrozenExecutor, OpProfile};
pub use httpd::{HttpOptions, HttpServer};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use model::FrozenModel;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, ServeError>;
