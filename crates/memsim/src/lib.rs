//! # bnff-memsim — machine performance model
//!
//! The paper measures its speedups on a 2-socket Skylake Xeon (230.4 GB/s of
//! DDR4 bandwidth, 3.34 TFLOPS) and a Pascal Titan X; this repository does
//! not assume access to that hardware, so it substitutes an *analytical
//! machine model* driven by the real computational graphs:
//!
//! 1. [`graph` analysis](bnff_graph::analysis) reports, per layer, the FLOPs
//!    and the whole-tensor memory sweeps of the forward and backward pass.
//! 2. A `CacheModel` decides which sweeps actually
//!    reach DRAM: mini-batch feature maps do (they are far larger than the
//!    last-level cache, exactly the paper's Section 3.1 argument), small
//!    weight tensors and per-channel statistics do not.
//! 3. A roofline execution-time model charges each layer the
//!    maximum of its compute time and its DRAM time on a given
//!    [`MachineProfile`], plus a per-layer kernel
//!    launch overhead.
//! 4. [`report::simulate_iteration`] aggregates this into per-iteration
//!    execution times, DRAM traffic, and CONV/FC vs non-CONV breakdowns —
//!    the quantities every figure of the paper is built from.
//!
//! The absolute times are not expected to match the paper's testbed; the
//! *relative* behaviour (who is bandwidth-bound, what BNFF saves, where the
//! crossovers are) is what the model reproduces.
//!
//! ## Example
//!
//! ```rust
//! use bnff_graph::builder::GraphBuilder;
//! use bnff_graph::op::Conv2dAttrs;
//! use bnff_memsim::{simulate_iteration, MachineProfile};
//! use bnff_tensor::Shape;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new("fragment");
//! let x = b.input("in", Shape::nchw(32, 64, 28, 28))?;
//! let c = b.conv2d(x, Conv2dAttrs::same_3x3(64), "conv")?;
//! let _bn = b.batch_norm_default(c, "bn")?;
//! let graph = b.finish();
//!
//! let report = simulate_iteration(&graph, &MachineProfile::skylake_xeon_2s())?;
//! assert!(report.total_seconds() > 0.0);
//! assert!(report.total_dram_bytes() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod blocked;
mod cache;
mod dram;
mod error;
mod machine;
mod report;
mod roofline;
pub mod timeline;

pub use error::MemsimError;
pub use machine::MachineProfile;
pub use report::{simulate_iteration, IterationReport, NodeTiming};
pub use timeline::{simulate_timeline, TimelineEvent};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, MemsimError>;
