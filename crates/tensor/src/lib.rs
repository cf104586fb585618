//! # bnff-tensor — dense NCHW tensor substrate
//!
//! The bnff reproduction needs a small, dependable dense-tensor library to
//! back the numerical CNN kernels and the statistics computations that Batch
//! Normalization performs over a mini-batch. This crate provides exactly
//! that: a contiguous, row-major `f32` tensor with first-class support for
//! the `N × C × H × W` layout used throughout the paper, plus the
//! per-channel statistics routines (two-pass, one-pass `E[X²]−E[X]²`, and
//! Welford) that the Mean/Variance-Fusion (MVF) analysis relies on.
//!
//! ## Example
//!
//! ```rust
//! use bnff_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), bnff_tensor::TensorError> {
//! let x = Tensor::filled(Shape::nchw(2, 3, 4, 4), 1.5);
//! let stats = bnff_tensor::stats::channel_stats_two_pass(&x)?;
//! assert_eq!(stats.mean.len(), 3);
//! assert!((stats.mean[0] - 1.5).abs() < 1e-6);
//! assert!(stats.var[0].abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
pub mod init;
pub mod ops;
pub mod pool;
mod rope;
mod shape;
pub mod simd;
pub mod stats;
mod tensor;

pub use error::TensorError;
pub use rope::{ChannelRope, GradPart};
pub use shape::Shape;
pub use simd::{active_isa, with_isa, SimdIsa};
pub use stats::ChannelStats;
pub use tensor::Tensor;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
