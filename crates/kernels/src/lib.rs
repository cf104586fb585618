//! # bnff-kernels — numerical CPU kernels for CNN training layers
//!
//! This crate implements the arithmetic of every layer type the paper's
//! CNNs use during training, in two flavours:
//!
//! * **Unfused (baseline)** kernels that mirror the reference
//!   implementation: convolution, two-pass Batch Normalization, standalone
//!   ReLU, pooling, fully-connected, softmax loss, concat and element-wise
//!   sum.
//! * **Fused (restructured)** kernels corresponding to the operators the BN
//!   Fission-n-Fusion passes introduce. Each rides the one convolution
//!   body's sample loop: a *prologue* ([`conv::ConvInput`]) that normalizes +
//!   clips one sample of the convolution's input right before it is read, an
//!   *epilogue* that accumulates Σx/Σx² of the convolution's output while
//!   writing it ([`fused::fused_conv_forward_into`], behind
//!   [`fused::norm_relu_conv_forward`] and
//!   [`fused::conv2d_forward_with_stats`]), and — backward — an epilogue of
//!   the input gradient that applies ReLU′ and accumulates the ∂γ/∂β
//!   reductions while each sample's gradient is cache-hot
//!   ([`fused::fused_conv_backward_into`]). No batch-wide normalized or
//!   clipped copy of the input is written in either direction.
//!
//! The fused kernels compute *bit-for-bit comparable* results to the
//! composition of their unfused counterparts (up to floating-point
//! reassociation in the Σx² variance) — the unfused ReLU and BN backward
//! passes are wrappers over the very plane helpers the fused epilogue runs —
//! which is what makes the paper's restructuring legal during training. The
//! test-suites in this crate check that equivalence, and the `benchmark/`
//! package measures the actual memory-traffic benefit on the host CPU
//! (`kernels.fusion_gain_*.str`).
//!
//! Every kernel partitions its hot loops across the `bnff-parallel` pool
//! (convolutions by output plane, GEMMs by output row, BN reductions by
//! channel), honouring `BNFF_THREADS` and producing thread-count-independent
//! results — the `parallel_determinism` integration suite locks that in.
//!
//! ## Example
//!
//! A fused convolution produces the same output as the unfused one while
//! its mini-batch statistics ride along with the output write:
//!
//! ```rust
//! use bnff_graph::op::Conv2dAttrs;
//! use bnff_kernels::conv::conv2d_forward_direct;
//! use bnff_kernels::fused::conv2d_forward_with_stats;
//! use bnff_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), bnff_kernels::KernelError> {
//! let attrs = Conv2dAttrs::pointwise(2);
//! let x = Tensor::ones(Shape::nchw(1, 3, 4, 4));
//! let w = Tensor::ones(Shape::nchw(2, 3, 1, 1));
//! let plain = conv2d_forward_direct(&x, &w, None, &attrs)?;
//! let (fused, stats) = conv2d_forward_with_stats(&x, &w, None, &attrs)?;
//! assert_eq!(plain.as_slice(), fused.as_slice());
//! assert!((stats.mean[0] - 3.0).abs() < 1e-6); // all-ones 1x1 conv over 3 channels
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod affine;
pub mod batchnorm;
pub mod concat;
pub mod conv;
mod correlate;
pub mod dispatch;
pub mod eltwise;
pub mod error;
pub mod fc;
pub mod fused;
pub mod gemm;
pub mod im2col;
pub mod pool;
pub mod relu;
pub mod softmax;
mod vecops;

pub use error::KernelError;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, KernelError>;
