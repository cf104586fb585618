//! # bnff-parallel — hand-rolled scoped data-parallelism for the kernels
//!
//! The paper argues that training-time Batch Normalization is
//! memory-bandwidth-bound; demonstrating that on a host CPU requires the
//! baseline kernels to actually *saturate* the hardware, which a
//! single-core implementation never does. This crate is the workspace's
//! threading substrate: a scoped, `std::thread`-based fork-join pool (the
//! build environment has no crates.io access, so — like the `shims/`
//! crates — it is hand-rolled on the standard library alone) plus the
//! chunked-range and two-pass tree-reduction primitives the kernels
//! partition their work with.
//!
//! ## Thread count
//!
//! The worker count is resolved, in order, from:
//!
//! 1. a scoped per-thread override installed with [`with_threads`] (used by
//!    the determinism tests and the serial-vs-parallel benches),
//! 2. the `BNFF_THREADS` environment variable (read once per process),
//! 3. [`std::thread::available_parallelism`].
//!
//! ## Determinism
//!
//! Every primitive partitions work at a granularity fixed by the *problem*
//! (rows, channel planes, indices), never by the thread count; reductions
//! compute one partial per work item and combine them in index order. A
//! kernel built on these primitives therefore produces bit-identical
//! results whether `BNFF_THREADS` is 1 or 64 — the property the
//! `parallel_determinism` test-suite in `bnff-kernels` locks in.
//!
//! ## Example
//!
//! ```rust
//! use bnff_parallel::{parallel_reduce, parallel_rows_mut, with_threads};
//!
//! // Square 4-element rows in parallel, then reduce a sum over indices.
//! let mut data = vec![2.0f64; 16];
//! parallel_rows_mut(&mut data, 4, 1, |_first_row, block| {
//!     for v in block.iter_mut() {
//!         *v *= *v;
//!     }
//! });
//! assert_eq!(data, vec![4.0; 16]);
//!
//! let total = parallel_reduce(16, 1, |i| data[i], |a, b| a + b).unwrap();
//! assert_eq!(total, 64.0);
//!
//! // The same computation pinned to one worker gives the same answer.
//! let serial = with_threads(1, || {
//!     parallel_reduce(16, 1, |i| data[i], |a, b| a + b).unwrap()
//! });
//! assert_eq!(serial, total);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod pool;
mod range;
mod topology;

pub use pool::{
    current_threads, is_nested, min_items_per_thread, parallel_for, parallel_map_collect,
    parallel_reduce, parallel_row_blocks_mut, parallel_rows_mut, parallel_rows_mut2, with_grain,
    with_threads,
};
pub use range::chunk_ranges;
pub use topology::partition_threads;
