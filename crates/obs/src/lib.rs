//! # bnff-obs — hand-rolled low-overhead observability
//!
//! The paper this workspace reproduces makes a *measured* argument — BN
//! restructuring wins because it moves fewer DRAM bytes — and a serving
//! system built on that argument has to keep measuring itself in
//! production. This crate is the workspace's observability layer, built
//! without crates.io dependencies and with one hard constraint: **the
//! disabled/idle cost of every instrument is a relaxed atomic or nothing**,
//! so the serving hot path keeps its latency budget (CI gates the
//! end-to-end overhead at ≤ 3%).
//!
//! Four pieces:
//!
//! - [`hist`] — a lock-free log-linear [`Histogram`] (16 sub-buckets per
//!   power of two, ≤ 6.25% relative quantile error) with lossless
//!   snapshot merging.
//! - `registry` — a [`Registry`] of named counters, gauges and
//!   histograms; registration locks once, recording is atomics-only, and
//!   [`Registry::render_prometheus`] emits the scrape format.
//! - `trace` — process-unique request IDs ([`next_request_id`]) and the
//!   `BNFF_TRACE` every-N-th [`TraceSampler`] deciding which responses
//!   echo their span timings.
//! - `profile` — the per-slot [`OpProfiler`] the serving executor's
//!   forward walk fills for opt-in per-node timing, one slot per plan
//!   position (one relaxed load per pass when off).
//!
//! Plus [`log`], a pure logfmt formatter for the serve binary's
//! structured startup/access/shutdown lines.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hist;
pub mod log;
mod profile;
mod registry;
mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use profile::{OpProfiler, SpanStats};
pub use registry::{Counter, Gauge, HistogramOpts, Registry};
pub use trace::{next_request_id, TraceSampler};
