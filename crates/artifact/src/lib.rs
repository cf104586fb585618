//! # bnff-artifact — single-file model artifacts
//!
//! This crate defines the one model file format — the only way a model
//! leaves training (`bnff_train::Checkpoint::write_artifact`) or enters
//! serving: one file, one read, raw bytes, every byte behind a checksum or
//! a validation rule.
//!
//! ## Byte layout
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     4  magic  b"BNFF"
//!      4     4  container format version (u32 LE, currently 1)
//!      8     8  manifest byte length (u64 LE)
//!     16     8  tensor-section byte length (u64 LE)
//!     24     4  CRC-32 of the manifest bytes (u32 LE)
//!     28     4  CRC-32 of the tensor section (u32 LE)
//!     32     …  manifest: UTF-8 JSON (graph, tensor table, wiring)
//!      …     …  zero padding to the next 64-byte file offset
//!      …     …  tensor section: raw little-endian f32 data; every
//!               tensor's offset is 64-byte aligned
//! ```
//!
//! The manifest carries topology and *placement* — names, dtypes, shapes,
//! offsets — while all bulk parameter data lives in the aligned binary
//! section. [`Artifact`] validates the header, both checksums and the
//! declared layout once at load, then serves [`TensorView`]s that borrow
//! `&[f32]` straight out of the file bytes: loading a model is one aligned
//! read plus a CRC sweep, independent of parameter count. The layout is
//! mmap-compatible (alignment and offsets hold under page mapping); the
//! reader uses an aligned read because the workspace has no platform mmap
//! bindings.
//!
//! Conversion to and from the training checkpoint lives in `bnff-train`
//! (`Checkpoint::write_artifact` / `Checkpoint::read_artifact`), keeping
//! this crate free of training-stack dependencies so the C ABI and the
//! serving binary can link it directly.
//!
//! ## Example
//!
//! ```rust
//! use bnff_artifact::{Artifact, ArtifactWriter, ParamKind, Provenance};
//! use bnff_graph::Graph;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prov = Provenance {
//!     created_by: "example".into(),
//!     source: "tiny".into(),
//!     source_format_version: 1,
//! };
//! let mut writer = ArtifactWriter::new(Graph::new("tiny"), 0.1, prov);
//! let w = writer.add_tensor("node0/weights", vec![2, 2], &[1.0, 2.0, 3.0, 4.0])?;
//! writer.add_param(0, ParamKind::Conv { weights: w, bias: None });
//! let bytes = writer.to_bytes()?;
//!
//! let artifact = Artifact::from_bytes(&bytes)?;
//! assert_eq!(artifact.tensor(w)?.data, &[1.0, 2.0, 3.0, 4.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod crc;
pub mod error;
pub mod manifest;
pub mod reader;
pub mod writer;

pub use error::ModelError;
pub use manifest::{Dtype, Manifest, ParamEntry, ParamKind, Provenance, StatsEntry, TensorEntry};
pub use reader::{Artifact, TensorView};
pub use writer::ArtifactWriter;

/// The artifact magic: the first four bytes of every bnff model file.
pub const MAGIC: [u8; 4] = *b"BNFF";

/// The container format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Size of the fixed binary header, in bytes.
pub const HEADER_LEN: usize = 32;

/// Alignment of every tensor's byte offset inside the tensor section.
/// 64 bytes = one cache line, and a multiple of every SIMD vector width the
/// kernels use, so zero-copy views are always aligned loads.
pub const TENSOR_ALIGN: usize = 64;
