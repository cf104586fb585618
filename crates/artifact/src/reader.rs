//! Validating, zero-copy artifact reading.
//!
//! [`Artifact::open`] reads the file **once** into a 64-bit-aligned
//! allocation, validates the header, both CRCs and the manifest's byte
//! layout, and then hands out [`TensorView`]s — `&[f32]` slices borrowed
//! straight from the file bytes. No per-tensor allocation, no number
//! parsing: the only work proportional to model size is the single read
//! and the CRC sweep. The layout (64-byte-aligned offsets, raw
//! little-endian IEEE-754) is mmap-compatible; the reader uses an aligned
//! read because the workspace forgoes platform mmap bindings.

use crate::crc::crc32;
use crate::error::ModelError;
use crate::manifest::{Manifest, TensorEntry};
use crate::{FORMAT_VERSION, HEADER_LEN, MAGIC, TENSOR_ALIGN};
use serde::Deserialize;
use std::io::Read;
use std::path::Path;

/// A byte buffer whose base address is 8-byte aligned (backed by `u64`
/// storage), so any 64-byte-aligned offset inside it is valid for `f32`
/// reinterpretation.
#[derive(Debug)]
struct AlignedBytes {
    storage: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    fn with_len(len: usize) -> Self {
        AlignedBytes { storage: vec![0u64; len.div_ceil(8)], len }
    }

    fn from_slice(bytes: &[u8]) -> Self {
        let mut buf = Self::with_len(bytes.len());
        buf.as_mut_slice().copy_from_slice(bytes);
        buf
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: the storage allocation holds at least `len` bytes
        // (`div_ceil` rounding), `u64` has no padding and any byte pattern
        // is a valid `u8`.
        unsafe { std::slice::from_raw_parts(self.storage.as_ptr().cast::<u8>(), self.len) }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as above, and the buffer is uniquely borrowed.
        unsafe { std::slice::from_raw_parts_mut(self.storage.as_mut_ptr().cast::<u8>(), self.len) }
    }
}

/// A zero-copy view of one stored tensor.
#[derive(Debug, Clone, Copy)]
pub struct TensorView<'a> {
    /// The tensor-table entry (name, dtype, shape, placement).
    pub entry: &'a TensorEntry,
    /// The tensor's values, borrowed from the artifact's file bytes.
    pub data: &'a [f32],
}

impl TensorView<'_> {
    /// The tensor's logical shape.
    pub fn shape(&self) -> &[usize] {
        &self.entry.shape
    }
}

/// A loaded, validated model artifact.
///
/// Construction validates everything up front — magic, version, both CRCs,
/// manifest JSON, and the byte layout of every tensor-table entry — so
/// [`Artifact::tensor`] cannot fail for in-range indices and a view can
/// never read outside the file.
#[derive(Debug)]
pub struct Artifact {
    bytes: AlignedBytes,
    manifest: Manifest,
    tensor_base: usize,
}

impl Artifact {
    /// Reads and validates an artifact file.
    ///
    /// # Errors
    /// Returns a typed [`ModelError`] for every failure mode: short or
    /// unreadable file, wrong magic, future version, checksum mismatch,
    /// malformed manifest, impossible layout.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ModelError> {
        let path = path.as_ref();
        let mut file = std::fs::File::open(path)
            .map_err(|e| ModelError::Io(format!("opening {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| ModelError::Io(format!("stat {}: {e}", path.display())))?
            .len();
        let len = usize::try_from(len)
            .map_err(|_| ModelError::Io(format!("{} too large for this host", path.display())))?;
        let mut bytes = AlignedBytes::with_len(len);
        file.read_exact(bytes.as_mut_slice())
            .map_err(|e| ModelError::Io(format!("reading {}: {e}", path.display())))?;
        Self::from_aligned(bytes)
    }

    /// Validates an artifact already held in memory (the bytes are copied
    /// once into aligned storage).
    ///
    /// # Errors
    /// As [`Artifact::open`], minus the I/O failure modes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelError> {
        Self::from_aligned(AlignedBytes::from_slice(bytes))
    }

    fn from_aligned(bytes: AlignedBytes) -> Result<Self, ModelError> {
        if cfg!(target_endian = "big") {
            return Err(ModelError::Layout(
                "artifact tensors are little-endian; zero-copy views are unavailable on \
                 big-endian hosts"
                    .to_string(),
            ));
        }
        let buf = bytes.as_slice();
        let available = buf.len() as u64;
        if buf.len() < HEADER_LEN {
            return Err(ModelError::Truncated { needed: HEADER_LEN as u64, available });
        }
        if buf[0..4] != MAGIC {
            return Err(ModelError::BadMagic { found: [buf[0], buf[1], buf[2], buf[3]] });
        }
        let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(ModelError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let manifest_len = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
        let tensor_len = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
        let manifest_crc = u32::from_le_bytes(buf[24..28].try_into().expect("4 bytes"));
        let tensor_crc = u32::from_le_bytes(buf[28..32].try_into().expect("4 bytes"));

        // The header is not checksummed, so both lengths are untrusted:
        // every sum is checked, and `needed == available` below bounds all
        // three offsets by the buffer before any of them indexes it.
        let overflow = || ModelError::Layout("section lengths overflow u64".to_string());
        let tensor_base = (HEADER_LEN as u64)
            .checked_add(manifest_len)
            .and_then(|end| end.checked_next_multiple_of(TENSOR_ALIGN as u64))
            .ok_or_else(overflow)?;
        let needed = tensor_base.checked_add(tensor_len).ok_or_else(overflow)?;
        if needed > available {
            return Err(ModelError::Truncated { needed, available });
        }
        if needed < available {
            return Err(ModelError::Layout(format!(
                "{} trailing bytes after the tensor section",
                available - needed
            )));
        }

        let manifest_bytes = &buf[HEADER_LEN..HEADER_LEN + manifest_len as usize];
        let computed = crc32(manifest_bytes);
        if computed != manifest_crc {
            return Err(ModelError::ChecksumMismatch {
                section: "manifest",
                expected: manifest_crc,
                computed,
            });
        }
        if buf[HEADER_LEN + manifest_len as usize..tensor_base as usize].iter().any(|&b| b != 0) {
            return Err(ModelError::Layout("non-zero bytes in the alignment gap".to_string()));
        }
        let section = &buf[tensor_base as usize..];
        let computed = crc32(section);
        if computed != tensor_crc {
            return Err(ModelError::ChecksumMismatch {
                section: "tensors",
                expected: tensor_crc,
                computed,
            });
        }

        let manifest_json = std::str::from_utf8(manifest_bytes)
            .map_err(|e| ModelError::Manifest(format!("manifest is not UTF-8: {e}")))?;
        let value = serde_json::parse(manifest_json)
            .map_err(|e| ModelError::Manifest(format!("manifest JSON: {e}")))?;
        let manifest = Manifest::from_value(&value)
            .map_err(|e| ModelError::Manifest(format!("manifest schema: {e}")))?;

        validate_layout(&manifest, tensor_len)?;
        Ok(Artifact { bytes, manifest, tensor_base: tensor_base as usize })
    }

    /// The validated manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Total size of the artifact in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len
    }

    /// Whether the artifact holds no bytes (never true for a valid file).
    pub fn is_empty(&self) -> bool {
        self.bytes.len == 0
    }

    /// A zero-copy view of tensor-table entry `id`.
    ///
    /// # Errors
    /// Returns [`ModelError::Layout`] for an out-of-range index (layout
    /// validity of in-range entries was proven at construction).
    pub fn tensor(&self, id: usize) -> Result<TensorView<'_>, ModelError> {
        let entry = self
            .manifest
            .tensors
            .get(id)
            .ok_or_else(|| ModelError::Layout(format!("tensor index {id} out of range")))?;
        let start = self.tensor_base + entry.offset as usize;
        let values = entry.byte_len as usize / 4;
        let buf = self.bytes.as_slice();
        debug_assert!(start + entry.byte_len as usize <= buf.len());
        debug_assert_eq!(start % 4, 0);
        // SAFETY: construction validated `offset % 64 == 0` (and the base
        // is 8-aligned, so `start % 4 == 0`), `offset + byte_len` lies
        // inside the tensor section, and any bit pattern is a valid `f32`.
        // The target is little-endian (checked at construction), so the
        // stored little-endian words reinterpret directly.
        let data =
            unsafe { std::slice::from_raw_parts(buf.as_ptr().add(start).cast::<f32>(), values) };
        Ok(TensorView { entry, data })
    }
}

/// Proves every tensor-table entry and every reference into it is
/// consistent with the tensor section's extent.
fn validate_layout(manifest: &Manifest, tensor_len: u64) -> Result<(), ModelError> {
    for (i, entry) in manifest.tensors.iter().enumerate() {
        if entry.offset % TENSOR_ALIGN as u64 != 0 {
            return Err(ModelError::Layout(format!(
                "tensor {i} '{}' offset {} is not {TENSOR_ALIGN}-byte aligned",
                entry.name, entry.offset
            )));
        }
        // Checked: a wrapped product could equal a small `byte_len`.
        let expect = entry
            .shape
            .iter()
            .try_fold(entry.dtype.size_of() as u64, |bytes, &dim| bytes.checked_mul(dim as u64));
        if expect != Some(entry.byte_len) {
            return Err(ModelError::Layout(format!(
                "tensor {i} '{}': shape {:?} does not span the {} bytes the entry declares",
                entry.name, entry.shape, entry.byte_len
            )));
        }
        let end = entry
            .offset
            .checked_add(entry.byte_len)
            .ok_or_else(|| ModelError::Layout(format!("tensor {i} offset overflows u64")))?;
        if end > tensor_len {
            return Err(ModelError::Truncated { needed: end, available: tensor_len });
        }
    }
    let n = manifest.tensors.len();
    for param in &manifest.params {
        for r in param.kind.tensor_refs() {
            if r >= n {
                return Err(ModelError::Layout(format!(
                    "param entry for node {} references tensor {r}, table has {n}",
                    param.node
                )));
            }
        }
    }
    for stats in &manifest.stats {
        if stats.mean >= n || stats.var >= n {
            return Err(ModelError::Layout(format!(
                "stats entry for node {} references tensors {}/{}, table has {n}",
                stats.node, stats.mean, stats.var
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{ParamKind, Provenance};
    use crate::writer::ArtifactWriter;
    use bnff_graph::Graph;

    fn sample() -> Vec<u8> {
        let graph = Graph::new("reader".to_string());
        let prov = Provenance {
            created_by: "test".into(),
            source: "reader".into(),
            source_format_version: 1,
        };
        let mut w = ArtifactWriter::new(graph, 0.1, prov);
        let a =
            w.add_tensor("node0/weights", vec![2, 3], &[1.0, -2.0, 3.5, 0.0, -0.0, 42.0]).unwrap();
        let b = w.add_tensor("node0/bias", vec![2], &[0.5, f32::MIN_POSITIVE]).unwrap();
        w.add_param(0, ParamKind::Conv { weights: a, bias: Some(b) });
        w.to_bytes().unwrap()
    }

    #[test]
    fn round_trips_bit_identically_through_zero_copy_views() {
        let bytes = sample();
        let artifact = Artifact::from_bytes(&bytes).unwrap();
        assert_eq!(artifact.len(), bytes.len());
        assert!(!artifact.is_empty());
        let view = artifact.tensor(0).unwrap();
        assert_eq!(view.shape(), &[2, 3]);
        let expect = [1.0f32, -2.0, 3.5, 0.0, -0.0, 42.0];
        for (got, want) in view.data.iter().zip(expect) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        let bias = artifact.tensor(1).unwrap();
        assert_eq!(bias.data[1].to_bits(), f32::MIN_POSITIVE.to_bits());
        assert!(artifact.tensor(2).is_err());
        assert_eq!(artifact.manifest().params.len(), 1);
    }

    #[test]
    fn file_round_trip() {
        let bytes = sample();
        let dir = std::env::temp_dir().join(format!("bnff-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bnff");
        std::fs::write(&path, &bytes).unwrap();
        let artifact = Artifact::open(&path).unwrap();
        assert_eq!(artifact.manifest().tensors.len(), 2);
        assert!(Artifact::open(dir.join("missing.bnff")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
