//! Building and serializing artifacts.

use crate::crc::crc32;
use crate::error::ModelError;
use crate::manifest::{
    Dtype, Manifest, ParamEntry, ParamKind, Provenance, StatsEntry, TensorEntry,
};
use crate::{FORMAT_VERSION, HEADER_LEN, MAGIC, TENSOR_ALIGN};
use bnff_graph::Graph;
use std::path::Path;

/// Builds a single-file model artifact: collect the graph, the raw tensors
/// and their wiring, then serialize everything with [`ArtifactWriter::to_bytes`]
/// or [`ArtifactWriter::write`].
///
/// Tensor offsets are assigned on insertion, each aligned to
/// [`TENSOR_ALIGN`] bytes, so the writer is deterministic: the same model
/// always produces byte-identical artifacts.
#[derive(Debug, Clone)]
pub struct ArtifactWriter {
    graph: Graph,
    momentum: f32,
    provenance: Provenance,
    tensors: Vec<TensorEntry>,
    data: Vec<Vec<f32>>,
    params: Vec<ParamEntry>,
    stats: Vec<StatsEntry>,
    cursor: u64,
}

impl ArtifactWriter {
    /// Starts an artifact for one graph.
    pub fn new(graph: Graph, momentum: f32, provenance: Provenance) -> Self {
        ArtifactWriter {
            graph,
            momentum,
            provenance,
            tensors: Vec::new(),
            data: Vec::new(),
            params: Vec::new(),
            stats: Vec::new(),
            cursor: 0,
        }
    }

    /// Adds one tensor to the tensor section and returns its table index.
    ///
    /// # Errors
    /// Returns [`ModelError::Layout`] when `data.len()` disagrees with the
    /// shape's volume.
    pub fn add_tensor(
        &mut self,
        name: impl Into<String>,
        shape: Vec<usize>,
        data: &[f32],
    ) -> Result<usize, ModelError> {
        let name = name.into();
        let volume: usize = shape.iter().product();
        if volume != data.len() {
            return Err(ModelError::Layout(format!(
                "tensor '{name}': shape {shape:?} has volume {volume} but {} values were given",
                data.len()
            )));
        }
        let offset = self.cursor;
        let byte_len = (data.len() * Dtype::F32.size_of()) as u64;
        self.cursor = align_up(offset + byte_len, TENSOR_ALIGN as u64);
        self.tensors.push(TensorEntry { name, dtype: Dtype::F32, shape, offset, byte_len });
        self.data.push(data.to_vec());
        Ok(self.tensors.len() - 1)
    }

    /// Registers the parameter wiring of one graph node.
    pub fn add_param(&mut self, node: usize, kind: ParamKind) {
        self.params.push(ParamEntry { node, kind });
    }

    /// Registers the running-statistics wiring of one graph node.
    pub fn add_stats(&mut self, node: usize, mean: usize, var: usize) {
        self.stats.push(StatsEntry { node, mean, var });
    }

    /// Serializes the artifact: header, CRC-checksummed JSON manifest,
    /// aligned little-endian tensor section.
    ///
    /// # Errors
    /// Returns an error when the manifest fails to serialize.
    pub fn to_bytes(&self) -> Result<Vec<u8>, ModelError> {
        let mut params = self.params.clone();
        params.sort_by_key(|p| p.node);
        let mut stats = self.stats.clone();
        stats.sort_by_key(|s| s.node);
        let manifest = Manifest {
            graph: self.graph.clone(),
            tensors: self.tensors.clone(),
            params,
            stats,
            momentum: self.momentum,
            provenance: self.provenance.clone(),
        };
        let manifest_json =
            serde_json::to_string(&manifest).map_err(|e| ModelError::Manifest(e.to_string()))?;
        let manifest_bytes = manifest_json.as_bytes();

        // Tensor section: every tensor at its pre-assigned aligned offset,
        // gaps zero-filled.
        let tensor_len = self.cursor as usize;
        let mut section = vec![0u8; tensor_len];
        for (entry, data) in self.tensors.iter().zip(&self.data) {
            let start = entry.offset as usize;
            for (i, v) in data.iter().enumerate() {
                section[start + 4 * i..start + 4 * i + 4].copy_from_slice(&v.to_le_bytes());
            }
        }

        let tensor_base = align_up(HEADER_LEN as u64 + manifest_bytes.len() as u64, 64) as usize;
        let mut out = Vec::with_capacity(tensor_base + tensor_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(manifest_bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&(tensor_len as u64).to_le_bytes());
        out.extend_from_slice(&crc32(manifest_bytes).to_le_bytes());
        out.extend_from_slice(&crc32(&section).to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);
        out.extend_from_slice(manifest_bytes);
        out.resize(tensor_base, 0);
        out.extend_from_slice(&section);
        Ok(out)
    }

    /// Writes the artifact to a file.
    ///
    /// # Errors
    /// Returns an error when serialization or the write fails.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<(), ModelError> {
        let path = path.as_ref();
        let bytes = self.to_bytes()?;
        std::fs::write(path, bytes)
            .map_err(|e| ModelError::Io(format!("writing {}: {e}", path.display())))
    }
}

/// Rounds `value` up to the next multiple of `align` (a power of two).
fn align_up(value: u64, align: u64) -> u64 {
    (value + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_aligned_and_deterministic() {
        let graph = Graph::new("w".to_string());
        let prov =
            Provenance { created_by: "test".into(), source: "w".into(), source_format_version: 1 };
        let mut w = ArtifactWriter::new(graph, 0.1, prov);
        let a = w.add_tensor("a", vec![3], &[1.0, 2.0, 3.0]).unwrap();
        let b = w.add_tensor("b", vec![2, 2], &[4.0; 4]).unwrap();
        assert_eq!((a, b), (0, 1));
        let bytes1 = w.to_bytes().unwrap();
        let bytes2 = w.to_bytes().unwrap();
        assert_eq!(bytes1, bytes2, "writer must be deterministic");
        // Second tensor starts at the next 64-byte boundary after 12 bytes.
        assert_eq!(w.tensors[1].offset, 64);
        // Shape/volume mismatches are rejected.
        assert!(w.add_tensor("bad", vec![2], &[0.0; 3]).is_err());
    }
}
