//! Model checkpoints: a snapshot of everything serving needs.
//!
//! A [`Checkpoint`] captures the three things that define a trained model —
//! the graph topology, the learnable parameters, and the running Batch
//! Normalization statistics — so training and serving can run as separate
//! processes: the trainer writes a `.bnff` artifact
//! ([`Checkpoint::write_artifact`], byte layout in `bnff-artifact`),
//! `bnff-serve` loads it, freezes the graph and runs its eval forward over
//! the running statistics, with no training state in the serving process.
//!
//! The artifact is the only on-disk form and round-trips **bit-identically**:
//! every `f32` is stored as its raw little-endian word, node ids stay dense,
//! and `write_artifact → read_artifact` reproduces parameters, statistics and
//! topology exactly (locked in by the round-trip proptest in
//! `tests/artifact_roundtrip.rs`).

use crate::executor::Executor;
use crate::params::{NodeParams, ParamSet};
use crate::running::{RunningStatSet, RunningStats};
use crate::Result;
use bnff_artifact::{Artifact, ArtifactWriter, ModelError, ParamKind, Provenance};
use bnff_graph::{Graph, NodeId};
use bnff_kernels::batchnorm::BnParams;
use bnff_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::path::Path;

/// The current checkpoint format version.
pub const FORMAT_VERSION: u32 = 1;

/// A snapshot of a trained model.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Format version, for forward-compatibility checks on load.
    pub format_version: u32,
    /// The (training) graph topology.
    pub graph: Graph,
    /// All learnable parameters, keyed by node index.
    pub params: ParamSet,
    /// Running BN statistics, keyed by statistics-producer node index.
    pub running: RunningStatSet,
}

impl Checkpoint {
    /// Snapshots an executor's graph, parameters and running statistics.
    pub fn capture(executor: &Executor) -> Self {
        Checkpoint {
            format_version: FORMAT_VERSION,
            graph: executor.graph().clone(),
            params: executor.params().clone(),
            running: executor.running_stats().clone(),
        }
    }

    /// Encodes the checkpoint as a single-file binary model artifact
    /// (see `bnff-artifact` for the byte layout). The conversion is
    /// lossless: [`Checkpoint::from_artifact`] reproduces the checkpoint
    /// bit-identically.
    ///
    /// # Errors
    /// Returns an error when a tensor's shape and data disagree or the
    /// manifest cannot be serialized.
    pub fn to_artifact_bytes(&self) -> Result<Vec<u8>> {
        let provenance = Provenance {
            created_by: format!("bnff-train {}", env!("CARGO_PKG_VERSION")),
            source: self.graph.name().to_string(),
            source_format_version: self.format_version,
        };
        let mut writer =
            ArtifactWriter::new(self.graph.clone(), self.running.momentum(), provenance);
        // HashMap iteration order is arbitrary; sort by node index so the
        // same checkpoint always produces the same artifact bytes.
        let mut param_nodes: Vec<usize> = self.params.iter().map(|(i, _)| *i).collect();
        param_nodes.sort_unstable();
        for idx in param_nodes {
            let params = self.params.get(NodeId::new(idx)).expect("index from iter");
            let kind = match params {
                NodeParams::Conv { weights, bias } => ParamKind::Conv {
                    weights: add_tensor(&mut writer, idx, "weights", weights)?,
                    bias: match bias {
                        Some(b) => Some(add_vec(&mut writer, idx, "bias", b)?),
                        None => None,
                    },
                },
                NodeParams::Bn(bn) => ParamKind::Bn {
                    gamma: add_vec(&mut writer, idx, "gamma", &bn.gamma)?,
                    beta: add_vec(&mut writer, idx, "beta", &bn.beta)?,
                },
                NodeParams::ConvBn { weights, bias, bn } => ParamKind::ConvBn {
                    weights: add_tensor(&mut writer, idx, "weights", weights)?,
                    bias: match bias {
                        Some(b) => Some(add_vec(&mut writer, idx, "bias", b)?),
                        None => None,
                    },
                    gamma: add_vec(&mut writer, idx, "gamma", &bn.gamma)?,
                    beta: add_vec(&mut writer, idx, "beta", &bn.beta)?,
                },
                NodeParams::Fc { weights, bias } => ParamKind::Fc {
                    weights: add_tensor(&mut writer, idx, "weights", weights)?,
                    bias: add_vec(&mut writer, idx, "bias", bias)?,
                },
            };
            writer.add_param(idx, kind);
        }
        let mut stat_nodes: Vec<usize> = self.running.iter().map(|(i, _)| *i).collect();
        stat_nodes.sort_unstable();
        for idx in stat_nodes {
            let stats = self.running.get(NodeId::new(idx)).expect("index from iter");
            let mean = add_vec(&mut writer, idx, "running_mean", &stats.mean)?;
            let var = add_vec(&mut writer, idx, "running_var", &stats.var)?;
            writer.add_stats(idx, mean, var);
        }
        Ok(writer.to_bytes()?)
    }

    /// Rebuilds a checkpoint from a loaded model artifact — the inverse of
    /// [`Checkpoint::to_artifact_bytes`].
    ///
    /// # Errors
    /// Returns an error when the artifact references tensors that fail
    /// validation or was exported from an unsupported checkpoint version.
    pub fn from_artifact(artifact: &Artifact) -> Result<Self> {
        let manifest = artifact.manifest();
        let source_version = manifest.provenance.source_format_version;
        if source_version != FORMAT_VERSION {
            return Err(ModelError::UnsupportedVersion {
                found: source_version,
                supported: FORMAT_VERSION,
            }
            .into());
        }
        let mut params = ParamSet::new();
        for entry in &manifest.params {
            let node = NodeId::new(entry.node);
            let p = match &entry.kind {
                ParamKind::Conv { weights, bias } => NodeParams::Conv {
                    weights: read_tensor(artifact, *weights)?,
                    bias: match bias {
                        Some(b) => Some(read_vec(artifact, *b)?),
                        None => None,
                    },
                },
                ParamKind::Bn { gamma, beta } => NodeParams::Bn(BnParams::new(
                    read_vec(artifact, *gamma)?,
                    read_vec(artifact, *beta)?,
                )?),
                ParamKind::ConvBn { weights, bias, gamma, beta } => NodeParams::ConvBn {
                    weights: read_tensor(artifact, *weights)?,
                    bias: match bias {
                        Some(b) => Some(read_vec(artifact, *b)?),
                        None => None,
                    },
                    bn: BnParams::new(read_vec(artifact, *gamma)?, read_vec(artifact, *beta)?)?,
                },
                ParamKind::Fc { weights, bias } => NodeParams::Fc {
                    weights: read_tensor(artifact, *weights)?,
                    bias: read_vec(artifact, *bias)?,
                },
            };
            params.insert(node, p);
        }
        let mut entries = HashMap::new();
        for stats in &manifest.stats {
            entries.insert(
                stats.node,
                RunningStats {
                    mean: read_vec(artifact, stats.mean)?,
                    var: read_vec(artifact, stats.var)?,
                },
            );
        }
        Ok(Checkpoint {
            format_version: source_version,
            graph: manifest.graph.clone(),
            params,
            running: RunningStatSet::from_entries(entries, manifest.momentum),
        })
    }

    /// Writes the checkpoint to `path` as a binary model artifact.
    ///
    /// # Errors
    /// Returns an error when conversion or the write fails.
    pub fn write_artifact(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_artifact_bytes()?)
            .map_err(|e| ModelError::Io(format!("writing {}: {e}", path.display())).into())
    }

    /// Reads a checkpoint back from a binary model artifact file.
    ///
    /// # Errors
    /// Returns an error when the file fails any artifact validation
    /// (magic, version, checksums, layout) or describes unusable tensors.
    pub fn read_artifact(path: impl AsRef<Path>) -> Result<Self> {
        let artifact = Artifact::open(path)?;
        Self::from_artifact(&artifact)
    }
}

/// Stores one tensor under the artifact's `node<idx>/<role>` naming scheme.
fn add_tensor(
    writer: &mut ArtifactWriter,
    node: usize,
    role: &str,
    tensor: &Tensor,
) -> Result<usize> {
    Ok(writer.add_tensor(
        format!("node{node}/{role}"),
        tensor.shape().dims().to_vec(),
        tensor.as_slice(),
    )?)
}

/// Stores one per-channel vector as a rank-1 tensor.
fn add_vec(writer: &mut ArtifactWriter, node: usize, role: &str, data: &[f32]) -> Result<usize> {
    Ok(writer.add_tensor(format!("node{node}/{role}"), vec![data.len()], data)?)
}

/// Materializes a stored tensor as an owned [`Tensor`].
fn read_tensor(artifact: &Artifact, id: usize) -> Result<Tensor> {
    let view = artifact.tensor(id)?;
    Ok(Tensor::from_vec(Shape::new(view.shape().to_vec()), view.data.to_vec())?)
}

/// Materializes a stored rank-1 tensor as a plain vector.
fn read_vec(artifact: &Artifact, id: usize) -> Result<Vec<f32>> {
    Ok(artifact.tensor(id)?.data.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TrainError;
    use bnff_graph::builder::GraphBuilder;
    use bnff_graph::op::Conv2dAttrs;
    use bnff_tensor::init::Initializer;
    use bnff_tensor::Shape;

    fn trained_executor() -> Executor {
        let mut b = GraphBuilder::new("ckpt");
        let x = b.input("data", Shape::nchw(2, 3, 8, 8)).unwrap();
        let labels = b.input("labels", Shape::vector(2)).unwrap();
        let c = b.conv_bn_relu(x, Conv2dAttrs::same_3x3(4), "block").unwrap();
        let gap = b.global_avg_pool(c, "gap").unwrap();
        let fc = b.fully_connected(gap, 2, "fc").unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        let mut exec = Executor::new(b.finish(), 7).unwrap();
        // Move the running statistics off their identity initialization.
        let mut init = Initializer::seeded(8);
        let data = init.uniform(Shape::nchw(2, 3, 8, 8), -1.0, 1.0);
        let fwd = exec.forward(&data, &[0, 1]).unwrap();
        exec.update_running_stats(&fwd).unwrap();
        exec
    }

    #[test]
    fn artifact_round_trip_is_bit_identical() {
        let exec = trained_executor();
        let ckpt = Checkpoint::capture(&exec);
        let bytes = ckpt.to_artifact_bytes().unwrap();
        let artifact = Artifact::from_bytes(&bytes).unwrap();
        let back = Checkpoint::from_artifact(&artifact).unwrap();
        assert_eq!(back, ckpt);
        // Conversion is deterministic: same checkpoint, same bytes.
        assert_eq!(ckpt.to_artifact_bytes().unwrap(), bytes);
        back.graph.validate().unwrap();
        let restored = Executor::with_state(back.graph, back.params, back.running).unwrap();
        assert_eq!(restored.params(), exec.params());
        assert_eq!(restored.running_stats(), exec.running_stats());
        assert_eq!(restored.graph(), exec.graph());
    }

    #[test]
    fn artifact_file_round_trip_and_foreign_source_version() {
        let exec = trained_executor();
        let ckpt = Checkpoint::capture(&exec);
        let dir = std::env::temp_dir().join(format!("bnff-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bnff");
        ckpt.write_artifact(&path).unwrap();
        let loaded = Checkpoint::read_artifact(&path).unwrap();
        assert_eq!(loaded, ckpt);
        std::fs::remove_dir_all(&dir).ok();

        // An artifact exported from a future checkpoint version is rejected
        // with a typed error.
        let mut future = ckpt;
        future.format_version = 7;
        let bytes = future.to_artifact_bytes().unwrap();
        let artifact = Artifact::from_bytes(&bytes).unwrap();
        let err = Checkpoint::from_artifact(&artifact).unwrap_err();
        assert_eq!(
            err,
            TrainError::Model(ModelError::UnsupportedVersion { found: 7, supported: 1 })
        );
    }
}
