//! Running (inference-time) Batch Normalization statistics.
//!
//! Training-mode BN normalizes with *mini-batch* statistics; at inference
//! the batch is arbitrary (often a single sample coalesced into a dynamic
//! batch), so normalization must use statistics accumulated over training —
//! an exponential moving average of the per-channel batch mean/variance
//! (Hajaj & Gillies, arXiv:1802.07590, motivate why inference must not see
//! batch structure). The eval forward — `Executor::forward_eval`, and
//! serving's walk of the frozen graph — normalizes with exactly these.
//!
//! One [`RunningStats`] entry exists per *statistics-producing* node — every
//! node whose op reports [`bnff_graph::op::OpKind::stats_out`]: a `BatchNorm`
//! owns its own, while under BNFF restructuring the producers are the
//! fission/fusion operators (`SubBnStats`, a convolution or concatenation
//! with a statistics epilogue).

use crate::Result;
use bnff_graph::{Graph, NodeId};
use bnff_tensor::stats::ChannelStats;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};

/// The default EMA momentum: `running = (1−m)·running + m·batch`.
pub(crate) const DEFAULT_MOMENTUM: f32 = 0.1;

/// Running mean/variance of one statistics-producing node: per-channel
/// statistics (their `count` is 0) that an eval pass hands the
/// normalization kernels by reference.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningStats(ChannelStats);

impl Deref for RunningStats {
    type Target = ChannelStats;

    fn deref(&self) -> &ChannelStats {
        &self.0
    }
}

impl DerefMut for RunningStats {
    fn deref_mut(&mut self) -> &mut ChannelStats {
        &mut self.0
    }
}

impl RunningStats {
    /// Running statistics from a per-channel mean and (biased) variance.
    pub(crate) fn new(mean: Vec<f32>, var: Vec<f32>) -> Self {
        RunningStats(ChannelStats { mean, var, count: 0 })
    }

    /// Identity statistics (mean 0, variance 1) for `channels` channels —
    /// the state before any batch has been observed.
    fn identity(channels: usize) -> Self {
        Self::new(vec![0.0; channels], vec![1.0; channels])
    }

    /// An owned copy of the statistics.
    pub fn as_channel_stats(&self) -> ChannelStats {
        self.0.clone()
    }

    /// Blends one mini-batch's statistics in with EMA weight `momentum`.
    fn update(&mut self, batch: &ChannelStats, momentum: f32) {
        for ci in 0..self.mean.len().min(batch.channels()) {
            self.mean[ci] = (1.0 - momentum) * self.mean[ci] + momentum * batch.mean[ci];
            self.var[ci] = (1.0 - momentum) * self.var[ci] + momentum * batch.var[ci];
        }
    }
}

/// The number of channels a statistics-producing node covers, if it
/// produces statistics at all.
fn stats_channels(graph: &Graph, id: NodeId) -> Option<usize> {
    let node = graph.node(id).ok()?;
    node.op.stats_out()?;
    // Channels are dim 1 both of an NCHW feature map and of the 2×C summary
    // matrix a `SubBnStats` emits.
    node.output_shape.dim(1).ok()
}

/// Running statistics for every statistics-producing node of one graph,
/// keyed by node index.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningStatSet {
    entries: HashMap<usize, RunningStats>,
    momentum: f32,
}

impl RunningStatSet {
    /// Identity running statistics for every statistics-producing node of
    /// `graph`, with the `DEFAULT_MOMENTUM`.
    pub fn initialize(graph: &Graph) -> Self {
        let entries = graph
            .nodes()
            .filter_map(|n| {
                stats_channels(graph, n.id).map(|c| (n.id.index(), RunningStats::identity(c)))
            })
            .collect();
        RunningStatSet { entries, momentum: DEFAULT_MOMENTUM }
    }

    /// Rebuilds a set from raw `(node index → stats)` entries and a
    /// momentum — the inverse of [`RunningStatSet::iter`] +
    /// [`RunningStatSet::momentum`], used when restoring from a model
    /// artifact.
    pub fn from_entries(entries: HashMap<usize, RunningStats>, momentum: f32) -> Self {
        RunningStatSet { entries, momentum: momentum.clamp(f32::MIN_POSITIVE, 1.0) }
    }

    /// The EMA momentum.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// The running statistics of one node.
    pub fn get(&self, id: NodeId) -> Option<&RunningStats> {
        self.entries.get(&id.index())
    }

    /// Replaces the statistics of one node (checkpoint restore, tests).
    pub fn insert(&mut self, id: NodeId, stats: RunningStats) {
        self.entries.insert(id.index(), stats);
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no node is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(node index, stats)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&usize, &RunningStats)> {
        self.entries.iter()
    }

    /// Folds one observed mini-batch statistic into the EMA of node `id`.
    ///
    /// # Errors
    /// Returns an error when the node is untracked or the channel counts
    /// disagree.
    pub(crate) fn observe(&mut self, id: NodeId, batch: &ChannelStats) -> Result<()> {
        let momentum = self.momentum;
        let entry = self.entries.get_mut(&id.index()).ok_or_else(|| {
            crate::TrainError::Missing(format!("running statistics entry for {id}"))
        })?;
        if entry.channels() != batch.channels() {
            return Err(crate::TrainError::InvalidArgument(format!(
                "running statistics of {id} cover {} channels, batch has {}",
                entry.channels(),
                batch.channels()
            )));
        }
        entry.update(batch, momentum);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{Checkpoint, FORMAT_VERSION};
    use crate::ParamSet;
    use bnff_artifact::Artifact;
    use bnff_graph::builder::GraphBuilder;
    use bnff_graph::op::Conv2dAttrs;
    use bnff_graph::passes::{BnffPass, Pass};
    use bnff_tensor::Shape;

    fn bn_graph() -> Graph {
        let mut b = GraphBuilder::new("g");
        let x = b.input("data", Shape::nchw(2, 3, 8, 8)).unwrap();
        let c = b.conv2d(x, Conv2dAttrs::same_3x3(8), "conv").unwrap();
        let bn = b.batch_norm_default(c, "bn").unwrap();
        let r = b.relu(bn, "relu").unwrap();
        b.conv2d(r, Conv2dAttrs::pointwise(4), "conv2").unwrap();
        b.finish()
    }

    #[test]
    fn initialize_tracks_every_stats_producer() {
        let g = bn_graph();
        let set = RunningStatSet::initialize(&g);
        assert_eq!(set.len(), 1);
        let bn = g.nodes().find(|n| n.name == "bn").unwrap().id;
        assert_eq!(set.get(bn).unwrap().channels(), 8);
        // The BNFF-restructured twin tracks its fused stats producers.
        let fused = BnffPass::new().run(&g).unwrap();
        let fused_set = RunningStatSet::initialize(&fused);
        assert!(!fused_set.is_empty());
        for (_, stats) in fused_set.iter() {
            assert!(stats.channels() > 0);
        }
    }

    #[test]
    fn observe_moves_the_ema_toward_the_batch() {
        let g = bn_graph();
        let mut set = RunningStatSet::initialize(&g);
        set.momentum = 0.5;
        let bn = g.nodes().find(|n| n.name == "bn").unwrap().id;
        let batch = ChannelStats { mean: vec![2.0; 8], var: vec![3.0; 8], count: 128 };
        set.observe(bn, &batch).unwrap();
        let stats = set.get(bn).unwrap();
        assert!((stats.mean[0] - 1.0).abs() < 1e-6);
        assert!((stats.var[0] - 2.0).abs() < 1e-6);
        // Unknown nodes and channel mismatches are rejected.
        assert!(set.observe(NodeId::new(0), &batch).is_err());
        let bad = ChannelStats::zeros(3);
        assert!(set.observe(bn, &bad).is_err());
    }

    #[test]
    fn artifact_round_trip_keeps_momentum_and_statistics() {
        let g = bn_graph();
        let mut set = RunningStatSet::initialize(&g);
        set.momentum = 0.25;
        let bn = g.nodes().find(|n| n.name == "bn").unwrap().id;
        let batch = ChannelStats {
            mean: (0..8).map(|i| 0.1 + i as f32 * 0.37).collect(),
            var: (0..8).map(|i| 1.0 + i as f32 * 0.13).collect(),
            count: 64,
        };
        set.observe(bn, &batch).unwrap();
        let ckpt = Checkpoint {
            format_version: FORMAT_VERSION,
            graph: g,
            params: ParamSet::new(),
            running: set,
        };
        let artifact = Artifact::from_bytes(&ckpt.to_artifact_bytes().unwrap()).unwrap();
        let back = Checkpoint::from_artifact(&artifact).unwrap();
        assert_eq!(back.running.momentum().to_bits(), 0.25f32.to_bits());
        assert_eq!(back.running, ckpt.running);
    }
}
