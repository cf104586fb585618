//! Mean/Variance Fusion: compute BN statistics in a single sweep.

use crate::graph::Graph;
use crate::op::OpKind;
use crate::passes::Pass;
use crate::Result;

/// Switches every Batch Normalization (or BN-derived) node to single-sweep
/// statistics based on the identity `Var[X] = E[X²] − E[X]²`.
///
/// In the baseline, computing the variance requires the mean, so the ifmaps
/// are swept twice before normalization; MVF merges the two sweeps
/// (Section 3.2). The pass is purely an attribute flip — the structural
/// fusion with the preceding convolution is done by
/// `FuseStatsIntoConvPass`.
#[derive(Debug, Default, Clone, Copy)]
pub struct MvfPass;

impl MvfPass {
    /// Creates the pass.
    pub fn new() -> Self {
        MvfPass
    }
}

impl Pass for MvfPass {
    fn name(&self) -> &'static str {
        "mean-variance-fusion"
    }

    fn run(&self, graph: &Graph) -> Result<Graph> {
        let mut out = graph.clone();
        let updates: Vec<_> = graph
            .nodes()
            .filter_map(|n| {
                let new_op = match &n.op {
                    OpKind::BatchNorm(a) => {
                        let mut a = *a;
                        a.one_pass_stats = true;
                        Some(OpKind::BatchNorm(a))
                    }
                    OpKind::SubBnStats(a) => {
                        let mut a = *a;
                        a.one_pass_stats = true;
                        Some(OpKind::SubBnStats(a))
                    }
                    OpKind::ConvStats { conv, bn } => {
                        let mut bn = *bn;
                        bn.one_pass_stats = true;
                        Some(OpKind::ConvStats { conv: *conv, bn })
                    }
                    OpKind::NormReluConvStats { conv, bn_in, bn_out } => {
                        let mut bn_out = *bn_out;
                        bn_out.one_pass_stats = true;
                        Some(OpKind::NormReluConvStats { conv: *conv, bn_in: *bn_in, bn_out })
                    }
                    OpKind::ConcatStats(a) => {
                        let mut a = *a;
                        a.one_pass_stats = true;
                        Some(OpKind::ConcatStats(a))
                    }
                    _ => None,
                };
                new_op.map(|op| (n.id, op))
            })
            .collect();
        for (id, op) in updates {
            out.set_op(id, op)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::builder::GraphBuilder;
    use crate::op::{BatchNormAttrs, Conv2dAttrs};
    use bnff_tensor::Shape;

    fn bn_graph() -> Graph {
        let mut b = GraphBuilder::new("g");
        let x = b.input("in", Shape::nchw(4, 16, 8, 8)).unwrap();
        let c = b.conv2d(x, Conv2dAttrs::pointwise(32), "conv").unwrap();
        b.batch_norm(c, BatchNormAttrs::default(), "bn").unwrap();
        b.finish()
    }

    #[test]
    fn flips_every_bn_to_one_pass() {
        let g = bn_graph();
        let out = MvfPass::new().run(&g).unwrap();
        for node in out.nodes() {
            if let OpKind::BatchNorm(a) = &node.op {
                assert!(a.one_pass_stats);
            }
        }
    }

    #[test]
    fn reduces_forward_sweeps() {
        let g = bn_graph();
        let before = analysis::activation_sweep_count(&g).unwrap();
        let out = MvfPass::new().run(&g).unwrap();
        let after = analysis::activation_sweep_count(&out).unwrap();
        assert_eq!(after, before - 1, "MVF removes exactly one read sweep per BN");
    }

    #[test]
    fn applies_to_fissioned_stats_nodes() {
        let g = bn_graph();
        let fissioned = crate::passes::FissionPass::new().run(&g).unwrap();
        let out = MvfPass::new().run(&fissioned).unwrap();
        let stats = out.nodes().find(|n| matches!(n.op, OpKind::SubBnStats(_))).unwrap();
        match stats.op {
            OpKind::SubBnStats(a) => assert!(a.one_pass_stats),
            _ => unreachable!(),
        }
    }

    #[test]
    fn idempotent() {
        let g = bn_graph();
        let once = MvfPass::new().run(&g).unwrap();
        let twice = MvfPass::new().run(&once).unwrap();
        assert_eq!(once, twice);
    }
}
