//! Graph restructuring passes.
//!
//! The paper evaluates four cumulative scenarios (Figure 7), each of which
//! corresponds to a pass (or pass pipeline) here:
//!
//! * **RCF** ([`RcfPass`]) — ReLU–CONV fusion: apply the ReLU while reading
//!   the ifmaps of the following convolution.
//! * **MVF** ([`MvfPass`]) — mean/variance fusion: compute the per-channel
//!   variance as `E[X²] − E[X]²` so BN statistics need a single sweep.
//! * **BNFF** ([`BnffPass`]) — BN Fission-n-Fusion: split every BN into
//!   `sub-BN1` / `sub-BN2` (`FissionPass`), fuse `sub-BN1` into the
//!   preceding convolution and `sub-BN2` (+ ReLU) into the following
//!   convolution (`FuseStatsIntoConvPass`, `FuseNormReluConvPass`);
//!   includes MVF and RCF.
//! * **ICF** ([`IcfPass`]) — inter-composite-layer fusion: additionally fuse
//!   `sub-BN1` layers that sit at composite-layer boundaries into the
//!   producing Concat.
//!
//! Beyond the paper's training-time passes, [`freeze()`] strips a trained
//! graph (at any of the levels above) for *inference*: the loss head and
//! the label input go, every other operator stays as trained, and serving
//! normalizes with the running statistics, as the eval-mode forward does.

mod bnff;
mod fission;
pub mod freeze;
mod fusion;
mod icf;
mod mvf;
mod rcf;

pub use bnff::BnffPass;
use fission::FissionPass;
pub use freeze::{freeze, FrozenGraph};
use fusion::{FuseNormReluConvPass, FuseStatsIntoConvPass};
pub use icf::IcfPass;
pub use mvf::MvfPass;
pub use rcf::RcfPass;

use crate::graph::Graph;
use crate::Result;

/// A graph-to-graph restructuring pass.
///
/// Passes never mutate their input; they return a new, validated graph.
pub trait Pass {
    /// Short name used in diagnostics.
    fn name(&self) -> &'static str;

    /// Runs the pass.
    ///
    /// # Errors
    /// Returns an error if the input graph is structurally invalid or a
    /// rewrite cannot be applied consistently.
    fn run(&self, graph: &Graph) -> Result<Graph>;
}

/// Runs a sequence of passes in order.
#[derive(Default)]
pub struct PassPipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl std::fmt::Debug for PassPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.passes.iter().map(|p| p.name()).collect();
        f.debug_struct("PassPipeline").field("passes", &names).finish()
    }
}

impl PassPipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        PassPipeline { passes: Vec::new() }
    }

    /// Appends a pass to the pipeline.
    #[must_use]
    pub fn with(mut self, pass: Box<dyn Pass>) -> Self {
        self.passes.push(pass);
        self
    }

    /// Number of passes in the pipeline.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether the pipeline holds no passes.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Runs every pass in order, validating after each step.
    ///
    /// # Errors
    /// Returns the first error produced by any pass or validation step.
    pub fn run(&self, graph: &Graph) -> Result<Graph> {
        let mut current = graph.clone();
        for pass in &self.passes {
            current = pass.run(&current)?;
            current.validate()?;
        }
        Ok(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::op::Conv2dAttrs;
    use bnff_tensor::Shape;

    #[test]
    fn empty_pipeline_is_identity() {
        let mut b = GraphBuilder::new("g");
        let x = b.input("in", Shape::nchw(1, 3, 8, 8)).unwrap();
        b.conv2d(x, Conv2dAttrs::same_3x3(4), "conv").unwrap();
        let g = b.finish();
        let pipeline = PassPipeline::new();
        assert!(pipeline.is_empty());
        let out = pipeline.run(&g).unwrap();
        assert_eq!(out.node_count(), g.node_count());
    }

    #[test]
    fn pipeline_composes_passes() {
        let mut b = GraphBuilder::new("g");
        let x = b.input("in", Shape::nchw(2, 8, 8, 8)).unwrap();
        let c1 = b.conv2d(x, Conv2dAttrs::pointwise(16), "conv1").unwrap();
        let bn = b.batch_norm_default(c1, "bn").unwrap();
        let r = b.relu(bn, "relu").unwrap();
        b.conv2d(r, Conv2dAttrs::same_3x3(8), "conv2").unwrap();
        let g = b.finish();

        let pipeline =
            PassPipeline::new().with(Box::new(MvfPass::new())).with(Box::new(RcfPass::new()));
        assert_eq!(pipeline.len(), 2);
        let out = pipeline.run(&g).unwrap();
        assert!(out.validate().is_ok());
        // RCF removed the standalone ReLU.
        assert!(!out.op_histogram().contains_key("ReLU"));
    }
}
