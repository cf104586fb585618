//! Whole-iteration simulation and reporting.

use crate::cache::CacheModel;
use crate::machine::MachineProfile;
use crate::roofline::pass_time;
use crate::Result;
use bnff_graph::analysis::{node_cost, node_gemms};
use bnff_graph::op::LayerCategory;
use bnff_graph::ExecutionPlan;
use bnff_graph::Graph;
use serde::Serialize;
use std::collections::HashMap;

/// Per-node timing and traffic of one training iteration.
#[derive(Debug, Clone, Serialize)]
pub struct NodeTiming {
    /// Node name.
    pub name: String,
    /// Operation display name (e.g. `"Conv2d"`, `"BatchNorm"`).
    pub op: String,
    /// Layer category (CONV/FC, fused-CONV or non-CONV).
    pub category: LayerCategory,
    /// Forward execution time in seconds.
    pub fwd_seconds: f64,
    /// Backward execution time in seconds.
    pub bwd_seconds: f64,
    /// Forward DRAM traffic in bytes.
    pub fwd_dram_bytes: f64,
    /// Backward DRAM traffic in bytes.
    pub bwd_dram_bytes: f64,
    /// Forward FLOPs.
    pub flops_fwd: f64,
    /// Backward FLOPs.
    pub flops_bwd: f64,
}

impl NodeTiming {
    /// Total (forward + backward) time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.fwd_seconds + self.bwd_seconds
    }

    /// Total (forward + backward) DRAM traffic in bytes.
    pub fn total_dram_bytes(&self) -> f64 {
        self.fwd_dram_bytes + self.bwd_dram_bytes
    }
}

/// Aggregated result of simulating one training iteration of a graph on a
/// machine.
#[derive(Debug, Clone, Serialize)]
pub struct IterationReport {
    /// The graph's name.
    pub graph_name: String,
    /// The machine's name.
    pub machine_name: String,
    /// Per-node breakdown (topological order).
    pub per_node: Vec<NodeTiming>,
    /// Forward-pass time in seconds.
    pub fwd_seconds: f64,
    /// Backward-pass time in seconds.
    pub bwd_seconds: f64,
    /// Forward-pass DRAM traffic in bytes.
    pub fwd_dram_bytes: f64,
    /// Backward-pass DRAM traffic in bytes.
    pub bwd_dram_bytes: f64,
    /// Peak bytes of node-output activations a liveness-planned executor
    /// holds at once (retained-for-backward tensors + reuse-arena slots).
    pub planned_peak_activation_bytes: usize,
    /// Bytes of node-output activations a naive one-buffer-per-node
    /// executor holds (all alive simultaneously at the end of forward).
    pub naive_activation_bytes: usize,
    /// DRAM bytes the CONV/FC GEMM lowerings move per iteration under the
    /// cache-blocked packed engine (tile-sized working sets).
    pub gemm_dram_bytes_blocked: f64,
    /// DRAM bytes the same lowerings would move under the legacy
    /// row-streaming engine (whole-matrix re-streams once operands exceed
    /// the cache).
    pub gemm_dram_bytes_streamed: f64,
}

impl IterationReport {
    /// Total iteration time (forward + backward) in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.fwd_seconds + self.bwd_seconds
    }

    /// Total iteration DRAM traffic in bytes.
    pub fn total_dram_bytes(&self) -> f64 {
        self.fwd_dram_bytes + self.bwd_dram_bytes
    }

    /// Time spent in each layer category (forward + backward).
    pub fn seconds_by_category(&self) -> HashMap<LayerCategory, f64> {
        let mut map = HashMap::new();
        for node in &self.per_node {
            *map.entry(node.category).or_insert(0.0) += node.total_seconds();
        }
        map
    }

    /// Time spent per operation name (forward + backward).
    pub fn seconds_by_op(&self) -> HashMap<String, f64> {
        let mut map = HashMap::new();
        for node in &self.per_node {
            *map.entry(node.op.clone()).or_insert(0.0) += node.total_seconds();
        }
        map
    }

    /// Fraction of iteration time spent in layers that contain a
    /// convolution or FC (the paper's "CONV/FC" share in Figures 1 and 6).
    pub fn conv_fraction(&self) -> f64 {
        let by_cat = self.seconds_by_category();
        let conv = by_cat.get(&LayerCategory::ConvFc).copied().unwrap_or(0.0)
            + by_cat.get(&LayerCategory::FusedConv).copied().unwrap_or(0.0);
        let total = self.total_seconds();
        if total > 0.0 {
            conv / total
        } else {
            0.0
        }
    }

    /// Fraction of iteration time spent in non-CONV layers.
    pub fn non_conv_fraction(&self) -> f64 {
        1.0 - self.conv_fraction()
    }

    /// Speedup of this report relative to `other` (other / self).
    pub fn speedup_over(&self, other: &IterationReport) -> f64 {
        other.total_seconds() / self.total_seconds()
    }

    /// Relative execution-time reduction of `self` against a `baseline`
    /// (`1 − self/baseline`, the way the paper quotes its gains).
    pub fn improvement_over(&self, baseline: &IterationReport) -> f64 {
        1.0 - self.total_seconds() / baseline.total_seconds()
    }

    /// Relative DRAM-traffic reduction against a baseline.
    pub fn traffic_reduction_over(&self, baseline: &IterationReport) -> f64 {
        1.0 - self.total_dram_bytes() / baseline.total_dram_bytes()
    }

    /// Fraction of activation memory the liveness planner saves over the
    /// naive one-buffer-per-node executor (`1 − planned/naive`).
    pub fn planned_memory_reduction(&self) -> f64 {
        if self.naive_activation_bytes == 0 {
            0.0
        } else {
            1.0 - self.planned_peak_activation_bytes as f64 / self.naive_activation_bytes as f64
        }
    }

    /// Fraction of GEMM DRAM traffic the cache-blocked packed engine saves
    /// over whole-matrix streaming (`1 − blocked/streamed`). Zero when every
    /// GEMM operand is cache-resident anyway.
    pub fn gemm_locality_reduction(&self) -> f64 {
        if self.gemm_dram_bytes_streamed == 0.0 {
            0.0
        } else {
            1.0 - self.gemm_dram_bytes_blocked / self.gemm_dram_bytes_streamed
        }
    }
}

/// Simulates one training iteration (forward + backward) of `graph` on
/// `machine`.
///
/// # Errors
/// Returns an error if the machine profile is invalid or the graph is
/// structurally inconsistent.
pub fn simulate_iteration(graph: &Graph, machine: &MachineProfile) -> Result<IterationReport> {
    machine.validate()?;
    let cache = CacheModel::for_machine(machine);
    let plan = ExecutionPlan::for_graph(graph)?;
    let order = graph.topo_order()?;
    let mut per_node = Vec::with_capacity(order.len());
    let mut fwd_seconds = 0.0;
    let mut bwd_seconds = 0.0;
    let mut fwd_dram = 0.0;
    let mut bwd_dram = 0.0;
    let mut gemm_blocked = 0.0;
    let mut gemm_streamed = 0.0;
    for id in order {
        let node = graph.node(id)?;
        if matches!(node.op, bnff_graph::OpKind::Input) {
            continue;
        }
        let cost = node_cost(graph, node)?;
        let gemms = node_gemms(graph, node)?;
        for g in gemms.fwd.iter().chain(gemms.bwd.iter()) {
            gemm_blocked += cache.gemm_dram_bytes_blocked(g);
            gemm_streamed += cache.gemm_dram_bytes_streamed(g);
        }
        let category = node.op.category();
        let fwd_bytes = cache.dram_bytes_for(&cost.sweeps_fwd);
        let bwd_bytes = cache.dram_bytes_for(&cost.sweeps_bwd);
        let fwd = pass_time(machine, category, cost.flops_fwd, fwd_bytes);
        let bwd = if cost.flops_bwd > 0.0 || bwd_bytes > 0.0 {
            pass_time(machine, category, cost.flops_bwd, bwd_bytes)
        } else {
            0.0
        };
        fwd_seconds += fwd;
        bwd_seconds += bwd;
        fwd_dram += fwd_bytes;
        bwd_dram += bwd_bytes;
        per_node.push(NodeTiming {
            name: node.name.clone(),
            op: node.op.name().to_string(),
            category,
            fwd_seconds: fwd,
            bwd_seconds: bwd,
            fwd_dram_bytes: fwd_bytes,
            bwd_dram_bytes: bwd_bytes,
            flops_fwd: cost.flops_fwd,
            flops_bwd: cost.flops_bwd,
        });
    }
    Ok(IterationReport {
        graph_name: graph.name().to_string(),
        machine_name: machine.name.clone(),
        per_node,
        fwd_seconds,
        bwd_seconds,
        fwd_dram_bytes: fwd_dram,
        bwd_dram_bytes: bwd_dram,
        planned_peak_activation_bytes: plan.planned_peak_bytes(),
        naive_activation_bytes: plan.naive_total_bytes(),
        gemm_dram_bytes_blocked: gemm_blocked,
        gemm_dram_bytes_streamed: gemm_streamed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_graph::builder::GraphBuilder;
    use bnff_graph::op::{Conv2dAttrs, PoolAttrs};
    use bnff_graph::passes::{BnffPass, Pass};
    use bnff_tensor::Shape;

    /// A DenseNet-ish fragment at a mini-batch large enough that activations
    /// exceed the LLC, as in the paper.
    fn fragment(batch: usize) -> Graph {
        let mut b = GraphBuilder::new("fragment");
        let x = b.input("in", Shape::nchw(batch, 256, 28, 28)).unwrap();
        let c1 = b.bn_relu_conv(x, Conv2dAttrs::pointwise(128), "cpl/a").unwrap();
        let c2 = b.bn_relu_conv(c1, Conv2dAttrs::same_3x3(32), "cpl/b").unwrap();
        b.concat(vec![x, c2], "concat").unwrap();
        b.finish()
    }

    #[test]
    fn simulation_produces_positive_times() {
        let g = fragment(120);
        let report = simulate_iteration(&g, &MachineProfile::skylake_xeon_2s()).unwrap();
        assert!(report.fwd_seconds > 0.0);
        assert!(report.bwd_seconds > report.fwd_seconds);
        assert!(report.total_dram_bytes() > 0.0);
        assert_eq!(report.per_node.len(), g.node_count() - 1); // input skipped
    }

    #[test]
    fn non_conv_layers_dominate_at_large_batch() {
        // The paper's Figure 1: for DenseNet-like fragments the non-CONV
        // share of execution time is large (>= 40%).
        let g = fragment(120);
        let report = simulate_iteration(&g, &MachineProfile::skylake_xeon_2s()).unwrap();
        assert!(
            report.non_conv_fraction() > 0.4,
            "non-CONV fraction {} unexpectedly small",
            report.non_conv_fraction()
        );
    }

    #[test]
    fn bnff_improves_iteration_time_and_traffic() {
        let baseline = fragment(120);
        let restructured = BnffPass::new().run(&baseline).unwrap();
        let machine = MachineProfile::skylake_xeon_2s();
        let base = simulate_iteration(&baseline, &machine).unwrap();
        let bnff = simulate_iteration(&restructured, &machine).unwrap();
        assert!(bnff.total_seconds() < base.total_seconds());
        assert!(bnff.total_dram_bytes() < base.total_dram_bytes());
        assert!(bnff.speedup_over(&base) > 1.0);
        assert!(bnff.improvement_over(&base) > 0.0);
        assert!(bnff.traffic_reduction_over(&base) > 0.0);
        // Forward gains exceed backward gains (Section 5).
        let fwd_gain = 1.0 - bnff.fwd_seconds / base.fwd_seconds;
        let bwd_gain = 1.0 - bnff.bwd_seconds / base.bwd_seconds;
        assert!(fwd_gain > bwd_gain);
    }

    #[test]
    fn infinite_bandwidth_shrinks_bn_time() {
        let g = fragment(120);
        let finite = simulate_iteration(&g, &MachineProfile::skylake_xeon_2s()).unwrap();
        let infinite =
            simulate_iteration(&g, &MachineProfile::skylake_xeon_2s().with_infinite_bandwidth())
                .unwrap();
        // The paper's Figure 4 observes ~20x on BN+ReLU; our model should
        // show at least a large one-order-of-magnitude effect.
        let bn_seconds = |report: &IterationReport| -> f64 {
            let bn = ["BatchNorm", "SubBnStats", "SubBnNorm", "NormRelu"];
            let nodes = report.per_node.iter().filter(|n| bn.contains(&n.op.as_str()));
            nodes.map(NodeTiming::total_seconds).sum()
        };
        let ratio = bn_seconds(&finite) / bn_seconds(&infinite);
        assert!(ratio > 5.0, "BN speedup under infinite bandwidth only {ratio}");
    }

    #[test]
    fn halved_bandwidth_increases_non_conv_share() {
        let g = fragment(120);
        let full = simulate_iteration(&g, &MachineProfile::skylake_xeon_2s()).unwrap();
        let half =
            simulate_iteration(&g, &MachineProfile::skylake_xeon_2s().with_bandwidth(115.2e9))
                .unwrap();
        assert!(half.total_seconds() > full.total_seconds());
        assert!(half.non_conv_fraction() > full.non_conv_fraction());
    }

    #[test]
    fn small_feature_maps_shrink_the_bnff_benefit() {
        // At CIFAR-like sizes the feature maps fit in the LLC, so removing
        // BN's sweeps buys much less than at ImageNet scale — the cache
        // crossover the ablation benches explore.
        let mut b = GraphBuilder::new("tiny");
        let x = b.input("in", Shape::nchw(8, 16, 8, 8)).unwrap();
        let c1 = b.bn_relu_conv(x, Conv2dAttrs::pointwise(32), "cpl/a").unwrap();
        b.bn_relu_conv(c1, Conv2dAttrs::same_3x3(16), "cpl/b").unwrap();
        let tiny = b.finish();
        // Zero out the per-layer launch overhead so the comparison isolates
        // the cache-residency effect (otherwise the tiny graph's time is
        // dominated by kernel launches, which BNFF also reduces).
        let mut machine = MachineProfile::skylake_xeon_2s();
        machine.kernel_overhead = 0.0;
        let tiny_gain = {
            let restructured = BnffPass::new().run(&tiny).unwrap();
            let base = simulate_iteration(&tiny, &machine).unwrap();
            simulate_iteration(&restructured, &machine).unwrap().improvement_over(&base)
        };
        let big = fragment(120);
        let big_gain = {
            let restructured = BnffPass::new().run(&big).unwrap();
            let base = simulate_iteration(&big, &machine).unwrap();
            simulate_iteration(&restructured, &machine).unwrap().improvement_over(&base)
        };
        assert!(
            tiny_gain < big_gain,
            "BNFF gain at CIFAR scale ({tiny_gain}) should be below ImageNet scale ({big_gain})"
        );
    }

    #[test]
    fn planner_peak_is_below_the_naive_total() {
        // Inside the composite layers every tensor is some backward's saved
        // input; the planner's reuse is in the transition that follows them,
        // whose pooling backward needs only shapes.
        let mut b = GraphBuilder::new("fragment+transition");
        let x = b.input("in", Shape::nchw(64, 256, 28, 28)).unwrap();
        let c1 = b.bn_relu_conv(x, Conv2dAttrs::pointwise(128), "cpl/a").unwrap();
        let c2 = b.bn_relu_conv(c1, Conv2dAttrs::same_3x3(32), "cpl/b").unwrap();
        let cat = b.concat(vec![x, c2], "concat").unwrap();
        let pool = b.avg_pool(cat, PoolAttrs::new(2, 2, 0), "pool").unwrap();
        b.global_avg_pool(pool, "gap").unwrap();
        let g = b.finish();
        let report = simulate_iteration(&g, &MachineProfile::skylake_xeon_2s()).unwrap();
        assert!(
            report.planned_peak_activation_bytes < report.naive_activation_bytes,
            "planned {} vs naive {}",
            report.planned_peak_activation_bytes,
            report.naive_activation_bytes
        );
        assert!(report.planned_memory_reduction() > 0.0);
        assert!(report.planned_memory_reduction() < 1.0);
    }

    #[test]
    fn gemm_locality_fields_are_populated_and_consistent() {
        let g = fragment(120);
        let report = simulate_iteration(&g, &MachineProfile::skylake_xeon_2s()).unwrap();
        assert!(report.gemm_dram_bytes_blocked > 0.0);
        assert!(
            report.gemm_dram_bytes_blocked <= report.gemm_dram_bytes_streamed,
            "blocked {} must never exceed streamed {}",
            report.gemm_dram_bytes_blocked,
            report.gemm_dram_bytes_streamed
        );
        let red = report.gemm_locality_reduction();
        assert!((0.0..1.0).contains(&red), "reduction {red} out of range");
    }

    #[test]
    fn report_aggregations_are_consistent() {
        let g = fragment(64);
        let report = simulate_iteration(&g, &MachineProfile::skylake_xeon_2s()).unwrap();
        let by_cat_total: f64 = report.seconds_by_category().values().sum();
        assert!((by_cat_total - report.total_seconds()).abs() < 1e-9);
        let by_op_total: f64 = report.seconds_by_op().values().sum();
        assert!((by_op_total - report.total_seconds()).abs() < 1e-9);
        assert!(report.conv_fraction() > 0.0 && report.conv_fraction() < 1.0);
    }

    #[test]
    fn invalid_machine_is_rejected() {
        let g = fragment(8);
        let mut machine = MachineProfile::skylake_xeon_2s();
        machine.mem_bandwidth = 0.0;
        assert!(simulate_iteration(&g, &machine).is_err());
    }
}
