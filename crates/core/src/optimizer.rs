//! The user-facing optimizer: apply a fusion level to a model graph and
//! quantify the effect on a machine.

use crate::fusion_level::FusionLevel;
use crate::Result;
use bnff_graph::Graph;
use bnff_memsim::{simulate_iteration, IterationReport, MachineProfile};
use serde::Serialize;

/// Applies a [`FusionLevel`] to model graphs and compares the result on a
/// [`MachineProfile`].
#[derive(Debug, Clone, Copy)]
pub struct BnffOptimizer {
    level: FusionLevel,
}

impl BnffOptimizer {
    /// Creates an optimizer for the given fusion level.
    pub fn new(level: FusionLevel) -> Self {
        BnffOptimizer { level }
    }

    /// The configured fusion level.
    pub fn level(&self) -> FusionLevel {
        self.level
    }

    /// Applies the configured restructuring to a graph.
    ///
    /// # Errors
    /// Returns an error if a pass fails or produces an invalid graph.
    pub fn apply(&self, graph: &Graph) -> Result<Graph> {
        let out = self.level.pipeline().run(graph)?;
        out.validate()?;
        Ok(out)
    }

    /// Simulates both graphs on the machine and reports the comparison.
    ///
    /// # Errors
    /// Returns an error if the machine profile is invalid or simulation
    /// fails.
    pub fn compare(
        &self,
        baseline: &Graph,
        restructured: &Graph,
        machine: &MachineProfile,
    ) -> Result<ComparisonReport> {
        let base = simulate_iteration(baseline, machine)?;
        let opt = simulate_iteration(restructured, machine)?;
        Ok(ComparisonReport { level: self.level, baseline: base, restructured: opt })
    }
}

/// Side-by-side performance-model results for a baseline graph and its
/// restructured twin.
#[derive(Debug, Clone, Serialize)]
pub struct ComparisonReport {
    /// The fusion level that produced the restructured graph.
    pub level: FusionLevel,
    /// Simulation of the baseline graph.
    pub baseline: IterationReport,
    /// Simulation of the restructured graph.
    pub restructured: IterationReport,
}

impl ComparisonReport {
    /// Iteration-time speedup (baseline / restructured).
    pub fn speedup(&self) -> f64 {
        self.restructured.speedup_over(&self.baseline)
    }

    /// Relative execution-time improvement (`1 − restructured/baseline`),
    /// the way the paper quotes its gains.
    pub fn improvement(&self) -> f64 {
        self.restructured.improvement_over(&self.baseline)
    }

    /// Relative improvement of the forward pass only.
    pub fn forward_improvement(&self) -> f64 {
        1.0 - self.restructured.fwd_seconds / self.baseline.fwd_seconds
    }

    /// Relative improvement of the backward pass only.
    pub fn backward_improvement(&self) -> f64 {
        1.0 - self.restructured.bwd_seconds / self.baseline.bwd_seconds
    }

    /// Relative DRAM-traffic reduction.
    pub fn traffic_reduction(&self) -> f64 {
        self.restructured.traffic_reduction_over(&self.baseline)
    }
}

/// Convenience: apply `level` to `graph` and compare against the unmodified
/// graph on `machine` in one call.
///
/// # Errors
/// Returns an error if restructuring or simulation fails.
pub(crate) fn evaluate_level(
    graph: &Graph,
    level: FusionLevel,
    machine: &MachineProfile,
) -> Result<ComparisonReport> {
    let optimizer = BnffOptimizer::new(level);
    let restructured = optimizer.apply(graph)?;
    optimizer.compare(graph, &restructured, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_models::densenet_cifar;

    #[test]
    fn bnff_speeds_up_a_dense_block() {
        let graph = densenet_cifar(64, 12, 4, 10).unwrap();
        let machine = MachineProfile::skylake_xeon_2s();
        let report = evaluate_level(&graph, FusionLevel::Bnff, &machine).unwrap();
        assert!(report.speedup() > 1.0);
        assert!(report.improvement() > 0.0);
        assert!(report.traffic_reduction() > 0.0);
        assert!(report.forward_improvement() > report.backward_improvement());
    }

    #[test]
    fn levels_are_monotonic_on_densenet() {
        let graph = densenet_cifar(64, 12, 3, 10).unwrap();
        let machine = MachineProfile::skylake_xeon_2s();
        let mut last = 0.0;
        for level in FusionLevel::all() {
            let report = evaluate_level(&graph, level, &machine).unwrap();
            assert!(
                report.improvement() >= last - 1e-9,
                "{level} improvement {} dropped below previous {last}",
                report.improvement()
            );
            last = report.improvement();
        }
        assert!(last > 0.1, "BNFF+ICF should give a double-digit improvement, got {last}");
    }

    #[test]
    fn baseline_level_is_neutral() {
        let graph = densenet_cifar(32, 12, 2, 10).unwrap();
        let machine = MachineProfile::skylake_xeon_2s();
        let report = evaluate_level(&graph, FusionLevel::Baseline, &machine).unwrap();
        assert!((report.speedup() - 1.0).abs() < 1e-9);
        assert_eq!(report.level, FusionLevel::Baseline);
    }
}
