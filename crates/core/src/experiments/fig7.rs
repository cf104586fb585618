//! Figure 7: execution time and memory accesses per training iteration for
//! the cumulative restructuring scenarios on DenseNet-121 and ResNet-50.

use crate::fusion_level::FusionLevel;
use crate::optimizer::evaluate_level;
use crate::Result;
use bnff_memsim::MachineProfile;
use bnff_models::{build, Model};
use serde::Serialize;

/// One (model, scenario) entry of Figure 7.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Row {
    /// Model name.
    pub model: String,
    /// Scenario label (Baseline, RCF, RCF+MVF, BNFF, BNFF+ICF).
    pub scenario: String,
    /// Forward-pass time per iteration (seconds).
    pub fwd_seconds: f64,
    /// Backward-pass time per iteration (seconds).
    pub bwd_seconds: f64,
    /// Total time per iteration (seconds).
    pub total_seconds: f64,
    /// DRAM traffic per iteration (GB).
    pub dram_gb: f64,
    /// Relative execution-time improvement over the baseline.
    pub improvement: f64,
    /// Relative forward-pass improvement over the baseline.
    pub fwd_improvement: f64,
    /// Relative backward-pass improvement over the baseline.
    pub bwd_improvement: f64,
    /// Relative DRAM-traffic reduction over the baseline.
    pub traffic_reduction: f64,
    /// Peak activation bytes (GB) the memory planner needs for this
    /// scenario's graph.
    pub planned_peak_gb: f64,
    /// Activation bytes (GB) a naive one-buffer-per-node executor holds.
    pub naive_activation_gb: f64,
    /// Fraction of activation memory the planner saves over the naive
    /// executor for this scenario (`1 − planned/naive`).
    pub planner_reduction: f64,
    /// DRAM traffic (GB) of the CONV/FC GEMM lowerings under the
    /// cache-blocked packed engine.
    pub gemm_blocked_gb: f64,
    /// Fraction of GEMM DRAM traffic the blocked engine saves over
    /// whole-matrix streaming (`1 − blocked/streamed`).
    pub gemm_locality_reduction: f64,
}

/// Runs the Figure 7 scenario sweep for one model.
///
/// # Errors
/// Returns an error if the model cannot be built, restructured or simulated.
pub(crate) fn figure7_for_model(model: Model, batch: usize) -> Result<Vec<Fig7Row>> {
    let machine = MachineProfile::skylake_xeon_2s();
    let graph = build(model, batch)?;
    let mut rows = Vec::new();
    for level in FusionLevel::all() {
        // ICF only applies to DenseNet's composite-layer boundaries; the
        // paper evaluates it for DenseNet only.
        if level == FusionLevel::BnffIcf
            && !matches!(model, Model::DenseNet121 | Model::DenseNet169 | Model::DenseNetCifar)
        {
            continue;
        }
        let report = evaluate_level(&graph, level, &machine)?;
        rows.push(Fig7Row {
            model: model.display_name().to_string(),
            scenario: level.label().to_string(),
            fwd_seconds: report.restructured.fwd_seconds,
            bwd_seconds: report.restructured.bwd_seconds,
            total_seconds: report.restructured.total_seconds(),
            dram_gb: report.restructured.total_dram_bytes() / 1e9,
            improvement: report.improvement(),
            fwd_improvement: report.forward_improvement(),
            bwd_improvement: report.backward_improvement(),
            traffic_reduction: report.traffic_reduction(),
            planned_peak_gb: report.restructured.planned_peak_activation_bytes as f64 / 1e9,
            naive_activation_gb: report.restructured.naive_activation_bytes as f64 / 1e9,
            planner_reduction: report.restructured.planned_memory_reduction(),
            gemm_blocked_gb: report.restructured.gemm_dram_bytes_blocked / 1e9,
            gemm_locality_reduction: report.restructured.gemm_locality_reduction(),
        });
    }
    Ok(rows)
}

/// Reproduces Figure 7 for DenseNet-121 and ResNet-50.
///
/// # Errors
/// Returns an error if a model cannot be built, restructured or simulated.
pub fn figure7(batch: usize) -> Result<Vec<Fig7Row>> {
    let mut rows = figure7_for_model(Model::DenseNet121, batch)?;
    rows.extend(figure7_for_model(Model::ResNet50, batch)?);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::QUICK_BATCH;

    fn row<'a>(rows: &'a [Fig7Row], model: &str, scenario: &str) -> &'a Fig7Row {
        rows.iter().find(|r| r.model == model && r.scenario == scenario).unwrap()
    }

    #[test]
    fn densenet_scenarios_reproduce_the_papers_shape() {
        let rows = figure7_for_model(Model::DenseNet121, QUICK_BATCH).unwrap();
        assert_eq!(rows.len(), 5);
        let baseline = row(&rows, "DenseNet-121", "Baseline");
        let rcf = row(&rows, "DenseNet-121", "RCF");
        let rcf_mvf = row(&rows, "DenseNet-121", "RCF+MVF");
        let bnff = row(&rows, "DenseNet-121", "BNFF");
        let icf = row(&rows, "DenseNet-121", "BNFF+ICF");

        // Monotonically better scenarios.
        assert!(baseline.improvement.abs() < 1e-9);
        assert!(rcf.improvement > 0.02, "RCF improvement {}", rcf.improvement);
        assert!(rcf_mvf.improvement > rcf.improvement);
        assert!(bnff.improvement > rcf_mvf.improvement);
        assert!(icf.improvement > bnff.improvement);

        // Headline numbers: the paper reports 25.7% for BNFF and 43.7% for
        // BNFF+ICF on DenseNet-121; the model should land in the same band.
        assert!(
            (0.15..=0.45).contains(&bnff.improvement),
            "BNFF improvement {} outside the expected band",
            bnff.improvement
        );
        assert!(
            (0.25..=0.60).contains(&icf.improvement),
            "BNFF+ICF improvement {} outside the expected band",
            icf.improvement
        );

        // Forward gains dominate backward gains (47.9% vs 15.4% in the
        // paper; our analytical baseline omits the reference library's
        // im2col/workspace traffic, so the backward gap is narrower here).
        assert!(bnff.fwd_improvement > 1.2 * bnff.bwd_improvement);
        assert!(bnff.fwd_improvement > bnff.improvement);

        // Memory traffic drops (19.1% in the paper for BNFF).
        assert!(bnff.traffic_reduction > 0.10);
        assert!(bnff.dram_gb < baseline.dram_gb);

        // The blocked GEMM engine's traffic never exceeds what streaming
        // would move, and the lowering totals are populated.
        for r in &rows {
            assert!(r.gemm_blocked_gb > 0.0, "{}: no GEMM lowering traffic", r.scenario);
            assert!(
                (0.0..1.0).contains(&r.gemm_locality_reduction),
                "{}: locality reduction {} out of range",
                r.scenario,
                r.gemm_locality_reduction
            );
        }

        // The memory planner beats naive per-node allocation at every
        // fusion level.
        for r in &rows {
            assert!(
                r.planned_peak_gb < r.naive_activation_gb,
                "{}: planned {} GB vs naive {} GB",
                r.scenario,
                r.planned_peak_gb,
                r.naive_activation_gb
            );
            assert!(r.planner_reduction > 0.0);
        }
    }

    #[test]
    fn resnet_gains_are_smaller_than_densenet_gains() {
        let dense = figure7_for_model(Model::DenseNet121, QUICK_BATCH).unwrap();
        let res = figure7_for_model(Model::ResNet50, QUICK_BATCH).unwrap();
        // ResNet has no composite-layer boundaries, so no BNFF+ICF row.
        assert_eq!(res.len(), 4);
        let d_bnff = row(&dense, "DenseNet-121", "BNFF");
        let r_bnff = row(&res, "ResNet-50", "BNFF");
        assert!(
            d_bnff.improvement > r_bnff.improvement,
            "DenseNet BNFF gain {} should exceed ResNet gain {}",
            d_bnff.improvement,
            r_bnff.improvement
        );
        assert!(r_bnff.improvement > 0.05, "ResNet BNFF gain {}", r_bnff.improvement);
    }
}
