//! The roofline execution-time model.
//!
//! A layer's execution time on a machine is the maximum of its compute time
//! (FLOPs over the effective FLOP rate of its layer class) and its memory
//! time (DRAM bytes over the effective bandwidth), plus a fixed kernel
//! launch overhead. This is the standard roofline argument the paper makes
//! implicitly: CONV layers sit left of the ridge (compute-bound), BN/ReLU
//! far right of it (bandwidth-bound).

use crate::machine::MachineProfile;
use bnff_graph::op::LayerCategory;

/// Execution time of one layer pass under the roofline model.
///
/// `flops` is the arithmetic work, `dram_bytes` the DRAM traffic after cache
/// filtering, and `category` selects the compute-efficiency class.
pub(crate) fn pass_time(
    machine: &MachineProfile,
    category: LayerCategory,
    flops: f64,
    dram_bytes: f64,
) -> f64 {
    let compute_rate = match category {
        LayerCategory::ConvFc | LayerCategory::FusedConv => machine.effective_conv_flops(),
        LayerCategory::NonConv => machine.effective_elementwise_flops(),
    };
    let compute_time = if flops > 0.0 { flops / compute_rate } else { 0.0 };
    let memory_time =
        if dram_bytes > 0.0 { dram_bytes / machine.effective_bandwidth() } else { 0.0 };
    compute_time.max(memory_time) + machine.kernel_overhead
}

/// The achieved bandwidth (bytes/s) of a layer pass, given its execution
/// time; used to draw the Figure 3 style bandwidth-utilization timeline.
pub(crate) fn achieved_bandwidth(dram_bytes: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        dram_bytes / seconds
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_layers_are_compute_bound_on_skylake() {
        let sky = MachineProfile::skylake_xeon_2s();
        // A representative DenseNet 3x3 conv at batch 120: ~47 GFLOP, ~77 MB.
        let flops = 47.0e9;
        let bytes = 77.0e6;
        let t = pass_time(&sky, LayerCategory::ConvFc, flops, bytes);
        assert!(t > flops / sky.peak_flops);
        // Compute time, not memory time, sets the pass time.
        let compute_time = flops / sky.effective_conv_flops();
        assert!(compute_time > bytes / sky.effective_bandwidth());
        assert!((t - compute_time - sky.kernel_overhead).abs() < 1e-9);
    }

    #[test]
    fn bn_layers_are_bandwidth_bound_on_skylake() {
        let sky = MachineProfile::skylake_xeon_2s();
        // A BN over a 120x128x28x28 feature map: ~48 MB read 3x + written 1x.
        let bytes = 4.0 * 48.0e6;
        let flops = 7.0 * 12.0e6;
        let t = pass_time(&sky, LayerCategory::NonConv, flops, bytes);
        let memory_time = bytes / sky.effective_bandwidth();
        assert!((t - memory_time - sky.kernel_overhead).abs() < 1e-9);
    }

    #[test]
    fn infinite_bandwidth_removes_memory_time() {
        let inf = MachineProfile::skylake_xeon_2s().with_infinite_bandwidth();
        let t = pass_time(&inf, LayerCategory::NonConv, 1.0e9, 1.0e12);
        // Only compute time + overhead remains.
        let expected = 1.0e9 / inf.effective_elementwise_flops() + inf.kernel_overhead;
        assert!((t - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn zero_work_costs_only_overhead() {
        let sky = MachineProfile::skylake_xeon_2s();
        let t = pass_time(&sky, LayerCategory::NonConv, 0.0, 0.0);
        assert!((t - sky.kernel_overhead).abs() < 1e-12);
    }

    #[test]
    fn achieved_bandwidth_is_bytes_over_time() {
        assert_eq!(achieved_bandwidth(100.0, 2.0), 50.0);
        assert_eq!(achieved_bandwidth(100.0, 0.0), 0.0);
    }

    #[test]
    fn halving_bandwidth_slows_memory_bound_layers() {
        let full = MachineProfile::skylake_xeon_2s();
        let half = MachineProfile::skylake_xeon_2s().with_bandwidth(115.2e9);
        let bytes = 200.0e6;
        let t_full = pass_time(&full, LayerCategory::NonConv, 1.0e6, bytes);
        let t_half = pass_time(&half, LayerCategory::NonConv, 1.0e6, bytes);
        assert!(t_half > 1.8 * t_full);
    }
}
