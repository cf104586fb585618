//! Machine profiles: peak compute, peak bandwidth, cache capacity and the
//! efficiency factors that calibrate the roofline model.

use crate::dram::DramConfig;
use crate::error::MemsimError;
use crate::Result;
use serde::{Deserialize, Serialize};

/// A data-parallel architecture, described by the handful of parameters the
/// roofline model needs. The stock constructors mirror Table 1 of the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineProfile {
    /// Human-readable name (e.g. `"Intel Xeon Skylake (2-socket)"`).
    pub name: String,
    /// Peak single-precision floating-point throughput in FLOP/s.
    pub peak_flops: f64,
    /// Peak main-memory bandwidth in bytes per second.
    pub mem_bandwidth: f64,
    /// Effective on-chip buffer (last-level cache / shared memory) capacity
    /// in bytes; tensors smaller than this are treated as cache-resident.
    pub cache_bytes: usize,
    /// Fraction of peak FLOPs achieved on convolution / GEMM layers.
    pub conv_efficiency: f64,
    /// Fraction of peak FLOPs achieved on memory-friendly element-wise
    /// layers (they are never compute-bound in practice, so this mainly
    /// guards against degenerate inputs).
    pub elementwise_efficiency: f64,
    /// Fraction of peak bandwidth achievable by a streaming sweep.
    pub stream_efficiency: f64,
    /// Fixed per-layer (kernel launch / subroutine call) overhead in seconds.
    pub kernel_overhead: f64,
    /// The paper's default mini-batch size on this machine (Figure 6).
    pub default_batch: usize,
}

impl MachineProfile {
    /// Validates the profile.
    ///
    /// # Errors
    /// Returns [`MemsimError::InvalidProfile`] for non-positive rates.
    pub fn validate(&self) -> Result<()> {
        if self.peak_flops <= 0.0 {
            return Err(MemsimError::InvalidProfile("peak_flops must be positive".into()));
        }
        if self.mem_bandwidth <= 0.0 {
            return Err(MemsimError::InvalidProfile("mem_bandwidth must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.conv_efficiency)
            || !(0.0..=1.0).contains(&self.stream_efficiency)
            || !(0.0..=1.0).contains(&self.elementwise_efficiency)
        {
            return Err(MemsimError::InvalidProfile("efficiencies must lie in [0, 1]".into()));
        }
        Ok(())
    }

    /// The 2-socket Skylake Xeon Gold 6138 system of the paper: 3.34 TFLOPS,
    /// 12 × DDR4-2400 (230.4 GB/s), 2 × 27.5 MiB LLC, mini-batch 120.
    pub fn skylake_xeon_2s() -> Self {
        MachineProfile {
            name: "Intel Xeon Skylake (2-socket)".to_string(),
            peak_flops: 3.34e12,
            mem_bandwidth: DramConfig::skylake_ddr4_2400().peak_bandwidth(),
            // 2 × 27.5 MiB of shared LLC; private L2s are not usable as a
            // shared staging buffer for whole-tensor sweeps.
            cache_bytes: 2 * 27_500 * 1024,
            conv_efficiency: 0.88,
            elementwise_efficiency: 0.25,
            stream_efficiency: 0.72,
            kernel_overhead: 10e-6,
            default_batch: 120,
        }
    }

    /// Intel Xeon Phi Knights Landing: 5.30 TFLOPS, 400 GB/s MCDRAM,
    /// mini-batch 128.
    pub fn knights_landing() -> Self {
        MachineProfile {
            name: "Intel Xeon Phi Knights Landing".to_string(),
            peak_flops: 5.30e12,
            mem_bandwidth: 400.0e9,
            cache_bytes: 34 * 1024 * 1024,
            conv_efficiency: 0.60,
            elementwise_efficiency: 0.20,
            stream_efficiency: 0.45,
            kernel_overhead: 30e-6,
            default_batch: 128,
        }
    }

    /// Nvidia Pascal Titan X: 10.0 TFLOPS, 480 GB/s GDDR5X, mini-batch 28
    /// (bounded by device memory capacity in the paper).
    pub fn pascal_titan_x() -> Self {
        MachineProfile {
            name: "Nvidia GPU Pascal Titan X".to_string(),
            peak_flops: 10.0e12,
            mem_bandwidth: 480.0e9,
            cache_bytes: 4 * 1024 * 1024,
            conv_efficiency: 0.55,
            elementwise_efficiency: 0.30,
            stream_efficiency: 0.60,
            kernel_overhead: 8e-6,
            default_batch: 28,
        }
    }

    /// Returns a copy with a different peak memory bandwidth (Figure 8
    /// halves the Skylake bandwidth to 115.2 GB/s).
    #[must_use]
    pub fn with_bandwidth(mut self, bytes_per_second: f64) -> Self {
        self.mem_bandwidth = bytes_per_second;
        self.name = format!("{} @ {:.1} GB/s", self.name, bytes_per_second / 1e9);
        self
    }

    /// Returns a copy with effectively infinite memory bandwidth, modelling
    /// the hypothetical machine of Figure 4 where BN and ReLU never touch
    /// DRAM.
    #[must_use]
    pub fn with_infinite_bandwidth(mut self) -> Self {
        self.mem_bandwidth = f64::INFINITY;
        self.name = format!("{} (infinite BW)", self.name);
        self
    }

    /// Compute-to-bandwidth ratio in FLOP per byte (Table 1's implicit
    /// "FLOP/B" column; the paper quotes 14.5 FLOP/B for the P100).
    pub fn flop_per_byte(&self) -> f64 {
        self.peak_flops / self.mem_bandwidth
    }

    /// Effective (achievable) DRAM bandwidth in bytes per second.
    pub(crate) fn effective_bandwidth(&self) -> f64 {
        self.mem_bandwidth * self.stream_efficiency
    }

    /// Effective FLOP/s for convolution-class layers.
    pub(crate) fn effective_conv_flops(&self) -> f64 {
        self.peak_flops * self.conv_efficiency
    }

    /// Effective FLOP/s for element-wise layers.
    pub(crate) fn effective_elementwise_flops(&self) -> f64 {
        self.peak_flops * self.elementwise_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let sky = MachineProfile::skylake_xeon_2s();
        assert!((sky.peak_flops / 1e12 - 3.34).abs() < 1e-6);
        assert!((sky.mem_bandwidth / 1e9 - 230.4).abs() < 0.1);
        assert_eq!(sky.default_batch, 120);

        let knl = MachineProfile::knights_landing();
        assert!((knl.peak_flops / 1e12 - 5.30).abs() < 1e-6);
        assert!((knl.mem_bandwidth / 1e9 - 400.0).abs() < 0.1);

        let gpu = MachineProfile::pascal_titan_x();
        assert!((gpu.peak_flops / 1e12 - 10.0).abs() < 1e-6);
        assert!((gpu.mem_bandwidth / 1e9 - 480.0).abs() < 0.1);
        assert_eq!(gpu.default_batch, 28);
    }

    #[test]
    fn p100_flop_per_byte_matches_paper() {
        // The paper quotes 14.5 FLOP/B (58 FLOPs per 32-bit word) for P100.
        let p100 = MachineProfile {
            peak_flops: 10.6e12,
            mem_bandwidth: 732.0e9,
            ..MachineProfile::pascal_titan_x()
        };
        assert!((p100.flop_per_byte() - 14.5).abs() < 0.2);
    }

    #[test]
    fn all_stock_profiles_validate() {
        for profile in [
            MachineProfile::skylake_xeon_2s(),
            MachineProfile::knights_landing(),
            MachineProfile::pascal_titan_x(),
        ] {
            assert!(profile.validate().is_ok(), "{} failed validation", profile.name);
        }
    }

    #[test]
    fn bandwidth_modifiers() {
        let half = MachineProfile::skylake_xeon_2s().with_bandwidth(115.2e9);
        assert!((half.mem_bandwidth / 1e9 - 115.2).abs() < 1e-6);
        assert!(half.name.contains("115.2"));
        let inf = MachineProfile::skylake_xeon_2s().with_infinite_bandwidth();
        assert!(inf.mem_bandwidth.is_infinite());
    }

    #[test]
    fn invalid_profiles_rejected() {
        let mut p = MachineProfile::skylake_xeon_2s();
        p.peak_flops = 0.0;
        assert!(p.validate().is_err());
        let mut p = MachineProfile::skylake_xeon_2s();
        p.conv_efficiency = 1.5;
        assert!(p.validate().is_err());
        let mut p = MachineProfile::skylake_xeon_2s();
        p.mem_bandwidth = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn effective_rates_below_peak() {
        let p = MachineProfile::skylake_xeon_2s();
        assert!(p.effective_bandwidth() < p.mem_bandwidth);
        assert!(p.effective_conv_flops() < p.peak_flops);
        assert!(p.effective_elementwise_flops() < p.effective_conv_flops());
    }
}
