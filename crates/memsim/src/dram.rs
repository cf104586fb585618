//! A small DDR main-memory model used to derive peak bandwidth figures.
//!
//! The paper's Skylake system has twelve DDR4-2400 channels for a peak of
//! 230.4 GB/s; the Figure 8 experiment halves that by dropping the data
//! transfer rate. This module models the peak bandwidth of a DDR
//! configuration so those configurations can be expressed directly.

/// A DDR main-memory configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DramConfig {
    /// Number of memory channels.
    pub channels: usize,
    /// Data transfer rate per channel in mega-transfers per second
    /// (e.g. 2400 for DDR4-2400).
    pub transfer_rate_mts: f64,
    /// Bus width per channel in bytes (8 for DDR4).
    pub bus_bytes: usize,
}

impl DramConfig {
    /// The paper's Skylake configuration: 12 × DDR4-2400, 8-byte channels.
    pub(crate) fn skylake_ddr4_2400() -> Self {
        DramConfig { channels: 12, transfer_rate_mts: 2400.0, bus_bytes: 8 }
    }

    /// Theoretical peak bandwidth in bytes per second.
    pub(crate) fn peak_bandwidth(&self) -> f64 {
        self.channels as f64 * self.transfer_rate_mts * 1e6 * self.bus_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skylake_peak_matches_paper() {
        let cfg = DramConfig::skylake_ddr4_2400();
        let peak_gb = cfg.peak_bandwidth() / 1e9;
        assert!((peak_gb - 230.4).abs() < 0.1, "peak {peak_gb} GB/s");
    }

    #[test]
    fn half_rate_halves_bandwidth() {
        // Figure 8's throttled configuration: DDR4-1200 on the same channels.
        let full = DramConfig::skylake_ddr4_2400();
        let half = DramConfig { transfer_rate_mts: 1200.0, ..full };
        assert!((full.peak_bandwidth() / half.peak_bandwidth() - 2.0).abs() < 1e-9);
    }
}
