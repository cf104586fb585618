//! A small DDR main-memory model used to derive peak bandwidth figures.
//!
//! The paper's Skylake system has twelve DDR4-2400 channels for a peak of
//! 230.4 GB/s; the Figure 8 experiment halves that by dropping the data
//! transfer rate. This module models the peak bandwidth of a DDR
//! configuration and the efficiency loss of a bursty access stream so those
//! configurations can be expressed directly.

use serde::{Deserialize, Serialize};

/// A DDR main-memory configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Number of memory channels.
    pub channels: usize,
    /// Data transfer rate per channel in mega-transfers per second
    /// (e.g. 2400 for DDR4-2400).
    pub transfer_rate_mts: f64,
    /// Bus width per channel in bytes (8 for DDR4).
    pub bus_bytes: usize,
    /// Fraction of the theoretical peak a well-behaved streaming workload
    /// achieves (row-buffer hits, refresh, turnaround); typically 0.75–0.9.
    pub stream_efficiency: f64,
}

impl DramConfig {
    /// The paper's Skylake configuration: 12 × DDR4-2400, 8-byte channels.
    pub fn skylake_ddr4_2400() -> Self {
        DramConfig {
            channels: 12,
            transfer_rate_mts: 2400.0,
            bus_bytes: 8,
            stream_efficiency: 0.85,
        }
    }

    /// Theoretical peak bandwidth in bytes per second.
    pub fn peak_bandwidth(&self) -> f64 {
        self.channels as f64 * self.transfer_rate_mts * 1e6 * self.bus_bytes as f64
    }

    /// Achievable streaming bandwidth in bytes per second.
    pub fn effective_bandwidth(&self) -> f64 {
        self.peak_bandwidth() * self.stream_efficiency
    }

    /// Achievable bandwidth for a stream with the given average burst length
    /// in cache lines; short bursts lose row-buffer locality.
    ///
    /// The model interpolates between 50% of streaming efficiency for
    /// single-line bursts and full streaming efficiency for bursts of 64
    /// lines or more.
    pub fn bandwidth_for_burst(&self, burst_lines: usize) -> f64 {
        let burst = burst_lines.clamp(1, 64) as f64;
        let factor = 0.5 + 0.5 * (burst.log2() / 6.0);
        self.effective_bandwidth() * factor
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

    #[test]
    fn effective_below_peak() {
        let cfg = DramConfig::skylake_ddr4_2400();
        assert!(cfg.effective_bandwidth() < cfg.peak_bandwidth());
        assert!(cfg.effective_bandwidth() > 0.5 * cfg.peak_bandwidth());
    }

    #[test]
    fn longer_bursts_get_more_bandwidth() {
        let cfg = DramConfig::skylake_ddr4_2400();
        assert!(cfg.bandwidth_for_burst(1) < cfg.bandwidth_for_burst(8));
        assert!(cfg.bandwidth_for_burst(8) < cfg.bandwidth_for_burst(64));
        assert!((cfg.bandwidth_for_burst(64) - cfg.effective_bandwidth()).abs() < 1.0);
        // Clamped above 64.
        assert!((cfg.bandwidth_for_burst(128) - cfg.bandwidth_for_burst(64)).abs() < 1.0);
    }
}
