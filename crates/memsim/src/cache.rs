//! The on-chip buffer (cache) filter.
//!
//! Section 3.1 of the paper argues that the aggregate size of a mini-batch
//! feature map (batch ≥ 100 at ImageNet resolutions) cannot fit in on-chip
//! memory, so every whole-tensor sweep of such a feature map reaches DRAM,
//! while weights and per-channel statistics stay resident. This module
//! encodes that capacity argument as a simple threshold filter and exposes
//! the resulting DRAM traffic per node.

use crate::machine::MachineProfile;
use bnff_graph::analysis::{Sweep, TensorClass};

/// Decides which memory sweeps reach DRAM on a given machine.
#[derive(Debug, Clone)]
pub(crate) struct CacheModel {
    /// Capacity threshold in bytes: tensors at or below this size are
    /// treated as cache-resident after their first touch.
    pub(crate) resident_threshold: usize,
}

impl CacheModel {
    /// Builds the cache model for a machine, reserving a fraction of the
    /// cache for the working set of the convolution kernels themselves.
    pub(crate) fn for_machine(machine: &MachineProfile) -> Self {
        CacheModel { resident_threshold: (machine.cache_bytes as f64 * 0.5) as usize }
    }

    /// Whether a tensor of `bytes` bytes is treated as cache-resident.
    pub(crate) fn is_resident(&self, bytes: usize) -> bool {
        bytes <= self.resident_threshold
    }

    /// DRAM bytes actually transferred by one sweep.
    ///
    /// * Mini-batch activations / gradients larger than the threshold always
    ///   stream from DRAM (capacity misses dominate).
    /// * Activations small enough to stay resident cost nothing beyond their
    ///   first touch, which is charged at 10% (compulsory misses).
    /// * Weights and weight gradients are read/written once per iteration;
    ///   they are charged fully but are tiny compared to feature maps.
    /// * Per-channel statistics are negligible and charged nothing.
    pub(crate) fn dram_bytes(&self, sweep: &Sweep) -> f64 {
        match sweep.class {
            TensorClass::Statistics => 0.0,
            TensorClass::Weight | TensorClass::WeightGradient => sweep.bytes as f64,
            TensorClass::Activation | TensorClass::Gradient => {
                if self.is_resident(sweep.bytes) {
                    sweep.bytes as f64 * 0.1
                } else {
                    sweep.bytes as f64
                }
            }
        }
    }

    /// Total DRAM bytes for a list of sweeps.
    pub(crate) fn dram_bytes_for(&self, sweeps: &[Sweep]) -> f64 {
        sweeps.iter().map(|s| self.dram_bytes(s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_graph::analysis::SweepDirection;

    fn sweep(bytes: usize, class: TensorClass) -> Sweep {
        Sweep { bytes, direction: SweepDirection::Read, class, label: "test" }
    }

    #[test]
    fn large_activations_hit_dram() {
        let cache = CacheModel { resident_threshold: 1 << 20 };
        let s = sweep(100 << 20, TensorClass::Activation);
        assert_eq!(cache.dram_bytes(&s), (100 << 20) as f64);
        assert!(!cache.is_resident(100 << 20));
    }

    #[test]
    fn small_activations_stay_resident() {
        let cache = CacheModel { resident_threshold: 1 << 20 };
        let s = sweep(64 << 10, TensorClass::Activation);
        assert!(cache.dram_bytes(&s) < (64 << 10) as f64 * 0.2);
        assert!(cache.is_resident(64 << 10));
    }

    #[test]
    fn statistics_are_free_weights_are_not() {
        let cache = CacheModel { resident_threshold: 1 << 20 };
        assert_eq!(cache.dram_bytes(&sweep(4096, TensorClass::Statistics)), 0.0);
        assert_eq!(cache.dram_bytes(&sweep(4096, TensorClass::Weight)), 4096.0);
        assert_eq!(cache.dram_bytes(&sweep(4096, TensorClass::WeightGradient)), 4096.0);
    }

    #[test]
    fn machine_threshold_tracks_cache_size() {
        let sky = CacheModel::for_machine(&MachineProfile::skylake_xeon_2s());
        let gpu = CacheModel::for_machine(&MachineProfile::pascal_titan_x());
        assert!(sky.resident_threshold > gpu.resident_threshold);
    }

    #[test]
    fn aggregate_sums_sweeps() {
        let cache = CacheModel { resident_threshold: 1 << 10 };
        let sweeps = vec![
            sweep(2048, TensorClass::Activation),
            sweep(100, TensorClass::Statistics),
            sweep(512, TensorClass::Weight),
        ];
        assert_eq!(cache.dram_bytes_for(&sweeps), 2048.0 + 512.0);
    }
}
