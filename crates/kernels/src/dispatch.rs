//! Runtime SIMD dispatch: which instruction set the kernels execute.
//!
//! Every kernel with an explicit-SIMD flavour (the packed GEMM microkernel,
//! the weight-gradient correlation, BN statistics and normalization, ReLU,
//! the element-wise sum and the convolution bias epilogue) resolves an ISA
//! **once at kernel entry, on the calling thread**, and threads it by value
//! through its workers. Resolution order:
//!
//! 1. a scoped [`with_isa`] override on the calling thread (tests use this
//!    to compare paths in one process),
//! 2. the `BNFF_SIMD` environment variable — `scalar`, `avx2` / `avx2fma`,
//!    `avx512`, or `auto` (unknown values fall back to `auto`, the widest
//!    ISA the host has),
//! 3. runtime CPUID detection (`is_x86_feature_detected!`).
//!
//! A requested ISA the hardware cannot execute steps down a tier at a time
//! — [`SimdIsa::Avx512`] to [`SimdIsa::Avx2Fma`] to [`SimdIsa::Scalar`] —
//! so `BNFF_SIMD=avx512` on an AVX2-only machine, or `avx2` on a machine
//! without it, is safe.
//!
//! [`SimdIsa::Avx512`] is numerically the AVX2+FMA flavour. Two kernels are
//! wider there: the GEMM microkernel multiplies two `B` strips per call in
//! 512-bit registers, and the weight-gradient correlation sweeps eight
//! output channels per tile, two AVX2 accumulators per zmm; both give every
//! result the bits the 256-bit kernel gives. Every other kernel runs its
//! AVX2+FMA body.
//!
//! Results are bit-identical across `BNFF_THREADS` *within* one ISA; the
//! scalar and the vector ISAs differ in the last bits wherever FMA
//! contracts a multiply-add (see `tests/simd_equivalence.rs` for the
//! quantified bound). Bench artifacts therefore record [`active_isa`] next
//! to every number.
//!
//! The implementation lives in `bnff_tensor::simd` (the aligned pack
//! buffers live next to it); this module is the kernels-facing face of it.

pub use bnff_tensor::simd::{active_isa, with_isa, SimdIsa};

/// The dispatch paths a unit test can run on this machine: the scalar path
/// and every vector tier the hardware has.
#[cfg(test)]
pub(crate) fn test_isas() -> Vec<SimdIsa> {
    [SimdIsa::Scalar, SimdIsa::Avx2Fma, SimdIsa::Avx512]
        .into_iter()
        .filter(|&isa| with_isa(isa, active_isa) == isa)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_wins_and_restores() {
        let outer = active_isa();
        let inner = with_isa(SimdIsa::Scalar, active_isa);
        assert_eq!(inner, SimdIsa::Scalar);
        assert_eq!(active_isa(), outer);
    }

    #[test]
    fn names_are_stable() {
        // Bench artifacts and CI gates key on these strings.
        assert_eq!(SimdIsa::Scalar.name(), "scalar");
        assert_eq!(SimdIsa::Avx2Fma.name(), "avx2+fma");
        assert_eq!(SimdIsa::Avx512.name(), "avx512");
    }
}
