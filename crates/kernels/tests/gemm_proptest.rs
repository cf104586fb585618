//! Property tests for the cache-blocked packed GEMM: for ragged shapes that
//! straddle every blocking edge (`MR`/`NR` microtiles, `MC` row blocks,
//! `KC` slabs — none of them multiples of each other), all three transpose
//! variants must agree with a naive triple-loop reference, including the
//! degenerate 1×1 and `K = 0` cases; and a `B` read in place must give the
//! bits a packed `B` gives.

use bnff_kernels::gemm::{gemm, gemm_nt, gemm_streaming, gemm_tn, KC, MC, MR, NR};
use proptest::prelude::*;

/// Deterministic pseudo-random data in `[-0.5, 0.5)` from a shape seed, so
/// the operand contents vary per case without needing a flat-mapped
/// `Vec` strategy.
fn data(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            for kk in 0..k {
                c[i * n + j] += a[i * k + kk] * b[kk * n + j];
            }
        }
    }
    c
}

fn transpose(rows: usize, cols: usize, x: &[f32]) -> Vec<f32> {
    let mut t = vec![0.0; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = x[r * cols + c];
        }
    }
    t
}

/// Accumulated-rounding tolerance: the packed kernel reassociates the `k`
/// sum (register tiles, `KC` slabs), so the bound scales with the depth.
fn tol(k: usize) -> f32 {
    1e-5 * (k.max(8) as f32)
}

fn assert_close(label: &str, m: usize, n: usize, k: usize, got: &[f32], want: &[f32]) {
    for (i, (x, y)) in got.iter().zip(want.iter()).enumerate() {
        assert!((x - y).abs() <= tol(k), "{label} {m}x{n}x{k} at {i}: blocked {x} vs naive {y}");
    }
}

proptest! {
    #[test]
    fn blocked_gemm_matches_naive_on_ragged_shapes(
        case in (1usize..MC + MR + 2, 1usize..3 * NR + 4, 0usize..KC + 45, 0usize..1_000_000)
    ) {
        let (m, n, k, seed) = (case.0, case.1, case.2, case.3 as u64);
        let a = data(m * k, seed);
        let b = data(k * n, seed ^ 0xABCD);
        let reference = naive(m, n, k, &a, &b);
        let mut c = vec![0.0; m * n];
        gemm(m, n, k, 1.0, &a, &b, 0.0, &mut c).unwrap();
        assert_close("gemm", m, n, k, &c, &reference);
    }

    #[test]
    fn alpha_beta_accumulation_matches_naive(
        case in (1usize..MC + 3, 1usize..2 * NR + 3, 0usize..KC + 9, 0usize..1_000_000)
    ) {
        let (m, n, k, seed) = (case.0, case.1, case.2, case.3 as u64);
        let (alpha, beta) = (1.25f32, -0.5f32);
        let a = data(m * k, seed);
        let b = data(k * n, seed ^ 0x5A5A);
        let c0 = data(m * n, seed ^ 0x1234);
        let want: Vec<f32> = naive(m, n, k, &a, &b)
            .iter()
            .zip(c0.iter())
            .map(|(ab, c)| alpha * ab + beta * c)
            .collect();
        let mut c = c0.clone();
        gemm(m, n, k, alpha, &a, &b, beta, &mut c).unwrap();
        assert_close("gemm(alpha,beta)", m, n, k, &c, &want);
        // The retired streaming engine must satisfy the same contract.
        let mut c_stream = c0;
        gemm_streaming(m, n, k, alpha, &a, &b, beta, &mut c_stream).unwrap();
        assert_close("gemm_streaming", m, n, k, &c_stream, &want);
    }

    #[test]
    fn transpose_variants_match_naive_on_ragged_shapes(
        case in (1usize..MC + MR + 2, 1usize..3 * NR + 4, 0usize..KC + 45, 0usize..1_000_000)
    ) {
        let (m, n, k, seed) = (case.0, case.1, case.2, case.3 as u64);
        let a = data(m * k, seed);
        let b = data(k * n, seed ^ 0xF00D);
        let reference = naive(m, n, k, &a, &b);

        // gemm_nt consumes b stored transposed (n × k).
        let bt = transpose(k, n, &b);
        let mut c_nt = vec![f32::NAN; m * n];
        gemm_nt(m, n, k, &a, &bt, &mut c_nt).unwrap();
        assert_close("gemm_nt", m, n, k, &c_nt, &reference);

        // gemm_tn consumes a stored transposed (k × m).
        let at = transpose(m, k, &a);
        let mut c_tn = vec![f32::NAN; m * n];
        gemm_tn(m, n, k, &at, &b, &mut c_tn).unwrap();
        assert_close("gemm_tn", m, n, k, &c_tn, &reference);
    }
}

proptest! {
    /// A row-major `B` under a short `A` is read where it lies. Per `C`
    /// element that must change nothing: the same products in the same
    /// order as the packed path, which `gemm_nt` on the transposed storage
    /// always takes (a transposed `B` has no contiguous rows) — bit for
    /// bit, for whole-strip widths, for a ragged width (whose last strip is
    /// packed beside the in-place ones) and for `k` on both sides of `KC` —
    /// and within the file's tolerance of the streaming engine.
    #[test]
    fn in_place_b_is_bit_identical_to_packed_b(
        case in (1usize..6 * MR + 1, NR..4 * NR, KC - 20..KC + 45, 0usize..1_000_000)
    ) {
        let (m, width, k, seed) = (case.0, case.1, case.2, case.3 as u64);
        let a = data(m * k, seed);
        let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for n in [width - width % NR, width] {
            let b = data(k * n, seed ^ 0xBEEF);
            let mut in_place = vec![f32::NAN; m * n];
            gemm(m, n, k, 1.0, &a, &b, 0.0, &mut in_place).unwrap();
            let mut packed = vec![f32::NAN; m * n];
            gemm_nt(m, n, k, &a, &transpose(k, n, &b), &mut packed).unwrap();
            assert_eq!(bits(&in_place), bits(&packed), "{m}x{n}x{k}");
            let mut streamed = vec![0.0; m * n];
            gemm_streaming(m, n, k, 1.0, &a, &b, 0.0, &mut streamed).unwrap();
            assert_close("in-place gemm vs streaming", m, n, k, &in_place, &streamed);
        }
    }
}

/// The degenerate edges the strategy only hits probabilistically are pinned
/// explicitly: a 1×1×1 multiply and the `K = 0` contract (pure `beta`
/// scaling for `gemm`, zeroing for the overwrite variants).
#[test]
fn unit_and_empty_reduction_edges() {
    let mut c = vec![0.5f32];
    gemm(1, 1, 1, 2.0, &[3.0], &[4.0], 1.0, &mut c).unwrap();
    assert_eq!(c, vec![24.5]);

    let mut c = vec![2.0f32, -4.0];
    gemm(1, 2, 0, 1.0, &[], &[], 0.5, &mut c).unwrap();
    assert_eq!(c, vec![1.0, -2.0]);

    let mut c = vec![f32::NAN; 2];
    gemm_nt(2, 1, 0, &[], &[], &mut c).unwrap();
    assert_eq!(c, vec![0.0, 0.0]);
    let mut c = vec![f32::NAN; 2];
    gemm_tn(1, 2, 0, &[], &[], &mut c).unwrap();
    assert_eq!(c, vec![0.0, 0.0]);
}
