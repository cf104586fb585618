//! Property-based tests for the tensor substrate.
//!
//! The key invariant for the paper's Mean/Variance Fusion is that the
//! one-pass `E[X²] − E[X]²` statistics agree with the two-pass and Welford
//! statistics for realistic activation magnitudes, so that the restructured
//! BN layer normalizes with the same mean/variance as the baseline.

use bnff_tensor::stats::{
    channel_stats_one_pass, channel_stats_two_pass, channel_stats_welford, ChannelAccumulator,
};
use bnff_tensor::{ops, Shape, Tensor};
use proptest::prelude::*;

fn small_nchw() -> impl Strategy<Value = Shape> {
    (1usize..5, 1usize..5, 1usize..7, 1usize..7).prop_map(|(n, c, h, w)| Shape::nchw(n, c, h, w))
}

fn tensor_with_shape(shape: Shape) -> impl Strategy<Value = Tensor> {
    let volume = shape.volume();
    prop::collection::vec(-10.0f32..10.0, volume)
        .prop_map(move |data| Tensor::from_vec(shape.clone(), data).unwrap())
}

fn arb_tensor() -> impl Strategy<Value = Tensor> {
    small_nchw().prop_flat_map(tensor_with_shape)
}

proptest! {
    #[test]
    fn one_pass_matches_two_pass(x in arb_tensor()) {
        let one = channel_stats_one_pass(&x).unwrap();
        let two = channel_stats_two_pass(&x).unwrap();
        prop_assert!(one.max_abs_diff(&two).unwrap() < 1e-3);
    }

    #[test]
    fn welford_matches_two_pass(x in arb_tensor()) {
        let wel = channel_stats_welford(&x).unwrap();
        let two = channel_stats_two_pass(&x).unwrap();
        prop_assert!(wel.max_abs_diff(&two).unwrap() < 1e-3);
    }

    #[test]
    fn variance_is_never_negative(x in arb_tensor()) {
        let one = channel_stats_one_pass(&x).unwrap();
        for v in &one.var {
            prop_assert!(*v >= 0.0);
        }
    }

    #[test]
    fn accumulator_split_merge_is_associative(x in arb_tensor()) {
        let c = x.shape().c();
        let n = x.shape().n();
        let plane_elems = x.shape().h() * x.shape().w();
        let full = channel_stats_one_pass(&x).unwrap();

        let mut left = ChannelAccumulator::new(c);
        let mut right = ChannelAccumulator::new(c);
        for ni in 0..n {
            let target = if ni % 2 == 0 { &mut left } else { &mut right };
            target.push_sample(&x.as_slice()[ni * c * plane_elems..][..c * plane_elems]);
            target.add_count(plane_elems);
        }
        left.merge(&right).unwrap();
        let merged = left.finalize().unwrap();
        prop_assert!(full.max_abs_diff(&merged).unwrap() < 1e-3);
    }

    #[test]
    fn add_commutes(x in arb_tensor()) {
        let y = x.map(|v| v * 0.5 + 1.0);
        let a = ops::add(&x, &y).unwrap();
        let b = ops::add(&y, &x).unwrap();
        prop_assert!(a.all_close(&b, 1e-6).unwrap());
    }

    #[test]
    fn axpy_matches_scaled_add(x in arb_tensor(), alpha in -2.0f32..2.0) {
        let y = x.map(|v| v - 3.0);
        let mut via_axpy = y.clone();
        ops::axpy(alpha, &x, &mut via_axpy).unwrap();
        let via_ops = ops::add(&y, &ops::scaled(&x, alpha)).unwrap();
        prop_assert!(via_axpy.all_close(&via_ops, 1e-4).unwrap());
    }

    #[test]
    fn reshape_preserves_sum(x in arb_tensor()) {
        let flat = x.reshape(vec![x.len()]).unwrap();
        prop_assert!((flat.sum() - x.sum()).abs() < 1e-6);
    }

    #[test]
    fn offsets_are_unique_and_dense(shape in small_nchw()) {
        let mut seen = vec![false; shape.volume()];
        for n in 0..shape.n() {
            for c in 0..shape.c() {
                for h in 0..shape.h() {
                    for w in 0..shape.w() {
                        let off = shape.offset4(n, c, h, w);
                        prop_assert!(off < seen.len());
                        prop_assert!(!seen[off]);
                        seen[off] = true;
                    }
                }
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }
}
