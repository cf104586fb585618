//! Proof, independent of host speed, that the in-place paths engaged: a
//! multiply whose `B` is read where it lies takes no `B` slab from the
//! packing pool, so the pool's take counter moves by the `A`-panel takes
//! alone, and a weight gradient correlated over windows read in place packs
//! nothing at all. One test in its own binary — the counter is
//! process-wide, and no other test may pack while the deltas are read.

use bnff_graph::op::Conv2dAttrs;
use bnff_kernels::conv::{conv2d_backward_weights, conv2d_forward};
use bnff_kernels::gemm::{gemm, pack_pool_reuse, NR};
use bnff_tensor::{Shape, Tensor};

/// How many buffers `f` took from the packing pool, and what it returned.
fn takes<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let (_, before) = pack_pool_reuse();
    let out = f();
    (pack_pool_reuse().1 - before, out)
}

#[test]
fn in_place_operands_take_no_b_slab() {
    // Every shape below is one `MC` row block, one `NC` column slab and one
    // `KC` depth slab: a multiply takes one buffer for `A`'s panels, plus
    // one for `B` exactly when some strip of it is packed.
    let (m, k) = (12, 20);
    let a = vec![0.5f32; m * k];
    let plain = |n: usize| {
        let b = vec![0.25f32; k * n];
        let mut c = vec![0.0f32; m * n];
        takes(|| gemm(m, n, k, 1.0, &a, &b, 0.0, &mut c).unwrap()).0
    };
    assert_eq!(plain(2 * NR), 1, "whole strips of a row-major B are read in place");
    assert_eq!(plain(2 * NR + 5), 2, "a ragged last strip is packed");
    assert_eq!(plain(NR - 1), 2, "no whole strip: all of B is packed");

    // `(forward, weight gradient)` takes of one three-sample convolution.
    let conv = |attrs: Conv2dAttrs, (h, w): (usize, usize)| {
        let x = Tensor::ones(Shape::nchw(3, 4, h, w));
        let weights = Tensor::ones(Shape::nchw(5, 4, attrs.kernel_h, attrs.kernel_w));
        let (forward, d_out) = takes(|| conv2d_forward(&x, &weights, None, &attrs).unwrap());
        (forward, takes(|| conv2d_backward_weights(&x, &d_out, &attrs, false).unwrap()).0)
    };
    // The weights' panels are packed once per call, not once per sample;
    // the weight gradient is a correlation of two operands where they lie.
    assert_eq!(conv(Conv2dAttrs::same_3x3(5), (8, 16)), (1, 0), "padded 3×3, out_w = 16");
    assert_eq!(conv(Conv2dAttrs::new(5, 3, 1, 0), (6, 10)), (1, 0), "valid 3×3, out_w = 8");
    assert_eq!(conv(Conv2dAttrs::pointwise(5), (4, 8)), (1, 0), "pointwise, n = 32");
    // The packer still serves what cannot be read in place: one B slab per
    // sample for a strided convolution and for a ragged output width, and
    // per sample of their weight gradient `d_out_n`'s panels and a slab of
    // transposed windows.
    assert_eq!(conv(Conv2dAttrs::new(5, 3, 2, 1), (8, 16)), (1 + 3, 2 * 3), "stride 2");
    assert_eq!(conv(Conv2dAttrs::same_3x3(5), (8, 12)), (1 + 3, 2 * 3), "out_w = 12");
}
