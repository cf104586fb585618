//! Rectified linear unit.

use crate::vecops;
use crate::Result;
use bnff_parallel::{min_items_per_thread, parallel_rows_mut};
use bnff_tensor::{active_isa, Tensor};

/// ReLU forward pass: `y = max(x, 0)`.
pub fn relu_forward(x: &Tensor) -> Tensor {
    let mut y = Tensor::zeros(x.shape().clone());
    relu_forward_into(x, &mut y).expect("freshly allocated output matches the input shape");
    y
}

/// ReLU forward pass into a caller-provided output tensor (one read sweep,
/// one write sweep, no intermediate copy). Every element of `out` is
/// overwritten.
///
/// # Errors
/// Returns an error if the shapes differ.
pub fn relu_forward_into(x: &Tensor, out: &mut Tensor) -> Result<()> {
    x.shape().expect_same(out.shape())?;
    let src = x.as_slice();
    // Resolve the ISA on the caller's thread: pool workers don't inherit the
    // caller's `with_isa` override. The clip is bit-identical on both paths,
    // so arbitrary worker chunk boundaries are safe.
    let isa = active_isa();
    parallel_rows_mut(out.as_mut_slice(), 1, min_items_per_thread(1), |offset, chunk| {
        let len = chunk.len();
        vecops::relu_into(isa, &src[offset..offset + len], chunk);
    });
    Ok(())
}

/// ReLU forward pass in place.
pub fn relu_forward_inplace(x: &mut Tensor) {
    let isa = active_isa();
    parallel_rows_mut(x.as_mut_slice(), 1, min_items_per_thread(1), |_, chunk| {
        vecops::relu_inplace(isa, chunk);
    });
}

/// ReLU backward pass: `d_x = d_y ⊙ 1[x > 0]`.
///
/// The mask is taken from the *forward input* `x` (equivalently the forward
/// output, since both share the same sign pattern on the positive side).
///
/// # Errors
/// Returns an error if the shapes differ.
pub fn relu_backward(d_y: &Tensor, x: &Tensor) -> Result<Tensor> {
    let mut d_x = d_y.clone();
    relu_backward_inplace(&mut d_x, x)?;
    Ok(d_x)
}

/// [`relu_backward`] in place on the gradient: `grad` is zeroed wherever
/// `x > 0` fails (NaN activations block the gradient, matching the forward
/// clip `NaN.max(0.0) == 0.0`). Branch-free and bit-identical on both ISAs,
/// so arbitrary worker chunk boundaries are safe.
///
/// # Errors
/// Returns an error if the shapes differ.
pub fn relu_backward_inplace(grad: &mut Tensor, x: &Tensor) -> Result<()> {
    grad.shape().expect_same(x.shape())?;
    let mask = x.as_slice();
    let isa = active_isa();
    parallel_rows_mut(grad.as_mut_slice(), 1, min_items_per_thread(1), |offset, chunk| {
        let len = chunk.len();
        vecops::relu_mask(isa, chunk, &mask[offset..offset + len]);
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_tensor::{Shape, Tensor};

    #[test]
    fn clips_negatives() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0, -3.5]);
        let y = relu_forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let mut z = x.clone();
        relu_forward_inplace(&mut z);
        assert_eq!(z, y);
    }

    #[test]
    fn backward_masks_gradient() {
        let x = Tensor::from_slice(&[-1.0, 0.5, 0.0, 3.0]);
        let d_y = Tensor::from_slice(&[10.0, 10.0, 10.0, 10.0]);
        let d_x = relu_backward(&d_y, &x).unwrap();
        assert_eq!(d_x.as_slice(), &[0.0, 10.0, 0.0, 10.0]);
    }

    #[test]
    fn backward_shape_mismatch() {
        let x = Tensor::zeros(Shape::vector(4));
        let d_y = Tensor::zeros(Shape::vector(5));
        assert!(relu_backward(&d_y, &x).is_err());
    }

    #[test]
    fn into_variant_overwrites_recycled_buffers() {
        let x = Tensor::from_slice(&[-1.0, 0.5, -2.0, 3.0]);
        let mut out = Tensor::from_slice(&[9.0, 9.0, 9.0, 9.0]);
        relu_forward_into(&x, &mut out).unwrap();
        assert_eq!(out.as_slice(), relu_forward(&x).as_slice());
        let mut bad = Tensor::zeros(Shape::vector(5));
        assert!(relu_forward_into(&x, &mut bad).is_err());
    }

    #[test]
    fn idempotent_forward() {
        let x = Tensor::from_slice(&[-2.0, 4.0]);
        let once = relu_forward(&x);
        let twice = relu_forward(&once);
        assert_eq!(once, twice);
    }
}
