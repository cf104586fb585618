//! Element-wise sum (ResNet shortcut join).

use crate::error::KernelError;
use crate::vecops;
use crate::Result;
use bnff_parallel::{min_items_per_thread, parallel_rows_mut};
use bnff_tensor::{active_isa, Tensor};

/// Element-wise sum of any number of equally shaped tensors, computed in a
/// single parallel sweep over the output (each worker accumulates all
/// inputs for its chunk, in input order).
///
/// # Errors
/// Returns an error when no inputs are given or shapes differ.
pub fn eltwise_sum_forward(inputs: &[&Tensor]) -> Result<Tensor> {
    let first = inputs
        .first()
        .ok_or_else(|| KernelError::InvalidArgument("element-wise sum needs inputs".to_string()))?;
    let mut out = Tensor::zeros(first.shape().clone());
    eltwise_sum_forward_into(inputs, &mut out)?;
    Ok(out)
}

/// [`eltwise_sum_forward`] into a caller-provided output tensor (the first
/// input is written, the rest accumulate, in one sweep — no intermediate
/// copy). Every element of `out` is overwritten.
///
/// # Errors
/// Returns an error when no inputs are given or shapes differ.
pub fn eltwise_sum_forward_into(inputs: &[&Tensor], out: &mut Tensor) -> Result<()> {
    let first = inputs
        .first()
        .ok_or_else(|| KernelError::InvalidArgument("element-wise sum needs inputs".to_string()))?;
    for t in inputs {
        first.shape().expect_same(t.shape())?;
    }
    first.shape().expect_same(out.shape())?;
    let base = first.as_slice();
    // Resolved on the caller's thread (workers don't inherit `with_isa`);
    // element-wise adds are bit-identical across ISAs, so worker chunk
    // boundaries are free to move with the thread count.
    let isa = active_isa();
    parallel_rows_mut(out.as_mut_slice(), 1, min_items_per_thread(1), |offset, chunk| {
        let len = chunk.len();
        chunk.copy_from_slice(&base[offset..offset + len]);
        for t in &inputs[1..] {
            vecops::add_assign(isa, chunk, &t.as_slice()[offset..offset + len]);
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_tensor::{Shape, Tensor};

    #[test]
    fn sums_inputs() {
        let a = Tensor::filled(Shape::vector(4), 1.0);
        let b = Tensor::filled(Shape::vector(4), 2.0);
        let c = Tensor::filled(Shape::vector(4), 3.0);
        let y = eltwise_sum_forward(&[&a, &b, &c]).unwrap();
        assert_eq!(y.as_slice(), &[6.0; 4]);
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert!(eltwise_sum_forward(&[]).is_err());
        let a = Tensor::zeros(Shape::vector(4));
        let b = Tensor::zeros(Shape::vector(5));
        assert!(eltwise_sum_forward(&[&a, &b]).is_err());
    }

    #[test]
    fn into_variant_overwrites_recycled_buffers() {
        let a = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let b = Tensor::from_slice(&[0.5, 0.5, 0.5]);
        let mut out = Tensor::from_slice(&[9.0, 9.0, 9.0]);
        eltwise_sum_forward_into(&[&a, &b], &mut out).unwrap();
        assert_eq!(out.as_slice(), eltwise_sum_forward(&[&a, &b]).unwrap().as_slice());
        let mut bad = Tensor::zeros(Shape::vector(4));
        assert!(eltwise_sum_forward_into(&[&a, &b], &mut bad).is_err());
        assert!(eltwise_sum_forward_into(&[], &mut out).is_err());
    }
}
