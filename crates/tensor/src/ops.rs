//! Element-wise and reduction operations on tensors.
//!
//! These are the simple numerical helpers shared by the kernels and the
//! training loop: AXPY-style updates, element-wise arithmetic, scaling and
//! per-sample argmax for classification accuracy.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::Result;
use bnff_parallel::{min_items_per_thread, parallel_rows_mut};

/// `out = a + b`, element-wise.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    a.zip_map(b, |x, y| x + y)
}

/// `out = a - b`, element-wise.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    a.zip_map(b, |x, y| x - y)
}

/// `a += b`, element-wise, in place.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn add_assign(a: &mut Tensor, b: &Tensor) -> Result<()> {
    a.shape().expect_same(b.shape())?;
    let src = b.as_slice();
    parallel_rows_mut(a.as_mut_slice(), 1, min_items_per_thread(1), |offset, chunk| {
        let len = chunk.len();
        for (x, y) in chunk.iter_mut().zip(&src[offset..offset + len]) {
            *x += *y;
        }
    });
    Ok(())
}

/// `y += alpha * x`, the classic AXPY update used by SGD.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn axpy(alpha: f32, x: &Tensor, y: &mut Tensor) -> Result<()> {
    y.shape().expect_same(x.shape())?;
    let src = x.as_slice();
    parallel_rows_mut(y.as_mut_slice(), 1, min_items_per_thread(1), |offset, chunk| {
        let len = chunk.len();
        for (yi, xi) in chunk.iter_mut().zip(&src[offset..offset + len]) {
            *yi += alpha * *xi;
        }
    });
    Ok(())
}

/// Scales every element of `t` by `alpha` in place.
pub fn scale(t: &mut Tensor, alpha: f32) {
    t.map_inplace(|x| x * alpha);
}

/// Returns a scaled copy of `t`.
pub fn scaled(t: &Tensor, alpha: f32) -> Tensor {
    t.map(|x| x * alpha)
}

/// Dot product of two tensors viewed as flat vectors.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn dot(a: &Tensor, b: &Tensor) -> Result<f64> {
    a.shape().expect_same(b.shape())?;
    Ok(a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum())
}

/// Per-sample argmax for an `N × K` score matrix (or an `N × K × 1 × 1`
/// feature map), as used to compute classification accuracy.
///
/// # Errors
/// Returns [`TensorError::InvalidShape`] if the tensor cannot be viewed as
/// `N × K`.
pub fn argmax_rows(scores: &Tensor, classes: usize) -> Result<Vec<usize>> {
    let volume = scores.len();
    if classes == 0 || !volume.is_multiple_of(classes) {
        return Err(TensorError::InvalidShape {
            reason: format!("cannot view {volume} elements as rows of {classes} classes"),
            shape: scores.shape().clone(),
        });
    }
    let rows = volume / classes;
    let data = scores.as_slice();
    let mut result = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = &data[r * classes..(r + 1) * classes];
        let mut best = 0usize;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        result.push(best);
    }
    Ok(result)
}

/// Clips every element into `[lo, hi]` in place.
///
/// # Errors
/// Returns [`TensorError::InvalidArgument`] when `lo > hi`.
pub fn clamp(t: &mut Tensor, lo: f32, hi: f32) -> Result<()> {
    if lo > hi {
        return Err(TensorError::InvalidArgument(format!("clamp bounds inverted: {lo} > {hi}")));
    }
    t.map_inplace(|x| x.clamp(lo, hi));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    fn t(values: &[f32]) -> Tensor {
        Tensor::from_slice(values)
    }

    #[test]
    fn add_sub_mul() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(add(&a, &b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(sub(&b, &a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[1.0, 2.0, 3.0]);
        assert!(add(&a, &b).is_err());
        assert!(dot(&a, &b).is_err());
    }

    #[test]
    fn axpy_and_add_assign() {
        let x = t(&[1.0, 1.0, 1.0]);
        let mut y = t(&[1.0, 2.0, 3.0]);
        axpy(0.5, &x, &mut y).unwrap();
        assert_eq!(y.as_slice(), &[1.5, 2.5, 3.5]);
        add_assign(&mut y, &x).unwrap();
        assert_eq!(y.as_slice(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn scaling() {
        let mut a = t(&[2.0, 4.0]);
        scale(&mut a, 0.5);
        assert_eq!(a.as_slice(), &[1.0, 2.0]);
        assert_eq!(scaled(&a, 3.0).as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn dot_product() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(dot(&a, &b).unwrap(), 32.0);
    }

    #[test]
    fn argmax_rows_basic() {
        let scores =
            Tensor::from_vec(Shape::matrix(2, 3), vec![0.1, 0.7, 0.2, 0.9, 0.05, 0.05]).unwrap();
        assert_eq!(argmax_rows(&scores, 3).unwrap(), vec![1, 0]);
    }

    #[test]
    fn argmax_rows_invalid_classes() {
        let scores = t(&[1.0, 2.0, 3.0]);
        assert!(argmax_rows(&scores, 2).is_err());
        assert!(argmax_rows(&scores, 0).is_err());
    }

    #[test]
    fn clamp_bounds() {
        let mut a = t(&[-2.0, 0.5, 3.0]);
        clamp(&mut a, 0.0, 1.0).unwrap();
        assert_eq!(a.as_slice(), &[0.0, 0.5, 1.0]);
        assert!(clamp(&mut a, 2.0, 1.0).is_err());
    }
}
