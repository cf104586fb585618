//! The dense, contiguous, row-major `f32` tensor.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::Result;

/// A dense, contiguous, row-major tensor of `f32` values.
///
/// All feature maps, weights and gradients in the bnff workspace are stored
/// in this type. The layout is row-major over the shape's dimensions; for
/// 4-D shapes this is the classic `NCHW` layout used by MKL-DNN and cuDNN in
/// the paper's reference implementation.
///
/// ```rust
/// use bnff_tensor::{Shape, Tensor};
/// let mut t = Tensor::zeros(Shape::nchw(1, 2, 2, 2));
/// *t.at_mut(0, 1, 1, 1) = 3.0;
/// assert_eq!(t.at(0, 1, 1, 1), 3.0);
/// assert_eq!(t.len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: Shape) -> Self {
        let volume = shape.volume();
        Tensor { shape, data: vec![0.0; volume] }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: Shape) -> Self {
        Self::filled(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn filled(shape: Shape, value: f32) -> Self {
        let volume = shape.volume();
        Tensor { shape, data: vec![value; volume] }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the shape's volume.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self> {
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch { expected: shape.volume(), got: data.len() });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { shape: Shape::vector(data.len()), data: data.to_vec() }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying buffer as an immutable slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying buffer as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access by 4-D index.
    ///
    /// # Panics
    /// Panics in debug builds if the shape is not 4-D or the index is out of
    /// bounds.
    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.offset4(n, c, h, w)]
    }

    /// Mutable element access by 4-D index.
    ///
    /// # Panics
    /// Panics in debug builds if the shape is not 4-D or the index is out of
    /// bounds.
    #[inline]
    pub fn at_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let idx = self.shape.offset4(n, c, h, w);
        &mut self.data[idx]
    }

    /// Element access by linear index.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] for an out-of-range index.
    pub fn get(&self, index: usize) -> Result<f32> {
        self.data
            .get(index)
            .copied()
            .ok_or(TensorError::IndexOutOfBounds { index, len: self.data.len() })
    }

    /// Sets the element at a linear index.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] for an out-of-range index.
    pub fn set(&mut self, index: usize, value: f32) -> Result<()> {
        let len = self.data.len();
        match self.data.get_mut(index) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(TensorError::IndexOutOfBounds { index, len }),
        }
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Returns a new tensor with the same data and a different shape.
    ///
    /// # Errors
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, dims: Vec<usize>) -> Result<Tensor> {
        let shape = self.shape.reshaped(dims)?;
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        self.data.iter_mut().for_each(|x| *x = f(*x));
    }

    /// Element-wise combination of two tensors of identical shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub(crate) fn zip_map<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Result<Tensor> {
        self.shape.expect_same(&other.shape)?;
        let data = self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Ok(Tensor { shape: self.shape.clone(), data })
    }

    /// Immutable view of one sample's one channel (a contiguous `H×W` plane)
    /// of a 4-D tensor.
    ///
    /// # Panics
    /// Panics if the shape is not 4-D or the indices are out of bounds.
    pub fn channel_plane(&self, n: usize, c: usize) -> &[f32] {
        let h = self.shape.h();
        let w = self.shape.w();
        let start = self.shape.offset4(n, c, 0, 0);
        &self.data[start..start + h * w]
    }

    /// Mutable view of one sample's one channel plane of a 4-D tensor.
    ///
    /// # Panics
    /// Panics if the shape is not 4-D or the indices are out of bounds.
    pub fn channel_plane_mut(&mut self, n: usize, c: usize) -> &mut [f32] {
        let h = self.shape.h();
        let w = self.shape.w();
        let start = self.shape.offset4(n, c, 0, 0);
        &mut self.data[start..start + h * w]
    }

    /// Sum of all elements (f64 accumulation for robustness).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| f64::from(x)).sum()
    }

    /// Mean of all elements.
    ///
    /// Returns 0.0 for an empty tensor.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum element, or `None` for an empty tensor.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().fold(None, |acc, x| match acc {
            None => Some(x),
            Some(m) => Some(m.max(x)),
        })
    }

    /// Minimum element, or `None` for an empty tensor.
    pub fn min(&self) -> Option<f32> {
        self.data.iter().copied().fold(None, |acc, x| match acc {
            None => Some(x),
            Some(m) => Some(m.min(x)),
        })
    }

    /// Largest absolute difference between two tensors of identical shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        self.shape.expect_same(&other.shape)?;
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }

    /// Checks that every element of `self` is within `tol` of `other`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn all_close(&self, other: &Tensor, tol: f32) -> Result<bool> {
        Ok(self.max_abs_diff(other)? <= tol)
    }

    /// Squared L2 norm of the tensor.
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&x| f64::from(x) * f64::from(x)).sum()
    }

    /// Number of bytes occupied by the element data.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(Shape::scalar())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_fill() {
        let mut t = Tensor::zeros(Shape::nchw(2, 2, 2, 2));
        assert_eq!(t.len(), 16);
        assert_eq!(t.sum(), 0.0);
        t.fill(2.0);
        assert_eq!(t.sum(), 32.0);
        assert_eq!(t.mean(), 2.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(Shape::vector(3), vec![1.0, 2.0, 3.0]).is_ok());
        assert!(matches!(
            Tensor::from_vec(Shape::vector(4), vec![1.0, 2.0, 3.0]),
            Err(TensorError::LengthMismatch { expected: 4, got: 3 })
        ));
    }

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor::zeros(Shape::nchw(2, 3, 4, 5));
        let mut v = 0.0;
        for n in 0..2 {
            for c in 0..3 {
                for h in 0..4 {
                    for w in 0..5 {
                        *t.at_mut(n, c, h, w) = v;
                        v += 1.0;
                    }
                }
            }
        }
        // Row-major means the last written value lands at the end of the buffer.
        assert_eq!(t.as_slice()[t.len() - 1], v - 1.0);
        assert_eq!(t.at(1, 2, 3, 4), v - 1.0);
    }

    #[test]
    fn get_set_bounds() {
        let mut t = Tensor::zeros(Shape::vector(4));
        assert!(t.set(3, 7.0).is_ok());
        assert_eq!(t.get(3).unwrap(), 7.0);
        assert!(t.get(4).is_err());
        assert!(t.set(4, 1.0).is_err());
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::filled(Shape::vector(4), 2.0);
        let b = Tensor::filled(Shape::vector(4), 3.0);
        let doubled = a.map(|x| x * 2.0);
        assert_eq!(doubled.as_slice(), &[4.0, 4.0, 4.0, 4.0]);
        let sum = a.zip_map(&b, |x, y| x + y).unwrap();
        assert_eq!(sum.as_slice(), &[5.0, 5.0, 5.0, 5.0]);
        let mismatched = Tensor::filled(Shape::vector(5), 1.0);
        assert!(a.zip_map(&mismatched, |x, y| x + y).is_err());
    }

    #[test]
    fn channel_plane_views() {
        let mut t = Tensor::zeros(Shape::nchw(2, 2, 2, 2));
        t.channel_plane_mut(1, 1).iter_mut().for_each(|x| *x = 5.0);
        assert_eq!(t.channel_plane(1, 1), &[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(t.channel_plane(0, 0), &[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(t.sum(), 20.0);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[-1.0, 4.0, 2.0, -7.0]);
        assert_eq!(t.max(), Some(4.0));
        assert_eq!(t.min(), Some(-7.0));
        assert_eq!(t.sum(), -2.0);
        assert!((t.sq_norm() - (1.0 + 16.0 + 4.0 + 49.0)).abs() < 1e-9);
        let empty = Tensor::zeros(Shape::vector(0));
        assert_eq!(empty.max(), None);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn closeness_checks() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[1.0, 2.001, 3.0]);
        assert!(a.all_close(&b, 0.01).unwrap());
        assert!(!a.all_close(&b, 0.0001).unwrap());
        assert!((a.max_abs_diff(&b).unwrap() - 0.001).abs() < 1e-6);
    }

    #[test]
    fn reshape_checks_volume() {
        let t = Tensor::zeros(Shape::nchw(2, 3, 4, 5));
        let r = t.reshape(vec![6, 20]).unwrap();
        assert_eq!(r.shape().rank(), 2);
        assert!(t.reshape(vec![5, 5]).is_err());
    }

    #[test]
    fn bytes_accounting() {
        let t = Tensor::zeros(Shape::nchw(1, 2, 3, 4));
        assert_eq!(t.bytes(), 24 * 4);
    }

    #[test]
    fn default_is_scalar_zero() {
        let t = Tensor::default();
        assert_eq!(t.len(), 1);
        assert_eq!(t.as_slice()[0], 0.0);
    }
}
