//! Tensor shapes.
//!
//! A [`Shape`] is an ordered list of dimension extents. The crate is built
//! around 4-D `N × C × H × W` feature maps (mini-batch, channels, height,
//! width) because that is the layout the paper's layers operate on, but
//! shapes of any rank are supported (weights of a fully-connected layer are
//! 2-D, per-channel parameter vectors are 1-D).

use crate::error::TensorError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An ordered list of dimension extents.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from an explicit list of dimensions.
    ///
    /// ```rust
    /// use bnff_tensor::Shape;
    /// let s = Shape::new(vec![2, 3]);
    /// assert_eq!(s.rank(), 2);
    /// assert_eq!(s.volume(), 6);
    /// ```
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Creates a 4-D `N × C × H × W` feature-map shape.
    ///
    /// ```rust
    /// use bnff_tensor::Shape;
    /// let s = Shape::nchw(120, 64, 56, 56);
    /// assert_eq!(s.n(), 120);
    /// assert_eq!(s.c(), 64);
    /// ```
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape { dims: vec![n, c, h, w] }
    }

    /// Creates a 2-D `rows × cols` matrix shape.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape { dims: vec![rows, cols] }
    }

    /// Creates a 1-D vector shape.
    pub fn vector(len: usize) -> Self {
        Shape { dims: vec![len] }
    }

    /// Creates a scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape { dims: vec![] }
    }

    /// The number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The total number of elements described by this shape.
    ///
    /// A rank-0 (scalar) shape has volume 1.
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// The number of bytes occupied by a single-precision tensor of this
    /// shape.
    pub fn bytes_f32(&self) -> usize {
        self.volume() * std::mem::size_of::<f32>()
    }

    /// Returns the extent of dimension `axis`.
    ///
    /// # Errors
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize, TensorError> {
        self.dims.get(axis).copied().ok_or(TensorError::AxisOutOfRange { axis, rank: self.rank() })
    }

    /// Returns `true` when this is a 4-D shape.
    pub fn is_nchw(&self) -> bool {
        self.rank() == 4
    }

    /// Mini-batch size of a 4-D shape.
    ///
    /// # Panics
    /// Panics if the shape is not 4-D; use [`Shape::dim`] for fallible
    /// access.
    pub fn n(&self) -> usize {
        assert!(self.is_nchw(), "n() requires a 4-D NCHW shape, got {self}");
        self.dims[0]
    }

    /// Channel count of a 4-D shape.
    ///
    /// # Panics
    /// Panics if the shape is not 4-D.
    pub fn c(&self) -> usize {
        assert!(self.is_nchw(), "c() requires a 4-D NCHW shape, got {self}");
        self.dims[1]
    }

    /// Spatial height of a 4-D shape.
    ///
    /// # Panics
    /// Panics if the shape is not 4-D.
    pub fn h(&self) -> usize {
        assert!(self.is_nchw(), "h() requires a 4-D NCHW shape, got {self}");
        self.dims[2]
    }

    /// Spatial width of a 4-D shape.
    ///
    /// # Panics
    /// Panics if the shape is not 4-D.
    pub fn w(&self) -> usize {
        assert!(self.is_nchw(), "w() requires a 4-D NCHW shape, got {self}");
        self.dims[3]
    }

    /// Row-major strides (in elements) for this shape.
    #[cfg(test)]
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0usize; self.rank()];
        let mut acc = 1usize;
        for (i, d) in self.dims.iter().enumerate().rev() {
            strides[i] = acc;
            acc *= d.max(&1).to_owned();
        }
        strides
    }

    /// Linear (row-major) offset of a 4-D index.
    ///
    /// # Panics
    /// Panics if the shape is not 4-D or the index is out of bounds in debug
    /// builds.
    #[inline]
    pub fn offset4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(self.is_nchw());
        debug_assert!(n < self.dims[0] && c < self.dims[1] && h < self.dims[2] && w < self.dims[3]);
        ((n * self.dims[1] + c) * self.dims[2] + h) * self.dims[3] + w
    }

    /// Validates that this shape equals `other`, returning a descriptive
    /// error otherwise.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn expect_same(&self, other: &Shape) -> Result<(), TensorError> {
        if self == other {
            Ok(())
        } else {
            Err(TensorError::ShapeMismatch { expected: self.clone(), got: other.clone() })
        }
    }

    /// Validates that this shape is 4-D.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidShape`] for non-4-D shapes.
    pub fn expect_nchw(&self) -> Result<(), TensorError> {
        if self.is_nchw() {
            Ok(())
        } else {
            Err(TensorError::InvalidShape {
                reason: "expected a 4-D NCHW shape".to_string(),
                shape: self.clone(),
            })
        }
    }

    /// Returns a new shape with the same volume but different dimensions.
    ///
    /// # Errors
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub(crate) fn reshaped(&self, dims: Vec<usize>) -> Result<Shape, TensorError> {
        let new = Shape::new(dims);
        if new.volume() == self.volume() {
            Ok(new)
        } else {
            Err(TensorError::LengthMismatch { expected: self.volume(), got: new.volume() })
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dims.is_empty() {
            return write!(f, "scalar");
        }
        let parts: Vec<String> = self.dims.iter().map(|d| d.to_string()).collect();
        write!(f, "{}", parts.join("x"))
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nchw_accessors() {
        let s = Shape::nchw(2, 3, 5, 7);
        assert_eq!(s.n(), 2);
        assert_eq!(s.c(), 3);
        assert_eq!(s.h(), 5);
        assert_eq!(s.w(), 7);
        assert_eq!(s.volume(), 2 * 3 * 5 * 7);
        assert_eq!(s.bytes_f32(), 4 * 2 * 3 * 5 * 7);
        assert!(s.is_nchw());
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::nchw(2, 3, 5, 7);
        assert_eq!(s.strides(), vec![3 * 5 * 7, 5 * 7, 7, 1]);
    }

    #[test]
    fn offset4_matches_strides() {
        let s = Shape::nchw(2, 3, 5, 7);
        let strides = s.strides();
        for n in 0..2 {
            for c in 0..3 {
                for h in 0..5 {
                    for w in 0..7 {
                        let expected = n * strides[0] + c * strides[1] + h * strides[2] + w;
                        assert_eq!(s.offset4(n, c, h, w), expected);
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_volume_is_one() {
        assert_eq!(Shape::scalar().volume(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
        assert_eq!(Shape::scalar().to_string(), "scalar");
    }

    #[test]
    fn dim_out_of_range_errors() {
        let s = Shape::matrix(2, 3);
        assert_eq!(s.dim(0).unwrap(), 2);
        assert_eq!(s.dim(1).unwrap(), 3);
        assert!(matches!(s.dim(2), Err(TensorError::AxisOutOfRange { axis: 2, rank: 2 })));
    }

    #[test]
    fn expect_same_detects_mismatch() {
        let a = Shape::nchw(1, 2, 3, 4);
        let b = Shape::nchw(1, 2, 3, 5);
        assert!(a.expect_same(&a.clone()).is_ok());
        assert!(a.expect_same(&b).is_err());
    }

    #[test]
    fn expect_nchw_rejects_matrix() {
        assert!(Shape::matrix(3, 4).expect_nchw().is_err());
        assert!(Shape::nchw(1, 1, 1, 1).expect_nchw().is_ok());
    }

    #[test]
    fn reshape_preserves_volume() {
        let s = Shape::nchw(2, 3, 4, 5);
        let r = s.reshaped(vec![6, 20]).unwrap();
        assert_eq!(r.volume(), s.volume());
        assert!(s.reshaped(vec![7, 20]).is_err());
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::nchw(1, 2, 3, 4).to_string(), "1x2x3x4");
        assert_eq!(Shape::vector(9).to_string(), "9");
    }

    #[test]
    fn from_slice_and_vec() {
        let v = vec![4usize, 5, 6];
        let a: Shape = v.clone().into();
        let b: Shape = v.as_slice().into();
        assert_eq!(a, b);
        assert_eq!(a.rank(), 3);
    }
}
