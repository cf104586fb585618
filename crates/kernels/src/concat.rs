//! Channel-axis concatenation (DenseNet dense connectivity), materialized:
//! the inputs copied into one buffer. The training executor does not call
//! it — a concatenation there is a [`ChannelRope`] of its inputs, and its
//! gradient is theirs — but the reference interpreter the workspace tests
//! hold the executor to (`tests/support`) and the benchmark's replay do.

use crate::Result;
use bnff_tensor::{ChannelRope, Shape, Tensor};

/// Concatenates NCHW tensors along the channel axis.
///
/// # Errors
/// Returns an error when no inputs are given or batch/spatial dimensions
/// disagree.
pub fn concat_forward(inputs: &[&Tensor]) -> Result<Tensor> {
    let mut out = Tensor::zeros(concat_output_shape(inputs)?);
    concat_forward_into(inputs, &mut out)?;
    Ok(out)
}

/// The output shape of a channel-axis concatenation.
///
/// # Errors
/// Returns an error when no inputs are given or batch/spatial dimensions
/// disagree.
pub(crate) fn concat_output_shape(inputs: &[&Tensor]) -> Result<Shape> {
    Ok(ChannelRope::new(inputs)?.shape())
}

/// [`concat_forward`] into a caller-provided output tensor. Every element
/// of `out` is overwritten.
///
/// # Errors
/// Returns an error when no inputs are given or shapes (including `out`'s)
/// disagree.
pub fn concat_forward_into(inputs: &[&Tensor], out: &mut Tensor) -> Result<()> {
    Ok(ChannelRope::new(inputs)?.copy_into(out)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_tensor::GradPart;

    #[test]
    fn concatenates_channels_in_order() {
        let a = Tensor::filled(Shape::nchw(1, 1, 2, 2), 1.0);
        let b = Tensor::filled(Shape::nchw(1, 2, 2, 2), 2.0);
        let y = concat_forward(&[&a, &b]).unwrap();
        assert_eq!(y.shape(), &Shape::nchw(1, 3, 2, 2));
        assert_eq!(y.channel_plane(0, 0), &[1.0; 4]);
        assert_eq!(y.channel_plane(0, 1), &[2.0; 4]);
        assert_eq!(y.channel_plane(0, 2), &[2.0; 4]);
    }

    #[test]
    fn into_variant_overwrites_recycled_buffers() {
        let a = Tensor::filled(Shape::nchw(1, 1, 2, 2), 1.0);
        let b = Tensor::filled(Shape::nchw(1, 2, 2, 2), 2.0);
        let reference = concat_forward(&[&a, &b]).unwrap();
        let mut out = Tensor::filled(Shape::nchw(1, 3, 2, 2), f32::NAN);
        concat_forward_into(&[&a, &b], &mut out).unwrap();
        assert_eq!(out.as_slice(), reference.as_slice());
        let mut bad = Tensor::zeros(Shape::nchw(1, 2, 2, 2));
        assert!(concat_forward_into(&[&a, &b], &mut bad).is_err());
    }

    /// A concatenation's gradient is its inputs': each takes its channel
    /// range of the output gradient, copied into a fresh buffer or added to
    /// what it holds.
    #[test]
    fn backward_splits_gradient() {
        let mut d_y = Tensor::zeros(Shape::nchw(1, 3, 2, 2));
        d_y.channel_plane_mut(0, 0).fill(1.0);
        d_y.channel_plane_mut(0, 2).fill(3.0);
        let mut a = Tensor::filled(Shape::nchw(1, 1, 2, 2), f32::NAN);
        let mut b = Tensor::filled(Shape::nchw(1, 2, 2, 2), 0.5);
        GradPart { grad: &mut a, add: false }.take_channels(&d_y, 0).unwrap();
        GradPart { grad: &mut b, add: true }.take_channels(&d_y, 1).unwrap();
        assert_eq!(a.channel_plane(0, 0), &[1.0; 4]);
        assert_eq!(b.channel_plane(0, 0), &[0.5; 4]);
        assert_eq!(b.channel_plane(0, 1), &[3.5; 4]);
    }

    #[test]
    fn roundtrip_preserves_values() {
        let a = Tensor::from_vec(Shape::nchw(2, 1, 1, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(Shape::nchw(2, 1, 1, 2), vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let y = concat_forward(&[&a, &b]).unwrap();
        let mut back = [Tensor::zeros(a.shape().clone()), Tensor::zeros(b.shape().clone())];
        for (offset, part) in back.iter_mut().enumerate() {
            GradPart { grad: part, add: false }.take_channels(&y, offset).unwrap();
        }
        assert_eq!(back[0].as_slice(), a.as_slice());
        assert_eq!(back[1].as_slice(), b.as_slice());
    }

    #[test]
    fn backward_channel_mismatch_rejected() {
        let d_y = Tensor::zeros(Shape::nchw(1, 3, 2, 2));
        let mut past_the_end = Tensor::zeros(Shape::nchw(1, 2, 2, 2));
        assert!(GradPart { grad: &mut past_the_end, add: false }.take_channels(&d_y, 2).is_err());
        let mut other_plane = Tensor::zeros(Shape::nchw(1, 1, 4, 1));
        assert!(GradPart { grad: &mut other_plane, add: false }.take_channels(&d_y, 0).is_err());
    }

    #[test]
    fn mismatched_spatial_dims_rejected() {
        let a = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        let b = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        assert!(concat_forward(&[&a, &b]).is_err());
        assert!(concat_forward(&[]).is_err());
    }
}
