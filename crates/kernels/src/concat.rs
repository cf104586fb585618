//! Channel-axis concatenation (DenseNet dense connectivity).

use crate::error::KernelError;
use crate::Result;
use bnff_tensor::{Shape, Tensor};

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
pub fn concat_output_shape(inputs: &[&Tensor]) -> Result<Shape> {
    let first = inputs.first().ok_or_else(|| {
        KernelError::InvalidArgument("concat needs at least one input".to_string())
    })?;
    first.shape().expect_nchw()?;
    let (n, h, w) = (first.shape().n(), first.shape().h(), first.shape().w());
    let mut channels = 0usize;
    for t in inputs {
        t.shape().expect_nchw()?;
        if t.shape().n() != n || t.shape().h() != h || t.shape().w() != w {
            return Err(KernelError::ShapeMismatch(format!(
                "concat input {} incompatible with {}",
                t.shape(),
                first.shape()
            )));
        }
        channels += t.shape().c();
    }
    Ok(Shape::nchw(n, channels, h, w))
}

/// [`concat_forward`] into a caller-provided output tensor. Every element
/// of `out` is overwritten.
///
/// # Errors
/// Returns an error when no inputs are given or shapes (including `out`'s)
/// disagree.
pub fn concat_forward_into(inputs: &[&Tensor], out: &mut Tensor) -> Result<()> {
    let expected = concat_output_shape(inputs)?;
    if out.shape() != &expected {
        return Err(KernelError::ShapeMismatch(format!(
            "concat output tensor is {}, inputs produce {}",
            out.shape(),
            expected
        )));
    }
    for ni in 0..expected.n() {
        let mut offset = 0usize;
        for t in inputs {
            for ci in 0..t.shape().c() {
                out.channel_plane_mut(ni, offset + ci).copy_from_slice(t.channel_plane(ni, ci));
            }
            offset += t.shape().c();
        }
    }
    Ok(())
}

/// Splits the upstream gradient of a concatenation back into
/// caller-provided gradient tensors, one per concatenated input and of that
/// input's shape. Every element of every tensor in `grads` is overwritten.
///
/// # Errors
/// Returns an error when the channel counts do not add up or batch/spatial
/// dimensions disagree.
pub fn concat_backward_into(d_y: &Tensor, grads: &mut [Tensor]) -> Result<()> {
    let refs: Vec<&Tensor> = grads.iter().collect();
    if refs.is_empty() || concat_output_shape(&refs)? != *d_y.shape() {
        return Err(KernelError::ShapeMismatch(format!(
            "the given input gradients do not concatenate to the gradient {}",
            d_y.shape()
        )));
    }
    let mut offset = 0usize;
    for g in grads {
        let channels = g.shape().c();
        for ni in 0..d_y.shape().n() {
            for ci in 0..channels {
                g.channel_plane_mut(ni, ci).copy_from_slice(d_y.channel_plane(ni, offset + ci));
            }
        }
        offset += channels;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn backward_splits_gradient() {
        let a = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        let b = Tensor::zeros(Shape::nchw(1, 2, 2, 2));
        let y = concat_forward(&[&a, &b]).unwrap();
        let mut d_y = Tensor::zeros(y.shape().clone());
        d_y.channel_plane_mut(0, 0).fill(1.0);
        d_y.channel_plane_mut(0, 2).fill(3.0);
        let mut grads = [Tensor::filled(a.shape().clone(), f32::NAN), b.clone()];
        concat_backward_into(&d_y, &mut grads).unwrap();
        assert_eq!(grads[0].channel_plane(0, 0), &[1.0; 4]);
        assert_eq!(grads[1].channel_plane(0, 0), &[0.0; 4]);
        assert_eq!(grads[1].channel_plane(0, 1), &[3.0; 4]);
    }

    #[test]
    fn roundtrip_preserves_values() {
        let a = Tensor::from_vec(Shape::nchw(2, 1, 1, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(Shape::nchw(2, 1, 1, 2), vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let y = concat_forward(&[&a, &b]).unwrap();
        let mut back = [Tensor::zeros(a.shape().clone()), Tensor::zeros(b.shape().clone())];
        concat_backward_into(&y, &mut back).unwrap();
        assert!(back[0].all_close(&a, 1e-6).unwrap());
        assert!(back[1].all_close(&b, 1e-6).unwrap());
    }

    #[test]
    fn mismatched_spatial_dims_rejected() {
        let a = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        let b = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        assert!(concat_forward(&[&a, &b]).is_err());
        assert!(concat_forward(&[]).is_err());
    }

    #[test]
    fn backward_channel_mismatch_rejected() {
        let d_y = Tensor::zeros(Shape::nchw(1, 3, 2, 2));
        let mut too_few = [Tensor::zeros(Shape::nchw(1, 1, 2, 2))];
        assert!(concat_backward_into(&d_y, &mut too_few).is_err());
        assert!(concat_backward_into(&d_y, &mut []).is_err());
    }
}
