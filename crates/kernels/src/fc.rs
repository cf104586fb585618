//! Fully-connected (inner-product) layer.

use crate::error::KernelError;
use crate::gemm::{gemm, gemm_nt, gemm_tn};
use crate::Result;
use bnff_tensor::{Shape, Tensor};

/// Flattens an `N × …` tensor into `(N, features)` dimensions.
fn flatten_dims(x: &Tensor) -> Result<(usize, usize)> {
    let n = x.shape().dim(0).map_err(KernelError::Tensor)?;
    if n == 0 {
        return Err(KernelError::InvalidArgument("empty batch".to_string()));
    }
    Ok((n, x.len() / n))
}

/// Fully-connected forward pass: `y = x · Wᵀ + b`.
///
/// `x` is `(N, in)` (any shape with leading batch dimension is flattened),
/// `weights` is `(out, in)` and `bias` has length `out`.
///
/// # Errors
/// Returns an error if the dimensions are inconsistent.
pub fn fc_forward(x: &Tensor, weights: &Tensor, bias: &[f32]) -> Result<Tensor> {
    let (n, _) = flatten_dims(x)?;
    let out_features = weights.shape().dim(0).map_err(KernelError::Tensor)?;
    let mut out = Tensor::zeros(Shape::matrix(n, out_features));
    fc_forward_into(x, weights, bias, &mut out)?;
    Ok(out)
}

/// [`fc_forward`] into a caller-provided `(N, out)` output tensor, so a
/// plan-driven executor can hand the classifier head a recycled buffer.
/// Every element of `out` is overwritten (the GEMM's `beta == 0` path never
/// reads it).
///
/// # Errors
/// Returns an error if the dimensions (including `out`'s) are inconsistent.
pub fn fc_forward_into(x: &Tensor, weights: &Tensor, bias: &[f32], out: &mut Tensor) -> Result<()> {
    let (n, in_features) = flatten_dims(x)?;
    let out_features = weights.shape().dim(0).map_err(KernelError::Tensor)?;
    if weights.len() != out_features * in_features {
        return Err(KernelError::ShapeMismatch(format!(
            "weights {} do not match ({out_features}, {in_features})",
            weights.shape()
        )));
    }
    if bias.len() != out_features {
        return Err(KernelError::ShapeMismatch(format!(
            "bias has {} entries, expected {out_features}",
            bias.len()
        )));
    }
    if out.len() != n * out_features {
        return Err(KernelError::ShapeMismatch(format!(
            "output tensor is {}, fully-connected produces ({n}, {out_features})",
            out.shape()
        )));
    }
    // y (N x out) = x (N x in) · Wᵀ (in x out)
    gemm_nt(n, out_features, in_features, x.as_slice(), weights.as_slice(), out.as_mut_slice())?;
    for row in out.as_mut_slice().chunks_mut(out_features) {
        for (v, b) in row.iter_mut().zip(bias.iter()) {
            *v += b;
        }
    }
    Ok(())
}

/// Fully-connected backward pass: the input gradient is written into a
/// caller-provided tensor of `x`'s (possibly 4-D) shape (every element is
/// overwritten — the GEMM's `beta == 0` path never reads it); returns
/// `(d_weights, d_bias)`.
///
/// # Errors
/// Returns an error if the dimensions (including `d_x`'s) are inconsistent.
pub fn fc_backward_into(
    x: &Tensor,
    weights: &Tensor,
    d_y: &Tensor,
    d_x: &mut Tensor,
) -> Result<(Tensor, Vec<f32>)> {
    let (n, in_features) = flatten_dims(x)?;
    let (n2, out_features) = flatten_dims(d_y)?;
    if n != n2 {
        return Err(KernelError::ShapeMismatch(format!("batch mismatch {n} vs {n2}")));
    }
    if weights.len() != out_features * in_features {
        return Err(KernelError::ShapeMismatch(format!(
            "weights {} do not match ({out_features}, {in_features})",
            weights.shape()
        )));
    }
    x.shape().expect_same(d_x.shape())?;

    // d_x (N x in) = d_y (N x out) · W (out x in)
    gemm(
        n,
        in_features,
        out_features,
        1.0,
        d_y.as_slice(),
        weights.as_slice(),
        0.0,
        d_x.as_mut_slice(),
    )?;

    // d_W (out x in) = d_yᵀ (out x N) · x (N x in)
    let mut d_w = Tensor::zeros(weights.shape().clone());
    gemm_tn(out_features, in_features, n, d_y.as_slice(), x.as_slice(), d_w.as_mut_slice())?;

    // d_b = column sums of d_y.
    let mut d_bias = vec![0.0f32; out_features];
    for row in 0..n {
        for (j, b) in d_bias.iter_mut().enumerate() {
            *b += d_y.as_slice()[row * out_features + j];
        }
    }
    Ok((d_w, d_bias))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_tensor::init::Initializer;

    #[test]
    fn forward_known_values() {
        let x = Tensor::from_vec(Shape::matrix(2, 3), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let w = Tensor::from_vec(Shape::matrix(2, 3), vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]).unwrap();
        let y = fc_forward(&x, &w, &[0.5, -0.5]).unwrap();
        assert_eq!(y.as_slice(), &[1.5, 1.5, 4.5, 4.5]);
    }

    #[test]
    fn accepts_nchw_input() {
        let x = Tensor::ones(Shape::nchw(2, 3, 1, 1));
        let w = Tensor::ones(Shape::matrix(4, 3));
        let y = fc_forward(&x, &w, &[0.0; 4]).unwrap();
        assert_eq!(y.shape(), &Shape::matrix(2, 4));
        assert_eq!(y.as_slice(), &[3.0; 8]);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let x = Tensor::ones(Shape::matrix(2, 3));
        let w = Tensor::ones(Shape::matrix(4, 5));
        assert!(fc_forward(&x, &w, &[0.0; 4]).is_err());
        let w = Tensor::ones(Shape::matrix(4, 3));
        assert!(fc_forward(&x, &w, &[0.0; 3]).is_err());
    }

    #[test]
    fn gradient_check() {
        let mut init = Initializer::seeded(11);
        let x = init.uniform(Shape::matrix(3, 4), -1.0, 1.0);
        let w = init.uniform(Shape::matrix(2, 4), -1.0, 1.0);
        let bias = vec![0.1, -0.2];
        let g = init.uniform(Shape::matrix(3, 2), -1.0, 1.0);

        let loss = |x: &Tensor, w: &Tensor, b: &[f32]| -> f64 {
            let y = fc_forward(x, w, b).unwrap();
            y.as_slice().iter().zip(g.as_slice()).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum()
        };

        let mut d_x = Tensor::filled(x.shape().clone(), f32::NAN);
        let (d_w, d_b) = fc_backward_into(&x, &w, &g, &mut d_x).unwrap();
        let h = 1e-2f32;
        for idx in [0usize, 3, 7, 11] {
            let mut xp = x.clone();
            xp.set(idx, x.get(idx).unwrap() + h).unwrap();
            let mut xm = x.clone();
            xm.set(idx, x.get(idx).unwrap() - h).unwrap();
            let numeric = (loss(&xp, &w, &bias) - loss(&xm, &w, &bias)) / (2.0 * f64::from(h));
            assert!((numeric - f64::from(d_x.get(idx).unwrap())).abs() < 1e-2);
        }
        for idx in [0usize, 2, 5, 7] {
            let mut wp = w.clone();
            wp.set(idx, w.get(idx).unwrap() + h).unwrap();
            let mut wm = w.clone();
            wm.set(idx, w.get(idx).unwrap() - h).unwrap();
            let numeric = (loss(&x, &wp, &bias) - loss(&x, &wm, &bias)) / (2.0 * f64::from(h));
            assert!((numeric - f64::from(d_w.get(idx).unwrap())).abs() < 1e-2);
        }
        // Bias gradient equals column sums of g.
        assert!((d_b[0] - g.as_slice().iter().step_by(2).sum::<f32>()).abs() < 1e-4);
    }

    #[test]
    fn backward_preserves_input_shape() {
        let x = Tensor::ones(Shape::nchw(2, 3, 2, 2));
        let w = Tensor::ones(Shape::matrix(5, 12));
        let d_y = Tensor::ones(Shape::matrix(2, 5));
        let mut d_x = Tensor::zeros(x.shape().clone());
        let (d_w, d_b) = fc_backward_into(&x, &w, &d_y, &mut d_x).unwrap();
        // Every input feature sums five unit weights of five unit gradients.
        assert_eq!(d_x.as_slice(), &[5.0; 24]);
        assert_eq!(d_w.shape(), w.shape());
        assert_eq!(d_b.len(), 5);
        // A gradient tensor that is not the input's shape is turned away.
        let mut flat = Tensor::zeros(Shape::matrix(2, 12));
        assert!(fc_backward_into(&x, &w, &d_y, &mut flat).is_err());
    }
}
