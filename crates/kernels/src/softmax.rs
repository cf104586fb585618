//! Softmax + cross-entropy loss head.

use crate::error::KernelError;
use crate::Result;
use bnff_parallel::{min_items_per_thread, parallel_rows_mut};
use bnff_tensor::{Shape, Tensor};

/// Result of the softmax cross-entropy forward pass.
#[derive(Debug, Clone)]
pub struct SoftmaxLossState {
    /// Mean cross-entropy loss over the batch.
    pub loss: f32,
    /// Row-wise softmax probabilities (`N × K`), kept for the backward pass.
    pub probs: Tensor,
}

fn view_rows(scores: &Tensor) -> Result<(usize, usize)> {
    let n = scores.shape().dim(0).map_err(KernelError::Tensor)?;
    if n == 0 {
        return Err(KernelError::InvalidArgument("empty batch".to_string()));
    }
    Ok((n, scores.len() / n))
}

/// Softmax + mean cross-entropy forward pass.
///
/// `scores` is `(N, K)` (a 4-D `N×K×1×1` tensor is accepted too) and
/// `labels` holds `N` class indices.
///
/// # Errors
/// Returns an error when a label is out of range or the batch sizes differ.
pub fn softmax_loss_forward(scores: &Tensor, labels: &[usize]) -> Result<SoftmaxLossState> {
    let (n, k) = view_rows(scores)?;
    if labels.len() != n {
        return Err(KernelError::ShapeMismatch(format!(
            "{} labels for a batch of {n}",
            labels.len()
        )));
    }
    for &label in labels {
        if label >= k {
            return Err(KernelError::InvalidArgument(format!(
                "label {label} out of range for {k} classes"
            )));
        }
    }
    let data = scores.as_slice();
    let mut probs = Tensor::zeros(Shape::matrix(n, k));
    // Per-sample rows are independent: normalize them across workers, then
    // pick out the (cheap, O(N)) label losses serially in row order.
    let min_rows = min_items_per_thread(k.saturating_mul(4));
    parallel_rows_mut(probs.as_mut_slice(), k, min_rows, |first_row, block| {
        for (row_local, prow) in block.chunks_mut(k).enumerate() {
            let row = first_row + row_local;
            let logits = &data[row * k..(row + 1) * k];
            let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exp: Vec<f64> = logits.iter().map(|&v| f64::from(v - max).exp()).collect();
            let denom: f64 = exp.iter().sum();
            for (p, e) in prow.iter_mut().zip(exp.iter()) {
                *p = (*e / denom) as f32;
            }
        }
    });
    let mut loss = 0.0f64;
    for (row, &label) in labels.iter().enumerate() {
        loss += -f64::from(probs.as_slice()[row * k + label]).max(1e-12).ln();
    }
    Ok(SoftmaxLossState { loss: (loss / n as f64) as f32, probs })
}

/// Softmax cross-entropy backward pass, `d_scores = (softmax − one_hot) / N`,
/// into a caller-provided tensor of the scores' shape. Every element of
/// `d_scores` is overwritten.
///
/// # Errors
/// Returns an error when a label is out of range, or the batch sizes or the
/// shape of `d_scores` differ.
pub fn softmax_loss_backward_into(
    state: &SoftmaxLossState,
    labels: &[usize],
    d_scores: &mut Tensor,
) -> Result<()> {
    let (n, k) = view_rows(&state.probs)?;
    if labels.len() != n {
        return Err(KernelError::ShapeMismatch(format!(
            "{} labels for a batch of {n}",
            labels.len()
        )));
    }
    state.probs.shape().expect_same(d_scores.shape())?;
    let slice = d_scores.as_mut_slice();
    slice.copy_from_slice(state.probs.as_slice());
    for (row, &label) in labels.iter().enumerate() {
        if label >= k {
            return Err(KernelError::InvalidArgument(format!(
                "label {label} out of range for {k} classes"
            )));
        }
        slice[row * k + label] -= 1.0;
    }
    for v in slice.iter_mut() {
        *v /= n as f32;
    }
    Ok(())
}

/// Classification accuracy of a score matrix against integer labels.
///
/// # Errors
/// Returns an error when the batch sizes differ.
pub fn accuracy(scores: &Tensor, labels: &[usize]) -> Result<f32> {
    let (n, k) = view_rows(scores)?;
    if labels.len() != n {
        return Err(KernelError::ShapeMismatch(format!(
            "{} labels for a batch of {n}",
            labels.len()
        )));
    }
    let preds = bnff_tensor::ops::argmax_rows(scores, k)?;
    let correct = preds.iter().zip(labels.iter()).filter(|(p, l)| p == l).count();
    Ok(correct as f32 / n as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_scores_give_log_k_loss() {
        let scores = Tensor::zeros(Shape::matrix(4, 10));
        let labels = vec![0, 3, 5, 9];
        let state = softmax_loss_forward(&scores, &labels).unwrap();
        assert!((state.loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut scores = Tensor::zeros(Shape::matrix(1, 3));
        scores.set(1, 10.0).unwrap();
        let state = softmax_loss_forward(&scores, &[1]).unwrap();
        assert!(state.loss < 0.01);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let scores =
            Tensor::from_vec(Shape::matrix(2, 3), vec![1.0, -2.0, 0.5, 3.0, 3.0, 3.0]).unwrap();
        let state = softmax_loss_forward(&scores, &[0, 1]).unwrap();
        for row in 0..2 {
            let sum: f32 = state.probs.as_slice()[row * 3..(row + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let scores =
            Tensor::from_vec(Shape::matrix(2, 4), vec![0.5, -0.3, 0.8, 0.1, -1.0, 0.4, 0.2, 0.9])
                .unwrap();
        let labels = vec![2usize, 1];
        let state = softmax_loss_forward(&scores, &labels).unwrap();
        let mut d_scores = Tensor::filled(scores.shape().clone(), f32::NAN);
        softmax_loss_backward_into(&state, &labels, &mut d_scores).unwrap();
        let h = 1e-3f32;
        for idx in 0..scores.len() {
            let mut sp = scores.clone();
            sp.set(idx, scores.get(idx).unwrap() + h).unwrap();
            let mut sm = scores.clone();
            sm.set(idx, scores.get(idx).unwrap() - h).unwrap();
            let lp = softmax_loss_forward(&sp, &labels).unwrap().loss;
            let lm = softmax_loss_forward(&sm, &labels).unwrap().loss;
            let numeric = f64::from(lp - lm) / (2.0 * f64::from(h));
            let analytic = f64::from(d_scores.get(idx).unwrap());
            assert!((numeric - analytic).abs() < 1e-3, "d_scores[{idx}]: {numeric} vs {analytic}");
        }
    }

    #[test]
    fn label_out_of_range_is_rejected() {
        let scores = Tensor::zeros(Shape::matrix(1, 3));
        assert!(softmax_loss_forward(&scores, &[3]).is_err());
        assert!(softmax_loss_forward(&scores, &[0, 1]).is_err());
    }

    #[test]
    fn accuracy_counts_matches() {
        let scores =
            Tensor::from_vec(Shape::matrix(3, 2), vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]).unwrap();
        assert!((accuracy(&scores, &[0, 1, 1]).unwrap() - 2.0 / 3.0).abs() < 1e-6);
        assert!(accuracy(&scores, &[0, 1]).is_err());
    }

    #[test]
    fn accepts_nchw_scores() {
        let scores = Tensor::zeros(Shape::nchw(2, 5, 1, 1));
        let state = softmax_loss_forward(&scores, &[0, 4]).unwrap();
        assert!((state.loss - (5.0f32).ln()).abs() < 1e-5);
    }
}
