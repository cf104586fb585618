//! Stochastic gradient descent with momentum and weight decay.

use crate::error::TrainError;
use crate::params::{Gradients, NodeParamGrads, NodeParams, ParamSet};
use crate::Result;
use bnff_parallel::{min_items_per_thread, parallel_rows_mut2};
use bnff_tensor::Tensor;
use std::collections::HashMap;

/// SGD with classical momentum and (optionally) L2 weight decay on the
/// convolution / FC weights (γ/β and biases are excluded from decay, as is
/// standard for BN networks).
#[derive(Debug, Clone)]
pub struct SgdOptimizer {
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight decay coefficient applied to weights.
    pub weight_decay: f32,
    velocity: HashMap<(usize, &'static str), Vec<f32>>,
}

impl SgdOptimizer {
    /// Creates an optimizer.
    ///
    /// # Errors
    /// Returns an error for non-positive learning rates or negative
    /// momentum / weight decay.
    pub fn new(learning_rate: f32, momentum: f32, weight_decay: f32) -> Result<Self> {
        if learning_rate <= 0.0 {
            return Err(TrainError::InvalidArgument("learning rate must be positive".into()));
        }
        if !(0.0..1.0).contains(&momentum) {
            return Err(TrainError::InvalidArgument("momentum must lie in [0, 1)".into()));
        }
        if weight_decay < 0.0 {
            return Err(TrainError::InvalidArgument("weight decay must be non-negative".into()));
        }
        Ok(SgdOptimizer { learning_rate, momentum, weight_decay, velocity: HashMap::new() })
    }

    /// Plain SGD without momentum or decay.
    ///
    /// # Errors
    /// Returns an error for a non-positive learning rate.
    pub fn plain(learning_rate: f32) -> Result<Self> {
        Self::new(learning_rate, 0.0, 0.0)
    }

    fn update_vec(
        &mut self,
        key: (usize, &'static str),
        values: &mut [f32],
        grads: &[f32],
        decay: f32,
    ) {
        let lr = self.learning_rate;
        let momentum = self.momentum;
        let velocity = self.velocity.entry(key).or_insert_with(|| vec![0.0; values.len()]);
        // Per-parameter updates are independent; large layers split across
        // workers, with parameter and velocity chunks walked in lockstep.
        parallel_rows_mut2(
            values,
            1,
            velocity,
            1,
            min_items_per_thread(4),
            |offset, vals, vels| {
                let len = vals.len();
                for ((v, vel), g) in
                    vals.iter_mut().zip(vels.iter_mut()).zip(&grads[offset..offset + len])
                {
                    let grad = g + decay * *v;
                    *vel = momentum * *vel + grad;
                    *v -= lr * *vel;
                }
            },
        );
    }

    fn update_tensor(
        &mut self,
        key: (usize, &'static str),
        tensor: &mut Tensor,
        grads: &Tensor,
        decay: f32,
    ) -> Result<()> {
        if tensor.len() != grads.len() {
            return Err(TrainError::InvalidArgument(format!(
                "gradient length {} does not match parameter length {}",
                grads.len(),
                tensor.len()
            )));
        }
        self.update_vec(key, tensor.as_mut_slice(), grads.as_slice(), decay);
        Ok(())
    }

    /// Applies one optimization step to `params` using `grads`.
    ///
    /// # Errors
    /// Returns an error when a gradient's layout does not match the
    /// corresponding parameter.
    pub fn step(&mut self, params: &mut ParamSet, grads: &Gradients) -> Result<()> {
        let decay = self.weight_decay;
        let indices: Vec<usize> = grads.per_node.keys().copied().collect();
        for idx in indices {
            let grad = &grads.per_node[&idx];
            let Some(param) = params.get_mut(bnff_graph::NodeId::new(idx)) else {
                return Err(TrainError::Missing(format!("parameters for node index {idx}")));
            };
            match (param, grad) {
                (
                    NodeParams::Conv { weights, bias },
                    NodeParamGrads::Conv { d_weights, d_bias },
                ) => {
                    self.update_tensor((idx, "w"), weights, d_weights, decay)?;
                    if let Some(b) = bias {
                        self.update_vec((idx, "b"), b, d_bias, 0.0);
                    }
                }
                (NodeParams::Bn(bn), NodeParamGrads::Bn { d_gamma, d_beta }) => {
                    self.update_vec((idx, "gamma"), &mut bn.gamma, d_gamma, 0.0);
                    self.update_vec((idx, "beta"), &mut bn.beta, d_beta, 0.0);
                }
                (
                    NodeParams::ConvBn { weights, bias, bn },
                    NodeParamGrads::ConvBn { d_weights, d_bias, d_gamma, d_beta },
                ) => {
                    self.update_tensor((idx, "w"), weights, d_weights, decay)?;
                    if let Some(b) = bias {
                        self.update_vec((idx, "b"), b, d_bias, 0.0);
                    }
                    self.update_vec((idx, "gamma"), &mut bn.gamma, d_gamma, 0.0);
                    self.update_vec((idx, "beta"), &mut bn.beta, d_beta, 0.0);
                }
                (NodeParams::Fc { weights, bias }, NodeParamGrads::Fc { d_weights, d_bias }) => {
                    self.update_tensor((idx, "w"), weights, d_weights, decay)?;
                    self.update_vec((idx, "b"), bias, d_bias, 0.0);
                }
                _ => {
                    return Err(TrainError::InvalidArgument(format!(
                        "gradient kind does not match parameter kind for node index {idx}"
                    )))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_kernels::batchnorm::BnParams;
    use bnff_tensor::Shape;

    fn single_param_setup(value: f32) -> (ParamSet, Gradients) {
        let mut params = ParamSet::new();
        params.insert(
            bnff_graph::NodeId::new(0),
            NodeParams::Conv {
                weights: Tensor::filled(Shape::nchw(1, 1, 1, 1), value),
                bias: None,
            },
        );
        let mut per_node = HashMap::new();
        per_node.insert(
            0usize,
            NodeParamGrads::Conv {
                d_weights: Tensor::filled(Shape::nchw(1, 1, 1, 1), 1.0),
                d_bias: vec![],
            },
        );
        (params, Gradients { per_node })
    }

    #[test]
    fn plain_sgd_moves_against_gradient() {
        let (mut params, grads) = single_param_setup(1.0);
        let mut opt = SgdOptimizer::plain(0.1).unwrap();
        opt.step(&mut params, &grads).unwrap();
        match params.get(bnff_graph::NodeId::new(0)).unwrap() {
            NodeParams::Conv { weights, .. } => {
                assert!((weights.get(0).unwrap() - 0.9).abs() < 1e-6);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn momentum_accumulates() {
        let (mut params, grads) = single_param_setup(0.0);
        let mut opt = SgdOptimizer::new(0.1, 0.9, 0.0).unwrap();
        opt.step(&mut params, &grads).unwrap();
        opt.step(&mut params, &grads).unwrap();
        // First step: -0.1; second: velocity = 0.9*1 + 1 = 1.9, so -0.19 more.
        match params.get(bnff_graph::NodeId::new(0)).unwrap() {
            NodeParams::Conv { weights, .. } => {
                assert!((weights.get(0).unwrap() + 0.29).abs() < 1e-6);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let (mut params, mut grads) = single_param_setup(2.0);
        // Zero gradient: only the decay term acts.
        grads.per_node.insert(
            0,
            NodeParamGrads::Conv {
                d_weights: Tensor::zeros(Shape::nchw(1, 1, 1, 1)),
                d_bias: vec![],
            },
        );
        let mut opt = SgdOptimizer::new(0.1, 0.0, 0.01).unwrap();
        opt.step(&mut params, &grads).unwrap();
        match params.get(bnff_graph::NodeId::new(0)).unwrap() {
            NodeParams::Conv { weights, .. } => {
                let v = weights.get(0).unwrap();
                assert!(v < 2.0 && v > 1.99);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn invalid_hyperparameters_rejected() {
        assert!(SgdOptimizer::new(0.0, 0.9, 0.0).is_err());
        assert!(SgdOptimizer::new(0.1, 1.5, 0.0).is_err());
        assert!(SgdOptimizer::new(0.1, 0.5, -0.1).is_err());
    }

    #[test]
    fn mismatched_gradient_kind_is_rejected() {
        let (mut params, _) = single_param_setup(1.0);
        let mut per_node = HashMap::new();
        per_node.insert(0usize, NodeParamGrads::Bn { d_gamma: vec![1.0], d_beta: vec![1.0] });
        let grads = Gradients { per_node };
        let mut opt = SgdOptimizer::plain(0.1).unwrap();
        assert!(opt.step(&mut params, &grads).is_err());
    }

    #[test]
    fn bn_params_are_updated() {
        let mut params = ParamSet::new();
        params.insert(bnff_graph::NodeId::new(3), NodeParams::Bn(BnParams::identity(2)));
        let mut per_node = HashMap::new();
        per_node.insert(
            3usize,
            NodeParamGrads::Bn { d_gamma: vec![1.0, -1.0], d_beta: vec![0.5, 0.5] },
        );
        let grads = Gradients { per_node };
        let mut opt = SgdOptimizer::plain(0.1).unwrap();
        opt.step(&mut params, &grads).unwrap();
        match params.get(bnff_graph::NodeId::new(3)).unwrap() {
            NodeParams::Bn(bn) => {
                assert!((bn.gamma[0] - 0.9).abs() < 1e-6);
                assert!((bn.gamma[1] - 1.1).abs() < 1e-6);
                assert!((bn.beta[0] + 0.05).abs() < 1e-6);
            }
            _ => unreachable!(),
        }
    }
}
