//! Output-shape inference for every operation kind.

use crate::error::GraphError;
use crate::op::{OpKind, PoolAttrs};
use crate::Result;
use bnff_tensor::Shape;

fn conv_spatial(dim: usize, kernel: usize, stride: usize, pad: usize) -> Result<usize> {
    let padded = dim + 2 * pad;
    if padded < kernel || stride == 0 {
        return Err(GraphError::ShapeInference {
            node: String::new(),
            reason: format!(
                "window {kernel} with stride {stride} does not fit extent {dim} (pad {pad})"
            ),
        });
    }
    Ok((padded - kernel) / stride + 1)
}

fn pool_output(input: &Shape, attrs: &PoolAttrs) -> Result<Shape> {
    input.expect_nchw()?;
    Ok(Shape::nchw(
        input.n(),
        input.c(),
        conv_spatial(input.h(), attrs.kernel, attrs.stride, attrs.pad)?,
        conv_spatial(input.w(), attrs.kernel, attrs.stride, attrs.pad)?,
    ))
}

fn expect_arity(op: &OpKind, inputs: &[&Shape]) -> Result<()> {
    if let Some(expected) = op.fixed_arity() {
        if inputs.len() != expected {
            return Err(GraphError::ArityMismatch {
                op: op.name().to_string(),
                expected,
                got: inputs.len(),
            });
        }
    } else if inputs.is_empty() {
        return Err(GraphError::ArityMismatch { op: op.name().to_string(), expected: 1, got: 0 });
    }
    Ok(())
}

/// Infers the output shape of `op` given its input shapes (in argument
/// order).
///
/// # Errors
/// Returns [`GraphError::ArityMismatch`] when the number of inputs is wrong
/// and [`GraphError::ShapeInference`] when the input shapes are structurally
/// incompatible with the operation.
pub fn infer_output_shape(op: &OpKind, inputs: &[&Shape]) -> Result<Shape> {
    expect_arity(op, inputs)?;
    match op {
        OpKind::Input => Err(GraphError::ShapeInference {
            node: String::new(),
            reason: "input nodes carry an explicit shape".to_string(),
        }),
        OpKind::Conv2d(a)
        | OpKind::ReluConv(a)
        | OpKind::ConvRelu(a)
        | OpKind::ConvStats { conv: a, .. }
        | OpKind::NormReluConv { conv: a, .. }
        | OpKind::NormReluConvStats { conv: a, .. } => {
            let x = inputs[0];
            x.expect_nchw()?;
            Ok(Shape::nchw(
                x.n(),
                a.out_channels,
                conv_spatial(x.h(), a.kernel_h, a.stride, a.pad)?,
                conv_spatial(x.w(), a.kernel_w, a.stride, a.pad)?,
            ))
        }
        OpKind::FullyConnected { out_features } => {
            let x = inputs[0];
            let n = x.dim(0)?;
            Ok(Shape::matrix(n, *out_features))
        }
        OpKind::BatchNorm(_) | OpKind::Relu | OpKind::ChannelAffine => Ok(inputs[0].clone()),
        OpKind::SubBnNorm(_) | OpKind::NormRelu(_) => Ok(inputs[0].clone()),
        OpKind::SubBnStats(_) => {
            let x = inputs[0];
            x.expect_nchw()?;
            Ok(Shape::matrix(2, x.c()))
        }
        OpKind::Pool { attrs, .. } => pool_output(inputs[0], attrs),
        OpKind::GlobalAvgPool => {
            let x = inputs[0];
            x.expect_nchw()?;
            Ok(Shape::nchw(x.n(), x.c(), 1, 1))
        }
        OpKind::Concat | OpKind::ConcatStats(_) => {
            let first = inputs[0];
            first.expect_nchw()?;
            let mut channels = 0usize;
            for s in inputs {
                s.expect_nchw()?;
                if s.n() != first.n() || s.h() != first.h() || s.w() != first.w() {
                    return Err(GraphError::ShapeInference {
                        node: String::new(),
                        reason: format!("concat inputs disagree: {first} vs {s}"),
                    });
                }
                channels += s.c();
            }
            Ok(Shape::nchw(first.n(), channels, first.h(), first.w()))
        }
        OpKind::Split { .. } => Ok(inputs[0].clone()),
        OpKind::EltwiseSum => {
            let first = inputs[0];
            for s in inputs.iter().skip(1) {
                if *s != first {
                    return Err(GraphError::ShapeInference {
                        node: String::new(),
                        reason: format!("element-wise sum inputs disagree: {first} vs {s}"),
                    });
                }
            }
            Ok(first.clone())
        }
        OpKind::SoftmaxLoss => {
            let scores = inputs[0];
            let labels = inputs[1];
            let n = scores.dim(0)?;
            if labels.dim(0)? != n {
                return Err(GraphError::ShapeInference {
                    node: String::new(),
                    reason: format!("scores batch {n} does not match labels {labels}"),
                });
            }
            Ok(Shape::scalar())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BatchNormAttrs, Conv2dAttrs, PoolKind};

    #[test]
    fn conv_shapes() {
        let x = Shape::nchw(4, 3, 224, 224);
        let op = OpKind::Conv2d(Conv2dAttrs::new(64, 7, 2, 3));
        let out = infer_output_shape(&op, &[&x]).unwrap();
        assert_eq!(out, Shape::nchw(4, 64, 112, 112));

        let op = OpKind::Conv2d(Conv2dAttrs::same_3x3(32));
        let out = infer_output_shape(&op, &[&Shape::nchw(2, 16, 56, 56)]).unwrap();
        assert_eq!(out, Shape::nchw(2, 32, 56, 56));

        let op = OpKind::Conv2d(Conv2dAttrs::pointwise(128));
        let out = infer_output_shape(&op, &[&Shape::nchw(2, 256, 28, 28)]).unwrap();
        assert_eq!(out, Shape::nchw(2, 128, 28, 28));
    }

    #[test]
    fn conv_too_small_input_fails() {
        let op = OpKind::Conv2d(Conv2dAttrs::new(8, 7, 2, 0));
        assert!(infer_output_shape(&op, &[&Shape::nchw(1, 3, 4, 4)]).is_err());
    }

    #[test]
    fn pool_shapes() {
        let op = OpKind::Pool { kind: PoolKind::Max, attrs: PoolAttrs::new(3, 2, 1) };
        let out = infer_output_shape(&op, &[&Shape::nchw(4, 64, 112, 112)]).unwrap();
        assert_eq!(out, Shape::nchw(4, 64, 56, 56));

        let op = OpKind::Pool { kind: PoolKind::Average, attrs: PoolAttrs::new(2, 2, 0) };
        let out = infer_output_shape(&op, &[&Shape::nchw(4, 64, 56, 56)]).unwrap();
        assert_eq!(out, Shape::nchw(4, 64, 28, 28));
    }

    #[test]
    fn global_avg_pool() {
        let out =
            infer_output_shape(&OpKind::GlobalAvgPool, &[&Shape::nchw(4, 1024, 7, 7)]).unwrap();
        assert_eq!(out, Shape::nchw(4, 1024, 1, 1));
    }

    #[test]
    fn elementwise_ops_preserve_shape() {
        let x = Shape::nchw(2, 8, 4, 4);
        assert_eq!(infer_output_shape(&OpKind::Relu, &[&x]).unwrap(), x);
        assert_eq!(
            infer_output_shape(&OpKind::BatchNorm(BatchNormAttrs::default()), &[&x]).unwrap(),
            x
        );
        assert_eq!(infer_output_shape(&OpKind::Split { consumers: 3 }, &[&x]).unwrap(), x);
    }

    #[test]
    fn sub_bn_stats_shape() {
        let x = Shape::nchw(8, 32, 14, 14);
        let out =
            infer_output_shape(&OpKind::SubBnStats(BatchNormAttrs::one_pass()), &[&x]).unwrap();
        assert_eq!(out, Shape::matrix(2, 32));
    }

    #[test]
    fn sub_bn_norm_takes_two_inputs() {
        let x = Shape::nchw(8, 32, 14, 14);
        let stats = Shape::matrix(2, 32);
        let out = infer_output_shape(&OpKind::SubBnNorm(BatchNormAttrs::default()), &[&x, &stats])
            .unwrap();
        assert_eq!(out, x);
        assert!(infer_output_shape(&OpKind::SubBnNorm(BatchNormAttrs::default()), &[&x]).is_err());
    }

    #[test]
    fn concat_sums_channels() {
        let a = Shape::nchw(2, 32, 8, 8);
        let b = Shape::nchw(2, 64, 8, 8);
        let out = infer_output_shape(&OpKind::Concat, &[&a, &b]).unwrap();
        assert_eq!(out, Shape::nchw(2, 96, 8, 8));
        let bad = Shape::nchw(2, 64, 4, 4);
        assert!(infer_output_shape(&OpKind::Concat, &[&a, &bad]).is_err());
    }

    #[test]
    fn eltwise_sum_requires_same_shapes() {
        let a = Shape::nchw(2, 32, 8, 8);
        assert_eq!(infer_output_shape(&OpKind::EltwiseSum, &[&a, &a]).unwrap(), a);
        let b = Shape::nchw(2, 16, 8, 8);
        assert!(infer_output_shape(&OpKind::EltwiseSum, &[&a, &b]).is_err());
    }

    #[test]
    fn fully_connected_and_softmax() {
        let feats = Shape::nchw(8, 1024, 1, 1);
        let out =
            infer_output_shape(&OpKind::FullyConnected { out_features: 1000 }, &[&feats]).unwrap();
        assert_eq!(out, Shape::matrix(8, 1000));
        let labels = Shape::vector(8);
        let loss = infer_output_shape(&OpKind::SoftmaxLoss, &[&out, &labels]).unwrap();
        assert_eq!(loss, Shape::scalar());
        let bad_labels = Shape::vector(4);
        assert!(infer_output_shape(&OpKind::SoftmaxLoss, &[&out, &bad_labels]).is_err());
    }

    #[test]
    fn fused_ops_shapes() {
        let x = Shape::nchw(2, 128, 28, 28);
        let stats = Shape::matrix(2, 128);
        let op = OpKind::NormReluConv {
            conv: Conv2dAttrs::same_3x3(32),
            bn: BatchNormAttrs::one_pass(),
        };
        let out = infer_output_shape(&op, &[&x, &stats]).unwrap();
        assert_eq!(out, Shape::nchw(2, 32, 28, 28));

        let op =
            OpKind::ConvStats { conv: Conv2dAttrs::pointwise(128), bn: BatchNormAttrs::one_pass() };
        let out = infer_output_shape(&op, &[&Shape::nchw(2, 256, 28, 28)]).unwrap();
        assert_eq!(out, Shape::nchw(2, 128, 28, 28));

        let a = Shape::nchw(2, 32, 8, 8);
        let b = Shape::nchw(2, 64, 8, 8);
        let out = infer_output_shape(&OpKind::ConcatStats(BatchNormAttrs::one_pass()), &[&a, &b])
            .unwrap();
        assert_eq!(out, Shape::nchw(2, 96, 8, 8));
    }

    #[test]
    fn input_nodes_are_not_inferred() {
        assert!(infer_output_shape(&OpKind::Input, &[]).is_err());
    }

    #[test]
    fn arity_is_checked() {
        let x = Shape::nchw(1, 1, 2, 2);
        assert!(matches!(
            infer_output_shape(&OpKind::Relu, &[&x, &x]),
            Err(GraphError::ArityMismatch { .. })
        ));
        assert!(matches!(
            infer_output_shape(&OpKind::Concat, &[]),
            Err(GraphError::ArityMismatch { .. })
        ));
    }
}
