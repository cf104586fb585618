//! ResNet builders (He et al., CVPR 2016), the paper's secondary target.
//!
//! ResNet-50 uses bottleneck residual blocks (`1×1 → 3×3 → 1×1` with BN
//! after every convolution) joined to the shortcut by an element-wise sum,
//! followed by a ReLU. The first block of each stage uses a projection
//! shortcut (1×1 CONV + BN) and, from stage 2 on, stride 2.

use bnff_graph::builder::GraphBuilder;
use bnff_graph::op::{Conv2dAttrs, PoolAttrs};
use bnff_graph::{Graph, NodeId, Result};
use bnff_tensor::Shape;

/// One bottleneck residual block, returning the post-addition ReLU node.
fn bottleneck_block(
    b: &mut GraphBuilder,
    input: NodeId,
    mid_channels: usize,
    out_channels: usize,
    stride: usize,
    project: bool,
    prefix: &str,
) -> Result<NodeId> {
    let c1 = b.conv_bn_relu(input, Conv2dAttrs::pointwise(mid_channels), &format!("{prefix}/a"))?;
    let mut conv3 = Conv2dAttrs::same_3x3(mid_channels);
    conv3.stride = stride;
    let c2 = b.conv_bn_relu(c1, conv3, &format!("{prefix}/b"))?;
    let c3 = b.conv_bn(c2, Conv2dAttrs::pointwise(out_channels), &format!("{prefix}/c"))?;
    let shortcut = if project {
        let mut proj = Conv2dAttrs::pointwise(out_channels);
        proj.stride = stride;
        b.conv_bn(input, proj, &format!("{prefix}/proj"))?
    } else {
        input
    };
    let ews = b.eltwise_sum(vec![c3, shortcut], &format!("{prefix}/ews"))?;
    b.relu(ews, &format!("{prefix}/relu"))
}

/// One basic (two 3×3 convolutions) residual block used by ResNet-18/34 and
/// the CIFAR ResNets, returning the post-addition ReLU node.
fn basic_block(
    b: &mut GraphBuilder,
    input: NodeId,
    channels: usize,
    stride: usize,
    project: bool,
    prefix: &str,
) -> Result<NodeId> {
    let mut conv_a = Conv2dAttrs::same_3x3(channels);
    conv_a.stride = stride;
    let c1 = b.conv_bn_relu(input, conv_a, &format!("{prefix}/a"))?;
    let c2 = b.conv_bn(c1, Conv2dAttrs::same_3x3(channels), &format!("{prefix}/b"))?;
    let shortcut = if project {
        let mut proj = Conv2dAttrs::pointwise(channels);
        proj.stride = stride;
        b.conv_bn(input, proj, &format!("{prefix}/proj"))?
    } else {
        input
    };
    let ews = b.eltwise_sum(vec![c2, shortcut], &format!("{prefix}/ews"))?;
    b.relu(ews, &format!("{prefix}/relu"))
}

fn imagenet_stem(b: &mut GraphBuilder, data: NodeId) -> Result<NodeId> {
    let c = b.conv2d(data, Conv2dAttrs::new(64, 7, 2, 3), "stem/conv")?;
    let bn = b.batch_norm_default(c, "stem/bn")?;
    let r = b.relu(bn, "stem/relu")?;
    b.max_pool(r, PoolAttrs::new(3, 2, 1), "stem/pool")
}

/// ResNet-50 at ImageNet resolution (3-4-6-3 bottleneck blocks, ~25.6 M
/// parameters).
///
/// # Errors
/// Returns an error if graph construction fails.
pub fn resnet50(batch: usize) -> Result<Graph> {
    let mut b = GraphBuilder::new("resnet-50");
    let data = b.input("data", Shape::nchw(batch, 3, 224, 224))?;
    let labels = b.input("labels", Shape::vector(batch))?;
    let mut current = imagenet_stem(&mut b, data)?;

    let stages: [(usize, usize, usize); 4] =
        [(64, 256, 3), (128, 512, 4), (256, 1024, 6), (512, 2048, 3)];
    for (stage_idx, (mid, out, blocks)) in stages.iter().enumerate() {
        for block_idx in 0..*blocks {
            let stride = if stage_idx > 0 && block_idx == 0 { 2 } else { 1 };
            let project = block_idx == 0;
            current = bottleneck_block(
                &mut b,
                current,
                *mid,
                *out,
                stride,
                project,
                &format!("stage{}/block{}", stage_idx + 1, block_idx + 1),
            )?;
        }
    }

    let gap = b.global_avg_pool(current, "head/gap")?;
    let fc = b.fully_connected(gap, 1000, "head/fc")?;
    b.softmax_loss(fc, labels, "loss")?;
    Ok(b.finish())
}

/// ResNet-18 at ImageNet resolution (2-2-2-2 basic blocks).
///
/// # Errors
/// Returns an error if graph construction fails.
pub(crate) fn resnet18(batch: usize) -> Result<Graph> {
    let mut b = GraphBuilder::new("resnet-18");
    let data = b.input("data", Shape::nchw(batch, 3, 224, 224))?;
    let labels = b.input("labels", Shape::vector(batch))?;
    let mut current = imagenet_stem(&mut b, data)?;
    let stages: [(usize, usize); 4] = [(64, 2), (128, 2), (256, 2), (512, 2)];
    for (stage_idx, (channels, blocks)) in stages.iter().enumerate() {
        for block_idx in 0..*blocks {
            let stride = if stage_idx > 0 && block_idx == 0 { 2 } else { 1 };
            let project = block_idx == 0 && stage_idx > 0;
            current = basic_block(
                &mut b,
                current,
                *channels,
                stride,
                project,
                &format!("stage{}/block{}", stage_idx + 1, block_idx + 1),
            )?;
        }
    }
    let gap = b.global_avg_pool(current, "head/gap")?;
    let fc = b.fully_connected(gap, 1000, "head/fc")?;
    b.softmax_loss(fc, labels, "loss")?;
    Ok(b.finish())
}

/// A CIFAR-scale ResNet (6n+2 layout: `n` basic blocks per stage at 16, 32
/// and 64 channels, 32×32 input).
///
/// # Errors
/// Returns an error if graph construction fails.
pub fn resnet_cifar(batch: usize, blocks_per_stage: usize, classes: usize) -> Result<Graph> {
    let mut b = GraphBuilder::new("resnet-cifar");
    let data = b.input("data", Shape::nchw(batch, 3, 32, 32))?;
    let labels = b.input("labels", Shape::vector(batch))?;
    let mut current = b.conv_bn_relu(data, Conv2dAttrs::same_3x3(16), "stem")?;
    for (stage_idx, channels) in [16usize, 32, 64].iter().enumerate() {
        for block_idx in 0..blocks_per_stage {
            let stride = if stage_idx > 0 && block_idx == 0 { 2 } else { 1 };
            let project = block_idx == 0 && stage_idx > 0;
            current = basic_block(
                &mut b,
                current,
                *channels,
                stride,
                project,
                &format!("stage{}/block{}", stage_idx + 1, block_idx + 1),
            )?;
        }
    }
    let gap = b.global_avg_pool(current, "head/gap")?;
    let fc = b.fully_connected(gap, classes, "head/fc")?;
    b.softmax_loss(fc, labels, "loss")?;
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_graph::op::OpKind;

    #[test]
    fn resnet50_layer_counts() {
        let g = resnet50(2).unwrap();
        assert!(g.validate().is_ok());
        let convs = g.nodes().filter(|n| matches!(n.op, OpKind::Conv2d(_))).count();
        // 1 stem + 16 blocks × 3 convs + 4 projection shortcuts = 53.
        assert_eq!(convs, 53);
        let bns = g.nodes().filter(|n| matches!(n.op, OpKind::BatchNorm(_))).count();
        assert_eq!(bns, 53);
        let ews = g.nodes().filter(|n| matches!(n.op, OpKind::EltwiseSum)).count();
        assert_eq!(ews, 16);
    }

    #[test]
    fn resnet50_parameter_count_matches_reference() {
        // torchvision's resnet50 has 25,557,032 learnable parameters.
        let g = resnet50(1).unwrap();
        let params = g.parameter_count();
        assert!(
            (25_200_000..=25_900_000).contains(&params),
            "parameter count {params} outside expected ResNet-50 range"
        );
    }

    #[test]
    fn resnet50_spatial_flow() {
        let g = resnet50(2).unwrap();
        let s1 = g.nodes().find(|n| n.name == "stage1/block3/relu").unwrap();
        assert_eq!(s1.output_shape, Shape::nchw(2, 256, 56, 56));
        let s4 = g.nodes().find(|n| n.name == "stage4/block3/relu").unwrap();
        assert_eq!(s4.output_shape, Shape::nchw(2, 2048, 7, 7));
    }

    #[test]
    fn resnet18_is_smaller_than_resnet50() {
        let g18 = resnet18(1).unwrap();
        let g50 = resnet50(1).unwrap();
        assert!(g18.validate().is_ok());
        assert!(g18.node_count() < g50.node_count());
        // torchvision resnet18: 11,689,512 parameters.
        let params = g18.parameter_count();
        assert!((11_400_000..=11_900_000).contains(&params), "resnet18 params {params}");
    }

    #[test]
    fn cifar_resnet_validates_and_is_tiny() {
        let g = resnet_cifar(8, 3, 10).unwrap();
        assert!(g.validate().is_ok());
        // ResNet-20 has ~0.27M parameters.
        let params = g.parameter_count();
        assert!((200_000..=400_000).contains(&params), "resnet20 params {params}");
        let relu_out = g.nodes().find(|n| n.name == "stage3/block3/relu").unwrap();
        assert_eq!(relu_out.output_shape, Shape::nchw(8, 64, 8, 8));
    }
}
