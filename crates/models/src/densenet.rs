//! DenseNet-BC builders (Huang et al., CVPR 2017), the paper's primary
//! optimization target.
//!
//! A DenseNet is a sequence of Dense Blocks connected by transition layers.
//! Each composite layer (CPL) is `BN → ReLU → 1×1 CONV (4k) → BN → ReLU →
//! 3×3 CONV (k)` and its output is concatenated onto the running feature
//! map (dense connectivity). Transition layers are `BN → ReLU → 1×1 CONV
//! (compression θ=0.5) → 2×2 average pool`.

use bnff_graph::builder::GraphBuilder;
use bnff_graph::op::{Conv2dAttrs, PoolAttrs};
use bnff_graph::{Graph, NodeId, Result};
use bnff_tensor::Shape;

/// Configuration of a DenseNet-BC network.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DenseNetConfig {
    /// Growth rate `k`: channels added by every composite layer.
    pub growth_rate: usize,
    /// Number of composite layers in each dense block.
    pub block_layers: Vec<usize>,
    /// Channels produced by the stem convolution.
    pub stem_channels: usize,
    /// Bottleneck width multiplier `m` (the 1×1 CONV outputs `m·k`).
    pub bottleneck_factor: usize,
    /// Transition compression factor θ (0.5 for DenseNet-BC).
    pub compression: f64,
    /// Number of classifier classes.
    pub classes: usize,
    /// Input image resolution (square).
    pub image_size: usize,
    /// Whether the stem uses the ImageNet 7×7/2 conv + 3×3/2 pool (true) or
    /// the CIFAR 3×3/1 conv (false).
    pub imagenet_stem: bool,
}

impl DenseNetConfig {
    /// DenseNet-121: blocks of 6, 12, 24, 16 composite layers, growth 32.
    pub(crate) fn d121() -> Self {
        DenseNetConfig {
            growth_rate: 32,
            block_layers: vec![6, 12, 24, 16],
            stem_channels: 64,
            bottleneck_factor: 4,
            compression: 0.5,
            classes: 1000,
            image_size: 224,
            imagenet_stem: true,
        }
    }

    /// DenseNet-169: blocks of 6, 12, 32, 32.
    pub(crate) fn d169() -> Self {
        DenseNetConfig { block_layers: vec![6, 12, 32, 32], ..Self::d121() }
    }

    /// A small CIFAR-scale DenseNet-BC for numerical experiments.
    pub(crate) fn cifar(growth_rate: usize, layers_per_block: usize, classes: usize) -> Self {
        DenseNetConfig {
            growth_rate,
            block_layers: vec![layers_per_block; 3],
            stem_channels: 2 * growth_rate,
            bottleneck_factor: 4,
            compression: 0.5,
            classes,
            image_size: 32,
            imagenet_stem: false,
        }
    }
}

/// One composite layer: BN → ReLU → 1×1 CONV (bottleneck) → BN → ReLU →
/// 3×3 CONV, returning the 3×3 CONV's node.
fn composite_layer(
    b: &mut GraphBuilder,
    input: NodeId,
    cfg: &DenseNetConfig,
    prefix: &str,
) -> Result<NodeId> {
    let bottleneck = b.bn_relu_conv(
        input,
        Conv2dAttrs::pointwise(cfg.bottleneck_factor * cfg.growth_rate),
        &format!("{prefix}/bottleneck"),
    )?;
    b.bn_relu_conv(bottleneck, Conv2dAttrs::same_3x3(cfg.growth_rate), &format!("{prefix}/growth"))
}

/// Builds a DenseNet-BC graph for the given mini-batch size.
///
/// # Errors
/// Returns an error if the configuration produces inconsistent shapes.
pub(crate) fn densenet(batch: usize, cfg: &DenseNetConfig) -> Result<Graph> {
    let name = format!(
        "densenet-{}-k{}",
        1 + 2 * self_total_layers(cfg) + cfg.block_layers.len(),
        cfg.growth_rate
    );
    let mut b = GraphBuilder::new(name);
    let data = b.input("data", Shape::nchw(batch, 3, cfg.image_size, cfg.image_size))?;
    let labels = b.input("labels", Shape::vector(batch))?;

    // Stem.
    let mut current = if cfg.imagenet_stem {
        let c = b.conv2d(data, Conv2dAttrs::new(cfg.stem_channels, 7, 2, 3), "stem/conv")?;
        let bn = b.batch_norm_default(c, "stem/bn")?;
        let r = b.relu(bn, "stem/relu")?;
        b.max_pool(r, PoolAttrs::new(3, 2, 1), "stem/pool")?
    } else {
        b.conv2d(data, Conv2dAttrs::same_3x3(cfg.stem_channels), "stem/conv")?
    };
    let mut channels = cfg.stem_channels;

    for (block_idx, &layers) in cfg.block_layers.iter().enumerate() {
        for layer_idx in 0..layers {
            let prefix = format!("block{}/cpl{}", block_idx + 1, layer_idx + 1);
            let new_features = composite_layer(&mut b, current, cfg, &prefix)?;
            current = b.concat(vec![current, new_features], &format!("{prefix}/concat"))?;
            channels += cfg.growth_rate;
        }
        if block_idx + 1 < cfg.block_layers.len() {
            // Transition: BN → ReLU → 1×1 CONV (compression) → 2×2 avg pool.
            let out_channels = ((channels as f64) * cfg.compression).floor() as usize;
            let prefix = format!("transition{}", block_idx + 1);
            let conv = b.bn_relu_conv(current, Conv2dAttrs::pointwise(out_channels), &prefix)?;
            current = b.avg_pool(conv, PoolAttrs::new(2, 2, 0), &format!("{prefix}/pool"))?;
            channels = out_channels;
        }
    }

    // Classifier head: BN → ReLU → global average pool → FC → softmax.
    let bn = b.batch_norm_default(current, "head/bn")?;
    let relu = b.relu(bn, "head/relu")?;
    let gap = b.global_avg_pool(relu, "head/gap")?;
    let fc = b.fully_connected(gap, cfg.classes, "head/fc")?;
    b.softmax_loss(fc, labels, "loss")?;
    Ok(b.finish())
}

fn self_total_layers(cfg: &DenseNetConfig) -> usize {
    cfg.block_layers.iter().sum()
}

/// DenseNet-121 at ImageNet resolution.
///
/// # Errors
/// Returns an error if graph construction fails.
pub fn densenet121(batch: usize) -> Result<Graph> {
    let mut g = densenet(batch, &DenseNetConfig::d121())?;
    g.set_name("densenet-121");
    Ok(g)
}

/// DenseNet-169 at ImageNet resolution.
///
/// # Errors
/// Returns an error if graph construction fails.
pub(crate) fn densenet169(batch: usize) -> Result<Graph> {
    let mut g = densenet(batch, &DenseNetConfig::d169())?;
    g.set_name("densenet-169");
    Ok(g)
}

/// A small CIFAR-scale DenseNet-BC used by the numerical training tests.
///
/// # Errors
/// Returns an error if graph construction fails.
pub fn densenet_cifar(
    batch: usize,
    growth_rate: usize,
    layers_per_block: usize,
    classes: usize,
) -> Result<Graph> {
    let mut g = densenet(batch, &DenseNetConfig::cifar(growth_rate, layers_per_block, classes))?;
    g.set_name("densenet-cifar");
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_graph::op::OpKind;

    #[test]
    fn densenet121_has_120_conv_layers_plus_fc() {
        let g = densenet121(4).unwrap();
        let convs = g.nodes().filter(|n| matches!(n.op, OpKind::Conv2d(_))).count();
        assert_eq!(convs, 120);
        let fcs = g.nodes().filter(|n| matches!(n.op, OpKind::FullyConnected { .. })).count();
        assert_eq!(fcs, 1);
    }

    #[test]
    fn densenet121_bn_count() {
        // One BN per conv inside CPLs/transitions/stem plus the head BN:
        // 2 per CPL (58 CPLs = 116) + 3 transitions + stem + head = 121.
        let g = densenet121(2).unwrap();
        let bns = g.nodes().filter(|n| matches!(n.op, OpKind::BatchNorm(_))).count();
        assert_eq!(bns, 121);
    }

    #[test]
    fn densenet121_parameter_count_matches_reference() {
        // torchvision's densenet121 has 7,978,856 learnable parameters.
        let g = densenet121(1).unwrap();
        let params = g.parameter_count();
        assert!(
            (7_800_000..=8_100_000).contains(&params),
            "parameter count {params} outside expected DenseNet-121 range"
        );
    }

    #[test]
    fn densenet121_validates_and_shapes_flow() {
        let g = densenet121(2).unwrap();
        assert!(g.validate().is_ok());
        // Final dense block output: 1024 channels at 7x7.
        let head_bn = g.nodes().find(|n| n.name == "head/bn").unwrap();
        assert_eq!(head_bn.output_shape, Shape::nchw(2, 1024, 7, 7));
        let loss = g.nodes().find(|n| n.name == "loss").unwrap();
        assert_eq!(loss.output_shape, Shape::scalar());
    }

    #[test]
    fn densenet169_is_deeper() {
        let g121 = densenet121(1).unwrap();
        let g169 = densenet169(1).unwrap();
        assert!(g169.node_count() > g121.node_count());
        assert!(g169.parameter_count() > g121.parameter_count());
    }

    #[test]
    fn cifar_variant_is_small() {
        let g = densenet_cifar(8, 12, 6, 10).unwrap();
        assert!(g.validate().is_ok());
        assert!(g.parameter_count() < 1_500_000);
        // Input stays at 32x32 through the first block.
        let first_concat = g.nodes().find(|n| n.name == "block1/cpl1/concat").unwrap();
        assert_eq!(first_concat.output_shape.h(), 32);
    }

    #[test]
    fn concat_grows_channels_by_growth_rate() {
        let g = densenet_cifar(2, 12, 4, 10).unwrap();
        let c1 = g.nodes().find(|n| n.name == "block1/cpl1/concat").unwrap();
        let c2 = g.nodes().find(|n| n.name == "block1/cpl2/concat").unwrap();
        assert_eq!(c2.output_shape.c() - c1.output_shape.c(), 12);
    }

    #[test]
    fn transition_halves_channels_and_spatial() {
        let g = densenet121(2).unwrap();
        // After block1: 64 + 6*32 = 256 channels at 56x56 -> transition to
        // 128 channels at 28x28.
        let t1 = g.nodes().find(|n| n.name == "transition1/pool").unwrap();
        assert_eq!(t1.output_shape, Shape::nchw(2, 128, 28, 28));
        let t2 = g.nodes().find(|n| n.name == "transition2/pool").unwrap();
        assert_eq!(t2.output_shape, Shape::nchw(2, 256, 14, 14));
        let t3 = g.nodes().find(|n| n.name == "transition3/pool").unwrap();
        assert_eq!(t3.output_shape, Shape::nchw(2, 512, 7, 7));
    }
}
