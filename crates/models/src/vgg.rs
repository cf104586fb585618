//! VGG-16 (Simonyan & Zisserman, 2014) — the second early, CONV-dominated
//! model of the paper's Figure 1 breakdown. No Batch Normalization.

use bnff_graph::builder::GraphBuilder;
use bnff_graph::op::{Conv2dAttrs, PoolAttrs};
use bnff_graph::{Graph, NodeId, Result};
use bnff_tensor::Shape;

fn vgg_block(
    b: &mut GraphBuilder,
    mut current: NodeId,
    convs: usize,
    channels: usize,
    stage: usize,
) -> Result<NodeId> {
    for i in 0..convs {
        let c = b.conv2d(
            current,
            Conv2dAttrs::same_3x3(channels).with_bias(),
            &format!("conv{stage}_{}", i + 1),
        )?;
        current = b.relu(c, &format!("relu{stage}_{}", i + 1))?;
    }
    b.max_pool(current, PoolAttrs::new(2, 2, 0), &format!("pool{stage}"))
}

/// VGG-16 at 224×224 (configuration D: 13 convolutions + 3 FC layers).
///
/// # Errors
/// Returns an error if graph construction fails.
pub(crate) fn vgg16(batch: usize) -> Result<Graph> {
    let mut b = GraphBuilder::new("vgg-16");
    let data = b.input("data", Shape::nchw(batch, 3, 224, 224))?;
    let labels = b.input("labels", Shape::vector(batch))?;
    let mut current = data;
    for (stage, (convs, channels)) in
        [(2usize, 64usize), (2, 128), (3, 256), (3, 512), (3, 512)].iter().enumerate()
    {
        current = vgg_block(&mut b, current, *convs, *channels, stage + 1)?;
    }
    let fc6 = b.fully_connected(current, 4096, "fc6")?;
    let r6 = b.relu(fc6, "relu6")?;
    let fc7 = b.fully_connected(r6, 4096, "fc7")?;
    let r7 = b.relu(fc7, "relu7")?;
    let fc8 = b.fully_connected(r7, 1000, "fc8")?;
    b.softmax_loss(fc8, labels, "loss")?;
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_graph::op::OpKind;

    #[test]
    fn vgg16_structure() {
        let g = vgg16(2).unwrap();
        assert!(g.validate().is_ok());
        let convs = g.nodes().filter(|n| matches!(n.op, OpKind::Conv2d(_))).count();
        assert_eq!(convs, 13);
        let fcs = g.nodes().filter(|n| matches!(n.op, OpKind::FullyConnected { .. })).count();
        assert_eq!(fcs, 3);
    }

    #[test]
    fn vgg16_parameter_count() {
        // torchvision's vgg16 has ~138.4 M parameters.
        let g = vgg16(1).unwrap();
        let params = g.parameter_count();
        assert!(
            (137_000_000..=139_500_000).contains(&params),
            "vgg16 parameter count {params} outside expected range"
        );
    }

    #[test]
    fn vgg16_final_feature_map() {
        let g = vgg16(2).unwrap();
        let p5 = g.nodes().find(|n| n.name == "pool5").unwrap();
        assert_eq!(p5.output_shape, Shape::nchw(2, 512, 7, 7));
    }
}
