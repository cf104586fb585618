//! Test graphs the suites share.

use bnff::graph::builder::GraphBuilder;
use bnff::graph::op::{Conv2dAttrs, PoolAttrs};
use bnff::graph::Graph;
use bnff::tensor::Shape;

/// The executor arms the CIFAR zoo does not run: Split aliasing, max
/// pooling and the residual element-wise sum, on a `batch × 3 × 32 × 32`
/// input with four classes.
pub fn mixed(batch: usize) -> Graph {
    let mut b = GraphBuilder::new("mixed");
    let x = b.input("data", Shape::nchw(batch, 3, 32, 32)).unwrap();
    let labels = b.input("labels", Shape::vector(batch)).unwrap();
    let c1 = b.conv2d(x, Conv2dAttrs::same_3x3(8), "conv1").unwrap();
    let bn = b.batch_norm_default(c1, "bn1").unwrap();
    let s = b.split(bn, 2, "split").unwrap();
    let r = b.relu(s, "relu").unwrap();
    let c2 = b.conv2d(r, Conv2dAttrs::pointwise(8), "conv2").unwrap();
    let ews = b.eltwise_sum(vec![c2, s], "ews").unwrap();
    let mp = b.max_pool(ews, PoolAttrs::new(2, 2, 0), "maxpool").unwrap();
    let gap = b.global_avg_pool(mp, "gap").unwrap();
    let fc = b.fully_connected(gap, 4, "fc").unwrap();
    b.softmax_loss(fc, labels, "loss").unwrap();
    b.finish()
}

/// The concatenations the CIFAR zoo does not build, on a `batch × 3 × 32 ×
/// 32` input with four classes: one nested in another, a tensor (`stem`)
/// feeding several, one a ReLU reads (at every fusion level: no convolution
/// follows it) and one that a ReLU and a normalization both read — the two
/// a training plan copies; the second's growth map (`d`) is read by it
/// alone — and one that holds the same tensor twice.
pub fn concatenations(batch: usize) -> Graph {
    let mut b = GraphBuilder::new("concatenations");
    let x = b.input("data", Shape::nchw(batch, 3, 32, 32)).unwrap();
    let labels = b.input("labels", Shape::vector(batch)).unwrap();
    let stem = b.conv2d(x, Conv2dAttrs::same_3x3(8), "stem").unwrap();
    let a = b.bn_relu_conv(stem, Conv2dAttrs::pointwise(4), "a").unwrap();
    let inner = b.concat(vec![stem, a], "inner").unwrap();
    let grown = b.bn_relu_conv(inner, Conv2dAttrs::same_3x3(4), "b").unwrap();
    let outer = b.concat(vec![inner, grown], "outer").unwrap();
    let side = b.concat(vec![stem, grown], "side").unwrap();
    let clipped = b.relu(side, "relu").unwrap();
    let c = b.bn_relu_conv(outer, Conv2dAttrs::pointwise(12), "c").unwrap();
    let d = b.bn_relu_conv(stem, Conv2dAttrs::pointwise(4), "d").unwrap();
    let both = b.concat(vec![stem, d], "both").unwrap();
    let e = b.bn_relu_conv(both, Conv2dAttrs::pointwise(12), "e").unwrap();
    let both_clipped = b.relu(both, "relu_both").unwrap();
    let twice = b.concat(vec![grown, grown], "twice").unwrap();
    let f = b.bn_relu_conv(twice, Conv2dAttrs::pointwise(12), "f").unwrap();
    let pooled =
        [(c, "gap_c"), (clipped, "gap"), (e, "gap_e"), (both_clipped, "gap_both"), (f, "gap_f")]
            .map(|(x, name)| b.global_avg_pool(x, name).unwrap());
    let sum = b.eltwise_sum(pooled.to_vec(), "sum").unwrap();
    let fc = b.fully_connected(sum, 4, "fc").unwrap();
    b.softmax_loss(fc, labels, "loss").unwrap();
    b.finish()
}

/// A channel rope whose parts are ReLUs that clip their BN's output in
/// place, on a `batch × 3 × 32 × 32` input with four classes: the stem's,
/// which a convolution also reads, and a branch's, which only the rope
/// reads. The rope's gradient goes to the ReLUs' own gradients, its planes
/// come from the BNs' tensors.
pub fn clipped_rope(batch: usize) -> Graph {
    let mut b = GraphBuilder::new("clipped rope");
    let x = b.input("data", Shape::nchw(batch, 3, 32, 32)).unwrap();
    let labels = b.input("labels", Shape::vector(batch)).unwrap();
    let stem = b.conv_bn_relu(x, Conv2dAttrs::same_3x3(8), "stem").unwrap();
    let branch = b.conv_bn_relu(stem, Conv2dAttrs::pointwise(4), "branch").unwrap();
    let rope = b.concat(vec![stem, branch], "rope").unwrap();
    let c = b.bn_relu_conv(rope, Conv2dAttrs::pointwise(8), "c").unwrap();
    let gap = b.global_avg_pool(c, "gap").unwrap();
    let fc = b.fully_connected(gap, 4, "fc").unwrap();
    b.softmax_loss(fc, labels, "loss").unwrap();
    b.finish()
}
