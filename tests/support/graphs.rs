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
