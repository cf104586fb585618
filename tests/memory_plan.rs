//! Workspace integration tests for the memory planner and the plan-driven
//! executor: buffer reuse must be invisible to the numerics (bit-identical
//! losses and gradients against the naive reference executor, across thread
//! counts and across training steps), and the planned peak activation
//! footprint must beat naive per-node allocation on the model zoo.

use bnff::core::{BnffOptimizer, FusionLevel};
use bnff::graph::plan::ExecutionPlan;
use bnff::graph::Graph;
use bnff::models::zoo::{build, Model};
use bnff::models::{densenet_cifar, resnet_cifar};
use bnff::parallel::with_threads;
use bnff::tensor::init::Initializer;
use bnff::tensor::{Shape, Tensor};
use bnff::train::{Executor, Gradients};

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn vec_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts two gradient sets are bit-identical, node by node — the stem
/// convolution's `d_weights` included, which is as far back as a gradient
/// is computed (nothing consumes the data input's).
fn assert_grads_bit_identical(a: &Gradients, b: &Gradients, context: &str) {
    use bnff::train::params::NodeParamGrads as G;
    assert_eq!(a.per_node.len(), b.per_node.len(), "{context}: gradient node sets differ");
    let mut keys: Vec<usize> = a.per_node.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let (ga, gb) = (&a.per_node[&key], &b.per_node[&key]);
        match (ga, gb) {
            (G::Conv { d_weights: wa, d_bias: ba }, G::Conv { d_weights: wb, d_bias: bb }) => {
                assert_eq!(bits(wa), bits(wb), "{context}: conv weights of node {key}");
                assert_eq!(vec_bits(ba), vec_bits(bb), "{context}: conv bias of node {key}");
            }
            (G::Bn { d_gamma: ga_, d_beta: ba }, G::Bn { d_gamma: gb_, d_beta: bb }) => {
                assert_eq!(vec_bits(ga_), vec_bits(gb_), "{context}: gamma of node {key}");
                assert_eq!(vec_bits(ba), vec_bits(bb), "{context}: beta of node {key}");
            }
            (
                G::ConvBn { d_weights: wa, d_bias: ba, d_gamma: gga, d_beta: bba },
                G::ConvBn { d_weights: wb, d_bias: bb, d_gamma: ggb, d_beta: bbb },
            ) => {
                assert_eq!(bits(wa), bits(wb), "{context}: fused weights of node {key}");
                assert_eq!(vec_bits(ba), vec_bits(bb), "{context}: fused bias of node {key}");
                assert_eq!(vec_bits(gga), vec_bits(ggb), "{context}: fused gamma of node {key}");
                assert_eq!(vec_bits(bba), vec_bits(bbb), "{context}: fused beta of node {key}");
            }
            (G::Fc { d_weights: wa, d_bias: ba }, G::Fc { d_weights: wb, d_bias: bb }) => {
                assert_eq!(bits(wa), bits(wb), "{context}: fc weights of node {key}");
                assert_eq!(vec_bits(ba), vec_bits(bb), "{context}: fc bias of node {key}");
            }
            _ => panic!("{context}: gradient variants of node {key} differ"),
        }
    }
}

/// Runs planned-vs-naive on one graph under one thread count; the planned
/// path runs twice so cross-step buffer recycling is exercised.
fn check_equivalence(graph: &Graph, threads: usize, context: &str) {
    let exec = Executor::new(graph.clone(), 41).unwrap();
    let batch = 6;
    let mut init = Initializer::seeded(42);
    let data = init.uniform(Shape::nchw(batch, 3, 32, 32), -1.0, 1.0);
    let labels: Vec<usize> = (0..batch).map(|i| i % 4).collect();

    with_threads(threads, || {
        let naive_fwd = exec.forward_naive(&data, &labels).unwrap();
        let naive_grads = exec.backward(&naive_fwd).unwrap();

        for step in 0..2 {
            let fwd = exec.forward(&data, &labels).unwrap();
            let step_ctx = format!("{context} t{threads} step{step}");
            assert_eq!(fwd.loss.to_bits(), naive_fwd.loss.to_bits(), "{step_ctx}: loss");
            assert_eq!(
                fwd.accuracy.to_bits(),
                naive_fwd.accuracy.to_bits(),
                "{step_ctx}: accuracy"
            );
            assert_eq!(bits(&fwd.scores), bits(&naive_fwd.scores), "{step_ctx}: scores");
            let grads = exec.backward(&fwd).unwrap();
            assert_grads_bit_identical(&grads, &naive_grads, &step_ctx);
        }
    });
}

#[test]
fn planned_execution_is_bit_identical_on_the_baseline_densenet() {
    let graph = densenet_cifar(6, 6, 2, 4).unwrap();
    for threads in [1usize, 4] {
        check_equivalence(&graph, threads, "densenet baseline");
    }
}

#[test]
fn planned_execution_is_bit_identical_on_the_bnff_densenet() {
    let baseline = densenet_cifar(6, 6, 2, 4).unwrap();
    let restructured = BnffOptimizer::new(FusionLevel::Bnff).apply(&baseline).unwrap();
    for threads in [1usize, 4] {
        check_equivalence(&restructured, threads, "densenet bnff");
    }
}

#[test]
fn planned_execution_is_bit_identical_on_resnet_graphs() {
    let baseline = resnet_cifar(6, 1, 4).unwrap();
    check_equivalence(&baseline, 4, "resnet baseline");
    let restructured = BnffOptimizer::new(FusionLevel::Bnff).apply(&baseline).unwrap();
    check_equivalence(&restructured, 4, "resnet bnff");
}

#[test]
fn planned_execution_is_bit_identical_with_split_maxpool_and_eltwise() {
    // The zoo's executed models cover conv/BN/ReLU/avg-pool/concat/FC; this
    // graph adds the remaining executor arms — Split aliasing, max pooling
    // and the residual element-wise sum — to the planned-vs-naive check.
    use bnff::graph::builder::GraphBuilder;
    use bnff::graph::op::{Conv2dAttrs, PoolAttrs};
    let mut b = GraphBuilder::new("mixed");
    let x = b.input("data", Shape::nchw(6, 3, 32, 32)).unwrap();
    let labels = b.input("labels", Shape::vector(6)).unwrap();
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
    let graph = b.finish();
    for threads in [1usize, 4] {
        check_equivalence(&graph, threads, "mixed ops");
    }
}

#[test]
fn planned_peak_never_exceeds_the_naive_total_across_the_zoo() {
    for model in [
        Model::AlexNet,
        Model::Vgg16,
        Model::ResNet18,
        Model::ResNet50,
        Model::DenseNet121,
        Model::DenseNet169,
        Model::DenseNetCifar,
        Model::ResNetCifar,
    ] {
        let graph = build(model, 2).unwrap();
        let plan = ExecutionPlan::for_graph(&graph).unwrap();
        assert!(
            plan.planned_peak_bytes() <= plan.naive_total_bytes(),
            "{}: planned {} exceeds naive {}",
            model.display_name(),
            plan.planned_peak_bytes(),
            plan.naive_total_bytes()
        );
    }
}

#[test]
fn planned_peak_is_strictly_below_naive_for_resnet_and_densenet() {
    for model in [Model::ResNet50, Model::DenseNet121, Model::ResNetCifar, Model::DenseNetCifar] {
        let graph = build(model, 2).unwrap();
        let plan = ExecutionPlan::for_graph(&graph).unwrap();
        assert!(
            plan.planned_peak_bytes() < plan.naive_total_bytes(),
            "{}: planned {} not strictly below naive {}",
            model.display_name(),
            plan.planned_peak_bytes(),
            plan.naive_total_bytes()
        );
        // The plan must actually pack transient tensors into shared slots.
        assert!(plan.slot_count() >= 1, "{}: no reuse slots", model.display_name());
    }
}

#[test]
fn restructured_graphs_still_plan_their_memory() {
    // Every fusion level's graph must be plannable, and the planner must
    // keep beating naive allocation after restructuring.
    let baseline = densenet_cifar(4, 8, 2, 4).unwrap();
    for level in FusionLevel::all() {
        let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
        let plan = ExecutionPlan::for_graph(&graph).unwrap();
        assert!(
            plan.planned_peak_bytes() < plan.naive_total_bytes(),
            "{level:?}: planned {} vs naive {}",
            plan.planned_peak_bytes(),
            plan.naive_total_bytes()
        );
    }
}
