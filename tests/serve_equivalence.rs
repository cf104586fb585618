//! Workspace integration tests for the serving subsystem: the freeze pass
//! must structurally handle the whole model zoo, and frozen-graph inference
//! must match the training executor's eval-mode (running-statistics)
//! forward within 1e-5 for CIFAR-scale zoo models at every measured fusion
//! level (0–3: Baseline, RCF, RCF+MVF, BNFF), bit-identically across
//! `BNFF_THREADS` 1 and 4.

use bnff::core::{BnffOptimizer, FusionLevel};
use bnff::graph::passes::freeze;
use bnff::graph::plan::ExecutionPlan;
use bnff::graph::Graph;
use bnff::models::zoo::{build, Model};
use bnff::models::{densenet_cifar, resnet_cifar};
use bnff::parallel::with_threads;
use bnff::serve::ServeEngine;
use bnff::tensor::init::Initializer;
use bnff::tensor::{Shape, Tensor};
use bnff::train::Executor;

/// Prepares a trained-ish executor (moved running statistics) and an input
/// batch for one graph.
fn conditioned(graph: &Graph, seed: u64) -> (Executor, Tensor, Vec<usize>) {
    let input_shape = graph
        .input_nodes()
        .into_iter()
        .map(|id| graph.node(id).unwrap().output_shape.clone())
        .find(Shape::is_nchw)
        .expect("graph has a data input");
    let mut exec = Executor::new(graph.clone(), seed).unwrap();
    let mut init = Initializer::seeded(seed ^ 0xbadc0de);
    let labels: Vec<usize> = (0..input_shape.n()).map(|i| i % 4).collect();
    let data = init.uniform(input_shape, -1.0, 1.0);
    let fwd = exec.forward(&data, &labels).unwrap();
    exec.update_running_stats(&fwd).unwrap();
    (exec, data, labels)
}

/// Frozen inference vs eval-mode forward, within 1e-5 and bit-identical
/// across thread counts.
fn check_frozen_equivalence(graph: &Graph, context: &str) {
    let (exec, data, labels) = conditioned(graph, 171);
    let model = ServeEngine::builder().executor(&exec).build_model().unwrap();
    let mut per_thread_bits: Vec<Vec<u32>> = Vec::new();
    for threads in [1usize, 4] {
        with_threads(threads, || {
            let eval = exec.forward_eval(&data, &labels).unwrap();
            let scores = model.executor(data.shape().n()).unwrap().infer(&data).unwrap();
            let div = eval.scores.max_abs_diff(&scores).unwrap();
            assert!(div < 1e-5, "{context} t{threads}: frozen diverges from eval by {div}");
            per_thread_bits.push(scores.as_slice().iter().map(|v| v.to_bits()).collect());
        });
    }
    assert_eq!(
        per_thread_bits[0], per_thread_bits[1],
        "{context}: frozen scores differ between 1 and 4 threads"
    );
}

#[test]
fn cifar_densenet_frozen_matches_eval_at_levels_0_to_3() {
    let baseline = densenet_cifar(4, 6, 2, 4).unwrap();
    for level in FusionLevel::measured() {
        let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
        check_frozen_equivalence(&graph, &format!("densenet-cifar {level}"));
    }
}

#[test]
fn cifar_resnet_frozen_matches_eval_at_levels_0_to_3() {
    let baseline = resnet_cifar(4, 1, 4).unwrap();
    for level in FusionLevel::measured() {
        let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
        check_frozen_equivalence(&graph, &format!("resnet-cifar {level}"));
    }
}

#[test]
fn the_whole_zoo_freezes_structurally_at_every_level() {
    // ImageNet-scale models are too slow to execute numerically in tier-1,
    // but the freeze pass must still handle their structure: validate the
    // frozen graph, plan it for inference, and check recipe coverage.
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
        let baseline = build(model, 2).unwrap();
        for level in FusionLevel::measured() {
            let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
            let context = format!("{} {level}", model.display_name());
            let frozen = freeze::freeze(&graph).unwrap();
            frozen.graph.validate().unwrap_or_else(|e| panic!("{context}: {e}"));
            for node in frozen.graph.nodes() {
                assert!(!node.op.is_bn_related(), "{context}: {} survived the freeze", node.op);
                if node.op.has_parameters() {
                    assert!(
                        frozen.recipes.contains_key(&node.id.index()),
                        "{context}: no fold recipe for '{}'",
                        node.name
                    );
                }
            }
            let plan = ExecutionPlan::for_inference(&frozen.graph).unwrap();
            assert!(
                plan.planned_peak_bytes() < plan.naive_total_bytes(),
                "{context}: inference plan does not reuse buffers"
            );
        }
    }
}

/// Exhaustive numeric sweep over the executable zoo — slow, so opt-in:
/// `cargo test --test serve_equivalence -- --ignored`.
#[test]
#[ignore = "minutes-long ImageNet-scale numeric sweep; run explicitly"]
fn full_zoo_frozen_matches_eval_numerically() {
    for model in [Model::AlexNet, Model::ResNet18, Model::ResNet50, Model::DenseNet121] {
        let baseline = build(model, 1).unwrap();
        for level in FusionLevel::measured() {
            let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
            check_frozen_equivalence(&graph, &format!("{} {level}", model.display_name()));
        }
    }
}
