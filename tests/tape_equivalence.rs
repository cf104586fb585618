//! Workspace integration tests for the linear instruction tape: for the
//! CIFAR-scale zoo models at every measured fusion level (0–3: Baseline,
//! RCF, RCF+MVF, BNFF), and for a graph with a Split, a max pool and a
//! residual sum, the compiled tape must produce **bit-identical** scores to
//! the plan-free reference interpreter in `support` run on the frozen
//! template, at batch sizes 1, 4 and 8 and across `BNFF_THREADS` 1 and 4 —
//! the tape is a dispatch optimization, never a numerics change.

mod support;

use bnff::core::{BnffOptimizer, FusionLevel};
use bnff::graph::Graph;
use bnff::models::{densenet_cifar, resnet_cifar};
use bnff::parallel::with_threads;
use bnff::serve::ServeEngine;
use bnff::tensor::init::Initializer;
use bnff::tensor::{Shape, Tensor};
use bnff::train::Executor;

/// Prepares a trained-ish executor (moved running statistics) for a graph.
fn conditioned(graph: &Graph, seed: u64) -> Executor {
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
    exec
}

fn to_bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Tape vs reference, bitwise, at batch sizes 1/4/8 and thread counts 1/4.
fn check_tape_matches_reference(graph: &Graph, context: &str) {
    let exec = conditioned(graph, 23);
    let model = ServeEngine::builder().executor(&exec).build_model().unwrap();
    for batch in [1usize, 4, 8] {
        let executor = model.executor(batch).unwrap();
        let mut init = Initializer::seeded(0x7a9e ^ batch as u64);
        let data = init.uniform(executor.input_shape(), -1.0, 1.0);
        let mut per_thread_bits: Vec<Vec<u32>> = Vec::new();
        for threads in [1usize, 4] {
            with_threads(threads, || {
                let tape = executor.infer(&data).unwrap();
                let reference = support::frozen(&model, &data);
                assert_eq!(
                    to_bits(&tape),
                    to_bits(&reference),
                    "{context} b{batch} t{threads}: tape diverges from the reference"
                );
                per_thread_bits.push(to_bits(&tape));
            });
        }
        assert_eq!(
            per_thread_bits[0], per_thread_bits[1],
            "{context} b{batch}: tape scores differ between 1 and 4 threads"
        );
    }
}

#[test]
fn cifar_densenet_tape_matches_interpreted_at_levels_0_to_3() {
    let baseline = densenet_cifar(4, 6, 2, 4).unwrap();
    for level in FusionLevel::measured() {
        let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
        check_tape_matches_reference(&graph, &format!("densenet-cifar {level}"));
    }
}

#[test]
fn cifar_resnet_tape_matches_interpreted_at_levels_0_to_3() {
    let baseline = resnet_cifar(4, 1, 4).unwrap();
    for level in FusionLevel::measured() {
        let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
        check_tape_matches_reference(&graph, &format!("resnet-cifar {level}"));
    }
}

#[test]
fn split_maxpool_and_eltwise_tape_matches_reference() {
    check_tape_matches_reference(&support::graphs::mixed(6), "mixed ops");
}
