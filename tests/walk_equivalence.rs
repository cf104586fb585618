//! Workspace integration tests for the served forward walk (the training
//! executor's eval walk over the frozen graph's inference plan): for the
//! CIFAR-scale zoo models at every measured fusion level (0–3: Baseline,
//! RCF, RCF+MVF, BNFF), and for a graph with a Split, a max pool and a
//! residual sum, it must produce **bit-identical** scores to the plan-free
//! reference interpreter in `support` run in eval mode on the training
//! graph, at batch sizes 1, 4 and 8 and across `BNFF_THREADS` 1 and 4.
//! One executor serves every prefix `1 ≤ n ≤ max_batch` of its arena
//! buffers, in any order, and rejects every other input with a typed error
//! that leaves it serving.

mod support;

use bnff::core::{BnffOptimizer, FusionLevel};
use bnff::graph::Graph;
use bnff::models::{densenet_cifar, resnet_cifar};
use bnff::parallel::with_threads;
use bnff::serve::{FrozenExecutor, ServeEngine, ServeError};
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

/// The eval-mode reference scores of `exec`'s training graph for `data`, at
/// `data`'s batch size.
fn reference(exec: &Executor, data: &Tensor) -> Tensor {
    let labels = vec![0; data.shape().n()];
    support::training(exec, true, data, &labels).scores.expect("the loss head ran")
}

/// Served walk vs reference, bitwise, at batch sizes 1/4/8 and thread
/// counts 1/4.
fn check_walk_matches_reference(graph: &Graph, context: &str) {
    let exec = conditioned(graph, 23);
    let model = ServeEngine::builder().executor(&exec).build_model().unwrap();
    for batch in [1usize, 4, 8] {
        let executor = model.executor(batch).unwrap();
        let mut init = Initializer::seeded(0x7a9e ^ batch as u64);
        let data = init.uniform(executor.input_shape(), -1.0, 1.0);
        let mut per_thread_bits: Vec<Vec<u32>> = Vec::new();
        for threads in [1usize, 4] {
            with_threads(threads, || {
                let walk = executor.infer(&data).unwrap();
                assert_eq!(
                    to_bits(&walk),
                    to_bits(&reference(&exec, &data)),
                    "{context} b{batch} t{threads}: walk diverges from the reference"
                );
                per_thread_bits.push(to_bits(&walk));
            });
        }
        assert_eq!(
            per_thread_bits[0], per_thread_bits[1],
            "{context} b{batch}: walk scores differ between 1 and 4 threads"
        );
    }
}

#[test]
fn cifar_densenet_walk_matches_interpreted_at_levels_0_to_3() {
    let baseline = densenet_cifar(4, 6, 2, 4).unwrap();
    for level in FusionLevel::measured() {
        let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
        check_walk_matches_reference(&graph, &format!("densenet-cifar {level}"));
    }
}

#[test]
fn cifar_resnet_walk_matches_interpreted_at_levels_0_to_3() {
    let baseline = resnet_cifar(4, 1, 4).unwrap();
    for level in FusionLevel::measured() {
        let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
        check_walk_matches_reference(&graph, &format!("resnet-cifar {level}"));
    }
}

#[test]
fn split_maxpool_and_eltwise_walk_matches_reference() {
    check_walk_matches_reference(&support::graphs::mixed(6), "mixed ops");
}

/// One `n`-sample batch through `executor`, bitwise against the reference.
fn check_prefix(executor: &FrozenExecutor, exec: &Executor, n: usize, seed: u64, what: &str) {
    let mut dims = executor.input_shape().dims().to_vec();
    dims[0] = n;
    let data = Initializer::seeded(seed).uniform(Shape::new(dims), -1.0, 1.0);
    let walk = executor.infer(&data).unwrap();
    assert_eq!(to_bits(&walk), to_bits(&reference(exec, &data)), "{what} n{n}");
}

#[test]
fn one_executor_serves_every_prefix_in_any_order() {
    // Shrinking then growing `n` exposes register tails a previous call
    // wrote: any stale value read would break bit-identity.
    let order = [8usize, 1, 3, 8, 2, 5, 1, 4, 6, 7];
    let graphs = [
        ("densenet-cifar", densenet_cifar(4, 6, 2, 4).unwrap()),
        ("mixed", support::graphs::mixed(6)),
    ];
    for (name, graph) in graphs {
        let exec = conditioned(&graph, 29);
        let model = ServeEngine::builder().executor(&exec).build_model().unwrap();
        let executor = model.executor(8).unwrap();
        assert_eq!(executor.input_shape().dims()[0], 8);
        for threads in [1usize, 4] {
            with_threads(threads, || {
                for (step, &n) in order.iter().enumerate() {
                    let what = format!("{name} t{threads} step {step}");
                    check_prefix(&executor, &exec, n, (threads * 100 + step) as u64, &what);
                }
            });
        }
    }
}

#[test]
fn out_of_range_batches_and_wrong_samples_are_typed_rejections() {
    let exec = conditioned(&support::graphs::mixed(6), 31);
    let model = ServeEngine::builder().executor(&exec).build_model().unwrap();
    let executor = model.executor(8).unwrap();
    check_prefix(&executor, &exec, 5, 1, "warm-up");
    let bad = [
        ("n = 0", Shape::nchw(0, 3, 32, 32)),
        ("n = max_batch + 1", Shape::nchw(9, 3, 32, 32)),
        ("wrong sample shape", Shape::nchw(2, 3, 16, 16)),
    ];
    for (i, (what, shape)) in bad.into_iter().enumerate() {
        let err = executor.infer(&Tensor::zeros(shape)).unwrap_err();
        assert!(matches!(err, ServeError::InvalidArgument(_)), "{what}: {err:?}");
        // The executor keeps serving, bit for bit.
        check_prefix(&executor, &exec, 2 + i, 10 + i as u64, &format!("after {what}"));
    }
}
