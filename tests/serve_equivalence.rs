//! Workspace integration tests for the serving subsystem: the freeze pass
//! must structurally handle the whole model zoo, and frozen-graph inference
//! must equal the training executor's eval-mode (running-statistics)
//! forward **bit for bit** — for CIFAR-scale zoo models at every measured
//! fusion level, across `BNFF_THREADS` 1 and 4. Training is bit-identical
//! across fusion levels, so a model trained at any level serves the
//! Baseline's eval scores.

use bnff::core::{BnffOptimizer, FusionLevel};
use bnff::graph::op::{ConvPrologue, OpForm, OpKind};
use bnff::graph::passes::freeze;
use bnff::graph::ExecutionPlan;
use bnff::graph::{Graph, NodeId};
use bnff::kernels::batchnorm::BnParams;
use bnff::models::zoo::{build, Model};
use bnff::models::{densenet_cifar, resnet_cifar};
use bnff::parallel::with_threads;
use bnff::serve::{FrozenModel, ServeEngine, ServeError};
use bnff::tensor::init::Initializer;
use bnff::tensor::{Shape, Tensor};
use bnff::train::data::SyntheticDataset;
use bnff::train::{Executor, NodeParams, ParamSet, RunningStatSet, TrainConfig, Trainer};

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

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Frozen inference vs eval-mode forward, bit for bit, at 1 and 4 threads.
fn check_frozen_equivalence(graph: &Graph, context: &str) {
    let (exec, data, labels) = conditioned(graph, 171);
    let model = ServeEngine::builder().executor(&exec).build_model().unwrap();
    for threads in [1usize, 4] {
        with_threads(threads, || {
            let eval = exec.forward_eval(&data, &labels).unwrap();
            let scores = model.executor(data.shape().n()).unwrap().infer(&data).unwrap();
            assert_eq!(bits(&scores), bits(&eval.scores), "{context} t{threads}: frozen ≠ eval");
        });
    }
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

/// A trainer for `graph` after two SGD steps on synthetic data; every level
/// of one model gets the same data, seed and configuration.
fn trained(graph: Graph, batch: usize) -> Trainer {
    let dataset = SyntheticDataset::new(4, 3, 32, 0.1, 29).unwrap();
    let config = TrainConfig { batch_size: batch, steps: 2, seed: 17, ..TrainConfig::default() };
    let mut trainer = Trainer::new(graph, dataset, config).unwrap();
    for step in 0..2 {
        trainer.step(step).unwrap();
    }
    trainer
}

#[test]
fn every_level_serves_the_baselines_eval_scores() {
    for (model, baseline, batch) in [
        ("densenet-cifar", densenet_cifar(4, 6, 2, 4).unwrap(), 4),
        ("resnet-cifar", resnet_cifar(4, 1, 4).unwrap(), 4),
    ] {
        // Every level trains independently: side by side, one kernel worker
        // each (bits do not depend on the worker count).
        let trainers: Vec<(FusionLevel, Trainer)> = std::thread::scope(|s| {
            let runs: Vec<_> = FusionLevel::all()
                .into_iter()
                .map(|level| {
                    let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
                    (level, s.spawn(move || with_threads(1, || trained(graph, batch))))
                })
                .collect();
            runs.into_iter().map(|(level, run)| (level, run.join().unwrap())).collect()
        });
        let probe = Initializer::seeded(5).uniform(Shape::nchw(batch, 3, 32, 32), -1.0, 1.0);
        let labels = vec![0; batch];
        let (_, base) = &trainers[0];
        let want = bits(&base.executor().forward_eval(&probe, &labels).unwrap().scores);
        for (level, trainer) in &trainers {
            let served = ServeEngine::builder().executor(trainer.executor()).build_model().unwrap();
            let executor = served.executor(batch).unwrap();
            for threads in [1usize, 4] {
                let got = with_threads(threads, || executor.infer(&probe).unwrap());
                assert_eq!(bits(&got), want, "{model} {level} t{threads}: ≠ the Baseline's eval");
            }
        }
    }
}

/// Parameters of the kind every parameterised node takes, with empty
/// tensors: freezing checks their kinds and building an executor reads no
/// weight, so the structural sweep needs no ImageNet-sized initialization.
fn hollow_params(graph: &Graph) -> ParamSet {
    let empty = || Tensor::zeros(Shape::new(vec![0]));
    let mut params = ParamSet::new();
    for node in graph.nodes() {
        let entry = match (node.op.form(), &node.op) {
            (OpForm::Conv { prologue: ConvPrologue::NormRelu(_), .. }, _) => {
                NodeParams::ConvBn { weights: empty(), bias: None, bn: BnParams::identity(0) }
            }
            (OpForm::Conv { .. }, _) => NodeParams::Conv { weights: empty(), bias: None },
            (OpForm::Norm { .. }, _) => NodeParams::Bn(BnParams::identity(0)),
            (_, OpKind::FullyConnected { .. }) => {
                NodeParams::Fc { weights: empty(), bias: Vec::new() }
            }
            _ => continue,
        };
        params.insert(node.id, entry);
    }
    params
}

#[test]
fn the_whole_zoo_freezes_structurally_at_every_level() {
    // ImageNet-scale models are too slow to execute numerically in tier-1,
    // but the freeze pass, the parameter re-keying and the inference plan
    // must still handle their structure: every model and level builds a
    // serving executor.
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
            let running = RunningStatSet::initialize(&graph);
            let served = FrozenModel::from_parts(&graph, &hollow_params(&graph), &running)
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            let executor = served.executor(2).unwrap_or_else(|e| panic!("{context}: {e}"));
            let frozen = freeze::freeze(&graph).unwrap();
            frozen.graph.validate().unwrap_or_else(|e| panic!("{context}: {e}"));
            // Only the loss head and the label input go.
            assert_eq!(frozen.graph.node_count(), graph.node_count() - 2, "{context}");
            let plan = ExecutionPlan::for_inference(&frozen.graph).unwrap();
            assert!(
                plan.planned_peak_bytes() < plan.naive_total_bytes(),
                "{context}: inference plan does not reuse buffers"
            );
            // The walk writes a tensor for every node but the data input,
            // Splits, statistics nodes and ropes.
            let silent = frozen
                .graph
                .nodes()
                .filter(|n| {
                    matches!(n.op, OpKind::Input | OpKind::Split { .. } | OpKind::SubBnStats(_))
                        || plan.is_rope(n.id)
                })
                .count();
            assert_eq!(executor.program().len(), frozen.graph.node_count() - silent, "{context}");
        }
    }
}

#[test]
fn a_model_missing_a_part_fails_at_load_not_at_its_first_request() {
    // A BNFF DenseNet: its fused convolutions own weights and γ/β, and its
    // statistics sources own running statistics.
    let graph = BnffOptimizer::new(FusionLevel::Bnff).apply(&densenet_cifar(2, 4, 1, 4).unwrap());
    let exec = Executor::new(graph.unwrap(), 3).unwrap();
    let (graph, params, running) = (exec.graph(), exec.params(), exec.running_stats());
    FrozenModel::from_parts(graph, params, running).unwrap().executor(2).unwrap();

    let conv = graph.nodes().find(|n| n.op.conv_attrs().is_some()).unwrap();
    let mut no_weights = ParamSet::new();
    params.iter().filter(|(idx, _)| **idx != conv.id.index()).for_each(|(idx, p)| {
        no_weights.insert(NodeId::new(*idx), p.clone());
    });
    let err = FrozenModel::from_parts(graph, &no_weights, running).unwrap_err();
    assert!(matches!(&err, ServeError::Params(msg) if msg.contains(&conv.name)), "{err}");

    let source = graph.nodes().find(|n| n.op.stats_out().is_some()).unwrap();
    let entries = running.iter().filter(|(idx, _)| **idx != source.id.index());
    let entries = entries.map(|(idx, s)| (*idx, s.clone())).collect();
    let no_stats = RunningStatSet::from_entries(entries, running.momentum());
    let err = FrozenModel::from_parts(graph, params, &no_stats).unwrap_err();
    assert!(matches!(&err, ServeError::Params(msg) if msg.contains(&source.name)), "{err}");
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
