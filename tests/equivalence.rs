//! Workspace integration tests: fission and fusion move memory traffic, not
//! arithmetic, so every fusion level must train the Baseline's bits. After
//! each of a few SGD steps the loss, every parameter tensor and every running
//! mean/variance must equal the Baseline's bit for bit. Levels own different
//! nodes (a fused convolution holds the γ/β of the BN it absorbed), so the
//! tensors are compared as multisets of bit patterns. Every (model, level)
//! run is trained once and shared; between them the tests below cover all
//! five levels of both models.

use bnff::core::{BnffOptimizer, FusionLevel};
use bnff::graph::Graph;
use bnff::models::{densenet_cifar, resnet_cifar};
use bnff::parallel::with_threads;
use bnff::train::data::SyntheticDataset;
use bnff::train::{NodeParams, TrainConfig, Trainer};
use std::collections::HashMap;
use std::sync::OnceLock;

const STEPS: usize = 3;
const CLASSES: usize = 4;

/// One tensor's bit pattern and the node (and role) that owns it.
type Owned = (Vec<u32>, String);

/// What a trainer holds after one step.
struct Snapshot {
    loss: u32,
    params: Vec<Owned>,
    running: Vec<Owned>,
}

fn owned(values: &[f32], node: &str, role: &str) -> Owned {
    (values.iter().map(|v| v.to_bits()).collect(), format!("{node} {role}"))
}

fn snapshot(trainer: &Trainer, loss: f32) -> Snapshot {
    let exec = trainer.executor();
    let names: HashMap<usize, &str> =
        exec.graph().nodes().map(|n| (n.id.index(), n.name.as_str())).collect();
    let mut params = Vec::new();
    for (idx, p) in exec.params().iter() {
        let node = names[idx];
        let (weights, bias, bn) = match p {
            NodeParams::Conv { weights, bias } => (Some(weights), bias.as_deref(), None),
            NodeParams::ConvBn { weights, bias, bn } => (Some(weights), bias.as_deref(), Some(bn)),
            NodeParams::Fc { weights, bias } => (Some(weights), Some(bias.as_slice()), None),
            NodeParams::Bn(bn) => (None, None, Some(bn)),
        };
        params.extend(weights.map(|w| owned(w.as_slice(), node, "W")));
        params.extend(bias.map(|b| owned(b, node, "b")));
        if let Some(bn) = bn {
            params.extend([owned(&bn.gamma, node, "γ"), owned(&bn.beta, node, "β")]);
        }
    }
    let mut running = Vec::new();
    for (idx, stats) in exec.running_stats().iter() {
        let node = names[idx];
        running.extend([owned(&stats.mean, node, "mean"), owned(&stats.var, node, "var")]);
    }
    Snapshot { loss: loss.to_bits(), params, running }
}

fn train(graph: Graph, batch: usize) -> Vec<Snapshot> {
    let dataset = SyntheticDataset::new(CLASSES, 3, 32, 0.1, 29).unwrap();
    let config =
        TrainConfig { batch_size: batch, steps: STEPS, seed: 17, ..TrainConfig::default() };
    let mut trainer = Trainer::new(graph, dataset, config).unwrap();
    (0..STEPS)
        .map(|step| {
            let loss = trainer.step(step).unwrap().loss;
            snapshot(&trainer, loss)
        })
        .collect()
}

/// Panics naming a tensor of `got` with no bit-equal twin left in `want` —
/// or, when every one has one, a tensor of `want` left over.
fn assert_same_multiset(want: &[Owned], got: &[Owned], context: &str) {
    let mut unmatched: HashMap<&[u32], Vec<&str>> = HashMap::new();
    for (bits, owner) in want {
        unmatched.entry(bits).or_default().push(owner);
    }
    for (bits, owner) in got {
        let twins = unmatched.get_mut(bits.as_slice());
        if twins.and_then(Vec::pop).is_none() {
            panic!("{context}: {owner} has no bit-equal twin in the Baseline");
        }
    }
    if let Some(owner) = unmatched.values().flatten().min() {
        panic!("{context}: the Baseline's {owner} has no bit-equal twin at this level");
    }
}

/// One (model, level) run: a snapshot after each step.
type Run = (&'static str, FusionLevel, Vec<Snapshot>);

fn runs() -> &'static [Run] {
    static RUNS: OnceLock<Vec<Run>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let models = [("densenet_cifar", densenet(), 8), ("resnet_cifar", resnet(), 4)];
        // Every (model, level) run is independent: train all ten side by
        // side, one kernel worker each (bits do not depend on the worker
        // count, and the runs already fill the cores).
        std::thread::scope(|s| {
            let handles: Vec<_> = models
                .iter()
                .flat_map(|(model, baseline, batch)| {
                    FusionLevel::all().into_iter().map(move |level| {
                        let graph = BnffOptimizer::new(level).apply(baseline).unwrap();
                        (*model, level, s.spawn(move || with_threads(1, || train(graph, *batch))))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|(model, level, run)| (model, level, run.join().unwrap()))
                .collect()
        })
    })
}

fn densenet() -> Graph {
    densenet_cifar(8, 8, 2, CLASSES).unwrap()
}

fn resnet() -> Graph {
    resnet_cifar(4, 1, CLASSES).unwrap()
}

fn snapshots(model: &str, level: FusionLevel) -> &'static [Snapshot] {
    let (_, _, snaps) = runs().iter().find(|(m, l, _)| *m == model && *l == level).unwrap();
    snaps
}

fn assert_trains_the_baselines_bits(model: &str, level: FusionLevel) {
    let want = snapshots(model, FusionLevel::Baseline);
    for (step, (w, g)) in want.iter().zip(snapshots(model, level)).enumerate() {
        let context = format!("{model} {level} step {step}");
        assert_eq!(w.loss, g.loss, "{context}: loss bits");
        assert_same_multiset(&w.params, &g.params, &format!("{context} parameters"));
        assert_same_multiset(&w.running, &g.running, &format!("{context} running statistics"));
    }
}

#[test]
fn mvf_is_numerically_harmless_on_a_small_densenet() {
    // MVF's single-sweep variance moves no bit, nor does the RCF it builds on.
    for level in [FusionLevel::Rcf, FusionLevel::RcfMvf] {
        assert_trains_the_baselines_bits("densenet_cifar", level);
    }
}

#[test]
fn baseline_and_bnff_training_reach_similar_losses() {
    for level in [FusionLevel::Bnff, FusionLevel::BnffIcf] {
        assert_trains_the_baselines_bits("densenet_cifar", level);
    }
}

/// Bit-identity alone would also hold if every level were broken the same
/// way: the shared runs must train, not just agree.
#[test]
fn bnff_restructured_densenet_produces_finite_training_signals() {
    let baseline = densenet();
    let restructured = BnffOptimizer::new(FusionLevel::Bnff).apply(&baseline).unwrap();
    // The restructuring merges layers but never drops a convolution.
    let convs = |g: &Graph| g.nodes().filter(|n| n.op.contains_conv()).count();
    assert_eq!(convs(&baseline), convs(&restructured));

    let snaps = snapshots("densenet_cifar", FusionLevel::Bnff);
    for (step, snap) in snaps.iter().enumerate() {
        let loss = f32::from_bits(snap.loss);
        assert!(loss.is_finite() && loss > 0.0, "step {step}: loss {loss}");
    }
    for (step, pair) in snaps.windows(2).enumerate() {
        assert_ne!(pair[0].params, pair[1].params, "step {}: SGD left every parameter", step + 1);
    }
}

#[test]
fn resnet_style_graphs_survive_the_full_pipeline_too() {
    let restructured = BnffOptimizer::new(FusionLevel::Bnff).apply(&resnet()).unwrap();
    assert!(restructured.validate().is_ok());
    for snap in snapshots("resnet_cifar", FusionLevel::Baseline) {
        assert!(f32::from_bits(snap.loss).is_finite());
    }
    for level in FusionLevel::all() {
        assert_trains_the_baselines_bits("resnet_cifar", level);
    }
}
