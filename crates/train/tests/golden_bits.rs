//! Golden bits of the numeric executor: two training steps plus one eval
//! forward of a DenseNet-CIFAR and a tiny ResNet at every fusion level,
//! pinned to the scalar ISA, must reproduce the recorded loss, gradient-norm
//! and running-statistics bits exactly — at one thread and at four. A
//! refactor of the executor or the kernels that moves a single bit fails
//! here and has to name the op and the summation order that changed.
//!
//! The table was recorded before the fused-op decoding (`OpKind::form()`)
//! replaced the executor's per-kind arms and has not been edited since.

use bnff_core::{BnffOptimizer, FusionLevel};
use bnff_graph::Graph;
use bnff_models::{densenet_cifar, resnet_cifar};
use bnff_parallel::with_threads;
use bnff_tensor::{with_isa, SimdIsa};
use bnff_train::data::SyntheticDataset;
use bnff_train::{Executor, SgdOptimizer};

const BATCH: usize = 2;
const CLASSES: usize = 4;

/// What one (model, level) run leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// Loss of the second training step.
    loss: u32,
    /// `Gradients::global_norm` of the second training step.
    grad_norm: u64,
    /// FNV-1a over every running mean/variance bit pattern, in node order.
    running: u64,
    /// Loss of one `forward_eval` after the two steps.
    eval_loss: u32,
}

/// One table row: `loss`, `grad_norm`, `running`, `eval_loss`.
const fn row(loss: u32, grad_norm: u64, running: u64, eval_loss: u32) -> Golden {
    Golden { loss, grad_norm, running, eval_loss }
}

fn fnv1a(hash: &mut u64, word: u32) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn run(graph: &Graph) -> Golden {
    let mut exec = Executor::new(graph.clone(), 41).unwrap();
    let mut opt = SgdOptimizer::new(0.05, 0.9, 1e-4).unwrap();
    let dataset = SyntheticDataset::new(CLASSES, 3, 32, 0.1, 7).unwrap();
    let (mut loss, mut grad_norm) = (0, 0);
    for step in 0..2 {
        let (data, labels) = dataset.batch(BATCH, step).unwrap();
        let fwd = exec.forward(&data, &labels).unwrap();
        let grads = exec.backward(&fwd).unwrap();
        exec.update_running_stats(&fwd).unwrap();
        opt.step(exec.params_mut(), &grads).unwrap();
        loss = fwd.loss.to_bits();
        grad_norm = grads.global_norm().to_bits();
    }
    let mut tracked: Vec<_> = exec.running_stats().iter().collect();
    tracked.sort_unstable_by_key(|(idx, _)| **idx);
    let mut running = 0xcbf2_9ce4_8422_2325u64;
    for (_, stats) in tracked {
        stats.mean.iter().chain(&stats.var).for_each(|v| fnv1a(&mut running, v.to_bits()));
    }
    let (data, labels) = dataset.batch(BATCH, 99).unwrap();
    let eval_loss = exec.forward_eval(&data, &labels).unwrap().loss.to_bits();
    Golden { loss, grad_norm, running, eval_loss }
}

fn check(model: &str, baseline: &Graph, expected: &[Golden]) {
    let levels = FusionLevel::all();
    assert_eq!(levels.len(), expected.len());
    for (level, want) in levels.into_iter().zip(expected) {
        let graph = BnffOptimizer::new(level).apply(baseline).unwrap();
        for threads in [1usize, 4] {
            let got = with_isa(SimdIsa::Scalar, || with_threads(threads, || run(&graph)));
            assert_eq!(&got, want, "{model} {} at {threads} thread(s)", level.label());
        }
    }
}

#[test]
fn densenet_cifar_reproduces_the_recorded_bits_at_every_level() {
    let baseline = densenet_cifar(BATCH, 4, 1, CLASSES).unwrap();
    check(
        "densenet_cifar",
        &baseline,
        &[
            // Baseline
            row(0x4005_8b39, 0x3ff9_4835_60d7_bbe6, 0x10c6_4fc8_c4ba_0365, 0x3fc9_d1af),
            // RCF
            row(0x4005_8b39, 0x3ff9_4835_60d7_bbe6, 0x10c6_4fc8_c4ba_0365, 0x3fc9_d1af),
            // RCF+MVF
            row(0x4005_8b39, 0x3ff9_4835_60d7_bbe6, 0x10c6_4fc8_c4ba_0365, 0x3fc9_d1af),
            // BNFF
            row(0x4005_8b39, 0x3ff9_4835_60d7_bbe6, 0x075b_5271_5801_cd95, 0x3fc9_d1af),
            // BNFF+ICF
            row(0x4005_8b39, 0x3ff9_4835_60d7_bbe6, 0xa174_96b4_c8a0_0541, 0x3fc9_d1af),
        ],
    );
}

#[test]
fn tiny_resnet_reproduces_the_recorded_bits_at_every_level() {
    let baseline = resnet_cifar(BATCH, 1, CLASSES).unwrap();
    check(
        "resnet_cifar",
        &baseline,
        &[
            // Baseline
            row(0x3fed_a8ae, 0x4012_0b57_9dba_c02c, 0xc58b_c01e_7430_a5f4, 0x3ffa_a8b3),
            // RCF
            row(0x3fed_a8ae, 0x4012_0b57_9dba_c02c, 0xc58b_c01e_7430_a5f4, 0x3ffa_a8b3),
            // RCF+MVF
            row(0x3fed_a8ae, 0x4012_0b57_9dba_c02c, 0xc58b_c01e_7430_a5f4, 0x3ffa_a8b3),
            // BNFF
            row(0x3fed_a8ae, 0x4012_0b57_9dba_c02c, 0xc58b_c01e_7430_a5f4, 0x3ffa_a8b3),
            // BNFF+ICF
            row(0x3fed_a8ae, 0x4012_0b57_9dba_c02c, 0xc58b_c01e_7430_a5f4, 0x3ffa_a8b3),
        ],
    );
}
