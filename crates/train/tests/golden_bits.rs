//! Golden bits of the numeric executor: two training steps plus one eval
//! forward of a DenseNet-CIFAR and a tiny ResNet at every fusion level,
//! pinned to the scalar ISA, must reproduce the recorded loss, gradient-norm
//! and running-statistics bits exactly — at one thread and at four. A
//! refactor of the executor or the kernels that moves a single bit fails
//! here and has to name the op and the summation order that changed.
//!
//! The table was recorded before the fused-op decoding (`OpKind::form()`)
//! replaced the executor's per-kind arms, and re-recorded once since: when
//! the weight gradient of a convolution whose windows are read in place
//! (stride 1, `out_w % 8 == 0` — every convolution of both models) became
//! a correlation. The op is `conv2d_backward_weights`, the order that moved
//! is the sum over a sample's output positions: per `d_W[co][(ci, kh, kw)]`
//! eight lane partials (lane `ow mod 8`, positions ascending) combined as
//! `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))`, where the GEMM summed
//! the positions in one ascending chain per `KC` slab; samples are still
//! added in batch order and sample groups in order. No other kernel's bits
//! moved (the forward pass, `d_x` and the strided / ragged-width `d_W`
//! digest of `examples/conv_shapes` equal the parent commit's).
//!
//! A second table pins the same runs on the AVX2+FMA ISA. It exists to show
//! that PR 24 — the register microkernel writing its own `C` tile and
//! multiplying only the rows of a ragged last `A` panel that exist — moved
//! no AVX2 bit: it was recorded at the parent commit and passes unedited
//! after it. A host without avx2+fma skips that half with a message
//! (`with_isa` clamps to what the hardware has, so the run checks the ISA it
//! actually took).
//!
//! The AVX-512 tier has no table of its own: it runs every kernel's
//! AVX2+FMA body except two that it widens without moving a bit — the GEMM
//! microkernel, whose 512-bit pair kernel gives every element the 256-bit
//! kernel's bits, and the weight-gradient correlation, whose zmm
//! accumulators each hold two of the AVX2 tile's (output channels `p` and
//! `p + 4`) and are reduced by the same `hadd` tree — so both models must
//! reproduce the AVX2 table under it too. A host without avx512f skips
//! those two tests with a message — `with_isa(SimdIsa::Avx512, ..)` steps
//! down to AVX2+FMA there, and a run on that tier would only repeat the
//! AVX2 tests, not check the wide kernel.

use bnff_core::{BnffOptimizer, FusionLevel};
use bnff_graph::Graph;
use bnff_models::{densenet_cifar, resnet_cifar};
use bnff_parallel::with_threads;
use bnff_tensor::{active_isa, with_isa, SimdIsa};
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

fn check(model: &str, baseline: &Graph, isa: SimdIsa, expected: &[Golden]) {
    let levels = FusionLevel::all();
    assert_eq!(levels.len(), expected.len());
    for (level, want) in levels.into_iter().zip(expected) {
        let graph = BnffOptimizer::new(level).apply(baseline).unwrap();
        for threads in [1usize, 4] {
            // `with_isa` clamps to what the host supports: only a run that
            // really took `isa` may be held to its table.
            let got = with_isa(isa, || {
                (active_isa() == isa).then(|| with_threads(threads, || run(&graph)))
            });
            let Some(got) = got else {
                eprintln!("skipping the {isa:?} table of {model}: this host lacks that ISA");
                return;
            };
            assert_eq!(&got, want, "{model} {} on {isa:?} at {threads} thread(s)", level.label());
        }
    }
}

#[test]
fn densenet_cifar_reproduces_the_recorded_bits_at_every_level() {
    let baseline = densenet_cifar(BATCH, 4, 1, CLASSES).unwrap();
    check(
        "densenet_cifar",
        &baseline,
        SimdIsa::Scalar,
        &[
            // Baseline
            row(0x4005_8b38, 0x3ff9_4835_5616_f828, 0x373c_2103_750c_1aff, 0x3fc9_d1ae),
            // RCF
            row(0x4005_8b38, 0x3ff9_4835_5616_f828, 0x373c_2103_750c_1aff, 0x3fc9_d1ae),
            // RCF+MVF
            row(0x4005_8b38, 0x3ff9_4835_5616_f828, 0x373c_2103_750c_1aff, 0x3fc9_d1ae),
            // BNFF
            row(0x4005_8b38, 0x3ff9_4835_5616_f827, 0x3d2c_a187_8503_2e2b, 0x3fc9_d1ae),
            // BNFF+ICF
            row(0x4005_8b38, 0x3ff9_4835_5616_f827, 0x0c64_142a_d7a9_5d33, 0x3fc9_d1ae),
        ],
    );
}

#[test]
fn tiny_resnet_reproduces_the_recorded_bits_at_every_level() {
    let baseline = resnet_cifar(BATCH, 1, CLASSES).unwrap();
    check(
        "resnet_cifar",
        &baseline,
        SimdIsa::Scalar,
        &[
            // Baseline
            row(0x3fed_a8b0, 0x4012_0b57_a67d_6cc0, 0x0abe_b9c8_f52c_2017, 0x3ffa_a8b2),
            // RCF
            row(0x3fed_a8b0, 0x4012_0b57_a67d_6cc0, 0x0abe_b9c8_f52c_2017, 0x3ffa_a8b2),
            // RCF+MVF
            row(0x3fed_a8b0, 0x4012_0b57_a67d_6cc0, 0x0abe_b9c8_f52c_2017, 0x3ffa_a8b2),
            // BNFF
            row(0x3fed_a8b0, 0x4012_0b57_a67d_6cc0, 0x0abe_b9c8_f52c_2017, 0x3ffa_a8b2),
            // BNFF+ICF
            row(0x3fed_a8b0, 0x4012_0b57_a67d_6cc0, 0x0abe_b9c8_f52c_2017, 0x3ffa_a8b2),
        ],
    );
}

/// The AVX2+FMA table of the DenseNet-CIFAR runs.
const DENSENET_AVX2: [Golden; 5] = [
    // Baseline
    row(0x4005_8b39, 0x3ff9_4835_7130_df11, 0xff70_5672_86ff_c9f7, 0x3fc9_d1af),
    // RCF
    row(0x4005_8b39, 0x3ff9_4835_7130_df11, 0xff70_5672_86ff_c9f7, 0x3fc9_d1af),
    // RCF+MVF
    row(0x4005_8b39, 0x3ff9_4835_7130_df11, 0xff70_5672_86ff_c9f7, 0x3fc9_d1af),
    // BNFF
    row(0x4005_8b39, 0x3ff9_4835_7130_df11, 0x148f_1b70_227f_d503, 0x3fc9_d1af),
    // BNFF+ICF
    row(0x4005_8b39, 0x3ff9_4835_7130_df11, 0x30da_2d40_bf79_96af, 0x3fc9_d1af),
];

/// The AVX2+FMA table of the tiny-ResNet runs.
const RESNET_AVX2: [Golden; 5] = [
    // Baseline
    row(0x3fed_a8ae, 0x4012_0b57_a4e4_2d89, 0x0818_548e_d9d0_72d3, 0x3ffa_a8b2),
    // RCF
    row(0x3fed_a8ae, 0x4012_0b57_a4e4_2d89, 0x0818_548e_d9d0_72d3, 0x3ffa_a8b2),
    // RCF+MVF
    row(0x3fed_a8ae, 0x4012_0b57_a4e4_2d89, 0x0818_548e_d9d0_72d3, 0x3ffa_a8b2),
    // BNFF
    row(0x3fed_a8ae, 0x4012_0b57_a4e4_2d89, 0x0818_548e_d9d0_72d3, 0x3ffa_a8b2),
    // BNFF+ICF
    row(0x3fed_a8ae, 0x4012_0b57_a4e4_2d89, 0x0818_548e_d9d0_72d3, 0x3ffa_a8b2),
];

#[test]
fn densenet_cifar_reproduces_the_recorded_avx2_bits_at_every_level() {
    let baseline = densenet_cifar(BATCH, 4, 1, CLASSES).unwrap();
    check("densenet_cifar", &baseline, SimdIsa::Avx2Fma, &DENSENET_AVX2);
}

#[test]
fn tiny_resnet_reproduces_the_recorded_avx2_bits_at_every_level() {
    let baseline = resnet_cifar(BATCH, 1, CLASSES).unwrap();
    check("resnet_cifar", &baseline, SimdIsa::Avx2Fma, &RESNET_AVX2);
}

#[test]
fn densenet_cifar_reproduces_the_avx2_bits_on_the_avx512_tier() {
    let baseline = densenet_cifar(BATCH, 4, 1, CLASSES).unwrap();
    check("densenet_cifar", &baseline, SimdIsa::Avx512, &DENSENET_AVX2);
}

#[test]
fn tiny_resnet_reproduces_the_avx2_bits_on_the_avx512_tier() {
    let baseline = resnet_cifar(BATCH, 1, CLASSES).unwrap();
    check("resnet_cifar", &baseline, SimdIsa::Avx512, &RESNET_AVX2);
}
