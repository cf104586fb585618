//! Golden bits of the numeric executor: two training steps plus one eval
//! forward of a DenseNet-CIFAR and a tiny ResNet must reproduce one recorded
//! row of loss, gradient-norm and running-statistics bits per (model, ISA) —
//! at every fusion level, at one thread and at four. The restructuring moves
//! memory traffic, not arithmetic, so every level trains the Baseline's bits;
//! a refactor of the executor or the kernels that moves a single bit fails
//! here and has to name the op and the summation order that changed.
//!
//! Both digests are order-free, so they compare graphs whose nodes differ in
//! number and order: `grad_norm` is `Gradients::global_norm` (every gradient
//! tensor's squared norm one `f64` term, sorted ascending, summed left to
//! right), and `running` is an FNV-1a fold of the sorted per-node FNV-1a
//! digests of each node's running mean‖var bits.
//!
//! One row is pinned on the scalar ISA and one on AVX2+FMA. The AVX-512 tier
//! has none of its own: it runs every kernel's AVX2+FMA body except two that
//! it widens without moving a bit — the GEMM microkernel, whose 512-bit pair
//! kernel gives every element the 256-bit kernel's bits, and the
//! weight-gradient correlation, whose zmm accumulators each hold two of the
//! AVX2 tile's (output channels `p` and `p + 4`) and are reduced by the same
//! `hadd` tree — so both models must reproduce the AVX2 row under it too.
//! `with_isa` clamps to what the hardware has; a host that lacks an ISA skips
//! its tests with a message rather than re-check the tier below.

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
    /// FNV-1a over the sorted per-node FNV-1a digests of mean‖var bits.
    running: u64,
    /// Loss of one `forward_eval` after the two steps.
    eval_loss: u32,
}

/// One row: `loss`, `grad_norm`, `running`, `eval_loss`.
const fn row(loss: u32, grad_norm: u64, running: u64, eval_loss: u32) -> Golden {
    Golden { loss, grad_norm, running, eval_loss }
}

/// The scalar row of the DenseNet-CIFAR runs.
const DENSENET_SCALAR: Golden =
    row(0x4005_8b38, 0x3ff9_4835_5616_f828, 0x2f29_a787_2488_3d85, 0x3fc9_d1ae);

/// The scalar row of the tiny-ResNet runs.
const RESNET_SCALAR: Golden =
    row(0x3fed_a8b0, 0x4012_0b57_a67d_6cc0, 0xddf3_80c3_e929_daec, 0x3ffa_a8b2);

/// The AVX2+FMA row of the DenseNet-CIFAR runs.
const DENSENET_AVX2: Golden =
    row(0x4005_8b39, 0x3ff9_4835_7130_df11, 0x024f_06cf_c38e_7d36, 0x3fc9_d1af);

/// The AVX2+FMA row of the tiny-ResNet runs.
const RESNET_AVX2: Golden =
    row(0x3fed_a8ae, 0x4012_0b57_a4e4_2d89, 0xb57f_32e7_cba0_0911, 0x3ffa_a8b2);

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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
    let mut digests: Vec<u64> = exec
        .running_stats()
        .iter()
        .map(|(_, stats)| {
            fnv1a(stats.mean.iter().chain(&stats.var).flat_map(|v| v.to_bits().to_le_bytes()))
        })
        .collect();
    digests.sort_unstable();
    let running = fnv1a(digests.iter().flat_map(|d| d.to_le_bytes()));
    let (data, labels) = dataset.batch(BATCH, 99).unwrap();
    let eval_loss = exec.forward_eval(&data, &labels).unwrap().loss.to_bits();
    Golden { loss, grad_norm, running, eval_loss }
}

/// Every fusion level of `baseline`, at one thread and at four, must give
/// `want` on `isa`.
fn check(model: &str, baseline: &Graph, isa: SimdIsa, want: &Golden) {
    for level in FusionLevel::all() {
        let graph = BnffOptimizer::new(level).apply(baseline).unwrap();
        for threads in [1usize, 4] {
            // `with_isa` clamps to what the host supports: only a run that
            // really took `isa` may be held to its row.
            let got = with_isa(isa, || {
                (active_isa() == isa).then(|| with_threads(threads, || run(&graph)))
            });
            let Some(got) = got else {
                eprintln!("skipping the {isa:?} row of {model}: this host lacks that ISA");
                return;
            };
            assert_eq!(&got, want, "{model} {} on {isa:?} at {threads} thread(s)", level.label());
        }
    }
}

#[test]
fn densenet_cifar_reproduces_the_recorded_bits_at_every_level() {
    let baseline = densenet_cifar(BATCH, 4, 1, CLASSES).unwrap();
    check("densenet_cifar", &baseline, SimdIsa::Scalar, &DENSENET_SCALAR);
}

#[test]
fn tiny_resnet_reproduces_the_recorded_bits_at_every_level() {
    let baseline = resnet_cifar(BATCH, 1, CLASSES).unwrap();
    check("resnet_cifar", &baseline, SimdIsa::Scalar, &RESNET_SCALAR);
}

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
