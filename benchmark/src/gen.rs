//! Everything the workloads feed the program under test, made from `--seed`
//! alone: the dataset, the parameter-init seed, the served model file, the
//! sample pool with its reference outputs, and the request order.

use crate::Res;
use bnff_core::{BnffOptimizer, FusionLevel};
use bnff_graph::Graph;
use bnff_models::densenet_cifar;
use bnff_parallel::with_threads;
use bnff_serve::FrozenModel;
use bnff_tensor::init::Initializer;
use bnff_tensor::{Shape, Tensor};
use bnff_train::checkpoint::Checkpoint;
use bnff_train::data::SyntheticDataset;
use bnff_train::{TrainConfig, Trainer};
use std::path::{Path, PathBuf};

/// DenseNet-CIFAR growth rate.
pub const GROWTH: usize = 8;
/// Composite layers per dense block.
pub const LAYERS_PER_BLOCK: usize = 2;
/// Classifier outputs.
pub const CLASSES: usize = 10;
/// Input is `3 × 32 × 32`.
pub const IMAGE: (usize, usize) = (3, 32);

/// SGD settings of every training step the benchmark runs.
pub const LEARNING_RATE: f32 = 0.05;
/// Momentum coefficient.
pub const MOMENTUM: f32 = 0.9;
/// Weight decay.
pub const WEIGHT_DECAY: f32 = 1e-4;

/// Distinct samples the serve workloads cycle through.
pub const SAMPLE_POOL: usize = 64;
/// Length of the pre-drawn request order (reused cyclically).
const ORDER_LEN: usize = 1 << 14;
/// Steps and batch the served model is trained for.
const SERVED_MODEL_TRAINING: (usize, usize) = (5, 8);

/// SplitMix64: seed derivation and the request order.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Independent sub-seeds, one per generated input.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Class prototypes and per-batch noise.
    pub dataset: u64,
    /// Parameter initialization.
    pub params: u64,
    /// Serve sample pool.
    pub samples: u64,
    /// Request order over the pool.
    pub order: u64,
}

impl Seeds {
    /// Derives the sub-seeds from the command-line seed.
    pub fn derive(seed: u64) -> Seeds {
        let mut mix = SplitMix(seed);
        Seeds {
            dataset: mix.next_u64(),
            params: mix.next_u64(),
            samples: mix.next_u64(),
            order: mix.next_u64(),
        }
    }
}

/// The unrestructured (L0) model at `batch`.
pub fn baseline_graph(batch: usize) -> Res<Graph> {
    Ok(densenet_cifar(batch, GROWTH, LAYERS_PER_BLOCK, CLASSES)?)
}

/// The synthetic classification task every training step draws from.
pub fn dataset(seeds: &Seeds) -> Res<SyntheticDataset> {
    Ok(SyntheticDataset::new(CLASSES, IMAGE.0, IMAGE.1, 0.1, seeds.dataset)?)
}

/// Inputs of the serve workloads.
#[derive(Debug)]
pub struct ServeInputs {
    /// The exported `.bnff` model the engine loads.
    pub model_path: PathBuf,
    /// Sample pool, each `3 × 32 × 32`.
    pub samples: Vec<Tensor>,
    /// Scores of each sample from a batch-1 `FrozenExecutor::infer`.
    pub references: Vec<Vec<f32>>,
    /// Pre-rendered `POST /v1/infer` bodies, one per sample.
    pub bodies: Vec<String>,
    /// Pool indices in request order.
    pub order: Vec<usize>,
}

impl ServeInputs {
    /// Pool index of the `i`-th request.
    pub fn pick(&self, i: usize) -> usize {
        self.order[i % self.order.len()]
    }
}

/// Trains the BNFF model for a few steps, exports it to `out_dir`, draws the
/// sample pool and computes the reference scores.
pub fn serve_inputs(seeds: &Seeds, out_dir: &Path, workload: &str) -> Res<ServeInputs> {
    let (steps, batch) = SERVED_MODEL_TRAINING;
    let graph = BnffOptimizer::new(FusionLevel::Bnff).apply(&baseline_graph(batch)?)?;
    let config = TrainConfig {
        batch_size: batch,
        steps,
        learning_rate: LEARNING_RATE,
        momentum: MOMENTUM,
        weight_decay: WEIGHT_DECAY,
        seed: seeds.params,
    };
    let mut trainer = Trainer::new(graph, dataset(seeds)?, config)?;
    trainer.run()?;
    let model_path = out_dir.join(format!("{workload}.model.bnff"));
    Checkpoint::capture(trainer.executor()).write_artifact(&model_path)?;

    let mut init = Initializer::seeded(seeds.samples);
    let sample_shape = Shape::new(vec![IMAGE.0, IMAGE.1, IMAGE.1]);
    let samples: Vec<Tensor> =
        (0..SAMPLE_POOL).map(|_| init.uniform(sample_shape.clone(), -1.0, 1.0)).collect();

    let reference_exec = FrozenModel::load(&model_path)?.executor(1)?;
    let references = with_threads(1, || {
        samples
            .iter()
            .map(|s| Ok(reference_exec.infer(&batch_of_one(s)?)?.into_vec()))
            .collect::<Res<Vec<Vec<f32>>>>()
    })?;
    let bodies = samples
        .iter()
        .map(|s| Ok(format!("{{\"sample\":{}}}", serde_json::to_string(s.as_slice())?)))
        .collect::<Res<Vec<String>>>()?;

    let mut mix = SplitMix(seeds.order);
    let order = (0..ORDER_LEN).map(|_| (mix.next_u64() % SAMPLE_POOL as u64) as usize).collect();
    Ok(ServeInputs { model_path, samples, references, bodies, order })
}

/// Views a `C × H × W` sample as the `1 × C × H × W` batch executors take.
pub fn batch_of_one(sample: &Tensor) -> Res<Tensor> {
    let mut dims = vec![1usize];
    dims.extend_from_slice(sample.shape().dims());
    Ok(Tensor::from_vec(Shape::new(dims), sample.as_slice().to_vec())?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_distinct_and_repeatable() {
        let a = Seeds::derive(7);
        let b = Seeds::derive(7);
        assert_eq!(
            (a.dataset, a.params, a.samples, a.order),
            (b.dataset, b.params, b.samples, b.order)
        );
        let c = Seeds::derive(8);
        assert_ne!(a.dataset, c.dataset);
        assert_ne!(a.dataset, a.params);
    }
}
