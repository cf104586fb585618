//! A small training loop tying the executor, optimizer and synthetic data
//! together.

use crate::data::SyntheticDataset;
use crate::error::TrainError;
use crate::executor::Executor;
use crate::optimizer::SgdOptimizer;
use crate::Result;
use bnff_graph::Graph;

/// Configuration of a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of optimization steps.
    pub steps: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// RNG seed for parameters and data ordering.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch_size: 8,
            steps: 50,
            learning_rate: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 7,
        }
    }
}

/// Metrics recorded at one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepMetrics {
    /// Step index (0-based).
    pub step: usize,
    /// Mini-batch loss.
    pub loss: f32,
    /// Mini-batch accuracy.
    pub accuracy: f32,
}

/// The trainer: owns an executor, an optimizer and a dataset.
#[derive(Debug)]
pub struct Trainer {
    executor: Executor,
    optimizer: SgdOptimizer,
    dataset: SyntheticDataset,
    config: TrainConfig,
    history: Vec<StepMetrics>,
}

impl Trainer {
    /// Creates a trainer for `graph` over `dataset`.
    ///
    /// # Errors
    /// Returns an error for invalid hyper-parameters or an invalid graph.
    pub fn new(graph: Graph, dataset: SyntheticDataset, config: TrainConfig) -> Result<Self> {
        if config.batch_size == 0 || config.steps == 0 {
            return Err(TrainError::InvalidArgument(
                "batch size and steps must be positive".to_string(),
            ));
        }
        let executor = Executor::new(graph, config.seed)?;
        let optimizer =
            SgdOptimizer::new(config.learning_rate, config.momentum, config.weight_decay)?;
        Ok(Trainer { executor, optimizer, dataset, config, history: Vec::new() })
    }

    /// The executor (parameters included).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The per-step metric history so far.
    pub fn history(&self) -> &[StepMetrics] {
        &self.history
    }

    /// Runs a single optimization step, returning its metrics.
    ///
    /// # Errors
    /// Returns an error if the forward/backward pass fails.
    pub fn step(&mut self, step_index: usize) -> Result<StepMetrics> {
        let (data, labels) = self.dataset.batch(self.config.batch_size, step_index as u64)?;
        let fwd = self.executor.forward(&data, &labels)?;
        let grads = self.executor.backward(&fwd)?;
        // Fold this batch's BN statistics into the running EMA the eval
        // forward (and the freeze pass) normalizes with.
        self.executor.update_running_stats(&fwd)?;
        self.optimizer.step(self.executor.params_mut(), &grads)?;
        let metrics = StepMetrics { step: step_index, loss: fwd.loss, accuracy: fwd.accuracy };
        self.history.push(metrics);
        Ok(metrics)
    }

    /// Runs the configured number of steps, returning the full history.
    ///
    /// # Errors
    /// Returns an error if any step fails.
    pub fn run(&mut self) -> Result<Vec<StepMetrics>> {
        for step in 0..self.config.steps {
            self.step(step)?;
        }
        Ok(self.history.clone())
    }

    /// Evaluates the current parameters on a fresh mini-batch (same batch
    /// size as training, since the graph's input shape is fixed) without
    /// updating them.
    ///
    /// Evaluation runs with *inference* semantics — running statistics, not
    /// the held-out batch's — so the result does not depend on which
    /// samples happen to share the evaluation batch.
    ///
    /// # Errors
    /// Returns an error if the forward pass fails.
    pub fn evaluate(&self, seed: u64) -> Result<StepMetrics> {
        let (data, labels) = self.dataset.batch(self.config.batch_size, seed)?;
        let fwd = self.executor.forward_eval(&data, &labels)?;
        Ok(StepMetrics { step: usize::MAX, loss: fwd.loss, accuracy: fwd.accuracy })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_graph::builder::GraphBuilder;
    use bnff_graph::op::Conv2dAttrs;
    use bnff_tensor::Shape;

    fn small_graph(batch: usize, classes: usize) -> Graph {
        let mut b = GraphBuilder::new("small");
        let x = b.input("data", Shape::nchw(batch, 2, 8, 8)).unwrap();
        let labels = b.input("labels", Shape::vector(batch)).unwrap();
        let c1 = b.conv2d(x, Conv2dAttrs::same_3x3(8), "conv1").unwrap();
        let bn = b.batch_norm_default(c1, "bn1").unwrap();
        let r = b.relu(bn, "relu1").unwrap();
        let gap = b.global_avg_pool(r, "gap").unwrap();
        let fc = b.fully_connected(gap, classes, "fc").unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        b.finish()
    }

    #[test]
    fn training_reduces_loss_on_synthetic_task() {
        let classes = 3;
        let batch = 12;
        let dataset = SyntheticDataset::new(classes, 2, 8, 0.05, 11).unwrap();
        let config = TrainConfig {
            batch_size: batch,
            steps: 40,
            learning_rate: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
            seed: 3,
        };
        let mut trainer = Trainer::new(small_graph(batch, classes), dataset, config).unwrap();
        let history = trainer.run().unwrap();
        let first: f32 = history[..5].iter().map(|m| m.loss).sum::<f32>() / 5.0;
        let last: f32 = history[history.len() - 5..].iter().map(|m| m.loss).sum::<f32>() / 5.0;
        assert!(last < first * 0.8, "loss did not drop: first {first}, last {last}");
        // One held-out batch of 12 samples measures accuracy in steps of
        // 1/12 and may draw an unlucky mix of samples; average a few batches
        // so the check measures the model, not one batch's draw.
        let eval_seeds = [999u64, 1000, 1001, 1002];
        let accuracy: f32 =
            eval_seeds.iter().map(|&s| trainer.evaluate(s).unwrap().accuracy).sum::<f32>()
                / eval_seeds.len() as f32;
        assert!(accuracy > 1.0 / classes as f32, "accuracy {accuracy} at chance");
    }

    #[test]
    fn invalid_config_is_rejected() {
        let dataset = SyntheticDataset::new(2, 2, 8, 0.1, 1).unwrap();
        let bad = TrainConfig { batch_size: 0, ..TrainConfig::default() };
        assert!(Trainer::new(small_graph(4, 2), dataset.clone(), bad).is_err());
        let bad = TrainConfig { steps: 0, ..TrainConfig::default() };
        assert!(Trainer::new(small_graph(4, 2), dataset, bad).is_err());
    }

    #[test]
    fn history_accumulates_per_step() {
        let dataset = SyntheticDataset::new(2, 2, 8, 0.1, 5).unwrap();
        let config = TrainConfig { batch_size: 4, steps: 3, ..TrainConfig::default() };
        let mut trainer = Trainer::new(small_graph(4, 2), dataset, config).unwrap();
        trainer.step(0).unwrap();
        trainer.step(1).unwrap();
        assert_eq!(trainer.history().len(), 2);
        assert_eq!(trainer.history()[1].step, 1);
    }
}
