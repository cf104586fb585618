//! End-to-end serving demo: train a small zoo model, write it as a `.bnff`
//! artifact, load and freeze that file (the loss head goes; every
//! normalization reads its running statistics, as in the eval-mode
//! forward), and serve a stream of synthetic single-sample requests through
//! the dynamic micro-batching engine, printing throughput and p50/p99
//! latency.
//!
//! Run with `cargo run --release --example serve_synthetic`.
//!
//! Environment knobs: `BNFF_SERVE_REQUESTS` (default 64),
//! `BNFF_SERVE_WORKERS` (default 2), `BNFF_SERVE_MAX_BATCH` (default 8),
//! `BNFF_SERVE_TRAIN_STEPS` (default 10).

use bnff::core::{BnffOptimizer, FusionLevel};
use bnff::models::densenet_cifar;
use bnff::serve::{BatchingConfig, ServeEngine};
use bnff::tensor::{Shape, Tensor};
use bnff::train::checkpoint::Checkpoint;
use bnff::train::data::SyntheticDataset;
use bnff::train::{TrainConfig, Trainer};
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let batch = 8;
    let classes = 5;
    let requests = env_usize("BNFF_SERVE_REQUESTS", 64);
    let workers = env_usize("BNFF_SERVE_WORKERS", 2);
    let max_batch = env_usize("BNFF_SERVE_MAX_BATCH", 8);
    let steps = env_usize("BNFF_SERVE_TRAIN_STEPS", 10);

    // --- 1. Train a small zoo model (BNFF-restructured DenseNet-CIFAR).
    let baseline = densenet_cifar(batch, 8, 2, classes)?;
    let graph = BnffOptimizer::new(FusionLevel::Bnff).apply(&baseline)?;
    let dataset = SyntheticDataset::new(classes, 3, 32, 0.05, 1234)?;
    let config = TrainConfig {
        batch_size: batch,
        steps,
        learning_rate: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
        seed: 7,
    };
    let mut trainer = Trainer::new(graph, dataset.clone(), config.clone())?;
    println!("--- training {steps} steps ---");
    for step in 0..config.steps {
        let metrics = trainer.step(step)?;
        if step % 5 == 0 || step + 1 == config.steps {
            println!(
                "step {:3}: loss {:.4}, accuracy {:.1}%",
                metrics.step,
                metrics.loss,
                metrics.accuracy * 100.0
            );
        }
    }

    // --- 2. Hand off through a model artifact on disk — training and
    // serving stay separable processes.
    let artifact_path =
        std::env::temp_dir().join(format!("bnff-serve-demo-{}.bnff", std::process::id()));
    let checkpoint = Checkpoint::capture(trainer.executor());
    checkpoint.write_artifact(&artifact_path)?;
    println!(
        "--- artifact written to {} ({} params) ---",
        artifact_path.display(),
        checkpoint.params.scalar_count()
    );

    // --- 3. Load and freeze: the loss head and the labels go; every other
    // node runs with its trained parameters and running statistics.
    let model = ServeEngine::builder().model_file(&artifact_path).build_model()?;
    println!(
        "--- frozen: {} nodes (training graph had {}) ---",
        model.template().node_count(),
        checkpoint.graph.node_count()
    );
    std::fs::remove_file(&artifact_path).ok();

    // --- 4. Serve a stream of single-sample requests.
    let sample_shape = model.sample_shape()?;
    let mut dims = vec![1usize];
    dims.extend_from_slice(sample_shape.dims());
    let volume = sample_shape.volume();
    let samples: Vec<Tensor> = (0..requests)
        .map(|i| {
            let (data, _labels) = dataset.batch(1, 50_000 + i as u64)?;
            Tensor::from_vec(Shape::new(dims.clone()), data.as_slice()[..volume].to_vec())
                .map_err(Into::into)
        })
        .collect::<Result<_, Box<dyn std::error::Error>>>()?;

    let engine = ServeEngine::builder()
        .model(model)
        .config(BatchingConfig {
            max_batch,
            max_wait: Duration::from_millis(2),
            workers,
            ..BatchingConfig::default()
        })
        .start()?;
    let started = Instant::now();
    let receivers: Vec<_> =
        samples.into_iter().map(|s| engine.submit(s)).collect::<Result<_, _>>()?;
    let mut first_scores: Option<Vec<f32>> = None;
    for rx in receivers {
        let completion = rx.recv()??;
        first_scores.get_or_insert_with(|| completion.scores.as_slice().to_vec());
    }
    let wall = started.elapsed().as_secs_f64();
    let metrics = engine.shutdown();
    println!(
        "--- served {} requests in {:.1} ms over {} batches (mean batch {:.2}) ---",
        metrics.requests(),
        wall * 1e3,
        metrics.batches(),
        metrics.mean_batch_size()
    );
    println!(
        "throughput {:.0} req/s · p50 {:.3} ms · p99 {:.3} ms",
        metrics.requests() as f64 / wall,
        metrics.percentile_ms(50.0),
        metrics.percentile_ms(99.0)
    );
    if let Some(scores) = first_scores {
        println!("first request's logits: {scores:?}");
    }
    Ok(())
}
