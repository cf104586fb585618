//! Trains a tiny model and exports it as a binary artifact (`model.bnff`)
//! plus a ready `request.json` body for `POST /v1/infer` — the input set for
//! the CI HTTP smoke test:
//!
//! ```text
//! cargo run --release --example export_artifact -- OUTDIR
//! cargo run --release --bin bnff_serve -- --model OUTDIR/model.bnff &
//! curl -d @OUTDIR/request.json http://127.0.0.1:8080/v1/infer
//! ```
//!
//! Environment knobs: `BNFF_EXPORT_TRAIN_STEPS` (default 6).

use bnff::core::{BnffOptimizer, FusionLevel};
use bnff::models::resnet_cifar;
use bnff::serve::ServeEngine;
use bnff::tensor::init::Initializer;
use bnff::train::checkpoint::Checkpoint;
use bnff::train::data::SyntheticDataset;
use bnff::train::{TrainConfig, Trainer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let outdir = std::env::args().nth(1).unwrap_or_else(|| "tmp_export".to_string());
    let outdir = std::path::PathBuf::from(outdir);
    std::fs::create_dir_all(&outdir)?;
    let steps =
        std::env::var("BNFF_EXPORT_TRAIN_STEPS").ok().and_then(|v| v.parse().ok()).unwrap_or(6);

    // --- 1. Train a small BNFF-restructured ResNet on synthetic data.
    let batch = 4;
    let classes = 4;
    let baseline = resnet_cifar(batch, 1, classes)?;
    let graph = BnffOptimizer::new(FusionLevel::Bnff).apply(&baseline)?;
    let dataset = SyntheticDataset::new(classes, 3, 32, 0.05, 99)?;
    let config = TrainConfig {
        batch_size: batch,
        steps,
        learning_rate: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
        seed: 17,
    };
    let mut trainer = Trainer::new(graph, dataset, config.clone())?;
    for step in 0..config.steps {
        let metrics = trainer.step(step)?;
        println!("step {:2}: loss {:.4}", metrics.step, metrics.loss);
    }

    // --- 2. Export the model artifact.
    let artifact_path = outdir.join("model.bnff");
    Checkpoint::capture(trainer.executor()).write_artifact(&artifact_path)?;
    let artifact_bytes = std::fs::metadata(&artifact_path)?.len();
    println!("wrote {} ({artifact_bytes} B)", artifact_path.display());

    // --- 3. Emit a valid inference request body for the served model.
    let model = ServeEngine::builder().model_file(&artifact_path).build_model()?;
    let sample_shape = model.sample_shape()?;
    let mut init = Initializer::seeded(5);
    let sample = init.uniform(sample_shape, -1.0, 1.0);
    let body = format!("{{\"sample\":{}}}", serde_json::to_string(&sample.as_slice().to_vec())?);
    let request_path = outdir.join("request.json");
    std::fs::write(&request_path, &body)?;
    println!("wrote {} ({} B)", request_path.display(), body.len());

    // --- 4. Prove the artifact round-trips: load it back and infer.
    let mut dims = vec![1usize];
    dims.extend_from_slice(sample.shape().dims());
    let batched =
        bnff::tensor::Tensor::from_vec(bnff::tensor::Shape::new(dims), sample.as_slice().to_vec())?;
    let scores = model.executor(1)?.infer(&batched)?;
    println!("sanity scores: {:?}", scores.as_slice());
    Ok(())
}
