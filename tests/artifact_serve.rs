//! End-to-end deployment-path equivalence at every measured fusion level
//! (0–3: Baseline, RCF, RCF+MVF, BNFF): train a little, checkpoint,
//! convert to a binary artifact and back bit-identically, then prove a
//! model served from the artifact file scores exactly like one served
//! from the in-memory checkpoint (no serialization at all) — and within
//! 1e-5 of the training executor's eval-mode forward. Anything that is not
//! an artifact is refused with a typed error.

use bnff::artifact::{Artifact, ModelError};
use bnff::core::{BnffOptimizer, FusionLevel};
use bnff::graph::builder::GraphBuilder;
use bnff::graph::op::Conv2dAttrs;
use bnff::graph::Graph;
use bnff::serve::{FrozenModel, ServeEngine, ServeError};
use bnff::tensor::init::Initializer;
use bnff::tensor::{Shape, Tensor};
use bnff::train::checkpoint::Checkpoint;
use bnff::train::Executor;

fn classifier(batch: usize, classes: usize) -> Graph {
    let mut b = GraphBuilder::new("deploy-cls");
    let x = b.input("data", Shape::nchw(batch, 3, 8, 8)).unwrap();
    let labels = b.input("labels", Shape::vector(batch)).unwrap();
    let stem = b.conv_bn_relu(x, Conv2dAttrs::same_3x3(8), "stem").unwrap();
    let c1 = b.bn_relu_conv(stem, Conv2dAttrs::pointwise(8), "mid").unwrap();
    let sum = b.eltwise_sum(vec![stem, c1], "sum").unwrap();
    let gap = b.global_avg_pool(sum, "gap").unwrap();
    let fc = b.fully_connected(gap, classes, "fc").unwrap();
    b.softmax_loss(fc, labels, "loss").unwrap();
    b.finish()
}

/// An executor with moved running statistics, plus a probe input.
fn conditioned(graph: Graph, seed: u64) -> (Executor, Tensor, Vec<usize>) {
    let mut exec = Executor::new(graph, seed).unwrap();
    let mut init = Initializer::seeded(seed ^ 0xf00d);
    let labels = vec![0usize, 1, 2, 0];
    let mut data = Tensor::zeros(Shape::scalar());
    for _ in 0..2 {
        data = init.uniform(Shape::nchw(4, 3, 8, 8), -1.0, 1.0);
        let fwd = exec.forward(&data, &labels).unwrap();
        exec.update_running_stats(&fwd).unwrap();
    }
    (exec, data, labels)
}

fn bits(scores: &Tensor) -> Vec<u32> {
    scores.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn artifact_deployment_is_equivalent_at_every_fusion_level() {
    let dir = std::env::temp_dir().join(format!("bnff-deploy-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = classifier(4, 3);

    for level in FusionLevel::measured() {
        let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
        let (exec, data, labels) = conditioned(graph, 37 + level as u64);
        let eval = exec.forward_eval(&data, &labels).unwrap();

        // Checkpoint ↔ artifact conversion is lossless.
        let checkpoint = Checkpoint::capture(&exec);
        let bytes = checkpoint.to_artifact_bytes().unwrap();
        let restored = Checkpoint::from_artifact(&Artifact::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(checkpoint, restored, "{level}: artifact round trip changed the checkpoint");

        // The file on disk freezes to the same scoring model, bit for bit,
        // as the checkpoint that never left memory.
        let artifact_path = dir.join(format!("model-{level}.bnff"));
        checkpoint.write_artifact(&artifact_path).unwrap();
        let from_artifact =
            ServeEngine::builder().model_file(&artifact_path).build_model().unwrap();
        let in_memory = ServeEngine::builder().checkpoint(&checkpoint).build_model().unwrap();
        let artifact_scores = from_artifact.executor(4).unwrap().infer(&data).unwrap();
        let memory_scores = in_memory.executor(4).unwrap().infer(&data).unwrap();
        assert_eq!(
            bits(&artifact_scores),
            bits(&memory_scores),
            "{level}: artifact-served and checkpoint-served scores differ"
        );

        // And the deployed model still tracks the training-time eval pass.
        let div = eval.scores.max_abs_diff(&artifact_scores).unwrap();
        assert!(div < 1e-5, "{level}: deployed model diverges from eval by {div}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn files_that_are_not_artifacts_are_typed_errors() {
    let dir = std::env::temp_dir().join(format!("bnff-not-a-model-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases: [(&str, &[u8]); 3] = [
        (
            "old-checkpoint.json",
            b"{\"format_version\": 1, \"graph\": {\"name\": \"a JSON text file\"}}",
        ),
        ("empty.bnff", b""),
        ("short.bnff", b"BNF"),
    ];
    for (name, contents) in cases {
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        let loaded = FrozenModel::load(&path).unwrap_err();
        let started = ServeEngine::builder().model_file(&path).start().unwrap_err();
        assert_eq!(loaded, started, "{name}: the builder must report what the loader does");
        match (name, loaded) {
            ("old-checkpoint.json", ServeError::Model(ModelError::BadMagic { found })) => {
                assert_eq!(&found, b"{\"fo");
            }
            (_, ServeError::Model(ModelError::Truncated { needed: 32, available })) => {
                assert_eq!(available, contents.len() as u64, "{name}");
            }
            (_, other) => panic!("{name}: expected BadMagic/Truncated, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
