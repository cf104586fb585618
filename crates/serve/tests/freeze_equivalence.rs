//! Freeze equivalence: a frozen graph must reproduce the training
//! executor's *eval-mode* (running-statistics) forward pass bit for bit,
//! across thread counts, at every measured fusion level — and the dynamic
//! batcher must return the same scores whether a request runs alone or
//! coalesced into a full batch.

use bnff_artifact::Artifact;
use bnff_core::{BnffOptimizer, FusionLevel};
use bnff_graph::builder::GraphBuilder;
use bnff_graph::op::Conv2dAttrs;
use bnff_graph::Graph;
use bnff_parallel::with_threads;
use bnff_serve::{BatchingConfig, ServeEngine};
use bnff_tensor::init::Initializer;
use bnff_tensor::{Shape, Tensor};
use bnff_train::checkpoint::Checkpoint;
use bnff_train::params::NodeParams;
use bnff_train::Executor;
use std::time::Duration;

/// A classifier exercising every structural case serving handles: BN chains
/// that fuse into convolutions, a BN behind a Concat, an element-wise sum,
/// pooling and an FC head.
fn classifier(batch: usize, classes: usize) -> Graph {
    let mut b = GraphBuilder::new("serve-cls");
    let x = b.input("data", Shape::nchw(batch, 3, 8, 8)).unwrap();
    let labels = b.input("labels", Shape::vector(batch)).unwrap();
    let stem = b.conv_bn_relu(x, Conv2dAttrs::same_3x3(8), "stem").unwrap();
    let c1 = b.bn_relu_conv(stem, Conv2dAttrs::pointwise(16), "cpl/a").unwrap();
    let c2 = b.bn_relu_conv(c1, Conv2dAttrs::same_3x3(8), "cpl/b").unwrap();
    let sum = b.eltwise_sum(vec![stem, c2], "sum").unwrap();
    let cat = b.concat(vec![stem, sum], "concat").unwrap();
    let bn = b.batch_norm_default(cat, "tailbn").unwrap();
    let r = b.relu(bn, "tailrelu").unwrap();
    let gap = b.global_avg_pool(r, "gap").unwrap();
    let fc = b.fully_connected(gap, classes, "fc").unwrap();
    b.softmax_loss(fc, labels, "loss").unwrap();
    b.finish()
}

/// Nudges every γ/β off its identity initialization so serving actually
/// has scales and shifts to get wrong.
fn perturb_bn_params(exec: &mut Executor) {
    let mut k = 0usize;
    for (_, params) in exec.params_mut().iter_mut() {
        let bn = match params {
            NodeParams::Bn(bn) => bn,
            NodeParams::ConvBn { bn, .. } => bn,
            _ => continue,
        };
        for (ci, (g, b)) in bn.gamma.iter_mut().zip(bn.beta.iter_mut()).enumerate() {
            *g = 1.0 + 0.2 * ((k + ci) as f32 * 0.7).sin();
            *b = 0.1 * ((k + ci) as f32 * 1.3).cos();
        }
        k += 17;
    }
}

/// An executor with moved running statistics and non-identity γ/β.
fn conditioned_executor(graph: Graph, seed: u64) -> (Executor, Tensor, Vec<usize>) {
    let batch = graph
        .input_nodes()
        .iter()
        .find_map(|id| {
            let shape = &graph.node(*id).unwrap().output_shape;
            shape.is_nchw().then(|| shape.n())
        })
        .unwrap();
    let mut exec = Executor::new(graph, seed).unwrap();
    perturb_bn_params(&mut exec);
    let mut init = Initializer::seeded(seed ^ 0x5eed);
    let labels: Vec<usize> = (0..batch).map(|i| i % 3).collect();
    let mut data = Tensor::zeros(Shape::scalar());
    for step in 0..2 {
        data = init.uniform(
            exec.graph().node(exec.graph().input_nodes()[0]).unwrap().output_shape.clone(),
            -1.0,
            1.0,
        );
        let _ = step;
        let fwd = exec.forward(&data, &labels).unwrap();
        exec.update_running_stats(&fwd).unwrap();
    }
    (exec, data, labels)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn frozen_matches_eval_at_every_measured_fusion_level() {
    let baseline = classifier(4, 3);
    for level in FusionLevel::measured() {
        let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
        let (exec, data, labels) = conditioned_executor(graph, 11 + level as u64);
        let eval = exec.forward_eval(&data, &labels).unwrap();
        let model = ServeEngine::builder().executor(&exec).build_model().unwrap();
        let frozen = model.executor(4).unwrap();
        let scores = frozen.infer(&data).unwrap();
        assert_eq!(bits(&scores), bits(&eval.scores), "{level}: frozen diverges from eval");
        // A second inference over recycled arena buffers must not drift.
        let again = frozen.infer(&data).unwrap();
        assert_eq!(scores.as_slice(), again.as_slice(), "{level}: arena reuse drifted");
    }
}

#[test]
fn frozen_inference_is_bit_identical_across_thread_counts() {
    let (exec, data, _labels) = conditioned_executor(classifier(4, 3), 23);
    let model = ServeEngine::builder().executor(&exec).build_model().unwrap();
    let reference: Vec<u32> = with_threads(1, || {
        model
            .executor(4)
            .unwrap()
            .infer(&data)
            .unwrap()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    });
    for threads in [2usize, 4, 7] {
        let bits: Vec<u32> = with_threads(threads, || {
            model
                .executor(4)
                .unwrap()
                .infer(&data)
                .unwrap()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        });
        assert_eq!(bits, reference, "threads={threads} changed the frozen scores");
    }
}

#[test]
fn batch_of_one_equals_coalesced_batch() {
    let (exec, data, _labels) = conditioned_executor(classifier(4, 3), 31);
    let model = ServeEngine::builder().executor(&exec).build_model().unwrap();
    let single = model.executor(1).unwrap();
    let full = model.executor(4).unwrap();
    let batched = full.infer(&data).unwrap();
    let classes = model.classes().unwrap();
    let sample_volume = data.len() / 4;
    for i in 0..4 {
        let sample = Tensor::from_vec(
            Shape::nchw(1, 3, 8, 8),
            data.as_slice()[i * sample_volume..(i + 1) * sample_volume].to_vec(),
        )
        .unwrap();
        let alone = single.infer(&sample).unwrap();
        let row = &batched.as_slice()[i * classes..(i + 1) * classes];
        assert_eq!(
            alone.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "sample {i} differs between batch-1 and batch-4"
        );
    }
}

#[test]
fn checkpoint_freeze_round_trip_serves_identically() {
    let (exec, data, _labels) = conditioned_executor(classifier(4, 3), 41);
    let direct = ServeEngine::builder().executor(&exec).build_model().unwrap();
    let ckpt = Checkpoint::capture(&exec);
    let artifact = Artifact::from_bytes(&ckpt.to_artifact_bytes().unwrap()).unwrap();
    let restored = Checkpoint::from_artifact(&artifact).unwrap();
    let via_checkpoint = ServeEngine::builder().checkpoint(&restored).build_model().unwrap();
    let a = direct.executor(4).unwrap().infer(&data).unwrap();
    let b = via_checkpoint.executor(4).unwrap().infer(&data).unwrap();
    assert_eq!(a.as_slice(), b.as_slice(), "checkpoint round trip changed the frozen scores");
}

#[test]
fn engine_serves_correct_scores_under_concurrent_load() {
    let (exec, _data, _labels) = conditioned_executor(classifier(4, 3), 53);
    let model = ServeEngine::builder().executor(&exec).build_model().unwrap();
    let single = model.executor(1).unwrap();

    // Reference scores for 16 distinct samples.
    let mut init = Initializer::seeded(99);
    let samples: Vec<Tensor> =
        (0..16).map(|_| init.uniform(Shape::nchw(1, 3, 8, 8), -1.0, 1.0)).collect();
    let references: Vec<Vec<f32>> =
        samples.iter().map(|s| single.infer(s).unwrap().as_slice().to_vec()).collect();

    let engine = ServeEngine::builder()
        .model(model)
        .config(BatchingConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(5),
            workers: 2,
            ..BatchingConfig::default()
        })
        .start()
        .unwrap();

    // Submit everything up front so the batcher has a chance to coalesce,
    // then await all completions.
    let receivers: Vec<_> = samples.iter().map(|s| engine.submit(s.clone()).unwrap()).collect();
    for (i, rx) in receivers.into_iter().enumerate() {
        let completion = rx.recv().unwrap().unwrap();
        assert!(completion.batch_size >= 1 && completion.batch_size <= 4);
        assert!(completion.latency > Duration::ZERO);
        assert_eq!(
            completion.scores.as_slice(),
            references[i].as_slice(),
            "request {i}: engine scores differ from the batch-1 reference"
        );
    }
    let metrics = engine.shutdown();
    assert_eq!(metrics.requests(), 16);
    assert!(metrics.batches() >= 4, "16 requests need at least 4 batches of ≤4");
    assert!(metrics.percentile_ms(99.0) >= metrics.percentile_ms(50.0));
    assert!(metrics.mean_batch_size() >= 1.0);
}

#[test]
fn engine_rejects_bad_samples_and_shuts_down_cleanly() {
    let (exec, _data, _labels) = conditioned_executor(classifier(2, 3), 67);
    let model = ServeEngine::builder().executor(&exec).build_model().unwrap();
    let engine =
        ServeEngine::builder().model(model).config(BatchingConfig::default()).start().unwrap();
    let bad = Tensor::zeros(Shape::nchw(1, 5, 8, 8));
    assert!(engine.submit(bad).is_err());
    // A bare C×H×W sample is auto-batched.
    let ok = Tensor::zeros(Shape::new(vec![3, 8, 8]));
    let completion = engine.infer_blocking(ok).unwrap();
    assert_eq!(completion.scores.len(), 3);
    drop(engine);
}

/// The opt-in per-op profiler: one row per plan position — every node of
/// the frozen graph, once, the written ones among them — counting only the
/// runs made while enabled, never changing a score bit.
#[test]
fn walk_profiler_counts_enabled_runs_and_leaves_scores_untouched() {
    let (exec, data, _labels) = conditioned_executor(classifier(4, 3), 79);
    let model = ServeEngine::builder().executor(&exec).build_model().unwrap();
    let frozen = model.executor(4).unwrap();
    let positions = model.template().node_count();
    let rows = frozen.profile();
    let mut nodes: Vec<usize> = rows.iter().map(|r| r.node.index()).collect();
    nodes.sort_unstable();
    assert_eq!(nodes, (0..positions).collect::<Vec<_>>(), "one row per node");
    assert!(frozen.program().iter().all(|id| rows.iter().any(|r| r.node == *id)));
    for threads in [1, 4] {
        with_threads(threads, || {
            frozen.reset_profile();
            let plain = frozen.infer(&data).unwrap();
            let rows = frozen.profile();
            assert_eq!(rows.len(), positions, "one row per plan position");
            assert!(rows.iter().all(|r| r.count == 0), "disabled runs must not be recorded");

            frozen.enable_profiling(true);
            let runs = 3;
            for _ in 0..runs {
                let profiled = frozen.infer(&data).unwrap();
                assert_eq!(
                    profiled.as_slice(),
                    plain.as_slice(),
                    "{threads} threads: profiling changed the scores"
                );
            }
            frozen.enable_profiling(false);
            let rows = frozen.profile();
            assert_eq!(rows.len(), positions);
            for row in &rows {
                assert_eq!(row.count, runs, "{}: count", row.name);
                assert!(row.total_ns >= row.max_ns, "{}: {row:?}", row.name);
                // A position that writes a tensor runs a kernel: it takes time.
                let written = frozen.program().contains(&row.node);
                assert!(!written || row.max_ns > 0, "{}: {row:?}", row.name);
            }

            frozen.reset_profile();
            assert!(frozen
                .profile()
                .iter()
                .all(|r| r.count == 0 && r.total_ns == 0 && r.max_ns == 0));
        });
    }
}
