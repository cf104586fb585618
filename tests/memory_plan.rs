//! Workspace integration tests for the memory planner and the plan-driven
//! executor: buffer reuse must be invisible to the numerics (a forward
//! bit-identical to the plan-free reference interpreter in `support`, and
//! gradients bit-identical across training steps, at 1 and 4 threads), and
//! the planned peak activation footprint must beat naive per-node
//! allocation on the model zoo.

mod support;

use bnff::core::{BnffOptimizer, FusionLevel};
use bnff::graph::op::{OpForm, OpKind};
use bnff::graph::passes::freeze::freeze;
use bnff::graph::ExecutionPlan;
use bnff::graph::{Graph, NodeId};
use bnff::models::zoo::{build, Model};
use bnff::models::{densenet_cifar, resnet_cifar};
use bnff::parallel::with_threads;
use bnff::tensor::init::Initializer;
use bnff::tensor::{Shape, Tensor};
use bnff::train::{Executor, ForwardResult, Gradients};
use support::Reference;

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn vec_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts two gradient sets are bit-identical, node by node — the stem
/// convolution's `d_weights` included, which is as far back as a gradient
/// is computed (nothing consumes the data input's).
fn assert_grads_bit_identical(a: &Gradients, b: &Gradients, context: &str) {
    use bnff::train::params::NodeParamGrads as G;
    assert_eq!(a.per_node.len(), b.per_node.len(), "{context}: gradient node sets differ");
    let mut keys: Vec<usize> = a.per_node.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let (ga, gb) = (&a.per_node[&key], &b.per_node[&key]);
        match (ga, gb) {
            (G::Conv { d_weights: wa, d_bias: ba }, G::Conv { d_weights: wb, d_bias: bb }) => {
                assert_eq!(bits(wa), bits(wb), "{context}: conv weights of node {key}");
                assert_eq!(vec_bits(ba), vec_bits(bb), "{context}: conv bias of node {key}");
            }
            (G::Bn { d_gamma: ga_, d_beta: ba }, G::Bn { d_gamma: gb_, d_beta: bb }) => {
                assert_eq!(vec_bits(ga_), vec_bits(gb_), "{context}: gamma of node {key}");
                assert_eq!(vec_bits(ba), vec_bits(bb), "{context}: beta of node {key}");
            }
            (
                G::ConvBn { d_weights: wa, d_bias: ba, d_gamma: gga, d_beta: bba },
                G::ConvBn { d_weights: wb, d_bias: bb, d_gamma: ggb, d_beta: bbb },
            ) => {
                assert_eq!(bits(wa), bits(wb), "{context}: fused weights of node {key}");
                assert_eq!(vec_bits(ba), vec_bits(bb), "{context}: fused bias of node {key}");
                assert_eq!(vec_bits(gga), vec_bits(ggb), "{context}: fused gamma of node {key}");
                assert_eq!(vec_bits(bba), vec_bits(bbb), "{context}: fused beta of node {key}");
            }
            (G::Fc { d_weights: wa, d_bias: ba }, G::Fc { d_weights: wb, d_bias: bb }) => {
                assert_eq!(bits(wa), bits(wb), "{context}: fc weights of node {key}");
                assert_eq!(vec_bits(ba), vec_bits(bb), "{context}: fc bias of node {key}");
            }
            _ => panic!("{context}: gradient variants of node {key} differ"),
        }
    }
}

/// Asserts a forward result is the reference's, bitwise: loss, accuracy,
/// scores, every output the forward retains and every statistic published.
fn assert_matches_reference(fwd: &ForwardResult, reference: &Reference, graph: &Graph, ctx: &str) {
    assert_eq!(fwd.loss.to_bits(), reference.loss.to_bits(), "{ctx}: loss");
    assert_eq!(fwd.accuracy.to_bits(), reference.accuracy.to_bits(), "{ctx}: accuracy");
    assert_eq!(bits(&fwd.scores), bits(reference.scores.as_ref().unwrap()), "{ctx}: scores");
    for node in graph.nodes() {
        let (id, name) = (node.id.index(), &node.name);
        if let Some(out) = fwd.output(node.id) {
            let want = reference.values[id].as_ref().unwrap();
            assert_eq!(bits(&out), bits(want), "{ctx}: retained output of {name}");
        }
        let published = (fwd.stats(node.id), reference.stats[id].as_ref());
        assert_eq!(published.0.is_some(), published.1.is_some(), "{ctx}: statistics of {name}");
        if let (Some(got), Some(want)) = published {
            assert_eq!(vec_bits(&got.mean), vec_bits(&want.mean), "{ctx}: mean of {name}");
            assert_eq!(vec_bits(&got.var), vec_bits(&want.var), "{ctx}: variance of {name}");
        }
    }
}

/// Holds the planned forward to the reference on one graph under one thread
/// count, over two steps whose gradients — the first on a cold pool, the
/// second on recycled buffers — must be bit-identical; then, with the
/// running statistics moved once, holds `forward_eval` to the reference's
/// eval mode.
fn check_equivalence(graph: &Graph, threads: usize, context: &str) {
    let mut exec = Executor::new(graph.clone(), 41).unwrap();
    let batch = 6;
    let mut init = Initializer::seeded(42);
    let data = init.uniform(Shape::nchw(batch, 3, 32, 32), -1.0, 1.0);
    let labels: Vec<usize> = (0..batch).map(|i| i % 4).collect();

    with_threads(threads, || {
        let reference = support::training(&exec, false, &data, &labels);
        let first = exec.forward(&data, &labels).unwrap();
        assert_matches_reference(&first, &reference, graph, &format!("{context} t{threads}"));
        let cold = exec.backward(&first).unwrap();
        drop(first);
        let second = exec.forward(&data, &labels).unwrap();
        let step_ctx = format!("{context} t{threads} step1");
        assert_matches_reference(&second, &reference, graph, &step_ctx);
        assert_grads_bit_identical(&exec.backward(&second).unwrap(), &cold, &step_ctx);

        exec.update_running_stats(&second).unwrap();
        drop(second);
        let eval = exec.forward_eval(&data, &labels).unwrap();
        let reference = support::training(&exec, true, &data, &labels);
        assert_matches_reference(&eval, &reference, graph, &format!("{context} t{threads} eval"));
    });
}

#[test]
fn planned_execution_is_bit_identical_on_the_baseline_densenet() {
    let graph = densenet_cifar(6, 6, 2, 4).unwrap();
    for threads in [1usize, 4] {
        check_equivalence(&graph, threads, "densenet baseline");
    }
}

#[test]
fn planned_execution_is_bit_identical_on_the_bnff_densenet() {
    let baseline = densenet_cifar(6, 6, 2, 4).unwrap();
    let restructured = BnffOptimizer::new(FusionLevel::Bnff).apply(&baseline).unwrap();
    for threads in [1usize, 4] {
        check_equivalence(&restructured, threads, "densenet bnff");
    }
}

#[test]
fn planned_execution_is_bit_identical_on_resnet_graphs() {
    let baseline = resnet_cifar(6, 1, 4).unwrap();
    check_equivalence(&baseline, 4, "resnet baseline");
    let restructured = BnffOptimizer::new(FusionLevel::Bnff).apply(&baseline).unwrap();
    check_equivalence(&restructured, 4, "resnet bnff");
}

#[test]
fn planned_execution_is_bit_identical_with_split_maxpool_and_eltwise() {
    // The zoo's executed models cover conv/BN/ReLU/avg-pool/concat/FC; this
    // graph adds the remaining executor arms — Split aliasing, max pooling
    // and the residual element-wise sum.
    let graph = support::graphs::mixed(6);
    for threads in [1usize, 4] {
        check_equivalence(&graph, threads, "mixed ops");
    }
}

#[test]
fn planned_execution_is_bit_identical_through_nested_shared_copied_and_repeated_concatenations() {
    let baseline = support::graphs::concatenations(6);
    let restructured = BnffOptimizer::new(FusionLevel::Bnff).apply(&baseline).unwrap();
    for (graph, level) in [(&baseline, "baseline"), (&restructured, "bnff")] {
        let plan = ExecutionPlan::for_graph(graph).unwrap();
        let id = |name: &str| graph.nodes().find(|n| n.name == name).unwrap().id;
        for rope in ["inner", "outer", "twice"] {
            assert!(plan.is_rope(id(rope)), "{level}: {rope}");
        }
        for copied in ["side", "both"] {
            assert!(!plan.is_rope(id(copied)), "{level}: a ReLU reads no planes of {copied}");
        }
        for threads in [1usize, 4] {
            check_equivalence(graph, threads, &format!("concatenations {level}"));
        }
    }
}

#[test]
fn planned_execution_is_bit_identical_through_a_rope_of_in_place_relus() {
    let baseline = support::graphs::clipped_rope(6);
    let plan = ExecutionPlan::for_graph(&baseline).unwrap();
    let rope = baseline.nodes().find(|n| n.name == "rope").unwrap().id;
    let parts = plan.concat_parts(rope).unwrap();
    assert!(plan.is_rope(rope) && parts.len() == 2);
    assert!(parts.iter().all(|&part| plan.clips_in_place(NodeId::new(part))));
    for level in FusionLevel::all() {
        let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
        for threads in [1usize, 4] {
            check_equivalence(&graph, threads, &format!("clipped rope {level:?}"));
        }
    }
}

/// What the planner that copied every concatenation into its own buffer
/// (and held each BN output a ReLU masked with) saved for the backward of
/// `densenet_cifar(64, 8, 2, 10)` at the Baseline and BNFF levels.
const COPYING_SAVED_L0: usize = 140_648_448;
const COPYING_SAVED_L3: usize = 47_587_328;
/// The whole-step plans of the same model at those levels: its outputs,
/// gradients and the backward's scratch packed into slots.
const STEP_PEAK_L0: usize = 93_192_192;
const STEP_PEAK_L3: usize = 51_249_152;

#[test]
fn ropes_hold_forty_fewer_channel_planes_per_dense_block() {
    let (batch, growth, layers, block_input) = (64, 8, 2, 16);
    let baseline = densenet_cifar(batch, growth, layers, 10).unwrap();
    // A copying plan held each block's input and every concatenation but
    // the last apart from the last one's buffer; a rope plan holds the
    // input and the growth maps once. At 2 layers: 16 + 24 channels.
    let held_apart = layers * block_input + growth * layers * (layers - 1) / 2;
    assert_eq!(held_apart, 40);
    let planes: usize = [32usize, 16, 8].iter().map(|hw| hw * hw * batch * 4).sum();
    let fewer = held_apart * planes;
    assert_eq!(fewer, 13_762_560);
    let plan = |level| {
        ExecutionPlan::for_graph(&BnffOptimizer::new(level).apply(&baseline).unwrap()).unwrap()
    };
    let (l0, l1, l3) =
        (plan(FusionLevel::Baseline), plan(FusionLevel::Rcf), plan(FusionLevel::Bnff));
    // Nor does the Baseline hold a BN output beside the ReLU output it is
    // clipped into: per block, each composite layer's two BNs (over the
    // concatenation so far, and over the 4k bottleneck) and the
    // transition's. The last block's closing BN is still held: its ReLU
    // feeds the global pool, which needs no tensor, and masks with it.
    let bn_channels: usize = (0..layers).map(|l| block_input + l * growth + 4 * growth).sum();
    let closing = block_input + layers * growth;
    assert_eq!(bn_channels + closing, 136);
    let clipped = (bn_channels + closing) * planes - closing * 8 * 8 * batch * 4;
    assert_eq!(clipped, 46_268_416);
    assert_eq!(l0.saved_bytes(), COPYING_SAVED_L0 - fewer - clipped);
    // Fusing the ReLU into the convolution (RCF) moves no byte.
    assert_eq!(l0.planned_peak_bytes(), l1.planned_peak_bytes());
    assert_eq!(l0.saved_bytes(), l1.saved_bytes());
    assert_eq!(l3.saved_bytes(), COPYING_SAVED_L3 - fewer);
    assert_eq!([l0, l3].map(|plan| plan.planned_peak_bytes()), [STEP_PEAK_L0, STEP_PEAK_L3]);
}

/// The node whose tensor `relu` may clip in place: its input, through
/// Splits, when no other node reads that and it is neither the data input
/// nor a ReLU's output.
fn sole_input(graph: &Graph, relu: NodeId) -> Option<NodeId> {
    fn readers(graph: &Graph, id: NodeId) -> usize {
        let split = |c: NodeId| matches!(graph.node(c).unwrap().op, OpKind::Split { .. });
        let count = |c: NodeId| if split(c) { readers(graph, c).max(1) } else { 1 };
        graph.consumers(id).into_iter().map(count).sum()
    }
    let mut input = graph.node(relu).unwrap().inputs[0];
    while let OpKind::Split { .. } = graph.node(input).unwrap().op {
        input = graph.node(input).unwrap().inputs[0];
    }
    let op = &graph.node(input).unwrap().op;
    (readers(graph, input) == 1 && !matches!(op, OpKind::Input | OpKind::Relu)).then_some(input)
}

/// Whether the backward of a node other than `except` re-reads `tensor`:
/// a convolution, normalization or FC as its first input (a rope's part
/// included), or a ReLU as its own output.
fn read_back_by_another(
    graph: &Graph,
    plan: &ExecutionPlan,
    tensor: NodeId,
    except: NodeId,
) -> bool {
    let first_input = |node: &bnff::graph::Node| {
        let input = plan.resolve(node.inputs[0]);
        let parts = plan.concat_parts(input).filter(|_| plan.is_rope(input)).unwrap_or_default();
        input == tensor || parts.iter().any(|&p| plan.resolve(NodeId::new(p)) == tensor)
    };
    graph.nodes().filter(|n| n.id != except).any(|node| match (node.op.form(), &node.op) {
        (_, OpKind::Relu) => plan.resolve(node.id) == tensor,
        (OpForm::Conv { .. } | OpForm::Norm { .. }, _) | (_, OpKind::FullyConnected { .. }) => {
            first_input(node)
        }
        _ => false,
    })
}

#[test]
fn a_relu_holds_nothing_of_its_own() {
    let zoo = [
        densenet_cifar(2, 8, 2, 10).unwrap(),
        resnet_cifar(2, 1, 10).unwrap(),
        build(Model::DenseNet121, 2).unwrap(),
        build(Model::ResNet50, 2).unwrap(),
    ];
    let plan = |baseline: &Graph, level| {
        ExecutionPlan::for_graph(&BnffOptimizer::new(level).apply(baseline).unwrap()).unwrap()
    };
    // Fusing a ReLU into the convolution after it moves arithmetic, not
    // retention: the Baseline holds what RCF holds.
    for baseline in &zoo {
        let (l0, l1) = (plan(baseline, FusionLevel::Baseline), plan(baseline, FusionLevel::Rcf));
        assert_eq!(l0.saved_bytes(), l1.saved_bytes(), "{}", baseline.name());
        assert_eq!(l0.planned_peak_bytes(), l1.planned_peak_bytes(), "{}", baseline.name());
    }
    // Every level of the zoo and of the graphs with a ReLU whose input
    // another node reads (`mixed`: a Split; `concatenations`: a copied
    // concatenation), in training and at inference.
    let extra = [support::graphs::mixed(2), support::graphs::concatenations(2)];
    let graphs = zoo.iter().chain(&extra).flat_map(|baseline| {
        FusionLevel::all().into_iter().map(|l| BnffOptimizer::new(l).apply(baseline).unwrap())
    });
    let mut clipped = 0;
    for graph in graphs {
        let serving = freeze(&graph).unwrap().graph;
        let training = ExecutionPlan::for_graph(&graph).unwrap();
        let inference = ExecutionPlan::for_inference(&serving).unwrap();
        for (graph, plan, trains) in [(&graph, &training, true), (&serving, &inference, false)] {
            for relu in graph.nodes().filter(|n| matches!(n.op, OpKind::Relu)) {
                let context = format!("{}: {}", graph.name(), relu.name);
                // A ReLU whose input has one reader is an alias of it.
                let sole = sole_input(graph, relu.id);
                assert_eq!(plan.clips_in_place(relu.id), sole.is_some(), "{context}");
                if let Some(input) = sole {
                    assert_eq!(plan.resolve(relu.id), input, "{context}");
                    assert!(plan.liveness(relu.id).is_none(), "{context}");
                    clipped += 1;
                }
                // No training plan pins a ReLU's input unless another
                // node's backward reads it.
                let input = relu.inputs[0];
                let read_back = read_back_by_another(graph, plan, plan.resolve(input), relu.id);
                assert!(!trains || !plan.is_saved(input) || read_back, "{context}");
            }
        }
    }
    assert!(clipped > 0);
}

#[test]
fn no_concatenation_output_is_held() {
    let baseline = densenet_cifar(6, 6, 2, 4).unwrap();
    let data = Initializer::seeded(43).uniform(Shape::nchw(6, 3, 32, 32), -1.0, 1.0);
    let labels: Vec<usize> = (0..6).map(|i| i % 4).collect();
    for level in FusionLevel::all() {
        let exec = Executor::new(BnffOptimizer::new(level).apply(&baseline).unwrap(), 44).unwrap();
        let fwd = exec.forward(&data, &labels).unwrap();
        let concats = exec.graph().nodes().filter(|n| n.op.name().starts_with("Concat"));
        let mut count = 0;
        for node in concats {
            let plan = exec.plan();
            assert!(plan.is_rope(node.id) && plan.liveness(node.id).is_none(), "{level:?}");
            assert!(fwd.output(node.id).is_none(), "{level:?}: {} holds a tensor", node.name);
            count += 1;
        }
        assert_eq!(count, 6, "{level:?}");
    }
}

#[test]
fn planned_peak_never_exceeds_the_naive_total_across_the_zoo() {
    for model in [
        Model::AlexNet,
        Model::Vgg16,
        Model::ResNet18,
        Model::ResNet50,
        Model::DenseNet121,
        Model::DenseNet169,
        Model::DenseNetCifar,
        Model::ResNetCifar,
    ] {
        let graph = build(model, 2).unwrap();
        let plan = ExecutionPlan::for_graph(&graph).unwrap();
        assert!(
            plan.planned_peak_bytes() <= plan.naive_total_bytes(),
            "{}: planned {} exceeds naive {}",
            model.display_name(),
            plan.planned_peak_bytes(),
            plan.naive_total_bytes()
        );
    }
}

#[test]
fn planned_peak_is_strictly_below_naive_for_resnet_and_densenet() {
    for model in [Model::ResNet50, Model::DenseNet121, Model::ResNetCifar, Model::DenseNetCifar] {
        let graph = build(model, 2).unwrap();
        let plan = ExecutionPlan::for_graph(&graph).unwrap();
        assert!(
            plan.planned_peak_bytes() < plan.naive_total_bytes(),
            "{}: planned {} not strictly below naive {}",
            model.display_name(),
            plan.planned_peak_bytes(),
            plan.naive_total_bytes()
        );
        // The plan must actually pack transient tensors into shared slots.
        assert!(plan.slot_count() >= 1, "{}: no reuse slots", model.display_name());
    }
}

#[test]
fn restructured_graphs_still_plan_their_memory() {
    // Every fusion level's graph must be plannable, and the planner must
    // keep beating naive allocation after restructuring.
    let baseline = densenet_cifar(4, 8, 2, 4).unwrap();
    for level in FusionLevel::all() {
        let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
        let plan = ExecutionPlan::for_graph(&graph).unwrap();
        assert!(
            plan.planned_peak_bytes() < plan.naive_total_bytes(),
            "{level:?}: planned {} vs naive {}",
            plan.planned_peak_bytes(),
            plan.naive_total_bytes()
        );
    }
}

/// Planned peak ÷ the step's lower bound, in hundredths rounded down, of
/// each zoo model at batch 8 and each of Baseline, RCF and BNFF: (training
/// plan — the whole step, forward and backward —, inference plan of the
/// frozen graph). The slack is the slot planner's: a slot grows to the
/// largest buffer it ever holds, and slot sizes add up.
const SLACK: [(Model, [[usize; 2]; 3]); 8] = [
    (Model::AlexNet, [[120, 100], [120, 100], [120, 100]]),
    (Model::Vgg16, [[120, 100], [120, 100], [120, 100]]),
    (Model::ResNet18, [[118, 111], [118, 111], [126, 111]]),
    (Model::ResNet50, [[126, 100], [126, 100], [135, 100]]),
    (Model::DenseNet121, [[105, 259], [105, 259], [127, 157]]),
    (Model::DenseNet169, [[105, 269], [105, 269], [126, 165]]),
    (Model::DenseNetCifar, [[109, 187], [109, 187], [111, 102]]),
    (Model::ResNetCifar, [[106, 100], [106, 100], [107, 100]]),
];

#[test]
fn the_planned_peak_sits_where_recorded_above_the_live_lower_bound() {
    let levels = [FusionLevel::Baseline, FusionLevel::Rcf, FusionLevel::Bnff];
    for (model, recorded) in SLACK {
        let baseline = build(model, 8).unwrap();
        for (level, want) in levels.into_iter().zip(recorded) {
            let context = format!("{} {level}", model.display_name());
            let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
            let training = ExecutionPlan::for_graph(&graph).unwrap();
            let inference = ExecutionPlan::for_inference(&freeze(&graph).unwrap().graph).unwrap();
            let slack = [training, inference].map(|plan| {
                let (planned, bound) = (plan.planned_peak_bytes(), plan.step_lower_bound_bytes());
                assert!(bound <= planned, "{context}: bound {bound} above planned {planned}");
                100 * planned / bound
            });
            assert_eq!(slack, want, "{context}: (training, inference)");
        }
    }
}
