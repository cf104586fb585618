//! The reference interpreter both executors are held to, bitwise. It walks
//! `Graph::topo_order()` giving each node a fresh output sized from its inputs
//! (so one graph serves any batch), clones a Split's input, composes fused
//! operators from unfused public kernels, and never reads an
//! `ExecutionPlan`: a plan bug cannot hit both sides. Its eval mode is what
//! the training executor's `forward_eval` and serving's walk of the frozen
//! graph compute.
#![allow(dead_code)]

pub mod graphs;

use bnff::graph::op::PoolKind::{Average, Max};
use bnff::graph::op::{ConvPrologue, OpForm, OpKind};
use bnff::graph::{Graph, NodeId};
use bnff::kernels::batchnorm::{bn_normalize, bn_statistics, BnParams};
use bnff::kernels::concat::concat_forward;
use bnff::kernels::conv::conv2d_forward;
use bnff::kernels::eltwise::eltwise_sum_forward;
use bnff::kernels::fc::fc_forward;
use bnff::kernels::pool::{avg_pool_forward, global_avg_pool_forward, max_pool_forward};
use bnff::kernels::relu::relu_forward;
use bnff::kernels::softmax::{accuracy, softmax_loss_forward};
use bnff::tensor::{stats::ChannelStats, Tensor};
use bnff::train::{Executor, NodeParams, ParamSet, RunningStatSet};

/// Every node's output by node id (none for the labels), the statistics
/// each node published, and the loss head's loss, accuracy and scores.
pub struct Reference {
    pub values: Vec<Option<Tensor>>,
    pub stats: Vec<Option<ChannelStats>>,
    pub loss: f32,
    pub accuracy: f32,
    pub scores: Option<Tensor>,
}

/// The reference of `exec.forward`, or with `eval` of `exec.forward_eval`.
pub fn training(exec: &Executor, eval: bool, data: &Tensor, labels: &[usize]) -> Reference {
    let running = eval.then(|| exec.running_stats());
    run(exec.graph(), exec.params(), running, data, labels)
}

fn run(
    graph: &Graph,
    set: &ParamSet,
    running: Option<&RunningStatSet>,
    data: &Tensor,
    labels: &[usize],
) -> Reference {
    let (mut values, mut stats) = (vec![None; graph.node_count()], vec![None; graph.node_count()]);
    let (mut loss, mut acc, mut scores) = (f32::NAN, f32::NAN, None);
    for id in graph.topo_order().unwrap() {
        let node = graph.node(id).unwrap();
        let p = params(set, id);
        let x = |i: usize| values[node.inputs[i].index()].as_ref().expect("inputs run first");
        let xs = || (0..node.inputs.len()).map(x).collect::<Vec<&Tensor>>();
        let in_stats = || stats[node.inputs[1].index()].as_ref().expect("statistics run first");
        let publish = |t: &Tensor, one_pass: bool| match running {
            Some(running) => running.get(id).unwrap().as_channel_stats(),
            None => bn_statistics(t, one_pass).unwrap(),
        };
        let clip = |y: Tensor, relu: bool| if relu { relu_forward(&y) } else { y };
        let norm = |s: &ChannelStats, eps| bn_normalize(x(0), s, p.bn.unwrap(), eps).unwrap().0;
        let mut own = None; // Statistics swept from the node's input.
        let out = match (node.op.form(), &node.op) {
            (_, OpKind::Input) if node.output_shape.is_nchw() => data.clone(),
            (_, OpKind::Input) => continue, // The labels carry no tensor.
            (OpForm::Conv { attrs, prologue, .. }, _) => {
                let staged = match prologue {
                    ConvPrologue::None => None,
                    ConvPrologue::Relu => Some(relu_forward(x(0))),
                    ConvPrologue::NormRelu(bn) => Some(relu_forward(&norm(in_stats(), bn.epsilon))),
                };
                let input = staged.as_ref().unwrap_or(x(0));
                conv2d_forward(input, p.weights.unwrap(), p.bias, &attrs).unwrap()
            }
            (OpForm::Norm { bn, stats_from_input, relu }, _) => {
                own = stats_from_input.then(|| publish(x(0), bn.one_pass_stats));
                clip(norm(own.as_ref().unwrap_or_else(|| in_stats()), bn.epsilon), relu)
            }
            (_, OpKind::SubBnStats(bn)) => {
                let s = own.insert(publish(x(0), bn.one_pass_stats));
                Tensor::from_vec(node.output_shape.clone(), [&s.mean[..], &s.var].concat()).unwrap()
            }
            (_, OpKind::Relu) => relu_forward(x(0)),
            (_, OpKind::Pool { kind: Max, attrs }) => max_pool_forward(x(0), attrs).unwrap().0,
            (_, OpKind::Pool { kind: Average, attrs }) => avg_pool_forward(x(0), attrs).unwrap(),
            (_, OpKind::GlobalAvgPool) => global_avg_pool_forward(x(0)).unwrap(),
            (_, OpKind::Concat | OpKind::ConcatStats(_)) => concat_forward(&xs()).unwrap(),
            (_, OpKind::Split { .. }) => x(0).clone(),
            (_, OpKind::EltwiseSum) => eltwise_sum_forward(&xs()).unwrap(),
            (_, OpKind::FullyConnected { .. }) => {
                fc_forward(x(0), p.weights.unwrap(), p.bias.unwrap()).unwrap()
            }
            (_, OpKind::SoftmaxLoss) => {
                loss = softmax_loss_forward(x(0), labels).unwrap().loss;
                acc = accuracy(x(0), labels).unwrap();
                scores = Some(x(0).clone());
                Tensor::filled(node.output_shape.clone(), loss)
            }
            (form, op) => panic!("{id}: the reference has no arm for {op} ({form:?})"),
        };
        // Otherwise a convolution or concatenation's epilogue statistics.
        let s = own.or_else(|| node.op.stats_out().map(|bn| publish(&out, bn.one_pass_stats)));
        (values[id.index()], stats[id.index()]) = (Some(out), s);
    }
    Reference { values, stats, loss, accuracy: acc, scores }
}

/// A node's weights and bias, and BN γ/β.
#[derive(Default)]
struct Params<'a> {
    weights: Option<&'a Tensor>,
    bias: Option<&'a [f32]>,
    bn: Option<&'a BnParams>,
}

fn params(set: &ParamSet, id: NodeId) -> Params<'_> {
    let linear = |w, b| Params { weights: Some(w), bias: b, ..Params::default() };
    match set.get(id) {
        Some(NodeParams::Conv { weights, bias }) => linear(weights, bias.as_deref()),
        Some(NodeParams::ConvBn { weights, bias, bn }) => {
            Params { bn: Some(bn), ..linear(weights, bias.as_deref()) }
        }
        Some(NodeParams::Bn(bn)) => Params { bn: Some(bn), ..Params::default() },
        Some(NodeParams::Fc { weights, bias }) => linear(weights, Some(bias)),
        None => Params::default(),
    }
}
