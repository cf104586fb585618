//! The numeric graph executor: plan-driven forward and backward passes over
//! a model graph, dispatching to the kernels crate.
//!
//! The restructured operators are never matched by name here: every op is
//! decoded by [`OpKind::form`] into *prologue → core → epilogue*, and each
//! direction has one convolution arm and one normalization arm.
//!
//! * Forward convolution: the prologue borrows the ifmap, clips it (RCF), or
//!   runs the normalize+clip sweep on it (`(sub-BN2)-ReLU-CONV2`); one
//!   convolution call follows, riding the Σx/Σx² epilogue
//!   (`CONV1-(sub-BN1)`) when the statistics are single-sweep. A transformed
//!   ifmap and its `x̂` move into the node's state — they are what backward
//!   re-reads. Forward normalization is the same sweep on its own.
//! * Backward convolution: weight and input gradients from the tensor the
//!   convolution actually read, then the ReLU mask taken from that tensor,
//!   then BN backward — each only if the prologue had it. Backward
//!   normalization is the last two steps on its own.
//! * Training publishes mini-batch statistics and eval the running ones;
//!   `publish_stats` is the one place that chooses.
//!
//! Execution follows an [`ExecutionPlan`] computed once per graph: node
//! outputs live in a vector indexed by node id (inputs are borrowed), tensors
//! backward never revisits are released at their last forward use into a
//! per-executor arena (one bin per plan slot), and backward gradients recycle
//! through a [`BufferPool`] — both persistent across steps.
//! [`Executor::forward_naive`] keeps one buffer per node as the bit-identical
//! reference. Every kernel fans out over the `bnff-parallel` pool.

use crate::error::TrainError;
use crate::params::{Gradients, NodeParamGrads, NodeParams, ParamSet};
use crate::running::RunningStatSet;
use crate::Result;
use bnff_graph::op::{ConvPrologue, OpForm, OpKind, PoolKind};
use bnff_graph::plan::ExecutionPlan;
use bnff_graph::{Graph, Node, NodeId};
use bnff_kernels::batchnorm::{
    bn_backward, bn_statistics, normalize_sweep_into, BnForwardState, BnParamGrads, BnParams,
};
use bnff_kernels::concat::{concat_backward, concat_forward_into};
use bnff_kernels::conv::{
    conv2d_backward_input_into, conv2d_backward_weights, conv2d_forward_into,
};
use bnff_kernels::eltwise::eltwise_sum_forward_into;
use bnff_kernels::fc::{fc_backward, fc_forward};
use bnff_kernels::fused::conv2d_forward_with_stats_into;
use bnff_kernels::pool::{
    avg_pool_backward, avg_pool_forward_into, global_avg_pool_backward, global_avg_pool_forward,
    max_pool_backward, max_pool_forward, MaxPoolState,
};
use bnff_kernels::relu::{relu_backward, relu_forward, relu_forward_into};
use bnff_kernels::softmax::{
    accuracy, softmax_loss_backward, softmax_loss_forward, SoftmaxLossState,
};
use bnff_tensor::pool::BufferPool;
use bnff_tensor::stats::ChannelStats;
use bnff_tensor::{ops, Shape, Tensor};
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// Which statistics a forward pass normalizes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StatsMode {
    /// Training semantics: per-channel statistics of the current mini-batch.
    Batch,
    /// Inference (eval) semantics: the executor's running statistics — the
    /// same numbers the freeze pass folds into a frozen graph.
    Running,
}

/// Per-node state captured during the forward pass for reuse in backward.
#[derive(Debug, Clone)]
enum NodeState {
    /// What a convolution prologue and/or a normalization keeps: the
    /// transformed (clipped, possibly normalized) ifmap the convolution
    /// actually read, and the statistics + `x̂` BN backward borrows.
    Saved {
        conv_input: Option<Tensor>,
        bn: Option<BnForwardState>,
    },
    MaxPool(MaxPoolState),
    Softmax(SoftmaxLossState),
}

/// The result of one forward pass.
#[derive(Debug, Clone)]
pub struct ForwardResult {
    /// Mean cross-entropy loss over the mini-batch.
    pub loss: f32,
    /// Classification accuracy over the mini-batch.
    pub accuracy: f32,
    /// The classifier scores fed into the loss node.
    pub scores: Tensor,
    /// Node outputs by node id: the ones backward revisits (planned path) or
    /// all of them (naive path).
    values: Vec<Option<Tensor>>,
    stats: Vec<Option<ChannelStats>>,
    states: Vec<Option<NodeState>>,
    labels: Vec<usize>,
}

impl ForwardResult {
    /// The output tensor of a node, if it was retained.
    ///
    /// The planned forward pass ([`Executor::forward`]) retains only the
    /// tensors its liveness analysis says the backward pass re-reads;
    /// [`Executor::forward_naive`] retains every node output (a Split owns
    /// none: it forwards its producer's).
    pub fn output(&self, id: NodeId) -> Option<&Tensor> {
        self.values.get(id.index()).and_then(Option::as_ref)
    }

    /// The mini-batch statistics produced by a statistics-bearing node.
    pub fn stats(&self, id: NodeId) -> Option<&ChannelStats> {
        self.stats.get(id.index()).and_then(Option::as_ref)
    }
}

/// The persistent buffer storage one executor recycles across nodes and
/// across training steps: one bin per plan slot for forward activations,
/// plus a best-fit free list for backward gradients.
struct Workspace {
    arena: Vec<Option<Vec<f32>>>,
    pool: BufferPool,
}

impl Workspace {
    fn for_plan(plan: &ExecutionPlan) -> Self {
        Workspace {
            arena: vec![None; plan.slot_count()],
            // Backward releases roughly one gradient buffer per activation;
            // bound the free list so give/take imbalance can never grow the
            // pool without limit across steps.
            pool: BufferPool::bounded(2 * plan.naive_total_bytes() + (1 << 20)),
        }
    }
}

impl fmt::Debug for Workspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workspace")
            .field("arena_slots", &self.arena.len())
            .field("arena_filled", &self.arena.iter().flatten().count())
            .field("pool_free_bytes", &self.pool.free_bytes())
            .finish()
    }
}

/// A numeric executor bound to one graph and one parameter set.
#[derive(Debug)]
pub struct Executor {
    graph: Graph,
    params: ParamSet,
    plan: ExecutionPlan,
    running: RunningStatSet,
    workspace: Mutex<Workspace>,
}

impl Clone for Executor {
    fn clone(&self) -> Self {
        Executor {
            graph: self.graph.clone(),
            params: self.params.clone(),
            plan: self.plan.clone(),
            running: self.running.clone(),
            // Recycled buffers are per-executor scratch, not state.
            workspace: Mutex::new(Workspace::for_plan(&self.plan)),
        }
    }
}

impl Executor {
    /// Creates an executor with freshly initialized parameters.
    ///
    /// # Errors
    /// Returns an error if the graph is structurally invalid.
    pub fn new(graph: Graph, seed: u64) -> Result<Self> {
        graph.validate()?;
        let params = ParamSet::initialize(&graph, seed)?;
        Self::with_params(graph, params)
    }

    /// Creates an executor around an existing parameter set.
    ///
    /// # Errors
    /// Returns an error if the graph cannot be memory-planned (e.g. it is
    /// cyclic).
    pub fn with_params(graph: Graph, params: ParamSet) -> Result<Self> {
        let running = RunningStatSet::initialize(&graph);
        Self::with_state(graph, params, running)
    }

    /// Creates an executor around an existing parameter set *and* running
    /// statistics (checkpoint restore).
    ///
    /// # Errors
    /// Returns an error if the graph cannot be memory-planned (e.g. it is
    /// cyclic).
    pub fn with_state(graph: Graph, params: ParamSet, running: RunningStatSet) -> Result<Self> {
        let plan = ExecutionPlan::for_graph(&graph)?;
        let workspace = Mutex::new(Workspace::for_plan(&plan));
        Ok(Executor { graph, params, plan, running, workspace })
    }

    /// The executor's graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The memory plan execution is driven by.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// The executor's parameters.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable access to the parameters (used by the optimizer).
    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    /// The executor's running (inference) Batch Normalization statistics.
    pub fn running_stats(&self) -> &RunningStatSet {
        &self.running
    }

    /// Folds the mini-batch statistics recorded by a (training-mode)
    /// forward pass into the running EMA — one call per optimization step,
    /// mirroring what training frameworks do inside their BN layers.
    ///
    /// # Errors
    /// Returns an error when a tracked node's statistics are absent from
    /// `fwd` (e.g. the result came from an eval-mode forward).
    pub fn update_running_stats(&mut self, fwd: &ForwardResult) -> Result<()> {
        let tracked: Vec<usize> = self.running.iter().map(|(idx, _)| *idx).collect();
        for id in tracked.into_iter().map(NodeId::new) {
            let stats = fwd.stats(id).ok_or_else(|| {
                TrainError::Missing(format!("mini-batch statistics of {id} in forward result"))
            })?;
            self.running.observe(id, stats)?;
        }
        Ok(())
    }

    fn data_input(&self) -> Result<NodeId> {
        self.graph
            .input_nodes()
            .into_iter()
            .find(|id| self.graph.node(*id).map(|n| n.output_shape.is_nchw()).unwrap_or(false))
            .ok_or_else(|| TrainError::Missing("4-D data input node".to_string()))
    }

    fn conv_params(&self, node: &Node) -> Result<(&Tensor, Option<&[f32]>)> {
        match self.params.get(node.id) {
            Some(NodeParams::Conv { weights, bias } | NodeParams::ConvBn { weights, bias, .. }) => {
                Ok((weights, bias.as_deref()))
            }
            _ => Err(missing("convolution parameters", node)),
        }
    }

    fn bn_params(&self, node: &Node) -> Result<&BnParams> {
        match self.params.get(node.id) {
            Some(NodeParams::Bn(bn) | NodeParams::ConvBn { bn, .. }) => Ok(bn),
            _ => Err(missing("BN parameters", node)),
        }
    }

    fn fc_params(&self, node: &Node) -> Result<(&Tensor, &[f32])> {
        match self.params.get(node.id) {
            Some(NodeParams::Fc { weights, bias }) => Ok((weights, bias)),
            _ => Err(missing("FC parameters", node)),
        }
    }

    /// The retained output of a node's first input, through Split aliases.
    fn saved_input<'f>(&self, fwd: &'f ForwardResult, node: &Node) -> Result<&'f Tensor> {
        fwd.output(self.plan.resolve(node.inputs[0])).ok_or_else(|| missing("saved input", node))
    }

    fn input_shape(&self, node: &Node, idx: usize) -> Result<&Shape> {
        Ok(&self.graph.node(node.inputs[idx])?.output_shape)
    }

    /// Runs the plan-driven forward pass on a mini-batch: inputs are
    /// borrowed from the slot vector, transient outputs are written into
    /// recycled arena buffers and released at their last use.
    ///
    /// # Errors
    /// Returns an error if an operation cannot be executed or shapes are
    /// inconsistent with the graph.
    pub fn forward(&self, data: &Tensor, labels: &[usize]) -> Result<ForwardResult> {
        self.run_forward(data, labels, true, StatsMode::Batch)
    }

    /// Runs the plan-driven forward pass with *inference* semantics: every
    /// normalization uses the executor's running statistics instead of the
    /// mini-batch's, so the output is independent of which samples share
    /// the batch — exactly what a frozen graph computes.
    ///
    /// # Errors
    /// Returns an error if an operation cannot be executed, shapes are
    /// inconsistent with the graph, or a normalization has no running
    /// statistics entry.
    pub fn forward_eval(&self, data: &Tensor, labels: &[usize]) -> Result<ForwardResult> {
        self.run_forward(data, labels, true, StatsMode::Running)
    }

    /// The reference forward pass: one freshly allocated buffer per node,
    /// every output retained until the result is dropped. The planned path
    /// is bit-identical to this one (see `tests/memory_plan.rs`).
    ///
    /// # Errors
    /// Returns an error if an operation cannot be executed or shapes are
    /// inconsistent with the graph.
    pub fn forward_naive(&self, data: &Tensor, labels: &[usize]) -> Result<ForwardResult> {
        self.run_forward(data, labels, false, StatsMode::Batch)
    }

    /// The statistics node `id` publishes for `x`: the mini-batch's in
    /// training, the running ones (what the freeze pass folds) in eval.
    fn publish_stats(
        &self,
        mode: StatsMode,
        id: NodeId,
        x: &Tensor,
        one_pass: bool,
    ) -> Result<ChannelStats> {
        match mode {
            StatsMode::Batch => Ok(bn_statistics(x, one_pass)?),
            StatsMode::Running => self
                .running
                .get(id)
                .map(crate::running::RunningStats::as_channel_stats)
                .ok_or_else(|| TrainError::Missing(format!("running statistics for {id}"))),
        }
    }

    /// The one normalize sweep: `y = γ·x̂ + β` with `node`'s γ/β, clipped at
    /// zero in the same pass when `relu`. Returns what BN backward keeps.
    fn normalize(
        &self,
        node: &Node,
        x: &Tensor,
        stats: ChannelStats,
        epsilon: f32,
        relu: bool,
        y: &mut Tensor,
    ) -> Result<BnForwardState> {
        let x_hat = normalize_sweep_into(x, &stats, self.bn_params(node)?, epsilon, relu, y)?;
        Ok(BnForwardState { stats, x_hat })
    }

    /// BN backward through the normalization `node` ran (its own, or the one
    /// its convolution absorbed), from the state the forward pass saved.
    fn normalize_backward(
        &self,
        node: &Node,
        d_y: &Tensor,
        state: Option<&NodeState>,
        epsilon: f32,
    ) -> Result<(Tensor, BnParamGrads)> {
        let Some(NodeState::Saved { bn: Some(state), .. }) = state else {
            return Err(missing("forward state", node));
        };
        Ok(bn_backward(d_y, state, self.bn_params(node)?, epsilon)?)
    }

    fn run_forward(
        &self,
        data: &Tensor,
        labels: &[usize],
        planned: bool,
        mode: StatsMode,
    ) -> Result<ForwardResult> {
        let data_id = self.data_input()?;
        let expected = &self.graph.node(data_id)?.output_shape;
        expected.expect_same(data.shape()).map_err(TrainError::Tensor)?;

        let n = self.graph.node_count();
        let mut values: Vec<Option<Tensor>> = vec![None; n];
        let mut stats: Vec<Option<ChannelStats>> = vec![None; n];
        let mut states: Vec<Option<NodeState>> = vec![None; n];
        let mut loss = 0.0f32;
        let mut scores: Option<Tensor> = None;
        values[data_id.index()] = Some(data.clone());

        // Only the planned path takes the workspace lock (a poisoned lock is
        // recovered — the workspace is pure scratch, safe to reuse after a
        // panic). The naive reference path gets bins that stay empty — it
        // releases nothing — so every output it allocates is fresh.
        let mut ws = planned
            .then(|| self.workspace.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
        let mut empty_bins = vec![None; self.plan.slot_count()];
        let arena = ws.as_deref_mut().map_or(&mut empty_bins[..], |ws| &mut ws.arena[..]);

        for (pos, &id) in self.plan.order().iter().enumerate() {
            let node = self.graph.node(id)?;
            let input = || self.plan.input_value(&values, node, 0);
            let out = match (node.op.form(), &node.op) {
                (OpForm::Conv { attrs, prologue, stats_out, relu_out: false }, _) => {
                    let x = input()?;
                    let (w, b) = self.conv_params(node)?;
                    // Prologue: the convolution reads its input as is, or a
                    // clipped / normalized+clipped copy. The copy is what
                    // backward re-reads, so it moves into the node state and
                    // the plan does not pin `x`.
                    let (conv_input, bn) = match prologue {
                        ConvPrologue::None => (None, None),
                        ConvPrologue::Relu => (Some(relu_forward(x)), None),
                        ConvPrologue::NormRelu(bn) => {
                            let s = node_stats(&stats, node)?.clone();
                            let mut clipped = Tensor::zeros(x.shape().clone());
                            let bn = self.normalize(node, x, s, bn.epsilon, true, &mut clipped)?;
                            (Some(clipped), Some(bn))
                        }
                    };
                    let read = conv_input.as_ref().unwrap_or(x);
                    let mut out = self.plan.alloc_output(arena, id, &node.output_shape);
                    // Epilogue: single-sweep statistics ride the output
                    // write; two-pass ones re-sweep the finished ofmap.
                    let rides =
                        mode == StatsMode::Batch && stats_out.is_some_and(|bn| bn.one_pass_stats);
                    stats[id.index()] = if rides {
                        Some(conv2d_forward_with_stats_into(read, w, b, &attrs, &mut out)?)
                    } else {
                        conv2d_forward_into(read, w, b, &attrs, &mut out)?;
                        stats_out.map(|_| self.publish_stats(mode, id, &out, false)).transpose()?
                    };
                    if conv_input.is_some() {
                        states[id.index()] = Some(NodeState::Saved { conv_input, bn });
                    }
                    Some(out)
                }
                (OpForm::Norm { bn, stats_from_input, relu }, _) => {
                    let x = input()?;
                    let s = if stats_from_input {
                        let s = self.publish_stats(mode, id, x, bn.one_pass_stats)?;
                        stats[id.index()] = Some(s.clone());
                        s
                    } else {
                        node_stats(&stats, node)?.clone()
                    };
                    // A clipped output is retained as the backward ReLU mask
                    // (saved outputs have no arena slot).
                    let mut y = self.plan.alloc_output(arena, id, &node.output_shape);
                    let bn = self.normalize(node, x, s, bn.epsilon, relu, &mut y)?;
                    states[id.index()] = Some(NodeState::Saved { conv_input: None, bn: Some(bn) });
                    Some(y)
                }
                // Label inputs carry no tensor, the data input is pre-seeded,
                // and a Split is a pointer pass resolved through the plan.
                (_, OpKind::Input | OpKind::Split { .. }) => None,
                (_, OpKind::SubBnStats(attrs)) => {
                    let s = self.publish_stats(mode, id, input()?, attrs.one_pass_stats)?;
                    let summary = [s.mean.as_slice(), s.var.as_slice()].concat();
                    let summary = Tensor::from_vec(Shape::matrix(2, s.channels()), summary)
                        .map_err(TrainError::Tensor)?;
                    stats[id.index()] = Some(s);
                    Some(summary)
                }
                (_, OpKind::Relu) => {
                    let mut out = self.plan.alloc_output(arena, id, &node.output_shape);
                    relu_forward_into(input()?, &mut out)?;
                    Some(out)
                }
                (_, OpKind::Pool { kind: PoolKind::Max, attrs }) => {
                    // The state keeps only shape + argmax, so the pooled
                    // output is owned once by the slot vector.
                    let (out, state) = max_pool_forward(input()?, attrs)?;
                    states[id.index()] = Some(NodeState::MaxPool(state));
                    Some(out)
                }
                (_, OpKind::Pool { kind: PoolKind::Average, attrs }) => {
                    let mut out = self.plan.alloc_output(arena, id, &node.output_shape);
                    avg_pool_forward_into(input()?, attrs, &mut out)?;
                    Some(out)
                }
                (_, OpKind::GlobalAvgPool) => Some(global_avg_pool_forward(input()?)?),
                (_, OpKind::Concat | OpKind::ConcatStats(_)) => {
                    let refs = self.plan.input_values(&values, node)?;
                    let mut out = self.plan.alloc_output(arena, id, &node.output_shape);
                    concat_forward_into(&refs, &mut out)?;
                    // ICF: the concatenation's own Σx/Σx² epilogue.
                    if let Some(bn) = node.op.stats_out() {
                        stats[id.index()] =
                            Some(self.publish_stats(mode, id, &out, bn.one_pass_stats)?);
                    }
                    Some(out)
                }
                (_, OpKind::EltwiseSum) => {
                    let refs = self.plan.input_values(&values, node)?;
                    let mut out = self.plan.alloc_output(arena, id, &node.output_shape);
                    eltwise_sum_forward_into(&refs, &mut out)?;
                    Some(out)
                }
                (_, OpKind::FullyConnected { .. }) => {
                    let (w, b) = self.fc_params(node)?;
                    Some(fc_forward(input()?, w, b)?)
                }
                (_, OpKind::SoftmaxLoss) => {
                    let x = input()?;
                    let state = softmax_loss_forward(x, labels)?;
                    loss = state.loss;
                    scores = Some(x.clone());
                    states[id.index()] = Some(NodeState::Softmax(state));
                    Some(Tensor::from_slice(&[loss]))
                }
                // Every training convolution and normalization decoded
                // above; what is left are the freeze pass's operators.
                _ => return Err(inference_only(node)),
            };
            if let Some(out) = out {
                values[id.index()] = Some(out);
            }
            if planned {
                self.plan.release_dead(arena, &mut values, pos);
            }
        }

        let scores = scores.ok_or_else(|| TrainError::Missing("softmax loss node".to_string()))?;
        let accuracy = accuracy(&scores, labels)?;
        Ok(ForwardResult { loss, accuracy, scores, values, stats, states, labels: labels.to_vec() })
    }

    /// Runs the backward pass, producing parameter gradients. Gradient
    /// buffers are released into the executor's pool as soon as a node's
    /// backward has consumed them.
    ///
    /// # Errors
    /// Returns an error if the forward result does not match this graph.
    pub fn backward(&self, fwd: &ForwardResult) -> Result<Gradients> {
        let mut d_vals: Vec<Option<Tensor>> = vec![None; self.graph.node_count()];
        let mut per_node: HashMap<usize, NodeParamGrads> = HashMap::new();
        let data_id = self.data_input()?;

        let mut ws = self.workspace.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let pool = &mut ws.pool;

        for &id in self.plan.order().iter().rev() {
            let node = self.graph.node(id)?;
            let state = fwd.states.get(id.index()).and_then(Option::as_ref);
            if matches!(node.op, OpKind::SoftmaxLoss) {
                let Some(NodeState::Softmax(state)) = state else {
                    return Err(missing("forward state", node));
                };
                let d_scores = softmax_loss_backward(state, &fwd.labels)?;
                accumulate(&mut d_vals, node.inputs[0], d_scores)?;
                continue;
            }
            let Some(grad) = d_vals[id.index()].take() else {
                continue;
            };
            // Each arm yields the gradient of the node's first input, if any.
            let d_x = match (node.op.form(), &node.op) {
                (OpForm::Conv { attrs, prologue, relu_out: false, .. }, _) => {
                    // The tensor the convolution read: its input, or the
                    // transformed copy its prologue saved.
                    let read = match (prologue, state) {
                        (ConvPrologue::None, _) => self.saved_input(fwd, node)?,
                        (_, Some(NodeState::Saved { conv_input: Some(t), .. })) => t,
                        _ => return Err(missing("forward state", node)),
                    };
                    let (w, b) = self.conv_params(node)?;
                    let (d_weights, d_bias) =
                        conv2d_backward_weights(read, &grad, &attrs, b.is_some())?;
                    // Nothing consumes the data input's gradient, so a
                    // convolution reading it (the stem) skips the
                    // input-gradient GEMM — unless the ∂γ/∂β of a BN it
                    // absorbed need it.
                    let wanted = matches!(prologue, ConvPrologue::NormRelu(_))
                        || self.plan.resolve(node.inputs[0]) != data_id;
                    let (mut d_x, mut d_bn) = (None, None);
                    if wanted {
                        // Accumulated into a zeroed buffer from the pool.
                        let len = read.shape().volume();
                        let mut d_read = Tensor::from_vec(read.shape().clone(), pool.take(len))
                            .map_err(TrainError::Tensor)?;
                        conv2d_backward_input_into(&grad, w, &attrs, &mut d_read)?;
                        if prologue != ConvPrologue::None {
                            // relu(x) > 0 ⇔ x > 0: the clipped ifmap is its
                            // own mask.
                            let masked = relu_backward(&d_read, read)?;
                            pool.give(std::mem::replace(&mut d_read, masked).into_vec());
                        }
                        if let ConvPrologue::NormRelu(bn) = prologue {
                            let (d_raw, g) =
                                self.normalize_backward(node, &d_read, state, bn.epsilon)?;
                            d_read = d_raw;
                            d_bn = Some(g);
                        }
                        d_x = Some(d_read);
                    }
                    let grads = match d_bn {
                        Some(BnParamGrads { d_gamma, d_beta }) => {
                            NodeParamGrads::ConvBn { d_weights, d_bias, d_gamma, d_beta }
                        }
                        None => NodeParamGrads::Conv { d_weights, d_bias },
                    };
                    per_node.insert(id.index(), grads);
                    d_x
                }
                (OpForm::Norm { bn, relu, .. }, _) => {
                    // A clipping normalization recovers its ReLU mask from
                    // its retained output.
                    let masked = if relu {
                        let y = fwd.output(id).ok_or_else(|| missing("output", node))?;
                        Some(relu_backward(&grad, y)?)
                    } else {
                        None
                    };
                    let d_y = masked.as_ref().unwrap_or(&grad);
                    let (d_x, BnParamGrads { d_gamma, d_beta }) =
                        self.normalize_backward(node, d_y, state, bn.epsilon)?;
                    per_node.insert(id.index(), NodeParamGrads::Bn { d_gamma, d_beta });
                    Some(d_x)
                }
                (_, OpKind::Split { .. }) => {
                    // The gradient flows through unchanged; move it rather
                    // than copying.
                    accumulate(&mut d_vals, node.inputs[0], grad)?;
                    continue;
                }
                (_, OpKind::EltwiseSum) => {
                    let (last, rest) = node.inputs.split_last().expect("eltwise sum has inputs");
                    for input in rest {
                        // Occupied slots accumulate by reference; only a
                        // first insertion pays for a copy.
                        accumulate_ref(&mut d_vals, *input, &grad)?;
                    }
                    accumulate(&mut d_vals, *last, grad)?;
                    continue;
                }
                // Nothing consumes the data input's gradient, and the
                // statistics path has none of its own: the normalization
                // backward already differentiates through mean/variance.
                (_, OpKind::Input | OpKind::SubBnStats(_)) => None,
                (_, OpKind::Relu) => Some(relu_backward(&grad, self.saved_input(fwd, node)?)?),
                // Pooling backward needs only the input *shape*, which the
                // graph records; the input tensor itself was not retained.
                (_, OpKind::Pool { kind: PoolKind::Max, .. }) => {
                    let Some(NodeState::MaxPool(state)) = state else {
                        return Err(missing("forward state", node));
                    };
                    Some(max_pool_backward(&grad, state, self.input_shape(node, 0)?)?)
                }
                (_, OpKind::Pool { kind: PoolKind::Average, attrs }) => {
                    Some(avg_pool_backward(&grad, self.input_shape(node, 0)?, attrs)?)
                }
                (_, OpKind::GlobalAvgPool) => {
                    Some(global_avg_pool_backward(&grad, self.input_shape(node, 0)?)?)
                }
                (_, OpKind::Concat | OpKind::ConcatStats(_)) => {
                    let shapes: Vec<Shape> = (0..node.inputs.len())
                        .map(|i| self.input_shape(node, i).cloned())
                        .collect::<Result<_>>()?;
                    for (input, g) in node.inputs.iter().zip(concat_backward(&grad, &shapes)?) {
                        accumulate(&mut d_vals, *input, g)?;
                    }
                    None
                }
                (_, OpKind::FullyConnected { .. }) => {
                    let (w, _) = self.fc_params(node)?;
                    let (d_x, d_weights, d_bias) =
                        fc_backward(self.saved_input(fwd, node)?, w, &grad)?;
                    per_node.insert(id.index(), NodeParamGrads::Fc { d_weights, d_bias });
                    Some(d_x)
                }
                _ => return Err(inference_only(node)),
            };
            if let Some(d_x) = d_x {
                accumulate(&mut d_vals, node.inputs[0], d_x)?;
            }
            // The incoming gradient is consumed: recycle its storage.
            pool.give(grad.into_vec());
        }

        Ok(Gradients { per_node })
    }
}

fn missing(what: &str, node: &Node) -> TrainError {
    TrainError::Missing(format!("{what} for '{}'", node.name))
}

fn inference_only(node: &Node) -> TrainError {
    let name = &node.name;
    TrainError::Unsupported(format!(
        "'{name}' is an inference-only operator; run frozen graphs on the bnff-serve executor"
    ))
}

/// The mini-batch statistics on a node's second input.
fn node_stats<'a>(stats: &'a [Option<ChannelStats>], node: &Node) -> Result<&'a ChannelStats> {
    stats[node.inputs[1].index()].as_ref().ok_or_else(|| missing("statistics", node))
}

/// Adds `grad` into the gradient slot of `id`, cloning it only when the
/// slot is still empty.
fn accumulate_ref(d_vals: &mut [Option<Tensor>], id: NodeId, grad: &Tensor) -> Result<()> {
    match d_vals[id.index()].as_mut() {
        Some(existing) => ops::add_assign(existing, grad).map_err(TrainError::Tensor)?,
        None => d_vals[id.index()] = Some(grad.clone()),
    }
    Ok(())
}

/// Adds `grad` into the gradient slot of `id`, moving it in when the slot
/// is still empty.
fn accumulate(d_vals: &mut [Option<Tensor>], id: NodeId, grad: Tensor) -> Result<()> {
    match d_vals[id.index()].as_mut() {
        Some(existing) => ops::add_assign(existing, &grad).map_err(TrainError::Tensor)?,
        None => d_vals[id.index()] = Some(grad),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_graph::builder::GraphBuilder;
    use bnff_graph::op::{BatchNormAttrs, Conv2dAttrs};
    use bnff_graph::passes::{BnffPass, Pass};
    use bnff_tensor::init::Initializer;

    fn tiny_classifier(batch: usize) -> Graph {
        let mut b = GraphBuilder::new("tiny");
        let x = b.input("data", Shape::nchw(batch, 3, 8, 8)).unwrap();
        let labels = b.input("labels", Shape::vector(batch)).unwrap();
        let c1 = b.conv2d(x, Conv2dAttrs::same_3x3(8), "conv1").unwrap();
        let bn = b.batch_norm_default(c1, "bn1").unwrap();
        let r = b.relu(bn, "relu1").unwrap();
        let c2 = b.conv2d(r, Conv2dAttrs::pointwise(8), "conv2").unwrap();
        let gap = b.global_avg_pool(c2, "gap").unwrap();
        let fc = b.fully_connected(gap, 4, "fc").unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        b.finish()
    }

    fn random_batch(batch: usize, classes: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut init = Initializer::seeded(seed);
        let data = init.uniform(Shape::nchw(batch, 3, 8, 8), -1.0, 1.0);
        let labels = (0..batch).map(|i| i % classes).collect();
        (data, labels)
    }

    #[test]
    fn forward_produces_finite_loss() {
        let exec = Executor::new(tiny_classifier(4), 1).unwrap();
        let (data, labels) = random_batch(4, 4, 2);
        let fwd = exec.forward(&data, &labels).unwrap();
        assert!(fwd.loss.is_finite());
        assert!(fwd.loss > 0.0);
        assert!((0.0..=1.0).contains(&fwd.accuracy));
        assert_eq!(fwd.scores.shape(), &Shape::matrix(4, 4));
    }

    #[test]
    fn forward_rejects_wrong_input_shape() {
        let exec = Executor::new(tiny_classifier(4), 1).unwrap();
        let (data, labels) = random_batch(2, 4, 2);
        assert!(exec.forward(&data, &labels).is_err());
    }

    #[test]
    fn backward_produces_gradients_for_every_parameterised_node() {
        let exec = Executor::new(tiny_classifier(4), 3).unwrap();
        let (data, labels) = random_batch(4, 4, 4);
        let fwd = exec.forward(&data, &labels).unwrap();
        let grads = exec.backward(&fwd).unwrap();
        assert_eq!(grads.per_node.len(), exec.params().len());
        assert!(grads.global_norm() > 0.0);
    }

    #[test]
    fn planned_and_naive_paths_are_bit_identical() {
        let exec = Executor::new(tiny_classifier(4), 11).unwrap();
        let (data, labels) = random_batch(4, 4, 12);
        let planned = exec.forward(&data, &labels).unwrap();
        let naive = exec.forward_naive(&data, &labels).unwrap();
        assert_eq!(planned.loss.to_bits(), naive.loss.to_bits());
        assert_eq!(planned.scores.as_slice(), naive.scores.as_slice());
        // A second planned step over recycled buffers must not drift.
        let again = exec.forward(&data, &labels).unwrap();
        assert_eq!(again.loss.to_bits(), planned.loss.to_bits());
    }

    #[test]
    fn planned_forward_retains_only_backward_reads() {
        let exec = Executor::new(tiny_classifier(4), 13).unwrap();
        let (data, labels) = random_batch(4, 4, 14);
        let fwd = exec.forward(&data, &labels).unwrap();
        let find = |name: &str| exec.graph().nodes().find(|n| n.name == name).unwrap().id;
        // conv1's output feeds only BN, which keeps its own state.
        assert!(fwd.output(find("conv1")).is_none());
        // relu1's output is conv2's saved ifmap.
        assert!(fwd.output(find("relu1")).is_some());
        // The naive path retains everything.
        let naive = exec.forward_naive(&data, &labels).unwrap();
        assert!(naive.output(find("conv1")).is_some());
    }

    #[test]
    fn workspace_recycles_buffers_across_steps() {
        let exec = Executor::new(tiny_classifier(4), 15).unwrap();
        let (data, labels) = random_batch(4, 4, 16);
        let fwd = exec.forward(&data, &labels).unwrap();
        let _ = exec.backward(&fwd).unwrap();
        drop(fwd);
        let before = exec.workspace.lock().unwrap().pool.hits();
        let fwd = exec.forward(&data, &labels).unwrap();
        let _ = exec.backward(&fwd).unwrap();
        let after = exec.workspace.lock().unwrap().pool.hits();
        assert!(after > before, "second step should reuse pooled gradient buffers");
    }

    #[test]
    fn loss_gradient_check_through_the_whole_network() {
        // Perturb a single convolution weight and compare the numerical
        // derivative of the loss against the analytic gradient.
        let exec = Executor::new(tiny_classifier(2), 5).unwrap();
        let (data, labels) = random_batch(2, 4, 6);
        let fwd = exec.forward(&data, &labels).unwrap();
        let grads = exec.backward(&fwd).unwrap();

        let conv_id = exec.graph().nodes().find(|n| n.name == "conv1").unwrap().id;
        let analytic = match grads.node(conv_id).unwrap() {
            NodeParamGrads::Conv { d_weights, .. } => d_weights.get(11).unwrap(),
            _ => panic!("expected conv gradients"),
        };

        let h = 1e-2f32;
        let mut plus = exec.clone();
        if let Some(NodeParams::Conv { weights, .. }) = plus.params_mut().get_mut(conv_id) {
            let v = weights.get(11).unwrap();
            weights.set(11, v + h).unwrap();
        }
        let mut minus = exec.clone();
        if let Some(NodeParams::Conv { weights, .. }) = minus.params_mut().get_mut(conv_id) {
            let v = weights.get(11).unwrap();
            weights.set(11, v - h).unwrap();
        }
        let lp = plus.forward(&data, &labels).unwrap().loss;
        let lm = minus.forward(&data, &labels).unwrap().loss;
        let numeric = f64::from(lp - lm) / (2.0 * f64::from(h));
        assert!(
            (numeric - f64::from(analytic)).abs() < 5e-3,
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn both_sided_fused_conv_publishes_its_statistics_from_the_epilogue() {
        // conv1 → bn → relu → conv2 → bn → relu → conv3: conv2 sits between
        // two BNs, so BNFF fuses it on both sides (normalize+clip prologue,
        // Σx/Σx² epilogue).
        let mut b = GraphBuilder::new("chain");
        let x = b.input("data", Shape::nchw(4, 3, 8, 8)).unwrap();
        let labels = b.input("labels", Shape::vector(4)).unwrap();
        let c1 = b.conv2d(x, Conv2dAttrs::same_3x3(8), "conv1").unwrap();
        let c2 = b.bn_relu_conv(c1, Conv2dAttrs::same_3x3(8), "cpl2").unwrap();
        let c3 = b.bn_relu_conv(c2, Conv2dAttrs::pointwise(8), "cpl3").unwrap();
        let gap = b.global_avg_pool(c3, "gap").unwrap();
        let fc = b.fully_connected(gap, 4, "fc").unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        let fused = BnffPass::new().run(&b.finish()).unwrap();
        let (id, conv, bn_in, bn_out) = fused
            .nodes()
            .find_map(|n| match n.op {
                OpKind::NormReluConvStats { conv, bn_in, bn_out } => {
                    Some((n.id, conv, bn_in, bn_out))
                }
                _ => None,
            })
            .expect("BNFF fuses conv2 on both sides");
        assert!(bn_out.one_pass_stats, "BNFF runs MVF before fusing");

        let (data, labels) = random_batch(4, 4, 19);
        let mut variances = Vec::new();
        for one_pass in [true, false] {
            let mut graph = fused.clone();
            let bn_out = BatchNormAttrs { one_pass_stats: one_pass, ..bn_out };
            graph.set_op(id, OpKind::NormReluConvStats { conv, bn_in, bn_out }).unwrap();
            let mut exec = Executor::new(graph, 23).unwrap();
            // A large offset on a small signal: Σx² − (Σx)² cancels where the
            // two-pass variance does not, so the flavours differ in bits.
            if let Some(NodeParams::ConvBn { weights, bias, .. }) = exec.params_mut().get_mut(id) {
                weights.map_inplace(|w| w * 1e-2);
                *bias = Some(vec![4096.0; conv.out_channels]);
            }
            let fwd = exec.forward_naive(&data, &labels).unwrap();
            let published = fwd.stats(id).expect("conv2 publishes statistics");
            let swept = bn_statistics(fwd.output(id).unwrap(), one_pass).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&published.mean), bits(&swept.mean), "one_pass={one_pass}");
            assert_eq!(bits(&published.var), bits(&swept.var), "one_pass={one_pass}");
            // The planned path publishes the same numbers.
            let planned = exec.forward(&data, &labels).unwrap();
            assert_eq!(bits(&planned.stats(id).unwrap().var), bits(&published.var));
            variances.push(bits(&published.var));
        }
        assert_ne!(variances[0], variances[1], "two-pass attrs must keep the two-pass sweep");
    }

    #[test]
    fn executes_bnff_restructured_graphs() {
        let baseline = tiny_classifier(4);
        let restructured = BnffPass::new().run(&baseline).unwrap();
        let exec = Executor::new(restructured, 7).unwrap();
        let (data, labels) = random_batch(4, 4, 8);
        let fwd = exec.forward(&data, &labels).unwrap();
        assert!(fwd.loss.is_finite());
        let grads = exec.backward(&fwd).unwrap();
        assert!(grads.global_norm() > 0.0);
        // The fused graph must still own parameters for every conv/BN/FC.
        assert!(!grads.per_node.is_empty());
    }

    #[test]
    fn forward_exposes_stats_and_naive_outputs() {
        let baseline = tiny_classifier(2);
        let restructured = BnffPass::new().run(&baseline).unwrap();
        let exec = Executor::new(restructured, 9).unwrap();
        let (data, labels) = random_batch(2, 4, 10);
        let stats_node =
            exec.graph().nodes().find(|n| matches!(n.op, OpKind::ConvStats { .. })).unwrap().id;
        let fwd = exec.forward(&data, &labels).unwrap();
        assert!(fwd.stats(stats_node).is_some());
        // The naive reference path still exposes every intermediate output.
        let naive = exec.forward_naive(&data, &labels).unwrap();
        assert!(naive.stats(stats_node).is_some());
        assert!(naive.output(stats_node).is_some());
    }

    #[test]
    fn plan_reports_memory_savings_for_the_executor_graph() {
        let exec = Executor::new(tiny_classifier(4), 17).unwrap();
        let plan = exec.plan();
        assert!(plan.planned_peak_bytes() <= plan.naive_total_bytes());
        assert!(plan.slot_count() >= 1);
    }
}
