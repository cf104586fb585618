//! The numeric graph executor: plan-driven forward and backward passes over
//! a model graph, dispatching to the kernels crate.
//!
//! The restructured operators are never matched by name here: every op is
//! decoded by [`OpKind::form`] into *prologue → core → epilogue*, and each
//! direction has one convolution arm and one normalization arm.
//!
//! * Convolution, both directions: the prologue becomes a [`ConvInput`] over
//!   the node's *raw* input — borrowed, clipped (RCF) or normalized+clipped
//!   (`(sub-BN2)-ReLU-CONV2`) one sample at a time inside the kernel — and
//!   one fused call follows. Forward rides the Σx/Σx² epilogue
//!   (`CONV1-(sub-BN1)`) when the statistics are single-sweep; backward
//!   yields the weight gradient, the input gradient with ReLU′ and BN
//!   backward applied, and the ∂γ/∂β of an absorbed BN.
//! * Normalization on its own is the normalize sweep and, backward, the
//!   fused epilogue's recompute body in place on the incoming gradient.
//! * Neither keeps a tensor of its own: backward re-derives `x̂` and the
//!   ReLU mask from the raw first input the plan pins and the 2×C
//!   statistics, so a [`ForwardResult`] holds exactly the plan's saved
//!   tensors (plus max-pool argmax indices and the softmax probabilities).
//! * Training publishes mini-batch statistics and eval the running ones;
//!   `publish_stats` is the one place that chooses.
//!
//! Execution follows an [`ExecutionPlan`] computed once per graph: node
//! outputs live in a vector indexed by node id (inputs are borrowed); those
//! backward never revisits are released at their last forward use into a
//! per-executor arena (one bin per plan slot); retained outputs — until the
//! [`ForwardResult`] is dropped — and backward's gradients circulate through
//! one [`BufferPool`]. Both persist across steps, so a warmed step mallocs
//! no activation or gradient. Every kernel fans out over the
//! `bnff-parallel` pool.

use crate::error::TrainError;
use crate::params::{Gradients, NodeParamGrads, NodeParams, ParamSet};
use crate::running::RunningStatSet;
use crate::Result;
use bnff_graph::op::{ConvPrologue, OpForm, OpKind, PoolKind};
use bnff_graph::plan::ExecutionPlan;
use bnff_graph::{Graph, Node, NodeId};
use bnff_kernels::batchnorm::{
    bn_statistics, norm_backward_inplace, normalize_sweep_into, BnParamGrads, BnParams,
};
use bnff_kernels::concat::{concat_backward_into, concat_forward_into};
use bnff_kernels::conv::ConvInput;
use bnff_kernels::eltwise::eltwise_sum_forward_into;
use bnff_kernels::fc::{fc_backward_into, fc_forward_into};
use bnff_kernels::fused::{fused_conv_backward_into, fused_conv_forward_into};
use bnff_kernels::pool::{
    avg_pool_backward_into, avg_pool_forward_into, global_avg_pool_backward_into,
    global_avg_pool_forward_into, max_pool_backward_into, max_pool_forward_argmax_into,
    MaxPoolState,
};
use bnff_kernels::relu::{relu_backward_inplace, relu_forward_into};
use bnff_kernels::softmax::{
    accuracy, softmax_loss_backward_into, softmax_loss_forward, SoftmaxLossState,
};
use bnff_tensor::pool::BufferPool;
use bnff_tensor::stats::ChannelStats;
use bnff_tensor::{ops, Shape, Tensor};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Which statistics a forward pass normalizes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StatsMode {
    /// Training semantics: per-channel statistics of the current mini-batch.
    Batch,
    /// Inference (eval) semantics: the executor's running statistics — the
    /// same numbers the freeze pass folds into a frozen graph.
    Running,
}

/// Per-node state captured during the forward pass for reuse in backward —
/// none of it a feature map: convolutions and normalizations have none.
#[derive(Debug)]
enum NodeState {
    MaxPool(MaxPoolState),
    Softmax(SoftmaxLossState),
}

/// The result of one forward pass. Not `Clone`: dropping it hands its
/// retained buffers back to the executor's pool, which a copy never borrowed
/// from.
#[derive(Debug)]
pub struct ForwardResult {
    /// Mean cross-entropy loss over the mini-batch.
    pub loss: f32,
    /// Classification accuracy over the mini-batch.
    pub accuracy: f32,
    /// The classifier scores fed into the loss node.
    pub scores: Tensor,
    /// Node outputs by node id: the ones backward revisits.
    values: Vec<Option<Tensor>>,
    stats: Vec<Option<ChannelStats>>,
    states: Vec<Option<NodeState>>,
    labels: Vec<usize>,
    /// The workspace the pass drew the retained `values` from.
    home: Arc<Mutex<Workspace>>,
}

impl Drop for ForwardResult {
    /// Returns the retained outputs' storage to the pool it was taken from.
    fn drop(&mut self) {
        let mut ws = lock(&self.home);
        self.values.drain(..).flatten().for_each(|t| ws.pool.reclaim(t));
    }
}

impl ForwardResult {
    /// The output tensor of a node, if it was retained: the forward pass
    /// retains only the tensors its liveness analysis says the backward pass
    /// re-reads (a Split owns none: it forwards its producer's).
    pub fn output(&self, id: NodeId) -> Option<&Tensor> {
        self.values.get(id.index()).and_then(Option::as_ref)
    }

    /// The mini-batch statistics produced by a statistics-bearing node.
    pub fn stats(&self, id: NodeId) -> Option<&ChannelStats> {
        self.stats.get(id.index()).and_then(Option::as_ref)
    }
}

/// The persistent buffer storage one executor recycles across nodes and
/// across training steps: one bin per plan slot for transient forward
/// activations, plus a best-fit free list for retained outputs and backward
/// gradients.
struct Workspace {
    arena: Vec<Option<Vec<f32>>>,
    pool: BufferPool,
}

impl Workspace {
    /// An executor's workspace. What is out of its pool at once, and idles in
    /// it between steps, is the outputs a forward result retains and the
    /// gradients one backward holds — in practice twice their planned peak
    /// (best fit serves small requests from larger buffers, and a gradient
    /// summed into an occupied slot briefly has two), budgeted at three
    /// times. Give and take balance, so the bound only guards against
    /// imbalance.
    fn for_graph(plan: &ExecutionPlan) -> Self {
        let pool_bytes = plan.saved_bytes() + 3 * plan.gradient_peak_bytes();
        Workspace { arena: vec![None; plan.slot_count()], pool: BufferPool::bounded(pool_bytes) }
    }

    /// The output buffer of node `id`, contents unspecified (every kernel
    /// overwrites its whole output): the recycled bin of its plan slot, or —
    /// a retained output has none — a pool buffer, which comes back when the
    /// forward result is dropped.
    fn output(&mut self, plan: &ExecutionPlan, id: NodeId, shape: &Shape) -> Tensor {
        match plan.slot(id) {
            Some(_) => plan.alloc_output(&mut self.arena, id, shape),
            None => self.pool.take_tensor_dirty(shape.clone()),
        }
    }
}

/// Locks a workspace, recovering a poisoned lock: it is pure scratch, safe
/// to reuse after a panic.
fn lock(workspace: &Mutex<Workspace>) -> MutexGuard<'_, Workspace> {
    workspace.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl fmt::Debug for Workspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workspace")
            .field("arena_slots", &self.arena.len())
            .field("arena_filled", &self.arena.iter().flatten().count())
            .field("pool_free_bytes", &self.pool.free_bytes())
            .field("pool_takes", &self.pool.takes())
            .field("pool_hits", &self.pool.hits())
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
    workspace: Arc<Mutex<Workspace>>,
}

impl Clone for Executor {
    fn clone(&self) -> Self {
        Executor {
            graph: self.graph.clone(),
            params: self.params.clone(),
            plan: self.plan.clone(),
            running: self.running.clone(),
            // Recycled buffers are per-executor scratch, not state.
            workspace: Arc::new(Mutex::new(Workspace::for_graph(&self.plan))),
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
        let workspace = Arc::new(Mutex::new(Workspace::for_graph(&plan)));
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
        self.run_forward(data, labels, StatsMode::Batch)
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
        self.run_forward(data, labels, StatsMode::Running)
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

    /// `x` as the convolution `node` reads it: its prologue, with the
    /// statistics on the node's second input and the γ/β the node owns.
    fn ifmap<'a>(
        &'a self,
        node: &Node,
        prologue: ConvPrologue,
        x: &'a Tensor,
        stats: &'a [Option<ChannelStats>],
    ) -> Result<ConvInput<'a>> {
        Ok(match prologue {
            ConvPrologue::None => ConvInput::Raw(x),
            ConvPrologue::Relu => ConvInput::Clip(x),
            ConvPrologue::NormRelu(bn) => ConvInput::NormClip {
                x,
                stats: node_stats(stats, node, false)?,
                params: self.bn_params(node)?,
                epsilon: bn.epsilon,
            },
        })
    }

    fn run_forward(
        &self,
        data: &Tensor,
        labels: &[usize],
        mode: StatsMode,
    ) -> Result<ForwardResult> {
        let data_id = self.data_input()?;
        let expected = &self.graph.node(data_id)?.output_shape;
        expected.expect_same(data.shape()).map_err(TrainError::Tensor)?;

        let n = self.graph.node_count();
        let mut values: Vec<Option<Tensor>> = vec![None; n];
        let mut stats: Vec<Option<ChannelStats>> = vec![None; n];
        let mut states: Vec<Option<NodeState>> = (0..n).map(|_| None).collect();
        let mut loss = 0.0f32;
        let mut scores: Option<Tensor> = None;

        let mut ws = lock(&self.workspace);
        let mut seed = ws.output(&self.plan, data_id, data.shape());
        seed.as_mut_slice().copy_from_slice(data.as_slice());
        values[data_id.index()] = Some(seed);

        for (pos, &id) in self.plan.order().iter().enumerate() {
            let node = self.graph.node(id)?;
            let input = || self.plan.input_value(&values, node, 0);
            // Label inputs carry no tensor, the data input is pre-seeded,
            // and a Split is a pointer pass resolved through the plan; every
            // other node fills the one output buffer allocated for it here.
            if !matches!(node.op, OpKind::Input | OpKind::Split { .. }) {
                let mut out = ws.output(&self.plan, id, &node.output_shape);
                match (node.op.form(), &node.op) {
                    (OpForm::Conv { attrs, prologue, stats_out, relu_out: false }, _) => {
                        let x = self.ifmap(node, prologue, input()?, &stats)?;
                        let (w, b) = self.conv_params(node)?;
                        // Epilogue: single-sweep statistics ride the output
                        // write; two-pass ones re-sweep the finished ofmap.
                        let rides = mode == StatsMode::Batch
                            && stats_out.is_some_and(|bn| bn.one_pass_stats);
                        stats[id.index()] =
                            match fused_conv_forward_into(x, w, b, &attrs, rides, &mut out)? {
                                None if stats_out.is_some() => {
                                    Some(self.publish_stats(mode, id, &out, false)?)
                                }
                                ridden => ridden,
                            };
                    }
                    (OpForm::Norm { bn, stats_from_input, relu }, _) => {
                        let x = input()?;
                        if stats_from_input {
                            stats[id.index()] =
                                Some(self.publish_stats(mode, id, x, bn.one_pass_stats)?);
                        }
                        let s = node_stats(&stats, node, stats_from_input)?;
                        let params = self.bn_params(node)?;
                        normalize_sweep_into(x, s, params, bn.epsilon, relu, None, &mut out)?;
                    }
                    (_, OpKind::SubBnStats(attrs)) => {
                        let s = self.publish_stats(mode, id, input()?, attrs.one_pass_stats)?;
                        let (mean, var) = out.as_mut_slice().split_at_mut(s.channels());
                        mean.copy_from_slice(&s.mean);
                        var.copy_from_slice(&s.var);
                        stats[id.index()] = Some(s);
                    }
                    (_, OpKind::Relu) => relu_forward_into(input()?, &mut out)?,
                    (_, OpKind::Pool { kind: PoolKind::Max, attrs }) => {
                        let state = max_pool_forward_argmax_into(input()?, attrs, &mut out)?;
                        states[id.index()] = Some(NodeState::MaxPool(state));
                    }
                    (_, OpKind::Pool { kind: PoolKind::Average, attrs }) => {
                        avg_pool_forward_into(input()?, attrs, &mut out)?;
                    }
                    (_, OpKind::GlobalAvgPool) => {
                        global_avg_pool_forward_into(input()?, &mut out)?;
                    }
                    (_, OpKind::Concat | OpKind::ConcatStats(_)) => {
                        concat_forward_into(&self.plan.input_values(&values, node)?, &mut out)?;
                        // ICF: the concatenation's own Σx/Σx² epilogue.
                        if let Some(bn) = node.op.stats_out() {
                            stats[id.index()] =
                                Some(self.publish_stats(mode, id, &out, bn.one_pass_stats)?);
                        }
                    }
                    (_, OpKind::EltwiseSum) => {
                        let refs = self.plan.input_values(&values, node)?;
                        eltwise_sum_forward_into(&refs, &mut out)?;
                    }
                    (_, OpKind::FullyConnected { .. }) => {
                        let (w, b) = self.fc_params(node)?;
                        fc_forward_into(input()?, w, b, &mut out)?;
                    }
                    (_, OpKind::SoftmaxLoss) => {
                        let x = input()?;
                        let state = softmax_loss_forward(x, labels)?;
                        loss = state.loss;
                        scores = Some(x.clone());
                        states[id.index()] = Some(NodeState::Softmax(state));
                        out.fill(loss);
                    }
                    // Every training convolution and normalization decoded
                    // above; what is left are the freeze pass's operators.
                    _ => return Err(inference_only(node)),
                }
                values[id.index()] = Some(out);
            }
            self.plan.release_dead(&mut ws.arena, &mut values, pos);
        }

        let scores = scores.ok_or_else(|| TrainError::Missing("softmax loss node".to_string()))?;
        let accuracy = accuracy(&scores, labels)?;
        let (labels, home) = (labels.to_vec(), Arc::clone(&self.workspace));
        Ok(ForwardResult { loss, accuracy, scores, values, stats, states, labels, home })
    }

    /// Runs the backward pass, producing parameter gradients. Every
    /// gradient buffer comes from the executor's pool and returns to it as
    /// soon as a node's backward has consumed it.
    ///
    /// # Errors
    /// Returns an error if the forward result does not match this graph.
    pub fn backward(&self, fwd: &ForwardResult) -> Result<Gradients> {
        let mut d_vals: Vec<Option<Tensor>> = vec![None; self.graph.node_count()];
        let mut per_node: HashMap<usize, NodeParamGrads> = HashMap::new();
        let data_id = self.data_input()?;

        let mut ws = lock(&self.workspace);
        let pool = &mut ws.pool;

        for &id in self.plan.order().iter().rev() {
            let node = self.graph.node(id)?;
            let state = fwd.states.get(id.index()).and_then(Option::as_ref);
            if matches!(node.op, OpKind::SoftmaxLoss) {
                let Some(NodeState::Softmax(state)) = state else {
                    return Err(missing("forward state", node));
                };
                let mut d_scores = pool.take_tensor_dirty(state.probs.shape().clone());
                softmax_loss_backward_into(state, &fwd.labels, &mut d_scores)?;
                accumulate(pool, &mut d_vals, node.inputs[0], d_scores)?;
                continue;
            }
            let Some(mut grad) = d_vals[id.index()].take() else {
                continue;
            };
            // Each arm yields the gradient of the node's first input, if any,
            // in a dirty pool buffer of that input's shape (every kernel
            // overwrites it) — or passes on the gradient it owns, in place.
            let input_grad = |pool: &mut BufferPool, i| {
                Ok(pool.take_tensor_dirty(self.input_shape(node, i)?.clone()))
            };
            let d_x = match (node.op.form(), &node.op) {
                (OpForm::Conv { attrs, prologue, relu_out: false, .. }, _) => {
                    let x = self.saved_input(fwd, node)?;
                    let x = self.ifmap(node, prologue, x, &fwd.stats)?;
                    let (w, b) = self.conv_params(node)?;
                    // Nothing consumes the data input's gradient, so a
                    // convolution reading it (the stem) skips the
                    // input-gradient GEMM — unless the ∂γ/∂β of a BN it
                    // absorbed need it.
                    let wanted = matches!(prologue, ConvPrologue::NormRelu(_))
                        || self.plan.resolve(node.inputs[0]) != data_id;
                    let mut d_x = wanted.then(|| input_grad(pool, 0)).transpose()?;
                    let grads =
                        fused_conv_backward_into(x, &grad, w, &attrs, b.is_some(), d_x.as_mut())?;
                    per_node.insert(id.index(), grads.into());
                    d_x
                }
                (OpForm::Norm { bn, stats_from_input, relu }, _) => {
                    let x = self.saved_input(fwd, node)?;
                    let s = node_stats(&fwd.stats, node, stats_from_input)?;
                    let params = self.bn_params(node)?;
                    let BnParamGrads { d_gamma, d_beta } =
                        norm_backward_inplace(&mut grad, x, s, params, bn.epsilon, relu)?;
                    per_node.insert(id.index(), NodeParamGrads::Bn { d_gamma, d_beta });
                    accumulate(pool, &mut d_vals, node.inputs[0], grad)?;
                    continue;
                }
                (_, OpKind::Relu | OpKind::Split { .. }) => {
                    // A ReLU masks the gradient it owns; through a Split it
                    // flows unchanged. Either way it is moved, not copied.
                    if matches!(node.op, OpKind::Relu) {
                        relu_backward_inplace(&mut grad, self.saved_input(fwd, node)?)?;
                    }
                    accumulate(pool, &mut d_vals, node.inputs[0], grad)?;
                    continue;
                }
                (_, OpKind::EltwiseSum) => {
                    let (last, rest) = node.inputs.split_last().expect("eltwise sum has inputs");
                    for input in rest {
                        // Occupied slots accumulate by reference; only a
                        // first insertion pays for a copy.
                        match d_vals[input.index()].as_mut() {
                            Some(sum) => ops::add_assign(sum, &grad).map_err(TrainError::Tensor)?,
                            None => {
                                let mut copy = pool.take_tensor_dirty(grad.shape().clone());
                                copy.as_mut_slice().copy_from_slice(grad.as_slice());
                                d_vals[input.index()] = Some(copy);
                            }
                        }
                    }
                    accumulate(pool, &mut d_vals, *last, grad)?;
                    continue;
                }
                // Nothing consumes the data input's gradient, and the
                // statistics path has none of its own: the normalization
                // backward already differentiates through mean/variance.
                (_, OpKind::Input | OpKind::SubBnStats(_)) => None,
                // Pooling backward needs only the input *shape*, which the
                // graph records; the input tensor itself was not retained.
                (_, OpKind::Pool { kind: PoolKind::Max, .. }) => {
                    let Some(NodeState::MaxPool(state)) = state else {
                        return Err(missing("forward state", node));
                    };
                    let mut d_x = input_grad(pool, 0)?;
                    max_pool_backward_into(&grad, state, &mut d_x)?;
                    Some(d_x)
                }
                (_, OpKind::Pool { kind: PoolKind::Average, attrs }) => {
                    let mut d_x = input_grad(pool, 0)?;
                    avg_pool_backward_into(&grad, attrs, &mut d_x)?;
                    Some(d_x)
                }
                (_, OpKind::GlobalAvgPool) => {
                    let mut d_x = input_grad(pool, 0)?;
                    global_avg_pool_backward_into(&grad, &mut d_x)?;
                    Some(d_x)
                }
                (_, OpKind::Concat | OpKind::ConcatStats(_)) => {
                    let mut parts = (0..node.inputs.len())
                        .map(|i| input_grad(pool, i))
                        .collect::<Result<Vec<_>>>()?;
                    concat_backward_into(&grad, &mut parts)?;
                    for (input, part) in node.inputs.iter().zip(parts) {
                        accumulate(pool, &mut d_vals, *input, part)?;
                    }
                    None
                }
                (_, OpKind::FullyConnected { .. }) => {
                    let (x, (w, _)) = (self.saved_input(fwd, node)?, self.fc_params(node)?);
                    let mut d_x = input_grad(pool, 0)?;
                    let (d_weights, d_bias) = fc_backward_into(x, w, &grad, &mut d_x)?;
                    per_node.insert(id.index(), NodeParamGrads::Fc { d_weights, d_bias });
                    Some(d_x)
                }
                _ => return Err(inference_only(node)),
            };
            if let Some(d_x) = d_x {
                accumulate(pool, &mut d_vals, node.inputs[0], d_x)?;
            }
            // The incoming gradient is consumed: recycle its storage.
            pool.reclaim(grad);
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

/// The statistics `node` normalizes with: the ones it published itself
/// (`own`) or those on its second input.
fn node_stats<'a>(
    stats: &'a [Option<ChannelStats>],
    node: &Node,
    own: bool,
) -> Result<&'a ChannelStats> {
    let source = if own { node.id } else { node.inputs[1] };
    stats[source.index()].as_ref().ok_or_else(|| missing("statistics", node))
}

/// Adds `grad` into the gradient slot of `id`: moved in when the slot is
/// still empty, summed in and recycled otherwise.
fn accumulate(
    pool: &mut BufferPool,
    d_vals: &mut [Option<Tensor>],
    id: NodeId,
    grad: Tensor,
) -> Result<()> {
    match d_vals[id.index()].as_mut() {
        Some(existing) => {
            ops::add_assign(existing, &grad).map_err(TrainError::Tensor)?;
            pool.reclaim(grad);
        }
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
    fn planned_forward_retains_only_backward_reads() {
        let exec = Executor::new(tiny_classifier(4), 13).unwrap();
        let (data, labels) = random_batch(4, 4, 14);
        let fwd = exec.forward(&data, &labels).unwrap();
        let find = |name: &str| exec.graph().nodes().find(|n| n.name == name).unwrap().id;
        // conv1's output is what bn1's backward recomputes x̂ from, and
        // relu1's output is conv2's saved ifmap.
        assert!(fwd.output(find("conv1")).is_some());
        assert!(fwd.output(find("relu1")).is_some());
        // conv2's output feeds only the global pool, which needs its shape.
        assert!(fwd.output(find("conv2")).is_none());
        // Neither a convolution nor a normalization keeps state of its own.
        for name in ["conv1", "bn1", "conv2"] {
            assert!(fwd.states[find(name).index()].is_none(), "{name}");
        }
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

    /// `baseline` (a batch-2 CIFAR model) restructured to `level`, one batch
    /// for it, and an executor on it.
    fn restructured(
        baseline: &Graph,
        level: bnff_core::FusionLevel,
    ) -> (Executor, Tensor, Vec<usize>) {
        let graph = bnff_core::BnffOptimizer::new(level).apply(baseline).unwrap();
        let data = Initializer::seeded(31).uniform(Shape::nchw(2, 3, 32, 32), -1.0, 1.0);
        (Executor::new(graph, 29).unwrap(), data, vec![1, 3])
    }

    /// A small DenseNet-BC restructured to `level`.
    fn densenet(level: bnff_core::FusionLevel) -> (Executor, Tensor, Vec<usize>) {
        restructured(&bnff_models::densenet_cifar(2, 4, 1, 4).unwrap(), level)
    }

    #[test]
    fn a_forward_result_holds_exactly_what_the_plan_pins() {
        // For the CIFAR zoo at every level: the retained outputs are the
        // plan's saved bytes, each drawn from the pool exactly once and
        // nothing else with them, and no convolution or normalization adds
        // state of its own.
        let zoo = [
            bnff_models::densenet_cifar(2, 4, 1, 4).unwrap(),
            bnff_models::resnet_cifar(2, 1, 4).unwrap(),
        ];
        let cases =
            zoo.iter().flat_map(|g| bnff_core::FusionLevel::all().into_iter().map(move |l| (g, l)));
        for (baseline, level) in cases {
            let (exec, data, labels) = restructured(baseline, level);
            let plan = exec.plan();
            let takes = || exec.workspace.lock().unwrap().pool.takes();
            let before = takes();
            let fwd = exec.forward(&data, &labels).unwrap();
            let saved = exec
                .graph()
                .nodes()
                .filter(|n| plan.liveness(n.id).is_some_and(|live| live.saved_for_backward));
            assert_eq!(takes() - before, saved.count(), "{level:?}");
            let held: usize = fwd.values.iter().flatten().map(Tensor::bytes).sum();
            assert_eq!(held, plan.saved_bytes(), "{level:?}");
            for node in exec.graph().nodes() {
                let stateless = !matches!(
                    node.op,
                    OpKind::Pool { kind: PoolKind::Max, .. } | OpKind::SoftmaxLoss
                );
                assert_eq!(fwd.states[node.id.index()].is_none(), stateless, "{}", node.name);
            }
        }
    }

    #[test]
    fn a_warmed_step_circulates_the_pool_instead_of_filling_it() {
        for level in [bnff_core::FusionLevel::Baseline, bnff_core::FusionLevel::Bnff] {
            let (exec, data, labels) = densenet(level);
            let step = || {
                let fwd = exec.forward(&data, &labels).unwrap();
                exec.backward(&fwd).unwrap();
            };
            (0..3).for_each(|_| step());
            let counters = || {
                let ws = exec.workspace.lock().unwrap();
                (ws.pool.takes(), ws.pool.hits(), ws.pool.taken_bytes(), ws.pool.free_bytes())
            };
            let (takes, hits, taken, _) = counters();
            step();
            let (takes_after, hits_after, taken_after, idle) = counters();
            // Nothing tensor-sized came from malloc, and the pool holds no
            // buffer a step does not take: it is a working set, not a
            // graveyard filled to its bound.
            assert!(takes_after > takes, "{level:?}: the step drew from the pool");
            assert_eq!(takes_after - takes, hits_after - hits, "{level:?}: every take must hit");
            assert!(idle <= taken_after - taken, "{level:?}: {idle} B idle, one step takes less");
        }
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
        // Σx/Σx² epilogue). With 8 output channels, then 5: the epilogue
        // takes a sample's planes in pairs, an odd last channel alone.
        for out_c in [8usize, 5] {
            let mut b = GraphBuilder::new("chain");
            let x = b.input("data", Shape::nchw(4, 3, 8, 8)).unwrap();
            let labels = b.input("labels", Shape::vector(4)).unwrap();
            let c1 = b.conv2d(x, Conv2dAttrs::same_3x3(8), "conv1").unwrap();
            let c2 = b.bn_relu_conv(c1, Conv2dAttrs::same_3x3(out_c), "cpl2").unwrap();
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
                if let Some(NodeParams::ConvBn { weights, bias, .. }) =
                    exec.params_mut().get_mut(id)
                {
                    weights.map_inplace(|w| w * 1e-2);
                    *bias = Some(vec![4096.0; conv.out_channels]);
                }
                let fwd = exec.forward(&data, &labels).unwrap();
                let published = fwd.stats(id).expect("conv2 publishes statistics");
                // conv2's output is retained: cpl3's backward re-reads it.
                let swept = bn_statistics(fwd.output(id).unwrap(), one_pass).unwrap();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&published.mean),
                    bits(&swept.mean),
                    "C={out_c} one_pass={one_pass}"
                );
                assert_eq!(bits(&published.var), bits(&swept.var), "C={out_c} one_pass={one_pass}");
                variances.push(bits(&published.var));
            }
            assert_ne!(variances[0], variances[1], "two-pass attrs must keep the two-pass sweep");
        }
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
    fn forward_exposes_published_stats() {
        let baseline = tiny_classifier(2);
        let restructured = BnffPass::new().run(&baseline).unwrap();
        let exec = Executor::new(restructured, 9).unwrap();
        let (data, labels) = random_batch(2, 4, 10);
        let stats_node =
            exec.graph().nodes().find(|n| matches!(n.op, OpKind::ConvStats { .. })).unwrap().id;
        let fwd = exec.forward(&data, &labels).unwrap();
        assert!(fwd.stats(stats_node).is_some());
    }

    #[test]
    fn plan_reports_memory_savings_for_the_executor_graph() {
        let exec = Executor::new(tiny_classifier(4), 17).unwrap();
        let plan = exec.plan();
        assert!(plan.planned_peak_bytes() <= plan.naive_total_bytes());
        assert!(plan.slot_count() >= 1);
    }
}
