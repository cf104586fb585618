//! The numeric graph executor: plan-driven forward and backward passes over
//! a model graph, dispatching to the kernels crate, including the fused BNFF
//! operators.
//!
//! Execution is organized around a [`bnff_graph::plan::ExecutionPlan`]
//! computed once per graph: node outputs live in a slot vector indexed by
//! node id (inputs are *borrowed*, never cloned out of a map), tensors the
//! backward pass never revisits are released at their last forward use, and
//! their storage is recycled through a per-executor arena (one bin per plan
//! slot) plus a [`BufferPool`] for backward gradients — both persistent
//! across training steps. [`Executor::forward_naive`] keeps the old
//! one-buffer-per-node behaviour as the reference the equivalence tests
//! compare against; both paths are bit-identical.
//!
//! Nodes execute in topological order (layer dependencies are sequential),
//! but every dispatched kernel fans its per-sample / per-channel / per-row
//! work out across the `bnff-parallel` pool, so one training step saturates
//! `BNFF_THREADS` cores: convolutions lower to the cache-blocked packed
//! GEMM (windows gathered while packing, no column matrix), which partitions
//! MC-aligned output row blocks, BN reduces its mini-batch statistics with one
//! partial per channel, and the gradient accumulation between branches
//! (`ops::add_assign`) sweeps in parallel chunks.

use crate::error::TrainError;
use crate::params::{NodeParamGrads, NodeParams, ParamSet};
use crate::running::RunningStatSet;
use crate::Result;
use bnff_graph::op::{OpKind, PoolKind};
use bnff_graph::plan::ExecutionPlan;
use bnff_graph::{Graph, Node, NodeId};
use bnff_kernels::batchnorm::{bn_backward, bn_normalize_into, bn_statistics, BnForwardState};
use bnff_kernels::concat::{concat_backward, concat_forward_into};
use bnff_kernels::conv::{
    conv2d_backward_input_into, conv2d_backward_weights, conv2d_forward_into,
};
use bnff_kernels::eltwise::eltwise_sum_forward_into;
use bnff_kernels::fc::{fc_backward, fc_forward};
use bnff_kernels::fused::{
    concat_forward_with_stats_into, conv2d_forward_with_stats_into, norm_relu_conv_backward,
    norm_relu_conv_forward_into, NormReluConvState,
};
use bnff_kernels::pool::{
    avg_pool_backward, avg_pool_forward_into, global_avg_pool_backward, global_avg_pool_forward,
    max_pool_backward, max_pool_forward, MaxPoolState,
};
use bnff_kernels::relu::{relu_backward, relu_forward, relu_forward_inplace, relu_forward_into};
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
    Bn(BnForwardState),
    MaxPool(MaxPoolState),
    Softmax(SoftmaxLossState),
    NormReluConv(NormReluConvState),
    /// The clipped (post-ReLU) input a fused ReluConv fed to its convolution.
    ClippedInput(Tensor),
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
    /// Node outputs, indexed by node id. Under the planned path only the
    /// tensors the backward pass revisits survive; the naive path keeps
    /// every output.
    values: Vec<Option<Tensor>>,
    /// Split nodes forward their input's tensor: alias[i] names the node
    /// whose output a lookup of node `i` resolves to.
    alias: Vec<Option<usize>>,
    stats: Vec<Option<ChannelStats>>,
    states: Vec<Option<NodeState>>,
    labels: Vec<usize>,
}

impl ForwardResult {
    /// The output tensor of a node, if it was retained.
    ///
    /// The planned forward pass ([`Executor::forward`]) retains only the
    /// tensors its liveness analysis says the backward pass re-reads;
    /// [`Executor::forward_naive`] retains every node output.
    pub fn output(&self, id: NodeId) -> Option<&Tensor> {
        let idx = self.alias.get(id.index()).copied().flatten().unwrap_or(id.index());
        self.values.get(idx).and_then(Option::as_ref)
    }

    /// The mini-batch statistics produced by a statistics-bearing node.
    pub fn stats(&self, id: NodeId) -> Option<&ChannelStats> {
        self.stats.get(id.index()).and_then(Option::as_ref)
    }

    fn input_tensor(&self, node: &Node, idx: usize) -> Result<&Tensor> {
        self.output(node.inputs[idx])
            .ok_or_else(|| TrainError::Missing(format!("forward output of {}", node.inputs[idx])))
    }
}

/// Parameter gradients (and the data gradient) of one backward pass.
#[derive(Debug, Clone)]
pub struct Gradients {
    /// Per-node parameter gradients, keyed by node id index.
    pub per_node: HashMap<usize, NodeParamGrads>,
    /// Gradient with respect to the data input, when requested.
    pub d_data: Option<Tensor>,
}

impl Gradients {
    /// Looks up the gradients of one node.
    pub fn node(&self, id: NodeId) -> Option<&NodeParamGrads> {
        self.per_node.get(&id.index())
    }

    /// Global L2 norm of all parameter gradients (useful for debugging
    /// exploding/vanishing gradients).
    pub fn global_norm(&self) -> f64 {
        let mut acc = 0.0f64;
        for g in self.per_node.values() {
            match g {
                NodeParamGrads::Conv { d_weights, d_bias } => {
                    acc += d_weights.sq_norm();
                    acc += d_bias.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>();
                }
                NodeParamGrads::Bn { d_gamma, d_beta } => {
                    acc += d_gamma.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>();
                    acc += d_beta.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>();
                }
                NodeParamGrads::ConvBn { d_weights, d_bias, d_gamma, d_beta } => {
                    acc += d_weights.sq_norm();
                    acc += d_bias.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>();
                    acc += d_gamma.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>();
                    acc += d_beta.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>();
                }
                NodeParamGrads::Fc { d_weights, d_bias } => {
                    acc += d_weights.sq_norm();
                    acc += d_bias.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>();
                }
            }
        }
        acc.sqrt()
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

    /// Replaces the running statistics wholesale (checkpoint restore).
    pub fn set_running_stats(&mut self, running: RunningStatSet) {
        self.running = running;
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
        for idx in tracked {
            let id = NodeId::new(idx);
            let stats = fwd.stats(id).ok_or_else(|| {
                TrainError::Missing(format!("mini-batch statistics of {id} in forward result"))
            })?;
            let stats = stats.clone();
            self.running.observe(id, &stats)?;
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
            Some(NodeParams::Conv { weights, bias }) => Ok((weights, bias.as_deref())),
            Some(NodeParams::ConvBn { weights, bias, .. }) => Ok((weights, bias.as_deref())),
            _ => Err(TrainError::Missing(format!("convolution parameters for '{}'", node.name))),
        }
    }

    fn bn_params(&self, node: &Node) -> Result<&bnff_kernels::batchnorm::BnParams> {
        match self.params.get(node.id) {
            Some(NodeParams::Bn(p)) => Ok(p),
            Some(NodeParams::ConvBn { bn, .. }) => Ok(bn),
            _ => Err(TrainError::Missing(format!("BN parameters for '{}'", node.name))),
        }
    }

    /// The shape of a node's first input.
    fn input_shape(&self, node: &Node, idx: usize) -> Result<Shape> {
        Ok(self.graph.node(node.inputs[idx])?.output_shape.clone())
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

    /// The running statistics of node `id` as kernel-ready [`ChannelStats`].
    fn running_channel_stats(&self, id: NodeId) -> Result<ChannelStats> {
        self.running
            .get(id)
            .map(crate::running::RunningStats::as_channel_stats)
            .ok_or_else(|| TrainError::Missing(format!("running statistics for {id}")))
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
        let alias: Vec<Option<usize>> = (0..n)
            .map(|i| {
                let id = NodeId::new(i);
                self.plan.is_alias(id).then(|| self.plan.resolve(id).index())
            })
            .collect();
        let mut loss = 0.0f32;
        let mut scores: Option<Tensor> = None;
        values[data_id.index()] = Some(data.clone());

        // The naive reference path never touches the workspace, so only the
        // planned path takes the lock (a poisoned lock is recovered — the
        // workspace is pure scratch, safe to reuse after a panic). The naive
        // path's bins stay empty — it releases nothing — so every output it
        // allocates is fresh.
        let mut ws = planned
            .then(|| self.workspace.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
        let mut empty_bins = Vec::new();
        let arena: &mut [Option<Vec<f32>>] = match ws.as_deref_mut() {
            Some(ws) => &mut ws.arena,
            None => {
                empty_bins.resize(self.plan.slot_count(), None);
                &mut empty_bins
            }
        };

        for (pos, &id) in self.plan.order().iter().enumerate() {
            let node = self.graph.node(id)?;
            let out = match &node.op {
                OpKind::Input => {
                    // Label inputs carry no tensor; the data input is
                    // pre-seeded.
                    None
                }
                OpKind::Conv2d(a) => {
                    let x = self.plan.input_value(&values, node, 0)?;
                    let (w, b) = self.conv_params(node)?;
                    let mut out = self.plan.alloc_output(arena, id, &node.output_shape);
                    conv2d_forward_into(x, w, b, a, &mut out)?;
                    Some(out)
                }
                OpKind::ReluConv(a) => {
                    let x = self.plan.input_value(&values, node, 0)?;
                    let (w, b) = self.conv_params(node)?;
                    // The clipped activation is computed once: it feeds the
                    // convolution and is then moved (not re-cloned) into the
                    // node state for the backward pass.
                    let clipped = relu_forward(x);
                    let mut out = self.plan.alloc_output(arena, id, &node.output_shape);
                    conv2d_forward_into(&clipped, w, b, a, &mut out)?;
                    states[id.index()] = Some(NodeState::ClippedInput(clipped));
                    Some(out)
                }
                OpKind::ConvStats { conv: a, .. } => {
                    let x = self.plan.input_value(&values, node, 0)?;
                    let (w, b) = self.conv_params(node)?;
                    let mut out = self.plan.alloc_output(arena, id, &node.output_shape);
                    let s = match mode {
                        StatsMode::Batch => conv2d_forward_with_stats_into(x, w, b, a, &mut out)?,
                        StatsMode::Running => {
                            // Inference needs no batch statistics: run the
                            // plain convolution and hand consumers the
                            // running statistics instead.
                            conv2d_forward_into(x, w, b, a, &mut out)?;
                            self.running_channel_stats(id)?
                        }
                    };
                    stats[id.index()] = Some(s);
                    Some(out)
                }
                OpKind::BatchNorm(attrs) => {
                    let x = self.plan.input_value(&values, node, 0)?;
                    let p = self.bn_params(node)?;
                    let s = match mode {
                        StatsMode::Batch => bn_statistics(x, attrs.one_pass_stats)?,
                        StatsMode::Running => self.running_channel_stats(id)?,
                    };
                    stats[id.index()] = Some(s.clone());
                    let mut y = self.plan.alloc_output(arena, id, &node.output_shape);
                    let x_hat = bn_normalize_into(x, &s, p, attrs.epsilon, &mut y)?;
                    states[id.index()] = Some(NodeState::Bn(BnForwardState { stats: s, x_hat }));
                    Some(y)
                }
                OpKind::SubBnStats(attrs) => {
                    let s = match mode {
                        StatsMode::Batch => {
                            let x = self.plan.input_value(&values, node, 0)?;
                            bn_statistics(x, attrs.one_pass_stats)?
                        }
                        StatsMode::Running => self.running_channel_stats(id)?,
                    };
                    // The 2×C summary is assembled directly from the
                    // mean/var slices.
                    let mut summary = Vec::with_capacity(2 * s.channels());
                    summary.extend_from_slice(&s.mean);
                    summary.extend_from_slice(&s.var);
                    let summary = Tensor::from_vec(Shape::matrix(2, s.channels()), summary)
                        .map_err(TrainError::Tensor)?;
                    stats[id.index()] = Some(s);
                    Some(summary)
                }
                OpKind::SubBnNorm(attrs) => {
                    let x = self.plan.input_value(&values, node, 0)?;
                    let p = self.bn_params(node)?;
                    let s = node_stats(&stats, node, 1)?.clone();
                    let mut y = self.plan.alloc_output(arena, id, &node.output_shape);
                    let x_hat = bn_normalize_into(x, &s, p, attrs.epsilon, &mut y)?;
                    states[id.index()] = Some(NodeState::Bn(BnForwardState { stats: s, x_hat }));
                    Some(y)
                }
                OpKind::NormRelu(attrs) => {
                    let x = self.plan.input_value(&values, node, 0)?;
                    let p = self.bn_params(node)?;
                    let s = node_stats(&stats, node, 1)?.clone();
                    // The output is retained as the backward ReLU mask
                    // (saved outputs have no arena slot); clip in place
                    // instead of materializing a separate post-ReLU copy.
                    let mut y = self.plan.alloc_output(arena, id, &node.output_shape);
                    let x_hat = bn_normalize_into(x, &s, p, attrs.epsilon, &mut y)?;
                    relu_forward_inplace(&mut y);
                    states[id.index()] = Some(NodeState::Bn(BnForwardState { stats: s, x_hat }));
                    Some(y)
                }
                OpKind::NormReluConv { conv: a, bn: attrs }
                | OpKind::NormReluConvStats { conv: a, bn_in: attrs, .. } => {
                    let raw = self.plan.input_value(&values, node, 0)?;
                    let s = node_stats(&stats, node, 1)?.clone();
                    let (w, b) = self.conv_params(node)?;
                    let bn_p = self.bn_params(node)?;
                    let mut out = self.plan.alloc_output(arena, id, &node.output_shape);
                    let state = norm_relu_conv_forward_into(
                        raw,
                        &s,
                        bn_p,
                        attrs.epsilon,
                        w,
                        b,
                        a,
                        &mut out,
                    )?;
                    if let OpKind::NormReluConvStats { bn_out, .. } = &node.op {
                        stats[id.index()] = Some(match mode {
                            StatsMode::Batch => bn_statistics(&out, bn_out.one_pass_stats)?,
                            StatsMode::Running => self.running_channel_stats(id)?,
                        });
                    }
                    states[id.index()] = Some(NodeState::NormReluConv(state));
                    Some(out)
                }
                OpKind::Relu => {
                    let x = self.plan.input_value(&values, node, 0)?;
                    let mut out = self.plan.alloc_output(arena, id, &node.output_shape);
                    relu_forward_into(x, &mut out)?;
                    Some(out)
                }
                OpKind::Pool { kind, attrs } => {
                    let x = self.plan.input_value(&values, node, 0)?;
                    match kind {
                        PoolKind::Max => {
                            // The state keeps only shape + argmax, so the
                            // pooled output is owned once by the slot vector.
                            let (out, state) = max_pool_forward(x, attrs)?;
                            states[id.index()] = Some(NodeState::MaxPool(state));
                            Some(out)
                        }
                        PoolKind::Average => {
                            let mut out = self.plan.alloc_output(arena, id, &node.output_shape);
                            avg_pool_forward_into(x, attrs, &mut out)?;
                            Some(out)
                        }
                    }
                }
                OpKind::GlobalAvgPool => {
                    let x = self.plan.input_value(&values, node, 0)?;
                    Some(global_avg_pool_forward(x)?)
                }
                OpKind::Concat => {
                    let refs = self.plan.input_values(&values, node)?;
                    let mut out = self.plan.alloc_output(arena, id, &node.output_shape);
                    concat_forward_into(&refs, &mut out)?;
                    Some(out)
                }
                OpKind::ConcatStats(_) => {
                    let refs = self.plan.input_values(&values, node)?;
                    let mut out = self.plan.alloc_output(arena, id, &node.output_shape);
                    let s = match mode {
                        StatsMode::Batch => concat_forward_with_stats_into(&refs, &mut out)?,
                        StatsMode::Running => {
                            concat_forward_into(&refs, &mut out)?;
                            self.running_channel_stats(id)?
                        }
                    };
                    stats[id.index()] = Some(s);
                    Some(out)
                }
                OpKind::Split { .. } => {
                    // A pointer pass: consumers resolve to the aliased
                    // producer through the plan, so no tensor is stored.
                    None
                }
                OpKind::EltwiseSum => {
                    let refs = self.plan.input_values(&values, node)?;
                    let mut out = self.plan.alloc_output(arena, id, &node.output_shape);
                    eltwise_sum_forward_into(&refs, &mut out)?;
                    Some(out)
                }
                OpKind::FullyConnected { .. } => {
                    let x = self.plan.input_value(&values, node, 0)?;
                    let (w, b) = match self.params.get(node.id) {
                        Some(NodeParams::Fc { weights, bias }) => (weights, bias),
                        _ => {
                            return Err(TrainError::Missing(format!(
                                "FC parameters for '{}'",
                                node.name
                            )))
                        }
                    };
                    Some(fc_forward(x, w, b)?)
                }
                OpKind::ConvRelu(_) | OpKind::ChannelAffine => {
                    return Err(TrainError::Unsupported(format!(
                        "'{}' is an inference-only operator; run frozen graphs on the \
                         bnff-serve executor",
                        node.name
                    )));
                }
                OpKind::SoftmaxLoss => {
                    let x = self.plan.input_value(&values, node, 0)?;
                    let state = softmax_loss_forward(x, labels)?;
                    loss = state.loss;
                    scores = Some(x.clone());
                    states[id.index()] = Some(NodeState::Softmax(state));
                    Some(Tensor::from_slice(&[loss]))
                }
            };
            if let Some(out) = out {
                values[id.index()] = Some(out);
            }
            if planned {
                self.plan.release_dead(arena, &mut values, pos);
            }
        }

        let scores = scores.ok_or_else(|| TrainError::Missing("softmax loss node".to_string()))?;
        let acc = accuracy(&scores, labels)?;
        Ok(ForwardResult {
            loss,
            accuracy: acc,
            scores,
            values,
            alias,
            stats,
            states,
            labels: labels.to_vec(),
        })
    }

    /// Runs the backward pass, producing parameter gradients. Gradient
    /// buffers are released into the executor's pool as soon as a node's
    /// backward has consumed them.
    ///
    /// # Errors
    /// Returns an error if the forward result does not match this graph.
    pub fn backward(&self, fwd: &ForwardResult) -> Result<Gradients> {
        let n = self.graph.node_count();
        let mut d_vals: Vec<Option<Tensor>> = vec![None; n];
        let mut per_node: HashMap<usize, NodeParamGrads> = HashMap::new();
        let data_id = self.data_input()?;

        let mut ws = self.workspace.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let pool = &mut ws.pool;

        for &id in self.plan.order().iter().rev() {
            let node = self.graph.node(id)?;
            match &node.op {
                OpKind::SoftmaxLoss => {
                    let state = match states_ref(&fwd.states, id) {
                        Some(NodeState::Softmax(s)) => s,
                        _ => return Err(TrainError::Missing("softmax state".to_string())),
                    };
                    let d_scores = softmax_loss_backward(state, &fwd.labels)?;
                    accumulate(&mut d_vals, node.inputs[0], d_scores)?;
                }
                OpKind::Input => {}
                OpKind::Split { .. } => {
                    // The gradient flows through unchanged; move it rather
                    // than copying.
                    if let Some(grad) = d_vals[id.index()].take() {
                        accumulate(&mut d_vals, node.inputs[0], grad)?;
                    }
                }
                OpKind::EltwiseSum => {
                    if let Some(grad) = d_vals[id.index()].take() {
                        let (last, rest) =
                            node.inputs.split_last().expect("eltwise sum has inputs");
                        for input in rest {
                            // Occupied slots accumulate by reference; only a
                            // first insertion pays for a copy.
                            accumulate_ref(&mut d_vals, *input, &grad)?;
                        }
                        accumulate(&mut d_vals, *last, grad)?;
                    }
                }
                _ => {
                    let Some(grad) = d_vals[id.index()].take() else {
                        continue;
                    };
                    match &node.op {
                        OpKind::Conv2d(a) | OpKind::ConvStats { conv: a, .. } => {
                            let x = fwd.input_tensor(node, 0)?;
                            let (w, b) = self.conv_params(node)?;
                            // The input gradient accumulates into a zeroed
                            // buffer recycled from the pool.
                            let mut d_x =
                                Tensor::from_vec(x.shape().clone(), pool.take(x.shape().volume()))
                                    .map_err(TrainError::Tensor)?;
                            conv2d_backward_input_into(&grad, w, a, &mut d_x)?;
                            let (d_w, d_b) = conv2d_backward_weights(x, &grad, a, b.is_some())?;
                            per_node.insert(
                                id.index(),
                                NodeParamGrads::Conv { d_weights: d_w, d_bias: d_b },
                            );
                            accumulate(&mut d_vals, node.inputs[0], d_x)?;
                        }
                        OpKind::ReluConv(a) => {
                            let x = fwd.input_tensor(node, 0)?;
                            // The forward pass saved the clipped input; only
                            // a stale result (never produced by this
                            // executor) forces a recompute.
                            let recomputed;
                            let clipped: &Tensor = match states_ref(&fwd.states, id) {
                                Some(NodeState::ClippedInput(t)) => t,
                                _ => {
                                    recomputed = relu_forward(x);
                                    &recomputed
                                }
                            };
                            let (w, b) = self.conv_params(node)?;
                            let mut d_clipped = Tensor::from_vec(
                                clipped.shape().clone(),
                                pool.take(clipped.shape().volume()),
                            )
                            .map_err(TrainError::Tensor)?;
                            conv2d_backward_input_into(&grad, w, a, &mut d_clipped)?;
                            let (d_w, d_b) =
                                conv2d_backward_weights(clipped, &grad, a, b.is_some())?;
                            let d_x = relu_backward(&d_clipped, x)?;
                            pool.give(d_clipped.into_vec());
                            per_node.insert(
                                id.index(),
                                NodeParamGrads::Conv { d_weights: d_w, d_bias: d_b },
                            );
                            accumulate(&mut d_vals, node.inputs[0], d_x)?;
                        }
                        OpKind::NormReluConv { conv: a, bn: attrs }
                        | OpKind::NormReluConvStats { conv: a, bn_in: attrs, .. } => {
                            let state = match states_ref(&fwd.states, id) {
                                Some(NodeState::NormReluConv(s)) => s,
                                _ => {
                                    return Err(TrainError::Missing(format!(
                                        "fused state for '{}'",
                                        node.name
                                    )))
                                }
                            };
                            let (w, b) = self.conv_params(node)?;
                            let bn_p = self.bn_params(node)?;
                            let grads = norm_relu_conv_backward(
                                &grad,
                                state,
                                bn_p,
                                attrs.epsilon,
                                w,
                                a,
                                b.is_some(),
                            )?;
                            per_node.insert(
                                id.index(),
                                NodeParamGrads::ConvBn {
                                    d_weights: grads.d_weights,
                                    d_bias: grads.d_bias,
                                    d_gamma: grads.d_bn.d_gamma,
                                    d_beta: grads.d_bn.d_beta,
                                },
                            );
                            accumulate(&mut d_vals, node.inputs[0], grads.d_raw)?;
                        }
                        OpKind::BatchNorm(attrs) | OpKind::SubBnNorm(attrs) => {
                            let state = match states_ref(&fwd.states, id) {
                                Some(NodeState::Bn(s)) => s,
                                _ => {
                                    return Err(TrainError::Missing(format!(
                                        "BN state for '{}'",
                                        node.name
                                    )))
                                }
                            };
                            let p = self.bn_params(node)?;
                            let (d_x, g) = bn_backward(&grad, state, p, attrs.epsilon)?;
                            per_node.insert(
                                id.index(),
                                NodeParamGrads::Bn { d_gamma: g.d_gamma, d_beta: g.d_beta },
                            );
                            accumulate(&mut d_vals, node.inputs[0], d_x)?;
                        }
                        OpKind::NormRelu(attrs) => {
                            let state = match states_ref(&fwd.states, id) {
                                Some(NodeState::Bn(s)) => s,
                                _ => {
                                    return Err(TrainError::Missing(format!(
                                        "BN state for '{}'",
                                        node.name
                                    )))
                                }
                            };
                            let p = self.bn_params(node)?;
                            let y = fwd
                                .output(id)
                                .ok_or_else(|| TrainError::Missing("NormRelu output".into()))?;
                            let d_post_bn = relu_backward(&grad, y)?;
                            let (d_x, g) = bn_backward(&d_post_bn, state, p, attrs.epsilon)?;
                            per_node.insert(
                                id.index(),
                                NodeParamGrads::Bn { d_gamma: g.d_gamma, d_beta: g.d_beta },
                            );
                            accumulate(&mut d_vals, node.inputs[0], d_x)?;
                        }
                        OpKind::SubBnStats(_) => {
                            // The statistics path carries no independent
                            // gradient: the normalization backward already
                            // differentiates through mean/variance.
                        }
                        OpKind::Relu => {
                            let x = fwd.input_tensor(node, 0)?;
                            let d_x = relu_backward(&grad, x)?;
                            accumulate(&mut d_vals, node.inputs[0], d_x)?;
                        }
                        OpKind::Pool { kind, attrs } => {
                            // Pooling backward needs only the input *shape*,
                            // which the graph records; the input tensor
                            // itself was not retained.
                            let in_shape = self.input_shape(node, 0)?;
                            let d_x = match kind {
                                PoolKind::Max => {
                                    let state = match states_ref(&fwd.states, id) {
                                        Some(NodeState::MaxPool(s)) => s,
                                        _ => {
                                            return Err(TrainError::Missing(format!(
                                                "max pool state for '{}'",
                                                node.name
                                            )))
                                        }
                                    };
                                    max_pool_backward(&grad, state, &in_shape)?
                                }
                                PoolKind::Average => avg_pool_backward(&grad, &in_shape, attrs)?,
                            };
                            accumulate(&mut d_vals, node.inputs[0], d_x)?;
                        }
                        OpKind::GlobalAvgPool => {
                            let in_shape = self.input_shape(node, 0)?;
                            let d_x = global_avg_pool_backward(&grad, &in_shape)?;
                            accumulate(&mut d_vals, node.inputs[0], d_x)?;
                        }
                        OpKind::Concat | OpKind::ConcatStats(_) => {
                            let shapes: Vec<Shape> = node
                                .inputs
                                .iter()
                                .map(|i| self.graph.node(*i).map(|n| n.output_shape.clone()))
                                .collect::<bnff_graph::Result<_>>()?;
                            let grads = concat_backward(&grad, &shapes)?;
                            for (input, g) in node.inputs.iter().zip(grads) {
                                accumulate(&mut d_vals, *input, g)?;
                            }
                        }
                        OpKind::FullyConnected { .. } => {
                            let x = fwd.input_tensor(node, 0)?;
                            let w = match self.params.get(node.id) {
                                Some(NodeParams::Fc { weights, .. }) => weights,
                                _ => {
                                    return Err(TrainError::Missing(format!(
                                        "FC parameters for '{}'",
                                        node.name
                                    )))
                                }
                            };
                            let (d_x, d_w, d_b) = fc_backward(x, w, &grad)?;
                            per_node.insert(
                                id.index(),
                                NodeParamGrads::Fc { d_weights: d_w, d_bias: d_b },
                            );
                            accumulate(&mut d_vals, node.inputs[0], d_x)?;
                        }
                        OpKind::ConvRelu(_) | OpKind::ChannelAffine => {
                            return Err(TrainError::Unsupported(format!(
                                "'{}' is an inference-only operator with no backward pass",
                                node.name
                            )));
                        }
                        OpKind::Input
                        | OpKind::SoftmaxLoss
                        | OpKind::Split { .. }
                        | OpKind::EltwiseSum => {
                            unreachable!("handled above")
                        }
                    }
                    // This node's incoming gradient is fully consumed;
                    // recycle its storage for the next allocation.
                    pool.give(grad.into_vec());
                }
            }
        }

        Ok(Gradients { per_node, d_data: d_vals[data_id.index()].take() })
    }
}

/// The mini-batch statistics attached to a node's `idx`-th input.
fn node_stats<'a>(
    stats: &'a [Option<ChannelStats>],
    node: &Node,
    idx: usize,
) -> Result<&'a ChannelStats> {
    stats[node.inputs[idx].index()]
        .as_ref()
        .ok_or_else(|| TrainError::Missing(format!("statistics for '{}'", node.name)))
}

fn states_ref(states: &[Option<NodeState>], id: NodeId) -> Option<&NodeState> {
    states.get(id.index()).and_then(Option::as_ref)
}

/// Adds `grad` into the gradient slot of `id`, cloning it only when the
/// slot is still empty.
fn accumulate_ref(d_vals: &mut [Option<Tensor>], id: NodeId, grad: &Tensor) -> Result<()> {
    match d_vals[id.index()].as_mut() {
        Some(existing) => {
            ops::add_assign(existing, grad).map_err(TrainError::Tensor)?;
        }
        None => {
            d_vals[id.index()] = Some(grad.clone());
        }
    }
    Ok(())
}

/// Adds `grad` into the gradient slot of `id`, moving it in when the slot
/// is still empty.
fn accumulate(d_vals: &mut [Option<Tensor>], id: NodeId, grad: Tensor) -> Result<()> {
    match d_vals[id.index()].as_mut() {
        Some(existing) => {
            ops::add_assign(existing, &grad).map_err(TrainError::Tensor)?;
        }
        None => {
            d_vals[id.index()] = Some(grad);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_graph::builder::GraphBuilder;
    use bnff_graph::op::Conv2dAttrs;
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
        assert!(grads.d_data.is_some());
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
