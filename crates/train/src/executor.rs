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
//! * A standalone ReLU keeps nothing either. Backward masks its gradient
//!   with the ReLU's own output, which its consumer pins anyway. Where the
//!   plan makes it an alias of its input (nothing else reads that), the
//!   walk clips the input's tensor in place, so a BN → ReLU → convolution
//!   chain holds one tensor, as the RCF convolution that reads the BN output
//!   raw does.
//! * Training publishes mini-batch statistics and eval the running ones;
//!   `publish_stats` is the one place that chooses. A `SubBnStats` or
//!   `ConcatStats` in training copies what earlier nodes published over the
//!   same tensors and sweeps only the rest (`assembled_stats`).
//! * A concatenation has no arm in either direction. Its value is its
//!   inputs' tensors, read by its consumers as a [`ChannelRope`] (the plan
//!   gives the rare concatenation with another kind of consumer a buffer,
//!   which it fills by one copy). It has no gradient slot either: every
//!   gradient reaching it is handed to its inputs' slots by `accumulate`,
//!   channel range by channel range.
//!
//! Execution follows an [`ExecutionPlan`] computed once per graph, which
//! slots every buffer of a training step: node outputs live in a vector
//! indexed by node id (inputs are borrowed), and each output, gradient and
//! backward scratch buffer is drawn from its slot's bin and handed back
//! where the plan says ([`ExecutionPlan::grad_draw`],
//! [`ExecutionPlan::released_after_backward`]). The bins, one buffer each,
//! are the executor's only allocator: after one step their capacities add
//! up to [`ExecutionPlan::planned_peak_bytes`], and a warmed step mallocs
//! no activation or gradient. Every kernel fans out over the
//! `bnff-parallel` pool.
//!
//! One forward walk serves three callers: [`Executor::forward`],
//! [`Executor::forward_eval`] and [`Executor::infer`], the eval forward of
//! a frozen graph (no loss head) over an inference plan, which retains
//! nothing for backward. Serving runs that walk: its executor shares its
//! parameters and running statistics behind [`Arc`]s
//! ([`Executor::for_inference`]), and a walk over `n` samples sizes every
//! feature map for `n`, so one executor serves any batch.

use crate::error::TrainError;
use crate::params::{Gradients, NodeParamGrads, NodeParams, ParamSet};
use crate::running::RunningStatSet;
use crate::Result;
use bnff_graph::op::{ConvPrologue, OpForm, OpKind, PoolKind};
use bnff_graph::ExecutionPlan;
use bnff_graph::{Graph, Node, NodeId};
use bnff_kernels::batchnorm::{
    bn_statistics, norm_backward_inplace, normalize_sweep_into, BnParamGrads, BnParams,
};
use bnff_kernels::conv::ConvInput;
use bnff_kernels::eltwise::eltwise_sum_forward_into;
use bnff_kernels::fc::{fc_backward_into, fc_forward_into};
use bnff_kernels::fused::{fused_conv_backward_into, fused_conv_forward_into};
use bnff_kernels::pool::{
    avg_pool_backward_into, avg_pool_forward_into, global_avg_pool_backward_into,
    global_avg_pool_forward_into, max_pool_backward_into, max_pool_forward_argmax_into,
    max_pool_forward_into, MaxPoolState,
};
use bnff_kernels::relu::{relu_backward_inplace, relu_forward_inplace, relu_forward_into};
use bnff_kernels::softmax::{
    accuracy, softmax_loss_backward_into, softmax_loss_forward, SoftmaxLossState,
};
use bnff_obs::OpProfiler;
use bnff_tensor::stats::ChannelStats;
use bnff_tensor::{ops, ChannelRope, GradPart, Shape, Tensor};
use std::borrow::Cow;
use std::cell::{Ref, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Which statistics a forward pass normalizes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StatsMode {
    /// Training semantics: per-channel statistics of the current mini-batch.
    Batch,
    /// Inference (eval) semantics: the executor's running statistics — the
    /// same numbers a frozen graph is served with.
    Running,
}

/// Per-node state captured during the forward pass for reuse in backward —
/// none of it a feature map: convolutions and normalizations have none.
#[derive(Debug)]
enum NodeState {
    MaxPool(MaxPoolState),
    Softmax(SoftmaxLossState),
}

/// The statistics each node published, by node id: a walk's own, or borrowed
/// from the running statistics.
type Published<'a> = Vec<Option<Cow<'a, ChannelStats>>>;

/// What one forward walk leaves: the retained outputs by node id, the
/// published statistics and backward state, and the loss head's result.
struct Walk<'a> {
    values: Vec<Option<Tensor>>,
    stats: Published<'a>,
    states: Vec<Option<NodeState>>,
    loss: f32,
    scores: Option<Tensor>,
}

/// The result of one forward pass. Not `Clone`: its retained buffers go
/// back to the executor's bins — each during [`Executor::backward`], right
/// after its last backward reader, or, without a backward, when the result
/// is dropped — which a copy never borrowed from. A result whose backward
/// has run keeps its loss, scores and statistics (so
/// [`Executor::update_running_stats`] still reads it) but no retained
/// output, and a second backward over it is a [`TrainError::Missing`].
#[derive(Debug)]
pub struct ForwardResult {
    /// Mean cross-entropy loss over the mini-batch.
    pub loss: f32,
    /// Classification accuracy over the mini-batch.
    pub accuracy: f32,
    /// The classifier scores fed into the loss node.
    pub scores: Tensor,
    /// Node outputs by node id: the ones backward revisits, until it has.
    /// Empty once a backward has run.
    values: RefCell<Vec<Option<Tensor>>>,
    stats: Published<'static>,
    states: Vec<Option<NodeState>>,
    labels: Vec<usize>,
    /// The plan the pass ran, which says whose tensor holds a node's value.
    plan: Arc<ExecutionPlan>,
    /// The workspace the pass drew the retained `values` from.
    home: Arc<Mutex<Workspace>>,
}

impl Drop for ForwardResult {
    /// Returns the outputs no backward handed back to the bins they were
    /// taken from.
    fn drop(&mut self) {
        let mut ws = lock(&self.home);
        for (idx, tensor) in self.values.get_mut().drain(..).enumerate() {
            tensor.into_iter().for_each(|t| ws.give(self.plan.slot(NodeId::new(idx)), t));
        }
    }
}

impl ForwardResult {
    /// The output tensor of a node, if it is retained: the forward pass
    /// retains only the tensors its liveness analysis says the backward pass
    /// re-reads, and the backward hands each back to its bin after its
    /// last reader, so after [`Executor::backward`] this is `None` for every
    /// node. A Split or an in-place ReLU reads its producer's tensor; a
    /// node whose tensor a ReLU clipped in place has no output left, and
    /// neither has a concatenation whose value is its inputs' tensors. The
    /// guard borrows the result: a backward started while one is held fails
    /// with [`TrainError::InvalidArgument`].
    pub fn output(&self, id: NodeId) -> Option<Ref<'_, Tensor>> {
        let values = self.values.try_borrow().ok()?;
        let holder = values.get(id.index()).and_then(|_| self.plan.holder(id))?;
        Ref::filter_map(values, |v| v[holder.index()].as_ref()).ok()
    }

    /// The mini-batch statistics produced by a statistics-bearing node.
    pub fn stats(&self, id: NodeId) -> Option<&ChannelStats> {
        self.stats.get(id.index()).and_then(Option::as_deref)
    }
}

/// The buffers one executor recycles across nodes and across steps: one
/// bin per plan slot, holding at most one buffer between its tenants.
struct Workspace {
    bins: Vec<Option<Vec<f32>>>,
    /// Takes that allocated: the bin was empty (a cold start, a second live
    /// forward result) or too small (a smaller first tenant), or no slot.
    allocations: usize,
}

impl Workspace {
    fn for_plan(plan: &ExecutionPlan) -> Self {
        Workspace { bins: vec![None; plan.slot_count()], allocations: 0 }
    }

    /// A tensor of `shape`, contents unspecified: the buffer in `slot`'s
    /// bin, or a fresh one of exactly the shape's volume, so a bin grows to
    /// its largest tenant and no further.
    fn take(&mut self, slot: Option<usize>, shape: &Shape) -> Tensor {
        let len = shape.volume();
        let recycled = slot.and_then(|slot| self.bins[slot].take()).filter(|b| b.capacity() >= len);
        self.allocations += usize::from(recycled.is_none());
        let buf = match recycled {
            // SAFETY: a bin holds only buffers allocated below, where
            // `vec![0.0; n]` writes all `n` of its capacity, and no tensor
            // changes its buffer's length; so every element up to the
            // capacity is an initialized `f32`. Unlike `resize`, this pays
            // no zero fill when a larger tenant follows a smaller one.
            Some(mut buf) => unsafe {
                buf.set_len(len);
                buf
            },
            None => vec![0.0; len],
        };
        Tensor::from_vec(shape.clone(), buf).expect("buffer sized to the shape's volume")
    }

    /// Puts `tensor`'s buffer, which [`take`](Self::take) drew, into
    /// `slot`'s bin; one without a slot, or meeting a full bin, is freed.
    fn give(&mut self, slot: Option<usize>, tensor: Tensor) {
        if let Some(slot) = slot {
            self.bins[slot].get_or_insert_with(|| tensor.into_vec());
        }
    }

    /// Hands the output tensors of `nodes` (node indices) to their bins.
    fn release(&mut self, plan: &ExecutionPlan, values: &mut [Option<Tensor>], nodes: &[usize]) {
        for &idx in nodes {
            if let Some(tensor) = values[idx].take() {
                self.give(plan.slot(NodeId::new(idx)), tensor);
            }
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
        let bytes: usize = self.bins.iter().flatten().map(|bin| 4 * bin.capacity()).sum();
        f.debug_struct("Workspace")
            .field("bins", &self.bins.len())
            .field("bin_bytes", &bytes)
            .field("allocations", &self.allocations)
            .finish()
    }
}

/// A numeric executor bound to one graph and one parameter set. The
/// parameters and running statistics sit behind [`Arc`]s: a clone or an
/// inference executor shares them until one side writes.
#[derive(Debug)]
pub struct Executor {
    graph: Graph,
    params: Arc<ParamSet>,
    plan: Arc<ExecutionPlan>,
    running: Arc<RunningStatSet>,
    workspace: Arc<Mutex<Workspace>>,
}

impl Clone for Executor {
    fn clone(&self) -> Self {
        Executor {
            graph: self.graph.clone(),
            params: Arc::clone(&self.params),
            plan: Arc::clone(&self.plan),
            running: Arc::clone(&self.running),
            // Recycled buffers are per-executor scratch, not state.
            workspace: Arc::new(Mutex::new(Workspace::for_plan(&self.plan))),
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
    pub(crate) fn with_params(graph: Graph, params: ParamSet) -> Result<Self> {
        let running = RunningStatSet::initialize(&graph);
        Self::with_state(graph, params, running)
    }

    /// Creates an executor around an existing parameter set *and* running
    /// statistics (checkpoint restore).
    ///
    /// # Errors
    /// Returns an error if the graph cannot be memory-planned (e.g. it is
    /// cyclic).
    pub(crate) fn with_state(
        graph: Graph,
        params: ParamSet,
        running: RunningStatSet,
    ) -> Result<Self> {
        let plan = Arc::new(ExecutionPlan::for_graph(&graph)?);
        let workspace = Arc::new(Mutex::new(Workspace::for_plan(&plan)));
        let (params, running) = (Arc::new(params), Arc::new(running));
        Ok(Executor { graph, params, plan, running, workspace })
    }

    /// Creates a forward-only executor for a graph without a loss head (a
    /// frozen graph), sharing the parameters and running statistics, keyed
    /// by its node ids, with every other executor built from them. Its
    /// memory plan is the inference one: nothing is retained for a
    /// backward pass. [`Executor::infer`] runs it.
    ///
    /// # Errors
    /// Returns an error if the graph cannot be memory-planned.
    pub fn for_inference(
        graph: Graph,
        params: Arc<ParamSet>,
        running: Arc<RunningStatSet>,
    ) -> Result<Self> {
        let plan = Arc::new(ExecutionPlan::for_inference(&graph)?);
        let workspace = Arc::new(Mutex::new(Workspace::for_plan(&plan)));
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

    /// Mutable access to the parameters (used by the optimizer); copies
    /// them first if another executor shares them.
    pub fn params_mut(&mut self) -> &mut ParamSet {
        Arc::make_mut(&mut self.params)
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
        let running = Arc::make_mut(&mut self.running);
        let tracked: Vec<usize> = running.iter().map(|(idx, _)| *idx).collect();
        for id in tracked.into_iter().map(NodeId::new) {
            let stats = fwd.stats(id).ok_or_else(|| {
                TrainError::Missing(format!("mini-batch statistics of {id} in forward result"))
            })?;
            running.observe(id, stats)?;
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

    /// The retained output of a node's first input, through aliases.
    fn saved_input<'f>(&self, values: &'f [Option<Tensor>], node: &Node) -> Result<&'f Tensor> {
        self.plan.input_value(values, node, 0).map_err(|_| missing("saved input", node))
    }

    /// The retained output of a node itself, through an in-place alias.
    fn saved_output<'f>(&self, values: &'f [Option<Tensor>], node: &Node) -> Result<&'f Tensor> {
        let holder = self.plan.resolve(node.id);
        values[holder.index()].as_ref().ok_or_else(|| missing("saved output", node))
    }

    /// The retained tensors that make up a node's first input: a rope's
    /// parts, or the one tensor of any other input.
    fn saved_parts<'f>(
        &self,
        values: &'f [Option<Tensor>],
        node: &Node,
    ) -> Result<Vec<&'f Tensor>> {
        self.plan.input_parts(values, node, 0).map_err(|_| missing("saved input", node))
    }

    /// The buffer the plan has the backward of `node` draw for the gradient
    /// of its input `k`, contents unspecified; `None` where it draws none.
    fn draw(&self, ws: &mut Workspace, node: &Node, k: usize) -> Result<Option<Tensor>> {
        let Some(slot) = self.plan.grad_draw(node.id, k) else { return Ok(None) };
        Ok(Some(ws.take(Some(slot), &self.graph.node(node.inputs[k])?.output_shape)))
    }

    /// Adds `grad`, drawn from slot `home`, into the gradient of `id`: taken
    /// over when `id` holds none yet, summed in and handed back otherwise. A
    /// concatenation holds none: each of its parts takes its channel range
    /// of `grad`, in order, in the buffer the plan gives the part's gradient.
    fn accumulate(
        &self,
        ws: &mut Workspace,
        d_vals: &mut [Option<Tensor>],
        id: NodeId,
        grad: Tensor,
        home: Option<usize>,
    ) -> Result<()> {
        let Some(parts) = self.plan.concat_parts(id) else {
            match d_vals[id.index()].as_mut() {
                Some(existing) => {
                    ops::add_assign(existing, &grad).map_err(TrainError::Tensor)?;
                    ws.give(home, grad);
                }
                None => {
                    debug_assert_eq!(self.plan.grad_slot(id), home, "{id} takes over its buffer");
                    d_vals[id.index()] = Some(grad);
                }
            }
            return Ok(());
        };
        let mut offset = 0;
        for part in parts.iter().map(|&part| NodeId::new(part)) {
            let (mut part_grad, add) = match d_vals[part.index()].take() {
                Some(part_grad) => (part_grad, true),
                None => {
                    let shape = &self.graph.node(part)?.output_shape;
                    (ws.take(self.plan.grad_slot(part), shape), false)
                }
            };
            GradPart { grad: &mut part_grad, add }.take_channels(&grad, offset)?;
            offset += part_grad.shape().c();
            d_vals[part.index()] = Some(part_grad);
        }
        ws.give(home, grad);
        Ok(())
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
    /// training, the running ones (what serving reads) in eval.
    fn publish_stats(
        &self,
        mode: StatsMode,
        id: NodeId,
        x: ChannelRope<'_>,
        one_pass: bool,
    ) -> Result<Cow<'_, ChannelStats>> {
        match mode {
            StatsMode::Batch => Ok(Cow::Owned(bn_statistics(x, one_pass)?)),
            StatsMode::Running => self.running_stats_of(id),
        }
    }

    /// Node `id`'s running statistics, borrowed: an eval pass copies none.
    fn running_stats_of(&self, id: NodeId) -> Result<Cow<'_, ChannelStats>> {
        self.running
            .get(id)
            .map(|running| Cow::Borrowed(&**running))
            .ok_or_else(|| TrainError::Missing(format!("running statistics for {id}")))
    }

    /// The statistics a `SubBnStats` or `ConcatStats` node publishes. In
    /// training they are assembled: every part an earlier node published
    /// with the same estimator is copied from it (a channel's statistics
    /// depend on its planes alone, so the bits are the sweep's), and one
    /// sweep covers the rest. Eval reads the node's own running statistics.
    fn assembled_stats(
        &self,
        mode: StatsMode,
        id: NodeId,
        one_pass: bool,
        values: &[Option<Tensor>],
        stats: &[Option<Cow<'_, ChannelStats>>],
    ) -> Result<Cow<'_, ChannelStats>> {
        if mode == StatsMode::Running {
            return self.running_stats_of(id);
        }
        let assembly = self.plan.stats_assembly(id).ok_or_else(|| {
            TrainError::Missing(format!("statistics assembly of {id} in the plan"))
        })?;
        let swept: Vec<usize> =
            assembly.iter().filter(|p| p.published.is_none()).map(|p| p.tensor.index()).collect();
        let swept = match swept.is_empty() {
            true => None,
            false => {
                let parts = self.plan.part_values(values, &swept)?;
                Some(bn_statistics(ChannelRope::new(&parts)?, one_pass)?)
            }
        };
        let channels = assembly.iter().map(|p| p.channels).sum();
        let mut out = ChannelStats::zeros(0);
        out.mean.reserve(channels);
        out.var.reserve(channels);
        let mut next_swept = 0;
        for part in assembly {
            let (source, from) = match part.published {
                Some((node, offset)) => (stats[node.index()].as_deref(), offset),
                None => {
                    next_swept += part.channels;
                    (swept.as_ref(), next_swept - part.channels)
                }
            };
            let source =
                source.ok_or_else(|| TrainError::Missing(format!("statistics for {id}")))?;
            out.mean.extend_from_slice(&source.mean[from..from + part.channels]);
            out.var.extend_from_slice(&source.var[from..from + part.channels]);
            out.count = source.count;
        }
        Ok(Cow::Owned(out))
    }

    /// `x` as the convolution `node` reads it: its prologue, with the
    /// statistics on the node's second input and the γ/β the node owns.
    fn ifmap<'a>(
        &'a self,
        node: &Node,
        prologue: ConvPrologue,
        x: ChannelRope<'a>,
        stats: &'a [Option<Cow<'_, ChannelStats>>],
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
        let mut ws = lock(&self.workspace);
        let mut seed = ws.take(self.plan.slot(data_id), data.shape());
        seed.as_mut_slice().copy_from_slice(data.as_slice());
        let walk = self.walk(&mut ws, data_id, seed, Some(labels), mode, None)?;
        drop(ws);

        let Walk { values, stats, states, loss, scores } = walk;
        let scores = scores.ok_or_else(|| TrainError::Missing("softmax loss node".to_string()))?;
        let accuracy = accuracy(&scores, labels)?;
        // The result outlives the borrow: an eval pass copies its running
        // statistics here.
        let stats = stats.into_iter().map(|s| s.map(|s| Cow::Owned(s.into_owned()))).collect();
        let (labels, home) = (labels.to_vec(), Arc::clone(&self.workspace));
        let (values, plan) = (RefCell::new(values), Arc::clone(&self.plan));
        Ok(ForwardResult { loss, accuracy, scores, values, stats, states, labels, plan, home })
    }

    /// Runs the eval-mode forward of a graph without a loss head (see
    /// [`Executor::for_inference`]) on a batch of any `n ≥ 1` samples
    /// shaped like the data input's, and returns the output of the last
    /// node in execution order — a frozen graph's one sink. The batch
    /// moves in as the data input's tensor. With `profiler` given and
    /// enabled, the walk times every plan position into the slot of that
    /// position; a disabled profiler costs one relaxed load per pass.
    ///
    /// # Errors
    /// Returns [`TrainError::InvalidArgument`] when the batch is not `n ×`
    /// the data input's sample shape, and an error when a node cannot be
    /// executed (a loss head has no labels here).
    pub fn infer(&self, data: Tensor, profiler: Option<&OpProfiler>) -> Result<Tensor> {
        let data_id = self.data_input()?;
        let expected = &self.graph.node(data_id)?.output_shape;
        match (data.shape().dims().split_first(), expected.dims().split_first()) {
            (Some((&n, sample)), Some((_, want))) if n > 0 && sample == want => {}
            _ => {
                return Err(TrainError::InvalidArgument(format!(
                    "input shape {} is not n × the sample of {expected}",
                    data.shape()
                )))
            }
        }
        let output = self.plan.order().last().map(|&id| self.plan.resolve(id));
        let output = output.ok_or_else(|| TrainError::Missing("output node".to_string()))?;
        let mut ws = lock(&self.workspace);
        let mut walk = self.walk(&mut ws, data_id, data, None, StatsMode::Running, profiler)?;
        walk.values[output.index()].take().ok_or_else(|| {
            TrainError::Missing(format!("the output of {output}, which the plan does not pin"))
        })
    }

    /// The one forward walk: `data` is the data input's tensor, and its
    /// batch sizes every feature map the walk allocates.
    fn walk(
        &self,
        ws: &mut Workspace,
        data_id: NodeId,
        data: Tensor,
        labels: Option<&[usize]>,
        mode: StatsMode,
        profiler: Option<&OpProfiler>,
    ) -> Result<Walk<'_>> {
        let batch = data.shape().dims().first().copied().unwrap_or(1);
        let n = self.graph.node_count();
        let mut values: Vec<Option<Tensor>> = vec![None; n];
        let mut stats: Published<'_> = vec![None; n];
        let mut states: Vec<Option<NodeState>> = (0..n).map(|_| None).collect();
        let mut loss = 0.0f32;
        let mut scores: Option<Tensor> = None;
        values[data_id.index()] = Some(data);
        // One relaxed load decides whether any position is timed.
        let timed = profiler.filter(|p| p.enabled());

        for (pos, &id) in self.plan.order().iter().enumerate() {
            let began = timed.map(|_| Instant::now());
            let node = self.graph.node(id)?;
            let input = || self.plan.input_value(&values, node, 0);
            // What an arm that reads planes is handed: a rope's parts, or
            // the one tensor of any other input.
            let parts = || self.plan.input_parts(&values, node, 0);
            if matches!(node.op, OpKind::Input | OpKind::Split { .. }) {
                // Label inputs carry no tensor, the data input is seeded,
                // and a Split is a pointer pass resolved through the plan.
            } else if self.plan.clips_in_place(id) {
                let x = values[self.plan.resolve(id).index()].as_mut();
                relu_forward_inplace(x.ok_or_else(|| missing("input to clip", node))?);
            } else if self.plan.liveness(id).is_none() {
                // A node without a buffer: a rope, whose consumers read its
                // parts, or at inference a statistics node, whose value is
                // the running statistics. What it publishes is all that runs.
                if let Some(bn) = node.op.stats_out() {
                    let s = self.assembled_stats(mode, id, bn.one_pass_stats, &values, &stats)?;
                    stats[id.index()] = Some(s);
                }
            } else {
                // Every other node fills the one output buffer allocated
                // for it here.
                let mut out = ws.take(self.plan.slot(id), &out_shape(node, batch));
                match (node.op.form(), &node.op) {
                    (OpForm::Conv { attrs, prologue, stats_out }, _) => {
                        let parts = parts()?;
                        let x = self.ifmap(node, prologue, ChannelRope::new(&parts)?, &stats)?;
                        let (w, b) = self.conv_params(node)?;
                        // Epilogue: single-sweep statistics ride the output
                        // write; two-pass ones re-sweep the finished ofmap.
                        let rides = mode == StatsMode::Batch
                            && stats_out.is_some_and(|bn| bn.one_pass_stats);
                        stats[id.index()] =
                            match fused_conv_forward_into(x, w, b, &attrs, rides, &mut out)? {
                                None if stats_out.is_some() => {
                                    Some(self.publish_stats(mode, id, (&out).into(), false)?)
                                }
                                ridden => ridden.map(Cow::Owned),
                            };
                    }
                    (OpForm::Norm { bn, stats_from_input, relu }, _) => {
                        let parts = parts()?;
                        let x = ChannelRope::new(&parts)?;
                        if stats_from_input {
                            stats[id.index()] =
                                Some(self.publish_stats(mode, id, x, bn.one_pass_stats)?);
                        }
                        let s = node_stats(&stats, node, stats_from_input)?;
                        let params = self.bn_params(node)?;
                        normalize_sweep_into(x, s, params, bn.epsilon, relu, None, &mut out)?;
                    }
                    (_, OpKind::SubBnStats(attrs)) => {
                        let one_pass = attrs.one_pass_stats;
                        let s = self.assembled_stats(mode, id, one_pass, &values, &stats)?;
                        let (mean, var) = out.as_mut_slice().split_at_mut(s.channels());
                        mean.copy_from_slice(&s.mean);
                        var.copy_from_slice(&s.var);
                        stats[id.index()] = Some(s);
                    }
                    (_, OpKind::Relu) => relu_forward_into(input()?, &mut out)?,
                    (_, OpKind::Pool { kind: PoolKind::Max, attrs }) => match mode {
                        StatsMode::Batch => {
                            let state = max_pool_forward_argmax_into(input()?, attrs, &mut out)?;
                            states[id.index()] = Some(NodeState::MaxPool(state));
                        }
                        // No backward follows an eval pass: no argmax.
                        StatsMode::Running => max_pool_forward_into(input()?, attrs, &mut out)?,
                    },
                    (_, OpKind::Pool { kind: PoolKind::Average, attrs }) => {
                        avg_pool_forward_into(input()?, attrs, &mut out)?;
                    }
                    (_, OpKind::GlobalAvgPool) => {
                        global_avg_pool_forward_into(input()?, &mut out)?;
                    }
                    (_, OpKind::Concat | OpKind::ConcatStats(_)) => {
                        // A consumer that reads no planes: the parts are
                        // copied into the concatenation's own buffer.
                        let parts = self.plan.concat_parts(id).unwrap_or_default();
                        ChannelRope::new(&self.plan.part_values(&values, parts)?)?
                            .copy_into(&mut out)?;
                        if let OpKind::ConcatStats(bn) = node.op {
                            let one_pass = bn.one_pass_stats;
                            let s = self.assembled_stats(mode, id, one_pass, &values, &stats)?;
                            stats[id.index()] = Some(s);
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
                        let labels = labels.ok_or_else(|| missing("labels", node))?;
                        let x = input()?;
                        let state = softmax_loss_forward(x, labels)?;
                        loss = state.loss;
                        scores = Some(x.clone());
                        states[id.index()] = Some(NodeState::Softmax(state));
                        out.fill(loss);
                    }
                    // Every training convolution and normalization decoded
                    // above; what is left are the retired inference operators.
                    _ => return Err(untrainable(node)),
                }
                values[id.index()] = Some(out);
            }
            ws.release(&self.plan, &mut values, self.plan.released_after(pos));
            if let (Some(profiler), Some(began)) = (timed, began) {
                profiler.record(pos, began.elapsed().as_nanos() as u64);
            }
        }
        Ok(Walk { values, stats, states, loss, scores })
    }

    /// Runs the backward pass, producing parameter gradients. Every
    /// gradient buffer comes from the bin the plan names and returns to it
    /// as soon as a node's backward has consumed it, and every output `fwd`
    /// retains returns to its bin right after the backward of its last
    /// reader — so `fwd` comes out holding none ([`ForwardResult::output`]
    /// is `None` throughout), with its statistics intact for
    /// [`Executor::update_running_stats`].
    ///
    /// # Errors
    /// Returns an error if the forward result does not match this graph,
    /// [`TrainError::Missing`] if its backward has already run, and
    /// [`TrainError::InvalidArgument`] while one of its outputs is borrowed.
    pub fn backward(&self, fwd: &ForwardResult) -> Result<Gradients> {
        let mut values = fwd.values.try_borrow_mut().map_err(|_| {
            TrainError::InvalidArgument("an output of the forward result is borrowed".to_string())
        })?;
        if values.is_empty() {
            return Err(TrainError::Missing(
                "saved activations of a forward result whose backward has run".to_string(),
            ));
        }
        let mut d_vals: Vec<Option<Tensor>> = vec![None; self.graph.node_count()];
        let mut per_node: HashMap<usize, NodeParamGrads> = HashMap::new();
        let (plan, ws) = (&*self.plan, &mut *lock(&self.workspace));

        for (pos, &id) in plan.order().iter().enumerate().rev() {
            // The backward just run, at `pos + 1`, read these for the last
            // time: the gradients still to come can have their storage.
            ws.release(plan, &mut values, plan.released_after_backward(pos + 1));
            let node = self.graph.node(id)?;
            let state = fwd.states.get(id.index()).and_then(Option::as_ref);
            // The buffer the plan draws for the gradient of the node's first
            // input (every kernel overwrites it).
            let input_grad =
                |ws: &mut Workspace| self.draw(ws, node, 0)?.ok_or_else(|| missing("buffer", node));
            if matches!(node.op, OpKind::SoftmaxLoss) {
                let Some(NodeState::Softmax(state)) = state else {
                    return Err(missing("forward state", node));
                };
                let mut d_scores = input_grad(ws)?;
                softmax_loss_backward_into(state, &fwd.labels, &mut d_scores)?;
                self.accumulate(ws, &mut d_vals, node.inputs[0], d_scores, plan.grad_draw(id, 0))?;
                continue;
            }
            let Some(mut grad) = d_vals[id.index()].take() else {
                continue;
            };
            // A gradient the plan gave no slot is one its replay never saw.
            let home = Some(plan.grad_slot(id).ok_or_else(|| missing("gradient slot", node))?);
            // Each arm yields the gradient of the node's first input, if any,
            // or passes on the gradient it owns, in place.
            let d_x = match (node.op.form(), &node.op) {
                (OpForm::Conv { attrs, prologue, .. }, _) => {
                    let parts = self.saved_parts(&values, node)?;
                    let x = self.ifmap(node, prologue, ChannelRope::new(&parts)?, &fwd.stats)?;
                    let (w, b) = self.conv_params(node)?;
                    // The plan draws none for the stem: its GEMM is skipped.
                    // Anywhere else that would drop a gradient, so it fails
                    // (an absorbed BN's kernel fails on its own).
                    let mut d_x = self.draw(ws, node, 0)?;
                    let x_op = &self.graph.node(plan.resolve(node.inputs[0]))?.op;
                    if d_x.is_none() && !matches!(x_op, OpKind::Input) {
                        return Err(missing("input gradient buffer", node));
                    }
                    let grads =
                        fused_conv_backward_into(x, &grad, w, &attrs, b.is_some(), d_x.as_mut())?;
                    per_node.insert(id.index(), grads.into());
                    d_x
                }
                (OpForm::Norm { bn, stats_from_input, relu }, _) => {
                    let parts = self.saved_parts(&values, node)?;
                    let x = ChannelRope::new(&parts)?;
                    let s = node_stats(&fwd.stats, node, stats_from_input)?;
                    let params = self.bn_params(node)?;
                    let BnParamGrads { d_gamma, d_beta } =
                        norm_backward_inplace(&mut grad, x, s, params, bn.epsilon, relu)?;
                    per_node.insert(id.index(), NodeParamGrads::Bn { d_gamma, d_beta });
                    self.accumulate(ws, &mut d_vals, node.inputs[0], grad, home)?;
                    continue;
                }
                (_, OpKind::Relu | OpKind::Split { .. }) => {
                    // A ReLU masks the gradient it owns with its output
                    // (`max(y, 0) > 0` exactly where `y > 0`); through a
                    // Split it flows unchanged. Either way it is moved, not
                    // copied.
                    if matches!(node.op, OpKind::Relu) {
                        relu_backward_inplace(&mut grad, self.saved_output(&values, node)?)?;
                    }
                    self.accumulate(ws, &mut d_vals, node.inputs[0], grad, home)?;
                    continue;
                }
                (_, OpKind::EltwiseSum) => {
                    let (last, rest) = node.inputs.split_last().expect("eltwise sum has inputs");
                    for (k, input) in rest.iter().enumerate() {
                        // The plan draws a copy for an input that holds no
                        // gradient yet (a concatenation never does); the
                        // others sum by reference.
                        match self.draw(ws, node, k)? {
                            Some(mut copy) => {
                                copy.as_mut_slice().copy_from_slice(grad.as_slice());
                                let copy_home = plan.grad_draw(id, k);
                                self.accumulate(ws, &mut d_vals, *input, copy, copy_home)?;
                            }
                            None => {
                                let sum = d_vals[input.index()].as_mut();
                                let sum = sum.ok_or_else(|| missing("input gradient", node))?;
                                ops::add_assign(sum, &grad).map_err(TrainError::Tensor)?;
                            }
                        }
                    }
                    self.accumulate(ws, &mut d_vals, *last, grad, home)?;
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
                    let mut d_x = input_grad(ws)?;
                    max_pool_backward_into(&grad, state, &mut d_x)?;
                    Some(d_x)
                }
                (_, OpKind::Pool { kind: PoolKind::Average, attrs }) => {
                    let mut d_x = input_grad(ws)?;
                    avg_pool_backward_into(&grad, attrs, &mut d_x)?;
                    Some(d_x)
                }
                (_, OpKind::GlobalAvgPool) => {
                    let mut d_x = input_grad(ws)?;
                    global_avg_pool_backward_into(&grad, &mut d_x)?;
                    Some(d_x)
                }
                (_, OpKind::FullyConnected { .. }) => {
                    let (x, (w, _)) = (self.saved_input(&values, node)?, self.fc_params(node)?);
                    let mut d_x = input_grad(ws)?;
                    let (d_weights, d_bias) = fc_backward_into(x, w, &grad, &mut d_x)?;
                    per_node.insert(id.index(), NodeParamGrads::Fc { d_weights, d_bias });
                    Some(d_x)
                }
                _ => return Err(untrainable(node)),
            };
            if let Some(d_x) = d_x {
                self.accumulate(ws, &mut d_vals, node.inputs[0], d_x, plan.grad_draw(id, 0))?;
            }
            // The incoming gradient is consumed: hand its buffer back.
            ws.give(home, grad);
        }
        ws.release(plan, &mut values, plan.released_after_backward(0));
        // Marks the result spent: nothing is left for a second backward.
        values.clear();

        Ok(Gradients { per_node })
    }
}

/// `node`'s output shape in a walk over `batch` samples: a feature map
/// leads with the batch; a statistics node's 2×C summary and the loss do
/// not.
fn out_shape(node: &Node, batch: usize) -> Cow<'_, Shape> {
    let dims = node.output_shape.dims();
    match dims.split_first() {
        Some((&n, sample))
            if n != batch && !matches!(node.op, OpKind::SubBnStats(_) | OpKind::SoftmaxLoss) =>
        {
            Cow::Owned(Shape::new([&[batch], sample].concat()))
        }
        _ => Cow::Borrowed(&node.output_shape),
    }
}

fn missing(what: &str, node: &Node) -> TrainError {
    TrainError::Missing(format!("{what} for '{}'", node.name))
}

fn untrainable(node: &Node) -> TrainError {
    TrainError::Unsupported(format!("'{}' is a {}, which no pass emits", node.name, node.op))
}

/// The statistics `node` normalizes with: the ones it published itself
/// (`own`) or those on its second input.
fn node_stats<'a>(
    stats: &'a [Option<Cow<'_, ChannelStats>>],
    node: &Node,
    own: bool,
) -> Result<&'a ChannelStats> {
    let source = if own { node.id } else { node.inputs[1] };
    stats[source.index()].as_deref().ok_or_else(|| missing("statistics", node))
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

    /// The CIFAR zoo at `batch` under every fusion level, each with an
    /// executor and a batch for it.
    fn cifar_zoo(batch: usize) -> Vec<(bnff_core::FusionLevel, Executor, Tensor, Vec<usize>)> {
        let zoo = [
            bnff_models::densenet_cifar(batch, 8, 2, 10).unwrap(),
            bnff_models::resnet_cifar(batch, 1, 10).unwrap(),
        ];
        let data = Initializer::seeded(31).uniform(Shape::nchw(batch, 3, 32, 32), -1.0, 1.0);
        let labels: Vec<usize> = (0..batch).map(|i| i % 10).collect();
        let levels = bnff_core::FusionLevel::all();
        let cases = zoo.iter().flat_map(|g| levels.iter().map(move |&level| (g, level)));
        cases
            .map(|(baseline, level)| {
                let graph = bnff_core::BnffOptimizer::new(level).apply(baseline).unwrap();
                (level, Executor::new(graph, 29).unwrap(), data.clone(), labels.clone())
            })
            .collect()
    }

    /// The bytes the bins hold and the takes that allocated so far.
    fn footprint(exec: &Executor) -> (usize, usize) {
        let ws = exec.workspace.lock().unwrap();
        (ws.bins.iter().flatten().map(|bin| 4 * bin.capacity()).sum(), ws.allocations)
    }

    #[test]
    fn a_warmed_step_holds_exactly_the_planned_peak_and_allocates_nothing() {
        for (level, exec, data, labels) in [2, 8].into_iter().flat_map(cifar_zoo) {
            let context = format!("{} {level:?} batch {}", exec.graph().name(), labels.len());
            let step = || exec.backward(&exec.forward(&data, &labels).unwrap()).unwrap();
            step();
            let (bytes, allocations) = footprint(&exec);
            assert_eq!(bytes, exec.plan().planned_peak_bytes(), "{context}");
            step();
            assert_eq!(footprint(&exec), (bytes, allocations), "{context}: the second step");
        }
    }

    #[test]
    fn workspace_recycles_buffers_across_steps() {
        let exec = Executor::new(tiny_classifier(4), 15).unwrap();
        let (data, labels) = random_batch(4, 4, 16);
        let fwd = exec.forward(&data, &labels).unwrap();
        let _ = exec.backward(&fwd).unwrap();
        drop(fwd);
        let (_, before) = footprint(&exec);
        assert!(before > 0, "a cold step fills the bins");
        let fwd = exec.forward(&data, &labels).unwrap();
        let _ = exec.backward(&fwd).unwrap();
        assert_eq!(footprint(&exec).1, before, "second step should reuse the binned buffers");
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
            let (bytes, allocations) = footprint(&exec);
            step();
            // Nothing tensor-sized came from malloc, every buffer a step
            // took is back in its bin, and the bins hold no more than the
            // plan's peak: a working set, not a graveyard that grows.
            assert_eq!(footprint(&exec), (bytes, allocations), "{level:?}");
            assert!(exec.workspace.lock().unwrap().bins.iter().all(Option::is_some), "{level:?}");
            assert!(bytes <= exec.plan().planned_peak_bytes(), "{level:?}: {bytes} B held");
        }
    }

    #[test]
    fn a_forward_result_holds_exactly_what_the_plan_pins() {
        // For the CIFAR zoo at every level: on a warmed executor the
        // retained outputs are the plan's saved bytes, each taken from its
        // own bin and nothing allocated with them, and no convolution or
        // normalization adds state of its own.
        for (level, exec, data, labels) in cifar_zoo(2) {
            exec.backward(&exec.forward(&data, &labels).unwrap()).unwrap();
            let (_, allocations) = footprint(&exec);
            let fwd = exec.forward(&data, &labels).unwrap();
            let (plan, values) = (exec.plan(), fwd.values.borrow());
            let held: Vec<NodeId> =
                (0..values.len()).filter(|&i| values[i].is_some()).map(NodeId::new).collect();
            assert!(held.iter().all(|&id| plan.liveness(id).unwrap().saved_for_backward));
            let bytes: usize = values.iter().flatten().map(Tensor::bytes).sum();
            assert_eq!(bytes, plan.saved_bytes(), "{level:?}");
            let ws = exec.workspace.lock().unwrap();
            let emptied: Vec<usize> =
                (0..ws.bins.len()).filter(|&s| ws.bins[s].is_none()).collect();
            let mut slots: Vec<usize> = held.iter().map(|&id| plan.slot(id).unwrap()).collect();
            slots.sort_unstable();
            assert_eq!(emptied, slots, "{level:?}: the bins the retained outputs came from");
            assert_eq!(ws.allocations, allocations, "{level:?}");
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
    fn a_spent_forward_result_holds_no_output_and_refuses_a_second_backward() {
        for level in [bnff_core::FusionLevel::Baseline, bnff_core::FusionLevel::BnffIcf] {
            let (mut exec, data, labels) = densenet(level);
            let fwd = exec.forward(&data, &labels).unwrap();
            let saved: Vec<NodeId> =
                exec.graph().nodes().map(|n| n.id).filter(|&id| exec.plan().is_saved(id)).collect();
            assert!(saved.iter().all(|&id| fwd.output(id).is_some()), "{level:?}");
            {
                // A held output guard makes a backward a typed error.
                let _guard = fwd.output(saved[0]).unwrap();
                let busy = exec.backward(&fwd);
                assert!(matches!(busy, Err(TrainError::InvalidArgument(_))), "{level:?}");
            }
            exec.backward(&fwd).unwrap();
            for &id in &saved {
                assert!(fwd.output(id).is_none(), "{level:?}: {id} is still retained");
            }
            exec.update_running_stats(&fwd).unwrap();
            let again = exec.backward(&fwd);
            assert!(matches!(again, Err(TrainError::Missing(_))), "{level:?}: {again:?}");
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
                let swept = bn_statistics(&*fwd.output(id).unwrap(), one_pass).unwrap();
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
    fn an_eval_pass_keeps_no_max_pool_argmax() {
        // Nothing backward reads follows an eval pass, so its max pool runs
        // the argmax-free kernel: same scores, no state.
        let mut b = GraphBuilder::new("pooled");
        let x = b.input("data", Shape::nchw(2, 3, 8, 8)).unwrap();
        let labels = b.input("labels", Shape::vector(2)).unwrap();
        let c = b.conv2d(x, Conv2dAttrs::same_3x3(4), "conv").unwrap();
        let pool = b.max_pool(c, bnff_graph::op::PoolAttrs::new(2, 2, 0), "pool").unwrap();
        let gap = b.global_avg_pool(pool, "gap").unwrap();
        let fc = b.fully_connected(gap, 4, "fc").unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        let exec = Executor::new(b.finish(), 11).unwrap();
        let (data, labels) = random_batch(2, 4, 12);
        let train = exec.forward(&data, &labels).unwrap();
        let eval = exec.forward_eval(&data, &labels).unwrap();
        assert!(matches!(train.states[pool.index()], Some(NodeState::MaxPool(_))));
        assert!(eval.states[pool.index()].is_none());
        assert_eq!(train.scores.as_slice(), eval.scores.as_slice(), "no BN: same scores");
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
