//! Memory planning: liveness analysis over the topological order and greedy
//! interval-based buffer-slot assignment.
//!
//! The cost analysis ([`crate::analysis`]) counts how many bytes a training
//! iteration *sweeps*; this module plans how many bytes it must *hold*.
//! Naive allocation materializes one output buffer per node and keeps all
//! of them until the backward pass finishes. Most of those tensors are dead
//! long before that: once the last forward consumer has read an activation
//! that the backward pass does not revisit, its buffer can be recycled.
//!
//! The planner walks the topological order and computes, per node output:
//!
//! 1. **Forward liveness** — the interval from the producing node to its
//!    last forward consumer. Some nodes own no buffer and extend other
//!    nodes' intervals instead: a Split is an alias of its input; so is a
//!    ReLU whose input — through Splits — nothing else reads (and which is
//!    no data input and no ReLU's output): it clips that tensor in place;
//!    and a concatenation whose consumers all read planes is a *channel
//!    rope* of its inputs (`crate::rope`): every edge into it is an edge
//!    into each of its (flattened) parts. A concatenation with any other
//!    consumer owns a buffer its parts are copied into, and reads them at
//!    its own position. Training and inference plans share all of this;
//!    an inference plan retains nothing for a backward pass, and its
//!    statistics nodes own no tensor (their value is the running
//!    statistics).
//! 2. **Backward retention** — whether the backward pass re-reads the
//!    tensor. Two rules. Every convolution, every normalization and
//!    fully-connected layers re-read their *first input* and nothing else
//!    — through a rope, every part of it. A ReLU re-reads its own *output*:
//!    `max(y, 0) > 0` exactly where `y > 0`, NaN and ±0 included, so the
//!    mask is the same bits, and the tensor is the one its consumer pins
//!    anyway (clipped in place, it is its input's buffer). A convolution
//!    with a prologue recomputes the clipped / normalized ifmap from its raw
//!    input, and a normalization — standalone or absorbed — recomputes `x̂`
//!    and its ReLU mask from its raw input and the 2×C statistics, so no
//!    operator keeps a feature map of its own and the plan's saved tensors
//!    are everything a forward result holds. Pooling needs only shapes, and
//!    a concatenation's gradient goes straight to its parts'. Retained
//!    tensors are excluded from the forward's reuse; the backward hands
//!    each back once its *last backward reader* — the reader earliest in
//!    forward order — has run ([`ExecutionPlan::released_after_backward`]),
//!    so the gradients born after it reuse its storage.
//! 3. **Slot assignment** — transient tensors are packed into reusable
//!    buffer slots with a greedy best-fit over their live intervals, giving
//!    the arena capacity an executor needs and the planned peak bytes
//!    reported next to the naive per-node-allocation total.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::{Node, NodeId};
use crate::op::{OpForm, OpKind};
use crate::rope::{ChannelRopes, StatsPart};
use crate::Result;
use bnff_tensor::{Shape, Tensor};
use serde::Serialize;

/// Liveness of one node's output tensor within a training step.
#[derive(Debug, Clone, Serialize)]
pub struct TensorLiveness {
    /// Topological position at which the tensor is produced.
    pub def: usize,
    /// Topological position of the last forward read.
    pub last_use: usize,
    /// Size of the tensor in bytes.
    pub bytes: usize,
    /// Whether the backward pass re-reads the tensor (keeping it alive
    /// through the forward and into the backward, until its last backward
    /// reader).
    pub saved_for_backward: bool,
}

/// Compact, serializable view of a plan's memory accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MemoryPlanSummary {
    /// Peak bytes the planned execution holds at once: tensors retained for
    /// the backward pass plus the reuse arena's slot capacities.
    pub planned_peak_bytes: usize,
    /// Bytes a naive one-buffer-per-node execution holds (the sum of every
    /// node output, all alive simultaneously at the end of forward).
    pub naive_total_bytes: usize,
    /// Bytes retained for the backward pass.
    pub saved_bytes: usize,
    /// Total capacity of the reusable buffer slots.
    pub arena_bytes: usize,
    /// Number of reusable buffer slots.
    pub slots: usize,
    /// Number of planned (tensor-producing) nodes.
    pub tensors: usize,
}

/// The memory plan of one graph: execution order, per-output liveness,
/// buffer-slot assignment and release schedule.
///
/// Both metrics cover the node *output* tensors the executor materializes —
/// every feature map a training step holds. The only other backward state
/// (max-pool argmax indices, softmax probabilities) is identical between the
/// naive and the planned execution and is not part of the comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ExecutionPlan {
    order: Vec<NodeId>,
    /// Node index → topological position.
    position: Vec<usize>,
    /// Node index → alias target (a Split forwards its input's tensor, an
    /// in-place ReLU clips it).
    alias_of: Vec<Option<usize>>,
    /// Node index → the position of the ReLU that clips its tensor in place.
    clipped_at: Vec<Option<usize>>,
    /// The graph's concatenations as channel ropes.
    ropes: ChannelRopes,
    /// Node index → liveness of its own output (None for non-producers and
    /// aliases).
    liveness: Vec<Option<TensorLiveness>>,
    /// Node index → assigned reuse slot (None for saved / non-producers).
    slot: Vec<Option<usize>>,
    /// Topological position → producer node indices whose buffers die after
    /// that position executes.
    release_at: Vec<Vec<usize>>,
    /// Topological position → saved producer node indices the backward pass
    /// no longer reads once that position's backward has run.
    backward_release_at: Vec<Vec<usize>>,
    slot_bytes: Vec<usize>,
    naive_bytes: usize,
    saved_bytes: usize,
}

/// Whether a node materializes an output tensor at run time, aliases
/// aside.
///
/// Label inputs carry no tensor and Split is a pointer pass (an alias of
/// its input), so neither owns a buffer; at inference a statistics node's
/// value is a parameter, the running statistics.
fn produces_tensor(graph: &Graph, id: NodeId, mode: PlanMode) -> bool {
    match graph.node(id) {
        Ok(node) => match &node.op {
            OpKind::Input => node.output_shape.is_nchw(),
            OpKind::Split { .. } => false,
            OpKind::SubBnStats(_) => mode == PlanMode::Training,
            _ => true,
        },
        Err(_) => false,
    }
}

/// How the planner decides which tensors outlive their last forward use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanMode {
    /// Training: tensors the backward pass re-reads are retained.
    Training,
    /// Inference: nothing is retained for a backward pass; only the graph's
    /// final outputs are pinned (so the executor can hand them back instead
    /// of recycling their buffers).
    Inference,
}

/// Whether `op`'s backward pass re-reads the output tensor of its first
/// input (the saved ifmap of the cost analysis) — the only tensor any
/// backward but a ReLU's re-reads. Every training convolution and
/// normalization does: a prologue, `x̂` and a ReLU mask are recomputed from
/// the raw input, never stored.
fn backward_reads_first_input(op: &OpKind) -> bool {
    matches!(op.form(), OpForm::Conv { .. } | OpForm::Norm { .. })
        || matches!(op, OpKind::FullyConnected { .. })
}

/// How many nodes read `id`'s value: its consumers, a Split counted as its
/// own readers (as one when it has none).
fn readers(graph: &Graph, id: NodeId) -> Result<usize> {
    graph
        .consumers(id)
        .into_iter()
        .map(|consumer| match graph.node(consumer)?.op {
            OpKind::Split { .. } => Ok(readers(graph, consumer)?.max(1)),
            _ => Ok(1),
        })
        .sum()
}

/// The tensor the ReLU `relu` clips in place, if it may: its input,
/// through Splits, when nothing else reads it and it is neither the data
/// input (the caller's buffer at inference) nor a ReLU's output (which that
/// ReLU's backward re-reads). A concatenation a ReLU reads is never a rope:
/// a ReLU reads no planes.
fn clipped_in_place(graph: &Graph, relu: &Node) -> Result<Option<NodeId>> {
    let mut input = relu.inputs[0];
    while let OpKind::Split { .. } = graph.node(input)?.op {
        input = graph.node(input)?.inputs[0];
    }
    let sole = readers(graph, input)? == 1;
    Ok((sole && !matches!(graph.node(input)?.op, OpKind::Input | OpKind::Relu)).then_some(input))
}

impl ExecutionPlan {
    /// Plans buffer reuse for one training graph (backward-pass reads keep
    /// their tensors alive until the backward of their last reader).
    ///
    /// # Errors
    /// Returns an error if the graph is cyclic or references unknown nodes.
    pub fn for_graph(graph: &Graph) -> Result<ExecutionPlan> {
        Self::plan(graph, PlanMode::Training)
    }

    /// Plans buffer reuse for a forward-only (inference) execution: no
    /// tensor is retained for a backward pass, so every intermediate
    /// activation recycles through the arena; only the data input and the
    /// graph's final outputs are pinned. A `SubBnStats` owns no tensor:
    /// serving reads the running statistics in its place. Concatenations
    /// are ropes exactly as in a training plan.
    ///
    /// # Errors
    /// Returns an error if the graph is cyclic or references unknown nodes.
    pub fn for_inference(graph: &Graph) -> Result<ExecutionPlan> {
        Self::plan(graph, PlanMode::Inference)
    }

    fn plan(graph: &Graph, mode: PlanMode) -> Result<ExecutionPlan> {
        let order = graph.topo_order()?;
        let n = graph.node_count();
        let mut position = vec![0usize; n];
        for (pos, id) in order.iter().enumerate() {
            position[id.index()] = pos;
        }

        // Split nodes alias their input's tensor (chains collapse to the
        // first real producer), and so does a ReLU that clips its input in
        // place: from its position on, the tensor holds the ReLU's output.
        let mut alias_of: Vec<Option<usize>> = vec![None; n];
        let mut clipped_at: Vec<Option<usize>> = vec![None; n];
        for &id in &order {
            let node = graph.node(id)?;
            let target = match node.op {
                OpKind::Split { .. } => node.inputs[0].index(),
                OpKind::Relu => match clipped_in_place(graph, node)? {
                    Some(input) => {
                        clipped_at[input.index()] = Some(position[id.index()]);
                        input.index()
                    }
                    None => continue,
                },
                _ => continue,
            };
            alias_of[id.index()] = Some(alias_of[target].unwrap_or(target));
        }
        let resolve = |idx: usize| alias_of[idx].unwrap_or(idx);
        let ropes = ChannelRopes::of(graph)?;

        // Liveness: producers start at their own position; every consumer
        // edge extends the resolved producer's last forward use; backward
        // retention pins the tensor through the forward, and the backward
        // reader earliest in forward order — the first to pin it — is the
        // last to read it.
        let mut liveness: Vec<Option<TensorLiveness>> = vec![None; n];
        let mut backward_release_at: Vec<Vec<usize>> = vec![Vec::new(); order.len()];
        let mut naive_bytes = 0usize;
        for &id in &order {
            if alias_of[id.index()].is_some() || !produces_tensor(graph, id, mode) {
                continue;
            }
            let node = graph.node(id)?;
            if ropes.is_rope(id) {
                // Naive execution would still copy the parts into a buffer.
                naive_bytes += node.output_shape.bytes_f32();
                continue;
            }
            let pos = position[id.index()];
            // Everything else is pinned below. Inference pins the data input:
            // it is the caller's buffer, which no arena bin may take over.
            let saved = mode == PlanMode::Inference && matches!(node.op, OpKind::Input);
            liveness[id.index()] = Some(TensorLiveness {
                def: pos,
                last_use: pos,
                bytes: node.output_shape.bytes_f32(),
                saved_for_backward: saved,
            });
        }
        for &id in &order {
            let node = graph.node(id)?;
            let pos = position[id.index()];
            // A concatenation reads its flattened parts (a rope only when it
            // sweeps statistics); any other node reads its inputs, a rope
            // through its parts. A part may be an in-place ReLU: its
            // gradient is its own, its tensor its input's.
            let reads: Vec<(usize, usize)> = match ropes.parts(id) {
                Some(parts) => parts.iter().map(|&part| (1, resolve(part))).collect(),
                None => node
                    .inputs
                    .iter()
                    .enumerate()
                    .flat_map(|(slot, input)| {
                        let producer = resolve(input.index());
                        let parts = match ropes.is_rope(NodeId::new(producer)) {
                            true => ropes.parts(NodeId::new(producer)).unwrap_or_default(),
                            false => std::slice::from_ref(&producer),
                        };
                        parts.iter().map(move |&part| (slot, resolve(part))).collect::<Vec<_>>()
                    })
                    .collect(),
            };
            let mut pinned = Vec::new();
            for (slot, producer) in reads {
                let Some(live) = liveness[producer].as_mut() else { continue };
                live.last_use = live.last_use.max(pos);
                if slot == 0 && mode == PlanMode::Training && backward_reads_first_input(&node.op) {
                    pinned.push(producer);
                }
            }
            // A ReLU's backward masks with its own output. At inference
            // nothing is read again, but a sink's tensor is what the
            // executor returns instead of releasing it into the arena.
            let pins_own = match mode {
                PlanMode::Training => matches!(node.op, OpKind::Relu),
                PlanMode::Inference => graph.consumers(id).is_empty(),
            };
            if pins_own {
                pinned.push(resolve(id.index()));
            }
            for tensor in pinned {
                let Some(live) = liveness[tensor].as_mut() else { continue };
                if mode == PlanMode::Training && !live.saved_for_backward {
                    backward_release_at[pos].push(tensor);
                }
                live.saved_for_backward = true;
            }
        }

        // Greedy best-fit interval packing of the transient tensors into
        // reusable slots. A slot whose occupant died at position `p` is
        // available to tensors defined strictly after `p`.
        let mut slot: Vec<Option<usize>> = vec![None; n];
        let mut slots: Vec<(usize, usize)> = Vec::new(); // (bytes, free_from)
        let mut release_at: Vec<Vec<usize>> = vec![Vec::new(); order.len()];
        let mut saved_bytes = 0usize;
        for &id in &order {
            let idx = id.index();
            let Some(live) = liveness[idx].as_ref() else { continue };
            naive_bytes += live.bytes;
            if live.saved_for_backward {
                saved_bytes += live.bytes;
                continue;
            }
            release_at[live.last_use].push(idx);
            let mut best: Option<usize> = None;
            for (si, &(bytes, free_from)) in slots.iter().enumerate() {
                if free_from >= live.def {
                    continue;
                }
                best = match best {
                    // A slot that already fits beats one that must grow;
                    // among fitting slots take the smallest, among
                    // non-fitting the largest (least growth).
                    Some(b) => {
                        let (bb, _) = slots[b];
                        let better = if bytes >= live.bytes && bb >= live.bytes {
                            bytes < bb
                        } else if bytes >= live.bytes {
                            true
                        } else if bb >= live.bytes {
                            false
                        } else {
                            bytes > bb
                        };
                        Some(if better { si } else { b })
                    }
                    None => Some(si),
                };
            }
            let si = match best {
                Some(si) => {
                    slots[si].0 = slots[si].0.max(live.bytes);
                    slots[si].1 = live.last_use;
                    si
                }
                None => {
                    slots.push((live.bytes, live.last_use));
                    slots.len() - 1
                }
            };
            slot[idx] = Some(si);
        }

        Ok(ExecutionPlan {
            order,
            position,
            alias_of,
            clipped_at,
            ropes,
            liveness,
            slot,
            release_at,
            backward_release_at,
            slot_bytes: slots.into_iter().map(|(bytes, _)| bytes).collect(),
            naive_bytes,
            saved_bytes,
        })
    }

    /// The topological execution order the plan was computed over.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// The topological position of a node.
    pub fn position(&self, id: NodeId) -> usize {
        self.position[id.index()]
    }

    /// Resolves Split and in-place ReLU aliases to the node whose tensor is
    /// actually read.
    pub fn resolve(&self, id: NodeId) -> NodeId {
        match self.alias_of[id.index()] {
            Some(target) => NodeId::new(target),
            None => id,
        }
    }

    /// Whether `id` is a ReLU that clips its input's tensor in place.
    pub fn clips_in_place(&self, id: NodeId) -> bool {
        self.clipped_at[self.resolve(id).index()] == Some(self.position(id))
    }

    /// The node whose tensor holds `id`'s output once the forward has run:
    /// [`resolve`](Self::resolve)`(id)`, or `None` when a ReLU after `id`
    /// clipped that tensor in place, so it holds the ReLU's output instead.
    pub fn holder(&self, id: NodeId) -> Option<NodeId> {
        let tensor = self.resolve(id);
        match self.clipped_at[tensor.index()] {
            Some(clip) if self.position(id) < clip => None,
            _ => Some(tensor),
        }
    }

    /// Whether a node is a concatenation that owns no buffer: its value is
    /// its parts' tensors ([`ExecutionPlan::concat_parts`]).
    pub fn is_rope(&self, id: NodeId) -> bool {
        self.ropes.is_rope(id)
    }

    /// The producers a concatenation is made of, flattened through nested
    /// concatenations and Split aliases — the tensors its value is read
    /// from and its gradient is handed to; `None` for any other node.
    pub fn concat_parts(&self, id: NodeId) -> Option<&[usize]> {
        self.ropes.parts(id)
    }

    /// The parts a `SubBnStats` or `ConcatStats` assembles its statistics
    /// from (`crate::rope`).
    pub fn stats_assembly(&self, id: NodeId) -> Option<&[StatsPart]> {
        self.ropes.assembly(id)
    }

    /// Liveness of a node's own output tensor, if it produces one.
    pub fn liveness(&self, id: NodeId) -> Option<&TensorLiveness> {
        self.liveness.get(id.index()).and_then(Option::as_ref)
    }

    /// Whether a node's output is retained for the backward pass (at
    /// inference: pinned). A tensor a ReLU clipped in place retains the
    /// ReLU's output, not its producer's.
    pub fn is_saved(&self, id: NodeId) -> bool {
        let live = self.holder(id).and_then(|holder| self.liveness(holder));
        live.is_some_and(|live| live.saved_for_backward)
    }

    /// The reuse slot assigned to a transient node output.
    pub fn slot(&self, id: NodeId) -> Option<usize> {
        self.slot.get(id.index()).copied().flatten()
    }

    /// Producer node indices whose buffers die once the node at topological
    /// position `pos` has executed.
    pub(crate) fn released_after(&self, pos: usize) -> &[usize] {
        self.release_at.get(pos).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Saved producer node indices whose tensors the backward pass reads
    /// for the last time in the backward of the node at topological
    /// position `pos` — the earliest in forward order of the nodes whose
    /// backward reads them, directly, through a Split or as a rope's part.
    /// Every tensor the plan saves for backward appears exactly once.
    pub fn released_after_backward(&self, pos: usize) -> &[usize] {
        self.backward_release_at.get(pos).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Borrows the output tensor of `node`'s `idx`-th input out of an
    /// executor's per-node value vector, following Split aliases.
    ///
    /// # Errors
    /// Returns [`GraphError::MissingValue`] when nothing has produced it.
    pub fn input_value<'a>(
        &self,
        values: &'a [Option<Tensor>],
        node: &Node,
        idx: usize,
    ) -> Result<&'a Tensor> {
        let input = node.inputs[idx];
        values[self.resolve(input).index()].as_ref().ok_or(GraphError::MissingValue(input))
    }

    /// Borrows the output tensors of all of `node`'s inputs.
    ///
    /// # Errors
    /// As [`ExecutionPlan::input_value`].
    pub fn input_values<'a>(
        &self,
        values: &'a [Option<Tensor>],
        node: &Node,
    ) -> Result<Vec<&'a Tensor>> {
        (0..node.inputs.len()).map(|i| self.input_value(values, node, i)).collect()
    }

    /// Borrows the tensors that make up `node`'s `idx`-th input: a rope's
    /// parts, or the one tensor of any other input.
    ///
    /// # Errors
    /// As [`ExecutionPlan::input_value`].
    pub fn input_parts<'a>(
        &self,
        values: &'a [Option<Tensor>],
        node: &Node,
        idx: usize,
    ) -> Result<Vec<&'a Tensor>> {
        let input = self.resolve(node.inputs[idx]);
        match self.ropes.parts(input).filter(|_| self.is_rope(input)) {
            Some(parts) => self.part_values(values, parts),
            None => Ok(vec![self.input_value(values, node, idx)?]),
        }
    }

    /// Borrows the tensors of `parts` (producer indices), following
    /// in-place ReLU aliases.
    ///
    /// # Errors
    /// Returns [`GraphError::MissingValue`] when one was not produced.
    pub fn part_values<'a>(
        &self,
        values: &'a [Option<Tensor>],
        parts: &[usize],
    ) -> Result<Vec<&'a Tensor>> {
        let value = |p: NodeId| values[self.resolve(p).index()].as_ref();
        parts
            .iter()
            .map(|&p| value(NodeId::new(p)).ok_or(GraphError::MissingValue(NodeId::new(p))))
            .collect()
    }

    /// Allocates the output tensor of `id`: the recycled buffer in the arena
    /// bin of its plan slot when there is one (`arena` holds one bin per
    /// [`slot_count`](Self::slot_count)), a fresh tensor otherwise — the bin
    /// is empty, or the plan retains the output and gives it no slot.
    pub fn alloc_output(
        &self,
        arena: &mut [Option<Vec<f32>>],
        id: NodeId,
        shape: &Shape,
    ) -> Tensor {
        if let Some(mut buf) = self.slot(id).and_then(|slot| arena[slot].take()) {
            // Every kernel fed from the arena overwrites its whole output,
            // so only growth needs (zero-)initialization; the surviving
            // prefix is left dirty on purpose.
            buf.resize(shape.volume(), 0.0);
            return Tensor::from_vec(shape.clone(), buf)
                .expect("arena buffer resized to the shape's volume");
        }
        Tensor::zeros(shape.clone())
    }

    /// Moves every tensor whose last use was the node at topological
    /// position `pos` out of `values` and back into its arena bin.
    pub fn release_dead(
        &self,
        arena: &mut [Option<Vec<f32>>],
        values: &mut [Option<Tensor>],
        pos: usize,
    ) {
        for &dead in self.released_after(pos) {
            if let Some(tensor) = values[dead].take() {
                // The planner assigns every transient producer a slot, and
                // only transient producers appear in the release schedule.
                let slot =
                    self.slot(NodeId::new(dead)).expect("released tensors always have a plan slot");
                arena[slot] = Some(tensor.into_vec());
            }
        }
    }

    /// Number of reusable buffer slots.
    pub fn slot_count(&self) -> usize {
        self.slot_bytes.len()
    }

    /// Capacity in bytes of each reusable buffer slot.
    pub fn slot_sizes(&self) -> &[usize] {
        &self.slot_bytes
    }

    /// Peak bytes of node outputs the planned execution holds at once.
    pub fn planned_peak_bytes(&self) -> usize {
        self.saved_bytes + self.slot_bytes.iter().sum::<usize>()
    }

    /// Bytes of node outputs a naive one-buffer-per-node execution holds.
    pub fn naive_total_bytes(&self) -> usize {
        self.naive_bytes
    }

    /// Bytes retained for the backward pass.
    pub fn saved_bytes(&self) -> usize {
        self.saved_bytes
    }

    /// Upper bound on the bytes of activation gradients one backward pass
    /// holds at once: one gradient per node output, alive from the backward
    /// of that output's last consumer to the backward of its producer — the
    /// forward live interval, mirrored.
    pub fn gradient_peak_bytes(&self) -> usize {
        self.max_live(|live| live.last_use)
    }

    /// Lower bound on the bytes of node outputs any execution of the plan's
    /// order holds at once, [`planned_peak_bytes`](Self::planned_peak_bytes)
    /// included: the most bytes live at one position, a tensor retained for
    /// the backward (or pinned at inference) counting as live to the end of
    /// the forward.
    pub fn live_lower_bound_bytes(&self) -> usize {
        let end = self.order.len().saturating_sub(1);
        self.max_live(|live| if live.saved_for_backward { end } else { live.last_use })
    }

    /// The most bytes of node outputs live at one position, each alive from
    /// its definition through `until`.
    fn max_live(&self, until: impl Fn(&TensorLiveness) -> usize) -> usize {
        let mut live_at = vec![0usize; self.order.len()];
        for live in self.liveness.iter().flatten() {
            for bytes in &mut live_at[live.def..=until(live)] {
                *bytes += live.bytes;
            }
        }
        live_at.into_iter().max().unwrap_or(0)
    }

    /// The plan's memory accounting in one serializable record.
    pub fn summary(&self) -> MemoryPlanSummary {
        MemoryPlanSummary {
            planned_peak_bytes: self.planned_peak_bytes(),
            naive_total_bytes: self.naive_total_bytes(),
            saved_bytes: self.saved_bytes,
            arena_bytes: self.slot_bytes.iter().sum(),
            slots: self.slot_bytes.len(),
            tensors: self.liveness.iter().flatten().count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::op::{Conv2dAttrs, PoolAttrs};
    use bnff_tensor::Shape;

    fn conv_chain() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new("chain");
        let x = b.input("in", Shape::nchw(2, 8, 8, 8)).unwrap();
        let c1 = b.conv2d(x, Conv2dAttrs::pointwise(16), "conv1").unwrap();
        let bn = b.batch_norm_default(c1, "bn").unwrap();
        let r = b.relu(bn, "relu").unwrap();
        let c2 = b.conv2d(r, Conv2dAttrs::pointwise(8), "conv2").unwrap();
        (b.finish(), vec![x, c1, bn, r, c2])
    }

    /// `conv_chain` as the fusion passes leave it: statistics from conv1's
    /// epilogue, normalize+clip as conv2's prologue, then an RCF clip.
    fn fused_chain() -> (Graph, Vec<NodeId>) {
        let bn = crate::op::BatchNormAttrs::one_pass();
        let mut g = Graph::new("fused");
        let x = g.add_input("in", Shape::nchw(2, 8, 8, 8));
        let conv = Conv2dAttrs::pointwise(16);
        let c1 = g.add_node("conv1", OpKind::ConvStats { conv, bn }, vec![x]).unwrap();
        let conv = Conv2dAttrs::pointwise(8);
        let c2 = g.add_node("conv2", OpKind::NormReluConv { conv, bn }, vec![c1, c1]).unwrap();
        let c3 = g.add_node("conv3", OpKind::ReluConv(conv), vec![c2]).unwrap();
        (g, vec![x, c1, c2, c3])
    }

    #[test]
    fn backward_retention_follows_op_semantics() {
        let (g, ids) = conv_chain();
        let plan = ExecutionPlan::for_graph(&g).unwrap();
        // The data input is re-read by conv1's weight-gradient pass.
        assert!(plan.is_saved(ids[0]));
        // conv1's output is what BN's backward recomputes x̂ from.
        assert!(plan.is_saved(ids[1]));
        // relu's output is its own mask and conv2's saved ifmap. The ReLU
        // clips bn's tensor in place, so bn's output is not kept at all.
        assert!(!plan.is_saved(ids[2]));
        assert!(plan.is_saved(ids[3]));
        assert_eq!(plan.resolve(ids[3]), ids[2]);
        // conv2's output has no consumer and no backward reader.
        assert!(!plan.is_saved(ids[4]));
        assert_eq!(plan.saved_bytes(), (2 * 8 + 2 * 16 + 2 * 16) * 8 * 8 * 4);

        // A ReLU whose input something else reads too gets a buffer of its
        // own and pins that, not its input: a pool needs only shapes.
        let mut b = GraphBuilder::new("shared");
        let x = b.input("in", Shape::nchw(2, 8, 8, 8)).unwrap();
        let c1 = b.conv2d(x, Conv2dAttrs::pointwise(16), "conv1").unwrap();
        let bn = b.batch_norm_default(c1, "bn").unwrap();
        let r = b.relu(bn, "relu").unwrap();
        let gap = b.global_avg_pool(bn, "gap").unwrap();
        let g = b.finish();
        let plan = ExecutionPlan::for_graph(&g).unwrap();
        assert_eq!(plan.resolve(r), r);
        assert!(plan.is_saved(r) && !plan.is_saved(bn) && !plan.is_saved(gap));

        // A clipping normalization pins its input like any other — the mask
        // is recomputed — and nothing pins an operator's own output.
        let mut g = Graph::new("clipping");
        let x = g.add_input("in", Shape::nchw(2, 8, 8, 8));
        let bn = crate::op::BatchNormAttrs::one_pass();
        let stats = g.add_node("stats", OpKind::SubBnStats(bn), vec![x]).unwrap();
        let norm = g.add_node("norm", OpKind::NormRelu(bn), vec![x, stats]).unwrap();
        let pool = g.add_node("gap", OpKind::GlobalAvgPool, vec![norm]).unwrap();
        let plan = ExecutionPlan::for_graph(&g).unwrap();
        assert!(plan.is_saved(x), "the normalization re-reads its raw input");
        assert!(!plan.is_saved(stats) && !plan.is_saved(norm) && !plan.is_saved(pool));

        // A convolution with a prologue pins its raw input: backward
        // recomputes the normalized / clipped ifmap from it.
        let (g, ids) = fused_chain();
        let plan = ExecutionPlan::for_graph(&g).unwrap();
        assert!(plan.is_saved(ids[0]), "conv1 re-reads the data input");
        assert!(plan.is_saved(ids[1]), "the normalize+clip prologue pins conv1's output");
        assert!(plan.is_saved(ids[2]), "the clip prologue pins conv2's output");
        assert!(!plan.is_saved(ids[3]));
        assert_eq!(plan.saved_bytes(), (2 * 8 + 2 * 16 + 2 * 8) * 8 * 8 * 4);
    }

    #[test]
    fn saved_tensors_go_back_after_their_last_backward_reader() {
        // The backward schedule, position by position: what the backward of
        // the node there reads for the last time.
        let schedule = |plan: &ExecutionPlan| -> Vec<Vec<usize>> {
            (0..plan.order().len()).map(|pos| plan.released_after_backward(pos).to_vec()).collect()
        };
        // in(0) → conv1(1) → bn(2) → relu(3) → conv2(4): the data input
        // and conv1's output have one backward reader, their consumer. The
        // ReLU clips bn's tensor in place; conv2's backward reads it first,
        // the ReLU's own backward last.
        let (g, ids) = conv_chain();
        let plan = ExecutionPlan::for_graph(&g).unwrap();
        let [x, c1, bn] = [0, 1, 2].map(|i| ids[i].index());
        assert_eq!(schedule(&plan), [vec![], vec![x], vec![c1], vec![bn], vec![]]);

        // in(0) → conv1(1) → conv2(2) → conv3(3): conv2 reads conv1's output
        // twice (raw input and statistics), once as its backward's ifmap.
        let (g, ids) = fused_chain();
        let plan = ExecutionPlan::for_graph(&g).unwrap();
        let [x, c1, c2] = [0, 1, 2].map(|i| ids[i].index());
        assert_eq!(schedule(&plan), [vec![], vec![x], vec![c1], vec![c2]]);

        // Nothing is scheduled for a forward-only plan.
        let serving = ExecutionPlan::for_inference(&g).unwrap();
        assert!(schedule(&serving).iter().all(Vec::is_empty));
    }

    #[test]
    fn gradient_peak_mirrors_the_forward_live_intervals() {
        // in → conv1 → bn → relu → conv2: at most a tensor and its
        // consumer's output are alive at once, the widest pair being
        // conv1/bn (or bn/relu) at 16 channels each.
        let (g, _) = conv_chain();
        let plan = ExecutionPlan::for_graph(&g).unwrap();
        assert_eq!(plan.gradient_peak_bytes(), 2 * (2 * 16 * 8 * 8 * 4));
        assert!(plan.gradient_peak_bytes() <= plan.naive_total_bytes());
    }

    #[test]
    fn the_lower_bound_counts_what_is_live_at_one_position() {
        // in(0) → conv1(1) → bn(2) → relu(3, in place) → conv2(4).
        let (g, _) = conv_chain();
        let (map8, map16) = (2 * 8 * 8 * 8 * 4, 2 * 16 * 8 * 8 * 4);
        // Training retains in, conv1 and bn's clipped tensor to the end;
        // conv2's output joins them there, in the plan's one slot.
        let plan = ExecutionPlan::for_graph(&g).unwrap();
        assert_eq!(plan.live_lower_bound_bytes(), 2 * map8 + 2 * map16);
        assert_eq!(plan.planned_peak_bytes(), plan.live_lower_bound_bytes());
        // Inference pins in and the sink. At bn's position in, conv1 and
        // bn are live; the slots conv1 and bn's tensor take overlap there.
        let plan = ExecutionPlan::for_inference(&g).unwrap();
        assert_eq!(plan.live_lower_bound_bytes(), map8 + 2 * map16);
        assert_eq!(plan.planned_peak_bytes(), 2 * map8 + 2 * map16);
    }

    #[test]
    fn an_inference_plan_pins_the_tensor_a_sink_relu_clipped() {
        let mut b = GraphBuilder::new("clipped sink");
        let x = b.input("in", Shape::nchw(2, 8, 8, 8)).unwrap();
        let c1 = b.conv2d(x, Conv2dAttrs::pointwise(16), "conv1").unwrap();
        let bn = b.batch_norm_default(c1, "bn").unwrap();
        let r = b.relu(bn, "relu").unwrap();
        let plan = ExecutionPlan::for_inference(&b.finish()).unwrap();
        assert!(plan.clips_in_place(r) && plan.holder(r) == Some(bn) && plan.holder(bn).is_none());
        assert!(plan.is_saved(r) && !plan.is_saved(bn) && !plan.is_saved(c1));
        assert!(plan.released_after(plan.position(r)).is_empty());
    }

    #[test]
    fn transient_tensors_are_released_at_their_last_use() {
        // in → conv → pool → bn: pooling's backward needs only shapes.
        let mut b = GraphBuilder::new("pooled");
        let x = b.input("in", Shape::nchw(2, 8, 8, 8)).unwrap();
        let conv = b.conv2d(x, Conv2dAttrs::pointwise(16), "conv").unwrap();
        let pool = b.avg_pool(conv, PoolAttrs::new(2, 2, 0), "pool").unwrap();
        b.batch_norm_default(pool, "bn").unwrap();
        let g = b.finish();
        let plan = ExecutionPlan::for_graph(&g).unwrap();
        // The convolution's output dies once the pool has executed.
        assert!(plan.released_after(plan.position(pool)).contains(&conv.index()));
        // Saved tensors (the pool's output is BN's saved input) are never
        // released during forward.
        assert!(plan.is_saved(pool));
        for pos in 0..g.node_count() {
            assert!(!plan.released_after(pos).contains(&pool.index()));
        }
    }

    #[test]
    fn pool_chain_reuses_slots() {
        // Average pooling keeps nothing for backward, so a chain of pools
        // needs only two live buffers at any time (input + output).
        let mut b = GraphBuilder::new("pools");
        let mut prev = b.input("in", Shape::nchw(1, 4, 32, 32)).unwrap();
        for i in 0..4 {
            prev = b.avg_pool(prev, PoolAttrs::new(2, 2, 0), &format!("pool{i}")).unwrap();
        }
        let g = b.finish();
        let plan = ExecutionPlan::for_graph(&g).unwrap();
        assert!(plan.slot_count() <= 2, "pool chain used {} slots", plan.slot_count());
        assert!(plan.planned_peak_bytes() < plan.naive_total_bytes());
    }

    #[test]
    fn split_outputs_alias_their_producer() {
        let mut b = GraphBuilder::new("split");
        let x = b.input("in", Shape::nchw(1, 4, 8, 8)).unwrap();
        let s = b.split(x, 2, "split").unwrap();
        let r1 = b.relu(s, "r1").unwrap();
        let r2 = b.relu(s, "r2").unwrap();
        let g = b.finish();
        let plan = ExecutionPlan::for_graph(&g).unwrap();
        assert_eq!(plan.resolve(s), x);
        assert!(plan.liveness(s).is_none());
        // The ReLU consumers read the input through the alias, but each
        // masks its gradient with its own output: nothing pins the input.
        assert!(!plan.is_saved(x) && !plan.is_saved(s));
        // Two readers: neither ReLU may clip the input in place.
        assert!(!plan.clips_in_place(r1) && !plan.clips_in_place(r2));
        for r in [r1, r2] {
            assert!(plan.is_saved(r));
            assert_eq!(plan.released_after_backward(plan.position(r)), [r.index()]);
        }
    }

    #[test]
    fn planned_peak_is_below_naive_for_a_composite_fragment() {
        let mut b = GraphBuilder::new("frag");
        let x = b.input("in", Shape::nchw(8, 32, 16, 16)).unwrap();
        let c1 = b.bn_relu_conv(x, Conv2dAttrs::pointwise(64), "cpl/a").unwrap();
        let c2 = b.bn_relu_conv(c1, Conv2dAttrs::same_3x3(16), "cpl/b").unwrap();
        // Every tensor inside the composite layers is some backward's saved
        // input; the reuse is in what follows them, whose backward needs
        // only shapes: the pooled map recycles the convolution's buffer.
        let cat = b.concat(vec![x, c2], "concat").unwrap();
        let pool = b.avg_pool(cat, PoolAttrs::new(2, 2, 0), "pool").unwrap();
        b.global_avg_pool(pool, "gap").unwrap();
        let g = b.finish();
        let plan = ExecutionPlan::for_graph(&g).unwrap();
        assert!(
            plan.planned_peak_bytes() < plan.naive_total_bytes(),
            "planned {} vs naive {}",
            plan.planned_peak_bytes(),
            plan.naive_total_bytes()
        );
        let summary = plan.summary();
        assert_eq!(summary.planned_peak_bytes, summary.saved_bytes + summary.arena_bytes);
        assert!(summary.slots >= 1);
        assert!(summary.tensors > 0);
    }

    #[test]
    fn a_rope_owns_no_buffer_and_pins_its_parts() {
        // in → conv → [in, conv] → BN: the BN reads (and re-reads) both
        // parts; the concatenation holds nothing, in training or serving.
        let mut b = GraphBuilder::new("rope");
        let x = b.input("in", Shape::nchw(2, 4, 8, 8)).unwrap();
        let conv = b.conv2d(x, Conv2dAttrs::pointwise(4), "conv").unwrap();
        let cat = b.concat(vec![x, conv], "concat").unwrap();
        let bn = b.batch_norm_default(cat, "bn").unwrap();
        b.global_avg_pool(bn, "gap").unwrap();
        let g = b.finish();
        let plan = ExecutionPlan::for_graph(&g).unwrap();
        assert!(plan.is_rope(cat) && plan.liveness(cat).is_none());
        assert_eq!(plan.concat_parts(cat).unwrap(), [x.index(), conv.index()]);
        assert!(plan.is_saved(x) && plan.is_saved(conv));
        let bytes = 2 * 4 * 8 * 8 * 4;
        assert_eq!(plan.saved_bytes(), 2 * bytes);
        // The BN's backward reads both parts; the convolution's, later in
        // the backward, reads the input again.
        assert_eq!(plan.released_after_backward(plan.position(bn)), [conv.index()]);
        assert_eq!(plan.released_after_backward(plan.position(conv)), [x.index()]);
        // Naive execution would still copy the parts.
        assert_eq!(plan.naive_total_bytes(), 2 * bytes + 2 * bytes + 2 * bytes + 2 * 8 * 4);
        let serving = ExecutionPlan::for_inference(&g).unwrap();
        assert!(serving.is_rope(cat) && serving.liveness(cat).is_none());
        assert_eq!(serving.concat_parts(cat).unwrap(), [x.index(), conv.index()]);
        // Both parts stay live through the BN, the rope's one consumer.
        let bn_pos = serving.position(bn);
        assert!([x, conv].iter().all(|&p| serving.liveness(p).unwrap().last_use >= bn_pos));
    }

    #[test]
    fn label_inputs_produce_no_tensor() {
        let mut b = GraphBuilder::new("labelled");
        let x = b.input("data", Shape::nchw(2, 3, 8, 8)).unwrap();
        let labels = b.input("labels", Shape::vector(2)).unwrap();
        let gap = b.global_avg_pool(x, "gap").unwrap();
        let fc = b.fully_connected(gap, 4, "fc").unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        let g = b.finish();
        let plan = ExecutionPlan::for_graph(&g).unwrap();
        assert!(plan.liveness(labels).is_none());
        assert!(plan.liveness(x).is_some());
        // GAP keeps nothing; FC saves its input.
        assert!(!plan.is_saved(x));
        assert!(plan.is_saved(gap));
    }
}
