//! The forward-only frozen-graph executor.
//!
//! A [`FrozenExecutor`] runs the training executor's one forward walk
//! ([`Executor::infer`]) in eval mode over the frozen graph: the same
//! plan-driven loop, the same kernels and prologues, over the running
//! statistics, so a served score is the eval-mode forward's score, bit for
//! bit. Its memory plan is the inference one — nothing is retained for a
//! backward pass, every intermediate activation recycles through one small
//! arena, and a concatenation whose consumers read planes is a channel
//! rope of its inputs, not a copy. The parameters are shared with every
//! other executor of the model.
//!
//! One executor serves every batch of 1 to `max_batch` samples: the walk
//! sizes every feature map for the batch it is handed.
//!
//! The kernels saturate `BNFF_THREADS` cores with thread-count-identical
//! results — which also makes the serial hint free to honour: a pass whose
//! forward FLOPs are cheap runs under a single thread to skip the fan-out
//! cost without changing a single bit of output.
//!
//! ## Per-op profiling
//!
//! Every executor carries an opt-in [`OpProfiler`] with one slot per plan
//! position. When enabled ([`FrozenExecutor::enable_profiling`]) the walk
//! times each position and accumulates per-slot nanoseconds;
//! [`FrozenExecutor::profile`] folds the slots back into per-node
//! [`OpProfile`] rows (node, op kind, call count, total/max ns), keyed like
//! `bnff-memsim`'s per-node predicted DRAM bytes. When disabled — the
//! default — the cost is a single relaxed atomic load per forward pass,
//! and inference is bit-identical either way (timing never touches data).

use crate::error::ServeError;
use crate::Result;
use bnff_graph::analysis::node_cost;
use bnff_graph::{Graph, NodeId};
use bnff_obs::OpProfiler;
use bnff_parallel::with_threads;
use bnff_tensor::{Shape, Tensor};
use bnff_train::running::RunningStatSet;
use bnff_train::{Executor, ParamSet};
use std::sync::Arc;

/// Passes whose forward FLOPs are below this many prefer serial execution:
/// per-kernel thread fan-out costs more than it buys (kernels are
/// thread-count bit-identical, so the choice is free).
const SERIAL_FLOPS_THRESHOLD: f64 = 100_000_000.0;

/// Accumulated timings of one plan position (see
/// [`FrozenExecutor::profile`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// The graph node at the position.
    pub node: NodeId,
    /// The node's name.
    pub name: String,
    /// The node's op-kind label (`"Conv2d"`, `"NormReluConv"`, …).
    pub kind: &'static str,
    /// Recorded executions.
    pub count: u64,
    /// Total nanoseconds across executions.
    pub total_ns: u64,
    /// Slowest single execution in nanoseconds.
    pub max_ns: u64,
}

/// A forward-only executor bound to one frozen graph, serving any batch of
/// 1 to `max_batch` samples.
#[derive(Debug)]
pub struct FrozenExecutor {
    exec: Executor,
    max_batch: usize,
    sample: Shape,
    /// The nodes the walk writes a tensor for, in execution order.
    written: Vec<NodeId>,
    /// Forward FLOPs of one sample, for the serial hint.
    sample_flops: f64,
    /// Opt-in per-position timing; off by default — the disabled cost is
    /// one relaxed load per pass.
    profiler: OpProfiler,
}

impl FrozenExecutor {
    /// An executor over a frozen graph whose parameters and running
    /// statistics are keyed by its node ids, for batches of up to
    /// `max_batch` samples shaped like the data input `input`'s.
    pub(crate) fn new(
        graph: Graph,
        params: Arc<ParamSet>,
        running: Arc<RunningStatSet>,
        input: NodeId,
        max_batch: usize,
    ) -> Result<Self> {
        if max_batch == 0 {
            return Err(ServeError::InvalidArgument("max_batch must be positive".into()));
        }
        let template = &graph.node(input)?.output_shape;
        let sample = Shape::new(template.dims()[1..].to_vec());
        let mut flops = 0.0;
        for node in graph.nodes() {
            flops += node_cost(&graph, node)?.flops_fwd;
        }
        // Every term of a forward cost is linear in the batch.
        let sample_flops = flops / template.dims()[0].max(1) as f64;
        let exec = Executor::for_inference(graph, params, running)?;
        let plan = exec.plan();
        let written = plan
            .order()
            .iter()
            .copied()
            .filter(|&id| id != input && plan.liveness(id).is_some())
            .collect();
        let profiler = OpProfiler::new(plan.order().len());
        Ok(FrozenExecutor { exec, max_batch, sample, written, sample_flops, profiler })
    }

    /// Turns per-position timing on or off (off by default). Profiling
    /// never changes results — it only reads the clock around nodes.
    pub fn enable_profiling(&self, on: bool) {
        self.profiler.set_enabled(on);
    }

    /// Zeroes the accumulated per-position timings.
    pub fn reset_profile(&self) {
        self.profiler.reset();
    }

    /// The accumulated timings, one row per plan position in execution
    /// order. Rows with `count == 0` mean the position never ran while
    /// profiling was enabled.
    pub fn profile(&self) -> Vec<OpProfile> {
        let graph = self.exec.graph();
        self.exec
            .plan()
            .order()
            .iter()
            .zip(self.profiler.snapshot())
            .filter_map(|(&id, stats)| {
                let node = graph.node(id).ok()?;
                Some(OpProfile {
                    node: id,
                    name: node.name.clone(),
                    kind: node.op.name(),
                    count: stats.count,
                    total_ns: stats.total_ns,
                    max_ns: stats.max_ns,
                })
            })
            .collect()
    }

    /// The nodes the walk writes a tensor for, in execution order: every
    /// node but the data input, Splits, ropes and statistics nodes (whose
    /// value is the running statistics).
    pub fn program(&self) -> &[NodeId] {
        &self.written
    }

    /// The largest input shape: `max_batch` samples.
    pub fn input_shape(&self) -> Shape {
        Shape::new([&[self.max_batch], self.sample.dims()].concat())
    }

    /// Runs one eval-mode forward pass over `n` samples (`1 ≤ n ≤
    /// max_batch`), returning the frozen graph's output (the classifier
    /// scores).
    ///
    /// # Errors
    /// Returns [`ServeError::InvalidArgument`] when the input is not
    /// `n × sample` with `1 ≤ n ≤ max_batch`, and an error when a kernel
    /// fails.
    pub fn infer(&self, data: &Tensor) -> Result<Tensor> {
        self.infer_owned(data.clone())
    }

    /// [`FrozenExecutor::infer`] taking the batch by value, so the input
    /// buffer moves into the walk as the data input's tensor instead of
    /// being copied — the entry point the batching engine drives (it builds
    /// the stacked batch tensor anyway).
    ///
    /// # Errors
    /// Same as [`FrozenExecutor::infer`].
    pub(crate) fn infer_owned(&self, data: Tensor) -> Result<Tensor> {
        // The walk rejects `n = 0` and a wrong sample shape itself.
        let n = data.shape().dims().first().copied().unwrap_or(0);
        if n > self.max_batch {
            return Err(ServeError::InvalidArgument(format!(
                "{n} samples exceed the executor's max_batch of {}",
                self.max_batch
            )));
        }
        let run = || Ok(self.exec.infer(data, Some(&self.profiler))?);
        if n as f64 * self.sample_flops < SERIAL_FLOPS_THRESHOLD {
            // Cheap pass: per-kernel thread fan-out costs more than it
            // buys. Kernels are thread-count bit-identical, so this cannot
            // change the result.
            with_threads(1, run)
        } else {
            run()
        }
    }
}
