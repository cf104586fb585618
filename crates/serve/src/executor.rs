//! The forward-only frozen-graph executor.
//!
//! Serving requests used to walk the graph: match on every node's `OpKind`,
//! look parameters up in a hash map, resolve Split aliases and query the
//! memory plan's liveness tables — all request-invariant work. The executor
//! now compiles the frozen graph once, at construction, into a
//! [`LinearProgram`]: a flat instruction tape in topological order whose
//! instructions carry fully-resolved kernel recipes (op kind, shapes,
//! fused-ReLU flag, conv lowering strategy) and pre-resolved register
//! operands. [`FrozenExecutor::infer`] is a tape walker — `for instr in
//! program` dispatching straight into the `*_into` kernels with
//! pre-bound parameter handles; no dispatch decision survives to request
//! time.
//!
//! Kernels are the same `bnff-kernels` entry points the trainer uses, so
//! inference saturates `BNFF_THREADS` cores with thread-count-identical
//! results — which also makes the program's serial hint free to honour:
//! cheap batch-1 programs run under a single thread to skip the fan-out
//! cost without changing a single bit of output.
//!
//! ## Per-op profiling
//!
//! Every executor carries an opt-in [`OpProfiler`] with one slot per tape
//! instruction. When enabled ([`FrozenExecutor::enable_profiling`]) the
//! tape walk times each instruction and accumulates per-slot nanoseconds;
//! [`FrozenExecutor::profile`] folds the slots back into per-instruction
//! [`OpProfile`] rows (node, op kind, call count, total/max ns), keyed
//! like `bnff-memsim`'s per-node predicted DRAM bytes. When disabled —
//! the default — the cost is a single relaxed atomic load per forward
//! pass: the instrumented loop is never entered and inference remains
//! bit-identical either way (timing never touches data).

use crate::error::ServeError;
use crate::params::{FrozenParamSet, FrozenParams};
use crate::Result;
use bnff_graph::linear::{Instr, Kernel, LinearProgram};
use bnff_graph::op::PoolKind;
use bnff_graph::plan::ExecutionPlan;
use bnff_graph::{Graph, NodeId};
use bnff_kernels::affine::{
    channel_affine_in_place, channel_affine_into, channel_affine_relu_in_place,
    channel_affine_relu_into,
};
use bnff_kernels::concat::concat_forward_into;
use bnff_kernels::conv::{conv2d_forward_into, conv2d_forward_relu_into};
use bnff_kernels::eltwise::eltwise_sum_forward_into;
use bnff_kernels::fc::fc_forward_into;
use bnff_kernels::pool::{
    avg_pool_forward_into, global_avg_pool_forward_into, max_pool_forward_into,
};
use bnff_kernels::relu::{relu_forward_inplace, relu_forward_into};
use bnff_obs::OpProfiler;
use bnff_parallel::with_threads;
use bnff_tensor::{Shape, Tensor};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Accumulated timings of one tape instruction (see
/// [`FrozenExecutor::profile`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// The graph node the instruction computes.
    pub node: NodeId,
    /// The node's name.
    pub name: String,
    /// The kernel's op-kind label (`"conv"`, `"affine"`, …).
    pub kind: &'static str,
    /// Recorded executions.
    pub count: u64,
    /// Total nanoseconds across executions.
    pub total_ns: u64,
    /// Slowest single execution in nanoseconds.
    pub max_ns: u64,
}

/// A forward-only executor bound to one frozen graph at one batch size.
#[derive(Debug)]
pub struct FrozenExecutor {
    program: LinearProgram,
    /// Per-instruction parameter handles, aligned with `program.instrs()` —
    /// bound once at compile time so the request path never touches the
    /// parameter hash map.
    bound: Vec<Option<Arc<FrozenParams>>>,
    /// The tape's register file (kept across calls so buffers recycle).
    registers: Mutex<Vec<Option<Tensor>>>,
    /// Opt-in per-instruction timing; one slot per tape instruction. Off
    /// by default — the disabled cost is one relaxed load per pass.
    profiler: OpProfiler,
}

impl FrozenExecutor {
    /// Creates an executor over a frozen graph and its folded parameters:
    /// plans the graph's memory, lowers it to a [`LinearProgram`] and binds
    /// every instruction's parameters. All lowering errors (training-only
    /// operators, missing parameters, register hazards) surface here, not
    /// at request time.
    ///
    /// # Errors
    /// Returns an error when the graph cannot be memory-planned, lowered,
    /// or a parameterised instruction has no folded parameters.
    pub fn new(
        graph: Graph,
        params: Arc<FrozenParamSet>,
        input: NodeId,
        output: NodeId,
    ) -> Result<Self> {
        let plan = ExecutionPlan::for_inference(&graph)?;
        let program = LinearProgram::lower(&graph, &plan, input, output)?;
        let bound = bind_params(&program, &params)?;
        let registers = Mutex::new((0..program.reg_count()).map(|_| None).collect());
        let profiler = OpProfiler::new(program.instrs().len());
        Ok(FrozenExecutor { program, bound, registers, profiler })
    }

    /// Turns per-instruction timing on or off (off by default). Profiling
    /// never changes results — it only reads the clock around kernels.
    pub fn enable_profiling(&self, on: bool) {
        self.profiler.set_enabled(on);
    }

    /// Zeroes the accumulated per-instruction timings.
    pub fn reset_profile(&self) {
        self.profiler.reset();
    }

    /// The accumulated per-instruction timings, one row per tape
    /// instruction in execution order. Rows with `count == 0` mean the
    /// instruction never ran while profiling was enabled.
    pub fn profile(&self) -> Vec<OpProfile> {
        self.program
            .instrs()
            .iter()
            .zip(self.profiler.snapshot())
            .map(|(instr, stats)| OpProfile {
                node: instr.op_node,
                name: instr.name.clone(),
                kind: instr.kernel.kind_name(),
                count: stats.count,
                total_ns: stats.total_ns,
                max_ns: stats.max_ns,
            })
            .collect()
    }

    /// The compiled instruction tape.
    pub fn program(&self) -> &LinearProgram {
        &self.program
    }

    /// The expected input shape.
    pub fn input_shape(&self) -> Shape {
        self.program.input_shape().clone()
    }

    /// Runs one forward pass over the compiled tape, returning the frozen
    /// graph's output (the classifier scores).
    ///
    /// # Errors
    /// Returns an error when the input shape disagrees with the graph or a
    /// kernel fails.
    pub fn infer(&self, data: &Tensor) -> Result<Tensor> {
        self.infer_owned(data.clone())
    }

    /// [`FrozenExecutor::infer`] taking the batch by value, so the input
    /// buffer moves into the register file instead of being copied — the
    /// entry point the batching engine drives (it builds the stacked batch
    /// tensor anyway).
    ///
    /// # Errors
    /// Returns an error when the input shape disagrees with the graph or a
    /// kernel fails.
    pub fn infer_owned(&self, data: Tensor) -> Result<Tensor> {
        if self.program.prefers_serial() {
            // Cheap pass: per-kernel thread fan-out costs more than it
            // buys. Kernels are thread-count bit-identical, so this cannot
            // change the result.
            with_threads(1, || self.run_tape(data))
        } else {
            self.run_tape(data)
        }
    }

    fn run_tape(&self, data: Tensor) -> Result<Tensor> {
        self.program.input_shape().expect_same(data.shape()).map_err(ServeError::Tensor)?;
        let mut regs = self.registers.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        regs[self.program.input_reg()] = Some(data);
        // One relaxed load decides the loop; the disabled path is exactly
        // the uninstrumented walk (no clock reads, no per-op branches).
        if self.profiler.enabled() {
            for (i, (instr, params)) in self.program.instrs().iter().zip(&self.bound).enumerate() {
                let began = Instant::now();
                exec_instr(&mut regs, instr, params.as_deref())?;
                self.profiler.record(i, began.elapsed().as_nanos() as u64);
            }
        } else {
            for (instr, params) in self.program.instrs().iter().zip(&self.bound) {
                exec_instr(&mut regs, instr, params.as_deref())?;
            }
        }
        regs[self.program.output_reg()]
            .take()
            .ok_or_else(|| ServeError::InvalidArgument("tape produced no output".into()))
    }
}

/// Pre-binds every instruction's parameter handle and checks the handle's
/// kind against the kernel recipe, so the tape walker can assume both.
fn bind_params(
    program: &LinearProgram,
    params: &FrozenParamSet,
) -> Result<Vec<Option<Arc<FrozenParams>>>> {
    program
        .instrs()
        .iter()
        .map(|instr| {
            let handle = params.get_shared(instr.op_node);
            let ok = match &instr.kernel {
                Kernel::Conv { .. } => {
                    matches!(handle.as_deref(), Some(FrozenParams::Conv { .. }))
                }
                Kernel::Affine { .. } => {
                    matches!(handle.as_deref(), Some(FrozenParams::Affine { .. }))
                }
                Kernel::FullyConnected => {
                    matches!(handle.as_deref(), Some(FrozenParams::Fc { .. }))
                }
                _ => return Ok(None),
            };
            if ok {
                Ok(handle)
            } else {
                Err(ServeError::Fold(format!(
                    "no frozen parameters for instruction '{}'",
                    instr.name
                )))
            }
        })
        .collect()
}

/// Takes the output register's buffer (or allocates one) shaped for the
/// instruction.
fn take_out(regs: &mut [Option<Tensor>], instr: &Instr) -> Tensor {
    match regs[instr.out].take() {
        Some(t) => {
            let mut buf = t.into_vec();
            // Every kernel overwrites its whole output; leftover values in
            // a grown buffer are never read.
            buf.resize(instr.out_volume, 0.0);
            Tensor::from_vec(instr.out_shape.clone(), buf)
                .expect("register buffer resized to the instruction's volume")
        }
        None => Tensor::zeros(instr.out_shape.clone()),
    }
}

fn reg_ref<'a>(regs: &'a [Option<Tensor>], instr: &Instr, idx: usize) -> Result<&'a Tensor> {
    regs[instr.inputs[idx]].as_ref().ok_or_else(|| {
        ServeError::InvalidArgument(format!(
            "register {} read by '{}' is empty",
            instr.inputs[idx], instr.name
        ))
    })
}

/// Executes one instruction against the register file.
fn exec_instr(
    regs: &mut [Option<Tensor>],
    instr: &Instr,
    params: Option<&FrozenParams>,
) -> Result<()> {
    // The in-place pointwise kernels: the planner recycled the input's
    // register for the output (it proved the input dead), so the kernel
    // sweeps the buffer once in place.
    if instr.inputs.first() == Some(&instr.out) {
        let mut buf = regs[instr.out].take().ok_or_else(|| {
            ServeError::InvalidArgument(format!(
                "register {} read by '{}' is empty",
                instr.out, instr.name
            ))
        })?;
        match (&instr.kernel, params) {
            (Kernel::Affine { fused_relu }, Some(FrozenParams::Affine { scale, shift })) => {
                if *fused_relu {
                    channel_affine_relu_in_place(&mut buf, scale, shift)?;
                } else {
                    channel_affine_in_place(&mut buf, scale, shift)?;
                }
            }
            (Kernel::Relu, _) => relu_forward_inplace(&mut buf),
            _ => {
                return Err(ServeError::InvalidArgument(format!(
                    "instruction '{}' runs in place but is not pointwise",
                    instr.name
                )))
            }
        }
        regs[instr.out] = Some(buf);
        return Ok(());
    }
    let mut out = take_out(regs, instr);
    match (&instr.kernel, params) {
        (Kernel::Conv { attrs, fused_relu }, Some(FrozenParams::Conv { weights, bias })) => {
            let x = reg_ref(regs, instr, 0)?;
            if *fused_relu {
                conv2d_forward_relu_into(x, weights, bias.as_deref(), attrs, &mut out)?;
            } else {
                conv2d_forward_into(x, weights, bias.as_deref(), attrs, &mut out)?;
            }
        }
        (Kernel::Affine { fused_relu }, Some(FrozenParams::Affine { scale, shift })) => {
            let x = reg_ref(regs, instr, 0)?;
            if *fused_relu {
                channel_affine_relu_into(x, scale, shift, &mut out)?;
            } else {
                channel_affine_into(x, scale, shift, &mut out)?;
            }
        }
        (Kernel::Relu, _) => {
            relu_forward_into(reg_ref(regs, instr, 0)?, &mut out)?;
        }
        (Kernel::Pool { kind, attrs }, _) => {
            let x = reg_ref(regs, instr, 0)?;
            match kind {
                PoolKind::Max => max_pool_forward_into(x, attrs, &mut out)?,
                PoolKind::Average => avg_pool_forward_into(x, attrs, &mut out)?,
            }
        }
        (Kernel::GlobalAvgPool, _) => {
            global_avg_pool_forward_into(reg_ref(regs, instr, 0)?, &mut out)?;
        }
        (Kernel::Concat, _) => {
            let refs: Vec<&Tensor> =
                (0..instr.inputs.len()).map(|i| reg_ref(regs, instr, i)).collect::<Result<_>>()?;
            concat_forward_into(&refs, &mut out)?;
        }
        (Kernel::EltwiseSum, _) => {
            let refs: Vec<&Tensor> =
                (0..instr.inputs.len()).map(|i| reg_ref(regs, instr, i)).collect::<Result<_>>()?;
            eltwise_sum_forward_into(&refs, &mut out)?;
        }
        (Kernel::FullyConnected, Some(FrozenParams::Fc { weights, bias })) => {
            fc_forward_into(reg_ref(regs, instr, 0)?, weights, bias, &mut out)?;
        }
        _ => {
            return Err(ServeError::InvalidArgument(format!(
                "instruction '{}' has no parameters bound for its kernel",
                instr.name
            )))
        }
    }
    regs[instr.out] = Some(out);
    Ok(())
}
