//! The forward-only frozen-graph executor.
//!
//! Serving requests used to walk the graph: match on every node's `OpKind`,
//! look parameters up in a hash map, resolve Split aliases and query the
//! memory plan's liveness tables — all request-invariant work. The executor
//! now compiles the frozen graph once, at construction, into a
//! [`LinearProgram`]: a flat instruction tape in topological order whose
//! instructions carry fully-resolved kernel recipes (op kind, a
//! convolution's prologue, per-sample shapes) and pre-resolved register
//! operands. [`FrozenExecutor::infer`] is a tape walker — `for instr in
//! program` dispatching straight into the `*_into` kernels with pre-bound
//! parameter handles; no dispatch decision survives to request time.
//!
//! The kernels are the ones the training executor's forward calls —
//! `fused_conv_forward_into` with the same [`ConvInput`] prologue,
//! `normalize_sweep_into` — fed the running statistics, so a served score
//! is the eval-mode forward's score, bit for bit.
//!
//! One executor serves every batch of 1 to `max_batch` samples: a call of
//! `n` samples stamps `n` in front of each instruction's per-sample output
//! shape, so every kernel works on the `n`-sample prefix of its register.
//!
//! Those kernels saturate `BNFF_THREADS` cores with thread-count-identical
//! results — which also makes the program's serial hint free to honour:
//! cheap small-batch passes run under a single thread to skip the fan-out
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
use bnff_graph::op::{ConvPrologue, PoolKind};
use bnff_graph::plan::ExecutionPlan;
use bnff_graph::{Graph, NodeId};
use bnff_kernels::batchnorm::normalize_sweep_into;
use bnff_kernels::concat::concat_forward_into;
use bnff_kernels::conv::ConvInput;
use bnff_kernels::eltwise::eltwise_sum_forward_into;
use bnff_kernels::fc::fc_forward_into;
use bnff_kernels::fused::fused_conv_forward_into;
use bnff_kernels::pool::{
    avg_pool_forward_into, global_avg_pool_forward_into, max_pool_forward_into,
};
use bnff_kernels::relu::relu_forward_into;
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
    /// The kernel's op-kind label (`"conv"`, `"norm"`, …).
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
    program: LinearProgram,
    max_batch: usize,
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
    /// Creates an executor over a frozen graph and its parameters for
    /// batches of up to `max_batch` samples: plans the graph's memory,
    /// lowers it to a [`LinearProgram`] and binds every instruction's
    /// parameters. All lowering errors (training-only operators, missing
    /// parameters, register hazards) surface here, not at request time.
    ///
    /// # Errors
    /// Returns an error when `max_batch` is zero, the graph cannot be
    /// memory-planned or lowered, or an instruction lacks its parameters.
    pub fn new(
        graph: &Graph,
        params: Arc<FrozenParamSet>,
        input: NodeId,
        output: NodeId,
        max_batch: usize,
    ) -> Result<Self> {
        if max_batch == 0 {
            return Err(ServeError::InvalidArgument("max_batch must be positive".into()));
        }
        let plan = ExecutionPlan::for_inference(graph)?;
        let program = LinearProgram::lower(graph, &plan, input, output)?;
        let bound = bind_params(&program, &params)?;
        let registers = Mutex::new((0..program.reg_count()).map(|_| None).collect());
        let profiler = OpProfiler::new(program.instrs().len());
        Ok(FrozenExecutor { program, max_batch, bound, registers, profiler })
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
                node: instr.node,
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

    /// The largest input shape: `max_batch` samples.
    pub fn input_shape(&self) -> Shape {
        batched(self.max_batch, self.program.sample_shape())
    }

    /// Runs one forward pass over the compiled tape for `n` samples
    /// (`1 ≤ n ≤ max_batch`), returning the frozen graph's output (the
    /// classifier scores).
    ///
    /// # Errors
    /// Returns [`ServeError::InvalidArgument`] when the input is not
    /// `n × sample` with `1 ≤ n ≤ max_batch`, and an error when a kernel
    /// fails.
    pub fn infer(&self, data: &Tensor) -> Result<Tensor> {
        self.infer_owned(data.clone())
    }

    /// [`FrozenExecutor::infer`] taking the batch by value, so the input
    /// buffer moves into the register file instead of being copied — the
    /// entry point the batching engine drives (it builds the stacked batch
    /// tensor anyway).
    ///
    /// # Errors
    /// Same as [`FrozenExecutor::infer`].
    pub fn infer_owned(&self, data: Tensor) -> Result<Tensor> {
        let sample = self.program.sample_shape();
        let n = match data.shape().dims().split_first() {
            Some((&n, dims)) if (1..=self.max_batch).contains(&n) && dims == sample.dims() => n,
            _ => {
                return Err(ServeError::InvalidArgument(format!(
                    "input shape {} is not n × {sample} with 1 ≤ n ≤ {}",
                    data.shape(),
                    self.max_batch
                )))
            }
        };
        if self.program.prefers_serial(n) {
            // Cheap pass: per-kernel thread fan-out costs more than it
            // buys. Kernels are thread-count bit-identical, so this cannot
            // change the result.
            with_threads(1, || self.run_tape(data, n))
        } else {
            self.run_tape(data, n)
        }
    }

    fn run_tape(&self, data: Tensor, n: usize) -> Result<Tensor> {
        let mut regs = self.registers.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        regs[self.program.input_reg()] = Some(data);
        // One relaxed load decides the loop; the disabled path is exactly
        // the uninstrumented walk (no clock reads, no per-op branches).
        if self.profiler.enabled() {
            for (i, (instr, params)) in self.program.instrs().iter().zip(&self.bound).enumerate() {
                let began = Instant::now();
                exec_instr(&mut regs, instr, params.as_deref(), n)?;
                self.profiler.record(i, began.elapsed().as_nanos() as u64);
            }
        } else {
            for (instr, params) in self.program.instrs().iter().zip(&self.bound) {
                exec_instr(&mut regs, instr, params.as_deref(), n)?;
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
            let handle = params.get_shared(instr.node);
            let ok = match (&instr.kernel, handle.as_deref()) {
                (Kernel::Conv { prologue, .. }, Some(FrozenParams::Conv { norm, .. })) => {
                    norm.is_some() == matches!(prologue, ConvPrologue::NormRelu(_))
                }
                (Kernel::Norm { .. }, Some(FrozenParams::Norm(_)))
                | (Kernel::FullyConnected, Some(FrozenParams::Fc { .. })) => true,
                (Kernel::Conv { .. } | Kernel::Norm { .. } | Kernel::FullyConnected, _) => false,
                _ => return Ok(None),
            };
            if ok {
                Ok(handle)
            } else {
                Err(ServeError::Params(format!(
                    "no frozen parameters fit instruction '{}'",
                    instr.name
                )))
            }
        })
        .collect()
}

/// `sample` with a leading batch dimension of `n`.
fn batched(n: usize, sample: &Shape) -> Shape {
    Shape::new([&[n], sample.dims()].concat())
}

/// Takes the output register's buffer (or allocates one) shaped for the
/// instruction's output over `n` samples.
fn take_out(regs: &mut [Option<Tensor>], instr: &Instr, n: usize) -> Tensor {
    let mut buf = regs[instr.out].take().map_or_else(Vec::new, Tensor::into_vec);
    // Truncates when `n` shrank, zero-fills only the new tail when it grew;
    // every kernel overwrites its whole output, so no stale value is read.
    buf.resize(n * instr.out_volume, 0.0);
    Tensor::from_vec(batched(n, &instr.out_shape), buf)
        .expect("register buffer resized to the instruction's volume")
}

/// Operand `idx` of `instr`; an error if its register is empty.
fn reg_ref<'a>(regs: &'a [Option<Tensor>], instr: &Instr, idx: usize) -> Result<&'a Tensor> {
    let reg = instr.inputs[idx];
    regs[reg].as_ref().ok_or_else(|| {
        ServeError::InvalidArgument(format!("register {reg} read by '{}' is empty", instr.name))
    })
}

/// Executes one instruction over `n` samples against the register file.
fn exec_instr(
    regs: &mut [Option<Tensor>],
    instr: &Instr,
    params: Option<&FrozenParams>,
    n: usize,
) -> Result<()> {
    let mut out = take_out(regs, instr, n);
    match (&instr.kernel, params) {
        (Kernel::Conv { attrs, prologue }, Some(FrozenParams::Conv { weights, bias, norm })) => {
            let x = reg_ref(regs, instr, 0)?.into();
            // `bind_params` gave a normalizing prologue its normalization.
            let input = match (prologue, norm) {
                (ConvPrologue::NormRelu(_), Some(n)) => ConvInput::NormClip {
                    x,
                    stats: &n.running,
                    params: &n.params,
                    epsilon: n.epsilon,
                },
                (ConvPrologue::Relu, _) => ConvInput::Clip(x),
                _ => ConvInput::Raw(x),
            };
            fused_conv_forward_into(input, weights, bias.as_deref(), attrs, false, &mut out)?;
        }
        (Kernel::Norm { relu }, Some(FrozenParams::Norm(n))) => {
            let x = reg_ref(regs, instr, 0)?;
            normalize_sweep_into(x, &n.running, &n.params, n.epsilon, *relu, None, &mut out)?;
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
