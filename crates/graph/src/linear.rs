//! The linear IR: a frozen inference graph compiled to a flat instruction
//! tape.
//!
//! An interpreted frozen executor would re-derive everything at request
//! time — walk the graph, match on every node's `OpKind`, look parameters
//! up in hash maps, resolve Split aliases and query the memory plan's
//! liveness tables for every node it visits. None of that depends on the
//! request: for a fixed graph the answers never change. [`LinearProgram::lower`]
//! asks every question **once**, at compile time, and records the answers
//! as a `Vec<`[`Instr`]`>` in topological order:
//!
//! * each instruction carries a fully-resolved kernel recipe (a [`Kernel`]
//!   with concrete attributes) read off the training operator's decoded
//!   [`OpForm`]: a convolution keeps its prologue, a normalization its clip,
//! * operands are *virtual registers* ([`Reg`]): dense indices into a
//!   register file whose slots come straight from the memory plan's
//!   buffer-slot assignment, with pre-computed byte sizes — no slot
//!   `HashMap`, no shape inference, no liveness queries remain on the
//!   request path,
//! * shapes, register sizes and FLOPs are *per sample*: no frozen operator
//!   couples samples, and the plan's packing and liveness see only sizes
//!   that are all `N ×` a per-sample size, so one tape serves every batch
//!   size. The serial-execution hint ([`LinearProgram::prefers_serial`])
//!   scales the FLOPs by `N`, so a tape walker can skip per-kernel thread
//!   fan-out when the whole forward pass is cheaper than the spawns.
//!
//! Statistics are parameters at inference: a statistics node lowers to
//! nothing, a convolution's or normalization's statistics edge is not an
//! operand, and an epilogue (`stats_out`, a `ConcatStats`' sweep) is not
//! run.
//!
//! [`LinearProgram::validate`] replays the tape symbolically and proves that
//! no register is read after being clobbered — the register-file analogue of
//! the memory plan's no-aliasing guarantee — and runs automatically at the
//! end of every [`LinearProgram::lower`].

use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;
use crate::op::{Conv2dAttrs, ConvPrologue, OpForm, OpKind, PoolAttrs, PoolKind};
use crate::passes::freeze::FrozenGraph;
use crate::plan::ExecutionPlan;
use crate::Result;
use bnff_tensor::Shape;
use serde::Serialize;

/// A virtual register: a dense index into the tape executor's register file.
pub type Reg = usize;

/// Programs whose whole forward pass is below this many estimated FLOPs
/// prefer serial execution: per-kernel thread fan-out costs more than it
/// buys (kernels are thread-count bit-identical, so the choice is free).
const SERIAL_FLOPS_THRESHOLD: u64 = 100_000_000;

/// A fully-resolved kernel recipe: which entry point to dispatch and every
/// compile-time decision it needs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Kernel {
    /// 2-D convolution, its prologue applied while the ifmap is staged.
    Conv {
        /// Concrete convolution attributes.
        attrs: Conv2dAttrs,
        /// What is applied to the ifmap while it is read.
        prologue: ConvPrologue,
    },
    /// The normalize sweep `γ·(x−μ)/√(σ²+ε) + β` over running statistics.
    Norm {
        /// The output is clipped at zero in the same sweep.
        relu: bool,
    },
    /// Standalone ReLU.
    Relu,
    /// Spatial pooling.
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Window attributes.
        attrs: PoolAttrs,
    },
    /// Global average pooling to `N × C × 1 × 1`.
    GlobalAvgPool,
    /// Channel concatenation.
    Concat,
    /// Element-wise sum.
    EltwiseSum,
    /// Fully-connected classifier head.
    FullyConnected,
}

impl Kernel {
    /// A stable label for the kernel's op kind — the aggregation key the
    /// serving profiler groups per-instruction timings by.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Kernel::Conv { .. } => "conv",
            Kernel::Norm { .. } => "norm",
            Kernel::Relu => "relu",
            Kernel::Pool { .. } => "pool",
            Kernel::GlobalAvgPool => "global_avg_pool",
            Kernel::Concat => "concat",
            Kernel::EltwiseSum => "eltwise_sum",
            Kernel::FullyConnected => "fully_connected",
        }
    }
}

/// One instruction of the tape: a kernel recipe plus resolved operands.
#[derive(Debug, Clone, Serialize)]
pub struct Instr {
    /// The graph node this instruction computes (and whose parameters it
    /// runs with).
    pub node: NodeId,
    /// The node's diagnostic name.
    pub name: String,
    /// The resolved kernel recipe.
    pub kernel: Kernel,
    /// Input registers, in operand order (Split aliases already resolved).
    pub inputs: Vec<Reg>,
    /// Producer node of each input register, for validation/diagnostics.
    pub input_nodes: Vec<NodeId>,
    /// Output register.
    pub out: Reg,
    /// Per-sample output shape (the batch dimension stripped).
    pub out_shape: Shape,
    /// `out_shape.volume()`, pre-computed.
    pub out_volume: usize,
    /// Estimated FLOPs of this instruction, per sample.
    pub flops: u64,
}

/// A frozen graph compiled to a flat instruction tape that serves every
/// batch size.
#[derive(Debug, Clone, Serialize)]
pub struct LinearProgram {
    name: String,
    instrs: Vec<Instr>,
    input_reg: Reg,
    input_node: NodeId,
    sample_shape: Shape,
    output_reg: Reg,
    output_node: NodeId,
    /// Per-sample capacity in bytes of every register (slot-backed
    /// registers first, pinned outputs after).
    reg_bytes: Vec<usize>,
    flops_estimate: u64,
}

/// Estimated FLOPs of one node's forward kernel (2·MACs for the GEMM-backed
/// ops, one combined read+write sweep for the rest).
fn node_flops(graph: &Graph, node_id: NodeId) -> Result<u64> {
    let node = graph.node(node_id)?;
    let out = &node.output_shape;
    Ok(match (node.op.conv_attrs(), &node.op) {
        (Some(a), _) => {
            let in_c = graph.node(node.inputs[0])?.output_shape.c();
            2 * (out.volume() * in_c * a.kernel_h * a.kernel_w) as u64
        }
        (_, OpKind::FullyConnected { .. }) => {
            let in_features =
                graph.node(node.inputs[0])?.output_shape.volume() / out.dim(0).unwrap_or(1).max(1);
            2 * (out.volume() * in_features) as u64
        }
        _ => 2 * out.volume() as u64,
    })
}

fn lowering_error(reason: String) -> GraphError {
    GraphError::PassError { pass: "linearize".to_string(), reason }
}

/// A template shape with its leading batch dimension stripped; an error if
/// it does not lead with `batch` (the tape could not serve other batches).
fn per_sample(shape: &Shape, batch: usize, name: &str) -> Result<Shape> {
    match shape.dims().split_first() {
        Some((&n, sample)) if n == batch => Ok(Shape::new(sample.to_vec())),
        _ => Err(lowering_error(format!("'{name}' of shape {shape} does not lead with {batch}"))),
    }
}

/// The register assigned to a node's (alias-resolved) output tensor.
fn lookup_reg(reg_of: &[Option<Reg>], plan: &ExecutionPlan, id: NodeId) -> Result<Reg> {
    reg_of[plan.resolve(id).index()]
        .ok_or_else(|| lowering_error(format!("node {id} owns no register")))
}

impl LinearProgram {
    /// Lowers a frozen graph and its inference memory plan into a tape.
    ///
    /// `input`/`output` are the graph's data input and final output nodes
    /// (as recorded by the freeze pass). Shapes, register sizes and FLOPs
    /// are divided by the graph's batch, so the program serves any batch.
    ///
    /// # Errors
    /// Returns an error when the graph contains an operator with no
    /// inference kernel (the loss head), a lowered value does not lead with
    /// the batch dimension, or the lowered tape fails its register-clobber
    /// validation.
    pub fn lower(
        graph: &Graph,
        plan: &ExecutionPlan,
        input: NodeId,
        output: NodeId,
    ) -> Result<LinearProgram> {
        let n = graph.node_count();
        let input_node = graph.node(input)?;
        let batch = input_node.output_shape.dim(0).unwrap_or(1).max(1);
        let sample_shape = per_sample(&input_node.output_shape, batch, &input_node.name)?;

        // Register file: one register per plan slot, then one dedicated
        // register per pinned (final-output) tensor. Every size is `batch ×`
        // a per-sample size, so the division is exact.
        let mut reg_bytes: Vec<usize> = plan.slot_sizes().iter().map(|b| b / batch).collect();
        let mut reg_of: Vec<Option<Reg>> = vec![None; n];
        for &id in plan.order() {
            let idx = id.index();
            if let Some(slot) = plan.slot(id) {
                reg_of[idx] = Some(slot);
            } else if plan.liveness(id).map(|l| l.saved_for_backward).unwrap_or(false) {
                reg_of[idx] = Some(reg_bytes.len());
                reg_bytes.push(graph.node(id)?.output_shape.bytes_f32() / batch);
            }
        }

        let mut instrs = Vec::new();
        let mut flops_estimate = 0u64;
        for &id in plan.order() {
            let node = graph.node(id)?;
            let kernel = match (node.op.form(), &node.op) {
                (_, OpKind::Input | OpKind::Split { .. } | OpKind::SubBnStats(_)) => continue,
                (OpForm::Conv { attrs, prologue, .. }, _) => Kernel::Conv { attrs, prologue },
                (OpForm::Norm { relu, .. }, _) => Kernel::Norm { relu },
                (_, OpKind::Relu) => Kernel::Relu,
                (_, OpKind::Pool { kind, attrs }) => Kernel::Pool { kind: *kind, attrs: *attrs },
                (_, OpKind::GlobalAvgPool) => Kernel::GlobalAvgPool,
                (_, OpKind::Concat | OpKind::ConcatStats(_)) => Kernel::Concat,
                (_, OpKind::EltwiseSum) => Kernel::EltwiseSum,
                (_, OpKind::FullyConnected { .. }) => Kernel::FullyConnected,
                (_, other) => {
                    return Err(lowering_error(format!(
                        "operator {other} in node '{}' has no inference kernel",
                        node.name
                    )))
                }
            };
            // A statistics edge is no operand: the statistics are parameters.
            let operands = match kernel {
                Kernel::Conv { .. } | Kernel::Norm { .. } => &node.inputs[..1],
                _ => &node.inputs[..],
            };
            let input_nodes: Vec<NodeId> = operands.iter().map(|&i| plan.resolve(i)).collect();
            let inputs: Vec<Reg> =
                input_nodes.iter().map(|&i| lookup_reg(&reg_of, plan, i)).collect::<Result<_>>()?;
            // Every term of `node_flops` is linear in the batch.
            let flops = node_flops(graph, id)? / batch as u64;
            let out_shape = per_sample(&node.output_shape, batch, &node.name)?;
            flops_estimate += flops;
            instrs.push(Instr {
                node: id,
                name: node.name.clone(),
                kernel,
                inputs,
                input_nodes,
                out: lookup_reg(&reg_of, plan, id)?,
                out_volume: out_shape.volume(),
                out_shape,
                flops,
            });
        }

        let program = LinearProgram {
            name: graph.name().to_string(),
            instrs,
            input_reg: lookup_reg(&reg_of, plan, input)?,
            input_node: input,
            sample_shape,
            output_reg: lookup_reg(&reg_of, plan, output)?,
            output_node: plan.resolve(output),
            reg_bytes,
            flops_estimate,
        };
        program.validate()?;
        Ok(program)
    }

    /// Plans and lowers a freshly frozen graph in one step.
    ///
    /// # Errors
    /// Returns an error when planning or lowering fails.
    pub fn lower_for_inference(frozen: &FrozenGraph) -> Result<LinearProgram> {
        let plan = ExecutionPlan::for_inference(&frozen.graph)?;
        Self::lower(&frozen.graph, &plan, frozen.input, frozen.output)
    }

    /// The lowered graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction tape, in execution order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The register the caller seeds with the input batch.
    pub fn input_reg(&self) -> Reg {
        self.input_reg
    }

    /// The per-sample input shape (the batch dimension stripped).
    pub fn sample_shape(&self) -> &Shape {
        &self.sample_shape
    }

    /// The register holding the final output after the tape runs.
    pub fn output_reg(&self) -> Reg {
        self.output_reg
    }

    /// Number of registers in the file.
    pub fn reg_count(&self) -> usize {
        self.reg_bytes.len()
    }

    /// Per-sample capacity in bytes of every register.
    pub fn reg_bytes(&self) -> &[usize] {
        &self.reg_bytes
    }

    /// Estimated FLOPs of one forward pass, per sample.
    pub fn flops_estimate(&self) -> u64 {
        self.flops_estimate
    }

    /// Whether the whole pass over `n` samples is cheap enough that
    /// per-kernel thread fan-out costs more than it buys. Kernels are
    /// thread-count bit-identical, so honouring (or ignoring) the hint never
    /// changes results.
    pub fn prefers_serial(&self, n: usize) -> bool {
        self.flops_estimate.saturating_mul(n as u64) < SERIAL_FLOPS_THRESHOLD
    }

    /// Replays the tape symbolically and checks that every instruction
    /// reads registers still holding the values it expects: no register is
    /// written while a not-yet-consumed value lives in it, and instructions
    /// never read their own output register.
    ///
    /// # Errors
    /// Returns an error describing the first clobber found.
    pub fn validate(&self) -> Result<()> {
        let (input, output) = (self.input_node, self.output_node);
        let clobber = |reason: String| GraphError::PassError {
            pass: "linearize/validate".to_string(),
            reason,
        };
        // Symbolic replay: which node's value does each register hold?
        let mut holds: Vec<Option<NodeId>> = vec![None; self.reg_bytes.len()];
        if self.input_reg >= holds.len() {
            return Err(clobber(format!("input register {} out of range", self.input_reg)));
        }
        holds[self.input_reg] = Some(input);
        for instr in &self.instrs {
            for (slot, (&reg, &expect)) in
                instr.inputs.iter().zip(instr.input_nodes.iter()).enumerate()
            {
                if reg == instr.out {
                    return Err(clobber(format!(
                        "'{}' reads its own output register {reg} (operand {slot})",
                        instr.name
                    )));
                }
                match holds.get(reg).copied().flatten() {
                    Some(held) if held == expect => {}
                    held => {
                        return Err(clobber(format!(
                            "'{}' operand {slot} expects the value of {expect} in register \
                             {reg}, which holds {held:?}",
                            instr.name
                        )))
                    }
                }
            }
            if instr.out >= holds.len() {
                return Err(clobber(format!(
                    "'{}' writes out-of-range register {}",
                    instr.name, instr.out
                )));
            }
            holds[instr.out] = Some(instr.node);
        }
        match holds.get(self.output_reg).copied().flatten() {
            Some(held) if held == output => Ok(()),
            held => Err(clobber(format!(
                "output register {} holds {held:?}, expected the value of {output}",
                self.output_reg
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::passes::freeze::freeze;
    use crate::passes::{BnffPass, IcfPass, Pass};

    fn frozen_fragment() -> FrozenGraph {
        let mut b = GraphBuilder::new("frag");
        let x = b.input("in", Shape::nchw(2, 3, 8, 8)).unwrap();
        let c = b.conv_bn_relu(x, Conv2dAttrs::same_3x3(4), "block").unwrap();
        let p = b.max_pool(c, PoolAttrs::new(2, 2, 0), "pool").unwrap();
        let gap = b.global_avg_pool(p, "gap").unwrap();
        let fc = b.fully_connected(gap, 5, "fc").unwrap();
        let labels = b.input("labels", Shape::vector(2)).unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        freeze(&b.finish()).unwrap()
    }

    #[test]
    fn lowers_a_frozen_fragment() {
        let frozen = frozen_fragment();
        let program = LinearProgram::lower_for_inference(&frozen).unwrap();
        assert_eq!(program.sample_shape(), &Shape::new(vec![3, 8, 8]));
        // conv, BN, ReLU, pool, GAP, FC: one instruction per operator.
        let kinds: Vec<&str> = program.instrs().iter().map(|i| i.kernel.kind_name()).collect();
        assert_eq!(kinds, ["conv", "norm", "relu", "pool", "global_avg_pool", "fully_connected"]);
        // Every instruction's operands are fully resolved.
        for instr in program.instrs() {
            assert_eq!(instr.inputs.len(), instr.input_nodes.len());
            assert_eq!(instr.out_volume, instr.out_shape.volume());
            assert!(instr.out_volume * 4 <= program.reg_bytes()[instr.out]);
        }
        assert!(program.validate().is_ok());
        assert!(program.flops_estimate() > 0);
        assert!(program.prefers_serial(2));
    }

    #[test]
    fn non_adjacent_relu_stays_standalone() {
        // An input-adjacent BN → ReLU → conv chain with a second consumer of
        // the input, a conv → ReLU pair and a concatenation: every ReLU is
        // its own instruction, and nothing runs in place.
        let mut b = GraphBuilder::new("affine-relu-gap");
        let x = b.input("in", Shape::nchw(1, 4, 6, 6)).unwrap();
        let bn = b.batch_norm_default(x, "bn").unwrap();
        let r = b.relu(bn, "relu").unwrap();
        let c1 = b.conv2d(r, Conv2dAttrs::pointwise(2), "c1").unwrap();
        let r1 = b.relu(c1, "r1").unwrap();
        let c2 = b.conv2d(x, Conv2dAttrs::pointwise(2), "c2").unwrap();
        let cat = b.concat(vec![r1, c2], "cat").unwrap();
        let gap = b.global_avg_pool(cat, "gap").unwrap();
        let fc = b.fully_connected(gap, 2, "fc").unwrap();
        let labels = b.input("labels", Shape::vector(1)).unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        let program = LinearProgram::lower_for_inference(&freeze(&b.finish()).unwrap()).unwrap();
        let kinds: Vec<&str> = program.instrs().iter().map(|i| i.kernel.kind_name()).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "relu").count(), 2, "{kinds:?}");
        assert!(program.instrs().iter().any(|i| i.kernel == Kernel::Norm { relu: false }));
        for instr in program.instrs() {
            assert!(!instr.inputs.contains(&instr.out), "'{}' runs in place", instr.name);
        }
    }

    #[test]
    fn bnff_levels_lower_too() {
        let mut b = GraphBuilder::new("bnff");
        let x = b.input("in", Shape::nchw(2, 3, 16, 16)).unwrap();
        let c1 = b.conv_bn_relu(x, Conv2dAttrs::same_3x3(8), "a").unwrap();
        let c2 = b.conv_bn_relu(c1, Conv2dAttrs::pointwise(4), "b").unwrap();
        let cat = b.concat(vec![c1, c2], "cat").unwrap();
        let c3 = b.bn_relu_conv(cat, Conv2dAttrs::pointwise(4), "c").unwrap();
        let gap = b.global_avg_pool(c3, "gap").unwrap();
        let fc = b.fully_connected(gap, 3, "fc").unwrap();
        let labels = b.input("labels", Shape::vector(2)).unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        let baseline = b.finish();
        for graph in [BnffPass::new().run(&baseline).unwrap(), {
            IcfPass::new().run(&BnffPass::new().run(&baseline).unwrap()).unwrap()
        }] {
            let frozen = freeze(&graph).unwrap();
            let program = LinearProgram::lower_for_inference(&frozen).unwrap();
            for instr in program.instrs() {
                let node = frozen.graph.node(instr.node).unwrap();
                match (node.op.form(), &instr.kernel) {
                    (
                        OpForm::Conv { attrs, prologue, .. },
                        Kernel::Conv { attrs: a, prologue: p },
                    ) => {
                        assert_eq!((attrs, prologue), (*a, *p), "{}", node.name);
                        assert_eq!(
                            instr.inputs.len(),
                            1,
                            "{}: statistics are no operand",
                            node.name
                        );
                    }
                    (OpForm::Norm { relu, .. }, Kernel::Norm { relu: r }) => {
                        assert_eq!(relu, *r, "{}", node.name);
                        assert_eq!(
                            instr.inputs.len(),
                            1,
                            "{}: statistics are no operand",
                            node.name
                        );
                    }
                    (_, Kernel::Concat) => {
                        assert!(matches!(node.op, OpKind::Concat | OpKind::ConcatStats(_)))
                    }
                    (form, kernel) => assert!(
                        !matches!(form, OpForm::Conv { .. } | OpForm::Norm { .. })
                            && !matches!(node.op, OpKind::SubBnStats(_)),
                        "{}: {kernel:?}",
                        node.name
                    ),
                }
            }
            // Every convolution lowers once.
            let convs = frozen.graph.nodes().filter(|n| n.op.contains_conv()).count();
            let instrs = program.instrs();
            assert_eq!(instrs.iter().filter(|i| i.kernel.kind_name() == "conv").count(), convs);
            assert!(program.prefers_serial(2));
        }
    }

    #[test]
    fn training_graphs_are_rejected() {
        let mut b = GraphBuilder::new("training");
        let x = b.input("in", Shape::nchw(1, 2, 4, 4)).unwrap();
        let bn = b.batch_norm_default(x, "bn").unwrap();
        let gap = b.global_avg_pool(bn, "gap").unwrap();
        let fc = b.fully_connected(gap, 2, "fc").unwrap();
        let labels = b.input("labels", Shape::vector(1)).unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        let graph = b.finish();
        let plan = ExecutionPlan::for_inference(&graph).unwrap();
        let input = graph.input_nodes()[0];
        let err = LinearProgram::lower(&graph, &plan, input, fc);
        assert!(err.is_err(), "SoftmaxLoss must not lower");
    }
}
