//! The linear IR: a frozen inference graph compiled to a flat instruction
//! tape.
//!
//! An interpreted frozen executor would re-derive everything at request
//! time — walk the graph, match on every node's `OpKind`, look parameters
//! up in hash maps, resolve Split aliases and query the memory plan's
//! liveness tables for every node it visits. None of that depends on the
//! request: for a fixed graph at a fixed batch size the answers never
//! change. [`LinearProgram::lower`] asks every question **once**, at compile
//! time, and records the answers as a `Vec<`[`Instr`]`>` in topological
//! order:
//!
//! * each instruction carries a fully-resolved kernel recipe (a [`Kernel`]
//!   with concrete attributes and the fused-ReLU flag),
//! * operands are *virtual registers* ([`Reg`]): dense indices into a
//!   register file whose slots come straight from the memory plan's
//!   buffer-slot assignment, with pre-computed byte sizes — no slot
//!   `HashMap`, no shape inference, no liveness queries remain on the
//!   request path,
//! * shapes are batch-specialized: a program lowered for batch `N` hardcodes
//!   every loop bound and buffer size for that `N`, and small programs carry
//!   a serial-execution hint ([`LinearProgram::prefers_serial`]) so a tape
//!   walker can skip per-kernel thread fan-out when the whole forward pass
//!   is cheaper than the spawns.
//!
//! ReLU fusion has one owner per producer. A convolution's trailing ReLU is
//! the freeze pass's decision (stage 3 rewrites every sole-consumer pair to
//! [`OpKind::ConvRelu`]); lowering only reads it off the op. The one fusion
//! lowering owns is the pair no `OpKind` can carry: a `ChannelAffine` whose
//! sole consumer is the immediately following `Relu` collapses into one
//! fused instruction (bit-exact — the clamp is the same `max(v, 0)` sweep
//! either way). Convolutions carry no lowering choice: the kernels have one
//! forward entry point, whose GEMM gathers windows while packing.
//!
//! [`LinearProgram::validate`] replays the tape symbolically and proves that
//! no register is read after being clobbered — the register-file analogue of
//! the memory plan's no-aliasing guarantee — and runs automatically at the
//! end of every [`LinearProgram::lower`].

use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;
use crate::op::{Conv2dAttrs, OpKind, PoolAttrs, PoolKind};
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
    /// 2-D convolution.
    Conv {
        /// Concrete convolution attributes.
        attrs: Conv2dAttrs,
        /// Clamp the output with a fused ReLU.
        fused_relu: bool,
    },
    /// Per-channel affine `y = scale[c]·x + shift[c]`.
    Affine {
        /// Clamp the output with a fused ReLU.
        fused_relu: bool,
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
            Kernel::Affine { .. } => "affine",
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
    /// The graph node this instruction computes (for the fused
    /// affine+ReLU peephole, the *ReLU* node — the value consumers read).
    pub node: NodeId,
    /// The node whose operator (and parameters) drive the kernel — differs
    /// from `node` only for fused instructions, where it names the producer
    /// (the affine) rather than the value (the ReLU).
    pub op_node: NodeId,
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
    /// Concrete (batch-specialized) output shape.
    pub out_shape: Shape,
    /// `out_shape.volume()`, pre-computed.
    pub out_volume: usize,
    /// Estimated FLOPs of this instruction.
    pub flops: u64,
}

/// A frozen graph compiled to a flat instruction tape for one batch size.
#[derive(Debug, Clone, Serialize)]
pub struct LinearProgram {
    name: String,
    batch: usize,
    instrs: Vec<Instr>,
    input_reg: Reg,
    input_node: NodeId,
    input_shape: Shape,
    output_reg: Reg,
    output_node: NodeId,
    /// Capacity in bytes of every register (slot-backed registers first,
    /// pinned outputs after).
    reg_bytes: Vec<usize>,
    flops_estimate: u64,
}

/// Estimated FLOPs of one node's forward kernel (2·MACs for the GEMM-backed
/// ops, one combined read+write sweep for the rest).
fn node_flops(graph: &Graph, node_id: NodeId) -> Result<u64> {
    let node = graph.node(node_id)?;
    let out = &node.output_shape;
    Ok(match &node.op {
        OpKind::Conv2d(a) | OpKind::ConvRelu(a) => {
            let in_c = graph.node(node.inputs[0])?.output_shape.c();
            2 * (out.volume() * in_c * a.kernel_h * a.kernel_w) as u64
        }
        OpKind::FullyConnected { .. } => {
            let in_features =
                graph.node(node.inputs[0])?.output_shape.volume() / out.dim(0).unwrap_or(1).max(1);
            2 * (out.volume() * in_features) as u64
        }
        _ => 2 * out.volume() as u64,
    })
}

/// The register assigned to a node's (alias-resolved) output tensor.
fn lookup_reg(reg_of: &[Option<Reg>], plan: &ExecutionPlan, id: NodeId) -> Result<Reg> {
    reg_of[plan.resolve(id).index()].ok_or_else(|| GraphError::PassError {
        pass: "linearize".to_string(),
        reason: format!("node {id} owns no register"),
    })
}

/// Whether a kernel may legally run in place (output register equal to its
/// first input register): true for the pointwise kernels, where element `i`
/// of the output depends only on element `i` of the input.
fn kernel_is_pointwise(kernel: &Kernel) -> bool {
    matches!(kernel, Kernel::Affine { .. } | Kernel::Relu)
}

impl LinearProgram {
    /// Lowers a frozen graph and its inference memory plan into a tape.
    ///
    /// `input`/`output` are the graph's data input and final output nodes
    /// (as recorded by the freeze pass). The program is specialized to the
    /// batch size baked into the graph's shapes.
    ///
    /// # Errors
    /// Returns an error when the graph contains a training-only operator or
    /// the lowered tape fails its register-clobber validation.
    pub fn lower(
        graph: &Graph,
        plan: &ExecutionPlan,
        input: NodeId,
        output: NodeId,
    ) -> Result<LinearProgram> {
        let n = graph.node_count();
        let input_shape = graph.node(input)?.output_shape.clone();
        let batch = input_shape.dim(0).unwrap_or(1);

        // Register file: one register per plan slot, then one dedicated
        // register per pinned (final-output) tensor.
        let mut reg_bytes: Vec<usize> = plan.slot_sizes().to_vec();
        let mut reg_of: Vec<Option<Reg>> = vec![None; n];
        for &id in plan.order() {
            let idx = id.index();
            if let Some(slot) = plan.slot(id) {
                reg_of[idx] = Some(slot);
            } else if plan.liveness(id).map(|l| l.saved_for_backward).unwrap_or(false) {
                reg_of[idx] = Some(reg_bytes.len());
                reg_bytes.push(graph.node(id)?.output_shape.bytes_f32());
            }
        }

        // The peephole marks ReLU nodes fused into their producing affine.
        let mut fused_into_producer = vec![false; n];
        let mut instrs = Vec::new();
        let mut flops_estimate = 0u64;
        for (pos, &id) in plan.order().iter().enumerate() {
            let node = graph.node(id)?;
            if fused_into_producer[id.index()] {
                continue;
            }
            let (kernel, value_node) = match &node.op {
                OpKind::Input | OpKind::Split { .. } => continue,
                OpKind::Conv2d(a) | OpKind::ConvRelu(a) => {
                    let fused_relu = matches!(node.op, OpKind::ConvRelu(_));
                    (Kernel::Conv { attrs: *a, fused_relu }, id)
                }
                OpKind::ChannelAffine => {
                    // Fuse a sole-consumer ReLU that executes immediately
                    // next: no instruction can observe the unclamped value,
                    // and no other tensor is defined in between, so writing
                    // the ReLU's register at the affine's position clobbers
                    // nothing. When the planner recycled the affine input's
                    // slot for the ReLU (it can: the input dies at the
                    // affine), the fused instruction becomes an in-place
                    // sweep — legal because the kernel is pointwise.
                    let consumers = graph.consumers(id);
                    let fusable = consumers.len() == 1
                        && matches!(graph.node(consumers[0])?.op, OpKind::Relu)
                        && plan.position(consumers[0]) == pos + 1;
                    if fusable {
                        fused_into_producer[consumers[0].index()] = true;
                        (Kernel::Affine { fused_relu: true }, consumers[0])
                    } else {
                        (Kernel::Affine { fused_relu: false }, id)
                    }
                }
                OpKind::Relu => (Kernel::Relu, id),
                OpKind::Pool { kind, attrs } => (Kernel::Pool { kind: *kind, attrs: *attrs }, id),
                OpKind::GlobalAvgPool => (Kernel::GlobalAvgPool, id),
                OpKind::Concat => (Kernel::Concat, id),
                OpKind::EltwiseSum => (Kernel::EltwiseSum, id),
                OpKind::FullyConnected { .. } => (Kernel::FullyConnected, id),
                other => {
                    return Err(GraphError::PassError {
                        pass: "linearize".to_string(),
                        reason: format!(
                            "training-only operator {other} in node '{}' cannot be lowered",
                            node.name
                        ),
                    })
                }
            };
            let value = graph.node(value_node)?;
            let input_nodes: Vec<NodeId> = node.inputs.iter().map(|&i| plan.resolve(i)).collect();
            let inputs: Vec<Reg> =
                input_nodes.iter().map(|&i| lookup_reg(&reg_of, plan, i)).collect::<Result<_>>()?;
            let out = lookup_reg(&reg_of, plan, value_node)?;
            let flops = node_flops(graph, id)?
                + if value_node == id { 0 } else { node_flops(graph, value_node)? };
            flops_estimate += flops;
            instrs.push(Instr {
                node: value_node,
                op_node: id,
                name: node.name.clone(),
                kernel,
                inputs,
                input_nodes,
                out,
                out_shape: value.output_shape.clone(),
                out_volume: value.output_shape.volume(),
                flops,
            });
        }

        let program = LinearProgram {
            name: graph.name().to_string(),
            batch,
            instrs,
            input_reg: lookup_reg(&reg_of, plan, input)?,
            input_node: input,
            input_shape,
            output_reg: lookup_reg(&reg_of, plan, output)?,
            output_node: plan.resolve(output),
            reg_bytes,
            flops_estimate,
        };
        program.validate()?;
        Ok(program)
    }

    /// Plans and lowers a freshly frozen graph in one step (the batch size
    /// is the one baked into the frozen graph's shapes).
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

    /// The batch size this program is specialized to.
    pub fn batch(&self) -> usize {
        self.batch
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

    /// The concrete input shape (batch included).
    pub fn input_shape(&self) -> &Shape {
        &self.input_shape
    }

    /// The register holding the final output after the tape runs.
    pub fn output_reg(&self) -> Reg {
        self.output_reg
    }

    /// Number of registers in the file.
    pub fn reg_count(&self) -> usize {
        self.reg_bytes.len()
    }

    /// Capacity in bytes of every register.
    pub fn reg_bytes(&self) -> &[usize] {
        &self.reg_bytes
    }

    /// Estimated FLOPs of one forward pass.
    pub fn flops_estimate(&self) -> u64 {
        self.flops_estimate
    }

    /// Whether the whole pass is cheap enough that per-kernel thread
    /// fan-out costs more than it buys. Kernels are thread-count
    /// bit-identical, so honouring (or ignoring) the hint never changes
    /// results.
    pub fn prefers_serial(&self) -> bool {
        self.flops_estimate < SERIAL_FLOPS_THRESHOLD
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
                // Pointwise kernels may run in place on their first
                // operand; any other self-read is a clobber.
                if reg == instr.out && !(slot == 0 && kernel_is_pointwise(&instr.kernel)) {
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
    use crate::passes::{BnffPass, Pass};

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
        assert_eq!(program.batch(), 2);
        assert!(!program.is_empty());
        // Every instruction's operands are fully resolved.
        for instr in program.instrs() {
            assert_eq!(instr.inputs.len(), instr.input_nodes.len());
            assert_eq!(instr.out_volume, instr.out_shape.volume());
            assert!(instr.out_volume * 4 <= program.reg_bytes()[instr.out]);
        }
        assert!(program.validate().is_ok());
        assert!(program.flops_estimate() > 0);
        assert!(program.prefers_serial());
    }

    #[test]
    fn adjacent_affine_relu_pairs_fuse_in_place() {
        // An input-adjacent BN freezes to a standalone ChannelAffine
        // followed by its sole-consumer ReLU on the very next position. The
        // planner recycles the input's slot for the ReLU, so the fused
        // instruction must run in place on that register.
        let mut b = GraphBuilder::new("affine-relu");
        let x = b.input("in", Shape::nchw(1, 4, 6, 6)).unwrap();
        let bn = b.batch_norm_default(x, "bn").unwrap();
        let r = b.relu(bn, "relu").unwrap();
        let c = b.conv2d(r, Conv2dAttrs::pointwise(2), "conv").unwrap();
        let gap = b.global_avg_pool(c, "gap").unwrap();
        let fc = b.fully_connected(gap, 2, "fc").unwrap();
        let labels = b.input("labels", Shape::vector(1)).unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        let frozen = freeze(&b.finish()).unwrap();
        let program = LinearProgram::lower_for_inference(&frozen).unwrap();
        let fused: Vec<&Instr> = program
            .instrs()
            .iter()
            .filter(|i| matches!(i.kernel, Kernel::Affine { fused_relu: true }))
            .collect();
        assert_eq!(fused.len(), 1, "affine→relu should fuse: {:?}", program.instrs());
        // No standalone Relu instruction survives.
        assert!(!program.instrs().iter().any(|i| matches!(i.kernel, Kernel::Relu)));
    }

    #[test]
    fn baseline_conv_relu_pairs_fuse_into_the_conv() {
        // A graph-level-unfused conv→relu pair is fused by the freeze pass
        // (`ConvRelu`); lowering reads the flag off the op.
        let mut b = GraphBuilder::new("conv-relu");
        let x = b.input("in", Shape::nchw(1, 3, 8, 8)).unwrap();
        let c1 = b.conv2d(x, Conv2dAttrs::same_3x3(4), "c1").unwrap();
        let r1 = b.relu(c1, "r1").unwrap();
        let c2 = b.conv2d(x, Conv2dAttrs::same_3x3(4), "c2").unwrap();
        let cat = b.concat(vec![r1, c2], "cat").unwrap();
        let gap = b.global_avg_pool(cat, "gap").unwrap();
        let fc = b.fully_connected(gap, 2, "fc").unwrap();
        let labels = b.input("labels", Shape::vector(1)).unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        let frozen = freeze(&b.finish()).unwrap();
        let program = LinearProgram::lower_for_inference(&frozen).unwrap();
        assert!(
            program
                .instrs()
                .iter()
                .any(|i| matches!(i.kernel, Kernel::Conv { fused_relu: true, .. })),
            "c1→r1 should fuse into the conv's epilogue: {:?}",
            program.instrs()
        );
        // A fused convolution never writes one of its own input registers.
        for instr in program.instrs() {
            if matches!(instr.kernel, Kernel::Conv { .. }) {
                assert!(!instr.inputs.contains(&instr.out), "'{}' runs in place", instr.name);
            }
        }
    }

    #[test]
    fn non_adjacent_relu_stays_standalone() {
        // A second consumer of the input makes the freeze pass schedule
        // another conv between the affine and its ReLU — the peephole must
        // leave the pair unfused and the tape must still validate.
        let mut b = GraphBuilder::new("affine-relu-gap");
        let x = b.input("in", Shape::nchw(1, 4, 6, 6)).unwrap();
        let bn = b.batch_norm_default(x, "bn").unwrap();
        let r = b.relu(bn, "relu").unwrap();
        let c1 = b.conv2d(r, Conv2dAttrs::pointwise(2), "c1").unwrap();
        let c2 = b.conv2d(x, Conv2dAttrs::pointwise(2), "c2").unwrap();
        let cat = b.concat(vec![c1, c2], "cat").unwrap();
        let gap = b.global_avg_pool(cat, "gap").unwrap();
        let fc = b.fully_connected(gap, 2, "fc").unwrap();
        let labels = b.input("labels", Shape::vector(1)).unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        let frozen = freeze(&b.finish()).unwrap();
        let program = LinearProgram::lower_for_inference(&frozen).unwrap();
        program.validate().unwrap();
        if program.instrs().iter().any(|i| matches!(i.kernel, Kernel::Relu)) {
            // Unfused: the affine stays plain.
            assert!(program
                .instrs()
                .iter()
                .any(|i| matches!(i.kernel, Kernel::Affine { fused_relu: false })));
        }
    }

    #[test]
    fn bnff_levels_lower_too() {
        let mut b = GraphBuilder::new("bnff");
        let x = b.input("in", Shape::nchw(2, 3, 16, 16)).unwrap();
        let c1 = b.conv_bn_relu(x, Conv2dAttrs::same_3x3(8), "a").unwrap();
        let c2 = b.conv_bn_relu(c1, Conv2dAttrs::pointwise(4), "b").unwrap();
        let gap = b.global_avg_pool(c2, "gap").unwrap();
        let fc = b.fully_connected(gap, 3, "fc").unwrap();
        let labels = b.input("labels", Shape::vector(2)).unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        let graph = BnffPass::new().run(&b.finish()).unwrap();
        let frozen = freeze(&graph).unwrap();
        let program = LinearProgram::lower_for_inference(&frozen).unwrap();
        assert!(program.validate().is_ok());
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
        assert!(err.is_err(), "BatchNorm must not lower");
    }
}
