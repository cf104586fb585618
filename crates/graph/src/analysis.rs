//! Machine-independent cost analysis: FLOPs and whole-tensor memory sweeps.
//!
//! The paper's argument is made in terms of *memory sweeps*: whole-tensor
//! reads or writes of mini-batch feature maps that cannot be captured by
//! on-chip buffers (Section 3.1, Figure 5). This module computes, for every
//! node of a graph, the forward- and backward-pass FLOPs and the list of
//! memory sweeps it performs. The accounting follows Figure 5 of the paper:
//!
//! | op (forward)        | activation sweeps                                   |
//! |---------------------|-----------------------------------------------------|
//! | `Conv2d`            | read ifmap, write ofmap                             |
//! | `BatchNorm` 2-pass  | read ifmap ×3 (mean, var, normalize), write ofmap   |
//! | `BatchNorm` 1-pass  | read ifmap ×2 (fused mean+var, normalize), write    |
//! | `ReLU`              | read ifmap, write ofmap                             |
//! | `SubBnStats`        | read ifmap ×2 (×1 with MVF)                         |
//! | `SubBnNorm`         | read ifmap, write ofmap                             |
//! | `ReluConv` (RCF)    | read ifmap, write ofmap                             |
//! | `ConvStats` (BNFF)  | read ifmap, write ofmap (Σx/Σx² stay on chip)        |
//! | `NormReluConv`      | read ifmap, write normalized ifmap (for backward),  |
//! |                     | write ofmap                                         |
//! | `Concat`            | read every input, write output                      |
//! | `Split`             | nothing (pointer pass)                              |
//!
//! Backward sweeps follow the same style; convolutions need twice the
//! forward work (gradient w.r.t. inputs *and* weights), BN needs five sweeps
//! (two passes over ∂ofmap and the saved input for ∂γ/∂β, then ∂ifmap), and
//! Split must physically sum the gradients of its consumers.

use crate::graph::Graph;
use crate::node::{Node, NodeId};
use crate::op::{Conv2dAttrs, OpKind, PoolKind};
use crate::Result;
use bnff_tensor::Shape;
use serde::Serialize;
use std::collections::HashMap;

/// Direction of a memory sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SweepDirection {
    /// The tensor is read.
    Read,
    /// The tensor is written.
    Write,
}

/// What kind of tensor a sweep touches. The cache model treats these
/// differently: weights are small and stay resident, mini-batch activations
/// and their gradients do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TensorClass {
    /// A mini-batch activation (feature map).
    Activation,
    /// Layer weights (filters, FC matrices, γ/β).
    Weight,
    /// A gradient with the size of an activation.
    Gradient,
    /// A gradient with the size of the layer's weights.
    WeightGradient,
    /// Tiny per-channel statistics (Σx, Σx², μ, σ²).
    Statistics,
}

/// One whole-tensor memory sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Sweep {
    /// Number of bytes traversed.
    pub bytes: usize,
    /// Read or write.
    pub direction: SweepDirection,
    /// The tensor class being swept.
    pub class: TensorClass,
    /// Short description (e.g. `"ifmap"`, `"d_ofmap"`).
    pub label: &'static str,
}

impl Sweep {
    fn new(
        bytes: usize,
        direction: SweepDirection,
        class: TensorClass,
        label: &'static str,
    ) -> Self {
        Sweep { bytes, direction, class, label }
    }

    fn read_act(bytes: usize, label: &'static str) -> Self {
        Self::new(bytes, SweepDirection::Read, TensorClass::Activation, label)
    }

    fn write_act(bytes: usize, label: &'static str) -> Self {
        Self::new(bytes, SweepDirection::Write, TensorClass::Activation, label)
    }

    fn read_grad(bytes: usize, label: &'static str) -> Self {
        Self::new(bytes, SweepDirection::Read, TensorClass::Gradient, label)
    }

    fn write_grad(bytes: usize, label: &'static str) -> Self {
        Self::new(bytes, SweepDirection::Write, TensorClass::Gradient, label)
    }

    fn read_weight(bytes: usize, label: &'static str) -> Self {
        Self::new(bytes, SweepDirection::Read, TensorClass::Weight, label)
    }

    fn write_wgrad(bytes: usize, label: &'static str) -> Self {
        Self::new(bytes, SweepDirection::Write, TensorClass::WeightGradient, label)
    }
}

/// FLOPs and memory sweeps of one node, for forward and backward.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NodeCost {
    /// Floating point operations in the forward pass.
    pub flops_fwd: f64,
    /// Floating point operations in the backward pass.
    pub flops_bwd: f64,
    /// Memory sweeps performed in the forward pass.
    pub sweeps_fwd: Vec<Sweep>,
    /// Memory sweeps performed in the backward pass.
    pub sweeps_bwd: Vec<Sweep>,
}

impl NodeCost {
    /// Total bytes swept in the forward pass.
    pub fn bytes_fwd(&self) -> usize {
        self.sweeps_fwd.iter().map(|s| s.bytes).sum()
    }

    /// Total bytes swept in the backward pass.
    pub fn bytes_bwd(&self) -> usize {
        self.sweeps_bwd.iter().map(|s| s.bytes).sum()
    }

    /// Total bytes swept per training iteration (forward + backward).
    pub fn bytes_total(&self) -> usize {
        self.bytes_fwd() + self.bytes_bwd()
    }
}

/// The shape of one GEMM a node's im2col / inner-product lowering executes
/// (`C: m×n`, `A: m×k`, `B: k×n`), and how many times it runs per pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct GemmShape {
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Reduction depth.
    pub k: usize,
    /// Executions per pass (once per mini-batch sample for convolutions).
    pub count: usize,
}

impl GemmShape {
    /// FLOPs of all `count` executions.
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64 * self.count as f64
    }
}

/// The GEMMs a node's forward and backward passes lower to. Empty for
/// nodes that never reach the GEMM engine (BN, pooling, ReLU, …).
#[derive(Debug, Clone, Default, Serialize)]
pub struct NodeGemms {
    /// Forward-pass GEMMs.
    pub fwd: Vec<GemmShape>,
    /// Backward-pass GEMMs (`∂ifmap` and `∂weights` lowerings).
    pub bwd: Vec<GemmShape>,
}

/// The GEMMs `node` lowers to: convolutions run one
/// `Cout × (Ho·Wo) × (Cin·Kh·Kw)` multiply per sample (plus the two adjoint
/// multiplies backward), fully-connected layers one batch-sized multiply
/// per pass. The cache model uses these shapes to charge the blocked
/// kernel's actual tile-level DRAM behaviour instead of guessing from
/// whole-tensor sweeps.
///
/// # Errors
/// Returns an error if the node's inputs cannot be resolved in `graph`.
pub fn node_gemms(graph: &Graph, node: &Node) -> Result<NodeGemms> {
    let input_shape = match node.inputs.first() {
        Some(id) => graph.node(*id)?.output_shape.clone(),
        None => return Ok(NodeGemms::default()),
    };
    let out = &node.output_shape;
    Ok(match (node.op.conv_attrs(), &node.op) {
        (Some(a), _) => {
            if !input_shape.is_nchw() || !out.is_nchw() {
                return Ok(NodeGemms::default());
            }
            let batch = input_shape.n();
            let rows = input_shape.c() * a.kernel_h * a.kernel_w;
            let cols = out.h() * out.w();
            NodeGemms {
                // out_sample = W (Cout × rows) · col (rows × cols)
                fwd: vec![GemmShape { m: a.out_channels, n: cols, k: rows, count: batch }],
                bwd: vec![
                    // d_col = Wᵀ (rows × Cout) · d_out_sample (Cout × cols)
                    GemmShape { m: rows, n: cols, k: a.out_channels, count: batch },
                    // d_W += d_out_sample (Cout × cols) · colᵀ (cols × rows)
                    GemmShape { m: a.out_channels, n: rows, k: cols, count: batch },
                ],
            }
        }
        (None, OpKind::FullyConnected { out_features }) => {
            let batch = input_shape.dim(0).unwrap_or(1);
            let in_features = input_shape.volume() / batch.max(1);
            NodeGemms {
                // y = x (N × in) · Wᵀ (in × out)
                fwd: vec![GemmShape { m: batch, n: *out_features, k: in_features, count: 1 }],
                bwd: vec![
                    // d_x = d_y (N × out) · W (out × in)
                    GemmShape { m: batch, n: in_features, k: *out_features, count: 1 },
                    // d_W = d_yᵀ (out × N) · x (N × in)
                    GemmShape { m: *out_features, n: in_features, k: batch, count: 1 },
                ],
            }
        }
        _ => NodeGemms::default(),
    })
}

/// Weight bytes owned by a convolution given its input channel count.
fn conv_weight_bytes(attrs: &Conv2dAttrs, in_channels: usize) -> usize {
    attrs.weight_elems(in_channels) * 4
}

fn conv_flops(attrs: &Conv2dAttrs, in_channels: usize, out_shape: &Shape) -> f64 {
    2.0 * out_shape.volume() as f64 * (in_channels * attrs.kernel_h * attrs.kernel_w) as f64
}

/// Computes the cost of a single node.
///
/// # Errors
/// Returns an error if the node's inputs cannot be resolved in `graph`.
pub fn node_cost(graph: &Graph, node: &Node) -> Result<NodeCost> {
    let input_shapes: Vec<Shape> = node
        .inputs
        .iter()
        .map(|id| graph.node(*id).map(|n| n.output_shape.clone()))
        .collect::<Result<_>>()?;
    let out = &node.output_shape;
    let out_bytes = out.bytes_f32();
    let in_bytes = input_shapes.first().map(|s| s.bytes_f32()).unwrap_or(0);
    let in_elems = input_shapes.first().map(|s| s.volume()).unwrap_or(0) as f64;
    let out_elems = out.volume() as f64;
    let in_channels =
        input_shapes.first().map(|s| if s.is_nchw() { s.c() } else { 0 }).unwrap_or(0);
    let consumers = graph.consumers(node.id).len().max(1);

    let cost = match &node.op {
        OpKind::Input => {
            NodeCost { flops_fwd: 0.0, flops_bwd: 0.0, sweeps_fwd: vec![], sweeps_bwd: vec![] }
        }
        OpKind::Conv2d(a) | OpKind::ReluConv(a) | OpKind::ConvRelu(a) => {
            let wbytes = conv_weight_bytes(a, in_channels);
            let flops = conv_flops(a, in_channels, out);
            NodeCost {
                flops_fwd: flops,
                flops_bwd: 2.0 * flops,
                sweeps_fwd: vec![
                    Sweep::read_act(in_bytes, "ifmap"),
                    Sweep::read_weight(wbytes, "weights"),
                    Sweep::write_act(out_bytes, "ofmap"),
                ],
                sweeps_bwd: vec![
                    Sweep::read_grad(out_bytes, "d_ofmap (d_ifmap pass)"),
                    Sweep::read_weight(wbytes, "weights"),
                    Sweep::write_grad(in_bytes, "d_ifmap"),
                    Sweep::read_grad(out_bytes, "d_ofmap (d_weight pass)"),
                    Sweep::read_act(in_bytes, "saved ifmap"),
                    Sweep::write_wgrad(wbytes, "d_weights"),
                ],
            }
        }
        OpKind::ConvStats { conv: a, .. } => {
            let wbytes = conv_weight_bytes(a, in_channels);
            let flops = conv_flops(a, in_channels, out);
            NodeCost {
                // Accumulating x and x² adds ~3 flops per output element.
                flops_fwd: flops + 3.0 * out_elems,
                flops_bwd: 2.0 * flops,
                sweeps_fwd: vec![
                    Sweep::read_act(in_bytes, "ifmap"),
                    Sweep::read_weight(wbytes, "weights"),
                    Sweep::write_act(out_bytes, "ofmap (+Σx/Σx² on chip)"),
                ],
                sweeps_bwd: vec![
                    Sweep::read_grad(out_bytes, "d_ofmap (d_ifmap pass, +sub-BN1')"),
                    Sweep::read_weight(wbytes, "weights"),
                    Sweep::write_grad(in_bytes, "d_ifmap"),
                    Sweep::read_grad(out_bytes, "d_ofmap (d_weight pass)"),
                    Sweep::read_act(in_bytes, "saved ifmap"),
                    Sweep::write_wgrad(wbytes, "d_weights"),
                ],
            }
        }
        OpKind::NormReluConv { conv: a, .. } | OpKind::NormReluConvStats { conv: a, .. } => {
            let wbytes = conv_weight_bytes(a, in_channels);
            let flops = conv_flops(a, in_channels, out);
            let stats_flops = if matches!(node.op, OpKind::NormReluConvStats { .. }) {
                3.0 * out_elems
            } else {
                0.0
            };
            NodeCost {
                // Normalization (~4 flops/elem) and clipping (1) happen while
                // streaming the ifmap into the convolution.
                flops_fwd: flops + 5.0 * in_elems + stats_flops,
                flops_bwd: 2.0 * flops + 8.0 * in_elems,
                sweeps_fwd: vec![
                    Sweep::read_act(in_bytes, "raw ifmap (I2')"),
                    Sweep::read_weight(wbytes, "weights"),
                    Sweep::write_act(in_bytes, "normalized ifmap (O2', kept for backward)"),
                    Sweep::write_act(out_bytes, "ofmap"),
                ],
                sweeps_bwd: vec![
                    Sweep::read_grad(out_bytes, "d_ofmap (d_ifmap pass)"),
                    Sweep::read_weight(wbytes, "weights"),
                    // The ∂γ/∂β reduction of the absorbed sub-BN2 needs the
                    // saved normalized activation alongside the gradient.
                    Sweep::read_act(in_bytes, "saved normalized ifmap (∂γ/∂β)"),
                    // The per-channel reductions must complete before the
                    // final d_ifmap can be formed, so the gradient w.r.t. the
                    // normalized activations is materialized once and
                    // re-read (the strict dependency of Figure 5(b)).
                    Sweep::write_grad(in_bytes, "d_x̂ (reduction pass)"),
                    Sweep::read_grad(in_bytes, "d_x̂ (apply pass)"),
                    Sweep::write_grad(in_bytes, "d_ifmap"),
                    Sweep::read_grad(out_bytes, "d_ofmap (d_weight pass)"),
                    Sweep::read_act(in_bytes, "saved normalized ifmap"),
                    Sweep::write_wgrad(wbytes, "d_weights"),
                ],
            }
        }
        OpKind::FullyConnected { out_features } => {
            let in_features = input_shapes
                .first()
                .map(|s| s.volume() / s.dim(0).unwrap_or(1).max(1))
                .unwrap_or(0);
            let n = input_shapes.first().map(|s| s.dim(0).unwrap_or(1)).unwrap_or(1);
            let wbytes = (in_features * out_features + out_features) * 4;
            let flops = 2.0 * n as f64 * in_features as f64 * *out_features as f64;
            NodeCost {
                flops_fwd: flops,
                flops_bwd: 2.0 * flops,
                sweeps_fwd: vec![
                    Sweep::read_act(in_bytes, "ifmap"),
                    Sweep::read_weight(wbytes, "weights"),
                    Sweep::write_act(out_bytes, "ofmap"),
                ],
                sweeps_bwd: vec![
                    Sweep::read_grad(out_bytes, "d_ofmap (d_ifmap pass)"),
                    Sweep::read_weight(wbytes, "weights"),
                    Sweep::write_grad(in_bytes, "d_ifmap"),
                    Sweep::read_grad(out_bytes, "d_ofmap (d_weight pass)"),
                    Sweep::read_act(in_bytes, "saved ifmap"),
                    Sweep::write_wgrad(wbytes, "d_weights"),
                ],
            }
        }
        OpKind::BatchNorm(attrs) => {
            let stat_reads = if attrs.one_pass_stats { 2 } else { 3 };
            let mut sweeps_fwd = Vec::new();
            for i in 0..stat_reads {
                let label = match (attrs.one_pass_stats, i) {
                    (true, 0) => "ifmap (fused mean+var)",
                    (true, _) => "ifmap (normalize)",
                    (false, 0) => "ifmap (mean)",
                    (false, 1) => "ifmap (variance)",
                    (false, _) => "ifmap (normalize)",
                };
                sweeps_fwd.push(Sweep::read_act(in_bytes, label));
            }
            sweeps_fwd.push(Sweep::write_act(out_bytes, "ofmap"));
            NodeCost {
                flops_fwd: 7.0 * in_elems,
                flops_bwd: 11.0 * in_elems,
                sweeps_fwd,
                sweeps_bwd: vec![
                    Sweep::read_grad(out_bytes, "d_ofmap (∂γ/∂β)"),
                    Sweep::read_act(in_bytes, "saved ifmap (∂γ/∂β)"),
                    Sweep::read_grad(out_bytes, "d_ofmap (d_ifmap)"),
                    Sweep::read_act(in_bytes, "saved ifmap (d_ifmap)"),
                    Sweep::write_grad(in_bytes, "d_ifmap"),
                ],
            }
        }
        OpKind::SubBnStats(attrs) => {
            let reads = if attrs.one_pass_stats { 1 } else { 2 };
            let mut sweeps_fwd = Vec::new();
            for i in 0..reads {
                let label = if attrs.one_pass_stats {
                    "ifmap (fused mean+var)"
                } else if i == 0 {
                    "ifmap (mean)"
                } else {
                    "ifmap (variance)"
                };
                sweeps_fwd.push(Sweep::read_act(in_bytes, label));
            }
            sweeps_fwd.push(Sweep::new(
                out.bytes_f32(),
                SweepDirection::Write,
                TensorClass::Statistics,
                "μ/σ²",
            ));
            NodeCost {
                flops_fwd: 3.0 * in_elems,
                // The backward counterpart of the statistics sub-layer is the
                // ∂γ/∂β reduction (sub-BN2' in the paper's figure 5(b)).
                flops_bwd: 4.0 * in_elems,
                sweeps_fwd,
                sweeps_bwd: vec![
                    Sweep::read_grad(in_bytes, "d_ofmap (∂γ/∂β)"),
                    Sweep::read_act(in_bytes, "saved ifmap (∂γ/∂β)"),
                ],
            }
        }
        OpKind::SubBnNorm(_) | OpKind::NormRelu(_) => NodeCost {
            flops_fwd: 5.0 * in_elems,
            flops_bwd: 7.0 * in_elems,
            sweeps_fwd: vec![
                Sweep::read_act(in_bytes, "ifmap (normalize)"),
                Sweep::write_act(out_bytes, "ofmap"),
            ],
            sweeps_bwd: vec![
                Sweep::read_grad(out_bytes, "d_ofmap"),
                Sweep::read_act(in_bytes, "saved ifmap"),
                Sweep::write_grad(in_bytes, "d_ifmap"),
            ],
        },
        OpKind::ChannelAffine => NodeCost {
            // Inference-only per-channel scale+shift: one read, one write,
            // no backward (frozen graphs never train).
            flops_fwd: 2.0 * out_elems,
            flops_bwd: 0.0,
            sweeps_fwd: vec![
                Sweep::read_act(in_bytes, "ifmap"),
                Sweep::write_act(out_bytes, "affine out"),
            ],
            sweeps_bwd: vec![],
        },
        OpKind::Relu => NodeCost {
            flops_fwd: in_elems,
            flops_bwd: in_elems,
            sweeps_fwd: vec![
                Sweep::read_act(in_bytes, "ifmap"),
                Sweep::write_act(out_bytes, "ofmap"),
            ],
            sweeps_bwd: vec![
                Sweep::read_grad(out_bytes, "d_ofmap"),
                Sweep::read_act(out_bytes, "saved ofmap (mask)"),
                Sweep::write_grad(in_bytes, "d_ifmap"),
            ],
        },
        OpKind::Pool { kind, attrs } => {
            let window = (attrs.kernel * attrs.kernel) as f64;
            let bwd_sweeps = match kind {
                PoolKind::Max => vec![
                    Sweep::read_grad(out_bytes, "d_ofmap"),
                    Sweep::read_act(in_bytes, "saved ifmap (argmax)"),
                    Sweep::write_grad(in_bytes, "d_ifmap"),
                ],
                PoolKind::Average => vec![
                    Sweep::read_grad(out_bytes, "d_ofmap"),
                    Sweep::write_grad(in_bytes, "d_ifmap"),
                ],
            };
            NodeCost {
                flops_fwd: out_elems * window,
                flops_bwd: in_elems,
                sweeps_fwd: vec![
                    Sweep::read_act(in_bytes, "ifmap"),
                    Sweep::write_act(out_bytes, "ofmap"),
                ],
                sweeps_bwd: bwd_sweeps,
            }
        }
        OpKind::GlobalAvgPool => NodeCost {
            flops_fwd: in_elems,
            flops_bwd: in_elems,
            sweeps_fwd: vec![
                Sweep::read_act(in_bytes, "ifmap"),
                Sweep::write_act(out_bytes, "ofmap"),
            ],
            sweeps_bwd: vec![
                Sweep::read_grad(out_bytes, "d_ofmap"),
                Sweep::write_grad(in_bytes, "d_ifmap"),
            ],
        },
        OpKind::Concat | OpKind::ConcatStats(_) => {
            let mut sweeps_fwd: Vec<Sweep> =
                input_shapes.iter().map(|s| Sweep::read_act(s.bytes_f32(), "ifmap")).collect();
            sweeps_fwd.push(Sweep::write_act(out_bytes, "ofmap"));
            let flops_fwd =
                if matches!(node.op, OpKind::ConcatStats(_)) { 3.0 * out_elems } else { 0.0 };
            let mut sweeps_bwd = vec![Sweep::read_grad(out_bytes, "d_ofmap")];
            for s in &input_shapes {
                sweeps_bwd.push(Sweep::write_grad(s.bytes_f32(), "d_ifmap slice"));
            }
            NodeCost { flops_fwd, flops_bwd: 0.0, sweeps_fwd, sweeps_bwd }
        }
        OpKind::Split { consumers: declared } => {
            let fanout = (*declared).max(consumers);
            // Forward Split is a pointer pass in the reference implementation.
            let mut sweeps_bwd = Vec::new();
            for _ in 0..fanout {
                sweeps_bwd.push(Sweep::read_grad(out_bytes, "consumer d_ofmap"));
            }
            sweeps_bwd.push(Sweep::write_grad(in_bytes, "summed d_ifmap"));
            NodeCost {
                flops_fwd: 0.0,
                flops_bwd: out_elems * fanout as f64,
                sweeps_fwd: vec![],
                sweeps_bwd,
            }
        }
        OpKind::EltwiseSum => {
            let mut sweeps_fwd: Vec<Sweep> =
                input_shapes.iter().map(|s| Sweep::read_act(s.bytes_f32(), "ifmap")).collect();
            sweeps_fwd.push(Sweep::write_act(out_bytes, "ofmap"));
            let mut sweeps_bwd = vec![Sweep::read_grad(out_bytes, "d_ofmap")];
            for s in &input_shapes {
                sweeps_bwd.push(Sweep::write_grad(s.bytes_f32(), "d_ifmap"));
            }
            NodeCost {
                flops_fwd: out_elems * (input_shapes.len().saturating_sub(1)) as f64,
                flops_bwd: 0.0,
                sweeps_fwd,
                sweeps_bwd,
            }
        }
        OpKind::SoftmaxLoss => NodeCost {
            flops_fwd: 5.0 * in_elems,
            flops_bwd: 2.0 * in_elems,
            sweeps_fwd: vec![Sweep::read_act(in_bytes, "scores")],
            sweeps_bwd: vec![
                Sweep::read_act(in_bytes, "saved scores"),
                Sweep::write_grad(in_bytes, "d_scores"),
            ],
        },
    };
    Ok(cost)
}

/// Aggregate costs of an entire graph, by node and by layer category.
#[derive(Debug, Clone, Serialize)]
pub struct GraphCost {
    /// Per-node costs, keyed by node id index.
    pub per_node: HashMap<usize, NodeCost>,
    /// Total forward FLOPs.
    pub flops_fwd: f64,
    /// Total backward FLOPs.
    pub flops_bwd: f64,
    /// Total bytes swept forward.
    pub bytes_fwd: usize,
    /// Total bytes swept backward.
    pub bytes_bwd: usize,
}

impl GraphCost {
    /// Total FLOPs per training iteration.
    pub fn flops_total(&self) -> f64 {
        self.flops_fwd + self.flops_bwd
    }

    /// Total bytes swept per training iteration.
    pub fn bytes_total(&self) -> usize {
        self.bytes_fwd + self.bytes_bwd
    }

    /// Cost of a single node.
    pub fn node(&self, id: NodeId) -> Option<&NodeCost> {
        self.per_node.get(&id.index())
    }
}

/// Computes the cost of every node in the graph.
///
/// # Errors
/// Returns an error if the graph is structurally inconsistent.
pub fn graph_cost(graph: &Graph) -> Result<GraphCost> {
    let mut per_node = HashMap::new();
    let mut flops_fwd = 0.0;
    let mut flops_bwd = 0.0;
    let mut bytes_fwd = 0usize;
    let mut bytes_bwd = 0usize;
    for node in graph.nodes() {
        let cost = node_cost(graph, node)?;
        flops_fwd += cost.flops_fwd;
        flops_bwd += cost.flops_bwd;
        bytes_fwd += cost.bytes_fwd();
        bytes_bwd += cost.bytes_bwd();
        per_node.insert(node.id.index(), cost);
    }
    Ok(GraphCost { per_node, flops_fwd, flops_bwd, bytes_fwd, bytes_bwd })
}

/// Counts whole-activation memory sweeps (reads + writes of mini-batch
/// feature maps and gradients) for the entire graph, forward + backward.
///
/// # Errors
/// Returns an error if the graph is structurally inconsistent.
pub fn activation_sweep_count(graph: &Graph) -> Result<usize> {
    let mut count = 0usize;
    for node in graph.nodes() {
        let cost = node_cost(graph, node)?;
        count += cost
            .sweeps_fwd
            .iter()
            .chain(cost.sweeps_bwd.iter())
            .filter(|s| matches!(s.class, TensorClass::Activation | TensorClass::Gradient))
            .count();
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::op::{BatchNormAttrs, LayerCategory};

    fn fragment() -> Graph {
        let mut b = GraphBuilder::new("frag");
        let x = b.input("in", Shape::nchw(8, 64, 16, 16)).unwrap();
        let c1 = b.conv2d(x, Conv2dAttrs::pointwise(128), "conv1").unwrap();
        let bn = b.batch_norm_default(c1, "bn").unwrap();
        let r = b.relu(bn, "relu").unwrap();
        let _c2 = b.conv2d(r, Conv2dAttrs::same_3x3(32), "conv2").unwrap();
        b.finish()
    }

    fn find(graph: &Graph, name: &str) -> Node {
        graph.nodes().find(|n| n.name == name).unwrap().clone()
    }

    #[test]
    fn conv_flops_match_formula() {
        let g = fragment();
        let conv1 = find(&g, "conv1");
        let cost = node_cost(&g, &conv1).unwrap();
        // 2 * N*Cout*H*W * Cin*Kh*Kw
        let expected = 2.0 * (8 * 128 * 16 * 16) as f64 * 64.0;
        assert!((cost.flops_fwd - expected).abs() < 1.0);
        assert!((cost.flops_bwd - 2.0 * expected).abs() < 1.0);
    }

    #[test]
    fn batchnorm_two_pass_has_three_reads() {
        let g = fragment();
        let bn = find(&g, "bn");
        let cost = node_cost(&g, &bn).unwrap();
        let reads = cost.sweeps_fwd.iter().filter(|s| s.direction == SweepDirection::Read).count();
        assert_eq!(reads, 3);
        assert_eq!(cost.sweeps_fwd.len(), 4);
        assert_eq!(cost.sweeps_bwd.len(), 5);
    }

    #[test]
    fn batchnorm_one_pass_saves_a_read() {
        let mut g = fragment();
        let bn = find(&g, "bn");
        g.set_op(bn.id, OpKind::BatchNorm(BatchNormAttrs::one_pass())).unwrap();
        let bn = find(&g, "bn");
        let cost = node_cost(&g, &bn).unwrap();
        let reads = cost.sweeps_fwd.iter().filter(|s| s.direction == SweepDirection::Read).count();
        assert_eq!(reads, 2);
    }

    #[test]
    fn conv_backward_doubles_memory() {
        let g = fragment();
        let conv2 = find(&g, "conv2");
        let cost = node_cost(&g, &conv2).unwrap();
        let fwd_act: usize = cost
            .sweeps_fwd
            .iter()
            .filter(|s| s.class == TensorClass::Activation)
            .map(|s| s.bytes)
            .sum();
        let bwd_act: usize = cost
            .sweeps_bwd
            .iter()
            .filter(|s| matches!(s.class, TensorClass::Activation | TensorClass::Gradient))
            .map(|s| s.bytes)
            .sum();
        assert!(bwd_act > fwd_act, "backward conv must sweep more than forward");
    }

    #[test]
    fn split_forward_is_free() {
        let mut b = GraphBuilder::new("split");
        let x = b.input("in", Shape::nchw(2, 8, 4, 4)).unwrap();
        let s = b.split(x, 3, "split").unwrap();
        let _r1 = b.relu(s, "r1").unwrap();
        let _r2 = b.relu(s, "r2").unwrap();
        let g = b.finish();
        let split = find(&g, "split");
        let cost = node_cost(&g, &split).unwrap();
        assert!(cost.sweeps_fwd.is_empty());
        // Backward must read a gradient per declared consumer (3) plus one write.
        assert_eq!(cost.sweeps_bwd.len(), 4);
    }

    #[test]
    fn conv_and_fc_nodes_report_their_gemm_lowerings() {
        let g = fragment();
        let conv1 = find(&g, "conv1");
        let gemms = node_gemms(&g, &conv1).unwrap();
        // 1×1 conv over (8, 64, 16, 16) -> 128 channels: one
        // 128 × 256 × 64 multiply per sample.
        assert_eq!(gemms.fwd, vec![GemmShape { m: 128, n: 256, k: 64, count: 8 }]);
        assert_eq!(gemms.bwd.len(), 2);
        // The forward lowering's FLOPs match the conv FLOP formula.
        let cost = node_cost(&g, &conv1).unwrap();
        assert!((gemms.fwd[0].flops() - cost.flops_fwd).abs() < 1.0);
        // Non-GEMM nodes lower to nothing.
        let bn = find(&g, "bn");
        assert!(node_gemms(&g, &bn).unwrap().fwd.is_empty());
        let input = find(&g, "in");
        assert!(node_gemms(&g, &input).unwrap().fwd.is_empty());
    }

    #[test]
    fn graph_cost_aggregates() {
        let g = fragment();
        let cost = graph_cost(&g).unwrap();
        assert_eq!(cost.per_node.len(), g.node_count());
        assert!(cost.flops_fwd > 0.0);
        assert!(cost.bytes_fwd > 0);
        assert!(cost.bytes_bwd > cost.bytes_fwd);
        assert!(cost.flops_total() > cost.flops_fwd);
        assert!(cost.bytes_total() > cost.bytes_bwd);
    }

    #[test]
    fn categories_split_conv_and_nonconv() {
        let g = fragment();
        // The per-node table splits by category the way the Figure 1/6
        // breakdowns split it.
        let cost = graph_cost(&g).unwrap();
        let bytes_of = |category| -> usize {
            g.nodes()
                .filter(|n| n.op.category() == category)
                .map(|n| cost.per_node[&n.id.index()].bytes_total())
                .sum()
        };
        assert!(bytes_of(LayerCategory::ConvFc) > 0);
        assert!(bytes_of(LayerCategory::NonConv) > 0);
        assert_eq!(
            bytes_of(LayerCategory::ConvFc) + bytes_of(LayerCategory::NonConv),
            cost.bytes_total()
        );
    }

    #[test]
    fn sweep_counts_drop_after_manual_fusion() {
        // Manually emulate what BNFF does to check the accounting: a
        // ConvStats + NormReluConv pair must sweep fewer activation bytes
        // than CONV + BN + ReLU + CONV.
        let baseline = fragment();
        let baseline_sweeps = activation_sweep_count(&baseline).unwrap();

        let mut b = GraphBuilder::new("fused");
        let x = b.input("in", Shape::nchw(8, 64, 16, 16)).unwrap();
        let g = {
            let mut g = b.graph().clone();
            let cs = g
                .add_node(
                    "conv1+stats",
                    OpKind::ConvStats {
                        conv: Conv2dAttrs::pointwise(128),
                        bn: BatchNormAttrs::one_pass(),
                    },
                    vec![x],
                )
                .unwrap();
            let _nrc = g
                .add_node(
                    "norm+relu+conv2",
                    OpKind::NormReluConv {
                        conv: Conv2dAttrs::same_3x3(32),
                        bn: BatchNormAttrs::one_pass(),
                    },
                    vec![cs, cs],
                )
                .unwrap();
            g
        };
        let fused_sweeps = activation_sweep_count(&g).unwrap();
        assert!(
            fused_sweeps < baseline_sweeps,
            "fused {fused_sweeps} must be below baseline {baseline_sweeps}"
        );
    }

    #[test]
    fn input_nodes_cost_nothing() {
        let g = fragment();
        let input = find(&g, "in");
        let cost = node_cost(&g, &input).unwrap();
        assert_eq!(cost.bytes_total(), 0);
        assert_eq!(cost.flops_fwd, 0.0);
    }
}
