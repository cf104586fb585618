//! Learnable parameters and their gradients, keyed by graph node.

use crate::error::TrainError;
use crate::Result;
use bnff_graph::op::{ConvPrologue, OpForm, OpKind};
use bnff_graph::{Graph, NodeId};
use bnff_kernels::batchnorm::{BnParamGrads, BnParams};
use bnff_kernels::fused::ConvGrads;
use bnff_tensor::init::Initializer;
use bnff_tensor::{Shape, Tensor};
use std::collections::HashMap;

/// The learnable parameters owned by one graph node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeParams {
    /// A convolution's filters and optional bias.
    Conv {
        /// Filter tensor `(Cout, Cin, Kh, Kw)`.
        weights: Tensor,
        /// Optional per-output-channel bias.
        bias: Option<Vec<f32>>,
    },
    /// A Batch Normalization layer's γ/β.
    Bn(BnParams),
    /// A fused convolution that also owns the γ/β of the normalization it
    /// absorbed on its input side.
    ConvBn {
        /// Filter tensor `(Cout, Cin, Kh, Kw)`.
        weights: Tensor,
        /// Optional per-output-channel bias.
        bias: Option<Vec<f32>>,
        /// γ/β of the absorbed BN (channel count = the conv's input channels).
        bn: BnParams,
    },
    /// A fully-connected layer's weights `(out, in)` and bias.
    Fc {
        /// Weight matrix `(out, in)`.
        weights: Tensor,
        /// Bias of length `out`.
        bias: Vec<f32>,
    },
}

/// Gradients matching a [`NodeParams`] entry.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeParamGrads {
    /// Convolution gradients.
    Conv {
        /// Filter gradients.
        d_weights: Tensor,
        /// Bias gradients (empty when the layer has no bias).
        d_bias: Vec<f32>,
    },
    /// BN γ/β gradients.
    Bn {
        /// ∂L/∂γ.
        d_gamma: Vec<f32>,
        /// ∂L/∂β.
        d_beta: Vec<f32>,
    },
    /// Fused conv + absorbed-BN gradients.
    ConvBn {
        /// Filter gradients.
        d_weights: Tensor,
        /// Bias gradients (empty when the layer has no bias).
        d_bias: Vec<f32>,
        /// ∂L/∂γ of the absorbed BN.
        d_gamma: Vec<f32>,
        /// ∂L/∂β of the absorbed BN.
        d_beta: Vec<f32>,
    },
    /// Fully-connected gradients.
    Fc {
        /// Weight gradients.
        d_weights: Tensor,
        /// Bias gradients.
        d_bias: Vec<f32>,
    },
}

impl From<ConvGrads> for NodeParamGrads {
    /// A fused convolution's gradients: `ConvBn` when its prologue absorbed
    /// a BN (and so produced ∂γ/∂β), `Conv` otherwise.
    fn from(ConvGrads { d_weights, d_bias, d_bn }: ConvGrads) -> Self {
        match d_bn {
            Some(BnParamGrads { d_gamma, d_beta }) => {
                NodeParamGrads::ConvBn { d_weights, d_bias, d_gamma, d_beta }
            }
            None => NodeParamGrads::Conv { d_weights, d_bias },
        }
    }
}

/// Parameter gradients of one backward pass.
#[derive(Debug, Clone)]
pub struct Gradients {
    /// Per-node parameter gradients, keyed by node id index.
    pub per_node: HashMap<usize, NodeParamGrads>,
}

impl Gradients {
    /// Looks up the gradients of one node.
    pub fn node(&self, id: NodeId) -> Option<&NodeParamGrads> {
        self.per_node.get(&id.index())
    }

    /// Global L2 norm of all parameter gradients (useful for debugging
    /// exploding/vanishing gradients). Every gradient tensor — `d_W`, `d_b`,
    /// `dγ`, `dβ` — contributes its squared norm as one `f64` term; the terms
    /// are sorted ascending and added left to right. The result therefore
    /// depends neither on node order nor on how a fusion level groups the
    /// tensors into nodes, and is reproducible bit for bit.
    pub fn global_norm(&self) -> f64 {
        fn sq(v: &[f32]) -> f64 {
            v.iter().map(|&v| f64::from(v) * f64::from(v)).sum()
        }
        let mut terms = Vec::new();
        for g in self.per_node.values() {
            match g {
                NodeParamGrads::Conv { d_weights, d_bias }
                | NodeParamGrads::Fc { d_weights, d_bias } => {
                    terms.extend([d_weights.sq_norm(), sq(d_bias)]);
                }
                NodeParamGrads::Bn { d_gamma, d_beta } => terms.extend([sq(d_gamma), sq(d_beta)]),
                NodeParamGrads::ConvBn { d_weights, d_bias, d_gamma, d_beta } => {
                    terms.extend([d_weights.sq_norm(), sq(d_bias), sq(d_gamma), sq(d_beta)]);
                }
            }
        }
        terms.sort_unstable_by(f64::total_cmp);
        terms.iter().sum::<f64>().sqrt()
    }
}

/// All parameters of a graph, keyed by node id index.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParamSet {
    entries: HashMap<usize, NodeParams>,
}

impl ParamSet {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        ParamSet { entries: HashMap::new() }
    }

    /// Initializes parameters for every parameterised node of `graph`,
    /// deterministically from `seed`.
    ///
    /// # Errors
    /// Returns an error if a node's input shapes cannot be resolved.
    pub fn initialize(graph: &Graph, seed: u64) -> Result<Self> {
        let mut init = Initializer::seeded(seed);
        let mut entries = HashMap::new();
        for node in graph.nodes() {
            let in_shape = node
                .inputs
                .first()
                .and_then(|id| graph.node(*id).ok())
                .map(|n| n.output_shape.clone());
            let missing_input = || TrainError::Missing(format!("input of {}", node.name));
            let params = match (node.op.form(), &node.op) {
                (OpForm::Conv { attrs: a, prologue, .. }, _) => {
                    let in_c = in_shape.as_ref().ok_or_else(missing_input)?.c();
                    let fan_in = in_c * a.kernel_h * a.kernel_w;
                    let weights = init.he_normal(
                        Shape::nchw(a.out_channels, in_c, a.kernel_h, a.kernel_w),
                        fan_in,
                    );
                    let bias = a.bias.then(|| vec![0.0; a.out_channels]);
                    // A normalizing prologue brings the γ/β of the BN it
                    // absorbed, over the convolution's input channels.
                    Some(match prologue {
                        ConvPrologue::NormRelu(_) => {
                            NodeParams::ConvBn { weights, bias, bn: BnParams::identity(in_c) }
                        }
                        _ => NodeParams::Conv { weights, bias },
                    })
                }
                (OpForm::Norm { .. }, _) => {
                    Some(NodeParams::Bn(BnParams::identity(node.output_shape.c())))
                }
                (_, OpKind::FullyConnected { out_features }) => {
                    let in_shape = in_shape.ok_or_else(missing_input)?;
                    let in_features =
                        in_shape.volume() / in_shape.dim(0).map_err(TrainError::Tensor)?.max(1);
                    let weights = init.xavier_uniform(
                        Shape::matrix(*out_features, in_features),
                        in_features,
                        *out_features,
                    );
                    Some(NodeParams::Fc { weights, bias: vec![0.0; *out_features] })
                }
                _ => None,
            };
            if let Some(p) = params {
                entries.insert(node.id.index(), p);
            }
        }
        Ok(ParamSet { entries })
    }

    /// Looks up the parameters of a node.
    pub fn get(&self, id: NodeId) -> Option<&NodeParams> {
        self.entries.get(&id.index())
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut NodeParams> {
        self.entries.get_mut(&id.index())
    }

    /// Inserts or replaces the parameters of a node.
    pub fn insert(&mut self, id: NodeId, params: NodeParams) {
        self.entries.insert(id.index(), params);
    }

    /// Number of parameterised nodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(node index, params)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&usize, &NodeParams)> {
        self.entries.iter()
    }

    /// Iterates mutably over `(node index, params)` pairs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&usize, &mut NodeParams)> {
        self.entries.iter_mut()
    }

    /// Total number of scalar parameters stored.
    pub fn scalar_count(&self) -> usize {
        self.entries
            .values()
            .map(|p| match p {
                NodeParams::Conv { weights, bias } => {
                    weights.len() + bias.as_ref().map(Vec::len).unwrap_or(0)
                }
                NodeParams::Bn(bn) => 2 * bn.channels(),
                NodeParams::ConvBn { weights, bias, bn } => {
                    weights.len() + bias.as_ref().map(Vec::len).unwrap_or(0) + 2 * bn.channels()
                }
                NodeParams::Fc { weights, bias } => weights.len() + bias.len(),
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_graph::builder::GraphBuilder;
    use bnff_graph::op::Conv2dAttrs;
    use bnff_graph::passes::{BnffPass, Pass};

    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new("sample");
        let x = b.input("data", Shape::nchw(2, 3, 8, 8)).unwrap();
        let labels = b.input("labels", Shape::vector(2)).unwrap();
        let c = b.conv2d(x, Conv2dAttrs::same_3x3(8), "conv").unwrap();
        let bn = b.batch_norm_default(c, "bn").unwrap();
        let r = b.relu(bn, "relu").unwrap();
        let g = b.global_avg_pool(r, "gap").unwrap();
        let fc = b.fully_connected(g, 4, "fc").unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        b.finish()
    }

    #[test]
    fn initializes_every_parameterised_node() {
        let g = sample_graph();
        let params = ParamSet::initialize(&g, 7).unwrap();
        // conv, bn, fc
        assert_eq!(params.len(), 3);
        assert_eq!(params.scalar_count(), 8 * 3 * 9 + 2 * 8 + (8 * 4 + 4));
        assert_eq!(params.scalar_count(), g.parameter_count());
    }

    #[test]
    fn initialization_is_deterministic() {
        let g = sample_graph();
        let a = ParamSet::initialize(&g, 42).unwrap();
        let b = ParamSet::initialize(&g, 42).unwrap();
        let c = ParamSet::initialize(&g, 43).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fused_graphs_get_conv_bn_entries() {
        let mut b = GraphBuilder::new("cpl");
        let x = b.input("data", Shape::nchw(2, 8, 8, 8)).unwrap();
        let c1 = b.conv2d(x, Conv2dAttrs::pointwise(16), "conv1").unwrap();
        let bn = b.batch_norm_default(c1, "bn").unwrap();
        let r = b.relu(bn, "relu").unwrap();
        b.conv2d(r, Conv2dAttrs::same_3x3(8), "conv2").unwrap();
        let fused = BnffPass::new().run(&b.finish()).unwrap();
        let params = ParamSet::initialize(&fused, 1).unwrap();
        let has_conv_bn = params.iter().any(|(_, p)| matches!(p, NodeParams::ConvBn { .. }));
        assert!(has_conv_bn, "fused graph must own ConvBn parameters");
    }

    #[test]
    fn global_norm_ignores_how_a_level_groups_the_tensors() {
        let d_weights = Tensor::from_vec(Shape::vector(2), vec![0.1, 0.1]).unwrap();
        let (d_gamma, d_beta) = (vec![0.1], vec![1.1]);
        let fused = NodeParamGrads::ConvBn {
            d_weights: d_weights.clone(),
            d_bias: Vec::new(),
            d_gamma: d_gamma.clone(),
            d_beta: d_beta.clone(),
        };
        let fused = Gradients { per_node: HashMap::from([(7, fused)]) };
        let split = Gradients {
            per_node: HashMap::from([
                (2, NodeParamGrads::Conv { d_weights, d_bias: Vec::new() }),
                (9, NodeParamGrads::Bn { d_gamma, d_beta }),
            ]),
        };
        assert_eq!(fused.global_norm().to_bits(), split.global_norm().to_bits());
    }

    #[test]
    fn lookup_and_insert() {
        let g = sample_graph();
        let mut params = ParamSet::initialize(&g, 7).unwrap();
        let conv_id = g.nodes().find(|n| n.name == "conv").unwrap().id;
        assert!(params.get(conv_id).is_some());
        assert!(params.get_mut(conv_id).is_some());
        let missing = g.nodes().find(|n| n.name == "relu").unwrap().id;
        assert!(params.get(missing).is_none());
        params.insert(missing, NodeParams::Bn(BnParams::identity(4)));
        assert!(params.get(missing).is_some());
        assert!(!params.is_empty());
    }
}
