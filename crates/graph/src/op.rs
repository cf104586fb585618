//! The operation vocabulary of the computational graph.
//!
//! [`OpKind`] covers every layer type the paper's CNNs use during training
//! (CONV, FC, BN, ReLU, pooling, Concat, Split, element-wise sum, softmax
//! loss) **plus** the restructured operators that the Fission and Fusion
//! passes introduce: BN sub-layers, and the fused `CONV+stats`,
//! `ReLU+CONV`, `norm+ReLU+CONV` and `Concat+stats` operators.
//!
//! The fused kinds are spellings of one idea — a BN's halves ride a
//! convolution as a *prologue* (applied while its ifmap is read) or an
//! *epilogue* (accumulated while its ofmap is written). [`OpKind::form`]
//! decodes every kind into that prologue/core/epilogue shape once;
//! the executor, the planner and serving's parameter re-key read the
//! decoded [`OpForm`] instead of naming the kinds.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Attributes of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dAttrs {
    /// Number of output channels (filters).
    pub out_channels: usize,
    /// Filter height.
    pub kernel_h: usize,
    /// Filter width.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
    /// Whether the convolution adds a per-channel bias.
    pub bias: bool,
}

impl Conv2dAttrs {
    /// A `k × k` convolution with stride 1 and "same" padding.
    pub fn same(out_channels: usize, kernel: usize) -> Self {
        Conv2dAttrs {
            out_channels,
            kernel_h: kernel,
            kernel_w: kernel,
            stride: 1,
            pad: kernel / 2,
            bias: false,
        }
    }

    /// The ubiquitous `3 × 3`, stride-1, pad-1 convolution.
    pub fn same_3x3(out_channels: usize) -> Self {
        Self::same(out_channels, 3)
    }

    /// A `1 × 1` pointwise (bottleneck) convolution.
    pub fn pointwise(out_channels: usize) -> Self {
        Conv2dAttrs { out_channels, kernel_h: 1, kernel_w: 1, stride: 1, pad: 0, bias: false }
    }

    /// Generic constructor.
    pub fn new(out_channels: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        Conv2dAttrs { out_channels, kernel_h: kernel, kernel_w: kernel, stride, pad, bias: false }
    }

    /// Returns a copy with a bias term enabled.
    pub fn with_bias(mut self) -> Self {
        self.bias = true;
        self
    }

    /// Number of weight elements given the input channel count.
    pub(crate) fn weight_elems(&self, in_channels: usize) -> usize {
        self.out_channels * in_channels * self.kernel_h * self.kernel_w
    }
}

/// Attributes of a pooling layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PoolAttrs {
    /// Pooling window size (square).
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
}

impl PoolAttrs {
    /// Creates pooling attributes.
    pub fn new(kernel: usize, stride: usize, pad: usize) -> Self {
        PoolAttrs { kernel, stride, pad }
    }
}

/// Attributes of a Batch Normalization layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchNormAttrs {
    /// The numerical-stability epsilon added to the variance.
    pub epsilon: f32,
    /// When `true` the statistics are computed in a single sweep using
    /// `Var[X] = E[X²] − E[X]²` (the paper's Mean/Variance Fusion); when
    /// `false` the baseline two-pass computation is modelled.
    pub one_pass_stats: bool,
}

impl Default for BatchNormAttrs {
    fn default() -> Self {
        BatchNormAttrs { epsilon: 1e-5, one_pass_stats: false }
    }
}

impl BatchNormAttrs {
    /// Attributes with single-sweep (MVF) statistics enabled.
    pub fn one_pass() -> Self {
        BatchNormAttrs { epsilon: 1e-5, one_pass_stats: true }
    }
}

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Average,
}

/// High-level layer category used for the paper's execution-time breakdowns
/// (Figure 1 and Figure 6 distinguish CONV/FC from non-CONV layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerCategory {
    /// Convolutional and fully-connected layers.
    ConvFc,
    /// Every other layer type (BN, ReLU, pooling, Concat, Split, EWS, ...).
    NonConv,
    /// Fused layers that contain a convolution; the paper accounts for them
    /// as CONV layers because the convolution dominates their arithmetic.
    FusedConv,
}

/// One operation (layer) in the computational graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpKind {
    /// A graph input (the mini-batch of images or labels).
    Input,
    /// 2-D convolution.
    Conv2d(Conv2dAttrs),
    /// Fully-connected (inner-product) layer producing `out_features`.
    FullyConnected {
        /// Number of output features.
        out_features: usize,
    },
    /// Training-mode Batch Normalization over the mini-batch.
    BatchNorm(BatchNormAttrs),
    /// BN fission product: per-channel Σx / Σx² (and mean/variance) over the
    /// mini-batch. Output is a per-channel statistics vector.
    SubBnStats(BatchNormAttrs),
    /// BN fission product: normalization `γ·(x−μ)/√(σ²+ε) + β`, consuming
    /// the activations and a statistics node.
    SubBnNorm(BatchNormAttrs),
    /// Rectified linear unit.
    Relu,
    /// Spatial pooling.
    Pool {
        /// Max or average pooling.
        kind: PoolKind,
        /// Window/stride/padding attributes.
        attrs: PoolAttrs,
    },
    /// Global average pooling down to `1 × 1` spatial size.
    GlobalAvgPool,
    /// Channel-axis concatenation (DenseNet dense connectivity).
    Concat,
    /// Feature-map split / replication towards multiple consumers. In the
    /// reference implementation a forward Split is a pointer copy, but its
    /// backward pass must sum gradients from all consumers.
    Split {
        /// Number of consumers the value is forwarded to.
        consumers: usize,
    },
    /// Element-wise sum (ResNet identity shortcut).
    EltwiseSum,
    /// Softmax + cross-entropy loss head.
    SoftmaxLoss,
    // ---- Fused operators introduced by the restructuring passes ----
    /// RCF: ReLU applied while reading the ifmaps of the following
    /// convolution.
    ReluConv(Conv2dAttrs),
    /// BNFF: convolution that also accumulates Σx / Σx² of its output
    /// feature map (CONV1 + sub-BN1).
    ConvStats {
        /// The convolution attributes.
        conv: Conv2dAttrs,
        /// The BN attributes the statistics will be used with.
        bn: BatchNormAttrs,
    },
    /// BNFF: normalization + ReLU applied while reading the ifmaps of the
    /// following convolution (sub-BN2 + ReLU + CONV2). Also writes the
    /// normalized activation once for reuse in the backward pass.
    NormReluConv {
        /// The convolution attributes.
        conv: Conv2dAttrs,
        /// The BN attributes used for normalization.
        bn: BatchNormAttrs,
    },
    /// BNFF tail case: normalization + ReLU with no following convolution to
    /// fuse into (e.g. before a pooling or EWS layer).
    NormRelu(BatchNormAttrs),
    /// BNFF: convolution fused on both sides — it normalizes + clips its
    /// inputs (sub-BN2 + ReLU of the *preceding* BN) and accumulates
    /// Σx / Σx² of its outputs (sub-BN1 of the *following* BN). This arises
    /// in back-to-back composite layers where one convolution sits between
    /// two BN layers.
    NormReluConvStats {
        /// The convolution attributes.
        conv: Conv2dAttrs,
        /// BN attributes of the normalization applied to the inputs.
        bn_in: BatchNormAttrs,
        /// BN attributes of the statistics accumulated over the outputs.
        bn_out: BatchNormAttrs,
    },
    /// ICF: channel concatenation that also accumulates Σx / Σx² of its
    /// output (Concat + sub-BN1 across a composite-layer boundary).
    ConcatStats(BatchNormAttrs),
    // ---- Retired inference operators ----
    /// A convolution with the following ReLU fused into its output write.
    /// No pass emits it (serving runs the training operators); it stays
    /// while the benchmark's replay names it.
    ConvRelu(Conv2dAttrs),
    /// A per-channel affine `y = scale[c]·x + shift[c]`. No pass emits it
    /// (serving normalizes with the running statistics); it stays while the
    /// benchmark's replay names it.
    ChannelAffine,
}

/// What a convolution applies to its input feature map while reading it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ConvPrologue {
    /// The ifmap is read as is.
    None,
    /// RCF: the ifmap is clipped at zero.
    Relu,
    /// `(sub-BN2)-ReLU-CONV2`: the ifmap is normalized with the statistics
    /// on the op's second input and the γ/β the op owns, then clipped.
    NormRelu(BatchNormAttrs),
}

/// An operation decoded into the pieces the paper's restructuring moves
/// around: a convolution with an optional prologue and epilogue, a
/// normalization, or anything else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpForm {
    /// A convolution, possibly fused on either side.
    Conv {
        /// The convolution attributes.
        attrs: Conv2dAttrs,
        /// What is applied to the ifmap while it is read.
        prologue: ConvPrologue,
        /// `CONV1-(sub-BN1)`: Σx/Σx² of the ofmap are accumulated while it
        /// is written, for the BN with these attributes.
        stats_out: Option<BatchNormAttrs>,
    },
    /// A normalization `γ·(x−μ)/√(σ²+ε) + β` sweep the op owns γ/β for.
    Norm {
        /// The BN attributes.
        bn: BatchNormAttrs,
        /// The statistics are computed from the op's own input (a whole
        /// `BatchNorm`); otherwise they arrive on the second input.
        stats_from_input: bool,
        /// The output is clipped at zero in the same sweep.
        relu: bool,
    },
    /// Everything else.
    Other,
}

impl OpKind {
    /// Decodes the operation into its prologue/core/epilogue form — the one
    /// place the fused kinds are taken apart.
    pub fn form(&self) -> OpForm {
        use ConvPrologue::{NormRelu, Relu};
        let conv = |attrs, prologue, stats_out| OpForm::Conv { attrs, prologue, stats_out };
        match *self {
            OpKind::Conv2d(a) => conv(a, ConvPrologue::None, None),
            OpKind::ReluConv(a) => conv(a, Relu, None),
            OpKind::ConvStats { conv: a, bn } => conv(a, ConvPrologue::None, Some(bn)),
            OpKind::NormReluConv { conv: a, bn } => conv(a, NormRelu(bn), None),
            OpKind::NormReluConvStats { conv: a, bn_in, bn_out } => {
                conv(a, NormRelu(bn_in), Some(bn_out))
            }
            OpKind::BatchNorm(bn) => OpForm::Norm { bn, stats_from_input: true, relu: false },
            OpKind::SubBnNorm(bn) => OpForm::Norm { bn, stats_from_input: false, relu: false },
            OpKind::NormRelu(bn) => OpForm::Norm { bn, stats_from_input: false, relu: true },
            OpKind::Input
            | OpKind::FullyConnected { .. }
            | OpKind::SubBnStats(_)
            | OpKind::Relu
            | OpKind::Pool { .. }
            | OpKind::GlobalAvgPool
            | OpKind::Concat
            | OpKind::Split { .. }
            | OpKind::EltwiseSum
            | OpKind::SoftmaxLoss
            | OpKind::ConcatStats(_)
            | OpKind::ConvRelu(_)
            | OpKind::ChannelAffine => OpForm::Other,
        }
    }

    /// The BN attributes of the mini-batch statistics (Σx/Σx² → mean,
    /// variance) this operation publishes, if it publishes any.
    pub fn stats_out(&self) -> Option<BatchNormAttrs> {
        match (self.form(), self) {
            (OpForm::Conv { stats_out, .. }, _) => stats_out,
            (OpForm::Norm { bn, stats_from_input: true, .. }, _) => Some(bn),
            (_, OpKind::SubBnStats(bn) | OpKind::ConcatStats(bn)) => Some(*bn),
            _ => None,
        }
    }

    /// Short human-readable name of the operation.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Input => "Input",
            OpKind::Conv2d(_) => "Conv2d",
            OpKind::FullyConnected { .. } => "FullyConnected",
            OpKind::BatchNorm(_) => "BatchNorm",
            OpKind::SubBnStats(_) => "SubBnStats",
            OpKind::SubBnNorm(_) => "SubBnNorm",
            OpKind::Relu => "ReLU",
            OpKind::Pool { kind: PoolKind::Max, .. } => "MaxPool",
            OpKind::Pool { kind: PoolKind::Average, .. } => "AvgPool",
            OpKind::GlobalAvgPool => "GlobalAvgPool",
            OpKind::Concat => "Concat",
            OpKind::Split { .. } => "Split",
            OpKind::EltwiseSum => "EltwiseSum",
            OpKind::SoftmaxLoss => "SoftmaxLoss",
            OpKind::ReluConv(_) => "ReluConv",
            OpKind::ConvStats { .. } => "ConvStats",
            OpKind::NormReluConv { .. } => "NormReluConv",
            OpKind::NormReluConvStats { .. } => "NormReluConvStats",
            OpKind::NormRelu(_) => "NormRelu",
            OpKind::ConcatStats(_) => "ConcatStats",
            OpKind::ConvRelu(_) => "ConvRelu",
            OpKind::ChannelAffine => "ChannelAffine",
        }
    }

    /// The layer category used for CONV/FC vs non-CONV breakdowns.
    pub fn category(&self) -> LayerCategory {
        match self.form() {
            OpForm::Conv { prologue: ConvPrologue::None, stats_out: None, .. } => {
                LayerCategory::ConvFc
            }
            OpForm::Conv { .. } => LayerCategory::FusedConv,
            _ if matches!(self, OpKind::FullyConnected { .. }) => LayerCategory::ConvFc,
            _ => LayerCategory::NonConv,
        }
    }

    /// Whether the operation contains a convolution (fused or not).
    pub fn contains_conv(&self) -> bool {
        self.conv_attrs().is_some()
    }

    /// Whether the operation is Batch Normalization or one of its fission
    /// products.
    pub(crate) fn is_bn_related(&self) -> bool {
        matches!(self.form(), OpForm::Norm { .. }) || matches!(self, OpKind::SubBnStats(_))
    }

    /// The convolution attributes if the op contains a convolution.
    pub fn conv_attrs(&self) -> Option<Conv2dAttrs> {
        match self.form() {
            OpForm::Conv { attrs, .. } => Some(attrs),
            _ => None,
        }
    }

    /// Number of tensor inputs this operation requires, when fixed.
    ///
    /// Returns `None` for variadic operations (Concat, EltwiseSum).
    pub(crate) fn fixed_arity(&self) -> Option<usize> {
        match (self.form(), self) {
            (_, OpKind::Input) => Some(0),
            (_, OpKind::Concat | OpKind::ConcatStats(_) | OpKind::EltwiseSum) => None,
            // Statistics computed elsewhere arrive on a second input.
            (OpForm::Conv { prologue: ConvPrologue::NormRelu(_), .. }, _)
            | (OpForm::Norm { stats_from_input: false, .. }, _)
            | (_, OpKind::SoftmaxLoss) => Some(2),
            _ => Some(1),
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.conv_attrs(), self) {
            (Some(a), _) => write!(
                f,
                "{}({}x{}, s{}, oc{})",
                self.name(),
                a.kernel_h,
                a.kernel_w,
                a.stride,
                a.out_channels
            ),
            (None, OpKind::FullyConnected { out_features }) => {
                write!(f, "FullyConnected({out_features})")
            }
            _ => write!(f, "{}", self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_attr_constructors() {
        let p = Conv2dAttrs::pointwise(128);
        assert_eq!((p.kernel_h, p.kernel_w, p.stride, p.pad), (1, 1, 1, 0));
        let s = Conv2dAttrs::same_3x3(32);
        assert_eq!((s.kernel_h, s.pad), (3, 1));
        let b = Conv2dAttrs::new(64, 7, 2, 3).with_bias();
        assert!(b.bias);
        assert_eq!(b.weight_elems(3), 64 * 3 * 7 * 7);
    }

    #[test]
    fn form_decodes_every_variant() {
        use ConvPrologue::{NormRelu, Relu};
        let a = Conv2dAttrs::same_3x3(8);
        let (bn, mvf) = (BatchNormAttrs::default(), BatchNormAttrs::one_pass());
        let conv = |prologue, stats_out| OpForm::Conv { attrs: a, prologue, stats_out };
        let norm = |stats_from_input, relu| OpForm::Norm { bn, stats_from_input, relu };
        let pool = OpKind::Pool { kind: PoolKind::Max, attrs: PoolAttrs::new(2, 2, 0) };
        // (op, its form, the statistics it publishes)
        let table = [
            (OpKind::Input, OpForm::Other, None),
            (OpKind::Conv2d(a), conv(ConvPrologue::None, None), None),
            (OpKind::FullyConnected { out_features: 4 }, OpForm::Other, None),
            (OpKind::BatchNorm(bn), norm(true, false), Some(bn)),
            (OpKind::SubBnStats(mvf), OpForm::Other, Some(mvf)),
            (OpKind::SubBnNorm(bn), norm(false, false), None),
            (OpKind::Relu, OpForm::Other, None),
            (pool, OpForm::Other, None),
            (OpKind::GlobalAvgPool, OpForm::Other, None),
            (OpKind::Concat, OpForm::Other, None),
            (OpKind::Split { consumers: 2 }, OpForm::Other, None),
            (OpKind::EltwiseSum, OpForm::Other, None),
            (OpKind::SoftmaxLoss, OpForm::Other, None),
            (OpKind::ReluConv(a), conv(Relu, None), None),
            (
                OpKind::ConvStats { conv: a, bn: mvf },
                conv(ConvPrologue::None, Some(mvf)),
                Some(mvf),
            ),
            (OpKind::NormReluConv { conv: a, bn }, conv(NormRelu(bn), None), None),
            (OpKind::NormRelu(bn), norm(false, true), None),
            (
                OpKind::NormReluConvStats { conv: a, bn_in: bn, bn_out: mvf },
                conv(NormRelu(bn), Some(mvf)),
                Some(mvf),
            ),
            (OpKind::ConcatStats(mvf), OpForm::Other, Some(mvf)),
            (OpKind::ConvRelu(a), OpForm::Other, None),
            (OpKind::ChannelAffine, OpForm::Other, None),
        ];
        let mut seen = [false; 21];
        for (op, form, stats) in &table {
            // No wildcard: a new variant does not compile until it has a
            // row here (and an arm in `form`).
            let row = match op {
                OpKind::Input => 0,
                OpKind::Conv2d(_) => 1,
                OpKind::FullyConnected { .. } => 2,
                OpKind::BatchNorm(_) => 3,
                OpKind::SubBnStats(_) => 4,
                OpKind::SubBnNorm(_) => 5,
                OpKind::Relu => 6,
                OpKind::Pool { .. } => 7,
                OpKind::GlobalAvgPool => 8,
                OpKind::Concat => 9,
                OpKind::Split { .. } => 10,
                OpKind::EltwiseSum => 11,
                OpKind::SoftmaxLoss => 12,
                OpKind::ReluConv(_) => 13,
                OpKind::ConvStats { .. } => 14,
                OpKind::NormReluConv { .. } => 15,
                OpKind::NormRelu(_) => 16,
                OpKind::NormReluConvStats { .. } => 17,
                OpKind::ConcatStats(_) => 18,
                OpKind::ConvRelu(_) => 19,
                OpKind::ChannelAffine => 20,
            };
            seen[row] = true;
            assert_eq!(op.form(), *form, "{op}");
            assert_eq!(op.stats_out(), *stats, "{op}");
            // The derived predicates agree with the decoding.
            assert_eq!(op.contains_conv(), matches!(form, OpForm::Conv { .. }), "{op}");
            assert_eq!(
                op.fixed_arity() == Some(2),
                matches!(
                    form,
                    OpForm::Conv { prologue: NormRelu(_), .. }
                        | OpForm::Norm { stats_from_input: false, .. }
                ) || *op == OpKind::SoftmaxLoss,
                "{op}"
            );
        }
        assert!(seen.iter().all(|s| *s), "a variant has no row: {seen:?}");
    }

    #[test]
    fn categories() {
        assert_eq!(OpKind::Conv2d(Conv2dAttrs::same_3x3(8)).category(), LayerCategory::ConvFc);
        assert_eq!(OpKind::Relu.category(), LayerCategory::NonConv);
        assert_eq!(OpKind::BatchNorm(BatchNormAttrs::default()).category(), LayerCategory::NonConv);
        assert_eq!(
            OpKind::NormReluConv { conv: Conv2dAttrs::same_3x3(8), bn: BatchNormAttrs::default() }
                .category(),
            LayerCategory::FusedConv
        );
    }

    #[test]
    fn bn_related_ops() {
        assert!(OpKind::BatchNorm(BatchNormAttrs::default()).is_bn_related());
        assert!(OpKind::SubBnStats(BatchNormAttrs::one_pass()).is_bn_related());
        assert!(OpKind::SubBnNorm(BatchNormAttrs::default()).is_bn_related());
        assert!(!OpKind::Relu.is_bn_related());
        assert!(!OpKind::Conv2d(Conv2dAttrs::pointwise(4)).is_bn_related());
    }

    #[test]
    fn conv_attrs_extraction() {
        let attrs = Conv2dAttrs::same_3x3(16);
        assert_eq!(OpKind::Conv2d(attrs).conv_attrs(), Some(attrs));
        assert_eq!(OpKind::ReluConv(attrs).conv_attrs(), Some(attrs));
        assert_eq!(
            OpKind::ConvStats { conv: attrs, bn: BatchNormAttrs::default() }.conv_attrs(),
            Some(attrs)
        );
        assert_eq!(OpKind::Relu.conv_attrs(), None);
    }

    #[test]
    fn arity() {
        assert_eq!(OpKind::Input.fixed_arity(), Some(0));
        assert_eq!(OpKind::Relu.fixed_arity(), Some(1));
        assert_eq!(OpKind::SubBnNorm(BatchNormAttrs::default()).fixed_arity(), Some(2));
        assert_eq!(OpKind::Concat.fixed_arity(), None);
        assert_eq!(OpKind::SoftmaxLoss.fixed_arity(), Some(2));
    }

    #[test]
    fn display_names() {
        let attrs = Conv2dAttrs::new(64, 3, 2, 1);
        assert_eq!(OpKind::Conv2d(attrs).to_string(), "Conv2d(3x3, s2, oc64)");
        assert_eq!(OpKind::Relu.to_string(), "ReLU");
        assert_eq!(
            OpKind::FullyConnected { out_features: 1000 }.to_string(),
            "FullyConnected(1000)"
        );
        assert_eq!(
            OpKind::Pool { kind: PoolKind::Max, attrs: PoolAttrs::new(3, 2, 1) }.name(),
            "MaxPool"
        );
    }

    #[test]
    fn one_pass_default() {
        assert!(!BatchNormAttrs::default().one_pass_stats);
        assert!(BatchNormAttrs::one_pass().one_pass_stats);
    }
}
