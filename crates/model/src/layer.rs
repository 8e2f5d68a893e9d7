//! Typed layer descriptions.

use std::fmt;

use winofuse_conv::ops::PoolKind;

use crate::shape::FmShape;
use crate::ModelError;

/// Parameters of a local response normalization layer (cross-channel),
/// the type the LRN operators take.
pub use winofuse_conv::ops::LrnParams;

/// Parameters of a convolutional layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvParams {
    /// Number of output feature maps `N`.
    pub num_output: usize,
    /// Kernel side `K`.
    pub kernel: usize,
    /// Sliding stride `S`.
    pub stride: usize,
    /// Symmetric zero padding.
    pub pad: usize,
    /// Channel groups (Caffe's `group`): input and output channels are
    /// split into this many independent groups, each convolved
    /// separately. AlexNet uses 2 on conv2/4/5.
    pub groups: usize,
    /// Whether a ReLU is folded into the layer (the paper integrates ReLU
    /// into conv layers, §7.2).
    pub relu: bool,
}

impl ConvParams {
    /// Basic constructor (single channel group).
    pub fn new(num_output: usize, kernel: usize, stride: usize, pad: usize, relu: bool) -> Self {
        ConvParams {
            num_output,
            kernel,
            stride,
            pad,
            groups: 1,
            relu,
        }
    }

    /// Convenience constructor for the VGG-style 3×3/stride-1/pad-1 layer
    /// with folded ReLU.
    pub fn vgg3x3(num_output: usize) -> Self {
        ConvParams::new(num_output, 3, 1, 1, true)
    }

    /// Returns a copy with the given channel-group count.
    pub fn with_groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// Input channels seen by one kernel: `C / groups` (kernels only see
    /// their own group's slice).
    ///
    /// Debug builds assert that `groups` divides `input_channels`: a
    /// non-divisible pairing means the caller skipped shape validation,
    /// and every fan-in / weight count derived from the floored quotient
    /// would be silently wrong.
    pub fn channels_per_group(&self, input_channels: usize) -> usize {
        let groups = self.groups.max(1);
        debug_assert!(
            input_channels.is_multiple_of(groups),
            "groups {groups} does not divide input channels {input_channels} (unvalidated shape?)"
        );
        input_channels / groups
    }
}

/// Parameters of a pooling layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolParams {
    /// Window side.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Symmetric padding (excluded from the pooling window).
    pub pad: usize,
    /// Max or average.
    pub kind: PoolKind,
}

impl PoolParams {
    /// The VGG 2×2/stride-2 max pool.
    pub fn max2x2() -> Self {
        PoolParams {
            kernel: 2,
            stride: 2,
            pad: 0,
            kind: PoolKind::Max,
        }
    }

    /// The AlexNet 3×3/stride-2 overlapping max pool.
    pub fn max3x3s2() -> Self {
        PoolParams {
            kernel: 3,
            stride: 2,
            pad: 0,
            kind: PoolKind::Max,
        }
    }
}

/// Parameters of a fully connected layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FcParams {
    /// Number of output features.
    pub num_output: usize,
    /// Whether a ReLU is folded in.
    pub relu: bool,
}

/// The kind (and parameters) of a layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LayerKind {
    /// Convolution (optionally with folded ReLU).
    Conv(ConvParams),
    /// Spatial pooling.
    Pool(PoolParams),
    /// Local response normalization.
    Lrn(LrnParams),
    /// Stand-alone ReLU (kept for parsing fidelity; usually folded).
    Relu,
    /// Fully connected (optionally with folded ReLU).
    Fc(FcParams),
    /// Softmax classifier head.
    Softmax,
}

impl LayerKind {
    /// Short lowercase tag used in reports and generated code.
    pub fn tag(&self) -> &'static str {
        match self {
            LayerKind::Conv(_) => "conv",
            LayerKind::Pool(_) => "pool",
            LayerKind::Lrn(_) => "lrn",
            LayerKind::Relu => "relu",
            LayerKind::Fc(_) => "fc",
            LayerKind::Softmax => "softmax",
        }
    }
}

/// A named layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Layer name (unique within a network).
    pub name: String,
    /// Kind and parameters.
    pub kind: LayerKind,
}

impl Layer {
    /// Creates a named layer.
    pub fn new(name: impl Into<String>, kind: LayerKind) -> Self {
        Layer {
            name: name.into(),
            kind,
        }
    }

    /// Infers the output shape given the input shape.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeInference`] when the parameters do not
    /// fit the input (kernel too large, zero stride, FC/softmax
    /// constraints violated).
    pub fn output_shape(&self, input: FmShape) -> Result<FmShape, ModelError> {
        let err = |reason: String| ModelError::ShapeInference {
            layer: self.name.clone(),
            reason,
        };
        let spatial = |k: usize, s: usize, p: usize| -> Result<(usize, usize), ModelError> {
            if s == 0 {
                return Err(err("stride must be nonzero".into()));
            }
            if k == 0 {
                return Err(err("kernel must be nonzero".into()));
            }
            if k > input.height + 2 * p || k > input.width + 2 * p {
                return Err(err(format!(
                    "kernel {k} exceeds padded input {}x{}",
                    input.height + 2 * p,
                    input.width + 2 * p
                )));
            }
            Ok((
                (input.height + 2 * p - k) / s + 1,
                (input.width + 2 * p - k) / s + 1,
            ))
        };
        match &self.kind {
            LayerKind::Conv(c) => {
                if c.num_output == 0 {
                    return Err(err("num_output must be nonzero".into()));
                }
                if c.groups == 0 {
                    return Err(err("groups must be nonzero".into()));
                }
                if !input.channels.is_multiple_of(c.groups) || c.num_output % c.groups != 0 {
                    return Err(err(format!(
                        "groups {} must divide input channels {} and num_output {}",
                        c.groups, input.channels, c.num_output
                    )));
                }
                let (h, w) = spatial(c.kernel, c.stride, c.pad)?;
                Ok(FmShape::new(c.num_output, h, w))
            }
            LayerKind::Pool(p) => {
                let (h, w) = spatial(p.kernel, p.stride, p.pad)?;
                Ok(FmShape::new(input.channels, h, w))
            }
            LayerKind::Lrn(spec) => {
                if spec.local_size == 0 || spec.local_size % 2 == 0 {
                    return Err(err(format!(
                        "lrn local_size must be odd and nonzero, got {}",
                        spec.local_size
                    )));
                }
                Ok(input)
            }
            LayerKind::Relu => Ok(input),
            LayerKind::Fc(fc) => {
                if fc.num_output == 0 {
                    return Err(err("num_output must be nonzero".into()));
                }
                Ok(FmShape::new(fc.num_output, 1, 1))
            }
            LayerKind::Softmax => {
                if input.height != 1 || input.width != 1 {
                    return Err(err("softmax requires 1x1 spatial input".into()));
                }
                Ok(input)
            }
        }
    }

    /// Multiply–accumulate count of this layer for the given input shape
    /// (convolution and FC only; other layers return 0).
    pub fn macs(&self, input: FmShape) -> u64 {
        match &self.kind {
            LayerKind::Conv(c) => {
                let out = match self.output_shape(input) {
                    Ok(o) => o,
                    Err(_) => return 0,
                };
                out.channels as u64
                    * out.height as u64
                    * out.width as u64
                    * c.channels_per_group(input.channels) as u64
                    * (c.kernel as u64).pow(2)
            }
            LayerKind::Fc(fc) => fc.num_output as u64 * input.elements() as u64,
            _ => 0,
        }
    }

    /// Arithmetic operation count (2 ops per MAC for conv/FC; one op per
    /// element for pooling comparisons / ReLU; a small constant per element
    /// for LRN).
    pub fn ops(&self, input: FmShape) -> u64 {
        match &self.kind {
            LayerKind::Conv(_) | LayerKind::Fc(_) => 2 * self.macs(input),
            LayerKind::Pool(p) => {
                let out = match self.output_shape(input) {
                    Ok(o) => o,
                    Err(_) => return 0,
                };
                out.elements() as u64 * (p.kernel as u64).pow(2)
            }
            LayerKind::Lrn(spec) => input.elements() as u64 * (2 * spec.local_size as u64 + 2),
            LayerKind::Relu => input.elements() as u64,
            LayerKind::Softmax => 3 * input.elements() as u64,
        }
    }

    /// Number of weight parameters (conv kernels / FC matrices; biases are
    /// folded into the count for FC).
    pub fn weight_count(&self, input: FmShape) -> u64 {
        match &self.kind {
            LayerKind::Conv(c) => {
                c.num_output as u64
                    * c.channels_per_group(input.channels) as u64
                    * (c.kernel as u64).pow(2)
            }
            LayerKind::Fc(fc) => fc.num_output as u64 * (input.elements() as u64 + 1),
            _ => 0,
        }
    }

    /// Whether this layer is a convolution eligible for the Winograd
    /// algorithm under the paper's conditions ("kernel size is small and
    /// stride is 1"): stride 1 and kernel between 2 and 5.
    pub fn winograd_eligible(&self) -> bool {
        matches!(
            &self.kind,
            LayerKind::Conv(c) if c.stride == 1 && (2..=5).contains(&c.kernel)
        )
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.kind.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(k: usize, s: usize, p: usize, n: usize) -> Layer {
        Layer::new("c", LayerKind::Conv(ConvParams::new(n, k, s, p, true)))
    }

    fn grouped(k: usize, n: usize, groups: usize) -> Layer {
        Layer::new(
            "g",
            LayerKind::Conv(ConvParams::new(n, k, 1, k / 2, true).with_groups(groups)),
        )
    }

    #[test]
    fn conv_shape_inference() {
        let l = conv(3, 1, 1, 64);
        let out = l.output_shape(FmShape::new(3, 224, 224)).unwrap();
        assert_eq!(out, FmShape::new(64, 224, 224));
    }

    #[test]
    fn alexnet_conv1_shape() {
        let l = conv(11, 4, 0, 96);
        let out = l.output_shape(FmShape::new(3, 227, 227)).unwrap();
        assert_eq!(out, FmShape::new(96, 55, 55));
    }

    #[test]
    fn pool_preserves_channels() {
        let l = Layer::new("p", LayerKind::Pool(PoolParams::max2x2()));
        let out = l.output_shape(FmShape::new(64, 224, 224)).unwrap();
        assert_eq!(out, FmShape::new(64, 112, 112));
    }

    #[test]
    fn lrn_and_relu_identity_shape() {
        let s = FmShape::new(96, 55, 55);
        assert_eq!(
            Layer::new("n", LayerKind::Lrn(LrnParams::default()))
                .output_shape(s)
                .unwrap(),
            s
        );
        assert_eq!(Layer::new("r", LayerKind::Relu).output_shape(s).unwrap(), s);
    }

    #[test]
    fn fc_flattens() {
        let l = Layer::new(
            "fc",
            LayerKind::Fc(FcParams {
                num_output: 4096,
                relu: true,
            }),
        );
        let out = l.output_shape(FmShape::new(256, 6, 6)).unwrap();
        assert_eq!(out, FmShape::new(4096, 1, 1));
    }

    #[test]
    fn softmax_requires_flat_input() {
        let l = Layer::new("prob", LayerKind::Softmax);
        assert!(l.output_shape(FmShape::new(10, 2, 2)).is_err());
        assert!(l.output_shape(FmShape::new(10, 1, 1)).is_ok());
    }

    #[test]
    fn oversized_kernel_rejected() {
        let l = conv(7, 1, 0, 8);
        assert!(l.output_shape(FmShape::new(3, 4, 4)).is_err());
    }

    #[test]
    fn macs_for_vgg_conv2() {
        // The paper's motivating layer: 64ch 224x224 in, 64 3x3x64 kernels.
        let l = conv(3, 1, 1, 64);
        let macs = l.macs(FmShape::new(64, 224, 224));
        assert_eq!(macs, 64 * 224 * 224 * 64 * 9);
        assert_eq!(l.ops(FmShape::new(64, 224, 224)), 2 * macs);
    }

    #[test]
    fn weight_counts() {
        let l = conv(3, 1, 1, 64);
        assert_eq!(l.weight_count(FmShape::new(64, 224, 224)), 64 * 64 * 9);
        let fc = Layer::new(
            "fc",
            LayerKind::Fc(FcParams {
                num_output: 10,
                relu: false,
            }),
        );
        assert_eq!(fc.weight_count(FmShape::new(4, 1, 1)), 10 * 5);
    }

    #[test]
    fn grouped_conv_halves_macs_and_weights() {
        let plain = conv(5, 1, 2, 256);
        let two = grouped(5, 256, 2);
        let input = FmShape::new(96, 27, 27);
        assert_eq!(two.macs(input) * 2, plain.macs(input));
        assert_eq!(two.weight_count(input) * 2, plain.weight_count(input));
        assert_eq!(
            two.output_shape(input).unwrap(),
            plain.output_shape(input).unwrap()
        );
    }

    #[test]
    fn groups_must_divide_channels() {
        let l = grouped(3, 9, 2); // 9 outputs not divisible by 2
        assert!(l.output_shape(FmShape::new(4, 8, 8)).is_err());
        let l = grouped(3, 8, 2);
        assert!(l.output_shape(FmShape::new(5, 8, 8)).is_err()); // 5 channels
        assert!(l.output_shape(FmShape::new(4, 8, 8)).is_ok());
        let zero = Layer::new(
            "z",
            LayerKind::Conv(ConvParams::new(4, 3, 1, 1, false).with_groups(0)),
        );
        assert!(zero.output_shape(FmShape::new(4, 8, 8)).is_err());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not divide input channels")]
    fn channels_per_group_asserts_divisibility() {
        // 8 input channels across 3 groups would silently floor to 2 —
        // debug builds must refuse rather than mis-size the fan-in.
        let p = ConvParams::new(9, 3, 1, 1, false).with_groups(3);
        let _ = p.channels_per_group(8);
    }

    #[test]
    fn winograd_eligibility_follows_paper_rules() {
        assert!(conv(3, 1, 1, 64).winograd_eligible());
        assert!(conv(5, 1, 2, 64).winograd_eligible()); // AlexNet conv2
        assert!(!conv(11, 4, 0, 96).winograd_eligible()); // stride 4
        assert!(!conv(3, 2, 1, 64).winograd_eligible()); // stride 2
        assert!(!conv(7, 1, 3, 64).winograd_eligible()); // kernel too large
        assert!(!Layer::new("p", LayerKind::Pool(PoolParams::max2x2())).winograd_eligible());
    }
}
