//! Sequential network description with shape inference and accounting.

use std::fmt;
use std::ops::Range;

use crate::layer::{Layer, LayerKind};
use crate::shape::{DataType, FmShape};
use crate::ModelError;

/// `shape`, or a [`ModelError::ShapeInference`] naming `layer` when the
/// map's element count or `f32` byte count overflows `usize`.
fn addressable(shape: FmShape, layer: &str) -> Result<FmShape, ModelError> {
    match shape.checked_bytes(DataType::Float32) {
        Some(_) => Ok(shape),
        None => Err(ModelError::ShapeInference {
            layer: layer.to_string(),
            reason: format!("feature map {shape} overflows usize in f32 bytes"),
        }),
    }
}

/// A sequential CNN: an input shape followed by a chain of layers, where
/// "the output feature maps of one layer are the input feature maps of the
/// following layer" (§1 of the paper).
///
/// # Examples
///
/// ```
/// use winofuse_model::{ConvParams, Layer, LayerKind, Network, FmShape};
///
/// # fn main() -> Result<(), winofuse_model::ModelError> {
/// let net = Network::builder("tiny", FmShape::new(3, 8, 8))
///     .conv("conv1", ConvParams::vgg3x3(16))
///     .build()?;
/// assert_eq!(net.output_shape()?.channels, 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    name: String,
    input: FmShape,
    layers: Vec<Layer>,
}

impl Network {
    /// Creates a network from parts, validating shape inference end to end.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidNetwork`] for an empty layer list, a
    /// duplicate layer name, or any shape-inference failure.
    pub fn new(
        name: impl Into<String>,
        input: FmShape,
        layers: Vec<Layer>,
    ) -> Result<Self, ModelError> {
        if layers.is_empty() {
            return Err(ModelError::InvalidNetwork("network has no layers".into()));
        }
        for (i, a) in layers.iter().enumerate() {
            if layers[..i].iter().any(|b| b.name == a.name) {
                return Err(ModelError::InvalidNetwork(format!(
                    "duplicate layer name `{}`",
                    a.name
                )));
            }
        }
        let net = Network {
            name: name.into(),
            input,
            layers,
        };
        net.walk_shapes(|_| ())?; // validate the whole chain
        Ok(net)
    }

    /// Starts a [`NetworkBuilder`].
    pub fn builder(name: impl Into<String>, input: FmShape) -> NetworkBuilder {
        NetworkBuilder {
            name: name.into(),
            input,
            layers: Vec::new(),
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input feature-map shape.
    pub fn input_shape(&self) -> FmShape {
        self.input
    }

    /// The layer chain.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers (never true for a validated
    /// network).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Input shape of layer `index`.
    ///
    /// # Errors
    ///
    /// [`ModelError::LayerOutOfRange`] for a bad index; shape errors are
    /// impossible on a validated network but still propagated.
    pub fn input_shape_of(&self, index: usize) -> Result<FmShape, ModelError> {
        if index >= self.layers.len() {
            return Err(ModelError::LayerOutOfRange {
                index,
                len: self.layers.len(),
            });
        }
        let mut shape = self.input;
        for layer in &self.layers[..index] {
            shape = layer.output_shape(shape)?;
        }
        Ok(shape)
    }

    /// Output shape of layer `index`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::input_shape_of`].
    pub fn output_shape_of(&self, index: usize) -> Result<FmShape, ModelError> {
        let input = self.input_shape_of(index)?;
        self.layers[index].output_shape(input)
    }

    /// Final output shape of the network.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures (impossible on a validated
    /// network).
    pub fn output_shape(&self) -> Result<FmShape, ModelError> {
        self.output_shape_of(self.layers.len() - 1)
    }

    /// All shapes: `shapes()[i]` is the input of layer `i`;
    /// `shapes()[len()]` is the network output.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures, and returns
    /// [`ModelError::ShapeInference`] for a feature map whose element
    /// count or `f32` byte count overflows `usize` — a map no tensor can
    /// hold, so nothing downstream sizes a buffer from it.
    pub fn shapes(&self) -> Result<Vec<FmShape>, ModelError> {
        let mut out = Vec::with_capacity(self.layers.len() + 1);
        self.walk_shapes(|shape| out.push(shape))?;
        Ok(out)
    }

    /// Hands every feature map of the chain to `visit` in order — the
    /// input, then each layer's output — after checking it is
    /// [`addressable`]: the one shape walk behind [`Network::shapes`] and
    /// the validation in [`Network::new`], which allocates nothing.
    fn walk_shapes(&self, mut visit: impl FnMut(FmShape)) -> Result<(), ModelError> {
        let mut shape = addressable(self.input, "(network input)")?;
        visit(shape);
        for layer in &self.layers {
            shape = addressable(layer.output_shape(shape)?, &layer.name)?;
            visit(shape);
        }
        Ok(())
    }

    /// Indices of convolutional layers.
    pub fn conv_layer_indices(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l.kind, LayerKind::Conv(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Total MAC count of the network.
    pub fn total_macs(&self) -> u64 {
        let mut shape = self.input;
        let mut total = 0;
        for layer in &self.layers {
            total += layer.macs(shape);
            shape = match layer.output_shape(shape) {
                Ok(s) => s,
                Err(_) => return total,
            };
        }
        total
    }

    /// Total arithmetic operation count.
    pub fn total_ops(&self) -> u64 {
        let mut shape = self.input;
        let mut total = 0;
        for layer in &self.layers {
            total += layer.ops(shape);
            shape = match layer.output_shape(shape) {
                Ok(s) => s,
                Err(_) => return total,
            };
        }
        total
    }

    /// Total weight parameter count.
    pub fn total_weights(&self) -> u64 {
        let mut shape = self.input;
        let mut total = 0;
        for layer in &self.layers {
            total += layer.weight_count(shape);
            shape = match layer.output_shape(shape) {
                Ok(s) => s,
                Err(_) => return total,
            };
        }
        total
    }

    /// Feature-map transfer (bytes) of running layers `[range)` **without
    /// fusion**: every layer loads its input from and stores its output to
    /// off-chip memory.
    ///
    /// # Errors
    ///
    /// [`ModelError::LayerOutOfRange`] for a bad range.
    pub fn unfused_transfer_bytes(
        &self,
        range: Range<usize>,
        dtype: DataType,
    ) -> Result<u64, ModelError> {
        if range.end > self.layers.len() || range.start >= range.end {
            return Err(ModelError::LayerOutOfRange {
                index: range.end.saturating_sub(1),
                len: self.layers.len(),
            });
        }
        let shapes = self.shapes()?;
        let mut total = 0u64;
        for i in range {
            total += shapes[i].bytes(dtype) as u64 + shapes[i + 1].bytes(dtype) as u64;
        }
        Ok(total)
    }

    /// Minimal feature-map transfer (bytes) when layers `[range)` are fused
    /// into one group: input of the first layer + output of the last
    /// (`min_t[i][j]` in Algorithm 1).
    ///
    /// # Errors
    ///
    /// [`ModelError::LayerOutOfRange`] for a bad range.
    pub fn fused_transfer_bytes(
        &self,
        range: Range<usize>,
        dtype: DataType,
    ) -> Result<u64, ModelError> {
        if range.end > self.layers.len() || range.start >= range.end {
            return Err(ModelError::LayerOutOfRange {
                index: range.end.saturating_sub(1),
                len: self.layers.len(),
            });
        }
        let first_in = self.input_shape_of(range.start)?;
        let last_out = self.output_shape_of(range.end - 1)?;
        Ok(first_in.bytes(dtype) as u64 + last_out.bytes(dtype) as u64)
    }

    /// Extracts layers `[range)` as a standalone network (used to study a
    /// prefix, like the paper's VGG first-five-conv experiment).
    ///
    /// # Errors
    ///
    /// [`ModelError::LayerOutOfRange`] for a bad range.
    pub fn subnetwork(&self, range: Range<usize>) -> Result<Network, ModelError> {
        if range.end > self.layers.len() || range.start >= range.end {
            return Err(ModelError::LayerOutOfRange {
                index: range.end.saturating_sub(1),
                len: self.layers.len(),
            });
        }
        let input = self.input_shape_of(range.start)?;
        Network::new(
            format!("{}[{}..{}]", self.name, range.start, range.end),
            input,
            self.layers[range].to_vec(),
        )
    }

    /// Drops trailing fully-connected/softmax layers, keeping the
    /// convolutional body the paper's accelerator targets ("We omit the
    /// last three fully connected layers", §7.3).
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidNetwork`] if nothing remains.
    pub fn conv_body(&self) -> Result<Network, ModelError> {
        let end = self
            .layers
            .iter()
            .rposition(|l| !matches!(l.kind, LayerKind::Fc(_) | LayerKind::Softmax))
            .ok_or_else(|| ModelError::InvalidNetwork("network is all FC/softmax".into()))?;
        self.subnetwork(0..end + 1)
    }

    /// A stable 64-bit structural fingerprint of the network: FNV-1a over
    /// the name, input shape, and every layer's name, kind, and
    /// parameters. Two networks fingerprint equal iff they describe the
    /// same computation on the same shapes — a `PreparedNetwork` records
    /// it, so an executor or fused runner refuses a preparation built for
    /// a different model.
    ///
    /// The value is deterministic across runs and platforms (all inputs
    /// are hashed through fixed-width little-endian encodings), so it is
    /// safe to persist alongside a design report.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.str(&self.name);
        for d in [self.input.channels, self.input.height, self.input.width] {
            h.u64(d as u64);
        }
        h.u64(self.layers.len() as u64);
        for layer in &self.layers {
            h.str(&layer.name);
            h.str(layer.kind.tag());
            match &layer.kind {
                LayerKind::Conv(c) => {
                    for d in [c.num_output, c.kernel, c.stride, c.pad, c.groups] {
                        h.u64(d as u64);
                    }
                    h.u64(c.relu as u64);
                }
                LayerKind::Pool(p) => {
                    for d in [p.kernel, p.stride, p.pad] {
                        h.u64(d as u64);
                    }
                    h.u64(match p.kind {
                        winofuse_conv::ops::PoolKind::Max => 0,
                        winofuse_conv::ops::PoolKind::Average => 1,
                    });
                }
                LayerKind::Lrn(s) => {
                    h.u64(s.local_size as u64);
                    h.f32(s.alpha);
                    h.f32(s.beta);
                    h.f32(s.k);
                }
                LayerKind::Fc(fc) => {
                    h.u64(fc.num_output as u64);
                    h.u64(fc.relu as u64);
                }
                LayerKind::Relu | LayerKind::Softmax => {}
            }
        }
        h.finish()
    }
}

/// Minimal FNV-1a accumulator — the model crate must not pull in a
/// hashing dependency, and `DefaultHasher` is explicitly not stable
/// across releases, which a persistable fingerprint cannot tolerate.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed so `("ab","c")` and `("a","bc")` hash apart.
    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub(crate) fn f32(&mut self, v: f32) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, input {})",
            self.name,
            self.layers.len(),
            self.input
        )
    }
}

/// A network together with its module structure: consecutive layer
/// ranges that act as indivisible units ("Very deep CNNs such as
/// GoogleNet are usually based on modules and highly structured. To
/// further improve the efficiency of our algorithm, we can treat every
/// module as a single layer" — §7.1 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct ModularNetwork {
    /// The flat layer chain.
    pub network: Network,
    /// Module ranges, tiling `0..network.len()` in order.
    pub modules: Vec<Range<usize>>,
}

impl ModularNetwork {
    /// Validates that `modules` tile the network's layers in order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidNetwork`] when the ranges leave gaps,
    /// overlap, or run out of bounds.
    pub fn new(network: Network, modules: Vec<Range<usize>>) -> Result<Self, ModelError> {
        let mut expected = 0usize;
        for m in &modules {
            if m.start != expected || m.end <= m.start || m.end > network.len() {
                return Err(ModelError::InvalidNetwork(format!(
                    "module ranges must tile the layers; got {m:?} at position {expected}"
                )));
            }
            expected = m.end;
        }
        if expected != network.len() {
            return Err(ModelError::InvalidNetwork(format!(
                "modules cover {expected} of {} layers",
                network.len()
            )));
        }
        Ok(ModularNetwork { network, modules })
    }

    /// The layer indices after which the network may be cut when modules
    /// are atomic (every module end except the last).
    pub fn cut_boundaries(&self) -> Vec<usize> {
        self.modules
            .iter()
            .take(self.modules.len().saturating_sub(1))
            .map(|m| m.end - 1)
            .collect()
    }
}

/// Builder for [`Network`] (non-consuming terminal, per the usual Rust
/// builder conventions).
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    name: String,
    input: FmShape,
    layers: Vec<Layer>,
}

impl NetworkBuilder {
    /// Appends a convolutional layer.
    pub fn conv(mut self, name: impl Into<String>, params: crate::layer::ConvParams) -> Self {
        self.layers.push(Layer::new(name, LayerKind::Conv(params)));
        self
    }

    /// Appends a pooling layer.
    pub fn pool(mut self, name: impl Into<String>, params: crate::layer::PoolParams) -> Self {
        self.layers.push(Layer::new(name, LayerKind::Pool(params)));
        self
    }

    /// Appends an LRN layer.
    pub fn lrn(mut self, name: impl Into<String>, spec: crate::layer::LrnParams) -> Self {
        self.layers.push(Layer::new(name, LayerKind::Lrn(spec)));
        self
    }

    /// Appends a fully connected layer.
    pub fn fc(mut self, name: impl Into<String>, params: crate::layer::FcParams) -> Self {
        self.layers.push(Layer::new(name, LayerKind::Fc(params)));
        self
    }

    /// Appends a softmax layer.
    pub fn softmax(mut self, name: impl Into<String>) -> Self {
        self.layers.push(Layer::new(name, LayerKind::Softmax));
        self
    }

    /// Appends an arbitrary layer.
    pub fn layer(mut self, layer: Layer) -> Self {
        self.layers.push(layer);
        self
    }

    /// Validates and builds the network.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::new`].
    pub fn build(self) -> Result<Network, ModelError> {
        Network::new(self.name, self.input, self.layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvParams, PoolParams};

    fn tiny() -> Network {
        Network::builder("tiny", FmShape::new(3, 16, 16))
            .conv("c1", ConvParams::vgg3x3(8))
            .pool("p1", PoolParams::max2x2())
            .conv("c2", ConvParams::vgg3x3(16))
            .build()
            .unwrap()
    }

    #[test]
    fn shapes_chain() {
        let net = tiny();
        let shapes = net.shapes().unwrap();
        assert_eq!(shapes[0], FmShape::new(3, 16, 16));
        assert_eq!(shapes[1], FmShape::new(8, 16, 16));
        assert_eq!(shapes[2], FmShape::new(8, 8, 8));
        assert_eq!(shapes[3], FmShape::new(16, 8, 8));
        assert_eq!(net.output_shape().unwrap(), shapes[3]);
    }

    #[test]
    fn feature_maps_past_usize_are_rejected() {
        let huge = 4_294_967_295;
        let err = Network::builder("huge", FmShape::new(huge, huge, huge))
            .conv("c", ConvParams::vgg3x3(4))
            .build()
            .unwrap_err();
        assert!(
            matches!(&err, ModelError::ShapeInference { layer, .. } if layer == "(network input)"),
            "{err}"
        );
        // 2⁶² elements fit in usize; their f32 bytes do not.
        let err = Network::builder("wide", FmShape::new(1, 1 << 20, 1 << 20))
            .conv("c", ConvParams::vgg3x3(1 << 22))
            .build()
            .unwrap_err();
        assert!(
            matches!(&err, ModelError::ShapeInference { layer, .. } if layer == "c"),
            "{err}"
        );
    }

    #[test]
    fn input_output_shape_of() {
        let net = tiny();
        assert_eq!(net.input_shape_of(2).unwrap(), FmShape::new(8, 8, 8));
        assert_eq!(net.output_shape_of(1).unwrap(), FmShape::new(8, 8, 8));
        assert!(net.input_shape_of(3).is_err());
    }

    #[test]
    fn rejects_empty_and_duplicates() {
        assert!(Network::new("x", FmShape::new(1, 1, 1), vec![]).is_err());
        let dup = Network::builder("d", FmShape::new(3, 8, 8))
            .conv("c", ConvParams::vgg3x3(4))
            .conv("c", ConvParams::vgg3x3(4))
            .build();
        assert!(matches!(dup, Err(ModelError::InvalidNetwork(_))));
    }

    #[test]
    fn rejects_invalid_chain() {
        // Pool shrinks to 1x1; a later 3x3 conv without padding can't fit.
        let bad = Network::builder("bad", FmShape::new(1, 2, 2))
            .pool("p", PoolParams::max2x2())
            .conv("c", ConvParams::new(1, 3, 1, 0, false))
            .build();
        assert!(bad.is_err());
    }

    #[test]
    fn conv_indices() {
        assert_eq!(tiny().conv_layer_indices(), vec![0, 2]);
    }

    #[test]
    fn mac_and_op_totals() {
        let net = tiny();
        let macs1 = 8u64 * 16 * 16 * 3 * 9;
        let macs2 = 16u64 * 8 * 8 * 8 * 9;
        assert_eq!(net.total_macs(), macs1 + macs2);
        assert!(net.total_ops() > 2 * net.total_macs() - 10_000); // + pool ops
    }

    #[test]
    fn transfer_accounting() {
        let net = tiny();
        let dt = DataType::Fixed16;
        let unfused = net.unfused_transfer_bytes(0..3, dt).unwrap();
        let fused = net.fused_transfer_bytes(0..3, dt).unwrap();
        // Fusion saves all the intermediate traffic.
        assert!(fused < unfused);
        assert_eq!(
            fused,
            (FmShape::new(3, 16, 16).bytes(dt) + FmShape::new(16, 8, 8).bytes(dt)) as u64
        );
        // Single-layer "fusion" equals the unfused transfer of that layer.
        assert_eq!(
            net.fused_transfer_bytes(1..2, dt).unwrap(),
            net.unfused_transfer_bytes(1..2, dt).unwrap()
        );
    }

    #[test]
    fn subnetwork_preserves_shapes() {
        let net = tiny();
        let sub = net.subnetwork(1..3).unwrap();
        assert_eq!(sub.input_shape(), FmShape::new(8, 16, 16));
        assert_eq!(sub.output_shape().unwrap(), FmShape::new(16, 8, 8));
        assert!(net.subnetwork(2..2).is_err());
        assert!(net.subnetwork(0..4).is_err());
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // single-module tilings are the point
    fn modular_network_validates_tiling() {
        let net = tiny();
        assert!(ModularNetwork::new(net.clone(), vec![0..2, 2..3]).is_ok());
        assert!(ModularNetwork::new(net.clone(), vec![0..2]).is_err()); // gap at end
        assert!(ModularNetwork::new(net.clone(), vec![0..2, 1..3]).is_err()); // overlap
        assert!(ModularNetwork::new(net.clone(), vec![1..3]).is_err()); // gap at start
        assert!(ModularNetwork::new(net.clone(), vec![0..4]).is_err()); // overrun
        let m = ModularNetwork::new(net, vec![0..1, 1..3]).unwrap();
        assert_eq!(m.cut_boundaries(), vec![0]);
    }

    #[test]
    fn conv_body_strips_head() {
        let net = Network::builder("n", FmShape::new(3, 8, 8))
            .conv("c1", ConvParams::vgg3x3(4))
            .pool("p1", PoolParams::max2x2())
            .fc(
                "fc1",
                crate::layer::FcParams {
                    num_output: 10,
                    relu: false,
                },
            )
            .softmax("prob")
            .build()
            .unwrap();
        let body = net.conv_body().unwrap();
        assert_eq!(body.len(), 2);
        assert_eq!(body.layers()[1].name, "p1");
    }

    #[test]
    fn fingerprint_is_deterministic_and_structural() {
        let build = |name: &str, input: FmShape, num_output: usize, layer_name: &str| {
            Network::builder(name, input)
                .conv(layer_name, ConvParams::vgg3x3(num_output))
                .pool("p1", PoolParams::max2x2())
                .build()
                .unwrap()
        };
        let base = build("tiny", FmShape::new(3, 16, 16), 8, "c1");
        // Rebuilding the identical description reproduces the value...
        assert_eq!(
            base.fingerprint(),
            build("tiny", FmShape::new(3, 16, 16), 8, "c1").fingerprint()
        );
        // ...while any structural perturbation moves it: a changed conv
        // parameter, a renamed layer, a different input shape.
        assert_ne!(
            base.fingerprint(),
            build("tiny", FmShape::new(3, 16, 16), 16, "c1").fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            build("tiny", FmShape::new(3, 16, 16), 8, "c1x").fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            build("tiny", FmShape::new(3, 32, 32), 8, "c1").fingerprint()
        );
    }

    #[test]
    fn fingerprint_is_stable_across_releases() {
        // Pin the exact value: the fingerprint keys persisted plan-cache
        // artifacts, so an accidental encoding change must fail loudly
        // here rather than silently invalidating (or worse, colliding
        // with) existing keys.
        let net = Network::builder("pin", FmShape::new(1, 4, 4))
            .conv("c", ConvParams::new(2, 3, 1, 1, true))
            .build()
            .unwrap();
        assert_eq!(net.fingerprint(), 0x9f22_9c1e_959e_5ea2);
    }
}
