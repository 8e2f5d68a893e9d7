//! Reference execution of a network, layer by layer, with no fusion.
//!
//! This is the numerical gold standard the fusion simulator
//! (`winofuse-fusion`) is validated against, and it can run each
//! convolutional layer with any of the algorithms the paper's framework
//! chooses between — so a heterogeneous strategy can be checked for
//! functional equivalence end to end.
//!
//! Two interpreters live here: the naive reference ([`forward`],
//! [`forward_with`], [`forward_fix16`]) and the fast [`NetworkExecutor`].
//! The fast path prepares each convolution once as a [`PreparedConv`] —
//! per group, the packed direct operand plus the dense or pruned
//! Winograd bank the layer's algorithm calls for — and
//! [`PreparedConv::run`] is its one dispatch. A [`PreparedNetwork`] holds
//! one `Arc<PreparedConv>` per conv layer, shared by every executor
//! cloned from it and by the fused runner lowered from it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use winofuse_conv::cook_toom::{f43, WinogradTransform};
use winofuse_conv::direct::PackedKernels;
use winofuse_conv::fixed::Fix16;
use winofuse_conv::gemm::{ConvProfile, ConvStats};
use winofuse_conv::microkernel::KernelChoice;
use winofuse_conv::ops::{self, LrnParams};
use winofuse_conv::sparse::SparseFilters;
use winofuse_conv::tensor::{random_tensor, Scalar, Tensor};
use winofuse_conv::winograd::{BankRef, BatchedFilters, BatchedOptions};
use winofuse_conv::{direct, im2col, winograd, ConvError, ConvGeometry};
use winofuse_runtime::faults::{describe_panic, FaultInjector, FaultKind, FaultMode};
use winofuse_runtime::PoolProfiler;
use winofuse_telemetry::Telemetry;

use crate::layer::{ConvParams, Layer, LayerKind};
use crate::network::Network;
use crate::ModelError;

/// Which algorithm executes a convolutional layer in the reference runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RefAlgo {
    /// Conventional sliding-window convolution (Eq. 1).
    #[default]
    Direct,
    /// im2col + GEMM lowering.
    Im2col,
    /// Winograd `F(4×4, 3×3)` (falls back to an error for non-3×3 or
    /// strided layers; the optimizer never assigns those).
    WinogradF43,
}

/// Per-layer weights for a network (synthetic, seeded).
#[derive(Debug, Clone)]
pub struct NetworkWeights {
    entries: Vec<LayerWeights>,
}

/// Weights of one layer.
#[derive(Debug, Clone)]
pub enum LayerWeights {
    /// Convolution kernels, `N×C×K×K`.
    Conv(Tensor<f32>),
    /// Fully connected weight matrix (row-major `out×in`) and bias.
    Fc {
        /// Row-major `out_features × in_features` matrix.
        weights: Vec<f32>,
        /// Per-output bias.
        bias: Vec<f32>,
    },
    /// The layer has no parameters.
    None,
}

impl NetworkWeights {
    /// Generates deterministic pseudo-random weights for every
    /// parameterized layer. Values are scaled by `1/√fan_in` so activations
    /// stay in a numerically friendly range through deep networks.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures (impossible for a validated
    /// network).
    pub fn random(net: &Network, seed: u64) -> Result<Self, ModelError> {
        let shapes = net.shapes()?;
        let mut entries = Vec::with_capacity(net.len());
        for (i, layer) in net.layers().iter().enumerate() {
            let input = shapes[i];
            let w = match &layer.kind {
                LayerKind::Conv(c) => {
                    let ch_per_group = c.channels_per_group(input.channels);
                    let fan_in = (ch_per_group * c.kernel * c.kernel) as f32;
                    let scale = fan_in.sqrt().recip();
                    let mut t = random_tensor(
                        c.num_output,
                        ch_per_group,
                        c.kernel,
                        c.kernel,
                        seed.wrapping_add(i as u64 * 7919),
                    );
                    for v in t.as_mut_slice() {
                        *v *= scale;
                    }
                    LayerWeights::Conv(t)
                }
                LayerKind::Fc(fc) => {
                    let in_f = input.elements();
                    let scale = (in_f as f32).sqrt().recip();
                    let flat = random_tensor(
                        1,
                        1,
                        fc.num_output,
                        in_f,
                        seed.wrapping_add(i as u64 * 104729),
                    );
                    let weights = flat.as_slice().iter().map(|v| v * scale).collect();
                    LayerWeights::Fc {
                        weights,
                        bias: vec![0.0; fc.num_output],
                    }
                }
                _ => LayerWeights::None,
            };
            entries.push(w);
        }
        Ok(NetworkWeights { entries })
    }

    /// Weights of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of range — use
    /// [`NetworkWeights::get`] on indices that are not already validated.
    pub fn layer(&self, index: usize) -> &LayerWeights {
        &self.entries[index]
    }

    /// Weights of layer `index`, or `None` when the index is out of range
    /// — the fallible companion of [`NetworkWeights::layer`] for callers
    /// holding externally supplied indices.
    pub fn get(&self, index: usize) -> Option<&LayerWeights> {
        self.entries.get(index)
    }

    /// Number of layer entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A stable 64-bit fingerprint over every weight bit (FNV-1a on the
    /// IEEE bit patterns, little-endian). Combined with
    /// [`Network::fingerprint`] this identifies a servable model: same
    /// structure + same weights ⇒ same fingerprints ⇒ the plan cache may
    /// reuse a prepared entry.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::network::Fnv1a::new();
        h.u64(self.entries.len() as u64);
        for entry in &self.entries {
            match entry {
                LayerWeights::Conv(t) => {
                    h.str("conv");
                    let (n, c, kh, kw) = t.shape();
                    for d in [n, c, kh, kw] {
                        h.u64(d as u64);
                    }
                    for &v in t.as_slice() {
                        h.f32(v);
                    }
                }
                LayerWeights::Fc { weights, bias } => {
                    h.str("fc");
                    h.u64(weights.len() as u64);
                    for &v in weights {
                        h.f32(v);
                    }
                    h.u64(bias.len() as u64);
                    for &v in bias {
                        h.f32(v);
                    }
                }
                LayerWeights::None => h.str("none"),
            }
        }
        h.finish()
    }
}

/// Runs the network with the conventional algorithm everywhere, returning
/// the output of every layer (`result[i]` = output of layer `i`).
///
/// # Errors
///
/// Returns [`ModelError::Execution`] when the input tensor does not match
/// the network's input shape or a numeric kernel rejects its arguments.
pub fn forward(
    net: &Network,
    weights: &NetworkWeights,
    input: &Tensor<f32>,
) -> Result<Vec<Tensor<f32>>, ModelError> {
    forward_with(net, weights, input, |_| RefAlgo::Direct)
}

/// Runs the network choosing a convolution algorithm per layer index.
///
/// # Errors
///
/// Same conditions as [`forward`]; additionally
/// [`ModelError::Execution`] when `WinogradF43` is requested for a layer it
/// cannot implement (kernel ≠ 3×3 or stride ≠ 1).
pub fn forward_with<F: FnMut(usize) -> RefAlgo>(
    net: &Network,
    weights: &NetworkWeights,
    input: &Tensor<f32>,
    mut algo_for: F,
) -> Result<Vec<Tensor<f32>>, ModelError> {
    let in_shape = net.input_shape();
    if input.c() != in_shape.channels || input.h() != in_shape.height || input.w() != in_shape.width
    {
        return Err(ModelError::Execution(format!(
            "input tensor {}x{}x{} does not match network input {}",
            input.c(),
            input.h(),
            input.w(),
            in_shape
        )));
    }
    // Grouped-conv slicing must derive from shape inference (which
    // rejects non-divisible group counts), not raw tensor dimensions.
    let shapes = net.shapes()?;
    let mut outputs = Vec::with_capacity(net.len());
    let mut cur = input.clone();
    for (i, layer) in net.layers().iter().enumerate() {
        let next = match &layer.kind {
            LayerKind::Conv(c) => {
                let LayerWeights::Conv(kernels) = weights.layer(i) else {
                    return Err(ModelError::Execution(format!(
                        "missing conv weights for layer {i} `{}`",
                        layer.name
                    )));
                };
                let geom = ConvGeometry::rect(cur.h(), cur.w(), c.kernel, c.stride, c.pad)?;
                let algo = algo_for(i);
                let run = |x: &Tensor<f32>, k: &Tensor<f32>| -> Result<Tensor<f32>, ModelError> {
                    Ok(match algo {
                        RefAlgo::Direct => direct::conv2d(x, k, geom)?,
                        RefAlgo::Im2col => im2col::conv2d(x, k, geom)?,
                        RefAlgo::WinogradF43 => winograd::conv2d_f43(x, k, geom)?,
                    })
                };
                let mut y = if c.groups <= 1 {
                    run(&cur, kernels)?
                } else {
                    // Grouped convolution: each group's kernels see only
                    // their channel slice.
                    let cg = c.channels_per_group(shapes[i].channels);
                    let ng = c.num_output / c.groups;
                    let out_shape = layer.output_shape(shapes[i])?;
                    let mut out =
                        Tensor::zeros(cur.n(), c.num_output, out_shape.height, out_shape.width);
                    for g in 0..c.groups {
                        let x = cur.slice_channels(g * cg, (g + 1) * cg);
                        let k = kernels.slice_channels_n(g * ng, (g + 1) * ng);
                        out.write_channels(g * ng, &run(&x, &k)?);
                    }
                    out
                };
                if c.relu {
                    y = ops::relu(&y);
                }
                y
            }
            LayerKind::Pool(p) => {
                let geom = ConvGeometry::rect(cur.h(), cur.w(), p.kernel, p.stride, p.pad)?;
                ops::pool(&cur, geom, p.kind)?
            }
            LayerKind::Lrn(spec) => ops::lrn(
                &cur,
                LrnParams {
                    local_size: spec.local_size,
                    alpha: spec.alpha,
                    beta: spec.beta,
                    k: spec.k,
                },
            )?,
            LayerKind::Relu => ops::relu(&cur),
            LayerKind::Fc(fc) => {
                let LayerWeights::Fc { weights: w, bias } = weights.layer(i) else {
                    return Err(ModelError::Execution(format!(
                        "missing fc weights for layer {i} `{}`",
                        layer.name
                    )));
                };
                let mut y = ops::fully_connected(&cur, w, bias, fc.num_output)?;
                if fc.relu {
                    y = ops::relu(&y);
                }
                y
            }
            LayerKind::Softmax => ops::softmax(&cur)?,
        };
        outputs.push(next.clone());
        cur = next;
    }
    Ok(outputs)
}

/// Reference fixed-point execution of a convolutional body: every layer
/// computed on [`Fix16`] values, the network's kernels quantized once via
/// [`Tensor::cast`]. Convolutions run the exact wide-integer
/// `conv2d_fix16_fast_with_kernel` path (bit-identical at any thread
/// count), pooling and ReLU are the generic reference operators, and LRN
/// computes in `f32` from the dequantized values before re-rounding — a
/// deterministic scalar sequence, so any streaming executor that mirrors
/// it can be checked for *exact* equality rather than a float tolerance.
///
/// Returns the output of every layer, like [`forward`].
///
/// # Errors
///
/// Returns [`ModelError::Execution`] when the input does not match the
/// network's input shape, when conv weights are missing, or for layer
/// kinds outside the fused set (FC, softmax) — quantized execution
/// models the accelerator datapath, which hosts only the conv body.
///
/// [`Fix16`]: winofuse_conv::fixed::Fix16
pub fn forward_fix16(
    net: &Network,
    weights: &NetworkWeights,
    input: &Tensor<Fix16>,
    threads: usize,
) -> Result<Vec<Tensor<Fix16>>, ModelError> {
    let in_shape = net.input_shape();
    if input.c() != in_shape.channels || input.h() != in_shape.height || input.w() != in_shape.width
    {
        return Err(ModelError::Execution(format!(
            "input tensor {}x{}x{} does not match network input {}",
            input.c(),
            input.h(),
            input.w(),
            in_shape
        )));
    }
    let shapes = net.shapes()?;
    let mut outputs = Vec::with_capacity(net.len());
    let mut cur = input.clone();
    for (i, layer) in net.layers().iter().enumerate() {
        let next = match &layer.kind {
            LayerKind::Conv(c) => {
                let LayerWeights::Conv(kernels) = weights.layer(i) else {
                    return Err(ModelError::Execution(format!(
                        "missing conv weights for layer {i} `{}`",
                        layer.name
                    )));
                };
                let geom = ConvGeometry::rect(cur.h(), cur.w(), c.kernel, c.stride, c.pad)?;
                let mut y = if c.groups <= 1 {
                    let k: Tensor<Fix16> = kernels.cast();
                    direct::conv2d_fix16_fast_with_kernel(
                        &cur,
                        &k,
                        geom,
                        threads,
                        KernelChoice::auto(),
                    )?
                } else {
                    let cg = c.channels_per_group(shapes[i].channels);
                    let ng = c.num_output / c.groups;
                    let out_shape = layer.output_shape(shapes[i])?;
                    let mut out =
                        Tensor::zeros(cur.n(), c.num_output, out_shape.height, out_shape.width);
                    for g in 0..c.groups {
                        let x = cur.slice_channels(g * cg, (g + 1) * cg);
                        let k: Tensor<Fix16> =
                            kernels.slice_channels_n(g * ng, (g + 1) * ng).cast();
                        out.write_channels(
                            g * ng,
                            &direct::conv2d_fix16_fast_with_kernel(
                                &x,
                                &k,
                                geom,
                                threads,
                                KernelChoice::auto(),
                            )?,
                        );
                    }
                    out
                };
                if c.relu {
                    y = ops::relu(&y);
                }
                y
            }
            LayerKind::Pool(p) => {
                let geom = ConvGeometry::rect(cur.h(), cur.w(), p.kernel, p.stride, p.pad)?;
                ops::pool(&cur, geom, p.kind)?
            }
            LayerKind::Lrn(spec) => ops::lrn(
                &cur,
                LrnParams {
                    local_size: spec.local_size,
                    alpha: spec.alpha,
                    beta: spec.beta,
                    k: spec.k,
                },
            )?,
            LayerKind::Relu => ops::relu(&cur),
            other => {
                return Err(ModelError::Execution(format!(
                    "layer {i} `{}`: kind `{}` has no fixed-point path (conv body only)",
                    layer.name,
                    other.tag()
                )))
            }
        };
        outputs.push(next.clone());
        cur = next;
    }
    Ok(outputs)
}

/// Convolution backend selection for [`NetworkExecutor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecAlgo {
    /// Batched Winograd `F(4×4, 3×3)` where eligible (3×3 kernel,
    /// stride 1), blocked im2col+GEMM everywhere else — the heterogeneous
    /// choice the paper's framework makes per layer.
    #[default]
    Auto,
    /// Batched Winograd on every convolution; construction fails on a
    /// layer the `F(4×4, 3×3)` path cannot run.
    Winograd,
    /// Blocked im2col+GEMM on every convolution.
    Direct,
    /// Sparse Winograd: transform-domain filters pruned to `density_pm`
    /// per mille of coefficients on every eligible (3×3, stride-1)
    /// layer, blocked im2col+GEMM elsewhere. Outputs are an
    /// *approximation* of the dense forward — the caller asserts the
    /// model tolerates that density.
    Sparse {
        /// Coefficients kept per transform point, in per mille (1..=1000).
        density_pm: u16,
    },
}

/// Per-layer attribution record from [`NetworkExecutor::run_profiled`].
#[derive(Debug, Clone)]
pub struct LayerProfile {
    /// Layer name from the network description.
    pub name: String,
    /// Layer kind tag (`conv`, `pool`, `fc`, ...).
    pub kind: &'static str,
    /// Algorithm that executed the layer: `winograd`, `sparse`,
    /// `direct`, or `-` for layers without a convolution backend.
    pub algo: &'static str,
    /// Wall-clock spent executing the layer, in nanoseconds.
    pub wall_ns: u64,
    /// Model-level arithmetic operation count ([`Layer::ops`]) — what
    /// the layer mathematically requires, independent of algorithm.
    pub model_ops: u64,
    /// Kernel-phase counters recorded while executing this layer
    /// (all-zero for non-conv layers).
    pub conv: ConvProfile,
}

impl LayerProfile {
    /// Achieved algorithm-level GFLOP/s over the layer's wall-clock
    /// (`None` for layers with no counted kernel flops).
    pub fn achieved_gflops(&self) -> Option<f64> {
        let flops = self.conv.total_flops();
        if flops == 0 || self.wall_ns == 0 {
            return None;
        }
        Some(flops as f64 / self.wall_ns as f64)
    }
}

/// Runs convolution layer `c` on `x` one channel group at a time and
/// applies its folded ReLU in place: `conv(g, x_g)` convolves group `g`'s
/// input-channel slice (all of `x` for an ungrouped layer), and the group
/// outputs stack along the channel axis. The executor and both datapaths
/// of the fused runner share this group and ReLU handling.
///
/// # Errors
///
/// Propagates the first error `conv` returns.
pub fn conv_grouped<T, E>(
    c: &ConvParams,
    x: &Tensor<T>,
    geom: ConvGeometry,
    mut conv: impl FnMut(usize, &Tensor<T>) -> Result<Tensor<T>, E>,
) -> Result<Tensor<T>, E>
where
    T: Scalar + PartialOrd,
{
    let mut y = if c.groups <= 1 {
        conv(0, x)?
    } else {
        let cg = c.channels_per_group(x.c());
        let ng = c.num_output / c.groups;
        let (oh, ow) = (geom.output_height(), geom.output_width());
        let mut out = Tensor::zeros(x.n(), c.num_output, oh, ow);
        for g in 0..c.groups {
            out.write_channels(g * ng, &conv(g, &x.slice_channels(g * cg, (g + 1) * cg))?);
        }
        out
    };
    if c.relu {
        for v in y.as_mut_slice() {
            if *v < T::zero() {
                *v = T::zero();
            }
        }
    }
    Ok(y)
}

/// One convolution layer prepared for repeated execution — the single
/// conv-layer preparation that [`NetworkExecutor`] and the fused runner's
/// `f32` strips share. Per channel group it holds the packed direct
/// operand (the direct layer's kernel, and the lenient fallback of a
/// Winograd layer) plus the dense or pruned `F(4×4, 3×3)` bank the
/// layer's algorithm calls for, all built once by [`PreparedConv::new`].
pub struct PreparedConv {
    params: ConvParams,
    transform: WinogradTransform,
    groups: Vec<GroupBanks>,
}

/// One channel group's operands; at most one of `dense`/`sparse` is set.
struct GroupBanks {
    direct: PackedKernels,
    dense: Option<BatchedFilters>,
    sparse: Option<SparseFilters>,
}

impl PreparedConv {
    /// Slices `kernels` (`N × C/groups × K × K`) per group and prepares
    /// them for `algo`: on a 3×3 stride-1 layer, [`ExecAlgo::Auto`] and
    /// [`ExecAlgo::Winograd`] transform a dense bank and
    /// [`ExecAlgo::Sparse`] a pruned one; other layers run direct.
    ///
    /// # Errors
    ///
    /// Returns the [`ConvError`] of a kernel tensor the Winograd transform
    /// or the pruning pass rejects.
    pub fn new(
        params: &ConvParams,
        kernels: &Tensor<f32>,
        algo: ExecAlgo,
    ) -> Result<Self, ConvError> {
        let transform = f43();
        let capable = params.kernel == transform.r() && params.stride == 1;
        let prepare = |k: &Tensor<f32>| -> Result<GroupBanks, ConvError> {
            Ok(GroupBanks {
                direct: PackedKernels::new(k),
                dense: match algo {
                    ExecAlgo::Auto | ExecAlgo::Winograd if capable => {
                        Some(BatchedFilters::new(k, &transform)?)
                    }
                    _ => None,
                },
                sparse: match algo {
                    ExecAlgo::Sparse { density_pm } if capable => {
                        Some(SparseFilters::new(k, &transform, density_pm)?)
                    }
                    _ => None,
                },
            })
        };
        let groups = if params.groups <= 1 {
            vec![prepare(kernels)?]
        } else {
            let ng = params.num_output / params.groups;
            (0..params.groups)
                .map(|g| prepare(&kernels.slice_channels_n(g * ng, (g + 1) * ng)))
                .collect::<Result<_, _>>()?
        };
        Ok(PreparedConv {
            params: *params,
            transform,
            groups,
        })
    }

    /// The layer's convolution parameters.
    pub fn params(&self) -> &ConvParams {
        &self.params
    }

    /// The algorithm the layer computes with: `sparse`, `winograd` or
    /// `direct`.
    pub fn algo(&self) -> &'static str {
        let g = &self.groups[0];
        if g.sparse.is_some() {
            "sparse"
        } else if g.dense.is_some() {
            "winograd"
        } else {
            "direct"
        }
    }

    /// Output rows per Winograd tile when the layer computes on a bank —
    /// a strip of it must start on a multiple of this to keep the
    /// whole-image tile grid — or `None` for a direct layer.
    pub fn winograd_m(&self) -> Option<usize> {
        (self.algo() != "direct").then(|| self.transform.m())
    }

    /// Convolves `x` (`geom` describes it, padding included) with every
    /// group on its bank — or on the packed direct operand when the layer
    /// has none or `force_direct` pins the fallback rung — then applies
    /// the folded ReLU. `stats` and `prof` attribute the kernels' work.
    ///
    /// # Errors
    ///
    /// Returns the kernels' [`ConvError`] for shapes that disagree with
    /// `geom` or a faulted worker pool.
    pub fn run(
        &self,
        x: &Tensor<f32>,
        geom: ConvGeometry,
        threads: usize,
        stats: Option<&ConvStats>,
        prof: &PoolProfiler,
        force_direct: bool,
    ) -> Result<Tensor<f32>, ConvError> {
        conv_grouped(&self.params, x, geom, |g, xg| {
            let banks = &self.groups[g];
            let bank = match (&banks.sparse, &banks.dense) {
                _ if force_direct => None,
                (Some(f), _) => Some(BankRef::Sparse(f)),
                (_, Some(f)) => Some(BankRef::Dense(f)),
                _ => None,
            };
            match bank {
                Some(bank) => winograd::conv2d_batched_ext(
                    xg,
                    bank,
                    geom,
                    &self.transform,
                    threads,
                    stats,
                    prof,
                    BatchedOptions::default(),
                ),
                None => direct::conv2d_fast_packed_ext(
                    xg,
                    &banks.direct,
                    geom,
                    threads,
                    stats,
                    prof,
                    None,
                ),
            }
        })
    }
}

enum PreparedLayer {
    Conv(Arc<PreparedConv>),
    Fc { weights: Vec<f32>, bias: Vec<f32> },
    Stateless,
}

/// Everything the fast path pays *once per model*: shape inference and
/// one [`PreparedConv`] per convolution layer.
///
/// A [`NetworkExecutor`] borrows the network but holds its preparation
/// behind an `Arc`, so the expensive part is shareable: the plan cache
/// keeps one `PreparedNetwork` per (network, weights, backend)
/// configuration, every request-serving executor clones the `Arc`
/// instead of re-transforming filters
/// (see [`NetworkExecutor::from_prepared`]), and the fused runner lowered
/// from it shares each layer's `Arc<PreparedConv>`.
pub struct PreparedNetwork {
    layers: Vec<PreparedLayer>,
    /// Validated per-layer input shapes (`shapes[i]` feeds layer `i`).
    shapes: Vec<crate::shape::FmShape>,
    algo: ExecAlgo,
    network_fingerprint: u64,
}

impl PreparedNetwork {
    /// Prepares a network for repeated execution: one [`PreparedConv`]
    /// per convolution layer for `algo`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Execution`] when a layer's weights are
    /// missing or malformed, or when [`ExecAlgo::Winograd`] is forced on
    /// a layer the `F(4×4, 3×3)` path cannot run (kernel ≠ 3 or
    /// stride ≠ 1).
    pub fn new(
        net: &Network,
        weights: &NetworkWeights,
        algo: ExecAlgo,
    ) -> Result<Self, ModelError> {
        let shapes = net.shapes()?;
        let mut layers = Vec::with_capacity(net.len());
        for (i, layer) in net.layers().iter().enumerate() {
            let p = match &layer.kind {
                LayerKind::Conv(c) => {
                    let LayerWeights::Conv(kernels) = weights.layer(i) else {
                        return Err(ModelError::Execution(format!(
                            "missing conv weights for layer {i} `{}`",
                            layer.name
                        )));
                    };
                    let conv = PreparedConv::new(c, kernels, algo)?;
                    if algo == ExecAlgo::Winograd && conv.winograd_m().is_none() {
                        return Err(ModelError::Execution(format!(
                            "layer {i} `{}` ({}x{} stride {}) cannot run the F(4,3) Winograd path",
                            layer.name, c.kernel, c.kernel, c.stride
                        )));
                    }
                    PreparedLayer::Conv(Arc::new(conv))
                }
                LayerKind::Fc(_) => {
                    let LayerWeights::Fc { weights: w, bias } = weights.layer(i) else {
                        return Err(ModelError::Execution(format!(
                            "missing fc weights for layer {i} `{}`",
                            layer.name
                        )));
                    };
                    PreparedLayer::Fc {
                        weights: w.clone(),
                        bias: bias.clone(),
                    }
                }
                _ => PreparedLayer::Stateless,
            };
            layers.push(p);
        }
        Ok(PreparedNetwork {
            layers,
            shapes,
            algo,
            network_fingerprint: net.fingerprint(),
        })
    }

    /// The backend this preparation was built for.
    pub fn algo(&self) -> ExecAlgo {
        self.algo
    }

    /// Fingerprint of the network this preparation belongs to
    /// ([`Network::fingerprint`]); [`NetworkExecutor::from_prepared`]
    /// refuses a mismatch.
    pub fn network_fingerprint(&self) -> u64 {
        self.network_fingerprint
    }

    /// The prepared convolution of layer `index`, or `None` when that
    /// layer is not a convolution.
    pub fn conv(&self, index: usize) -> Option<&Arc<PreparedConv>> {
        match self.layers.get(index) {
            Some(PreparedLayer::Conv(conv)) => Some(conv),
            _ => None,
        }
    }

    /// Number of pre-transformed dense Winograd filter banks held — the
    /// transform work that was paid at construction and is amortized by
    /// every run sharing this preparation.
    pub fn winograd_banks(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                PreparedLayer::Conv(c) => c.groups.iter().filter(|g| g.dense.is_some()).count(),
                _ => 0,
            })
            .sum()
    }
}

/// Whole-network fast-path executor: convolutions run through the batched
/// Winograd / blocked-GEMM kernels of `winofuse-conv`, threaded over the
/// shared `winofuse-runtime` worker pool; pool/LRN/ReLU/FC/softmax reuse
/// the reference operators. The naive [`forward`] path remains the oracle
/// — outputs agree within 1e-4 (f32) and the executor is bit-identical
/// across thread counts.
///
/// # Examples
///
/// ```
/// use winofuse_model::runtime::{random_input, NetworkExecutor, NetworkWeights};
/// use winofuse_model::zoo;
///
/// # fn main() -> Result<(), winofuse_model::ModelError> {
/// let net = zoo::small_test_net();
/// let weights = NetworkWeights::random(&net, 1)?;
/// let exec = NetworkExecutor::new(&net, &weights)?.with_threads(2);
/// let probs = exec.run(&random_input(1, 3, 32, 32, 2))?;
/// assert_eq!(probs.c(), 16);
/// # Ok(())
/// # }
/// ```
pub struct NetworkExecutor<'n> {
    net: &'n Network,
    threads: usize,
    telemetry: Telemetry,
    faults: FaultInjector,
    fault_mode: FaultMode,
    prepared: std::sync::Arc<PreparedNetwork>,
}

impl<'n> NetworkExecutor<'n> {
    /// Prepares the network with the default [`ExecAlgo::Auto`] backend.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Execution`] when a layer's weights are
    /// missing or malformed.
    pub fn new(net: &'n Network, weights: &NetworkWeights) -> Result<Self, ModelError> {
        Self::with_algo(net, weights, ExecAlgo::Auto)
    }

    /// Prepares the network with an explicit convolution backend.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NetworkExecutor::new`]; additionally
    /// [`ModelError::Execution`] when [`ExecAlgo::Winograd`] is forced on
    /// a layer the `F(4×4, 3×3)` path cannot run (kernel ≠ 3 or
    /// stride ≠ 1).
    pub fn with_algo(
        net: &'n Network,
        weights: &NetworkWeights,
        algo: ExecAlgo,
    ) -> Result<Self, ModelError> {
        let prepared = std::sync::Arc::new(PreparedNetwork::new(net, weights, algo)?);
        Self::from_prepared(net, prepared)
    }

    /// Builds an executor around an already-shared preparation, paying no
    /// filter transforms at all — the plan cache's hit path.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Execution`] when `prepared` was built for a
    /// structurally different network (fingerprint mismatch).
    pub fn from_prepared(
        net: &'n Network,
        prepared: std::sync::Arc<PreparedNetwork>,
    ) -> Result<Self, ModelError> {
        if prepared.network_fingerprint != net.fingerprint() {
            return Err(ModelError::Execution(format!(
                "prepared network fingerprint {:#018x} does not match network `{}` ({:#018x})",
                prepared.network_fingerprint,
                net.name(),
                net.fingerprint()
            )));
        }
        Ok(NetworkExecutor {
            net,
            threads: 0,
            telemetry: Telemetry::disabled(),
            faults: FaultInjector::disabled(),
            fault_mode: FaultMode::Strict,
            prepared,
        })
    }

    /// Sets the worker-thread count for the convolution kernels
    /// (`0` = auto-detect — the same convention as
    /// `Framework::with_threads`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a telemetry context: per-layer `exec` spans plus the
    /// `conv.gemm_calls` / `conv.tiles` / `conv.bytes_packed` counters.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a fault injector. Each layer checks the site
    /// `exec.<layer-name>` before running, and the injector is threaded
    /// into the worker pool (sites `pool.<layer>/<phase>`).
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// Selects how detected kernel faults are handled (default
    /// [`FaultMode::Strict`]): strict converts them into
    /// [`ModelError::KernelFault`]; lenient re-runs a faulted Winograd
    /// layer on the direct path (the degradation ladder), counting
    /// `exec.fallbacks`.
    pub fn with_fault_mode(mut self, mode: FaultMode) -> Self {
        self.fault_mode = mode;
        self
    }

    /// Runs the network and returns the final layer's output, holding
    /// only the live activation between layers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NetworkExecutor::run_all`].
    pub fn run(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, ModelError> {
        self.run_layers(input, |_, _, _, _| {})
    }

    /// Runs the network and returns every layer's output
    /// (`result[i]` = output of layer `i`), like [`forward`] but on the
    /// fast path.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Execution`] when the input tensor does not
    /// match the network's input shape or a kernel rejects its arguments.
    pub fn run_all(&self, input: &Tensor<f32>) -> Result<Vec<Tensor<f32>>, ModelError> {
        let mut outputs = Vec::with_capacity(self.net.len());
        self.run_layers(input, |_, y, _, _| outputs.push(y.clone()))?;
        Ok(outputs)
    }

    /// Runs the network and returns the final output together with a
    /// per-layer attribution record: wall-clock, model-level op count
    /// ([`Layer::ops`]), the executing algorithm, and — for
    /// convolutions — the exact kernel-phase flop/byte/time counters from
    /// `winofuse-conv`. Each layer gets its own [`ConvStats`], so phase
    /// counters attribute to the layer that incurred them; the flop/byte
    /// quantities are analytic and thread-count-invariant, while the
    /// `*_ns` fields are wall-clock.
    ///
    /// When telemetry is attached, worker-lane trace slices are emitted
    /// under each layer's name (e.g. `conv1_1/wino.gemm[3]`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`NetworkExecutor::run_all`].
    pub fn run_profiled(
        &self,
        input: &Tensor<f32>,
    ) -> Result<(Tensor<f32>, Vec<LayerProfile>), ModelError> {
        let mut profiles = Vec::with_capacity(self.net.len());
        let out = self.run_layers(input, |i, _, stats, wall_ns| {
            let layer = &self.net.layers()[i];
            profiles.push(LayerProfile {
                name: layer.name.clone(),
                kind: layer.kind.tag(),
                algo: match &self.prepared.layers[i] {
                    PreparedLayer::Conv(conv) => conv.algo(),
                    _ => "-",
                },
                wall_ns,
                model_ops: layer.ops(self.prepared.shapes[i]),
                conv: stats.profile(),
            });
        })?;
        Ok((out, profiles))
    }

    /// The one layer loop behind [`NetworkExecutor::run`], `run_all` and
    /// `run_profiled`: each layer runs under its `exec` span with its own
    /// [`ConvStats`], then `on_layer(index, output, stats, wall_ns)` sees
    /// it before the previous activation is dropped. The run's totals
    /// publish as the `conv.*` counters.
    fn run_layers(
        &self,
        input: &Tensor<f32>,
        mut on_layer: impl FnMut(usize, &Tensor<f32>, &ConvStats, u64),
    ) -> Result<Tensor<f32>, ModelError> {
        self.check_input(input)?;
        let base = PoolProfiler::new(self.telemetry.clone(), "").with_faults(self.faults.clone());
        let total = ConvStats::new();
        let mut cur: Option<Tensor<f32>> = None;
        for (i, layer) in self.net.layers().iter().enumerate() {
            let span = self.telemetry.span("exec", &layer.name);
            let stats = ConvStats::new();
            let t0 = Instant::now();
            let x = cur.as_ref().unwrap_or(input);
            let next = self.exec_layer(i, layer, x, &stats, &base.scoped(&layer.name))?;
            let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            drop(span);
            let (gemm_calls, tiles, bytes_packed) = stats.snapshot();
            total.add_gemm(gemm_calls, bytes_packed);
            total.add_tiles(tiles);
            on_layer(i, &next, &stats, wall_ns);
            cur = Some(next);
        }
        let (gemm_calls, tiles, bytes_packed) = total.snapshot();
        self.telemetry.counter("conv.gemm_calls").add(gemm_calls);
        self.telemetry.counter("conv.tiles").add(tiles);
        self.telemetry
            .counter("conv.bytes_packed")
            .add(bytes_packed);
        cur.ok_or_else(|| ModelError::Execution("network has no layers to execute".to_string()))
    }

    fn check_input(&self, input: &Tensor<f32>) -> Result<(), ModelError> {
        let in_shape = self.net.input_shape();
        if input.c() != in_shape.channels
            || input.h() != in_shape.height
            || input.w() != in_shape.width
        {
            return Err(ModelError::Execution(format!(
                "input tensor {}x{}x{} does not match network input {}",
                input.c(),
                input.h(),
                input.w(),
                in_shape
            )));
        }
        Ok(())
    }

    fn exec_layer(
        &self,
        i: usize,
        layer: &Layer,
        cur: &Tensor<f32>,
        stats: &ConvStats,
        prof: &PoolProfiler,
    ) -> Result<Tensor<f32>, ModelError> {
        if let PreparedLayer::Conv(conv) = &self.prepared.layers[i] {
            return self.run_conv_guarded(layer, cur, conv, stats, prof);
        }
        // Non-conv layers have no alternate algorithm rung: a caught panic
        // (or injected fault) becomes a typed `KernelFault` in either
        // fault mode.
        let guarded = catch_unwind(AssertUnwindSafe(|| {
            if self.faults.trip(&format!("exec.{}", layer.name)).is_some() {
                return Err(ModelError::KernelFault {
                    layer: layer.name.clone(),
                    reason: "injected fault".to_string(),
                });
            }
            self.exec_simple(i, layer, cur)
        }));
        match guarded {
            Ok(result) => result,
            Err(payload) => Err(ModelError::KernelFault {
                layer: layer.name.clone(),
                reason: describe_panic(payload.as_ref()),
            }),
        }
    }

    /// The non-conv layer bodies (pool/LRN/ReLU/FC/softmax) — no fallback
    /// path, called inside the guard of [`NetworkExecutor::exec_layer`].
    fn exec_simple(
        &self,
        i: usize,
        layer: &Layer,
        cur: &Tensor<f32>,
    ) -> Result<Tensor<f32>, ModelError> {
        Ok(match &layer.kind {
            LayerKind::Conv(_) => {
                unreachable!("invariant: conv layers route through run_conv_guarded")
            }
            LayerKind::Pool(p) => {
                let geom = ConvGeometry::rect(cur.h(), cur.w(), p.kernel, p.stride, p.pad)?;
                ops::pool(cur, geom, p.kind)?
            }
            LayerKind::Lrn(spec) => ops::lrn(
                cur,
                LrnParams {
                    local_size: spec.local_size,
                    alpha: spec.alpha,
                    beta: spec.beta,
                    k: spec.k,
                },
            )?,
            LayerKind::Relu => ops::relu(cur),
            LayerKind::Fc(fc) => {
                let PreparedLayer::Fc { weights, bias } = &self.prepared.layers[i] else {
                    unreachable!("invariant: fc layer prepared as non-fc");
                };
                let mut y = ops::fully_connected(cur, weights, bias, fc.num_output)?;
                if fc.relu {
                    y = ops::relu(&y);
                }
                y
            }
            LayerKind::Softmax => ops::softmax(cur)?,
        })
    }

    /// Runs a conv layer with the fault guard and the degradation ladder:
    /// a detected kernel fault (caught panic, pool-reported fault, or
    /// injected Winograd-domain saturation) on a Winograd layer re-runs
    /// the layer on the direct path in lenient mode, counting
    /// `exec.fallbacks` / `exec.fallbacks.<reason>`; in strict mode (or
    /// when the direct rung itself faults) it surfaces as
    /// [`ModelError::KernelFault`].
    fn run_conv_guarded(
        &self,
        layer: &Layer,
        cur: &Tensor<f32>,
        conv: &PreparedConv,
        stats: &ConvStats,
        prof: &PoolProfiler,
    ) -> Result<Tensor<f32>, ModelError> {
        let c = conv.params();
        let geom = ConvGeometry::rect(cur.h(), cur.w(), c.kernel, c.stride, c.pad)?;
        let run = |force_direct: bool| -> Result<Tensor<f32>, ModelError> {
            Ok(conv.run(cur, geom, self.threads, Some(stats), prof, force_direct)?)
        };
        let primary = catch_unwind(AssertUnwindSafe(|| {
            if let Some(kind) = self.faults.trip(&format!("exec.{}", layer.name)) {
                if matches!(kind, FaultKind::Saturate) {
                    return Err(ModelError::KernelFault {
                        layer: layer.name.clone(),
                        reason: "injected winograd-domain fix16 saturation".to_string(),
                    });
                }
            }
            run(false)
        }));
        let (reason, class) = match primary {
            Ok(Ok(y)) => return Ok(y),
            Ok(Err(ModelError::KernelFault { reason, .. })) => {
                let class = if reason.contains("saturation") {
                    "saturation"
                } else {
                    "kernel_fault"
                };
                (reason, class)
            }
            // Non-fault errors (shape mismatches etc.) are not recoverable
            // by switching algorithms — propagate untouched.
            Ok(Err(other)) => return Err(other),
            Err(payload) => (describe_panic(payload.as_ref()), "panic"),
        };
        if self.fault_mode == FaultMode::Lenient && conv.winograd_m().is_some() {
            match catch_unwind(AssertUnwindSafe(|| run(true))) {
                Ok(Ok(y)) => {
                    self.telemetry.counter("exec.fallbacks").incr();
                    self.telemetry
                        .counter(&format!("exec.fallbacks.{class}"))
                        .incr();
                    return Ok(y);
                }
                Ok(Err(e)) => return Err(e),
                Err(payload) => {
                    return Err(ModelError::KernelFault {
                        layer: layer.name.clone(),
                        reason: format!(
                            "direct fallback panicked after `{reason}`: {}",
                            describe_panic(payload.as_ref())
                        ),
                    })
                }
            }
        }
        Err(ModelError::KernelFault {
            layer: layer.name.clone(),
            reason,
        })
    }
}

// Re-exported so downstream crates can build inputs without importing
// winofuse-conv directly.
pub use winofuse_conv::tensor::random_tensor as random_input;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn forward_small_net_shapes() {
        let net = zoo::small_test_net();
        let w = NetworkWeights::random(&net, 1).unwrap();
        let x = random_tensor(1, 3, 32, 32, 2);
        let outs = forward(&net, &w, &x).unwrap();
        assert_eq!(outs.len(), net.len());
        let shapes = net.shapes().unwrap();
        for (i, out) in outs.iter().enumerate() {
            let s = shapes[i + 1];
            assert_eq!((out.c(), out.h(), out.w()), (s.channels, s.height, s.width));
        }
    }

    #[test]
    fn relu_fold_makes_outputs_nonnegative() {
        let net = zoo::small_test_net();
        let w = NetworkWeights::random(&net, 3).unwrap();
        let x = random_tensor(1, 3, 32, 32, 4);
        let outs = forward(&net, &w, &x).unwrap();
        // Every conv in the small net has relu folded.
        assert!(outs[0].as_slice().iter().all(|&v| v >= 0.0));
        assert!(outs[1].as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn heterogeneous_algorithms_agree() {
        let net = zoo::small_test_net();
        let w = NetworkWeights::random(&net, 5).unwrap();
        let x = random_tensor(1, 3, 32, 32, 6);
        let a = forward(&net, &w, &x).unwrap();
        // conv1 is stride-2 (direct only); conv2/conv3 are 3x3 s1.
        let b = forward_with(&net, &w, &x, |i| match i {
            0 => RefAlgo::Im2col,
            1 => RefAlgo::WinogradF43,
            3 => RefAlgo::WinogradF43,
            _ => RefAlgo::Direct,
        })
        .unwrap();
        for (ya, yb) in a.iter().zip(&b) {
            assert!(
                ya.approx_eq(yb, 1e-2),
                "diff {}",
                ya.max_abs_diff(yb).unwrap()
            );
        }
    }

    #[test]
    fn winograd_on_strided_layer_is_an_error() {
        let net = zoo::small_test_net();
        let w = NetworkWeights::random(&net, 7).unwrap();
        let x = random_tensor(1, 3, 32, 32, 8);
        let r = forward_with(&net, &w, &x, |_| RefAlgo::WinogradF43);
        assert!(r.is_err());
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let net = zoo::small_test_net();
        let w = NetworkWeights::random(&net, 9).unwrap();
        let x = random_tensor(1, 3, 16, 16, 10);
        assert!(forward(&net, &w, &x).is_err());
    }

    #[test]
    fn full_alexnet_runs_to_softmax() {
        let net = zoo::alexnet();
        let w = NetworkWeights::random(&net, 11).unwrap();
        let x = random_tensor(1, 3, 227, 227, 12);
        let outs = forward(&net, &w, &x).unwrap();
        let prob = outs.last().unwrap();
        assert_eq!(prob.c(), 1000);
        let sum: f32 = prob.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "softmax sum {sum}");
    }

    fn assert_close(a: &[Tensor<f32>], b: &[Tensor<f32>], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (ya, yb) in a.iter().zip(b) {
            assert!(
                ya.approx_eq(yb, tol),
                "diff {}",
                ya.max_abs_diff(yb).unwrap()
            );
        }
    }

    #[test]
    fn executor_matches_forward_on_small_net() {
        let net = zoo::small_test_net();
        let w = NetworkWeights::random(&net, 13).unwrap();
        let x = random_tensor(1, 3, 32, 32, 14);
        let oracle = forward(&net, &w, &x).unwrap();
        let fast = NetworkExecutor::new(&net, &w)
            .unwrap()
            .with_threads(2)
            .run_all(&x)
            .unwrap();
        assert_close(&oracle, &fast, 1e-3);
    }

    #[test]
    fn executor_matches_forward_on_mixed_net() {
        let net = zoo::mixed_test_net();
        let w = NetworkWeights::random(&net, 15).unwrap();
        let x = random_tensor(1, 4, 24, 24, 16);
        let oracle = forward(&net, &w, &x).unwrap();
        for algo in [ExecAlgo::Auto, ExecAlgo::Direct] {
            let fast = NetworkExecutor::with_algo(&net, &w, algo)
                .unwrap()
                .run_all(&x)
                .unwrap();
            assert_close(&oracle, &fast, 1e-3);
        }
    }

    #[test]
    fn sparse_executor_at_full_density_matches_auto_exactly() {
        let net = zoo::small_test_net();
        let w = NetworkWeights::random(&net, 41).unwrap();
        let x = random_tensor(1, 3, 32, 32, 42);
        let auto = NetworkExecutor::new(&net, &w).unwrap().run_all(&x).unwrap();
        // Density 1000 prunes nothing, and the CSR kernel replicates the
        // dense GEMM's accumulation order — bit-identical end to end.
        let sparse = NetworkExecutor::with_algo(&net, &w, ExecAlgo::Sparse { density_pm: 1000 })
            .unwrap()
            .run_all(&x)
            .unwrap();
        for (ya, yb) in auto.iter().zip(&sparse) {
            assert_eq!(ya, yb);
        }
    }

    #[test]
    fn sparse_executor_profiles_layers_as_sparse() {
        let net = zoo::small_test_net();
        let w = NetworkWeights::random(&net, 43).unwrap();
        let x = random_tensor(1, 3, 32, 32, 44);
        let exec =
            NetworkExecutor::with_algo(&net, &w, ExecAlgo::Sparse { density_pm: 500 }).unwrap();
        let (_, profiles) = exec.run_profiled(&x).unwrap();
        // conv2/conv3 are 3x3 stride-1 (prunable); conv1 is strided and
        // stays on the direct path.
        let algos: Vec<&str> = profiles
            .iter()
            .filter(|p| p.kind == "conv")
            .map(|p| p.algo)
            .collect();
        assert!(algos.contains(&"sparse"), "algos {algos:?}");
        assert!(algos.contains(&"direct"), "algos {algos:?}");
        assert!(!algos.contains(&"winograd"), "algos {algos:?}");
    }

    #[test]
    fn sparse_executor_is_thread_count_invariant() {
        let net = zoo::small_test_net();
        let w = NetworkWeights::random(&net, 45).unwrap();
        let x = random_tensor(1, 3, 32, 32, 46);
        let algo = ExecAlgo::Sparse { density_pm: 250 };
        let base = NetworkExecutor::with_algo(&net, &w, algo)
            .unwrap()
            .with_threads(1)
            .run_all(&x)
            .unwrap();
        for threads in [2, 4, 8] {
            let got = NetworkExecutor::with_algo(&net, &w, algo)
                .unwrap()
                .with_threads(threads)
                .run_all(&x)
                .unwrap();
            for (ya, yb) in base.iter().zip(&got) {
                assert_eq!(ya, yb, "outputs differ at {threads} threads");
            }
        }
    }

    #[test]
    fn executor_is_thread_count_invariant() {
        let net = zoo::small_test_net();
        let w = NetworkWeights::random(&net, 17).unwrap();
        let x = random_tensor(1, 3, 32, 32, 18);
        let exec = NetworkExecutor::new(&net, &w).unwrap();
        let base = exec.run_all(&x).unwrap();
        for threads in [1, 2, 4, 8] {
            let exec = NetworkExecutor::new(&net, &w)
                .unwrap()
                .with_threads(threads);
            let got = exec.run_all(&x).unwrap();
            for (ya, yb) in base.iter().zip(&got) {
                assert_eq!(ya, yb, "outputs differ at {threads} threads");
            }
        }
    }

    #[test]
    fn executor_handles_grouped_conv() {
        use crate::layer::{ConvParams, PoolParams};
        use crate::shape::FmShape;
        let net = Network::builder("grouped", FmShape::new(4, 12, 12))
            .conv("conv1", ConvParams::new(8, 3, 1, 1, true).with_groups(2))
            .pool("pool1", PoolParams::max2x2())
            .conv("conv2", ConvParams::new(6, 3, 2, 0, false).with_groups(2))
            .build()
            .unwrap();
        let w = NetworkWeights::random(&net, 19).unwrap();
        let x = random_tensor(2, 4, 12, 12, 20);
        let oracle = forward(&net, &w, &x).unwrap();
        let fast = NetworkExecutor::new(&net, &w)
            .unwrap()
            .with_threads(3)
            .run_all(&x)
            .unwrap();
        assert_close(&oracle, &fast, 1e-3);
    }

    #[test]
    fn forced_winograd_rejects_ineligible_layer() {
        // small_test_net's conv1 is 5x5 stride 2 — not an F(4,3) shape.
        let net = zoo::small_test_net();
        let w = NetworkWeights::random(&net, 21).unwrap();
        assert!(NetworkExecutor::with_algo(&net, &w, ExecAlgo::Winograd).is_err());
    }

    #[test]
    fn executor_populates_telemetry_counters() {
        let net = zoo::small_test_net();
        let w = NetworkWeights::random(&net, 23).unwrap();
        let x = random_tensor(1, 3, 32, 32, 24);
        let telemetry = Telemetry::enabled();
        NetworkExecutor::new(&net, &w)
            .unwrap()
            .with_telemetry(telemetry.clone())
            .run(&x)
            .unwrap();
        let summary = telemetry.summary();
        assert!(summary.counter("conv.gemm_calls") > 0);
        assert!(summary.counter("conv.tiles") > 0);
        assert!(summary.counter("conv.bytes_packed") > 0);
    }

    #[test]
    fn profiled_run_matches_run_and_attributes_conv_work() {
        let net = zoo::small_test_net();
        let w = NetworkWeights::random(&net, 25).unwrap();
        let x = random_tensor(1, 3, 32, 32, 26);
        let exec = NetworkExecutor::new(&net, &w).unwrap().with_threads(2);
        let plain = exec.run(&x).unwrap();
        let (out, profiles) = exec.run_profiled(&x).unwrap();
        assert_eq!(plain, out, "profiled run changed the numerics");
        assert_eq!(profiles.len(), net.len());
        for p in &profiles {
            if p.kind == "conv" {
                assert!(
                    p.conv.total_flops() > 0,
                    "conv `{}` counted no flops",
                    p.name
                );
                assert!(
                    p.conv.total_bytes() > 0,
                    "conv `{}` counted no bytes",
                    p.name
                );
                assert!(p.model_ops > 0);
                assert!(
                    p.algo == "winograd" || p.algo == "direct",
                    "algo {}",
                    p.algo
                );
                assert!(p.achieved_gflops().is_some());
            } else {
                assert_eq!(
                    p.conv.total_flops(),
                    0,
                    "non-conv `{}` counted flops",
                    p.name
                );
                assert_eq!(p.algo, "-");
            }
            assert!(p.wall_ns > 0);
        }
    }

    #[test]
    fn profiled_run_publishes_counters_and_worker_lanes() {
        use std::sync::{Arc, Mutex};
        use winofuse_telemetry::{VecSink, PID_WALL};
        let net = zoo::small_test_net();
        let w = NetworkWeights::random(&net, 27).unwrap();
        let x = random_tensor(1, 3, 32, 32, 28);
        let events = Arc::new(Mutex::new(Vec::new()));
        let telemetry = Telemetry::with_sink(Box::new(VecSink(events.clone())));
        let exec = NetworkExecutor::new(&net, &w)
            .unwrap()
            .with_threads(2)
            .with_telemetry(telemetry.clone());
        exec.run_profiled(&x).unwrap();
        let summary = telemetry.summary();
        assert!(summary.counter("conv.gemm_calls") > 0);
        assert!(summary.counter("pool.jobs") > 0);
        // Worker-lane slices carry the layer name joined with the kernel
        // phase, e.g. `conv2/wino.gemm[3]`.
        let events = events.lock().unwrap();
        assert!(events
            .iter()
            .any(|e| e.phase == 'X' && e.pid == PID_WALL && e.name.contains("/wino.gemm[")));
    }

    #[test]
    fn weights_are_deterministic() {
        let net = zoo::small_test_net();
        let a = NetworkWeights::random(&net, 42).unwrap();
        let b = NetworkWeights::random(&net, 42).unwrap();
        match (a.layer(0), b.layer(0)) {
            (LayerWeights::Conv(x), LayerWeights::Conv(y)) => assert_eq!(x, y),
            _ => panic!("expected conv weights"),
        }
    }
}
