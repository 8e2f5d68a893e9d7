//! Resource and throughput cost models for layer compute engines.
//!
//! This module is the `implement()` estimator of Algorithm 2: given a
//! layer, an algorithm choice and a hardware parallelism, it returns the
//! resource vector and compute throughput of the engine that would be
//! instantiated. "Different algorithms and parallelisms lead to different
//! resource usage" (§5).
//!
//! ## Model calibration
//!
//! * **Data type**: 16-bit fixed; one conventional MAC occupies one DSP48E
//!   slice (a 16×16 multiply-accumulate fits a single slice).
//! * **Winograd `F(m×m, r×r)` unit**: `α²` DSP element-wise multipliers
//!   that retire one transformed tile × channel per cycle — `m²·r²`
//!   MAC-equivalents, i.e. `m²r²/α²`× the DSP efficiency of the
//!   conventional engine (exactly 4 for the paper's `F(4×4, 3×3)`).
//!   Input/output transforms are shift/add networks costed in LUT/FF.
//! * **Line buffer**: circular buffer of `K + S` rows (conventional,
//!   §4.2) or `α + m` rows (Winograd consumes `α` rows per tile step and
//!   advances by `m`), each row independently partitioned into BRAM18Ks
//!   for parallel window access.
//! * **Weight buffer**: double-buffered storage for the output-channel
//!   group currently in flight; remaining weights stream from DRAM.
//! * LUT/FF constants are calibrated against the per-layer utilization the
//!   paper publishes in Table 2 (AlexNet on the XC7Z045).

use winofuse_conv::cook_toom::WinogradTransform;
use winofuse_conv::sparse::sparse_keep_count;
use winofuse_model::layer::{Layer, LayerKind};
use winofuse_model::shape::{DataType, FmShape};

use crate::device::{FpgaDevice, BRAM18K_BYTES};
use crate::resource::ResourceVec;
use crate::FpgaError;

/// Convolution algorithm choice for one layer — the `algo` of the paper's
/// strategy triple `⟨group, algo, parallelism⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The conventional sliding-window algorithm.
    Conventional,
    /// Winograd minimal filtering with output tile `m×m` (the filter size
    /// `r` comes from the layer's kernel).
    Winograd {
        /// Output tile side.
        m: usize,
    },
    /// Winograd minimal filtering over *pruned* transformed-domain weights
    /// (sparse Winograd, 1810.01973): only the top-magnitude fraction of
    /// the α² coefficient planes is kept, streamed as CSR panels, and the
    /// element-wise multiply stage skips the zeros.
    SparseWinograd {
        /// Output tile side.
        m: usize,
        /// Retained coefficient density in per-mille (1..=1000); 1000 is
        /// the dense Winograd bank, 250 keeps the top quarter.
        density_pm: u16,
    },
}

impl Algorithm {
    /// The paper's uniform Winograd choice, `F(4×4, r×r)`.
    pub fn winograd_f43() -> Self {
        Algorithm::Winograd { m: 4 }
    }

    /// Sparse Winograd at `F(4×4, r×r)` with the given retained density
    /// (per-mille).
    pub fn sparse_f43(density_pm: u16) -> Self {
        Algorithm::SparseWinograd { m: 4, density_pm }
    }

    /// Multiplications per 2-D tile for kernel size `r` (`α²`, scaled by
    /// the retained density for sparse Winograd), or `None` for the
    /// conventional algorithm.
    pub fn tile_multiplies(&self, r: usize) -> Option<u64> {
        match self {
            Algorithm::Conventional => None,
            Algorithm::Winograd { m } => {
                let alpha = (m + r - 1) as u64;
                Some(alpha * alpha)
            }
            Algorithm::SparseWinograd { m, density_pm } => {
                let alpha = (m + r - 1) as u64;
                Some(sparse_keep_count(alpha * alpha, *density_pm))
            }
        }
    }

    /// Short lowercase tag for reports ("conventional" / "winograd" /
    /// "sparse").
    pub fn tag(&self) -> &'static str {
        match self {
            Algorithm::Conventional => "conventional",
            Algorithm::Winograd { .. } => "winograd",
            Algorithm::SparseWinograd { .. } => "sparse",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Conventional => write!(f, "conventional"),
            Algorithm::Winograd { m } => write!(f, "winograd(m={m})"),
            Algorithm::SparseWinograd { m, density_pm } => {
                write!(
                    f,
                    "sparse-winograd(m={m}, density={:.3})",
                    *density_pm as f64 / 1000.0
                )
            }
        }
    }
}

// --- sparse coefficient-stream accounting ----------------------------------
//
// The DP's analytic DRAM budget and the fused runner's wire meter must agree
// *exactly* (strict-mode reconciliation), so the CSR byte accounting lives
// here as the single shared formula. Layout per transform point `uv` of one
// filter group: a `ng × cg` coefficient plane stored CSR — one u32 row
// pointer per output channel plus a terminator, and per retained nonzero a
// fix16 value (2 bytes) with its u16 input-channel column (2 bytes). The
// retained count is `winofuse_conv::sparse::sparse_keep_count`, the count
// the CPU's pruned bank keeps, so the model charges for exactly the
// coefficients the bank computes with.

/// Bytes on the wire per retained nonzero: fix16 value + u16 column index.
pub const SPARSE_NNZ_BYTES: u64 = 4;
/// Bytes per CSR row-pointer entry (u32).
pub const SPARSE_ROWPTR_BYTES: u64 = 4;

/// DRAM bytes of the sparse-Winograd coefficient stream for one filter
/// group: `α²` CSR planes of `ng × cg` coefficients each, pruned plane-wise
/// to `density_pm`.
pub fn sparse_stream_bytes(ng: u64, cg: u64, alpha: u64, density_pm: u16) -> u64 {
    let nnz = sparse_keep_count(ng * cg, density_pm);
    alpha * alpha * (nnz * SPARSE_NNZ_BYTES + (ng + 1) * SPARSE_ROWPTR_BYTES)
}

/// An engine configuration: algorithm and hardware parallelism (the number
/// of computing units in Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineConfig {
    /// Algorithm implementing the layer.
    pub algorithm: Algorithm,
    /// Number of parallel compute units (MAC lanes for conventional,
    /// tile-channel units for Winograd).
    pub parallelism: usize,
}

/// The estimator's verdict for one layer/engine pairing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerEstimate {
    /// Total resource requirement (compute + line buffer + weight buffer).
    pub resources: ResourceVec,
    /// Total compute cycles for one frame through this layer.
    pub compute_cycles: u64,
    /// Equivalent MACs retired per cycle at full utilization.
    pub macs_per_cycle: u64,
    /// Rows of the *input* feature map consumed per iteration.
    pub input_rows_per_iter: usize,
    /// Rows of the *output* feature map produced per iteration.
    pub output_rows_per_iter: usize,
    /// Depth of the circular line buffer in input rows.
    pub line_buffer_rows: usize,
}

// --- calibrated cost constants (see module docs) ---------------------------

const CONV_BASE_FF: u64 = 1_800;
const CONV_BASE_LUT: u64 = 2_600;
const CONV_FF_PER_LANE: u64 = 320;
const CONV_LUT_PER_LANE: u64 = 210;

const WINO_BASE_FF: u64 = 2_200;
const WINO_BASE_LUT: u64 = 2_800;

// Sparse Winograd engines carry the dense transform networks *plus* a CSR
// decode stage per unit (row-pointer walk, column fetch, operand select).
const SPARSE_BASE_FF: u64 = 2_600;
const SPARSE_BASE_LUT: u64 = 3_400;
const SPARSE_DECODE_FF_PER_UNIT: u64 = 320;
const SPARSE_DECODE_LUT_PER_UNIT: u64 = 410;
/// LUT cost of one 16-bit adder in a transform network.
const LUT_PER_ADD: u64 = 18;
/// FF cost of one pipeline register stage in a transform network.
const FF_PER_ADD: u64 = 21;

const POOL_BASE_FF: u64 = 500;
const POOL_BASE_LUT: u64 = 400;
const POOL_FF_PER_LANE: u64 = 50;
const POOL_LUT_PER_LANE: u64 = 45;

const LRN_BASE_FF: u64 = 700;
const LRN_BASE_LUT: u64 = 800;
const LRN_FF_PER_LANE: u64 = 180;
const LRN_LUT_PER_LANE: u64 = 150;
const LRN_DSP_PER_LANE: u64 = 3;

fn brams_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(BRAM18K_BYTES).max(1)
}

fn line_buffer_brams(rows: usize, input: FmShape, dtype: DataType) -> u64 {
    // Each row is a separate partition so the sliding window reads all
    // rows in parallel (§6: "templates carefully partition line buffers").
    rows as u64 * brams_for_bytes(input.row_bytes(dtype) as u64)
}

/// Estimates the engine for a layer at the given configuration.
///
/// # Errors
///
/// * [`FpgaError::InvalidParameter`] — zero parallelism.
/// * [`FpgaError::UnsupportedConfig`] — Winograd requested for a
///   non-convolution layer, a strided convolution, an unsupported tile
///   size, or parallelism above [`max_parallelism`].
pub fn estimate_layer(
    layer: &Layer,
    input: FmShape,
    cfg: &EngineConfig,
) -> Result<LayerEstimate, FpgaError> {
    if cfg.parallelism == 0 {
        return Err(FpgaError::InvalidParameter(
            "parallelism must be nonzero".into(),
        ));
    }
    let dtype = DataType::Fixed16;
    match &layer.kind {
        LayerKind::Conv(c) => {
            let output = layer
                .output_shape(input)
                .map_err(|e| FpgaError::InvalidParameter(e.to_string()))?;
            let max_p = max_parallelism(layer, cfg.algorithm);
            if cfg.parallelism > max_p {
                return Err(FpgaError::UnsupportedConfig(format!(
                    "parallelism {} exceeds maximum {max_p} for {} on `{}`",
                    cfg.parallelism,
                    cfg.algorithm.tag(),
                    layer.name
                )));
            }
            let p = cfg.parallelism as u64;
            let total_macs = layer.macs(input);
            match cfg.algorithm {
                Algorithm::Conventional => {
                    // One output row sweep: outW · N · (M/groups) · K² MACs
                    // (derived from the layer's group-aware MAC count).
                    let row_macs = total_macs.div_ceil(output.height as u64);
                    let cycles_per_row = row_macs.div_ceil(p);
                    let compute_cycles = cycles_per_row * output.height as u64;

                    let lb_rows = c.kernel + c.stride;
                    let bram_lb = line_buffer_brams(lb_rows, input, dtype);
                    // Output-channel group in flight: p lanes unrolled over
                    // the K² window first, then output channels.
                    let tn = (cfg.parallelism / (c.kernel * c.kernel)).max(1) as u64;
                    let weight_bytes = 2
                        * tn
                        * c.channels_per_group(input.channels) as u64
                        * (c.kernel as u64).pow(2)
                        * dtype.bytes() as u64;
                    let bram_w = brams_for_bytes(weight_bytes);

                    let resources = ResourceVec::new(
                        bram_lb + bram_w,
                        p,
                        CONV_BASE_FF + CONV_FF_PER_LANE * p,
                        CONV_BASE_LUT + CONV_LUT_PER_LANE * p,
                    );
                    Ok(LayerEstimate {
                        resources,
                        compute_cycles,
                        macs_per_cycle: p,
                        input_rows_per_iter: c.stride,
                        output_rows_per_iter: 1,
                        line_buffer_rows: lb_rows,
                    })
                }
                Algorithm::Winograd { m } => {
                    if c.stride != 1 {
                        return Err(FpgaError::UnsupportedConfig(format!(
                            "winograd requires stride 1, layer `{}` has stride {}",
                            layer.name, c.stride
                        )));
                    }
                    let transform = WinogradTransform::generate(m, c.kernel).map_err(|e| {
                        FpgaError::UnsupportedConfig(format!(
                            "cannot generate F({m},{}): {e}",
                            c.kernel
                        ))
                    })?;
                    let alpha = transform.alpha() as u64;
                    let unit_macs = (m as u64 * c.kernel as u64).pow(2);
                    let tiles_h = output.height.div_ceil(m) as u64;
                    let tiles_w = output.width.div_ceil(m) as u64;
                    // One unit retires one tile × (input channel, output
                    // channel) pair per cycle; grouped layers only pair
                    // channels within a group.
                    let tile_channel_pairs = tiles_h
                        * tiles_w
                        * c.channels_per_group(input.channels) as u64
                        * output.channels as u64;
                    let compute_cycles = tile_channel_pairs.div_ceil(p);

                    let lb_rows = transform.alpha() + m;
                    let bram_lb = line_buffer_brams(lb_rows, input, dtype);
                    // Transformed weights: α² coefficients per channel pair;
                    // double-buffer the p output channels in flight.
                    let weight_bytes = 2
                        * p
                        * c.channels_per_group(input.channels) as u64
                        * alpha
                        * alpha
                        * dtype.bytes() as u64;
                    let bram_w = brams_for_bytes(weight_bytes);

                    // Transform adder networks: α row-wise 1-D transforms
                    // plus α column-wise per tile, for input and output.
                    let input_adds =
                        2 * alpha * transform.input_transform_adds() as u64;
                    let output_adds =
                        (m as u64 + alpha) * transform.output_transform_adds() as u64;
                    let adds_per_unit = input_adds + output_adds;
                    let resources = ResourceVec::new(
                        bram_lb + bram_w,
                        alpha * alpha * p,
                        WINO_BASE_FF + (FF_PER_ADD * adds_per_unit + 24 * alpha * alpha) * p,
                        WINO_BASE_LUT + (LUT_PER_ADD * adds_per_unit + 10 * alpha * alpha) * p,
                    );
                    // Equivalent MAC throughput (used for GOPS reporting).
                    let macs_per_cycle =
                        (unit_macs * p).min(total_macs.max(1)); // cap for degenerate layers
                    Ok(LayerEstimate {
                        resources,
                        compute_cycles,
                        macs_per_cycle,
                        input_rows_per_iter: m,
                        output_rows_per_iter: m,
                        line_buffer_rows: lb_rows,
                    })
                }
                Algorithm::SparseWinograd { m, density_pm } => {
                    if c.stride != 1 {
                        return Err(FpgaError::UnsupportedConfig(format!(
                            "sparse winograd requires stride 1, layer `{}` has stride {}",
                            layer.name, c.stride
                        )));
                    }
                    if density_pm == 0 || density_pm > 1000 {
                        return Err(FpgaError::InvalidParameter(format!(
                            "sparse winograd density must be in 1..=1000 per-mille, got {density_pm}"
                        )));
                    }
                    let transform = WinogradTransform::generate(m, c.kernel).map_err(|e| {
                        FpgaError::UnsupportedConfig(format!(
                            "cannot generate F({m},{}): {e}",
                            c.kernel
                        ))
                    })?;
                    let alpha = transform.alpha() as u64;
                    let unit_macs = (m as u64 * c.kernel as u64).pow(2);
                    let tiles_h = output.height.div_ceil(m) as u64;
                    let tiles_w = output.width.div_ceil(m) as u64;
                    let cg = c.channels_per_group(input.channels) as u64;
                    let tile_channel_pairs =
                        tiles_h * tiles_w * cg * output.channels as u64;
                    // A sparse unit skips pruned coefficients, so only the
                    // retained fraction of the dense pair stream costs a
                    // cycle.
                    let sparse_pairs = sparse_keep_count(tile_channel_pairs, density_pm);
                    let compute_cycles = sparse_pairs.div_ceil(p);

                    let lb_rows = transform.alpha() + m;
                    let bram_lb = line_buffer_brams(lb_rows, input, dtype);
                    // Double-buffered CSR bank for the p output channels in
                    // flight: per channel, α² rows of `density · cg`
                    // (value, column) entries plus one row pointer each.
                    let nnz_row = sparse_keep_count(cg, density_pm);
                    let weight_bytes = 2
                        * p
                        * alpha
                        * alpha
                        * (nnz_row * SPARSE_NNZ_BYTES + SPARSE_ROWPTR_BYTES);
                    let bram_w = brams_for_bytes(weight_bytes);

                    let input_adds = 2 * alpha * transform.input_transform_adds() as u64;
                    let output_adds =
                        (m as u64 + alpha) * transform.output_transform_adds() as u64;
                    let adds_per_unit = input_adds + output_adds;
                    let resources = ResourceVec::new(
                        bram_lb + bram_w,
                        alpha * alpha * p,
                        SPARSE_BASE_FF
                            + (FF_PER_ADD * adds_per_unit
                                + 24 * alpha * alpha
                                + SPARSE_DECODE_FF_PER_UNIT)
                                * p,
                        SPARSE_BASE_LUT
                            + (LUT_PER_ADD * adds_per_unit
                                + 10 * alpha * alpha
                                + SPARSE_DECODE_LUT_PER_UNIT)
                                * p,
                    );
                    // Effective MAC throughput: the same useful work retires
                    // in a `density` fraction of the dense cycles.
                    let macs_per_cycle = (unit_macs * p * 1000 / density_pm as u64)
                        .min(total_macs.max(1));
                    Ok(LayerEstimate {
                        resources,
                        compute_cycles,
                        macs_per_cycle,
                        input_rows_per_iter: m,
                        output_rows_per_iter: m,
                        line_buffer_rows: lb_rows,
                    })
                }
            }
        }
        LayerKind::Pool(pp) => {
            if !matches!(cfg.algorithm, Algorithm::Conventional) {
                return Err(FpgaError::UnsupportedConfig(
                    "pooling layers only support the conventional engine".into(),
                ));
            }
            let output = layer
                .output_shape(input)
                .map_err(|e| FpgaError::InvalidParameter(e.to_string()))?;
            let p = cfg.parallelism as u64;
            let comparisons = output.elements() as u64 * (pp.kernel as u64).pow(2);
            let lb_rows = pp.kernel + pp.stride;
            let resources = ResourceVec::new(
                line_buffer_brams(lb_rows, input, dtype),
                0,
                POOL_BASE_FF + POOL_FF_PER_LANE * p,
                POOL_BASE_LUT + POOL_LUT_PER_LANE * p,
            );
            Ok(LayerEstimate {
                resources,
                compute_cycles: comparisons.div_ceil(p),
                macs_per_cycle: 0,
                input_rows_per_iter: pp.stride,
                output_rows_per_iter: 1,
                line_buffer_rows: lb_rows,
            })
        }
        LayerKind::Lrn(spec) => {
            if !matches!(cfg.algorithm, Algorithm::Conventional) {
                return Err(FpgaError::UnsupportedConfig(
                    "lrn layers only support the conventional engine".into(),
                ));
            }
            let p = cfg.parallelism as u64;
            let ops = input.elements() as u64 * (spec.local_size as u64 + 2);
            let resources = ResourceVec::new(
                line_buffer_brams(2, input, dtype),
                LRN_DSP_PER_LANE * p,
                LRN_BASE_FF + LRN_FF_PER_LANE * p,
                LRN_BASE_LUT + LRN_LUT_PER_LANE * p,
            );
            Ok(LayerEstimate {
                resources,
                compute_cycles: ops.div_ceil(p),
                macs_per_cycle: 0,
                input_rows_per_iter: 1,
                output_rows_per_iter: 1,
                line_buffer_rows: 2,
            })
        }
        LayerKind::Relu => {
            // Folded into the producing layer; a standalone ReLU engine is
            // a free pass-through comparator.
            Ok(LayerEstimate {
                resources: ResourceVec::new(0, 0, 200, 150),
                compute_cycles: input.elements() as u64 / cfg.parallelism.max(1) as u64,
                macs_per_cycle: 0,
                input_rows_per_iter: 1,
                output_rows_per_iter: 1,
                line_buffer_rows: 1,
            })
        }
        _ => Err(FpgaError::UnsupportedConfig(format!(
            "layer `{}` ({}) is not mapped to the fusion accelerator (the paper omits FC layers, §7.3)",
            layer.name,
            layer.kind.tag()
        ))),
    }
}

/// Maximum meaningful hardware parallelism of an algorithm for a layer
/// (Algorithm 2 iterates "from max to min parallelism").
///
/// Conventional engines unroll at most the kernel window times all output
/// channels; Winograd engines instantiate at most one unit per output
/// channel. Non-conv layers get a modest cap.
pub fn max_parallelism(layer: &Layer, algorithm: Algorithm) -> usize {
    match (&layer.kind, algorithm) {
        (LayerKind::Conv(c), Algorithm::Conventional) => c.num_output * c.kernel * c.kernel,
        (LayerKind::Conv(c), Algorithm::Winograd { .. })
        | (LayerKind::Conv(c), Algorithm::SparseWinograd { .. }) => c.num_output,
        (LayerKind::Pool(_), _) | (LayerKind::Lrn(_), _) => 64,
        _ => 16,
    }
}

/// Parallelism candidates for a layer/algorithm, largest first, thinned to
/// keep the branch-and-bound tractable (powers of two and the exact max).
pub fn parallelism_candidates(layer: &Layer, algorithm: Algorithm, device_dsp: u64) -> Vec<usize> {
    let hard_max = max_parallelism(layer, algorithm);
    let dsp_per_unit = match (&layer.kind, algorithm) {
        (LayerKind::Conv(_), Algorithm::Conventional) => 1u64,
        (LayerKind::Conv(c), Algorithm::Winograd { m })
        | (LayerKind::Conv(c), Algorithm::SparseWinograd { m, .. }) => {
            let alpha = (m + c.kernel - 1) as u64;
            alpha * alpha
        }
        (LayerKind::Lrn(_), _) => LRN_DSP_PER_LANE,
        _ => 0,
    };
    let dsp_max = device_dsp
        .checked_div(dsp_per_unit)
        .map_or(hard_max, |d| d as usize);
    let max_p = hard_max.min(dsp_max.max(1)).max(1);
    let mut out = vec![max_p];
    let mut p = 1usize;
    let mut pow2 = Vec::new();
    while p < max_p {
        pow2.push(p);
        p *= 2;
    }
    out.extend(pow2.into_iter().rev());
    out.dedup();
    out
}

/// Computational roof in GOPS when the whole device's DSP budget runs one
/// algorithm (the roofs of Fig. 1).
pub fn computational_roof_gops(device: &FpgaDevice, algorithm: Algorithm, kernel: usize) -> f64 {
    let dsp = device.resources().dsp;
    let clk = device.clock_hz() as f64;
    match algorithm {
        Algorithm::Conventional => dsp as f64 * 2.0 * clk / 1e9,
        Algorithm::Winograd { m } => {
            let alpha = (m + kernel - 1) as u64;
            let units = dsp / (alpha * alpha);
            (units * (m as u64 * kernel as u64).pow(2)) as f64 * 2.0 * clk / 1e9
        }
        Algorithm::SparseWinograd { m, density_pm } => {
            // The dense roof scaled by the kept-coefficient fraction: the
            // same multiplier array retires the work in `density` of the
            // cycles.
            let alpha = (m + kernel - 1) as u64;
            let units = dsp / (alpha * alpha);
            (units * (m as u64 * kernel as u64).pow(2)) as f64 * 2.0 * clk / 1e9 * 1000.0
                / density_pm.max(1) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winofuse_model::layer::{ConvParams, PoolParams};
    use winofuse_model::zoo;

    fn conv_layer(n: usize, k: usize, s: usize, p: usize) -> Layer {
        Layer::new("c", LayerKind::Conv(ConvParams::new(n, k, s, p, true)))
    }

    #[test]
    fn conventional_dsp_equals_parallelism() {
        let l = conv_layer(64, 3, 1, 1);
        let input = FmShape::new(64, 56, 56);
        for p in [1, 16, 128] {
            let e = estimate_layer(
                &l,
                input,
                &EngineConfig {
                    algorithm: Algorithm::Conventional,
                    parallelism: p,
                },
            )
            .unwrap();
            assert_eq!(e.resources.dsp, p as u64);
            assert_eq!(e.macs_per_cycle, p as u64);
        }
    }

    #[test]
    fn winograd_uses_quarter_dsp_for_same_throughput() {
        // The paper's claim (§7.1): F(4×4,3×3) completes the same work
        // with 1/4 of the DSPs.
        let l = conv_layer(64, 3, 1, 1);
        let input = FmShape::new(64, 56, 56);
        let wino = estimate_layer(
            &l,
            input,
            &EngineConfig {
                algorithm: Algorithm::winograd_f43(),
                parallelism: 1,
            },
        )
        .unwrap();
        // One unit: 36 DSPs, 144 equivalent MACs/cycle.
        assert_eq!(wino.resources.dsp, 36);
        assert_eq!(wino.macs_per_cycle, 144);
        let conv = estimate_layer(
            &l,
            input,
            &EngineConfig {
                algorithm: Algorithm::Conventional,
                parallelism: 144,
            },
        )
        .unwrap();
        assert_eq!(conv.macs_per_cycle, 144);
        assert_eq!(conv.resources.dsp, 4 * wino.resources.dsp);
    }

    #[test]
    fn winograd_compute_cycles_count_ragged_tiles() {
        let l = conv_layer(4, 3, 1, 1);
        // 13x13 output: 4x4 tile grid (with waste) instead of 3.25².
        let input = FmShape::new(2, 13, 13);
        let e = estimate_layer(
            &l,
            input,
            &EngineConfig {
                algorithm: Algorithm::winograd_f43(),
                parallelism: 1,
            },
        )
        .unwrap();
        assert_eq!(e.compute_cycles, 4 * 4 * 2 * 4);
    }

    #[test]
    fn conventional_cycles_match_mac_count() {
        let l = conv_layer(8, 3, 1, 1);
        let input = FmShape::new(4, 16, 16);
        let e = estimate_layer(
            &l,
            input,
            &EngineConfig {
                algorithm: Algorithm::Conventional,
                parallelism: 9,
            },
        )
        .unwrap();
        // Row MACs = 16·8·4·9 = 4608, /9 = 512 cycles per row, ×16 rows.
        assert_eq!(e.compute_cycles, 512 * 16);
    }

    #[test]
    fn winograd_rejected_for_strided_layer() {
        let l = conv_layer(96, 11, 4, 0);
        let input = FmShape::new(3, 227, 227);
        let r = estimate_layer(
            &l,
            input,
            &EngineConfig {
                algorithm: Algorithm::winograd_f43(),
                parallelism: 1,
            },
        );
        assert!(matches!(r, Err(FpgaError::UnsupportedConfig(_))));
    }

    #[test]
    fn winograd_line_buffer_is_deeper() {
        let l = conv_layer(64, 3, 1, 1);
        let input = FmShape::new(64, 224, 224);
        let conv = estimate_layer(
            &l,
            input,
            &EngineConfig {
                algorithm: Algorithm::Conventional,
                parallelism: 9,
            },
        )
        .unwrap();
        let wino = estimate_layer(
            &l,
            input,
            &EngineConfig {
                algorithm: Algorithm::winograd_f43(),
                parallelism: 1,
            },
        )
        .unwrap();
        assert_eq!(conv.line_buffer_rows, 4); // K + S
        assert_eq!(wino.line_buffer_rows, 10); // α + m
        assert!(wino.resources.bram_18k > conv.resources.bram_18k);
    }

    #[test]
    fn parallelism_cap_enforced() {
        let l = conv_layer(4, 3, 1, 1);
        let input = FmShape::new(2, 8, 8);
        assert_eq!(max_parallelism(&l, Algorithm::Conventional), 36);
        assert_eq!(max_parallelism(&l, Algorithm::winograd_f43()), 4);
        assert!(estimate_layer(
            &l,
            input,
            &EngineConfig {
                algorithm: Algorithm::Conventional,
                parallelism: 37
            }
        )
        .is_err());
        assert!(estimate_layer(
            &l,
            input,
            &EngineConfig {
                algorithm: Algorithm::Conventional,
                parallelism: 0
            }
        )
        .is_err());
    }

    #[test]
    fn candidates_are_descending_and_bounded() {
        let l = conv_layer(64, 3, 1, 1);
        let c = parallelism_candidates(&l, Algorithm::Conventional, 900);
        assert_eq!(c[0], 576); // 64·9
        assert!(c.windows(2).all(|w| w[0] > w[1]));
        assert_eq!(*c.last().unwrap(), 1);
        // Winograd units are DSP-bounded: 900/36 = 25 units max.
        let w = parallelism_candidates(&l, Algorithm::winograd_f43(), 900);
        assert_eq!(w[0], 25);
    }

    #[test]
    fn pool_and_lrn_engines_estimate() {
        let pool = Layer::new("p", LayerKind::Pool(PoolParams::max2x2()));
        let input = FmShape::new(64, 112, 112);
        let e = estimate_layer(
            &pool,
            input,
            &EngineConfig {
                algorithm: Algorithm::Conventional,
                parallelism: 16,
            },
        )
        .unwrap();
        assert_eq!(e.resources.dsp, 0);
        assert_eq!(e.compute_cycles, (56 * 56 * 64 * 4u64).div_ceil(16));

        let lrn = Layer::new("n", LayerKind::Lrn(Default::default()));
        let e = estimate_layer(
            &lrn,
            FmShape::new(96, 55, 55),
            &EngineConfig {
                algorithm: Algorithm::Conventional,
                parallelism: 4,
            },
        )
        .unwrap();
        assert_eq!(e.resources.dsp, 12);
        assert!(e.compute_cycles > 0);

        // Winograd makes no sense for either.
        assert!(estimate_layer(
            &pool,
            input,
            &EngineConfig {
                algorithm: Algorithm::winograd_f43(),
                parallelism: 1
            }
        )
        .is_err());
    }

    #[test]
    fn fc_layers_are_rejected() {
        let net = zoo::alexnet();
        let fc = &net.layers()[10];
        let input = net.input_shape_of(10).unwrap();
        assert!(matches!(
            estimate_layer(
                fc,
                input,
                &EngineConfig {
                    algorithm: Algorithm::Conventional,
                    parallelism: 1
                }
            ),
            Err(FpgaError::UnsupportedConfig(_))
        ));
    }

    #[test]
    fn roofs_have_the_paper_ratio() {
        let dev = FpgaDevice::virtex7_485t();
        let conv = computational_roof_gops(&dev, Algorithm::Conventional, 3);
        let wino = computational_roof_gops(&dev, Algorithm::winograd_f43(), 3);
        // 2800 DSPs → 560 GOPS conventional; 77 winograd units → 2217.6.
        assert!((conv - 560.0).abs() < 1e-9);
        assert!((wino - 2217.6).abs() < 1e-6);
        // Close to the paper's exact 4× (floor() loses a little).
        let ratio = wino / conv;
        assert!((3.8..=4.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sparse_winograd_scales_cycles_by_density() {
        let l = conv_layer(64, 3, 1, 1);
        let input = FmShape::new(64, 56, 56);
        let dense = estimate_layer(
            &l,
            input,
            &EngineConfig {
                algorithm: Algorithm::winograd_f43(),
                parallelism: 4,
            },
        )
        .unwrap();
        let sparse = estimate_layer(
            &l,
            input,
            &EngineConfig {
                algorithm: Algorithm::sparse_f43(250),
                parallelism: 4,
            },
        )
        .unwrap();
        // Quarter density → quarter of the dense pair stream (rounding
        // up), still spread over the same p=4 units.
        assert_eq!(
            sparse.compute_cycles,
            sparse_keep_count(dense.compute_cycles * 4, 250).div_ceil(4)
        );
        assert!(sparse.compute_cycles * 4 <= dense.compute_cycles + 4);
        // Same multiplier array, so the DSP bill does not shrink...
        assert_eq!(sparse.resources.dsp, dense.resources.dsp);
        // ...but the CSR decode stage costs extra fabric.
        assert!(sparse.resources.ff > dense.resources.ff);
        assert!(sparse.resources.lut > dense.resources.lut);
        // The sparse weight bank (values + indices at quarter density) is
        // no larger than the dense one.
        assert!(sparse.resources.bram_18k <= dense.resources.bram_18k);
    }

    #[test]
    fn sparse_density_1000_matches_dense_cycles() {
        let l = conv_layer(32, 3, 1, 1);
        let input = FmShape::new(16, 28, 28);
        for p in [1, 4, 32] {
            let dense = estimate_layer(
                &l,
                input,
                &EngineConfig {
                    algorithm: Algorithm::winograd_f43(),
                    parallelism: p,
                },
            )
            .unwrap();
            let sparse = estimate_layer(
                &l,
                input,
                &EngineConfig {
                    algorithm: Algorithm::sparse_f43(1000),
                    parallelism: p,
                },
            )
            .unwrap();
            assert_eq!(sparse.compute_cycles, dense.compute_cycles);
            assert_eq!(sparse.resources.dsp, dense.resources.dsp);
        }
    }

    #[test]
    fn sparse_rejects_bad_density_and_stride() {
        let l = conv_layer(16, 3, 1, 1);
        let input = FmShape::new(8, 16, 16);
        for bad in [0u16, 1001] {
            assert!(estimate_layer(
                &l,
                input,
                &EngineConfig {
                    algorithm: Algorithm::sparse_f43(bad),
                    parallelism: 1
                }
            )
            .is_err());
        }
        let strided = conv_layer(96, 11, 4, 0);
        assert!(estimate_layer(
            &strided,
            FmShape::new(3, 227, 227),
            &EngineConfig {
                algorithm: Algorithm::sparse_f43(250),
                parallelism: 1
            }
        )
        .is_err());
    }

    #[test]
    fn sparse_stream_bytes_formula() {
        // 4 output channels × 8 input channels at density 250‰ keeps
        // ceil(32·0.25) = 8 nonzeros per 6×6-transform plane: 36 planes ×
        // (8·4 + 5·4) bytes.
        assert_eq!(sparse_keep_count(32, 250), 8);
        assert_eq!(sparse_stream_bytes(4, 8, 6, 250), 36 * (8 * 4 + 5 * 4));
        // Density 1000 degenerates to all coefficients plus CSR overhead.
        assert_eq!(sparse_keep_count(32, 1000), 32);
        assert_eq!(sparse_stream_bytes(4, 8, 6, 1000), 36 * (32 * 4 + 5 * 4));
    }

    #[test]
    fn table2_magnitudes_conv1() {
        // AlexNet conv1, conventional, parallelism 122 (Table 2 reports
        // DSP 122, FF 42 578, LUT 31 512, BRAM 48): our calibrated model
        // must land in the same ballpark (±40%).
        let net = zoo::alexnet();
        let e = estimate_layer(
            &net.layers()[0],
            net.input_shape(),
            &EngineConfig {
                algorithm: Algorithm::Conventional,
                parallelism: 122,
            },
        )
        .unwrap();
        assert_eq!(e.resources.dsp, 122);
        assert!(
            (25_000..60_000).contains(&e.resources.ff),
            "FF {}",
            e.resources.ff
        );
        assert!(
            (18_000..45_000).contains(&e.resources.lut),
            "LUT {}",
            e.resources.lut
        );
        assert!(
            (10..80).contains(&e.resources.bram_18k),
            "BRAM {}",
            e.resources.bram_18k
        );
    }
}
