//! The two-level pipeline latency model of §4.3 / Fig. 2(c)(d).
//!
//! **Intra-layer**: each layer iterates load → compute → store with the
//! three phases overlapped, so one iteration costs the *longest* phase.
//!
//! **Inter-layer**: the layers of a fusion group run as a dataflow
//! pipeline; "the pipeline stage length is determined by the longest
//! stage", so the group's latency is the slowest member's latency (plus
//! pipeline fill), additionally bounded from below by total DRAM traffic
//! over the shared off-chip bandwidth.
//!
//! Only the first layer of a group loads feature maps from DRAM and only
//! the last stores them back — the fusion architecture's whole point —
//! but *every* convolutional layer streams its weights from DRAM
//! ("fusion design does not help to save the kernel weight transfer", §5).

use winofuse_fpga::device::FpgaDevice;
use winofuse_fpga::engine::{estimate_layer, Algorithm, EngineConfig, LayerEstimate};
use winofuse_fpga::resource::ResourceVec;
use winofuse_model::layer::{Layer, LayerKind};
use winofuse_model::network::Network;
use winofuse_model::shape::{DataType, FmShape};

use crate::FusionError;

/// A layer together with its chosen engine configuration and the derived
/// cost estimate — one element of the paper's strategy triple, fully
/// resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerConfig {
    /// The layer description.
    pub layer: Layer,
    /// Input feature-map shape.
    pub input: FmShape,
    /// Output feature-map shape.
    pub output: FmShape,
    /// Algorithm + parallelism.
    pub engine: EngineConfig,
    /// Resource/throughput estimate from the FPGA cost models.
    pub estimate: LayerEstimate,
    /// DRAM weight traffic for one frame (transformed size for Winograd).
    pub weight_bytes: u64,
}

impl LayerConfig {
    /// Resolves layer `index` of `net` with the given engine config.
    ///
    /// # Errors
    ///
    /// Propagates estimator rejections (unsupported algorithm for the
    /// layer, excessive parallelism) and range errors.
    pub fn build(net: &Network, index: usize, engine: EngineConfig) -> Result<Self, FusionError> {
        let layer = net
            .layers()
            .get(index)
            .ok_or_else(|| FusionError::InvalidGroup(format!("layer index {index} out of range")))?
            .clone();
        let input = net.input_shape_of(index)?;
        let output = net.output_shape_of(index)?;
        let estimate = estimate_layer(&layer, input, &engine)?;
        let weight_bytes = weight_traffic_bytes(&layer, input, engine.algorithm);
        Ok(LayerConfig {
            layer,
            input,
            output,
            engine,
            estimate,
            weight_bytes,
        })
    }
}

/// DRAM weight traffic of a layer for one frame. Winograd engines fetch
/// **transformed** kernels (α² coefficients instead of K²); sparse
/// Winograd engines fetch pruned CSR planes (retained coefficients plus
/// column/row-pointer metadata — see
/// [`winofuse_fpga::engine::sparse_stream_bytes`]).
pub fn weight_traffic_bytes(layer: &Layer, input: FmShape, algorithm: Algorithm) -> u64 {
    let dtype = DataType::Fixed16;
    match &layer.kind {
        LayerKind::Conv(c) => {
            let cg = c.channels_per_group(input.channels) as u64;
            match algorithm {
                Algorithm::Conventional => {
                    c.num_output as u64 * cg * (c.kernel * c.kernel) as u64 * dtype.bytes() as u64
                }
                Algorithm::Winograd { m } => {
                    let alpha = (m + c.kernel - 1) as u64;
                    c.num_output as u64 * cg * alpha * alpha * dtype.bytes() as u64
                }
                Algorithm::SparseWinograd { m, density_pm } => {
                    let alpha = (m + c.kernel - 1) as u64;
                    let groups = c.groups.max(1) as u64;
                    let ng = c.num_output as u64 / groups;
                    groups * winofuse_fpga::engine::sparse_stream_bytes(ng, cg, alpha, density_pm)
                }
            }
        }
        _ => 0,
    }
}

/// Timing of one layer inside a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerTiming {
    /// Number of load/compute/store iterations (output row groups).
    pub iterations: u64,
    /// DRAM load cycles per iteration (feature maps if the layer heads
    /// the group, plus streamed weights).
    pub load_cycles_per_iter: u64,
    /// Compute cycles per iteration.
    pub compute_cycles_per_iter: u64,
    /// DRAM store cycles per iteration (only if the layer ends the group).
    pub store_cycles_per_iter: u64,
    /// Intra-layer pipelined stage length: max of the three phases.
    pub stage_cycles_per_iter: u64,
    /// Cycles to fill this layer's line buffer before its first output.
    pub fill_cycles: u64,
    /// Total latency of this layer run standalone: `iterations · stage +
    /// fill`.
    pub latency: u64,
}

/// Timing and accounting of a whole fusion group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupTiming {
    /// Per-layer timings, in forward order.
    pub layers: Vec<LayerTiming>,
    /// Group latency in cycles (inter-layer pipeline: slowest stage +
    /// total fill, floored by the DRAM bound).
    pub latency: u64,
    /// DRAM feature-map traffic: group input + group output.
    pub dram_fmap_bytes: u64,
    /// DRAM weight traffic of all member layers.
    pub dram_weight_bytes: u64,
    /// Cycles to move all DRAM traffic at peak bandwidth.
    pub dram_cycles: u64,
    /// Total resources of all member engines plus inter-layer FIFOs.
    pub resources: ResourceVec,
    /// Whether the DRAM bound (not a compute stage) set the latency.
    pub bandwidth_bound: bool,
}

impl GroupTiming {
    /// Effective performance in GOPS given the total operation count of
    /// the member layers.
    pub fn effective_gops(&self, total_ops: u64, device: &FpgaDevice) -> f64 {
        device.effective_gops(total_ops, self.latency)
    }
}

fn div_ceil_f(bytes: u64, bytes_per_cycle: f64) -> u64 {
    (bytes as f64 / bytes_per_cycle).ceil() as u64
}

/// Timing of one layer inside a group. Only the group's `head` loads its
/// input feature map from DRAM and only its `tail` stores the output;
/// every layer streams its own weights.
pub fn layer_timing(
    cfg: &LayerConfig,
    head: bool,
    tail: bool,
    bytes_per_cycle: f64,
) -> LayerTiming {
    let dtype = DataType::Fixed16;
    let est = &cfg.estimate;
    let iterations = (cfg.output.height as u64)
        .div_ceil(est.output_rows_per_iter as u64)
        .max(1);
    let compute_cycles_per_iter = est.compute_cycles.div_ceil(iterations);

    let fmap_load_bytes = if head {
        est.input_rows_per_iter as u64 * cfg.input.row_bytes(dtype) as u64
    } else {
        0
    };
    let weight_per_iter = cfg.weight_bytes.div_ceil(iterations);
    let load_cycles_per_iter = div_ceil_f(fmap_load_bytes + weight_per_iter, bytes_per_cycle);

    let store_cycles_per_iter = if tail {
        div_ceil_f(
            est.output_rows_per_iter as u64 * cfg.output.row_bytes(dtype) as u64,
            bytes_per_cycle,
        )
    } else {
        0
    };

    let stage = load_cycles_per_iter
        .max(compute_cycles_per_iter)
        .max(store_cycles_per_iter);
    let fill_iters = (est.line_buffer_rows as u64).div_ceil(est.input_rows_per_iter as u64);
    let fill_cycles = stage * fill_iters;
    LayerTiming {
        iterations,
        load_cycles_per_iter,
        compute_cycles_per_iter,
        store_cycles_per_iter,
        stage_cycles_per_iter: stage,
        fill_cycles,
        latency: iterations * stage + fill_cycles,
    }
}

/// Resources of the inter-layer FIFO channel behind a layer that feeds
/// another layer of its group: one row of the intermediate feature map
/// `output` (§6: "the FIFO channels are used").
pub fn fifo_resources(output: FmShape) -> ResourceVec {
    let fifo_bytes = output.row_bytes(DataType::Fixed16) as u64;
    ResourceVec::new(
        fifo_bytes
            .div_ceil(winofuse_fpga::device::BRAM18K_BYTES)
            .max(1),
        0,
        100,
        80,
    )
}

/// Computes the timing of a fusion group from its resolved layer configs.
///
/// # Errors
///
/// Returns [`FusionError::InvalidGroup`] for an empty group or layers
/// whose shapes do not chain.
pub fn group_timing(
    configs: &[LayerConfig],
    device: &FpgaDevice,
) -> Result<GroupTiming, FusionError> {
    if configs.is_empty() {
        return Err(FusionError::InvalidGroup("group has no layers".into()));
    }
    for pair in configs.windows(2) {
        if pair[0].output != pair[1].input {
            return Err(FusionError::InvalidGroup(format!(
                "layer `{}` output {} does not feed `{}` input {}",
                pair[0].layer.name, pair[0].output, pair[1].layer.name, pair[1].input
            )));
        }
    }
    let dtype = DataType::Fixed16;
    let bpc = device.bytes_per_cycle();
    let last = configs.len() - 1;

    let mut layers = Vec::with_capacity(configs.len());
    let mut resources = ResourceVec::ZERO;
    let mut weight_bytes_total = 0u64;

    for (i, cfg) in configs.iter().enumerate() {
        layers.push(layer_timing(cfg, i == 0, i == last, bpc));
        resources += cfg.estimate.resources;
        weight_bytes_total += cfg.weight_bytes;
    }
    for cfg in &configs[..last] {
        resources += fifo_resources(cfg.output);
    }

    let dram_fmap_bytes =
        configs[0].input.bytes(dtype) as u64 + configs[last].output.bytes(dtype) as u64;
    let dram_cycles = div_ceil_f(dram_fmap_bytes + weight_bytes_total, bpc);

    let slowest = layers
        .iter()
        .map(|t| t.iterations * t.stage_cycles_per_iter)
        .max()
        .unwrap_or(0);
    let total_fill: u64 = layers.iter().map(|t| t.fill_cycles).sum();
    let pipeline_latency = slowest + total_fill;
    let latency = pipeline_latency.max(dram_cycles);

    Ok(GroupTiming {
        layers,
        latency,
        dram_fmap_bytes,
        dram_weight_bytes: weight_bytes_total,
        dram_cycles,
        resources,
        bandwidth_bound: dram_cycles > pipeline_latency,
    })
}

/// Timing of a whole network partitioned into consecutive groups: groups
/// execute back to back, so latencies and transfers add.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceTiming {
    /// Per-group timings in execution order.
    pub groups: Vec<GroupTiming>,
    /// End-to-end latency in cycles.
    pub latency: u64,
    /// Total DRAM feature-map traffic.
    pub dram_fmap_bytes: u64,
    /// Total DRAM weight traffic.
    pub dram_weight_bytes: u64,
}

/// Multi-frame batch execution of a group sequence — an extension beyond
/// the paper's single-frame latency accounting.
///
/// Groups time-share the fabric: each group processes **all** frames of
/// the batch before the FPGA moves to the next group, so weights load
/// once per group per batch and any reconfiguration cost
/// ([`FpgaDevice::reconfig_cycles`]) is paid once per group switch rather
/// than once per frame. Within a group, frames stream back-to-back: the
/// pipeline fill is paid once, then every extra frame costs only the
/// steady-state time of the slowest stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchTiming {
    /// Frames in the batch.
    pub frames: u64,
    /// Total cycles for the whole batch, including reconfiguration.
    pub total_cycles: u64,
    /// Amortized cycles per frame.
    pub cycles_per_frame: f64,
    /// DRAM feature-map traffic (scales with frames).
    pub dram_fmap_bytes: u64,
    /// DRAM weight traffic (once per group per batch).
    pub dram_weight_bytes: u64,
    /// Total reconfiguration cycles paid.
    pub reconfig_cycles: u64,
}

/// Computes batch timing for a sequence of fused groups.
///
/// # Errors
///
/// Returns [`FusionError::InvalidGroup`] for an empty sequence or a zero
/// frame count.
pub fn batch_sequence_timing(
    groups: &[GroupTiming],
    device: &FpgaDevice,
    frames: u64,
) -> Result<BatchTiming, FusionError> {
    if groups.is_empty() {
        return Err(FusionError::InvalidGroup(
            "batch needs at least one group".into(),
        ));
    }
    if frames == 0 {
        return Err(FusionError::InvalidGroup(
            "batch needs at least one frame".into(),
        ));
    }
    let bpc = device.bytes_per_cycle();
    let mut total = 0u64;
    let mut fmap_bytes = 0u64;
    let mut weight_bytes = 0u64;
    for g in groups {
        let steady = g
            .layers
            .iter()
            .map(|t| t.iterations * t.stage_cycles_per_iter)
            .max()
            .unwrap_or(0);
        let fill: u64 = g.layers.iter().map(|t| t.fill_cycles).sum();
        let compute = fill + frames * steady;
        let dram = ((frames * g.dram_fmap_bytes + g.dram_weight_bytes) as f64 / bpc).ceil() as u64;
        total += compute.max(dram);
        fmap_bytes += frames * g.dram_fmap_bytes;
        weight_bytes += g.dram_weight_bytes;
    }
    let reconfig = device.reconfig_cycles() * (groups.len() as u64 - 1);
    total += reconfig;
    Ok(BatchTiming {
        frames,
        total_cycles: total,
        cycles_per_frame: total as f64 / frames as f64,
        dram_fmap_bytes: fmap_bytes,
        dram_weight_bytes: weight_bytes,
        reconfig_cycles: reconfig,
    })
}

/// Sums a sequence of group timings.
pub fn sequence_timing(groups: Vec<GroupTiming>) -> SequenceTiming {
    let latency = groups.iter().map(|g| g.latency).sum();
    let dram_fmap_bytes = groups.iter().map(|g| g.dram_fmap_bytes).sum();
    let dram_weight_bytes = groups.iter().map(|g| g.dram_weight_bytes).sum();
    SequenceTiming {
        groups,
        latency,
        dram_fmap_bytes,
        dram_weight_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winofuse_fpga::engine::Algorithm;
    use winofuse_model::zoo;

    fn cfg(net: &Network, idx: usize, algo: Algorithm, p: usize) -> LayerConfig {
        LayerConfig::build(
            net,
            idx,
            EngineConfig {
                algorithm: algo,
                parallelism: p,
            },
        )
        .unwrap()
    }

    #[test]
    fn single_layer_group_timing() {
        let net = zoo::vgg_e_fused_prefix();
        let dev = FpgaDevice::zc706();
        let c = cfg(&net, 0, Algorithm::Conventional, 27); // conv1_1: 3ch in
        let t = group_timing(&[c], &dev).unwrap();
        assert_eq!(t.layers.len(), 1);
        assert!(t.latency > 0);
        // Group transfer = 3·224²·2 + 64·224²·2 bytes.
        assert_eq!(t.dram_fmap_bytes, (3 + 64) * 224 * 224 * 2);
    }

    #[test]
    fn fused_group_transfers_less_than_split() {
        let net = zoo::vgg_e_fused_prefix();
        let dev = FpgaDevice::zc706();
        let fused = group_timing(
            &[
                cfg(&net, 0, Algorithm::Conventional, 27),
                cfg(&net, 1, Algorithm::Conventional, 64),
            ],
            &dev,
        )
        .unwrap();
        let a = group_timing(&[cfg(&net, 0, Algorithm::Conventional, 27)], &dev).unwrap();
        let b = group_timing(&[cfg(&net, 1, Algorithm::Conventional, 64)], &dev).unwrap();
        assert!(fused.dram_fmap_bytes < a.dram_fmap_bytes + b.dram_fmap_bytes);
        // The intermediate 64x224x224 fmap never leaves the chip.
        assert_eq!(
            a.dram_fmap_bytes + b.dram_fmap_bytes - fused.dram_fmap_bytes,
            2 * 64 * 224 * 224 * 2
        );
    }

    #[test]
    fn group_latency_tracks_slowest_member() {
        let net = zoo::vgg_e_fused_prefix();
        let dev = FpgaDevice::zc706();
        // Starve conv1_2 (the heavy layer) and the group slows to its pace.
        let starved = group_timing(
            &[
                cfg(&net, 0, Algorithm::Conventional, 27),
                cfg(&net, 1, Algorithm::Conventional, 1),
            ],
            &dev,
        )
        .unwrap();
        let fed = group_timing(
            &[
                cfg(&net, 0, Algorithm::Conventional, 27),
                cfg(&net, 1, Algorithm::Conventional, 256),
            ],
            &dev,
        )
        .unwrap();
        assert!(starved.latency > 10 * fed.latency);
    }

    #[test]
    fn winograd_same_throughput_quarter_dsp() {
        let net = zoo::vgg_e_fused_prefix();
        let dev = FpgaDevice::zc706();
        // conv1_2: 64 in, 64 out, 224x224. Conventional p=144 vs one
        // 4x-efficient winograd pair of units (288 eq MACs?) — compare at
        // matched MACs/cycle: conventional 144 lanes vs winograd 1 unit
        // (144 eq MACs/cycle).
        let conv = group_timing(&[cfg(&net, 1, Algorithm::Conventional, 144)], &dev).unwrap();
        let wino = group_timing(&[cfg(&net, 1, Algorithm::winograd_f43(), 1)], &dev).unwrap();
        let conv_compute = conv.layers[0].compute_cycles_per_iter * conv.layers[0].iterations;
        let wino_compute = wino.layers[0].compute_cycles_per_iter * wino.layers[0].iterations;
        // Same equivalent throughput => within 20% compute cycles
        // (winograd pays ragged-tile waste).
        let ratio = wino_compute as f64 / conv_compute as f64;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn bandwidth_bound_detected_for_fast_engine_on_thin_pipe() {
        let net = zoo::vgg_e_fused_prefix();
        // Strangle the DRAM: 100 MB/s.
        let dev = FpgaDevice::zc706().with_bandwidth(100_000_000);
        let t = group_timing(&[cfg(&net, 1, Algorithm::winograd_f43(), 16)], &dev).unwrap();
        assert!(t.bandwidth_bound);
        assert_eq!(t.latency, t.dram_cycles);
    }

    #[test]
    fn weight_traffic_winograd_amplified() {
        let net = zoo::vgg_e_fused_prefix();
        let input = net.input_shape_of(1).unwrap();
        let conv = weight_traffic_bytes(&net.layers()[1], input, Algorithm::Conventional);
        let wino = weight_traffic_bytes(&net.layers()[1], input, Algorithm::winograd_f43());
        assert_eq!(conv, 64 * 64 * 9 * 2);
        assert_eq!(wino, 64 * 64 * 36 * 2); // α² = 36 transformed coeffs
                                            // Pooling has no weights.
        let p = weight_traffic_bytes(&net.layers()[2], input, Algorithm::Conventional);
        assert_eq!(p, 0);
    }

    #[test]
    fn sequence_sums() {
        let net = zoo::vgg_e_fused_prefix();
        let dev = FpgaDevice::zc706();
        let g1 = group_timing(&[cfg(&net, 0, Algorithm::Conventional, 27)], &dev).unwrap();
        let g2 = group_timing(&[cfg(&net, 1, Algorithm::Conventional, 64)], &dev).unwrap();
        let (l1, l2) = (g1.latency, g2.latency);
        let (f1, f2) = (g1.dram_fmap_bytes, g2.dram_fmap_bytes);
        let seq = sequence_timing(vec![g1, g2]);
        assert_eq!(seq.latency, l1 + l2);
        assert_eq!(seq.dram_fmap_bytes, f1 + f2);
    }

    #[test]
    fn batch_amortizes_fill_and_weights() {
        let net = zoo::vgg_e_fused_prefix();
        let dev = FpgaDevice::zc706();
        let g = group_timing(&[cfg(&net, 1, Algorithm::Conventional, 128)], &dev).unwrap();
        let one = batch_sequence_timing(std::slice::from_ref(&g), &dev, 1).unwrap();
        let many = batch_sequence_timing(&[g], &dev, 16).unwrap();
        assert!(many.cycles_per_frame < one.cycles_per_frame);
        assert_eq!(
            many.dram_weight_bytes, one.dram_weight_bytes,
            "weights once per batch"
        );
        assert_eq!(many.dram_fmap_bytes, 16 * one.dram_fmap_bytes);
    }

    #[test]
    fn reconfiguration_paid_once_per_group_switch() {
        let net = zoo::vgg_e_fused_prefix();
        let dev = FpgaDevice::zc706().with_reconfig_cycles(2_500_000);
        let g1 = group_timing(&[cfg(&net, 0, Algorithm::Conventional, 27)], &dev).unwrap();
        let g2 = group_timing(&[cfg(&net, 1, Algorithm::Conventional, 64)], &dev).unwrap();
        let b = batch_sequence_timing(&[g1.clone(), g2.clone()], &dev, 8).unwrap();
        assert_eq!(b.reconfig_cycles, 2_500_000);
        // Per-frame amortized reconfig shrinks with batch size.
        let b1 = batch_sequence_timing(&[g1, g2], &dev, 1).unwrap();
        assert!(b.cycles_per_frame < b1.cycles_per_frame);
    }

    #[test]
    fn batch_rejects_degenerate_inputs() {
        let dev = FpgaDevice::zc706();
        assert!(batch_sequence_timing(&[], &dev, 4).is_err());
        let net = zoo::vgg_e_fused_prefix();
        let g = group_timing(&[cfg(&net, 0, Algorithm::Conventional, 9)], &dev).unwrap();
        assert!(batch_sequence_timing(&[g], &dev, 0).is_err());
    }

    #[test]
    fn mismatched_chain_rejected() {
        let net = zoo::vgg_e_fused_prefix();
        let dev = FpgaDevice::zc706();
        let a = cfg(&net, 0, Algorithm::Conventional, 9);
        let c = cfg(&net, 3, Algorithm::Conventional, 16); // skips pool1: shape mismatch
        assert!(matches!(
            group_timing(&[a, c], &dev),
            Err(FusionError::InvalidGroup(_))
        ));
        assert!(group_timing(&[], &dev).is_err());
    }

    #[test]
    fn whole_prefix_fuses_and_reports_resources() {
        let net = zoo::vgg_e_fused_prefix();
        let dev = FpgaDevice::zc706();
        let configs: Vec<LayerConfig> = (0..net.len())
            .map(|i| {
                let algo = if net.layers()[i].winograd_eligible() && i != 0 {
                    Algorithm::winograd_f43()
                } else {
                    Algorithm::Conventional
                };
                cfg(
                    &net,
                    i,
                    algo,
                    if algo == Algorithm::Conventional {
                        16
                    } else {
                        2
                    },
                )
            })
            .collect();
        let t = group_timing(&configs, &dev).unwrap();
        assert_eq!(t.layers.len(), 7);
        assert!(t.resources.dsp > 0 && t.resources.bram_18k > 0);
        // Transfer = first input + last output (conv3_1: 256x56x56) only.
        assert_eq!(
            t.dram_fmap_bytes,
            (3 * 224 * 224 + 256 * 56 * 56) as u64 * 2
        );
    }
}
