//! Plan-faithful fused execution of optimizer strategies.
//!
//! Where [`crate::simulator::FusedGroupSim`] models *time* (cycles,
//! occupancy, backpressure) and computes no values, the runner executes
//! a fusion group the way the strategy says the hardware would — and
//! fast. It is the one source of fused values. Each group streams rows
//! through per-stage line-buffer windows. A runner is lowered from a
//! [`PreparedNetwork`]: its `f32` convolution strips run
//! [`PreparedConv::run`] on the layer's shared banks — the executor's
//! own preparation and dispatch, batched
//! Winograd-as-GEMM on 3×3 stride-1 layers and blocked im2col+GEMM
//! elsewhere — while the BnB's per-layer algorithm choice sets the
//! weight stream each stage meters (and, for sparse Winograd, the pruned
//! bank it computes with: a dense bank with the dropped coefficients
//! zeroed, while the meter charges the CSR stream the accelerator would
//! read). Pool, LRN and ReLU stages call the executor's own slice
//! kernels ([`ops::pool_row`], [`ops::lrn_block`],
//! [`ops::relu_in_place`]) on the streamed rows. So `run` matches the
//! layer-by-layer executor on the same preparation bit for bit, and
//! `run_fix16` matches [`forward_fix16`] bit for bit.
//!
//! [`forward_fix16`]: winofuse_model::runtime::forward_fix16
//!
//! The runner also *meters* DRAM traffic while it streams: input rows in,
//! output rows out, one weight stream per convolution (transformed α²
//! coefficients when the plan chose Winograd). At the end of every frame
//! the measured `read + written` bytes are reconciled against the DP's
//! analytic transfer budget for the group — the paper's central claim
//! that fusing keeps intermediate maps off DRAM (§4.2) becomes a checked
//! invariant: a mismatch is a hard [`FusionError::DramMismatch`] in
//! strict fault mode (the default), while lenient mode records
//! `fused.dram_delta` and degrades the group to unfused direct execution
//! (see [`GroupFallback`] and the degradation ladder in `DESIGN.md` §12).

use std::collections::VecDeque;
use std::sync::Arc;

use winofuse_conv::fixed::{saturation_count, Fix16};
use winofuse_conv::microkernel::KernelChoice;
use winofuse_conv::ops::{self, LrnParams};
use winofuse_conv::tensor::{Scalar, Tensor};
use winofuse_conv::{direct, ConvGeometry};
use winofuse_fpga::engine::Algorithm;
use winofuse_model::layer::{ConvParams, LayerKind, PoolParams};
use winofuse_model::network::Network;
use winofuse_model::runtime::{
    conv_grouped, ExecAlgo, LayerWeights, NetworkWeights, PreparedConv, PreparedNetwork,
};
use winofuse_model::shape::{DataType, FmShape};
use winofuse_runtime::faults::{fall_back, Failure, Fault, FaultInjector, FaultKind, FaultMode};
use winofuse_runtime::PoolProfiler;
use winofuse_telemetry::Telemetry;

use crate::pipeline::LayerConfig;
use crate::FusionError;

/// Output rows per strip for direct-convolution stages. Any value works
/// (per-element accumulation order is strip-independent); 32 gives each
/// strip enough row-block jobs to feed the pool without inflating the
/// streaming window.
const DIRECT_STRIP_ROWS: usize = 32;
/// Tile rows per strip for Winograd stages. Strips must start on
/// multiples of the transform's `m` so the strip-local tile grid matches
/// the whole-image grid (bit-exactness); 16 tile rows per strip feeds the
/// tile-block scheduler several blocks per strip instead of dispatching
/// one barrier round per tile row.
const WINO_STRIP_TILE_ROWS: usize = 16;

/// DRAM accounting of one fused group for one frame: what the runner
/// measured while streaming vs what the DP budgeted analytically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupDramReport {
    /// Network index of the group's first layer.
    pub start: usize,
    /// Network index one past the group's last layer.
    pub end: usize,
    /// Measured bytes read (group input rows + streamed weights).
    pub dram_bytes_read: u64,
    /// Measured bytes written (group output rows).
    pub dram_bytes_written: u64,
    /// The DP's analytic transfer bytes for the group (fmap + weights).
    pub analytic_dram_bytes: u64,
}

impl GroupDramReport {
    /// Total measured traffic (`read + written`).
    pub fn measured(&self) -> u64 {
        self.dram_bytes_read + self.dram_bytes_written
    }

    /// Absolute difference between measured and analytic traffic —
    /// zero when the runner is plan-faithful.
    pub fn delta(&self) -> u64 {
        self.measured().abs_diff(self.analytic_dram_bytes)
    }
}

/// Record of one fused group degrading to unfused per-layer execution
/// (lenient fault mode only). The output is still exact — the fallback
/// rung streams the same frame through the direct kernels — but the
/// group no longer ran the plan's fused datapath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupFallback {
    /// Network index of the group's first layer.
    pub start: usize,
    /// Why the fused attempt was abandoned.
    pub reason: String,
}

/// Result of streaming one frame through one fused group.
#[derive(Debug, Clone)]
pub struct GroupRunResult<T> {
    /// The group's output feature maps.
    pub output: Tensor<T>,
    /// Measured-vs-analytic DRAM accounting for the frame.
    pub dram: GroupDramReport,
    /// `Some` when lenient fault mode re-ran the group unfused after a
    /// fault or reconciliation mismatch on the fused attempt.
    pub fallback: Option<GroupFallback>,
}

/// Result of streaming one frame through a whole planned network.
#[derive(Debug, Clone)]
pub struct FusedRunReport<T> {
    /// The final group's output feature maps.
    pub output: Tensor<T>,
    /// Per-group DRAM accounting, in network order.
    pub groups: Vec<GroupDramReport>,
    /// Groups that degraded to unfused execution (lenient mode only),
    /// in network order. Their [`GroupDramReport`]s describe the
    /// fallback run, not the abandoned fused attempt.
    pub fallbacks: Vec<GroupFallback>,
}

/// Result of streaming a batch of frames through a whole planned
/// network, one plan instantiation amortized across all of them.
#[derive(Debug, Clone)]
pub struct FusedBatchReport<T> {
    /// Final outputs, stacked along the batch dimension (`n` = batch).
    pub output: Tensor<T>,
    /// Per-frame, per-group DRAM accounting (`frames[b][g]`).
    pub frames: Vec<Vec<GroupDramReport>>,
    /// Groups that degraded to unfused execution, across all frames.
    pub fallbacks: Vec<GroupFallback>,
}

impl<T> FusedBatchReport<T> {
    /// Largest per-group reconciliation delta across every frame.
    pub fn max_dram_delta(&self) -> u64 {
        self.frames
            .iter()
            .flatten()
            .map(GroupDramReport::delta)
            .max()
            .unwrap_or(0)
    }
}

impl<T> FusedRunReport<T> {
    /// Total measured DRAM traffic across all groups.
    pub fn measured_dram_bytes(&self) -> u64 {
        self.groups.iter().map(GroupDramReport::measured).sum()
    }

    /// Total analytic DRAM budget across all groups.
    pub fn analytic_dram_bytes(&self) -> u64 {
        self.groups.iter().map(|g| g.analytic_dram_bytes).sum()
    }

    /// Largest per-group reconciliation delta (zero when faithful).
    pub fn max_dram_delta(&self) -> u64 {
        self.groups
            .iter()
            .map(GroupDramReport::delta)
            .max()
            .unwrap_or(0)
    }
}

/// One conv stage's plan state: the quantized kernels of the fixed-point
/// datapath, the weight-stream bytes the plan's algorithm meters, and the
/// `f32` preparation its strips compute with.
struct ConvStage {
    /// Per-group quantized kernels (exact fixed-point path).
    kernels_fix: Vec<Tensor<Fix16>>,
    /// The layer's [`PreparedConv`]: shared with the [`PreparedNetwork`]
    /// the runner was lowered from, or — for a sparse-planned layer that
    /// preparation does not prune at the plan's density — the stage's own
    /// pruned preparation, since there the plan's choice changes the
    /// computed values (the accelerator multiplies by pruned
    /// coefficients), not just the metered stream.
    conv: Arc<PreparedConv>,
    /// DRAM bytes the accelerator streams for this layer's weights per
    /// frame.
    weight_stream_bytes: u64,
}

enum StageOp {
    Conv(ConvStage),
    Pool(PoolParams),
    Lrn(LrnParams),
    Relu,
}

struct RunnerStage {
    input: FmShape,
    output: FmShape,
    /// Window/stride/pad for row-dependency math (1/1/0 for pointwise).
    kernel: usize,
    stride: usize,
    pad: usize,
    /// Output rows computed per strip (Winograd: a multiple of the
    /// transform's `m`, so strips land exactly on the whole-image tile
    /// grid).
    strip_rows: usize,
    op: StageOp,
}

impl RunnerStage {
    /// Input rows (exclusive, real coordinates) needed to produce output
    /// rows `..out_end`.
    fn rows_needed(&self, out_end: usize) -> usize {
        if out_end == 0 {
            return 0;
        }
        ((out_end - 1) * self.stride + self.kernel)
            .saturating_sub(self.pad)
            .min(self.input.height)
    }
}

/// Element types the fused runner streams: `f32` (checked against
/// [`NetworkExecutor`]) and [`Fix16`] (exactly matching
/// [`forward_fix16`]). Sealed: the conv dispatch is datapath-specific.
///
/// [`NetworkExecutor`]: winofuse_model::runtime::NetworkExecutor
/// [`forward_fix16`]: winofuse_model::runtime::forward_fix16
trait RunnerElement: Scalar + PartialOrd {
    /// Runs one conv stage on a materialized zero-padded strip, folded
    /// ReLU included. `force_direct` pins the blocked direct kernels (the
    /// lenient-mode fallback rung — numerically identical to the unfused
    /// direct executor).
    fn run_conv(
        stage: &ConvStage,
        strip: &Tensor<Self>,
        geom: ConvGeometry,
        threads: usize,
        prof: &PoolProfiler,
        force_direct: bool,
    ) -> Result<Tensor<Self>, FusionError>;
}

impl RunnerElement for f32 {
    fn run_conv(
        stage: &ConvStage,
        strip: &Tensor<f32>,
        geom: ConvGeometry,
        threads: usize,
        prof: &PoolProfiler,
        force_direct: bool,
    ) -> Result<Tensor<f32>, FusionError> {
        Ok(stage
            .conv
            .run(strip, geom, threads, None, prof, force_direct)?)
    }
}

impl RunnerElement for Fix16 {
    fn run_conv(
        stage: &ConvStage,
        strip: &Tensor<Fix16>,
        geom: ConvGeometry,
        threads: usize,
        _prof: &PoolProfiler,
        _force_direct: bool,
    ) -> Result<Tensor<Fix16>, FusionError> {
        // Fixed point always runs the exact wide-integer datapath
        // (matching `forward_fix16`); the algorithm choice is a
        // numerically-equivalent implementation detail there.
        Ok(conv_grouped(stage.conv.params(), strip, geom, |g, x| {
            direct::conv2d_fix16_fast_with_kernel(
                x,
                &stage.kernels_fix[g],
                geom,
                threads,
                KernelChoice::auto(),
            )
        })?)
    }
}

/// Executes one fusion group as the plan describes: rows stream in, each
/// stage computes output strips with the fast kernels as soon as its
/// window is resident, and only the last stage's rows leave to DRAM.
/// See the [module docs](self) for the reconciliation contract.
pub struct FusedGroupRunner {
    start: usize,
    end: usize,
    stages: Vec<RunnerStage>,
    input_shape: FmShape,
    output_shape: FmShape,
    threads: usize,
    analytic_dram_bytes: u64,
    fault_mode: FaultMode,
    faults: FaultInjector,
    telemetry: Telemetry,
    weight_stream_bytes: u64,
}

impl FusedGroupRunner {
    /// Lowers the group described by `configs` (resolved layer
    /// configurations for consecutive layers of `net` starting at
    /// `start`) onto `prepared`: each conv stage computes with the
    /// layer's shared [`PreparedConv`], except a sparse-planned layer
    /// that `prepared` does not prune at the plan's density, which prunes
    /// its own bank from `weights`. The analytic DRAM budget
    /// defaults to the configs' own accounting (group input + output
    /// feature maps plus every member's weight stream) — override it
    /// with [`FusedGroupRunner::with_analytic_budget`] when lowering
    /// from a DP partition.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::InvalidGroup`] for an empty/unchained
    /// group, layers the fusion architecture cannot host (FC, softmax),
    /// a `prepared` built for another network, or a layer the plan does
    /// not prune whose preparation is pruned, and
    /// [`FusionError::Simulation`] for missing weights.
    pub fn new(
        net: &Network,
        start: usize,
        configs: &[LayerConfig],
        weights: &NetworkWeights,
        prepared: &PreparedNetwork,
    ) -> Result<Self, FusionError> {
        if configs.is_empty() {
            return Err(FusionError::InvalidGroup("group has no layers".into()));
        }
        if prepared.network_fingerprint() != net.fingerprint() {
            return Err(FusionError::InvalidGroup(format!(
                "preparation does not match network `{}`",
                net.name()
            )));
        }
        for pair in configs.windows(2) {
            if pair[0].output != pair[1].input {
                return Err(FusionError::InvalidGroup(format!(
                    "`{}` output {} does not feed `{}` input {}",
                    pair[0].layer.name, pair[0].output, pair[1].layer.name, pair[1].input
                )));
            }
        }
        let mut stages = Vec::with_capacity(configs.len());
        for (off, cfg) in configs.iter().enumerate() {
            let idx = start + off;
            match net.layers().get(idx) {
                Some(l) if l.name == cfg.layer.name => {}
                _ => {
                    return Err(FusionError::InvalidGroup(format!(
                        "config {off} (`{}`) does not match network layer {idx}",
                        cfg.layer.name
                    )))
                }
            }
            let spec = crate::pyramid::SpatialSpec::of(&cfg.layer.kind);
            let (op, strip_rows) = match &cfg.layer.kind {
                LayerKind::Conv(c) => {
                    let (Some(LayerWeights::Conv(kernels)), Some(shared)) =
                        (weights.get(idx), prepared.conv(idx))
                    else {
                        return Err(FusionError::Simulation(format!(
                            "missing conv weights for layer {idx} `{}`",
                            cfg.layer.name
                        )));
                    };
                    let conv =
                        ConvStage::lower(c, kernels, cfg.input, cfg.engine.algorithm, shared)?;
                    let strip = conv
                        .conv
                        .winograd_m()
                        .map_or(DIRECT_STRIP_ROWS, |m| m * WINO_STRIP_TILE_ROWS);
                    (StageOp::Conv(conv), strip)
                }
                LayerKind::Pool(p) => (StageOp::Pool(*p), 1),
                LayerKind::Lrn(spec) => (StageOp::Lrn(*spec), 1),
                LayerKind::Relu => (StageOp::Relu, 1),
                other => {
                    return Err(FusionError::InvalidGroup(format!(
                        "layer kind `{}` cannot be fused",
                        other.tag()
                    )))
                }
            };
            stages.push(RunnerStage {
                input: cfg.input,
                output: cfg.output,
                kernel: spec.kernel,
                stride: spec.stride,
                pad: spec.pad,
                strip_rows,
                op,
            });
        }
        let first = &configs[0];
        let last = configs
            .last()
            .expect("invariant: configs checked nonempty above");
        let dtype = DataType::Fixed16;
        let weight_stream_bytes: u64 = stages
            .iter()
            .filter_map(|s| match &s.op {
                StageOp::Conv(c) => Some(c.weight_stream_bytes),
                _ => None,
            })
            .sum();
        let analytic_dram_bytes = first.input.bytes(dtype) as u64
            + last.output.bytes(dtype) as u64
            + configs.iter().map(|c| c.weight_bytes).sum::<u64>();
        Ok(FusedGroupRunner {
            start,
            end: start + configs.len(),
            stages,
            input_shape: first.input,
            output_shape: last.output,
            threads: 0,
            analytic_dram_bytes,
            fault_mode: FaultMode::Strict,
            faults: FaultInjector::disabled(),
            telemetry: Telemetry::disabled(),
            weight_stream_bytes,
        })
    }

    /// Sets the worker-thread count for the convolution kernels
    /// (`0` = auto-detect). Results are bit-identical at any count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the analytic DRAM budget the measured traffic is
    /// reconciled against (normally the DP's per-group transfer cost).
    pub fn with_analytic_budget(mut self, bytes: u64) -> Self {
        self.analytic_dram_bytes = bytes;
        self
    }

    /// Selects fault behavior (default [`FaultMode::Strict`]): strict
    /// mode surfaces a DRAM mismatch or group fault as a typed error;
    /// lenient mode re-runs the group unfused on the direct kernels
    /// (recording `exec.fallbacks` and the per-group [`GroupFallback`]).
    pub fn with_fault_mode(mut self, mode: FaultMode) -> Self {
        self.fault_mode = mode;
        self
    }

    /// Attaches a deterministic fault injector. Sites: `fused.group<n>`
    /// (group-level panic/saturation), `fused.dram<n>` (DRAM-meter
    /// perturbation), and the conv worker pools under
    /// `pool.fused<n>/stage<i>/...`.
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches an observability context (`fused.*` counters).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Network index of the group's first layer.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Network index one past the group's last layer.
    pub fn end(&self) -> usize {
        self.end
    }

    /// The group's input feature-map shape.
    pub fn input_shape(&self) -> FmShape {
        self.input_shape
    }

    /// The group's output feature-map shape.
    pub fn output_shape(&self) -> FmShape {
        self.output_shape
    }

    /// The analytic DRAM budget this runner reconciles against.
    pub fn analytic_dram_bytes(&self) -> u64 {
        self.analytic_dram_bytes
    }

    /// The `f32` preparation the conv stage for network layer `index`
    /// computes with, or `None` when that layer is outside the group or
    /// not a convolution.
    pub fn conv(&self, index: usize) -> Option<&Arc<PreparedConv>> {
        match &self.stages.get(index.checked_sub(self.start)?)?.op {
            StageOp::Conv(stage) => Some(&stage.conv),
            _ => None,
        }
    }

    /// Streams one `f32` frame through the group.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::Simulation`] for a mismatched input shape;
    /// in strict fault mode, [`FusionError::DramMismatch`] when
    /// reconciliation fails and [`FusionError::GroupFault`] for a caught
    /// kernel panic. Lenient mode degrades to unfused execution instead
    /// (see [`GroupFallback`]).
    pub fn run(&self, input: &Tensor<f32>) -> Result<GroupRunResult<f32>, FusionError> {
        self.run_guarded(input)
    }

    /// Streams one fixed-point frame through the group. Bit-exact
    /// against [`forward_fix16`] on the same quantized weights.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FusedGroupRunner::run`].
    ///
    /// [`forward_fix16`]: winofuse_model::runtime::forward_fix16
    pub fn run_fix16(&self, input: &Tensor<Fix16>) -> Result<GroupRunResult<Fix16>, FusionError> {
        self.run_guarded(input)
    }

    /// Runs the group behind the fault guard and the algorithm-fallback
    /// rung ([`fall_back`]). In lenient mode a caught panic, typed kernel
    /// fault, injected group saturation, or (after a clean run) a nonzero
    /// DRAM-reconciliation delta triggers one unfused re-run on the
    /// direct kernels, bumping `exec.fallbacks` and
    /// `exec.fallbacks.<class>`. Strict mode surfaces each as a typed
    /// error: the delta as [`FusionError::DramMismatch`], the others as
    /// [`FusionError::GroupFault`].
    fn run_guarded<T: RunnerElement>(
        &self,
        input: &Tensor<T>,
    ) -> Result<GroupRunResult<T>, FusionError> {
        let primary = || {
            if self.faults.trip(&format!("fused.group{}", self.start)) == Some(FaultKind::Saturate)
            {
                return Err(Failure::Fault(Fault {
                    class: "saturation",
                    reason: "injected winograd-domain fix16 saturation".to_string(),
                }));
            }
            // Shape, config and simulation errors are not kernel faults —
            // switching algorithms cannot fix them.
            let r = self.run_generic(input, false, true).map_err(|e| match e {
                FusionError::KernelFault { .. } => Failure::Fault(Fault {
                    class: "kernel_fault",
                    reason: e.to_string(),
                }),
                e => Failure::Error(e),
            })?;
            if r.dram.delta() == 0 {
                return Ok(r);
            }
            let (measured, analytic) = (r.dram.measured(), r.dram.analytic_dram_bytes);
            Err(match self.fault_mode {
                FaultMode::Strict => Failure::Error(FusionError::DramMismatch {
                    start: self.start,
                    measured,
                    analytic,
                }),
                FaultMode::Lenient => Failure::Fault(Fault {
                    class: "dram_mismatch",
                    reason: format!(
                        "dram reconciliation failed: measured {measured} B vs analytic {analytic} B"
                    ),
                }),
            })
        };
        let fallback = Some(|| self.run_generic(input, true, false));
        let fault = |reason| FusionError::GroupFault {
            start: self.start,
            reason,
        };
        let sat0 = saturation_count();
        let out = fall_back(self.fault_mode, &self.telemetry, primary, fallback, fault);
        let sats = saturation_count().saturating_sub(sat0);
        if sats > 0 {
            self.telemetry.add("fix16.saturations", sats);
        }
        let (mut r, reason) = out?;
        r.fallback = reason.map(|reason| GroupFallback {
            start: self.start,
            reason,
        });
        Ok(r)
    }

    /// One streaming pass. `force_direct` pins every conv stage to the
    /// blocked direct kernels (the fallback rung); `primary` gates fault
    /// injection and the `fused.*` telemetry so a fallback re-run never
    /// re-trips its own cause or double-counts traffic.
    fn run_generic<T: RunnerElement>(
        &self,
        input: &Tensor<T>,
        force_direct: bool,
        primary: bool,
    ) -> Result<GroupRunResult<T>, FusionError> {
        let s = self.input_shape;
        if input.n() != 1
            || input.c() != s.channels
            || input.h() != s.height
            || input.w() != s.width
        {
            return Err(FusionError::Simulation(format!(
                "input {}x{}x{}x{} does not match group input 1x{s}",
                input.n(),
                input.c(),
                input.h(),
                input.w()
            )));
        }
        let dtype = DataType::Fixed16;
        let n_stages = self.stages.len();
        let out_shape = self.output_shape;
        let mut out = Tensor::zeros(1, out_shape.channels, out_shape.height, out_shape.width);
        let mut out_rows = 0usize;
        // Per-stage sliding window of input rows (channel-major `C·W`
        // values each) and the real input row index of its front.
        let mut windows: Vec<VecDeque<Vec<T>>> = (0..n_stages).map(|_| VecDeque::new()).collect();
        let mut win_start = vec![0usize; n_stages];
        let mut fed = vec![0usize; n_stages];
        let mut done = vec![0usize; n_stages];
        // Weights stream once per frame; fmap rows are metered as they
        // move (the accelerator's DRAM dtype, regardless of compute
        // element type).
        let mut read = self.weight_stream_bytes;
        let mut written = 0u64;
        let in_row_bytes = s.row_bytes(dtype) as u64;
        let out_row_bytes = out_shape.row_bytes(dtype) as u64;

        // The frame ends when every output row has been stored AND every
        // input row has been loaded: a stage whose stride exceeds its
        // window never *computes* with the frame's last rows, but the
        // accelerator still streams the whole input map from DRAM (the
        // analytic model counts it, so the wire must too).
        while out_rows < out_shape.height || fed[0] < s.height {
            let mut progressed = false;
            // DRAM -> stage 0: one input row per step.
            if fed[0] < s.height {
                let r = fed[0];
                let mut row = vec![T::zero(); s.channels * s.width];
                let src = input.as_slice();
                for c in 0..s.channels {
                    let off = (c * s.height + r) * s.width;
                    row[c * s.width..(c + 1) * s.width].copy_from_slice(&src[off..off + s.width]);
                }
                windows[0].push_back(row);
                fed[0] += 1;
                read += in_row_bytes;
                progressed = true;
            }
            // Each stage produces every strip its window can serve.
            for i in 0..n_stages {
                loop {
                    let o0 = done[i];
                    if o0 >= self.stages[i].output.height {
                        break;
                    }
                    let o1 = (o0 + self.stages[i].strip_rows).min(self.stages[i].output.height);
                    if fed[i] < self.stages[i].rows_needed(o1) {
                        break;
                    }
                    let rows = self.produce_strip(
                        i,
                        &windows[i],
                        win_start[i],
                        o0,
                        o1,
                        force_direct,
                        primary,
                    )?;
                    done[i] = o1;
                    // Evict rows no future strip of this stage needs.
                    let st = &self.stages[i];
                    let keep = (o1 * st.stride).saturating_sub(st.pad);
                    while win_start[i] < keep && !windows[i].is_empty() {
                        windows[i].pop_front();
                        win_start[i] += 1;
                    }
                    for row in rows {
                        if i + 1 < n_stages {
                            windows[i + 1].push_back(row);
                            fed[i + 1] += 1;
                        } else {
                            let r = out_rows;
                            let dst = out.as_mut_slice();
                            for c in 0..out_shape.channels {
                                let off = (c * out_shape.height + r) * out_shape.width;
                                dst[off..off + out_shape.width].copy_from_slice(
                                    &row[c * out_shape.width..(c + 1) * out_shape.width],
                                );
                            }
                            out_rows += 1;
                            written += out_row_bytes;
                        }
                    }
                    progressed = true;
                }
            }
            if !progressed {
                return Err(FusionError::Simulation(format!(
                    "fused runner deadlock: {} of {} output rows produced",
                    out_rows, out_shape.height
                )));
            }
        }

        if primary {
            // Deterministic DRAM-meter perturbation: a `dram:<±bytes>`
            // rule at this site makes reconciliation diverge on the
            // fused attempt only (the fallback re-run meters honestly).
            if let Some(FaultKind::DramDelta(d)) =
                self.faults.trip(&format!("fused.dram{}", self.start))
            {
                if d >= 0 {
                    read = read.saturating_add(d as u64);
                } else {
                    read = read.saturating_sub(d.unsigned_abs());
                }
            }
        }
        let dram = GroupDramReport {
            start: self.start,
            end: self.end,
            dram_bytes_read: read,
            dram_bytes_written: written,
            analytic_dram_bytes: self.analytic_dram_bytes,
        };
        if primary {
            self.telemetry.add("fused.dram_bytes_read", read);
            self.telemetry.add("fused.dram_bytes_written", written);
            self.telemetry.add("fused.dram_delta", dram.delta());
        }
        Ok(GroupRunResult {
            output: out,
            dram,
            fallback: None,
        })
    }

    /// Computes output rows `[o0, o1)` of stage `i` from its window,
    /// returning them channel-major (`C_out·W_out` values per row).
    /// `primary` gates pool-level fault injection: a fallback re-run must
    /// never re-trip the injector that degraded the fused attempt.
    #[allow(clippy::too_many_arguments)]
    fn produce_strip<T: RunnerElement>(
        &self,
        i: usize,
        window: &VecDeque<Vec<T>>,
        win_start: usize,
        o0: usize,
        o1: usize,
        force_direct: bool,
        primary: bool,
    ) -> Result<Vec<Vec<T>>, FusionError> {
        let st = &self.stages[i];
        let row_at = |r: usize| -> Result<&Vec<T>, FusionError> {
            window
                .get(r.checked_sub(win_start).ok_or_else(|| {
                    FusionError::Simulation(format!("stage {i}: row {r} evicted before use"))
                })?)
                .ok_or_else(|| {
                    FusionError::Simulation(format!("stage {i}: row {r} not yet resident"))
                })
        };
        match &st.op {
            StageOp::Conv(conv) => {
                // Worker-lane tracing for the fused path: spans read
                // `fused<group-start>/stage<i>/wino.gemm[k]` etc. The
                // profiler is rebuilt per strip only when telemetry is
                // live, so the disabled path stays allocation-free.
                let inject = primary && self.faults.is_enabled();
                let prof = if self.telemetry.is_enabled() || inject {
                    let p = PoolProfiler::new(
                        self.telemetry.clone(),
                        &format!("fused{}/stage{i}", self.start),
                    );
                    if inject {
                        p.with_faults(self.faults.clone())
                    } else {
                        p
                    }
                } else {
                    PoolProfiler::disabled()
                };
                self.conv_strip(st, conv, &row_at, o0, o1, &prof, force_direct)
            }
            StageOp::Pool(p) => {
                let iw = st.input.width;
                let geom = ConvGeometry::rect(st.input.height, iw, p.kernel, p.stride, p.pad)?;
                let lo = (o0 * p.stride).saturating_sub(p.pad);
                let inputs = (lo..st.rows_needed(o1))
                    .map(row_at)
                    .collect::<Result<Vec<_>, _>>()?;
                let out_w = st.output.width;
                (o0..o1)
                    .map(|o| {
                        let mut row = vec![T::zero(); st.output.channels * out_w];
                        for (ch, dst) in row.chunks_exact_mut(out_w).enumerate() {
                            ops::pool_row(dst, o, geom, p.kind, |h| {
                                &inputs[h - lo][ch * iw..][..iw]
                            });
                        }
                        Ok(row)
                    })
                    .collect()
            }
            StageOp::Lrn(params) => (o0..o1)
                .map(|o| {
                    let src = row_at(o)?;
                    let mut row = vec![T::zero(); src.len()];
                    ops::lrn_block(&mut row, src, st.input.width, *params);
                    Ok(row)
                })
                .collect(),
            StageOp::Relu => (o0..o1)
                .map(|o| {
                    let mut row = row_at(o)?.clone();
                    ops::relu_in_place(&mut row);
                    Ok(row)
                })
                .collect(),
        }
    }

    /// Strip-mined convolution: materializes the zero-padded input span
    /// for output rows `[o0, o1)` and runs the stage's fast kernel on it.
    /// Winograd strips start on multiples of the tile size `m`, so the
    /// strip's tile grid coincides with the whole image's and the result
    /// is bit-identical to an unfused call.
    #[allow(clippy::too_many_arguments)]
    fn conv_strip<'w, T: RunnerElement + 'w>(
        &self,
        st: &RunnerStage,
        conv: &ConvStage,
        row_at: &impl Fn(usize) -> Result<&'w Vec<T>, FusionError>,
        o0: usize,
        o1: usize,
        prof: &PoolProfiler,
        force_direct: bool,
    ) -> Result<Vec<Vec<T>>, FusionError> {
        let c = conv.conv.params();
        let (ih, iw) = (st.input.height, st.input.width);
        let in_c = st.input.channels;
        // Padded coordinates: rows `[o0·s, (o1-1)·s + K)`, width `W+2p`.
        let pr0 = o0 * c.stride;
        let pr1 = (o1 - 1) * c.stride + c.kernel;
        let span = pr1 - pr0;
        let pw = iw + 2 * c.pad;
        let mut strip = Tensor::zeros(1, in_c, span, pw);
        for pr in pr0..pr1 {
            let r = pr as isize - c.pad as isize;
            if r < 0 || r as usize >= ih {
                continue; // vertical padding stays zero
            }
            let row = row_at(r as usize)?;
            let dst = strip.as_mut_slice();
            for ch in 0..in_c {
                let off = (ch * span + (pr - pr0)) * pw + c.pad;
                dst[off..off + iw].copy_from_slice(&row[ch * iw..(ch + 1) * iw]);
            }
        }
        let geom = ConvGeometry::rect(span, pw, c.kernel, c.stride, 0)?;
        let strip_out = T::run_conv(conv, &strip, geom, self.threads, prof, force_direct)?;
        let (out_c, out_w) = (st.output.channels, st.output.width);
        let strip_rows = o1 - o0;
        let src = strip_out.as_slice();
        let mut rows = Vec::with_capacity(strip_rows);
        for o in 0..strip_rows {
            let mut row = vec![T::zero(); out_c * out_w];
            for ch in 0..out_c {
                let off = (ch * strip_rows + o) * out_w;
                row[ch * out_w..(ch + 1) * out_w].copy_from_slice(&src[off..off + out_w]);
            }
            rows.push(row);
        }
        Ok(rows)
    }
}

impl ConvStage {
    /// Quantizes a conv layer's kernels, picks the `f32` preparation its
    /// strips compute with, and derives the weight-stream bytes the
    /// plan's datapath implies.
    ///
    /// Which datapath *computes* a layer is independent of the stream
    /// the plan's algorithm *meters*: a Winograd-planned 5×5 layer
    /// computes direct while metering the α² stream, and a
    /// conventional-planned 3×3 layer computes on the shared Winograd
    /// bank while metering the raw K² stream — exactly what the
    /// executor runs, so the fused/executor comparison times identical
    /// kernels. A sparse-planned layer is the exception: its pruned
    /// coefficients change the computed values, so the stage shares the
    /// preparation only when it is pruned at the plan's density, and
    /// prepares its own pruned bank otherwise.
    fn lower(
        c: &ConvParams,
        kernels: &Tensor<f32>,
        input: FmShape,
        algorithm: Algorithm,
        shared: &Arc<PreparedConv>,
    ) -> Result<Self, FusionError> {
        let groups = c.groups.max(1);
        let cg = c.channels_per_group(input.channels);
        let ng = c.num_output / groups;
        let kernels_fix = (0..groups)
            .map(|g| kernels.slice_channels_n(g * ng, (g + 1) * ng).cast())
            .collect();
        let conv = match (algorithm, shared.density_pm()) {
            (Algorithm::SparseWinograd { density_pm, .. }, kept) if kept != Some(density_pm) => {
                Arc::new(PreparedConv::new(
                    c,
                    kernels,
                    ExecAlgo::Sparse { density_pm },
                )?)
            }
            (Algorithm::SparseWinograd { .. }, _) | (_, None) => Arc::clone(shared),
            (_, Some(_)) => {
                return Err(FusionError::InvalidGroup(format!(
                    "a {algorithm} layer cannot share a pruned preparation"
                )))
            }
        };
        let dtype_bytes = DataType::Fixed16.bytes() as u64;
        let weight_stream_bytes = match algorithm {
            Algorithm::Conventional => kernels.as_slice().len() as u64 * dtype_bytes,
            Algorithm::Winograd { m } => {
                // The plan streams the transformed α² coefficients.
                let alpha = (m + c.kernel - 1) as u64;
                c.num_output as u64 * cg as u64 * alpha * alpha * dtype_bytes
            }
            Algorithm::SparseWinograd { m, density_pm } => {
                // Nonzero coefficients plus CSR index metadata, via the
                // same formula the DP's cost model budgets with — exact
                // reconciliation depends on both sides sharing it.
                let alpha = (m + c.kernel - 1) as u64;
                groups as u64
                    * winofuse_fpga::engine::sparse_stream_bytes(
                        ng as u64, cg as u64, alpha, density_pm,
                    )
            }
        };
        Ok(ConvStage {
            kernels_fix,
            conv,
            weight_stream_bytes,
        })
    }
}

/// One fusion group of an execution plan, as handed to
/// [`FusedNetworkRunner::new`].
pub struct GroupSpec<'a> {
    /// Network index of the group's first layer.
    pub start: usize,
    /// Resolved member-layer configurations, in forward order.
    pub configs: &'a [LayerConfig],
    /// The DP's analytic transfer budget for the group; `None` derives
    /// the budget from the configs themselves.
    pub analytic_dram_bytes: Option<u64>,
}

/// Chains one [`FusedGroupRunner`] per fusion group into a whole-network
/// streaming run: each group's output feature maps become the next
/// group's DRAM-resident input, exactly the strategy the DP partitioned.
pub struct FusedNetworkRunner {
    groups: Vec<FusedGroupRunner>,
    telemetry: Telemetry,
}

impl FusedNetworkRunner {
    /// Lowers one group runner per spec onto `prepared` (see
    /// [`FusedGroupRunner::new`]) and validates the chain (each group
    /// must start where the previous one ended, with matching shapes).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FusedGroupRunner::new`], plus
    /// [`FusionError::InvalidGroup`] for a broken chain.
    pub fn new(
        net: &Network,
        weights: &NetworkWeights,
        prepared: &PreparedNetwork,
        specs: &[GroupSpec<'_>],
    ) -> Result<Self, FusionError> {
        if specs.is_empty() {
            return Err(FusionError::InvalidGroup("plan has no groups".into()));
        }
        let mut groups = Vec::with_capacity(specs.len());
        for spec in specs {
            let mut runner =
                FusedGroupRunner::new(net, spec.start, spec.configs, weights, prepared)?;
            if let Some(bytes) = spec.analytic_dram_bytes {
                runner = runner.with_analytic_budget(bytes);
            }
            groups.push(runner);
        }
        for pair in groups.windows(2) {
            if pair[0].end() != pair[1].start() || pair[0].output_shape() != pair[1].input_shape() {
                return Err(FusionError::InvalidGroup(format!(
                    "group ending at layer {} ({}) does not feed group starting at layer {} ({})",
                    pair[0].end(),
                    pair[0].output_shape(),
                    pair[1].start(),
                    pair[1].input_shape()
                )));
            }
        }
        Ok(FusedNetworkRunner {
            groups,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Sets the worker-thread count for every group's kernels.
    pub fn with_threads(mut self, threads: usize) -> Self {
        for g in &mut self.groups {
            g.threads = threads;
        }
        self
    }

    /// Selects strict (the default) or lenient fault handling for every
    /// group.
    pub fn with_fault_mode(mut self, mode: FaultMode) -> Self {
        for g in &mut self.groups {
            g.fault_mode = mode;
        }
        self
    }

    /// Attaches a deterministic fault injector to every group.
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        for g in &mut self.groups {
            g.faults = faults.clone();
        }
        self
    }

    /// Attaches an observability context (`fused.*` counters) to the
    /// runner and every group.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        for g in &mut self.groups {
            g.telemetry = telemetry.clone();
        }
        self.telemetry = telemetry;
        self
    }

    /// The group runners, in network order.
    pub fn groups(&self) -> &[FusedGroupRunner] {
        &self.groups
    }

    /// The plan's input feature-map shape.
    pub fn input_shape(&self) -> FmShape {
        self.groups[0].input_shape()
    }

    /// The plan's output feature-map shape.
    pub fn output_shape(&self) -> FmShape {
        self.groups
            .last()
            .expect("invariant: constructor rejects empty plans")
            .output_shape()
    }

    /// Streams one `f32` frame through every group in order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FusedGroupRunner::run`].
    pub fn run(&self, input: &Tensor<f32>) -> Result<FusedRunReport<f32>, FusionError> {
        self.run_generic(input, FusedGroupRunner::run)
    }

    /// Streams one fixed-point frame through every group in order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FusedGroupRunner::run`].
    pub fn run_fix16(&self, input: &Tensor<Fix16>) -> Result<FusedRunReport<Fix16>, FusionError> {
        self.run_generic(input, FusedGroupRunner::run_fix16)
    }

    /// The batched fused entry: streams every frame of an `n ≥ 1` batch
    /// through the plan and stacks the outputs. The line-buffer datapath
    /// itself is single-frame (the paper's architecture holds one
    /// pyramid in flight), so frames run sequentially — what the batch
    /// amortizes is everything *around* the datapath: the plan lowering,
    /// the packed kernel banks, and per-invocation scheduling overhead,
    /// all paid once per runner rather than once per request. Frame
    /// order is preserved, and each frame's output and DRAM accounting
    /// are bit-identical to a [`FusedNetworkRunner::run`] of that frame
    /// alone.
    ///
    /// Counts one `fused.frames` per frame plus one `fused.batches`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FusedNetworkRunner::run`]; the first failing
    /// frame aborts the batch.
    pub fn run_batch(&self, input: &Tensor<f32>) -> Result<FusedBatchReport<f32>, FusionError> {
        let batch = input.n();
        if batch == 0 {
            return Err(FusionError::InvalidGroup("empty batch".into()));
        }
        let shape = self.output_shape();
        let mut output = Tensor::zeros(batch, shape.channels, shape.height, shape.width);
        let mut frames = Vec::with_capacity(batch);
        let mut fallbacks = Vec::new();
        for b in 0..batch {
            let r = self.run(&input.frame(b))?;
            output.write_frame(b, &r.output);
            frames.push(r.groups);
            fallbacks.extend(r.fallbacks);
        }
        self.telemetry.add("fused.batches", 1);
        Ok(FusedBatchReport {
            output,
            frames,
            fallbacks,
        })
    }

    fn run_generic<T: Scalar>(
        &self,
        input: &Tensor<T>,
        run_group: impl Fn(&FusedGroupRunner, &Tensor<T>) -> Result<GroupRunResult<T>, FusionError>,
    ) -> Result<FusedRunReport<T>, FusionError> {
        let mut reports = Vec::with_capacity(self.groups.len());
        let mut fallbacks = Vec::new();
        let mut cur = input.clone();
        for g in &self.groups {
            let r = run_group(g, &cur)?;
            reports.push(r.dram);
            if let Some(fb) = r.fallback {
                fallbacks.push(fb);
            }
            cur = r.output;
        }
        self.telemetry.add("fused.frames", 1);
        self.telemetry.add("fused.groups", reports.len() as u64);
        Ok(FusedRunReport {
            output: cur,
            groups: reports,
            fallbacks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winofuse_conv::tensor::random_tensor;
    use winofuse_fpga::engine::EngineConfig;
    use winofuse_model::runtime::{forward, forward_fix16};
    use winofuse_model::zoo;

    fn prepared(net: &Network, weights: &NetworkWeights) -> PreparedNetwork {
        PreparedNetwork::new(net, weights, ExecAlgo::Auto).unwrap()
    }

    /// The group runner over `configs` starting at `start`, lowered
    /// from a fresh `Auto` preparation of `net`.
    fn group_runner(
        net: &Network,
        start: usize,
        configs: &[LayerConfig],
        weights: &NetworkWeights,
    ) -> Result<FusedGroupRunner, FusionError> {
        FusedGroupRunner::new(net, start, configs, weights, &prepared(net, weights))
    }

    fn configs_for(
        net: &Network,
        range: std::ops::Range<usize>,
        algo: Algorithm,
    ) -> Vec<LayerConfig> {
        range
            .map(|i| {
                LayerConfig::build(
                    net,
                    i,
                    EngineConfig {
                        algorithm: algo,
                        parallelism: 8,
                    },
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn fused_group_matches_forward_small_net() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 31).unwrap();
        let x = random_tensor(1, 3, 32, 32, 32);
        let reference = forward(&net, &weights, &x).unwrap();
        let configs = configs_for(&net, 0..net.len(), Algorithm::Conventional);
        let runner = group_runner(&net, 0, &configs, &weights)
            .unwrap()
            .with_threads(2);
        let r = runner.run(&x).unwrap();
        assert!(r.output.approx_eq(reference.last().unwrap(), 1e-4));
        // Strict default in debug already enforces this, but pin it.
        assert_eq!(r.dram.delta(), 0, "measured DRAM must match analytic");
        assert_eq!(
            r.dram.dram_bytes_written,
            runner.output_shape().bytes(DataType::Fixed16) as u64
        );
    }

    #[test]
    fn fused_group_matches_forward_mixed_net() {
        // Average pooling + LRN exercise the scalar-faithful row paths.
        let net = zoo::mixed_test_net();
        let weights = NetworkWeights::random(&net, 33).unwrap();
        let x = random_tensor(1, 4, 24, 24, 34);
        let reference = forward(&net, &weights, &x).unwrap();
        let configs = configs_for(&net, 0..net.len(), Algorithm::Conventional);
        let runner = group_runner(&net, 0, &configs, &weights).unwrap();
        let r = runner.run(&x).unwrap();
        assert!(r.output.approx_eq(reference.last().unwrap(), 1e-4));
        assert_eq!(r.dram.delta(), 0);
    }

    #[test]
    fn partial_group_matches_reference_prefix() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 5).unwrap();
        let x = random_tensor(1, 3, 32, 32, 6);
        let reference = forward(&net, &weights, &x).unwrap();
        let configs = configs_for(&net, 0..2, Algorithm::Conventional);
        let r = group_runner(&net, 0, &configs, &weights)
            .unwrap()
            .run(&x)
            .unwrap();
        assert!(r.output.approx_eq(&reference[1], 1e-4));
    }

    #[test]
    fn mid_network_group_runs_from_intermediate_input() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 15).unwrap();
        let x = random_tensor(1, 3, 32, 32, 16);
        let reference = forward(&net, &weights, &x).unwrap();
        let configs = configs_for(&net, 1..4, Algorithm::Conventional);
        let r = group_runner(&net, 1, &configs, &weights)
            .unwrap()
            .run(&reference[0])
            .unwrap();
        assert!(r.output.approx_eq(reference.last().unwrap(), 1e-4));
    }

    #[test]
    fn max_pool_resolves_signed_zero_and_nan_like_the_reference() {
        let net = Network::builder("pool", FmShape::new(1, 2, 4))
            .pool("p", PoolParams::max2x2())
            .build()
            .unwrap();
        let weights = NetworkWeights::random(&net, 1).unwrap();
        let x = Tensor::from_vec(
            1,
            1,
            2,
            4,
            vec![-0.0, 0.0, 1.0, 2.0, 0.0, -0.0, 3.0, f32::NAN],
        )
        .unwrap();
        let gold = forward(&net, &weights, &x).unwrap().remove(0);
        let bits = |t: &Tensor<f32>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&gold), [(-0.0f32).to_bits(), f32::NAN.to_bits()]);
        let configs = configs_for(&net, 0..1, Algorithm::Conventional);
        let r = group_runner(&net, 0, &configs, &weights)
            .unwrap()
            .run(&x)
            .unwrap();
        assert_eq!(bits(&r.output), bits(&gold));
    }

    #[test]
    fn winograd_planned_group_matches_forward() {
        // 3x3 stride-1 convs: the plan's Winograd choice engages the
        // batched F(4,3) banks, and the streamed weight bytes grow to
        // the transformed alpha^2 size the analytic budget expects.
        let net = Network::builder("wino", FmShape::new(3, 20, 20))
            .conv("c0", ConvParams::new(8, 3, 1, 1, true))
            .conv("c1", ConvParams::new(8, 3, 1, 1, false))
            .build()
            .unwrap();
        let weights = NetworkWeights::random(&net, 35).unwrap();
        let x = random_tensor(1, 3, 20, 20, 36);
        let reference = forward(&net, &weights, &x).unwrap();
        let configs = configs_for(&net, 0..net.len(), Algorithm::Winograd { m: 4 });
        let runner = group_runner(&net, 0, &configs, &weights).unwrap();
        let r = runner.run(&x).unwrap();
        assert!(r.output.approx_eq(reference.last().unwrap(), 1e-3));
        assert_eq!(r.dram.delta(), 0);
        // alpha^2 = 36 coefficients per filter plane vs 9 raw.
        let raw: u64 = configs_for(&net, 0..net.len(), Algorithm::Conventional)
            .iter()
            .map(|c| c.weight_bytes)
            .sum();
        let wino: u64 = configs.iter().map(|c| c.weight_bytes).sum();
        assert_eq!(wino, raw * 4);
    }

    #[test]
    fn sparse_planned_group_reconciles_dram_exactly() {
        // A sparse-planned group streams pruned coefficients plus CSR
        // index metadata; the measured bytes must still reconcile
        // against the DP's analytic budget to the byte in strict mode.
        let net = Network::builder("sparse", FmShape::new(3, 20, 20))
            .conv("c0", ConvParams::new(8, 3, 1, 1, true))
            .conv("c1", ConvParams::new(8, 3, 1, 1, false))
            .build()
            .unwrap();
        let weights = NetworkWeights::random(&net, 91).unwrap();
        let x = random_tensor(1, 3, 20, 20, 92);
        let algo = Algorithm::sparse_f43(250);
        let configs = configs_for(&net, 0..net.len(), algo);
        let runner = group_runner(&net, 0, &configs, &weights)
            .unwrap()
            .with_fault_mode(FaultMode::Strict);
        let r = runner.run(&x).unwrap();
        assert_eq!(r.dram.delta(), 0, "sparse stream must reconcile exactly");
        // Quarter density: the sparse stream is strictly smaller than
        // the dense transformed stream despite the index overhead.
        let dense: u64 = configs_for(&net, 0..net.len(), Algorithm::Winograd { m: 4 })
            .iter()
            .map(|c| c.weight_bytes)
            .sum();
        let sparse: u64 = configs.iter().map(|c| c.weight_bytes).sum();
        assert!(sparse < dense, "sparse {sparse} vs dense {dense}");
        // The computed output is the pruned forward — it must match the
        // unfused sparse executor, not the dense reference.
        let exec = winofuse_model::runtime::NetworkExecutor::with_algo(
            &net,
            &weights,
            winofuse_model::runtime::ExecAlgo::Sparse { density_pm: 250 },
        )
        .unwrap();
        let unfused = exec.run(&x).unwrap();
        assert!(r.output.approx_eq(&unfused, 1e-4));
    }

    #[test]
    fn sparse_full_density_group_matches_dense_plan_bits() {
        let net = Network::builder("sparse1000", FmShape::new(3, 20, 20))
            .conv("c0", ConvParams::new(8, 3, 1, 1, true))
            .build()
            .unwrap();
        let weights = NetworkWeights::random(&net, 93).unwrap();
        let x = random_tensor(1, 3, 20, 20, 94);
        let sparse = configs_for(&net, 0..net.len(), Algorithm::sparse_f43(1000));
        let dense = configs_for(&net, 0..net.len(), Algorithm::Winograd { m: 4 });
        let rs = group_runner(&net, 0, &sparse, &weights)
            .unwrap()
            .run(&x)
            .unwrap();
        let rd = group_runner(&net, 0, &dense, &weights)
            .unwrap()
            .run(&x)
            .unwrap();
        // Density 1000 prunes nothing, so the stage's bank is the dense
        // one and the outputs agree bit for bit.
        assert_eq!(rs.output, rd.output);
        assert_eq!(rs.dram.delta(), 0);
    }

    #[test]
    fn grouped_conv_group_matches_forward() {
        let net = Network::builder("grouped", FmShape::new(4, 16, 16))
            .conv("c0", ConvParams::new(8, 3, 1, 1, true))
            .conv("c1", ConvParams::new(8, 3, 1, 1, false).with_groups(2))
            .build()
            .unwrap();
        let weights = NetworkWeights::random(&net, 41).unwrap();
        let x = random_tensor(1, 4, 16, 16, 42);
        let reference = forward(&net, &weights, &x).unwrap();
        let configs = configs_for(&net, 0..net.len(), Algorithm::Conventional);
        let runner = group_runner(&net, 0, &configs, &weights).unwrap();
        let r = runner.run(&x).unwrap();
        assert!(r.output.approx_eq(reference.last().unwrap(), 1e-4));
        assert_eq!(r.dram.delta(), 0);
    }

    #[test]
    fn fix16_run_is_bit_exact_against_reference() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 51).unwrap();
        let xf = random_tensor(1, 3, 32, 32, 52);
        let x: Tensor<Fix16> = xf.cast();
        let reference = forward_fix16(&net, &weights, &x, 2).unwrap();
        let configs = configs_for(&net, 0..net.len(), Algorithm::Conventional);
        let runner = group_runner(&net, 0, &configs, &weights)
            .unwrap()
            .with_threads(2);
        let r = runner.run_fix16(&x).unwrap();
        assert_eq!(&r.output, reference.last().unwrap());
        assert_eq!(r.dram.delta(), 0);
    }

    #[test]
    fn thread_count_does_not_change_f32_bits() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 61).unwrap();
        let x = random_tensor(1, 3, 32, 32, 62);
        let configs = configs_for(&net, 0..net.len(), Algorithm::Conventional);
        let r1 = group_runner(&net, 0, &configs, &weights)
            .unwrap()
            .with_threads(1)
            .run(&x)
            .unwrap();
        let r4 = group_runner(&net, 0, &configs, &weights)
            .unwrap()
            .with_threads(4)
            .run(&x)
            .unwrap();
        assert_eq!(r1.output, r4.output);
    }

    #[test]
    fn network_runner_chains_groups() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 71).unwrap();
        let x = random_tensor(1, 3, 32, 32, 72);
        let reference = forward(&net, &weights, &x).unwrap();
        let head = configs_for(&net, 0..2, Algorithm::Conventional);
        let tail = configs_for(&net, 2..net.len(), Algorithm::Conventional);
        let specs = [
            GroupSpec {
                start: 0,
                configs: &head,
                analytic_dram_bytes: None,
            },
            GroupSpec {
                start: 2,
                configs: &tail,
                analytic_dram_bytes: None,
            },
        ];
        let runner =
            FusedNetworkRunner::new(&net, &weights, &prepared(&net, &weights), &specs).unwrap();
        let report = runner.run(&x).unwrap();
        assert!(report.output.approx_eq(reference.last().unwrap(), 1e-4));
        assert_eq!(report.groups.len(), 2);
        assert_eq!(report.max_dram_delta(), 0);
        // The seam feature map is counted twice (stored then reloaded)
        // exactly as the DP's per-group accounting does.
        let seam = head.last().unwrap().output.bytes(DataType::Fixed16) as u64;
        let weights_bytes: u64 = head.iter().chain(tail.iter()).map(|c| c.weight_bytes).sum();
        let fmap_io = x.as_slice().len() as u64 * 2 + report.output.as_slice().len() as u64 * 2;
        assert_eq!(
            report.measured_dram_bytes(),
            fmap_io + 2 * seam + weights_bytes
        );
    }

    #[test]
    fn batched_entry_is_bit_identical_to_per_frame_runs() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 91).unwrap();
        let configs = configs_for(&net, 0..net.len(), Algorithm::Conventional);
        let specs = [GroupSpec {
            start: 0,
            configs: &configs,
            analytic_dram_bytes: None,
        }];
        let runner =
            FusedNetworkRunner::new(&net, &weights, &prepared(&net, &weights), &specs).unwrap();
        let frames: Vec<_> = (0..3)
            .map(|i| random_tensor(1, 3, 32, 32, 92 + i))
            .collect();
        let batch = Tensor::concat_frames(&frames).unwrap();
        let report = runner.run_batch(&batch).unwrap();
        assert_eq!(report.output.n(), 3);
        assert_eq!(report.frames.len(), 3);
        assert!(report.fallbacks.is_empty());
        for (b, frame) in frames.iter().enumerate() {
            let solo = runner.run(frame).unwrap();
            assert_eq!(report.output.frame(b), solo.output, "frame {b} diverged");
            assert_eq!(report.frames[b], solo.groups);
        }
        assert_eq!(report.max_dram_delta(), 0);
        assert!(runner.run_batch(&Tensor::zeros(0, 3, 32, 32)).is_err());
    }

    #[test]
    fn strict_mode_rejects_wrong_budget() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 81).unwrap();
        let x = random_tensor(1, 3, 32, 32, 82);
        let configs = configs_for(&net, 0..net.len(), Algorithm::Conventional);
        let runner = group_runner(&net, 0, &configs, &weights)
            .unwrap()
            .with_analytic_budget(1)
            .with_fault_mode(FaultMode::Strict);
        match runner.run(&x) {
            Err(FusionError::DramMismatch {
                start, analytic, ..
            }) => {
                assert_eq!(start, 0);
                assert_eq!(analytic, 1);
            }
            other => panic!("expected DramMismatch, got {other:?}"),
        }
    }

    #[test]
    fn lenient_mode_records_delta_and_degrades_to_unfused() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 91).unwrap();
        let x = random_tensor(1, 3, 32, 32, 92);
        let reference = forward(&net, &weights, &x).unwrap();
        let configs = configs_for(&net, 0..net.len(), Algorithm::Conventional);
        let tel = Telemetry::enabled();
        let runner = group_runner(&net, 0, &configs, &weights)
            .unwrap()
            .with_analytic_budget(1)
            .with_fault_mode(FaultMode::Lenient)
            .with_telemetry(tel.clone());
        let r = runner.run(&x).unwrap();
        // The mismatch triggered the fallback rung: same output, with
        // the downgrade recorded on the result and in telemetry.
        assert!(r.output.approx_eq(reference.last().unwrap(), 1e-4));
        let fb = r.fallback.expect("lenient mismatch must fall back");
        assert_eq!(fb.start, 0);
        assert!(fb.reason.contains("dram reconciliation"));
        assert!(r.dram.delta() > 0, "wrong budget stays wrong on rerun");
        let summary = tel.summary();
        assert_eq!(
            summary.counters.get("fused.dram_delta").copied(),
            Some(r.dram.delta()),
            "primary attempt's delta is recorded exactly once"
        );
        assert_eq!(summary.counters.get("exec.fallbacks").copied(), Some(1));
        assert_eq!(
            summary
                .counters
                .get("exec.fallbacks.dram_mismatch")
                .copied(),
            Some(1)
        );
    }

    #[test]
    fn injected_dram_perturbation_falls_back_exactly() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 93).unwrap();
        let x = random_tensor(1, 3, 32, 32, 94);
        let configs = configs_for(&net, 0..net.len(), Algorithm::Conventional);
        let clean = group_runner(&net, 0, &configs, &weights)
            .unwrap()
            .run(&x)
            .unwrap();
        let faulty = || {
            let inj = FaultInjector::parse("dram:4096@fused.dram0#*").unwrap();
            let tel = Telemetry::enabled();
            let runner = group_runner(&net, 0, &configs, &weights)
                .unwrap()
                .with_faults(inj)
                .with_fault_mode(FaultMode::Lenient)
                .with_telemetry(tel.clone());
            (runner.run(&x).unwrap(), tel)
        };
        let (r, tel) = faulty();
        // The fallback rung pins the direct kernels while the clean
        // primary runs batched Winograd, so the recovered output agrees
        // within float tolerance — and recovery itself is deterministic:
        // a second faulty frame reproduces it bit-for-bit.
        assert!(r.output.approx_eq(&clean.output, 1e-4));
        assert_eq!(r.output, faulty().0.output, "fallback is deterministic");
        assert!(r.fallback.is_some());
        // The fallback re-run meters honestly (no re-injection).
        assert_eq!(r.dram.delta(), 0);
        assert_eq!(
            tel.summary().counters.get("exec.fallbacks").copied(),
            Some(1)
        );
    }

    #[test]
    fn strict_mode_surfaces_injected_group_panic_as_group_fault() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 95).unwrap();
        let x = random_tensor(1, 3, 32, 32, 96);
        let configs = configs_for(&net, 0..net.len(), Algorithm::Conventional);
        let inj = FaultInjector::parse("panic@fused.group0").unwrap();
        winofuse_runtime::faults::install_quiet_panic_hook();
        let runner = group_runner(&net, 0, &configs, &weights)
            .unwrap()
            .with_faults(inj)
            .with_fault_mode(FaultMode::Strict);
        match runner.run(&x) {
            Err(FusionError::GroupFault { start, reason }) => {
                assert_eq!(start, 0);
                assert!(reason.contains("injected"), "reason: {reason}");
            }
            other => panic!("expected GroupFault, got {:?}", other.map(|r| r.dram)),
        }
    }

    #[test]
    fn lenient_mode_recovers_injected_group_panic_exactly() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 97).unwrap();
        let x = random_tensor(1, 3, 32, 32, 98);
        let configs = configs_for(&net, 0..net.len(), Algorithm::Conventional);
        let clean = group_runner(&net, 0, &configs, &weights)
            .unwrap()
            .run(&x)
            .unwrap();
        winofuse_runtime::faults::install_quiet_panic_hook();
        let faulty = || {
            let inj = FaultInjector::parse("panic@fused.group0").unwrap();
            let tel = Telemetry::enabled();
            let runner = group_runner(&net, 0, &configs, &weights)
                .unwrap()
                .with_faults(inj)
                .with_fault_mode(FaultMode::Lenient)
                .with_telemetry(tel.clone());
            (runner.run(&x).unwrap(), tel)
        };
        let (r, tel) = faulty();
        // Direct-kernel recovery vs Winograd primary: float tolerance
        // against the clean frame, bitwise determinism across recoveries.
        assert!(r.output.approx_eq(&clean.output, 1e-4));
        assert_eq!(r.output, faulty().0.output, "fallback is deterministic");
        assert!(r.fallback.unwrap().reason.contains("injected"));
        assert_eq!(
            tel.summary().counters.get("exec.fallbacks.panic").copied(),
            Some(1)
        );
    }

    #[test]
    fn rejects_fc_layers_and_bad_chains() {
        let net = zoo::alexnet();
        let weights = NetworkWeights::random(&net, 95).unwrap();
        // Find the first FC layer and try to fuse it.
        let fc = net
            .layers()
            .iter()
            .position(|l| matches!(l.kind, LayerKind::Fc(_)))
            .unwrap();
        let cfg = LayerConfig::build(
            &net,
            fc,
            EngineConfig {
                algorithm: Algorithm::Conventional,
                parallelism: 4,
            },
        );
        // FC layers have no fusion config at all, or the runner rejects
        // them; either way the plan cannot host them.
        let prepared = prepared(&net, &weights);
        if let Ok(cfg) = cfg {
            let cfgs = std::slice::from_ref(&cfg);
            let err = FusedGroupRunner::new(&net, fc, cfgs, &weights, &prepared);
            assert!(err.is_err());
        }
        // Empty group.
        assert!(FusedGroupRunner::new(&net, 0, &[], &weights, &prepared).is_err());
    }

    #[test]
    fn rejects_mismatched_input_shape() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 97).unwrap();
        let configs = configs_for(&net, 0..net.len(), Algorithm::Conventional);
        let runner = group_runner(&net, 0, &configs, &weights).unwrap();
        let bad = random_tensor(1, 3, 16, 16, 98);
        assert!(matches!(runner.run(&bad), Err(FusionError::Simulation(_))));
    }
}
