//! Cycle-approximate timing simulation of a fusion group.
//!
//! The simulator replays a fused layer stack the way the hardware
//! schedules it: rows stream from DRAM into the first layer's circular
//! line buffer, each layer produces an output row as soon as its window is
//! resident, rows flow to the next layer through FIFO channels, and only
//! the last layer's rows return to DRAM. It models *time* only — an
//! event-driven latency estimate whose per-row phase costs come from the
//! analytic engine models, while inter-layer dependencies, pipeline fill
//! and backpressure emerge from the dataflow itself. The analytic
//! [`crate::pipeline::group_timing`] is cross-checked against this
//! simulation in the tests.
//!
//! A stage's line buffer is a [`LineBuffer`] residency window: row
//! counters, no values. Before a stage produces a row it checks that
//! every row of the window is still resident, and a producer may not push
//! a row that would evict data its consumer still needs — exactly why the
//! paper sizes the buffer at `K + S` rows (§4.2). The values a fused group
//! computes come from the plan-faithful [`crate::runner`], which is
//! checked against the layer-by-layer executor (see
//! `Framework::validate_by_simulation` in `winofuse-core`).

use std::collections::VecDeque;

use winofuse_model::network::Network;
use winofuse_model::shape::DataType;
use winofuse_telemetry::{Telemetry, PID_SIM};

use crate::line_buffer::LineBuffer;
use crate::pipeline::LayerConfig;
use crate::pyramid::SpatialSpec;
use crate::FusionError;

/// Timing of one frame through a fused group.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// End-to-end cycles for the frame (load of first row to store of
    /// last).
    pub cycles: u64,
    /// Bytes read from DRAM (group input + streamed weights).
    pub dram_bytes_read: u64,
    /// Bytes written to DRAM (group output).
    pub dram_bytes_written: u64,
    /// Number of producer stalls caused by line-buffer backpressure:
    /// rows that arrived at a stage (or at the DRAM feed FIFO) and had
    /// to wait at least one event-loop step before the consumer's line
    /// buffer could take them. Each stalled row counts exactly once,
    /// however long it waits.
    pub backpressure_stalls: u64,
    /// Per-stage busy intervals `[start, end)` in cycles, in forward
    /// layer order — the raw data behind occupancy analysis and the VCD
    /// waveform dump ([`crate::vcd`]).
    pub stage_activity: Vec<Vec<(u64, u64)>>,
    /// Layer names, aligned with `stage_activity`.
    pub stage_names: Vec<String>,
}

impl SimResult {
    /// Fraction of the total span each stage spent busy (occupancy), in
    /// forward layer order. An empty frame (zero-cycle span) has zero
    /// occupancy everywhere.
    pub fn stage_occupancy(&self) -> Vec<f64> {
        if self.cycles == 0 {
            return vec![0.0; self.stage_activity.len()];
        }
        self.stage_activity
            .iter()
            .map(|iv| {
                let busy: u64 = iv.iter().map(|(s, e)| e - s).sum();
                busy as f64 / self.cycles as f64
            })
            .collect()
    }
}

/// Per-layer streaming state.
struct StageState {
    name: String,
    in_height: usize,
    out_height: usize,
    buffer: LineBuffer,
    /// Rows of output produced so far.
    out_rows_done: usize,
    /// Compute cycles charged per output row.
    compute_per_row: u64,
    /// Cycle at which this stage's engine frees up.
    busy_until: u64,
    /// Window/stride/pad for dependency math.
    window: SpatialSpec,
}

impl StageState {
    /// First input row still needed for the *next* unproduced output row.
    fn needed_input_start(&self) -> usize {
        (self.out_rows_done * self.window.stride).saturating_sub(self.window.pad)
    }

    /// Highest input row index (exclusive) required to produce output row
    /// `out_rows_done`, clamped to the real input height.
    fn needed_input_end(&self) -> usize {
        let want = self.out_rows_done * self.window.stride + self.window.kernel;
        let want = want.saturating_sub(self.window.pad);
        want.min(self.in_height)
    }

    fn can_accept_row(&self) -> bool {
        if self.buffer.rows_pushed() >= self.in_height {
            return false;
        }
        if self.buffer.rows_buffered() < self.buffer.depth() {
            return true;
        }
        // Pushing would evict the oldest row; allowed only if no longer
        // needed (backpressure otherwise).
        self.buffer.oldest_row() < self.needed_input_start()
    }

    fn can_produce(&self) -> bool {
        self.out_rows_done < self.out_height && self.buffer.rows_pushed() >= self.needed_input_end()
    }

    /// Produces the next output row once every row of its window is
    /// resident in the line buffer.
    fn produce(&mut self) -> Result<(), FusionError> {
        // The buffer retains one contiguous run of rows, so the window
        // is resident when both of its ends are.
        let (lo, hi) = (self.needed_input_start(), self.needed_input_end());
        if lo < hi && !(self.buffer.contains_row(lo) && self.buffer.contains_row(hi - 1)) {
            return Err(FusionError::Simulation(format!(
                "`{}`: window rows {lo}..{hi} not in buffer (retained: {}..{})",
                self.name,
                self.buffer.oldest_row(),
                self.buffer.rows_pushed()
            )));
        }
        self.out_rows_done += 1;
        Ok(())
    }
}

/// A configured fused-group timing simulator.
pub struct FusedGroupSim {
    stages: Vec<StageState>,
    load_cycles_per_row: u64,
    store_cycles_per_row: u64,
    input_rows: usize,
    output_rows: usize,
    dram_bytes_read: u64,
    dram_bytes_written: u64,
    /// Observability context; disabled by default (zero-cost).
    telemetry: Telemetry,
    /// First Chrome-trace lane (tid) for this group's stages.
    trace_tid_base: u64,
    /// Virtual-time offset applied to emitted slices, so consecutive
    /// frames (and groups) lay out sequentially on one timeline. Advances
    /// by each frame's span automatically.
    trace_ts_offset: u64,
}

impl FusedGroupSim {
    /// Builds a simulator for the group described by `configs` (resolved
    /// layer configurations for consecutive layers of `net` starting at
    /// `start`) on `device`'s DRAM bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::InvalidGroup`] for an empty group or a
    /// config that does not match its network layer.
    pub fn new(
        net: &Network,
        start: usize,
        configs: &[LayerConfig],
        device: &winofuse_fpga::device::FpgaDevice,
    ) -> Result<Self, FusionError> {
        if configs.is_empty() {
            return Err(FusionError::InvalidGroup("group has no layers".into()));
        }
        let dtype = DataType::Fixed16;
        let bpc = device.bytes_per_cycle();
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
            let window = SpatialSpec::of(&cfg.layer.kind);
            let out_rows = cfg.output.height as u64;
            let compute_per_row = cfg.estimate.compute_cycles.div_ceil(out_rows.max(1));
            let depth = cfg
                .estimate
                .line_buffer_rows
                .max(window.kernel + window.stride);
            stages.push(StageState {
                name: cfg.layer.name.clone(),
                in_height: cfg.input.height,
                out_height: cfg.output.height,
                buffer: LineBuffer::new(depth),
                out_rows_done: 0,
                compute_per_row,
                busy_until: 0,
                window,
            });
        }
        let first = &configs[0];
        let last = configs
            .last()
            .expect("invariant: configs checked nonempty above");
        let weight_bytes: u64 = configs.iter().map(|c| c.weight_bytes).sum();
        // Weight streaming shares the load channel: amortize over rows.
        let weight_per_row = weight_bytes / (first.input.height as u64).max(1);
        let load_cycles_per_row =
            ((first.input.row_bytes(dtype) as u64 + weight_per_row) as f64 / bpc).ceil() as u64;
        let store_cycles_per_row = (last.output.row_bytes(dtype) as f64 / bpc).ceil() as u64;
        Ok(FusedGroupSim {
            stages,
            load_cycles_per_row,
            store_cycles_per_row,
            input_rows: first.input.height,
            output_rows: last.output.height,
            dram_bytes_read: first.input.bytes(dtype) as u64 + weight_bytes,
            dram_bytes_written: last.output.bytes(dtype) as u64,
            telemetry: Telemetry::disabled(),
            trace_tid_base: 1,
            trace_ts_offset: 0,
        })
    }

    /// Attaches an observability context. Each stage gets a Chrome-trace
    /// lane starting at `tid_base` (named after its layer); subsequent
    /// [`FusedGroupSim::run`] calls emit one slice per busy interval in
    /// virtual (cycle) time starting at `ts_offset`, plus
    /// `sim.backpressure_stalls` / `sim.dram_bytes_*` counters.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, tid_base: u64, ts_offset: u64) {
        for (i, st) in self.stages.iter().enumerate() {
            telemetry.name_thread(PID_SIM, tid_base + i as u64, &st.name);
        }
        self.telemetry = telemetry;
        self.trace_tid_base = tid_base;
        self.trace_ts_offset = ts_offset;
    }

    /// The virtual-time offset the next frame's slices will start at.
    pub fn trace_ts_offset(&self) -> u64 {
        self.trace_ts_offset
    }

    /// Simulates one frame through the group from empty line buffers, so
    /// a simulator is reusable across frames.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::Simulation`] when a window row is not
    /// resident or the pipeline deadlocks — broken internal invariants.
    pub fn run(&mut self) -> Result<SimResult, FusionError> {
        for st in &mut self.stages {
            st.buffer = LineBuffer::new(st.buffer.depth());
            st.out_rows_done = 0;
            st.busy_until = 0;
        }
        let n_stages = self.stages.len();
        let mut stage_activity: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_stages];
        let mut dram_rows_loaded = 0usize;
        let mut out_rows_stored = 0usize;
        let mut stalls = 0u64;
        // Per-FIFO flag: the current head row has already been counted as
        // stalled. A blocked row stalls at most once no matter how many
        // event-loop spins pass before the consumer's line buffer frees
        // up (the counter tracks distinct stalled rows, not polls).
        let mut head_stalled = vec![false; n_stages];
        let mut finish: u64 = 0;
        // Rows queued between stage i-1 and stage i (or DRAM for stage 0),
        // as the times their producer made them available.
        let mut pending: Vec<VecDeque<u64>> = vec![VecDeque::new(); n_stages];

        loop {
            let mut progressed = false;

            // DRAM -> stage 0 feed. A deferred load (FIFO still occupied)
            // surfaces as a blocked head of `pending[0]` below, so no
            // stall accounting happens here.
            if dram_rows_loaded < self.input_rows && pending[0].is_empty() {
                dram_rows_loaded += 1;
                pending[0].push_back(dram_rows_loaded as u64 * self.load_cycles_per_row);
                progressed = true;
            }

            // Deliver pending rows into stage buffers (respecting
            // backpressure) and let each stage produce.
            for i in 0..n_stages {
                while !pending[i].is_empty() && self.stages[i].can_accept_row() {
                    let ready = pending[i].pop_front().expect("checked nonempty");
                    // The stage cannot start a row before its inputs exist.
                    let st = &mut self.stages[i];
                    st.buffer.push();
                    st.busy_until = st.busy_until.max(ready);
                    head_stalled[i] = false;
                    progressed = true;
                }
                if !pending[i].is_empty() && !head_stalled[i] {
                    // The head row arrived but the consumer's line buffer
                    // cannot take it without evicting data it still needs:
                    // one backpressure stall for this row.
                    stalls += 1;
                    head_stalled[i] = true;
                }
                while self.stages[i].can_produce() {
                    let st = &mut self.stages[i];
                    st.produce()?;
                    let start = st.busy_until;
                    let done = start + st.compute_per_row;
                    st.busy_until = done;
                    // Coalesce back-to-back rows into one interval.
                    match stage_activity[i].last_mut() {
                        Some(last) if last.1 == start => last.1 = done,
                        _ => stage_activity[i].push((start, done)),
                    }
                    if i + 1 < n_stages {
                        pending[i + 1].push_back(done);
                    } else {
                        // Store to DRAM.
                        out_rows_stored += 1;
                        finish = finish.max(done + self.store_cycles_per_row);
                    }
                    progressed = true;
                }
            }

            if out_rows_stored == self.output_rows {
                break;
            }
            if !progressed {
                return Err(FusionError::Simulation(format!(
                    "pipeline deadlock: {} of {} output rows stored",
                    out_rows_stored, self.output_rows
                )));
            }
        }

        let result = SimResult {
            cycles: finish,
            dram_bytes_read: self.dram_bytes_read,
            dram_bytes_written: self.dram_bytes_written,
            backpressure_stalls: stalls,
            stage_activity,
            stage_names: self.stages.iter().map(|st| st.name.clone()).collect(),
        };
        self.emit_telemetry(&result);
        Ok(result)
    }

    /// Re-emits a frame's busy intervals as Chrome-trace slices (1 cycle
    /// = 1 us in the viewer) and bumps the simulator counters. The next
    /// frame starts where this one ended on the virtual timeline.
    fn emit_telemetry(&mut self, result: &SimResult) {
        if !self.telemetry.is_enabled() {
            return;
        }
        for (i, intervals) in result.stage_activity.iter().enumerate() {
            let tid = self.trace_tid_base + i as u64;
            let name = &result.stage_names[i];
            for &(s, e) in intervals {
                self.telemetry
                    .slice("sim", name, tid, self.trace_ts_offset + s, e - s);
            }
        }
        self.trace_ts_offset += result.cycles;
        self.telemetry.add("sim.frames", 1);
        self.telemetry.add("sim.cycles", result.cycles);
        self.telemetry
            .add("sim.backpressure_stalls", result.backpressure_stalls);
        self.telemetry
            .add("sim.dram_bytes_read", result.dram_bytes_read);
        self.telemetry
            .add("sim.dram_bytes_written", result.dram_bytes_written);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{group_timing, LayerConfig};
    use winofuse_fpga::device::FpgaDevice;
    use winofuse_fpga::engine::{Algorithm, EngineConfig};
    use winofuse_model::layer::ConvParams;
    use winofuse_model::shape::FmShape;
    use winofuse_model::zoo;

    fn configs_with(
        net: &Network,
        range: std::ops::Range<usize>,
        engine: impl Fn(usize) -> EngineConfig,
    ) -> Vec<LayerConfig> {
        range
            .map(|i| LayerConfig::build(net, i, engine(i)).unwrap())
            .collect()
    }

    fn configs_for(net: &Network, range: std::ops::Range<usize>, p: usize) -> Vec<LayerConfig> {
        configs_with(net, range, |_| EngineConfig {
            algorithm: Algorithm::Conventional,
            parallelism: p,
        })
    }

    fn simulate(net: &Network, start: usize, configs: &[LayerConfig]) -> SimResult {
        FusedGroupSim::new(net, start, configs, &FpgaDevice::zc706())
            .unwrap()
            .run()
            .unwrap()
    }

    /// The two-conv group whose pad-2 producer bursts its last rows into
    /// a `K + S`-deep consumer buffer.
    fn backpressured_net(h: usize) -> Network {
        Network::builder("bp", FmShape::new(2, h, h))
            .conv("c0", ConvParams::new(4, 5, 1, 2, false))
            .conv("c1", ConvParams::new(4, 3, 1, 1, false))
            .build()
            .unwrap()
    }

    /// Per-stage interval counts and an FNV-1a hash over every interval
    /// endpoint, in stage order.
    fn activity_fingerprint(activity: &[Vec<(u64, u64)>]) -> (Vec<usize>, u64) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in activity
            .iter()
            .flat_map(|iv| iv.iter().flat_map(|&(s, e)| [s, e]))
        {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        (activity.iter().map(Vec::len).collect(), h)
    }

    /// `small_test_net` fully fused, conventional at p = 8.
    const PIN_SMALL: u64 = 0x3e85_2229_52fb_395a;
    /// `(height, cycles, interval counts, hash)` of the backpressured
    /// group at p = 4.
    const PIN_BACKPRESSURE: [(usize, u64, [usize; 2], u64); 2] = [
        (16, 14317, [1, 13], 0x98bd_7b55_9df7_d2da),
        (64, 210_850, [1, 61], 0xe563_0540_2262_092a),
    ];
    /// The engines of the VGG-E prefix's 2 MB design.
    const PIN_VGG_ENGINES: [EngineConfig; 7] = {
        const fn wino(parallelism: usize) -> EngineConfig {
            EngineConfig {
                algorithm: Algorithm::Winograd { m: 4 },
                parallelism,
            }
        }
        const CONV64: EngineConfig = EngineConfig {
            algorithm: Algorithm::Conventional,
            parallelism: 64,
        };
        [wino(1), wino(8), CONV64, wino(4), wino(8), CONV64, wino(4)]
    };
    /// `(cycles, interval counts, hash)` of that design's one group.
    const PIN_VGG: (u64, [usize; 7], u64) =
        (1_800_859, [1, 1, 111, 2, 2, 55, 2], 0x31a8_8974_a7a9_9c86);

    #[test]
    fn timing_is_pinned() {
        // Exact cycles, stalls and busy intervals of three groups: the
        // stall-free conv/conv/pool/conv stack, the backpressured pair,
        // and the VGG-E prefix's mixed Winograd/conventional group.
        let check = |r: &SimResult, cycles: u64, stalls: u64, counts: &[usize], hash: u64| {
            assert_eq!(r.cycles, cycles, "{:?}", r.stage_names);
            assert_eq!(r.backpressure_stalls, stalls, "{:?}", r.stage_names);
            assert_eq!(
                activity_fingerprint(&r.stage_activity),
                (counts.to_vec(), hash),
                "{:?}",
                r.stage_names
            );
        };
        let net = zoo::small_test_net();
        let r = simulate(&net, 0, &configs_for(&net, 0..net.len(), 8));
        check(&r, 43976, 0, &[1, 1, 8, 7], PIN_SMALL);
        assert_eq!(
            r.stage_activity,
            [
                vec![(33, 19233)],
                vec![(2433, 39297)],
                vec![
                    (7041, 7105),
                    (11649, 11713),
                    (16257, 16321),
                    (20865, 20929),
                    (25473, 25537),
                    (30081, 30145),
                    (34689, 34753),
                    (39297, 39361)
                ],
                vec![
                    (11713, 14017),
                    (16321, 18625),
                    (20929, 23233),
                    (25537, 27841),
                    (30145, 32449),
                    (34753, 37057),
                    (39361, 43969)
                ],
            ]
        );
        for (h, cycles, counts, hash) in PIN_BACKPRESSURE {
            let net = backpressured_net(h);
            let r = simulate(&net, 0, &configs_for(&net, 0..2, 4));
            check(&r, cycles, 1, &counts, hash);
        }
        // The VGG-E prefix's 2 MB design: one group of all seven layers.
        let net = zoo::vgg_e_fused_prefix();
        let configs = configs_with(&net, 0..net.len(), |i| PIN_VGG_ENGINES[i]);
        let r = simulate(&net, 0, &configs);
        check(&r, PIN_VGG.0, 0, &PIN_VGG.1, PIN_VGG.2);
    }

    #[test]
    fn dram_accounting_is_first_in_last_out() {
        let net = zoo::small_test_net();
        let configs = configs_for(&net, 0..net.len(), 4);
        let total_weight: u64 = configs.iter().map(|c| c.weight_bytes).sum();
        let r = simulate(&net, 0, &configs);
        assert_eq!(r.dram_bytes_read, (3 * 32 * 32 * 2) as u64 + total_weight);
        assert_eq!(r.dram_bytes_written, (16 * 8 * 8 * 2) as u64);
    }

    #[test]
    fn simulated_cycles_track_analytic_model() {
        let net = zoo::small_test_net();
        let dev = FpgaDevice::zc706();
        let configs = configs_for(&net, 0..net.len(), 8);
        let analytic = group_timing(&configs, &dev).unwrap();
        let r = simulate(&net, 0, &configs);
        // Two independent estimates of the same pipeline: agree within 2x.
        let ratio = r.cycles as f64 / analytic.latency as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "sim {} vs analytic {} (ratio {ratio})",
            r.cycles,
            analytic.latency
        );
    }

    #[test]
    fn starved_middle_stage_slows_the_whole_group() {
        let net = zoo::small_test_net();
        let fast = configs_for(&net, 0..net.len(), 16);
        let mut slow = configs_for(&net, 0..net.len(), 16);
        slow[1] = LayerConfig::build(
            &net,
            1,
            EngineConfig {
                algorithm: Algorithm::Conventional,
                parallelism: 1,
            },
        )
        .unwrap();
        let cf = simulate(&net, 0, &fast).cycles;
        let cs = simulate(&net, 0, &slow).cycles;
        assert!(cs > 3 * cf, "slow {cs} vs fast {cf}");
    }

    #[test]
    fn backpressure_stalls_count_rows_not_polls() {
        // A deliberately backpressured two-layer group: the producer's
        // pad-2 window unlocks its last three output rows in a single
        // event-loop step once the frame's final input row lands, while
        // the consumer's K+S-deep line buffer can only evict two rows
        // before it must wait for its own compute to advance. Exactly one
        // row waits at the FIFO head — one stall, independent of frame
        // height. (The old counter bumped once per event-loop poll, so
        // its value depended on scheduling, not on the dataflow.)
        for h in [16usize, 64] {
            let net = backpressured_net(h);
            let r = simulate(&net, 0, &configs_for(&net, 0..2, 4));
            assert_eq!(
                r.backpressure_stalls, 1,
                "height {h}: one row stalls at the inter-stage FIFO"
            );
        }
        // A group with no burst never stalls.
        let net = zoo::small_test_net();
        let r = simulate(&net, 0, &configs_for(&net, 0..net.len(), 4));
        assert_eq!(r.backpressure_stalls, 0);
    }

    #[test]
    fn simulator_is_reusable_across_frames() {
        let net = zoo::small_test_net();
        let configs = configs_for(&net, 0..net.len(), 8);
        let mut sim = FusedGroupSim::new(&net, 0, &configs, &FpgaDevice::zc706()).unwrap();
        let a = sim.run().unwrap();
        let b = sim.run().unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.backpressure_stalls, b.backpressure_stalls);
        assert_eq!(a.stage_activity, b.stage_activity);
    }

    #[test]
    fn rejects_configs_of_another_layer() {
        let net = zoo::small_test_net();
        let configs = configs_for(&net, 1..3, 4);
        let dev = FpgaDevice::zc706();
        assert!(matches!(
            FusedGroupSim::new(&net, 0, &configs, &dev),
            Err(FusionError::InvalidGroup(_))
        ));
        assert!(matches!(
            FusedGroupSim::new(&net, 0, &[], &dev),
            Err(FusionError::InvalidGroup(_))
        ));
    }

    #[test]
    fn evicted_window_row_is_a_typed_error() {
        // A 3-row window over a 2-deep buffer that already moved past
        // row 0: producing must fail loudly, not read stale rows.
        let mut buffer = LineBuffer::new(2);
        for _ in 0..3 {
            buffer.push();
        }
        let mut st = StageState {
            name: "c".into(),
            in_height: 8,
            out_height: 6,
            buffer,
            out_rows_done: 0,
            compute_per_row: 1,
            busy_until: 0,
            window: SpatialSpec {
                kernel: 3,
                stride: 1,
                pad: 0,
            },
        };
        assert!(st.can_produce());
        let err = st.produce().unwrap_err();
        assert!(matches!(err, FusionError::Simulation(_)), "{err}");
        assert!(err.to_string().contains("rows 0..3"), "{err}");
        assert_eq!(st.out_rows_done, 0);
    }

    #[test]
    fn stage_activity_is_recorded_and_well_formed() {
        let net = zoo::small_test_net();
        let r = simulate(&net, 0, &configs_for(&net, 0..net.len(), 8));
        assert_eq!(r.stage_activity.len(), net.len());
        assert_eq!(r.stage_names.len(), net.len());
        for (li, intervals) in r.stage_activity.iter().enumerate() {
            assert!(!intervals.is_empty(), "stage {li} never ran");
            // Intervals are ordered, non-overlapping, and within the span.
            for w in intervals.windows(2) {
                assert!(w[0].1 <= w[1].0, "stage {li} intervals overlap");
            }
            for &(s, e) in intervals {
                assert!(s < e && e <= r.cycles, "stage {li} interval out of span");
            }
        }
        let occ = r.stage_occupancy();
        assert!(occ.iter().all(|&o| (0.0..=1.0).contains(&o)));
        // The slowest stage should dominate the span.
        assert!(occ.iter().cloned().fold(0.0, f64::max) > 0.3);
    }

    #[test]
    fn empty_frame_has_zero_occupancy() {
        // A zero-cycle frame must report 0.0 for every stage rather than
        // dividing by the span.
        let r = SimResult {
            cycles: 0,
            dram_bytes_read: 0,
            dram_bytes_written: 0,
            backpressure_stalls: 0,
            stage_activity: vec![Vec::new(), Vec::new(), Vec::new()],
            stage_names: vec!["a".into(), "b".into(), "c".into()],
        };
        assert_eq!(r.stage_occupancy(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn telemetry_slices_match_stage_activity() {
        let net = zoo::small_test_net();
        let configs = configs_for(&net, 0..net.len(), 8);
        let mut sim = FusedGroupSim::new(&net, 0, &configs, &FpgaDevice::zc706()).unwrap();
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let tele = Telemetry::with_sink(Box::new(winofuse_telemetry::VecSink(events.clone())));
        sim.set_telemetry(tele.clone(), 10, 0);
        let r = sim.run().unwrap();
        let summary = tele.summary();
        assert_eq!(summary.counter("sim.frames"), 1);
        assert_eq!(
            summary.counter("sim.backpressure_stalls"),
            r.backpressure_stalls
        );
        assert_eq!(summary.counter("sim.dram_bytes_read"), r.dram_bytes_read);
        let evs = events.lock().unwrap();
        let slices = evs.iter().filter(|e| e.phase == 'X').count();
        let intervals: usize = r.stage_activity.iter().map(Vec::len).sum();
        assert_eq!(slices, intervals);
        // One thread-name metadata record per stage.
        assert_eq!(evs.iter().filter(|e| e.phase == 'M').count(), net.len());
        // A second frame lands after the first on the virtual timeline.
        // (Release the sink's mutex first: emitting that frame locks it.)
        drop(evs);
        assert_eq!(sim.trace_ts_offset(), r.cycles);
        sim.run().unwrap();
        assert_eq!(sim.trace_ts_offset(), 2 * r.cycles);
    }
}
