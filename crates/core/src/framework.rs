//! The end-to-end framework driver (§3, Fig. 3): network + device in,
//! optimal strategy + report out.

use std::fmt::Write as _;

use winofuse_fpga::device::FpgaDevice;
use winofuse_fpga::energy::EnergyModel;
use winofuse_fpga::engine::Algorithm;
use winofuse_model::network::Network;
use winofuse_runtime::faults::{FaultInjector, FaultMode};
use winofuse_telemetry::{RunTelemetry, Telemetry};

use crate::bnb::{AlgoPolicy, GroupPlanner};
use crate::dp::{self, PartitionResult};
use crate::CoreError;

/// An optimized accelerator design for one network on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizedDesign {
    /// The solved partition with per-layer strategies and group plans.
    pub partition: PartitionResult,
    /// End-to-end timing summary (aliases of partition fields, kept for
    /// readable call sites).
    pub timing: DesignTiming,
}

/// Aggregate timing/throughput numbers of a design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignTiming {
    /// End-to-end latency in cycles.
    pub latency: u64,
    /// Latency in milliseconds at the device clock.
    pub latency_ms: f64,
    /// Effective performance in GOPS over the network's operation count.
    pub effective_gops: f64,
    /// Feature-map DRAM traffic in bytes.
    pub fmap_transfer_bytes: u64,
    /// Weight DRAM traffic in bytes.
    pub weight_transfer_bytes: u64,
}

/// One fusion group's row of [`Framework::validate_by_simulation`].
#[derive(Debug, Clone)]
pub struct GroupValidation {
    /// First layer index (inclusive).
    pub start: usize,
    /// Last layer index (exclusive).
    pub end: usize,
    /// The group's simulated frame: cycles, DRAM bytes, backpressure and
    /// per-stage activity.
    pub sim: winofuse_fusion::simulator::SimResult,
    /// Largest absolute difference between the fused runner's group
    /// output and the reference at layer `end − 1`.
    pub max_abs_err: f32,
}

/// The strategy framework: owns the device description and algorithm
/// policy.
///
/// # Examples
///
/// ```
/// use winofuse_core::framework::Framework;
/// use winofuse_fpga::device::FpgaDevice;
/// use winofuse_model::zoo;
///
/// # fn main() -> Result<(), winofuse_core::CoreError> {
/// let fw = Framework::new(FpgaDevice::zc706());
/// let design = fw.optimize(&zoo::small_test_net(), 8 * 1024 * 1024)?;
/// println!("{}", design.partition.strategy);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Framework {
    device: FpgaDevice,
    policy: AlgoPolicy,
    energy: EnergyModel,
    max_group_layers: usize,
    /// Strategy-search worker threads (1 = fully serial search).
    threads: usize,
    telemetry: Telemetry,
    faults: FaultInjector,
    fault_mode: Option<FaultMode>,
}

impl Framework {
    /// Creates a framework with the paper's heterogeneous exploration.
    /// The strategy search uses all available cores by default; see
    /// [`Framework::with_threads`].
    pub fn new(device: FpgaDevice) -> Self {
        Framework {
            device,
            policy: AlgoPolicy::heterogeneous(),
            energy: EnergyModel::new(),
            max_group_layers: crate::MAX_FUSION_LAYERS,
            threads: crate::parallel::default_threads(),
            telemetry: Telemetry::disabled(),
            faults: FaultInjector::disabled(),
            fault_mode: None,
        }
    }

    /// Sets the strategy-search worker-thread count. `0` means "auto"
    /// (available parallelism). `1` runs the exact single-threaded
    /// search; any other count prefills the `fusion[i][j]` plan table
    /// from scoped workers before the DP runs — the results (and the
    /// search's node accounting) are bit-identical at every setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            crate::parallel::default_threads()
        } else {
            threads
        };
        self
    }

    /// The strategy-search worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Attaches an observability context: search counters, spans, and
    /// (when the context has a sink) trace events flow into it from every
    /// subsequent optimization and simulation call.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The observability context (disabled unless set).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Attaches a deterministic fault injector; it propagates into every
    /// runner the framework builds (see `winofuse_runtime::faults`).
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// The attached fault injector (disabled unless set).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Overrides the fault-handling mode of every runner the framework
    /// builds. Unset (the default), each runner keeps its own default,
    /// strict.
    pub fn with_fault_mode(mut self, mode: FaultMode) -> Self {
        self.fault_mode = Some(mode);
        self
    }

    /// The fault-handling override, `None` unless
    /// [`Framework::with_fault_mode`] set one.
    pub fn fault_mode(&self) -> Option<FaultMode> {
        self.fault_mode
    }

    /// Overrides the fusion-group size cap (default 8, §7.1; the AlexNet
    /// experiment of §7.3 fuses all 10 body layers).
    pub fn with_max_group_layers(mut self, max: usize) -> Self {
        self.max_group_layers = max.max(1);
        self
    }

    /// Restricts the algorithm space (homogeneous ablations).
    pub fn with_policy(mut self, policy: AlgoPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the energy model.
    pub fn with_energy_model(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// The target device.
    pub fn device(&self) -> &FpgaDevice {
        &self.device
    }

    /// The energy model used in reports.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Optimizes `net` under a feature-map transfer budget (Problem 1).
    /// The network must contain only fusable layers — strip FC heads with
    /// [`Network::conv_body`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidRequest`] — unmappable layer / empty network,
    /// * [`CoreError::Infeasible`] — budget below the fused minimum.
    pub fn optimize(
        &self,
        net: &Network,
        transfer_budget_bytes: u64,
    ) -> Result<OptimizedDesign, CoreError> {
        let span = self.telemetry.span("framework", "optimize");
        let mut planner = self.planner_for(net)?;
        self.prefill(&planner, net.len(), None)?;
        let partition = dp::optimize(&mut planner, net, transfer_budget_bytes)?;
        drop(span);
        let timing = self.timing_of(net, &partition);
        Ok(OptimizedDesign { partition, timing })
    }

    /// Like [`Framework::optimize`], but also returns the run's telemetry
    /// summary (search counters, prune statistics, DP cache behavior).
    /// Works even when no context was attached: a fresh enabled context
    /// is used for just this call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Framework::optimize`].
    pub fn optimize_traced(
        &self,
        net: &Network,
        transfer_budget_bytes: u64,
    ) -> Result<(OptimizedDesign, RunTelemetry), CoreError> {
        let fw = if self.telemetry.is_enabled() {
            self.clone()
        } else {
            self.clone().with_telemetry(Telemetry::enabled())
        };
        let design = fw.optimize(net, transfer_budget_bytes)?;
        Ok((design, fw.telemetry.summary()))
    }

    /// A group planner for `net` carrying this framework's policy, group
    /// cap, and telemetry context.
    fn planner_for<'a>(&'a self, net: &'a Network) -> Result<GroupPlanner<'a>, CoreError> {
        let mut planner = GroupPlanner::new(net, &self.device, self.policy)?;
        planner.set_max_group_layers(self.max_group_layers);
        planner.set_telemetry(self.telemetry.clone());
        Ok(planner)
    }

    /// Fills the `fusion[i][j]` plan table from worker threads when more
    /// than one is configured; with one thread the lazy serial path is
    /// exact and prefilling would only reorder work.
    fn prefill(
        &self,
        planner: &GroupPlanner<'_>,
        n: usize,
        boundaries: Option<&[usize]>,
    ) -> Result<(), CoreError> {
        if self.threads > 1 {
            crate::parallel::fill_plan_table(planner, n, boundaries, self.threads)?;
        }
        Ok(())
    }

    /// Optimizes a module-structured network treating every module as a
    /// single layer (§7.1: the GoogleNet coarsening) — the partitioner
    /// may only cut at module boundaries, which shrinks the DP's search
    /// space on very deep CNNs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Framework::optimize`], plus
    /// [`CoreError::InvalidRequest`] for boundaries outside the network.
    pub fn optimize_modular(
        &self,
        modular: &winofuse_model::ModularNetwork,
        transfer_budget_bytes: u64,
    ) -> Result<OptimizedDesign, CoreError> {
        let net = &modular.network;
        let mut planner = self.planner_for(net)?;
        let boundaries = modular.cut_boundaries();
        self.prefill(&planner, net.len(), Some(&boundaries))?;
        let partition =
            dp::optimize_with_cuts(&mut planner, net, transfer_budget_bytes, Some(&boundaries))?;
        let timing = self.timing_of(net, &partition);
        Ok(OptimizedDesign { partition, timing })
    }

    /// The whole (transfer, latency) trade-off curve for `net` — every
    /// Pareto-optimal design the DP can reach.
    ///
    /// # Errors
    ///
    /// Same construction errors as [`Framework::optimize`].
    pub fn tradeoff_curve(&self, net: &Network) -> Result<Vec<(u64, u64)>, CoreError> {
        let mut planner = self.planner_for(net)?;
        self.prefill(&planner, net.len(), None)?;
        Ok(dp::tradeoff_curve(&mut planner, net))
    }

    fn timing_of(&self, net: &Network, partition: &PartitionResult) -> DesignTiming {
        let total_ops = net.total_ops();
        DesignTiming {
            latency: partition.latency,
            latency_ms: self.device.cycles_to_seconds(partition.latency) * 1e3,
            effective_gops: self.device.effective_gops(total_ops, partition.latency),
            fmap_transfer_bytes: partition.fmap_transfer_bytes,
            weight_transfer_bytes: partition.weight_transfer_bytes,
        }
    }

    /// Multi-frame batch timing of a design (an extension beyond the
    /// paper's single-frame accounting): weights and reconfiguration are
    /// amortized across the batch. See
    /// [`winofuse_fusion::pipeline::batch_sequence_timing`].
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Substrate`] for a zero frame count.
    pub fn batch_timing(
        &self,
        design: &OptimizedDesign,
        frames: u64,
    ) -> Result<winofuse_fusion::pipeline::BatchTiming, CoreError> {
        let groups: Vec<winofuse_fusion::pipeline::GroupTiming> = design
            .partition
            .groups
            .iter()
            .map(|g| g.timing.clone())
            .collect();
        winofuse_fusion::pipeline::batch_sequence_timing(&groups, &self.device, frames)
            .map_err(CoreError::from)
    }

    /// Board power (W) of a design's worst-case group (groups run
    /// sequentially, so the instantaneous power is the active group's).
    pub fn power_watts(&self, design: &OptimizedDesign) -> f64 {
        design
            .partition
            .groups
            .iter()
            .map(|g| self.energy.power_watts(&g.timing.resources))
            .fold(0.0, f64::max)
    }

    /// Total energy (J) of a design: per-group compute energy + DRAM
    /// transfer energy.
    pub fn energy_joules(&self, design: &OptimizedDesign) -> f64 {
        let mut total = 0.0;
        for g in &design.partition.groups {
            let seconds = self.device.cycles_to_seconds(g.timing.latency);
            total += self
                .energy
                .compute_energy_joules(&g.timing.resources, seconds);
            total += self
                .energy
                .transfer_energy_joules(g.timing.dram_fmap_bytes + g.timing.dram_weight_bytes);
        }
        total
    }

    /// Validates a design end to end, group by group: the timing
    /// simulator gives each group's cycles, and the design's fused runner
    /// (strict DRAM reconciliation) computes its values, which must match
    /// the layer-by-layer executor prepared like the plan
    /// ([`ExecutionPlan::prepare`](crate::plan::ExecutionPlan::prepare))
    /// within `tol` at the group's last layer — the one-call functional
    /// and timing check of a strategy.
    ///
    /// Returns the fused network output and one row per group.
    ///
    /// # Errors
    ///
    /// [`CoreError::Substrate`] when the design cannot be simulated or
    /// run, DRAM traffic does not reconcile, or any group's output
    /// diverges from the reference by more than `tol`.
    pub fn validate_by_simulation(
        &self,
        net: &Network,
        design: &OptimizedDesign,
        weights: &winofuse_model::runtime::NetworkWeights,
        input: &winofuse_conv::tensor::Tensor<f32>,
        tol: f32,
    ) -> Result<(winofuse_conv::tensor::Tensor<f32>, Vec<GroupValidation>), CoreError> {
        let plan = design.execution_plan();
        let prepared = plan.prepare(net, weights)?;
        let runner = self
            .configure_runner(plan.lower(net, weights, &prepared)?)
            .with_fault_mode(FaultMode::Strict);
        let reference =
            winofuse_model::runtime::NetworkExecutor::from_prepared(net, prepared.into())?
                .with_threads(self.threads)
                .run_all(input)?;
        let mut cur = input.clone();
        let mut rows = Vec::with_capacity(runner.groups().len());
        // Simulator stages get consecutive trace lanes across groups, and
        // each group starts where the previous one finished in cycle time.
        let (mut tid_base, mut cycles) = (1u64, 0u64);
        for (planned, group) in plan.groups().iter().zip(runner.groups()) {
            let mut sim = winofuse_fusion::simulator::FusedGroupSim::new(
                net,
                planned.start,
                planned.configs,
                &self.device,
            )?;
            if self.telemetry.is_enabled() {
                sim.set_telemetry(self.telemetry.clone(), tid_base, cycles);
                tid_base += planned.configs.len() as u64;
            }
            let sim = sim.run()?;
            cycles += sim.cycles;
            let output = group.run(&cur)?.output;
            let max_abs_err = output
                .max_abs_diff(&reference[planned.end - 1])
                .map_err(|e| CoreError::Substrate(e.to_string()))?;
            if max_abs_err > tol {
                return Err(CoreError::Substrate(format!(
                    "group {}..{} diverges from the reference by {max_abs_err} (tol {tol})",
                    planned.start, planned.end
                )));
            }
            rows.push(GroupValidation {
                start: planned.start,
                end: planned.end,
                sim,
                max_abs_err,
            });
            cur = output;
        }
        Ok((cur, rows))
    }

    /// Instantiates the plan-faithful fused runner for a design: one
    /// group runner per fusion group, driving the fast convolution
    /// kernels with the strategy's algorithm choices and reconciling
    /// measured DRAM traffic against each group's analytic budget. The
    /// runner prepares its own filter banks; the framework's thread
    /// count and telemetry context carry over.
    ///
    /// # Errors
    ///
    /// [`CoreError::Substrate`] when the design cannot be executed
    /// (missing weights, unfusable layer kind).
    pub fn fused_runner(
        &self,
        net: &Network,
        design: &OptimizedDesign,
        weights: &winofuse_model::runtime::NetworkWeights,
    ) -> Result<winofuse_fusion::runner::FusedNetworkRunner, CoreError> {
        Ok(self.configure_runner(design.execution_plan().runner(net, weights)?))
    }

    /// Applies the framework's threads, telemetry and fault handling to a
    /// lowered fused runner (see
    /// [`ExecutionPlan::lower`](crate::plan::ExecutionPlan::lower)).
    pub fn configure_runner(
        &self,
        runner: winofuse_fusion::runner::FusedNetworkRunner,
    ) -> winofuse_fusion::runner::FusedNetworkRunner {
        let mut runner = runner
            .with_threads(self.threads)
            .with_telemetry(self.telemetry.clone())
            .with_faults(self.faults.clone());
        if let Some(mode) = self.fault_mode {
            runner = runner.with_fault_mode(mode);
        }
        runner
    }

    /// A per-layer bottleneck diagnosis: for every layer of every fusion
    /// group, which pipeline phase (load / compute / store) sets its
    /// stage length, and how much slack it has against the group's
    /// slowest stage — the information a designer needs to decide where
    /// to spend more parallelism or algorithm changes.
    pub fn explain(&self, net: &Network, design: &OptimizedDesign) -> String {
        let mut s = String::new();
        for (gi, g) in design.partition.groups.iter().enumerate() {
            let slowest = g
                .timing
                .layers
                .iter()
                .map(|t| t.iterations * t.stage_cycles_per_iter)
                .max()
                .unwrap_or(0);
            let _ = writeln!(
                s,
                "group {gi} (layers {}..{}): latency {} cycles{}",
                g.start,
                g.end,
                g.timing.latency,
                if g.timing.bandwidth_bound {
                    " [DRAM bound]"
                } else {
                    ""
                }
            );
            let _ = writeln!(
                s,
                "  {:<12} {:<9} {:>11} {:>11} {:>11} {:>9} {:>7}",
                "layer", "bound", "load/iter", "comp/iter", "store/iter", "total", "slack"
            );
            for (off, t) in g.timing.layers.iter().enumerate() {
                let bound = if t.stage_cycles_per_iter == t.compute_cycles_per_iter {
                    "compute"
                } else if t.stage_cycles_per_iter == t.load_cycles_per_iter {
                    "load"
                } else {
                    "store"
                };
                let total = t.iterations * t.stage_cycles_per_iter;
                let slack = if slowest == 0 {
                    0.0
                } else {
                    (1.0 - total as f64 / slowest as f64) * 100.0
                };
                let _ = writeln!(
                    s,
                    "  {:<12} {:<9} {:>11} {:>11} {:>11} {:>9} {:>6.0}%",
                    net.layers()[g.start + off].name,
                    bound,
                    t.load_cycles_per_iter,
                    t.compute_cycles_per_iter,
                    t.store_cycles_per_iter,
                    total,
                    slack
                );
            }
        }
        s
    }

    /// A human-readable per-layer report in the style of the paper's
    /// Table 2.
    pub fn report(&self, net: &Network, design: &OptimizedDesign) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<12} {:<13} {:>5}  {:>6} {:>5} {:>8} {:>8}",
            "layer", "algorithm", "par", "BRAM", "DSP", "FF", "LUT"
        );
        let mut total = winofuse_fpga::ResourceVec::ZERO;
        for g in &design.partition.groups {
            for (off, cfg) in g.configs.iter().enumerate() {
                let r = cfg.estimate.resources;
                total += r;
                let _ = writeln!(
                    s,
                    "{:<12} {:<13} {:>5}  {:>6} {:>5} {:>8} {:>8}",
                    net.layers()[g.start + off].name,
                    cfg.engine.algorithm.to_string(),
                    cfg.engine.parallelism,
                    r.bram_18k,
                    r.dsp,
                    r.ff,
                    r.lut
                );
            }
        }
        let cap = self.device.resources();
        let _ = writeln!(
            s,
            "{:<12} {:<13} {:>5}  {:>6} {:>5} {:>8} {:>8}",
            "total", "", "", total.bram_18k, total.dsp, total.ff, total.lut
        );
        let _ = writeln!(
            s,
            "{:<12} {:<13} {:>5}  {:>6} {:>5} {:>8} {:>8}",
            "available", "", "", cap.bram_18k, cap.dsp, cap.ff, cap.lut
        );
        let (b, d, f, l) = total.utilization_percent(cap);
        let _ = writeln!(
            s,
            "{:<12} {:<13} {:>5}  {:>5.1}% {:>4.1}% {:>7.1}% {:>7.1}%",
            "utilization", "", "", b, d, f, l
        );
        let _ = writeln!(
            s,
            "latency: {} cycles ({:.2} ms)",
            design.timing.latency, design.timing.latency_ms
        );
        let _ = writeln!(s, "effective: {:.1} GOPS", design.timing.effective_gops);
        s
    }

    /// Convenience: which algorithm the strategy assigned to each
    /// convolutional layer (for assertions and tables).
    pub fn conv_algorithms(net: &Network, design: &OptimizedDesign) -> Vec<(String, Algorithm)> {
        let mut out = Vec::new();
        for g in &design.partition.groups {
            for (off, cfg) in g.configs.iter().enumerate() {
                let layer = &net.layers()[g.start + off];
                if matches!(layer.kind, winofuse_model::layer::LayerKind::Conv(_)) {
                    out.push((layer.name.clone(), cfg.engine.algorithm));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winofuse_model::zoo;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn optimize_small_net_end_to_end() {
        let fw = Framework::new(FpgaDevice::zc706());
        let net = zoo::small_test_net();
        let d = fw.optimize(&net, 8 * MB).unwrap();
        assert!(d.timing.latency > 0);
        assert!(d.timing.effective_gops > 0.0);
        assert!(fw.power_watts(&d) > 0.0);
        assert!(fw.energy_joules(&d) > 0.0);
    }

    #[test]
    fn heterogeneous_beats_both_homogeneous_policies() {
        let net = zoo::vgg_e_fused_prefix();
        let dev = FpgaDevice::zc706();
        let budget = 2 * MB;
        let hetero = Framework::new(dev.clone()).optimize(&net, budget).unwrap();
        let conv = Framework::new(dev.clone())
            .with_policy(AlgoPolicy::conventional_only())
            .optimize(&net, budget)
            .unwrap();
        let wino = Framework::new(dev)
            .with_policy(AlgoPolicy::winograd_preferred())
            .optimize(&net, budget)
            .unwrap();
        assert!(hetero.timing.latency <= conv.timing.latency);
        assert!(hetero.timing.latency <= wino.timing.latency);
    }

    #[test]
    fn report_contains_every_layer_and_totals() {
        let fw = Framework::new(FpgaDevice::zc706());
        let net = zoo::small_test_net();
        let d = fw.optimize(&net, 8 * MB).unwrap();
        let report = fw.report(&net, &d);
        for layer in net.layers() {
            assert!(report.contains(&layer.name), "missing {}", layer.name);
        }
        assert!(report.contains("total"));
        assert!(report.contains("utilization"));
        assert!(report.contains("GOPS"));
    }

    #[test]
    fn alexnet_body_fuses_under_tight_budget() {
        // §7.3: "Given a 340KB transfer constraint [...] we are able to
        // fuse all the layers into one group."
        let net = zoo::alexnet().conv_body().unwrap();
        // The body is 10 layers; raise the group cap as §7.3 implies.
        let fw = Framework::new(FpgaDevice::zc706()).with_max_group_layers(10);
        let budget = 340 * 1024;
        let d = fw.optimize(&net, budget).unwrap();
        assert_eq!(d.partition.groups.len(), 1, "expected a single fused group");
        assert!(d.partition.fmap_transfer_bytes <= budget);
        // The paper's Table 2 finds a heterogeneous assignment.
        assert!(d.partition.strategy.is_heterogeneous());
    }

    #[test]
    fn validate_by_simulation_round_trips() {
        let net = zoo::small_test_net();
        let fw = Framework::new(FpgaDevice::zc706());
        let d = fw.optimize(&net, 8 * MB).unwrap();
        let weights = winofuse_model::runtime::NetworkWeights::random(&net, 23).unwrap();
        let x = winofuse_conv::tensor::random_tensor(1, 3, 32, 32, 24);
        let (out, groups) = fw
            .validate_by_simulation(&net, &d, &weights, &x, 1e-4)
            .unwrap();
        assert_eq!(groups.len(), d.partition.groups.len());
        assert!(groups.iter().all(|g| g.sim.cycles > 0));
        let shape = net.output_shape().unwrap();
        assert_eq!(
            (out.c(), out.h(), out.w()),
            (shape.channels, shape.height, shape.width)
        );
        // An absurd tolerance of zero on float math may pass (direct conv
        // is deterministic here) — but a negative tolerance must fail.
        assert!(fw
            .validate_by_simulation(&net, &d, &weights, &x, -1.0)
            .is_err());
    }

    #[test]
    fn explain_names_bound_phases_and_slack() {
        let net = zoo::vgg_e_fused_prefix();
        let fw = Framework::new(FpgaDevice::zc706());
        let d = fw.optimize(&net, 2 * MB).unwrap();
        let text = fw.explain(&net, &d);
        for layer in net.layers() {
            assert!(text.contains(&layer.name), "missing {}", layer.name);
        }
        assert!(text.contains("compute") || text.contains("load") || text.contains("store"));
        assert!(text.contains("slack"));
        // The slowest stage must show ~0% slack.
        assert!(
            text.contains(" 0%"),
            "some layer should be the bottleneck:\n{text}"
        );
    }

    #[test]
    fn batch_timing_amortizes() {
        let net = zoo::vgg_e_fused_prefix();
        let dev = FpgaDevice::zc706().with_reconfig_cycles(2_500_000);
        let fw = Framework::new(dev);
        let d = fw.optimize(&net, 16 * MB).unwrap();
        let b1 = fw.batch_timing(&d, 1).unwrap();
        let b32 = fw.batch_timing(&d, 32).unwrap();
        assert!(b32.cycles_per_frame < b1.cycles_per_frame);
        assert!(fw.batch_timing(&d, 0).is_err());
    }

    #[test]
    fn modular_optimization_respects_boundaries() {
        let modular = zoo::googlenet_like();
        let net = &modular.network;
        let fw = Framework::new(FpgaDevice::zc706());
        let d = fw.optimize_modular(&modular, 64 * MB).unwrap();
        // Every group boundary must coincide with a module boundary.
        let ends: Vec<usize> = modular.modules.iter().map(|m| m.end).collect();
        for g in &d.partition.groups {
            assert!(
                ends.contains(&g.end) || g.end == net.len(),
                "group end {} not on a module boundary",
                g.end
            );
            assert!(
                g.start == 0 || ends.contains(&g.start),
                "group start {} not on a module boundary",
                g.start
            );
        }
        // Restricting cuts can never beat the unrestricted optimum.
        let free = fw.optimize(net, 64 * MB).unwrap();
        assert!(d.timing.latency >= free.timing.latency);
    }

    #[test]
    fn conv_algorithms_lists_only_convs() {
        let net = zoo::mixed_test_net();
        let fw = Framework::new(FpgaDevice::zc706());
        let d = fw.optimize(&net, 8 * MB).unwrap();
        let algos = Framework::conv_algorithms(&net, &d);
        assert_eq!(algos.len(), 2);
        assert!(algos.iter().all(|(name, _)| name.starts_with("conv")));
    }
}
