//! The serving plan: strategy search and filter transforms paid once.
//!
//! A single `winofuse run` pays the full pipeline on every invocation —
//! branch-and-bound search, fusion DP, plan lowering, Winograd filter
//! transforms — which is exactly the cost structure a long-running
//! deployment cannot afford. A [`PlanEntry`] bundles everything
//! downstream of the model: the [`OptimizedDesign`], the plan-shaped
//! preparation (one set of prepacked filter banks, pruned where the plan
//! prunes), and the fused runner lowered onto it. The serve engine builds
//! one entry, once, and answers every request from it: zero search nodes
//! and zero filter transforms after the first build, counted by the
//! `serve.plan_hits` / `serve.plan_misses` counters.

use std::sync::Arc;

use winofuse_fusion::runner::FusedNetworkRunner;
use winofuse_model::network::Network;
use winofuse_model::runtime::{NetworkExecutor, NetworkWeights, PreparedNetwork};

use crate::framework::{Framework, OptimizedDesign};
use crate::CoreError;

/// Everything paid for once per served model: the solved design, the
/// plan-shaped filter preparation, and the plan-faithful fused runner.
pub struct PlanEntry {
    /// The served network (conv body in the serving path).
    pub net: Arc<Network>,
    /// The served weights.
    pub weights: Arc<NetworkWeights>,
    /// The solved strategy with analytic timing.
    pub design: OptimizedDesign,
    /// Shared fast-path preparation (packed kernels + Winograd banks,
    /// pruned where the plan prunes); [`PlanEntry::executor`] clones the
    /// `Arc`, never the banks.
    pub prepared: Arc<PreparedNetwork>,
    /// The plan-faithful fused runner with per-group DRAM reconciliation,
    /// lowered onto `prepared`: its conv stages hold the same
    /// `Arc<PreparedConv>`s.
    pub runner: FusedNetworkRunner,
}

impl PlanEntry {
    /// A batched fast-path executor over the entry's preparation — no
    /// filter transforms are paid here, only an `Arc` clone. It computes
    /// the plan's network, like the runner. The caller still picks
    /// threads/telemetry/fault handling per use.
    ///
    /// # Errors
    ///
    /// [`CoreError::Substrate`] only if the entry is internally
    /// inconsistent (impossible for entries built by
    /// [`Framework::plan_entry`]).
    pub fn executor(&self) -> Result<NetworkExecutor<'_>, CoreError> {
        NetworkExecutor::from_prepared(&self.net, Arc::clone(&self.prepared))
            .map_err(CoreError::from)
    }
}

impl Framework {
    /// Builds a complete [`PlanEntry`] for a model: optimizes the
    /// strategy and lowers it ([`Framework::lower`]), so the batched
    /// executor and the fused runner share every bank.
    ///
    /// Checks the fault site `plan.build` once on entry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Framework::optimize`] and
    /// [`Framework::lower`].
    pub fn plan_entry(
        &self,
        net: Arc<Network>,
        weights: Arc<NetworkWeights>,
        budget_bytes: u64,
    ) -> Result<PlanEntry, CoreError> {
        self.faults().trip("plan.build");
        let design = self.optimize(&net, budget_bytes)?;
        let (prepared, runner) = self.lower(&net, &design, &weights)?;
        Ok(PlanEntry {
            net,
            weights,
            design,
            prepared,
            runner,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::AlgoPolicy;
    use winofuse_fpga::device::FpgaDevice;
    use winofuse_fpga::engine::Algorithm;
    use winofuse_model::layer::{ConvParams, LayerKind};
    use winofuse_model::shape::FmShape;
    use winofuse_model::zoo;

    const BUDGET: u64 = 8 * 1024 * 1024;

    fn model() -> (Arc<Network>, Arc<NetworkWeights>) {
        let net = zoo::small_test_net().conv_body().unwrap();
        let weights = NetworkWeights::random(&net, 7).unwrap();
        (Arc::new(net), Arc::new(weights))
    }

    #[test]
    fn runner_shares_every_conv_preparation() {
        let two_conv = Network::builder("two-conv", FmShape::new(3, 32, 32))
            .conv("conv1", ConvParams::new(32, 3, 1, 1, false))
            .conv("conv2", ConvParams::new(32, 3, 1, 1, false))
            .build()
            .unwrap();
        let dense = Framework::new(FpgaDevice::zc706()).with_threads(1);
        let sparse = dense
            .clone()
            .with_policy(AlgoPolicy::heterogeneous_sparse(250));
        let mut pruned_stages = 0;
        for (fw, net, budget) in [
            (&dense, zoo::alexnet().conv_body().unwrap(), BUDGET),
            (&dense, zoo::vgg_e_fused_prefix(), 2 * 1024 * 1024),
            (&sparse, two_conv, 2 * 1024 * 1024),
        ] {
            let convs = net
                .layers()
                .iter()
                .filter(|l| matches!(l.kind, LayerKind::Conv(_)))
                .count();
            let weights = NetworkWeights::random(&net, 3).unwrap();
            let entry = fw
                .plan_entry(Arc::new(net), Arc::new(weights), budget)
                .unwrap();
            let mut checked = 0;
            for (group, planned) in entry
                .runner
                .groups()
                .iter()
                .zip(&entry.design.partition.groups)
            {
                for (cfg, i) in planned.configs.iter().zip(planned.start..planned.end) {
                    let Some(conv) = group.conv(i) else { continue };
                    let prepared = entry.prepared.conv(i).expect("conv layers are prepared");
                    assert!(
                        Arc::ptr_eq(conv, prepared),
                        "`{}` layer {i}: the runner built its own banks",
                        entry.net.name()
                    );
                    if let Algorithm::SparseWinograd { density_pm, .. } = cfg.engine.algorithm {
                        assert_eq!(conv.density_pm(), Some(density_pm));
                        pruned_stages += 1;
                    }
                    checked += 1;
                }
            }
            assert_eq!(
                checked,
                convs,
                "`{}`: every conv stage checked",
                entry.net.name()
            );
        }
        assert!(pruned_stages > 0, "a sparse-planned stage was checked");
    }

    #[test]
    fn entry_executor_shares_prepared_banks() {
        let fw = Framework::new(FpgaDevice::zc706()).with_threads(1);
        let (net, weights) = model();
        let entry = fw
            .plan_entry(Arc::clone(&net), Arc::clone(&weights), BUDGET)
            .unwrap();
        assert!(
            entry.prepared.winograd_banks() > 0,
            "3x3 convs must prepack"
        );
        let before = Arc::strong_count(&entry.prepared);
        let exec = entry.executor().unwrap();
        assert_eq!(Arc::strong_count(&entry.prepared), before + 1);
        // The executor runs against the shared banks and matches the
        // fused runner bit-for-bit on the same frame? Not required —
        // but both must at least agree with the reference numerically.
        let x = winofuse_conv::tensor::random_tensor(1, 3, 32, 32, 11);
        let y_exec = exec.run(&x).unwrap();
        let y_fused = entry.runner.run(&x).unwrap().output;
        assert!(y_exec.approx_eq(&y_fused, 1e-3));
    }
}
