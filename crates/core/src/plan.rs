//! Lowering a solved strategy into an executable plan.
//!
//! The DP hands back a [`PartitionResult`]: fusion groups with resolved
//! per-layer engine configurations and analytic timing. An
//! [`ExecutionPlan`] is the thin, executable view of that result — one
//! entry per group carrying exactly what the fused runner needs (the
//! member configs and the group's analytic DRAM transfer budget), plus
//! the glue that instantiates a
//! [`FusedNetworkRunner`](winofuse_fusion::runner::FusedNetworkRunner)
//! whose measured traffic is reconciled against those budgets.

use winofuse_fusion::pipeline::LayerConfig;
use winofuse_fusion::runner::{FusedNetworkRunner, GroupSpec};
use winofuse_model::network::Network;
use winofuse_model::runtime::{ExecAlgo, NetworkWeights, PreparedNetwork};

use crate::dp::PartitionResult;
use crate::framework::OptimizedDesign;
use crate::CoreError;

/// One fusion group of an execution plan: where it sits in the network,
/// its resolved member configurations, and the DP's transfer budget the
/// runner must reproduce on the wire.
#[derive(Debug, Clone, Copy)]
pub struct PlannedGroup<'a> {
    /// First layer index (inclusive).
    pub start: usize,
    /// Last layer index (exclusive).
    pub end: usize,
    /// Resolved per-layer configurations, in forward order.
    pub configs: &'a [LayerConfig],
    /// The group's analytic DRAM traffic (feature maps + weights) from
    /// the DP's accounting — the reconciliation target.
    pub analytic_dram_bytes: u64,
}

/// An optimized strategy lowered to its executable form: the ordered
/// fusion groups with their analytic DRAM budgets.
#[derive(Debug, Clone)]
pub struct ExecutionPlan<'a> {
    groups: Vec<PlannedGroup<'a>>,
}

impl<'a> ExecutionPlan<'a> {
    /// Lowers a solved partition. Infallible: every [`PartitionResult`]
    /// is already validated by construction.
    pub fn from_partition(partition: &'a PartitionResult) -> Self {
        let groups = partition
            .groups
            .iter()
            .map(|g| PlannedGroup {
                start: g.start,
                end: g.end,
                configs: &g.configs,
                analytic_dram_bytes: g.timing.dram_fmap_bytes + g.timing.dram_weight_bytes,
            })
            .collect();
        ExecutionPlan { groups }
    }

    /// The planned groups, in execution order.
    pub fn groups(&self) -> &[PlannedGroup<'a>] {
        &self.groups
    }

    /// Total analytic DRAM traffic across all groups — matches the
    /// design's `fmap_transfer_bytes + weight_transfer_bytes`.
    pub fn total_analytic_dram_bytes(&self) -> u64 {
        self.groups.iter().map(|g| g.analytic_dram_bytes).sum()
    }

    /// Instantiates the fused runner for this plan on a fresh
    /// [`ExecAlgo::Auto`] preparation of `net` (see
    /// [`ExecutionPlan::lower`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecutionPlan::lower`], plus
    /// [`CoreError::Substrate`] when the weights cannot be prepared.
    pub fn runner(
        &self,
        net: &Network,
        weights: &NetworkWeights,
    ) -> Result<FusedNetworkRunner, CoreError> {
        self.lower(
            net,
            weights,
            &PreparedNetwork::new(net, weights, ExecAlgo::Auto)?,
        )
    }

    /// Lowers the plan onto `prepared`: one
    /// [`FusedGroupRunner`](winofuse_fusion::runner::FusedGroupRunner)
    /// per group, computing with `prepared`'s filter banks and
    /// reconciling its measured DRAM traffic against the group's
    /// analytic budget.
    ///
    /// # Errors
    ///
    /// [`CoreError::Substrate`] when a group cannot be executed (missing
    /// weights, unfusable layer kind, broken chain, a preparation of
    /// another network).
    pub fn lower(
        &self,
        net: &Network,
        weights: &NetworkWeights,
        prepared: &PreparedNetwork,
    ) -> Result<FusedNetworkRunner, CoreError> {
        let specs: Vec<GroupSpec<'_>> = self
            .groups
            .iter()
            .map(|g| GroupSpec {
                start: g.start,
                configs: g.configs,
                analytic_dram_bytes: Some(g.analytic_dram_bytes),
            })
            .collect();
        FusedNetworkRunner::new(net, weights, prepared, &specs).map_err(CoreError::from)
    }
}

impl OptimizedDesign {
    /// The executable view of this design's partition: per-group configs
    /// and analytic DRAM budgets, ready to drive the fused runner.
    pub fn execution_plan(&self) -> ExecutionPlan<'_> {
        ExecutionPlan::from_partition(&self.partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Framework;
    use winofuse_conv::tensor::random_tensor;
    use winofuse_fpga::device::FpgaDevice;
    use winofuse_model::runtime::forward;
    use winofuse_model::zoo;

    #[test]
    fn plan_mirrors_partition_accounting() {
        let net = zoo::small_test_net();
        let fw = Framework::new(FpgaDevice::zc706());
        let d = fw.optimize(&net, 8 * 1024 * 1024).unwrap();
        let plan = d.execution_plan();
        assert_eq!(plan.groups().len(), d.partition.groups.len());
        assert_eq!(
            plan.total_analytic_dram_bytes(),
            d.timing.fmap_transfer_bytes + d.timing.weight_transfer_bytes
        );
        let mut next = 0;
        for g in plan.groups() {
            assert_eq!(g.start, next);
            assert_eq!(g.configs.len(), g.end - g.start);
            next = g.end;
        }
        assert_eq!(next, net.len());
    }

    #[test]
    fn plan_runner_matches_reference_and_budget() {
        let net = zoo::small_test_net();
        let fw = Framework::new(FpgaDevice::zc706());
        // A tight budget forces more than one group, exercising the
        // group-to-group DRAM round trip.
        let d = fw.optimize(&net, 60 * 1024).unwrap();
        let plan = d.execution_plan();
        let weights = NetworkWeights::random(&net, 7).unwrap();
        let x = random_tensor(1, 3, 32, 32, 8);
        let runner = plan.runner(&net, &weights).unwrap().strict_dram(true);
        let report = runner.run(&x).unwrap();
        let gold = forward(&net, &weights, &x).unwrap();
        assert!(report.output.approx_eq(gold.last().unwrap(), 1e-4));
        assert_eq!(report.max_dram_delta(), 0);
        assert_eq!(
            report.analytic_dram_bytes(),
            plan.total_analytic_dram_bytes()
        );
    }
}
