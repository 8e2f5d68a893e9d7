//! The serving plan cache: strategy search and filter transforms paid
//! once per configuration.
//!
//! A single `winofuse run` pays the full pipeline on every invocation —
//! branch-and-bound search, fusion DP, plan lowering, Winograd filter
//! transforms — which is exactly the cost structure a long-running
//! deployment cannot afford. The cache closes that gap: a
//! [`PlanEntry`] bundles everything downstream of the model
//! ([`OptimizedDesign`], one set of prepacked filter banks, and the
//! fused runner lowered onto them) and a [`PlanCache`] memoizes entries
//! under a [`PlanKey`] of `(network fingerprint, weights fingerprint,
//! device, precision, threads, budget)`. After the first request for a
//! configuration, every subsequent request is a hash lookup: zero
//! search nodes, zero filter transforms.
//!
//! Hit/miss traffic is pinned by the `serve.plan_hits` /
//! `serve.plan_misses` counters, so a regression that silently defeats
//! the cache (a key that never matches, an entry dropped too early)
//! fails counter-pinned tests rather than just running slow.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use winofuse_fusion::runner::FusedNetworkRunner;
use winofuse_model::network::Network;
use winofuse_model::runtime::{ExecAlgo, NetworkExecutor, NetworkWeights, PreparedNetwork};
use winofuse_model::DataType;
use winofuse_telemetry::Telemetry;

use crate::framework::{Framework, OptimizedDesign};
use crate::CoreError;

/// The configuration identity a cached plan is valid for. Two requests
/// may share a [`PlanEntry`] iff every field matches: same network
/// structure and weights (fingerprints), same device, same precision,
/// same worker-thread count (plans embed parallelism choices), same
/// transfer budget (the DP's constraint).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`Network::fingerprint`] of the served model.
    pub network_fingerprint: u64,
    /// [`NetworkWeights::fingerprint`] of the served weights.
    pub weights_fingerprint: u64,
    /// Device name (e.g. `zc706`) the strategy was optimized for.
    pub device: String,
    /// Feature-map/weight precision of the design.
    pub precision: DataType,
    /// Worker-thread count the runner executes with.
    pub threads: usize,
    /// Feature-map transfer budget handed to the DP, in bytes.
    pub budget_bytes: u64,
}

/// Everything paid for once per configuration: the solved design, the
/// shared filter preparation, and the plan-faithful fused runner.
pub struct PlanEntry {
    /// The key this entry was built under.
    pub key: PlanKey,
    /// The served network (conv body in the serving path).
    pub net: Arc<Network>,
    /// The served weights.
    pub weights: Arc<NetworkWeights>,
    /// The solved strategy with analytic timing.
    pub design: OptimizedDesign,
    /// Shared fast-path preparation (packed kernels + Winograd banks);
    /// [`PlanEntry::executor`] clones the `Arc`, never the banks.
    pub prepared: Arc<PreparedNetwork>,
    /// The plan-faithful fused runner with per-group DRAM reconciliation,
    /// lowered from `prepared`: its conv stages hold the same
    /// `Arc<PreparedConv>`s, except sparse-planned layers.
    pub runner: FusedNetworkRunner,
}

impl PlanEntry {
    /// A batched fast-path executor over the cached preparation — no
    /// filter transforms are paid here, only an `Arc` clone. The caller
    /// still picks threads/telemetry/fault handling per use.
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

/// A thread-safe memo of [`PlanEntry`]s keyed by [`PlanKey`].
///
/// Builds are single-flight: the registry lock is held across the build
/// closure, so concurrent requests for the same key pay exactly one
/// strategy search between them — the guarantee the
/// "zero search invocations after the first request" acceptance test
/// pins.
pub struct PlanCache {
    entries: Mutex<HashMap<PlanKey, Arc<PlanEntry>>>,
    telemetry: Telemetry,
}

impl PlanCache {
    /// An empty cache publishing `serve.plan_hits` / `serve.plan_misses`
    /// to `telemetry`.
    pub fn new(telemetry: Telemetry) -> Self {
        PlanCache {
            entries: Mutex::new(HashMap::new()),
            telemetry,
        }
    }

    /// Locks the registry, recovering from poisoning. A build closure
    /// that panics (killing its serve worker) must not condemn every
    /// later lookup: the map is only written by a single `insert` after
    /// a successful build, so a mid-build panic leaves it consistent.
    fn lock_entries(&self) -> MutexGuard<'_, HashMap<PlanKey, Arc<PlanEntry>>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of cached configurations.
    pub fn len(&self) -> usize {
        self.lock_entries().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far (`serve.plan_hits`).
    pub fn hits(&self) -> u64 {
        self.telemetry.counter("serve.plan_hits").get()
    }

    /// Cache misses so far (`serve.plan_misses`).
    pub fn misses(&self) -> u64 {
        self.telemetry.counter("serve.plan_misses").get()
    }

    /// Looks up `key`, invoking `build` (and caching its result) only on
    /// a miss. Bumps `serve.plan_hits` / `serve.plan_misses`.
    ///
    /// # Errors
    ///
    /// Propagates the build closure's error; nothing is cached then.
    pub fn get_or_build(
        &self,
        key: &PlanKey,
        build: impl FnOnce() -> Result<PlanEntry, CoreError>,
    ) -> Result<Arc<PlanEntry>, CoreError> {
        let mut entries = self.lock_entries();
        if let Some(entry) = entries.get(key) {
            self.telemetry.counter("serve.plan_hits").incr();
            return Ok(Arc::clone(entry));
        }
        self.telemetry.counter("serve.plan_misses").incr();
        let entry = Arc::new(build()?);
        entries.insert(key.clone(), Arc::clone(&entry));
        Ok(entry)
    }
}

impl Framework {
    /// The [`PlanKey`] this framework would file a plan for `net` +
    /// `weights` under, at the given transfer budget.
    pub fn plan_key(
        &self,
        net: &Network,
        weights: &NetworkWeights,
        budget_bytes: u64,
        precision: DataType,
    ) -> PlanKey {
        PlanKey {
            network_fingerprint: net.fingerprint(),
            weights_fingerprint: weights.fingerprint(),
            device: self.device().name().to_string(),
            precision,
            threads: self.threads(),
            budget_bytes,
        }
    }

    /// Builds a complete [`PlanEntry`] for a model: optimizes the
    /// strategy, prepares the filter banks once, and lowers the strategy
    /// onto them as the fused runner, so the batched executor and the
    /// runner share every bank. This is the expensive miss-path body a
    /// [`PlanCache`] amortizes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Framework::optimize`] plus
    /// [`CoreError::Substrate`] when the design cannot be lowered or the
    /// weights do not match the network.
    pub fn plan_entry(
        &self,
        net: Arc<Network>,
        weights: Arc<NetworkWeights>,
        budget_bytes: u64,
        precision: DataType,
    ) -> Result<PlanEntry, CoreError> {
        let key = self.plan_key(&net, &weights, budget_bytes, precision);
        let design = self.optimize(&net, budget_bytes)?;
        let prepared = Arc::new(PreparedNetwork::new(&net, &weights, ExecAlgo::Auto)?);
        let runner =
            self.configure_runner(design.execution_plan().lower(&net, &weights, &prepared)?);
        Ok(PlanEntry {
            key,
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use winofuse_fpga::device::FpgaDevice;
    use winofuse_model::zoo;

    const BUDGET: u64 = 8 * 1024 * 1024;

    fn model() -> (Arc<Network>, Arc<NetworkWeights>) {
        let net = zoo::small_test_net().conv_body().unwrap();
        let weights = NetworkWeights::random(&net, 7).unwrap();
        (Arc::new(net), Arc::new(weights))
    }

    #[test]
    fn keys_separate_every_configuration_axis() {
        let fw = Framework::new(FpgaDevice::zc706()).with_threads(2);
        let (net, weights) = model();
        let base = fw.plan_key(&net, &weights, BUDGET, DataType::Fixed16);
        assert_eq!(base, fw.plan_key(&net, &weights, BUDGET, DataType::Fixed16));
        // Different weights under the same structure: key must differ.
        let other_weights = NetworkWeights::random(&net, 8).unwrap();
        assert_ne!(
            base,
            fw.plan_key(&net, &other_weights, BUDGET, DataType::Fixed16)
        );
        // Different budget, precision, thread count: all separate.
        assert_ne!(
            base,
            fw.plan_key(&net, &weights, BUDGET / 2, DataType::Fixed16)
        );
        assert_ne!(base, fw.plan_key(&net, &weights, BUDGET, DataType::Float32));
        let fw4 = Framework::new(FpgaDevice::zc706()).with_threads(4);
        assert_ne!(
            base,
            fw4.plan_key(&net, &weights, BUDGET, DataType::Fixed16)
        );
    }

    #[test]
    fn get_or_build_builds_once_and_counts() {
        let t = Telemetry::enabled();
        let cache = PlanCache::new(t.clone());
        let fw = Framework::new(FpgaDevice::zc706()).with_threads(1);
        let (net, weights) = model();
        let key = fw.plan_key(&net, &weights, BUDGET, DataType::Fixed16);
        let builds = AtomicUsize::new(0);
        let build = || {
            builds.fetch_add(1, Ordering::SeqCst);
            fw.plan_entry(
                Arc::clone(&net),
                Arc::clone(&weights),
                BUDGET,
                DataType::Fixed16,
            )
        };
        let a = cache.get_or_build(&key, build).unwrap();
        let b = cache
            .get_or_build(&key, || panic!("hit path must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        assert_eq!(t.summary().counter("serve.plan_hits"), 1);
        assert_eq!(t.summary().counter("serve.plan_misses"), 1);
    }

    #[test]
    fn failed_build_caches_nothing() {
        let cache = PlanCache::new(Telemetry::enabled());
        let fw = Framework::new(FpgaDevice::zc706()).with_threads(1);
        let (net, weights) = model();
        let key = fw.plan_key(&net, &weights, BUDGET, DataType::Fixed16);
        let err = cache.get_or_build(&key, || Err(CoreError::InvalidRequest("synthetic".into())));
        assert!(err.is_err());
        assert!(cache.is_empty());
        // The next attempt is another (counted) miss, free to succeed.
        assert_eq!(cache.misses(), 1);
        cache
            .get_or_build(&key, || {
                fw.plan_entry(
                    Arc::clone(&net),
                    Arc::clone(&weights),
                    BUDGET,
                    DataType::Fixed16,
                )
            })
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn runner_shares_every_dense_conv_preparation() {
        use winofuse_fpga::engine::Algorithm;
        use winofuse_model::layer::LayerKind;
        let fw = Framework::new(FpgaDevice::zc706()).with_threads(1);
        for (net, budget) in [
            (zoo::alexnet().conv_body().unwrap(), BUDGET),
            (zoo::vgg_e_fused_prefix(), 2 * 1024 * 1024),
        ] {
            let convs = net
                .layers()
                .iter()
                .filter(|l| matches!(l.kind, LayerKind::Conv(_)))
                .count();
            let weights = NetworkWeights::random(&net, 3).unwrap();
            let entry = fw
                .plan_entry(Arc::new(net), Arc::new(weights), budget, DataType::Fixed16)
                .unwrap();
            let plan = entry.design.execution_plan();
            let mut checked = 0;
            for (group, planned) in entry.runner.groups().iter().zip(plan.groups()) {
                for (cfg, i) in planned.configs.iter().zip(planned.start..planned.end) {
                    let Some(conv) = group.conv(i) else { continue };
                    if matches!(cfg.engine.algorithm, Algorithm::SparseWinograd { .. }) {
                        continue;
                    }
                    let prepared = entry.prepared.conv(i).expect("conv layers are prepared");
                    assert!(
                        Arc::ptr_eq(conv, prepared),
                        "`{}` layer {i}: the runner built its own banks",
                        entry.net.name()
                    );
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
    }

    #[test]
    fn entry_executor_shares_prepared_banks() {
        let fw = Framework::new(FpgaDevice::zc706()).with_threads(1);
        let (net, weights) = model();
        let entry = fw
            .plan_entry(
                Arc::clone(&net),
                Arc::clone(&weights),
                BUDGET,
                DataType::Fixed16,
            )
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
