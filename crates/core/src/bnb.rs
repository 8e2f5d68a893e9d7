//! Algorithm 2: depth-first branch-and-bound implementation of one fusion
//! group.
//!
//! "Starting from the iᵗʰ layer, it goes deeper until reaching the jᵗʰ
//! layer. \[...\] Since we employ inter-layer pipeline for the layers within
//! the same group, the path latency is the latency of the slowest layer
//! along the path. We use the current best group latency to bound the
//! following tree traversal. \[...\] When implementing a layer, our
//! framework explores different algorithms and hardware parallelisms."
//!
//! Faithful details: per-layer implementations are cached across the
//! search (the paper's `ipls[cnt][algo][p]` / `unvisited` arrays),
//! parallelisms are explored from max to min so the monotone
//! latency bound can `break` a whole sub-range (lines 11, 16–17), and the
//! resource feasibility check happens before a child node is created
//! (line 18). Additions beyond the paper's pseudocode, all admissible:
//! a suffix resource lower bound, a DRAM-traffic latency floor that
//! lets the search stop when a leaf provably cannot be beaten, and
//! dominance pruning of the per-layer menus (an entry that is no better
//! than a same-algorithm sibling in any position a group could place it
//! is dropped before the search starts).
//!
//! Every node is O(1) and allocation-free. Each menu entry stores its
//! latency profile — the exact per-layer body and fill cycles
//! `group_timing` derives in each of the four head/tail slots — and each
//! range precomputes the parts of `group_timing` no path choice changes
//! (inter-layer FIFO resources, group feature-map bytes). A node extends
//! its parent's running totals (slowest body, total fill, weight bytes,
//! engine resources) by one entry, so a leaf's latency is
//! `max(slowest + fill, ⌈(fmap + weights) / bpc⌉)` and its resources are
//! `used + fifo`: the same integers and the same single f64 division
//! `group_timing` computes. `group_timing` stays the single source of
//! truth: it runs only when a leaf beats the incumbent, to materialize
//! the plan, and a debug assertion checks the incremental numbers
//! against it there. Search-tree counts are tallied in plain integers
//! and published to telemetry once per search.
//!
//! The search core is immutable (`&self`) and `Sync`: the `fusion[i][j]`
//! cache lives behind a sharded lock so [`crate::parallel`] can fill the
//! whole plan table from scoped worker threads, and a single large group
//! can be split across workers with [`GroupPlanner::plan_split`].

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use winofuse_fpga::device::FpgaDevice;
use winofuse_fpga::engine::{parallelism_candidates, Algorithm, EngineConfig};
use winofuse_fpga::resource::ResourceVec;
use winofuse_fusion::pipeline::{
    fifo_resources, group_timing, layer_timing, GroupTiming, LayerConfig,
};
use winofuse_model::network::Network;
use winofuse_model::shape::DataType;
use winofuse_runtime::PoolProfiler;
use winofuse_telemetry::Telemetry;

use crate::{CoreError, MAX_FUSION_LAYERS};

/// Which algorithms the optimizer may assign (ablation knob; the paper's
/// heterogeneous framework allows both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AlgoPolicy {
    /// Allow the conventional algorithm.
    pub conventional: bool,
    /// Allow Winograd (with the given output tile `m`).
    pub winograd: bool,
    /// Winograd output tile side (the paper uses 4).
    pub winograd_m: usize,
    /// Allow sparse Winograd (transform-domain pruned filters). Off by
    /// default and off in [`AlgoPolicy::heterogeneous`]: a sparse layer
    /// computes with *pruned* coefficients, so enabling it is a
    /// numerical-accuracy decision the caller must opt into, not a pure
    /// performance knob the optimizer may flip on its own.
    pub sparse: bool,
    /// Transform-domain coefficient density for sparse layers, in per
    /// mille of `out_c·in_c` kept per transform point (1..=1000).
    pub sparse_density_pm: u16,
}

impl Default for AlgoPolicy {
    fn default() -> Self {
        AlgoPolicy {
            conventional: true,
            winograd: true,
            winograd_m: 4,
            sparse: false,
            sparse_density_pm: 1000,
        }
    }
}

impl AlgoPolicy {
    /// Heterogeneous exploration (the paper's framework): conventional
    /// vs dense Winograd. Sparse stays off — see [`AlgoPolicy::sparse`].
    pub fn heterogeneous() -> Self {
        Self::default()
    }

    /// Conventional-only (homogeneous ablation / the baseline's setting).
    pub fn conventional_only() -> Self {
        AlgoPolicy {
            conventional: true,
            winograd: false,
            ..Self::default()
        }
    }

    /// Winograd-wherever-possible (homogeneous ablation; ineligible
    /// layers still fall back to conventional so networks stay mappable).
    pub fn winograd_preferred() -> Self {
        AlgoPolicy {
            conventional: false,
            winograd: true,
            ..Self::default()
        }
    }

    /// The full three-entry menu: conventional, dense Winograd, and
    /// sparse Winograd pruned to `density_pm` per mille of transformed
    /// coefficients. The caller asserts the model tolerates pruning at
    /// that density (e.g. after retraining).
    pub fn heterogeneous_sparse(density_pm: u16) -> Self {
        AlgoPolicy {
            sparse: true,
            sparse_density_pm: density_pm,
            ..Self::default()
        }
    }

    /// This policy with sparse Winograd added at `density_pm`.
    pub fn with_sparse(self, density_pm: u16) -> Self {
        AlgoPolicy {
            sparse: true,
            sparse_density_pm: density_pm,
            ..self
        }
    }
}

/// One implemented fusion group: resolved per-layer configs + timing.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupPlan {
    /// First layer index (inclusive).
    pub start: usize,
    /// Last layer index (exclusive).
    pub end: usize,
    /// Per-layer resolved configurations.
    pub configs: Vec<LayerConfig>,
    /// Pipeline timing and resource totals.
    pub timing: GroupTiming,
}

impl GroupPlan {
    /// Group latency in cycles.
    pub fn latency(&self) -> u64 {
        self.timing.latency
    }

    /// Minimal feature-map transfer of the group (first input + last
    /// output) — `min_t[i][j]` of Algorithm 1.
    pub fn transfer_bytes(&self) -> u64 {
        self.timing.dram_fmap_bytes
    }
}

/// One entry of a layer's implementation menu.
#[derive(Debug, Clone)]
struct MenuEntry {
    config: LayerConfig,
    /// Admissible lower bound on how this layer constrains group latency:
    /// its compute cycles (nothing overlaps below this) or its weight
    /// stream time, whichever is larger.
    bound: u64,
    /// The entry's latency contribution in every group position.
    profile: LatencyProfile,
}

/// The position-dependent latency contribution of a menu entry: the
/// steady-state body cycles (`iterations · stage`) and the pipeline fill
/// cycles for each of the four (heads group?, tails group?) positions a
/// layer can occupy, indexed by [`LatencyProfile::slot`]. They come from
/// `layer_timing`, which `group_timing` runs per member, so dominance on
/// this profile is exact, not heuristic, and a search leaf can fold them
/// into the group latency without calling `group_timing`.
#[derive(Debug, Clone, Copy)]
struct LatencyProfile {
    body: [u64; 4],
    fill: [u64; 4],
}

impl LatencyProfile {
    /// Profile index of the layer at offset `off` of an `n`-layer group:
    /// the head loads the group's input fmap, the tail stores its output.
    fn slot(off: usize, n: usize) -> usize {
        2 * usize::from(off == 0) + usize::from(off + 1 == n)
    }

    fn of(config: &LayerConfig, bpc: f64) -> Self {
        let mut body = [0u64; 4];
        let mut fill = [0u64; 4];
        for slot in 0..4 {
            let t = layer_timing(config, slot >= 2, slot % 2 == 1, bpc);
            body[slot] = t.iterations * t.stage_cycles_per_iter;
            fill[slot] = t.fill_cycles;
        }
        LatencyProfile { body, fill }
    }

    fn le(&self, other: &LatencyProfile) -> bool {
        self.body.iter().zip(other.body).all(|(a, b)| *a <= b)
            && self.fill.iter().zip(other.fill).all(|(a, b)| *a <= b)
    }
}

/// Drops menu entries that can never appear in a latency-optimal plan:
/// `b` dominates `a` (same algorithm menu) when `b` is no worse in every
/// latency-profile component, every resource dimension, and DRAM weight
/// traffic — then any group using `a` stays feasible and no slower with
/// `b` substituted. Mutually-equal entries keep the earlier one, so the
/// surviving menu is a deterministic subsequence and its `bound`s stay
/// monotone.
fn dominance_prune(entries: Vec<MenuEntry>) -> (Vec<MenuEntry>, u64) {
    if entries.len() < 2 {
        return (entries, 0);
    }
    let dominates = |b: usize, a: usize| -> bool {
        entries[b].profile.le(&entries[a].profile)
            && entries[b]
                .config
                .estimate
                .resources
                .fits_within(&entries[a].config.estimate.resources)
            && entries[b].config.weight_bytes <= entries[a].config.weight_bytes
    };
    let keep: Vec<bool> = (0..entries.len())
        .map(|a| {
            !(0..entries.len()).any(|b| b != a && dominates(b, a) && (b < a || !dominates(a, b)))
        })
        .collect();
    let mut dropped = 0u64;
    let kept: Vec<MenuEntry> = entries
        .into_iter()
        .zip(keep)
        .filter_map(|(e, k)| {
            if k {
                Some(e)
            } else {
                dropped += 1;
                None
            }
        })
        .collect();
    (kept, dropped)
}

const CACHE_SHARDS: usize = 16;

/// One shard of the plan cache: range → memoized plan (`None` =
/// infeasible/over-cap, cached too).
type CacheShard = Mutex<HashMap<(usize, usize), Option<GroupPlan>>>;

/// The `fusion[i][j]` cache behind sharded locks, so plan-table workers
/// mostly write disjoint shards instead of serializing on one map.
struct PlanCache {
    shards: [CacheShard; CACHE_SHARDS],
}

impl PlanCache {
    fn new() -> Self {
        PlanCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn shard(&self, key: (usize, usize)) -> &CacheShard {
        &self.shards[key.0.wrapping_mul(31).wrapping_add(key.1) % CACHE_SHARDS]
    }

    fn get(&self, key: (usize, usize)) -> Option<Option<GroupPlan>> {
        self.shard(key)
            .lock()
            .expect("plan cache shard")
            .get(&key)
            .cloned()
    }

    fn insert(&self, key: (usize, usize), value: Option<GroupPlan>) {
        self.shard(key)
            .lock()
            .expect("plan cache shard")
            .insert(key, value);
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("plan cache shard").clear();
        }
    }
}

/// Branch-and-bound group planner with cross-call memoization.
///
/// The search core is immutable: [`GroupPlanner::plan_shared`] takes
/// `&self` and the memo cache is internally synchronized, so a planner
/// can be shared across scoped worker threads (see [`crate::parallel`]).
pub struct GroupPlanner<'a> {
    net: &'a Network,
    device: &'a FpgaDevice,
    policy: AlgoPolicy,
    /// `ipls` cache: implementation menu per layer, grouped by algorithm,
    /// each algorithm's entries sorted by descending parallelism and
    /// dominance-pruned.
    menus: Vec<Vec<Vec<MenuEntry>>>,
    /// `fusion[i][j]` cache.
    cache: PlanCache,
    /// Maximum layers per fusion group (paper default: 8, §7.1).
    max_group_layers: usize,
    /// Per-layer per-dimension minimal resources (for suffix bounds).
    min_resources: Vec<ResourceVec>,
    /// Prefix sums of each layer's minimal `weight_bytes`, so the DRAM
    /// floor of any range is O(1) instead of a full menu rescan.
    min_weight_prefix: Vec<u64>,
    /// Menu entries removed by dominance pruning at construction.
    menu_dominated: u64,
    /// Observability context; disabled by default (zero-cost).
    telemetry: Telemetry,
}

/// Search-tree counts, tallied in plain integers by the searching thread
/// and published to the `bnb.*` counters once per search (or split
/// task), so a traced search pays no atomic read-modify-write per node
/// and split workers never contend on a shared counter.
#[derive(Debug, Default)]
struct Tally {
    /// `visit` calls actually made (tree nodes entered).
    expanded: u64,
    /// Subtree nodes skipped by the monotone latency bound (line 16-17).
    pruned_bound: u64,
    /// Subtree nodes skipped by the suffix resource-feasibility check.
    pruned_resource: u64,
    /// Subtree nodes skipped by the DRAM-floor optimality early exit.
    pruned_floor: u64,
    /// Complete assignments evaluated at a leaf.
    leaves_evaluated: u64,
    /// Times a leaf replaced the best incumbent.
    incumbent_updates: u64,
}

/// Precomputed bounds and path-independent constants of one search
/// range.
struct RangeBounds {
    /// DRAM-traffic latency floor of the range.
    floor: u64,
    /// Suffix per-dimension resource lower bounds.
    suffix_min: Vec<ResourceVec>,
    /// `subtree[off]` — descendants below a node at offset `off` in the
    /// *unpruned* tree, so `expanded + Σ pruned == 1 + subtree[0]` holds
    /// exactly regardless of which cuts fire (tested against exhaustive
    /// enumeration).
    subtree: Vec<u64>,
    /// Inter-layer FIFO resources: every path pays them, so a leaf adds
    /// them once to its engines' sum.
    fifo: ResourceVec,
    /// Group feature-map traffic (first input + last output), the
    /// path-independent part of a leaf's DRAM bound.
    fmap_bytes: u64,
}

/// Running totals of a partial path, carried by value down the search.
/// Each field is one of the folds `group_timing` performs over a whole
/// group, so extending a path by one layer is O(1).
#[derive(Debug, Clone, Copy, Default)]
struct PathTotals {
    /// Summed engine resources (FIFOs are added at the leaf).
    used: ResourceVec,
    /// Largest per-layer body `iterations · stage`.
    slowest: u64,
    /// Summed per-layer pipeline fill cycles.
    fill: u64,
    /// Summed DRAM weight bytes.
    weights: u64,
}

impl PathTotals {
    /// The totals with `entry` appended in profile slot `slot`.
    fn with(self, entry: &MenuEntry, slot: usize) -> Self {
        PathTotals {
            used: self.used + entry.config.estimate.resources,
            slowest: self.slowest.max(entry.profile.body[slot]),
            fill: self.fill + entry.profile.fill[slot],
            weights: self.weights + entry.config.weight_bytes,
        }
    }

    /// `(latency, resources)` of a complete path over the range `bounds`
    /// describes: the inter-layer pipeline (slowest body + total fill)
    /// floored by the DRAM bound, and the engines plus the range's FIFOs.
    fn leaf(&self, bounds: &RangeBounds, bpc: f64) -> (u64, ResourceVec) {
        let dram = ((bounds.fmap_bytes + self.weights) as f64 / bpc).ceil() as u64;
        (
            (self.slowest + self.fill).max(dram),
            self.used + bounds.fifo,
        )
    }
}

/// A search incumbent: latency, per-layer configs, and group timing.
type Incumbent = (u64, Vec<LayerConfig>, GroupTiming);

/// The state of one depth-first search.
struct Ctx<'m> {
    menus: &'m [Vec<Vec<MenuEntry>>],
    bounds: &'m RangeBounds,
    capacity: ResourceVec,
    device: &'m FpgaDevice,
    bpc: f64,
    start: usize,
    n: usize,
    best: Option<Incumbent>,
    /// Cross-worker incumbent, present only in split search. Workers
    /// prune with it *strictly* (`bound > shared`) and accept leaves
    /// against their local best only, which keeps every worker's local
    /// winner — and therefore the reduced result — bit-identical to the
    /// serial depth-first search even when latencies tie.
    shared_best: Option<&'m AtomicU64>,
    tally: Tally,
}

/// Visits the node at offset `off` whose path is `chosen` with running
/// `totals`. Nothing here allocates except an incumbent update.
fn visit<'m>(ctx: &mut Ctx<'m>, off: usize, chosen: &mut Vec<&'m MenuEntry>, totals: PathTotals) {
    ctx.tally.expanded += 1;
    let best_latency = ctx.best.as_ref().map_or(u64::MAX, |b| b.0);
    if best_latency <= ctx.bounds.floor {
        // Provably optimal already; everything below is skipped.
        ctx.tally.pruned_floor += ctx.bounds.subtree[off];
        return;
    }
    if off == ctx.n {
        ctx.tally.leaves_evaluated += 1;
        // The latency is at least the pipeline term, so a pipeline that
        // cannot beat the incumbent settles the leaf before the DRAM
        // bound's division.
        if totals.slowest + totals.fill >= best_latency {
            return;
        }
        let (latency, resources) = totals.leaf(ctx.bounds, ctx.bpc);
        if latency >= best_latency || !resources.fits_within(&ctx.capacity) {
            return;
        }
        // A new incumbent: only now is the plan materialized, through
        // the pipeline model itself.
        let configs: Vec<LayerConfig> = chosen.iter().map(|e| e.config.clone()).collect();
        let timing =
            group_timing(&configs, ctx.device).expect("a search path chains by construction");
        debug_assert_eq!(
            (timing.latency, timing.resources),
            (latency, resources),
            "incremental leaf evaluation diverged from group_timing"
        );
        ctx.tally.incumbent_updates += 1;
        if let Some(shared) = ctx.shared_best {
            shared.fetch_min(latency, Ordering::Relaxed);
        }
        ctx.best = Some((latency, configs, timing));
        return;
    }
    let idx = ctx.start + off;
    let slot = LatencyProfile::slot(off, ctx.n);
    // One pruned child slot = the child node plus its descendants.
    let child_weight = 1 + ctx.bounds.subtree[off + 1];
    let menus = ctx.menus;
    for algo_menu in &menus[idx] {
        for (pos, entry) in algo_menu.iter().enumerate() {
            let local_best = ctx.best.as_ref().map_or(u64::MAX, |b| b.0);
            // Parallelism descends within the menu, so the bound only
            // grows: break, don't continue (paper line 16-17). The shared
            // incumbent tightens the limit only strictly (`> shared`) so
            // equal-latency ties still resolve in serial order.
            let prune_limit = match ctx.shared_best {
                None => local_best,
                Some(s) => local_best.min(s.load(Ordering::Relaxed).saturating_add(1)),
            };
            if entry.bound >= prune_limit {
                ctx.tally.pruned_bound += (algo_menu.len() - pos) as u64 * child_weight;
                break;
            }
            let next = totals.with(entry, slot);
            let optimistic = next.used + ctx.bounds.suffix_min[off + 1];
            if !optimistic.fits_within(&ctx.capacity) {
                ctx.tally.pruned_resource += child_weight;
                continue;
            }
            chosen.push(entry);
            visit(ctx, off + 1, chosen, next);
            chosen.pop();
        }
    }
}

impl<'a> GroupPlanner<'a> {
    /// Prepares a planner for `net` on `device` with the given algorithm
    /// policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidRequest`] when some layer has no
    /// feasible implementation at all (e.g. an FC layer, which the
    /// accelerator does not map — strip it with
    /// [`Network::conv_body`] first).
    pub fn new(
        net: &'a Network,
        device: &'a FpgaDevice,
        policy: AlgoPolicy,
    ) -> Result<Self, CoreError> {
        Self::build(net, device, policy, true)
    }

    /// Like [`GroupPlanner::new`] but without dominance pruning — the
    /// exhaustive menus the paper's pseudocode enumerates. Only useful
    /// for validating the pruning itself.
    #[cfg(test)]
    fn new_unpruned(
        net: &'a Network,
        device: &'a FpgaDevice,
        policy: AlgoPolicy,
    ) -> Result<Self, CoreError> {
        Self::build(net, device, policy, false)
    }

    fn build(
        net: &'a Network,
        device: &'a FpgaDevice,
        policy: AlgoPolicy,
        dominance: bool,
    ) -> Result<Self, CoreError> {
        let bpc = device.bytes_per_cycle();
        let mut menus = Vec::with_capacity(net.len());
        let mut min_resources = Vec::with_capacity(net.len());
        let mut menu_dominated = 0u64;
        for (idx, layer) in net.layers().iter().enumerate() {
            let mut algo_menus: Vec<Vec<MenuEntry>> = Vec::new();
            let mut algos: Vec<Algorithm> = Vec::new();
            if policy.winograd && layer.winograd_eligible() {
                algos.push(Algorithm::Winograd {
                    m: policy.winograd_m,
                });
            }
            // Sparse shares Winograd's eligibility (stride-1 transform
            // tiles); it gets its *own* menu below, so dominance pruning
            // still compares like with like — the rule's soundness proof
            // ("substitute b for a, group stays feasible and no slower")
            // needs the substitution to preserve the layer's numerics,
            // which holds within one algorithm but not across the
            // dense/sparse boundary.
            if policy.sparse && layer.winograd_eligible() {
                algos.push(Algorithm::SparseWinograd {
                    m: policy.winograd_m,
                    density_pm: policy.sparse_density_pm,
                });
            }
            if policy.conventional || algos.is_empty() {
                // Conventional is the universal fallback so every layer
                // stays mappable even under winograd_preferred().
                algos.push(Algorithm::Conventional);
            }
            for algo in algos {
                let mut entries = Vec::new();
                for p in parallelism_candidates(layer, algo, device.resources().dsp) {
                    let cfg = EngineConfig {
                        algorithm: algo,
                        parallelism: p,
                    };
                    let Ok(config) = LayerConfig::build(net, idx, cfg) else {
                        continue;
                    };
                    if !config.estimate.resources.fits_within(device.resources()) {
                        continue;
                    }
                    let weight_cycles = (config.weight_bytes as f64 / bpc).ceil() as u64;
                    let bound = config.estimate.compute_cycles.max(weight_cycles);
                    let profile = LatencyProfile::of(&config, bpc);
                    entries.push(MenuEntry {
                        config,
                        bound,
                        profile,
                    });
                }
                if dominance {
                    let (kept, dropped) = dominance_prune(entries);
                    entries = kept;
                    menu_dominated += dropped;
                }
                if !entries.is_empty() {
                    algo_menus.push(entries);
                }
            }
            if algo_menus.is_empty() {
                return Err(CoreError::InvalidRequest(format!(
                    "layer {idx} `{}` has no feasible implementation on {}",
                    layer.name,
                    device.name()
                )));
            }
            let mut min_r = ResourceVec::new(u64::MAX, u64::MAX, u64::MAX, u64::MAX);
            for e in algo_menus.iter().flatten() {
                let r = e.config.estimate.resources;
                min_r = ResourceVec::new(
                    min_r.bram_18k.min(r.bram_18k),
                    min_r.dsp.min(r.dsp),
                    min_r.ff.min(r.ff),
                    min_r.lut.min(r.lut),
                );
            }
            menus.push(algo_menus);
            min_resources.push(min_r);
        }
        let mut min_weight_prefix = Vec::with_capacity(net.len() + 1);
        min_weight_prefix.push(0u64);
        for menu in &menus {
            let min_w = menu
                .iter()
                .flatten()
                .map(|e| e.config.weight_bytes)
                .min()
                .unwrap_or(0);
            min_weight_prefix.push(min_weight_prefix.last().copied().unwrap_or(0) + min_w);
        }
        Ok(GroupPlanner {
            net,
            device,
            policy,
            menus,
            cache: PlanCache::new(),
            min_resources,
            min_weight_prefix,
            menu_dominated,
            max_group_layers: MAX_FUSION_LAYERS,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Attaches an observability context. Search counters
    /// (`bnb.nodes_expanded`, `bnb.pruned_*`, …) and per-group `bnb.plan`
    /// spans are recorded against it from then on. Menus are
    /// dominance-pruned at construction, before any context exists, so
    /// the removal count is surfaced here as `bnb.menu_dominated`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
        self.telemetry
            .counter("bnb.menu_dominated")
            .add(self.menu_dominated);
    }

    /// The observability context this planner records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Total implementation-menu entries per layer (across algorithms),
    /// after dominance pruning.
    ///
    /// The full, unpruned Algorithm 2 tree over layers `[i, j)` has
    /// `T(i) = 1 + m(i)·T(i+1)` nodes (with `T(j) = 1`), where `m` is
    /// this vector — the reference for validating the planner's
    /// expanded/pruned accounting against exhaustive search.
    pub fn menu_sizes(&self) -> Vec<usize> {
        self.menus
            .iter()
            .map(|algo_menus| algo_menus.iter().map(Vec::len).sum())
            .collect()
    }

    /// Menu entries removed by dominance pruning at construction.
    pub fn menu_dominated(&self) -> u64 {
        self.menu_dominated
    }

    /// Overrides the fusion-group size cap (the paper uses 8 for VGG due
    /// to memory-port limits, but fuses all 10 body layers of AlexNet in
    /// §7.3 — callers reproducing that experiment raise the cap).
    /// Clears the plan cache.
    pub fn set_max_group_layers(&mut self, max: usize) {
        self.max_group_layers = max.max(1);
        self.cache.clear();
    }

    /// The current fusion-group size cap.
    pub fn max_group_layers(&self) -> usize {
        self.max_group_layers
    }

    /// The algorithm policy this planner searches under.
    pub fn policy(&self) -> AlgoPolicy {
        self.policy
    }

    /// Implements layers `[range)` as one fusion group, returning the
    /// latency-optimal plan or `None` when no assignment fits the device
    /// (or the range exceeds [`MAX_FUSION_LAYERS`]).
    ///
    /// Results are memoized (`fusion[i][j]` is "generated offline" in the
    /// paper).
    pub fn plan(&mut self, range: Range<usize>) -> Option<GroupPlan> {
        self.plan_shared(range)
    }

    /// [`GroupPlanner::plan`] through a shared reference — the entry
    /// point for concurrent plan-table workers. The memo cache is
    /// internally synchronized; each range should be requested by one
    /// worker (the table assigns ranges disjointly) so the
    /// `bnb.plans_computed` count stays exact.
    pub fn plan_shared(&self, range: Range<usize>) -> Option<GroupPlan> {
        let key = (range.start, range.end);
        if let Some(hit) = self.cache.get(key) {
            self.telemetry.counter("bnb.plan_cache_hits").incr();
            return hit;
        }
        self.telemetry.counter("bnb.plans_computed").incr();
        let span = self.telemetry.span(
            "bnb",
            &format!("plan layers {}..{}", range.start, range.end),
        );
        let plan = self.search(range.clone());
        drop(span);
        self.cache.insert(key, plan.clone());
        plan
    }

    /// Like [`GroupPlanner::plan_shared`], but splits the branch-and-bound
    /// itself across up to `threads` workers: each first-layer menu entry
    /// opens an independent subtree, workers share the incumbent latency
    /// through an atomic, and the reduction picks the winner by
    /// `(latency, menu position)` — bit-identical to the serial search.
    ///
    /// Worth it only when the plan table has a single admissible range
    /// (e.g. a fully-fused AlexNet body); otherwise ranges themselves are
    /// the better unit of parallelism.
    ///
    /// # Panics
    ///
    /// Panics when a subtree's search panics, as the serial search would.
    pub fn plan_split(&self, range: Range<usize>, threads: usize) -> Option<GroupPlan> {
        let key = (range.start, range.end);
        if let Some(hit) = self.cache.get(key) {
            self.telemetry.counter("bnb.plan_cache_hits").incr();
            return hit;
        }
        self.telemetry.counter("bnb.plans_computed").incr();
        let span = self.telemetry.span(
            "bnb",
            &format!("plan layers {}..{}", range.start, range.end),
        );
        let plan = self.search_parallel(range.clone(), threads);
        drop(span);
        self.cache.insert(key, plan.clone());
        plan
    }

    fn range_admissible(&self, range: &Range<usize>) -> bool {
        !range.is_empty() && range.end <= self.net.len() && range.len() <= self.max_group_layers
    }

    fn range_bounds(&self, range: &Range<usize>) -> RangeBounds {
        let n = range.len();
        let dtype = DataType::Fixed16;
        let mut suffix_min = vec![ResourceVec::ZERO; n + 1];
        for off in (0..n).rev() {
            suffix_min[off] = suffix_min[off + 1] + self.min_resources[range.start + off];
        }
        let mut subtree = vec![0u64; n + 1];
        for off in (0..n).rev() {
            let m: u64 = self.menus[range.start + off]
                .iter()
                .map(|v| v.len() as u64)
                .sum();
            subtree[off] = m.saturating_mul(1 + subtree[off + 1]);
        }
        // Every entry of a layer shares its shapes; read them off the
        // first one.
        let shapes = |idx: usize| &self.menus[idx][0][0].config;
        let fmap_bytes = shapes(range.start).input.bytes(dtype) as u64
            + shapes(range.end - 1).output.bytes(dtype) as u64;
        let fifo = (range.start..range.end - 1)
            .map(|idx| fifo_resources(shapes(idx).output))
            .sum();
        // DRAM floor: feature maps + the *smallest* possible weight
        // traffic of the range's layers (prefix sums, O(1) per range).
        let min_weights = self.min_weight_prefix[range.end] - self.min_weight_prefix[range.start];
        RangeBounds {
            floor: ((fmap_bytes + min_weights) as f64 / self.device.bytes_per_cycle()).ceil()
                as u64,
            suffix_min,
            subtree,
            fifo,
            fmap_bytes,
        }
    }

    /// Adds a finished search's tally to the `bnb.*` counters.
    fn publish(&self, tally: &Tally) {
        let t = &self.telemetry;
        t.add("bnb.nodes_expanded", tally.expanded);
        t.add("bnb.pruned_bound", tally.pruned_bound);
        t.add("bnb.pruned_resource", tally.pruned_resource);
        t.add("bnb.pruned_floor", tally.pruned_floor);
        t.add("bnb.leaves_evaluated", tally.leaves_evaluated);
        t.add("bnb.incumbent_updates", tally.incumbent_updates);
    }

    /// A fresh depth-first search over `range`.
    fn ctx<'m>(
        &'m self,
        range: &Range<usize>,
        bounds: &'m RangeBounds,
        shared_best: Option<&'m AtomicU64>,
    ) -> Ctx<'m> {
        Ctx {
            menus: &self.menus,
            bounds,
            capacity: *self.device.resources(),
            device: self.device,
            bpc: self.device.bytes_per_cycle(),
            start: range.start,
            n: range.len(),
            best: None,
            shared_best,
            tally: Tally::default(),
        }
    }

    fn search(&self, range: Range<usize>) -> Option<GroupPlan> {
        if !self.range_admissible(&range) {
            return None;
        }
        let bounds = self.range_bounds(&range);
        let mut ctx = self.ctx(&range, &bounds, None);
        let mut chosen = Vec::with_capacity(range.len());
        visit(&mut ctx, 0, &mut chosen, PathTotals::default());
        self.publish(&ctx.tally);
        ctx.best.map(|(_, configs, timing)| GroupPlan {
            start: range.start,
            end: range.end,
            configs,
            timing,
        })
    }

    /// The split branch-and-bound behind [`GroupPlanner::plan_split`]:
    /// the root's children (first-layer menu entries, in menu order) are
    /// the jobs of one `winofuse-runtime` pool run, each writing its
    /// subtree's winner into its own result slot.
    ///
    /// Determinism: the serial winner is the depth-first-first leaf that
    /// attains the global minimum latency, and every entry on its path
    /// has `bound ≤` that latency `≤ shared`, so the strict shared check
    /// can never cut it. Workers whose subtree attains the global minimum
    /// therefore report exactly their serial-subtree winner; all others
    /// report strictly slower candidates (or none), and the
    /// `(latency, task index)` reduction returns the serial result. The
    /// node accounting identity (`expanded + Σ pruned == tree size`)
    /// still holds exactly, though the expanded/pruned split may vary
    /// run to run — shared pruning races are benign for totals, not for
    /// the breakdown.
    fn search_parallel(&self, range: Range<usize>, threads: usize) -> Option<GroupPlan> {
        if !self.range_admissible(&range) {
            return None;
        }
        let n = range.len();
        let tasks: Vec<&MenuEntry> = self.menus[range.start].iter().flatten().collect();
        if threads <= 1 || tasks.len() < 2 {
            return self.search(range);
        }
        let bounds = self.range_bounds(&range);
        // The root node itself.
        self.publish(&Tally {
            expanded: 1,
            ..Tally::default()
        });
        let child_weight = 1 + bounds.subtree.get(1).copied().unwrap_or(0);

        let shared = AtomicU64::new(u64::MAX);
        let mut slots: Vec<Option<Incumbent>> = tasks.iter().map(|_| None).collect();
        let searched = winofuse_runtime::run_jobs(
            threads,
            slots.iter_mut().collect(),
            &PoolProfiler::disabled(),
            || (),
            |(), t, slot: &mut Option<Incumbent>| {
                let entry = tasks[t];
                let mut ctx = self.ctx(&range, &bounds, Some(&shared));
                let limit = shared.load(Ordering::Relaxed).saturating_add(1);
                let totals = PathTotals::default().with(entry, LatencyProfile::slot(0, n));
                let optimistic = totals.used + bounds.suffix_min[1];
                if entry.bound >= limit {
                    ctx.tally.pruned_bound += child_weight;
                } else if !optimistic.fits_within(&ctx.capacity) {
                    ctx.tally.pruned_resource += child_weight;
                } else {
                    let mut chosen = Vec::with_capacity(n);
                    chosen.push(entry);
                    visit(&mut ctx, 1, &mut chosen, totals);
                }
                self.publish(&ctx.tally);
                *slot = ctx.best;
            },
        );
        if let Err(e) = searched {
            panic!("split branch-and-bound: {e}");
        }
        slots
            .into_iter()
            .enumerate()
            .filter_map(|(t, best)| best.map(|b| (t, b)))
            .min_by_key(|(t, (latency, _, _))| (*latency, *t))
            .map(|(_, (_, configs, timing))| GroupPlan {
                start: range.start,
                end: range.end,
                configs,
                timing,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use winofuse_model::zoo;

    /// `group_timing`'s per-layer `(iterations · stage, fill)` for `cfg`
    /// in profile slot `slot`. Stand-in neighbours (copies of `cfg` whose
    /// shapes chain onto it) precede it unless it heads the group and
    /// follow it unless it tails the group, so every slot is reachable
    /// for every layer, the network's first and last included.
    fn timed_in_slot(cfg: &LayerConfig, slot: usize, dev: &FpgaDevice) -> (u64, u64) {
        let (head, tail) = (slot >= 2, slot % 2 == 1);
        let mut group = Vec::new();
        if !head {
            group.push(LayerConfig {
                output: cfg.input,
                ..cfg.clone()
            });
        }
        let off = group.len();
        group.push(cfg.clone());
        if !tail {
            group.push(LayerConfig {
                input: cfg.output,
                ..cfg.clone()
            });
        }
        assert_eq!(LatencyProfile::slot(off, group.len()), slot);
        let t = group_timing(&group, dev).unwrap().layers[off];
        (t.iterations * t.stage_cycles_per_iter, t.fill_cycles)
    }

    #[test]
    fn stored_profiles_match_group_timing_in_every_slot() {
        let dev = FpgaDevice::zc706();
        for net in [zoo::vgg_e(), zoo::alexnet()] {
            let body = net.conv_body().unwrap();
            for policy in [
                AlgoPolicy::heterogeneous(),
                AlgoPolicy::heterogeneous_sparse(250),
            ] {
                // Unpruned: dominance pruning reads the dropped entries'
                // profiles too.
                let planner = GroupPlanner::new_unpruned(&body, &dev, policy).unwrap();
                for entry in planner.menus.iter().flatten().flatten() {
                    for slot in 0..4 {
                        assert_eq!(
                            (entry.profile.body[slot], entry.profile.fill[slot]),
                            timed_in_slot(&entry.config, slot, &dev),
                            "`{}` {:?}, slot {slot}",
                            entry.config.layer.name,
                            entry.config.engine
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn incremental_leaf_matches_group_timing(
            setup in 0usize..8,
            start in 0usize..21,
            len in 1usize..11,
            picks in prop::collection::vec(0usize..1 << 16, 10..11),
        ) {
            let net = if setup & 1 == 0 { zoo::vgg_e() } else { zoo::alexnet() };
            let net = net.conv_body().unwrap();
            let policy = if setup & 2 == 0 {
                AlgoPolicy::heterogeneous()
            } else {
                AlgoPolicy::heterogeneous_sparse(250)
            };
            // The zc706 moves a whole 42 bytes per cycle; an odd bandwidth
            // makes the DRAM division genuinely fractional.
            let dev = if setup & 4 == 0 {
                FpgaDevice::zc706()
            } else {
                FpgaDevice::zc706().with_bandwidth(1_234_567_891)
            };
            prop_assume!(start < net.len());
            let range = start..(start + len).min(net.len());
            let planner = GroupPlanner::new_unpruned(&net, &dev, policy).unwrap();
            let bounds = planner.range_bounds(&range);
            let mut totals = PathTotals::default();
            let mut configs = Vec::new();
            for (off, idx) in range.clone().enumerate() {
                let menu: Vec<&MenuEntry> = planner.menus[idx].iter().flatten().collect();
                let entry = menu[picks[off] % menu.len()];
                totals = totals.with(entry, LatencyProfile::slot(off, range.len()));
                configs.push(entry.config.clone());
            }
            let timing = group_timing(&configs, &dev).unwrap();
            prop_assert_eq!(
                totals.leaf(&bounds, dev.bytes_per_cycle()),
                (timing.latency, timing.resources),
                "range {:?}", range
            );
        }
    }

    #[test]
    fn single_layer_group_prefers_max_parallelism() {
        let net = zoo::vgg_e_fused_prefix();
        let dev = FpgaDevice::zc706();
        let mut planner = GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous()).unwrap();
        let plan = planner.plan(1..2).unwrap();
        // conv1_2 alone can use a big engine; latency must beat a p=16 one.
        let modest = LayerConfig::build(
            &net,
            1,
            EngineConfig {
                algorithm: Algorithm::Conventional,
                parallelism: 16,
            },
        )
        .unwrap();
        let modest_t = group_timing(&[modest], &dev).unwrap();
        assert!(plan.latency() < modest_t.latency);
    }

    #[test]
    fn heterogeneous_beats_or_matches_homogeneous() {
        let net = zoo::vgg_e_fused_prefix();
        let dev = FpgaDevice::zc706();
        let range = 0..net.len();
        let hetero = GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous())
            .unwrap()
            .plan(range.clone())
            .unwrap();
        let conv_only = GroupPlanner::new(&net, &dev, AlgoPolicy::conventional_only())
            .unwrap()
            .plan(range)
            .unwrap();
        assert!(
            hetero.latency() <= conv_only.latency(),
            "hetero {} vs conventional-only {}",
            hetero.latency(),
            conv_only.latency()
        );
    }

    #[test]
    fn heterogeneous_vgg_group_uses_winograd_somewhere() {
        let net = zoo::vgg_e_fused_prefix();
        let dev = FpgaDevice::zc706();
        let plan = GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous())
            .unwrap()
            .plan(0..net.len())
            .unwrap();
        let wino = plan
            .configs
            .iter()
            .filter(|c| matches!(c.engine.algorithm, Algorithm::Winograd { .. }))
            .count();
        assert!(
            wino > 0,
            "expected at least one winograd layer in the fused VGG prefix"
        );
        // And the plan must fit the device.
        assert!(plan.timing.resources.fits_within(dev.resources()));
    }

    #[test]
    fn sparse_policy_selects_sparse_winograd_somewhere_on_vgg() {
        let net = zoo::vgg_e_fused_prefix();
        let dev = FpgaDevice::zc706();
        let plan = GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous_sparse(250))
            .unwrap()
            .plan(0..net.len())
            .unwrap();
        let sparse = plan
            .configs
            .iter()
            .filter(|c| matches!(c.engine.algorithm, Algorithm::SparseWinograd { .. }))
            .count();
        assert!(
            sparse > 0,
            "expected at least one sparse-winograd layer in the pruned VGG prefix"
        );
        assert!(plan.timing.resources.fits_within(dev.resources()));
        // The pruned menu can only help: the optimum is no slower than
        // the dense heterogeneous one.
        let dense = GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous())
            .unwrap()
            .plan(0..net.len())
            .unwrap();
        assert!(
            plan.latency() <= dense.latency(),
            "sparse {} vs dense {}",
            plan.latency(),
            dense.latency()
        );
    }

    #[test]
    fn sparse_policy_dominance_pruning_preserves_optimal_latency() {
        let dev = FpgaDevice::zc706();
        let net = zoo::small_test_net();
        let mut pruned =
            GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous_sparse(250)).unwrap();
        let mut full =
            GroupPlanner::new_unpruned(&net, &dev, AlgoPolicy::heterogeneous_sparse(250)).unwrap();
        for end in 1..=net.len() {
            assert_eq!(
                pruned.plan(0..end).as_ref().map(GroupPlan::latency),
                full.plan(0..end).as_ref().map(GroupPlan::latency),
                "range 0..{end}: three-menu dominance pruning must not change the optimum"
            );
        }
    }

    #[test]
    fn oversized_ranges_rejected() {
        let net = zoo::vgg_e().conv_body().unwrap();
        let dev = FpgaDevice::zc706();
        let mut planner = GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous()).unwrap();
        assert!(planner.plan(0..MAX_FUSION_LAYERS + 1).is_none());
        assert!(planner.plan(3..3).is_none());
    }

    #[test]
    fn memoization_returns_identical_plans() {
        let net = zoo::small_test_net();
        let dev = FpgaDevice::zc706();
        let mut planner = GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous()).unwrap();
        let a = planner.plan(0..3);
        let b = planner.plan(0..3);
        assert_eq!(a, b);
    }

    #[test]
    fn fc_layers_make_planner_construction_fail() {
        let net = zoo::alexnet(); // contains FC layers
        let dev = FpgaDevice::zc706();
        assert!(GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous()).is_err());
        // The conv body works.
        let body = net.conv_body().unwrap();
        assert!(GroupPlanner::new(&body, &dev, AlgoPolicy::heterogeneous()).is_ok());
    }

    #[test]
    fn winograd_preferred_still_maps_strided_layers() {
        let net = zoo::small_test_net(); // conv1 is stride-2
        let dev = FpgaDevice::zc706();
        let plan = GroupPlanner::new(&net, &dev, AlgoPolicy::winograd_preferred())
            .unwrap()
            .plan(0..1)
            .unwrap();
        assert_eq!(plan.configs[0].engine.algorithm, Algorithm::Conventional);
    }

    #[test]
    fn group_plan_reports_min_transfer() {
        let net = zoo::small_test_net();
        let dev = FpgaDevice::zc706();
        let mut planner = GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous()).unwrap();
        let plan = planner.plan(0..net.len()).unwrap();
        assert_eq!(
            plan.transfer_bytes(),
            net.fused_transfer_bytes(0..net.len(), DataType::Fixed16)
                .unwrap()
        );
    }

    #[test]
    fn dominance_pruning_preserves_optimal_latency() {
        let dev = FpgaDevice::zc706();
        for net in [zoo::small_test_net(), zoo::vgg_e_fused_prefix()] {
            let mut pruned = GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous()).unwrap();
            let mut full =
                GroupPlanner::new_unpruned(&net, &dev, AlgoPolicy::heterogeneous()).unwrap();
            let pruned_menu: usize = pruned.menu_sizes().iter().sum();
            let full_menu: usize = full.menu_sizes().iter().sum();
            assert_eq!(
                pruned_menu as u64 + pruned.menu_dominated(),
                full_menu as u64,
                "every removed entry is accounted"
            );
            for end in 1..=net.len() {
                let a = pruned.plan(0..end);
                let b = full.plan(0..end);
                assert_eq!(
                    a.as_ref().map(GroupPlan::latency),
                    b.as_ref().map(GroupPlan::latency),
                    "range 0..{end}: dominance pruning must not change the optimum"
                );
            }
        }
    }

    #[test]
    fn split_search_matches_serial() {
        let net = zoo::small_test_net();
        let dev = FpgaDevice::zc706();
        for policy in [
            AlgoPolicy::heterogeneous(),
            AlgoPolicy::conventional_only(),
            AlgoPolicy::winograd_preferred(),
            AlgoPolicy::heterogeneous_sparse(250),
        ] {
            let mut serial = GroupPlanner::new(&net, &dev, policy).unwrap();
            let split = GroupPlanner::new(&net, &dev, policy).unwrap();
            for end in 1..=net.len() {
                let a = serial.plan(0..end);
                let b = split.plan_split(0..end, 4);
                assert_eq!(a, b, "policy {policy:?}, range 0..{end}");
            }
        }
    }
}
