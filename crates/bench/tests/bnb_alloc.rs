//! Allocation-count contract for the branch-and-bound search.
//!
//! Algorithm 2 nodes are allocation-free: a node extends its parent's
//! running totals on the stack and records its menu entry by reference.
//! The only allocations inside a search are per range (bound tables,
//! the path buffer, telemetry handles) and per incumbent update, where
//! the winning path is materialized into `LayerConfig`s and timed by
//! `group_timing`. So a search's allocation count scales with
//! `bnb.incumbent_updates`, not with `bnb.nodes_expanded`.
//!
//! Counting `GlobalAlloc`s live in their own single-test integration
//! binaries so no other test's allocations pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use winofuse_core::bnb::{AlgoPolicy, GroupPlanner};
use winofuse_fpga::device::FpgaDevice;
use winofuse_model::zoo;
use winofuse_telemetry::Telemetry;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    let after = ALLOCS.load(Ordering::Relaxed);
    (after - before, r)
}

#[test]
fn search_allocations_scale_with_incumbent_updates_not_nodes() {
    let net = zoo::vgg_e_fused_prefix();
    let dev = FpgaDevice::zc706();
    let tele = Telemetry::enabled();
    let mut planner = GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous()).unwrap();
    planner.set_telemetry(tele.clone());

    let (allocs, plan) = count(|| planner.plan(0..net.len()));
    let plan = plan.expect("the fused VGG-E prefix maps onto the zc706");
    let s = tele.summary();
    let nodes = s.counter("bnb.nodes_expanded");
    let updates = s.counter("bnb.incumbent_updates");
    assert!(
        updates >= 1 && nodes > 1_000,
        "{nodes} nodes, {updates} updates"
    );

    // An update clones one `LayerConfig` per layer (each owns its layer
    // name) into a fresh `Vec`, and `group_timing` allocates its
    // per-layer timing `Vec`: about `layers + 2` allocations. Budget
    // twice that, plus a fixed allowance for the per-range work and the
    // memoized copy of the winning plan.
    let per_update = 2 * (plan.configs.len() as u64 + 2);
    let per_range = 64;
    assert!(
        allocs <= per_update * updates + per_range,
        "{allocs} allocations for {updates} incumbent updates over {nodes} nodes \
         (budget {per_update}/update + {per_range})"
    );
    // And far fewer than one per node.
    assert!(
        allocs * 10 < nodes,
        "{allocs} allocations for {nodes} expanded nodes"
    );
}
