//! Allocation-count pin for one warm `PreparedConv::run` per conv kernel
//! path, at one thread.
//!
//! The four layers cover the paths AlexNet serving runs: a conv1-like
//! 11×11 stride-4 direct layer, a grouped 5×5 pad-2 direct layer like
//! conv2, a Winograd layer small enough for the transform-point schedule
//! like conv3–5, and a Winograd layer with enough tiles for the
//! tile-block schedule. The activation operands are written straight
//! into GEMM panels and the direct GEMM stores into the output tensor,
//! so a call allocates only its output, the per-worker scratch and the
//! pool's job lists; nothing is allocated per job row, per panel or per
//! GEMM. `split_spans` sizes each job's fragment list before filling it,
//! so a list is one allocation however many fragments it holds. The
//! counts are pinned exactly, so a change that adds an allocation on one
//! of these paths shows here.
//!
//! Counting `GlobalAlloc`s live in their own single-test integration
//! binaries so no other test's allocations pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use winofuse::runtime::PoolProfiler;
use winofuse_conv::tensor::random_tensor;
use winofuse_conv::ConvGeometry;
use winofuse_model::layer::ConvParams;
use winofuse_model::runtime::{ExecAlgo, PreparedConv};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter only observes calls.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's, checked by the caller per the `GlobalAlloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One conv layer: name, input `(channels, side)` and its parameters.
struct Case {
    name: &'static str,
    input: (usize, usize),
    params: ConvParams,
}

/// Allocations made by one warm `PreparedConv::run` of `case`, prepared
/// for [`ExecAlgo::Auto`], at one thread, untraced.
fn warm_run_allocs(case: &Case) -> u64 {
    let (channels, side) = case.input;
    let p = case.params;
    let kernels = random_tensor(p.num_output, channels / p.groups, p.kernel, p.kernel, 5);
    let conv = PreparedConv::new(&p, &kernels, ExecAlgo::Auto).expect("layer prepares");
    let geom = ConvGeometry::new(side, side, p.kernel, p.stride, p.pad).expect("geometry");
    let x = random_tensor(1, channels, side, side, 6);
    let prof = PoolProfiler::disabled();
    let run = || {
        conv.run(&x, geom, 1, None, &prof, false)
            .expect("conv runs")
    };
    drop(run());
    let before = ALLOCS.load(Ordering::Relaxed);
    let y = run();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    drop(y);
    allocs
}

#[test]
fn warm_conv_runs_allocate_a_pinned_count() {
    let grouped = ConvParams {
        groups: 2,
        ..ConvParams::new(16, 5, 1, 2, true)
    };
    let cases = [
        // 59×59 → 13×13: 4 output rows per job leave a short last block.
        Case {
            name: "conv1-like direct 11x11/4",
            input: (3, 59),
            params: ConvParams::new(16, 11, 4, 0, true),
        },
        Case {
            name: "conv2-like grouped direct 5x5 pad 2",
            input: (16, 13),
            params: grouped,
        },
        // 13×13 at batch 1: 16 tiles, one tile block, so `Auto` runs the
        // transform-point schedule.
        Case {
            name: "conv3-like winograd, transform-point",
            input: (32, 13),
            params: ConvParams::new(24, 3, 1, 1, true),
        },
        // 40×40: 100 tiles, four tile blocks.
        Case {
            name: "winograd, tile-block",
            input: (8, 40),
            params: ConvParams::new(8, 3, 1, 1, true),
        },
    ];
    let counts: Vec<(&str, u64)> = cases.iter().map(|c| (c.name, warm_run_allocs(c))).collect();
    let pinned = [9, 21, 17, 16];
    let want: Vec<(&str, u64)> = cases.iter().map(|c| c.name).zip(pinned).collect();
    assert_eq!(counts, want, "allocations of one warm run per layer");
}
