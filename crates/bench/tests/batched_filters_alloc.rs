//! Allocation-count contract for the hoisted Winograd GEMM panel pack.
//!
//! `BatchedFilters::new` writes every transform-point plane into GEMM `A`
//! panels exactly once (plan-lowering time). The contract has three
//! parts: `PackedA::pack` makes exactly two allocations (the panel
//! buffer and the block-offset table, both sized up front); a
//! steady-state `gemm_f32_prepacked` call makes **zero** — so no strip
//! or transform-point job ever re-packs filter coefficients, which is
//! what fixed the fused runner losing to the unfused executor on
//! deep-layer strips; and a bank, dense or pruned, makes the same number
//! of allocations at any channel count.
//!
//! Counting `GlobalAlloc`s live in their own single-test integration
//! binaries so no other test's allocations pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use winofuse_conv::cook_toom::f43;
use winofuse_conv::gemm::{BOperand, GemmBlocking, GemmScratch, PackedA};
use winofuse_conv::tensor::random_tensor;
use winofuse_conv::winograd::BatchedFilters;

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
fn prepacked_panels_are_built_once_and_reused_alloc_free() {
    // Warm up lazily-initialized runtime machinery before measuring.
    let _ = count(|| random_tensor(1, 1, 3, 3, 1));

    // `PackedA::pack` sizes everything up front: exactly two allocations
    // (panel buffer + offset table) for any shape, including shapes that
    // span several KC/MC blocks.
    for &(m, k) in &[(4usize, 8usize), (16, 48), (96, 300), (20, 1200)] {
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.25).collect();
        let (n, _packed) = count(|| PackedA::pack(&a, m, k, GemmBlocking::default()));
        assert_eq!(n, 2, "PackedA::pack({m}x{k}) made {n} allocations");
    }

    // A steady-state prepacked GEMM allocates nothing: the A panels come
    // from the bank, the B panels from the warmed scratch.
    let (m, k, n) = (24usize, 54, 40);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 17) as f32 - 8.0).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 13) as f32 - 6.0).collect();
    let packed = PackedA::pack(&a, m, k, GemmBlocking::default());
    let mut scratch = GemmScratch::new();
    let mut c = vec![0.0f32; m * n];
    winofuse_conv::gemm::gemm_f32_prepacked(
        &mut scratch,
        &packed,
        n,
        BOperand::row_major(&b, n),
        &mut c,
        false,
    );
    let (steady, _) = count(|| {
        winofuse_conv::gemm::gemm_f32_prepacked(
            &mut scratch,
            &packed,
            n,
            BOperand::row_major(&b, n),
            &mut c,
            false,
        )
    });
    assert_eq!(steady, 0, "steady-state prepacked GEMM allocated {steady}x");

    // A bank's allocations do not grow with its channel counts, dense or
    // pruned: the α² panel buffers and their offset tables, plus a fixed
    // few (the plane list, the lane scratch, the transform's tap lists,
    // and a flat plane with its index buffer when pruning). Nothing is
    // allocated per kernel pair, per panel or per plane.
    const ALPHA2: u64 = 36;
    const FIXED: u64 = 24;
    let allocs_for = |out_c: usize, in_c: usize, density_pm: u16| {
        let kernels = random_tensor(out_c, in_c, 3, 3, 7);
        let transform = f43();
        count(|| BatchedFilters::pruned(&kernels, &transform, density_pm).unwrap()).0
    };
    for density_pm in [1000u16, 250] {
        let _ = allocs_for(1, 1, density_pm);
        let small = allocs_for(4, 3, density_pm); // 12 pairs, one panel
        let medium = allocs_for(8, 6, density_pm); // 48 pairs
        let large = allocs_for(65, 257, density_pm); // crosses MC and KC
        assert_eq!(
            (medium, large),
            (small, small),
            "density {density_pm}‰: 12 pairs cost {small}, 48 cost {medium}, 16,705 cost {large}"
        );
        assert!(
            small <= 2 * ALPHA2 + FIXED,
            "density {density_pm}‰: {small} allocations, over 2·α² + {FIXED}"
        );
    }
}
