//! Equivalence contract for the fast convolution execution backends.
//!
//! The batched Winograd-as-GEMM path and the blocked im2col+GEMM direct
//! path must agree with the naive reference kernels on arbitrary
//! geometries — including awkward ones where the image size is not a
//! multiple of the Winograd output tile — and must be *bit-identical*
//! across worker counts: `--threads N` may change wall-clock time, never
//! results. Fixed-point results must match the naive kernel exactly
//! (wide-integer accumulation is order-independent).

use proptest::prelude::*;
use winofuse::conv::cook_toom::f43;
use winofuse::conv::fixed::Fix16;
use winofuse::conv::microkernel::KernelChoice;
use winofuse::conv::tensor::{random_tensor, Tensor};
use winofuse::conv::winograd::{self, BatchedFilters, BatchedOptions, WinoSchedule};
use winofuse::conv::{direct, ConvGeometry};
use winofuse::runtime::PoolProfiler;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Absolute tolerance scaled by accumulation depth (inputs are in
/// [-1, 1), so the sum of `channels·K²` products bounds the magnitude).
fn tol(channels: usize, k: usize) -> f32 {
    1e-4 * (channels * k * k) as f32 + 1e-4
}

/// Runs the batched Winograd path at every thread count and checks the
/// results are bit-identical before returning the single-threaded one.
fn batched_all_threads(x: &Tensor<f32>, kr: &Tensor<f32>, geom: ConvGeometry) -> Tensor<f32> {
    let t = f43();
    let filters = BatchedFilters::new(kr, &t).unwrap();
    let prof = PoolProfiler::disabled();
    let opts = BatchedOptions::default();
    let base = winograd::conv2d_batched_ext(x, &filters, geom, &t, 1, None, &prof, opts).unwrap();
    for threads in &THREADS[1..] {
        let y = winograd::conv2d_batched_ext(x, &filters, geom, &t, *threads, None, &prof, opts)
            .unwrap();
        assert_eq!(base, y, "batched Winograd differs at {threads} threads");
    }
    base
}

/// Same contract for the blocked direct path.
fn direct_fast_all_threads(x: &Tensor<f32>, kr: &Tensor<f32>, geom: ConvGeometry) -> Tensor<f32> {
    let packed = direct::PackedKernels::new(kr);
    let prof = PoolProfiler::disabled();
    let base = direct::conv2d_fast_packed_ext(x, &packed, geom, 1, None, &prof, None).unwrap();
    for threads in &THREADS[1..] {
        let y =
            direct::conv2d_fast_packed_ext(x, &packed, geom, *threads, None, &prof, None).unwrap();
        assert_eq!(base, y, "fast direct differs at {threads} threads");
    }
    base
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fast Winograd vs naive Winograd vs naive direct, on geometries
    /// whose edges rarely align with the F(4,3) output tile.
    #[test]
    fn fast_winograd_matches_both_references(
        batch in 1usize..3,
        h in 5usize..20,
        w in 5usize..20,
        pad in 0usize..3,
        in_c in 1usize..18,
        out_c in 1usize..18,
        seed in 0u64..1000,
    ) {
        let geom = ConvGeometry::rect(h, w, 3, 1, pad).unwrap();
        let x = random_tensor(batch, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, 3, 3, seed + 1);
        let naive_wino = winograd::conv2d_f43(&x, &kr, geom).unwrap();
        let naive_direct = direct::conv2d(&x, &kr, geom).unwrap();
        let fast = batched_all_threads(&x, &kr, geom);
        prop_assert!(
            fast.approx_eq(&naive_wino, tol(in_c, 3)),
            "vs naive winograd: max diff {}",
            fast.max_abs_diff(&naive_wino).unwrap()
        );
        prop_assert!(
            fast.approx_eq(&naive_direct, tol(in_c, 3)),
            "vs naive direct: max diff {}",
            fast.max_abs_diff(&naive_direct).unwrap()
        );
    }

    /// Blocked direct vs naive direct, including strided and large-kernel
    /// shapes the Winograd path never sees.
    #[test]
    fn fast_direct_matches_naive(
        h in 3usize..16,
        w in 3usize..16,
        k in 1usize..6,
        s in 1usize..3,
        pad in 0usize..3,
        in_c in 1usize..18,
        out_c in 1usize..18,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
        let geom = ConvGeometry::rect(h, w, k, s, pad).unwrap();
        let x = random_tensor(1, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, k, k, seed + 3);
        let naive = direct::conv2d(&x, &kr, geom).unwrap();
        let fast = direct_fast_all_threads(&x, &kr, geom);
        prop_assert!(
            fast.approx_eq(&naive, tol(in_c, k)),
            "max diff {}",
            fast.max_abs_diff(&naive).unwrap()
        );
    }

    /// Fixed-point fast path: exact accumulation means *equality* with
    /// the naive kernel, at every thread count.
    #[test]
    fn fix16_fast_is_exact(
        h in 3usize..14,
        w in 3usize..14,
        k in 1usize..6,
        s in 1usize..3,
        pad in 0usize..3,
        in_c in 1usize..10,
        out_c in 1usize..10,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
        let geom = ConvGeometry::rect(h, w, k, s, pad).unwrap();
        let x: Tensor<Fix16> = random_tensor(1, in_c, h, w, seed).cast();
        let kr: Tensor<Fix16> = random_tensor(out_c, in_c, k, k, seed + 5).cast();
        let naive = direct::conv2d_fix16(&x, &kr, geom).unwrap();
        for threads in THREADS {
            let fast = direct::conv2d_fix16_fast_with_kernel(
                &x, &kr, geom, threads, KernelChoice::auto(),
            ).unwrap();
            prop_assert_eq!(&naive, &fast, "fix16 differs at {} threads", threads);
        }
    }
}

// --- Microkernel oracle matrix -------------------------------------------
//
// The scalar 4×8 kernel is the bit-exactness oracle: every other
// `MicroKernel` implementation the host supports must reproduce its
// output *bitwise* through every execution path (batched Winograd under
// both schedules, the fused direct path, the fixed-point span path), at
// every thread count. The vector kernels keep the same per-element
// ascending-k accumulation order, so this is an equality contract, not a
// tolerance contract.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched Winograd: every supported kernel × both schedules ×
    /// several thread counts, bitwise against the scalar serial oracle.
    /// Odd geometries keep partial tiles and edge clips in play.
    #[test]
    fn winograd_kernels_match_scalar_oracle(
        batch in 1usize..3,
        h in 5usize..24,
        w in 5usize..24,
        pad in 0usize..2,
        in_c in 1usize..14,
        out_c in 1usize..14,
        seed in 0u64..1000,
    ) {
        let geom = ConvGeometry::rect(h, w, 3, 1, pad).unwrap();
        let x = random_tensor(batch, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, 3, 3, seed + 11);
        let t = f43();
        let filters = BatchedFilters::new(&kr, &t).unwrap();
        let prof = PoolProfiler::disabled();
        let oracle = winograd::conv2d_batched_ext(
            &x, &filters, geom, &t, 1, None, &prof,
            BatchedOptions { schedule: WinoSchedule::TransformPoint, kernel: Some(KernelChoice::Scalar) },
        ).unwrap();
        for kernel in KernelChoice::all_supported() {
            for schedule in [WinoSchedule::TransformPoint, WinoSchedule::TileBlock] {
                for threads in [1usize, 4] {
                    let y = winograd::conv2d_batched_ext(
                        &x, &filters, geom, &t, threads, None, &prof,
                        BatchedOptions { schedule, kernel: Some(kernel) },
                    ).unwrap();
                    prop_assert_eq!(
                        &y, &oracle,
                        "{} under {:?} @ {} threads diverges from scalar oracle",
                        kernel.name(), schedule, threads
                    );
                }
            }
        }
    }

    /// Fused direct path: every supported kernel bitwise against the
    /// scalar oracle, including strided/large-kernel geometries.
    #[test]
    fn direct_kernels_match_scalar_oracle(
        h in 3usize..16,
        w in 3usize..16,
        k in 1usize..6,
        s in 1usize..3,
        pad in 0usize..3,
        in_c in 1usize..14,
        out_c in 1usize..14,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
        let geom = ConvGeometry::rect(h, w, k, s, pad).unwrap();
        let x = random_tensor(2, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, k, k, seed + 13);
        let prof = PoolProfiler::disabled();
        let packed = direct::PackedKernels::new(&kr);
        let oracle = direct::conv2d_fast_packed_ext(
            &x, &packed, geom, 1, None, &prof, Some(KernelChoice::Scalar),
        ).unwrap();
        for kernel in KernelChoice::all_supported() {
            for threads in [1usize, 4] {
                let y = direct::conv2d_fast_packed_ext(
                    &x, &packed, geom, threads, None, &prof, Some(kernel),
                ).unwrap();
                prop_assert_eq!(
                    &y, &oracle,
                    "{} direct @ {} threads diverges from scalar oracle",
                    kernel.name(), threads
                );
            }
        }
    }

    /// Fixed-point span path: every supported kernel must equal the naive
    /// wide-accumulator reference exactly (integer accumulation is exact,
    /// so any lane arrangement is bit-identical by construction — this
    /// pins that the packed lanes actually are).
    #[test]
    fn fix16_kernels_match_scalar_oracle(
        h in 3usize..14,
        w in 3usize..14,
        k in 1usize..6,
        s in 1usize..3,
        pad in 0usize..3,
        in_c in 1usize..10,
        out_c in 1usize..10,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
        let geom = ConvGeometry::rect(h, w, k, s, pad).unwrap();
        let x: Tensor<Fix16> = random_tensor(1, in_c, h, w, seed).cast();
        let kr: Tensor<Fix16> = random_tensor(out_c, in_c, k, k, seed + 17).cast();
        let naive = direct::conv2d_fix16(&x, &kr, geom).unwrap();
        for kernel in KernelChoice::all_supported() {
            for threads in [1usize, 4] {
                let y = direct::conv2d_fix16_fast_with_kernel(&x, &kr, geom, threads, kernel).unwrap();
                prop_assert_eq!(
                    &y, &naive,
                    "{} fix16 @ {} threads diverges from naive reference",
                    kernel.name(), threads
                );
            }
        }
    }
}

/// Hand-picked geometries where neither image edge is a multiple of the
/// F(4,3) output tile — the clipping paths get no slack here.
#[test]
fn odd_geometries_batched_winograd() {
    for &(h, w, pad, in_c, out_c) in &[
        (9usize, 11usize, 0usize, 3usize, 5usize),
        (13, 7, 1, 17, 4),
        (17, 5, 2, 7, 17),
        (6, 10, 1, 1, 1),
        (5, 5, 0, 2, 3),
    ] {
        let geom = ConvGeometry::rect(h, w, 3, 1, pad).unwrap();
        let x = random_tensor(2, in_c, h, w, h as u64 * 31 + w as u64);
        let kr = random_tensor(out_c, in_c, 3, 3, 977);
        let naive = winograd::conv2d_f43(&x, &kr, geom).unwrap();
        let fast = batched_all_threads(&x, &kr, geom);
        assert!(
            fast.approx_eq(&naive, tol(in_c, 3)),
            "{h}x{w} pad {pad}: max diff {}",
            fast.max_abs_diff(&naive).unwrap()
        );
    }
}
