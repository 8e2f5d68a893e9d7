//! Equivalence contract for the sparse Winograd execution backend.
//!
//! Sparse Winograd is the one algorithm in the menu whose *plan choice
//! changes computed values* — pruning drops transform-domain
//! coefficients. The CPU runs a pruned layer on an ordinary batched
//! Winograd bank with the dropped coefficients zeroed
//! (`BatchedFilters::pruned`). That makes its contract three-sided:
//!
//! * at density 1000‰ nothing is pruned and the pruned bank must be
//!   **bit-identical** to the dense one;
//! * at pruned densities the output error must stay under the analytic
//!   bound implied by the dropped transform-domain mass — pruning is a
//!   controlled approximation, not an uncontrolled one;
//! * like every other backend, results must be bit-identical across
//!   worker counts: `--threads N` may change wall-clock time, never
//!   results.

use proptest::prelude::*;
use winofuse::conv::cook_toom::f43;
use winofuse::conv::sparse::{prune_plane, sparse_keep_count};
use winofuse::conv::tensor::{random_tensor, Tensor};
use winofuse::conv::winograd::{self, BatchedFilters, BatchedOptions, TransformedFilters};
use winofuse::conv::ConvGeometry;
use winofuse::runtime::PoolProfiler;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Runs the batched path on a pruned bank at every thread count and
/// checks the results are bit-identical before returning the
/// single-threaded one.
fn sparse_all_threads(
    x: &Tensor<f32>,
    filters: &BatchedFilters,
    geom: ConvGeometry,
) -> Tensor<f32> {
    let t = f43();
    let (prof, opts) = (PoolProfiler::disabled(), BatchedOptions::default());
    let base =
        winograd::conv2d_batched_ext(x, filters, geom, &t, false, 1, None, &prof, opts).unwrap();
    for threads in &THREADS[1..] {
        let y =
            winograd::conv2d_batched_ext(x, filters, geom, &t, false, *threads, None, &prof, opts)
                .unwrap();
        assert_eq!(base, y, "sparse Winograd differs at {threads} threads");
    }
    base
}

/// Analytic output-error bound for pruning: with inputs in `[-1, 1)`,
/// `|Δy| ≤ ‖A‖₁² · ‖B‖₁² · max_{oc,uv} Σ_ic |dropped U[oc,ic,uv]|`
/// (each dropped coefficient perturbs one transform point of one tile by
/// at most its magnitude times the largest transformed input value). The
/// dropped set is [`prune_plane`]'s on each transformed plane.
fn pruning_error_bound(kr: &Tensor<f32>, density_pm: u16) -> f32 {
    let t = f43();
    let dense = TransformedFilters::new(kr, &t).unwrap();
    let alpha = t.alpha();
    let (out_c, in_c) = (kr.n(), kr.c());
    let keep = sparse_keep_count((out_c * in_c) as u64, density_pm) as usize;
    let row_abs_max = |m: &winofuse::conv::matrix::Mat<f32>| -> f32 {
        (0..m.rows())
            .map(|i| (0..m.cols()).map(|j| m.get(i, j).abs()).sum::<f32>())
            .fold(0.0f32, f32::max)
    };
    let a1 = row_abs_max(&t.a_t_f32());
    let b1 = row_abs_max(&t.b_t_f32());
    let mut worst_dropped = 0.0f32;
    for uv in 0..alpha * alpha {
        let full: Vec<f32> = (0..out_c * in_c)
            .map(|f| dense.bank(f / in_c, f % in_c).as_slice()[uv])
            .collect();
        let mut pruned = full.clone();
        prune_plane(&mut pruned, keep);
        for oc in 0..out_c {
            let row = oc * in_c..(oc + 1) * in_c;
            let total: f32 = full[row.clone()].iter().map(|v| v.abs()).sum();
            let kept: f32 = pruned[row].iter().map(|v| v.abs()).sum();
            worst_dropped = worst_dropped.max(total - kept);
        }
    }
    a1 * a1 * b1 * b1 * worst_dropped
}

/// FP slack on top of the analytic bound: accumulation-order rounding,
/// scaled by depth like `conv_equiv::tol`.
fn fp_slack(in_c: usize) -> f32 {
    1e-4 * (in_c * 9) as f32 + 1e-4
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Density 1000‰ prunes nothing; the pruned bank must reproduce the
    /// dense batched Winograd output bit-for-bit on awkward geometries.
    #[test]
    fn full_density_sparse_is_bit_identical_to_dense(
        batch in 1usize..3,
        h in 5usize..20,
        w in 5usize..20,
        pad in 0usize..3,
        in_c in 1usize..18,
        out_c in 1usize..18,
        seed in 0u64..1000,
    ) {
        let t = f43();
        let geom = ConvGeometry::rect(h, w, 3, 1, pad).unwrap();
        let x = random_tensor(batch, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, 3, 3, seed + 1);
        let dense_bank = BatchedFilters::new(&kr, &t).unwrap();
        let dense = winograd::conv2d_batched_ext(
            &x, &dense_bank, geom, &t, false, 1, None, &PoolProfiler::disabled(),
            BatchedOptions::default(),
        ).unwrap();
        let sparse_bank = BatchedFilters::pruned(&kr, &t, 1000).unwrap();
        let sparse = sparse_all_threads(&x, &sparse_bank, geom);
        prop_assert_eq!(dense, sparse, "density 1000 must be bit-identical to dense");
    }

    /// Pruned densities: the output may differ from dense, but only by
    /// the analytic bound the dropped transform-domain mass implies.
    #[test]
    fn pruned_error_is_bounded_by_dropped_mass(
        h in 6usize..18,
        w in 6usize..18,
        pad in 0usize..2,
        in_c in 2usize..14,
        out_c in 2usize..14,
        density_pm in 100u16..1000,
        seed in 0u64..1000,
    ) {
        let t = f43();
        let geom = ConvGeometry::rect(h, w, 3, 1, pad).unwrap();
        let x = random_tensor(1, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, 3, 3, seed + 1);
        let dense_bank = BatchedFilters::new(&kr, &t).unwrap();
        let dense = winograd::conv2d_batched_ext(
            &x, &dense_bank, geom, &t, false, 1, None, &PoolProfiler::disabled(),
            BatchedOptions::default(),
        ).unwrap();
        let sparse_bank = BatchedFilters::pruned(&kr, &t, density_pm).unwrap();
        let sparse = sparse_all_threads(&x, &sparse_bank, geom);
        let bound = pruning_error_bound(&kr, density_pm) + fp_slack(in_c);
        let diff = sparse.max_abs_diff(&dense).unwrap();
        prop_assert!(
            diff <= bound,
            "pruning error {diff} exceeds analytic bound {bound} at {density_pm}‰"
        );
    }

    /// Thread invariance holds at *every* density, not just the dense
    /// limit — job decomposition depends on shape alone.
    #[test]
    fn sparse_is_thread_count_invariant_at_any_density(
        h in 5usize..16,
        w in 5usize..16,
        in_c in 1usize..12,
        out_c in 1usize..12,
        density_pm in 1u16..1001,
        seed in 0u64..1000,
    ) {
        let geom = ConvGeometry::rect(h, w, 3, 1, 1).unwrap();
        let x = random_tensor(2, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, 3, 3, seed + 1);
        let bank = BatchedFilters::pruned(&kr, &f43(), density_pm).unwrap();
        // sparse_all_threads asserts 1/2/4/8-thread bit-equality.
        let _ = sparse_all_threads(&x, &bank, geom);
    }
}
