//! Transform-domain pruning for sparse Winograd.
//!
//! "Efficient Sparse-Winograd Convolutional Neural Networks" (1810.01973)
//! prunes weights *in the transform domain*: each of the `α²` coefficient
//! planes of a Winograd filter bank keeps only its top-magnitude fraction.
//! This module holds that pruning pass: [`sparse_keep_count`] sizes it and
//! [`prune_plane`] applies it to one plane.
//! [`crate::winograd::BatchedFilters::pruned`] runs it on every plane of
//! the transformed bank, on a flat copy gathered from the packed GEMM
//! panels and scattered back, so a pruned bank is an ordinary dense bank
//! whose dropped coefficients are zero.
//!
//! ## Determinism contract
//!
//! * **Pruning** keeps *exactly* `⌈coeffs · density/1000⌉` coefficients
//!   per plane, chosen by descending magnitude with ties broken toward
//!   the lower flat index. The count is a pure function of shape and
//!   density, never of the weight values. The FPGA model
//!   (`winofuse_fpga::engine`) calls [`sparse_keep_count`] for the
//!   coefficients it charges, so the model and the bank agree by
//!   construction.
//! * **Execution** runs the dense GEMM on the zeroed bank. Its
//!   accumulators start at `+0.0` and use a separate multiply and add, so
//!   under round-to-nearest they never become `−0`; a zeroed coefficient
//!   times a finite input adds only `±0`, which leaves them unchanged. On
//!   finite inputs the result therefore equals a sweep over the kept
//!   coefficients alone, bit for bit, and density 1000 is the dense bank.

/// Per-mille density denominator (1000‰ = dense).
pub const DENSITY_SCALE: u64 = 1000;

/// Number of coefficients retained when pruning `coeffs` values at
/// `density_pm` per-mille density. It rounds up, so density 1 on a tiny
/// plane still keeps one coefficient.
pub fn sparse_keep_count(coeffs: u64, density_pm: u16) -> u64 {
    (coeffs * density_pm as u64).div_ceil(DENSITY_SCALE)
}

/// Zeroes all but the `keep` largest-magnitude coefficients of `plane`.
/// Ties go to the lower flat index, so the kept set is unique. Does
/// nothing when `keep` covers the whole plane.
pub fn prune_plane(plane: &mut [f32], keep: usize) {
    prune_plane_with(plane, keep, &mut Vec::new());
}

/// [`prune_plane`] with its index buffer supplied, so a bank pruning α²
/// planes allocates it once.
pub(crate) fn prune_plane_with(plane: &mut [f32], keep: usize, order: &mut Vec<usize>) {
    if keep >= plane.len() {
        return;
    }
    order.clear();
    order.extend(0..plane.len());
    // Magnitude descending, flat index ascending on ties: a total order,
    // so the first `keep` entries after selection are the kept set.
    order.select_nth_unstable_by(keep, |&a, &b| {
        plane[b].abs().total_cmp(&plane[a].abs()).then(a.cmp(&b))
    });
    for &i in &order[keep..] {
        plane[i] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cook_toom::f43;
    use crate::gemm::{gemm_f32_prepacked, BOperand, GemmBlocking, GemmScratch, PackedA};
    use crate::tensor::random_tensor;
    use crate::winograd::{BatchedFilters, TransformedFilters};

    /// The kept flat indices under a full sort in the same order.
    fn sorted_kept(plane: &[f32], keep: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..plane.len()).collect();
        order.sort_by(|&a, &b| plane[b].abs().total_cmp(&plane[a].abs()).then(a.cmp(&b)));
        let mut kept = order[..keep.min(plane.len())].to_vec();
        kept.sort_unstable();
        kept
    }

    /// Plane `uv` of `bank`, read back through one GEMM against the
    /// identity: `A·I = A` exactly, except that `−0` reads as `+0`.
    fn plane_of(bank: &BatchedFilters, uv: usize) -> Vec<f32> {
        let (m, k) = (bank.out_c(), bank.in_c());
        let eye: Vec<f32> = (0..k * k)
            .map(|i| if i / k == i % k { 1.0 } else { 0.0 })
            .collect();
        let mut c = vec![f32::NAN; m * k];
        let mut scratch = GemmScratch::new();
        let op = BOperand::row_major(&eye, k);
        gemm_f32_prepacked(&mut scratch, bank.packed_plane(uv), k, op, &mut c, false);
        c
    }

    #[test]
    fn keep_count_rounds_up_and_saturates() {
        assert_eq!(sparse_keep_count(32, 250), 8);
        assert_eq!(sparse_keep_count(33, 250), 9);
        assert_eq!(sparse_keep_count(32, 1000), 32);
        assert_eq!(sparse_keep_count(1, 1), 1); // never zero
    }

    #[test]
    fn prune_plane_matches_a_full_sort_on_tie_heavy_and_random_planes() {
        const VALUES: [f32; 7] = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..2000 {
            let len = 1 + (next() % 64) as usize;
            let plane: Vec<f32> = (0..len)
                .map(|_| {
                    let r = next();
                    if case % 2 == 0 {
                        VALUES[(r % VALUES.len() as u64) as usize]
                    } else {
                        (r >> 40) as f32 / (1u64 << 23) as f32 - 1.0
                    }
                })
                .collect();
            // Up to one past the plane: a budget covering it zeroes nothing.
            let keep = (next() % (len as u64 + 2)) as usize;
            let mut pruned = plane.clone();
            prune_plane(&mut pruned, keep);
            let expect = sorted_kept(&plane, keep);
            for (i, (&p, &v)) in pruned.iter().zip(&plane).enumerate() {
                if expect.binary_search(&i).is_ok() {
                    assert_eq!(p.to_bits(), v.to_bits(), "case {case}: kept {i} changed");
                } else {
                    assert_eq!(p.to_bits(), 0, "case {case}: dropped {i} not +0");
                }
            }
        }
    }

    #[test]
    fn pruned_bank_keeps_the_budgeted_top_magnitudes_per_plane() {
        let k = random_tensor(6, 5, 3, 3, 11);
        let t = f43();
        let dense = TransformedFilters::new(&k, &t).unwrap();
        for density in [1u16, 100, 250, 500, 999, 1000] {
            let bank = BatchedFilters::pruned(&k, &t, density).unwrap();
            let keep = sparse_keep_count(30, density) as usize;
            for uv in 0..36 {
                let full: Vec<f32> = (0..30)
                    .map(|f| dense.bank(f / 5, f % 5).as_slice()[uv])
                    .collect();
                let kept = sorted_kept(&full, keep);
                assert_eq!(kept.len(), keep, "density {density} uv {uv}");
                let got = plane_of(&bank, uv);
                for (f, (&g, &v)) in got.iter().zip(&full).enumerate() {
                    let expect = if kept.binary_search(&f).is_ok() {
                        v
                    } else {
                        0.0
                    };
                    assert_eq!(
                        g.to_bits(),
                        (expect + 0.0).to_bits(),
                        "density {density} uv {uv}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_bad_density_and_wrong_kernel_size() {
        let k = random_tensor(2, 2, 3, 3, 5);
        assert!(BatchedFilters::pruned(&k, &f43(), 0).is_err());
        assert!(BatchedFilters::pruned(&k, &f43(), 1001).is_err());
        let k5 = random_tensor(2, 2, 5, 5, 5);
        assert!(BatchedFilters::pruned(&k5, &f43(), 500).is_err());
    }

    #[test]
    fn pruned_plane_gemm_equals_a_sweep_over_kept_coefficients() {
        // The zeroed-bank argument: a dense GEMM over a plane whose
        // dropped coefficients are zero equals, bit for bit, a sweep that
        // adds only the kept products in the dense order (ascending
        // column, split at the KC boundary).
        let (m, k, n) = (5usize, 300usize, 19usize);
        let mut a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37 % 19) as f32 - 9.0) / 7.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 53 % 23) as f32 - 11.0) / 5.0)
            .collect();
        prune_plane(&mut a, sparse_keep_count((m * k) as u64, 250) as usize);
        let blocking = GemmBlocking::default();
        let packed = PackedA::pack(&a, m, k, blocking);
        let mut c = vec![f32::NAN; m * n];
        let op = BOperand::row_major(&b, n);
        gemm_f32_prepacked(&mut GemmScratch::new(), &packed, n, op, &mut c, false);
        for i in 0..m {
            for j in 0..n {
                let mut slot = 0.0f32;
                for (blk, p0) in (0..k).step_by(blocking.kc).enumerate() {
                    let mut acc = 0.0f32;
                    for p in p0..(p0 + blocking.kc).min(k) {
                        if a[i * k + p] != 0.0 {
                            acc += a[i * k + p] * b[p * n + j];
                        }
                    }
                    slot = if blk == 0 { acc } else { slot + acc };
                }
                assert_eq!(c[i * n + j].to_bits(), slot.to_bits(), "({i}, {j})");
            }
        }
    }
}
