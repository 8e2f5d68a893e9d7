//! Parallel construction of the `fusion[i][j]` plan table.
//!
//! The paper computes the table "offline" and every cell is an
//! independent branch-and-bound, so the table is embarrassingly
//! parallel. This module enumerates every range the DP of [`crate::dp`]
//! can request — `(i, j)` pairs whose endpoints are admissible under the
//! cut mask — and fills the planner's shared cache from the
//! `winofuse-runtime` worker pool, one job per range. With the table
//! prefilled, the single-threaded DP recursion finds every `plan` call
//! already memoized.
//!
//! Determinism: each cell is searched serially by exactly one worker, so
//! the per-range search — and every `bnb.*` node counter — is
//! bit-identical to a single-threaded run. Only the *order* in which
//! spans are recorded, and the `bnb.plan_cache_hits` count (every DP
//! request becomes a hit), differ from the lazy path. When the cut mask
//! admits a single range (a fully-fused network), range-level
//! parallelism degenerates, so the one branch-and-bound is split across
//! workers instead ([`GroupPlanner::plan_split`]).

use winofuse_runtime::PoolProfiler;

use crate::bnb::GroupPlanner;
use crate::CoreError;

// The scoped worker pool lives in `winofuse-runtime` (shared with the
// execution backend); re-exported so existing `core::parallel` callers
// keep working.
pub use winofuse_runtime::default_threads;

/// Summary of one plan-table prefill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanTableStats {
    /// Admissible `(i, j)` ranges enumerated (== `bnb.plans_computed`
    /// when the cache started empty).
    pub ranges: usize,
    /// Worker threads actually spawned.
    pub workers: usize,
}

/// Size of the unpruned Algorithm 2 tree over `menu_sizes` — the
/// longest-job-first scheduling key.
fn exhaustive_weight(menu_sizes: &[usize]) -> u64 {
    menu_sizes
        .iter()
        .rev()
        .fold(1u64, |t, &m| (m as u64).saturating_mul(t).saturating_add(1))
}

/// Fills the planner's plan cache with every range the DP over `n` layers
/// can request under `boundaries` (`None` = all cuts allowed), using up
/// to `threads` scoped workers. Ranges are scheduled longest-job-first
/// (by unpruned tree size) to avoid tail stragglers.
///
/// # Errors
///
/// Returns [`CoreError::InvalidRequest`] for out-of-range boundaries —
/// the same validation the DP itself performs — and
/// [`CoreError::Substrate`] when a range's search panics.
pub fn fill_plan_table(
    planner: &GroupPlanner<'_>,
    n: usize,
    boundaries: Option<&[usize]>,
    threads: usize,
) -> Result<PlanTableStats, CoreError> {
    let cut = crate::dp::cut_mask(n, boundaries)?;
    // A range `i..=j` is reachable from the DP's recursion exactly when
    // both endpoints are admissible: `i` starts the network or follows a
    // cut, `j` ends the network or precedes one. Over-long ranges are
    // kept — the DP requests them too (`plan` returns `None` cheaply).
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for i in 0..n {
        if i != 0 && !cut[i - 1] {
            continue;
        }
        // `cut` has `n - 1` entries; the virtual cut after the last
        // layer always exists.
        let cut_after = cut.iter().copied().chain(std::iter::once(true));
        for (j, ends_range) in cut_after.enumerate().skip(i) {
            if ends_range {
                cells.push((i, j));
            }
        }
    }
    let sizes = planner.menu_sizes();
    let cap = planner.max_group_layers();
    let weights: Vec<u64> = cells
        .iter()
        .map(|&(i, j)| {
            if j - i + 1 > cap {
                0
            } else {
                exhaustive_weight(&sizes[i..=j])
            }
        })
        .collect();
    // Longest-job-first: `longest_first_order` breaks weight ties by index,
    // and `cells` is enumerated in (i, j) lexicographic order, so the
    // schedule is deterministic.
    let cells: Vec<(usize, usize)> = winofuse_runtime::longest_first_order(&weights)
        .into_iter()
        .map(|idx| cells[idx])
        .collect();

    let ranges = cells.len();
    let span = planner.telemetry().span("parallel", "plan_table");
    planner
        .telemetry()
        .counter("parallel.table_ranges")
        .add(ranges as u64);
    let workers = if let [(i, j)] = cells[..] {
        // One admissible range: parallelism must come from inside the
        // branch-and-bound itself.
        planner.plan_split(i..j + 1, threads);
        1
    } else {
        winofuse_runtime::run_jobs(
            threads,
            cells,
            &PoolProfiler::disabled(),
            || (),
            |(), _, (i, j)| {
                planner.plan_shared(i..j + 1);
            },
        )
        .map_err(|e| CoreError::Substrate(format!("plan table: {e}")))?
    };
    drop(span);
    Ok(PlanTableStats { ranges, workers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::AlgoPolicy;
    use winofuse_fpga::device::FpgaDevice;
    use winofuse_model::zoo;
    use winofuse_telemetry::Telemetry;

    #[test]
    fn prefilled_table_turns_every_dp_request_into_a_hit() {
        let net = zoo::small_test_net();
        let dev = FpgaDevice::zc706();
        let mut planner = GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous()).unwrap();
        let tele = Telemetry::enabled();
        planner.set_telemetry(tele.clone());
        let stats = fill_plan_table(&planner, net.len(), None, 4).unwrap();
        // All-cuts mask: every (i, j) with i <= j is admissible.
        let n = net.len();
        assert_eq!(stats.ranges, n * (n + 1) / 2);
        let computed_before = tele.summary().counter("bnb.plans_computed");
        assert_eq!(computed_before, stats.ranges as u64);

        let r = crate::dp::optimize(&mut planner, &net, 8 * 1024 * 1024).unwrap();
        assert!(r.latency > 0);
        let s = tele.summary();
        assert_eq!(
            s.counter("bnb.plans_computed"),
            computed_before,
            "the DP must not search any range the table missed"
        );
        assert!(s.counter("bnb.plan_cache_hits") >= stats.ranges as u64);
    }

    #[test]
    fn table_respects_cut_boundaries() {
        let net = zoo::small_test_net();
        let dev = FpgaDevice::zc706();
        let planner = GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous()).unwrap();
        // No interior cuts allowed: the only admissible range is 0..n.
        let stats = fill_plan_table(&planner, net.len(), Some(&[]), 4).unwrap();
        assert_eq!(stats.ranges, 1);
        // Out-of-range boundary is rejected like the DP rejects it.
        assert!(fill_plan_table(&planner, net.len(), Some(&[net.len()]), 2).is_err());
    }

    #[test]
    fn longest_job_first_ordering() {
        // Deeper ranges have exponentially larger unpruned trees.
        assert!(exhaustive_weight(&[4, 4, 4]) > exhaustive_weight(&[4, 4]));
        assert!(exhaustive_weight(&[9]) > exhaustive_weight(&[3]));
        // Saturation instead of overflow on absurd menus.
        let huge = vec![usize::MAX; 64];
        assert_eq!(exhaustive_weight(&huge), u64::MAX);
    }
}
