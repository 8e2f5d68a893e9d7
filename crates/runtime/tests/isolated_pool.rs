//! Edge-case suite for the panic-isolated pool: job-count boundaries
//! (0, 1, jobs ≫ workers), a panicking job at *every* index, injected
//! pool faults, and sliced jobs sparing their siblings.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use winofuse_runtime::faults::{install_quiet_panic_hook, FaultInjector};
use winofuse_runtime::{run_jobs, split_chunks, PoolError, PoolProfiler};
use winofuse_telemetry::Telemetry;

const THREADS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn zero_jobs_is_a_noop_success() {
    for threads in THREADS {
        let none: Vec<()> = Vec::new();
        let n = run_jobs(
            threads,
            none,
            &PoolProfiler::disabled(),
            || (),
            |(), _, ()| panic!("injected: no jobs should run"),
        )
        .unwrap();
        assert_eq!(n, 1);
        let slices: Vec<&mut [u8]> = Vec::new();
        run_jobs(
            threads,
            slices,
            &PoolProfiler::disabled(),
            || (),
            |(), _, _| {},
        )
        .unwrap();
    }
}

#[test]
fn single_job_runs_inline() {
    for threads in THREADS {
        let hits = AtomicU64::new(0);
        let used = run_jobs(
            threads,
            vec![()],
            &PoolProfiler::disabled(),
            || (),
            |(), i, ()| {
                assert_eq!(i, 0);
                hits.fetch_add(1, Ordering::Relaxed);
            },
        )
        .unwrap();
        assert_eq!(used, 1);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }
}

#[test]
fn jobs_much_greater_than_workers_all_complete() {
    for threads in THREADS {
        let jobs = 997; // prime, far above any worker count
        let hits: Vec<AtomicU64> = (0..jobs).map(|_| AtomicU64::new(0)).collect();
        run_jobs(
            threads,
            vec![(); jobs],
            &PoolProfiler::disabled(),
            || (),
            |(), i, ()| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
        )
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A job panicking at any single index is isolated: every other job
    /// still completes, and the error names exactly the failed index.
    #[test]
    fn panicking_job_at_every_index_is_isolated(
        jobs in 1usize..12,
        threads in 1usize..9,
    ) {
        install_quiet_panic_hook();
        for bad in 0..jobs {
            let hits: Vec<AtomicU64> = (0..jobs).map(|_| AtomicU64::new(0)).collect();
            let err = run_jobs(threads, vec![(); jobs], &PoolProfiler::disabled(), || (), |(), i, ()| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                if i == bad {
                    panic!("injected: job {i} down");
                }
            })
            .unwrap_err();
            let PoolError::JobsPanicked { panics, completed, total, .. } = err;
            prop_assert_eq!(panics.len(), 1);
            prop_assert_eq!(panics[0].index, bad);
            prop_assert!(panics[0].message.contains("injected"));
            prop_assert_eq!(completed, jobs - 1);
            prop_assert_eq!(total, jobs);
            // Isolation: every index ran exactly once.
            for (i, h) in hits.iter().enumerate() {
                prop_assert_eq!(h.load(Ordering::Relaxed), 1, "job {} runs", i);
            }
        }
    }

    /// Multiple panicking jobs are all collected, sorted by index.
    #[test]
    fn all_panics_are_collected_and_sorted(
        jobs in 2usize..24,
        threads in 1usize..9,
        stride in 2usize..5,
    ) {
        install_quiet_panic_hook();
        let err = run_jobs(threads, vec![(); jobs], &PoolProfiler::disabled(), || (), |(), i, ()| {
            if i % stride == 0 {
                panic!("injected: job {i} down");
            }
        })
        .unwrap_err();
        let expect: Vec<usize> = (0..jobs).filter(|i| i % stride == 0).collect();
        let PoolError::JobsPanicked { panics, completed, .. } = err;
        let got: Vec<usize> = panics.iter().map(|p| p.index).collect();
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(completed, jobs - expect.len());
    }
}

#[test]
fn injected_pool_panic_is_reported_with_site() {
    install_quiet_panic_hook();
    let inj = FaultInjector::parse("panic@pool.conv2/wino.gemm#2").unwrap();
    let prof = PoolProfiler::new(Telemetry::disabled(), "conv2")
        .with_faults(inj)
        .scoped("wino.gemm");
    let err = run_jobs(1, vec![(); 8], &prof, || (), |(), _, ()| {}).unwrap_err();
    let PoolError::JobsPanicked {
        panics, completed, ..
    } = err;
    assert_eq!(panics.len(), 1);
    assert_eq!(panics[0].index, 1); // occurrence 2 = second claim
    assert!(panics[0].message.contains("pool.conv2/wino.gemm"));
    assert_eq!(completed, 7);
}

#[test]
fn scoping_preserves_faults_without_telemetry() {
    install_quiet_panic_hook();
    let inj = FaultInjector::parse("panic@pool.conv2/wino.gemm#1").unwrap();
    let base = PoolProfiler::new(Telemetry::disabled(), "conv2").with_faults(inj);
    let prof = base.scoped("wino.gemm"); // label must join even when telemetry is off
    let err = run_jobs(2, vec![(); 4], &prof, || (), |(), _, ()| {}).unwrap_err();
    assert!(matches!(err, PoolError::JobsPanicked { .. }));
}

#[test]
fn sliced_isolated_panic_spares_sibling_slices() {
    install_quiet_panic_hook();
    for threads in THREADS {
        let mut data = vec![0u64; 50];
        let slices = split_chunks(&mut data, 5);
        let err = run_jobs(
            threads,
            slices,
            &PoolProfiler::disabled(),
            || (),
            |(), i, s| {
                if i == 2 {
                    panic!("injected: slice job down");
                }
                for v in s.iter_mut() {
                    *v = i as u64 + 1;
                }
            },
        )
        .unwrap_err();
        assert!(matches!(err, PoolError::JobsPanicked { .. }));
        for (idx, v) in data.iter().enumerate() {
            let job = idx / 5;
            let expect = if job == 2 { 0 } else { job as u64 + 1 };
            assert_eq!(*v, expect, "element {idx}");
        }
    }
}
