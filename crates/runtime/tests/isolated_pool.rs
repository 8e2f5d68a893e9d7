//! Edge-case suite for the panic-isolated pool entry points: job-count
//! boundaries (0, 1, jobs ≫ workers), a panicking job at *every* index,
//! bounded retries, the watchdog deadline, and telemetry parity.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use winofuse_runtime::faults::{install_quiet_panic_hook, FaultInjector};
use winofuse_runtime::{
    run_jobs_isolated, run_sliced_jobs_isolated, split_chunks, GuardPolicy, PoolError, PoolProfiler,
};
use winofuse_telemetry::Telemetry;

const THREADS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn zero_jobs_is_a_noop_success() {
    for threads in THREADS {
        let n = run_jobs_isolated(threads, 0, &PoolProfiler::disabled(), |_| {
            panic!("injected: no jobs should run")
        })
        .unwrap();
        assert_eq!(n, 1);
        let slices: Vec<&mut [u8]> = Vec::new();
        run_sliced_jobs_isolated(
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
        let used = run_jobs_isolated(threads, 1, &PoolProfiler::disabled(), |i| {
            assert_eq!(i, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        })
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
        run_jobs_isolated(threads, jobs, &PoolProfiler::disabled(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        })
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
            let err = run_jobs_isolated(threads, jobs, &PoolProfiler::disabled(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                if i == bad {
                    panic!("injected: job {i} down");
                }
            })
            .unwrap_err();
            match err {
                PoolError::JobsPanicked { panics, completed, total, .. } => {
                    prop_assert_eq!(panics.len(), 1);
                    prop_assert_eq!(panics[0].index, bad);
                    prop_assert_eq!(panics[0].attempts, 1);
                    prop_assert!(panics[0].message.contains("injected"));
                    prop_assert_eq!(completed, jobs - 1);
                    prop_assert_eq!(total, jobs);
                }
                other => prop_assert!(false, "unexpected error {other:?}"),
            }
            // Isolation: every index was attempted exactly once.
            for (i, h) in hits.iter().enumerate() {
                prop_assert_eq!(h.load(Ordering::Relaxed), 1, "job {} attempts", i);
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
        let err = run_jobs_isolated(threads, jobs, &PoolProfiler::disabled(), |i| {
            if i % stride == 0 {
                panic!("injected: job {i} down");
            }
        })
        .unwrap_err();
        let expect: Vec<usize> = (0..jobs).filter(|i| i % stride == 0).collect();
        match err {
            PoolError::JobsPanicked { panics, completed, .. } => {
                let got: Vec<usize> = panics.iter().map(|p| p.index).collect();
                prop_assert_eq!(&got, &expect);
                prop_assert_eq!(completed, jobs - expect.len());
            }
            other => prop_assert!(false, "unexpected error {other:?}"),
        }
    }
}

#[test]
fn bounded_retry_recovers_a_flaky_job() {
    install_quiet_panic_hook();
    for threads in THREADS {
        let sink = Telemetry::enabled();
        let prof = PoolProfiler::new(sink.clone(), "flaky").with_guard(GuardPolicy {
            retries: 2,
            deadline: None,
        });
        let failures_left = AtomicU64::new(2); // job 3 fails twice, then works
        let used = run_jobs_isolated(threads, 8, &prof, |i| {
            if i == 3 {
                let left = failures_left.load(Ordering::Relaxed);
                if left > 0 {
                    failures_left.store(left - 1, Ordering::Relaxed);
                    panic!("injected: transient");
                }
            }
        })
        .unwrap();
        assert!(used >= 1);
        let s = sink.summary();
        assert_eq!(s.counter("pool.job_panics"), 2);
        assert_eq!(s.counter("pool.job_retries"), 2);
        assert_eq!(s.counter("pool.jobs"), 8); // lane accounting sees the successes
        failures_left.store(2, Ordering::Relaxed);
    }
}

#[test]
fn retries_exhausted_reports_attempt_count() {
    install_quiet_panic_hook();
    let prof = PoolProfiler::disabled().with_guard(GuardPolicy {
        retries: 3,
        deadline: None,
    });
    let err = run_jobs_isolated(2, 4, &prof, |i| {
        if i == 1 {
            panic!("injected: persistent");
        }
    })
    .unwrap_err();
    match err {
        PoolError::JobsPanicked { panics, .. } => {
            assert_eq!(panics.len(), 1);
            assert_eq!(panics[0].attempts, 4); // 1 try + 3 retries
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn watchdog_deadline_stops_claiming() {
    let sink = Telemetry::enabled();
    let prof = PoolProfiler::new(sink.clone(), "slowpool").with_guard(GuardPolicy {
        retries: 0,
        deadline: Some(Duration::from_millis(5)),
    });
    // Single worker, each job sleeps well past the deadline: job 0 runs to
    // completion (never interrupted), later claims are refused.
    let err = run_jobs_isolated(1, 64, &prof, |_| {
        std::thread::sleep(Duration::from_millis(20));
    })
    .unwrap_err();
    match err {
        PoolError::DeadlineExceeded {
            completed, total, ..
        } => {
            assert!(completed >= 1 && completed < total);
            assert_eq!(total, 64);
        }
        other => panic!("unexpected error {other:?}"),
    }
    assert_eq!(sink.summary().counter("pool.deadline_exceeded"), 1);
}

#[test]
fn injected_slowdown_trips_the_watchdog() {
    // A `slow` fault at every pool job plus a short deadline: the watchdog
    // must fire — this is the recovery pairing the faults module documents.
    let inj = FaultInjector::parse("slow:20@pool.victim#*").unwrap();
    let prof = PoolProfiler::new(Telemetry::disabled(), "victim")
        .with_faults(inj)
        .with_guard(GuardPolicy {
            retries: 0,
            deadline: Some(Duration::from_millis(5)),
        });
    let err = run_jobs_isolated(1, 32, &prof, |_| {}).unwrap_err();
    assert!(matches!(err, PoolError::DeadlineExceeded { .. }));
}

#[test]
fn injected_pool_panic_is_reported_with_site() {
    install_quiet_panic_hook();
    let inj = FaultInjector::parse("panic@pool.conv2/wino.gemm#2").unwrap();
    let prof = PoolProfiler::new(Telemetry::disabled(), "conv2")
        .with_faults(inj)
        .scoped("wino.gemm");
    let err = run_jobs_isolated(1, 8, &prof, |_| {}).unwrap_err();
    match err {
        PoolError::JobsPanicked {
            panics, completed, ..
        } => {
            assert_eq!(panics.len(), 1);
            assert_eq!(panics[0].index, 1); // occurrence 2 = second claim
            assert!(panics[0].message.contains("pool.conv2/wino.gemm"));
            assert_eq!(completed, 7);
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn scoping_preserves_faults_without_telemetry() {
    install_quiet_panic_hook();
    let inj = FaultInjector::parse("panic@pool.conv2/wino.gemm#1").unwrap();
    let base = PoolProfiler::new(Telemetry::disabled(), "conv2").with_faults(inj);
    let prof = base.scoped("wino.gemm"); // label must join even when telemetry is off
    let err = run_jobs_isolated(2, 4, &prof, |_| {}).unwrap_err();
    assert!(matches!(err, PoolError::JobsPanicked { .. }));
}

#[test]
fn sliced_isolated_retry_rewrites_the_same_region() {
    install_quiet_panic_hook();
    for threads in THREADS {
        let mut data = vec![0u64; 60];
        let slices = split_chunks(&mut data, 6);
        let first_attempt_failed = AtomicU64::new(0);
        let prof = PoolProfiler::disabled().with_guard(GuardPolicy {
            retries: 1,
            deadline: None,
        });
        run_sliced_jobs_isolated(
            threads,
            slices,
            &prof,
            || (),
            |(), i, s| {
                // Job 4 writes half its slice, then dies once — the retry
                // must get the same slice back and complete the write.
                for (off, v) in s.iter_mut().enumerate() {
                    if i == 4 && off == 3 && first_attempt_failed.swap(1, Ordering::Relaxed) == 0 {
                        panic!("injected: mid-write crash");
                    }
                    *v = (i * 10 + off) as u64;
                }
            },
        )
        .unwrap();
        for (idx, v) in data.iter().enumerate() {
            assert_eq!(*v, ((idx / 6) * 10 + idx % 6) as u64, "element {idx}");
        }
    }
}

#[test]
fn sliced_isolated_panic_spares_sibling_slices() {
    install_quiet_panic_hook();
    for threads in THREADS {
        let mut data = vec![0u64; 50];
        let slices = split_chunks(&mut data, 5);
        let err = run_sliced_jobs_isolated(
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
