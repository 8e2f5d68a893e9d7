//! # winofuse-runtime — the shared scoped worker pool
//!
//! Both halves of the system need the same minimal parallel substrate: the
//! strategy search fills its plan table and splits a single large
//! branch-and-bound across workers, and the execution backend spreads
//! tile and output-channel blocks across cores. This crate is that
//! substrate, with one entry point, [`run_jobs`]: plain
//! `std::thread::scope` workers claiming jobs in index order from a
//! shared queue, every job panic-isolated, with longest-job-first
//! ordering as a scheduling helper. No work-stealing deques, no channels,
//! no `unsafe`: each job is a value handed to exactly one worker — a plan
//! cell, a result slot, or a pre-split disjoint `&mut` region of an
//! output buffer.
//!
//! [`faults`] holds the deterministic fault injector and the one
//! algorithm-fallback rung ([`faults::fall_back`]) the executor and the
//! fused runner degrade through.
//!
//! Determinism contract: a job's *result* may only depend on its index,
//! never on which worker ran it or how many workers exist. Every helper
//! here preserves that property — the worker count changes wall-clock time
//! and nothing else — which is what lets `--threads N` default on without
//! perturbing bit-exact comparisons (see `tests/determinism.rs` and
//! `tests/conv_equiv.rs` at the workspace root).

pub mod faults;
pub mod serve;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use winofuse_telemetry::{Counter, Histogram, Telemetry, PID_WALL};

use faults::{describe_panic, FaultInjector};

/// First Chrome-trace thread id used for worker lanes: worker `w` emits
/// its job slices on `(PID_WALL, WORKER_TID_BASE + w)`. The base keeps
/// worker lanes clear of tid 1, where `Telemetry::span` puts the main
/// thread's wall-clock spans.
pub const WORKER_TID_BASE: u64 = 100;

// ---------------------------------------------------------------------------
// Pool profiler
// ---------------------------------------------------------------------------

/// Observability context for the worker pool: carries a [`Telemetry`]
/// handle plus a label that names the job spans it emits (e.g.
/// `"wino.scatter"` → slices `wino.scatter[0..n]` on the worker lanes).
///
/// A disabled profiler (the default, [`PoolProfiler::disabled`]) keeps
/// [`run_jobs`] on the uninstrumented loop — the cost of
/// instrumentation when telemetry is off is exactly one branch per pool
/// invocation.
#[derive(Clone)]
pub struct PoolProfiler {
    telemetry: Telemetry,
    label: Arc<str>,
    faults: FaultInjector,
}

impl Default for PoolProfiler {
    fn default() -> Self {
        PoolProfiler::disabled()
    }
}

impl PoolProfiler {
    /// The no-op profiler: [`run_jobs`] runs the plain untraced path.
    pub fn disabled() -> Self {
        PoolProfiler {
            telemetry: Telemetry::disabled(),
            label: Arc::from("job"),
            faults: FaultInjector::disabled(),
        }
    }

    /// A profiler emitting onto `telemetry`, naming job spans `label[i]`.
    pub fn new(telemetry: Telemetry, label: &str) -> Self {
        PoolProfiler {
            telemetry,
            label: Arc::from(label),
            faults: FaultInjector::disabled(),
        }
    }

    /// A view of this profiler with `label` appended to the span label
    /// (`"conv3_1"` scoped by `"wino.gemm"` → spans `conv3_1/wino.gemm[i]`)
    /// — the cheap way to tag each kernel phase distinctly while sharing
    /// one telemetry registry. The fault injector is always carried
    /// through (the joined label doubles as the pool's
    /// fault-injection site name, `pool.<label>`); when both telemetry and
    /// faults are off this allocates nothing.
    pub fn scoped(&self, label: &str) -> PoolProfiler {
        let mut out = self.clone();
        if self.is_enabled() || self.faults.is_enabled() {
            let joined = if self.label.is_empty() {
                label.to_string()
            } else {
                format!("{}/{label}", self.label)
            };
            out.label = Arc::from(joined.as_str());
        }
        out
    }

    /// Attaches a fault injector: [`run_jobs`] checks the site
    /// `pool.<label>` before every job.
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    pub fn is_enabled(&self) -> bool {
        self.telemetry.is_enabled()
    }

    /// Fault-injection hook run inside each job's `catch_unwind` region:
    /// checks (and applies) the `pool.<label>` site. One branch when no
    /// injector is attached.
    #[inline]
    fn trip_job(&self) {
        if self.faults.is_enabled() {
            self.faults.trip(&format!("pool.{}", self.label));
        }
    }
}

// ---------------------------------------------------------------------------
// Panic isolation: pool errors
// ---------------------------------------------------------------------------

/// One job's panic, as collected by the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    pub index: usize,
    pub message: String,
}

/// Failure of a pool invocation. The pool itself never unwinds: per-job
/// panics are caught and collected here with the invocation's completion
/// tally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// One or more jobs panicked. `completed` counts the jobs that did
    /// finish — the pool drains all claimable work before reporting, so a
    /// single bad job never poisons its siblings.
    JobsPanicked {
        label: String,
        panics: Vec<JobPanic>,
        completed: usize,
        total: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let PoolError::JobsPanicked {
            label,
            panics,
            completed,
            total,
        } = self;
        let first = panics.first().expect("invariant: JobsPanicked is nonempty");
        write!(
            f,
            "pool `{label}`: {} of {total} jobs panicked ({completed} completed; \
             first: job {}: {})",
            panics.len(),
            first.index,
            first.message
        )
    }
}

impl std::error::Error for PoolError {}

/// Per-invocation shared state for an instrumented pool run: cached
/// counter/histogram handles plus the pool start time that queue waits are
/// measured from.
struct PoolRun<'a> {
    prof: &'a PoolProfiler,
    start: Instant,
    jobs: Counter,
    runs: Counter,
    idle_ns: Counter,
    worker_busy_ns: Histogram,
    job_wait_us: Histogram,
}

impl<'a> PoolRun<'a> {
    fn start(prof: &'a PoolProfiler) -> Self {
        let t = &prof.telemetry;
        let run = PoolRun {
            prof,
            start: Instant::now(),
            jobs: t.counter("pool.jobs"),
            runs: t.counter("pool.runs"),
            idle_ns: t.counter("pool.idle_ns"),
            worker_busy_ns: t.histogram("pool.worker_busy_ns"),
            job_wait_us: t.histogram("pool.job_wait_us"),
        };
        run.runs.incr();
        run
    }

    fn lane(&self, worker: usize) -> WorkerLane<'_> {
        let tid = WORKER_TID_BASE + worker as u64;
        self.prof
            .telemetry
            .name_thread_once(PID_WALL, tid, &format!("worker {worker}"));
        WorkerLane {
            run: self,
            tid,
            busy_ns: 0,
            jobs: 0,
        }
    }
}

/// One worker's view of an instrumented pool run. Accumulates busy time
/// locally; `finish` folds it into the pool-level imbalance metrics.
struct WorkerLane<'a> {
    run: &'a PoolRun<'a>,
    tid: u64,
    busy_ns: u64,
    jobs: u64,
}

impl WorkerLane<'_> {
    /// Runs one job, emitting its complete slice on this worker's lane.
    /// The queue wait (pool start → claim) lands in `pool.job_wait_us`;
    /// the slice name carries the job index.
    fn run_job(&mut self, index: usize, f: impl FnOnce()) {
        let wait_us = self.run.start.elapsed().as_micros() as u64;
        let ts = self.run.prof.telemetry.now_us();
        let t0 = Instant::now();
        f();
        let elapsed = t0.elapsed();
        self.busy_ns += elapsed.as_nanos() as u64;
        self.jobs += 1;
        self.run.job_wait_us.record(wait_us);
        self.run.prof.telemetry.slice_at(
            "pool",
            &format!("{}[{index}]", self.run.prof.label),
            PID_WALL,
            self.tid,
            ts,
            elapsed.as_micros() as u64,
        );
    }

    /// Called when the worker's claim loop ends: records this worker's
    /// busy time (the min/max spread of `pool.worker_busy_ns` within one
    /// run is the imbalance) and charges the unproductive remainder of
    /// its lifetime to `pool.idle_ns`.
    fn finish(self) {
        let lifetime_ns = self.run.start.elapsed().as_nanos() as u64;
        self.run.jobs.add(self.jobs);
        self.run.worker_busy_ns.record(self.busy_ns);
        self.run
            .idle_ns
            .add(lifetime_ns.saturating_sub(self.busy_ns));
    }
}

/// Worker threads to use when the caller asks for "auto" (`threads == 0`):
/// the machine's available parallelism, or 1 when that cannot be
/// determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a user-facing thread request: `0` means auto-detect.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        default_threads()
    } else {
        threads
    }
}

/// Runs one job per element of `jobs` on up to `threads` scoped workers,
/// returning the worker count actually used (`threads.min(jobs).max(1)`).
///
/// Job `i` receives `jobs[i]` by value: a plain value (a plan-table
/// cell), a pre-split `&mut` slice ([`split_chunks`], [`split_lengths`])
/// — the safe way to let workers write disjoint regions of one output
/// buffer — or a group of disjoint fragments ([`split_spans`]). `init()`
/// runs once on each worker to build scratch state threaded through
/// every job that worker executes (packed GEMM panels, transform tiles)
/// without sharing it across workers.
///
/// Workers claim jobs in ascending index order, so earlier jobs start no
/// later than later ones — pair with [`longest_first_order`] for
/// longest-job-first scheduling. With one worker everything runs inline
/// on the caller's thread.
///
/// Every job runs inside `catch_unwind`: a panicking job is *collected*
/// instead of unwinding through the pool — one bad job never poisons its
/// siblings, and the caller gets a typed [`PoolError`] naming every
/// failed index once the remaining jobs have drained. Fault injection
/// (see [`faults`]) checks site `pool.<label>` before each job.
///
/// When `prof` is enabled, each worker emits one Chrome-trace complete
/// slice per job on its own stable tid ([`WORKER_TID_BASE`]` + worker`),
/// and the pool-level counters (`pool.jobs`, `pool.runs`,
/// `pool.idle_ns`) and histograms (`pool.worker_busy_ns`,
/// `pool.job_wait_us`) accumulate, plus `pool.job_panics` on the rare
/// path. A disabled profiler costs one branch per invocation.
///
/// # Errors
///
/// [`PoolError::JobsPanicked`] when any job panicked.
pub fn run_jobs<J: Send, S>(
    threads: usize,
    jobs: Vec<J>,
    prof: &PoolProfiler,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, J) + Sync,
) -> Result<usize, PoolError> {
    let total = jobs.len();
    let workers = threads.min(total).max(1);
    if total == 0 {
        return Ok(workers);
    }
    let run = prof.is_enabled().then(|| PoolRun::start(prof));
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let completed = AtomicUsize::new(0);
    let panics = Mutex::new(Vec::new());
    let worker = |w: usize| {
        let mut state = init();
        let mut lane = run.as_ref().map(|r| r.lane(w));
        loop {
            let claimed = queue
                .lock()
                .expect("invariant: job queue lock never poisoned")
                .next();
            let Some((i, job)) = claimed else { break };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                prof.trip_job();
                match lane.as_mut() {
                    Some(l) => l.run_job(i, || f(&mut state, i, job)),
                    None => f(&mut state, i, job),
                }
            }));
            match outcome {
                Ok(()) => {
                    completed.fetch_add(1, Ordering::Relaxed);
                }
                Err(payload) => {
                    prof.telemetry.counter("pool.job_panics").incr();
                    panics
                        .lock()
                        .expect("invariant: job panic list lock never poisoned")
                        .push(JobPanic {
                            index: i,
                            message: describe_panic(payload.as_ref()),
                        });
                }
            }
        }
        if let Some(l) = lane {
            l.finish();
        }
    };
    if workers <= 1 {
        worker(0);
    } else {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let worker = &worker;
                scope.spawn(move || worker(w));
            }
        });
    }
    let mut panics = panics
        .into_inner()
        .expect("invariant: job panic list lock never poisoned");
    if panics.is_empty() {
        return Ok(workers);
    }
    panics.sort_by_key(|p| p.index);
    Err(PoolError::JobsPanicked {
        label: prof.label.to_string(),
        panics,
        completed: completed.into_inner(),
        total,
    })
}

/// Carves `data` into per-owner fragment groups for [`run_jobs`]: `spans`
/// lists `(owner, len)` pairs in memory order covering all of `data`, and
/// the returned `Vec` holds, for each owner `0..owners`, its fragments in
/// memory order. Owners may
/// interleave arbitrarily in the span list — that is the point: a job can
/// own non-contiguous regions (e.g. the same rows of every channel plane)
/// with no `unsafe` and no copying.
///
/// # Panics
///
/// Panics when the span lengths do not sum to `data.len()` or an owner
/// index is out of range.
pub fn split_spans<'a, T>(
    mut data: &'a mut [T],
    spans: &[(usize, usize)],
    owners: usize,
) -> Vec<Vec<&'a mut [T]>> {
    let mut groups: Vec<Vec<&'a mut [T]>> = (0..owners).map(|_| Vec::new()).collect();
    for &(owner, len) in spans {
        let (head, tail) = data.split_at_mut(len);
        groups[owner].push(head);
        data = tail;
    }
    assert!(data.is_empty(), "split_spans: spans do not cover data");
    groups
}

/// Splits `data` into consecutive slices of the given lengths. The lengths
/// must sum to exactly `data.len()` — this is how a flat output buffer is
/// carved into the disjoint per-job regions [`run_jobs`] hands out.
///
/// # Panics
///
/// Panics when the lengths do not sum to `data.len()`.
pub fn split_lengths<'a, T>(mut data: &'a mut [T], lengths: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(lengths.len());
    for &len in lengths {
        let (head, tail) = data.split_at_mut(len);
        out.push(head);
        data = tail;
    }
    assert!(data.is_empty(), "split_lengths: lengths do not cover data");
    out
}

/// Splits `data` into `⌈len/chunk⌉` consecutive slices of `chunk` elements
/// (the last possibly shorter). Convenience wrapper over `chunks_mut` that
/// collects into the `Vec` shape [`run_jobs`] expects.
///
/// # Panics
///
/// Panics when `chunk == 0`.
pub fn split_chunks<T>(data: &mut [T], chunk: usize) -> Vec<&mut [T]> {
    assert!(chunk > 0, "split_chunks: chunk must be positive");
    data.chunks_mut(chunk).collect()
}

/// Job order that schedules the heaviest jobs first: indices of `weights`
/// sorted by descending weight, ties broken by ascending index. Feeding
/// jobs to [`run_jobs`] in this order avoids tail stragglers when job costs
/// are skewed (the plan-table fill is the canonical case: range search cost
/// grows exponentially with range depth).
pub fn longest_first_order(weights: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        assert_eq!(resolve_threads(0), default_threads());
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn split_spans_groups_interleaved_owners() {
        let mut data: Vec<u32> = (0..10).collect();
        // Owner 0 gets [0..2) and [5..8); owner 1 gets [2..5) and [8..10).
        let groups = split_spans(&mut data, &[(0, 2), (1, 3), (0, 3), (1, 2)], 2);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![&[0, 1][..], &[5, 6, 7][..]]);
        assert_eq!(groups[1], vec![&[2, 3, 4][..], &[8, 9][..]]);
    }

    #[test]
    #[should_panic(expected = "spans do not cover data")]
    fn split_spans_rejects_short_cover() {
        let mut data = [0u8; 4];
        let _ = split_spans(&mut data, &[(0, 2)], 1);
    }

    #[test]
    fn grouped_jobs_write_all_fragments_at_any_thread_count() {
        for threads in [1usize, 2, 4, 8] {
            let mut data = vec![0usize; 24];
            // Each of 4 owners holds two fragments of 3, interleaved.
            let spans: Vec<(usize, usize)> = (0..8).map(|i| (i % 4, 3)).collect();
            let groups = split_spans(&mut data, &spans, 4);
            let prof = PoolProfiler::disabled();
            let workers = run_jobs(
                threads,
                groups,
                &prof,
                || (),
                |(), job, mut frags| {
                    for frag in frags.iter_mut() {
                        for v in frag.iter_mut() {
                            *v = job + 1;
                        }
                    }
                },
            )
            .unwrap();
            assert!(workers >= 1);
            let expect: Vec<usize> = (0..8).flat_map(|i| [i % 4 + 1; 3]).collect();
            assert_eq!(data, expect, "threads={threads}");
        }
    }

    #[test]
    fn grouped_jobs_isolate_panics() {
        let mut data = vec![0u8; 6];
        let groups = split_spans(&mut data, &[(0, 2), (1, 2), (2, 2)], 3);
        let prof = PoolProfiler::disabled();
        let err = run_jobs(
            2,
            groups,
            &prof,
            || (),
            |(), job, mut frags| {
                if job == 1 {
                    panic!("boom");
                }
                frags[0].fill(7);
            },
        )
        .unwrap_err();
        let PoolError::JobsPanicked {
            panics, completed, ..
        } = err;
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].index, 1);
        assert_eq!(completed, 2);
        // Healthy siblings still ran.
        assert_eq!(data, vec![7, 7, 0, 0, 7, 7]);
    }

    #[test]
    fn run_jobs_covers_every_index_exactly_once() {
        for threads in [1usize, 2, 4, 8] {
            let hits: Vec<AtomicU64> = (0..37).map(|_| AtomicU64::new(0)).collect();
            let used = run_jobs(
                threads,
                vec![(); hits.len()],
                &PoolProfiler::disabled(),
                || (),
                |(), i, ()| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                },
            )
            .unwrap();
            assert!(used >= 1 && used <= threads.max(1));
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn run_jobs_with_zero_jobs_is_a_noop() {
        let none: Vec<()> = Vec::new();
        let used = run_jobs(
            4,
            none,
            &PoolProfiler::disabled(),
            || (),
            |(), _, ()| panic!("no jobs to run"),
        );
        assert_eq!(used, Ok(1));
    }

    #[test]
    fn sliced_jobs_write_disjoint_regions() {
        for threads in [1usize, 3, 8] {
            let mut data = vec![0u64; 100];
            let slices = split_chunks(&mut data, 7);
            run_jobs(
                threads,
                slices,
                &PoolProfiler::disabled(),
                || (),
                |(), i, s| {
                    for v in s.iter_mut() {
                        *v = i as u64 + 1;
                    }
                },
            )
            .unwrap();
            for (idx, v) in data.iter().enumerate() {
                assert_eq!(*v, (idx / 7) as u64 + 1);
            }
        }
    }

    #[test]
    fn sliced_jobs_state_is_per_worker() {
        // Worker-local state must never be shared: each job stamps its
        // slice with the state's running job count, so any cross-worker
        // sharing would produce counts exceeding the per-worker total.
        let total = AtomicU64::new(0);
        let mut data = vec![0u64; 64];
        let slices = split_chunks(&mut data, 1);
        run_jobs(
            4,
            slices,
            &PoolProfiler::disabled(),
            || 0u64,
            |state, _, s| {
                *state += 1;
                s[0] = *state;
                total.fetch_add(1, Ordering::Relaxed);
            },
        )
        .unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 64);
        // No worker can have run more jobs than exist.
        assert!(data.iter().all(|&v| (1..=64).contains(&v)));
    }

    #[test]
    fn traced_pool_counts_jobs_and_emits_worker_lanes() {
        use winofuse_telemetry::VecSink;
        for threads in [1usize, 3] {
            let sink = VecSink::default();
            let events = sink.0.clone();
            let tele = Telemetry::with_sink(Box::new(sink));
            let prof = PoolProfiler::new(tele.clone(), "test.job");
            let jobs = 17;
            let used = run_jobs(
                threads,
                vec![(); jobs],
                &prof,
                || (),
                |(), _, ()| {
                    std::hint::black_box(0u64);
                },
            )
            .unwrap();

            let s = tele.summary();
            assert_eq!(s.counter("pool.jobs"), jobs as u64);
            assert_eq!(s.counter("pool.runs"), 1);
            assert_eq!(s.histograms["pool.worker_busy_ns"].count, used as u64);
            assert_eq!(s.histograms["pool.job_wait_us"].count, jobs as u64);

            let events = events.lock().unwrap();
            let slices: Vec<_> = events.iter().filter(|e| e.phase == 'X').collect();
            assert_eq!(slices.len(), jobs);
            let mut seen: Vec<usize> = slices
                .iter()
                .map(|e| {
                    assert_eq!(e.pid, PID_WALL);
                    assert!(e.tid >= WORKER_TID_BASE);
                    assert!(e.tid < WORKER_TID_BASE + used as u64);
                    assert!(e.dur.is_some());
                    let open = e.name.find('[').expect("indexed name");
                    e.name[open + 1..e.name.len() - 1].parse().unwrap()
                })
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..jobs).collect::<Vec<_>>());
            // One thread_name metadata record per distinct worker lane.
            let lanes = events.iter().filter(|e| e.phase == 'M').count();
            assert_eq!(lanes, used);
        }
    }

    #[test]
    fn traced_sliced_pool_matches_untraced_results() {
        let tele = Telemetry::enabled();
        let prof = PoolProfiler::new(tele.clone(), "sliced");
        let mut data = vec![0u64; 100];
        let slices = split_chunks(&mut data, 7);
        run_jobs(
            3,
            slices,
            &prof,
            || (),
            |(), i, s| {
                for v in s.iter_mut() {
                    *v = i as u64 + 1;
                }
            },
        )
        .unwrap();
        for (idx, v) in data.iter().enumerate() {
            assert_eq!(*v, (idx / 7) as u64 + 1);
        }
        let s = tele.summary();
        assert_eq!(s.counter("pool.jobs"), 15);
    }

    #[test]
    fn disabled_profiler_registers_nothing() {
        let prof = PoolProfiler::disabled();
        assert!(!prof.is_enabled());
        let hits = AtomicU64::new(0);
        run_jobs(
            4,
            vec![(); 8],
            &prof,
            || (),
            |(), _, ()| {
                hits.fetch_add(1, Ordering::Relaxed);
            },
        )
        .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 8);
        assert_eq!(prof.telemetry().summary().counters.len(), 0);
        // A scoped view of a disabled profiler stays disabled.
        assert!(!prof.scoped("phase").is_enabled());
    }

    #[test]
    fn split_lengths_covers_buffer() {
        let mut data = vec![0u32; 10];
        let parts = split_lengths(&mut data, &[3, 0, 4, 3]);
        assert_eq!(
            parts.iter().map(|p| p.len()).collect::<Vec<_>>(),
            vec![3, 0, 4, 3]
        );
    }

    #[test]
    #[should_panic(expected = "do not cover")]
    fn split_lengths_rejects_short_cover() {
        let mut data = vec![0u32; 10];
        let _ = split_lengths(&mut data, &[3, 3]);
    }

    #[test]
    fn longest_first_order_sorts_descending_with_stable_ties() {
        assert_eq!(longest_first_order(&[1, 9, 4, 9, 2]), vec![1, 3, 2, 4, 0]);
        assert_eq!(longest_first_order(&[]), Vec::<usize>::new());
    }
}
