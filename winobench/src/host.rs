//! Facts about the host a run measured on: CPU count, the active GEMM
//! microkernel, the source revision, peak memory, and this host's own
//! roofline (prepacked-GEMM peak and stream-copy bandwidth).

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use winofuse::conv::gemm::{gemm_f32_prepacked, BOperand, GemmBlocking, GemmScratch, PackedA};
use winofuse::conv::tensor::random_tensor;

/// CPUs this process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit the checkout was built from, read from `.git` in the
/// working directory (never from a parent directory); `unknown` when the
/// checkout carries no git metadata.
pub fn git_sha() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&git.join(reference)) {
        return sha.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user plus system) this process has used so far, over all
/// of its threads, including threads that have exited. Time the
/// hypervisor steals from the guest is not charged to it.
///
/// # Panics
///
/// Panics if the clock cannot be read.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux); `clock_gettime` writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line: the metric is
/// part of the benchmark's contract, so a host without it cannot run it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// This host's roofline, measured once per run.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// Aggregate prepacked-GEMM rate of `threads` workers, GFLOP/s.
    pub gemm_peak_gflops: f64,
    /// Aggregate stream-copy bandwidth of `threads` workers (bytes read
    /// plus bytes written), GB/s.
    pub copy_gbps: f64,
}

impl Roofline {
    /// Attainable GFLOP/s at `flops_per_byte` arithmetic intensity.
    pub fn attainable_gflops(&self, flops_per_byte: f64) -> f64 {
        self.gemm_peak_gflops.min(self.copy_gbps * flops_per_byte)
    }
}

const CALIBRATION_ROUNDS: usize = 10;
const ROUND: Duration = Duration::from_millis(100);

/// Calibrates the roofline with `threads` concurrent workers: the best of
/// several rounds of `gemm_f32_prepacked` through the active
/// `MicroKernel`, and of `copy_from_slice` over buffers larger than the
/// last-level cache.
pub fn calibrate(threads: usize) -> Roofline {
    Roofline {
        gemm_peak_gflops: best_rate(threads, gemm_worker) / 1e9,
        copy_gbps: best_rate(threads, copy_worker) / 1e9,
    }
}

/// Runs `worker` on `threads` scoped threads for several rounds and
/// returns the best aggregate rate (units of work per second).
fn best_rate(threads: usize, worker: fn(Duration) -> (f64, Duration)) -> f64 {
    (0..CALIBRATION_ROUNDS)
        .map(|_| {
            let results: Vec<(f64, Duration)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| worker(ROUND))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("calibration worker"))
                    .collect()
            });
            results
                .iter()
                .map(|&(work, elapsed)| work / elapsed.as_secs_f64())
                .sum::<f64>()
        })
        .fold(0.0, f64::max)
}

/// One worker's GEMM round: flops done and time taken. The operand shape
/// is one cache block of the default blocking (`m = MC·4`, `k = KC`), so
/// the measurement is the packed microkernel sweep the conv paths run.
fn gemm_worker(round: Duration) -> (f64, Duration) {
    let (m, k, n) = (256, 256, 512);
    let a = random_tensor(1, 1, m, k, 1);
    let b = random_tensor(1, 1, k, n, 2);
    let packed = PackedA::pack(a.as_slice(), m, k, GemmBlocking::default());
    let mut scratch = GemmScratch::new();
    let mut c = vec![0.0f32; m * n];
    let mut flops = 0.0;
    let start = Instant::now();
    while start.elapsed() < round {
        let out = gemm_f32_prepacked(
            &mut scratch,
            &packed,
            n,
            BOperand::row_major(black_box(b.as_slice()), n),
            &mut c,
            false,
        );
        flops += out.flops as f64;
        black_box(&c);
    }
    (flops, start.elapsed())
}

/// One worker's copy round over 16 MiB buffers: bytes moved (read plus
/// written) and time taken.
fn copy_worker(round: Duration) -> (f64, Duration) {
    const LEN: usize = 4 << 20;
    let src = vec![1.0f32; LEN];
    let mut dst = vec![0.0f32; LEN];
    let mut bytes = 0.0;
    let start = Instant::now();
    while start.elapsed() < round {
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
        bytes += (2 * LEN * std::mem::size_of::<f32>()) as f64;
    }
    (bytes, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_counts_work_on_this_thread() {
        let cpu0 = process_cpu_s();
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(50) {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        black_box(x);
        let cpu = process_cpu_s() - cpu0;
        assert!(cpu > 0.02, "a 50 ms busy loop was charged {cpu} s");
    }

    #[test]
    fn roofline_is_the_lower_of_compute_and_bandwidth() {
        let roof = Roofline {
            gemm_peak_gflops: 40.0,
            copy_gbps: 10.0,
        };
        assert_eq!(roof.attainable_gflops(1.0), 10.0);
        assert_eq!(roof.attainable_gflops(8.0), 40.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
