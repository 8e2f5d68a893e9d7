//! # winofuse-bench — experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§7), plus
//! ablation studies (see DESIGN.md §4 for the index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `exp_fig1_roofline` | Fig. 1 — roofline motivation (A, B, B′, C) |
//! | `exp_fig5_vgg` | Fig. 5 — VGG prefix latency vs transfer constraint, ours vs Alwani \[1\] |
//! | `exp_table1_vgg_detail` | Table 1 — detailed comparison at T = 2 MB |
//! | `exp_table2_alexnet` | Table 2 — AlexNet per-layer implementation details |
//! | `exp_energy` | §7.2 prose — transfer/compute energy savings |
//! | `exp_ablation_hetero` | heterogeneous vs homogeneous algorithm policies |
//! | `exp_ablation_linebuffer` | line-buffer vs tile-based fusion costs |
//! | `exp_ablation_tile` | Winograd tile-size choice m ∈ {2,3,4,6} |
//! | `exp_bench_search` | strategy-search wall clock, serial vs `--threads N` (writes `BENCH_search.json`) |
//!
//! Criterion benches (`cargo bench`): convolution kernels, Cook–Toom
//! transform generation, the optimizer ("returns the optimal solutions
//! within seconds", §7.1) and the timing simulator.

use std::sync::{Mutex, MutexGuard, PoisonError};

use winofuse_fpga::device::FpgaDevice;
use winofuse_model::network::Network;

pub mod diff;
pub mod report;

pub use report::{BenchCase, BenchReport};

/// One mebibyte, the unit of the paper's transfer-constraint axis.
pub const MB: u64 = 1024 * 1024;

/// The transfer-constraint sweep used for Fig. 5-style experiments. The
/// fully fused VGG prefix needs ~1.82 MB, so the sweep starts at 2 MB
/// (five points, like the paper's figure).
pub const FIG5_SWEEP_MB: [u64; 5] = [2, 3, 4, 5, 6];

/// Shared CLI options for the `exp_bench_*` binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchOptions {
    /// Timed runs per case (median reported).
    pub runs: usize,
    /// Worker threads for the parallel variant.
    pub threads: usize,
}

/// Parses the shared `--smoke` / `--runs N` / `--threads N` flags of the
/// `exp_bench_*` binaries. An unknown flag or malformed value prints a
/// usage string to stderr and exits with status 2 (the same convention
/// as the `winofuse` CLI) instead of panicking.
pub fn parse_bench_args(bin: &str, args: impl Iterator<Item = String>) -> BenchOptions {
    fn usage(bin: &str, msg: &str) -> ! {
        eprintln!("{bin}: {msg}");
        eprintln!("usage: {bin} [--smoke] [--runs N] [--threads N]");
        eprintln!("  --smoke      single timed run per case (CI smoke test)");
        eprintln!("  --runs N     timed runs per case, median reported (default 5)");
        eprintln!("  --threads N  worker threads for the parallel variant (default 4)");
        std::process::exit(2);
    }
    let mut args = args;
    let mut opts = BenchOptions {
        runs: 5,
        threads: 4,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => opts.runs = 1,
            "--runs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => opts.runs = n,
                _ => usage(bin, "--runs needs a positive integer"),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => opts.threads = n,
                _ => usage(bin, "--threads needs a positive integer"),
            },
            other => usage(bin, &format!("unknown flag `{other}`")),
        }
    }
    opts
}

/// Wall-clock sample recorder for the `exp_bench_*` binaries, in
/// microseconds. Every sample is kept, and the median and tail
/// percentiles are nearest-rank order statistics of the sorted samples,
/// so a reported value is always one of the measured ones, never a
/// histogram bucket edge. Samples may be recorded from several threads.
#[derive(Default)]
pub struct LatencySamples {
    samples: Mutex<Vec<u64>>,
}

impl LatencySamples {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The samples, whatever a panicking recorder left behind.
    fn samples(&self) -> MutexGuard<'_, Vec<u64>> {
        self.samples.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one sample in microseconds.
    pub fn record_us(&self, us: u64) {
        self.samples().push(us);
    }

    /// Times one invocation of `f`, records it, returns its result.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.record_us(start.elapsed().as_micros() as u64);
        out
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.samples().len() as u64
    }

    /// Nearest-rank percentile in milliseconds: the smallest sample such
    /// that at least `pct` percent of all samples are less than or equal
    /// to it; 0 with no samples.
    fn percentile_ms(&self, pct: usize) -> f64 {
        let mut sorted = self.samples().clone();
        sorted.sort_unstable();
        // Integer ceil(pct·n / 100): no floating-point rounding in the rank.
        let rank = (pct * sorted.len()).div_ceil(100).max(1);
        sorted.get(rank - 1).map_or(0.0, |&us| us as f64 / 1e3)
    }

    /// Median of the recorded samples (the lower middle sample for an
    /// even count), in milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.percentile_ms(50)
    }

    /// 95th percentile, in milliseconds.
    pub fn p95_ms(&self) -> f64 {
        self.percentile_ms(95)
    }

    /// 99th percentile, in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.percentile_ms(99)
    }
}

/// Formats a cycle count with thousands separators.
pub fn fmt_cycles(c: u64) -> String {
    let s = c.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

/// Effective GOPS of `ops` work finished in `cycles` on `device`.
pub fn gops(device: &FpgaDevice, ops: u64, cycles: u64) -> f64 {
    device.effective_gops(ops, cycles)
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, what: &str, net: Option<&Network>) {
    println!("================================================================");
    println!("{id}: {what}");
    if let Some(n) = net {
        println!("network: {n}");
    }
    println!("================================================================");
}

/// Writes experiment data as CSV under `experiment-results/` next to the
/// workspace (the raw numbers behind a figure, for plotting elsewhere).
/// Returns the path written.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_results_csv(
    name: &str,
    header: &str,
    rows: &[String],
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("experiment-results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut contents = String::with_capacity(rows.len() * 32 + header.len() + 1);
    contents.push_str(header);
    contents.push('\n');
    for r in rows {
        contents.push_str(r);
        contents.push('\n');
    }
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Writes a [`RunTelemetry`] summary as JSON next to the experiment's
/// CSV (`experiment-results/<name>.telemetry.json`), so a figure's raw
/// numbers travel with the search/simulator counters that produced
/// them. Returns the path written.
///
/// # Errors
///
/// Propagates filesystem failures.
///
/// [`RunTelemetry`]: winofuse_telemetry::RunTelemetry
pub fn write_telemetry_json(
    name: &str,
    run: &winofuse_telemetry::RunTelemetry,
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("experiment-results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.telemetry.json"));
    std::fs::write(&path, run.to_json())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_formatting() {
        assert_eq!(fmt_cycles(0), "0");
        assert_eq!(fmt_cycles(999), "999");
        assert_eq!(fmt_cycles(1000), "1,000");
        assert_eq!(fmt_cycles(12_345_678), "12,345,678");
    }

    #[test]
    fn csv_writer_roundtrips() {
        let path =
            write_results_csv("unit-test", "a,b", &["1,2".to_string(), "3,4".to_string()]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn telemetry_writer_roundtrips() {
        let tele = winofuse_telemetry::Telemetry::enabled();
        tele.add("unit.test.counter", 7);
        let path = write_telemetry_json("unit-test", &tele.summary()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = winofuse_telemetry::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("unit.test.counter"))
                .and_then(winofuse_telemetry::JsonValue::as_u64),
            Some(7)
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn latency_samples_report_percentiles() {
        let s = LatencySamples::new();
        for v in [1000, 2000, 3000] {
            s.record_us(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.median_ms(), 2.0);
        assert_eq!(s.p95_ms(), 3.0);
        assert_eq!(s.p99_ms(), 3.0);
        // Close samples that would share a histogram bucket: the median
        // is the middle sample itself.
        let close = LatencySamples::new();
        for v in [3931, 3933, 3932, 3934] {
            close.record_us(v);
        }
        assert_eq!(close.median_ms(), 3.932);
        assert_eq!(close.p95_ms(), 3.934);
        assert_eq!(LatencySamples::new().median_ms(), 0.0);
    }

    #[test]
    fn sweep_is_sorted_and_feasible() {
        assert!(FIG5_SWEEP_MB.windows(2).all(|w| w[0] < w[1]));
        // Every point must exceed the fused prefix minimum (~1.82 MB).
        use winofuse_model::shape::DataType;
        let net = winofuse_model::zoo::vgg_e_fused_prefix();
        let min = net
            .fused_transfer_bytes(0..net.len(), DataType::Fixed16)
            .unwrap();
        assert!(FIG5_SWEEP_MB[0] * MB >= min);
    }
}
