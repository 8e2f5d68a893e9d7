//! **Bench regression gate** — compares current `BENCH_*.json` reports
//! against committed baselines and fails on regressions.
//!
//! ```text
//! bench_diff <baseline> <current> [--warn-only] [--tolerance-pct N]
//!   <baseline>         baseline BENCH_*.json file, or a directory of them
//!   <current>          current file (or directory) to judge
//!   --warn-only        print regressions but exit 0 (first-landing mode)
//!   --tolerance-pct N  allowed slowdown / throughput loss (default 30)
//! ```
//!
//! Direction-aware rules (see `winofuse_bench::diff`): `median_*_ms`
//! (including the conv bench's `median_prepare_ms`) may rise at most N%,
//! `gflops_*` / `speedup_*` may fall at most N%, and deterministic
//! quantities (`latency_cycles`, `dram_bytes`, `groups`,
//! `plans_computed`, `menu_dominated`, `dram_reconciled`) must match
//! exactly. Missing cases or metrics fail too. Exit status: 0 clean
//! (or `--warn-only`), 1 regressed, 2 usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use winofuse_bench::diff::{diff_texts, DiffConfig};

fn usage(msg: &str) -> ! {
    eprintln!("bench_diff: {msg}");
    eprintln!("usage: bench_diff <baseline> <current> [--warn-only] [--tolerance-pct N]");
    std::process::exit(2);
}

/// The `BENCH_*.json` files under `path` (or `path` itself when a file).
fn bench_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    if !path.is_dir() {
        return Err(format!(
            "`{}` is neither a file nor a directory",
            path.display()
        ));
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("reading `{}`: {e}", path.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no BENCH_*.json files in `{}`", path.display()));
    }
    Ok(files)
}

fn run(baseline: &Path, current: &Path, cfg: &DiffConfig) -> Result<bool, String> {
    let mut any_failure = false;
    for base_file in bench_files(baseline)? {
        let name = base_file
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("BENCH.json")
            .to_string();
        let cur_file = if current.is_dir() {
            current.join(&name)
        } else {
            current.to_path_buf()
        };
        println!("== {name}");
        if !cur_file.is_file() {
            println!("  FAIL  current report `{}` is missing", cur_file.display());
            any_failure = true;
            continue;
        }
        let base_text = std::fs::read_to_string(&base_file)
            .map_err(|e| format!("reading `{}`: {e}", base_file.display()))?;
        let cur_text = std::fs::read_to_string(&cur_file)
            .map_err(|e| format!("reading `{}`: {e}", cur_file.display()))?;
        let report = diff_texts(&base_text, &cur_text, cfg).map_err(|e| format!("{name}: {e}"))?;
        for m in &report.metrics {
            if m.detail == "informational" {
                continue;
            }
            println!(
                "  {}  {:<40} {}",
                if m.failed { "FAIL" } else { "  ok" },
                m.key,
                m.detail
            );
        }
        any_failure |= report.has_failures();
    }
    Ok(any_failure)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut warn_only = false;
    let mut cfg = DiffConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--warn-only" => warn_only = true,
            "--tolerance-pct" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) if pct >= 0.0 => cfg.tolerance = pct / 100.0,
                _ => usage("--tolerance-pct needs a non-negative number"),
            },
            other if other.starts_with("--") => usage(&format!("unknown flag `{other}`")),
            _ => paths.push(PathBuf::from(a)),
        }
    }
    if paths.len() != 2 {
        usage("expected exactly two paths: <baseline> <current>");
    }
    match run(&paths[0], &paths[1], &cfg) {
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::from(2)
        }
        Ok(true) if warn_only => {
            println!("\nregressions found (warn-only mode, not failing the build)");
            ExitCode::SUCCESS
        }
        Ok(true) => {
            println!("\nregressions found");
            ExitCode::FAILURE
        }
        Ok(false) => {
            println!("\nall benchmarks within tolerance");
            ExitCode::SUCCESS
        }
    }
}
