//! The `exp_bench_*` binaries must reject bad command lines with exit
//! status 2 and a usage string on stderr — the same convention as the
//! `winofuse` CLI — rather than panicking (a panic aborts with 101 and
//! a backtrace, which reads as a crash in CI, not an operator error).

use std::process::Command;

fn assert_usage_exit(bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("spawn bench binary");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?}: expected exit 2, got {:?}",
        out.status
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("usage:"),
        "{bin} {args:?}: stderr lacks a usage string:\n{err}"
    );
}

#[test]
fn bench_conv_rejects_unknown_flag() {
    assert_usage_exit(
        env!("CARGO_BIN_EXE_exp_bench_conv"),
        &["--definitely-not-a-flag"],
    );
}

#[test]
fn bench_search_rejects_unknown_flag() {
    assert_usage_exit(
        env!("CARGO_BIN_EXE_exp_bench_search"),
        &["--definitely-not-a-flag"],
    );
}

#[test]
fn bench_fused_rejects_unknown_flag() {
    assert_usage_exit(
        env!("CARGO_BIN_EXE_exp_bench_fused"),
        &["--definitely-not-a-flag"],
    );
}

#[test]
fn bench_flag_values_are_validated() {
    let conv = env!("CARGO_BIN_EXE_exp_bench_conv");
    assert_usage_exit(conv, &["--runs", "zero"]);
    assert_usage_exit(conv, &["--runs", "0"]);
    assert_usage_exit(conv, &["--threads"]);
}

#[test]
fn bench_diff_rejects_bad_command_lines() {
    let diff = env!("CARGO_BIN_EXE_bench_diff");
    assert_usage_exit(diff, &[]);
    assert_usage_exit(diff, &["one-path-only"]);
    assert_usage_exit(diff, &["a", "b", "--definitely-not-a-flag"]);
    assert_usage_exit(diff, &["a", "b", "--tolerance-pct", "minus"]);
}

const DIFF_BASELINE: &str = r#"{
  "bench": "conv", "threads": 4, "runs": 5,
  "host": {"cpus": 8, "git_sha": "abc1234", "timestamp": 1},
  "cases": {
    "vgg_e_conv3_1": {
      "median_serial_ms": 100.0,
      "gflops_serial": 10.0,
      "latency_cycles": 5000
    }
  }
}"#;

fn write_diff_pair(dir: &std::path::Path, current_case: &str) -> (String, String) {
    let base = dir.join("BENCH_conv.json");
    let cur = dir.join("current_BENCH_conv.json");
    std::fs::write(&base, DIFF_BASELINE).unwrap();
    std::fs::write(
        &cur,
        format!(r#"{{"cases": {{"vgg_e_conv3_1": {current_case}}}}}"#),
    )
    .unwrap();
    (
        base.to_str().unwrap().to_string(),
        cur.to_str().unwrap().to_string(),
    )
}

/// The regression gate must exit nonzero when a benchmark regressed
/// beyond tolerance, and zero when the report is within tolerance or
/// `--warn-only` downgrades the failure.
#[test]
fn bench_diff_gates_on_regressions() {
    let diff = env!("CARGO_BIN_EXE_bench_diff");
    let dir = std::env::temp_dir().join(format!("bench_diff_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Regressed: serial median doubled (far beyond the 30% tolerance).
    let (base, cur) = write_diff_pair(
        &dir,
        r#"{"median_serial_ms": 200.0, "gflops_serial": 10.0, "latency_cycles": 5000}"#,
    );
    let out = Command::new(diff).args([&base, &cur]).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "regressed report must fail the gate: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FAIL"), "output names the failure:\n{text}");

    // Same regression in warn-only mode passes.
    let out = Command::new(diff)
        .args([&base, &cur, "--warn-only"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));

    // Within tolerance (10% slower, deterministic metrics unchanged).
    let (base, cur) = write_diff_pair(
        &dir,
        r#"{"median_serial_ms": 110.0, "gflops_serial": 9.5, "latency_cycles": 5000}"#,
    );
    let out = Command::new(diff).args([&base, &cur]).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "in-tolerance report must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Deterministic drift fails even inside the timing tolerance.
    let (base, cur) = write_diff_pair(
        &dir,
        r#"{"median_serial_ms": 100.0, "gflops_serial": 10.0, "latency_cycles": 5001}"#,
    );
    let out = Command::new(diff).args([&base, &cur]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));

    let _ = std::fs::remove_dir_all(&dir);
}

/// `bench_diff` compares a search report's exact fields (design latency,
/// plans computed, dominated menu entries) to the committed baseline
/// with no tolerance, so they must describe one optimization, not a sum
/// over however many optimizations `--runs` asked for.
#[test]
fn bench_search_exact_fields_do_not_depend_on_runs() {
    use winofuse_bench::diff::{direction_for, Direction};
    use winofuse_telemetry::JsonValue;

    let bin = env!("CARGO_BIN_EXE_exp_bench_search");
    let report = |runs: &str| {
        let dir =
            std::env::temp_dir().join(format!("bench_search_runs{runs}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(bin)
            .args(["--runs", runs, "--threads", "2"])
            .current_dir(&dir)
            .output()
            .expect("spawn exp_bench_search");
        assert!(
            out.status.success(),
            "exp_bench_search --runs {runs} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(dir.join("BENCH_search.json")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        winofuse_telemetry::json::parse(&text).expect("BENCH_search.json parses")
    };
    let (one, three) = (report("1"), report("3"));

    let Some(JsonValue::Object(cases)) = one.get("cases") else {
        panic!("report has no cases: {one:?}");
    };
    let mut compared = 0;
    for (case, metrics) in cases {
        let JsonValue::Object(metrics) = metrics else {
            panic!("case {case} is not an object");
        };
        for (key, value) in metrics {
            if direction_for(key) == Direction::Exact {
                let other = three.get("cases").and_then(|c| c.get(case)?.get(key));
                assert_eq!(Some(value), other, "{case}/{key}: --runs 1 vs --runs 3");
                compared += 1;
            }
        }
    }
    assert_eq!(
        compared, 6,
        "latency, plans and dominated entries of both cases"
    );
}
