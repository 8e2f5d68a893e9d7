//! `BENCH_*.json` comparison for the regression gate (`bench_diff`).
//!
//! Compares a current benchmark report against a committed baseline,
//! metric by metric, with direction-aware thresholds:
//!
//! - `median_*_ms`, `p50_*_ms`, `p95_*_ms`, `p99_*_ms` — wall-clock
//!   medians and tail-latency percentiles, lower is better; the current
//!   value may exceed the baseline by at most the timing threshold
//!   (default 30%).
//! - `gflops_*`, `speedup_*`, `throughput_*` — throughput and ratios,
//!   higher is better; the current value may fall below the baseline by
//!   at most the same threshold.
//! - `speedup_parallel_vs_serial` additionally carries an **absolute
//!   floor** (default 2.0): the tile-grain schedule must actually win
//!   on a multicore host. The floor is enforced only when the current
//!   report's host has at least as many CPUs as the benchmark used
//!   threads — a 1-CPU container cannot exhibit parallel speedup, so
//!   there the floor downgrades to an informative note.
//! - `latency_cycles`, `dram_bytes`, `groups`, `plans_computed`,
//!   `menu_dominated`, `dram_reconciled`, `plan_search_once` —
//!   deterministic model outputs; any change is a failure regardless of
//!   threshold.
//! - Everything else (labels, run parameters, host metadata) is
//!   informational.
//!
//! A case or metric present in the baseline but missing from the current
//! report is a failure too — losing coverage silently is how regressions
//! hide.

use std::collections::BTreeMap;

use winofuse_telemetry::json::parse;
use winofuse_telemetry::JsonValue;

/// Tolerance for direction-aware metrics, as a fraction (0.30 = 30%).
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Allowed relative slowdown / throughput loss.
    pub tolerance: f64,
    /// Absolute floor for `speedup_parallel_vs_serial`, enforced only
    /// when the current report's host CPUs cover the benchmark threads.
    pub parallel_speedup_floor: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            tolerance: 0.30,
            parallel_speedup_floor: 2.0,
        }
    }
}

/// The one metric that carries an absolute floor on capable hosts.
const PARALLEL_SPEEDUP: &str = "speedup_parallel_vs_serial";

/// Whether the current report was produced on a host that can actually
/// exhibit parallel speedup: `host.cpus >= threads` and the benchmark
/// ran with more than one worker. Reports without host metadata are
/// treated as incapable (floor not enforced) rather than failed.
fn floor_applies(current: &JsonValue) -> bool {
    let threads = current
        .get("threads")
        .and_then(JsonValue::as_u64)
        .unwrap_or(1);
    let cpus = current
        .get("host")
        .and_then(|h| h.get("cpus"))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    threads >= 2 && cpus >= threads
}

/// How a metric is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Wall-clock: current may be at most `(1 + tol) ×` baseline.
    LowerIsBetter,
    /// Throughput/speedup: current may be at least `(1 - tol) ×` baseline.
    HigherIsBetter,
    /// Deterministic quantity: must match exactly.
    Exact,
    /// Not judged (labels, metadata).
    Informational,
}

/// Classifies a metric key into its comparison direction.
pub fn direction_for(key: &str) -> Direction {
    let timing_prefix = ["median_", "p50_", "p95_", "p99_"]
        .iter()
        .any(|p| key.starts_with(p));
    if timing_prefix && key.ends_with("_ms") {
        return Direction::LowerIsBetter;
    }
    if key.starts_with("gflops_") || key.starts_with("speedup_") || key.starts_with("throughput_") {
        return Direction::HigherIsBetter;
    }
    match key {
        "latency_cycles" | "dram_bytes" | "groups" | "plans_computed" | "menu_dominated"
        | "dram_reconciled" | "plan_search_once" => Direction::Exact,
        _ => Direction::Informational,
    }
}

/// One metric's verdict.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// `"case/metric"`.
    pub key: String,
    /// Human-readable comparison line.
    pub detail: String,
    /// Whether this metric regressed.
    pub failed: bool,
}

/// The comparison of one baseline file against one current file.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every judged metric, in case order.
    pub metrics: Vec<MetricDiff>,
}

impl DiffReport {
    /// All regressed metrics.
    pub fn failures(&self) -> impl Iterator<Item = &MetricDiff> {
        self.metrics.iter().filter(|m| m.failed)
    }

    /// Whether any metric regressed.
    pub fn has_failures(&self) -> bool {
        self.metrics.iter().any(|m| m.failed)
    }
}

/// The `cases` map of a report. Accepts both the shared-writer schema
/// (`{"cases": {...}}`) and the legacy flat layout where every top-level
/// object member is a case.
fn cases_of(doc: &JsonValue) -> BTreeMap<String, &JsonValue> {
    if let Some(JsonValue::Object(cases)) = doc.get("cases") {
        return cases.iter().map(|(k, v)| (k.clone(), v)).collect();
    }
    match doc {
        JsonValue::Object(members) => members
            .iter()
            .filter(|(_, v)| matches!(v, JsonValue::Object(_)))
            .filter(|(k, _)| k.as_str() != "host")
            .map(|(k, v)| (k.clone(), v))
            .collect(),
        _ => BTreeMap::new(),
    }
}

fn judge(
    key: &str,
    baseline: &JsonValue,
    current: Option<&JsonValue>,
    cfg: &DiffConfig,
    floor_enforced: bool,
) -> MetricDiff {
    let metric = key.rsplit('/').next().unwrap_or(key);
    let direction = direction_for(metric);
    let Some(current) = current else {
        return MetricDiff {
            key: key.to_string(),
            detail: "missing from current report".to_string(),
            failed: direction != Direction::Informational,
        };
    };
    match direction {
        Direction::Informational => MetricDiff {
            key: key.to_string(),
            detail: "informational".to_string(),
            failed: false,
        },
        Direction::Exact => {
            let same = baseline == current;
            MetricDiff {
                key: key.to_string(),
                detail: if same {
                    format!("unchanged ({})", fmt_value(baseline))
                } else {
                    format!(
                        "expected exactly {}, got {}",
                        fmt_value(baseline),
                        fmt_value(current)
                    )
                },
                failed: !same,
            }
        }
        Direction::LowerIsBetter | Direction::HigherIsBetter => {
            let (Some(b), Some(c)) = (baseline.as_f64(), current.as_f64()) else {
                return MetricDiff {
                    key: key.to_string(),
                    detail: "non-numeric value for a numeric metric".to_string(),
                    failed: true,
                };
            };
            let (limit, mut failed, verb) = if direction == Direction::LowerIsBetter {
                let limit = b * (1.0 + cfg.tolerance);
                (limit, c > limit, "≤")
            } else {
                let limit = b * (1.0 - cfg.tolerance);
                (limit, c < limit, "≥")
            };
            let delta_pct = if b != 0.0 { 100.0 * (c - b) / b } else { 0.0 };
            let mut detail = format!(
                "baseline {b:.3}, current {c:.3} ({delta_pct:+.1}%), allowed {verb} {limit:.3}"
            );
            if metric == PARALLEL_SPEEDUP {
                let floor = cfg.parallel_speedup_floor;
                if floor_enforced {
                    if c < floor {
                        failed = true;
                        detail.push_str(&format!("; below the enforced {floor:.1}× floor"));
                    } else {
                        detail.push_str(&format!("; clears the {floor:.1}× floor"));
                    }
                } else {
                    detail.push_str(&format!(
                        "; {floor:.1}× floor not enforced (host cpus < threads)"
                    ));
                }
            }
            MetricDiff {
                key: key.to_string(),
                detail,
                failed,
            }
        }
    }
}

fn fmt_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Number(n) => format!("{n}"),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::String(s) => s.clone(),
        JsonValue::Null => "null".to_string(),
        _ => "<composite>".to_string(),
    }
}

/// Compares two parsed reports. Every metric of every baseline case is
/// judged against the current report; extra cases/metrics in the current
/// report are ignored (new coverage is not a regression).
pub fn diff_reports(baseline: &JsonValue, current: &JsonValue, cfg: &DiffConfig) -> DiffReport {
    let mut report = DiffReport::default();
    let current_cases = cases_of(current);
    let floor_enforced = floor_applies(current);
    for (case_name, base_case) in cases_of(baseline) {
        let cur_case = current_cases.get(&case_name);
        let JsonValue::Object(base_metrics) = base_case else {
            continue;
        };
        match cur_case {
            None => report.metrics.push(MetricDiff {
                key: case_name.clone(),
                detail: "case missing from current report".to_string(),
                failed: true,
            }),
            Some(cur_case) => {
                for (metric, base_value) in base_metrics {
                    report.metrics.push(judge(
                        &format!("{case_name}/{metric}"),
                        base_value,
                        cur_case.get(metric),
                        cfg,
                        floor_enforced,
                    ));
                }
            }
        }
    }
    report
}

/// Parses two report texts and diffs them.
///
/// # Errors
///
/// Returns a message when either text is not valid JSON.
pub fn diff_texts(baseline: &str, current: &str, cfg: &DiffConfig) -> Result<DiffReport, String> {
    let b = parse(baseline).ok_or("baseline is not valid JSON")?;
    let c = parse(current).ok_or("current report is not valid JSON")?;
    Ok(diff_reports(&b, &c, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
      "bench": "conv", "threads": 4, "runs": 5,
      "host": {"cpus": 8, "git_sha": "abc", "timestamp": 1},
      "cases": {
        "vgg": {"median_serial_ms": 100.0, "gflops_serial": 10.0,
                "latency_cycles": 5000, "algo": "winograd"}
      }
    }"#;

    fn with(serial_ms: f64, gflops: f64, latency: u64) -> String {
        format!(
            r#"{{"cases": {{"vgg": {{"median_serial_ms": {serial_ms},
                "gflops_serial": {gflops}, "latency_cycles": {latency},
                "algo": "winograd"}}}}}}"#
        )
    }

    #[test]
    fn unchanged_report_passes() {
        let r = diff_texts(BASE, &with(100.0, 10.0, 5000), &DiffConfig::default()).unwrap();
        assert!(!r.has_failures(), "{:?}", r.failures().collect::<Vec<_>>());
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let r = diff_texts(BASE, &with(125.0, 9.0, 5000), &DiffConfig::default()).unwrap();
        assert!(!r.has_failures());
    }

    #[test]
    fn slowdown_beyond_tolerance_fails() {
        let r = diff_texts(BASE, &with(140.0, 10.0, 5000), &DiffConfig::default()).unwrap();
        let fails: Vec<_> = r.failures().map(|m| m.key.as_str()).collect();
        assert_eq!(fails, ["vgg/median_serial_ms"]);
    }

    #[test]
    fn throughput_loss_beyond_tolerance_fails() {
        let r = diff_texts(BASE, &with(100.0, 6.0, 5000), &DiffConfig::default()).unwrap();
        assert!(r.failures().any(|m| m.key == "vgg/gflops_serial"));
    }

    #[test]
    fn deterministic_drift_fails_regardless_of_threshold() {
        let cfg = DiffConfig {
            tolerance: 10.0,
            ..DiffConfig::default()
        };
        let r = diff_texts(BASE, &with(100.0, 10.0, 5001), &cfg).unwrap();
        assert!(r.failures().any(|m| m.key == "vgg/latency_cycles"));
    }

    #[test]
    fn missing_case_fails() {
        let r = diff_texts(BASE, r#"{"cases": {}}"#, &DiffConfig::default()).unwrap();
        assert!(r.failures().any(|m| m.key == "vgg"));
    }

    #[test]
    fn missing_metric_fails() {
        let cur = r#"{"cases": {"vgg": {"median_serial_ms": 100.0}}}"#;
        let r = diff_texts(BASE, cur, &DiffConfig::default()).unwrap();
        assert!(r.failures().any(|m| m.key == "vgg/gflops_serial"));
    }

    fn speedup_report(cpus: u64, threads: u64, speedup: f64) -> String {
        format!(
            r#"{{"bench": "conv", "threads": {threads}, "runs": 1,
                "host": {{"cpus": {cpus}, "git_sha": "x", "timestamp": 1}},
                "cases": {{"vgg": {{"speedup_parallel_vs_serial": {speedup}}}}}}}"#
        )
    }

    #[test]
    fn parallel_floor_enforced_on_capable_host() {
        let base = speedup_report(8, 4, 2.5);
        let cur = speedup_report(8, 4, 1.4);
        let cfg = DiffConfig {
            tolerance: 10.0, // relative check wide open: only the floor can fail
            ..DiffConfig::default()
        };
        let r = diff_texts(&base, &cur, &cfg).unwrap();
        let fail: Vec<_> = r.failures().collect();
        assert_eq!(fail.len(), 1, "{:?}", r.metrics);
        assert!(fail[0].detail.contains("below the enforced 2.0× floor"));
    }

    #[test]
    fn parallel_floor_passes_when_cleared() {
        let base = speedup_report(8, 4, 2.5);
        let cur = speedup_report(8, 4, 2.1);
        let r = diff_texts(&base, &cur, &DiffConfig::default()).unwrap();
        assert!(!r.has_failures(), "{:?}", r.failures().collect::<Vec<_>>());
    }

    #[test]
    fn parallel_floor_not_enforced_on_undersized_host() {
        // A 1-CPU container cannot speed up; the floor downgrades to a
        // note and only the relative tolerance applies.
        let base = speedup_report(1, 4, 1.0);
        let cur = speedup_report(1, 4, 1.0);
        let r = diff_texts(&base, &cur, &DiffConfig::default()).unwrap();
        assert!(!r.has_failures(), "{:?}", r.failures().collect::<Vec<_>>());
        assert!(r.metrics.iter().any(|m| m.detail.contains("not enforced")));
    }

    #[test]
    fn prepare_metric_is_direction_judged() {
        // The conv bench's bank-preparation time rides the generic prefix
        // rules; pin it so a rename doesn't silently demote it to
        // informational.
        assert_eq!(direction_for("median_prepare_ms"), Direction::LowerIsBetter);
    }

    #[test]
    fn serve_metrics_are_direction_judged() {
        assert_eq!(direction_for("p99_request_ms"), Direction::LowerIsBetter);
        assert_eq!(direction_for("p50_batched_ms"), Direction::LowerIsBetter);
        assert_eq!(direction_for("throughput_rps"), Direction::HigherIsBetter);
        assert_eq!(direction_for("plan_search_once"), Direction::Exact);
        let base = r#"{"cases": {"serve": {"p99_request_ms": 10.0,
            "throughput_rps": 100.0, "plan_search_once": true}}}"#;
        // Tail latency blown past tolerance, throughput collapsed, and a
        // second strategy search ran: all three must fail.
        let cur = r#"{"cases": {"serve": {"p99_request_ms": 20.0,
            "throughput_rps": 50.0, "plan_search_once": false}}}"#;
        let r = diff_texts(base, cur, &DiffConfig::default()).unwrap();
        let fails: Vec<_> = r.failures().map(|m| m.key.as_str()).collect();
        assert_eq!(
            fails,
            [
                "serve/p99_request_ms",
                "serve/plan_search_once",
                "serve/throughput_rps"
            ]
        );
    }

    #[test]
    fn legacy_flat_layout_is_accepted() {
        let legacy_base = r#"{"threads": 4, "runs": 5, "vgg": {"median_serial_ms": 100.0}}"#;
        let legacy_cur = r#"{"threads": 4, "runs": 5, "vgg": {"median_serial_ms": 150.0}}"#;
        let r = diff_texts(legacy_base, legacy_cur, &DiffConfig::default()).unwrap();
        assert!(r.has_failures());
    }
}
