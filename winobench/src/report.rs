//! What one run reports: named metrics, and operations attempted against
//! operations failed.

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Verified operations: every timed call whose output was checked, and
/// how many of them were refused, errored or returned a wrong answer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally's counts to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One timed phase of a workload's loop: the wall latency of each correct
/// operation (a served frame, or a search pass), the checked operations,
/// wall time until the last answer, and the process CPU time used.
#[derive(Default)]
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    pub tally: Tally,
    pub elapsed_s: f64,
    pub cpu_s: f64,
}

impl Phase {
    /// Correct operations per wall second.
    pub fn ops_per_s(&self) -> f64 {
        crate::stats::ratio(self.latencies_ms.len() as f64, self.elapsed_s)
    }

    /// Process CPU milliseconds per correct operation.
    pub fn cpu_ms_per_op(&self) -> f64 {
        crate::stats::ratio(self.cpu_s * 1e3, self.latencies_ms.len() as f64)
    }
}

/// Renders the run's result line: `correct`, `attempted`, `failed` and
/// every metric with its unit, as one JSON object.
///
/// # Panics
///
/// Panics on a non-finite metric value, which JSON cannot carry and which
/// would mean a measurement went wrong.
pub fn result_line(tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_full_precision() {
        let mut t = Tally::default();
        t.check(true);
        t.check(true);
        let line = result_line(
            t,
            &[
                metric("latency_p50_ms", 1.203_456_789, "ms"),
                metric("setup_s", 0.5, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\
             \"latency_p50_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let doc = winofuse::telemetry::json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(2));
    }

    #[test]
    fn any_failure_makes_the_run_incorrect() {
        let mut t = Tally::default();
        t.check(true);
        t.check(false);
        assert!(
            result_line(t, &[]).starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1")
        );
    }
}
