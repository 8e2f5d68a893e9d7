//! The traced run's recorder: benchmark-owned spans around every public
//! call, the library's own trace events and counters, and a Chrome trace
//! written when the run ends.
//!
//! Spans are kept in memory. Each carries the lane (client) it ran on, the
//! request it belongs to, and the span that caused it, so one request's
//! submit and wait line up under a shared `req` in the viewer.

use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use winofuse::telemetry::json::esc;
use winofuse::telemetry::{RunTelemetry, Telemetry, TraceEvent, VecSink};

/// Chrome-trace process id of the benchmark's own spans (the library
/// uses 1 for wall-clock events and 2 for simulated cycles).
const PID_BENCH: u64 = 100;

struct BenchSpan {
    name: &'static str,
    parent: &'static str,
    tid: u64,
    req: Option<u64>,
    ts: u64,
    dur: u64,
}

/// Spans and telemetry of one traced run.
pub struct Tracer {
    /// The telemetry context every traced library call reports into.
    pub tele: Telemetry,
    lib_events: Arc<Mutex<Vec<TraceEvent>>>,
    spans: Mutex<Vec<BenchSpan>>,
}

impl Default for Tracer {
    fn default() -> Self {
        let lib_events = Arc::new(Mutex::new(Vec::new()));
        Tracer {
            tele: Telemetry::with_sink(Box::new(VecSink(Arc::clone(&lib_events)))),
            lib_events,
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn record(&self, span: BenchSpan) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Total duration in microseconds of the library's `category/name`
    /// slices that started inside `[from, to)`.
    pub fn lib_us(&self, category: &str, name: &str, from: u64, to: u64) -> u64 {
        self.lib_events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|e| e.category == category && e.name == name && (from..to).contains(&e.ts))
            .filter_map(|e| e.dur)
            .sum()
    }

    /// Writes the benchmark spans and the library's events as one Chrome
    /// `trace_event` file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        writeln!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID_BENCH},\"tid\":0,\"args\":{{\"name\":\"winobench\"}}}},"
        )?;
        for s in self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            let req = s.req.map_or_else(|| "null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{PID_BENCH},\"tid\":{},\"args\":{{\"req\":{req},\"parent\":\"{}\"}}}},",
                esc(s.name),
                s.ts,
                s.dur,
                s.tid,
                esc(s.parent)
            )?;
        }
        for e in self
            .lib_events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            writeln!(out, "{},", e.to_json())?;
        }
        // A closing metadata record keeps every line above comma-terminated.
        writeln!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID_BENCH},\"tid\":0,\"args\":{{\"name\":\"main\"}}}}"
        )?;
        writeln!(out, "],\"displayTimeUnit\":\"ms\"}}")?;
        out.flush()
    }
}

/// Where a timed call sits in the trace: its lane, its request (if it
/// serves one) and the span that caused it.
#[derive(Clone, Copy)]
pub struct At {
    pub tid: u64,
    pub req: Option<u64>,
    pub parent: &'static str,
}

/// The main thread's lane, outside any request.
pub const MAIN: At = At {
    tid: 0,
    req: None,
    parent: "run",
};

/// Runs `f`; when tracing, records it as span `name` at `at`.
pub fn span<T>(tracer: Option<&Tracer>, name: &'static str, at: At, f: impl FnOnce() -> T) -> T {
    let Some(tr) = tracer else {
        return f();
    };
    let ts = tr.tele.now_us();
    let out = f();
    tr.record(BenchSpan {
        name,
        parent: at.parent,
        tid: at.tid,
        req: at.req,
        ts,
        dur: tr.tele.now_us().saturating_sub(ts),
    });
    out
}

/// The telemetry accumulated between two snapshots: `after − before` for
/// every counter, and for every histogram's count and sum (the exact
/// parts of a histogram; its buckets are not used).
pub struct Delta {
    pub before: RunTelemetry,
    pub after: RunTelemetry,
}

impl Delta {
    /// Counter increase over the window.
    pub fn counter(&self, name: &str) -> f64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name)) as f64
    }

    /// `(count, sum)` of a histogram's samples recorded in the window.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        let get = |t: &RunTelemetry| t.histograms.get(name).map_or((0, 0), |h| (h.count, h.sum));
        let (c0, s0) = get(&self.before);
        let (c1, s1) = get(&self.after);
        (c1.saturating_sub(c0) as f64, s1.saturating_sub(s0) as f64)
    }

    /// Exact mean of a histogram's samples recorded in the window.
    pub fn hist_mean(&self, name: &str) -> f64 {
        let (count, sum) = self.hist(name);
        crate::stats::ratio(sum, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winofuse::telemetry::json::{parse, JsonValue};

    #[test]
    fn chrome_trace_holds_bench_spans_and_library_events() {
        let tr = Tracer::default();
        let at = At {
            tid: 2,
            req: Some(7),
            parent: "request",
        };
        let v = span(Some(&tr), "ServeEngine::submit", at, || {
            drop(tr.tele.span("exec", "conv1"));
            41 + 1
        });
        assert_eq!(v, 42);
        assert_eq!(span(None, "untraced", MAIN, || 5), 5);
        let path = std::env::temp_dir().join(format!("winobench-test-{}.json", std::process::id()));
        tr.write_chrome(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let doc = parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        let named = |n: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(JsonValue::as_str) == Some(n))
                .unwrap_or_else(|| panic!("no event {n}"))
        };
        let submit = named("ServeEngine::submit");
        assert_eq!(submit.get("tid").and_then(JsonValue::as_u64), Some(2));
        let args = submit.get("args").unwrap();
        assert_eq!(args.get("req").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(
            args.get("parent").and_then(JsonValue::as_str),
            Some("request")
        );
        assert_eq!(
            named("conv1").get("cat").and_then(JsonValue::as_str),
            Some("exec")
        );
        assert!(events
            .iter()
            .all(|e| e.get("name").and_then(JsonValue::as_str) != Some("untraced")));
    }

    #[test]
    fn delta_and_span_sums_cover_only_their_window() {
        let tr = Tracer::default();
        tr.tele.add("c", 3);
        tr.tele.histogram("h").record(10);
        drop(tr.tele.span("dp", "optimize"));
        let (from, before) = (tr.tele.now_us(), tr.tele.summary());
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.tele.add("c", 4);
        tr.tele.histogram("h").record(20);
        tr.tele.histogram("h").record(40);
        {
            let _s = tr.tele.span("dp", "optimize");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let d = Delta {
            before,
            after: tr.tele.summary(),
        };
        assert_eq!(d.counter("c"), 4.0);
        assert_eq!(d.counter("never"), 0.0);
        assert_eq!(d.hist("h"), (2.0, 60.0));
        assert_eq!(d.hist_mean("h"), 30.0);
        let inside = tr.lib_us("dp", "optimize", from, tr.tele.now_us() + 1);
        assert!(inside >= 2_000, "window span is {inside} us");
        assert_eq!(tr.lib_us("dp", "optimize", 0, 0), 0);
    }
}
