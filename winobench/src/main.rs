//! `winobench` — the end-to-end benchmark of winofuse.
//!
//! ```text
//! winobench --workload <plan_search|serve_alexnet|fused_vgg_prefix>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run it from the repository root:
//! `cargo run --release --manifest-path winobench/Cargo.toml -- --workload serve_alexnet`.
//!
//! Each workload drives winofuse only through its public API, in its own
//! process, with every thread count pinned to [`THREADS`]. The seed
//! generates the request frames; weights use fixed seeds. An untraced run
//! (`--trace 0`) measures the end-to-end metrics with telemetry off; a
//! traced run (`--trace 1`) reports the per-layer metrics and writes a
//! Chrome trace to `.winobench/`. Every timed operation is verified, and
//! the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `winobench/METRICS.md` defines every metric and the end-to-end metric
//! each per-layer metric is expected to move.

mod host;
mod layers;
mod report;
mod search;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use winofuse::conv::microkernel::active_kernel_name;
use winofuse::telemetry::Telemetry;
use winofuse::ServeEngine;

use report::{metric, result_line, Metric, Phase, Tally};
use serve::Served;
use stats::{median, percentile};
use trace::{span, Delta, Tracer, MAIN};

/// Worker threads of every search, executor, runner and calibration: two,
/// pinned, never "auto", so the figures do not depend on the host's size.
pub const THREADS: usize = 2;

/// A run repeats its cold start at least `SETUP_REPS` times and, up to
/// `SETUP_MAX_REPS`, for at least `SETUP_MIN`; `setup_s` is the median.
const SETUP_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 1000;
const SETUP_MIN: Duration = Duration::from_secs(2);
/// Untimed closed-loop requests before a timed phase, so caches fill.
const WARMUP: Duration = Duration::from_millis(1000);
/// Length of the serve session `plan_search`'s traced run adds for the
/// `serve.*` and `runtime.pool.*` metrics it does not exercise itself.
const SERVE_PROBE: Duration = Duration::from_millis(2000);

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    PlanSearch,
    ServeAlexnet,
    FusedVggPrefix,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("plan_search", Workload::PlanSearch),
        ("serve_alexnet", Workload::ServeAlexnet),
        ("fused_vgg_prefix", Workload::FusedVggPrefix),
    ];

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: winobench --workload <plan_search|serve_alexnet|fused_vgg_prefix> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(n, _)| *n == value)
                        .map(|(_, w)| *w)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("winobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# winobench workload={} seed={} seconds={} trace={} threads={THREADS} cpus={} kernel={} git={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::cpus(),
        active_kernel_name(),
        host::git_sha(),
    );
    let (tally, metrics) = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("{}", result_line(tally, &metrics));
    ExitCode::SUCCESS
}

/// The gated end-to-end metrics, shared by every workload.
///
/// Besides set-up time they are costs, not wall-clock rates: on a shared
/// host whose hypervisor steals CPU time in bursts, a run's wall latency
/// and throughput swing by up to a quarter, while the CPU time an
/// operation costs moves less.
fn end_to_end(setup_s: &[f64], timed: &Phase) -> Vec<Metric> {
    vec![
        metric("setup_s", median(setup_s), "s"),
        metric("cpu_ms_per_op", timed.cpu_ms_per_op(), "ms"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ]
}

/// The wall-clock view of a phase: operations per second and the exact
/// median and 90th-percentile latency of one operation.
fn wall(phase: &Phase) -> Vec<Metric> {
    vec![
        metric("wall.ops_per_s", phase.ops_per_s(), "1/s"),
        metric("wall.op_p50_ms", percentile(&phase.latencies_ms, 50), "ms"),
        metric("wall.op_p90_ms", percentile(&phase.latencies_ms, 90), "ms"),
    ]
}

/// Repeats a cold start `SETUP_REPS` times, then on while `SETUP_MIN` of
/// wall time has not passed and fewer than `SETUP_MAX_REPS` are done.
fn repeat_setup(mut once: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < SETUP_REPS || (start.elapsed() < SETUP_MIN && secs.len() < SETUP_MAX_REPS) {
        secs.push(once());
    }
    secs
}

fn served(workload: Workload, seed: u64) -> Served {
    match workload {
        Workload::FusedVggPrefix => Served::vgg_prefix(seed),
        _ => Served::alexnet(seed),
    }
}

fn untraced(args: &Args) -> (Tally, Vec<Metric>) {
    let run_for = Duration::from_secs_f64(args.seconds);
    let (setups, timed, mut tally) = if args.workload == Workload::PlanSearch {
        let setups = repeat_setup(|| {
            let t0 = Instant::now();
            std::hint::black_box(search::cases());
            t0.elapsed().as_secs_f64()
        });
        let timed = search::passes(&search::cases(), run_for, None);
        (setups, timed, Tally::default())
    } else {
        let served = served(args.workload, args.seed);
        let mut engine: Option<ServeEngine> = None;
        let setups = repeat_setup(|| {
            if let Some(e) = engine.take() {
                e.shutdown().expect("engine shuts down");
            }
            let (e, secs) = served.start(Telemetry::disabled(), None);
            engine = Some(e);
            secs
        });
        let engine = engine.expect("at least one set-up");
        let warmup = served.closed_loop(&engine, WARMUP, None);
        let timed = served.closed_loop(&engine, run_for, None);
        engine.shutdown().expect("engine shuts down");
        (setups, timed, warmup.tally)
    };
    tally.absorb(timed.tally);
    let info: Vec<String> = wall(&timed)
        .iter()
        .map(|m| format!("{}={:.3}", m.name, m.value))
        .collect();
    println!(
        "# {} ops in {:.1} s (not gated): {}",
        timed.latencies_ms.len(),
        timed.elapsed_s,
        info.join(" ")
    );
    (tally, end_to_end(&setups, &timed))
}

/// 100 × (traced median / untraced median − 1).
fn overhead_pct(untraced: &Phase, traced: &Phase) -> f64 {
    100.0 * (median(&traced.latencies_ms) / median(&untraced.latencies_ms) - 1.0)
}

/// The telemetry recorded while `f` runs, and `f`'s result.
fn window<T>(tr: &Tracer, f: impl FnOnce() -> T) -> (T, Delta, (u64, u64)) {
    let (from, before) = (tr.tele.now_us(), tr.tele.summary());
    let out = f();
    let delta = Delta {
        before,
        after: tr.tele.summary(),
    };
    (out, delta, (from, tr.tele.now_us()))
}

fn traced(args: &Args) -> (Tally, Vec<Metric>) {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let tr = Tracer::default();
    let mut tally = Tally::default();
    let roof = span(Some(&tr), "host::calibrate", MAIN, || {
        host::calibrate(THREADS)
    });
    let mut metrics = layers::host(&roof);

    // The workload's own path: the same loop untraced, then traced.
    let (plain, traced, core, setup, serving) = if args.workload == Workload::PlanSearch {
        let cases = search::cases();
        let plain = search::passes(&cases, half, None);
        let (traced, delta, span_window) = window(&tr, || search::passes(&cases, half, Some(&tr)));
        let core = layers::core(&delta, &tr, span_window, traced.latencies_ms.len());
        // The search serves nothing: `setup`, `serve` and `runtime.pool`
        // come from a short session of the AlexNet serving configuration.
        let served = Served::alexnet(args.seed);
        let setup = layers::setup(&served, &tr);
        let (engine, _) = served.start(tr.tele.clone(), Some(&tr));
        let (session, delta, _) =
            window(&tr, || served.closed_loop(&engine, SERVE_PROBE, Some(&tr)));
        engine.shutdown().expect("engine shuts down");
        tally.absorb(session.tally);
        let serving = layers::serving(&delta, &session);
        (plain, traced, core, setup, serving)
    } else {
        let served = served(args.workload, args.seed);
        let (engine, _) = served.start(Telemetry::disabled(), None);
        tally.absorb(served.closed_loop(&engine, WARMUP, None).tally);
        let plain = served.closed_loop(&engine, half, None);
        engine.shutdown().expect("engine shuts down");

        let ((engine, _), delta, span_window) =
            window(&tr, || served.start(tr.tele.clone(), Some(&tr)));
        let core = layers::core(&delta, &tr, span_window, 1);
        let setup = layers::setup(&served, &tr);
        tally.absorb(served.closed_loop(&engine, WARMUP, Some(&tr)).tally);
        let (traced, delta, _) = window(&tr, || served.closed_loop(&engine, half, Some(&tr)));
        engine.shutdown().expect("engine shuts down");
        tally.check(delta.counter("serve.plan_misses") == 0.0);
        let serving = layers::serving(&delta, &traced);
        (plain, traced, core, setup, serving)
    };
    tally.absorb(plain.tally);
    tally.absorb(traced.tally);
    metrics.extend(core);
    metrics.extend(setup);
    metrics.extend(serving);
    metrics.extend(wall(&plain));
    metrics.push(metric(
        "trace.overhead_pct",
        overhead_pct(&plain, &traced),
        "%",
    ));

    // Fixed probes of the layers below the engine.
    metrics.extend(layers::model_and_conv(&tr, &roof, args.seed, &mut tally));
    metrics.extend(layers::fusion(&tr, args.seed, &mut tally));

    let path = PathBuf::from(".winobench").join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    tr.write_chrome(&path).expect("write the Chrome trace");
    println!("# trace written to {}", path.display());
    (tally, metrics)
}
