//! **Search benchmark** — wall-clock speedup of the multi-threaded plan
//! table over the serial strategy search ("returns the optimal solutions
//! within seconds", §7.1, now at any core count).
//!
//! Times `Framework::optimize` at 1 thread and at `--threads N` on the
//! two hardest zoo configurations (the VGG-E body under the paper's
//! 8-layer cap, and the Table-2 AlexNet body fully fused), reports the
//! median of `--runs` repetitions, cross-checks that every optimization
//! at either thread count reaches the same design latency, plan count
//! and dominated-entry count, and writes `BENCH_search.json` to the
//! current directory for CI to archive. Those exact fields are per
//! optimization, so they do not depend on `--runs`.
//!
//! ```text
//! exp_bench_search [--smoke] [--runs N] [--threads N]
//!   --smoke      one run per configuration (CI sanity mode)
//!   --runs N     repetitions per configuration  [default 5]
//!   --threads N  parallel worker count          [default 4]
//! ```

use winofuse_bench::{banner, fmt_cycles, BenchCase, BenchReport, LatencySamples};
use winofuse_core::framework::Framework;
use winofuse_fpga::device::FpgaDevice;
use winofuse_model::network::Network;
use winofuse_model::shape::DataType;
use winofuse_model::zoo;
use winofuse_telemetry::RunTelemetry;

const MB: u64 = 1024 * 1024;

struct Case {
    name: &'static str,
    net: Network,
    budget: u64,
    max_group_layers: usize,
}

struct Measurement {
    median_serial_ms: f64,
    median_parallel_ms: f64,
    exact: Exact,
}

/// The deterministic outputs of one optimization, compared exactly by
/// `bench_diff`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Exact {
    latency_cycles: u64,
    plans_computed: u64,
    menu_dominated: u64,
}

impl Exact {
    fn of(design_latency: u64, run: &RunTelemetry) -> Self {
        Exact {
            latency_cycles: design_latency,
            plans_computed: run.counter("bnb.plans_computed"),
            menu_dominated: run.counter("bnb.menu_dominated"),
        }
    }
}

fn cases() -> Vec<Case> {
    let vgg = zoo::vgg_e().conv_body().expect("vgg-e has a conv body");
    let alex = zoo::alexnet().conv_body().expect("alexnet has a conv body");
    let alex_budget = alex
        .fused_transfer_bytes(0..alex.len(), DataType::Fixed16)
        .expect("alexnet fuses");
    vec![
        Case {
            name: "vgg_e",
            net: vgg,
            budget: 8 * MB,
            max_group_layers: winofuse_core::MAX_FUSION_LAYERS,
        },
        Case {
            name: "alexnet",
            net: alex,
            budget: alex_budget,
            max_group_layers: 10,
        },
    ]
}

/// Median of `runs` timed optimizations at `threads` workers. Returns
/// the median milliseconds and the exact fields, which every run must
/// reproduce.
fn measure(case: &Case, threads: usize, runs: usize) -> (f64, Exact) {
    let fw = Framework::new(FpgaDevice::zc706())
        .with_max_group_layers(case.max_group_layers)
        .with_threads(threads);
    let samples = LatencySamples::new();
    let mut exact = None;
    for _ in 0..runs {
        let (design, run) = samples.time(|| {
            fw.optimize_traced(&case.net, case.budget)
                .expect("benchmark configurations are feasible")
        });
        let this = Exact::of(design.timing.latency, &run);
        assert_eq!(
            *exact.get_or_insert(this),
            this,
            "{}: repeated optimizations disagree",
            case.name
        );
    }
    (samples.median_ms(), exact.expect("at least one run"))
}

fn run_case(case: &Case, threads: usize, runs: usize) -> Measurement {
    let (serial_ms, exact) = measure(case, 1, runs);
    let (parallel_ms, parallel_exact) = measure(case, threads, runs);
    assert_eq!(
        exact, parallel_exact,
        "{}: thread counts disagree on the optimum",
        case.name
    );
    println!(
        "{:<10} serial {serial_ms:9.1} ms | {threads} threads {parallel_ms:9.1} ms | \
         speedup {:.2}x | latency {} cycles",
        case.name,
        serial_ms / parallel_ms,
        fmt_cycles(exact.latency_cycles),
    );
    Measurement {
        median_serial_ms: serial_ms,
        median_parallel_ms: parallel_ms,
        exact,
    }
}

fn main() {
    let opts = winofuse_bench::parse_bench_args("exp_bench_search", std::env::args().skip(1));
    let (runs, threads) = (opts.runs, opts.threads);

    banner(
        "BENCH search",
        &format!("strategy-search wall clock, 1 vs {threads} threads, median of {runs}"),
        None,
    );

    let mut report = BenchReport::new("search", &opts);
    for case in cases() {
        let m = run_case(&case, threads, runs);
        report.case(
            case.name,
            BenchCase::default()
                .float("median_serial_ms", m.median_serial_ms)
                .float("median_parallel_ms", m.median_parallel_ms)
                .float("speedup", m.median_serial_ms / m.median_parallel_ms)
                .int("latency_cycles", m.exact.latency_cycles)
                .int("plans_computed", m.exact.plans_computed)
                .int("menu_dominated", m.exact.menu_dominated),
        );
    }
    let path = report.write().expect("write BENCH_search.json");
    println!("wrote {}", path.display());
}
