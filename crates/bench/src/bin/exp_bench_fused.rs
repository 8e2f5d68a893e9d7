//! **Fused-execution benchmark** — whole-network throughput of the
//! plan-faithful fused runner against the layer-by-layer executor.
//!
//! For each network the strategy framework optimizes under the paper's
//! transfer budget, then one frame streams through the resulting fusion
//! groups (fast kernels, line-buffer windows, weights streamed once) and
//! one frame runs through `NetworkExecutor`. Outputs are cross-checked,
//! per-group measured DRAM traffic must reconcile exactly with the DP's
//! analytic budget, and the medians land in `BENCH_fused.json` for CI to
//! archive.
//!
//! ```text
//! exp_bench_fused [--smoke] [--runs N] [--threads N]
//!   --smoke      one run per configuration (CI sanity mode)
//!   --runs N     repetitions per network        [default 5]
//!   --threads N  parallel worker count          [default 4]
//! ```

use winofuse::runtime::faults::FaultMode;
use winofuse_bench::{banner, BenchCase, BenchReport, LatencySamples};
use winofuse_conv::tensor::random_tensor;
use winofuse_core::framework::Framework;
use winofuse_fpga::device::FpgaDevice;
use winofuse_model::network::Network;
use winofuse_model::runtime::{ExecAlgo, NetworkExecutor, NetworkWeights};
use winofuse_model::zoo;

struct Case {
    name: &'static str,
    net: Network,
    /// Feature-map transfer budget handed to the optimizer.
    budget_bytes: u64,
    /// Group-size cap (§7.3 fuses AlexNet's whole 10-layer body).
    max_group: usize,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "alexnet_body",
            net: zoo::alexnet().conv_body().expect("alexnet body"),
            // §7.3: 340 KB fuses the whole body into one group.
            budget_bytes: 340 * 1024,
            max_group: 10,
        },
        Case {
            name: "vgg_e_prefix",
            net: zoo::vgg_e_fused_prefix(),
            budget_bytes: 2 * 1024 * 1024,
            max_group: 8,
        },
    ]
}

/// Runs `f` once to warm caches, then `runs` timed repetitions; returns
/// the median milliseconds via the shared histogram recorder.
fn median_ms<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let samples = LatencySamples::new();
    f();
    for _ in 0..runs {
        samples.time(&mut f);
    }
    samples.median_ms()
}

struct Measurement {
    fused_ms: f64,
    executor_ms: f64,
    groups: usize,
    dram_bytes: u64,
}

fn run_case(case: &Case, threads: usize, runs: usize) -> Measurement {
    let net = &case.net;
    let fw = Framework::new(FpgaDevice::zc706())
        .with_max_group_layers(case.max_group)
        .with_threads(threads);
    let design = fw.optimize(net, case.budget_bytes).expect("optimize");
    let weights = NetworkWeights::random(net, 11).expect("weights");
    let shape = net.input_shape();
    let x = random_tensor(1, shape.channels, shape.height, shape.width, 13);

    let runner = fw
        .fused_runner(net, &design, &weights)
        .expect("fused runner")
        .with_fault_mode(FaultMode::Strict);
    let exec = NetworkExecutor::with_algo(net, &weights, ExecAlgo::Auto)
        .expect("executor")
        .with_threads(threads);

    // Strict mode makes every timed frame a reconciliation check too.
    let mut fused_out = None;
    let fused_ms = median_ms(runs, || {
        fused_out = Some(runner.run(&x).expect("fused run"));
    });
    let mut exec_out = None;
    let executor_ms = median_ms(runs, || {
        exec_out = Some(exec.run(&x).expect("executor run"));
    });
    let report = fused_out.expect("at least one fused frame");
    let reference = exec_out.expect("at least one executor frame");

    let err = report
        .output
        .max_abs_diff(&reference)
        .expect("comparable outputs");
    assert!(
        err <= 1e-3,
        "{}: fused output diverged from the executor by {err}",
        case.name
    );
    assert_eq!(
        report.max_dram_delta(),
        0,
        "{}: measured DRAM traffic does not reconcile with the DP budget",
        case.name
    );

    Measurement {
        fused_ms,
        executor_ms,
        groups: report.groups.len(),
        dram_bytes: report.measured_dram_bytes(),
    }
}

fn main() {
    let opts = winofuse_bench::parse_bench_args("exp_bench_fused", std::env::args().skip(1));
    let (runs, threads) = (opts.runs, opts.threads);

    banner(
        "BENCH fused",
        &format!(
            "plan-faithful fused runner vs layer-by-layer executor, {threads} threads, median of {runs}"
        ),
        None,
    );

    let mut report = BenchReport::new("fused", &opts);
    for case in cases() {
        let m = run_case(&case, threads, runs);
        println!(
            "{:<16} fused {:8.1} ms | executor {:8.1} ms ({:4.2}x) | {} group(s), {:.2} MiB DRAM, reconciled ✓",
            case.name,
            m.fused_ms,
            m.executor_ms,
            m.executor_ms / m.fused_ms,
            m.groups,
            m.dram_bytes as f64 / (1024.0 * 1024.0),
        );
        report.case(
            case.name,
            BenchCase::default()
                .float("median_fused_ms", m.fused_ms)
                .float("median_executor_ms", m.executor_ms)
                .float("speedup_vs_executor", m.executor_ms / m.fused_ms)
                .int("groups", m.groups as u64)
                .int("dram_bytes", m.dram_bytes)
                .flag("dram_reconciled", true),
        );
    }
    let path = report.write().expect("write BENCH_fused.json");
    println!("wrote {}", path.display());
}
