//! Per-layer metrics of the traced run, named after the crates they
//! measure: `core`, `setup`, `serve` (the facade's engine), `runtime`
//! (pool), `model` (executor), `conv`, `fusion`, and the host roofline.
//!
//! `core`, `setup`, `serve` and `runtime.pool` come from the workload's
//! own path. `model`, `conv` and `fusion` come from fixed probes that
//! every traced run takes the same way (AlexNet's conv body at batch 2,
//! the VGG-E prefix at batch 1, its fused group at 2 MB), so a change to
//! one of those layers shows on the traced run of every workload.

use std::collections::BTreeMap;
use std::time::Instant;

use winofuse::conv::gemm::ConvProfile;
use winofuse::conv::tensor::Tensor;
use winofuse::core::framework::Framework;
use winofuse::fpga::device::FpgaDevice;
use winofuse::model::network::Network;
use winofuse::model::runtime::{ExecAlgo, NetworkExecutor, NetworkWeights, PreparedNetwork};
use winofuse::model::zoo;
use winofuse::runtime::faults::FaultMode;

use crate::host::Roofline;
use crate::report::{metric, Metric, Phase, Tally};
use crate::serve::{seeded_frames, Served, ALEXNET_WEIGHT_SEED, VGG_WEIGHT_SEED};
use crate::stats::{median, ratio};
use crate::trace::{span, Delta, Tracer, MAIN};
use crate::THREADS;

/// Repetitions of each probe; per-layer times are their medians.
const PROBE_REPS: usize = 3;

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// `core.*`: strategy-search counters over a window holding `passes`
/// identical searches, reported per pass, plus the plan-table prefill and
/// DP times from the library's own spans.
pub fn core(d: &Delta, tr: &Tracer, window: (u64, u64), passes: usize) -> Vec<Metric> {
    let per = |v: f64| v / passes as f64;
    let expanded = d.counter("bnb.nodes_expanded");
    let pruned = d.counter("bnb.pruned_bound")
        + d.counter("bnb.pruned_resource")
        + d.counter("bnb.pruned_floor");
    let plans = d.counter("bnb.plans_computed");
    let plan_hits = d.counter("bnb.plan_cache_hits");
    let cells = d.counter("dp.subproblems");
    let cell_hits = d.counter("dp.cache_hits");
    let (from, to) = window;
    vec![
        metric(
            "core.plan_table_ms",
            per(tr.lib_us("parallel", "plan_table", from, to) as f64 / 1e3),
            "ms",
        ),
        metric(
            "core.dp_ms",
            per(tr.lib_us("dp", "optimize", from, to) as f64 / 1e3),
            "ms",
        ),
        metric("core.bnb.nodes_expanded", per(expanded), "count"),
        metric(
            "core.bnb.leaves_evaluated",
            per(d.counter("bnb.leaves_evaluated")),
            "count",
        ),
        metric("core.bnb.pruned", per(pruned), "count"),
        metric(
            "core.bnb.prune_ratio",
            ratio(pruned, pruned + expanded),
            "ratio",
        ),
        metric("core.bnb.plans_computed", per(plans), "count"),
        metric(
            "core.bnb.plan_cache_hit_ratio",
            ratio(plan_hits, plan_hits + plans),
            "ratio",
        ),
        metric("core.dp.subproblems", per(cells), "count"),
        metric(
            "core.dp.cache_hit_ratio",
            ratio(cell_hits, cell_hits + cells),
            "ratio",
        ),
    ]
}

/// `setup.*`: the served configuration's cold start split into its
/// public calls, each timed on its own.
pub fn setup(served: &Served, tr: &Tracer) -> Vec<Metric> {
    let fw = served.framework(tr.tele.clone());
    let t0 = Instant::now();
    let design = span(Some(tr), "Framework::optimize", MAIN, || {
        fw.optimize(&served.net, served.cfg.budget_bytes)
    })
    .expect("served configuration is feasible");
    let optimize_ms = ms_since(t0);
    let t0 = Instant::now();
    span(Some(tr), "Framework::fused_runner", MAIN, || {
        fw.fused_runner(&served.net, &design, &served.weights)
    })
    .expect("fused runner lowers");
    let runner_ms = ms_since(t0);
    let t0 = Instant::now();
    span(Some(tr), "PreparedNetwork::new", MAIN, || {
        PreparedNetwork::new(&served.net, &served.weights, ExecAlgo::Auto)
    })
    .expect("filter banks prepare");
    let prepare_ms = ms_since(t0);
    vec![
        metric("setup.optimize_ms", optimize_ms, "ms"),
        metric("setup.fused_runner_ms", runner_ms, "ms"),
        metric("setup.prepare_ms", prepare_ms, "ms"),
    ]
}

/// `serve.*` and `runtime.pool.*` over one traced closed-loop phase:
/// exact means (histogram sum over count) of the engine's telemetry, and
/// the part of client latency outside queue wait and batch execution.
pub fn serving(d: &Delta, phase: &Phase) -> Vec<Metric> {
    let frames = phase.latencies_ms.len() as f64;
    let queue_ms = d.hist_mean("serve.queue_wait_us") / 1e3;
    let exec_ms = d.hist_mean("serve.batch_exec_us") / 1e3;
    let client_ms = crate::stats::mean(&phase.latencies_ms);
    let hits = d.counter("serve.plan_hits");
    let busy_ns = d.hist("pool.worker_busy_ns").1;
    vec![
        metric("serve.queue_wait_mean_ms", queue_ms, "ms"),
        metric("serve.batch_exec_mean_ms", exec_ms, "ms"),
        metric(
            "serve.batch_size_mean",
            d.hist_mean("serve.batch_size"),
            "frames",
        ),
        metric(
            "serve.plan_hit_ratio",
            ratio(hits, hits + d.counter("serve.plan_misses")),
            "ratio",
        ),
        metric("serve.outside_ms", client_ms - queue_ms - exec_ms, "ms"),
        metric(
            "runtime.pool.runs_per_frame",
            ratio(d.counter("pool.runs"), frames),
            "count",
        ),
        metric(
            "runtime.pool.jobs_per_frame",
            ratio(d.counter("pool.jobs"), frames),
            "count",
        ),
        metric(
            "runtime.pool.busy_ratio",
            ratio(busy_ns, busy_ns + d.counter("pool.idle_ns")),
            "ratio",
        ),
        metric(
            "runtime.pool.job_wait_mean_us",
            d.hist_mean("pool.job_wait_us"),
            "us",
        ),
    ]
}

/// A probe network with fixed weights and a seeded input batch.
struct Probe {
    label: &'static str,
    net: Network,
    weights: NetworkWeights,
    input: Tensor<f32>,
}

fn probes(seed: u64) -> [Probe; 2] {
    let alex = zoo::alexnet().conv_body().expect("alexnet has a conv body");
    let vgg = zoo::vgg_e_fused_prefix();
    let batch = |net: &Network, n: usize| {
        Tensor::concat_frames(&seeded_frames(net, seed, n)).expect("frames share a shape")
    };
    [
        Probe {
            label: "alexnet",
            weights: NetworkWeights::random(&alex, ALEXNET_WEIGHT_SEED).expect("alexnet weights"),
            input: batch(&alex, 2),
            net: alex,
        },
        Probe {
            label: "vgg_prefix",
            weights: NetworkWeights::random(&vgg, VGG_WEIGHT_SEED).expect("vgg prefix weights"),
            input: batch(&vgg, 1),
            net: vgg,
        },
    ]
}

/// Conv-kernel profile summed over the layers of one algorithm.
#[derive(Default)]
struct AlgoSum {
    profile: ConvProfile,
    wall_ns: u64,
}

impl AlgoSum {
    fn add(&mut self, p: &ConvProfile, wall_ns: u64) {
        let s = &mut self.profile;
        s.gemm_calls += p.gemm_calls;
        s.tiles += p.tiles;
        s.bytes_packed += p.bytes_packed;
        s.flops_scatter += p.flops_scatter;
        s.flops_gemm += p.flops_gemm;
        s.flops_gather += p.flops_gather;
        s.bytes_scatter += p.bytes_scatter;
        s.bytes_gemm += p.bytes_gemm;
        s.bytes_gather += p.bytes_gather;
        s.scatter_ns += p.scatter_ns;
        s.gemm_ns += p.gemm_ns;
        s.gather_ns += p.gather_ns;
        s.pack_ns += p.pack_ns;
        s.kernel_ns += p.kernel_ns;
        self.wall_ns += wall_ns;
    }

    fn gflops(&self) -> f64 {
        ratio(self.profile.total_flops() as f64, self.wall_ns as f64)
    }

    fn roof_pct(&self, roof: &Roofline) -> f64 {
        let attainable = roof.attainable_gflops(self.profile.arithmetic_intensity());
        100.0 * ratio(self.gflops(), attainable)
    }
}

/// `model.*` and `conv.*`: `NetworkExecutor::run_profiled` per layer on
/// both probes, `run` against the sum of its layers on AlexNet, and the
/// kernel phases summed by algorithm over one pass of both probes.
pub fn model_and_conv(tr: &Tracer, roof: &Roofline, seed: u64, tally: &mut Tally) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut wino = AlgoSum::default();
    let mut direct = AlgoSum::default();
    let mut overhead_ms = Vec::new();
    for probe in probes(seed) {
        let exec = NetworkExecutor::with_algo(&probe.net, &probe.weights, ExecAlgo::Auto)
            .expect("executor prepares")
            .with_threads(THREADS)
            .with_telemetry(tr.tele.clone());
        let mut layer_ms: BTreeMap<usize, (String, Vec<f64>)> = BTreeMap::new();
        for _ in 0..PROBE_REPS {
            let t0 = Instant::now();
            let plain = span(Some(tr), "NetworkExecutor::run", MAIN, || {
                exec.run(&probe.input)
            });
            let run_ms = ms_since(t0);
            let profiled = span(Some(tr), "NetworkExecutor::run_profiled", MAIN, || {
                exec.run_profiled(&probe.input)
            });
            let (Ok(plain), Ok((y, profiles))) = (plain, profiled) else {
                tally.check(false);
                continue;
            };
            tally.check(plain.as_slice() == y.as_slice());
            let mut sum_ms = 0.0;
            for (i, p) in profiles.iter().enumerate() {
                let ms = p.wall_ns as f64 / 1e6;
                sum_ms += ms;
                layer_ms
                    .entry(i)
                    .or_insert_with(|| (p.name.clone(), Vec::new()))
                    .1
                    .push(ms);
                match p.algo {
                    "winograd" => wino.add(&p.conv, p.wall_ns),
                    "direct" => direct.add(&p.conv, p.wall_ns),
                    _ => {}
                }
            }
            if probe.label == "alexnet" {
                overhead_ms.push(run_ms - sum_ms);
            }
        }
        for (name, ms) in layer_ms.values() {
            out.push(metric(
                format!("model.{}.{name}_ms", probe.label),
                median(ms),
                "ms",
            ));
        }
    }
    out.push(metric("model.exec_overhead_ms", median(&overhead_ms), "ms"));

    let reps = PROBE_REPS as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / reps;
    let (w, d) = (&wino.profile, &direct.profile);
    out.extend([
        metric("conv.winograd.scatter_ms", ms(w.scatter_ns), "ms"),
        metric("conv.winograd.gemm_ms", ms(w.gemm_ns), "ms"),
        metric("conv.winograd.gather_ms", ms(w.gather_ns), "ms"),
        metric("conv.direct.im2col_ms", ms(d.scatter_ns), "ms"),
        metric("conv.direct.gemm_ms", ms(d.gemm_ns), "ms"),
        metric("conv.pack_ms", ms(w.pack_ns + d.pack_ns), "ms"),
        metric("conv.microkernel_ms", ms(w.kernel_ns + d.kernel_ns), "ms"),
        metric("conv.winograd.gflops", wino.gflops(), "GFLOP/s"),
        metric("conv.direct.gflops", direct.gflops(), "GFLOP/s"),
        metric("conv.winograd.roof_pct", wino.roof_pct(roof), "%"),
        metric("conv.direct.roof_pct", direct.roof_pct(roof), "%"),
        metric(
            "conv.gemm_calls",
            (w.gemm_calls + d.gemm_calls) as f64 / reps,
            "count",
        ),
        metric("conv.tiles", (w.tiles + d.tiles) as f64 / reps, "count"),
        metric(
            "conv.bytes_packed",
            (w.bytes_packed + d.bytes_packed) as f64 / reps,
            "bytes",
        ),
    ]);
    out
}

/// `fusion.*`: the VGG-E prefix's fused group at 2 MB in strict mode
/// against the executor on the same frame.
pub fn fusion(tr: &Tracer, seed: u64, tally: &mut Tally) -> Vec<Metric> {
    let [_, probe] = probes(seed);
    let fw = Framework::new(FpgaDevice::zc706())
        .with_threads(THREADS)
        .with_fault_mode(FaultMode::Strict)
        .with_telemetry(tr.tele.clone());
    let design = span(Some(tr), "Framework::optimize", MAIN, || {
        fw.optimize(&probe.net, 2 * 1024 * 1024)
    })
    .expect("vgg prefix fits 2 MB");
    let runner = span(Some(tr), "Framework::fused_runner", MAIN, || {
        fw.fused_runner(&probe.net, &design, &probe.weights)
    })
    .expect("fused runner lowers");
    let exec = NetworkExecutor::with_algo(&probe.net, &probe.weights, ExecAlgo::Auto)
        .expect("executor prepares")
        .with_threads(THREADS)
        .with_telemetry(tr.tele.clone());
    let (mut fused_ms, mut group_ms, mut exec_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut dram_bytes, mut dram_delta, mut fallbacks) = (0u64, 0u64, 0usize);
    for _ in 0..PROBE_REPS {
        let t0 = Instant::now();
        let report = span(Some(tr), "FusedNetworkRunner::run", MAIN, || {
            runner.run(&probe.input)
        });
        fused_ms.push(ms_since(t0));
        let t0 = Instant::now();
        let group = span(Some(tr), "FusedGroupRunner::run", MAIN, || {
            runner.groups()[0].run(&probe.input)
        });
        group_ms.push(ms_since(t0));
        let t0 = Instant::now();
        let reference = span(Some(tr), "NetworkExecutor::run", MAIN, || {
            exec.run(&probe.input)
        });
        exec_ms.push(ms_since(t0));
        let (Ok(report), Ok(reference)) = (report, reference) else {
            tally.check(false);
            continue;
        };
        dram_bytes = report.measured_dram_bytes();
        dram_delta = dram_delta.max(report.max_dram_delta());
        fallbacks += report.fallbacks.len();
        tally.check(
            report
                .output
                .max_abs_diff(&reference)
                .is_ok_and(|d| d <= 1e-3)
                && report.max_dram_delta() == 0
                && dram_bytes == report.analytic_dram_bytes()
                && report.fallbacks.is_empty(),
        );
        tally.check(group.is_ok_and(|g| g.dram.delta() == 0 && g.fallback.is_none()));
    }
    vec![
        metric("fusion.group0_ms", median(&group_ms), "ms"),
        metric(
            "fusion.speedup_vs_executor",
            median(&exec_ms) / median(&fused_ms),
            "x",
        ),
        metric("fusion.dram_bytes_per_frame", dram_bytes as f64, "bytes"),
        metric("fusion.dram_delta", dram_delta as f64, "bytes"),
        metric("fusion.fallbacks", fallbacks as f64, "count"),
    ]
}

/// `host.*`: this host's roofline.
pub fn host(roof: &Roofline) -> Vec<Metric> {
    vec![
        metric("host.gemm_peak_gflops", roof.gemm_peak_gflops, "GFLOP/s"),
        metric("host.copy_gbps", roof.copy_gbps, "GB/s"),
    ]
}
