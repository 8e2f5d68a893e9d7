//! `winofuse` — command-line driver for the whole tool-flow.
//!
//! ```text
//! winofuse info     <model.prototxt>
//! winofuse optimize <model.prototxt> [--budget-mb N] [--device zc706|vx485t]
//!                   [--policy hetero|conv|wino] [--max-group N] [--threads N]
//! winofuse curve    <model.prototxt> [--device ...] [--policy ...]
//! winofuse codegen  <model.prototxt> --out DIR [--budget-mb N] [--testbench]
//! winofuse simulate <model.prototxt> [--budget-mb N] [--seed N]
//! winofuse run      <model.prototxt> [--exec-algo auto|wino|direct]
//!                   [--threads N] [--frames N] [--batch N] [--seed N]
//! winofuse run      <model.prototxt> --fused [--budget-mb N] [--threads N]
//! winofuse profile  <model.prototxt | --network NAME> [--threads N] [--fused]
//!                   [--trace-out PATH] [--profile-json PATH]
//! winofuse serve    <model.prototxt> [--requests N] [--concurrency N]
//!                   [--max-batch N] [--batch-window-ms N] [--queue-depth N]
//!                   [--threads N] [--seed N] [--fused]
//! ```
//!
//! This is the paper's Fig. 3 pipeline as a single executable: Caffe
//! configuration in, strategy / HLS project / simulation report out.

use std::path::PathBuf;
use std::process::ExitCode;

use winofuse::codegen::{check, testbench, HlsProject};
use winofuse::core::bnb::AlgoPolicy;
use winofuse::fpga::engine::{computational_roof_gops, Algorithm};
use winofuse::fpga::roofline::Roofline;
use winofuse::model::runtime::{ExecAlgo, LayerProfile, NetworkExecutor, NetworkWeights};
use winofuse::model::{prototxt, zoo, DataType, LayerKind, Network};
use winofuse::prelude::{FpgaDevice, Framework};
use winofuse::runtime::faults::{install_quiet_panic_hook, FaultInjector, FaultMode};
use winofuse::telemetry::{ChromeTraceSink, JsonLinesSink, Telemetry, TraceSink};
use winofuse::{error::render_chain, ServeConfig, ServeEngine, TaskError};

const MB: u64 = 1024 * 1024;

/// Default kept-coefficient density for `--exec-algo sparse` /
/// `--policy sparse` when `--sparsity` is not given: 25%, the regime the
/// sparse-Winograd literature prunes to after retraining.
const DEFAULT_SPARSITY_PM: u16 = 250;

fn usage() -> ! {
    eprintln!(
        "usage: winofuse <info|optimize|curve|codegen|simulate|run|profile|serve> \
         <model.prototxt> [options]\n\
         options:\n\
           --budget-mb N     feature-map transfer budget in MiB (default 8)\n\
           --budget-kb N     ... or in KiB (overrides --budget-mb)\n\
           --device NAME     zc706 (default), vx485t, zedboard, vc709, ku060\n\
           --policy NAME     hetero (default), conv, wino, or sparse (hetero\n\
                             plus sparse Winograd in the optimizer's menu)\n\
           --max-group N     max layers per fusion group (default 8)\n\
           --threads N       worker threads for the strategy search and the\n\
                             `run` executor; 0 = all cores (default),\n\
                             1 = serial — results are identical\n\
           --out DIR         output directory (codegen)\n\
           --testbench       also emit golden-vector C testbenches (codegen)\n\
           --seed N          synthetic weight/input seed (simulate, run; default 42)\n\
           --frames N        sequential repetitions for amortized timing (optimize,\n\
                             run; default 1)\n\
           --batch N         `run` only: replicate the input into an N-frame batch\n\
                             and execute it through the batched kernels in one\n\
                             invocation (default 1; not valid with --fused)\n\
           --exec-algo NAME  CPU convolution backend for `run`: auto (default),\n\
                             wino (batched Winograd F(4,3)), direct\n\
                             (blocked im2col+GEMM), or sparse (transform-domain\n\
                             pruned Winograd; see --sparsity)\n\
           --sparsity T      sparse density: fraction of transformed\n\
                             coefficients kept, in (0, 1] (default 0.25); only\n\
                             valid with --exec-algo sparse or --policy sparse\n\
           --inject SPEC     deterministic fault injection (run, profile, serve):\n\
                             comma-separated rules `kind@site[#occ]` with kind\n\
                             panic | sat | dram:<±bytes>; site is a\n\
                             literal or prefix `...*` (e.g. pool.conv2/wino.*,\n\
                             exec.conv2, fused.group0, fused.dram0); occ is an\n\
                             occurrence number, `*` (every), or s<seed>\n\
           --fault-mode M    strict (typed error, per-class exit code) or\n\
                             lenient (degrade: winograd->direct rerun, fused\n\
                             group -> unfused; default for run/profile/serve)\n\
           --fused           `run` only: optimize first, then execute the\n\
                             strategy's fusion groups with the fast kernels and\n\
                             reconcile measured DRAM traffic per group against\n\
                             the DP's analytic budget (conv body only)\n\
           --reconfig-cycles N  inter-group reconfiguration cost (default 0)\n\
           --trace-out PATH  write a Chrome trace (load in Perfetto or\n\
                             chrome://tracing); .jsonl streams JSON-lines instead\n\
                             (`profile` defaults to profile.trace.json)\n\
           --telemetry-json PATH  write the run's counter/histogram summary\n\
           --network NAME    `profile` only: use a built-in network instead of a\n\
                             prototxt — alexnet, vgg16, vgg-e, vgg-e-prefix,\n\
                             small, mixed\n\
           --profile-json PATH  `profile` only: machine-readable per-layer\n\
                             attribution (default profile.json)\n\
         serve options (the long-running engine; conv body, plan cached):\n\
           --requests N      total requests the built-in load generator submits\n\
                             (default 32)\n\
           --concurrency N   client threads submitting concurrently (default 4)\n\
           --max-batch N     most frames coalesced per batched invocation\n\
                             (default 8)\n\
           --batch-window-ms N  how long the batcher waits for followers after\n\
                             the first request of a batch (default 2)\n\
           --queue-depth N   admission-control queue capacity; pushes beyond it\n\
                             are rejected with exit-code-9 errors (default 64)\n\
           --fused           serve batches on the fused-group runner instead of\n\
                             the batched layer executor"
    );
    std::process::exit(2);
}

#[derive(Debug)]
struct Options {
    budget_bytes: u64,
    device: FpgaDevice,
    policy: AlgoPolicy,
    max_group: usize,
    /// Strategy-search worker threads; 0 = auto (all cores).
    threads: usize,
    out: Option<PathBuf>,
    testbench: bool,
    seed: u64,
    frames: u64,
    /// `run` only: replicate the input into an N-frame batch.
    batch: Option<usize>,
    /// `serve` only: load-generator request count.
    requests: Option<u64>,
    /// `serve` only: load-generator client threads.
    concurrency: Option<usize>,
    /// `serve` only: batcher coalescing cap.
    max_batch: Option<usize>,
    /// `serve` only: batcher deadline in milliseconds.
    batch_window_ms: Option<u64>,
    /// `serve` only: admission-control queue capacity.
    queue_depth: Option<usize>,
    /// Convolution backend for `run`; other commands must not set it.
    exec_algo: Option<ExecAlgo>,
    /// `--sparsity`: kept-coefficient density in per mille; only valid
    /// alongside a sparse backend or policy.
    sparsity_pm: Option<u16>,
    /// `run` executes the optimized strategy's fusion groups instead of
    /// the layer-by-layer executor.
    fused: bool,
    reconfig_cycles: Option<u64>,
    trace_out: Option<PathBuf>,
    telemetry_json: Option<PathBuf>,
    /// `profile` only: built-in zoo network instead of a prototxt path.
    network: Option<String>,
    /// `profile` only: machine-readable attribution output path.
    profile_json: Option<PathBuf>,
    /// Shared observability context; enabled when either flag is given.
    telemetry: Telemetry,
    /// Deterministic fault injector from `--inject` (disabled without it).
    faults: FaultInjector,
    /// `--fault-mode`; `None` keeps each command's default.
    fault_mode: Option<FaultMode>,
}

fn parse_options(args: &[String]) -> Options {
    let mut o = Options {
        budget_bytes: 8 * MB,
        device: FpgaDevice::zc706(),
        policy: AlgoPolicy::heterogeneous(),
        max_group: winofuse::core::MAX_FUSION_LAYERS,
        threads: 0,
        out: None,
        testbench: false,
        seed: 42,
        frames: 1,
        batch: None,
        requests: None,
        concurrency: None,
        max_batch: None,
        batch_window_ms: None,
        queue_depth: None,
        exec_algo: None,
        sparsity_pm: None,
        fused: false,
        reconfig_cycles: None,
        trace_out: None,
        telemetry_json: None,
        network: None,
        profile_json: None,
        telemetry: Telemetry::disabled(),
        faults: FaultInjector::disabled(),
        fault_mode: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    usage()
                })
                .clone()
        };
        match arg.as_str() {
            "--budget-mb" => {
                o.budget_bytes = value("--budget-mb")
                    .parse::<u64>()
                    .unwrap_or_else(|_| usage())
                    * MB
            }
            "--budget-kb" => {
                o.budget_bytes = value("--budget-kb")
                    .parse::<u64>()
                    .unwrap_or_else(|_| usage())
                    * 1024
            }
            "--device" => {
                let name = value("--device");
                o.device = FpgaDevice::by_name(&name).unwrap_or_else(|| {
                    eprintln!(
                        "unknown device `{name}` (zc706 | vx485t | zedboard | vc709 | ku060)"
                    );
                    usage()
                })
            }
            "--frames" => o.frames = value("--frames").parse().unwrap_or_else(|_| usage()),
            "--batch" => o.batch = Some(value("--batch").parse().unwrap_or_else(|_| usage())),
            "--requests" => {
                o.requests = Some(value("--requests").parse().unwrap_or_else(|_| usage()))
            }
            "--concurrency" => {
                o.concurrency = Some(value("--concurrency").parse().unwrap_or_else(|_| usage()))
            }
            "--max-batch" => {
                o.max_batch = Some(value("--max-batch").parse().unwrap_or_else(|_| usage()))
            }
            "--batch-window-ms" => {
                o.batch_window_ms = Some(
                    value("--batch-window-ms")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--queue-depth" => {
                o.queue_depth = Some(value("--queue-depth").parse().unwrap_or_else(|_| usage()))
            }
            "--reconfig-cycles" => {
                let c = value("--reconfig-cycles")
                    .parse()
                    .unwrap_or_else(|_| usage());
                o.reconfig_cycles = Some(c)
            }
            "--policy" => {
                o.policy = match value("--policy").as_str() {
                    "hetero" => AlgoPolicy::heterogeneous(),
                    "conv" => AlgoPolicy::conventional_only(),
                    "wino" => AlgoPolicy::winograd_preferred(),
                    // Density is patched in after the parse loop once
                    // --sparsity (order-independent) is known.
                    "sparse" => AlgoPolicy::heterogeneous_sparse(DEFAULT_SPARSITY_PM),
                    other => {
                        eprintln!("unknown policy `{other}` (hetero | conv | wino | sparse)");
                        usage()
                    }
                }
            }
            "--exec-algo" => {
                o.exec_algo = Some(match value("--exec-algo").as_str() {
                    "auto" => ExecAlgo::Auto,
                    "wino" => ExecAlgo::Winograd,
                    "direct" => ExecAlgo::Direct,
                    "sparse" => ExecAlgo::Sparse {
                        density_pm: DEFAULT_SPARSITY_PM,
                    },
                    other => {
                        eprintln!("unknown exec algo `{other}` (auto | wino | direct | sparse)");
                        usage()
                    }
                })
            }
            "--sparsity" => {
                let t: f64 = value("--sparsity").parse().unwrap_or_else(|_| usage());
                if !(t > 0.0 && t <= 1.0) {
                    eprintln!("--sparsity must be a density in (0, 1], got {t}");
                    usage()
                }
                o.sparsity_pm = Some(((t * 1000.0).round() as u16).clamp(1, 1000))
            }
            "--max-group" => o.max_group = value("--max-group").parse().unwrap_or_else(|_| usage()),
            "--threads" => o.threads = value("--threads").parse().unwrap_or_else(|_| usage()),
            "--out" => o.out = Some(PathBuf::from(value("--out"))),
            "--network" => o.network = Some(value("--network")),
            "--profile-json" => o.profile_json = Some(PathBuf::from(value("--profile-json"))),
            "--trace-out" => o.trace_out = Some(PathBuf::from(value("--trace-out"))),
            "--telemetry-json" => o.telemetry_json = Some(PathBuf::from(value("--telemetry-json"))),
            "--inject" => {
                let spec = value("--inject");
                o.faults = FaultInjector::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("bad --inject spec: {e}");
                    usage()
                })
            }
            "--fault-mode" => {
                o.fault_mode = Some(value("--fault-mode").parse().unwrap_or_else(|e| {
                    eprintln!("bad --fault-mode: {e}");
                    usage()
                }))
            }
            "--testbench" => o.testbench = true,
            "--fused" => o.fused = true,
            "--seed" => o.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            other => {
                eprintln!("unknown option `{other}`");
                usage()
            }
        }
    }
    if let Some(pm) = o.sparsity_pm {
        if let Some(ExecAlgo::Sparse { density_pm }) = &mut o.exec_algo {
            *density_pm = pm;
        }
        if o.policy.sparse {
            o.policy.sparse_density_pm = pm;
        }
    }
    if o.trace_out.is_some() || o.telemetry_json.is_some() {
        o.telemetry = match &o.trace_out {
            None => Telemetry::enabled(),
            Some(path) => {
                let is_jsonl = path.extension().is_some_and(|e| e == "jsonl");
                let sink: Result<Box<dyn TraceSink + Send>, std::io::Error> = if is_jsonl {
                    JsonLinesSink::create(path).map(|s| Box::new(s) as _)
                } else {
                    ChromeTraceSink::create(path).map(|s| Box::new(s) as _)
                };
                match sink {
                    Ok(sink) => Telemetry::with_sink(sink),
                    Err(e) => {
                        eprintln!("cannot create trace file `{}`: {e}", path.display());
                        usage()
                    }
                }
            }
        };
    }
    if o.faults.is_enabled() {
        // Injection without observability would hide the recovery story;
        // force counters on (a sink-backed context from --trace-out wins)
        // and keep injected panics off stderr.
        if !o.telemetry.is_enabled() {
            o.telemetry = Telemetry::enabled();
        }
        install_quiet_panic_hook();
    }
    o
}

/// Flushes the trace sink and writes the telemetry summary, if requested.
fn finish_telemetry(o: &Options) -> Result<(), TaskError> {
    o.telemetry
        .finish_sink()
        .map_err(|e| format!("writing trace: {e}"))?;
    if let Some(path) = &o.telemetry_json {
        std::fs::write(path, o.telemetry.summary().to_json())
            .map_err(|e| format!("writing `{}`: {e}", path.display()))?;
    }
    if let Some(path) = &o.trace_out {
        eprintln!(
            "trace written to {} (load in Perfetto / chrome://tracing)",
            path.display()
        );
    }
    Ok(())
}

fn load_network(path: &str) -> Result<Network, TaskError> {
    let net = load_full_network(path)?;
    // The accelerator maps the convolutional body only (the paper omits
    // FC layers, §7.3).
    Ok(net.conv_body()?)
}

/// Parses the network with its FC/softmax tail intact — the CPU executor
/// runs the whole thing, unlike the accelerator flow.
fn load_full_network(path: &str) -> Result<Network, TaskError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| TaskError::Other(format!("cannot read `{path}`: {e}")))?;
    Ok(prototxt::parse(&text)?)
}

fn framework(o: &Options) -> Framework {
    let mut device = o.device.clone();
    if let Some(c) = o.reconfig_cycles {
        device = device.with_reconfig_cycles(c);
    }
    Framework::new(device)
        .with_policy(o.policy)
        .with_max_group_layers(o.max_group)
        .with_threads(o.threads)
        .with_telemetry(o.telemetry.clone())
        .with_faults(o.faults.clone())
}

fn cmd_info(net: &Network, o: &Options) -> Result<(), TaskError> {
    println!("network: {net}");
    println!("device:  {}", o.device);
    let shapes = net.shapes()?;
    println!(
        "\n{:<16} {:<8} {:>14} {:>14} {:>12}",
        "layer", "kind", "input", "output", "MMACs"
    );
    for (i, layer) in net.layers().iter().enumerate() {
        println!(
            "{:<16} {:<8} {:>14} {:>14} {:>12.2}",
            layer.name,
            layer.kind.tag(),
            shapes[i].to_string(),
            shapes[i + 1].to_string(),
            layer.macs(shapes[i]) as f64 / 1e6
        );
    }
    println!(
        "\ntotal: {:.2} GMACs, {:.2} Gops, {:.2} M weights",
        net.total_macs() as f64 / 1e9,
        net.total_ops() as f64 / 1e9,
        net.total_weights() as f64 / 1e6
    );
    let fused = net.fused_transfer_bytes(0..net.len(), DataType::Fixed16)?;
    let unfused = net.unfused_transfer_bytes(0..net.len(), DataType::Fixed16)?;
    println!(
        "feature-map transfer: {:.2} MB unfused, {:.2} MB fully fused",
        unfused as f64 / MB as f64,
        fused as f64 / MB as f64
    );
    Ok(())
}

fn cmd_optimize(net: &Network, o: &Options) -> Result<(), TaskError> {
    let fw = framework(o);
    let design = fw.optimize(net, o.budget_bytes)?;
    println!("strategy:\n{}", design.partition.strategy);
    print!("{}", fw.report(net, &design));
    println!(
        "power: {:.1} W, energy/frame: {:.1} mJ",
        fw.power_watts(&design),
        fw.energy_joules(&design) * 1e3
    );
    if o.frames > 1 {
        let batch = fw.batch_timing(&design, o.frames)?;
        println!(
            "batch of {}: {} cycles total ({:.0} cycles/frame, reconfig {} cycles)",
            batch.frames, batch.total_cycles, batch.cycles_per_frame, batch.reconfig_cycles
        );
    }
    Ok(())
}

fn cmd_curve(net: &Network, o: &Options) -> Result<(), TaskError> {
    let fw = framework(o);
    let curve = fw.tradeoff_curve(net)?;
    let ops = net.total_ops();
    println!("{:>12} {:>14} {:>9}", "transfer", "latency (cyc)", "GOPS");
    for (t, l) in curve {
        println!(
            "{:>9.2} MB {:>14} {:>9.1}",
            t as f64 / MB as f64,
            l,
            o.device.effective_gops(ops, l)
        );
    }
    Ok(())
}

fn cmd_codegen(net: &Network, o: &Options) -> Result<(), TaskError> {
    let out = o
        .out
        .clone()
        .ok_or_else(|| TaskError::usage("codegen requires --out DIR"))?;
    let fw = framework(o);
    let design = fw.optimize(net, o.budget_bytes)?;
    let project = HlsProject::generate(net, &design)?;
    check::verify_project(net, &design, &project)?;
    project.write_to_dir(&out)?;
    let mut n_files = project.files().len();
    if o.testbench {
        let weights = NetworkWeights::random(net, o.seed)?;
        let input = winofuse::conv::tensor::random_tensor(
            1,
            net.input_shape().channels,
            net.input_shape().height,
            net.input_shape().width,
            o.seed + 1,
        );
        let tbs = testbench::generate_testbenches(net, &design, &weights, &input)?;
        for (name, contents) in &tbs {
            std::fs::write(out.join(name), contents)?;
        }
        n_files += tbs.len();
    }
    println!(
        "wrote {n_files} files to {} (pragma check passed)",
        out.display()
    );
    Ok(())
}

fn cmd_simulate(net: &Network, o: &Options) -> Result<(), TaskError> {
    let fw = framework(o);
    let design = fw.optimize(net, o.budget_bytes)?;
    let weights = NetworkWeights::random(net, o.seed)?;
    let input = winofuse::conv::tensor::random_tensor(
        1,
        net.input_shape().channels,
        net.input_shape().height,
        net.input_shape().width,
        o.seed + 1,
    );
    let (_, groups) = fw.validate_by_simulation(net, &design, &weights, &input, 1e-3)?;
    println!(
        "{:>6} {:>10} {:>14} {:>12} {:>12}",
        "group", "layers", "cycles", "read (B)", "max |err|"
    );
    for g in &groups {
        println!(
            "{:>6} {:>7}..{:<2} {:>14} {:>12} {:>12.2e}",
            g.start, g.start, g.end, g.sim.cycles, g.sim.dram_bytes_read, g.max_abs_err
        );
    }
    let total_cycles: u64 = groups.iter().map(|g| g.sim.cycles).sum();
    println!(
        "\nsimulated {} cycles total ({:.2} ms at {:.0} MHz); analytic model: {} cycles",
        total_cycles,
        o.device.cycles_to_seconds(total_cycles) * 1e3,
        o.device.clock_hz() as f64 / 1e6,
        design.timing.latency
    );
    println!("fused execution matches the layer-by-layer reference ✓");
    Ok(())
}

fn cmd_run_fused(net: &Network, o: &Options) -> Result<(), TaskError> {
    let fw = framework(o);
    let design = fw.optimize(net, o.budget_bytes)?;
    let weights = NetworkWeights::random(net, o.seed)?;
    let shape = net.input_shape();
    let input = winofuse::conv::tensor::random_tensor(
        1,
        shape.channels,
        shape.height,
        shape.width,
        o.seed + 1,
    );
    // The runner and its reference share one preparation, pruned exactly
    // where the plan prunes.
    let plan = design.execution_plan();
    let prepared = plan.prepare(net, &weights)?;
    // Lenient mode by default: collect every group's delta (and any
    // fault-driven fallbacks) for the table, then fail once at the end
    // so the operator sees the whole picture. `--fault-mode strict`
    // surfaces the first fault as a typed error instead.
    let runner = fw
        .configure_runner(plan.lower(net, &weights, &prepared)?)
        .with_fault_mode(o.fault_mode.unwrap_or(FaultMode::Lenient));
    let start = std::time::Instant::now();
    let report = runner.run(&input)?;
    let elapsed = start.elapsed().as_secs_f64();
    println!("network: {net}");
    println!("strategy:\n{}", design.partition.strategy);
    println!(
        "{:>6} {:>10} {:>13} {:>13} {:>13} {:>7}",
        "group", "layers", "read (B)", "written (B)", "analytic (B)", "delta"
    );
    for g in &report.groups {
        println!(
            "{:>6} {:>7}..{:<2} {:>13} {:>13} {:>13} {:>7}",
            g.start,
            g.start,
            g.end,
            g.dram_bytes_read,
            g.dram_bytes_written,
            g.analytic_dram_bytes,
            g.delta()
        );
    }
    let exec = NetworkExecutor::from_prepared(net, prepared.into())?.with_threads(o.threads);
    let reference = exec.run(&input)?;
    let err = report.output.max_abs_diff(&reference)?;
    println!(
        "\nfused run: {:.1} ms, max |err| vs layer-by-layer executor: {err:.2e}",
        elapsed * 1e3
    );
    if err > 1e-3 {
        return Err(TaskError::Other(format!(
            "fused output diverged from the reference: {err}"
        )));
    }
    if !report.fallbacks.is_empty() {
        println!("recovered group faults (degraded to unfused execution):");
        for fb in &report.fallbacks {
            println!("  group {}: {}", fb.start, fb.reason);
        }
    }
    if o.faults.is_enabled() {
        print_recovery_counters(&o.telemetry);
    }
    // A fallen-back group ran unfused, so its meter legitimately
    // diverges from the fused-plan budget — reconcile the rest.
    let fallen: std::collections::HashSet<usize> =
        report.fallbacks.iter().map(|f| f.start).collect();
    let max_delta = report
        .groups
        .iter()
        .filter(|g| !fallen.contains(&g.start))
        .map(|g| g.delta())
        .max()
        .unwrap_or(0);
    if max_delta != 0 {
        return Err(TaskError::Other(format!(
            "DRAM reconciliation failed: max per-group delta {max_delta} B"
        )));
    }
    if fallen.is_empty() {
        println!("DRAM traffic reconciles with the DP budget in every group ✓");
    } else {
        println!(
            "DRAM traffic reconciles in every fused group; {} group(s) degraded to unfused ✓",
            fallen.len()
        );
    }
    Ok(())
}

/// One-line summary of the fault-tolerance counters after an injected
/// (or naturally faulty) run.
fn print_recovery_counters(telemetry: &Telemetry) {
    let s = telemetry.summary();
    println!(
        "fault recovery: {} job panic(s), {} fallback(s), {} fix16 saturation(s)",
        s.counter("pool.job_panics"),
        s.counter("exec.fallbacks"),
        s.counter("fix16.saturations"),
    );
}

fn cmd_run(net: &Network, o: &Options) -> Result<(), TaskError> {
    let algo = o.exec_algo.unwrap_or_default();
    let batch = o.batch.unwrap_or(1);
    if batch == 0 {
        return Err(TaskError::usage("--batch must be at least 1"));
    }
    let weights = NetworkWeights::random(net, o.seed)?;
    let shape = net.input_shape();
    let input = winofuse::conv::tensor::random_tensor(
        1,
        shape.channels,
        shape.height,
        shape.width,
        o.seed + 1,
    );
    // `--batch N` exercises the batched kernel path: one invocation over
    // an N-frame tensor (frames replicated, so the per-frame outputs
    // must come back bit-identical).
    let input = if batch > 1 {
        input.repeat_frames(batch)
    } else {
        input
    };
    // Kernel counters are always collected for the report; when the user
    // asked for a trace/summary, reuse their context so the per-layer
    // spans land in it too.
    let telemetry = if o.telemetry.is_enabled() {
        o.telemetry.clone()
    } else {
        Telemetry::enabled()
    };
    let exec = NetworkExecutor::with_algo(net, &weights, algo)?
        .with_threads(o.threads)
        .with_telemetry(telemetry.clone())
        .with_faults(o.faults.clone())
        .with_fault_mode(o.fault_mode.unwrap_or(FaultMode::Lenient));
    let frames = o.frames.max(1);
    let start = std::time::Instant::now();
    let mut last = None;
    for _ in 0..frames {
        last = Some(exec.run(&input)?);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let out = last.expect("at least one frame");
    let summary = telemetry.summary();
    println!("network: {net}");
    println!(
        "backend: {algo:?}, threads: {}",
        if o.threads == 0 {
            "auto".to_string()
        } else {
            o.threads.to_string()
        }
    );
    println!("output:  {}x{}x{}x{}", out.n(), out.c(), out.h(), out.w());
    println!(
        "conv kernels: {} GEMM calls, {} Winograd tiles, {:.1} MiB packed",
        summary.counter("conv.gemm_calls"),
        summary.counter("conv.tiles"),
        summary.counter("conv.bytes_packed") as f64 / MB as f64
    );
    let total_frames = frames * batch as u64;
    println!(
        "{} frame(s) in {:.1} ms ({:.1} ms/frame, {:.2} effective GOPS)",
        total_frames,
        elapsed * 1e3,
        elapsed * 1e3 / total_frames as f64,
        net.total_ops() as f64 * total_frames as f64 / elapsed / 1e9
    );
    if batch > 1 {
        // Identical inputs through the batched kernels must produce
        // identical outputs — anything else is a frame-indexing bug.
        let first = out.frame(0);
        for b in 1..batch {
            if out.frame(b).as_slice() != first.as_slice() {
                return Err(TaskError::Other(format!(
                    "batched frame {b} diverged from frame 0"
                )));
            }
        }
        println!("batch of {batch}: replicated frames are bit-identical ✓");
    }
    if o.faults.is_enabled() {
        print_recovery_counters(&telemetry);
    }
    Ok(())
}

/// `winofuse serve`: start the long-running engine (bounded queue →
/// dynamic batcher → plan cache → batched execution), drive it with the
/// built-in load generator, and report throughput, tail latency, and
/// plan-cache traffic.
fn cmd_serve(net: &Network, o: &Options) -> Result<(), TaskError> {
    use std::time::{Duration, Instant};
    let telemetry = if o.telemetry.is_enabled() {
        o.telemetry.clone()
    } else {
        Telemetry::enabled()
    };
    let mut fw = Framework::new(o.device.clone())
        .with_policy(o.policy)
        .with_max_group_layers(o.max_group)
        .with_threads(o.threads)
        .with_telemetry(telemetry.clone())
        .with_faults(o.faults.clone());
    if let Some(mode) = o.fault_mode {
        fw = fw.with_fault_mode(mode);
    }
    let threads = fw.threads();
    let weights = NetworkWeights::random(net, o.seed)?;
    let cfg = ServeConfig {
        max_batch: o.max_batch.unwrap_or(8).max(1),
        batch_window: Duration::from_millis(o.batch_window_ms.unwrap_or(2)),
        queue_depth: o.queue_depth.unwrap_or(64).max(1),
        budget_bytes: o.budget_bytes,
        precision: DataType::Fixed16,
        fused: o.fused,
    };
    let requests = o.requests.unwrap_or(32);
    let concurrency = o.concurrency.unwrap_or(4).max(1);
    println!("network: {net}");
    println!(
        "engine:  device {}, threads {threads}, max-batch {}, window {} ms, queue depth {}, {}",
        o.device.name(),
        cfg.max_batch,
        cfg.batch_window.as_millis(),
        cfg.queue_depth,
        if cfg.fused {
            "fused-group runner"
        } else {
            "batched layer executor"
        }
    );
    let engine = ServeEngine::start(fw, net.clone(), weights, telemetry.clone(), cfg)?;
    let warm_start = Instant::now();
    engine.warm()?;
    println!(
        "plan cached in {:.1} ms (strategy search + filter transforms paid once)",
        warm_start.elapsed().as_secs_f64() * 1e3
    );

    let shape = net.input_shape();
    let wall = Instant::now();
    let rejected = std::thread::scope(|s| -> Result<u64, TaskError> {
        let mut clients = Vec::new();
        for c in 0..concurrency {
            let engine = &engine;
            let telemetry = telemetry.clone();
            clients.push(s.spawn(move || -> Result<u64, TaskError> {
                let mut rejected = 0u64;
                let mut i = c as u64;
                while i < requests {
                    let input = winofuse::conv::tensor::random_tensor(
                        1,
                        shape.channels,
                        shape.height,
                        shape.width,
                        o.seed + 1 + i,
                    );
                    let t0 = Instant::now();
                    match engine.submit(input) {
                        Ok(ticket) => {
                            ticket.wait()?;
                            telemetry
                                .histogram("serve.request_us")
                                .record(t0.elapsed().as_micros() as u64);
                            i += concurrency as u64;
                        }
                        Err(TaskError::Serve(_)) => {
                            // Backpressure worked as designed: back off
                            // and retry the same request.
                            rejected += 1;
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(e) => return Err(e),
                    }
                }
                Ok(rejected)
            }));
        }
        let mut rejected = 0u64;
        for h in clients {
            rejected += h.join().expect("load-generator client panicked")?;
        }
        Ok(rejected)
    })?;
    let elapsed = wall.elapsed().as_secs_f64();
    let (hits, misses) = (engine.plan_hits(), engine.plan_misses());
    engine.shutdown()?;

    let s = telemetry.summary();
    let batches = s.counter("serve.batches").max(1);
    println!(
        "\n{} request(s) from {concurrency} client(s) in {:.1} ms — {:.1} req/s",
        s.counter("serve.completed"),
        elapsed * 1e3,
        requests as f64 / elapsed
    );
    println!(
        "batches: {batches} (mean size {:.2}); backpressure rejections: {rejected}",
        s.counter("serve.completed") as f64 / batches as f64
    );
    if let Some(h) = s.histograms.get("serve.request_us") {
        println!(
            "request latency: p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
            h.p50() as f64 / 1e3,
            h.p95() as f64 / 1e3,
            h.p99() as f64 / 1e3
        );
    }
    if let Some(h) = s.histograms.get("serve.queue_wait_us") {
        println!(
            "queue wait:      p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
            h.p50() as f64 / 1e3,
            h.p95() as f64 / 1e3,
            h.p99() as f64 / 1e3
        );
    }
    println!("plan cache: {hits} hit(s), {misses} miss(es)");
    if misses != 1 {
        return Err(TaskError::Other(format!(
            "expected exactly one plan build for one configuration, saw {misses}"
        )));
    }
    println!("strategy search ran exactly once; every request reused the cached plan ✓");
    if o.faults.is_enabled() {
        print_recovery_counters(&telemetry);
    }
    Ok(())
}

/// Resolves a `--network` name to a built-in zoo network.
fn zoo_network(name: &str) -> Result<Network, TaskError> {
    Ok(match name {
        "alexnet" => zoo::alexnet(),
        "vgg16" => zoo::vgg16(),
        "vgg-e" | "vgg_e" => zoo::vgg_e(),
        "vgg-e-prefix" => zoo::vgg_e_fused_prefix(),
        "small" => zoo::small_test_net(),
        "mixed" => zoo::mixed_test_net(),
        other => {
            return Err(TaskError::usage(format!(
                "unknown built-in network `{other}` \
                 (alexnet | vgg16 | vgg-e | vgg-e-prefix | small | mixed)"
            )))
        }
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The sparse density in effect for roofline math: the backend's own if
/// a sparse backend is selected, else the flag (or its default).
fn sparse_density(o: &Options) -> u16 {
    match o.exec_algo {
        Some(ExecAlgo::Sparse { density_pm }) => density_pm,
        _ => o.sparsity_pm.unwrap_or(DEFAULT_SPARSITY_PM),
    }
}

/// Roofline attribution for one profiled layer: attainable GOPS at the
/// layer's arithmetic intensity (on the selected device) and the achieved
/// fraction of it. `None` for layers with no counted kernel flops.
fn roofline_attribution(
    layer_kind: &LayerKind,
    p: &LayerProfile,
    roofline: &Roofline,
    device: &FpgaDevice,
    sparsity_pm: u16,
) -> Option<(f64, f64)> {
    let LayerKind::Conv(c) = layer_kind else {
        return None;
    };
    let achieved = p.achieved_gflops()?;
    let algorithm = match p.algo {
        "winograd" => Algorithm::Winograd { m: 4 },
        "sparse" => Algorithm::SparseWinograd {
            m: 4,
            density_pm: sparsity_pm,
        },
        _ => Algorithm::Conventional,
    };
    let roof = computational_roof_gops(device, algorithm, c.kernel);
    let point = roofline.evaluate(&p.name, p.conv.arithmetic_intensity(), roof);
    if point.attainable_gops <= 0.0 {
        return None;
    }
    Some((
        point.attainable_gops,
        100.0 * achieved / point.attainable_gops,
    ))
}

fn cmd_profile(net: &Network, o: &Options) -> Result<(), TaskError> {
    let algo = o.exec_algo.unwrap_or_default();
    let weights = NetworkWeights::random(net, o.seed)?;
    let shape = net.input_shape();
    let input = winofuse::conv::tensor::random_tensor(
        1,
        shape.channels,
        shape.height,
        shape.width,
        o.seed + 1,
    );
    let exec = NetworkExecutor::with_algo(net, &weights, algo)?
        .with_threads(o.threads)
        .with_telemetry(o.telemetry.clone())
        .with_faults(o.faults.clone())
        .with_fault_mode(o.fault_mode.unwrap_or(FaultMode::Lenient));
    let start = std::time::Instant::now();
    let (out, profiles) = exec.run_profiled(&input)?;
    let elapsed = start.elapsed().as_secs_f64();
    let roofline = Roofline::for_device(&o.device);

    println!("network: {net}");
    println!("device:  {} (roofline reference)", o.device);
    println!("output:  {}x{}x{}", out.c(), out.h(), out.w());
    println!(
        "\n{:<16} {:<5} {:<9} {:>9} {:>10} {:>9} {:>12} {:>7}",
        "layer", "kind", "algo", "wall ms", "GFLOP/s", "AI op/B", "attain GOPS", "%roof"
    );
    let mut total_flops = 0u64;
    for (layer, p) in net.layers().iter().zip(&profiles) {
        total_flops += p.conv.total_flops();
        let wall_ms = p.wall_ns as f64 / 1e6;
        match (
            p.achieved_gflops(),
            roofline_attribution(&layer.kind, p, &roofline, &o.device, sparse_density(o)),
        ) {
            (Some(gflops), Some((attain, pct))) => println!(
                "{:<16} {:<5} {:<9} {:>9.2} {:>10.2} {:>9.2} {:>12.1} {:>7.1}",
                p.name,
                p.kind,
                p.algo,
                wall_ms,
                gflops,
                p.conv.arithmetic_intensity(),
                attain,
                pct
            ),
            _ => println!(
                "{:<16} {:<5} {:<9} {:>9.2} {:>10} {:>9} {:>12} {:>7}",
                p.name, p.kind, p.algo, wall_ms, "-", "-", "-", "-"
            ),
        }
    }
    println!(
        "\ntotal: {:.1} ms, {:.2} counted Gflop, {:.2} effective GFLOP/s",
        elapsed * 1e3,
        total_flops as f64 / 1e9,
        total_flops as f64 / elapsed / 1e9
    );
    if let Some(path) = &o.profile_json {
        write_profile_json(path, net, o, &profiles, &roofline)?;
        eprintln!("per-layer attribution written to {}", path.display());
    }
    Ok(())
}

/// Serializes the per-layer attribution (hand-rolled JSON, matching the
/// telemetry crate's no-serde convention).
fn write_profile_json(
    path: &std::path::Path,
    net: &Network,
    o: &Options,
    profiles: &[LayerProfile],
    roofline: &Roofline,
) -> Result<(), TaskError> {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"network\": {},\n", json_str(net.name())));
    s.push_str(&format!("  \"device\": {},\n", json_str(o.device.name())));
    s.push_str(&format!("  \"threads\": {},\n", o.threads));
    s.push_str(&format!("  \"seed\": {},\n", o.seed));
    s.push_str("  \"layers\": [\n");
    for (idx, (layer, p)) in net.layers().iter().zip(profiles).enumerate() {
        let c = &p.conv;
        let attribution =
            roofline_attribution(&layer.kind, p, roofline, &o.device, sparse_density(o));
        s.push_str("    {");
        s.push_str(&format!("\"name\": {}, ", json_str(&p.name)));
        s.push_str(&format!("\"kind\": {}, ", json_str(p.kind)));
        s.push_str(&format!("\"algo\": {}, ", json_str(p.algo)));
        s.push_str(&format!("\"wall_ns\": {}, ", p.wall_ns));
        s.push_str(&format!("\"model_ops\": {}, ", p.model_ops));
        s.push_str(&format!("\"flops\": {}, ", c.total_flops()));
        s.push_str(&format!("\"bytes\": {}, ", c.total_bytes()));
        s.push_str(&format!(
            "\"arithmetic_intensity\": {:.6}, ",
            c.arithmetic_intensity()
        ));
        match (p.achieved_gflops(), attribution) {
            (Some(g), Some((attain, pct))) => s.push_str(&format!(
                "\"achieved_gflops\": {g:.6}, \"attainable_gops\": {attain:.6}, \
                 \"pct_of_roofline\": {pct:.3}, "
            )),
            _ => s.push_str(
                "\"achieved_gflops\": null, \"attainable_gops\": null, \
                 \"pct_of_roofline\": null, ",
            ),
        }
        s.push_str(&format!(
            "\"gemm_calls\": {}, \"tiles\": {}, \"bytes_packed\": {}, ",
            c.gemm_calls, c.tiles, c.bytes_packed
        ));
        s.push_str(&format!(
            "\"phases\": {{\"scatter\": {{\"flops\": {}, \"bytes\": {}, \"ns\": {}}}, \
             \"gemm\": {{\"flops\": {}, \"bytes\": {}, \"ns\": {}, \"pack_ns\": {}, \
             \"kernel_ns\": {}}}, \
             \"gather\": {{\"flops\": {}, \"bytes\": {}, \"ns\": {}}}}}",
            c.flops_scatter,
            c.bytes_scatter,
            c.scatter_ns,
            c.flops_gemm,
            c.bytes_gemm,
            c.gemm_ns,
            c.pack_ns,
            c.kernel_ns,
            c.flops_gather,
            c.bytes_gather,
            c.gather_ns
        ));
        s.push('}');
        if idx + 1 < profiles.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating `{}`: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, s).map_err(|e| format!("writing `{}`: {e}", path.display()))?;
    Ok(())
}

/// `profile --fused`: execute the optimized strategy's fusion groups with
/// worker-lane tracing on, reporting per-group DRAM traffic and the
/// kernel counters; the Chrome trace carries the per-stage lanes.
fn cmd_profile_fused(net: &Network, o: &Options) -> Result<(), TaskError> {
    let fw = framework(o);
    let design = fw.optimize(net, o.budget_bytes)?;
    let weights = NetworkWeights::random(net, o.seed)?;
    let shape = net.input_shape();
    let input = winofuse::conv::tensor::random_tensor(
        1,
        shape.channels,
        shape.height,
        shape.width,
        o.seed + 1,
    );
    let runner = fw
        .fused_runner(net, &design, &weights)?
        .with_fault_mode(o.fault_mode.unwrap_or(FaultMode::Lenient));
    let start = std::time::Instant::now();
    let report = runner.run(&input)?;
    let elapsed = start.elapsed().as_secs_f64();
    println!("network: {net}");
    println!("strategy:\n{}", design.partition.strategy);
    println!(
        "{:>6} {:>10} {:>13} {:>13} {:>13} {:>7}",
        "group", "layers", "read (B)", "written (B)", "analytic (B)", "delta"
    );
    for g in &report.groups {
        println!(
            "{:>6} {:>7}..{:<2} {:>13} {:>13} {:>13} {:>7}",
            g.start,
            g.start,
            g.end,
            g.dram_bytes_read,
            g.dram_bytes_written,
            g.analytic_dram_bytes,
            g.delta()
        );
    }
    if !report.fallbacks.is_empty() {
        println!("recovered group faults (degraded to unfused execution):");
        for fb in &report.fallbacks {
            println!("  group {}: {}", fb.start, fb.reason);
        }
    }
    if o.faults.is_enabled() {
        print_recovery_counters(&o.telemetry);
    }
    let summary = o.telemetry.summary();
    println!(
        "\nfused run: {:.1} ms; {} pool jobs across {} pool runs",
        elapsed * 1e3,
        summary.counter("pool.jobs"),
        summary.counter("pool.runs")
    );
    if let Some(path) = &o.profile_json {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"network\": {},\n", json_str(net.name())));
        s.push_str(&format!("  \"device\": {},\n", json_str(o.device.name())));
        s.push_str(&format!("  \"threads\": {},\n", o.threads));
        s.push_str("  \"fused\": true,\n  \"groups\": [\n");
        for (idx, g) in report.groups.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"start\": {}, \"end\": {}, \"dram_bytes_read\": {}, \
                 \"dram_bytes_written\": {}, \"analytic_dram_bytes\": {}, \"delta\": {}}}{}\n",
                g.start,
                g.end,
                g.dram_bytes_read,
                g.dram_bytes_written,
                g.analytic_dram_bytes,
                g.delta(),
                if idx + 1 < report.groups.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ]\n}\n");
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("creating `{}`: {e}", parent.display()))?;
            }
        }
        std::fs::write(path, s).map_err(|e| format!("writing `{}`: {e}", path.display()))?;
        eprintln!("per-group attribution written to {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let cmd = args[0].as_str();
    // `profile --network NAME` has no model path; every other command
    // (and `profile <model.prototxt>`) takes one as the second argument.
    let (path, rest): (&str, &[String]) = if args[1].starts_with("--") {
        ("", &args[1..])
    } else {
        (args[1].as_str(), &args[2..])
    };
    let mut opts = parse_options(rest);

    if opts.exec_algo.is_some() && cmd != "run" && cmd != "profile" {
        eprintln!("error: --exec-algo only applies to the `run` and `profile` commands");
        return ExitCode::FAILURE;
    }
    if opts.sparsity_pm.is_some()
        && !matches!(opts.exec_algo, Some(ExecAlgo::Sparse { .. }))
        && !opts.policy.sparse
    {
        eprintln!("error: --sparsity requires --exec-algo sparse or --policy sparse");
        return ExitCode::from(2);
    }
    if opts.fused && cmd != "run" && cmd != "profile" && cmd != "serve" {
        eprintln!("error: --fused only applies to the `run`, `profile`, and `serve` commands");
        return ExitCode::FAILURE;
    }
    if opts.fused && opts.exec_algo.is_some() {
        eprintln!("error: --exec-algo does not apply to fused execution");
        return ExitCode::FAILURE;
    }
    if (opts.faults.is_enabled() || opts.fault_mode.is_some())
        && cmd != "run"
        && cmd != "profile"
        && cmd != "serve"
    {
        eprintln!(
            "error: --inject / --fault-mode only apply to the `run`, `profile`, and \
             `serve` commands"
        );
        return ExitCode::from(2);
    }
    if opts.batch.is_some() && cmd != "run" {
        eprintln!("error: --batch only applies to the `run` command");
        return ExitCode::from(2);
    }
    if opts.batch.is_some() && opts.fused {
        eprintln!("error: --batch does not apply to fused execution");
        return ExitCode::from(2);
    }
    let serve_only_flags = opts.requests.is_some()
        || opts.concurrency.is_some()
        || opts.max_batch.is_some()
        || opts.batch_window_ms.is_some()
        || opts.queue_depth.is_some();
    if serve_only_flags && cmd != "serve" {
        eprintln!(
            "error: --requests / --concurrency / --max-batch / --batch-window-ms / \
             --queue-depth only apply to the `serve` command"
        );
        return ExitCode::from(2);
    }
    if (opts.network.is_some() || opts.profile_json.is_some()) && cmd != "profile" {
        eprintln!("error: --network / --profile-json only apply to the `profile` command");
        return ExitCode::FAILURE;
    }
    if cmd == "profile" {
        // A profile run always produces its two artifacts; honor explicit
        // paths, default the rest.
        if opts.trace_out.is_none() {
            let p = PathBuf::from("profile.trace.json");
            match ChromeTraceSink::create(&p) {
                Ok(sink) => {
                    opts.telemetry = Telemetry::with_sink(Box::new(sink));
                    opts.trace_out = Some(p);
                }
                Err(e) => {
                    eprintln!("error: cannot create trace file `{}`: {e}", p.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        if opts.profile_json.is_none() {
            opts.profile_json = Some(PathBuf::from("profile.json"));
        }
    }

    // `run` and layer-wise `profile` execute the network on the CPU,
    // FC/softmax tail included; the accelerator commands — including
    // fused execution of an optimized strategy — map the convolutional
    // body only.
    let loaded = if cmd == "profile" {
        match &opts.network {
            Some(name) => zoo_network(name).and_then(|n| {
                if opts.fused {
                    n.conv_body().map_err(TaskError::from)
                } else {
                    Ok(n)
                }
            }),
            None if !path.is_empty() => {
                if opts.fused {
                    load_network(path)
                } else {
                    load_full_network(path)
                }
            }
            None => Err(TaskError::usage(
                "profile requires a model path or --network NAME",
            )),
        }
    } else if path.is_empty() {
        Err(TaskError::usage(format!(
            "the `{cmd}` command requires a model path"
        )))
    } else if cmd == "run" && !opts.fused {
        load_full_network(path)
    } else {
        load_network(path)
    };
    let net = match loaded {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {}", render_chain(&e));
            return ExitCode::from(e.exit_code());
        }
    };
    let result = match cmd {
        "info" => cmd_info(&net, &opts),
        "optimize" => cmd_optimize(&net, &opts),
        "curve" => cmd_curve(&net, &opts),
        "codegen" => cmd_codegen(&net, &opts),
        "simulate" => cmd_simulate(&net, &opts),
        "run" if opts.fused => cmd_run_fused(&net, &opts),
        "run" => cmd_run(&net, &opts),
        "profile" if opts.fused => cmd_profile_fused(&net, &opts),
        "profile" => cmd_profile(&net, &opts),
        "serve" => cmd_serve(&net, &opts),
        _ => {
            usage();
        }
    };
    let result = result.and_then(|()| finish_telemetry(&opts));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Full source chain on stderr, per-class exit code (see
            // `winofuse::error` for the documented map).
            eprintln!("error: {}", render_chain(&e));
            ExitCode::from(e.exit_code())
        }
    }
}
