//! Fault-injection matrix: the degradation ladder must recover injected
//! faults without changing the answer.
//!
//! Lenient mode's contract is *semantic transparency*: a run that
//! absorbs panics, saturation events or DRAM-meter perturbations
//! produces output identical to the all-direct reference path — bitwise
//! for the executor (direct kernels are thread-count invariant) and for
//! the fixed-point fused runner, within float tolerance where the clean
//! baseline itself is only float-close — while the telemetry records
//! that the recovery actually happened (`pool.job_panics`,
//! `exec.fallbacks`). Strict mode must instead surface the typed error
//! taxonomy the CLI's exit codes are built on.

use winofuse::conv::fixed::Fix16;
use winofuse::conv::tensor::{random_tensor, Tensor};
use winofuse::core::framework::Framework;
use winofuse::model::layer::ConvParams;
use winofuse::model::runtime::{forward_fix16, ExecAlgo, NetworkExecutor, NetworkWeights};
use winofuse::model::shape::FmShape;
use winofuse::model::{zoo, LayerKind, ModelError, Network};
use winofuse::prelude::FpgaDevice;
use winofuse::runtime::faults::{install_quiet_panic_hook, FaultInjector, FaultMode};
use winofuse::telemetry::Telemetry;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Names of the conv layers the Auto executor runs on the Winograd path
/// (3x3, stride 1) — the layers whose primary attempt the matrix
/// sabotages. Injecting into *all* of them makes the recovered output
/// comparable bitwise against the all-direct executor.
fn wino_capable_layers(net: &Network) -> Vec<String> {
    net.layers()
        .iter()
        .filter_map(|l| match &l.kind {
            LayerKind::Conv(c) if c.kernel == 3 && c.stride == 1 => Some(l.name.clone()),
            _ => None,
        })
        .collect()
}

fn exec_with<'a>(
    net: &'a Network,
    weights: &'a NetworkWeights,
    algo: ExecAlgo,
    threads: usize,
) -> NetworkExecutor<'a> {
    NetworkExecutor::with_algo(net, weights, algo)
        .expect("executor")
        .with_threads(threads)
}

#[test]
fn pool_panic_fallback_matches_direct_executor_bitwise() {
    install_quiet_panic_hook();
    let net = zoo::small_test_net();
    let weights = NetworkWeights::random(&net, 11).expect("weights");
    let shape = net.input_shape();
    let x = random_tensor(1, shape.channels, shape.height, shape.width, 12);
    let wino = wino_capable_layers(&net);
    assert!(
        !wino.is_empty(),
        "test net must have winograd-capable convs"
    );
    // Every worker-pool job of every Winograd kernel stage panics; the
    // isolated pool reports a typed fault and the executor re-runs each
    // layer on the direct path.
    let spec: String = wino
        .iter()
        .map(|name| format!("panic@pool.{name}/wino.*#*"))
        .collect::<Vec<_>>()
        .join(",");
    for threads in THREADS {
        let reference = exec_with(&net, &weights, ExecAlgo::Direct, threads)
            .run(&x)
            .expect("direct reference");
        let tel = Telemetry::enabled();
        let faulty = exec_with(&net, &weights, ExecAlgo::Auto, threads)
            .with_telemetry(tel.clone())
            .with_faults(FaultInjector::parse(&spec).expect("spec"))
            .with_fault_mode(FaultMode::Lenient)
            .run(&x)
            .expect("lenient run must recover");
        assert_eq!(
            faulty, reference,
            "threads={threads}: recovered output must be bit-identical to the direct path"
        );
        let s = tel.summary();
        assert!(
            s.counter("pool.job_panics") > 0,
            "threads={threads}: panics must actually have been caught"
        );
        assert_eq!(
            s.counter("exec.fallbacks"),
            wino.len() as u64,
            "threads={threads}: one fallback per sabotaged layer"
        );
        assert_eq!(s.counter("exec.fallbacks.kernel_fault"), wino.len() as u64);
    }
}

#[test]
fn injected_saturation_falls_back_to_direct_bitwise() {
    let net = zoo::small_test_net();
    let weights = NetworkWeights::random(&net, 21).expect("weights");
    let shape = net.input_shape();
    let x = random_tensor(1, shape.channels, shape.height, shape.width, 22);
    let wino = wino_capable_layers(&net);
    let spec: String = wino
        .iter()
        .map(|name| format!("sat@exec.{name}#1"))
        .collect::<Vec<_>>()
        .join(",");
    let reference = exec_with(&net, &weights, ExecAlgo::Direct, 2)
        .run(&x)
        .expect("direct reference");
    let tel = Telemetry::enabled();
    let out = exec_with(&net, &weights, ExecAlgo::Auto, 2)
        .with_telemetry(tel.clone())
        .with_faults(FaultInjector::parse(&spec).expect("spec"))
        .with_fault_mode(FaultMode::Lenient)
        .run(&x)
        .expect("lenient run must recover");
    assert_eq!(out, reference);
    assert_eq!(
        tel.summary().counter("exec.fallbacks.saturation"),
        wino.len() as u64
    );
}

#[test]
fn strict_mode_surfaces_kernel_fault_with_layer_name() {
    install_quiet_panic_hook();
    let net = zoo::small_test_net();
    let weights = NetworkWeights::random(&net, 31).expect("weights");
    let shape = net.input_shape();
    let x = random_tensor(1, shape.channels, shape.height, shape.width, 32);
    let victim = &wino_capable_layers(&net)[0];
    let exec = exec_with(&net, &weights, ExecAlgo::Auto, 2)
        .with_faults(FaultInjector::parse(&format!("panic@pool.{victim}/wino.*#*")).expect("spec"))
        .with_fault_mode(FaultMode::Strict);
    match exec.run(&x) {
        Err(ModelError::KernelFault { layer, reason }) => {
            assert!(
                layer.contains(victim),
                "fault site `{layer}` must name the victim layer"
            );
            assert!(reason.contains("panicked"), "reason: {reason}");
        }
        other => panic!("expected KernelFault, got {other:?}"),
    }
}

/// The fallback counter's class comes from the fault, not from its
/// text: a pool panic in a layer *named* `saturation` is a kernel fault.
#[test]
fn fallback_class_ignores_the_layer_name() {
    install_quiet_panic_hook();
    let net = Network::builder("named", FmShape::new(3, 16, 16))
        .conv("saturation", ConvParams::vgg3x3(8))
        .build()
        .expect("one-layer net");
    let weights = NetworkWeights::random(&net, 81).expect("weights");
    let x = random_tensor(1, 3, 16, 16, 82);
    let tel = Telemetry::enabled();
    let out = exec_with(&net, &weights, ExecAlgo::Auto, 2)
        .with_telemetry(tel.clone())
        .with_faults(FaultInjector::parse("panic@pool.saturation/*#1").expect("spec"))
        .with_fault_mode(FaultMode::Lenient)
        .run(&x)
        .expect("lenient run must recover");
    let reference = exec_with(&net, &weights, ExecAlgo::Direct, 2)
        .run(&x)
        .expect("direct reference");
    assert_eq!(out, reference);
    let s = tel.summary();
    assert_eq!(s.counter("exec.fallbacks.kernel_fault"), 1);
    assert_eq!(s.counter("exec.fallbacks.saturation"), 0);
}

/// The fused matrix: DRAM-meter perturbation on every group forces every
/// group down the unfused rung; the output must stay equivalent to the
/// layer-by-layer executor and thread-count invariant, and fixed point
/// must stay bit-exact against `forward_fix16`.
#[test]
fn fused_dram_perturbation_degrades_every_group_transparently() {
    let net = zoo::small_test_net().conv_body().expect("conv body");
    let weights = NetworkWeights::random(&net, 51).expect("weights");
    let shape = net.input_shape();
    let x = random_tensor(1, shape.channels, shape.height, shape.width, 52);
    let fw = Framework::new(FpgaDevice::zc706());
    let design = fw.optimize(&net, 2 * 1024 * 1024).expect("optimize");

    let mut outputs: Vec<Tensor<f32>> = Vec::new();
    for threads in THREADS {
        let tel = Telemetry::enabled();
        let runner = fw
            .clone()
            .with_telemetry(tel.clone())
            .with_threads(threads)
            .with_faults(FaultInjector::parse("dram:4096@fused.dram*#*").expect("spec"))
            .with_fault_mode(FaultMode::Lenient)
            .fused_runner(&net, &design, &weights)
            .expect("runner");
        let report = runner.run(&x).expect("lenient fused run must recover");
        assert_eq!(
            report.fallbacks.len(),
            report.groups.len(),
            "threads={threads}: every group must have degraded"
        );
        let s = tel.summary();
        assert_eq!(s.counter("exec.fallbacks"), report.groups.len() as u64);
        assert!(s.counter("exec.fallbacks.dram_mismatch") > 0);

        let reference = exec_with(&net, &weights, ExecAlgo::Direct, threads)
            .run(&x)
            .expect("direct reference");
        let err = report
            .output
            .max_abs_diff(&reference)
            .expect("comparable shapes");
        assert!(
            err <= 1e-4,
            "threads={threads}: recovered fused output diverged ({err})"
        );
        outputs.push(report.output);
    }
    for w in outputs.windows(2) {
        assert_eq!(w[0], w[1], "recovered output must be thread-invariant");
    }

    // Fixed point: the fallback rung is the same exact wide-integer
    // datapath as `forward_fix16`, so recovery is bit-exact.
    let xq: Tensor<Fix16> = x.cast();
    let reference = forward_fix16(&net, &weights, &xq, 2).expect("fix16 reference");
    let runner = fw
        .clone()
        .with_threads(2)
        .with_faults(FaultInjector::parse("dram:4096@fused.dram*#*").expect("spec"))
        .with_fault_mode(FaultMode::Lenient)
        .fused_runner(&net, &design, &weights)
        .expect("runner");
    let report = runner.run_fix16(&xq, &weights).expect("lenient fix16 run");
    assert_eq!(report.fallbacks.len(), report.groups.len());
    assert_eq!(&report.output, reference.last().expect("nonempty"));
}

#[test]
fn fused_pool_panic_recovers_and_counts_both_ladder_levels() {
    install_quiet_panic_hook();
    let net = zoo::small_test_net().conv_body().expect("conv body");
    let weights = NetworkWeights::random(&net, 61).expect("weights");
    let shape = net.input_shape();
    let x = random_tensor(1, shape.channels, shape.height, shape.width, 62);
    let fw = Framework::new(FpgaDevice::zc706());
    let design = fw.optimize(&net, 2 * 1024 * 1024).expect("optimize");
    // Sabotage every Winograd kernel pool in every fused group.
    let tel = Telemetry::enabled();
    let runner = fw
        .clone()
        .with_telemetry(tel.clone())
        .with_threads(2)
        .with_faults(FaultInjector::parse("panic@pool.fused*#*").expect("spec"))
        .with_fault_mode(FaultMode::Lenient)
        .fused_runner(&net, &design, &weights)
        .expect("runner");
    let report = runner.run(&x).expect("lenient fused run must recover");
    assert!(!report.fallbacks.is_empty(), "at least one group degraded");
    let s = tel.summary();
    assert!(s.counter("pool.job_panics") > 0, "panics were caught");
    assert!(s.counter("exec.fallbacks") > 0, "fallbacks were recorded");
    let reference = exec_with(&net, &weights, ExecAlgo::Direct, 2)
        .run(&x)
        .expect("direct reference");
    let err = report
        .output
        .max_abs_diff(&reference)
        .expect("comparable shapes");
    assert!(err <= 1e-4, "recovered fused output diverged ({err})");
}

#[test]
fn strict_fused_surfaces_dram_mismatch_and_group_fault() {
    install_quiet_panic_hook();
    let net = zoo::small_test_net().conv_body().expect("conv body");
    let weights = NetworkWeights::random(&net, 71).expect("weights");
    let shape = net.input_shape();
    let x = random_tensor(1, shape.channels, shape.height, shape.width, 72);
    let fw = Framework::new(FpgaDevice::zc706());
    let design = fw.optimize(&net, 2 * 1024 * 1024).expect("optimize");
    let strict = |spec: &str| {
        fw.clone()
            .with_faults(FaultInjector::parse(spec).expect("spec"))
            .with_fault_mode(FaultMode::Strict)
            .fused_runner(&net, &design, &weights)
            .expect("runner")
    };
    match strict("dram:4096@fused.dram*#*").run(&x) {
        Err(winofuse::fusion::FusionError::DramMismatch { .. }) => {}
        other => panic!("expected DramMismatch, got {:?}", other.map(|_| ())),
    }
    match strict("panic@fused.group*#*").run(&x) {
        Err(winofuse::fusion::FusionError::GroupFault { reason, .. }) => {
            assert!(reason.contains("injected"), "reason: {reason}");
        }
        other => panic!("expected GroupFault, got {:?}", other.map(|_| ())),
    }
}
