//! Cross-crate integration: the full tool-flow from prototxt to verified
//! HLS project, with functional validation through the fused runner.

use winofuse::codegen::check::verify_project;
use winofuse::conv::tensor::Tensor;
use winofuse::model::prototxt;
use winofuse::model::runtime::{forward, ExecAlgo, NetworkExecutor, NetworkWeights};
use winofuse::prelude::*;
use winofuse::runtime::faults::FaultMode;

const MB: u64 = 1024 * 1024;

const DEMO_PROTOTXT: &str = r#"
name: "it-net"
input_shape { channels: 3 height: 32 width: 32 }
layer {
  name: "conv1"
  type: "Convolution"
  convolution_param { num_output: 8 kernel_size: 3 stride: 1 pad: 1 }
}
layer { name: "relu1" type: "ReLU" }
layer {
  name: "pool1"
  type: "Pooling"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 }
}
layer {
  name: "conv2"
  type: "Convolution"
  convolution_param { num_output: 16 kernel_size: 3 stride: 1 pad: 1 }
}
"#;

#[test]
fn prototxt_to_verified_hls_project() {
    let net = prototxt::parse(DEMO_PROTOTXT).expect("demo prototxt parses");
    assert_eq!(net.len(), 3, "relu folds into conv1");

    let fw = Framework::new(FpgaDevice::zc706());
    let design = fw.optimize(&net, 4 * MB).expect("optimization succeeds");

    let project = HlsProject::generate(&net, &design).expect("codegen succeeds");
    let stats = verify_project(&net, &design, &project).expect("pragmas consistent");
    assert_eq!(stats.dataflow, design.partition.groups.len());
}

/// Streams `input` through every fusion group of `design` with the
/// design's fused runner and checks each group's output against layer
/// `end − 1` of the unfused reference within `tol`.
fn assert_groups_match_reference(
    net: &Network,
    design: &OptimizedDesign,
    weights: &NetworkWeights,
    input: Tensor<f32>,
    tol: f32,
) {
    let reference = forward(net, weights, &input).unwrap();
    let runner = Framework::new(FpgaDevice::zc706())
        .fused_runner(net, design, weights)
        .expect("runner lowers")
        .with_fault_mode(FaultMode::Strict);
    let mut cur = input;
    for group in runner.groups() {
        let out = group.run(&cur).expect("group runs").output;
        let gold = &reference[group.end() - 1];
        assert!(
            out.approx_eq(gold, tol),
            "group {}..{} diverges: {}",
            group.start(),
            group.end(),
            out.max_abs_diff(gold).unwrap()
        );
        cur = out;
    }
}

#[test]
fn optimized_strategy_is_functionally_correct() {
    // Run every fusion group of an optimized design through the fused
    // runner and compare against unfused reference execution — the
    // strategy must be functionally transparent.
    let net = prototxt::parse(DEMO_PROTOTXT).unwrap();
    let design = Framework::new(FpgaDevice::zc706())
        .optimize(&net, 4 * MB)
        .unwrap();
    let weights = NetworkWeights::random(&net, 99).unwrap();
    let input = winofuse::conv::tensor::random_tensor(1, 3, 32, 32, 100);
    assert_groups_match_reference(&net, &design, &weights, input, 1e-4);
}

#[test]
fn sparse_plan_is_validated_against_a_reference_pruned_like_the_plan() {
    // Two 3x3 convs; the sparse policy plans conv2 as sparse Winograd at
    // 250 per mille, so the fused values are the pruned network's, not
    // the dense forward's.
    let net = Network::builder("two-conv", FmShape::new(3, 32, 32))
        .conv("conv1", ConvParams::new(32, 3, 1, 1, false))
        .conv("conv2", ConvParams::new(32, 3, 1, 1, false))
        .build()
        .unwrap();
    let fw = Framework::new(FpgaDevice::zc706())
        .with_policy(AlgoPolicy::heterogeneous_sparse(250))
        .with_threads(2);
    let design = fw.optimize(&net, 2 * MB).unwrap();
    assert!(
        Framework::conv_algorithms(&net, &design)
            .iter()
            .any(|(_, a)| matches!(a, Algorithm::SparseWinograd { .. })),
        "the plan prunes a layer"
    );
    let weights = NetworkWeights::random(&net, 1).unwrap();
    let x = winofuse::conv::tensor::random_tensor(1, 3, 32, 32, 2);
    let (out, groups) = fw
        .validate_by_simulation(&net, &design, &weights, &x, 1e-3)
        .unwrap();
    assert!(groups.iter().all(|g| g.max_abs_err == 0.0));
    let (prepared, _) = fw.lower(&net, &design, &weights).unwrap();
    let pruned = NetworkExecutor::from_prepared(&net, prepared)
        .unwrap()
        .with_threads(2)
        .run(&x)
        .unwrap();
    let bits = |t: &Tensor<f32>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&out), bits(&pruned));
    let dense = forward(&net, &weights, &x).unwrap().remove(1);
    assert!(
        out.max_abs_diff(&dense).unwrap() > 1e-2,
        "pruned output must differ from the dense forward"
    );
}

#[test]
fn heterogeneous_dominates_homogeneous_across_budgets() {
    let net = winofuse::model::zoo::vgg_e_fused_prefix();
    let dev = FpgaDevice::zc706();
    for budget in [2 * MB, 4 * MB] {
        let hetero = Framework::new(dev.clone()).optimize(&net, budget).unwrap();
        for policy in [
            AlgoPolicy::conventional_only(),
            AlgoPolicy::winograd_preferred(),
        ] {
            let homo = Framework::new(dev.clone())
                .with_policy(policy)
                .optimize(&net, budget)
                .unwrap();
            assert!(
                hetero.timing.latency <= homo.timing.latency,
                "hetero {} vs {:?} {} at {budget}",
                hetero.timing.latency,
                policy,
                homo.timing.latency
            );
        }
    }
}

#[test]
fn framework_beats_alwani_baseline_on_vgg_prefix() {
    // The headline comparison (Fig. 5): our framework vs the tile-based
    // fused-layer accelerator, same device, same data type.
    let net = winofuse::model::zoo::vgg_e_fused_prefix();
    let dev = FpgaDevice::zc706();
    let alwani = winofuse::fusion::baseline::design(&net, 0, net.len(), &dev).unwrap();
    let fw = Framework::new(dev);
    let mut speedups = Vec::new();
    for budget in [2, 3, 4, 5, 6].map(|m| m * MB) {
        let ours = fw.optimize(&net, budget).unwrap();
        let s = alwani.latency as f64 / ours.timing.latency as f64;
        assert!(
            s > 1.0,
            "must beat the baseline at {budget} B (got {s:.2}x)"
        );
        speedups.push(s);
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    // The paper reports 1.42x–3.85x (avg 1.99x); our models land in the
    // same regime — assert a generous band around it.
    assert!(
        (1.2..8.0).contains(&avg),
        "average speedup {avg:.2}x out of band"
    );
}

#[test]
fn resources_fit_device_in_every_group() {
    let net = winofuse::model::zoo::vgg_e_fused_prefix();
    let dev = FpgaDevice::zc706();
    let design = Framework::new(dev.clone()).optimize(&net, 2 * MB).unwrap();
    for plan in &design.partition.groups {
        assert!(
            plan.timing.resources.fits_within(dev.resources()),
            "group {}..{} overflows: {}",
            plan.start,
            plan.end,
            plan.timing.resources
        );
    }
}

#[test]
fn transfer_budget_is_respected_and_binding() {
    let net = winofuse::model::zoo::vgg_e_fused_prefix();
    let fw = Framework::new(FpgaDevice::zc706());
    let tight = fw.optimize(&net, 2 * MB).unwrap();
    assert!(tight.timing.fmap_transfer_bytes <= 2 * MB);
    // A loose budget must unlock at least as much transfer (and no more
    // latency).
    let loose = fw.optimize(&net, 16 * MB).unwrap();
    assert!(loose.timing.fmap_transfer_bytes >= tight.timing.fmap_transfer_bytes);
    assert!(loose.timing.latency <= tight.timing.latency);
}

#[test]
fn winograd_chosen_for_eligible_layers_conventional_for_strided() {
    // AlexNet §7.3: conv1 (11x11 stride 4) must be conventional; the
    // 3x3/5x5 stride-1 layers should use Winograd when it pays off.
    let net = winofuse::model::zoo::alexnet().conv_body().unwrap();
    let fw = Framework::new(FpgaDevice::zc706()).with_max_group_layers(10);
    let budget = net
        .fused_transfer_bytes(0..net.len(), DataType::Fixed16)
        .unwrap();
    let design = fw.optimize(&net, budget).unwrap();
    let algos = Framework::conv_algorithms(&net, &design);
    assert_eq!(algos[0].1, Algorithm::Conventional, "conv1 is strided");
    assert!(
        algos
            .iter()
            .any(|(_, a)| matches!(a, Algorithm::Winograd { .. })),
        "some layer must use winograd"
    );
    assert!(design.partition.strategy.is_heterogeneous());
}

#[test]
fn grouped_convolutions_are_functionally_transparent() {
    // A grouped net (AlexNet-style group: 2) run through the fused
    // runner must match the reference, and the executor's Winograd path
    // must agree with it on the grouped layers.
    use winofuse::model::layer::PoolParams;
    let net = Network::builder("grouped", FmShape::new(4, 20, 20))
        .conv("c1", ConvParams::new(8, 3, 1, 1, true))
        .conv("c2", ConvParams::new(8, 3, 1, 1, true).with_groups(2))
        .pool("p1", PoolParams::max2x2())
        .conv("c3", ConvParams::new(16, 3, 1, 1, false).with_groups(4))
        .build()
        .unwrap();
    let weights = NetworkWeights::random(&net, 5).unwrap();
    let x = winofuse::conv::tensor::random_tensor(1, 4, 20, 20, 6);
    let direct = forward(&net, &weights, &x).unwrap();
    // Winograd path on the grouped layers.
    let wino = NetworkExecutor::with_algo(&net, &weights, ExecAlgo::Winograd)
        .unwrap()
        .run_all(&x)
        .unwrap();
    for (a, b) in direct.iter().zip(&wino) {
        assert!(a.approx_eq(b, 1e-2), "winograd grouped diverges");
    }
    // Fused execution.
    let design = Framework::new(FpgaDevice::zc706())
        .optimize(&net, 8 * MB)
        .unwrap();
    assert_groups_match_reference(&net, &design, &weights, x, 1e-4);
}

#[test]
fn alexnet_grouped_macs_match_published_count() {
    // With Caffe's group:2 on conv2/4/5, the conv body lands at the
    // published ~0.66 GMACs per frame.
    let body = winofuse::model::zoo::alexnet().conv_body().unwrap();
    let gmacs = body.total_macs() as f64 / 1e9;
    assert!((0.6..0.75).contains(&gmacs), "AlexNet body GMACs = {gmacs}");
}
