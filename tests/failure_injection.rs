//! Failure injection: the system must degrade loudly and correctly when
//! resources, bandwidth, or inputs are pathological.

use winofuse::core::bnb::{AlgoPolicy, GroupPlanner};
use winofuse::core::CoreError;
use winofuse::fusion::baseline;
use winofuse::prelude::*;

const MB: u64 = 1024 * 1024;

fn tiny_device(bram: u64, dsp: u64, ff: u64, lut: u64) -> FpgaDevice {
    FpgaDevice::new(
        "tiny",
        ResourceVec::new(bram, dsp, ff, lut),
        100_000_000,
        4_200_000_000,
    )
}

#[test]
fn zero_dsp_device_cannot_host_convolutions() {
    let net = winofuse::model::zoo::small_test_net();
    let dev = tiny_device(1090, 0, 437_200, 218_600);
    match GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous()) {
        Err(CoreError::InvalidRequest(msg)) => assert!(msg.contains("no feasible")),
        Err(other) => panic!("expected InvalidRequest, got {other:?}"),
        Ok(_) => panic!("expected failure on a zero-DSP device"),
    }
}

#[test]
fn one_dsp_device_still_maps_but_slowly() {
    let net = winofuse::model::zoo::small_test_net();
    let slow_dev = tiny_device(1090, 1, 437_200, 218_600);
    let fw = Framework::new(slow_dev);
    let slow = fw
        .optimize(&net, 32 * MB)
        .expect("p=1 engines always exist");
    let fast = Framework::new(FpgaDevice::zc706())
        .optimize(&net, 32 * MB)
        .unwrap();
    assert!(slow.timing.latency > 10 * fast.timing.latency);
    // Every engine must be the 1-lane conventional one.
    for l in slow.partition.strategy.layers() {
        assert_eq!(l.algorithm, Algorithm::Conventional);
    }
}

#[test]
fn starved_logic_budget_is_respected() {
    let net = winofuse::model::zoo::small_test_net();
    // Plenty of DSPs but almost no LUTs: engines must shrink to fit.
    let dev = tiny_device(1090, 900, 437_200, 9_000);
    let fw = Framework::new(dev.clone());
    let d = fw
        .optimize(&net, 32 * MB)
        .expect("small engines fit 9k LUTs");
    for g in &d.partition.groups {
        assert!(g.timing.resources.fits_within(dev.resources()));
    }
}

#[test]
fn bandwidth_starvation_turns_designs_bandwidth_bound() {
    let net = winofuse::model::zoo::vgg_e_fused_prefix();
    // 10 MB/s: a hundred times less than any compute rate.
    let dev = FpgaDevice::zc706().with_bandwidth(10_000_000);
    let fw = Framework::new(dev);
    let d = fw.optimize(&net, 4 * MB).unwrap();
    assert!(
        d.partition.groups.iter().any(|g| g.timing.bandwidth_bound),
        "somebody must hit the DRAM wall at 10 MB/s"
    );
    // And the whole design is far slower than on the real board.
    let normal = Framework::new(FpgaDevice::zc706())
        .optimize(&net, 4 * MB)
        .unwrap();
    assert!(d.timing.latency > 5 * normal.timing.latency);
}

#[test]
fn baseline_reports_infeasible_on_micro_bram() {
    let net = winofuse::model::zoo::vgg_e_fused_prefix();
    let dev = FpgaDevice::zc706().with_resources(ResourceVec::new(20, 900, 437_200, 218_600));
    assert!(baseline::design(&net, 0, net.len(), &dev).is_err());
}

#[test]
fn budget_exactly_at_minimum_is_feasible() {
    let net = winofuse::model::zoo::vgg_e_fused_prefix();
    let min = net
        .fused_transfer_bytes(0..net.len(), DataType::Fixed16)
        .unwrap();
    let fw = Framework::new(FpgaDevice::zc706());
    let at = fw
        .optimize(&net, min)
        .expect("budget == minimum is feasible");
    assert_eq!(at.timing.fmap_transfer_bytes, min);
    assert!(matches!(
        fw.optimize(&net, min - 1),
        Err(CoreError::Infeasible(_))
    ));
}

#[test]
fn max_group_of_one_forces_layer_by_layer() {
    let net = winofuse::model::zoo::small_test_net();
    let fw = Framework::new(FpgaDevice::zc706()).with_max_group_layers(1);
    let d = fw.optimize(&net, 32 * MB).unwrap();
    assert_eq!(d.partition.groups.len(), net.len());
    // With no fusion, transfer equals the unfused sum.
    assert_eq!(
        d.timing.fmap_transfer_bytes,
        net.unfused_transfer_bytes(0..net.len(), DataType::Fixed16)
            .unwrap()
    );
}

#[test]
fn fc_network_is_rejected_not_mangled() {
    let net = winofuse::model::zoo::alexnet(); // includes the FC head
    let fw = Framework::new(FpgaDevice::zc706());
    assert!(matches!(
        fw.optimize(&net, 32 * MB),
        Err(CoreError::InvalidRequest(_))
    ));
}

/// Weights that do not fit their network are a typed error at every
/// entry that takes them — never a silently wrong shape or a panic.
#[test]
fn mismatched_weights_are_a_typed_error_at_every_entry() {
    use winofuse::conv::fixed::Fix16;
    use winofuse::conv::tensor::{random_tensor, Tensor};
    use winofuse::model::layer::FcParams;
    use winofuse::model::runtime::{forward, forward_fix16, NetworkExecutor, NetworkWeights};
    use winofuse::model::ModelError;
    use winofuse::{ServeConfig, ServeEngine};

    let net = |input: FmShape, c2: ConvParams| {
        Network::builder("a", input)
            .conv("conv1", ConvParams::new(8, 3, 1, 1, true))
            .conv("conv2", c2)
            .build()
            .expect("network")
    };
    let shape = FmShape::new(3, 16, 16);
    let a = net(shape, ConvParams::new(8, 3, 1, 1, false));
    let good = NetworkWeights::random(&a, 1).expect("weights");
    let x = random_tensor(1, 3, 16, 16, 2);
    let xq: Tensor<Fix16> = x.cast();
    let fw = Framework::new(FpgaDevice::zc706()).with_threads(1);
    let design = fw.optimize(&a, 2 * MB).expect("optimize");
    let runner = fw.fused_runner(&a, &design, &good).expect("runner");
    let serve_rejects = |net: &Network, weights: NetworkWeights| match ServeEngine::start(
        fw.clone(),
        net.clone(),
        weights,
        Telemetry::disabled(),
        ServeConfig::default(),
    ) {
        Err(e) => assert_eq!(e.exit_code(), 3, "{e}"),
        Ok(_) => panic!("ServeEngine::start accepted weights of another network"),
    };
    let model_error = |r: Result<_, ModelError>| match r {
        Err(ModelError::Execution(msg)) => msg,
        Err(other) => panic!("expected an execution error, got {other:?}"),
        Ok(_) => panic!("weights of another network were accepted"),
    };

    let cases = [
        // The last conv has 5 outputs, not 8.
        net(shape, ConvParams::new(5, 3, 1, 1, false)),
        // The last conv is 5x5, not 3x3.
        net(shape, ConvParams::new(8, 5, 1, 2, false)),
        // The first conv reads 4 channels, not 3.
        net(FmShape::new(4, 16, 16), ConvParams::new(8, 3, 1, 1, false)),
        // One layer too few.
        Network::builder("a", shape)
            .conv("conv1", ConvParams::new(8, 3, 1, 1, true))
            .build()
            .expect("network"),
    ];
    for (i, other) in cases.iter().enumerate() {
        let bad = NetworkWeights::random(other, 1).expect("weights");
        let msg = model_error(forward(&a, &bad, &x).map(|_| ()));
        if i == 0 {
            assert!(
                msg.contains("layer 1 `conv2`")
                    && msg.contains("[8, 8, 3, 3]")
                    && msg.contains("[5, 8, 3, 3]"),
                "the error names the layer and both shapes: {msg}"
            );
        }
        model_error(forward_fix16(&a, &bad, &xq, 1).map(|_| ()));
        model_error(NetworkExecutor::new(&a, &bad).map(|_| ()));
        assert!(
            fw.fused_runner(&a, &design, &bad).is_err(),
            "case {i}: lowering accepted weights of another network"
        );
        assert!(
            matches!(
                runner.run_fix16(&xq, &bad),
                Err(winofuse::fusion::FusionError::Model(_))
            ),
            "case {i}: run_fix16 accepted weights of another network"
        );
        serve_rejects(&a, bad);
    }

    // FC weights are `num_output × in_features` with a bias of `num_output`.
    let fc_net = |outputs: usize| {
        Network::builder("fc", FmShape::new(3, 8, 8))
            .conv("conv1", ConvParams::new(4, 3, 1, 1, true))
            .fc(
                "fc1",
                FcParams {
                    num_output: outputs,
                    relu: false,
                },
            )
            .build()
            .expect("network")
    };
    let (fc10, bad) = (fc_net(10), NetworkWeights::random(&fc_net(12), 1).unwrap());
    let x = random_tensor(1, 3, 8, 8, 3);
    let msg = model_error(forward(&fc10, &bad, &x).map(|_| ()));
    assert!(msg.contains("layer 1 `fc1`"), "{msg}");
    model_error(NetworkExecutor::new(&fc10, &bad).map(|_| ()));
    serve_rejects(&fc10, bad);
}
