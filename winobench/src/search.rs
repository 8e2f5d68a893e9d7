//! The `plan_search` workload: cold `Framework::optimize` on a fresh
//! framework for the two hardest search configurations.

use std::time::{Duration, Instant};

use winofuse::core::framework::Framework;
use winofuse::core::MAX_FUSION_LAYERS;
use winofuse::fpga::device::FpgaDevice;
use winofuse::model::network::Network;
use winofuse::model::zoo;
use winofuse::model::DataType;
use winofuse::telemetry::Telemetry;

use crate::host::process_cpu_s;
use crate::report::Phase;
use crate::trace::{span, Tracer, MAIN};
use crate::THREADS;

/// One search configuration and the design latency it must reach.
pub struct SearchCase {
    net: Network,
    budget_bytes: u64,
    max_group_layers: usize,
    expected_latency_cycles: u64,
}

/// The inputs of one pass, VGG-E first: the VGG-E conv body at 8 MB
/// under the 8-layer cap, then AlexNet's conv body at its fully fused
/// budget under the 10-layer cap (§7.3, Table 2). Building them is the
/// workload's set-up.
pub fn cases() -> [SearchCase; 2] {
    let vgg = zoo::vgg_e().conv_body().expect("vgg-e has a conv body");
    let alex = zoo::alexnet().conv_body().expect("alexnet has a conv body");
    let alex_budget = alex
        .fused_transfer_bytes(0..alex.len(), DataType::Fixed16)
        .expect("alexnet body fuses");
    [
        SearchCase {
            net: vgg,
            budget_bytes: 8 * 1024 * 1024,
            max_group_layers: MAX_FUSION_LAYERS,
            expected_latency_cycles: 10_377_406,
        },
        SearchCase {
            net: alex,
            budget_bytes: alex_budget,
            max_group_layers: 10,
            expected_latency_cycles: 1_252_744,
        },
    ]
}

/// Passes until `run_for` has elapsed (at least one). A pass searches
/// each case cold on a fresh framework; a search whose design misses its
/// expected latency is a failed operation, and only passes without one
/// count as answered.
pub fn passes(cases: &[SearchCase], run_for: Duration, tracer: Option<&Tracer>) -> Phase {
    let mut phase = Phase::default();
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    while phase.tally.attempted == 0 || start.elapsed() < run_for {
        let failed_before = phase.tally.failed;
        let t0 = Instant::now();
        for case in cases {
            let fw = Framework::new(FpgaDevice::zc706())
                .with_threads(THREADS)
                .with_max_group_layers(case.max_group_layers)
                .with_telemetry(tracer.map_or_else(Telemetry::disabled, |t| t.tele.clone()));
            let design = span(tracer, "Framework::optimize", MAIN, || {
                fw.optimize(&case.net, case.budget_bytes)
            });
            phase
                .tally
                .check(design.is_ok_and(|d| d.timing.latency == case.expected_latency_cycles));
        }
        if phase.tally.failed == failed_before {
            phase.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase.cpu_s = process_cpu_s() - cpu0;
    phase
}
