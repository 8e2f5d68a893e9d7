//! Equivalence and reconciliation contract for plan-faithful fused
//! execution.
//!
//! For an optimized strategy, the fused runner must (a) produce the same
//! output as the layer-by-layer executor — bit for bit, in `f32` and in
//! fixed point — at every worker-thread count, and
//! (b) move *exactly* the DRAM bytes the DP budgeted for every fusion
//! group: group input + output feature maps plus each member's weight
//! stream (transformed α² coefficients where the strategy chose
//! Winograd), nothing more and nothing less. The paper's claim that
//! fusion keeps intermediate feature maps off DRAM is checked on the
//! wire, not assumed.

use proptest::prelude::*;
use winofuse::conv::fixed::Fix16;
use winofuse::conv::tensor::{random_tensor, Tensor};
use winofuse::core::framework::Framework;
use winofuse::model::layer::{ConvParams, PoolParams};
use winofuse::model::runtime::{forward_fix16, ExecAlgo, NetworkExecutor, NetworkWeights};
use winofuse::model::shape::FmShape;
use winofuse::model::zoo;
use winofuse::model::Network;
use winofuse::prelude::FpgaDevice;
use winofuse::runtime::faults::FaultMode;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Bit patterns of a tensor's values, so NaN and `-0.0` compare exactly.
fn bits(t: &Tensor<f32>) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The full contract for one network + budget: optimize, run fused in
/// strict mode, reconcile every group's DRAM traffic exactly, match the
/// executor in `f32` and `forward_fix16` bit for bit, and stay
/// bit-identical across `threads`.
fn check_strategy(
    net: &Network,
    budget_bytes: u64,
    max_group: usize,
    seed: u64,
    threads: &[usize],
) {
    let fw = Framework::new(FpgaDevice::zc706()).with_max_group_layers(max_group);
    let design = fw.optimize(net, budget_bytes).expect("optimize");
    let weights = NetworkWeights::random(net, seed).expect("weights");
    let shape = net.input_shape();
    let x = random_tensor(1, shape.channels, shape.height, shape.width, seed + 1);

    // f32: strict reconciliation on, per-group *exact* DRAM equality
    // asserted independently of the runner's own check.
    let runner = fw
        .fused_runner(net, &design, &weights)
        .expect("runner")
        .with_fault_mode(FaultMode::Strict)
        .with_threads(threads[0]);
    let report = runner.run(&x).expect("fused f32 run");
    assert_eq!(report.groups.len(), design.partition.groups.len());
    for (g, plan_group) in report.groups.iter().zip(&design.partition.groups) {
        let analytic = plan_group.timing.dram_fmap_bytes + plan_group.timing.dram_weight_bytes;
        assert_eq!(
            g.dram_bytes_read + g.dram_bytes_written,
            analytic,
            "group {}..{}: measured DRAM != DP budget",
            g.start,
            g.end
        );
    }

    let exec = NetworkExecutor::with_algo(net, &weights, ExecAlgo::Auto)
        .expect("executor")
        .with_threads(threads[0]);
    let reference = exec.run(&x).expect("executor run");
    assert_eq!(report.output.shape(), reference.shape());
    assert!(
        bits(&report.output) == bits(&reference),
        "fused f32 output is not bit-identical to the executor"
    );

    // Thread invariance: same bits at every count.
    for &t in &threads[1..] {
        let rt = fw
            .fused_runner(net, &design, &weights)
            .expect("runner")
            .with_fault_mode(FaultMode::Strict)
            .with_threads(t)
            .run(&x)
            .expect("fused f32 run");
        assert_eq!(
            report.output, rt.output,
            "thread count {t} changed the fused f32 result"
        );
    }

    // Fixed point: exact equality with the reference, and the identical
    // DRAM accounting (traffic is metered in Fixed16 either way).
    let xq: Tensor<Fix16> = x.cast();
    let gold = forward_fix16(net, &weights, &xq, threads[0]).expect("fix16 reference");
    let rq = fw
        .fused_runner(net, &design, &weights)
        .expect("runner")
        .with_fault_mode(FaultMode::Strict)
        .with_threads(threads[0])
        .run_fix16(&xq, &weights)
        .expect("fused fix16 run");
    assert_eq!(
        &rq.output,
        gold.last().expect("nonempty net"),
        "fused fix16 output is not bit-exact against forward_fix16"
    );
    assert_eq!(rq.groups, report.groups, "fix16 DRAM accounting differs");
}

/// §7.3's AlexNet experiment: under a 340 KB transfer budget the whole
/// 10-layer body fuses into one heterogeneous group (Table 2).
#[test]
fn alexnet_optimized_strategy_reconciles_and_matches() {
    let net = zoo::alexnet().conv_body().expect("alexnet body");
    check_strategy(&net, 340 * 1024, 10, 17, &THREADS);
}

/// VGG-E under a mid-range budget: the DP cuts the body into several
/// groups, so the seam feature maps round-trip through DRAM and every
/// group reconciles independently.
#[test]
fn vgg_e_optimized_strategy_reconciles_and_matches() {
    let net = zoo::vgg_e().conv_body().expect("vgg-e body");
    check_strategy(&net, 8 * 1024 * 1024, 8, 19, &[4]);
}

/// A tight budget on the small net forces multiple groups; a loose one
/// fuses everything. Both must reconcile.
#[test]
fn small_net_reconciles_under_loose_and_tight_budgets() {
    let net = zoo::small_test_net();
    check_strategy(&net, 8 * 1024 * 1024, 8, 23, &THREADS);
    check_strategy(&net, 60 * 1024, 8, 29, &THREADS);
}

/// Average pooling and LRN ride through the fused pipeline too.
#[test]
fn mixed_net_reconciles_and_matches() {
    let net = zoo::mixed_test_net();
    check_strategy(&net, 8 * 1024 * 1024, 8, 31, &THREADS);
}

/// Builds a small random-but-valid conv/pool network from a seed. Layer
/// parameters are derived with validity checks (shapes never collapse),
/// so every generated network optimizes and runs.
fn net_from_seed(seed: u64) -> Network {
    let mut s = seed;
    let mut next = move |m: u64| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) % m
    };
    let channels = 1 + next(4) as usize;
    let side = 12 + 2 * next(7) as usize;
    let mut b = Network::builder("prop", FmShape::new(channels, side, side));
    let layers = 2 + next(3);
    let mut h = side;
    for i in 0..layers {
        let kind = next(4);
        if kind == 3 && h >= 4 {
            b = b.pool(format!("p{i}"), PoolParams::max2x2());
            h /= 2;
        } else {
            // Kernel/stride drawn so the output stays at least 4 rows.
            let k = [1, 3, 5][next(3) as usize].min(h);
            let stride = if h / 2 >= k + 4 {
                1 + next(2) as usize
            } else {
                1
            };
            let pad = next(k as u64 / 2 + 1) as usize;
            let out_c = 2 + next(6) as usize;
            let relu = next(2) == 0;
            b = b.conv(
                format!("c{i}"),
                ConvParams::new(out_c, k, stride, pad, relu),
            );
            h = (h + 2 * pad - k) / stride + 1;
        }
        if h < 4 {
            break;
        }
    }
    b.build().expect("generated network is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random small networks, random budgets: the contract holds for
    /// whatever grouping the DP picks, at every thread count.
    #[test]
    fn random_networks_reconcile_and_match(
        seed in 0u64..10_000,
        tight in proptest::bool::ANY,
    ) {
        let net = net_from_seed(seed);
        // A tight budget (just above the fully-fused minimum) exercises
        // multi-group partitions; a loose one single-group fusion.
        let budget = if tight { 48 * 1024 } else { 8 * 1024 * 1024 };
        check_strategy(&net, budget, 8, seed ^ 0x5eed, &THREADS);
    }
}
