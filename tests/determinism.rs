//! The parallel strategy search must be *bit-identical* to the serial
//! one: same designs, same search-tree counters, at any worker count.
//! This is the contract that makes `--threads N` safe to default on —
//! parallelism may only change wall-clock time and cache/scheduling
//! telemetry, never results.

use proptest::prelude::*;
use winofuse::core::bnb::{AlgoPolicy, GroupPlanner};
use winofuse::core::parallel::fill_plan_table;
use winofuse::model::layer::{ConvParams, PoolParams};
use winofuse::model::shape::DataType;
use winofuse::model::{zoo, ModularNetwork};
use winofuse::prelude::{
    FmShape, FpgaDevice, Framework, Network, OptimizedDesign, RunTelemetry, Telemetry,
};

const MB: u64 = 1024 * 1024;

/// Counters that must not depend on the worker count. Deliberately
/// excluded: `bnb.plan_cache_hits` (a prefilled table turns every DP
/// request into a hit, the lazy path only repeats) and `parallel.*`
/// (scheduling metadata that only exists in table mode).
const PINNED: &[&str] = &[
    "bnb.nodes_expanded",
    "bnb.pruned_bound",
    "bnb.pruned_resource",
    "bnb.pruned_floor",
    "bnb.leaves_evaluated",
    "bnb.incumbent_updates",
    "bnb.plans_computed",
    "bnb.menu_dominated",
    "dp.subproblems",
];

fn pinned_counters(run: &RunTelemetry) -> Vec<(&'static str, u64)> {
    PINNED.iter().map(|&k| (k, run.counter(k))).collect()
}

/// Runs `optimize` at every thread count and checks that the design and
/// every pinned counter match the single-threaded run.
fn assert_invariant_over_threads(optimize: impl Fn(usize) -> (OptimizedDesign, RunTelemetry)) {
    let (baseline, base_run) = optimize(1);
    let base_counters = pinned_counters(&base_run);
    for threads in [2usize, 4, 8] {
        let (design, run) = optimize(threads);
        assert_eq!(
            design, baseline,
            "{threads}-thread design differs from serial"
        );
        assert_eq!(
            pinned_counters(&run),
            base_counters,
            "{threads}-thread search counters differ from serial"
        );
    }
}

/// Optimizes `net` at every thread count and checks that the design and
/// every pinned counter match the single-threaded run.
fn assert_thread_invariant(net: &Network, budget: u64, max_group_layers: usize) {
    assert_invariant_over_threads(|threads| {
        Framework::new(FpgaDevice::zc706())
            .with_max_group_layers(max_group_layers)
            .with_threads(threads)
            .optimize_traced(net, budget)
            .expect("optimization must succeed")
    });
}

#[test]
fn vgg_e_is_thread_count_invariant() {
    let net = zoo::vgg_e().conv_body().expect("vgg-e has a conv body");
    assert_thread_invariant(&net, 8 * MB, winofuse::core::MAX_FUSION_LAYERS);
}

#[test]
fn alexnet_is_thread_count_invariant() {
    // The Table-2 configuration: the whole body fused under its minimal
    // budget, so the deepest (hardest) ranges are actually searched.
    let net = zoo::alexnet().conv_body().expect("alexnet has a conv body");
    let budget = net
        .fused_transfer_bytes(0..net.len(), DataType::Fixed16)
        .unwrap();
    assert_thread_invariant(&net, budget, net.len());
}

#[test]
fn single_cell_searches_are_thread_count_invariant() {
    // A plan table with one admissible range is one job on one worker, so
    // its search counters match the serial run's at every thread count:
    // a one-layer network, and a network optimized as a single module.
    let one_conv = Network::builder("one-conv", FmShape::new(3, 20, 20))
        .conv("conv", ConvParams::new(6, 3, 1, 1, true))
        .build()
        .expect("one-conv net is valid");
    assert_thread_invariant(&one_conv, 8 * MB, winofuse::core::MAX_FUSION_LAYERS);

    let net = zoo::small_test_net();
    let n = net.len();
    let whole = std::iter::once(0..n).collect();
    let one_module = ModularNetwork::new(net, whole).expect("one module tiles the net");
    assert_invariant_over_threads(|threads| {
        let tele = Telemetry::enabled();
        let design = Framework::new(FpgaDevice::zc706())
            .with_threads(threads)
            .with_telemetry(tele.clone())
            .optimize_modular(&one_module, 8 * MB)
            .expect("one-module optimization must succeed");
        (design, tele.summary())
    });
}

#[test]
fn single_range_table_matches_serial() {
    // `Some(&[])` forbids interior cuts, leaving exactly one admissible
    // range: the table runs it as one job on one worker.
    let net = zoo::small_test_net();
    let dev = FpgaDevice::zc706();
    let planner = GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous()).unwrap();
    let stats = fill_plan_table(&planner, net.len(), Some(&[]), 4).unwrap();
    assert_eq!(stats.ranges, 1);
    let table = planner.plan_shared(0..net.len()).expect("cached plan");

    let mut serial = GroupPlanner::new(&net, &dev, AlgoPolicy::heterogeneous()).unwrap();
    assert_eq!(table, serial.plan(0..net.len()).expect("serial plan"));
}

/// Deterministic slice of one layer's profile: everything the profiler
/// derives analytically (work, traffic, job geometry) — never the
/// wall-clock fields, which are allowed to move.
fn pinned_profile(p: &winofuse::model::runtime::LayerProfile) -> (String, &'static str, [u64; 10]) {
    (
        p.name.clone(),
        p.algo,
        [
            p.model_ops,
            p.conv.flops_scatter,
            p.conv.flops_gemm,
            p.conv.flops_gather,
            p.conv.bytes_scatter,
            p.conv.bytes_gemm,
            p.conv.bytes_gather,
            p.conv.gemm_calls,
            p.conv.tiles,
            p.conv.bytes_packed,
        ],
    )
}

#[test]
fn profiled_execution_counters_are_thread_count_invariant() {
    // The profiler's analytic quantities (FLOPs, bytes, GEMM calls,
    // tiles, pool job counts) must be bit-identical at any worker
    // count — only the ns fields may differ. This is what makes a
    // 1-thread profile comparable against an 8-thread one.
    use winofuse::conv::tensor::random_tensor;
    use winofuse::model::runtime::{ExecAlgo, NetworkExecutor, NetworkWeights};

    let net = zoo::small_test_net();
    let weights = NetworkWeights::random(&net, 7).expect("weights");
    let shape = net.input_shape();
    let x = random_tensor(1, shape.channels, shape.height, shape.width, 9);

    let run = |threads: usize| {
        let tele = Telemetry::enabled();
        let exec = NetworkExecutor::with_algo(&net, &weights, ExecAlgo::Auto)
            .expect("executor")
            .with_threads(threads)
            .with_telemetry(tele.clone());
        let (out, profiles) = exec.run_profiled(&x).expect("profiled run");
        let pinned: Vec<_> = profiles.iter().map(pinned_profile).collect();
        let s = tele.summary();
        let counters = [
            ("pool.jobs", s.counter("pool.jobs")),
            ("conv.gemm_calls", s.counter("conv.gemm_calls")),
            ("conv.tiles", s.counter("conv.tiles")),
            ("conv.bytes_packed", s.counter("conv.bytes_packed")),
        ];
        (out, pinned, counters)
    };

    let (base_out, base_pinned, base_counters) = run(1);
    assert!(base_counters.iter().all(|&(_, v)| v > 0));
    for threads in [2usize, 4, 8] {
        let (out, pinned, counters) = run(threads);
        assert_eq!(out, base_out, "{threads}-thread output differs");
        assert_eq!(
            pinned, base_pinned,
            "{threads}-thread layer profiles differ from serial"
        );
        assert_eq!(
            counters, base_counters,
            "{threads}-thread telemetry counters differ from serial"
        );
    }
}

#[test]
fn winograd_schedules_agree_on_profile_and_output() {
    // The tile-block (fused, one pool invocation) and transform-point
    // (three barrier phases) schedules are two partitionings of the same
    // arithmetic: outputs must be bit-identical and every analytic
    // profile quantity (FLOPs, algorithm-level bytes, tiles) must match
    // exactly — phase accounting is computed from the layer shape, never
    // from the job structure. Only ns fields and gemm-call/packed-byte
    // counts (which follow the job grain by design) may differ.
    use winofuse::conv::cook_toom::f43;
    use winofuse::conv::gemm::ConvStats;
    use winofuse::conv::tensor::random_tensor;
    use winofuse::conv::winograd::{self, BatchedFilters, BatchedOptions, WinoSchedule};
    use winofuse::conv::ConvGeometry;
    use winofuse::runtime::PoolProfiler;

    let geom = ConvGeometry::rect(33, 27, 3, 1, 1).unwrap();
    let x = random_tensor(2, 6, 33, 27, 401);
    let k = random_tensor(10, 6, 3, 3, 402);
    let t = f43();
    let filters = BatchedFilters::new(&k, &t).unwrap();
    let prof = PoolProfiler::disabled();

    let run = |schedule: WinoSchedule, threads: usize| {
        let stats = ConvStats::new();
        let opts = BatchedOptions {
            schedule,
            kernel: None,
        };
        let out = winograd::conv2d_batched_ext(
            &x,
            &filters,
            geom,
            &t,
            false,
            threads,
            Some(&stats),
            &prof,
            opts,
        )
        .unwrap();
        (out, stats.profile())
    };

    let (base_out, base_prof) = run(WinoSchedule::TransformPoint, 1);
    for schedule in [WinoSchedule::TransformPoint, WinoSchedule::TileBlock] {
        for threads in [1usize, 2, 4, 8] {
            let (out, p) = run(schedule, threads);
            assert_eq!(out, base_out, "{schedule:?} @ {threads} threads differs");
            let pinned = |p: &winofuse::conv::gemm::ConvProfile| {
                [
                    p.flops_scatter,
                    p.flops_gemm,
                    p.flops_gather,
                    p.bytes_scatter,
                    p.bytes_gemm,
                    p.bytes_gather,
                    p.tiles,
                ]
            };
            assert_eq!(
                pinned(&p),
                pinned(&base_prof),
                "{schedule:?} @ {threads} threads: analytic profile differs"
            );
        }
    }
}

/// Strategy for random small CNNs (the same shape family as
/// `optimizer_properties.rs`): 1–3 convs over a 3-channel input, maybe a
/// trailing pool.
fn arb_network() -> impl Strategy<Value = Network> {
    let conv = (1usize..4, 0usize..3, prop::bool::ANY).prop_map(|(kz, st, relu)| {
        let kernel = [1, 3, 5][kz % 3];
        let stride = st + 1;
        (kernel, stride, relu)
    });
    (
        8usize..24,
        2usize..8,
        prop::collection::vec(conv, 1..4),
        prop::bool::ANY,
    )
        .prop_filter_map("buildable network", |(hw, ch, convs, pool)| {
            let mut b = Network::builder("prop-net", FmShape::new(3, hw, hw));
            for (i, (kernel, stride, relu)) in convs.iter().enumerate() {
                let pad = kernel / 2;
                b = b.conv(
                    format!("conv{i}"),
                    ConvParams::new(ch * (i + 1), *kernel, *stride, pad, *relu),
                );
            }
            if pool {
                b = b.pool("pool", PoolParams::max2x2());
            }
            b.build().ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_networks_are_thread_count_invariant(net in arb_network(), budget_mb in 1u64..8) {
        let budget = budget_mb * MB;
        let serial = Framework::new(FpgaDevice::zc706()).with_threads(1);
        let parallel = Framework::new(FpgaDevice::zc706()).with_threads(7);
        match (serial.optimize_traced(&net, budget), parallel.optimize_traced(&net, budget)) {
            (Ok((d1, r1)), Ok((d7, r7))) => {
                prop_assert_eq!(d1, d7);
                prop_assert_eq!(pinned_counters(&r1), pinned_counters(&r7));
            }
            (Err(_), Err(_)) => {} // infeasible budgets must agree too
            (s, p) => prop_assert!(false, "feasibility disagrees: serial {:?} vs parallel {:?}",
                                   s.is_ok(), p.is_ok()),
        }
    }
}
