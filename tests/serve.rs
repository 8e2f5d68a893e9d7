//! Serving-path equivalence and amortization guarantees.
//!
//! The engine's whole value proposition is that batching and the
//! engine's one plan are *transparent*: a frame served out of a
//! coalesced batch on a warm engine must be bit-identical to the same
//! frame run one-shot, both execution modes must answer the plan's
//! network, and strategy search must run exactly once per engine no
//! matter how much traffic follows, or how concurrently it arrives. This
//! suite pins all three, across the batch-size × thread-count grid.

use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use winofuse::{ServeConfig, ServeEngine, Ticket};
use winofuse_conv::tensor::{random_tensor, Tensor};
use winofuse_core::bnb::AlgoPolicy;
use winofuse_core::framework::Framework;
use winofuse_fpga::device::FpgaDevice;
use winofuse_fpga::engine::Algorithm;
use winofuse_model::layer::ConvParams;
use winofuse_model::network::Network;
use winofuse_model::runtime::NetworkWeights;
use winofuse_model::shape::FmShape;
use winofuse_model::zoo;
use winofuse_runtime::faults::{install_quiet_panic_hook, FaultInjector, FaultMode};
use winofuse_telemetry::Telemetry;

fn body() -> (Network, NetworkWeights) {
    let net = zoo::small_test_net().conv_body().expect("conv body");
    let weights = NetworkWeights::random(&net, 7).expect("weights");
    (net, weights)
}

fn frame(seed: u64) -> Tensor<f32> {
    random_tensor(1, 3, 32, 32, seed)
}

fn bits(t: &Tensor<f32>) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One-shot reference: a fresh plan build + single-frame run, the cost
/// and code path of `winofuse run` invoked once.
fn oneshot(threads: usize, seeds: &[u64]) -> Vec<Tensor<f32>> {
    let (net, weights) = body();
    let fw = Framework::new(FpgaDevice::zc706()).with_threads(threads);
    let entry = fw
        .plan_entry(
            Arc::new(net),
            Arc::new(weights),
            ServeConfig::default().budget_bytes,
        )
        .expect("plan builds");
    seeds
        .iter()
        .map(|&s| {
            entry
                .executor()
                .expect("executor")
                .with_threads(threads)
                .run(&frame(s))
                .expect("one-shot run")
        })
        .collect()
}

/// Batched serve outputs are bit-identical to one-shot runs at every
/// batch size × thread count — the tentpole's equivalence acceptance
/// criterion.
#[test]
fn batched_serve_matches_oneshot_across_batch_and_threads() {
    let seeds: Vec<u64> = (0..8).collect();
    for threads in [1usize, 2, 4, 8] {
        let reference = oneshot(threads, &seeds);
        let (net, weights) = body();
        let telemetry = Telemetry::enabled();
        let fw = Framework::new(FpgaDevice::zc706())
            .with_threads(threads)
            .with_telemetry(telemetry.clone());
        let eng = ServeEngine::start(fw, net, weights, telemetry, ServeConfig::default())
            .expect("engine starts");
        eng.warm().expect("plan warms");
        for batch in [1usize, 2, 4, 8] {
            let mut served = Vec::new();
            for chunk in seeds.chunks(batch) {
                let frames: Vec<Tensor<f32>> = chunk.iter().map(|&s| frame(s)).collect();
                served.extend(eng.run_batch_now(&frames).expect("serve batch"));
            }
            for (i, (got, want)) in served.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "frame {i} diverged at batch {batch}, {threads} thread(s)"
                );
            }
        }
        eng.shutdown().expect("clean shutdown");
    }
}

/// After the warm-up build, no amount of traffic re-runs strategy
/// search: `bnb.plans_computed` freezes and every request reads the
/// built plan (`serve.plan_hits`).
#[test]
fn warm_cache_never_searches_again() {
    let (net, weights) = body();
    let telemetry = Telemetry::enabled();
    let fw = Framework::new(FpgaDevice::zc706())
        .with_threads(2)
        .with_telemetry(telemetry.clone());
    let eng = ServeEngine::start(fw, net, weights, telemetry.clone(), ServeConfig::default())
        .expect("engine starts");

    eng.warm().expect("plan warms");
    let searched = telemetry.summary().counter("bnb.plans_computed");
    assert!(searched > 0, "warm-up must actually run strategy search");
    assert_eq!(eng.plan_misses(), 1);

    // Mixed traffic: synchronous batches and queued submissions.
    for batch in [1usize, 4, 8] {
        let frames: Vec<Tensor<f32>> = (0..batch as u64).map(frame).collect();
        eng.run_batch_now(&frames).expect("serve batch");
    }
    let tickets: Vec<_> = (0..6)
        .map(|i| eng.submit(frame(i)).expect("submit"))
        .collect();
    for t in tickets {
        t.wait().expect("queued request completes");
    }

    let s = telemetry.summary();
    assert_eq!(
        s.counter("bnb.plans_computed"),
        searched,
        "traffic after warm-up re-ran strategy search"
    );
    assert_eq!(eng.plan_misses(), 1, "only the warm-up may miss");
    assert!(
        eng.plan_hits() >= 4,
        "every post-warm batch must read the built plan (got {})",
        eng.plan_hits()
    );
    assert!(s.counter("serve.completed") >= 6);
    eng.shutdown().expect("clean shutdown");
}

/// Concurrent first requests share one build: `warm()`, `run_batch_now`
/// and queued submissions race on a cold engine, the plan is built once,
/// the search runs as much as one warm-up's, and every answer equals
/// `run_batch_now`'s afterwards, bit for bit.
#[test]
fn concurrent_cold_requests_build_the_plan_once() {
    let start = |telemetry: &Telemetry| {
        let (net, weights) = body();
        let fw = Framework::new(FpgaDevice::zc706())
            .with_threads(2)
            .with_telemetry(telemetry.clone());
        ServeEngine::start(fw, net, weights, telemetry.clone(), ServeConfig::default())
            .expect("engine starts")
    };
    let one_warm_up = Telemetry::enabled();
    let eng = start(&one_warm_up);
    eng.warm().expect("plan warms");
    eng.shutdown().expect("clean shutdown");
    let searched = one_warm_up.summary().counter("bnb.plans_computed");
    assert!(searched > 0, "warm-up must actually run strategy search");

    let telemetry = Telemetry::enabled();
    let eng = start(&telemetry);
    let clients = 6u64;
    let barrier = Barrier::new(clients as usize);
    let answers: Vec<(u64, Tensor<f32>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let (eng, barrier) = (&eng, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    match i % 3 {
                        0 => {
                            eng.warm().expect("plan warms");
                            None
                        }
                        1 => {
                            let mut out = eng.run_batch_now(&[frame(i)]).expect("serve batch");
                            Some((i, out.remove(0)))
                        }
                        _ => {
                            let ticket = eng.submit(frame(i)).expect("submit");
                            Some((i, ticket.wait().expect("queued request completes")))
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(eng.plan_misses(), 1, "one build between the first requests");
    assert_eq!(
        telemetry.summary().counter("bnb.plans_computed"),
        searched,
        "concurrent first requests searched more than one warm-up"
    );
    assert_eq!(answers.len(), 4);
    for (seed, got) in &answers {
        let want = eng.run_batch_now(&[frame(*seed)]).expect("serve batch");
        assert_eq!(bits(got), bits(&want[0]), "frame {seed} diverged");
    }
    eng.shutdown().expect("clean shutdown");
}

/// Under a sparse policy the plan prunes a layer, and both execution
/// modes answer that pruned network: the batched executor and the fused
/// runner agree bit for bit, and both equal `validate_by_simulation`'s
/// fused output.
#[test]
fn both_serve_modes_answer_the_plans_network() {
    let net = Network::builder("two-conv", FmShape::new(3, 32, 32))
        .conv("conv1", ConvParams::new(32, 3, 1, 1, false))
        .conv("conv2", ConvParams::new(32, 3, 1, 1, false))
        .build()
        .expect("network");
    let weights = NetworkWeights::random(&net, 1).expect("weights");
    let budget_bytes = 2 * 1024 * 1024;
    let fw = Framework::new(FpgaDevice::zc706())
        .with_policy(AlgoPolicy::heterogeneous_sparse(250))
        .with_threads(2);
    let design = fw.optimize(&net, budget_bytes).expect("optimize");
    assert!(
        Framework::conv_algorithms(&net, &design)
            .iter()
            .any(|(_, a)| matches!(a, Algorithm::SparseWinograd { .. })),
        "the plan prunes a layer"
    );
    let x = frame(2);
    let (validated, _) = fw
        .validate_by_simulation(&net, &design, &weights, &x, 1e-3)
        .expect("design validates");
    let serve = |fused: bool| {
        let cfg = ServeConfig {
            fused,
            budget_bytes,
            ..ServeConfig::default()
        };
        let eng = ServeEngine::start(
            fw.clone(),
            net.clone(),
            weights.clone(),
            Telemetry::disabled(),
            cfg,
        )
        .expect("engine starts");
        let out = eng
            .run_batch_now(std::slice::from_ref(&x))
            .expect("serve batch");
        eng.shutdown().expect("clean shutdown");
        out.into_iter().next().expect("one answer")
    };
    let (executor, fused) = (serve(false), serve(true));
    assert_eq!(
        bits(&executor),
        bits(&fused),
        "the modes answer different networks"
    );
    assert_eq!(bits(&fused), bits(&validated));
}

/// A plan build that panics fails the batch that ran it, not the engine:
/// that ticket resolves to an error naming the panic, and the next
/// request builds the plan again and gets `run_batch_now`'s answer bit
/// for bit. Tickets are awaited with a deadline, so a dead worker fails
/// the test instead of hanging it.
#[test]
fn a_panicking_plan_build_fails_its_batch_not_the_engine() {
    install_quiet_panic_hook();
    let (net, weights) = body();
    let telemetry = Telemetry::enabled();
    let faults = FaultInjector::parse("panic@plan.build#1").expect("fault spec");
    let fw = Framework::new(FpgaDevice::zc706())
        .with_threads(1)
        .with_faults(faults);
    let eng = ServeEngine::start(fw, net, weights, telemetry.clone(), ServeConfig::default())
        .expect("engine starts");
    let resolve = |ticket: Ticket| {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(ticket.wait().map_err(|e| e.to_string())));
        rx.recv_timeout(Duration::from_secs(30))
            .expect("ticket resolves within 30 s")
    };

    let first = resolve(eng.submit(frame(1)).expect("submit"));
    let err = first.expect_err("the panicking build fails its batch");
    assert!(err.contains("injected fault at plan.build"), "{err}");

    let second = resolve(eng.submit(frame(2)).expect("submit")).expect("next build succeeds");
    let want = eng.run_batch_now(&[frame(2)]).expect("synchronous run");
    assert_eq!(bits(&second), bits(&want[0]));

    let s = telemetry.summary();
    assert_eq!(s.counter("serve.batch_panics"), 1);
    assert_eq!(
        (s.counter("serve.failed"), s.counter("serve.completed")),
        (1, 1)
    );
    assert_eq!(eng.plan_misses(), 2, "the failed build caches nothing");
    eng.shutdown().expect("clean shutdown");
}

/// The executor path runs with the framework's injector and fault mode,
/// like the fused path: a strict framework fails the faulted batch, and
/// a framework that sets no mode gets the engine default, lenient, which
/// answers it on the direct fallback.
#[test]
fn executor_path_takes_faults_and_mode_from_the_framework() {
    install_quiet_panic_hook();
    let serve = |mode: Option<FaultMode>| {
        let (net, weights) = body();
        let telemetry = Telemetry::enabled();
        let mut fw = Framework::new(FpgaDevice::zc706())
            .with_threads(2)
            .with_faults(FaultInjector::parse("panic@exec.conv2#1").expect("fault spec"));
        if let Some(mode) = mode {
            fw = fw.with_fault_mode(mode);
        }
        let eng = ServeEngine::start(fw, net, weights, telemetry.clone(), ServeConfig::default())
            .expect("engine starts");
        let answer = eng.run_batch_now(&[frame(1)]).map_err(|e| e.to_string());
        eng.shutdown().expect("clean shutdown");
        (answer, telemetry.summary().counter("exec.fallbacks"))
    };
    let (strict, _) = serve(Some(FaultMode::Strict));
    assert!(strict.is_err(), "a strict framework must fail the batch");
    let (lenient, fallbacks) = serve(None);
    assert!(lenient.is_ok(), "the default mode recovers: {lenient:?}");
    assert_eq!(fallbacks, 1);
}
