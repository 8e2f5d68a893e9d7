//! Serving-path equivalence and amortization guarantees.
//!
//! The engine's whole value proposition is that batching and plan
//! caching are *transparent*: a frame served out of a coalesced batch on
//! a warm cache must be bit-identical to the same frame run one-shot,
//! and strategy search must run exactly once per configuration no
//! matter how much traffic follows. This suite pins both, across the
//! batch-size × thread-count grid.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use winofuse::{ServeConfig, ServeEngine, Ticket};
use winofuse_conv::tensor::{random_tensor, Tensor};
use winofuse_core::framework::Framework;
use winofuse_fpga::device::FpgaDevice;
use winofuse_model::network::Network;
use winofuse_model::runtime::NetworkWeights;
use winofuse_model::zoo;
use winofuse_runtime::faults::{install_quiet_panic_hook, FaultInjector};
use winofuse_telemetry::Telemetry;

fn body() -> (Network, NetworkWeights) {
    let net = zoo::small_test_net().conv_body().expect("conv body");
    let weights = NetworkWeights::random(&net, 7).expect("weights");
    (net, weights)
}

fn frame(seed: u64) -> Tensor<f32> {
    random_tensor(1, 3, 32, 32, seed)
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
            ServeConfig::default().precision,
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
/// search: `bnb.plans_computed` freezes and every request is a
/// `serve.plan_hits` lookup.
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
        "every post-warm batch must hit the cache (got {})",
        eng.plan_hits()
    );
    assert!(s.counter("serve.completed") >= 6);
    eng.shutdown().expect("clean shutdown");
}

/// Distinct configurations get distinct cache entries; re-requesting a
/// configuration hits its entry. (Key-collision coverage above the
/// `PlanCache` unit tests: two budgets through one engine-style cache.)
#[test]
fn distinct_budgets_are_distinct_plans() {
    use winofuse_core::cache::PlanCache;
    let (net, weights) = body();
    let (net, weights) = (Arc::new(net), Arc::new(weights));
    let telemetry = Telemetry::enabled();
    let fw = Framework::new(FpgaDevice::zc706()).with_threads(1);
    let cache = PlanCache::new(telemetry);
    let precision = ServeConfig::default().precision;
    for budget in [256 * 1024u64, 8 * 1024 * 1024] {
        let key = fw.plan_key(&net, &weights, budget, precision);
        for _ in 0..2 {
            cache
                .get_or_build(&key, || {
                    fw.plan_entry(Arc::clone(&net), Arc::clone(&weights), budget, precision)
                })
                .expect("plan builds");
        }
    }
    assert_eq!(cache.misses(), 2, "one build per budget");
    assert_eq!(cache.hits(), 2, "one hit per repeated budget");
    assert_eq!(cache.len(), 2);
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
    let bits = |t: &Tensor<f32>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
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
