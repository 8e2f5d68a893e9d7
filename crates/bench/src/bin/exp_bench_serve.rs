//! **Serving benchmark** — throughput and tail latency of the serving
//! engine, which builds its plan once, against the one-shot-per-request
//! CLI baseline.
//!
//! Three execution regimes over the same conv body and weights:
//!
//! 1. **one-shot** — every request pays strategy search, filter
//!    transforms, and weight prepacking before running a single frame,
//!    exactly like invoking `winofuse run` per request;
//! 2. **serve (seq)** — a warm [`ServeEngine`] answering one frame per
//!    batch: the engine's one plan amortizes search and transforms,
//!    batching adds nothing;
//! 3. **serve (batched)** — the same engine at `--max-batch 8`,
//!    coalescing eight frames per invocation.
//!
//! Outputs of all three regimes are cross-checked bit-identical, a
//! queued load phase (client threads × submit/wait) populates the
//! request-latency percentiles, and the engine is pinned to exactly one
//! strategy search across every regime (`plan_search_once`). Writes
//! `BENCH_serve.json` for `bench_diff` to gate.
//!
//! ```text
//! exp_bench_serve [--smoke] [--runs N] [--threads N]
//!   --smoke      one run per regime (CI sanity mode)
//!   --runs N     timed repetitions per regime     [default 5]
//!   --threads N  executor worker threads          [default 4]
//! ```

use std::sync::Arc;
use std::time::Instant;

use winofuse::{ServeConfig, ServeEngine};
use winofuse_bench::{banner, BenchCase, BenchReport, LatencySamples};
use winofuse_conv::tensor::{random_tensor, Tensor};
use winofuse_core::framework::Framework;
use winofuse_fpga::device::FpgaDevice;
use winofuse_model::runtime::NetworkWeights;
use winofuse_model::zoo;
use winofuse_telemetry::Telemetry;

const MAX_BATCH: usize = 8;
const BUDGET_BYTES: u64 = 8 * 1024 * 1024;

fn frame(seed: u64) -> Tensor<f32> {
    random_tensor(1, 3, 32, 32, seed)
}

/// The one-shot baseline: a fresh plan build (strategy search + filter
/// transforms + prepacking) followed by a single-frame run, per request —
/// the cost structure of `winofuse run` invoked once per inference.
fn oneshot_request(
    threads: usize,
    net: &Arc<winofuse_model::network::Network>,
    weights: &Arc<NetworkWeights>,
    x: &Tensor<f32>,
) -> Tensor<f32> {
    let fw = Framework::new(FpgaDevice::zc706()).with_threads(threads);
    let entry = fw
        .plan_entry(Arc::clone(net), Arc::clone(weights), BUDGET_BYTES)
        .expect("one-shot plan builds");
    entry
        .executor()
        .expect("executor from prepared banks")
        .with_threads(threads)
        .run(x)
        .expect("one-shot run")
}

fn main() {
    let opts = winofuse_bench::parse_bench_args("exp_bench_serve", std::env::args().skip(1));
    let (runs, threads) = (opts.runs, opts.threads);

    banner(
        "BENCH serve",
        &format!(
            "plan-cached serving vs one-shot per request, batch {MAX_BATCH}, {threads} threads, median of {runs}"
        ),
        None,
    );

    let net = Arc::new(zoo::small_test_net().conv_body().expect("conv body"));
    let weights = Arc::new(NetworkWeights::random(&net, 7).expect("weights"));

    let telemetry = Telemetry::enabled();
    let fw = Framework::new(FpgaDevice::zc706())
        .with_threads(threads)
        .with_telemetry(telemetry.clone());
    let eng = ServeEngine::start(
        fw,
        (*net).clone(),
        (*weights).clone(),
        telemetry.clone(),
        ServeConfig {
            max_batch: MAX_BATCH,
            ..ServeConfig::default()
        },
    )
    .expect("engine starts");
    eng.warm().expect("plan warms");
    let searches_after_warm = telemetry.summary().counter("bnb.plans_computed");

    // --- regime 1: one-shot per request -------------------------------
    let oneshot = LatencySamples::new();
    let mut oneshot_out = None;
    for i in 0..runs {
        let x = frame(i as u64);
        let out = oneshot.time(|| oneshot_request(threads, &net, &weights, &x));
        if i == 0 {
            oneshot_out = Some(out);
        }
    }

    // --- regime 2: warm serve, one frame per batch ---------------------
    let seq = LatencySamples::new();
    let mut seq_out = None;
    for i in 0..runs {
        let frames = [frame(i as u64)];
        let mut out = seq.time(|| eng.run_batch_now(&frames).expect("serve seq"));
        if i == 0 {
            seq_out = Some(out.remove(0));
        }
    }

    // --- regime 3: warm serve, coalesced batches of MAX_BATCH ----------
    let batched = LatencySamples::new();
    let mut batched_out = None;
    let batch_started = Instant::now();
    for r in 0..runs {
        let frames: Vec<Tensor<f32>> = (0..MAX_BATCH).map(|i| frame(i as u64)).collect();
        let started = Instant::now();
        let outs = eng.run_batch_now(&frames).expect("serve batched");
        // Per-request latency: the batch amortizes over MAX_BATCH frames.
        batched.record_us(started.elapsed().as_micros() as u64 / MAX_BATCH as u64);
        if r == 0 {
            batched_out = Some(outs);
        }
    }
    let batch_elapsed = batch_started.elapsed();
    let throughput_rps = (runs * MAX_BATCH) as f64 / batch_elapsed.as_secs_f64();

    // All three regimes must agree bit-for-bit on frame 0.
    let reference = oneshot_out.expect("one-shot ran");
    assert_eq!(
        reference.as_slice(),
        seq_out.expect("seq ran").as_slice(),
        "serve(seq) diverged from the one-shot baseline"
    );
    let batched_out = batched_out.expect("batched ran");
    assert_eq!(
        reference.as_slice(),
        batched_out[0].as_slice(),
        "serve(batched) frame 0 diverged from the one-shot baseline"
    );

    // --- queued load phase: client threads through submit/wait ---------
    let total_requests: u64 = (runs as u64) * MAX_BATCH as u64;
    let concurrency = 4;
    let queued = LatencySamples::new();
    std::thread::scope(|scope| {
        let eng = &eng;
        let queued = &queued;
        for c in 0..concurrency {
            scope.spawn(move || {
                let mut i = c as u64;
                while i < total_requests {
                    let started = Instant::now();
                    match eng.submit(frame(i)) {
                        Ok(ticket) => {
                            ticket.wait().expect("queued request completes");
                            queued.record_us(started.elapsed().as_micros() as u64);
                            i += concurrency as u64;
                        }
                        Err(_) => std::thread::sleep(std::time::Duration::from_micros(200)),
                    }
                }
            });
        }
    });

    let searches_after_traffic = telemetry.summary().counter("bnb.plans_computed");
    let plan_search_once = searches_after_traffic == searches_after_warm && eng.plan_misses() == 1;
    let (hits, misses) = (eng.plan_hits(), eng.plan_misses());
    eng.shutdown().expect("clean shutdown");

    let speedup = oneshot.median_ms() / batched.median_ms();
    println!(
        "one-shot {:8.2} ms | serve seq {:8.2} ms | serve batched {:8.2} ms/req ({:4.2}x over one-shot)",
        oneshot.median_ms(),
        seq.median_ms(),
        batched.median_ms(),
        speedup,
    );
    println!(
        "throughput {throughput_rps:8.1} req/s | queued p50 {:.2} ms p95 {:.2} ms p99 {:.2} ms | plan cache {hits} hit(s), {misses} miss(es)",
        queued.median_ms(),
        queued.p95_ms(),
        queued.p99_ms(),
    );
    assert!(
        plan_search_once,
        "strategy search ran more than once across the serving regimes"
    );

    let mut report = BenchReport::new("serve", &opts);
    report.case(
        "small_net",
        BenchCase::default()
            .float("median_oneshot_ms", oneshot.median_ms())
            .float("median_serve_seq_ms", seq.median_ms())
            .float("median_serve_batched_ms", batched.median_ms())
            .float("speedup_batched_vs_oneshot", speedup)
            .float("throughput_rps", throughput_rps)
            .float("p50_request_ms", queued.median_ms())
            .float("p95_request_ms", queued.p95_ms())
            .float("p99_request_ms", queued.p99_ms())
            .flag("plan_search_once", plan_search_once),
    );
    let path = report.write().expect("write BENCH_serve.json");
    println!("wrote {}", path.display());
}
