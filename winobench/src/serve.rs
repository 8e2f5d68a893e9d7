//! The two serving workloads: a warm `ServeEngine` driven closed loop by
//! client threads, every answer checked against a precomputed executor
//! run of the same frame.

use std::time::{Duration, Instant};

use winofuse::conv::tensor::{random_tensor, Tensor};
use winofuse::core::framework::Framework;
use winofuse::fpga::device::FpgaDevice;
use winofuse::model::network::Network;
use winofuse::model::runtime::{ExecAlgo, NetworkExecutor, NetworkWeights};
use winofuse::model::zoo;
use winofuse::runtime::faults::FaultMode;
use winofuse::telemetry::Telemetry;
use winofuse::{ServeConfig, ServeEngine};

use crate::host::process_cpu_s;
use crate::report::{Phase, Tally};
use crate::trace::{span, At, Tracer, MAIN};
use crate::THREADS;

/// Weight seeds are fixed: the workload seed varies only the frames.
pub const ALEXNET_WEIGHT_SEED: u64 = 7;
pub const VGG_WEIGHT_SEED: u64 = 11;

/// A served network with its engine configuration, a seeded pool of
/// request frames, and the expected answer for each frame.
pub struct Served {
    pub net: Network,
    pub weights: NetworkWeights,
    pub cfg: ServeConfig,
    /// Strict fault mode on the framework: every fused frame must
    /// reconcile its DRAM traffic exactly or its ticket errors.
    strict: bool,
    /// Closed-loop client threads.
    clients: usize,
    frames: Vec<Tensor<f32>>,
    expected: Vec<Tensor<f32>>,
    /// `None`: answers must be bit-identical to the expected output.
    tolerance: Option<f32>,
}

/// Request frames of `net`'s input shape, generated from the workload
/// seed.
pub fn seeded_frames(net: &Network, seed: u64, count: usize) -> Vec<Tensor<f32>> {
    let s = net.input_shape();
    (0..count as u64)
        .map(|k| random_tensor(1, s.channels, s.height, s.width, (seed << 8) | k))
        .collect()
}

impl Served {
    /// `serve_alexnet`: AlexNet's conv body on the default engine
    /// configuration (batched executor, `max_batch` 8, 2 ms window, 8 MB
    /// budget), two clients, answers bit-identical to single-frame runs.
    pub fn alexnet(seed: u64) -> Self {
        let net = zoo::alexnet().conv_body().expect("alexnet has a conv body");
        Served {
            weights: NetworkWeights::random(&net, ALEXNET_WEIGHT_SEED).expect("alexnet weights"),
            frames: seeded_frames(&net, seed, 8),
            net,
            cfg: ServeConfig::default(),
            strict: false,
            clients: 2,
            expected: Vec::new(),
            tolerance: None,
        }
        .with_expected_answers()
    }

    /// `fused_vgg_prefix`: the 7-layer VGG-E prefix on the fused runner
    /// at 2 MB (one fusion group), strict DRAM reconciliation, one
    /// client, answers within 1e-3 of the executor.
    pub fn vgg_prefix(seed: u64) -> Self {
        let net = zoo::vgg_e_fused_prefix();
        Served {
            weights: NetworkWeights::random(&net, VGG_WEIGHT_SEED).expect("vgg prefix weights"),
            frames: seeded_frames(&net, seed, 4),
            net,
            cfg: ServeConfig {
                fused: true,
                budget_bytes: 2 * 1024 * 1024,
                ..ServeConfig::default()
            },
            strict: true,
            clients: 1,
            expected: Vec::new(),
            tolerance: Some(1e-3),
        }
        .with_expected_answers()
    }

    /// Precomputes each frame's answer with a single-frame executor run.
    fn with_expected_answers(mut self) -> Self {
        let exec = NetworkExecutor::with_algo(&self.net, &self.weights, ExecAlgo::Auto)
            .expect("reference executor")
            .with_threads(THREADS);
        self.expected = self
            .frames
            .iter()
            .map(|f| exec.run(f).expect("reference run"))
            .collect();
        self
    }

    /// A fresh framework for this workload, threads pinned, reporting
    /// into `tele`.
    pub fn framework(&self, tele: Telemetry) -> Framework {
        let fw = Framework::new(FpgaDevice::zc706())
            .with_threads(THREADS)
            .with_telemetry(tele);
        if self.strict {
            fw.with_fault_mode(FaultMode::Strict)
        } else {
            fw
        }
    }

    /// Cold start: `ServeEngine::start` plus `warm()` (strategy search,
    /// plan lowering, filter transforms). Returns the warm engine and the
    /// wall seconds the start took.
    ///
    /// # Panics
    ///
    /// Panics when the engine cannot start: the workload cannot run.
    pub fn start(&self, tele: Telemetry, tracer: Option<&Tracer>) -> (ServeEngine, f64) {
        let (net, weights, cfg) = (self.net.clone(), self.weights.clone(), self.cfg.clone());
        let fw = self.framework(tele.clone());
        let t0 = Instant::now();
        let engine = span(tracer, "ServeEngine::start", MAIN, || {
            ServeEngine::start(fw, net, weights, tele, cfg)
        })
        .expect("engine starts");
        span(tracer, "ServeEngine::warm", MAIN, || engine.warm()).expect("plan warms");
        (engine, t0.elapsed().as_secs_f64())
    }

    fn answer_ok(&self, frame: usize, out: &Tensor<f32>) -> bool {
        let want = &self.expected[frame];
        match self.tolerance {
            None => out.shape() == want.shape() && out.as_slice() == want.as_slice(),
            Some(tol) => out.max_abs_diff(want).is_ok_and(|d| d <= tol),
        }
    }

    /// Drives `engine` closed loop for `run_for`: each client submits a
    /// frame, waits for its answer, checks it, and only then submits the
    /// next. A rejected submit, an errored ticket or a wrong answer is a
    /// failed operation; nothing is retried.
    pub fn closed_loop(
        &self,
        engine: &ServeEngine,
        run_for: Duration,
        tracer: Option<&Tracer>,
    ) -> Phase {
        let cpu0 = process_cpu_s();
        let start = Instant::now();
        let deadline = start + run_for;
        let per_client: Vec<(Vec<f64>, Tally, Instant)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.clients)
                .map(|c| s.spawn(move || self.client(engine, c, start, deadline, tracer)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut out = Phase::default();
        let mut last = start;
        for (lat, tally, done) in per_client {
            out.latencies_ms.extend(lat);
            out.tally.absorb(tally);
            last = last.max(done);
        }
        out.elapsed_s = (last - start).as_secs_f64();
        out.cpu_s = process_cpu_s() - cpu0;
        out
    }

    fn client(
        &self,
        engine: &ServeEngine,
        client: usize,
        start: Instant,
        deadline: Instant,
        tracer: Option<&Tracer>,
    ) -> (Vec<f64>, Tally, Instant) {
        let mut latencies = Vec::new();
        let mut tally = Tally::default();
        let mut last = start;
        let mut i = client;
        while Instant::now() < deadline {
            let idx = i % self.frames.len();
            let frame = self.frames[idx].clone();
            let at = At {
                tid: client as u64 + 1,
                req: Some(i as u64),
                parent: "request",
            };
            let t0 = Instant::now();
            let answer = span(
                tracer,
                "request",
                At {
                    parent: "run",
                    ..at
                },
                || {
                    let ticket =
                        span(tracer, "ServeEngine::submit", at, || engine.submit(frame)).ok()?;
                    span(tracer, "Ticket::wait", at, || ticket.wait()).ok()
                },
            );
            last = Instant::now();
            let ok = answer.is_some_and(|out| self.answer_ok(idx, &out));
            tally.check(ok);
            if ok {
                latencies.push((last - t0).as_secs_f64() * 1e3);
            }
            i += self.clients;
        }
        (latencies, tally, last)
    }
}
