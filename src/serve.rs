//! The serving engine: a bounded request queue, a dynamic batcher, and
//! the engine's one plan, composed into a long-running throughput
//! pipeline.
//!
//! ```text
//!  clients ──▶ ServeQueue (bounded, admission control)
//!                  │ pop_batch(max_batch, batch_window)
//!                  ▼
//!             worker thread ──▶ plan slot (search + transforms once)
//!                  │                 │ Arc<PlanEntry>
//!                  ▼                 ▼
//!             concat_frames ──▶ batched executor / fused runner
//!                  │
//!                  ▼
//!             per-frame split ──▶ response slots ──▶ Ticket::wait
//! ```
//!
//! The one-shot CLI pays strategy search and Winograd filter transforms
//! on every invocation. The engine serves one fixed configuration and
//! pays them once — the first request builds its [`PlanEntry`]; every
//! later request reads the filled slot (`serve.plan_hits`) and runs a
//! batched kernel invocation that amortizes packing across coalesced
//! frames. Both execution modes answer the plan's network: the executor
//! and the fused runner share the plan-shaped preparation.
//!
//! Failure is contained per batch: everything from the plan build to the
//! per-frame split runs under `catch_unwind`, so a poisoned request or a
//! panicking plan build fails its own batch's tickets with an error while
//! the engine keeps serving, and the next batch builds the plan again
//! (the lenient-mode kernel fallback ladder underneath degrades
//! Winograd → direct before anything panics out). Every ticket resolves:
//! a request dropped unanswered fails its ticket, and a panic that
//! escapes the worker itself closes admission and fails every queued
//! ticket. Overload is a typed, synchronous rejection at
//! [`ServeEngine::submit`] — no silent queue growth.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use winofuse_conv::tensor::Tensor;
use winofuse_core::cache::PlanEntry;
use winofuse_core::framework::Framework;
use winofuse_model::runtime::NetworkWeights;
use winofuse_model::Network;
use winofuse_runtime::faults::{describe_panic, FaultMode};
use winofuse_runtime::serve::ServeQueue;
use winofuse_telemetry::Telemetry;

use crate::TaskError;

/// Batching and admission-control knobs for a [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most frames coalesced into one batched invocation.
    pub max_batch: usize,
    /// How long the batcher waits for followers after the first request
    /// of a batch arrives.
    pub batch_window: Duration,
    /// Queue capacity; pushes beyond it are rejected with
    /// [`ServeError::Overloaded`](winofuse_runtime::serve::ServeError).
    pub queue_depth: usize,
    /// Feature-map transfer budget for the strategy search.
    pub budget_bytes: u64,
    /// Execute batches on the fused-group runner (conv body, per-group
    /// DRAM reconciliation) instead of the batched layer executor.
    pub fused: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            batch_window: Duration::from_millis(2),
            queue_depth: 64,
            budget_bytes: 8 * 1024 * 1024,
            fused: false,
        }
    }
}

/// One-slot rendezvous between the worker and a waiting client.
///
/// Both sides recover from mutex poisoning: the slot holds a single
/// `Option` that is written exactly once, so there is no multi-step
/// invariant a mid-update panic could leave half-applied. A panicking
/// client must not stop the worker from answering, and a batch panic
/// (already contained by `catch_unwind` in [`process_batch`]) must not
/// turn every later [`Ticket::wait`] into a poison panic.
struct ResponseSlot {
    result: Mutex<Option<Result<Tensor<f32>, String>>>,
    cond: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        ResponseSlot {
            result: Mutex::new(None),
            cond: Condvar::new(),
        }
    }

    fn lock_result(&self) -> MutexGuard<'_, Option<Result<Tensor<f32>, String>>> {
        self.result.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fill(&self, r: Result<Tensor<f32>, String>) {
        *self.lock_result() = Some(r);
        self.cond.notify_all();
    }

    fn wait(&self) -> Result<Tensor<f32>, String> {
        let mut guard = self.lock_result();
        loop {
            match guard.take() {
                Some(r) => return r,
                None => {
                    guard = self
                        .cond
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }
}

/// A pending request's handle; [`Ticket::wait`] blocks until the batch
/// carrying the request completes (or fails).
pub struct Ticket {
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    /// Blocks until the engine answers this request.
    ///
    /// # Errors
    ///
    /// [`TaskError::Other`] carrying the batch's failure message when the
    /// request's batch errored or panicked.
    pub fn wait(self) -> Result<Tensor<f32>, TaskError> {
        self.slot.wait().map_err(TaskError::Other)
    }
}

/// The worker's end of a [`ResponseSlot`]. [`Reply::send`] answers the
/// ticket; a reply dropped unanswered (its request lost to a panic or a
/// dying worker) fills the slot with an error instead, so every
/// [`Ticket::wait`] returns.
struct Reply(Option<Arc<ResponseSlot>>);

impl Reply {
    fn send(mut self, r: Result<Tensor<f32>, String>) {
        if let Some(slot) = self.0.take() {
            slot.fill(r);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            slot.fill(Err("request dropped unanswered".into()));
        }
    }
}

/// One queued inference request.
struct Request {
    input: Tensor<f32>,
    enqueued: Instant,
    reply: Reply,
}

/// Everything the worker thread needs, shared with the front end.
struct Shared {
    fw: Framework,
    net: Arc<Network>,
    weights: Arc<NetworkWeights>,
    /// The engine's one plan, empty until the first build succeeds.
    entry: Mutex<Option<Arc<PlanEntry>>>,
    telemetry: Telemetry,
    cfg: ServeConfig,
}

impl Shared {
    /// Runs `f`, turning a panic into an error message that names it.
    /// Each contained panic counts in `serve.batch_panics`.
    fn contain<T>(&self, what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
        catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
            self.telemetry.counter("serve.batch_panics").incr();
            format!("{what} panicked: {}", describe_panic(&*panic))
        })
    }

    /// The engine's plan, built on first use (`serve.plan_misses`) and
    /// read from the slot afterwards (`serve.plan_hits`). The build runs
    /// under the slot's lock, so concurrent first requests pay one build
    /// between them. A build that panics fails like one that errs:
    /// nothing is stored, so the next call builds again. The slot is
    /// written only by a successful build, so a poisoned lock is
    /// recovered.
    fn plan(&self) -> Result<Arc<PlanEntry>, TaskError> {
        let mut slot = self.entry.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = slot.as_ref() {
            self.telemetry.counter("serve.plan_hits").incr();
            return Ok(Arc::clone(entry));
        }
        self.telemetry.counter("serve.plan_misses").incr();
        let built = self.contain("plan build", || {
            self.fw.plan_entry(
                Arc::clone(&self.net),
                Arc::clone(&self.weights),
                self.cfg.budget_bytes,
            )
        });
        let entry = Arc::new(built.map_err(TaskError::Other)??);
        *slot = Some(Arc::clone(&entry));
        Ok(entry)
    }

    /// Answers one coalesced batch frame by frame: plan, concat along N,
    /// execute, split.
    fn answer(&self, frames: &[Tensor<f32>]) -> Result<Vec<Tensor<f32>>, TaskError> {
        let entry = self.plan()?;
        let batched = Tensor::concat_frames(frames)?;
        let out = self.execute(&entry, &batched).map_err(TaskError::Other)?;
        Ok((0..out.n()).map(|b| out.frame(b)).collect())
    }

    /// Runs one coalesced batch through the plan. The error side
    /// is a plain message: it fans out to every ticket in the batch.
    fn execute(&self, entry: &PlanEntry, batched: &Tensor<f32>) -> Result<Tensor<f32>, String> {
        if self.cfg.fused {
            entry
                .runner
                .run_batch(batched)
                .map(|r| r.output)
                .map_err(|e| format!("fused batch failed: {e}"))
        } else {
            let exec = entry
                .executor()
                .map_err(|e| format!("executor setup failed: {e}"))?
                .with_threads(self.fw.threads())
                .with_telemetry(self.telemetry.clone())
                .with_faults(self.fw.faults().clone())
                .with_fault_mode(
                    self.fw
                        .fault_mode()
                        .expect("invariant: ServeEngine::start sets the fault mode"),
                );
            exec.run(batched).map_err(|e| format!("batch failed: {e}"))
        }
    }
}

/// The long-running serving pipeline. Submit from any thread; one worker
/// coalesces, executes, and answers.
pub struct ServeEngine {
    queue: Arc<ServeQueue<Request>>,
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl ServeEngine {
    /// Starts the engine: spawns the batching worker and returns the
    /// submission front end. `fw` supplies the device, policy, thread
    /// count, fault injector and fault mode both execution paths run
    /// with — lenient when `fw` sets none, so a faulty Winograd kernel
    /// degrades to direct before it fails a batch; `telemetry` receives
    /// the serve counters and latency histograms.
    ///
    /// The plan starts unbuilt — call [`ServeEngine::warm`] to pay the
    /// build eagerly, or let the first request pay it.
    ///
    /// # Errors
    ///
    /// [`TaskError::Model`] when the network has no valid shape chain or
    /// the weights do not fit it ([`NetworkWeights::check`]).
    pub fn start(
        fw: Framework,
        net: Network,
        weights: NetworkWeights,
        telemetry: Telemetry,
        cfg: ServeConfig,
    ) -> Result<Self, TaskError> {
        weights.check(&net)?;
        // One fault mode for both execution paths: the fused runner
        // takes it from the framework when the plan is built.
        let fault_mode = fw.fault_mode().unwrap_or(FaultMode::Lenient);
        let shared = Arc::new(Shared {
            net: Arc::new(net),
            weights: Arc::new(weights),
            entry: Mutex::new(None),
            telemetry,
            fw: fw.with_fault_mode(fault_mode),
            cfg,
        });
        let queue = Arc::new(ServeQueue::bounded(shared.cfg.queue_depth));
        let worker = {
            let queue = Arc::clone(&queue);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("winofuse-serve".into())
                .spawn(move || worker_loop(&queue, &shared))
                .map_err(|e| TaskError::Other(format!("cannot spawn serve worker: {e}")))?
        };
        Ok(ServeEngine {
            queue,
            shared,
            worker: Some(worker),
        })
    }

    /// Builds (or confirms) the engine's plan, so the first real request
    /// doesn't pay strategy search.
    ///
    /// # Errors
    ///
    /// Whatever [`Framework::optimize`] or plan lowering fails with, and
    /// [`TaskError::Other`] naming the panic when the build panics.
    pub fn warm(&self) -> Result<(), TaskError> {
        self.shared.plan().map(|_| ())
    }

    /// Enqueues one frame for inference. Non-blocking: returns a
    /// [`Ticket`] immediately, or a typed rejection when the queue is at
    /// capacity ([`TaskError::Serve`], exit code 9 at the CLI).
    ///
    /// # Errors
    ///
    /// [`TaskError::Model`] when `input` is not a single frame of the
    /// network's input shape; [`TaskError::Serve`] when the queue is full
    /// or the engine is shutting down.
    pub fn submit(&self, input: Tensor<f32>) -> Result<Ticket, TaskError> {
        let want = self.shared.net.input_shape();
        if input.n() != 1
            || input.c() != want.channels
            || input.h() != want.height
            || input.w() != want.width
        {
            return Err(TaskError::Model(winofuse_model::ModelError::Execution(
                format!(
                    "request tensor {}x{}x{}x{} does not match network input 1x{want}",
                    input.n(),
                    input.c(),
                    input.h(),
                    input.w()
                ),
            )));
        }
        self.shared.telemetry.counter("serve.requests").incr();
        let slot = Arc::new(ResponseSlot::new());
        let req = Request {
            input,
            enqueued: Instant::now(),
            reply: Reply(Some(Arc::clone(&slot))),
        };
        match self.queue.push(req) {
            Ok(_depth) => Ok(Ticket { slot }),
            Err((e, _)) => {
                self.shared.telemetry.counter("serve.rejected").incr();
                Err(TaskError::Serve(e))
            }
        }
    }

    /// Runs `frames` as one batch through the plan synchronously,
    /// bypassing the queue — the deterministic entry point the
    /// bit-identity tests and the serve benchmark use. Shares every
    /// downstream stage (plan, concat, batched execution, split) with
    /// the queued path.
    ///
    /// # Errors
    ///
    /// Plan-build errors as in [`ServeEngine::warm`]; execution errors as
    /// [`TaskError::Other`].
    pub fn run_batch_now(&self, frames: &[Tensor<f32>]) -> Result<Vec<Tensor<f32>>, TaskError> {
        self.shared.answer(frames)
    }

    /// Current queue depth (requests admitted but not yet batched).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Plan reads that found the plan already built so far
    /// (`serve.plan_hits`).
    pub fn plan_hits(&self) -> u64 {
        self.shared.telemetry.counter("serve.plan_hits").get()
    }

    /// Plan builds attempted so far, failed ones included
    /// (`serve.plan_misses`).
    pub fn plan_misses(&self) -> u64 {
        self.shared.telemetry.counter("serve.plan_misses").get()
    }

    /// Graceful drain: stops admission, lets the worker finish every
    /// queued request, and joins it.
    ///
    /// # Errors
    ///
    /// [`TaskError::Other`] if the worker thread itself panicked (batch
    /// panics are contained and do *not* trigger this).
    pub fn shutdown(mut self) -> Result<(), TaskError> {
        self.queue.close();
        match self.worker.take() {
            Some(h) => h
                .join()
                .map_err(|_| TaskError::Other("serve worker panicked".into())),
            None => Ok(()),
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.queue.close();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

/// The batching loop: block for a batch, answer it, repeat until the
/// queue is closed and drained.
fn worker_loop(queue: &ServeQueue<Request>, shared: &Shared) {
    let _unwinding = FailQueuedOnUnwind(queue);
    while let Some(batch) = queue.pop_batch(shared.cfg.max_batch, shared.cfg.batch_window) {
        process_batch(shared, batch);
    }
}

/// Guards the worker loop: if the worker unwinds (a panic outside
/// [`Shared::contain`]), admission closes and every queued request is
/// dropped, which fails its ticket ([`Reply`]) instead of leaving it to
/// wait for a worker that is gone.
struct FailQueuedOnUnwind<'q>(&'q ServeQueue<Request>);

impl Drop for FailQueuedOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
            while self.0.pop_batch(usize::MAX, Duration::ZERO).is_some() {}
        }
    }
}

fn process_batch(shared: &Shared, batch: Vec<Request>) {
    let t = &shared.telemetry;
    let started = Instant::now();
    // Each request splits into its frame and its reply. `Reply::send`
    // empties the reply before it drops, so an answered ticket never sees
    // the error an unanswered one gets.
    let (frames, replies): (Vec<Tensor<f32>>, Vec<Reply>) = batch
        .into_iter()
        .map(|r| {
            t.histogram("serve.queue_wait_us")
                .record(started.duration_since(r.enqueued).as_micros() as u64);
            (r.input, r.reply)
        })
        .unzip();
    // Panic isolation: a panic anywhere between the pop and the answers
    // (plan build, batch assembly, execution, split) fails this batch's
    // tickets, never the worker. (Kernel-level faults are already caught
    // below this by the lenient fallback ladder; this is the backstop.)
    let answered = shared.contain("batch", || {
        t.counter("serve.batches").incr();
        t.histogram("serve.batch_size").record(frames.len() as u64);
        shared
            .answer(&frames)
            .map_err(|e| crate::error::render_chain(&e))
    });
    t.histogram("serve.batch_exec_us")
        .record(started.elapsed().as_micros() as u64);
    match answered.and_then(|r| r) {
        Ok(outs) => {
            t.counter("serve.completed").add(replies.len() as u64);
            for (reply, out) in replies.into_iter().zip(outs) {
                reply.send(Ok(out));
            }
        }
        Err(msg) => {
            t.counter("serve.failed").add(replies.len() as u64);
            for reply in replies {
                reply.send(Err(msg.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winofuse_conv::tensor::random_tensor;
    use winofuse_fpga::device::FpgaDevice;
    use winofuse_model::zoo;

    fn engine(telemetry: Telemetry, cfg: ServeConfig) -> ServeEngine {
        let net = zoo::small_test_net().conv_body().unwrap();
        let weights = NetworkWeights::random(&net, 7).unwrap();
        let fw = Framework::new(FpgaDevice::zc706())
            .with_threads(1)
            .with_telemetry(telemetry.clone());
        ServeEngine::start(fw, net, weights, telemetry, cfg).unwrap()
    }

    fn frame(seed: u64) -> Tensor<f32> {
        random_tensor(1, 3, 32, 32, seed)
    }

    #[test]
    fn queued_requests_match_the_synchronous_path() {
        let t = Telemetry::enabled();
        let eng = engine(t.clone(), ServeConfig::default());
        eng.warm().unwrap();
        let tickets: Vec<Ticket> = (0..4).map(|i| eng.submit(frame(i)).unwrap()).collect();
        let queued: Vec<Tensor<f32>> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let frames: Vec<Tensor<f32>> = (0..4).map(frame).collect();
        let sync = eng.run_batch_now(&frames).unwrap();
        for (q, s) in queued.iter().zip(&sync) {
            assert_eq!(
                q.as_slice(),
                s.as_slice(),
                "queued vs sync must be bit-identical"
            );
        }
        let s = t.summary();
        assert_eq!(s.counter("serve.requests"), 4);
        assert_eq!(s.counter("serve.completed"), 4);
        assert_eq!(
            s.counter("serve.plan_misses"),
            1,
            "warm() pays the only build"
        );
        assert!(s.counter("serve.plan_hits") >= 1);
        eng.shutdown().unwrap();
    }

    #[test]
    fn overload_is_a_typed_rejection() {
        // A zero-width window and batch 1 keep the worker busy enough to
        // fill a depth-1 queue deterministically: submit while holding
        // the worker on an earlier batch.
        let cfg = ServeConfig {
            queue_depth: 1,
            max_batch: 1,
            batch_window: Duration::from_millis(0),
            ..ServeConfig::default()
        };
        let t = Telemetry::enabled();
        let eng = engine(t.clone(), cfg);
        eng.warm().unwrap();
        // Saturate: keep pushing until a rejection surfaces. The queue
        // has capacity 1, so at most 2 in flight before the third push
        // races the worker; retry until the race loses.
        let mut pending = Vec::new();
        let mut rejected = None;
        for i in 0..200 {
            match eng.submit(frame(i)) {
                Ok(ticket) => pending.push(ticket),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        let e = rejected.expect("a depth-1 queue must eventually reject");
        assert_eq!(e.exit_code(), 9);
        assert!(e.to_string().contains("serve"));
        assert!(t.summary().counter("serve.rejected") >= 1);
        for ticket in pending {
            ticket.wait().unwrap();
        }
        eng.shutdown().unwrap();
    }

    #[test]
    fn shape_mismatch_is_rejected_at_submit() {
        let eng = engine(Telemetry::enabled(), ServeConfig::default());
        let bad = random_tensor(1, 3, 16, 16, 1);
        assert!(eng.submit(bad).is_err());
        let batched = frame(1).repeat_frames(2);
        assert!(eng.submit(batched).is_err(), "submit takes single frames");
        eng.shutdown().unwrap();
    }

    #[test]
    fn response_slot_survives_a_poisoning_client() {
        // A client thread panics while holding the slot lock; the worker
        // must still be able to fill it and a later waiter must still get
        // the answer instead of a PoisonError panic.
        let slot = Arc::new(ResponseSlot::new());
        let poisoner = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                let _guard = slot.lock_result();
                panic!("injected fault while holding the slot lock");
            })
        };
        assert!(poisoner.join().is_err(), "poisoner must panic");
        assert!(slot.result.is_poisoned(), "lock must actually be poisoned");
        slot.fill(Err("answer after poisoning".into()));
        assert_eq!(slot.wait(), Err("answer after poisoning".to_string()));
    }

    #[test]
    fn a_request_dropped_unanswered_fails_its_ticket() {
        let slot = Arc::new(ResponseSlot::new());
        let request = Request {
            input: frame(1),
            enqueued: Instant::now(),
            reply: Reply(Some(Arc::clone(&slot))),
        };
        let ticket = Ticket { slot };
        drop(request);
        let err = ticket
            .wait()
            .expect_err("a dropped request fails its ticket");
        assert!(err.to_string().contains("dropped unanswered"), "{err}");

        // An answered request's slot was taken before it dropped.
        let slot = Arc::new(ResponseSlot::new());
        Reply(Some(Arc::clone(&slot))).send(Ok(frame(2)));
        assert_eq!(
            Ticket { slot }.wait().unwrap().as_slice(),
            frame(2).as_slice()
        );
    }

    #[test]
    fn a_dying_worker_fails_every_queued_ticket() {
        let queue = ServeQueue::bounded(4);
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| {
                let slot = Arc::new(ResponseSlot::new());
                let request = Request {
                    input: frame(i),
                    enqueued: Instant::now(),
                    reply: Reply(Some(Arc::clone(&slot))),
                };
                assert!(queue.push(request).is_ok());
                Ticket { slot }
            })
            .collect();
        // A worker that unwinds outside `contain`.
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _unwinding = FailQueuedOnUnwind(&queue);
                panic!("injected fault in the worker loop");
            })
            .join()
        });
        assert!(died.is_err(), "the worker must have unwound");
        assert!(queue.is_closed(), "admission closes with the worker");
        assert!(queue.is_empty());
        for ticket in tickets {
            assert!(ticket.wait().is_err(), "every queued ticket resolves");
        }
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let cfg = ServeConfig {
            batch_window: Duration::from_millis(20),
            ..ServeConfig::default()
        };
        let t = Telemetry::enabled();
        let eng = engine(t.clone(), cfg);
        let tickets: Vec<Ticket> = (0..3).map(|i| eng.submit(frame(i)).unwrap()).collect();
        let shared = Arc::clone(&eng.shared);
        eng.shutdown().unwrap();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        assert_eq!(shared.telemetry.summary().counter("serve.completed"), 3);
    }
}
