//! The sharded dynamic micro-batching engine.
//!
//! Single-sample requests are admitted into **per-worker bounded shard
//! queues**; each worker coalesces its own shard into batches bounded by
//! `max_batch` samples and `max_wait` queueing delay (whichever comes
//! first), stamps a [`FrozenExecutor`] for the coalesced size, runs one
//! forward pass and fans the score rows back out to the callers. Because
//! the frozen graph has no batch-coupled operators left (BN folded into the
//! weights) and every kernel partitions per sample, a request's scores are
//! **identical** whether it was served alone or coalesced into a full batch
//! — the batcher trades latency for throughput, never numerics.
//!
//! ## Why shards
//!
//! The previous engine funneled every submission and every worker wakeup
//! through one `Mutex + Condvar` pair (and a second global metrics lock on
//! the submit path), and each worker fanned its kernels out to the full
//! `BNFF_THREADS` budget — `workers × BNFF_THREADS` runnable threads on
//! `BNFF_THREADS` cores. Throughput *fell* as workers were added. The
//! sharded design gives every worker its own queue and condvar, keeps the
//! submit path lock-local to one shard, and partitions the kernel-thread
//! budget disjointly across workers
//! ([`bnff_parallel::partition_threads`]), so adding workers adds serving
//! capacity instead of contention. Metrics ride on the lock-free
//! [`ServeMetrics`] registry handles — recording is relaxed atomics, so
//! the request path touches no metrics lock at all.
//!
//! ## Request identity and tracing
//!
//! Every admitted request carries a process-unique ID (minted at the
//! ingress that created it, or by [`ServeEngine::submit`] itself), so log
//! lines and trace echoes about one request share one correlator. A
//! sampled subset of requests (the `BNFF_TRACE` knob, or the builder's
//! `trace_every`) additionally gets a [`RequestTrace`] on its
//! [`Completion`]: queue-wait and inference span timings, the batch it
//! rode in, and which worker served it. The spans are *always* recorded
//! into the metrics histograms; sampling only decides whether they are
//! echoed back to the caller.
//!
//! ## Request lifecycle
//!
//! ```text
//! submit ──admit──▶ shard queue ──coalesce──▶ infer ──▶ completion
//!            │            │
//!            │            └─ deadline passed ──▶ Err(DeadlineExceeded)
//!            └─ all shards full ──▶ Err(Overloaded)   (shed at admission)
//! ```
//!
//! Admission is work-conserving: a submission whose home shard (picked
//! round-robin) is full spills to the next shard with room, and is shed
//! with [`ServeError::Overloaded`] only when **every** bounded queue is
//! full. Workers are work-conserving too: a worker whose own shard is empty
//! steals a *ripe* batch (full, past `max_wait`, or shutting down) from a
//! sibling shard before parking, so one hot shard cannot idle the rest of
//! the pool. The take/wait/park/exit decision itself is the pure
//! [`assembly::plan_step`](crate::assembly::plan_step) state machine,
//! exhaustively schedule-tested on its own.

use crate::assembly::{plan_step, BatchStep};
use crate::error::ServeError;
use crate::executor::FrozenExecutor;
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::model::FrozenModel;
use crate::Result;
use bnff_obs::{next_request_id, TraceSampler};
use bnff_parallel::{current_threads, partition_threads, with_threads};
use bnff_tensor::{Shape, Tensor};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of the batching engine.
#[derive(Debug, Clone)]
pub struct BatchingConfig {
    /// Largest number of requests coalesced into one forward pass.
    pub max_batch: usize,
    /// Longest a request may wait in the queue for co-batchers before the
    /// engine runs it in whatever batch has formed.
    pub max_wait: Duration,
    /// Number of executor worker threads (one shard queue each).
    pub workers: usize,
    /// Bound on each shard queue. A submission finding **every** shard at
    /// this depth is shed with [`ServeError::Overloaded`]; total admission
    /// capacity is therefore `workers × queue_depth`.
    pub queue_depth: usize,
    /// Optional queueing deadline: a request still waiting for a worker
    /// after this long is expired with [`ServeError::DeadlineExceeded`]
    /// instead of served (the time already lost exceeds what the caller
    /// would accept, so serving it would only waste a batch slot).
    pub deadline: Option<Duration>,
    /// Total kernel-thread budget to partition disjointly across workers;
    /// `0` inherits the caller's effective thread count (`BNFF_THREADS`, a
    /// `with_threads` scope, or the machine's parallelism) at engine start
    /// time.
    pub kernel_threads: usize,
    /// Trace-echo sampling period: `Some(0)` disables, `Some(n)` echoes a
    /// [`RequestTrace`] on every `n`-th request's [`Completion`], and
    /// `None` (the default) reads the `BNFF_TRACE` environment variable at
    /// engine start.
    pub trace_every: Option<u64>,
}

impl Default for BatchingConfig {
    fn default() -> Self {
        BatchingConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            workers: 1,
            queue_depth: 64,
            deadline: None,
            kernel_threads: 0,
            trace_every: None,
        }
    }
}

/// Span timings of one traced request, echoed on its [`Completion`] (and
/// from there as the HTTP `X-BNFF-Trace` header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// The request's process-unique ID.
    pub request_id: u64,
    /// Microseconds the request waited in its shard queue before a worker
    /// took it into a batch.
    pub queue_us: u64,
    /// Microseconds of the forward pass of the batch it rode in.
    pub infer_us: u64,
    /// Size of the coalesced batch.
    pub batch_size: usize,
    /// Index of the worker that served it.
    pub worker: usize,
    /// Whether the batch was assembled by work-stealing.
    pub stolen: bool,
}

/// One served request's result.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The classifier scores for the sample (a 1-D tensor of class logits).
    pub scores: Tensor,
    /// End-to-end latency, enqueue → completion.
    pub latency: Duration,
    /// Size of the batch the request was coalesced into.
    pub batch_size: usize,
    /// Span timings, present only when the request was sampled for trace
    /// echo (see [`BatchingConfig::trace_every`]).
    pub trace: Option<RequestTrace>,
}

struct Request {
    sample: Tensor,
    enqueued: Instant,
    /// Process-unique request ID (minted at ingress or at submit).
    id: u64,
    /// Whether this request's completion echoes a [`RequestTrace`].
    trace: bool,
    tx: mpsc::Sender<Result<Completion>>,
}

struct ShardState {
    queue: VecDeque<Request>,
    shutdown: bool,
}

/// One bounded request queue with its own wakeup channel: the unit of
/// submit-side and worker-side locking.
struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
}

impl Shard {
    fn new() -> Self {
        Shard {
            state: Mutex::new(ShardState { queue: VecDeque::new(), shutdown: false }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

struct Shared {
    model: FrozenModel,
    config: BatchingConfig,
    shards: Vec<Shard>,
    /// Round-robin home-shard cursor for admissions.
    next_shard: AtomicUsize,
    /// Lock-free registry handles: every worker and the submit path record
    /// through relaxed atomics; no request ever takes a metrics lock.
    metrics: ServeMetrics,
    /// Decides which requests echo a [`RequestTrace`].
    sampler: TraceSampler,
}

/// What a take attempt on one shard produced: requests to serve and/or
/// requests that expired at the queue front.
struct Assembled {
    batch: Vec<Request>,
    expired: Vec<Request>,
}

/// The serving engine: sharded request queues plus their worker pool.
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    budgets: Vec<usize>,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("workers", &self.workers.len())
            .field("kernel_budgets", &self.budgets)
            .field("max_batch", &self.shared.config.max_batch)
            .field("max_wait", &self.shared.config.max_wait)
            .field("queue_depth", &self.shared.config.queue_depth)
            .finish()
    }
}

impl ServeEngine {
    /// Begins fluent engine construction: pick a model source
    /// ([`model`](crate::ServeEngineBuilder::model),
    /// [`executor`](crate::ServeEngineBuilder::executor),
    /// [`checkpoint`](crate::ServeEngineBuilder::checkpoint) or
    /// [`model_file`](crate::ServeEngineBuilder::model_file)), adjust
    /// batching knobs, then [`start`](crate::ServeEngineBuilder::start).
    ///
    /// ```rust,no_run
    /// # fn main() -> Result<(), bnff_serve::ServeError> {
    /// let engine = bnff_serve::ServeEngine::builder()
    ///     .model_file("model.bnff")
    ///     .workers(2)
    ///     .max_batch(8)
    ///     .start()?;
    /// # let _ = engine; Ok(())
    /// # }
    /// ```
    pub fn builder() -> crate::builder::ServeEngineBuilder {
        crate::builder::ServeEngineBuilder::new()
    }

    /// Starts an engine over a frozen model: one bounded shard queue per
    /// worker, each worker's kernel fan-out pinned to a disjoint slice of
    /// the kernel-thread budget.
    ///
    /// # Errors
    /// Returns an error for a zero `max_batch`/`workers`/`queue_depth`
    /// configuration.
    pub(crate) fn start(model: FrozenModel, config: BatchingConfig) -> Result<Self> {
        if config.max_batch == 0 || config.workers == 0 || config.queue_depth == 0 {
            return Err(ServeError::InvalidArgument(
                "max_batch, workers and queue_depth must be positive".to_string(),
            ));
        }
        let total_threads =
            if config.kernel_threads > 0 { config.kernel_threads } else { current_threads() };
        let budgets = partition_threads(total_threads, config.workers);
        let metrics = ServeMetrics::new();
        metrics.set_batch_capacity(config.max_batch);
        let sampler = match config.trace_every {
            Some(n) => TraceSampler::every(n),
            None => TraceSampler::from_env(),
        };
        let shared = Arc::new(Shared {
            model,
            shards: (0..config.workers).map(|_| Shard::new()).collect(),
            next_shard: AtomicUsize::new(0),
            metrics,
            sampler,
            config,
        });
        let workers = budgets
            .iter()
            .enumerate()
            .map(|(i, &budget)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bnff-serve-{i}"))
                    .spawn(move || with_threads(budget, || worker_loop(&shared, i)))
                    .expect("spawning a serve worker")
            })
            .collect();
        Ok(ServeEngine { shared, workers, budgets })
    }

    /// Submits one sample (`C × H × W`, or `1 × C × H × W`) for inference.
    /// Returns the channel the [`Completion`] arrives on.
    ///
    /// The home shard is picked round-robin; a full home shard spills to
    /// the next shard with room.
    ///
    /// # Errors
    /// Returns [`ServeError::Overloaded`] when every shard queue is full
    /// (the request is shed at admission and owns no channel),
    /// [`ServeError::ShuttingDown`] after [`ServeEngine::shutdown`], and an
    /// invalid-argument error when the sample shape disagrees with the
    /// model.
    pub fn submit(&self, sample: Tensor) -> Result<mpsc::Receiver<Result<Completion>>> {
        self.submit_traced(sample, next_request_id(), false)
    }

    /// [`submit`](ServeEngine::submit) with an ingress-minted request ID.
    /// `force_trace` echoes a [`RequestTrace`] on the completion regardless
    /// of the sampling knob (otherwise the engine's sampler decides).
    ///
    /// # Errors
    /// Same as [`submit`](ServeEngine::submit).
    pub fn submit_traced(
        &self,
        sample: Tensor,
        request_id: u64,
        force_trace: bool,
    ) -> Result<mpsc::Receiver<Result<Completion>>> {
        let per_sample = self.shared.model.sample_shape()?;
        let sample = if sample.shape() == &per_sample {
            let mut dims = vec![1usize];
            dims.extend_from_slice(per_sample.dims());
            Tensor::from_vec(Shape::new(dims), sample.into_vec()).map_err(ServeError::Tensor)?
        } else {
            let mut batched = vec![1usize];
            batched.extend_from_slice(per_sample.dims());
            if sample.shape().dims() != batched.as_slice() {
                return Err(ServeError::InvalidArgument(format!(
                    "sample shape {} does not match the model's {per_sample}",
                    sample.shape()
                )));
            }
            sample
        };
        let trace = force_trace || self.shared.sampler.sample();
        let (tx, rx) = mpsc::channel();
        let shards = &self.shared.shards;
        let home = self.shared.next_shard.fetch_add(1, Ordering::Relaxed) % shards.len();
        for probe in 0..shards.len() {
            let idx = (home + probe) % shards.len();
            let shard = &shards[idx];
            let mut state = shard.lock();
            if state.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if state.queue.len() < self.shared.config.queue_depth {
                state.queue.push_back(Request {
                    sample,
                    enqueued: Instant::now(),
                    id: request_id,
                    trace,
                    tx,
                });
                drop(state);
                self.shared.metrics.add_queued(1);
                shard.cv.notify_one();
                return Ok(rx);
            }
        }
        self.shared.metrics.record_shed(1);
        Err(ServeError::Overloaded { queued: self.shared.metrics.queued() })
    }

    /// Convenience wrapper: submit and block for the completion.
    ///
    /// # Errors
    /// Returns an error when submission fails (including shed-load) or the
    /// worker dropped the request.
    pub fn infer_blocking(&self, sample: Tensor) -> Result<Completion> {
        let rx = self.submit(sample)?;
        rx.recv().map_err(|_| ServeError::ShuttingDown)?
    }

    /// A snapshot of the engine's latency/batching metrics since start.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The Prometheus text exposition of the engine's metrics registry
    /// (what `GET /metrics` on the HTTP server returns).
    pub fn prometheus_metrics(&self) -> String {
        self.shared.metrics.render_prometheus()
    }

    /// The trace-echo sampling period the engine resolved at start
    /// (`0` = tracing disabled).
    pub fn trace_period(&self) -> u64 {
        self.shared.sampler.period()
    }

    /// The per-sample input shape the model expects (`C × H × W`).
    ///
    /// # Errors
    /// Returns an error when the model's input node cannot be resolved.
    pub fn sample_shape(&self) -> Result<Shape> {
        self.shared.model.sample_shape()
    }

    /// Total admission capacity: `workers × queue_depth` queued requests.
    pub fn queue_capacity(&self) -> usize {
        self.shared.shards.len() * self.shared.config.queue_depth
    }

    /// The disjoint kernel-thread budgets the workers were started with.
    pub fn kernel_budgets(&self) -> &[usize] {
        &self.budgets
    }

    /// Drains the queues, stops the workers and returns the final metrics.
    /// Every request admitted before shutdown still receives its
    /// completion.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_workers();
        self.metrics()
    }

    fn stop_workers(&mut self) {
        for shard in &self.shared.shards {
            shard.lock().shutdown = true;
            shard.cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// How long an idle worker parks before re-scanning sibling shards for
/// ripe batches to steal. Bounded staleness: a ripe batch on a shard whose
/// owner is busy waits at most this long past `max_wait` for a thief.
fn steal_poll(config: &BatchingConfig) -> Duration {
    config.max_wait.clamp(Duration::from_micros(500), Duration::from_millis(5))
}

/// Attempts to assemble a batch from one shard. With `dwell`, blocks on the
/// shard's condvar for up to the oldest request's remaining `max_wait`
/// allowance (the owner's path); without, only ripe batches are taken (the
/// stealing path — half-formed batches stay with their owner so stealing
/// never degrades coalescing). Returns `None` when the shard has nothing
/// takeable.
fn take_from(shared: &Shared, shard_idx: usize, dwell: bool) -> Option<Assembled> {
    let config = &shared.config;
    let shard = &shared.shards[shard_idx];
    let mut state = shard.lock();
    loop {
        // Expire over-deadline requests at the queue front before deciding:
        // they must not be counted toward the batch nor hold the wait open.
        let mut expired = Vec::new();
        if let Some(deadline) = config.deadline {
            while state.queue.front().is_some_and(|r| r.enqueued.elapsed() > deadline) {
                expired.push(state.queue.pop_front().expect("front checked"));
            }
        }
        let oldest = state.queue.front().map(|r| r.enqueued.elapsed()).unwrap_or_default();
        let step =
            plan_step(state.queue.len(), oldest, state.shutdown, config.max_batch, config.max_wait);
        match step {
            BatchStep::Take(n) => {
                let batch: Vec<Request> = state.queue.drain(..n).collect();
                drop(state);
                shared.metrics.add_queued(-((n + expired.len()) as i64));
                return Some(Assembled { batch, expired });
            }
            BatchStep::WaitFor(remaining) if dwell && expired.is_empty() => {
                let (guard, _timeout) = shard
                    .cv
                    .wait_timeout(state, remaining)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                state = guard;
            }
            BatchStep::WaitFor(_) | BatchStep::Park | BatchStep::Exit => {
                drop(state);
                if expired.is_empty() {
                    return None;
                }
                shared.metrics.add_queued(-(expired.len() as i64));
                return Some(Assembled { batch: Vec::new(), expired });
            }
        }
    }
}

/// Takes the next batch for `worker`, preferring its own shard, stealing
/// ripe batches from siblings otherwise. Returns `None` only when the
/// engine is shutting down and every shard has drained.
fn next_batch(shared: &Shared, worker: usize) -> Option<(Assembled, bool)> {
    let shards = shared.shards.len();
    loop {
        // 1. Own shard: dwell up to the coalescing window.
        if let Some(assembled) = take_from(shared, worker, true) {
            return Some((assembled, false));
        }
        // 2. Steal pass: ripe batches on sibling shards whose owners are
        //    busy. One shard lock at a time — never nested, so no deadlock.
        for probe in 1..shards {
            let idx = (worker + probe) % shards;
            if let Some(assembled) = take_from(shared, idx, false) {
                return Some((assembled, true));
            }
        }
        // 3. Nothing takeable anywhere: exit if drained-and-shutdown, else
        //    park until a submission or the steal-poll interval.
        let shard = &shared.shards[worker];
        let state = shard.lock();
        if state.queue.is_empty() && state.shutdown {
            drop(state);
            // Own shard is empty+shutdown (checked under its lock: the
            // owner is the guaranteed drainer, so no request can still be
            // admitted here). Exit once the siblings are drained too.
            let all_drained = (0..shards).all(|idx| shared.shards[idx].lock().queue.is_empty());
            if all_drained {
                return None;
            }
        } else if state.queue.is_empty() {
            let timeout = steal_poll(&shared.config);
            if shards == 1 {
                drop(shard.cv.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner));
            } else {
                drop(
                    shard
                        .cv
                        .wait_timeout(state, timeout)
                        .unwrap_or_else(std::sync::PoisonError::into_inner),
                );
            }
        }
    }
}

/// Largest number of batch-size-specialized executors (compiled tapes plus
/// their register files) each worker keeps cached, bounding the memory a
/// worker holds for rare batch sizes.
const EXECUTOR_CACHE: usize = 4;

/// A bounded per-worker cache of batch-size-specialized executors, evicting
/// the least-recently-used size (recompiled on demand). Entries are kept
/// most-recently-used first.
#[derive(Default)]
struct ExecutorCache {
    entries: Vec<(usize, FrozenExecutor)>,
}

impl ExecutorCache {
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// The executor for `size`, compiling (and possibly evicting) on miss.
    fn get_or_compile(&mut self, size: usize, model: &FrozenModel) -> Result<&FrozenExecutor> {
        if let Some(i) = self.entries.iter().position(|(s, _)| *s == size) {
            let hit = self.entries.remove(i);
            self.entries.insert(0, hit);
        } else {
            let executor = model.executor(size)?;
            self.entries.insert(0, (size, executor));
            self.entries.truncate(EXECUTOR_CACHE);
        }
        Ok(&self.entries[0].1)
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    // Executors (compiled tapes + register files) are stamped per coalesced
    // batch size and cached per worker, bounded by `EXECUTOR_CACHE`.
    let mut executors = ExecutorCache::default();
    while let Some((assembled, stolen)) = next_batch(shared, worker) {
        let Assembled { batch, expired } = assembled;
        for request in expired {
            shared.metrics.record_expired(1);
            let _ = request.tx.send(Err(ServeError::DeadlineExceeded));
        }
        if batch.is_empty() {
            continue;
        }
        let size = batch.len();
        // Span boundaries: enqueue → taken is the queue wait, taken →
        // completed is the inference span (shared by every request in the
        // batch).
        let taken = Instant::now();
        let result = run_batch(shared, &mut executors, &batch);
        let completed = Instant::now();
        let metrics = &shared.metrics;
        metrics.record_batch(size);
        metrics.record_queue_depth(shared.shards[worker].lock().queue.len());
        metrics.record_executor_cache(executors.len());
        if stolen {
            metrics.record_stolen_batch();
        }
        let infer = completed.duration_since(taken);
        if result.is_ok() {
            metrics.record_infer(infer);
            for request in &batch {
                metrics.record_request(completed.duration_since(request.enqueued));
                metrics.record_queue_wait(taken.duration_since(request.enqueued));
            }
        }
        match result {
            Ok(rows) => {
                for (request, scores) in batch.into_iter().zip(rows) {
                    let latency = completed.duration_since(request.enqueued);
                    let trace = request.trace.then(|| RequestTrace {
                        request_id: request.id,
                        queue_us: taken.duration_since(request.enqueued).as_micros() as u64,
                        infer_us: infer.as_micros() as u64,
                        batch_size: size,
                        worker,
                        stolen,
                    });
                    let _ = request.tx.send(Ok(Completion {
                        scores,
                        latency,
                        batch_size: size,
                        trace,
                    }));
                }
            }
            Err(err) => {
                for request in batch {
                    let _ = request.tx.send(Err(err.clone()));
                }
            }
        }
    }
}

/// Stacks the batch, runs one forward pass and slices the score rows back
/// out (one 1-D logits tensor per request, in submission order).
fn run_batch(
    shared: &Shared,
    executors: &mut ExecutorCache,
    batch: &[Request],
) -> Result<Vec<Tensor>> {
    let size = batch.len();
    let executor = executors.get_or_compile(size, &shared.model)?;
    let sample_volume = batch[0].sample.len();
    let mut stacked = Vec::with_capacity(size * sample_volume);
    for request in batch {
        stacked.extend_from_slice(request.sample.as_slice());
    }
    let mut dims = executor.input_shape().dims().to_vec();
    dims[0] = size;
    let data = Tensor::from_vec(Shape::new(dims), stacked).map_err(ServeError::Tensor)?;
    let scores = executor.infer_owned(data)?;
    let classes = scores.len() / size.max(1);
    Ok((0..size)
        .map(|i| Tensor::from_slice(&scores.as_slice()[i * classes..(i + 1) * classes]))
        .collect())
}
