//! The two serving workloads: the trained BNFF model served in-process by
//! `ServeEngine` under an open-loop arrival schedule (`serve_engine`), and
//! the same engine behind `HttpServer` on loopback with closed-loop clients
//! (`serve_http`).
//!
//! The load generator is the benchmark's own: arrivals follow an absolute
//! schedule, each latency is stamped from the instant the request was *due*
//! (the generator sleeps, so its own lateness is inside the latency and is
//! reported), and a collector thread takes completions while generation is
//! still going on. It drains them in submit order, which is completion
//! order for the pinned one-worker FIFO engine.

use crate::gen::{batch_of_one, ServeInputs};
use crate::report::{Metrics, Tally, TracedSummary, Windowed};
use crate::spans::{Recorder, SpanId};
use crate::stats::{median, percentile, time_median};
use crate::Res;
use bnff_parallel::with_threads;
use bnff_serve::{
    Completion, FrozenExecutor, FrozenModel, HttpServer, MetricsSnapshot, RequestTrace,
    ServeEngine, ServeError, ServeMetrics,
};
use bnff_tensor::{Shape, Tensor};
use bnff_train::checkpoint::Checkpoint;
use serde_json::Value;
use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Engine workers (one shard queue each).
pub const WORKERS: usize = 1;
/// Kernel threads per worker.
pub const KERNEL_THREADS: usize = 1;
/// Largest coalesced batch.
pub const MAX_BATCH: usize = 8;
/// Longest a request waits for co-batchers.
pub const MAX_WAIT: Duration = Duration::from_millis(2);
/// Bound of the shard queue: five seconds of the open loop's arrivals. The
/// reference host stalls a vCPU for a few hundred milliseconds now and then;
/// at the engine's default of 64 such a stall overflowed the queue, and a
/// shed request is a failed one.
pub const QUEUE_DEPTH: usize = 1024;
/// Open-loop rate behind `latency_ms_*` on `serve_engine`: about 40 % of
/// what the engine sustains on the reference host, so queues form and drain
/// but a slow spell of the host does not overflow them (a shed request is a
/// failed one).
pub const MAIN_RPS: f64 = 200.0;
/// Open-loop rates of the traced run's lighter (`lo`) and heavier (`hi`)
/// phases.
pub const SIDE_RPS: [f64; 2] = [100.0, 275.0];
/// Requests kept outstanding in the saturation phase.
pub const SATURATION_OUTSTANDING: usize = 16;
/// Closed-loop HTTP clients (at most this many connections open).
pub const HTTP_CLIENTS: usize = 2;
/// Set-up repetitions at the start of every cycle: spread over the run, so
/// that a slow spell of the host cannot cover them all.
const SETUP_REPS_PER_CYCLE: usize = 3;
/// The untraced run repeats its phases this many times over; every
/// end-to-end timing is read at the quiet end of the cycles (`stats::quietest`).
const CYCLES: usize = 10;

fn start_engine(model: FrozenModel, trace_every: u64) -> Res<ServeEngine> {
    Ok(ServeEngine::builder()
        .model(model)
        .workers(WORKERS)
        .kernel_threads(KERNEL_THREADS)
        .max_batch(MAX_BATCH)
        .max_wait(MAX_WAIT)
        .queue_depth(QUEUE_DEPTH)
        .deadline(None)
        .trace_every(trace_every)
        .start()?)
}

fn bit_identical(scores: &[f32], reference: &[f32]) -> bool {
    scores.len() == reference.len()
        && scores.iter().zip(reference).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// One request's life, on the benchmark's clock.
#[derive(Debug, Clone)]
struct Served {
    /// When the schedule said to send it (closed loop: when it was sent).
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    done: Instant,
    batch_size: usize,
    trace: Option<RequestTrace>,
}

impl Served {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }
}

/// Outcome of one load phase.
#[derive(Debug, Default)]
struct Phase {
    served: Vec<Served>,
    tally: Tally,
    /// Seconds from the first send to the last completion.
    wall_s: f64,
    /// How late each submit started relative to its due time, ms.
    late_ms: Vec<f64>,
    /// Mean coalesced batch over the phase, from the engine's counters.
    mean_batch: f64,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.served.iter().map(Served::latency_ms).collect()
    }

    fn completions_per_s(&self) -> f64 {
        self.served.len() as f64 / self.wall_s
    }

    /// Pools another phase of the same kind into this one.
    fn absorb(&mut self, other: Phase) {
        self.served.extend(other.served);
        self.late_ms.extend(other.late_ms);
        self.tally.add(other.tally);
        self.wall_s += other.wall_s;
    }
}

/// Per-cycle sample vectors as the window slices `stats` takes.
fn as_windows(cycles: &[Vec<f64>]) -> Vec<&[f64]> {
    cycles.iter().map(Vec::as_slice).collect()
}

fn mean_batch_between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> f64 {
    let batches = after.batches().saturating_sub(before.batches());
    if batches == 0 {
        return f64::NAN;
    }
    after.requests().saturating_sub(before.requests()) as f64 / batches as f64
}

type Pending = (usize, Instant, Instant, Instant, mpsc::Receiver<Result<Completion, ServeError>>);

/// Takes one completion and checks its scores against the reference.
fn collect(inputs: &ServeInputs, pending: Pending, phase: &mut Phase) {
    let (sample, due, submit_start, submit_end, rx) = pending;
    match rx.recv() {
        Ok(Ok(completion)) => {
            let done = Instant::now();
            let ok = bit_identical(completion.scores.as_slice(), &inputs.references[sample]);
            phase.tally.attempt(ok);
            phase.served.push(Served {
                due,
                submit_start,
                submit_end,
                done,
                batch_size: completion.batch_size,
                trace: completion.trace,
            });
        }
        // Expired, failed in the worker, or dropped at shutdown.
        Ok(Err(_)) | Err(_) => phase.tally.attempt(false),
    }
}

/// Open loop: request `i` is due at `start + i / rps` whatever the engine
/// does; a late generator catches up in a burst and the lateness is kept.
fn open_loop(
    engine: &ServeEngine,
    inputs: &ServeInputs,
    first: usize,
    rps: f64,
    seconds: f64,
) -> Phase {
    let total = (rps * seconds).ceil().max(1.0) as usize;
    let before = engine.metrics();
    let (tx, rx) = mpsc::channel::<Pending>();
    let mut phase = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut phase = Phase::default();
            for pending in rx {
                collect(inputs, pending, &mut phase);
            }
            phase
        });
        let mut shed = Tally::default();
        let mut late_ms = Vec::with_capacity(total);
        let start = Instant::now();
        for i in 0..total {
            let due = start + Duration::from_secs_f64(i as f64 / rps);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let sample = inputs.pick(first + i);
            let submit_start = Instant::now();
            late_ms.push((submit_start - due).as_secs_f64() * 1e3);
            match engine.submit(inputs.samples[sample].clone()) {
                Ok(rx) => {
                    // The collector only stops when `tx` is dropped.
                    let _ = tx.send((sample, due, submit_start, Instant::now(), rx));
                }
                // Shed at admission (or any other refusal): a failed request.
                Err(_) => shed.attempt(false),
            }
        }
        drop(tx);
        let mut phase = collector.join().expect("the collector thread does not panic");
        phase.tally.add(shed);
        phase.late_ms = late_ms;
        phase.wall_s = start.elapsed().as_secs_f64();
        phase
    });
    phase.mean_batch = mean_batch_between(&before, &engine.metrics());
    phase
}

/// Closed loop: `outstanding` requests in flight, the next one sent when the
/// oldest completes, for `seconds`; then the window drains.
fn closed_loop(
    engine: &ServeEngine,
    inputs: &ServeInputs,
    first: usize,
    outstanding: usize,
    seconds: f64,
) -> Phase {
    let before = engine.metrics();
    let mut phase = Phase::default();
    let mut window: VecDeque<Pending> = VecDeque::with_capacity(outstanding);
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        if window.len() == outstanding {
            let oldest = window.pop_front().expect("window is full");
            collect(inputs, oldest, &mut phase);
        }
        let sample = inputs.pick(first + i);
        let submit_start = Instant::now();
        match engine.submit(inputs.samples[sample].clone()) {
            Ok(rx) => window.push_back((sample, submit_start, submit_start, Instant::now(), rx)),
            Err(_) => phase.tally.attempt(false),
        }
        i += 1;
    }
    for pending in window {
        collect(inputs, pending, &mut phase);
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.mean_batch = mean_batch_between(&before, &engine.metrics());
    phase
}

/// The same model with no engine around it: direct batch-1
/// `FrozenExecutor::infer` calls on the serving thread count.
struct DirectTape {
    exec: FrozenExecutor,
    batches: Vec<Tensor>,
    calls: usize,
}

impl DirectTape {
    fn new(model: &FrozenModel, inputs: &ServeInputs) -> Res<Self> {
        let batches = inputs.samples.iter().map(batch_of_one).collect::<Res<_>>()?;
        Ok(DirectTape { exec: model.executor(1)?, batches, calls: 0 })
    }

    /// Calls for `seconds` (at least 20 times); returns each call's ms.
    fn run(&mut self, inputs: &ServeInputs, seconds: f64, tally: &mut Tally) -> Res<Vec<f64>> {
        with_threads(KERNEL_THREADS, || {
            let mut ms = Vec::new();
            let began = Instant::now();
            while ms.len() < 20 || began.elapsed().as_secs_f64() < seconds {
                let sample = inputs.pick(self.calls);
                let start = Instant::now();
                let scores = self.exec.infer(&self.batches[sample])?;
                ms.push(start.elapsed().as_secs_f64() * 1e3);
                tally.attempt(bit_identical(scores.as_slice(), &inputs.references[sample]));
                self.calls += 1;
            }
            Ok(ms)
        })
    }
}

/// `setup_s` of `serve_engine`: load the model file, start the engine, get
/// the first correct reply.
fn engine_set_up(inputs: &ServeInputs, tally: &mut Tally) -> Res<f64> {
    let start = Instant::now();
    let engine = start_engine(FrozenModel::load(&inputs.model_path)?, 0)?;
    let reply = engine.infer_blocking(inputs.samples[0].clone())?;
    let seconds = start.elapsed().as_secs_f64();
    tally.attempt(bit_identical(reply.scores.as_slice(), &inputs.references[0]));
    engine.shutdown();
    Ok(seconds)
}

fn warm_up(engine: &ServeEngine, inputs: &ServeInputs) {
    // Compiles the tapes the phases will use and faults the arenas in.
    closed_loop(engine, inputs, 0, SATURATION_OUTSTANDING, 0.25);
}

/// The untraced `serve_engine` run: [`CYCLES`] cycles, each 10 % direct
/// tape, 65 % open loop at [`MAIN_RPS`], 25 % closed-loop saturation.
pub fn run_engine(
    inputs: &ServeInputs,
    seconds: f64,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Res<()> {
    let model = FrozenModel::load(&inputs.model_path)?;
    let mut tape = DirectTape::new(&model, inputs)?;
    let engine = start_engine(model, 0)?;
    warm_up(&engine, inputs);
    let cycle = seconds / CYCLES as f64;
    let (mut main, mut saturated) = (Phase::default(), Phase::default());
    let (mut cycle_tape_ms, mut cycle_latencies, mut saturated_rates) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut setup_s = Vec::new();
    for _ in 0..CYCLES {
        for _ in 0..SETUP_REPS_PER_CYCLE {
            setup_s.push(engine_set_up(inputs, tally)?);
        }
        cycle_tape_ms.push(tape.run(inputs, 0.10 * cycle, tally)?);
        let phase = open_loop(&engine, inputs, main.served.len(), MAIN_RPS, 0.65 * cycle);
        cycle_latencies.push(phase.latencies_ms());
        main.absorb(phase);
        let phase = closed_loop(
            &engine,
            inputs,
            saturated.served.len(),
            SATURATION_OUTSTANDING,
            0.25 * cycle,
        );
        saturated_rates.push(phase.completions_per_s());
        saturated.absorb(phase);
    }
    engine.shutdown();

    out.put_windowed(&Windowed {
        setup_s,
        latency_ms: as_windows(&cycle_latencies),
        reference_ms: as_windows(&cycle_tape_ms),
        images_per_s: saturated_rates,
    });
    out.note("gen_late_ms_p99", percentile(&main.late_ms, 99.0));
    main.tally.note("phase.main", out);
    saturated.tally.note("phase.saturation", out);
    tally.add(main.tally);
    tally.add(saturated.tally);
    Ok(())
}

fn record_requests(rec: &mut Recorder, phase_name: &str, phase: &Phase) {
    let (Some(first), Some(last)) = (phase.served.first(), phase.served.last()) else { return };
    let parent = rec.record(phase_name, None, first.due, last.done);
    for s in &phase.served {
        let request = rec.record("request", Some(parent), s.due, s.done);
        rec.record("submit", Some(request), s.submit_start, s.submit_end);
        rec.record("wait", Some(request), s.submit_end, s.done);
        rec.attr(request, "batch_size", s.batch_size as f64);
        if let Some(trace) = &s.trace {
            rec.attr(request, "queue_us", trace.queue_us as f64);
            rec.attr(request, "infer_us", trace.infer_us as f64);
            rec.attr(request, "stolen", f64::from(u8::from(trace.stolen)));
        }
    }
}

/// The traced engine section. `budget_s` splits over the lo / main (control)
/// / main (traced) / hi open-loop phases and saturation as 1 : 2 : 2 : 1 : 1; the
/// isolated measurements (artifact, tape, unloaded, C ABI, obs) are counted
/// in calls, not seconds. Also returns the in-process closed-loop median at
/// two outstanding requests, which `http_layers` subtracts from its own.
pub fn engine_layers(
    inputs: &ServeInputs,
    budget_s: f64,
    rec: &mut Recorder,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Res<(TracedSummary, f64)> {
    let unit = budget_s / 7.0;

    // artifact + graph: the stages of loading a served model.
    let checkpoint = Checkpoint::read_artifact(&inputs.model_path)?;
    let scratch = inputs.model_path.with_extension("rewrite.bnff");
    let write_s = time_median(5, || Ok(checkpoint.write_artifact(&scratch)?))?;
    std::fs::remove_file(&scratch)?;
    out.put("artifact.write_ms", write_s * 1e3, "ms");
    let load_s = time_median(9, || Ok(Checkpoint::read_artifact(&inputs.model_path)?))?;
    out.put("artifact.load_ms", load_s * 1e3, "ms");
    out.put("artifact.bytes", std::fs::metadata(&inputs.model_path)?.len() as f64, "B");
    let freeze_s =
        time_median(9, || Ok(ServeEngine::builder().checkpoint(&checkpoint).build_model()?))?;
    out.put("graph.freeze_ms", freeze_s * 1e3, "ms");
    let model = FrozenModel::load(&inputs.model_path)?;
    let compile_s = time_median(9, || Ok(model.executor(1)?))?;
    out.put("graph.tape_compile_ms", compile_s * 1e3, "ms");
    out.put("graph.tape_instructions", model.executor(1)?.program().len() as f64, "count");

    // The tape alone, at batch 1 and at the largest coalesced batch.
    let (b1, b8) = with_threads(KERNEL_THREADS, || -> Res<(f64, f64)> {
        let one = batch_of_one(&inputs.samples[0])?;
        let exec1 = model.executor(1)?;
        let b1 = time_median(100, || Ok(exec1.infer(&one)?))?;
        let mut stacked = Vec::with_capacity(MAX_BATCH * one.len());
        for sample in &inputs.samples[..MAX_BATCH] {
            stacked.extend_from_slice(sample.as_slice());
        }
        let mut dims = one.shape().dims().to_vec();
        dims[0] = MAX_BATCH;
        let eight = Tensor::from_vec(Shape::new(dims), stacked)?;
        let exec8 = model.executor(MAX_BATCH)?;
        let b8 = time_median(25, || Ok(exec8.infer(&eight)?))?;
        Ok((b1, b8))
    })?;
    out.put("serve.tape_ms.b1", b1 * 1e3, "ms");
    out.put("serve.tape_ms.b8", b8 * 1e3, "ms");
    out.put("serve.batch_efficiency", MAX_BATCH as f64 * b1 / b8, "ratio");

    // Trace echo off: the phases as the untraced run drives them.
    let plain = start_engine(model.clone(), 0)?;
    warm_up(&plain, inputs);
    let lo = open_loop(&plain, inputs, 0, SIDE_RPS[0], unit);
    let control = open_loop(&plain, inputs, 1000, MAIN_RPS, 2.0 * unit);
    let hi = open_loop(&plain, inputs, 2000, SIDE_RPS[1], unit);
    let saturated = closed_loop(&plain, inputs, 3000, SATURATION_OUTSTANDING, unit);
    let two_outstanding = closed_loop(&plain, inputs, 4000, HTTP_CLIENTS, 0.5 * unit);
    let render_s = time_median(50, || Ok(plain.prometheus_metrics()))?;
    out.put("serve.metrics_render_us", render_s * 1e6, "us");
    let counters = plain.shutdown();

    // Trace echo on every request: the engine's own queue/infer split.
    let traced_engine = start_engine(model, 1)?;
    warm_up(&traced_engine, inputs);
    let mut unloaded = (Vec::new(), Vec::new());
    for i in 0..100 {
        let start = Instant::now();
        let sample = inputs.pick(i);
        let reply = traced_engine.infer_blocking(inputs.samples[sample].clone())?;
        unloaded.0.push(start.elapsed().as_secs_f64() * 1e3);
        tally.attempt(bit_identical(reply.scores.as_slice(), &inputs.references[sample]));
        unloaded.1.push(reply.trace.map_or(f64::NAN, |t| t.queue_us as f64 / 1e3));
    }
    let traced = open_loop(&traced_engine, inputs, 1000, MAIN_RPS, 2.0 * unit);
    traced_engine.shutdown();
    record_requests(rec, "phase.main", &traced);

    let spans_of = |f: fn(&RequestTrace) -> u64| -> Vec<f64> {
        traced.served.iter().filter_map(|s| s.trace.as_ref()).map(|t| f(t) as f64 / 1e3).collect()
    };
    let (queue_ms, infer_ms) = (spans_of(|t| t.queue_us), spans_of(|t| t.infer_us));
    let summary = TracedSummary {
        control_p50_ms: median(&control.latencies_ms()),
        traced_p50_ms: median(&traced.latencies_ms()),
    };
    out.put("serve.unloaded_ms_p50", median(&unloaded.0), "ms");
    out.put("serve.wait_share", median(&unloaded.1) / median(&unloaded.0), "ratio");
    out.put("serve.queue_wait_ms_p50", median(&queue_ms), "ms");
    out.put("serve.queue_wait_ms_p99", percentile(&queue_ms, 99.0), "ms");
    out.put("serve.infer_ms_p50", median(&infer_ms), "ms");
    out.put("serve.infer_ms_p99", percentile(&infer_ms, 99.0), "ms");
    out.put("serve.mean_batch.lo", lo.mean_batch, "count");
    out.put("serve.mean_batch.main", control.mean_batch, "count");
    out.put("serve.mean_batch.hi", hi.mean_batch, "count");
    out.put("serve.mean_batch.sat", saturated.mean_batch, "count");
    out.put("serve.open_p99_ms.lo", percentile(&lo.latencies_ms(), 99.0), "ms");
    out.put("serve.open_p99_ms.hi", percentile(&hi.latencies_ms(), 99.0), "ms");
    out.put("serve.gen_late_ms_p99", percentile(&control.late_ms, 99.0), "ms");
    out.put("serve.shed", counters.shed() as f64, "count");
    out.put("serve.expired", counters.expired() as f64, "count");
    out.put("serve.stolen_batches", counters.stolen_batches() as f64, "count");
    out.put("serve.executor_cache_peak", counters.executor_cache_peak() as f64, "count");
    out.put("obs.trace_on_overhead_pct", summary.overhead_pct(), "%");
    let accounted = (median(&queue_ms) + median(&infer_ms)) / summary.traced_p50_ms;
    out.note("serve.accounted_share", accounted);
    out.note("serve.saturation_rps", saturated.completions_per_s());
    let closed2_ms_p50 = median(&two_outstanding.latencies_ms());
    out.note("serve.closed2_ms_p50", closed2_ms_p50);
    for (name, phase) in [
        ("phase.lo", &lo),
        ("phase.main", &control),
        ("phase.main.traced", &traced),
        ("phase.hi", &hi),
        ("phase.saturation", &saturated),
        ("phase.closed2", &two_outstanding),
    ] {
        phase.tally.note(name, out);
        tally.add(phase.tally);
    }

    // obs: the recording sequence the engine runs once per request.
    let metrics = ServeMetrics::new();
    let record_s = time_median(25, || {
        for _ in 0..1000 {
            let taken = Instant::now();
            metrics.record_queue_wait(Duration::ZERO);
            metrics.record_infer(taken.elapsed());
            metrics.record_batch(1);
            metrics.record_queue_depth(0);
            metrics.record_request(taken.elapsed());
        }
        Ok(())
    })?;
    out.put("obs.record_sequence_ns", record_s * 1e9 / 1000.0, "ns");

    let (capi_ms, in_process_ms) = capi_infer_ms(inputs, tally)?;
    out.put("capi.infer_ms_p50", capi_ms, "ms");
    out.put("capi.overhead_us", (capi_ms - in_process_ms) * 1e3, "us");

    Ok((summary, closed2_ms_p50))
}

/// Median ms of one-at-a-time `bnff_infer` calls through the C ABI, and of
/// `infer_blocking` calls on an in-process engine with the same settings,
/// taken alternately so both see the same host conditions.
fn capi_infer_ms(inputs: &ServeInputs, tally: &mut Tally) -> Res<(f64, f64)> {
    use bnff_capi::{bnff_engine_start, bnff_free, bnff_infer, bnff_model_load, BNFF_OK};
    let in_process = start_engine(FrozenModel::load(&inputs.model_path)?, 0)?;
    let path = std::ffi::CString::new(inputs.model_path.to_string_lossy().as_bytes())?;
    // SAFETY: `path` is a live NUL-terminated string for the whole call.
    let model = unsafe { bnff_model_load(path.as_ptr()) };
    if model.is_null() {
        return Err("bnff_model_load failed".into());
    }
    // The C ABI has no kernel-thread argument: the engine inherits the
    // caller's `with_threads` scope, which pins it like the in-process one.
    // SAFETY: `model` was just returned live by `bnff_model_load`.
    let engine = with_threads(KERNEL_THREADS, || unsafe {
        bnff_engine_start(
            model,
            WORKERS as u32,
            MAX_BATCH as u32,
            MAX_WAIT.as_micros() as u64,
            QUEUE_DEPTH as u32,
        )
    });
    if engine.is_null() {
        // SAFETY: `model` is live and freed exactly once on this path.
        unsafe { bnff_free(model.cast()) };
        return Err("bnff_engine_start failed".into());
    }
    let (mut capi_ms, mut in_process_ms) = (Vec::new(), Vec::new());
    let mut scores = vec![0.0f32; inputs.references[0].len()];
    for i in 0..120 {
        let sample = inputs.pick(i);
        let values = inputs.samples[sample].as_slice();
        let mut written = 0u64;
        let start = Instant::now();
        // SAFETY: `engine` is live; `values` and `scores` are valid for the
        // lengths passed; `written` is a writable u64.
        let code = unsafe {
            bnff_infer(
                engine,
                values.as_ptr(),
                values.len() as u64,
                scores.as_mut_ptr(),
                scores.len() as u64,
                &mut written,
            )
        };
        let capi_elapsed = start.elapsed().as_secs_f64() * 1e3;
        tally.attempt(
            code == BNFF_OK
                && bit_identical(&scores[..written as usize], &inputs.references[sample]),
        );

        let start = Instant::now();
        let reply = in_process.infer_blocking(inputs.samples[sample].clone());
        let in_process_elapsed = start.elapsed().as_secs_f64() * 1e3;
        tally.attempt(
            reply.is_ok_and(|r| bit_identical(r.scores.as_slice(), &inputs.references[sample])),
        );
        // The first calls compile the tape; they are checked but not timed.
        if i >= 20 {
            capi_ms.push(capi_elapsed);
            in_process_ms.push(in_process_elapsed);
        }
    }
    // SAFETY: both handles are live and each is freed exactly once; freeing
    // the engine drains it first.
    unsafe {
        bnff_free(engine.cast());
        bnff_free(model.cast());
    }
    in_process.shutdown();
    Ok((median(&capi_ms), median(&in_process_ms)))
}

// ---------------------------------------------------------------- HTTP

/// One HTTP exchange on the client's clock.
#[derive(Debug, Clone, Copy)]
struct Exchange {
    start: Instant,
    connected: Instant,
    written: Instant,
    done: Instant,
}

impl Exchange {
    fn latency_ms(&self) -> f64 {
        (self.done - self.start).as_secs_f64() * 1e3
    }
}

fn render_requests(inputs: &ServeInputs) -> Vec<Vec<u8>> {
    inputs
        .bodies
        .iter()
        .map(|body| {
            format!(
                "POST /v1/infer HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
                 content-length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect()
}

/// Sends one pre-rendered request on a fresh connection and reads the reply
/// to end of stream (the server closes after one response).
fn exchange(addr: SocketAddr, request: &[u8]) -> std::io::Result<(Exchange, Vec<u8>)> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let connected = Instant::now();
    stream.write_all(request)?;
    let written = Instant::now();
    let mut reply = Vec::with_capacity(512);
    stream.read_to_end(&mut reply)?;
    Ok((Exchange { start, connected, written, done: Instant::now() }, reply))
}

/// Scores of a `200` reply; `None` for any other status or a malformed body.
fn reply_scores(reply: &[u8]) -> Option<Vec<f32>> {
    let text = std::str::from_utf8(reply).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    if head.split_whitespace().nth(1)? != "200" {
        return None;
    }
    serde_json::from_value(serde_json::parse(body).ok()?.get("scores")?).ok()
}

/// Equal after the JSON round trip: every score within 1e-6 relative and the
/// same arg-max.
fn close_enough(scores: &[f32], reference: &[f32]) -> bool {
    let argmax = |v: &[f32]| v.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i);
    scores.len() == reference.len()
        && argmax(scores) == argmax(reference)
        && scores
            .iter()
            .zip(reference)
            .all(|(a, b)| (a - b).abs() <= 1e-6 * b.abs().max(f32::MIN_POSITIVE))
}

/// Closed-loop HTTP phase: each client sends its next request when the
/// previous reply has been read to the end.
fn http_closed_loop(
    addr: SocketAddr,
    inputs: &ServeInputs,
    requests: &[Vec<u8>],
    seconds: f64,
) -> (Vec<Exchange>, Tally, f64) {
    let start = Instant::now();
    let per_client: Vec<(Vec<Exchange>, Tally)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..HTTP_CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut exchanges = Vec::new();
                    let mut tally = Tally::default();
                    let mut i = client;
                    while start.elapsed().as_secs_f64() < seconds {
                        let sample = inputs.pick(i);
                        match exchange(addr, &requests[sample]) {
                            Ok((times, reply)) => {
                                let ok = reply_scores(&reply)
                                    .is_some_and(|s| close_enough(&s, &inputs.references[sample]));
                                tally.attempt(ok);
                                exchanges.push(times);
                            }
                            Err(_) => tally.attempt(false),
                        }
                        i += HTTP_CLIENTS;
                    }
                    (exchanges, tally)
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("an http client does not panic")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let mut exchanges = Vec::new();
    for (e, t) in per_client {
        exchanges.extend(e);
        tally.add(t);
    }
    (exchanges, tally, wall_s)
}

fn start_http(inputs: &ServeInputs) -> Res<HttpServer> {
    let engine = start_engine(FrozenModel::load(&inputs.model_path)?, 0)?;
    Ok(HttpServer::bind(engine, "127.0.0.1:0")?)
}

/// `setup_s` of `serve_http`: load, start, bind, first correct reply.
fn http_set_up(inputs: &ServeInputs, requests: &[Vec<u8>], tally: &mut Tally) -> Res<f64> {
    let start = Instant::now();
    let server = start_http(inputs)?;
    let (_, reply) = exchange(server.local_addr(), &requests[0])?;
    let seconds = start.elapsed().as_secs_f64();
    tally.attempt(reply_scores(&reply).is_some_and(|s| close_enough(&s, &inputs.references[0])));
    server.shutdown();
    Ok(seconds)
}

/// The untraced `serve_http` run: [`CYCLES`] cycles, each 10 % direct tape
/// and 90 % closed-loop clients.
pub fn run_http(
    inputs: &ServeInputs,
    seconds: f64,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Res<()> {
    let requests = render_requests(inputs);
    let mut tape = DirectTape::new(&FrozenModel::load(&inputs.model_path)?, inputs)?;
    let server = start_http(inputs)?;
    let addr = server.local_addr();
    http_closed_loop(addr, inputs, &requests, 0.25);
    let cycle = seconds / CYCLES as f64;
    let (mut cycle_tape_ms, mut cycle_latencies, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut phase_tally = Tally::default();
    let mut setup_s = Vec::new();
    for _ in 0..CYCLES {
        for _ in 0..SETUP_REPS_PER_CYCLE {
            setup_s.push(http_set_up(inputs, &requests, tally)?);
        }
        cycle_tape_ms.push(tape.run(inputs, 0.10 * cycle, tally)?);
        let (exchanges, cycle_tally, wall_s) =
            http_closed_loop(addr, inputs, &requests, 0.90 * cycle);
        rates.push(exchanges.len() as f64 / wall_s);
        cycle_latencies.push(exchanges.iter().map(Exchange::latency_ms).collect::<Vec<_>>());
        phase_tally.add(cycle_tally);
    }
    server.shutdown();

    out.put_windowed(&Windowed {
        setup_s,
        latency_ms: as_windows(&cycle_latencies),
        reference_ms: as_windows(&cycle_tape_ms),
        images_per_s: rates,
    });
    phase_tally.note("phase.http", out);
    tally.add(phase_tally);
    Ok(())
}

/// The traced HTTP section: the closed loop with `http.request` ⊃
/// `http.connect` / `http.write` / `http.read` spans, then each HTTP-side
/// stage on its own. `closed2_ms_p50` is the in-process closed loop at the
/// same two outstanding requests (from the engine section).
pub fn http_layers(
    inputs: &ServeInputs,
    budget_s: f64,
    closed2_ms_p50: f64,
    rec: &mut Recorder,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Res<TracedSummary> {
    let requests = render_requests(inputs);
    let server = start_http(inputs)?;
    let addr = server.local_addr();
    http_closed_loop(addr, inputs, &requests, 0.25);
    let (control, control_tally, _) = http_closed_loop(addr, inputs, &requests, 0.4 * budget_s);
    let (exchanges, phase_tally, _) = http_closed_loop(addr, inputs, &requests, 0.6 * budget_s);
    tally.add(control_tally);
    tally.add(phase_tally);

    server.shutdown();

    let parent: Option<SpanId> = match (exchanges.first(), exchanges.last()) {
        (Some(first), Some(last)) => Some(rec.record("phase.http", None, first.start, last.done)),
        _ => None,
    };
    for e in &exchanges {
        let request = rec.record("http.request", parent, e.start, e.done);
        rec.record("http.connect", Some(request), e.start, e.connected);
        rec.record("http.write", Some(request), e.connected, e.written);
        rec.record("http.read", Some(request), e.written, e.done);
    }

    // The server's own stages on one request/response, outside any socket.
    let request_bytes = &requests[0];
    let read_s = time_median(200, || {
        let parsed = bnff_serve::http::read_request(&mut BufReader::new(request_bytes.as_slice()));
        Ok(parsed.map_err(|e| e.to_string())?)
    })?;
    let body = &inputs.bodies[0];
    let decode_s = time_median(200, || {
        let parsed = serde_json::parse(body)?;
        let sample: Vec<f32> =
            serde_json::from_value(parsed.get("sample").ok_or("no sample field")?)?;
        Ok(sample)
    })?;
    let response = |scores: &[f32]| {
        Value::Object(vec![
            ("scores".to_string(), serde_json::to_value(scores)),
            ("batch_size".to_string(), Value::UInt(1)),
            ("latency_us".to_string(), Value::UInt(1800)),
        ])
        .to_json()
    };
    let encode_s = time_median(200, || Ok(response(&inputs.references[0])))?;
    let reply_body = response(&inputs.references[0]);
    let write_s = time_median(200, || {
        let mut sink = Vec::with_capacity(512);
        Ok(bnff_serve::http::write_response(&mut sink, 200, &[], &reply_body)?)
    })?;

    let us = |f: fn(&Exchange) -> (Instant, Instant)| {
        median(&exchanges.iter().map(|e| (f(e).1 - f(e).0).as_secs_f64() * 1e6).collect::<Vec<_>>())
    };
    let traced_p50 = median(&exchanges.iter().map(Exchange::latency_ms).collect::<Vec<_>>());
    out.put("serve.http_read_us", read_s * 1e6, "us");
    out.put("serve.http_write_us", write_s * 1e6, "us");
    out.put("serve.json_decode_us", decode_s * 1e6, "us");
    out.put("serve.json_encode_us", encode_s * 1e6, "us");
    out.put("serve.connect_us", us(|e| (e.start, e.connected)), "us");
    out.put("serve.http_overhead_ms", traced_p50 - closed2_ms_p50, "ms");
    out.note("http.request_ms_p50", traced_p50);
    out.note("http.write_us_p50", us(|e| (e.connected, e.written)));
    out.note("http.read_us_p50", us(|e| (e.written, e.done)));
    Ok(TracedSummary {
        control_p50_ms: median(&control.iter().map(Exchange::latency_ms).collect::<Vec<_>>()),
        traced_p50_ms: traced_p50,
    })
}
