//! The two training workloads: DenseNet-CIFAR stepped at batch 64
//! (`train_stream`, per-op tensors beyond L2) and at batch 2
//! (`train_resident`, everything cache-resident), baseline and BNFF
//! executors interleaved on the same batches.

use crate::gen::{self, Seeds};
use crate::replay::forward_kernel_seconds;
use crate::report::{Metrics, Tally, TracedSummary, Windowed};
use crate::spans::Recorder;
use crate::stats::{median, split, window_tails};
use crate::Res;
use bnff_core::{BnffOptimizer, FusionLevel};
use bnff_graph::analysis::{activation_sweep_count, graph_cost};
use bnff_memsim::{simulate_iteration, MachineProfile};
use bnff_parallel::with_threads;
use bnff_tensor::Tensor;
use bnff_train::data::SyntheticDataset;
use bnff_train::{Executor, SgdOptimizer};
use std::time::Instant;

/// Fixed parameters of one training workload.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// Mini-batch size: the working-set regime.
    pub batch: usize,
    /// `with_threads` pin of every step.
    pub threads: usize,
    /// Times set-up is repeated in a run.
    pub setup_reps: usize,
    /// Factor on the baseline loss before BNFF's is compared with it: 1
    /// always, except under `--corrupt-reference`.
    pub reference_skew: f32,
}

/// `train_stream`: 4–8 MB per-op tensors against a 4 MiB L2.
pub const STREAM: TrainSpec =
    TrainSpec { batch: 64, threads: 1, setup_reps: 5, reference_skew: 1.0 };
/// `train_resident`: the same model with everything in L2.
pub const RESIDENT: TrainSpec =
    TrainSpec { batch: 2, threads: 1, setup_reps: 25, reference_skew: 1.0 };
/// Windows a run is cut into (see `stats::quietest`).
const WINDOWS: usize = 10;
/// Thread count of the traced run's parallel leg.
const PARALLEL_LEG_THREADS: usize = 2;

/// Fusion levels, indexed by the `lN` suffix of the metric names.
pub const LEVELS: [FusionLevel; 4] =
    [FusionLevel::Baseline, FusionLevel::Rcf, FusionLevel::RcfMvf, FusionLevel::Bnff];
const L0: usize = 0;
const L3: usize = 3;

/// Largest relative loss gap allowed between baseline and BNFF on one batch.
const LOSS_TOLERANCE: f32 = 1e-3;
/// Round (control rounds included) whose L3 loss is reported as
/// `train.loss_final`: fixed, so the value repeats exactly for a seed
/// however many rounds the clock allows. At least five rounds always run.
const LOSS_ROUND: usize = 5;

type Batch = (Tensor, Vec<usize>);

struct Rig {
    exec: Executor,
    opt: SgdOptimizer,
}

/// Seconds of each stage of one set-up.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    build: f64,
    restructure: f64,
    executor_new: f64,
    total: f64,
}

/// Instants around the three calls of one step, and its loss.
#[derive(Debug, Clone, Copy)]
struct StepMarks {
    start: Instant,
    forward_done: Instant,
    backward_done: Instant,
    end: Instant,
    loss: f32,
}

impl StepMarks {
    fn ms(from: Instant, to: Instant) -> f64 {
        (to - from).as_secs_f64() * 1e3
    }
    fn step_ms(&self) -> f64 {
        Self::ms(self.start, self.end)
    }
}

/// One full optimization step: `forward` + `backward` +
/// `update_running_stats` + `SgdOptimizer::step`, as `Trainer::step` does
/// it, including the release of the step's activations and gradients.
fn step(rig: &mut Rig, batch: &Batch) -> Res<StepMarks> {
    let start = Instant::now();
    let fwd = rig.exec.forward(&batch.0, &batch.1)?;
    let forward_done = Instant::now();
    let grads = rig.exec.backward(&fwd)?;
    let backward_done = Instant::now();
    rig.exec.update_running_stats(&fwd)?;
    rig.opt.step(rig.exec.params_mut(), &grads)?;
    let loss = fwd.loss;
    drop(grads);
    drop(fwd);
    Ok(StepMarks { start, forward_done, backward_done, end: Instant::now(), loss })
}

/// What a user pays before the second step: build the model, restructure
/// it, plan an executor, and run the first step (which faults the arena in).
fn set_up(
    batch: usize,
    level: FusionLevel,
    seeds: &Seeds,
    first: &Batch,
) -> Res<(Rig, SetupTimes)> {
    let t0 = Instant::now();
    let baseline = gen::baseline_graph(batch)?;
    let t1 = Instant::now();
    let graph = BnffOptimizer::new(level).apply(&baseline)?;
    let t2 = Instant::now();
    let exec = Executor::new(graph, seeds.params)?;
    let opt = SgdOptimizer::new(gen::LEARNING_RATE, gen::MOMENTUM, gen::WEIGHT_DECAY)?;
    let t3 = Instant::now();
    let mut rig = Rig { exec, opt };
    step(&mut rig, first)?;
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let times = SetupTimes {
        build: secs(t0, t1),
        restructure: secs(t1, t2),
        executor_new: secs(t2, t3),
        total: t0.elapsed().as_secs_f64(),
    };
    Ok((rig, times))
}

/// Steps after set-up that are run but not timed. The allocator needs them:
/// glibc serves the first multi-megabyte tensors from fresh `mmap`s and only
/// starts reusing memory once some have been freed, so the first two steps
/// of an executor at batch 64 take up to twice as long as the rest.
const WARM_UP_STEPS: u64 = 2;

/// An executor that is set up and warmed up on batches `0..=WARM_UP_STEPS`.
fn warmed_rig(
    spec: &TrainSpec,
    level: FusionLevel,
    seeds: &Seeds,
    dataset: &SyntheticDataset,
    first: &Batch,
) -> Res<Rig> {
    let (mut rig, _) = set_up(spec.batch, level, seeds, first)?;
    for i in 1..=WARM_UP_STEPS {
        step(&mut rig, &dataset.batch(spec.batch, i)?)?;
    }
    Ok(rig)
}

/// Repeats set-up `reps` times at BNFF and returns every repetition's times.
fn repeat_set_up(spec: &TrainSpec, seeds: &Seeds, first: &Batch) -> Res<Vec<SetupTimes>> {
    (0..spec.setup_reps)
        .map(|_| Ok(set_up(spec.batch, FusionLevel::Bnff, seeds, first)?.1))
        .collect()
}

fn losses_agree(loss: f32, reference: f32) -> bool {
    loss.is_finite()
        && (loss - reference).abs() <= LOSS_TOLERANCE * reference.abs().max(f32::MIN_POSITIVE)
}

/// Steps baseline and BNFF on `batch`, alternating which goes first, and
/// checks the two losses against each other.
fn paired_step(
    l0: &mut Rig,
    l3: &mut Rig,
    batch: &Batch,
    bnff_first: bool,
    skew: f32,
    tally: &mut Tally,
) -> Res<(StepMarks, StepMarks)> {
    let (m0, m3) = if bnff_first {
        let m3 = step(l3, batch)?;
        (step(l0, batch)?, m3)
    } else {
        let m0 = step(l0, batch)?;
        (m0, step(l3, batch)?)
    };
    tally.attempt(m0.loss.is_finite());
    tally.attempt(losses_agree(m3.loss, m0.loss * skew));
    Ok((m0, m3))
}

/// Interleaved baseline/BNFF pairs until `seconds` of steps have been timed,
/// with the set-up repetitions spread evenly between them so that a slow
/// spell of the host cannot cover them all. Returns step ms per side and
/// the seconds of each set-up.
fn timed_pairs(
    spec: &TrainSpec,
    seeds: &Seeds,
    dataset: &SyntheticDataset,
    first: &Batch,
    seconds: f64,
    tally: &mut Tally,
) -> Res<(Vec<f64>, Vec<f64>, Vec<f64>)> {
    let mut l0 = warmed_rig(spec, LEVELS[L0], seeds, dataset, first)?;
    let mut l3 = warmed_rig(spec, LEVELS[L3], seeds, dataset, first)?;
    let (mut ms0, mut ms3, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut timed_s = 0.0;
    let mut pair = 0u64;
    while pair < 3 || timed_s < seconds {
        // Repetition k is due once k / reps of the run has been timed.
        let due = seconds * setup_s.len() as f64 / spec.setup_reps as f64;
        if setup_s.len() < spec.setup_reps && timed_s >= due {
            setup_s.push(set_up(spec.batch, FusionLevel::Bnff, seeds, first)?.1.total);
        }
        let batch = dataset.batch(spec.batch, WARM_UP_STEPS + 1 + pair)?;
        let (m0, m3) =
            paired_step(&mut l0, &mut l3, &batch, pair % 2 == 1, spec.reference_skew, tally)?;
        ms0.push(m0.step_ms());
        ms3.push(m3.step_ms());
        timed_s += (m0.step_ms() + m3.step_ms()) / 1e3;
        pair += 1;
    }
    Ok((ms0, ms3, setup_s))
}

/// The untraced run: the end-to-end metrics of one training workload.
pub fn run(
    spec: &TrainSpec,
    seeds: &Seeds,
    seconds: f64,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Res<()> {
    with_threads(spec.threads, || {
        let generate = Instant::now();
        let dataset = gen::dataset(seeds)?;
        let first = dataset.batch(spec.batch, 0)?;
        out.note("bench.generate_s", generate.elapsed().as_secs_f64());

        let (ms0, ms3, setup_s) = timed_pairs(spec, seeds, &dataset, &first, seconds, tally)?;
        let latency_ms = split(&ms3, WINDOWS);
        let images_per_s = latency_ms
            .iter()
            .map(|w| (spec.batch * w.len()) as f64 / (w.iter().sum::<f64>() / 1e3))
            .collect();
        out.put_windowed(&Windowed {
            setup_s,
            latency_ms,
            reference_ms: split(&ms0, WINDOWS),
            images_per_s,
        });
        Ok(())
    })
}

/// Per-level samples of the traced rounds.
#[derive(Debug, Default)]
struct LevelSamples {
    forward: Vec<f64>,
    backward: Vec<f64>,
    update: Vec<f64>,
    step: Vec<f64>,
}

impl LevelSamples {
    fn push(&mut self, m: &StepMarks) {
        self.forward.push(StepMarks::ms(m.start, m.forward_done));
        self.backward.push(StepMarks::ms(m.forward_done, m.backward_done));
        self.update.push(StepMarks::ms(m.backward_done, m.end));
        self.step.push(m.step_ms());
    }
}

/// Records `step.<tag>` ⊃ `train.{data,forward,backward,update}.<tag>`.
fn record_step(rec: &mut Recorder, tag: &str, data_start: Instant, m: &StepMarks) {
    let parent = Some(rec.record(format!("step.{tag}"), None, data_start, m.end));
    rec.record(format!("train.data.{tag}"), parent, data_start, m.start);
    rec.record(format!("train.forward.{tag}"), parent, m.start, m.forward_done);
    rec.record(format!("train.backward.{tag}"), parent, m.forward_done, m.backward_done);
    rec.record(format!("train.update.{tag}"), parent, m.backward_done, m.end);
}

/// The traced run of the train section: all four levels with spans, a
/// two-thread leg, the kernel replay, and the model-side counts. `budget_s`
/// is split 15 % control rounds, 50 % traced rounds, 20 % two-thread leg;
/// the replay takes what it takes (a few forward passes).
pub fn run_traced(
    spec: &TrainSpec,
    seeds: &Seeds,
    budget_s: f64,
    rec: &mut Recorder,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Res<TracedSummary> {
    with_threads(spec.threads, || {
        let dataset = gen::dataset(seeds)?;
        let first = dataset.batch(spec.batch, 0)?;

        // Set-up stages, as the untraced `setup_s` runs them.
        let setups = repeat_set_up(spec, seeds, &first)?;
        let stage =
            |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>()) * 1e3;
        out.put("models.build_ms", stage(|s| s.build), "ms");
        out.put("core.restructure_ms", stage(|s| s.restructure), "ms");
        out.put("train.executor_new_ms", stage(|s| s.executor_new), "ms");

        let mut rigs = Vec::new();
        for level in LEVELS {
            rigs.push(warmed_rig(spec, level, seeds, &dataset, &first)?);
        }
        // Rounds over all four levels on one batch each, rotating which level
        // leads. The first rounds are the control: the same loop with nothing
        // recorded, which `bench.trace_overhead_pct` compares against.
        let mut round = 0usize;
        let mut loss_final = f32::NAN;
        let mut run_round =
            |rigs: &mut [Rig], tally: &mut Tally| -> Res<Vec<(Instant, StepMarks)>> {
                let mut marks: Vec<Option<(Instant, StepMarks)>> = vec![None; LEVELS.len()];
                for turn in 0..LEVELS.len() {
                    let level = (turn + round) % LEVELS.len();
                    let data_start = Instant::now();
                    let batch = dataset.batch(spec.batch, WARM_UP_STEPS + 1 + round as u64)?;
                    marks[level] = Some((data_start, step(&mut rigs[level], &batch)?));
                }
                let marks: Vec<(Instant, StepMarks)> = marks.into_iter().flatten().collect();
                for (level, (_, m)) in marks.iter().enumerate() {
                    let skew = if level == L0 { 1.0 } else { spec.reference_skew };
                    tally.attempt(losses_agree(m.loss, marks[L0].1.loss * skew));
                }
                round += 1;
                if round == LOSS_ROUND {
                    loss_final = marks[L3].1.loss;
                }
                Ok(marks)
            };
        let mut control_ms3 = Vec::new();
        let began = Instant::now();
        while control_ms3.len() < 2 || began.elapsed().as_secs_f64() < 0.15 * budget_s {
            control_ms3.push(run_round(&mut rigs, tally)?[L3].1.step_ms());
        }
        let mut samples: Vec<LevelSamples> =
            LEVELS.iter().map(|_| LevelSamples::default()).collect();
        let mut data_ms = Vec::new();
        let began = Instant::now();
        while data_ms.len() < 3 * LEVELS.len() || began.elapsed().as_secs_f64() < 0.5 * budget_s {
            for (level, (data_start, marks)) in run_round(&mut rigs, tally)?.iter().enumerate() {
                data_ms.push(StepMarks::ms(*data_start, marks.start));
                record_step(rec, &format!("l{level}"), *data_start, marks);
                samples[level].push(marks);
            }
        }

        // Two-thread leg on the same executors (the thread count is a
        // property of the dispatch, not of the executor).
        let mut two_threads = [Vec::new(), Vec::new()];
        with_threads(PARALLEL_LEG_THREADS, || -> Res<()> {
            let began = Instant::now();
            let mut i = 0u64;
            while i < 2 || began.elapsed().as_secs_f64() < 0.2 * budget_s {
                for (slot, level) in [L0, L3].into_iter().enumerate() {
                    let data_start = Instant::now();
                    let batch = dataset.batch(spec.batch, WARM_UP_STEPS + 1 + round as u64 + i)?;
                    let marks = step(&mut rigs[level], &batch)?;
                    record_step(rec, &format!("l{level}.2t"), data_start, &marks);
                    tally.attempt(marks.loss.is_finite());
                    two_threads[slot].push(marks.step_ms());
                }
                i += 1;
            }
            Ok(())
        })?;

        let step_p50: Vec<f64> = samples.iter().map(|s| median(&s.step)).collect();
        for (level, s) in samples.iter().enumerate() {
            out.put(format!("train.forward_ms.l{level}"), median(&s.forward), "ms");
            out.put(format!("train.backward_ms.l{level}"), median(&s.backward), "ms");
            out.put(format!("train.update_ms.l{level}"), median(&s.update), "ms");
        }
        out.put("train.data_ms", median(&data_ms), "ms");
        for level in [L0, L3] {
            let (tail_p, tails) = window_tails(&[samples[level].step.as_slice()]);
            out.put(format!("train.step_ms_tail.l{level}"), tails[0], "ms");
            out.note(format!("train.step_ms_tail.l{level}.percentile"), tail_p);
        }
        out.put("train.loss_final", f64::from(loss_final), "loss");
        out.put("train.bnff_over_baseline", step_p50[L3] / step_p50[L0], "ratio");
        out.put("train.step_ms_2t.l0", median(&two_threads[0]), "ms");
        out.put("train.step_ms_2t.l3", median(&two_threads[1]), "ms");
        out.put("parallel.speedup_2t.l3", step_p50[L3] / median(&two_threads[1]), "ratio");
        out.note("train.rounds", round as f64);

        // Model-side counts and memsim's prediction next to the measurement.
        let machine = MachineProfile::skylake_xeon_2s();
        let mut predicted = Vec::new();
        for (level, rig) in rigs.iter().enumerate() {
            let graph = rig.exec.graph();
            let plan = rig.exec.plan();
            out.put(
                format!("train.planned_peak_bytes.l{level}"),
                plan.planned_peak_bytes() as f64,
                "B",
            );
            out.put(format!("train.naive_bytes.l{level}"), plan.naive_total_bytes() as f64, "B");
            let sim = simulate_iteration(graph, &machine)?;
            let measured_s =
                (median(&samples[level].forward) + median(&samples[level].backward)) / 1e3;
            out.put(format!("memsim.dram_bytes.l{level}"), sim.total_dram_bytes(), "B");
            out.put(format!("memsim.predicted_ms.l{level}"), sim.total_seconds() * 1e3, "ms");
            out.put(
                format!("memsim.model_error.l{level}"),
                sim.total_seconds() / measured_s,
                "ratio",
            );
            // Bytes are memsim's computed traffic, not a hardware counter.
            out.put(
                format!("memsim.effective_gbps.l{level}"),
                sim.total_dram_bytes() / measured_s / 1e9,
                "GB/s",
            );
            predicted.push(sim.total_seconds());
            if level == L0 || level == L3 {
                out.put(format!("graph.nodes.l{level}"), graph.node_count() as f64, "count");
                out.put(
                    format!("graph.sweeps.l{level}"),
                    activation_sweep_count(graph)? as f64,
                    "count",
                );
                let (kernel_s, by_kind) = forward_kernel_seconds(graph, 3, seeds.samples)?;
                let forward_s = median(&samples[level].forward) / 1e3;
                out.put(
                    format!("train.overhead_share.l{level}"),
                    1.0 - kernel_s / forward_s,
                    "ratio",
                );
                for (kind, seconds) in by_kind {
                    out.note(format!("replay.l{level}.{kind}_ms"), seconds * 1e3);
                }
            }
        }
        out.put("memsim.predicted_speedup", predicted[L0] / predicted[L3], "ratio");
        out.put("graph.flops_per_step", graph_cost(rigs[L0].exec.graph())?.flops_total(), "flop");

        Ok(TracedSummary { control_p50_ms: median(&control_ms3), traced_p50_ms: step_p50[L3] })
    })
}
