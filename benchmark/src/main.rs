//! The repository's one end-to-end benchmark. See `README.md` beside this
//! package for the workloads, the metrics and how to read the outputs.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. Every metric is printed as
//! `workload metric value unit`; the last line of standard output is the
//! result object `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is non-zero when an output was wrong or a pinned parameter would
//! have been overridden.

mod compare;
mod gen;
mod host;
mod layers;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;
mod train;

use compare::Declared;
use report::{Metrics, Tally};
use serde_json::Value;
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Result alias of the benchmark's own code.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Where result, trace and model files go, relative to the checkout root.
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage: bnff-benchmark --workload <name> [--seed <u64>] [--seconds <s>] \
[--trace <0|1> | --traced] [--corrupt-reference]
       bnff-benchmark --all [--runs <n>] [--seed <u64>] [--seconds <s>] [--traced]
       bnff-benchmark --compare <parent.json> <change.json>
Run from the repository root. Workloads: train_stream train_resident serve_engine serve_http";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    all: bool,
    runs: usize,
    compare: Option<(String, String)>,
    corrupt_reference: bool,
}

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut args = Args { seed: 1, runs: 1, ..Args::default() };
    let mut it = argv.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(flag, &mut it)?),
            "--seed" => args.seed = value(flag, &mut it)?.parse()?,
            "--seconds" => args.seconds = Some(value(flag, &mut it)?.parse()?),
            "--trace" => args.traced = value(flag, &mut it)? != "0",
            "--traced" => args.traced = true,
            "--all" => args.all = true,
            "--runs" => args.runs = value(flag, &mut it)?.parse()?,
            "--compare" => args.compare = Some((value(flag, &mut it)?, value(flag, &mut it)?)),
            "--corrupt-reference" => args.corrupt_reference = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}").into()),
        }
    }
    if args.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The result of one workload run.
struct Outcome {
    metrics: Metrics,
    tally: Tally,
    threads: String,
    trace: Option<Recorder>,
}

fn run_untraced(workload: &str, seeds: &gen::Seeds, seconds: f64, corrupt: bool) -> Res<Outcome> {
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let threads = match workload {
        "train_stream" | "train_resident" => {
            let spec = train_spec(workload, corrupt);
            train::run(&spec, seeds, seconds, &mut metrics, &mut tally)?;
            format!("with_threads({})", spec.threads)
        }
        _ => {
            let inputs = serve_inputs(seeds, workload, corrupt, &mut metrics)?;
            if workload == "serve_engine" {
                serve::run_engine(&inputs, seconds, &mut metrics, &mut tally)?;
            } else {
                serve::run_http(&inputs, seconds, &mut metrics, &mut tally)?;
            }
            serve_threads()
        }
    };
    metrics.put("peak_rss_mb", host::peak_rss_mb(), "MB");
    Ok(Outcome { metrics, tally, threads, trace: None })
}

fn train_spec(workload: &str, corrupt: bool) -> train::TrainSpec {
    let spec = if workload == "train_stream" { train::STREAM } else { train::RESIDENT };
    train::TrainSpec { reference_skew: if corrupt { 1.01 } else { 1.0 }, ..spec }
}

fn serve_threads() -> String {
    format!("workers={} kernel_threads={}", serve::WORKERS, serve::KERNEL_THREADS)
}

fn serve_inputs(
    seeds: &gen::Seeds,
    workload: &str,
    corrupt: bool,
    metrics: &mut Metrics,
) -> Res<gen::ServeInputs> {
    let began = std::time::Instant::now();
    let mut inputs = gen::serve_inputs(seeds, Path::new(OUT_DIR), workload)?;
    metrics.note("bench.generate_s", began.elapsed().as_secs_f64());
    if corrupt {
        // Self-test: a reference that is off by one ulp must fail the run.
        for reference in &mut inputs.references {
            reference[0] = f32::from_bits(reference[0].to_bits() ^ 1);
        }
    }
    Ok(inputs)
}

/// The traced run: every layer section on every workload, with the
/// workload's own section given the largest share of `seconds` and run at
/// the workload's own size; the other sections run as short probes so every
/// per-layer metric is always reported.
fn run_traced(workload: &str, seeds: &gen::Seeds, seconds: f64, corrupt: bool) -> Res<Outcome> {
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let mut rec = Recorder::new();
    let is_train = workload.starts_with("train_");
    let spec = train_spec(if is_train { workload } else { "train_resident" }, corrupt);
    let (train_share, engine_share, http_share) = match workload {
        "serve_engine" => (0.15, 0.55, 0.15),
        "serve_http" => (0.15, 0.30, 0.45),
        _ => (0.55, 0.25, 0.10),
    };

    let inputs = serve_inputs(seeds, workload, corrupt, &mut metrics)?;
    let train_summary =
        train::run_traced(&spec, seeds, train_share * seconds, &mut rec, &mut metrics, &mut tally)?;
    let (engine_summary, closed2_ms) =
        serve::engine_layers(&inputs, engine_share * seconds, &mut rec, &mut metrics, &mut tally)?;
    let http_summary = serve::http_layers(
        &inputs,
        http_share * seconds,
        closed2_ms,
        &mut rec,
        &mut metrics,
        &mut tally,
    )?;
    layers::kernel_and_host_layers(seeds, &mut metrics)?;

    let own = match workload {
        "serve_engine" => engine_summary,
        "serve_http" => http_summary,
        _ => train_summary,
    };
    metrics.put("bench.trace_overhead_pct", own.overhead_pct(), "%");
    let threads = format!("train with_threads({}); serve {}", spec.threads, serve_threads());
    Ok(Outcome { metrics, tally, threads, trace: Some(rec) })
}

/// Checks the emitted metric names against what `BENCHMARK.json` declares
/// for this kind of run, so the two cannot drift apart unnoticed.
fn check_declared(declared: &Declared, metrics: &Metrics, traced: bool) -> Res<()> {
    let mut want: Vec<&str> = if traced {
        declared.per_layer.iter().map(String::as_str).collect()
    } else {
        declared.end_to_end.iter().map(|m| m.name.as_str()).collect()
    };
    let mut got: Vec<&str> = metrics.rows().iter().map(|(name, _, _)| name.as_str()).collect();
    want.sort_unstable();
    got.sort_unstable();
    if want != got {
        let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
        let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
        return Err(format!(
            "metrics differ from BENCHMARK.json: not emitted {missing:?}, not declared {extra:?}"
        )
        .into());
    }
    Ok(())
}

fn out_path(workload: &str, suffix: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{workload}{suffix}.json"))
}

fn run_workload(args: &Args, declared: &Declared, workload: &str) -> Res<bool> {
    if !declared.workloads.iter().any(|w| w == workload) {
        return Err(format!("unknown workload {workload}\n{USAGE}").into());
    }
    host::refuse_env_overrides()?;
    std::fs::create_dir_all(OUT_DIR)?;
    let seconds = args.seconds.unwrap_or(declared.run_seconds);
    let seeds = gen::Seeds::derive(args.seed);
    let outcome = if args.traced {
        run_traced(workload, &seeds, seconds, args.corrupt_reference)?
    } else {
        run_untraced(workload, &seeds, seconds, args.corrupt_reference)?
    };
    check_declared(declared, &outcome.metrics, args.traced)?;

    let correct = outcome.tally.failed == 0;
    for (name, value, unit) in outcome.metrics.rows() {
        println!("{workload} {name} {value} {unit}");
    }
    for (name, value) in outcome.metrics.notes() {
        println!("# {workload} {name} {value}");
    }
    let fail_share = outcome.tally.failed as f64 / outcome.tally.attempted.max(1) as f64;
    println!("# {workload} fail_share {fail_share}");

    let stamp = host::stamp(workload, args.seed, seconds, args.traced, &outcome.threads);
    let result = vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(outcome.tally.attempted.max(1))),
        ("failed".to_string(), Value::UInt(outcome.tally.failed)),
        ("metrics".to_string(), outcome.metrics.to_json()),
    ];
    let mut record = vec![("stamp".to_string(), stamp.clone())];
    record.extend(result.iter().cloned());
    let notes =
        outcome.metrics.notes().iter().map(|(n, v)| (n.clone(), Value::Float(*v))).collect();
    record.push(("notes".to_string(), Value::Object(notes)));
    record.push(("windows".to_string(), outcome.metrics.windows_json()));
    let suffix = if args.traced { ".traced" } else { "" };
    std::fs::write(out_path(workload, suffix), Value::Object(record).to_json_pretty())?;
    if let Some(rec) = &outcome.trace {
        std::fs::write(out_path(workload, ".trace"), rec.to_json(stamp).to_json())?;
    }
    println!("{}", Value::Object(result).to_json());
    Ok(correct)
}

/// `--all`: every workload, one child process each (so `peak_rss_mb` and the
/// allocator state belong to one workload), `--runs` times with consecutive
/// seeds; the run records are gathered into `benchmark/out/all.json`.
fn run_all(args: &Args, declared: &Declared) -> Res<bool> {
    let exe = std::env::current_exe()?;
    let mut records = Vec::new();
    let mut all_correct = true;
    for run in 0..args.runs.max(1) as u64 {
        for workload in &declared.workloads {
            let mut child = std::process::Command::new(&exe);
            child.args(["--workload", workload, "--seed", &(args.seed + run).to_string()]);
            child.args(["--trace", if args.traced { "1" } else { "0" }]);
            if let Some(seconds) = args.seconds {
                child.args(["--seconds", &seconds.to_string()]);
            }
            all_correct &= child.status()?.success();
            let suffix = if args.traced { ".traced" } else { "" };
            if let Ok(text) = std::fs::read_to_string(out_path(workload, suffix)) {
                records.push(serde_json::parse(&text)?);
            }
        }
    }
    let path = out_path("all", if args.traced { ".traced" } else { "" });
    std::fs::write(&path, Value::Array(records).to_json_pretty())?;
    println!("# wrote {}", path.display());
    Ok(all_correct)
}

fn run(argv: &[String]) -> Res<bool> {
    let args = parse_args(argv)?;
    let declared = Declared::load()?;
    if let Some((parent, change)) = &args.compare {
        return compare::compare(&declared, parent, change);
    }
    if args.all {
        return run_all(&args, &declared);
    }
    match &args.workload {
        Some(workload) => run_workload(&args, &declared, workload),
        None => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bnff-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
