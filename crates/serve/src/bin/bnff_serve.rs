//! `bnff_serve` — serve a trained model file over HTTP.
//!
//! ```text
//! bnff_serve --model model.bnff [--addr 127.0.0.1:8080] [--workers 2]
//!            [--max-batch 8] [--max-wait-ms 2] [--queue-depth 64]
//!            [--deadline-ms 50] [--kernel-threads 0] [--trace-every N]
//!            [--access-log]
//! ```
//!
//! The model file is a `.bnff` artifact (`Checkpoint::write_artifact`);
//! anything else exits non-zero with a typed bad-magic/truncated error. The
//! process runs until `POST /v1/shutdown` drains it (see the
//! `bnff_serve::httpd` docs for the endpoint table and status-code mapping).
//!
//! Operational output is structured logfmt on stderr (`bnff_obs::log`): a
//! `startup` line dumping the effective config, one `access` line per
//! request when `--access-log` is set, and a `shutdown` summary with the
//! final request counts and latency percentiles.

use bnff_obs::log::log_event;
use bnff_serve::{HttpOptions, ServeEngine};
use std::time::Duration;

struct Args {
    model: String,
    addr: String,
    workers: usize,
    max_batch: usize,
    max_wait: Duration,
    queue_depth: usize,
    deadline: Option<Duration>,
    kernel_threads: usize,
    trace_every: Option<u64>,
    access_log: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bnff_serve --model <file> [--addr HOST:PORT] [--workers N] [--max-batch N]\n\
         \x20                 [--max-wait-ms N] [--queue-depth N] [--deadline-ms N]\n\
         \x20                 [--kernel-threads N] [--trace-every N] [--access-log]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        model: String::new(),
        addr: "127.0.0.1:8080".to_string(),
        workers: 2,
        max_batch: 8,
        max_wait: Duration::from_millis(2),
        queue_depth: 64,
        deadline: None,
        kernel_threads: 0,
        trace_every: None,
        access_log: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--model" => args.model = value("--model"),
            "--addr" => args.addr = value("--addr"),
            "--workers" => args.workers = parse_num(&value("--workers"), "--workers"),
            "--max-batch" => args.max_batch = parse_num(&value("--max-batch"), "--max-batch"),
            "--max-wait-ms" => {
                args.max_wait =
                    Duration::from_millis(parse_num(&value("--max-wait-ms"), "--max-wait-ms"));
            }
            "--queue-depth" => {
                args.queue_depth = parse_num(&value("--queue-depth"), "--queue-depth");
            }
            "--deadline-ms" => {
                args.deadline = Some(Duration::from_millis(parse_num(
                    &value("--deadline-ms"),
                    "--deadline-ms",
                )));
            }
            "--kernel-threads" => {
                args.kernel_threads = parse_num(&value("--kernel-threads"), "--kernel-threads");
            }
            "--trace-every" => {
                args.trace_every = Some(parse_num(&value("--trace-every"), "--trace-every"));
            }
            "--access-log" => args.access_log = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if args.model.is_empty() {
        eprintln!("--model is required");
        usage()
    }
    args
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("bad value {raw:?} for {flag}");
        usage()
    })
}

fn main() {
    let args = parse_args();
    let mut builder = ServeEngine::builder()
        .model_file(&args.model)
        .workers(args.workers)
        .max_batch(args.max_batch)
        .max_wait(args.max_wait)
        .queue_depth(args.queue_depth)
        .deadline(args.deadline)
        .kernel_threads(args.kernel_threads);
    if let Some(every) = args.trace_every {
        builder = builder.trace_every(every);
    }
    let engine = builder.start().unwrap_or_else(|e| {
        eprintln!("bnff_serve: starting the engine from {}: {e}", args.model);
        std::process::exit(1);
    });
    let trace_period = engine.trace_period();
    let server = bnff_serve::HttpServer::bind_with(
        engine,
        &args.addr,
        HttpOptions { access_log: args.access_log },
    )
    .unwrap_or_else(|e| {
        eprintln!("bnff_serve: {e}");
        std::process::exit(1);
    });
    log_event(
        "bnff_serve",
        "startup",
        &[
            ("addr", format!("http://{}", server.local_addr())),
            ("model", args.model.clone()),
            ("workers", args.workers.to_string()),
            ("max_batch", args.max_batch.to_string()),
            ("max_wait_ms", args.max_wait.as_millis().to_string()),
            ("queue_depth", args.queue_depth.to_string()),
            (
                "deadline_ms",
                args.deadline.map_or("none".to_string(), |d| d.as_millis().to_string()),
            ),
            ("kernel_threads", args.kernel_threads.to_string()),
            ("trace_every", trace_period.to_string()),
            ("access_log", args.access_log.to_string()),
        ],
    );
    println!("bnff_serve: listening on http://{} (model {})", server.local_addr(), args.model);
    println!("bnff_serve: POST /v1/infer · GET /metrics · GET /v1/healthz · POST /v1/shutdown");
    match server.wait() {
        Some(metrics) => log_event(
            "bnff_serve",
            "shutdown",
            &[
                ("requests", metrics.requests().to_string()),
                ("batches", metrics.batches().to_string()),
                ("shed", metrics.shed().to_string()),
                ("expired", metrics.expired().to_string()),
                ("p50_ms", format!("{:.3}", metrics.percentile_ms(50.0))),
                ("p99_ms", format!("{:.3}", metrics.percentile_ms(99.0))),
                ("mean_batch", format!("{:.2}", metrics.mean_batch_size())),
            ],
        ),
        None => log_event("bnff_serve", "shutdown", &[("requests", "unknown".to_string())]),
    }
    println!("bnff_serve: drained, exiting");
}
