//! Regenerates the tables and figures of the paper's evaluation section
//! from the analytical machine model:
//!
//! ```text
//! figures [all|table1|fig1|fig3|fig4|fig6|fig7|fig8|gpu] [batch|scale]
//! ```
//!
//! One figure prints its table followed by its rows as JSON. `all` (the
//! default) prints every table in sequence — the one-shot reproduction —
//! and dumps the rows to `experiment_results.json` in the working
//! directory. The optional number is the mini-batch (`fig6`: the batch
//! scale); anything unparsable falls back to the paper's value.

use bnff_bench::{ms, pct, print_table};
use bnff_core::experiments as exp;
use serde_json::{json, Value};
use std::str::FromStr;

type Outcome = Result<Value, Box<dyn std::error::Error>>;

/// One table or figure: its command-line name, its key in
/// `experiment_results.json`, whether `all`'s number (the CPU mini-batch)
/// is its argument, and the driver that prints it and returns its rows.
struct Figure {
    name: &'static str,
    key: &'static str,
    takes_cpu_batch: bool,
    run: fn(Option<&str>) -> Outcome,
}

const FIGURES: &[Figure] = &[
    Figure { name: "table1", key: "table1", takes_cpu_batch: false, run: table1 },
    Figure { name: "fig1", key: "figure1", takes_cpu_batch: true, run: fig1 },
    Figure { name: "fig3", key: "figure3", takes_cpu_batch: true, run: fig3 },
    Figure { name: "fig4", key: "figure4", takes_cpu_batch: true, run: fig4 },
    Figure { name: "fig6", key: "figure6", takes_cpu_batch: false, run: fig6 },
    Figure { name: "fig7", key: "figure7", takes_cpu_batch: true, run: fig7 },
    Figure { name: "fig8", key: "figure8", takes_cpu_batch: true, run: fig8 },
    Figure { name: "gpu", key: "gpu", takes_cpu_batch: false, run: gpu },
];

fn parsed<T: FromStr>(arg: Option<&str>, default: T) -> T {
    arg.and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Table 1: peak single-precision performance and peak memory bandwidth of
/// the evaluated data-parallel architectures.
fn table1(_: Option<&str>) -> Outcome {
    let rows = exp::table1();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.machine.clone(),
                format!("{:.2}", r.tflops),
                format!("{:.1}", r.bandwidth_gbs),
                format!("{:.1}", r.flop_per_byte),
                r.batch.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 1 — peak performance and memory bandwidth",
        &["architecture", "TFLOPS", "BW (GB/s)", "FLOP/B", "mini-batch"],
        &table,
    );
    Ok(json!(rows))
}

/// Figure 1: execution-time breakdown (CONV/FC vs non-CONV) of AlexNet,
/// VGG-16, ResNet-50 and DenseNet-121 during training.
fn fig1(arg: Option<&str>) -> Outcome {
    let batch = parsed(arg, exp::PAPER_CPU_BATCH);
    let rows = exp::figure1(batch)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                pct(r.conv_fc_fraction),
                pct(r.non_conv_fraction),
                ms(r.total_seconds),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 1 — execution-time breakdown (batch {batch})"),
        &["model", "CONV/FC", "non-CONV", "iteration"],
        &table,
    );
    Ok(json!(rows))
}

/// Figure 3: memory-bandwidth utilization of DenseNet-121 layers over one
/// training iteration.
fn fig3(arg: Option<&str>) -> Outcome {
    let batch = parsed(arg, exp::PAPER_CPU_BATCH);
    let series = exp::figure3(batch, 96)?;
    println!("\n== Figure 3 — bandwidth utilization over time (batch {batch}) ==");
    println!(
        "peak bandwidth: {:.1} GB/s, layer executions: {}",
        series.peak_bandwidth_gbs, series.events
    );
    println!(
        "average forward utilization: non-CONV {} vs CONV {}",
        pct(series.non_conv_avg_utilization),
        pct(series.conv_avg_utilization)
    );
    println!("\ntime-bucketed utilization (one row per bucket, 60 cols = 100%):");
    for (i, u) in series.utilization.iter().enumerate() {
        let bars = (u * 60.0).round() as usize;
        println!("{:3} | {}{}", i, "#".repeat(bars), " ".repeat(60usize.saturating_sub(bars)));
    }
    Ok(json!(series))
}

/// Figure 4: BN and ReLU execution time with finite vs infinite
/// (hypothetical) memory bandwidth on DenseNet-121.
fn fig4(arg: Option<&str>) -> Outcome {
    let batch = parsed(arg, exp::PAPER_CPU_BATCH);
    let rows = exp::figure4(batch)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.layer.clone(),
                ms(r.finite_seconds),
                ms(r.infinite_seconds),
                format!("{:.1}x", r.speedup),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 4 — finite vs infinite memory bandwidth (batch {batch})"),
        &["layer", "finite BW", "infinite BW", "speedup"],
        &table,
    );
    Ok(json!(rows))
}

/// Figure 6: CONV/FC vs non-CONV execution time of DenseNet-121 on the GPU,
/// KNL and Skylake profiles (per iteration and per image). The argument
/// scales each profile's mini-batch.
fn fig6(arg: Option<&str>) -> Outcome {
    let rows = exp::figure6(parsed(arg, 1.0))?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.machine.clone(),
                r.batch.to_string(),
                ms(r.conv_seconds),
                ms(r.non_conv_seconds),
                ms(r.total_seconds),
                ms(r.per_image_seconds),
            ]
        })
        .collect();
    print_table(
        "Figure 6 — DenseNet-121 across architectures",
        &["architecture", "batch", "CONV/FC", "non-CONV", "iteration", "per image"],
        &table,
    );
    Ok(json!(rows))
}

/// Figure 7: execution time and memory accesses per training iteration for
/// Baseline / RCF / RCF+MVF / BNFF / BNFF+ICF on DenseNet-121 and ResNet-50
/// (Skylake profile).
fn fig7(arg: Option<&str>) -> Outcome {
    let batch = parsed(arg, exp::PAPER_CPU_BATCH);
    let rows = exp::figure7(batch)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.scenario.clone(),
                ms(r.fwd_seconds),
                ms(r.bwd_seconds),
                ms(r.total_seconds),
                format!("{:.1} GB", r.dram_gb),
                pct(r.improvement),
                pct(r.fwd_improvement),
                pct(r.bwd_improvement),
                pct(r.traffic_reduction),
                format!("{:.2} GB", r.planned_peak_gb),
                format!("{:.2} GB", r.naive_activation_gb),
                pct(r.planner_reduction),
                format!("{:.1} GB", r.gemm_blocked_gb),
                pct(r.gemm_locality_reduction),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 7 — scenario sweep (batch {batch})"),
        &[
            "model",
            "scenario",
            "fwd",
            "bwd",
            "total",
            "DRAM",
            "improv",
            "fwd improv",
            "bwd improv",
            "traffic -",
            "plan peak",
            "naive act",
            "plan -",
            "gemm DRAM",
            "gemm loc -",
        ],
        &table,
    );
    Ok(json!(rows))
}

/// Figure 8: baseline vs BNFF at full (230.4 GB/s) and halved (115.2 GB/s)
/// memory bandwidth on DenseNet-121.
fn fig8(arg: Option<&str>) -> Outcome {
    let batch = parsed(arg, exp::PAPER_CPU_BATCH);
    let rows = exp::figure8(batch)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.bandwidth_gbs),
                r.scenario.clone(),
                ms(r.total_seconds),
                pct(r.non_conv_fraction),
                pct(r.bnff_improvement),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 8 — bandwidth sensitivity (batch {batch})"),
        &["BW (GB/s)", "scenario", "iteration", "non-CONV share", "BNFF gain"],
        &table,
    );
    Ok(json!(rows))
}

/// Section 5 GPU evaluation: scenario improvements on a Pascal Titan X
/// profile (CUTLASS-style baseline, mini-batch 28).
fn gpu(arg: Option<&str>) -> Outcome {
    let batch = parsed(arg, 28);
    let rows = exp::gpu_cutlass(batch)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.model.clone(), r.scenario.clone(), pct(r.improvement)])
        .collect();
    print_table(
        &format!("Section 5 (GPU) — scenario improvements (batch {batch})"),
        &["model", "scenario", "improvement"],
        &table,
    );
    Ok(json!(rows))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map_or("all", String::as_str);
    let number = args.get(1).map(String::as_str);

    if let Some(figure) = FIGURES.iter().find(|f| f.name == which) {
        let rows = (figure.run)(number)?;
        println!("\n{}", serde_json::to_string_pretty(&rows)?);
        return Ok(());
    }
    if which != "all" {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        return Err(format!("unknown figure '{which}': expected all|{}", names.join("|")).into());
    }
    let batch: usize = parsed(number, exp::PAPER_CPU_BATCH);
    let mut dump = vec![("batch".to_string(), json!(batch))];
    for figure in FIGURES {
        let rows = (figure.run)(number.filter(|_| figure.takes_cpu_batch))?;
        dump.push((figure.key.to_string(), rows));
    }
    std::fs::write("experiment_results.json", serde_json::to_string_pretty(&Value::Object(dump))?)?;
    println!("\nwrote experiment_results.json");
    Ok(())
}
