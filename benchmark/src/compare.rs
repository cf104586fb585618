//! `BENCHMARK.json` as the benchmark itself reads it, and `--compare`: the
//! bounds it declares applied to two sets of runs.

use crate::stats::median;
use crate::Res;
use serde_json::Value;
use std::collections::BTreeMap;

/// One declared end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    /// Metric name.
    pub name: String,
    /// Whether a lower value is the better one.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the benchmark uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<Bounded>,
    /// Per-layer metric names.
    pub per_layer: Vec<String>,
    /// Default length of one run's measurement.
    pub run_seconds: f64,
}

fn names(value: &Value, key: &str) -> Res<Vec<String>> {
    let items =
        value.get(key).and_then(Value::as_array).ok_or(format!("BENCHMARK.json: no {key}"))?;
    items
        .iter()
        .map(|item| {
            let name = item.get("name").and_then(Value::as_str);
            Ok(name.ok_or(format!("BENCHMARK.json: a {key} entry has no name"))?.to_string())
        })
        .collect()
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

impl Declared {
    /// Parses the text of `BENCHMARK.json`.
    pub fn parse(text: &str) -> Res<Declared> {
        let root = serde_json::parse(text)?;
        let metrics = root
            .get("end_to_end")
            .and_then(Value::as_array)
            .ok_or("BENCHMARK.json: no end_to_end")?;
        let end_to_end = metrics
            .iter()
            .map(|m| {
                let field = |key: &str| {
                    m.get(key).ok_or(format!("BENCHMARK.json: end_to_end entry without {key}"))
                };
                Ok(Bounded {
                    name: field("name")?.as_str().unwrap_or_default().to_string(),
                    lower_is_better: field("better")?.as_str() == Some("lower"),
                    bound: number(field("bound")?)
                        .ok_or("BENCHMARK.json: bound is not a number")?,
                })
            })
            .collect::<Res<Vec<_>>>()?;
        Ok(Declared {
            workloads: names(&root, "workloads")?,
            end_to_end,
            per_layer: names(&root, "per_layer")?,
            run_seconds: root
                .get("run_seconds")
                .and_then(number)
                .ok_or("BENCHMARK.json: no run_seconds")?,
        })
    }

    /// Reads `BENCHMARK.json` from the current directory (the checkout root).
    pub fn load() -> Res<Declared> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("reading BENCHMARK.json from the current directory: {e}"))?;
        Declared::parse(&text)
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so spreads read the same as the driver's.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 with under two values.
pub fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| (q3 - q1) / median(values).abs())
}

/// How much worse `change` is than `parent`, as a share of `parent`;
/// negative when it is better.
pub fn worse_by(parent: f64, change: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (change - parent) / parent
    } else {
        (parent - change) / parent
    }
}

/// Outcome of one metric × workload row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Ok,
    /// Worse by more than the bound.
    Worse,
    /// The run-to-run spread exceeds the bound, so the bound cannot decide.
    Unresolved,
}

/// Applies one metric's bound to the runs of parent and change.
pub fn judge(metric: &Bounded, parent: &[f64], change: &[f64]) -> Verdict {
    let better = |a: f64, b: f64| if metric.lower_is_better { a < b } else { a > b };
    let every =
        |f: &dyn Fn(f64, f64) -> bool| change.iter().all(|&c| parent.iter().all(|&p| f(c, p)));
    let over = worse_by(median(parent), median(change), metric.lower_is_better) > metric.bound;
    if spread(parent).max(spread(change)) > metric.bound {
        // Too noisy for the bound, unless the two sets do not even overlap.
        if every(&|c, p| better(c, p)) {
            Verdict::Ok
        } else if over && every(&|c, p| better(p, c)) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if over {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `workload → metric → values` of the untraced runs in a result file: one
/// run object or an array of them.
pub fn load_runs(path: &str) -> Res<BTreeMap<String, BTreeMap<String, Vec<f64>>>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let root = serde_json::parse(&text)?;
    let runs: Vec<&Value> = match &root {
        Value::Array(items) => items.iter().collect(),
        single => vec![single],
    };
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in runs {
        let stamp = run.get("stamp").ok_or(format!("{path}: a run has no stamp"))?;
        if stamp.get("traced") == Some(&Value::Bool(true)) {
            continue;
        }
        let workload =
            stamp.get("workload").and_then(Value::as_str).ok_or(format!("{path}: no workload"))?;
        let metrics =
            run.get("metrics").and_then(Value::as_object).ok_or(format!("{path}: no metrics"))?;
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(number) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(out)
}

/// Prints one row per end-to-end metric × workload; `true` when none is worse.
pub fn compare(declared: &Declared, parent_path: &str, change_path: &str) -> Res<bool> {
    let (parent, change) = (load_runs(parent_path)?, load_runs(change_path)?);
    let mut none_worse = true;
    println!(
        "workload metric parent_median change_median worse_by bound parent_spread change_spread \
         verdict"
    );
    for workload in &declared.workloads {
        for metric in &declared.end_to_end {
            let side = |runs: &BTreeMap<String, BTreeMap<String, Vec<f64>>>| {
                runs.get(workload).and_then(|m| m.get(&metric.name)).cloned().unwrap_or_default()
            };
            let (p, c) = (side(&parent), side(&change));
            if p.is_empty() || c.is_empty() {
                println!("{workload} {} - - - {} - - missing", metric.name, metric.bound);
                continue;
            }
            let verdict = judge(metric, &p, &c);
            none_worse &= verdict != Verdict::Worse;
            println!(
                "{workload} {} {} {} {:+.4} {} {:.4} {:.4} {}",
                metric.name,
                median(&p),
                median(&c),
                worse_by(median(&p), median(&c), metric.lower_is_better),
                metric.bound,
                spread(&p),
                spread(&c),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bounded {
        Bounded { name: "latency_ms_p50".into(), lower_is_better: true, bound }
    }
    fn higher(bound: f64) -> Bounded {
        Bounded { name: "images_per_s".into(), lower_is_better: false, bound }
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(100.0, 107.0, true) - 0.07).abs() < 1e-12);
        assert!((worse_by(100.0, 93.0, true) + 0.07).abs() < 1e-12);
        assert!((worse_by(100.0, 93.0, false) - 0.07).abs() < 1e-12);
        assert!((worse_by(100.0, 107.0, false) + 0.07).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]).unwrap();
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]).unwrap();
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[1.0]), 0.0);
    }

    #[test]
    fn the_bound_decides_when_runs_are_steady() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(&lower(0.07), &parent, &[106.0, 106.5, 105.5, 106.2, 105.8]), Verdict::Ok);
        assert_eq!(
            judge(&lower(0.07), &parent, &[108.0, 108.5, 107.5, 108.2, 107.8]),
            Verdict::Worse
        );
        assert_eq!(judge(&higher(0.07), &parent, &[92.0, 92.5, 91.5, 92.2, 91.8]), Verdict::Worse);
        assert_eq!(
            judge(&higher(0.07), &parent, &[108.0, 108.5, 107.5, 108.2, 107.8]),
            Verdict::Ok
        );
        // A single run per side has no spread: the bound alone decides.
        assert_eq!(judge(&lower(0.07), &[100.0], &[107.5]), Verdict::Worse);
    }

    #[test]
    fn noisy_runs_are_unresolved_unless_the_sets_do_not_overlap() {
        let noisy_parent = [100.0, 80.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&lower(0.07), &noisy_parent, &[105.0, 85.0, 125.0, 95.0, 115.0]),
            Verdict::Unresolved
        );
        // Every run of the change beats every run of the parent.
        assert_eq!(
            judge(&lower(0.07), &noisy_parent, &[70.0, 60.0, 75.0, 65.0, 72.0]),
            Verdict::Ok
        );
        // Every run of the change is worse than every run of the parent.
        assert_eq!(
            judge(&lower(0.07), &noisy_parent, &[170.0, 160.0, 175.0, 165.0, 172.0]),
            Verdict::Worse
        );
    }

    #[test]
    fn declared_metrics_parse() {
        let text = r#"{"command": ["x"], "paths": ["benchmark"], "run_seconds": 20,
            "workloads": [{"name": "a", "why": "w"}],
            "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                           {"name": "images_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
            "per_layer": [{"name": "x.y", "unit": "ms", "better": "lower"}]}"#;
        let declared = Declared::parse(text).unwrap();
        assert_eq!(declared.workloads, ["a"]);
        assert_eq!(
            declared.end_to_end[0],
            Bounded { name: "setup_s".into(), lower_is_better: true, bound: 0.25 }
        );
        assert!(!declared.end_to_end[1].lower_is_better);
        assert_eq!(declared.per_layer, ["x.y"]);
        assert_eq!(declared.run_seconds, 20.0);
    }
}
