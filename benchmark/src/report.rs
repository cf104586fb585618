//! What a run reports: named metrics with units, free-form notes (sample
//! counts, chosen percentiles, per-phase tallies), and the attempted/failed
//! count every correctness check feeds.

use crate::stats::{quiet_quartile, quietest, quietest_rate, window_medians, window_tails};
use serde_json::Value;

/// Named metrics in emission order, plus notes that explain them.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, f64)>,
    windows: Vec<(&'static str, Vec<f64>)>,
}

/// One run's samples cut into its windows (see `stats::quietest`), and its
/// set-up repetitions.
#[derive(Debug)]
pub struct Windowed<'a> {
    /// Seconds of each set-up repetition; they are spread over the run.
    pub setup_s: Vec<f64>,
    /// Latency samples of each window, ms.
    pub latency_ms: Vec<&'a [f64]>,
    /// Reference samples of each window, ms.
    pub reference_ms: Vec<&'a [f64]>,
    /// Images per second of each window.
    pub images_per_s: Vec<f64>,
}

impl Metrics {
    /// Adds a metric. Names are unique within a run.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(self.get(&name).is_none(), "metric {name} emitted twice");
        self.rows.push((name, value, unit));
    }

    /// Adds `setup_s` and the four windowed end-to-end metrics, each read at
    /// the quiet end of its values (`stats::quietest`,
    /// `stats::quiet_quartile`), and keeps those values for the result file.
    pub fn put_windowed(&mut self, run: &Windowed<'_>) {
        self.put("setup_s", quiet_quartile(&run.setup_s), "s");
        self.windows.push(("setup_s", run.setup_s.clone()));
        let (tail_p, tails) = window_tails(&run.latency_ms);
        type Read = fn(&[f64]) -> f64;
        let per_window: [(&'static str, Vec<f64>, &'static str, Read); 4] = [
            ("latency_ms_p50", window_medians(&run.latency_ms), "ms", quietest),
            ("latency_ms_tail", tails, "ms", quiet_quartile),
            ("reference_ms_p50", window_medians(&run.reference_ms), "ms", quietest),
            ("images_per_s", run.images_per_s.clone(), "1/s", quietest_rate),
        ];
        for (name, values, unit, read) in per_window {
            self.put(name, read(&values), unit);
            self.windows.push((name, values));
        }
        self.note("latency_ms_tail.percentile", tail_p);
        self.note(
            "latency_ms.samples",
            run.latency_ms.iter().map(|w| w.len()).sum::<usize>() as f64,
        );
    }

    /// Per-window values behind the windowed metrics, `{name: [values]}`.
    pub fn windows_json(&self) -> Value {
        let array =
            |values: &[f64]| Value::Array(values.iter().map(|v| Value::Float(*v)).collect());
        Value::Object(self.windows.iter().map(|(n, v)| ((*n).to_string(), array(v))).collect())
    }

    /// Adds a note: context for a reader, not a declared metric.
    pub fn note(&mut self, name: impl Into<String>, value: f64) {
        self.notes.push((name.into(), value));
    }

    /// Value of an already emitted metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// Metrics in emission order.
    pub fn rows(&self) -> &[(String, f64, &'static str)] {
        &self.rows
    }

    /// Notes in emission order.
    pub fn notes(&self) -> &[(String, f64)] {
        &self.notes
    }

    /// `{name: {"value": v, "unit": u}}`, the shape of the result line.
    pub fn to_json(&self) -> Value {
        Value::Object(
            self.rows
                .iter()
                .map(|(name, value, unit)| {
                    let fields = vec![
                        ("value".to_string(), Value::Float(*value)),
                        ("unit".to_string(), Value::String((*unit).to_string())),
                    ];
                    (name.clone(), Value::Object(fields))
                })
                .collect(),
        )
    }
}

/// Operations attempted and failed. A step whose loss is not finite or
/// disagrees with the baseline, and a request that errors, is shed, expires
/// or returns the wrong scores, all count as failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one attempt and, unless `ok`, one failure.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Notes attempted / succeeded / failed of one phase, as every phase of a
    /// serving run must report them.
    pub fn note(&self, phase: &str, out: &mut Metrics) {
        out.note(format!("{phase}.attempted"), self.attempted as f64);
        out.note(format!("{phase}.succeeded"), (self.attempted - self.failed) as f64);
        out.note(format!("{phase}.failed"), self.failed as f64);
    }

    /// Folds another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A workload's main latency measured without and with tracing in one
/// process: what `bench.trace_overhead_pct` is made of.
#[derive(Debug, Clone, Copy)]
pub struct TracedSummary {
    /// Median with nothing recorded (and the engine's trace echo off).
    pub control_p50_ms: f64,
    /// Median with spans recorded (and the trace echo on).
    pub traced_p50_ms: f64,
}

impl TracedSummary {
    /// How much slower the traced median is, in percent.
    pub fn overhead_pct(&self) -> f64 {
        (self.traced_p50_ms / self.control_p50_ms - 1.0) * 100.0
    }
}
