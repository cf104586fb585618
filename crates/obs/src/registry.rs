//! A unified metrics registry: named counters, gauges and histograms with
//! lock-free recording and Prometheus text-format exposition.
//!
//! Registration (naming a metric, attaching labels) takes a mutex once;
//! the returned `Arc` handles record with relaxed atomics only — the hot
//! path of a serving engine never touches the registry lock again.
//! [`Registry::render_prometheus`] walks the families and emits the
//! `text/plain; version=0.0.4` exposition format a Prometheus scraper
//! consumes: `# HELP`/`# TYPE` headers, one sample line per handle, and
//! for histograms cumulative `le` buckets at registration-chosen bounds
//! plus `_sum`/`_count`.

use crate::hist::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (and track a running maximum).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (peak tracking).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Exposition parameters of a registered histogram.
#[derive(Debug, Clone)]
pub struct HistogramOpts {
    /// Multiplier from raw recorded ticks to the exposed unit (e.g.
    /// `1e-9` for a histogram recording nanoseconds exposed in seconds).
    pub unit_scale: f64,
    /// Raw-tick upper bounds of the exposed cumulative `le` buckets
    /// (ascending). Powers of two align exactly with the internal
    /// log-linear buckets; `+Inf` is appended automatically.
    pub bounds: Vec<u64>,
}

impl HistogramOpts {
    /// Latency exposition in seconds from nanosecond ticks: `le` bounds
    /// every factor of 4 from ~1 µs to ~17 s.
    pub fn latency_ns() -> Self {
        HistogramOpts {
            unit_scale: 1e-9,
            bounds: (10..=34).step_by(2).map(|exp| 1u64 << exp).collect(),
        }
    }

    /// Small-magnitude exposition (queue depths, batch sizes): unit scale
    /// 1, power-of-two bounds 1..=1024.
    pub fn small_counts() -> Self {
        HistogramOpts { unit_scale: 1.0, bounds: (0..=10).map(|exp| 1u64 << exp).collect() }
    }
}

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>, HistogramOpts),
}

struct Sample {
    labels: Vec<(String, String)>,
    handle: Handle,
}

struct Family {
    name: String,
    help: String,
    kind: &'static str,
    samples: Vec<Sample>,
}

/// The registry: metric families by name, each holding one handle per
/// label set. See the module docs for the locking discipline.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        f.debug_struct("Registry").field("families", &families.len()).finish()
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: &'static str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let mut families = self.families.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(family) => {
                assert_eq!(family.kind, kind, "metric {name} re-registered as a different kind");
                family
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    samples: Vec::new(),
                });
                families.last_mut().expect("family just pushed")
            }
        };
        if let Some(sample) = family.samples.iter().find(|s| s.labels == labels) {
            return match &sample.handle {
                Handle::Counter(c) => Handle::Counter(Arc::clone(c)),
                Handle::Gauge(g) => Handle::Gauge(Arc::clone(g)),
                Handle::Histogram(h, opts) => Handle::Histogram(Arc::clone(h), opts.clone()),
            };
        }
        let handle = make();
        let clone = match &handle {
            Handle::Counter(c) => Handle::Counter(Arc::clone(c)),
            Handle::Gauge(g) => Handle::Gauge(Arc::clone(g)),
            Handle::Histogram(h, opts) => Handle::Histogram(Arc::clone(h), opts.clone()),
        };
        family.samples.push(Sample { labels, handle });
        clone
    }

    /// Registers (or re-fetches) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers (or re-fetches) a counter with baked-in labels.
    pub(crate) fn counter_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        match self.register(name, help, "counter", labels, || {
            Handle::Counter(Arc::new(Counter::default()))
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!("counter registration returned a different kind"),
        }
    }

    /// Registers (or re-fetches) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or re-fetches) a gauge with baked-in labels.
    pub(crate) fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self
            .register(name, help, "gauge", labels, || Handle::Gauge(Arc::new(Gauge::default())))
        {
            Handle::Gauge(g) => g,
            _ => unreachable!("gauge registration returned a different kind"),
        }
    }

    /// Registers (or re-fetches) an unlabelled histogram.
    pub fn histogram(&self, name: &str, help: &str, opts: HistogramOpts) -> Arc<Histogram> {
        self.histogram_with(name, help, opts, &[])
    }

    /// Registers (or re-fetches) a histogram with baked-in labels.
    pub(crate) fn histogram_with(
        &self,
        name: &str,
        help: &str,
        opts: HistogramOpts,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.register(name, help, "histogram", labels, || {
            Handle::Histogram(Arc::new(Histogram::new()), opts)
        }) {
            Handle::Histogram(h, _) => h,
            _ => unreachable!("histogram registration returned a different kind"),
        }
    }

    /// Renders every family in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::new();
        for family in families.iter() {
            out.push_str(&format!("# HELP {} {}\n", family.name, escape_help(&family.help)));
            out.push_str(&format!("# TYPE {} {}\n", family.name, family.kind));
            for sample in &family.samples {
                match &sample.handle {
                    Handle::Counter(c) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            family.name,
                            label_set(&sample.labels, None),
                            c.get()
                        ));
                    }
                    Handle::Gauge(g) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            family.name,
                            label_set(&sample.labels, None),
                            g.get()
                        ));
                    }
                    Handle::Histogram(h, opts) => {
                        render_histogram(
                            &mut out,
                            &family.name,
                            &sample.labels,
                            &h.snapshot(),
                            opts,
                        );
                    }
                }
            }
        }
        out
    }
}

fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    snap: &HistogramSnapshot,
    opts: &HistogramOpts,
) {
    for &bound in &opts.bounds {
        let le = format_float(bound as f64 * opts.unit_scale);
        out.push_str(&format!(
            "{name}_bucket{} {}\n",
            label_set(labels, Some(&le)),
            snap.cumulative_le(bound)
        ));
    }
    out.push_str(&format!("{name}_bucket{} {}\n", label_set(labels, Some("+Inf")), snap.count()));
    out.push_str(&format!(
        "{name}_sum{} {}\n",
        label_set(labels, None),
        format_float(snap.sum() as f64 * opts.unit_scale)
    ));
    out.push_str(&format!("{name}_count{} {}\n", label_set(labels, None), snap.count()));
}

/// Renders a label set, optionally with a trailing `le` label. Empty sets
/// render as nothing (`name 3`, not `name{} 3`).
fn label_set(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Floats in exposition lines: plain decimal, no exponent, trimmed — the
/// format every scraper parses (`0.000001024`, `12`, `0.25`).
fn format_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        return format!("{}", v as i64);
    }
    let mut s = format!("{v:.12}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let reg = Registry::new();
        let c = reg.counter("bnff_requests_total", "Requests admitted.");
        c.add(3);
        let g = reg.gauge("bnff_queued", "Requests queued.");
        g.add(5);
        g.sub(2);
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP bnff_requests_total Requests admitted.\n"));
        assert!(text.contains("# TYPE bnff_requests_total counter\n"));
        assert!(text.contains("\nbnff_requests_total 3\n") || text.starts_with("# HELP"));
        assert!(text.contains("bnff_requests_total 3\n"));
        assert!(text.contains("# TYPE bnff_queued gauge\n"));
        assert!(text.contains("bnff_queued 3\n"));
    }

    #[test]
    fn labelled_samples_share_a_family() {
        let reg = Registry::new();
        let a = reg.counter_with("bnff_worker_batches_total", "Batches.", &[("worker", "0")]);
        let b = reg.counter_with("bnff_worker_batches_total", "Batches.", &[("worker", "1")]);
        a.inc();
        b.add(2);
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# TYPE bnff_worker_batches_total counter").count(), 1);
        assert!(text.contains("bnff_worker_batches_total{worker=\"0\"} 1\n"));
        assert!(text.contains("bnff_worker_batches_total{worker=\"1\"} 2\n"));
    }

    #[test]
    fn re_registration_returns_the_same_handle() {
        let reg = Registry::new();
        let a = reg.counter("bnff_shed_total", "Shed.");
        let b = reg.counter("bnff_shed_total", "Shed.");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(b.get(), 2);
    }

    #[test]
    fn histograms_expose_cumulative_buckets() {
        let reg = Registry::new();
        let h = reg.histogram(
            "bnff_request_latency_seconds",
            "End-to-end request latency.",
            HistogramOpts::latency_ns(),
        );
        h.record(2_000); // 2 µs
        h.record(3_000_000); // 3 ms
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE bnff_request_latency_seconds histogram\n"));
        // 2^10 ns = 1.024 µs bound excludes both; 2^12 = 4.096 µs includes
        // the 2 µs observation.
        assert!(text.contains("bnff_request_latency_seconds_bucket{le=\"0.000001024\"} 0\n"));
        assert!(text.contains("bnff_request_latency_seconds_bucket{le=\"0.000004096\"} 1\n"));
        assert!(text.contains("bnff_request_latency_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("bnff_request_latency_seconds_count 2\n"));
        assert!(text.contains("bnff_request_latency_seconds_sum 0.003002\n"));
    }

    #[test]
    fn exposition_is_well_formed() {
        // Every non-comment line is `name{labels}? value`; every family has
        // HELP and TYPE exactly once — the shape the CI smoke asserts too.
        let reg = Registry::new();
        reg.counter("a_total", "A.").inc();
        reg.gauge_with("b", "B.", &[("shard", "x\"y")]).set(-4);
        reg.histogram("c_seconds", "C.", HistogramOpts::latency_ns()).record(5);
        let text = reg.render_prometheus();
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP ") || line.starts_with("# TYPE "), "{line}");
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!name_part.is_empty());
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
        }
        assert!(text.contains("b{shard=\"x\\\"y\"} -4\n"));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_rejected() {
        Registry::new().counter("bad name", "nope");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_are_rejected() {
        let reg = Registry::new();
        reg.counter("dual", "first");
        reg.gauge("dual", "second");
    }
}
