//! Spans recorded by the benchmark itself, around each call into a crate.
//!
//! A span is `{id, parent, name, start_ns, end_ns}` on one clock (ns since
//! the recorder was made). They stay in memory while a workload runs and
//! are written out once, at the end. A layer's *self time* is its span's
//! length minus the part of it that its child spans cover.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name, e.g. `train.forward` or `request`.
    pub name: String,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Counts measured at the same boundary (batch size, queue µs, ...).
    pub attrs: Vec<(&'static str, f64)>,
}

/// In-memory span store with a single time origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    /// Records a finished interval and returns its id. Instants taken before
    /// the recorder existed clamp to its origin.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Attaches a count to a recorded span.
    pub fn attr(&mut self, id: SpanId, key: &'static str, value: f64) {
        self.spans[id].attrs.push((key, value));
    }

    /// Total and self time per span name, in ns, given [`self_times`].
    fn totals_by_name(&self, selfs: &[u64]) -> BTreeMap<String, NameTotal> {
        let mut out: BTreeMap<String, NameTotal> = BTreeMap::new();
        for (span, &self_ns) in self.spans.iter().zip(selfs) {
            let entry = out.entry(span.name.clone()).or_default();
            entry.count += 1;
            entry.total_ns += span.end_ns - span.start_ns;
            entry.self_ns += self_ns;
        }
        out
    }

    /// The trace file: every span with its self time, plus per-name totals.
    pub fn to_json(&self, stamp: Value) -> Value {
        let selfs = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                let mut fields = vec![
                    ("id".to_string(), Value::UInt(id as u64)),
                    ("parent".to_string(), s.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                    ("name".to_string(), Value::String(s.name.clone())),
                    ("start_ns".to_string(), Value::UInt(s.start_ns)),
                    ("end_ns".to_string(), Value::UInt(s.end_ns)),
                    ("self_ns".to_string(), Value::UInt(*self_ns)),
                ];
                fields.extend(s.attrs.iter().map(|(k, v)| ((*k).to_string(), Value::Float(*v))));
                Value::Object(fields)
            })
            .collect();
        let by_name = self
            .totals_by_name(&selfs)
            .into_iter()
            .map(|(name, t)| {
                let fields = vec![
                    ("count".to_string(), Value::UInt(t.count)),
                    ("total_ns".to_string(), Value::UInt(t.total_ns)),
                    ("self_ns".to_string(), Value::UInt(t.self_ns)),
                ];
                (name, Value::Object(fields))
            })
            .collect();
        Value::Object(vec![
            ("stamp".to_string(), stamp),
            ("by_name".to_string(), Value::Object(by_name)),
            ("spans".to_string(), Value::Array(spans)),
        ])
    }
}

/// Count, total and self time of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans with this name.
    pub count: u64,
    /// Summed span lengths.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Self time of every span: its length minus the union of its children's
/// intervals, each clipped to the parent. Overlapping children (requests in
/// flight together under one phase span) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: name.to_string(), parent, start_ns, end_ns, attrs: Vec::new() }
    }

    #[test]
    fn self_time_is_length_minus_children() {
        let spans = vec![
            span("step", None, 0, 100),
            span("forward", Some(0), 5, 40),
            span("backward", Some(0), 40, 90),
        ];
        assert_eq!(self_times(&spans), vec![15, 35, 50]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("phase", None, 10, 110),
            // Two requests in flight together: union covers 20..80.
            span("request", Some(0), 20, 60),
            span("request", Some(0), 40, 80),
            // A child that outlives its parent only counts up to its end.
            span("request", Some(0), 100, 150),
            // A child entirely outside covers nothing.
            span("request", Some(0), 200, 210),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn grandchildren_reduce_only_their_own_parent() {
        let spans = vec![
            span("request", None, 0, 50),
            span("wait", Some(0), 10, 50),
            span("infer", Some(1), 30, 45),
        ];
        assert_eq!(self_times(&spans), vec![10, 25, 15]);
    }

    #[test]
    fn totals_group_by_name_and_serialize() {
        let mut rec = Recorder::new();
        let t0 = Instant::now();
        let step = rec.record("step", None, t0, t0 + std::time::Duration::from_nanos(1000));
        rec.record("fwd", Some(step), t0, t0 + std::time::Duration::from_nanos(400));
        rec.attr(step, "level", 3.0);
        let totals = rec.totals_by_name(&self_times(&rec.spans));
        assert_eq!(totals["step"], NameTotal { count: 1, total_ns: 1000, self_ns: 600 });
        assert_eq!(totals["fwd"], NameTotal { count: 1, total_ns: 400, self_ns: 400 });
        let json = rec.to_json(Value::Null).to_json();
        assert!(json.contains("\"self_ns\":600") && json.contains("\"level\":3.0"));
    }
}
