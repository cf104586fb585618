//! Serving metrics on the unified [`bnff_obs`] registry: lock-free
//! counters, gauges and latency histograms with both the legacy JSON
//! [`ServeReport`] and Prometheus text exposition.
//!
//! The engine records through [`ServeMetrics`] — typed handles into one
//! [`Registry`] — so every observation is a relaxed atomic; no request
//! ever takes a metrics lock (the registry mutex is touched only at
//! registration and scrape time). Readers take a [`MetricsSnapshot`],
//! which carries the same read API the old per-worker recorder exposed
//! (`requests()`, `percentile_ms(..)`, `report(..)`) so existing
//! consumers keep working, now backed by log-bucketed histograms with
//! ≤ 6.25% relative quantile error instead of unbounded latency vectors.

use bnff_obs::{Counter, Gauge, Histogram, HistogramOpts, HistogramSnapshot, Registry};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Lock-free recording handles for the serving engine, all registered on
/// one shared [`Registry`] (which also renders the Prometheus scrape).
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    registry: Arc<Registry>,
    requests: Arc<Counter>,
    batches: Arc<Counter>,
    batch_samples: Arc<Counter>,
    stolen: Arc<Counter>,
    shed: Arc<Counter>,
    expired: Arc<Counter>,
    latency: Arc<Histogram>,
    queue_wait: Arc<Histogram>,
    infer: Arc<Histogram>,
    queue_depth: Arc<Histogram>,
    queued: Arc<Gauge>,
    cache_peak: Arc<Gauge>,
    batch_capacity: Arc<Gauge>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// Fresh metrics on a fresh registry.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new());
        ServeMetrics {
            requests: registry.counter("bnff_requests_total", "Requests served to completion."),
            batches: registry.counter("bnff_batches_total", "Coalesced batches executed."),
            batch_samples: registry
                .counter("bnff_batch_samples_total", "Samples across all executed batches."),
            stolen: registry.counter(
                "bnff_stolen_batches_total",
                "Batches a worker assembled by stealing from a sibling shard.",
            ),
            shed: registry.counter(
                "bnff_shed_total",
                "Requests shed by admission control (every shard queue full).",
            ),
            expired: registry.counter(
                "bnff_expired_total",
                "Requests expired in the queue past the configured deadline.",
            ),
            latency: registry.histogram(
                "bnff_request_latency_seconds",
                "End-to-end request latency, enqueue to completion.",
                HistogramOpts::latency_ns(),
            ),
            queue_wait: registry.histogram(
                "bnff_queue_wait_seconds",
                "Time requests waited in a shard queue before batch assembly.",
                HistogramOpts::latency_ns(),
            ),
            infer: registry.histogram(
                "bnff_infer_seconds",
                "Forward-pass time of the batch each request rode in.",
                HistogramOpts::latency_ns(),
            ),
            queue_depth: registry.histogram(
                "bnff_queue_depth",
                "Shard queue depth sampled when a worker takes a batch.",
                HistogramOpts::small_counts(),
            ),
            queued: registry.gauge("bnff_queued", "Requests currently queued across all shards."),
            cache_peak: registry.gauge(
                "bnff_executor_cache_peak",
                "Peak batch-size-specialized executors cached by any worker.",
            ),
            batch_capacity: registry
                .gauge("bnff_batch_capacity", "Configured max_batch (occupancy denominator)."),
            registry,
        }
    }

    /// The registry behind the handles (for Prometheus exposition and for
    /// registering adjacent metrics on the same scrape).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Renders the Prometheus text exposition of everything registered.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Records one served request's end-to-end latency.
    #[inline]
    pub fn record_request(&self, latency: Duration) {
        self.requests.inc();
        self.latency.record(latency.as_nanos() as u64);
    }

    /// Records how long one request waited in its shard queue.
    #[inline]
    pub fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait.record(wait.as_nanos() as u64);
    }

    /// Records the forward-pass time of one executed batch.
    #[inline]
    pub fn record_infer(&self, infer: Duration) {
        self.infer.record(infer.as_nanos() as u64);
    }

    /// Records one executed batch of `size` coalesced requests.
    #[inline]
    pub fn record_batch(&self, size: usize) {
        self.batches.inc();
        self.batch_samples.add(size as u64);
    }

    /// Records one observation of a shard queue's depth.
    #[inline]
    pub fn record_queue_depth(&self, depth: usize) {
        self.queue_depth.record(depth as u64);
    }

    /// Records a worker's executor-cache size (the gauge keeps the peak).
    #[inline]
    pub fn record_executor_cache(&self, size: usize) {
        self.cache_peak.set_max(size as i64);
    }

    /// Counts `n` requests shed by admission control.
    #[inline]
    pub fn record_shed(&self, n: usize) {
        self.shed.add(n as u64);
    }

    /// Counts `n` requests expired past their queueing deadline.
    #[inline]
    pub fn record_expired(&self, n: usize) {
        self.expired.add(n as u64);
    }

    /// Counts one batch assembled by work-stealing.
    #[inline]
    pub fn record_stolen_batch(&self) {
        self.stolen.inc();
    }

    /// Sets the batch capacity (`max_batch`) occupancy is reported against.
    pub fn set_batch_capacity(&self, capacity: usize) {
        self.batch_capacity.set_max(capacity as i64);
    }

    /// Adjusts the queued-requests gauge at admission (`+n`) / take (`-n`).
    #[inline]
    pub fn add_queued(&self, n: i64) {
        self.queued.add(n);
    }

    /// Requests currently queued (the `Overloaded` error reports this).
    pub fn queued(&self) -> usize {
        self.queued.get().max(0) as usize
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.get(),
            batches: self.batches.get(),
            batch_samples: self.batch_samples.get(),
            stolen: self.stolen.get(),
            shed: self.shed.get(),
            expired: self.expired.get(),
            batch_capacity: self.batch_capacity.get().max(0) as usize,
            executor_cache_peak: self.cache_peak.get().max(0) as usize,
            latency: self.latency.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            infer: self.infer.snapshot(),
            queue_depth: self.queue_depth.snapshot(),
        }
    }
}

/// A point-in-time copy of the serving metrics, with the derived-statistic
/// read API (`percentile_ms`, occupancy means) and [`ServeReport`] folding.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    requests: u64,
    batches: u64,
    batch_samples: u64,
    stolen: u64,
    shed: u64,
    expired: u64,
    batch_capacity: usize,
    executor_cache_peak: usize,
    latency: HistogramSnapshot,
    queue_wait: HistogramSnapshot,
    infer: HistogramSnapshot,
    queue_depth: HistogramSnapshot,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot::empty()
    }
}

impl MetricsSnapshot {
    /// A snapshot with no observations.
    pub fn empty() -> Self {
        MetricsSnapshot {
            requests: 0,
            batches: 0,
            batch_samples: 0,
            stolen: 0,
            shed: 0,
            expired: 0,
            batch_capacity: 0,
            executor_cache_peak: 0,
            latency: HistogramSnapshot::empty(),
            queue_wait: HistogramSnapshot::empty(),
            infer: HistogramSnapshot::empty(),
            queue_depth: HistogramSnapshot::empty(),
        }
    }

    /// Requests served to completion.
    pub fn requests(&self) -> usize {
        self.requests as usize
    }

    /// Batches executed.
    pub fn batches(&self) -> usize {
        self.batches as usize
    }

    /// Requests shed by admission control.
    pub fn shed(&self) -> usize {
        self.shed as usize
    }

    /// Requests expired past their queueing deadline.
    pub fn expired(&self) -> usize {
        self.expired as usize
    }

    /// Batches assembled by work-stealing from a sibling shard.
    pub fn stolen_batches(&self) -> usize {
        self.stolen as usize
    }

    /// Mean samples per executed batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_samples as f64 / self.batches as f64
        }
    }

    /// Mean fraction of `max_batch` each executed batch filled (`0..=1`).
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batch_capacity == 0 {
            0.0
        } else {
            self.mean_batch_size() / self.batch_capacity as f64
        }
    }

    /// Mean sampled shard-queue depth.
    pub fn mean_queue_depth(&self) -> f64 {
        self.queue_depth.mean()
    }

    /// Largest sampled shard-queue depth.
    pub fn max_queue_depth(&self) -> usize {
        self.queue_depth.max() as usize
    }

    /// Peak per-worker executor-cache size observed.
    pub fn executor_cache_peak(&self) -> usize {
        self.executor_cache_peak
    }

    /// The `p`-th latency percentile in milliseconds (`p` in `[0, 100]`).
    /// Bucketed: never under the exact percentile, at most 6.25% over.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.latency.value_at_quantile(p / 100.0) as f64 * 1e-6
    }

    /// Folds the counters into a summary over `wall` seconds of serving.
    pub fn report(&self, wall: Duration) -> ServeReport {
        let wall_seconds = wall.as_secs_f64().max(f64::MIN_POSITIVE);
        ServeReport {
            requests: self.requests(),
            batches: self.batches(),
            wall_seconds,
            throughput_rps: self.requests() as f64 / wall_seconds,
            p50_ms: self.percentile_ms(50.0),
            p99_ms: self.percentile_ms(99.0),
            p999_ms: self.percentile_ms(99.9),
            shed: self.shed(),
            expired: self.expired(),
            stolen_batches: self.stolen_batches(),
            mean_batch_size: self.mean_batch_size(),
            mean_batch_occupancy: self.mean_batch_occupancy(),
            mean_queue_depth: self.mean_queue_depth(),
            max_queue_depth: self.max_queue_depth(),
            executor_cache_peak: self.executor_cache_peak(),
        }
    }
}

/// A machine-readable serving summary (printed by `serve_synthetic` and
/// served as JSON by `GET /v1/metrics`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Requests served.
    pub requests: usize,
    /// Batches executed.
    pub batches: usize,
    /// Wall-clock seconds the load took.
    pub wall_seconds: f64,
    /// Served requests per second.
    pub throughput_rps: f64,
    /// Median end-to-end request latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end request latency in milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile end-to-end request latency in milliseconds.
    pub p999_ms: f64,
    /// Requests shed by admission control (bounded queues full).
    pub shed: usize,
    /// Requests expired in the queue past the configured deadline.
    pub expired: usize,
    /// Batches a worker assembled by stealing from a sibling's shard.
    pub stolen_batches: usize,
    /// Mean coalesced batch size.
    pub mean_batch_size: f64,
    /// Mean fraction of `max_batch` each executed batch filled.
    pub mean_batch_occupancy: f64,
    /// Mean sampled request-queue depth.
    pub mean_queue_depth: f64,
    /// Largest sampled request-queue depth.
    pub max_queue_depth: usize,
    /// Peak per-worker executor-cache size (bounded by the engine's fixed
    /// per-worker cache capacity).
    pub executor_cache_peak: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bucketed percentiles: never under the exact value, ≤ 6.25% over.
    fn assert_close(got_ms: f64, exact_ms: f64, what: &str) {
        assert!(got_ms >= exact_ms * (1.0 - 1e-9) - 1e-6, "{what}: {got_ms} << {exact_ms}");
        assert!(got_ms <= exact_ms * 1.0626 + 1e-6, "{what}: {got_ms} >> {exact_ms}");
    }

    #[test]
    fn percentiles_use_nearest_rank_within_bucket_error() {
        let m = ServeMetrics::new();
        for ms in 1..=100u64 {
            m.record_request(Duration::from_millis(ms));
        }
        let snap = m.snapshot();
        assert_close(snap.percentile_ms(50.0), 50.0, "p50");
        assert_close(snap.percentile_ms(99.0), 99.0, "p99");
        assert_close(snap.percentile_ms(100.0), 100.0, "p100");
        assert_eq!(snap.requests(), 100);
    }

    #[test]
    fn report_folds_counters() {
        let m = ServeMetrics::new();
        m.record_request(Duration::from_millis(2));
        m.record_batch(4);
        m.record_request(Duration::from_millis(4));
        m.record_batch(2);
        let report = m.snapshot().report(Duration::from_secs(2));
        assert_eq!(report.requests, 2);
        assert_eq!(report.batches, 2);
        assert!((report.throughput_rps - 1.0).abs() < 1e-9);
        assert!((report.mean_batch_size - 3.0).abs() < 1e-9);
        assert!(report.p99_ms >= report.p50_ms);
    }

    #[test]
    fn queue_and_cache_gauges() {
        let m = ServeMetrics::new();
        m.set_batch_capacity(8);
        m.record_batch(4);
        m.record_batch(8);
        m.record_queue_depth(1);
        m.record_queue_depth(5);
        m.record_queue_depth(3);
        m.record_executor_cache(2);
        m.record_executor_cache(3);
        m.record_executor_cache(1);
        let report = m.snapshot().report(Duration::from_secs(1));
        assert!((report.mean_batch_occupancy - 0.75).abs() < 1e-9);
        assert!((report.mean_queue_depth - 3.0).abs() < 1e-9);
        assert_eq!(report.max_queue_depth, 5);
        assert_eq!(report.executor_cache_peak, 3);
    }

    #[test]
    fn quantiles_on_known_distributions() {
        // Uniform 1..=1000 ms.
        let uniform = ServeMetrics::new();
        for ms in 1..=1000u64 {
            uniform.record_request(Duration::from_millis(ms));
        }
        let usnap = uniform.snapshot();
        assert_close(usnap.percentile_ms(50.0), 500.0, "uniform p50");
        assert_close(usnap.percentile_ms(99.0), 990.0, "uniform p99");
        assert_close(usnap.percentile_ms(99.9), 999.0, "uniform p999");
        assert_close(usnap.percentile_ms(100.0), 1000.0, "uniform p100");

        // Recording order must not matter.
        let reversed = ServeMetrics::new();
        for ms in (1..=1000u64).rev() {
            reversed.record_request(Duration::from_millis(ms));
        }
        let rsnap = reversed.snapshot();
        for p in [50.0, 90.0, 99.0, 99.9] {
            assert_eq!(usnap.percentile_ms(p), rsnap.percentile_ms(p), "p{p}");
        }

        // Two-point bimodal: 990 fast at 1 ms, 10 stragglers at 100 ms.
        // p50/p99 sit in the fast mode, p99.1+ in the slow tail.
        let bimodal = ServeMetrics::new();
        for _ in 0..990 {
            bimodal.record_request(Duration::from_millis(1));
        }
        for _ in 0..10 {
            bimodal.record_request(Duration::from_millis(100));
        }
        let bsnap = bimodal.snapshot();
        assert_close(bsnap.percentile_ms(50.0), 1.0, "bimodal p50");
        assert_close(bsnap.percentile_ms(99.0), 1.0, "bimodal p99");
        assert_close(bsnap.percentile_ms(99.1), 100.0, "bimodal p99.1");
        assert_close(bsnap.percentile_ms(99.9), 100.0, "bimodal p999");

        // Quantiles are monotone in p.
        let mut prev = 0.0;
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let q = bsnap.percentile_ms(p);
            assert!(q >= prev, "p{p}: {q} < {prev}");
            prev = q;
        }
    }

    #[test]
    fn counters_accumulate_and_gauges_track_peaks() {
        let m = ServeMetrics::new();
        m.record_shed(2);
        m.record_shed(3);
        m.record_expired(1);
        m.record_stolen_batch();
        m.record_stolen_batch();
        m.add_queued(5);
        m.add_queued(-2);
        let snap = m.snapshot();
        assert_eq!(snap.shed(), 5);
        assert_eq!(snap.expired(), 1);
        assert_eq!(snap.stolen_batches(), 2);
        assert_eq!(m.queued(), 3);
        // Peak gauges never regress.
        m.record_executor_cache(4);
        m.record_executor_cache(2);
        assert_eq!(m.snapshot().executor_cache_peak(), 4);
        m.set_batch_capacity(8);
        m.set_batch_capacity(4);
        m.record_batch(8);
        assert!((m.snapshot().mean_batch_occupancy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn serve_report_serde_round_trip() {
        let m = ServeMetrics::new();
        m.set_batch_capacity(4);
        for ms in [1u64, 2, 3, 40] {
            m.record_request(Duration::from_millis(ms));
        }
        m.record_batch(4);
        m.record_queue_depth(9);
        m.record_executor_cache(2);
        m.record_shed(6);
        m.record_expired(2);
        m.record_stolen_batch();
        let report = m.snapshot().report(Duration::from_secs(2));
        let json = serde_json::to_string(&report).unwrap();
        let back: ServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report, "ServeReport changed across the serde shims");
        assert_eq!(back.shed, 6);
        assert_eq!(back.expired, 2);
        assert_eq!(back.stolen_batches, 1);
        assert_eq!(back.p999_ms, report.p999_ms);
    }

    #[test]
    fn prometheus_exposition_covers_the_serving_metrics() {
        let m = ServeMetrics::new();
        m.record_request(Duration::from_millis(3));
        m.record_batch(2);
        m.record_shed(1);
        m.record_expired(1);
        m.record_queue_depth(4);
        m.add_queued(2);
        let text = m.render_prometheus();
        for family in [
            "bnff_requests_total",
            "bnff_batches_total",
            "bnff_shed_total",
            "bnff_expired_total",
            "bnff_stolen_batches_total",
            "bnff_request_latency_seconds",
            "bnff_queue_wait_seconds",
            "bnff_infer_seconds",
            "bnff_queue_depth",
            "bnff_queued",
        ] {
            assert!(text.contains(&format!("# TYPE {family} ")), "missing TYPE for {family}");
        }
        assert!(text.contains("bnff_requests_total 1\n"));
        assert!(text.contains("bnff_shed_total 1\n"));
        assert!(text.contains("bnff_queued 2\n"));
        assert!(text.contains("bnff_request_latency_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("bnff_request_latency_seconds_count 1\n"));
    }

    #[test]
    fn empty_snapshot_is_safe() {
        let snap = MetricsSnapshot::empty();
        assert_eq!(snap.percentile_ms(99.0), 0.0);
        assert_eq!(snap.mean_batch_size(), 0.0);
        assert_eq!(snap.mean_batch_occupancy(), 0.0);
        assert_eq!(snap.mean_queue_depth(), 0.0);
        assert_eq!(snap.max_queue_depth(), 0);
        assert_eq!(snap.executor_cache_peak(), 0);
        let report = snap.report(Duration::from_millis(1));
        assert_eq!(report.requests, 0);
        let fresh = ServeMetrics::new();
        assert_eq!(fresh.snapshot(), MetricsSnapshot::empty());
    }
}
