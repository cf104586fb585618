//! Serving metrics on the unified [`bnff_obs`] registry: lock-free
//! counters, gauges and latency histograms, exposed in one document, the
//! Prometheus text exposition.
//!
//! The engine records through [`ServeMetrics`] — typed handles into one
//! [`Registry`] — so every observation is a relaxed atomic; no request
//! ever takes a metrics lock (the registry mutex is touched only at
//! registration and scrape time). In-process readers take a
//! [`MetricsSnapshot`]: the counters plus the end-to-end latency histogram
//! (`requests()`, `percentile_ms(..)`), log-bucketed with ≤ 6.25% relative
//! quantile error. Throughput and uptime come from the scrape:
//! `bnff_requests_total` over the time since `bnff_start_time_seconds`.

use bnff_obs::{Counter, Gauge, Histogram, HistogramOpts, HistogramSnapshot, Registry};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

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
    /// Fresh metrics on a fresh registry, whose `bnff_start_time_seconds`
    /// gauge records now (the engine creates its metrics as it starts).
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new());
        let started = SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).unwrap_or_default();
        registry
            .gauge("bnff_start_time_seconds", "Unix time the engine started, in seconds.")
            .set(started.as_secs() as i64);
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

    /// Sets the batch capacity (`max_batch`), the scrape's occupancy
    /// denominator.
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

    /// A point-in-time copy of the counters and the latency histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.get(),
            batches: self.batches.get(),
            batch_samples: self.batch_samples.get(),
            stolen: self.stolen.get(),
            shed: self.shed.get(),
            expired: self.expired.get(),
            executor_cache_peak: self.cache_peak.get().max(0) as usize,
            latency: self.latency.snapshot(),
        }
    }
}

/// A point-in-time copy of the serving counters and the end-to-end latency
/// histogram, for in-process readers; everything else is in the scrape.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    requests: u64,
    batches: u64,
    batch_samples: u64,
    stolen: u64,
    shed: u64,
    expired: u64,
    executor_cache_peak: usize,
    latency: HistogramSnapshot,
}

impl MetricsSnapshot {
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

    /// Peak per-worker executor-cache size observed.
    pub fn executor_cache_peak(&self) -> usize {
        self.executor_cache_peak
    }

    /// The `p`-th latency percentile in milliseconds (`p` in `[0, 100]`).
    /// Bucketed: never under the exact percentile, at most 6.25% over.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.latency.value_at_quantile(p / 100.0) as f64 * 1e-6
    }
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
        assert!(m.render_prometheus().lines().any(|l| l == "bnff_batch_capacity 8"));
    }

    /// Metrics with known observations on every series the scrape carries:
    /// two requests in batches of 4 and 2, one stolen batch, 6 shed, 2
    /// expired, cache sizes 2, 3, 1, queue depths 1, 5, 3 and capacity 8.
    fn observed() -> ServeMetrics {
        let m = ServeMetrics::new();
        m.set_batch_capacity(8);
        m.record_request(Duration::from_millis(2));
        m.record_batch(4);
        m.record_request(Duration::from_millis(4));
        m.record_batch(2);
        m.record_stolen_batch();
        m.record_shed(6);
        m.record_expired(2);
        for size in [2, 3, 1] {
            m.record_executor_cache(size);
        }
        for depth in [1, 5, 3] {
            m.record_queue_depth(depth);
        }
        m
    }

    fn assert_lines(text: &str, lines: &[&str]) {
        for line in lines {
            assert!(text.lines().any(|l| l == *line), "missing exposition line {line:?}");
        }
    }

    /// The value of the unlabelled sample `name` in an exposition.
    fn sample(text: &str, name: &str) -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {name} sample"))
            .parse()
            .unwrap()
    }

    #[test]
    fn empty_snapshot_is_safe() {
        let m = ServeMetrics::new();
        let empty = m.snapshot();
        assert_eq!((empty.requests(), empty.batches(), empty.shed()), (0, 0, 0));
        assert_eq!(
            (empty.expired(), empty.stolen_batches(), empty.executor_cache_peak()),
            (0, 0, 0)
        );
        assert_eq!(empty.mean_batch_size(), 0.0);
        assert_eq!(empty.percentile_ms(99.0), 0.0);
        assert_lines(&m.render_prometheus(), &["bnff_requests_total 0", "bnff_batches_total 0"]);
    }

    /// The totals reach both the snapshot and the scrape.
    #[test]
    fn report_folds_counters() {
        let m = observed();
        let snap = m.snapshot();
        assert_eq!((snap.requests(), snap.batches(), snap.stolen_batches()), (2, 2, 1));
        assert_eq!((snap.shed(), snap.expired()), (6, 2));
        assert!((snap.mean_batch_size() - 3.0).abs() < 1e-9);
        assert!(snap.percentile_ms(99.0) >= snap.percentile_ms(50.0));
        assert!(snap.percentile_ms(50.0) > 0.0);
        assert_lines(
            &m.render_prometheus(),
            &[
                "bnff_requests_total 2",
                "bnff_batches_total 2",
                "bnff_batch_samples_total 6",
                "bnff_stolen_batches_total 1",
                "bnff_shed_total 6",
                "bnff_expired_total 2",
            ],
        );
    }

    /// The peak gauges and the queue-depth sum and count (their ratio is
    /// the mean depth).
    #[test]
    fn queue_and_cache_gauges() {
        let m = observed();
        assert_eq!(m.snapshot().executor_cache_peak(), 3);
        assert_lines(
            &m.render_prometheus(),
            &[
                "bnff_executor_cache_peak 3",
                "bnff_batch_capacity 8",
                "bnff_queue_depth_sum 9",
                "bnff_queue_depth_count 3",
            ],
        );
    }

    /// The scrape parses back to the snapshot's totals, and carries the
    /// start time (requests over uptime is throughput).
    #[test]
    fn serve_report_serde_round_trip() {
        let m = observed();
        let snap = m.snapshot();
        let text = m.render_prometheus();
        assert_eq!(sample(&text, "bnff_requests_total"), snap.requests() as u64);
        assert_eq!(sample(&text, "bnff_batches_total"), snap.batches() as u64);
        assert_eq!(sample(&text, "bnff_stolen_batches_total"), snap.stolen_batches() as u64);
        assert_eq!(sample(&text, "bnff_shed_total"), snap.shed() as u64);
        assert_eq!(sample(&text, "bnff_expired_total"), snap.expired() as u64);
        assert_eq!(sample(&text, "bnff_executor_cache_peak"), snap.executor_cache_peak() as u64);
        let samples = sample(&text, "bnff_batch_samples_total") as f64;
        assert!((samples / snap.batches() as f64 - snap.mean_batch_size()).abs() < 1e-9);
        let started = sample(&text, "bnff_start_time_seconds");
        let now = SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).unwrap().as_secs();
        assert!(started <= now && now - started < 5, "start {started}, now {now}");
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
}
