//! A lock-free log-linear histogram over `u64` observations.
//!
//! The layout is the HdrHistogram idea at fixed precision: values below
//! [`LINEAR_MAX`] land in exact unit-wide buckets; every larger power-of-two
//! octave is split into [`SUB_BUCKETS`] equal sub-buckets. Bucket width is
//! therefore at most 1/16 of the value, bounding the relative error of any
//! recovered quantile by **6.25%** while keeping the whole table at
//! [`BUCKET_COUNT`] (976) words — small enough that every metric can afford
//! its own.
//!
//! Recording is one `fetch_add` on the bucket plus three bookkeeping
//! atomics (count, sum, max), all `Relaxed`: recorders never contend on a
//! lock, and concurrent recordings merge losslessly because bucket counts
//! are plain sums. Readers take a [`HistogramSnapshot`] — a consistent
//! *enough* copy (each bucket is read atomically; cross-bucket skew is
//! bounded by in-flight recordings) — and compute quantiles, means and
//! cumulative counts offline.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power-of-two octave (the precision knob).
pub const SUB_BUCKETS: usize = 16;
/// Values below this are recorded exactly (one bucket per value).
pub const LINEAR_MAX: u64 = 16;
/// Total bucket count: 16 exact unit buckets + 16 sub-buckets for each of
/// the 60 octaves `[2^4, 2^64)`.
pub const BUCKET_COUNT: usize = LINEAR_MAX as usize + 60 * SUB_BUCKETS;

/// The bucket index of a value. Total over all of `u64`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < LINEAR_MAX {
        value as usize
    } else {
        // The octave is the MSB position (≥ 4 here); `value >> (msb - 4)`
        // lands in [16, 32) and its low 4 bits select the sub-bucket.
        let msb = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (msb - 4)) & (SUB_BUCKETS as u64 - 1)) as usize;
        (msb - 3) * SUB_BUCKETS + sub
    }
}

/// The largest value mapping to `index` — what quantile recovery reports,
/// so recovered quantiles never under-estimate.
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index < LINEAR_MAX as usize {
        index as u64
    } else {
        let octave = index / SUB_BUCKETS + 3;
        let sub = (index % SUB_BUCKETS) as u64;
        // Lower bound is (16 + sub) << (octave - 4); the bucket spans one
        // sub-bucket width. The very top bucket's exclusive end is 2^64,
        // so widen to u128 and saturate.
        let end = ((LINEAR_MAX + sub + 1) as u128) << (octave - 4);
        (end - 1).min(u64::MAX as u128) as u64
    }
}

/// A lock-free log-linear histogram (see the module docs).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free: four relaxed atomic RMWs.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Copies the current state out for offline analysis.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with quantile/mean/cumulative
/// queries and lossless snapshot-to-snapshot merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no observations.
    pub fn empty() -> Self {
        HistogramSnapshot { buckets: vec![0; BUCKET_COUNT], count: 0, sum: 0, max: 0 }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (exact, not bucket-rounded). `0` when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation. `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether any observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at quantile `q` (clamped to `[0, 1]`), by nearest rank
    /// over the buckets. The result is each bucket's upper bound, so it
    /// over-estimates the exact quantile by at most 6.25%; the top rank
    /// reports the exact recorded max.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank with the same epsilon guard the old exact recorder
        // used: q·count one ULP above an integer must not bump the rank.
        let rank = ((q * self.count as f64) - 1e-9).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(idx).min(self.max);
            }
        }
        self.max
    }

    /// How many observations were `<=` the bucket containing `bound` —
    /// the cumulative count Prometheus `le` buckets expose. Exact when
    /// `bound` is a bucket boundary (powers of two always are).
    pub(crate) fn cumulative_le(&self, bound: u64) -> u64 {
        let last = bucket_index(bound);
        self.buckets[..=last].iter().sum()
    }

    /// Adds every observation of `other` into `self`. Bucket counts are
    /// plain sums, so merging is lossless and order-independent.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The per-bucket counts (diagnostics and tests).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..LINEAR_MAX {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
    }

    #[test]
    fn indices_are_monotone_and_total() {
        let mut prev = 0usize;
        for exp in 0..64 {
            for v in [1u64 << exp, (1u64 << exp) + 1, ((1u64 << exp) - 1).max(1)] {
                let idx = bucket_index(v);
                assert!(idx < BUCKET_COUNT, "value {v} overflows the table");
                let _ = prev;
                prev = idx;
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        // Monotone: v <= w implies index(v) <= index(w).
        let mut last = 0;
        for v in (0..4096u64).chain((0..52).map(|e| 1u64 << (e + 12))) {
            let idx = bucket_index(v);
            assert!(idx >= last, "index regressed at {v}");
            last = idx;
        }
    }

    #[test]
    fn upper_bound_brackets_every_value() {
        for v in (0..10_000u64).chain([1 << 20, (1 << 20) + 12345, u64::MAX / 2, u64::MAX]) {
            let idx = bucket_index(v);
            let upper = bucket_upper_bound(idx);
            assert!(upper >= v, "upper bound {upper} below value {v}");
            // Relative bucket width bound: 6.25%.
            assert!(
                (upper - v) as f64 <= (v as f64 / 16.0).max(0.0) + 1e-9,
                "bucket too wide at {v}: upper {upper}"
            );
            // The upper bound itself maps back to the same bucket.
            assert_eq!(bucket_index(upper), idx);
        }
    }

    #[test]
    fn quantiles_recover_within_bucket_error() {
        let hist = Histogram::new();
        for v in 1..=10_000u64 {
            hist.record(v);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 10_000);
        for (q, exact) in [(0.5, 5_000.0), (0.99, 9_900.0), (0.999, 9_990.0)] {
            let got = snap.value_at_quantile(q) as f64;
            assert!(got >= exact - 1.0, "q{q}: {got} under-estimates {exact}");
            assert!(got <= exact * 1.0626, "q{q}: {got} beyond 6.25% of {exact}");
        }
        assert_eq!(snap.value_at_quantile(1.0), 10_000);
        assert_eq!(snap.max(), 10_000);
        assert!((snap.mean() - 5_000.5).abs() < 1e-9);
    }

    #[test]
    fn cumulative_le_is_exact_at_powers_of_two() {
        let hist = Histogram::new();
        for v in 0..2048u64 {
            hist.record(v);
        }
        let snap = hist.snapshot();
        // Bound 2^k starts a fresh bucket, which also holds values up to
        // the bucket width; recording 0..2048 fills buckets completely, so
        // le(2^k) counts [0, upper_bound(index(2^k))] exactly.
        for bound in [16u64, 64, 256, 1024] {
            let upper = bucket_upper_bound(bucket_index(bound));
            assert_eq!(snap.cumulative_le(bound), upper + 1, "bound {bound}");
        }
        assert_eq!(snap.cumulative_le(u64::MAX), 2048);
    }

    #[test]
    fn merge_is_lossless() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in 0..1000u64 {
            let x = v * 37 % 4096;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            both.record(x);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let hist = std::sync::Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let hist = std::sync::Arc::clone(&hist);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        hist.record((t * per_thread + i) % 1021);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count(), threads * per_thread);
        assert_eq!(snap.buckets().iter().sum::<u64>(), threads * per_thread);
    }
}
