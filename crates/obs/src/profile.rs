//! An opt-in per-slot span profiler for fixed-size step sequences.
//!
//! Built for the executor's forward walk: a memory plan has a fixed number
//! of positions known when the executor is built, so the profiler
//! pre-allocates one accumulation slot per position and recording is two
//! relaxed `fetch_add`s plus a `fetch_max` — no locks, no allocation, safe
//! from concurrent walkers sharing one executor.
//!
//! The *disabled* path is the design constraint: [`OpProfiler::enabled`]
//! is a single relaxed atomic load, so an executor can check it once per
//! walk and read no clock — the cost of carrying the
//! profiler when it is off is one load per forward pass, which is what the
//! CI `obs_overhead_pct` gate bounds.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[derive(Debug, Default)]
struct Slot {
    total_ns: AtomicU64,
    count: AtomicU64,
    max_ns: AtomicU64,
}

/// Accumulated timings of one profiled slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Recorded executions.
    pub count: u64,
    /// Total nanoseconds across executions.
    pub total_ns: u64,
    /// Slowest single execution in nanoseconds.
    pub max_ns: u64,
}

impl SpanStats {}

/// A per-slot span profiler (see the module docs).
#[derive(Debug)]
pub struct OpProfiler {
    enabled: AtomicBool,
    slots: Vec<Slot>,
}

impl OpProfiler {
    /// A disabled profiler with `slots` accumulation slots.
    pub fn new(slots: usize) -> Self {
        OpProfiler {
            enabled: AtomicBool::new(false),
            slots: (0..slots).map(|_| Slot::default()).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the profiler has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether recording is on — **one relaxed atomic load**; callers
    /// check once per pass and skip all instrumentation when false.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Records one execution of `slot` taking `ns` nanoseconds.
    #[inline]
    pub fn record(&self, slot: usize, ns: u64) {
        let s = &self.slots[slot];
        s.total_ns.fetch_add(ns, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Copies every slot's accumulated stats out.
    pub fn snapshot(&self) -> Vec<SpanStats> {
        self.slots
            .iter()
            .map(|s| SpanStats {
                count: s.count.load(Ordering::Relaxed),
                total_ns: s.total_ns.load(Ordering::Relaxed),
                max_ns: s.max_ns.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Zeroes every slot (the enabled flag is left as-is).
    pub fn reset(&self) {
        for s in &self.slots {
            s.total_ns.store(0, Ordering::Relaxed);
            s.count.store(0, Ordering::Relaxed);
            s.max_ns.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_disabled_and_toggles() {
        let p = OpProfiler::new(3);
        assert!(!p.enabled());
        assert_eq!(p.len(), 3);
        p.set_enabled(true);
        assert!(p.enabled());
    }

    #[test]
    fn records_accumulate_per_slot() {
        let p = OpProfiler::new(2);
        p.record(0, 100);
        p.record(0, 300);
        p.record(1, 7);
        let snap = p.snapshot();
        assert_eq!(snap[0], SpanStats { count: 2, total_ns: 400, max_ns: 300 });
        assert_eq!(snap[1].count, 1);
        p.reset();
        assert_eq!(p.snapshot()[0].count, 0);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let p = std::sync::Arc::new(OpProfiler::new(1));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = std::sync::Arc::clone(&p);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        p.record(0, 2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = p.snapshot();
        assert_eq!(snap[0].count, 40_000);
        assert_eq!(snap[0].total_ns, 80_000);
    }
}
