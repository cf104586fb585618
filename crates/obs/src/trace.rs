//! Request identity and trace sampling.
//!
//! A request ID is minted once at the ingress boundary (HTTP connection
//! handling, C-ABI entry) and carried with the request through admission,
//! batch assembly and execution, so log lines, trace echoes and errors
//! about one request share one correlator. IDs are a process-wide atomic
//! counter: unique within the process, allocation-free, and cheap enough
//! to mint unconditionally.
//!
//! Whether a request's span timings are *echoed back to the caller* is a
//! separate, sampled decision: [`TraceSampler`] picks every N-th request,
//! configured by the `BNFF_TRACE` environment variable (`0`/unset = off,
//! `1` = every request, `N` = every N-th).

use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Mints a process-unique request ID (monotonic from 1).
#[inline]
pub fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

/// Samples every N-th request for trace echo. `every == 0` disables
/// sampling; the disabled check is a single branch on an immutable field.
#[derive(Debug)]
pub struct TraceSampler {
    every: u64,
    counter: AtomicU64,
}

impl TraceSampler {
    /// A sampler that never samples.
    pub(crate) fn disabled() -> Self {
        TraceSampler::every(0)
    }

    /// A sampler taking every `n`-th request (`0` disables).
    pub fn every(n: u64) -> Self {
        TraceSampler { every: n, counter: AtomicU64::new(0) }
    }

    /// Builds the sampler from the `BNFF_TRACE` environment variable:
    /// unset, `0` or `off` disable; `1` or `on` sample everything; any
    /// other integer `N` samples every N-th request. Unparseable values
    /// disable sampling rather than failing startup.
    pub fn from_env() -> Self {
        match std::env::var("BNFF_TRACE") {
            Ok(raw) => match raw.trim() {
                "" | "0" | "off" => TraceSampler::disabled(),
                "on" => TraceSampler::every(1),
                n => TraceSampler::every(n.parse().unwrap_or(0)),
            },
            Err(_) => TraceSampler::disabled(),
        }
    }

    /// The sampling period (`0` = disabled).
    pub fn period(&self) -> u64 {
        self.every
    }

    /// Decides for one request. The first request after startup is always
    /// sampled when enabled, then every `every`-th after it.
    #[inline]
    pub fn sample(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.counter.fetch_add(1, Ordering::Relaxed).is_multiple_of(self.every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_monotone() {
        let a = next_request_id();
        let b = next_request_id();
        assert!(b > a);
    }

    #[test]
    fn disabled_sampler_never_samples() {
        let s = TraceSampler::disabled();
        assert_eq!(s.period(), 0);
        assert!((0..100).all(|_| !s.sample()));
    }

    #[test]
    fn every_n_samples_exactly_one_in_n() {
        let s = TraceSampler::every(4);
        assert_eq!(s.period(), 4);
        let hits = (0..40).filter(|_| s.sample()).count();
        assert_eq!(hits, 10);
        // The very first request is sampled (operators flip tracing on and
        // expect the next request to show a trace).
        let s = TraceSampler::every(1000);
        assert!(s.sample());
        assert!(!s.sample());
    }
}
