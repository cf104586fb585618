//! Core-topology partitioning for multi-worker serving.
//!
//! The serving engine runs several *task-parallel* worker threads, and every
//! worker drives the same `bnff-parallel` kernel pool when it executes a
//! batch. Left alone, each worker would fan its kernels out to the full
//! `BNFF_THREADS` worth of threads: `workers × BNFF_THREADS` runnable
//! threads fighting over `BNFF_THREADS` cores, which is exactly the
//! oversubscription that made serve throughput *drop* as workers were
//! added. This module computes the fix: a disjoint partition of the kernel
//! thread budget, one slice per worker, so the total number of runnable
//! kernel threads never exceeds the budget. Workers install their slice
//! with [`with_threads`](crate::with_threads) before entering their serve
//! loop; the OS scheduler then places `budget` runnable threads on `budget`
//! cores instead of time-slicing `workers × budget`.
//!
//! Partitions are *budgets*, not hard CPU affinities — the standard library
//! has no portable pinning API — but because the pool spawns exactly as
//! many runnable threads as the budget allows, the scheduler's steady-state
//! placement is the disjoint partition.

/// Splits a total kernel-thread budget into one disjoint slice per worker.
///
/// Every worker receives at least one thread. When the budget exceeds the
/// worker count, the remainder is distributed one thread at a time from the
/// first worker, so slice sizes differ by at most one and
/// `sum == max(total, workers)`. When there are more workers than budget
/// (an oversubscribed configuration the caller asked for explicitly), each
/// worker still gets the minimum viable slice of one.
///
/// ```rust
/// use bnff_parallel::partition_threads;
///
/// assert_eq!(partition_threads(8, 3), vec![3, 3, 2]);
/// assert_eq!(partition_threads(4, 4), vec![1, 1, 1, 1]);
/// assert_eq!(partition_threads(1, 3), vec![1, 1, 1]);
/// assert_eq!(partition_threads(4, 1), vec![4]);
/// ```
#[must_use]
pub fn partition_threads(total: usize, workers: usize) -> Vec<usize> {
    let workers = workers.max(1);
    let total = total.max(1);
    let base = total / workers;
    let extra = total % workers;
    (0..workers).map(|w| (base + usize::from(w < extra)).max(1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_threads;

    #[test]
    fn partitions_are_disjoint_and_balanced() {
        for total in 1..=17 {
            for workers in 1..=9 {
                let slices = partition_threads(total, workers);
                assert_eq!(slices.len(), workers, "total {total} workers {workers}");
                assert!(slices.iter().all(|&s| s >= 1), "empty slice: {slices:?}");
                let max = slices.iter().copied().max().unwrap();
                let min = slices.iter().copied().min().unwrap();
                assert!(max - min <= 1, "unbalanced {slices:?}");
                assert_eq!(
                    slices.iter().sum::<usize>(),
                    total.max(workers),
                    "budget not conserved for total {total} workers {workers}: {slices:?}"
                );
            }
        }
    }

    #[test]
    fn zero_inputs_clamp_to_one() {
        assert_eq!(partition_threads(0, 0), vec![1]);
        assert_eq!(partition_threads(0, 2), vec![1, 1]);
        assert_eq!(partition_threads(3, 0), vec![3]);
    }

    #[test]
    fn budgets_follow_the_scoped_thread_override() {
        let slices = with_threads(6, || partition_threads(crate::current_threads(), 4));
        assert_eq!(slices, vec![2, 2, 1, 1]);
        let slices = with_threads(1, || partition_threads(crate::current_threads(), 2));
        assert_eq!(slices, vec![1, 1]);
    }
}
