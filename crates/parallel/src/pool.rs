//! The scoped fork-join pool and the data-parallel primitives built on it.
//!
//! Every dispatch partitions its work into per-task chunks with
//! [`chunk_ranges`], runs one chunk on the
//! calling thread and the rest on freshly scoped `std::thread` workers
//! ([`std::thread::scope`] lets the closures borrow the caller's slices
//! without `'static` bounds or `unsafe`). Worker panics propagate to the
//! caller when the scope joins. Calls issued from *inside* a worker run
//! serially instead of spawning again, so nested kernels (a convolution
//! calling a GEMM, say) cannot oversubscribe the machine or deadlock.

use crate::range::chunk_ranges;
use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;
use std::thread;

thread_local! {
    /// Scoped override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Scoped override installed by [`with_grain`].
    static GRAIN_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set while the current thread is executing a chunk on behalf of a
    /// dispatch, to force nested dispatches onto the serial path.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Default number of scalar operations a worker must amortize before a
/// dispatch spawns it: below this, thread-spawn latency exceeds the work.
const DEFAULT_GRAIN: usize = 1 << 16;

fn default_parallelism() -> usize {
    thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// The process-wide default worker count: `BNFF_THREADS` when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`].
/// The environment variable is read once per process.
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("BNFF_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(default_parallelism)
    })
}

/// The worker count a dispatch issued from this thread would use:
/// the innermost [`with_threads`] override if one is active, otherwise
/// `BNFF_THREADS`, otherwise the machine's available parallelism.
pub fn current_threads() -> usize {
    THREAD_OVERRIDE.with(Cell::get).unwrap_or_else(env_threads)
}

/// Whether the current thread is already executing inside a pool dispatch
/// (in which case further dispatches run serially).
pub fn is_nested() -> bool {
    IN_POOL.with(Cell::get)
}

/// The spawn-amortization grain in effect on this thread: the innermost
/// [`with_grain`] override, or the built-in default (2¹⁶ scalar ops).
pub(crate) fn current_grain() -> usize {
    GRAIN_OVERRIDE.with(Cell::get).unwrap_or(DEFAULT_GRAIN)
}

/// The minimum number of work items one worker must own before a dispatch
/// fans out, given an estimate of the scalar work per item. This is the
/// single knob every kernel derives its `min_per_thread` argument from.
pub fn min_items_per_thread(per_item_cost: usize) -> usize {
    (current_grain() / per_item_cost.max(1)).max(1)
}

/// Runs `f` with the spawn-amortization grain pinned to `grain` (clamped to
/// at least 1), restoring the previous setting afterwards — also on panic.
/// `with_grain(1, ...)` forces maximal partitioning, which the determinism
/// tests use so small fixtures genuinely split across workers.
pub fn with_grain<R>(grain: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            GRAIN_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = GRAIN_OVERRIDE.with(|o| o.replace(Some(grain.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Runs `f` with the calling thread's worker count pinned to `threads`
/// (clamped to at least 1), restoring the previous setting afterwards —
/// also on panic. Used by the determinism tests and the serial-vs-parallel
/// benches; nests correctly.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(threads.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Marks the current thread as executing pool work for the guard's
/// lifetime (panic-safe restore).
struct NestGuard(bool);

impl NestGuard {
    fn enter() -> Self {
        NestGuard(IN_POOL.with(|f| f.replace(true)))
    }
}

impl Drop for NestGuard {
    fn drop(&mut self) {
        IN_POOL.with(|f| f.set(self.0));
    }
}

/// How many workers a dispatch over `items` work items should use, keeping
/// at least `min_per_thread` items per worker so tiny inputs do not pay
/// thread-spawn latency. Nested dispatches always get 1.
fn planned_threads(items: usize, min_per_thread: usize) -> usize {
    if items == 0 {
        return 0;
    }
    if is_nested() {
        return 1;
    }
    let cap = (items / min_per_thread.max(1)).max(1);
    current_threads().clamp(1, cap)
}

/// Executes one task per worker: the first on the calling thread, the rest
/// on scoped threads. A single task short-circuits to a plain call with no
/// scope (and no nesting flag, so inner dispatches may still fan out).
fn run_tasks<T, F>(tasks: Vec<T>, run: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let mut iter = tasks.into_iter();
    let Some(first) = iter.next() else { return };
    let rest: Vec<T> = iter.collect();
    if rest.is_empty() {
        run(first);
        return;
    }
    let run = &run;
    thread::scope(|s| {
        for task in rest {
            s.spawn(move || {
                let _nested = NestGuard::enter();
                run(task);
            });
        }
        let _nested = NestGuard::enter();
        run(first);
    });
}

/// Splits `0..items` into one balanced contiguous range per worker and runs
/// `f` on each range in parallel. `f` sees every index exactly once
/// regardless of `items % workers` (see
/// [`chunk_ranges`]).
///
/// `min_per_thread` bounds the fan-out: no worker is spawned for fewer than
/// that many items.
pub fn parallel_for<F>(items: usize, min_per_thread: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let ranges = chunk_ranges(items, planned_threads(items, min_per_thread));
    run_tasks(ranges, &f);
}

/// Splits `data` into per-worker blocks of whole `row_len`-sized rows and
/// runs `f(first_row, block)` on each block in parallel. Row boundaries are
/// fixed by the problem (not the worker count), so per-row results are
/// identical for any thread count.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `row_len`.
pub fn parallel_rows_mut<T, F>(data: &mut [T], row_len: usize, min_rows_per_thread: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(
        row_len > 0 && data.len().is_multiple_of(row_len),
        "parallel_rows_mut: {} elements is not a whole number of rows of {row_len}",
        data.len()
    );
    let rows = data.len() / row_len;
    let ranges = chunk_ranges(rows, planned_threads(rows, min_rows_per_thread));
    let mut tasks = Vec::with_capacity(ranges.len());
    let mut rest = data;
    for r in &ranges {
        let (block, tail) = rest.split_at_mut(r.len() * row_len);
        tasks.push((r.start, block));
        rest = tail;
    }
    run_tasks(tasks, |(first_row, block)| f(first_row, block));
}

/// Like [`parallel_rows_mut`], but worker boundaries are additionally
/// aligned to multiples of `block_rows` rows: every worker receives a
/// contiguous run of *whole blocks* (the final block may be ragged when
/// `rows % block_rows != 0`, and always lands in one piece on the last
/// worker that owns it).
///
/// This is the partition the cache-blocked GEMM uses: `block_rows` is the
/// `MC` register/cache tile height, a property of the *problem*, so the
/// set of block boundaries — and therefore every per-block computation —
/// is identical for any worker count. `f(first_row, rows_block)` may be
/// handed several consecutive blocks at once and is expected to iterate
/// them in `block_rows` steps.
///
/// # Panics
/// Panics if `data.len()` is not a whole number of rows of `row_len` or
/// `block_rows` is zero.
pub fn parallel_row_blocks_mut<T, F>(
    data: &mut [T],
    row_len: usize,
    block_rows: usize,
    min_rows_per_thread: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(
        row_len > 0 && data.len().is_multiple_of(row_len),
        "parallel_row_blocks_mut: {} elements is not a whole number of rows of {row_len}",
        data.len()
    );
    assert!(block_rows > 0, "parallel_row_blocks_mut: block_rows must be positive");
    let rows = data.len() / row_len;
    let blocks = rows.div_ceil(block_rows);
    let min_blocks = min_rows_per_thread.div_ceil(block_rows).max(1);
    let ranges = chunk_ranges(blocks, planned_threads(blocks, min_blocks));
    let mut tasks = Vec::with_capacity(ranges.len());
    let mut rest = data;
    for r in &ranges {
        // Whole blocks, except the workspace-final ragged block.
        let first_row = r.start * block_rows;
        let last_row = (r.end * block_rows).min(rows);
        let (block, tail) = rest.split_at_mut((last_row - first_row) * row_len);
        tasks.push((first_row, block));
        rest = tail;
    }
    run_tasks(tasks, |(first_row, block)| f(first_row, block));
}

/// Like [`parallel_rows_mut`] for two buffers sharing the same row count
/// but possibly different row lengths: `f(first_row, a_block, b_block)`
/// receives the matching blocks of both. Used when a kernel writes two
/// outputs in lockstep (max-pool's values and argmax, BN's `x̂` and `y`).
///
/// # Panics
/// Panics if either buffer is not a whole number of rows or the row counts
/// differ.
pub fn parallel_rows_mut2<A, B, F>(
    a: &mut [A],
    a_row_len: usize,
    b: &mut [B],
    b_row_len: usize,
    min_rows_per_thread: usize,
    f: F,
) where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    if a.is_empty() && b.is_empty() {
        return;
    }
    assert!(
        a_row_len > 0
            && b_row_len > 0
            && a.len().is_multiple_of(a_row_len)
            && b.len().is_multiple_of(b_row_len),
        "parallel_rows_mut2: buffers are not whole numbers of rows"
    );
    let rows = a.len() / a_row_len;
    assert_eq!(rows, b.len() / b_row_len, "parallel_rows_mut2: row counts differ");
    let ranges = chunk_ranges(rows, planned_threads(rows, min_rows_per_thread));
    let mut tasks = Vec::with_capacity(ranges.len());
    let (mut rest_a, mut rest_b) = (a, b);
    for r in &ranges {
        let (block_a, tail_a) = rest_a.split_at_mut(r.len() * a_row_len);
        let (block_b, tail_b) = rest_b.split_at_mut(r.len() * b_row_len);
        tasks.push((r.start, block_a, block_b));
        rest_a = tail_a;
        rest_b = tail_b;
    }
    run_tasks(tasks, |(first_row, block_a, block_b)| f(first_row, block_a, block_b));
}

/// Evaluates `f(i)` for every `i in 0..items` in parallel and returns the
/// results in index order. The per-index partials are computed identically
/// whatever thread ran them, so the output is independent of the worker
/// count.
pub fn parallel_map_collect<T, F>(items: usize, min_per_thread: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..items).map(|_| None).collect();
    parallel_rows_mut(&mut slots, 1, min_per_thread, |first, block| {
        for (offset, slot) in block.iter_mut().enumerate() {
            *slot = Some(f(first + offset));
        }
    });
    slots.into_iter().map(|slot| slot.expect("parallel_map_collect fills every slot")).collect()
}

/// Combines `values` pairwise in index order until one remains — a balanced
/// binary reduction tree whose shape depends only on `values.len()`, never
/// on the thread count. Returns `None` for an empty input.
pub(crate) fn tree_reduce<T>(mut values: Vec<T>, fold: impl Fn(T, T) -> T) -> Option<T> {
    while values.len() > 1 {
        let mut next = Vec::with_capacity(values.len().div_ceil(2));
        let mut iter = values.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(fold(a, b)),
                None => next.push(a),
            }
        }
        values = next;
    }
    values.into_iter().next()
}

/// Two-pass tree reduction: pass one maps every index to a partial in
/// parallel ([`parallel_map_collect`]), pass two combines the partials with
/// `tree_reduce`. Deterministic for any thread count. Returns `None` when
/// `items == 0`.
pub fn parallel_reduce<T, M, F>(items: usize, min_per_thread: usize, map: M, fold: F) -> Option<T>
where
    T: Send,
    M: Fn(usize) -> T + Sync,
    F: Fn(T, T) -> T,
{
    tree_reduce(parallel_map_collect(items, min_per_thread, map), fold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn with_threads_overrides_and_restores() {
        let outside = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), outside);
    }

    #[test]
    fn with_threads_clamps_zero_to_one() {
        with_threads(0, || assert_eq!(current_threads(), 1));
    }

    #[test]
    fn parallel_for_covers_every_index_once() {
        for threads in [1usize, 2, 3, 7, 16] {
            for items in [0usize, 1, 2, 5, 10, 33] {
                let hits: Vec<AtomicUsize> = (0..items).map(|_| AtomicUsize::new(0)).collect();
                with_threads(threads, || {
                    parallel_for(items, 1, |range| {
                        for i in range {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                    });
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        1,
                        "index {i} items {items} threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn min_per_thread_limits_fanout() {
        // 10 items at >=8 per thread can use at most 1 worker: the closure
        // must see the whole range at once.
        let calls = AtomicUsize::new(0);
        with_threads(8, || {
            parallel_for(10, 8, |range| {
                calls.fetch_add(1, Ordering::Relaxed);
                assert_eq!(range, 0..10);
            });
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn row_blocks_cover_every_row_once_and_align_to_blocks() {
        for threads in [1usize, 2, 3, 7, 16] {
            for rows in [1usize, 2, 5, 12, 13, 33] {
                for block_rows in [1usize, 4, 5, 64] {
                    let row_len = 3;
                    let mut data = vec![0u32; rows * row_len];
                    with_threads(threads, || {
                        parallel_row_blocks_mut(&mut data, row_len, block_rows, 1, |first, blk| {
                            // Task boundaries sit on block multiples.
                            assert_eq!(first % block_rows, 0, "unaligned start {first}");
                            for v in blk.iter_mut() {
                                *v += 1;
                            }
                        });
                    });
                    assert!(
                        data.iter().all(|&v| v == 1),
                        "rows {rows} block {block_rows} threads {threads}: {data:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_blocks_keep_the_ragged_tail_in_one_task() {
        // 10 rows in blocks of 4 -> blocks are [0..4), [4..8), [8..10); the
        // ragged tail must never be split below the block boundary.
        let starts = std::sync::Mutex::new(Vec::new());
        let mut data = vec![0u8; 10];
        with_threads(16, || {
            parallel_row_blocks_mut(&mut data, 1, 4, 1, |first, blk| {
                starts.lock().unwrap().push((first, blk.len()));
            });
        });
        let mut seen = starts.into_inner().unwrap();
        seen.sort_unstable();
        for (first, len) in &seen {
            assert_eq!(first % 4, 0);
            assert!(*len == 4 || first + len == 10, "task ({first}, {len}) breaks a block");
        }
        assert_eq!(seen.iter().map(|(_, l)| l).sum::<usize>(), 10);
    }

    #[test]
    fn map_collect_preserves_order() {
        for threads in [1usize, 4, 9] {
            let out = with_threads(threads, || parallel_map_collect(23, 1, |i| i * i));
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn reduce_is_identical_across_thread_counts() {
        // f64 addition is not associative, but the reduction tree is fixed
        // by the item count, so any worker count gives bit-identical sums.
        let reference = with_threads(1, || {
            parallel_reduce(1000, 1, |i| (i as f64).sqrt(), |a, b| a + b).unwrap()
        });
        for threads in [2usize, 3, 8, 64] {
            let sum = with_threads(threads, || {
                parallel_reduce(1000, 1, |i| (i as f64).sqrt(), |a, b| a + b).unwrap()
            });
            assert_eq!(sum.to_bits(), reference.to_bits(), "threads {threads}");
        }
    }

    #[test]
    fn reduce_empty_is_none() {
        assert_eq!(parallel_reduce(0, 1, |i| i, |a, b| a + b), None);
    }

    #[test]
    fn tree_reduce_small_cases() {
        assert_eq!(tree_reduce(Vec::<i32>::new(), |a, b| a + b), None);
        assert_eq!(tree_reduce(vec![7], |a, b| a + b), Some(7));
        assert_eq!(tree_reduce(vec![1, 2, 3], |a, b| a + b), Some(6));
    }
}
