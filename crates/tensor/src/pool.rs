//! Storage recycling for the kernels' scratch buffers across calls and
//! across training steps.
//!
//! The paper's argument is that BN-era training is bound by memory traffic
//! over mini-batch activations; the kernels' scratch (im2col columns, packed
//! GEMM panels) should therefore not pay allocator and page-fault costs on
//! every call. A [`SharedBufferPool`] keeps released buffers on a free list
//! and serves later requests of any size best-fit from it instead of
//! `malloc`:
//!
//! ```rust
//! use bnff_tensor::pool::SharedBufferPool;
//!
//! let pool = SharedBufferPool::new();
//! pool.give(vec![7.0; 8]);
//! // A request up to the freed capacity reuses it; the contents are
//! // whatever the last user left.
//! let buf = pool.take_dirty(4);
//! assert_eq!(buf, vec![7.0; 4]);
//! assert_eq!(pool.hits_and_takes(), (1, 1));
//! ```

use crate::simd::AlignedBuf;

/// The free lists behind a [`SharedBufferPool`].
///
/// Buffers are handed out best-fit (the smallest free buffer whose capacity
/// covers the request); requests no free buffer can serve allocate fresh
/// storage. A bounded pool caps the total free bytes retained, dropping
/// released buffers that would exceed the cap.
#[derive(Debug, Default)]
struct BufferPool {
    free: Vec<Vec<f32>>,
    /// Free list of 32-byte-aligned buffers, kept separate so aligned
    /// requests never receive plain `Vec<f32>` storage (and vice versa).
    free_aligned: Vec<AlignedBuf>,
    /// Running total of both free lists' capacity in bytes.
    free_bytes: usize,
    limit_bytes: Option<usize>,
    takes: usize,
    hits: usize,
}

/// The index of the smallest of `capacities` that covers `len` (the first
/// of equals).
fn best_fit(capacities: impl Iterator<Item = usize>, len: usize) -> Option<usize> {
    let covering = capacities.enumerate().filter(|&(_, capacity)| capacity >= len);
    covering.min_by_key(|&(_, capacity)| capacity).map(|(i, _)| i)
}

impl BufferPool {
    /// Counts a take, a hit when `served` names the free buffer it is
    /// served from.
    fn count(&mut self, served: Option<usize>) -> Option<usize> {
        self.takes += 1;
        self.hits += usize::from(served.is_some());
        served
    }

    /// Takes a buffer of exactly `len` elements whose *contents are
    /// unspecified* (recycled data, or zeros on a miss): for callers that
    /// overwrite every element before reading any.
    fn take_dirty(&mut self, len: usize) -> Vec<f32> {
        let Some(i) = self.count(best_fit(self.free.iter().map(Vec::capacity), len)) else {
            return vec![0.0; len];
        };
        let mut buf = self.free.swap_remove(i);
        self.free_bytes -= buf.capacity() * std::mem::size_of::<f32>();
        // Only growth beyond the recycled length is (zero-)initialized.
        buf.resize(len, 0.0);
        buf
    }

    /// Takes a 32-byte-aligned buffer of exactly `len` elements with
    /// unspecified contents.
    fn take_aligned_dirty(&mut self, len: usize) -> AlignedBuf {
        let served = best_fit(self.free_aligned.iter().map(AlignedBuf::capacity), len);
        let Some(i) = self.count(served) else {
            return AlignedBuf::zeroed(len);
        };
        let mut buf = self.free_aligned.swap_remove(i);
        self.free_bytes -= buf.capacity() * std::mem::size_of::<f32>();
        buf.resize_dirty(len);
        buf
    }

    /// Whether a released buffer of `capacity` elements is kept: an empty
    /// one never is, and a bounded pool drops one that would take its free
    /// bytes over the limit.
    fn keeps(&mut self, capacity: usize) -> bool {
        let incoming = capacity * std::mem::size_of::<f32>();
        let kept = capacity > 0
            && self.limit_bytes.is_none_or(|limit| self.free_bytes + incoming <= limit);
        if kept {
            self.free_bytes += incoming;
        }
        kept
    }
}

/// A buffer pool behind a mutex, shareable across the worker threads of
/// the `bnff-parallel` pool and across training steps.
///
/// The packed-GEMM kernels keep their packing panels in a `static` instance
/// of this type, so a convolution's A/B panels are carved out of storage
/// recycled from the previous call (or the previous training step) instead
/// of `malloc`'d per GEMM. Construction is `const`, so it can back a
/// `static` without lazy initialization:
///
/// ```rust
/// use bnff_tensor::pool::SharedBufferPool;
///
/// static SCRATCH: SharedBufferPool = SharedBufferPool::bounded(1 << 20);
/// let buf = SCRATCH.take_dirty(128);
/// assert_eq!(buf.len(), 128);
/// SCRATCH.give(buf);
/// assert_eq!(SCRATCH.hits_and_takes(), (0, 1));
/// ```
#[derive(Debug)]
pub struct SharedBufferPool {
    inner: std::sync::Mutex<BufferPool>,
}

impl SharedBufferPool {
    const fn with_limit(limit_bytes: Option<usize>) -> Self {
        SharedBufferPool {
            inner: std::sync::Mutex::new(BufferPool {
                free: Vec::new(),
                free_aligned: Vec::new(),
                free_bytes: 0,
                limit_bytes,
                takes: 0,
                hits: 0,
            }),
        }
    }

    /// Creates an unbounded shared pool.
    pub const fn new() -> Self {
        Self::with_limit(None)
    }

    /// Creates a shared pool that retains at most `limit_bytes` of free
    /// storage (buffers released beyond the cap are dropped).
    pub const fn bounded(limit_bytes: usize) -> Self {
        Self::with_limit(Some(limit_bytes))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BufferPool> {
        // The pool is pure scratch: a panic mid-`take`/`give` cannot leave
        // it in a state that is unsafe to reuse.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Takes a buffer of exactly `len` elements with *unspecified*
    /// contents (recycled data, or zeros on a miss), best fit — for callers
    /// that overwrite every element before reading any.
    pub fn take_dirty(&self, len: usize) -> Vec<f32> {
        self.lock().take_dirty(len)
    }

    /// Returns a buffer's storage to the free list. A zero-capacity buffer
    /// is dropped without taking the lock.
    pub fn give(&self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            let mut pool = self.lock();
            if pool.keeps(buf.capacity()) {
                pool.free.push(buf);
            }
        }
    }

    /// Takes a 32-byte-aligned buffer of exactly `len` elements with
    /// *unspecified* contents — what the packed-GEMM panels use, so that no
    /// vector load from a packed strip straddles a cache line.
    pub fn take_aligned_dirty(&self, len: usize) -> AlignedBuf {
        self.lock().take_aligned_dirty(len)
    }

    /// Returns an aligned buffer's storage to the free list. A
    /// zero-capacity buffer is dropped without taking the lock.
    pub fn give_aligned(&self, buf: AlignedBuf) {
        if buf.capacity() > 0 {
            let mut pool = self.lock();
            if pool.keeps(buf.capacity()) {
                pool.free_aligned.push(buf);
            }
        }
    }

    /// `(hits, takes)` served so far — the reuse rate of the pool.
    pub fn hits_and_takes(&self) -> (usize, usize) {
        let pool = self.lock();
        (pool.hits, pool.takes)
    }
}

impl Default for SharedBufferPool {
    fn default() -> Self {
        SharedBufferPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_dirty_skips_the_zero_fill_but_sizes_correctly() {
        let pool = SharedBufferPool::new();
        let mut t = pool.take_dirty(8);
        t.fill(7.0);
        pool.give(t);
        // Reuse shorter than the recycled buffer: old contents survive.
        let d = pool.take_dirty(4);
        assert_eq!(d, vec![7.0; 4]);
        pool.give(d);
        // Growth within capacity: recycled prefix kept, growth zeroed.
        let d = pool.take_dirty(6);
        assert_eq!(&d[..4], &[7.0; 4]);
        assert_eq!(&d[4..], &[0.0; 2]);
        // A miss still allocates initialized storage.
        let fresh = pool.take_dirty(100);
        assert_eq!(fresh, vec![0.0; 100]);
        assert_eq!(pool.hits_and_takes(), (2, 4));
    }

    #[test]
    fn best_fit_prefers_the_smallest_sufficient_buffer() {
        let pool = SharedBufferPool::new();
        for len in [100, 8, 16] {
            pool.give(vec![0.0; len]);
        }
        let buf = pool.take_dirty(10);
        assert_eq!((buf.len(), buf.capacity()), (10, 16));
        // The 16-element buffer was chosen; 100 and 8 remain free.
        let caps: Vec<usize> = pool.lock().free.iter().map(Vec::capacity).collect();
        assert_eq!(caps.len(), 2);
        assert!(caps.contains(&100) && caps.contains(&8));
    }

    #[test]
    fn misses_allocate_fresh_storage() {
        let pool = SharedBufferPool::new();
        pool.give(vec![0.0; 2]);
        let buf = pool.take_dirty(1000);
        assert_eq!(buf.len(), 1000);
        assert_eq!(pool.hits_and_takes(), (0, 1));
        // The too-small buffer is still available.
        assert_eq!(pool.lock().free.len(), 1);
    }

    #[test]
    fn hit_accounting() {
        let pool = SharedBufferPool::new();
        pool.give(vec![0.0; 32]);
        let _ = pool.take_dirty(32);
        let _ = pool.take_dirty(32);
        assert_eq!(pool.hits_and_takes(), (1, 2));
    }

    #[test]
    fn bounded_pool_drops_overflow() {
        let pool = SharedBufferPool::bounded(16 * std::mem::size_of::<f32>());
        pool.give(vec![0.0; 16]);
        assert_eq!(pool.lock().free.len(), 1);
        // A second buffer would exceed the cap, so it is dropped.
        pool.give(vec![0.0; 16]);
        assert_eq!(pool.lock().free.len(), 1);
        // Tiny buffers that still fit are kept after the big one leaves.
        let _ = pool.take_dirty(16);
        pool.give(vec![0.0; 8]);
        assert_eq!(pool.lock().free.len(), 1);
    }

    #[test]
    fn empty_buffers_are_not_retained() {
        let pool = SharedBufferPool::new();
        pool.give(Vec::new());
        assert!(!pool.lock().keeps(0));
        assert_eq!(pool.lock().free.len(), 0);
    }

    #[test]
    fn shared_pool_recycles_across_threads() {
        static POOL: SharedBufferPool = SharedBufferPool::new();
        let buf = POOL.take_dirty(64);
        POOL.give(buf);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let b = POOL.take_dirty(16);
                    assert_eq!(b.len(), 16);
                    POOL.give(b);
                });
            }
        });
        let (hits, takes) = POOL.hits_and_takes();
        assert_eq!(takes, 5);
        assert!(hits >= 1, "at least the first reuse must hit the free list");
        assert!(POOL.lock().free_bytes > 0);
    }

    #[test]
    fn aligned_takes_stay_32_byte_aligned_across_reuse() {
        let pool = SharedBufferPool::new();
        let mut a = pool.take_aligned_dirty(100);
        assert_eq!(a.as_ptr() as usize % 32, 0);
        a.as_mut_slice().fill(7.0);
        pool.give_aligned(a);
        assert!(pool.lock().free_bytes > 0);
        // Reuse (smaller and larger-within-capacity) keeps the alignment.
        let b = pool.take_aligned_dirty(40);
        assert_eq!(b.as_ptr() as usize % 32, 0);
        assert_eq!(b.len(), 40);
        assert_eq!(pool.hits_and_takes().0, 1);
        pool.give_aligned(b);
        let c = pool.take_aligned_dirty(104);
        assert_eq!(c.as_ptr() as usize % 32, 0);
        assert_eq!(c.len(), 104);
    }

    #[test]
    fn aligned_and_plain_free_lists_are_disjoint() {
        let pool = SharedBufferPool::new();
        pool.give(vec![0.0; 256]);
        // The plain buffer must not satisfy an aligned request.
        let a = pool.take_aligned_dirty(64);
        assert_eq!(pool.hits_and_takes().0, 0);
        pool.give_aligned(a);
        // And the aligned buffer must not satisfy a plain request.
        let _ = pool.take_dirty(64);
        assert_eq!(pool.hits_and_takes().0, 1, "plain take must hit the plain 256-entry");
        assert_eq!(pool.lock().free.len(), 0);
    }

    #[test]
    fn shared_pool_serves_aligned_buffers() {
        let pool = SharedBufferPool::new();
        let buf = pool.take_aligned_dirty(48);
        assert_eq!(buf.as_ptr() as usize % 32, 0);
        pool.give_aligned(buf);
        let again = pool.take_aligned_dirty(16);
        assert_eq!(again.as_ptr() as usize % 32, 0);
        let (hits, takes) = pool.hits_and_takes();
        assert_eq!((hits, takes), (1, 2));
    }

    #[test]
    fn shared_bounded_pool_honours_the_cap() {
        let pool = SharedBufferPool::bounded(16 * std::mem::size_of::<f32>());
        pool.give(vec![0.0; 16]);
        pool.give(vec![0.0; 16]);
        assert_eq!(pool.lock().free_bytes, 16 * std::mem::size_of::<f32>());
    }
}
