//! A buffer arena that recycles tensor storage across operators and across
//! training steps.
//!
//! The paper's argument is that BN-era training is bound by memory traffic
//! over mini-batch activations; the executor therefore should not pay
//! allocator and page-fault costs for buffers the liveness analysis says can
//! be reused. [`BufferPool`] is the run-time half of that plan: dead tensors
//! release their `Vec<f32>` storage into the pool, and later allocations of
//! any shape are served best-fit from the free list instead of `malloc`.
//!
//! ```rust
//! use bnff_tensor::pool::BufferPool;
//! use bnff_tensor::{Shape, Tensor};
//!
//! let mut pool = BufferPool::new();
//! let t = pool.take_tensor(Shape::nchw(1, 2, 2, 2));
//! assert_eq!(t.len(), 8);
//! pool.reclaim(t);
//! assert_eq!(pool.free_buffers(), 1);
//! // The next request of any size up to the freed capacity reuses it.
//! let u = pool.take_tensor(Shape::vector(4));
//! assert_eq!(u.len(), 4);
//! assert_eq!(pool.free_buffers(), 0);
//! ```

use crate::shape::Shape;
use crate::simd::AlignedBuf;
use crate::tensor::Tensor;

/// A free-list of `Vec<f32>` buffers recycled between tensors.
///
/// Buffers are handed out best-fit (the smallest free buffer whose capacity
/// covers the request); requests no free buffer can serve allocate fresh
/// storage. The pool can be bounded: [`BufferPool::bounded`] caps the total
/// free bytes retained, dropping released buffers that would exceed the cap
/// (so a backward pass that releases more than the forward pass takes cannot
/// grow the pool without limit across training steps).
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<f32>>,
    /// Free list of 32-byte-aligned buffers, kept separate so aligned
    /// requests never receive plain `Vec<f32>` storage (and vice versa).
    free_aligned: Vec<AlignedBuf>,
    /// Running total of both free lists' capacity in bytes (kept
    /// incrementally so the byte-limit check in [`BufferPool::give`] is
    /// O(1)).
    free_bytes: usize,
    limit_bytes: Option<usize>,
    takes: usize,
    hits: usize,
    taken_bytes: usize,
}

impl BufferPool {
    /// Creates an unbounded pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Creates a pool that retains at most `limit_bytes` of free storage.
    pub fn bounded(limit_bytes: usize) -> Self {
        BufferPool { limit_bytes: Some(limit_bytes), ..BufferPool::default() }
    }

    /// Number of buffers currently on the free list.
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }

    /// Total bytes of storage currently on the free list.
    pub fn free_bytes(&self) -> usize {
        self.free_bytes
    }

    /// Number of `take` requests served so far.
    pub fn takes(&self) -> usize {
        self.takes
    }

    /// Number of `take` requests served from the free list (not `malloc`).
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Total bytes requested by every `take` so far. Next to
    /// [`BufferPool::free_bytes`] it tells a pool that circulates its
    /// storage from one that only hoards it.
    pub fn taken_bytes(&self) -> usize {
        self.taken_bytes
    }

    /// Pops the smallest free buffer whose capacity covers `len` (best
    /// fit), maintaining the hit/take accounting.
    fn pop_best_fit(&mut self, len: usize) -> Option<Vec<f32>> {
        self.takes += 1;
        self.taken_bytes += len * std::mem::size_of::<f32>();
        let mut best: Option<usize> = None;
        for (i, buf) in self.free.iter().enumerate() {
            if buf.capacity() >= len {
                match best {
                    Some(b) if self.free[b].capacity() <= buf.capacity() => {}
                    _ => best = Some(i),
                }
            }
        }
        let i = best?;
        self.hits += 1;
        let buf = self.free.swap_remove(i);
        self.free_bytes -= buf.capacity() * std::mem::size_of::<f32>();
        Some(buf)
    }

    /// Takes a zero-filled buffer of exactly `len` elements, reusing the
    /// smallest free buffer whose capacity suffices (best fit).
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        match self.pop_best_fit(len) {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Takes a buffer of exactly `len` elements whose *contents are
    /// unspecified* (recycled data, or zeros on a pool miss): the cheap
    /// variant for callers that overwrite every element before reading
    /// any — it skips the zero fill [`BufferPool::take`] pays.
    pub fn take_dirty(&mut self, len: usize) -> Vec<f32> {
        match self.pop_best_fit(len) {
            Some(mut buf) => {
                // resize alone truncates or grows as needed; only growth
                // beyond the recycled length is (zero-)initialized.
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer's storage to the free list.
    ///
    /// Zero-capacity buffers are dropped, and a bounded pool drops the
    /// buffer when retaining it would exceed the byte limit.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let incoming = buf.capacity() * std::mem::size_of::<f32>();
        if let Some(limit) = self.limit_bytes {
            if self.free_bytes + incoming > limit {
                return;
            }
        }
        self.free_bytes += incoming;
        self.free.push(buf);
    }

    /// Takes a 32-byte-aligned buffer of exactly `len` elements with
    /// *unspecified* contents (the [`BufferPool::take_dirty`] analogue for
    /// [`AlignedBuf`] storage) — what the packed-GEMM panels use, so that
    /// no vector load from a packed strip straddles a cache line.
    pub fn take_aligned_dirty(&mut self, len: usize) -> AlignedBuf {
        self.takes += 1;
        self.taken_bytes += len * std::mem::size_of::<f32>();
        let mut best: Option<usize> = None;
        for (i, buf) in self.free_aligned.iter().enumerate() {
            if buf.capacity() >= len {
                match best {
                    Some(b) if self.free_aligned[b].capacity() <= buf.capacity() => {}
                    _ => best = Some(i),
                }
            }
        }
        match best {
            Some(i) => {
                self.hits += 1;
                let mut buf = self.free_aligned.swap_remove(i);
                self.free_bytes -= buf.capacity() * std::mem::size_of::<f32>();
                buf.resize_dirty(len);
                buf
            }
            None => AlignedBuf::zeroed(len),
        }
    }

    /// Returns an aligned buffer's storage to the free list (same byte
    /// limit as [`BufferPool::give`]).
    pub fn give_aligned(&mut self, buf: AlignedBuf) {
        if buf.capacity() == 0 {
            return;
        }
        let incoming = buf.capacity() * std::mem::size_of::<f32>();
        if let Some(limit) = self.limit_bytes {
            if self.free_bytes + incoming > limit {
                return;
            }
        }
        self.free_bytes += incoming;
        self.free_aligned.push(buf);
    }

    /// Takes a zero-filled tensor of the given shape from the pool.
    pub fn take_tensor(&mut self, shape: Shape) -> Tensor {
        let data = self.take(shape.volume());
        Tensor::from_vec(shape, data).expect("pool buffer sized to the shape's volume")
    }

    /// Takes a tensor of the given shape whose *contents are unspecified*
    /// (see [`BufferPool::take_dirty`]) — for kernels that overwrite every
    /// element of their output.
    pub fn take_tensor_dirty(&mut self, shape: Shape) -> Tensor {
        let data = self.take_dirty(shape.volume());
        Tensor::from_vec(shape, data).expect("pool buffer sized to the shape's volume")
    }

    /// Releases a tensor's storage back into the pool.
    pub fn reclaim(&mut self, tensor: Tensor) {
        self.give(tensor.into_vec());
    }
}

/// A [`BufferPool`] behind a mutex, shareable across the worker threads of
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
/// let buf = SCRATCH.take(128);
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
                taken_bytes: 0,
            }),
        }
    }

    /// Creates an unbounded shared pool.
    pub const fn new() -> Self {
        Self::with_limit(None)
    }

    /// Creates a shared pool that retains at most `limit_bytes` of free
    /// storage (buffers released beyond the cap are dropped, exactly as in
    /// [`BufferPool::bounded`]).
    pub const fn bounded(limit_bytes: usize) -> Self {
        Self::with_limit(Some(limit_bytes))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BufferPool> {
        // The pool is pure scratch: a panic mid-`take`/`give` cannot leave
        // it in a state that is unsafe to reuse.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Takes a zero-filled buffer of exactly `len` elements (best fit).
    pub fn take(&self, len: usize) -> Vec<f32> {
        self.lock().take(len)
    }

    /// Takes a buffer of exactly `len` elements with *unspecified*
    /// contents (see [`BufferPool::take_dirty`]) — for callers that
    /// overwrite every element before reading any.
    pub fn take_dirty(&self, len: usize) -> Vec<f32> {
        self.lock().take_dirty(len)
    }

    /// Returns a buffer's storage to the free list. A zero-capacity buffer
    /// is dropped without taking the lock.
    pub fn give(&self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.lock().give(buf);
        }
    }

    /// Takes a 32-byte-aligned buffer of exactly `len` elements with
    /// *unspecified* contents (see [`BufferPool::take_aligned_dirty`]).
    pub fn take_aligned_dirty(&self, len: usize) -> AlignedBuf {
        self.lock().take_aligned_dirty(len)
    }

    /// Returns an aligned buffer's storage to the free list. A
    /// zero-capacity buffer is dropped without taking the lock.
    pub fn give_aligned(&self, buf: AlignedBuf) {
        if buf.capacity() > 0 {
            self.lock().give_aligned(buf);
        }
    }

    /// `(hits, takes)` served so far — the reuse rate of the pool.
    pub fn hits_and_takes(&self) -> (usize, usize) {
        let pool = self.lock();
        (pool.hits(), pool.takes())
    }

    /// Total bytes of storage currently on the free list.
    pub fn free_bytes(&self) -> usize {
        self.lock().free_bytes()
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
    fn take_is_zero_filled_even_after_reuse() {
        let mut pool = BufferPool::new();
        let mut t = pool.take_tensor(Shape::vector(4));
        t.fill(7.0);
        pool.reclaim(t);
        let u = pool.take(4);
        assert_eq!(u, vec![0.0; 4]);
    }

    #[test]
    fn take_dirty_skips_the_zero_fill_but_sizes_correctly() {
        let mut pool = BufferPool::new();
        let mut t = pool.take(8);
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
        pool.give(fresh);
        // The tensor form draws from the same free list, and every request
        // is counted in bytes whether or not it hit.
        let t = pool.take_tensor_dirty(Shape::nchw(1, 2, 5, 10));
        assert_eq!((t.len(), pool.hits(), pool.takes()), (100, 3, 5));
        assert_eq!(pool.taken_bytes(), (8 + 4 + 6 + 100 + 100) * 4);
    }

    #[test]
    fn best_fit_prefers_the_smallest_sufficient_buffer() {
        let mut pool = BufferPool::new();
        pool.give(vec![0.0; 100]);
        pool.give(vec![0.0; 8]);
        pool.give(vec![0.0; 16]);
        let buf = pool.take(10);
        assert_eq!(buf.len(), 10);
        // The 16-element buffer was chosen; 100 and 8 remain free.
        let caps: Vec<usize> = pool.free.iter().map(Vec::capacity).collect();
        assert!(caps.contains(&100) && caps.contains(&8));
        assert_eq!(pool.free_buffers(), 2);
    }

    #[test]
    fn misses_allocate_fresh_storage() {
        let mut pool = BufferPool::new();
        pool.give(vec![0.0; 2]);
        let buf = pool.take(1000);
        assert_eq!(buf.len(), 1000);
        assert_eq!(pool.hits(), 0);
        assert_eq!(pool.takes(), 1);
        // The too-small buffer is still available.
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn hit_accounting() {
        let mut pool = BufferPool::new();
        pool.reclaim(Tensor::zeros(Shape::vector(32)));
        let _ = pool.take(32);
        let _ = pool.take(32);
        assert_eq!(pool.takes(), 2);
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn bounded_pool_drops_overflow() {
        let mut pool = BufferPool::bounded(16 * std::mem::size_of::<f32>());
        pool.give(vec![0.0; 16]);
        assert_eq!(pool.free_buffers(), 1);
        // A second buffer would exceed the cap, so it is dropped.
        pool.give(vec![0.0; 16]);
        assert_eq!(pool.free_buffers(), 1);
        // Tiny buffers that still fit are kept after the big one leaves.
        let _ = pool.take(16);
        pool.give(vec![0.0; 8]);
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn empty_buffers_are_not_retained() {
        let mut pool = BufferPool::new();
        pool.give(Vec::new());
        assert_eq!(pool.free_buffers(), 0);
    }

    #[test]
    fn shared_pool_recycles_across_threads() {
        static POOL: SharedBufferPool = SharedBufferPool::new();
        let buf = POOL.take(64);
        POOL.give(buf);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let b = POOL.take(16);
                    assert_eq!(b, vec![0.0; 16]);
                    POOL.give(b);
                });
            }
        });
        let (hits, takes) = POOL.hits_and_takes();
        assert_eq!(takes, 5);
        assert!(hits >= 1, "at least the first reuse must hit the free list");
        assert!(POOL.free_bytes() > 0);
    }

    #[test]
    fn aligned_takes_stay_32_byte_aligned_across_reuse() {
        let mut pool = BufferPool::new();
        let mut a = pool.take_aligned_dirty(100);
        assert_eq!(a.as_ptr() as usize % 32, 0);
        a.as_mut_slice().fill(7.0);
        pool.give_aligned(a);
        assert!(pool.free_bytes() > 0);
        // Reuse (smaller and larger-within-capacity) keeps the alignment.
        let b = pool.take_aligned_dirty(40);
        assert_eq!(b.as_ptr() as usize % 32, 0);
        assert_eq!(b.len(), 40);
        assert_eq!(pool.hits(), 1);
        pool.give_aligned(b);
        let c = pool.take_aligned_dirty(104);
        assert_eq!(c.as_ptr() as usize % 32, 0);
        assert_eq!(c.len(), 104);
    }

    #[test]
    fn aligned_and_plain_free_lists_are_disjoint() {
        let mut pool = BufferPool::new();
        pool.give(vec![0.0; 256]);
        // The plain buffer must not satisfy an aligned request.
        let a = pool.take_aligned_dirty(64);
        assert_eq!(pool.hits(), 0);
        pool.give_aligned(a);
        // And the aligned buffer must not satisfy a plain request.
        let _ = pool.take(64);
        assert_eq!(pool.hits(), 1, "plain take must hit the plain 256-entry");
        assert_eq!(pool.free_buffers(), 0);
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
        assert_eq!(pool.free_bytes(), 16 * std::mem::size_of::<f32>());
    }
}
