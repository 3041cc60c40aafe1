//! Recycled buffer pools for the delivery hot path.
//!
//! Every delivered event used to allocate (and drop) a fresh outbox and
//! timer `Vec` for its [`NodeContext`](crate::node::NodeContext), and
//! every batch drain a fresh scratch `Vec` of events — millions of
//! round trips through the allocator on a large sweep. A [`BufferPool`]
//! keeps emptied buffers on free lists keyed by capacity size class
//! (powers of two), so steady-state delivery reuses the same handful of
//! allocations for the whole run.
//!
//! The pool is deliberately simple and fully deterministic: free lists
//! are plain LIFO stacks, acquisition scans upward from the requested
//! size class, and the only observable effect of pooling is the
//! [`PoolStats`] counters — simulation results are bit-identical with
//! or without it.

/// Number of power-of-two size classes tracked (class `k` holds buffers
/// with capacity in `[2^k, 2^(k+1))`; class 0 also holds empty buffers).
/// Buffers larger than the top class are dropped rather than retained so
/// one pathological fan-out cannot pin memory forever.
const CLASSES: usize = 16;

/// How many buffers each size class retains; beyond this, released
/// buffers are dropped. Delivery needs one context per *live* callback,
/// so a small per-class depth covers the steady state.
const PER_CLASS: usize = 8;

/// Acquisition/release counters of one [`BufferPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from a free list.
    pub hits: u64,
    /// Acquisitions that had to allocate fresh.
    pub misses: u64,
    /// Buffers returned and retained for reuse.
    pub recycled: u64,
    /// Buffers returned but dropped (class full or oversized).
    pub discarded: u64,
}

impl PoolStats {
    /// Fraction of acquisitions served from the free lists (0.0 when the
    /// pool was never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulate another pool's counters into this one (used to combine
    /// per-worker pools into one report).
    pub fn merge(&mut self, other: PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.recycled += other.recycled;
        self.discarded += other.discarded;
    }
}

/// A free-list pool of `Vec<T>` buffers keyed by capacity size class.
///
/// A buffer that never grew holds no allocation, so its round trip is
/// free and uncounted: `acquire(0)` on a pool that retains nothing hands
/// out `Vec::new()` without scanning, and releasing a capacity-0 buffer
/// drops nothing. (A pool whose users never push — the timer buffers of a
/// protocol that sets no timers — would otherwise read as all misses.)
#[derive(Debug)]
pub struct BufferPool<T> {
    classes: Vec<Vec<Vec<T>>>,
    /// Buffers currently held on the free lists.
    retained: usize,
    stats: PoolStats,
}

impl<T> Default for BufferPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The size class of a buffer with the given capacity: the position of
/// its highest set bit, clamped to the tracked range.
fn class_of(capacity: usize) -> usize {
    let bits = usize::BITS - capacity.leading_zeros();
    (bits.saturating_sub(1) as usize).min(CLASSES - 1)
}

impl<T> BufferPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool {
            classes: (0..CLASSES).map(|_| Vec::new()).collect(),
            retained: 0,
            stats: PoolStats::default(),
        }
    }

    /// Take a buffer with at least `min_capacity` spare capacity,
    /// scanning size classes upward; allocates fresh on a miss. The
    /// returned buffer is always empty.
    pub fn acquire(&mut self, min_capacity: usize) -> Vec<T> {
        if self.retained > 0 {
            let start = class_of(min_capacity);
            for class in start..CLASSES {
                if let Some(list) = self.classes.get_mut(class) {
                    if let Some(buf) = list.pop() {
                        self.retained -= 1;
                        self.stats.hits += 1;
                        return buf;
                    }
                }
            }
        }
        if min_capacity == 0 {
            return Vec::new();
        }
        self.stats.misses += 1;
        Vec::with_capacity(min_capacity)
    }

    /// Return a buffer to the pool. The buffer is cleared; buffers whose
    /// size class is already at its retention depth (or whose capacity
    /// exceeds the top class) are dropped instead.
    pub fn release(&mut self, mut buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let class = class_of(buf.capacity());
        if let Some(list) = self.classes.get_mut(class) {
            if list.len() < PER_CLASS {
                list.push(buf);
                self.retained += 1;
                self.stats.recycled += 1;
                return;
            }
        }
        self.stats.discarded += 1;
    }

    /// The pool's acquisition/release counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_miss_then_hit_round_trip() {
        let mut pool: BufferPool<u64> = BufferPool::new();
        let mut buf = pool.acquire(8);
        assert_eq!(pool.stats().misses, 1);
        buf.extend(0..100u64);
        let cap = buf.capacity();
        pool.release(buf);
        assert_eq!(pool.stats().recycled, 1);
        let again = pool.acquire(0);
        assert_eq!(pool.stats().hits, 1);
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap);
        assert!(pool.stats().hit_rate() > 0.49);
    }

    #[test]
    fn acquire_respects_the_requested_size_class() {
        let mut pool: BufferPool<u8> = BufferPool::new();
        let mut small = pool.acquire(2);
        small.reserve_exact(2);
        pool.release(small);
        // A request for a much larger buffer must not return the small
        // one; it allocates fresh at the requested capacity.
        let big = pool.acquire(1024);
        assert!(big.capacity() >= 1024);
        assert_eq!(pool.stats().misses, 2);
        // The small buffer is still there for a small request.
        let small_again = pool.acquire(2);
        assert!(small_again.capacity() >= 2);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn retention_depth_is_bounded() {
        let mut pool: BufferPool<u8> = BufferPool::new();
        for _ in 0..(PER_CLASS + 3) {
            let mut b = Vec::new();
            b.reserve_exact(8);
            pool.release(b);
        }
        assert_eq!(pool.stats().recycled, PER_CLASS as u64);
        assert_eq!(pool.stats().discarded, 3);
    }

    #[test]
    fn zero_capacity_buffers_are_not_retained() {
        let mut pool: BufferPool<u8> = BufferPool::new();
        pool.release(Vec::new());
        assert_eq!(pool.stats().recycled, 0);
        // Nothing was allocated, so nothing was discarded either: a
        // buffer that never grew makes a free, uncounted round trip.
        let untouched = pool.acquire(0);
        assert_eq!(untouched.capacity(), 0);
        pool.release(untouched);
        assert_eq!(pool.stats(), PoolStats::default());
        // Once a grown buffer is retained, `acquire(0)` is a real hit.
        pool.release(Vec::with_capacity(4));
        assert!(pool.acquire(0).capacity() >= 4);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 0);
    }

    #[test]
    fn size_classes_cover_the_range() {
        assert_eq!(class_of(0), 0);
        assert_eq!(class_of(1), 0);
        assert_eq!(class_of(2), 1);
        assert_eq!(class_of(3), 1);
        assert_eq!(class_of(4), 2);
        assert_eq!(class_of(1 << 20), CLASSES - 1);
        assert_eq!(class_of(usize::MAX), CLASSES - 1);
    }
}
