//! A small free-list of reusable `Vec` buffers.
//!
//! The ingest service moves a frame payload (`Vec<u8>`) from connection
//! handler to shard worker per wire frame, and a reply buffer per query
//! connection; each would otherwise be allocated per frame or per
//! connection. [`BufferPool`] recycles them: a `get`
//! hands out a buffer as it was returned, contents and capacity intact,
//! a `put` returns it. Once the pool has warmed up to the service's
//! steady-state working set, no frame payload is allocated afresh, and a
//! frame read into a buffer that already holds a frame's worth of
//! initialised bytes needs no zero-fill first.
//!
//! The pool is deliberately simple: a mutex around a stack of vectors.
//! The lock is held for a push or pop only, far from any hot inner loop
//! (one `get`/`put` pair amortizes over thousands of decoded records),
//! and a capped pool size bounds worst-case memory retention.

use std::sync::{Arc, Mutex};

/// Buffers retained per pool. Beyond this, returned buffers are dropped
/// — the cap bounds idle memory after a connection burst.
const MAX_POOLED: usize = 64;

/// Buffers whose capacity grew beyond this many *elements* are dropped
/// rather than pooled, so one pathological upload cannot pin a huge
/// allocation forever.
const MAX_POOLED_CAPACITY: usize = 8 << 20;

/// A shareable free-list of `Vec<T>` buffers. Cloning shares the pool.
#[derive(Debug)]
pub struct BufferPool<T> {
    free: Arc<Mutex<Vec<Vec<T>>>>,
}

impl<T> Clone for BufferPool<T> {
    fn clone(&self) -> Self {
        BufferPool {
            free: self.free.clone(),
        }
    }
}

impl<T> Default for BufferPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BufferPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BufferPool {
            free: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Takes a buffer from the pool, or a fresh one if the pool is
    /// empty. The returned buffer keeps whatever length, contents and
    /// capacity it had when it was `put` back: a caller that appends
    /// clears it first.
    pub fn get(&self) -> Vec<T> {
        self.free
            .lock()
            .expect("buffer pool lock poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a buffer to the pool as it is, contents included.
    /// Oversized buffers and overflow beyond the pool cap are dropped
    /// instead of retained.
    pub fn put(&self, buf: Vec<T>) {
        if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        let mut free = self.free.lock().expect("buffer pool lock poisoned");
        if free.len() < MAX_POOLED {
            free.push(buf);
        }
    }

    /// Buffers currently resting in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("buffer pool lock poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_recycled_with_capacity() {
        let pool: BufferPool<u8> = BufferPool::new();
        let mut a = pool.get();
        a.extend_from_slice(&[1, 2, 3]);
        let cap = a.capacity();
        pool.put(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.get();
        assert_eq!(b, [1, 2, 3], "contents must survive the round trip");
        assert_eq!(b.capacity(), cap, "capacity must survive the round trip");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn clones_share_the_free_list() {
        let pool: BufferPool<f64> = BufferPool::new();
        let other = pool.clone();
        let mut v = pool.get();
        v.push(1.0);
        other.put(v);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let pool: BufferPool<u64> = BufferPool::new();
        pool.put(Vec::new());
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn pool_size_is_capped() {
        let pool: BufferPool<u8> = BufferPool::new();
        for _ in 0..(MAX_POOLED + 10) {
            pool.put(Vec::with_capacity(8));
        }
        assert_eq!(pool.idle(), MAX_POOLED);
    }
}
