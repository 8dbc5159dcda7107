//! The recycling scratch-buffer pool behind every transform engine.
//!
//! [`crate::rns_ntt::RnsNttEngine`] pools `u64` limbs,
//! [`crate::fft_engine::SpecialFftEngine`] pools complex slot vectors
//! and the AVX-512 FFT kernel pools its split re/im planes. All three
//! share one policy: a buffer comes back with its allocation intact, and
//! the pool retains it only while both a **count cap** and a **byte
//! watermark** hold — a burst at a large ring degree must not pin its
//! peak memory forever, so a buffer returned past either cap is dropped
//! (evicted) instead of retained.

use std::sync::{Mutex, MutexGuard};

/// Pooled buffers plus their retained byte total (capacity of every
/// buffer), tracked so eviction is O(1) on return.
#[derive(Debug)]
struct State<T> {
    bufs: Vec<Vec<T>>,
    bytes: usize,
}

/// A `Mutex`-guarded stack of `Vec<T>` scratch buffers, capped by
/// count (`max_bufs`) and by retained bytes (`max_bytes`).
#[derive(Debug)]
pub(crate) struct ScratchPool<T> {
    state: Mutex<State<T>>,
    max_bufs: usize,
    max_bytes: usize,
}

impl<T: Clone + Default> ScratchPool<T> {
    /// An empty pool with the given caps.
    pub(crate) fn new(max_bufs: usize, max_bytes: usize) -> Self {
        Self {
            state: Mutex::new(State {
                bufs: Vec::new(),
                bytes: 0,
            }),
            max_bufs,
            max_bytes,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("scratch pool poisoned")
    }

    /// Takes a buffer of length `n` with **unspecified contents** —
    /// recycled buffers keep their stale elements rather than paying a
    /// fill that most callers immediately overwrite.
    pub(crate) fn take(&self, n: usize) -> Vec<T> {
        let recycled = {
            let mut guard = self.lock();
            let b = guard.bufs.pop();
            if let Some(b) = &b {
                guard.bytes -= b.capacity() * core::mem::size_of::<T>();
            }
            b
        };
        match recycled {
            Some(mut b) => {
                b.resize(n, T::default());
                b
            }
            None => vec![T::default(); n],
        }
    }

    /// Returns a buffer, dropping it instead when retention would pass
    /// the count cap or the byte watermark.
    pub(crate) fn put(&self, b: Vec<T>) {
        let bytes = b.capacity() * core::mem::size_of::<T>();
        let mut guard = self.lock();
        if guard.bufs.len() < self.max_bufs && guard.bytes + bytes <= self.max_bytes {
            guard.bytes += bytes;
            guard.bufs.push(b);
        }
    }

    /// Bytes currently retained (always ≤ `max_bytes`).
    pub(crate) fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Buffers currently retained (always ≤ `max_bufs`).
    pub(crate) fn len(&self) -> usize {
        self.lock().bufs.len()
    }
}
