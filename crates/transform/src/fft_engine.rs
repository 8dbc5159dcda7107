//! The canonical-embedding FFT engine: a shared [`SpecialFft`] plan plus
//! reusable slot buffers — the FFT-side sibling of
//! [`crate::rns_ntt::RnsNttEngine`].
//!
//! The engine is **single-threaded**. One embedding transform is short
//! (a few hundred µs at `N = 2^16` on the AVX-512 kernel), so splitting
//! its stages across threads cost more in barriers than it saved, and
//! batch throughput comes from running whole requests in parallel (the
//! gateway's worker pool), not from fanning one message's FFT out.
//!
//! Scratch slot buffers are drawn from an internal pool and recycled, so
//! steady-state encode/decode performs no per-op slot allocation.

use crate::fft::SpecialFft;
use crate::pool::ScratchPool;
use abc_float::{Complex, RealField};

/// Cap on pooled scratch buffers, bounding steady-state memory.
const MAX_POOLED_BUFS: usize = 64;

/// High-water cap on pooled scratch **bytes**: a burst of large-slot
/// messages must not pin peak memory forever, so buffers returned past
/// this watermark are dropped (evicted) instead of retained.
pub const MAX_POOLED_BYTES: usize = 1 << 22;

/// Forward/inverse special FFT through one shared per-(slots, datapath)
/// [`SpecialFft`] plan, with pooled scratch.
///
/// # Example
///
/// ```
/// use abc_float::{Complex, F64Field};
/// use abc_transform::SpecialFftEngine;
///
/// let engine = SpecialFftEngine::new(F64Field, 16);
/// let original: Vec<Complex> = (0..16).map(|i| Complex::new(i as f64, 0.0)).collect();
/// let mut v = engine.take_buf();
/// v.copy_from_slice(&original);
/// engine.inverse(&mut v);
/// engine.forward(&mut v);
/// for (a, b) in v.iter().zip(&original) {
///     assert!(a.dist(*b) < 1e-12);
/// }
/// engine.recycle(v);
/// ```
#[derive(Debug)]
pub struct SpecialFftEngine<F: RealField> {
    plan: SpecialFft<F>,
    pool: ScratchPool<Complex<F::Real>>,
}

impl<F: RealField> SpecialFftEngine<F> {
    /// Builds an engine for `slots` slots on `field`.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two.
    pub fn new(field: F, slots: usize) -> Self {
        Self {
            plan: SpecialFft::with_field(field, slots),
            pool: ScratchPool::new(MAX_POOLED_BUFS, MAX_POOLED_BYTES),
        }
    }

    /// The shared plan (twiddle tables included).
    pub fn plan(&self) -> &SpecialFft<F> {
        &self.plan
    }

    /// Slot count per vector.
    pub fn slots(&self) -> usize {
        self.plan.slots()
    }

    /// Threads one transform runs on: always 1 (the engine never splits
    /// a transform; reports print it next to the NTT engine's fan-out).
    pub fn threads(&self) -> usize {
        1
    }

    /// Forward transform of one vector through the shared plan.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn forward(&self, vals: &mut [Complex<F::Real>]) {
        self.plan.forward(vals);
    }

    /// Inverse transform of one vector through the shared plan.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn inverse(&self, vals: &mut [Complex<F::Real>]) {
        self.plan.inverse(vals);
    }

    /// Checks a zeroed slot buffer of length `slots` out of the pool;
    /// hand it back with [`Self::recycle`].
    pub fn take_buf(&self) -> Vec<Complex<F::Real>> {
        let mut b = self.pool.take(self.plan.slots());
        b.fill(Complex::default());
        b
    }

    /// Returns a scratch buffer to the pool. Buffers whose retention
    /// would push the pool past [`MAX_POOLED_BYTES`] (or the count cap)
    /// are dropped instead — a burst of messages must not pin its peak
    /// memory forever.
    pub fn recycle(&self, buf: Vec<Complex<F::Real>>) {
        self.pool.put(buf);
    }

    /// Bytes currently retained by the scratch pool (capacity of every
    /// pooled buffer) — always ≤ [`MAX_POOLED_BYTES`].
    pub fn pooled_bytes(&self) -> usize {
        self.pool.bytes()
    }

    /// Number of buffers currently retained by the scratch pool.
    pub fn pooled_bufs(&self) -> usize {
        self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abc_float::{ExtF64Field, F64Field};

    fn sample(slots: usize, seed: u64) -> Vec<Complex> {
        (0..slots)
            .map(|i| {
                let x = (seed.wrapping_mul(i as u64 * 2 + 1) % 1000) as f64 / 500.0 - 1.0;
                let y = (seed.wrapping_add(i as u64 * 7) % 1000) as f64 / 500.0 - 1.0;
                Complex::new(x, y)
            })
            .collect()
    }

    #[test]
    fn engine_matches_plan() {
        // 2^12 slots: the AVX-512 plan where this host resolves it,
        // scalar otherwise — the engine adds nothing but pooling.
        let slots = 1usize << 12;
        let plan = SpecialFft::new(slots);
        let engine = SpecialFftEngine::new(F64Field, slots);
        for seed in 40..44 {
            let v0 = sample(slots, seed);
            let mut want = v0.clone();
            plan.forward(&mut want);
            let mut got = v0.clone();
            engine.forward(&mut got);
            assert_eq!(got, want, "forward seed={seed}");
            let mut want = v0.clone();
            plan.inverse(&mut want);
            let mut got = v0;
            engine.inverse(&mut got);
            assert_eq!(got, want, "inverse seed={seed}");
        }
    }

    #[test]
    fn extended_engine_matches_plan() {
        // The generic scalar kernel on the double-double datapath.
        let slots = 1usize << 9;
        let fe = ExtF64Field;
        let v0: Vec<_> = sample(slots, 3).iter().map(|z| z.lift_in(&fe)).collect();
        let plan = SpecialFft::with_field(ExtF64Field, slots);
        let mut want = v0.clone();
        plan.inverse(&mut want);
        let engine = SpecialFftEngine::new(ExtF64Field, slots);
        let mut got = v0;
        engine.inverse(&mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn pool_recycles_buffers() {
        let engine = SpecialFftEngine::new(F64Field, 16);
        let mut buf = engine.take_buf();
        buf[0] = Complex::new(1.0, -1.0);
        let ptr = buf.as_ptr();
        engine.recycle(buf);
        let again = engine.take_buf();
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again.len(), 16);
        // Pooled buffers come back zeroed: encode pads unused slots with
        // exact zeros.
        assert_eq!(again[0], Complex::zero());
    }

    #[test]
    #[should_panic(expected = "length must equal slot count")]
    fn wrong_length_vector_panics() {
        let engine = SpecialFftEngine::new(F64Field, 16);
        engine.forward(&mut [Complex::zero(); 8]);
    }

    #[test]
    fn pool_evicts_past_byte_watermark() {
        // 2^13 slots × 16 B = 128 KiB per buffer: 128 returned buffers
        // would retain 16 MiB without the byte cap; the watermark keeps
        // only MAX_POOLED_BYTES / 128 KiB = 32 of them.
        let slots = 1usize << 13;
        let engine = SpecialFftEngine::new(F64Field, slots);
        let bufs: Vec<_> = (0..128).map(|_| engine.take_buf()).collect();
        for b in bufs {
            engine.recycle(b);
        }
        assert!(engine.pooled_bytes() <= MAX_POOLED_BYTES);
        let per_buf = slots * core::mem::size_of::<Complex<f64>>();
        assert_eq!(engine.pooled_bufs(), MAX_POOLED_BYTES / per_buf);
        // Taking drains the accounting symmetrically.
        let b = engine.take_buf();
        assert_eq!(
            engine.pooled_bytes(),
            MAX_POOLED_BYTES / per_buf * per_buf - per_buf
        );
        engine.recycle(b);
    }
}
