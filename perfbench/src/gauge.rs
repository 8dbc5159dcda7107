//! The host-speed gauge: a fixed reference kernel, owned by the
//! benchmark, that is timed next to the workload so every end-to-end
//! timing can be reported at one reference host speed.
//!
//! On a shared VM the host's speed drifts by up to a third for minutes
//! at a time as other tenants load it: the same binary's per-op CPU
//! time, not only its wall time, rises with it, so no statistic over
//! wall times alone removes it. The gauge's kernel
//! never changes with the program, so `REFERENCE_MS ÷ gauge time` is
//! the host's speed relative to the reference host, and a timing
//! multiplied by it is what the same work takes at the reference
//! speed. A faster program moves the scaled timing as much as the wall
//! timing; only the host's drift cancels.
//!
//! The host's speed also flips within a second (memory-bound work
//! stretches by up to half for a few hundred ms), so a client op is
//! scaled by a sample taken just before it. The gauge runs only while
//! the program is idle (between client ops, between the gateway loop's
//! one-second slices), so it competes with no request. A program that
//! left work running between ops would slow the gauge as well:
//! `bench.host_gauge_ms` (traced runs) and the wall-clock figures
//! printed above the result line show it.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// Time one gauge sample takes on the reference host: the 2-vCPU
/// AVX-512-IFMA Xeon VM the bounds were set on, in a quiet period.
pub const REFERENCE_MS: f64 = 1.5;

/// `u64` words of the compute part: 128 KiB, resident in L2.
const COMPUTE_WORDS: usize = 16 * 1024;
/// Passes of the compute part per sample.
const COMPUTE_PASSES: usize = 2;
/// `u64` words of the memory part: 4 MiB, larger than L2, so each
/// pass streams from the last-level cache the host's tenants share.
const STREAM_WORDS: usize = 512 * 1024;
/// Timed passes of the memory part per sample, after one untimed pass
/// that brings the buffer back in whatever the workload left cached.
/// The memory part takes about four fifths of a sample: the host's slow
/// periods stretch memory-bound work the most.
const STREAM_PASSES: usize = 4;

/// The gauge's buffers and the samples it has taken.
pub struct HostGauge {
    compute: Vec<u64>,
    stream: Vec<u64>,
    samples: Vec<f64>,
}

impl HostGauge {
    /// A gauge with its buffers touched, so no sample page-faults.
    pub fn new() -> Self {
        let mut g = Self {
            compute: (1..=COMPUTE_WORDS as u64).collect(),
            stream: vec![1; STREAM_WORDS],
            samples: Vec::new(),
        };
        g.kernel();
        g
    }

    /// A read-modify-write prefix sum over the stream buffer.
    fn stream_pass(&mut self) {
        let mut sum = 0u64;
        for x in self.stream.iter_mut() {
            sum = sum.wrapping_add(*x);
            *x = sum;
        }
        black_box(&self.stream);
    }

    /// Times mulmod chains over the compute buffer (modulus 2^61 − 1)
    /// and, after an untimed pass, prefix sums over the stream buffer;
    /// returns ms.
    fn kernel(&mut self) -> f64 {
        const Q: u64 = (1 << 61) - 1;
        self.stream_pass();
        let t0 = Instant::now();
        for _ in 0..COMPUTE_PASSES {
            let mut acc: u64 = 0x1234_5678;
            for x in self.compute.iter_mut() {
                let p = u128::from(*x) * u128::from(acc | 1);
                acc = ((p as u64 & Q) + (p >> 61) as u64) % Q;
                *x = acc;
            }
        }
        black_box(&self.compute);
        for _ in 0..STREAM_PASSES {
            self.stream_pass();
        }
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// Runs the kernel once, records its time and returns it in ms.
    pub fn sample(&mut self) -> f64 {
        let ms = self.kernel();
        self.samples.push(ms);
        ms
    }

    /// Takes `n` samples and returns their median in ms.
    pub fn sample_median(&mut self, n: usize) -> f64 {
        let from = self.samples.len();
        for _ in 0..n {
            self.sample();
        }
        self.median_since(from)
    }

    /// Median of the samples taken since sample number `from`.
    pub fn median_since(&self, from: usize) -> f64 {
        stats::median(&self.samples[from.min(self.samples.len())..])
    }

    /// Samples taken so far.
    pub fn count(&self) -> usize {
        self.samples.len()
    }
}

/// The factor that takes a timing measured while the gauge read
/// `gauge_ms` to the reference speed.
pub fn to_reference(gauge_ms: f64) -> f64 {
    if gauge_ms > 0.0 {
        REFERENCE_MS / gauge_ms
    } else {
        1.0
    }
}
