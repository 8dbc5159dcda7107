//! Order statistics and the seeded input generator.

use abc_float::Complex;

/// Nearest-rank percentile (`p` in `0..=1`) of unsorted samples; 0 when
/// empty. Non-finite samples (failed requests) sort last.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Consecutive blocks a run's latencies are split into. Latency
/// percentiles and rates are the median over the blocks, so a few
/// seconds of host noise move one block rather than the result.
const BLOCKS: usize = 4;

/// The `BLOCKS` consecutive blocks of time-ordered samples.
fn blocks(samples: &[f64]) -> std::slice::Chunks<'_, f64> {
    samples.chunks(samples.len().div_ceil(BLOCKS).max(1))
}

/// Median over `BLOCKS` consecutive blocks of each block's `q`
/// percentile; 0 when empty.
pub fn block_percentile(latencies_ms: &[f64], q: f64) -> f64 {
    let per_block: Vec<f64> = blocks(latencies_ms).map(|c| percentile(c, q)).collect();
    median(&per_block)
}

/// Median over `BLOCKS` consecutive blocks of ops per second spent in
/// ops (block length ÷ Σ latency); 0 when empty.
pub fn block_rate(latencies_ms: &[f64]) -> f64 {
    let per_block: Vec<f64> = blocks(latencies_ms)
        .map(|c| c.len() as f64 * 1e3 / c.iter().sum::<f64>())
        .collect();
    median(&per_block)
}

/// `-log2(RMS distance)` between decoded slots and the message they
/// encrypt — the round-trip precision in bits.
pub fn precision_bits(decoded: &[Complex], message: &[Complex]) -> f64 {
    if decoded.len() < message.len() || message.is_empty() {
        return f64::NEG_INFINITY;
    }
    let sq: f64 = decoded
        .iter()
        .zip(message)
        .map(|(a, b)| {
            let d = a.dist(*b);
            d * d
        })
        .sum();
    let rms = (sq / message.len() as f64).sqrt();
    if rms.is_nan() {
        f64::NEG_INFINITY
    } else {
        -rms.log2()
    }
}

/// SplitMix64: the benchmark's own input generator, seeded from the
/// command line and independent of the library's PRNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed`; distinct streams give
    /// independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A 128-bit value for library seeds.
    pub fn next_u128(&mut self) -> u128 {
        (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64())
    }

    /// A full slot vector, each component uniform in `[-1, 1)`.
    pub fn message(&mut self, slots: usize) -> Vec<Complex> {
        (0..slots)
            .map(|_| Complex::new(2.0 * self.next_f64() - 1.0, 2.0 * self.next_f64() - 1.0))
            .collect()
    }
}
