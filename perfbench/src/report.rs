//! Metric names, the host fingerprint and the result line.

use crate::{gauge, stats};
use abc_ckks::{CkksContext, EmbeddingEngine};
use std::collections::BTreeMap;

/// The paper's precision floor for AI-model accuracy (bits).
pub const PRECISION_FLOOR_BITS: f64 = 19.29;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("throughput_ops_per_s", "1/s"),
    ("success_ratio", "ratio"),
    ("precision_bits", "bits"),
    ("wire_kib_per_op", "KiB"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer that a
/// workload never reaches reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("ckks.encode_ms", "ms"),
    ("ckks.encrypt_ms", "ms"),
    ("ckks.serialize_ms", "ms"),
    ("ckks.deserialize_ms", "ms"),
    ("ckks.decrypt_ms", "ms"),
    ("ckks.decode_ms", "ms"),
    ("ckks.encode_unaccounted_ms", "ms"),
    ("ckks.encrypt_unaccounted_ms", "ms"),
    ("ckks.decrypt_unaccounted_ms", "ms"),
    ("ckks.decode_unaccounted_ms", "ms"),
    ("ckks.scale_divide_ms", "ms"),
    ("transform.fft_inverse_ms", "ms"),
    ("transform.fft_forward_ms", "ms"),
    ("transform.expand_and_ntt_ms", "ms"),
    ("transform.ntt_forward_all_ms", "ms"),
    ("transform.ntt_inverse_all_ms", "ms"),
    ("prng.ternary_poly_ms", "ms"),
    ("prng.gaussian_poly_ms", "ms"),
    ("prng.uniform_poly_ms", "ms"),
    ("math.dyadic_chain_encrypt_ms", "ms"),
    ("math.dyadic_chain_decrypt_ms", "ms"),
    ("math.crt_lift_ms", "ms"),
    ("gateway.submit_us_p50", "us"),
    ("gateway.queue_depth_p90", "count"),
    ("gateway.shed_ratio", "ratio"),
    ("gateway.degraded_ratio", "ratio"),
    ("gateway.timeout_ratio", "ratio"),
    ("gateway.internal_ms_p50", "ms"),
    ("gateway.internal_ms_p95", "ms"),
    ("gateway.session_miss_share", "ratio"),
    ("gateway.offered_load", "ratio"),
    ("bench.gen_lag_ms_p90", "ms"),
    ("bench.host_gauge_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.traced_ops", "count"),
];

/// What one run measured, checked and counted.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Every failed output check, in the order found.
    pub check_failures: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed output check.
    pub fn check_failed(&mut self, what: String) {
        self.check_failures.push(what);
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Prints the notes, one table row per metric and, last, the
    /// result object. Returns whether every output check passed.
    pub fn print(&self, traced: bool) -> bool {
        for line in &self.notes {
            println!("{line}");
        }
        for failure in &self.check_failures {
            println!("CHECK FAILED: {failure}");
        }
        let names = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            // JSON holds no infinities; a failed check already marks
            // the run incorrect.
            let value = if value.is_finite() { value } else { 0.0 };
            println!("{name:<32} {value:>14.4} {unit}");
            fields.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        );
        self.correct()
    }
}

/// The run's wall-clock figures as measured, next to the median host
/// gauge reading of the run, for the line above the result.
pub fn wall_clock(wall_ms: &[f64], gauge_ms: f64) -> String {
    format!(
        "wall clock (unscaled): p50 {:.2} ms, p90 {:.2} ms; host gauge median {gauge_ms:.3} ms (reference {} ms)",
        stats::block_percentile(wall_ms, 0.5),
        stats::block_percentile(wall_ms, 0.9),
        gauge::REFERENCE_MS,
    )
}

/// Peak resident set (`VmHWM`) in MiB, 0 where `/proc` is missing.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host and the kernels and thread counts `ctx` resolved, as one
/// JSON object.
pub fn fingerprint(ctx: &CkksContext) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_owned());
    #[cfg(target_arch = "x86_64")]
    let (avx512f, avx512ifma) = (
        std::arch::is_x86_feature_detected!("avx512f"),
        std::arch::is_x86_feature_detected!("avx512ifma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx512f, avx512ifma) = (false, false);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let plan = &ctx.ntt_plans()[0];
    let (fft_kernel, fft_threads) = match ctx.embedding() {
        EmbeddingEngine::F64(e) => (e.plan().kernel_name(), e.threads()),
        EmbeddingEngine::ExtF64(e) => (e.plan().kernel_name(), e.threads()),
        EmbeddingEngine::Fp55(e) => (e.plan().kernel_name(), e.threads()),
    };
    format!(
        "{{\"cpu\":\"{cpu}\",\"avx512f\":{avx512f},\"avx512ifma\":{avx512ifma},\"nproc\":{nproc},\
         \"log_n\":{},\"primes\":{},\"ntt_kernel\":\"{}\",\"dyadic_kernel\":\"{}\",\
         \"embedding\":\"{}\",\"fft_kernel\":\"{fft_kernel}\",\"ntt_threads\":{},\"fft_threads\":{fft_threads}}}",
        ctx.params().log_n(),
        ctx.params().num_primes(),
        plan.kernel_name(),
        plan.dyadic().kernel_name(),
        ctx.embedding().name(),
        ctx.ntt_engine().threads(),
    )
}
