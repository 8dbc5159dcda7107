//! Smoke test of the benchmark itself: every workload at N = 2^10,
//! untraced and traced, must emit every metric it names; a deliberately
//! corrupted output must fail the run.
//!
//! ```text
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```

use std::process::{Command, Output};

const WORKLOADS: &[&str] = &["upload-n16", "download-n16", "gateway-closed-n13"];

const END_TO_END: &[&str] = &[
    "setup_s",
    "latency_ms_p50",
    "latency_ms_p90",
    "throughput_ops_per_s",
    "success_ratio",
    "precision_bits",
    "wire_kib_per_op",
    "peak_rss_mib",
];

const PER_LAYER: &[&str] = &[
    "ckks.encode_ms",
    "ckks.encrypt_ms",
    "ckks.serialize_ms",
    "ckks.deserialize_ms",
    "ckks.decrypt_ms",
    "ckks.decode_ms",
    "ckks.encode_unaccounted_ms",
    "ckks.encrypt_unaccounted_ms",
    "ckks.decrypt_unaccounted_ms",
    "ckks.decode_unaccounted_ms",
    "ckks.scale_divide_ms",
    "transform.fft_inverse_ms",
    "transform.fft_forward_ms",
    "transform.expand_and_ntt_ms",
    "transform.ntt_forward_all_ms",
    "transform.ntt_inverse_all_ms",
    "prng.ternary_poly_ms",
    "prng.gaussian_poly_ms",
    "prng.uniform_poly_ms",
    "math.dyadic_chain_encrypt_ms",
    "math.dyadic_chain_decrypt_ms",
    "math.crt_lift_ms",
    "gateway.submit_us_p50",
    "gateway.queue_depth_p90",
    "gateway.shed_ratio",
    "gateway.degraded_ratio",
    "gateway.timeout_ratio",
    "gateway.internal_ms_p50",
    "gateway.internal_ms_p95",
    "gateway.session_miss_share",
    "gateway.offered_load",
    "bench.gen_lag_ms_p90",
    "bench.host_gauge_ms",
    "bench.trace_overhead_ratio",
    "bench.traced_ops",
];

/// Each stage's replayed children and calls per op, as documented in
/// `perfbench/README.md`.
const STAGES: &[(&str, &[(&str, f64)])] = &[
    (
        "ckks.encode",
        &[
            ("transform.fft_inverse", 1.0),
            ("transform.expand_and_ntt", 1.0),
        ],
    ),
    (
        "ckks.encrypt",
        &[
            ("prng.ternary_poly", 1.0),
            ("prng.gaussian_poly", 2.0),
            ("transform.expand_and_ntt", 3.0),
            ("math.dyadic_chain_encrypt", 1.0),
        ],
    ),
    ("ckks.decrypt", &[("math.dyadic_chain_decrypt", 1.0)]),
    (
        "ckks.decode",
        &[
            ("transform.ntt_inverse_all", 1.0),
            ("math.crt_lift", 1.0),
            ("ckks.scale_divide", 1.0),
            ("transform.fft_forward", 1.0),
        ],
    ),
];

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    let trace_out = format!("{}/trace-{workload}.jsonl", env!("CARGO_TARGET_TMPDIR"));
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--log-n", "10", "--trace-out", &trace_out])
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

/// The last stdout line: the result object.
fn result_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().last().unwrap_or_default().to_owned()
}

fn assert_metrics(line: &str, names: &[&str]) {
    assert!(
        line.starts_with("{\"correct\":"),
        "not a result line: {line}"
    );
    for name in names {
        assert!(
            line.contains(&format!("\"{name}\":{{\"value\":")),
            "metric {name} missing from {line}"
        );
    }
}

/// The value of metric `name` in a result line.
fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\":{{\"value\":");
    let at = line.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
    let rest = &line[at..];
    let end = rest.find(',').unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|e| panic!("{name}: {e} in {rest}"))
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let out = run(workload, false, &[]);
        let line = result_line(&out);
        assert!(out.status.success(), "{workload} failed: {line}");
        assert!(line.starts_with("{\"correct\":true"), "{workload}: {line}");
        assert_metrics(&line, END_TO_END);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_and_spans() {
    for workload in WORKLOADS {
        let out = run(workload, true, &[]);
        let line = result_line(&out);
        assert!(out.status.success(), "{workload} failed: {line}");
        assert_metrics(&line, PER_LAYER);
        for &(stage, children) in STAGES {
            let stage_ms = metric(&line, &format!("{stage}_ms"));
            let children_ms: f64 = children
                .iter()
                .map(|&(child, calls)| calls * metric(&line, &format!("{child}_ms")))
                .sum();
            let unaccounted = metric(&line, &format!("{stage}_unaccounted_ms"));
            assert!(
                (stage_ms - (children_ms + unaccounted)).abs() <= 1e-9 * stage_ms.max(1.0),
                "{workload}: {stage} {stage_ms} ms != children {children_ms} + unaccounted {unaccounted}"
            );
        }
        if *workload != "download-n16" {
            assert!(
                metric(&line, "ckks.encrypt_ms") > 0.0,
                "{workload}: no encrypt spans"
            );
        }
        if *workload != "upload-n16" {
            assert!(
                metric(&line, "ckks.decode_ms") > 0.0,
                "{workload}: no decode spans"
            );
        }
        let spans = std::fs::read_to_string(format!(
            "{}/trace-{workload}.jsonl",
            env!("CARGO_TARGET_TMPDIR")
        ))
        .expect("trace file written");
        assert!(spans.lines().count() > 1, "{workload}: no spans recorded");
        assert!(
            spans.contains("\"parent\":"),
            "{workload}: spans lack parents"
        );
    }
}

#[test]
fn a_corrupted_output_fails_the_run() {
    for workload in WORKLOADS {
        let out = run(workload, false, &["--corrupt-output"]);
        let line = result_line(&out);
        assert_eq!(out.status.code(), Some(1), "{workload} not caught: {line}");
        assert!(line.starts_with("{\"correct\":false"), "{workload}: {line}");
    }
}

#[test]
fn a_bad_command_line_exits_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(result_line(&out).is_empty());
}
