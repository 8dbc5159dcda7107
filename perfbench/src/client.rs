//! The single-client workloads (`upload-n16`, `download-n16`) and the
//! replays that split each `ckks` stage into lower-layer calls.
//!
//! A traced op records one span per stage around the benchmark's own
//! call into `abc-ckks`, then replays the lower-layer calls that stage
//! makes, through their public entry points and at the shapes the op
//! used. Calls per stage, read from `crates/ckks/src/context.rs`:
//!
//! | stage          | replayed children (calls per op)                                                   |
//! |----------------|------------------------------------------------------------------------------------|
//! | `ckks.encode`  | `transform.fft_inverse` ×1, `transform.expand_and_ntt` ×1 (all primes)             |
//! | `ckks.encrypt` | `prng.ternary_poly` ×1, `prng.gaussian_poly` ×2, `transform.expand_and_ntt` ×3, `math.dyadic_chain_encrypt` ×1 (`dyadic_mul_add2_all` + `dyadic_mul_add_all`) |
//! | `ckks.decrypt` | `math.dyadic_chain_decrypt` ×1 (`dyadic_mul_add_all` at the ciphertext's primes)   |
//! | `ckks.decode`  | `transform.ntt_inverse_all` ×1, `math.crt_lift` ×1 (N combines), `ckks.scale_divide` ×1 (N divisions), `transform.fft_forward` ×1 |
//!
//! Every printed row is the median of all spans of its name (a child
//! name is replayed at one shape only), and
//! `ckks.<stage>_unaccounted_ms` is the stage row minus Σ calls ×
//! child row: the work no replayed child covers (Δ-rounding,
//! i8/i64→i128 widening, key copies, slot packing, allocation).
//! `transform.ntt_forward_all` (the NTT inside `expand_and_ntt`) and
//! `prng.uniform_poly` (keygen and seed-compressed uploads) are
//! reported but not summed into any stage.

use crate::gauge::{self, HostGauge};
use crate::report::{self, Outcome, PRECISION_FLOOR_BITS};
use crate::stats::{self, Rng};
use crate::trace::{Span, Tracer};
use crate::Args;
use abc_ckks::params::{CkksParams, ScaleMode};
use abc_ckks::{wire, Ciphertext, CkksContext, EmbeddingEngine, Plaintext, PublicKey, SecretKey};
use abc_float::{Complex, F64Field, RealField};
use abc_prng::sampler::{GaussianSampler, TernarySampler, UniformSampler};
use abc_prng::Seed;
use abc_transform::SpecialFftEngine;
use std::time::{Duration, Instant};

/// Context builds (with keygen) per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Host gauge samples taken before each set-up repetition (and after
/// each slice of the gateway's loop).
pub const SETUP_GAUGE_SAMPLES: usize = 3;
/// Untimed ops before measuring, so pools and caches are warm.
const WARMUP_OPS: usize = 2;
/// Fewest measured ops: p90 then has at least 10 samples beyond it.
const MIN_OPS: usize = 100;
/// Upload outputs fully decrypted and compared: one in this many.
const UPLOAD_CHECK_EVERY: u64 = 8;
/// Distinct downloaded ciphertexts the download loop cycles through.
const DOWNLOAD_POOL: usize = 4;
/// Primes left on a downloaded ciphertext (paper Fig. 5a).
pub const DOWNLOAD_PRIMES: usize = 2;

/// Replayed children of each stage with their calls per op.
const STAGE_CHILDREN: &[(&str, &[(&str, f64)])] = &[
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

/// Parameters of the client workloads: the paper's bootstrappable set
/// (24 × 36-bit primes, double scale, fp64 embedding) and, below
/// N = 2^13, the same settings at a smaller ring for smoke runs.
fn client_params(log_n: u32) -> Result<CkksParams, String> {
    if (13..=16).contains(&log_n) {
        CkksParams::bootstrappable(log_n)
    } else {
        CkksParams::builder()
            .log_n(log_n)
            .num_primes(24)
            .prime_bits(36)
            .scale_bits(36)
            .scale_mode(ScaleMode::DoublePair)
            .build()
    }
    .map_err(|e| format!("client parameters: {e}"))
}

/// A client: context plus key pair.
struct Client {
    ctx: CkksContext,
    sk: SecretKey,
    pk: PublicKey,
}

/// Builds the context and keys `SETUP_REPS` times; returns the last
/// client and the median build time in seconds at the reference host
/// speed (scaled by the median gauge sample of the set-up phase).
fn setup(
    params: &CkksParams,
    rng: &mut Rng,
    gauge: &mut HostGauge,
) -> Result<(Client, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut client = None;
    for _ in 0..SETUP_REPS {
        let seed = Seed::from_u128(rng.next_u128());
        // Free the previous client first so peak memory holds one.
        drop(client.take());
        gauge.sample_median(SETUP_GAUGE_SAMPLES);
        let t0 = Instant::now();
        let ctx = CkksContext::new(params.clone()).map_err(|e| format!("context: {e}"))?;
        let (sk, pk) = ctx.keygen(seed);
        times.push(t0.elapsed().as_secs_f64());
        client = Some(Client { ctx, sk, pk });
    }
    let client = client.ok_or("no setup ran")?;
    let k = gauge::to_reference(gauge.median_since(0));
    Ok((client, stats::median(&times) * k))
}

/// The context's fp64 embedding engine (the only datapath the
/// replays cover; both workloads use it).
fn f64_engine(ctx: &CkksContext) -> Result<&SpecialFftEngine<F64Field>, String> {
    match ctx.embedding() {
        EmbeddingEngine::F64(e) => Ok(e),
        other => Err(format!(
            "replays need the fp64 embedding, got {}",
            other.name()
        )),
    }
}

/// The measuring phases of one run: the whole budget untraced, or
/// half untraced and half traced (the traced run).
fn phases(args: &Args) -> Vec<(bool, Duration)> {
    let total = Duration::from_secs_f64(args.seconds);
    if args.trace {
        vec![(false, total / 2), (true, total / 2)]
    } else {
        vec![(false, total)]
    }
}

/// Decrypts at `DOWNLOAD_PRIMES` primes and decodes, returning the
/// round-trip precision against `msg`.
fn roundtrip_precision(client: &Client, ct: &Ciphertext, msg: &[Complex]) -> Result<f64, String> {
    let ct = ct.truncated(DOWNLOAD_PRIMES.min(ct.num_primes()));
    let pt = client
        .ctx
        .decrypt(&ct, &client.sk)
        .map_err(|e| format!("decrypt: {e}"))?;
    let slots = client.ctx.decode(&pt).map_err(|e| format!("decode: {e}"))?;
    Ok(stats::precision_bits(&slots, msg))
}

/// Records a precision sample and fails the check below the floor.
fn check_precision(out: &mut Outcome, precision: &mut Vec<f64>, bits: f64, what: &str) {
    precision.push(bits);
    if bits.is_nan() || bits < PRECISION_FLOOR_BITS {
        out.check_failed(format!(
            "{what}: round-trip precision {bits:.2} bits below the {PRECISION_FLOOR_BITS}-bit floor"
        ));
    }
}

/// `encode → encrypt (public key) → serialize_ciphertext_packed` in a
/// closed loop on fresh seeded messages.
pub fn upload(args: &Args) -> Result<Outcome, String> {
    let params = client_params(args.log_n.unwrap_or(16))?;
    let mut rng = Rng::new(args.seed, 1);
    let mut gauge = HostGauge::new();
    let (client, setup_s) = setup(&params, &mut rng, &mut gauge)?;
    let ctx = &client.ctx;
    let mut out = Outcome::default();
    out.note(format!("host: {}", report::fingerprint(ctx)));
    let widths = ctx.wire_widths(ctx.params().num_primes());
    let slots = ctx.params().slots();
    let tracer = Tracer::new(args.trace);

    let encode_encrypt = |msg: &[Complex], seed: Seed| -> Result<_, String> {
        let t0 = Instant::now();
        let pt = ctx.encode(msg).map_err(|e| format!("encode: {e}"))?;
        let t1 = Instant::now();
        let ct = ctx.encrypt(&pt, &client.pk, seed);
        let t2 = Instant::now();
        let blob = wire::serialize_ciphertext_packed(&ct, &widths)
            .map_err(|e| format!("serialize: {e}"))?;
        Ok((pt, ct, blob, [t0, t1, t2, Instant::now()]))
    };
    for _ in 0..WARMUP_OPS {
        encode_encrypt(&rng.message(slots), Seed::from_u128(rng.next_u128()))?;
    }

    let mut precision = Vec::new();
    // Untraced op latencies at the reference host speed, and as measured.
    let mut latencies = Vec::new();
    let mut wall = Vec::new();
    let mut traced = Vec::new();
    let mut lags = Vec::new();
    let mut bytes = 0usize;
    let mut op = 0u64;
    let loop_gauge = gauge.count();
    for (is_traced, budget) in phases(args) {
        let start = Instant::now();
        let min_ops = if args.trace { MIN_OPS / 5 } else { MIN_OPS };
        let mut done = 0;
        while start.elapsed() < budget || done < min_ops {
            // The host's speed just before the op.
            let gauge_ms = gauge.sample();
            let g0 = Instant::now();
            let msg = rng.message(slots);
            let seed = Seed::from_u128(rng.next_u128());
            lags.push(g0.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            let (pt, ct, mut blob, t) = match encode_encrypt(&msg, seed) {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    out.check_failed(format!("upload op {op}: {e}"));
                    op += 1;
                    done += 1;
                    continue;
                }
            };
            let ms = (t[3] - t[0]).as_secs_f64() * 1e3;
            bytes += blob.len();
            if is_traced {
                traced.push(ms);
                let root = tracer.reserve();
                let enc = tracer.leaf("ckks.encode", Some(root), op, t[0], t[1]);
                let encr = tracer.leaf("ckks.encrypt", Some(root), op, t[1], t[2]);
                tracer.leaf("ckks.serialize", Some(root), op, t[2], t[3]);
                tracer.record(root, "op.upload", None, op, t[0], t[3]);
                replay_encode(ctx, &tracer, enc, op, &msg)?;
                replay_encrypt(ctx, &tracer, encr, op, seed, &pt, &ct)?;
                replay_uniform(ctx, &tracer, op, seed);
            } else {
                latencies.push(ms * gauge::to_reference(gauge_ms));
                wall.push(ms);
            }
            if op.is_multiple_of(UPLOAD_CHECK_EVERY) {
                if args.corrupt && op == 0 {
                    let last = blob.len() - 1;
                    blob[last] ^= 0x01;
                }
                match wire::deserialize_ciphertext(&blob) {
                    Ok(back) if back == ct => {
                        let bits = roundtrip_precision(&client, &back, &msg)?;
                        check_precision(&mut out, &mut precision, bits, &format!("upload op {op}"));
                    }
                    Ok(_) => out.check_failed(format!(
                        "upload op {op}: blob deserializes to a different ciphertext"
                    )),
                    Err(e) => out.check_failed(format!("upload op {op}: blob rejected: {e}")),
                }
            }
            op += 1;
            done += 1;
        }
    }
    let gauge_ms = gauge.median_since(loop_gauge);
    finish_client(
        &mut out, args, setup_s, &latencies, &wall, gauge_ms, &precision, bytes, op,
    );
    if args.trace {
        layer_metrics(&mut out, &tracer, &wall, &traced, &lags);
        out.set("bench.host_gauge_ms", gauge_ms);
        write_trace(&tracer, args, ctx)?;
    }
    Ok(out)
}

/// `deserialize_ciphertext → decrypt → decode` in a closed loop over
/// seeded ciphertexts truncated to `DOWNLOAD_PRIMES` primes.
pub fn download(args: &Args) -> Result<Outcome, String> {
    let params = client_params(args.log_n.unwrap_or(16))?;
    let mut rng = Rng::new(args.seed, 2);
    let mut gauge = HostGauge::new();
    let (client, setup_s) = setup(&params, &mut rng, &mut gauge)?;
    let ctx = &client.ctx;
    let mut out = Outcome::default();
    out.note(format!("host: {}", report::fingerprint(ctx)));
    let widths = ctx.wire_widths(DOWNLOAD_PRIMES);
    let slots = ctx.params().slots();
    let tracer = Tracer::new(args.trace);

    // The server's replies: seeded messages, encrypted under the
    // client's key and truncated to the download level.
    let mut pool = Vec::with_capacity(DOWNLOAD_POOL);
    for _ in 0..DOWNLOAD_POOL {
        let msg = rng.message(slots);
        let pt = ctx.encode(&msg).map_err(|e| format!("encode: {e}"))?;
        let ct = ctx
            .encrypt(&pt, &client.pk, Seed::from_u128(rng.next_u128()))
            .truncated(DOWNLOAD_PRIMES);
        let blob = wire::serialize_ciphertext_packed(&ct, &widths)
            .map_err(|e| format!("serialize: {e}"))?;
        pool.push((msg, ct, blob));
    }

    let run_op = |blob: &[u8]| -> Result<_, String> {
        let t0 = Instant::now();
        let ct = wire::deserialize_ciphertext(blob).map_err(|e| format!("deserialize: {e}"))?;
        let t1 = Instant::now();
        let pt = ctx
            .decrypt(&ct, &client.sk)
            .map_err(|e| format!("decrypt: {e}"))?;
        let t2 = Instant::now();
        let slots = ctx.decode(&pt).map_err(|e| format!("decode: {e}"))?;
        Ok((ct, pt, slots, [t0, t1, t2, Instant::now()]))
    };
    for i in 0..WARMUP_OPS {
        run_op(&pool[i % DOWNLOAD_POOL].2)?;
    }

    let mut precision = Vec::new();
    // Untraced op latencies at the reference host speed, and as measured.
    let mut latencies = Vec::new();
    let mut wall = Vec::new();
    let mut traced = Vec::new();
    let mut lags = Vec::new();
    let mut bytes = 0usize;
    let mut op = 0u64;
    let loop_gauge = gauge.count();
    for (is_traced, budget) in phases(args) {
        let start = Instant::now();
        let min_ops = if args.trace { MIN_OPS / 5 } else { MIN_OPS };
        let mut done = 0;
        while start.elapsed() < budget || done < min_ops {
            // The host's speed just before the op.
            let gauge_ms = gauge.sample();
            let g0 = Instant::now();
            let (msg, expect_ct, blob) = &pool[rng.next_u64() as usize % DOWNLOAD_POOL];
            lags.push(g0.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            let (ct, pt, mut decoded, t) = match run_op(blob) {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    out.check_failed(format!("download op {op}: {e}"));
                    op += 1;
                    done += 1;
                    continue;
                }
            };
            let ms = (t[3] - t[0]).as_secs_f64() * 1e3;
            bytes += blob.len();
            if is_traced {
                traced.push(ms);
                let root = tracer.reserve();
                tracer.leaf("ckks.deserialize", Some(root), op, t[0], t[1]);
                let dec = tracer.leaf("ckks.decrypt", Some(root), op, t[1], t[2]);
                let dcd = tracer.leaf("ckks.decode", Some(root), op, t[2], t[3]);
                tracer.record(root, "op.download", None, op, t[0], t[3]);
                replay_decrypt(ctx, &tracer, dec, op, &ct)?;
                replay_decode(ctx, &tracer, dcd, op, &pt)?;
            } else {
                latencies.push(ms * gauge::to_reference(gauge_ms));
                wall.push(ms);
            }
            if &ct != expect_ct {
                out.check_failed(format!(
                    "download op {op}: blob deserializes to a different ciphertext"
                ));
            }
            if args.corrupt && op == 0 {
                decoded[0].re += 1.0;
            }
            let bits = stats::precision_bits(&decoded, msg);
            check_precision(&mut out, &mut precision, bits, &format!("download op {op}"));
            op += 1;
            done += 1;
        }
    }
    let gauge_ms = gauge.median_since(loop_gauge);
    finish_client(
        &mut out, args, setup_s, &latencies, &wall, gauge_ms, &precision, bytes, op,
    );
    if args.trace {
        layer_metrics(&mut out, &tracer, &wall, &traced, &lags);
        out.set("bench.host_gauge_ms", gauge_ms);
        write_trace(&tracer, args, ctx)?;
    }
    Ok(out)
}

/// The end-to-end metrics of a single-client closed loop.
#[allow(clippy::too_many_arguments)]
fn finish_client(
    out: &mut Outcome,
    args: &Args,
    setup_s: f64,
    latencies: &[f64],
    wall: &[f64],
    gauge_ms: f64,
    precision: &[f64],
    bytes: usize,
    ops: u64,
) {
    out.set("setup_s", setup_s);
    out.set("latency_ms_p50", stats::block_percentile(latencies, 0.5));
    out.set("latency_ms_p90", stats::block_percentile(latencies, 0.9));
    out.set("throughput_ops_per_s", stats::block_rate(latencies));
    out.note(report::wall_clock(wall, gauge_ms));
    out.set(
        "success_ratio",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
    );
    out.set(
        "precision_bits",
        precision.iter().copied().fold(f64::INFINITY, f64::min),
    );
    if precision.is_empty() {
        out.check_failed("no output was checked".to_owned());
    }
    out.set("wire_kib_per_op", bytes as f64 / 1024.0 / ops.max(1) as f64);
    out.set("peak_rss_mib", report::peak_rss_mib());
    out.note(format!(
        "workload {} seed {} trace {}: {} timed ops ({} attempted), {} outputs checked",
        args.workload,
        args.seed,
        u8::from(args.trace),
        latencies.len(),
        out.attempted,
        precision.len()
    ));
}

/// Per-layer rows printed from the traced phase: metric and the span
/// whose median it is.
const LAYER_ROWS: &[(&str, &str)] = &[
    ("ckks.encode_ms", "ckks.encode"),
    ("ckks.encrypt_ms", "ckks.encrypt"),
    ("ckks.serialize_ms", "ckks.serialize"),
    ("ckks.deserialize_ms", "ckks.deserialize"),
    ("ckks.decrypt_ms", "ckks.decrypt"),
    ("ckks.decode_ms", "ckks.decode"),
    ("ckks.scale_divide_ms", "ckks.scale_divide"),
    ("transform.fft_inverse_ms", "transform.fft_inverse"),
    ("transform.fft_forward_ms", "transform.fft_forward"),
    ("transform.expand_and_ntt_ms", "transform.expand_and_ntt"),
    ("transform.ntt_forward_all_ms", "transform.ntt_forward_all"),
    ("transform.ntt_inverse_all_ms", "transform.ntt_inverse_all"),
    ("prng.ternary_poly_ms", "prng.ternary_poly"),
    ("prng.gaussian_poly_ms", "prng.gaussian_poly"),
    ("prng.uniform_poly_ms", "prng.uniform_poly"),
    ("math.dyadic_chain_encrypt_ms", "math.dyadic_chain_encrypt"),
    ("math.dyadic_chain_decrypt_ms", "math.dyadic_chain_decrypt"),
    ("math.crt_lift_ms", "math.crt_lift"),
];

/// Per-layer metrics from the traced phase: the median of every span
/// name, and each stage's unaccounted remainder computed from exactly
/// those medians, so a stage row equals Σ calls × child row plus its
/// unaccounted row.
pub fn layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    untraced_ms: &[f64],
    traced_ms: &[f64],
    lags_ms: &[f64],
) {
    let spans = tracer.spans();
    let median_of = |name: &str| -> f64 {
        let ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect();
        stats::median(&ms)
    };
    for &(metric, span) in LAYER_ROWS {
        out.set(metric, median_of(span));
    }
    for &(stage, children) in STAGE_CHILDREN {
        let covered: f64 = children
            .iter()
            .map(|&(child, calls)| calls * median_of(child))
            .sum();
        let key: &'static str = match stage {
            "ckks.encode" => "ckks.encode_unaccounted_ms",
            "ckks.encrypt" => "ckks.encrypt_unaccounted_ms",
            "ckks.decrypt" => "ckks.decrypt_unaccounted_ms",
            _ => "ckks.decode_unaccounted_ms",
        };
        out.set(key, median_of(stage) - covered);
    }
    out.set("bench.gen_lag_ms_p90", stats::percentile(lags_ms, 0.9));
    let base = stats::median(untraced_ms);
    out.set(
        "bench.trace_overhead_ratio",
        if base > 0.0 {
            stats::median(traced_ms) / base
        } else {
            0.0
        },
    );
    out.set("bench.traced_ops", traced_ms.len() as f64);
}

/// Writes the span file of a traced run, headed by the host
/// fingerprint and the run's settings.
pub fn write_trace(tracer: &Tracer, args: &Args, ctx: &CkksContext) -> Result<(), String> {
    let path = args.trace_path();
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"host\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        report::fingerprint(ctx)
    );
    tracer
        .write_jsonl(&path, &header)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
    let t0 = Instant::now();
    let r = f();
    (r, t0, Instant::now())
}

/// The Δ_eff-scaled integer coefficients of `msg` (the values encode
/// rounds into RNS), from the engine's inverse embedding.
fn scaled_coeffs(
    ctx: &CkksContext,
    engine: &SpecialFftEngine<F64Field>,
    vals: &[Complex],
) -> Vec<i128> {
    let scale = 2f64.powi(ctx.params().effective_scale_bits() as i32);
    engine
        .plan()
        .slots_to_coeffs(vals)
        .iter()
        .map(|&c| (c * scale).round() as i128)
        .collect()
}

/// Replays encode's children: the inverse embedding at N/2 slots and
/// the RNS expansion + forward NTT at every prime.
pub fn replay_encode(
    ctx: &CkksContext,
    tracer: &Tracer,
    parent: u64,
    req: u64,
    msg: &[Complex],
) -> Result<(), String> {
    let engine = f64_engine(ctx)?;
    let mut vals = engine.take_buf();
    for (dst, &m) in vals.iter_mut().zip(msg) {
        *dst = m.lift_in(engine.plan().field());
    }
    let ((), t0, t1) = timed(|| engine.inverse(&mut vals));
    tracer.leaf("transform.fft_inverse", Some(parent), req, t0, t1);
    let ints = scaled_coeffs(ctx, engine, &vals);
    engine.recycle(vals);
    let ntt = ctx.ntt_engine();
    let (mut limbs, t0, t1) = timed(|| ntt.expand_and_ntt(&ints));
    let expand = tracer.leaf("transform.expand_and_ntt", Some(parent), req, t0, t1);
    let ((), t0, t1) = timed(|| ntt.forward_all(&mut limbs));
    tracer.leaf("transform.ntt_forward_all", Some(expand), req, t0, t1);
    Ok(())
}

/// Replays encrypt's children with the op's own seed: one ternary and
/// two Gaussian polynomials, their three expansions, and the fused
/// dyadic chain. The key's limbs are private, so the chain multiplies
/// the ciphertext's limbs instead: the kernels are data-oblivious and
/// the shape (primes × N) is the op's.
pub fn replay_encrypt(
    ctx: &CkksContext,
    tracer: &Tracer,
    parent: u64,
    req: u64,
    seed: Seed,
    pt: &Plaintext,
    ct: &Ciphertext,
) -> Result<(), String> {
    let n = ctx.params().n();
    let sigma = ctx.params().error_sigma();
    let (v, t0, t1) = timed(|| TernarySampler::new(seed.derive(0), 0).sample_poly(n, None));
    tracer.leaf("prng.ternary_poly", Some(parent), req, t0, t1);
    let mut errors = Vec::with_capacity(2);
    for stream in 1..=2 {
        let (e, t0, t1) =
            timed(|| GaussianSampler::new(seed.derive(stream), 0, sigma).sample_poly(n));
        tracer.leaf("prng.gaussian_poly", Some(parent), req, t0, t1);
        errors.push(e);
    }
    let widened = [
        v.iter().map(|&c| i128::from(c)).collect::<Vec<_>>(),
        errors[0].iter().map(|&c| i128::from(c)).collect(),
        errors[1].iter().map(|&c| i128::from(c)).collect(),
    ];
    let ntt = ctx.ntt_engine();
    let mut polys = Vec::with_capacity(3);
    for ints in &widened {
        let (limbs, t0, t1) = timed(|| ntt.expand_and_ntt(ints));
        tracer.leaf("transform.expand_and_ntt", Some(parent), req, t0, t1);
        polys.push(limbs);
    }
    let (c0_src, c1_src) = ct.components();
    let mut c0 = c0_src.to_vec();
    let mut c1 = c1_src.to_vec();
    let ((), t0, t1) = timed(|| {
        ntt.dyadic_mul_add2_all(&mut c0, &polys[0], &polys[1], pt.residues());
        ntt.dyadic_mul_add_all(&mut c1, &polys[0], &polys[2]);
    });
    tracer.leaf("math.dyadic_chain_encrypt", Some(parent), req, t0, t1);
    std::hint::black_box((c0, c1));
    Ok(())
}

/// Replays one uniform mask polynomial (one prime, N coefficients):
/// keygen samples one per prime, and so does a seed-compressed upload.
pub fn replay_uniform(ctx: &CkksContext, tracer: &Tracer, req: u64, seed: Seed) {
    let m = &ctx.basis().moduli()[0];
    let mut a = vec![0u64; ctx.params().n()];
    let ((), t0, t1) = timed(|| UniformSampler::new(seed.derive(3), 0).sample_poly(m, &mut a));
    tracer.leaf("prng.uniform_poly", None, req, t0, t1);
    std::hint::black_box(a);
}

/// Replays decrypt's fused multiply-add at the ciphertext's primes.
/// The secret key's limbs are private; `c0` stands in for them.
pub fn replay_decrypt(
    ctx: &CkksContext,
    tracer: &Tracer,
    parent: u64,
    req: u64,
    ct: &Ciphertext,
) -> Result<(), String> {
    let (c0, c1) = ct.components();
    let mut acc = c1.to_vec();
    let ((), t0, t1) = timed(|| ctx.ntt_engine().dyadic_mul_add_all(&mut acc, c0, c0));
    tracer.leaf("math.dyadic_chain_decrypt", Some(parent), req, t0, t1);
    std::hint::black_box(acc);
    Ok(())
}

/// Replays decode's children on the op's own plaintext: inverse NTT,
/// exact CRT lift of every coefficient, scale division, and the
/// forward embedding.
pub fn replay_decode(
    ctx: &CkksContext,
    tracer: &Tracer,
    parent: u64,
    req: u64,
    pt: &Plaintext,
) -> Result<(), String> {
    let engine = f64_engine(ctx)?;
    let lvl = pt.num_primes();
    let mut res = pt.residues().to_vec();
    let ((), t0, t1) = timed(|| ctx.ntt_engine().inverse_all(&mut res));
    tracer.leaf("transform.ntt_inverse_all", Some(parent), req, t0, t1);
    let basis = ctx.basis().truncated(lvl);
    let product = basis.product();
    let (lifted, t0, t1) = timed(|| {
        let mut residues = vec![0u64; lvl];
        (0..ctx.params().n())
            .map(|j| {
                for (r, limb) in residues.iter_mut().zip(&res) {
                    *r = limb[j];
                }
                basis.combine_centered_big_with_product(&residues, &product)
            })
            .collect::<Vec<_>>()
    });
    tracer.leaf("math.crt_lift", Some(parent), req, t0, t1);
    let divisor = pt.exact_scale().divisor();
    let (quotients, t0, t1) = timed(|| {
        lifted
            .iter()
            .map(|(negative, mag)| divisor.apply_ext(*negative, mag))
            .collect::<Vec<_>>()
    });
    tracer.leaf("ckks.scale_divide", Some(parent), req, t0, t1);
    let field = engine.plan().field();
    let coeffs: Vec<f64> = quotients.into_iter().map(|q| field.from_ext(q)).collect();
    let mut vals = engine.plan().coeffs_to_slots(&coeffs);
    let ((), t0, t1) = timed(|| engine.forward(&mut vals));
    tracer.leaf("transform.fft_forward", Some(parent), req, t0, t1);
    std::hint::black_box(vals);
    Ok(())
}
