//! The gateway workload `gateway-closed-n13`: `CLIENTS` callers send a
//! seeded request plan through `Gateway::submit`, each sending the next
//! request as soon as its previous reply arrived. Latency runs from
//! `submit` to the reply. Both workers stay busy, so the run measures
//! the gateway under steady full load; the queue never holds more than
//! `CLIENTS` requests, so admission's degrade/shed ladder is not
//! exercised.

use crate::client::{self, DOWNLOAD_PRIMES, SETUP_GAUGE_SAMPLES, SETUP_REPS};
use crate::gauge::{self, HostGauge};
use crate::report::{self, Outcome, PRECISION_FLOOR_BITS};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::Args;
use abc_ckks::params::CkksParams;
use abc_ckks::{wire, CkksContext, SecretKey};
use abc_float::Complex;
use abc_gateway::{Gateway, GatewayConfig, Operation, Request, Response, UploadMode};
use abc_prng::Seed;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Gateway workers (one pooled context each).
const WORKERS: usize = 2;
/// RNS primes of the gateway's contexts.
const PRIMES: usize = 24;
/// Goodput counts successes within this latency (about 10× the
/// unloaded full encrypt at N = 2^13).
const LATENCY_LIMIT_MS: f64 = 250.0;
/// Untimed closed-loop warm-up before measuring (seconds): fills the
/// session cache with the popular tenants and touches every worker's
/// buffers.
const WARMUP_S: f64 = 2.0;
/// Tenant population (Zipf, s = 1), larger than the 32-entry session
/// cache, so some requests pay a keygen.
const TENANTS: u64 = 64;
const SESSION_CAPACITY: usize = 32;
/// Request mix per block of `MIX_BLOCK` consecutive requests: cumulative
/// shares of Encrypt{Auto}, Decrypt (2-prime blob), Ingest (full blob);
/// the rest is EncryptBatch of two. Exact within every block, so any
/// prefix a run completes carries the mix.
const MIX: [f64; 3] = [0.50, 0.75, 0.90];
const MIX_BLOCK: usize = 20;
const BATCH: usize = 2;
/// Closed-loop callers, one per worker, so both workers stay busy and
/// contend for the cores.
const CLIENTS: usize = 2;
/// Requests planned per second of a run: more than the gateway
/// completes, so the callers never run out.
const PLAN_RATE: f64 = 400.0;
/// Encrypt responses kept and fully decrypted after the run: every
/// 8th of the first 800 requests (each blob is ~1.5 MiB).
const SAMPLE_ENCRYPT_EVERY: usize = 8;
const SAMPLE_ENCRYPT_BELOW: usize = 800;
/// Requests per kind in the traced run's unloaded-cost probe.
const PROBE_CALLS: usize = 4;
/// Length of one slice of the measured closed loop; the host gauge is
/// sampled between slices, while the gateway is idle.
const SLICE: Duration = Duration::from_secs(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Encrypt,
    Decrypt,
    Ingest,
    Batch,
}

/// One planned request: who, what, and the seed of its payload.
#[derive(Debug, Clone, Copy)]
struct Spec {
    tenant: u64,
    kind: Kind,
    payload: u64,
}

/// What one request came back with.
#[derive(Debug, Default)]
struct Resolved {
    latency_ms: f64,
    ok: bool,
    wire_bytes: usize,
    precision: Option<f64>,
    check_failure: Option<String>,
    /// A sampled encrypt response: tenant, payload seed, blob, compressed.
    sample: Option<(u64, u64, Vec<u8>, bool)>,
}

/// One closed-loop pass's measurements.
#[derive(Debug, Default)]
struct Pass {
    /// Completed requests per second.
    rate: f64,
    attempted: usize,
    latencies: Vec<f64>,
    /// `latencies` at the reference host speed.
    scaled: Vec<f64>,
    ok: usize,
    good: usize,
    wall_s: f64,
    /// `wall_s` at the reference host speed.
    scaled_wall_s: f64,
    /// Successes within the limit, by their scaled latency.
    scaled_good: usize,
    lags_ms: Vec<f64>,
    submit_us: Vec<f64>,
    depths: Vec<f64>,
    wire_bytes: usize,
    resolved: Vec<Resolved>,
    tenants: Vec<u64>,
    /// Median host gauge sample between the slices.
    gauge_ms: f64,
}

impl Pass {
    fn p(&self, q: f64) -> f64 {
        stats::percentile(&self.latencies, q)
    }

    fn goodput(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.good as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Goodput at the reference host speed.
    fn scaled_goodput(&self) -> f64 {
        if self.scaled_wall_s > 0.0 {
            self.scaled_good as f64 / self.scaled_wall_s
        } else {
            0.0
        }
    }

    /// Appends a later slice of the same loop, its timings taken to the
    /// reference host speed by `k`.
    fn append(&mut self, slice: Pass, k: f64) {
        self.attempted += slice.attempted;
        for (r, &ms) in slice.resolved.iter().zip(&slice.latencies) {
            self.scaled_good += usize::from(r.ok && ms * k <= LATENCY_LIMIT_MS);
            self.scaled.push(ms * k);
        }
        self.latencies.extend(slice.latencies);
        self.ok += slice.ok;
        self.good += slice.good;
        self.wall_s += slice.wall_s;
        self.scaled_wall_s += slice.wall_s * k;
        self.lags_ms.extend(slice.lags_ms);
        self.submit_us.extend(slice.submit_us);
        self.depths.extend(slice.depths);
        self.wire_bytes += slice.wire_bytes;
        self.resolved.extend(slice.resolved);
        self.tenants.extend(slice.tenants);
        self.rate = self.attempted as f64 / self.wall_s.max(f64::MIN_POSITIVE);
    }
}

/// Everything the generator and the checks share.
struct Inputs {
    ctx: CkksContext,
    slots: usize,
    /// Per tenant: secret key, 2-prime download blob, its message.
    tenants: HashMap<u64, (SecretKey, Vec<u8>, Vec<Complex>)>,
    ingest_blobs: Vec<Vec<u8>>,
    master: Seed,
}

impl Inputs {
    fn message(&self, payload: u64) -> Vec<Complex> {
        Rng::new(payload, 0x6D51).message(self.slots)
    }

    fn request(&self, spec: &Spec) -> Request {
        let op = match spec.kind {
            Kind::Encrypt => Operation::Encrypt {
                message: self.message(spec.payload),
                mode: UploadMode::Auto,
            },
            Kind::Batch => Operation::EncryptBatch {
                messages: (0..BATCH as u64)
                    .map(|i| self.message(spec.payload ^ (i << 56)))
                    .collect(),
                mode: UploadMode::Auto,
            },
            Kind::Decrypt => Operation::Decrypt {
                blob: self.tenants[&spec.tenant].1.clone(),
            },
            Kind::Ingest => Operation::Ingest {
                blob: self.ingest_blobs[spec.payload as usize % self.ingest_blobs.len()].clone(),
            },
        };
        Request {
            tenant: spec.tenant,
            deadline: None,
            op,
        }
    }

    /// Checks one response against its request and records the wire
    /// bytes it moved; keeps sampled encrypt blobs for `check_sample`.
    fn check(&self, spec: &Spec, idx: usize, resp: &Response, corrupt: bool, r: &mut Resolved) {
        let sample = idx.is_multiple_of(SAMPLE_ENCRYPT_EVERY) && idx < SAMPLE_ENCRYPT_BELOW;
        match (spec.kind, resp) {
            (Kind::Encrypt, Response::Encrypted { blob, compressed }) => {
                r.wire_bytes = blob.len();
                if sample {
                    r.sample = Some((spec.tenant, spec.payload, blob.clone(), *compressed));
                }
            }
            (Kind::Batch, Response::EncryptedBatch { blobs, compressed }) => {
                r.wire_bytes = blobs.iter().map(Vec::len).sum();
                if blobs.len() != BATCH {
                    r.check_failure = Some(format!("batch returned {} blobs", blobs.len()));
                } else if sample {
                    r.sample = Some((spec.tenant, spec.payload, blobs[0].clone(), *compressed));
                }
            }
            (Kind::Decrypt, Response::Decrypted { slots }) => {
                let (_, blob, msg) = &self.tenants[&spec.tenant];
                r.wire_bytes = blob.len();
                let mut slots = slots.clone();
                if corrupt {
                    slots[0].re += 1.0;
                }
                let bits = stats::precision_bits(&slots, msg);
                r.precision = Some(bits);
                if bits.is_nan() || bits < PRECISION_FLOOR_BITS {
                    r.check_failure = Some(format!(
                        "decrypt for tenant {}: precision {bits:.2} bits below the floor",
                        spec.tenant
                    ));
                }
            }
            (
                Kind::Ingest,
                Response::Ingested {
                    compressed,
                    primes,
                    wire_bytes,
                },
            ) => {
                let blob = &self.ingest_blobs[spec.payload as usize % self.ingest_blobs.len()];
                r.wire_bytes = blob.len();
                if *compressed || *primes != PRIMES || *wire_bytes != blob.len() {
                    r.check_failure = Some(format!(
                        "ingest report (compressed {compressed}, {primes} primes, {wire_bytes} B) \
                         does not describe the {} B full blob",
                        blob.len()
                    ));
                }
            }
            (kind, other) => {
                r.check_failure = Some(format!(
                    "{kind:?} request answered with {}",
                    match other {
                        Response::Encrypted { .. } => "Encrypted",
                        Response::EncryptedBatch { .. } => "EncryptedBatch",
                        Response::Decrypted { .. } => "Decrypted",
                        Response::DecryptedBatch { .. } => "DecryptedBatch",
                        Response::Ingested { .. } => "Ingested",
                    }
                ));
            }
        }
    }

    /// Fully decrypts a sampled encrypt response: the blob must
    /// deserialize (seed-compressed blobs expand) and decode back to
    /// its message.
    fn check_sample(
        &self,
        tenant: u64,
        payload: u64,
        blob: &[u8],
        compressed: bool,
    ) -> Result<f64, String> {
        let ct = if compressed {
            wire::deserialize_compressed_ciphertext(blob)
                .and_then(|c| c.expand(&self.ctx))
                .map_err(|e| format!("compressed blob rejected: {e}"))?
        } else {
            wire::deserialize_ciphertext(blob).map_err(|e| format!("blob rejected: {e}"))?
        };
        let sk = match self.tenants.get(&tenant) {
            Some((sk, _, _)) => sk.clone(),
            None => self.ctx.keygen(self.master.derive(tenant)).0,
        };
        let pt = self
            .ctx
            .decrypt(&ct.truncated(DOWNLOAD_PRIMES), &sk)
            .map_err(|e| format!("decrypt: {e}"))?;
        let slots = self.ctx.decode(&pt).map_err(|e| format!("decode: {e}"))?;
        Ok(stats::precision_bits(&slots, &self.message(payload)))
    }
}

fn config(log_n: u32, seed: u64) -> GatewayConfig {
    GatewayConfig {
        log_n,
        num_primes: PRIMES,
        workers: WORKERS,
        master_seed: Seed::from_u128(u128::from(seed) << 32 | 0xABC),
        ..GatewayConfig::default()
    }
}

/// The parameters the gateway's workers build (same builder calls), so
/// the benchmark can derive each tenant's keys.
fn gateway_params(cfg: &GatewayConfig) -> Result<CkksParams, String> {
    CkksParams::builder()
        .log_n(cfg.log_n)
        .num_primes(cfg.num_primes)
        .secret_hamming_weight(Some((1usize << cfg.log_n) / 8))
        .build()
        .map_err(|e| format!("gateway parameters: {e}"))
}

/// `Gateway::start` until every worker is live and one probe request
/// per worker has succeeded.
fn start(cfg: &GatewayConfig) -> Result<(Gateway, f64), String> {
    let t0 = Instant::now();
    let gw = Gateway::start(cfg.clone()).map_err(|e| format!("gateway start: {e}"))?;
    while gw.live_workers() < WORKERS as u64 {
        if t0.elapsed() > Duration::from_secs(60) {
            return Err("gateway workers did not come up".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let probes: Vec<_> = (0..WORKERS as u64)
        .map(|i| {
            gw.submit(Request {
                tenant: u64::MAX - i,
                deadline: None,
                op: Operation::Encrypt {
                    message: vec![Complex::new(0.5, -0.25); 8],
                    mode: UploadMode::Full,
                },
            })
        })
        .collect();
    for probe in probes {
        match probe
            .map_err(|e| e.to_string())
            .and_then(|t| t.wait().map_err(|e| e.to_string()))
        {
            Ok(Response::Encrypted { .. }) => {}
            Ok(_) => return Err("probe answered with the wrong kind".into()),
            Err(e) => return Err(format!("probe failed: {e}")),
        }
    }
    Ok((gw, t0.elapsed().as_secs_f64()))
}

/// Plans `seconds × PLAN_RATE` requests: the mix in exact shares per
/// `MIX_BLOCK`, the Zipf tenants in exact shares over the plan, both
/// shuffled by the seed.
fn plan(rng: &mut Rng, seconds: f64) -> Vec<Spec> {
    let count = ((PLAN_RATE * seconds).round() as usize).max(1);
    let mut kinds: Vec<Kind> = (0..count)
        .map(|i| {
            let at = ((i % MIX_BLOCK) as f64 + 0.5) / MIX_BLOCK as f64;
            if at < MIX[0] {
                Kind::Encrypt
            } else if at < MIX[1] {
                Kind::Decrypt
            } else if at < MIX[2] {
                Kind::Ingest
            } else {
                Kind::Batch
            }
        })
        .collect();
    for block in kinds.chunks_mut(MIX_BLOCK) {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.next_u64() as usize % (i + 1));
        }
    }
    // Tenants in exact Zipf shares (largest remainder), so the seed
    // moves only their order.
    let total: f64 = (1..=TENANTS).map(|k| 1.0 / k as f64).sum();
    let quota: Vec<f64> = (1..=TENANTS)
        .map(|k| count as f64 / k as f64 / total)
        .collect();
    let mut per_tenant: Vec<usize> = quota.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..quota.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (quota[b] - quota[b].floor()).total_cmp(&(quota[a] - quota[a].floor())));
    let short = count - per_tenant.iter().sum::<usize>();
    for &t in by_remainder.iter().take(short) {
        per_tenant[t] += 1;
    }
    let mut tenants: Vec<u64> = per_tenant
        .iter()
        .enumerate()
        .flat_map(|(t, &n)| std::iter::repeat_n(t as u64, n))
        .collect();
    for i in (1..count).rev() {
        tenants.swap(i, rng.next_u64() as usize % (i + 1));
    }
    kinds
        .into_iter()
        .zip(tenants)
        .map(|(kind, tenant)| Spec {
            tenant,
            kind,
            payload: rng.next_u64(),
        })
        .collect()
}

/// Builds each decrypting tenant's keys and 2-prime blob, and the
/// full blobs ingest validates.
fn inputs(cfg: &GatewayConfig, specs: &[Spec], rng: &mut Rng) -> Result<Inputs, String> {
    let ctx = CkksContext::new(gateway_params(cfg)?).map_err(|e| format!("context: {e}"))?;
    let slots = ctx.params().slots();
    let encrypt = |ctx: &CkksContext, msg: &[Complex], tenant: u64, seed: u128| {
        let (sk, pk) = ctx.keygen(cfg.master_seed.derive(tenant));
        let pt = ctx.encode(msg).map_err(|e| format!("encode: {e}"))?;
        Ok::<_, String>((sk, ctx.encrypt(&pt, &pk, Seed::from_u128(seed))))
    };
    let mut tenants = HashMap::new();
    let widths = ctx.wire_widths(DOWNLOAD_PRIMES);
    for spec in specs {
        if spec.kind == Kind::Decrypt && !tenants.contains_key(&spec.tenant) {
            let msg = rng.message(slots);
            let (sk, ct) = encrypt(&ctx, &msg, spec.tenant, rng.next_u128())?;
            let blob = wire::serialize_ciphertext_packed(&ct.truncated(DOWNLOAD_PRIMES), &widths)
                .map_err(|e| format!("serialize: {e}"))?;
            tenants.insert(spec.tenant, (sk, blob, msg));
        }
    }
    let full = ctx.wire_widths(PRIMES);
    let mut ingest_blobs = Vec::new();
    for _ in 0..2 {
        let (_, ct) = encrypt(&ctx, &rng.message(slots), 0, rng.next_u128())?;
        ingest_blobs.push(
            wire::serialize_ciphertext_packed(&ct, &full).map_err(|e| format!("serialize: {e}"))?,
        );
    }
    Ok(Inputs {
        ctx,
        slots,
        tenants,
        ingest_blobs,
        master: cfg.master_seed,
    })
}

/// Waits for one request's outcome, records its spans, and checks it.
/// Nothing on this workload may fail, so a typed error is a failed
/// check.
#[allow(clippy::too_many_arguments)]
fn settle(
    inp: &Inputs,
    tracer: &Tracer,
    spec: &Spec,
    idx: usize,
    root: u64,
    ticket: Result<abc_gateway::Ticket, String>,
    from: Instant,
    corrupt: bool,
) -> Resolved {
    let w0 = Instant::now();
    let result = ticket.and_then(|t| t.wait().map_err(|e| e.to_string()));
    let done = Instant::now();
    tracer.leaf("gateway.wait", Some(root), idx as u64, w0, done);
    tracer.record(root, "gateway.request", None, idx as u64, from, done);
    let mut r = Resolved {
        latency_ms: (done - from).as_secs_f64() * 1e3,
        ..Resolved::default()
    };
    match result {
        Ok(resp) => {
            r.ok = true;
            inp.check(spec, idx, &resp, corrupt, &mut r);
        }
        Err(e) => {
            r.latency_ms = f64::INFINITY;
            r.check_failure = Some(format!(
                "{:?} request for tenant {} failed: {e}",
                spec.kind, spec.tenant
            ));
        }
    }
    r
}

/// One submission: its span id, ticket, the queue depth seen just
/// before it, and when and for how long `submit` ran.
struct Submitted {
    root: u64,
    ticket: Result<abc_gateway::Ticket, String>,
    depth: f64,
    at: Instant,
    submit_us: f64,
}

/// Submits one request, timing `submit` and sampling the queue depth
/// just before it.
fn submit(gw: &Gateway, inp: &Inputs, tracer: &Tracer, spec: &Spec, idx: usize) -> Submitted {
    let request = inp.request(spec);
    let depth = gw.queue_depth() as f64;
    let root = tracer.reserve();
    let at = Instant::now();
    let ticket = gw.submit(request).map_err(|e| e.to_string());
    let t1 = Instant::now();
    tracer.leaf("gateway.submit", Some(root), idx as u64, at, t1);
    Submitted {
        root,
        ticket,
        depth,
        at,
        submit_us: (t1 - at).as_secs_f64() * 1e6,
    }
}

/// `CLIENTS` callers in a closed loop for `duration`, from planned
/// request `first` on, each sending the next planned request once its
/// previous reply arrived; latency runs from `submit` to the reply.
fn closed_loop(
    gw: &Gateway,
    inp: &Inputs,
    specs: &[Spec],
    first: usize,
    duration: Duration,
    tracer: &Tracer,
    corrupt: bool,
) -> Pass {
    let next = AtomicUsize::new(first);
    let resolved: Mutex<Vec<(usize, Resolved)>> = Mutex::new(Vec::new());
    let samples: Mutex<(Vec<f64>, Vec<f64>, Vec<f64>)> = Mutex::default();
    let corrupt_idx = if corrupt {
        first_decrypt(specs)
    } else {
        usize::MAX
    };
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                while start.elapsed() < duration {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(idx) else { break };
                    let g0 = Instant::now();
                    let sent = submit(gw, inp, tracer, spec, idx);
                    let lag_ms = (sent.at - g0).as_secs_f64() * 1e3;
                    let (depth, submit_us) = (sent.depth, sent.submit_us);
                    let r = settle(
                        inp,
                        tracer,
                        spec,
                        idx,
                        sent.root,
                        sent.ticket,
                        sent.at,
                        idx == corrupt_idx,
                    );
                    resolved
                        .lock()
                        .expect("result buffer poisoned")
                        .push((idx, r));
                    let mut smp = samples.lock().expect("sample buffer poisoned");
                    smp.0.push(lag_ms);
                    smp.1.push(submit_us);
                    smp.2.push(depth);
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut resolved = resolved.into_inner().expect("result buffer poisoned");
    let (lags_ms, submit_us, depths) = samples.into_inner().expect("sample buffer poisoned");
    // Request order, so the latency blocks are consecutive in time.
    resolved.sort_by_key(|(i, _)| *i);
    let mut pass = Pass {
        rate: resolved.len() as f64 / wall_s,
        attempted: resolved.len(),
        wall_s,
        lags_ms,
        submit_us,
        depths,
        tenants: resolved.iter().map(|(i, _)| specs[*i].tenant).collect(),
        ..Pass::default()
    };
    for (_, r) in &resolved {
        pass.latencies.push(r.latency_ms);
        pass.ok += usize::from(r.ok);
        pass.good += usize::from(r.ok && r.latency_ms <= LATENCY_LIMIT_MS);
        pass.wire_bytes += r.wire_bytes;
    }
    pass.resolved = resolved.into_iter().map(|(_, r)| r).collect();
    pass
}

/// The closed loop for `duration` in slices of `SLICE`. Between slices,
/// with every caller's reply in, the gateway is idle and the host gauge
/// is sampled; each slice's latencies and loop time are taken to the
/// reference host speed by the median of the samples after it.
fn gauged_loop(
    gw: &Gateway,
    inp: &Inputs,
    specs: &[Spec],
    duration: Duration,
    tracer: &Tracer,
    corrupt: bool,
    gauge: &mut HostGauge,
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    while pass.attempted < specs.len() {
        let left = duration.saturating_sub(start.elapsed());
        if left.is_zero() {
            break;
        }
        let slice = closed_loop(
            gw,
            inp,
            specs,
            pass.attempted,
            left.min(SLICE),
            tracer,
            corrupt,
        );
        let gauge_ms = gauge.sample_median(SETUP_GAUGE_SAMPLES);
        pass.append(slice, gauge::to_reference(gauge_ms));
    }
    pass.gauge_ms = gauge.median_since(0);
    pass
}

/// Index of the first decrypt request (the one `--corrupt-output`
/// damages), or `usize::MAX`.
fn first_decrypt(specs: &[Spec]) -> usize {
    specs
        .iter()
        .position(|s| s.kind == Kind::Decrypt)
        .unwrap_or(usize::MAX)
}

/// Runs `gateway-closed-n13`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = config(args.log_n.unwrap_or(13), args.seed);
    let mut rng = Rng::new(args.seed, 5);
    let mut out = Outcome::default();
    let mut setup_gauge = HostGauge::new();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut gw = None;
    for _ in 0..SETUP_REPS {
        drop(gw.take());
        setup_gauge.sample_median(SETUP_GAUGE_SAMPLES);
        let (g, s) = start(&cfg)?;
        setups.push(s);
        gw = Some(g);
    }
    let mut gw = gw.ok_or("no setup ran")?;
    let warmup = plan(&mut rng, WARMUP_S);
    let specs = plan(&mut rng, args.seconds);
    let all: Vec<Spec> = warmup.iter().chain(&specs).copied().collect();
    let inp = inputs(&cfg, &all, &mut rng)?;
    drop(all);
    out.note(format!("host: {}", report::fingerprint(&inp.ctx)));
    out.note(format!(
        "gateway: {WORKERS} workers, {PRIMES} primes, N=2^{}, {CLIENTS} closed-loop callers, goodput limit {LATENCY_LIMIT_MS} ms",
        cfg.log_n
    ));

    let budget = Duration::from_secs_f64(args.seconds);
    // One measuring pass: the untimed warm-up, then the closed loop for
    // `share` of the budget.
    let pass = |gw: &Gateway, tracer: &Tracer, corrupt: bool, share: f64| -> Result<Pass, String> {
        let quiet = Tracer::new(false);
        let warm = Duration::from_secs_f64(WARMUP_S);
        let warm = closed_loop(gw, &inp, &warmup, 0, warm, &quiet, false);
        if let Some(f) = warm.resolved.iter().find_map(|r| r.check_failure.as_ref()) {
            return Err(format!("warm-up: {f}"));
        }
        if !gw.drain(Duration::from_secs(60)) {
            return Err("gateway did not drain after the warm-up".into());
        }
        Ok(gauged_loop(
            gw,
            &inp,
            &specs,
            budget.mul_f64(share),
            tracer,
            corrupt,
            &mut HostGauge::new(),
        ))
    };
    let mut untraced = Vec::new();
    if args.trace {
        // Untraced half first, for the overhead ratio; then a fresh
        // gateway, so its latency reservoir covers the traced half only.
        untraced = pass(&gw, &Tracer::new(false), false, 0.5)?.latencies;
        drop(gw);
        gw = start(&cfg)?.0;
    }
    let tracer = Tracer::new(args.trace);
    let before = gw.metrics();
    let share = if args.trace { 0.5 } else { 1.0 };
    let done = pass(&gw, &tracer, args.corrupt, share)?;
    if !gw.drain(Duration::from_secs(60)) {
        out.check_failed("gateway did not drain after the run".into());
    }
    let after = gw.metrics();
    if after.in_flight() != 0 {
        out.check_failed(format!(
            "{} requests still in flight after the drain",
            after.in_flight()
        ));
    }

    let mut precision = Vec::new();
    for r in &done.resolved {
        if let Some(f) = &r.check_failure {
            out.check_failed(f.clone());
        }
        precision.extend(r.precision);
        if let Some((tenant, payload, blob, compressed)) = &r.sample {
            match inp.check_sample(*tenant, *payload, blob, *compressed) {
                Ok(bits) if bits >= PRECISION_FLOOR_BITS => precision.push(bits),
                Ok(bits) => out.check_failed(format!(
                    "encrypt for tenant {tenant}: precision {bits:.2} bits below the floor"
                )),
                Err(e) => out.check_failed(format!("encrypt for tenant {tenant}: {e}")),
            }
        }
    }
    out.attempted = done.attempted as u64;
    out.failed = (done.attempted - done.ok) as u64;
    out.note(format!(
        "closed loop: {} sent, {} ok, p50 {:.1} ms, p90 {:.1} ms, goodput {:.2}/s, depth p90 {:.0}",
        done.attempted,
        done.ok,
        done.p(0.5),
        done.p(0.9),
        done.goodput(),
        stats::percentile(&done.depths, 0.9),
    ));
    if precision.is_empty() {
        out.check_failed("no output was checked".into());
    }
    out.set(
        "setup_s",
        stats::median(&setups) * gauge::to_reference(setup_gauge.median_since(0)),
    );
    out.set("latency_ms_p50", stats::block_percentile(&done.scaled, 0.5));
    out.set("latency_ms_p90", stats::block_percentile(&done.scaled, 0.9));
    out.set("throughput_ops_per_s", done.scaled_goodput());
    out.note(report::wall_clock(&done.latencies, done.gauge_ms));
    out.set(
        "success_ratio",
        done.ok as f64 / done.attempted.max(1) as f64,
    );
    out.set(
        "precision_bits",
        precision.iter().copied().fold(f64::INFINITY, f64::min),
    );
    out.set(
        "wire_kib_per_op",
        done.wire_bytes as f64 / 1024.0 / done.attempted.max(1) as f64,
    );
    out.set("peak_rss_mib", report::peak_rss_mib());
    out.note(format!(
        "workload {} seed {} trace {}: {} requests, {} outputs precision-checked",
        args.workload,
        args.seed,
        u8::from(args.trace),
        done.attempted,
        precision.len()
    ));

    if args.trace {
        layer_metrics(
            &mut out, &gw, &inp, &done, &untraced, &before, &after, &tracer, args,
        )?;
        out.set("bench.host_gauge_ms", done.gauge_ms);
    }
    drop(gw);
    Ok(out)
}

/// The traced run's per-layer rows: gateway counters over the traced pass,
/// then the client-side layers profiled at the gateway's shapes.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut Outcome,
    gw: &Gateway,
    inp: &Inputs,
    done: &Pass,
    untraced: &[f64],
    before: &abc_gateway::MetricsSnapshot,
    after: &abc_gateway::MetricsSnapshot,
    tracer: &Tracer,
    args: &Args,
) -> Result<(), String> {
    // Client-side layers at the gateway's shapes (full encrypt, 2-prime
    // decrypt), with the client workloads' replays.
    let mut rng = Rng::new(args.seed, 4);
    let sk_pk = inp.ctx.keygen(Seed::from_u128(rng.next_u128()));
    let widths = inp.ctx.wire_widths(DOWNLOAD_PRIMES);
    let full = inp.ctx.wire_widths(PRIMES);
    for op in 0..2 * PROBE_CALLS as u64 {
        let msg = rng.message(inp.slots);
        let seed = Seed::from_u128(rng.next_u128());
        let t0 = Instant::now();
        let pt = inp.ctx.encode(&msg).map_err(|e| format!("encode: {e}"))?;
        let t1 = Instant::now();
        let ct = inp.ctx.encrypt(&pt, &sk_pk.1, seed);
        let t2 = Instant::now();
        let blob =
            wire::serialize_ciphertext_packed(&ct, &full).map_err(|e| format!("serialize: {e}"))?;
        let t3 = Instant::now();
        let enc = tracer.leaf("ckks.encode", None, op, t0, t1);
        let encr = tracer.leaf("ckks.encrypt", None, op, t1, t2);
        tracer.leaf("ckks.serialize", None, op, t2, t3);
        client::replay_encode(&inp.ctx, tracer, enc, op, &msg)?;
        client::replay_encrypt(&inp.ctx, tracer, encr, op, seed, &pt, &ct)?;
        client::replay_uniform(&inp.ctx, tracer, op, seed);
        let down = wire::serialize_ciphertext_packed(&ct.truncated(DOWNLOAD_PRIMES), &widths)
            .map_err(|e| format!("serialize: {e}"))?;
        drop(blob);
        let t0 = Instant::now();
        let ct2 = wire::deserialize_ciphertext(&down).map_err(|e| format!("deserialize: {e}"))?;
        let t1 = Instant::now();
        let pt2 = inp
            .ctx
            .decrypt(&ct2, &sk_pk.0)
            .map_err(|e| format!("decrypt: {e}"))?;
        let t2 = Instant::now();
        let slots = inp.ctx.decode(&pt2).map_err(|e| format!("decode: {e}"))?;
        let t3 = Instant::now();
        tracer.leaf("ckks.deserialize", None, op, t0, t1);
        let dec = tracer.leaf("ckks.decrypt", None, op, t1, t2);
        let dcd = tracer.leaf("ckks.decode", None, op, t2, t3);
        client::replay_decrypt(&inp.ctx, tracer, dec, op, &ct2)?;
        client::replay_decode(&inp.ctx, tracer, dcd, op, &pt2)?;
        std::hint::black_box(slots);
    }
    client::layer_metrics(out, tracer, untraced, &done.latencies, &done.lags_ms);

    // Unloaded per-kind cost through the gateway itself (one request
    // at a time, warm session) for the computed offered load.
    let mut cost_ms: BTreeMap<Kind, f64> = BTreeMap::new();
    let probe_tenant = done.tenants.first().copied().unwrap_or(0);
    for kind in [Kind::Encrypt, Kind::Decrypt, Kind::Ingest, Kind::Batch] {
        let mut t = Vec::new();
        for i in 0..=PROBE_CALLS {
            let tenant = if kind == Kind::Decrypt {
                *inp.tenants.keys().min().ok_or("no decrypting tenant")?
            } else {
                probe_tenant
            };
            let spec = Spec {
                tenant,
                kind,
                payload: i as u64,
            };
            let t0 = Instant::now();
            gw.call(inp.request(&spec))
                .map_err(|e| format!("unloaded {kind:?}: {e}"))?;
            if i > 0 {
                t.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        cost_ms.insert(kind, stats::median(&t));
    }
    let keygen_ms = {
        let t0 = Instant::now();
        std::hint::black_box(inp.ctx.keygen(Seed::from_u128(7)));
        t0.elapsed().as_secs_f64() * 1e3
    };
    // Session misses of the traced pass's tenant sequence against a
    // 32-entry LRU.
    let mut lru: Vec<u64> = Vec::new();
    let mut misses = 0usize;
    for &t in &done.tenants {
        let hit = lru.iter().position(|&x| x == t);
        misses += usize::from(hit.is_none());
        if let Some(p) = hit {
            lru.remove(p);
        } else if lru.len() == SESSION_CAPACITY {
            lru.remove(0);
        }
        lru.push(t);
    }
    let miss_share = misses as f64 / done.tenants.len().max(1) as f64;
    let shares = [
        (Kind::Encrypt, MIX[0]),
        (Kind::Decrypt, MIX[1] - MIX[0]),
        (Kind::Ingest, MIX[2] - MIX[1]),
        (Kind::Batch, 1.0 - MIX[2]),
    ];
    let per_op_ms: f64 =
        shares.iter().map(|(k, s)| s * cost_ms[k]).sum::<f64>() + miss_share * keygen_ms;
    out.set("gateway.session_miss_share", miss_share);
    out.set(
        "gateway.offered_load",
        done.rate * per_op_ms / 1e3 / WORKERS as f64,
    );
    out.note(format!(
        "computed: unloaded ms per request {cost_ms:?}, keygen {keygen_ms:.1} ms, session miss share {miss_share:.3}"
    ));

    let submitted = (after.submitted - before.submitted).max(1) as f64;
    out.set("gateway.submit_us_p50", stats::median(&done.submit_us));
    out.set(
        "gateway.queue_depth_p90",
        stats::percentile(&done.depths, 0.9),
    );
    out.set(
        "gateway.shed_ratio",
        ((after.shed_overload + after.shed_batch) - (before.shed_overload + before.shed_batch))
            as f64
            / submitted,
    );
    out.set(
        "gateway.degraded_ratio",
        (after.degraded_compressed - before.degraded_compressed) as f64 / submitted,
    );
    out.set(
        "gateway.timeout_ratio",
        ((after.timeout_queued + after.timeout_compute + after.timeout_await)
            - (before.timeout_queued + before.timeout_compute + before.timeout_await))
            as f64
            / submitted,
    );
    out.set("gateway.internal_ms_p50", after.p50_us as f64 / 1e3);
    out.set("gateway.internal_ms_p95", after.p95_us as f64 / 1e3);
    client::write_trace(tracer, args, &inp.ctx)
}
