//! AVX-512 split re/im (SoA) butterfly kernel for the f64 special FFT.
//!
//! The generic [`crate::fft::SpecialFft`] kernel walks `Complex<f64>`
//! pairs one butterfly at a time. This module runs the same butterfly
//! network eight lanes wide: the plan's per-stage twiddles are laid out
//! as **split re/im planes** (structure-of-arrays, via
//! [`abc_float::soa`]), so a complex butterfly is plain lane-wise f64
//! arithmetic with no shuffling between real and imaginary parts.
//!
//! Layout of one transform:
//!
//! 1. **split** — copy the AoS input into pooled re/im scratch planes;
//!    the forward direction fuses the bit-reversal permutation into
//!    this copy (the inverse fuses it, plus the trailing `1/slots`
//!    scale, into the merge).
//! 2. **tail** — the three sub-vector stages (spans 1, 2, 4) run fused
//!    in registers per 8-element block using `vpermpd` lane pairing and
//!    masked blends, mirroring `ntt_ifma`'s lane-pairing technique.
//!    Special-FFT twiddles are shared across blocks, so each tail layer
//!    needs just one precomputed 8-lane twiddle pattern.
//! 3. **long stages** — spans ≥ 8 stream whole 8-lane vectors straight
//!    from the planes, with twiddle vectors loaded from the SoA tables.
//! 4. **merge** — copy the planes back into the AoS slice.
//!
//! **Bit-identity.** Every lane performs the scalar kernel's exact
//! operation sequence — the 4-multiply complex product (paper Eq. 12)
//! followed by one sub/add, with **no FMA contraction** — so the vector
//! transform is bit-identical to the scalar planned kernel on every
//! input: a 0-ulp bound, asserted by the property suite. The speedup
//! comes from 8-wide data parallelism, not from reassociating float
//! arithmetic. Every transform runs on the calling thread.

use crate::bitrev::bit_reverse;
use crate::pool::ScratchPool;
use abc_float::{soa, Complex};

/// Minimum slot count for the SIMD kernel: at `slots ≥ 8` the three
/// in-register tail layers (spans 1/2/4) all exist and every longer
/// span is a multiple of the 8-lane vector width.
pub const MIN_SIMD_SLOTS: usize = 8;

/// Whether this build + CPU can run the AVX-512 f64 butterfly kernel
/// (always `false` off x86-64).
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Cap on pooled split planes (two per in-flight transform), so this
/// bounds concurrent transforms served without allocation, not
/// correctness.
const MAX_POOLED_PLANES: usize = 16;

/// Byte watermark of the plane pool: eight re/im pairs at `2^15` slots.
const MAX_POOLED_PLANE_BYTES: usize = 1 << 22;

/// Twiddle tables of one direction, laid out for the SIMD kernel.
#[derive(Debug)]
struct DirTables {
    /// Vector-span stages (span ≥ 8) in execution order:
    /// `(span, tw_re, tw_im)`, one twiddle per butterfly position
    /// (shared across blocks, as in the scalar plan).
    long: Vec<(usize, Vec<f64>, Vec<f64>)>,
    /// `log2(span)` of the three in-register tail layers in execution
    /// order (0/1/2 forward, 2/1/0 inverse) — indexes the lane-pairing
    /// permutation table.
    tail_span_log: [usize; 3],
    /// 8-lane twiddle patterns of the tail layers: lane `l` holds the
    /// twiddle of butterfly position `l % span`. Twiddles are shared
    /// across blocks, so one pattern serves the whole stage.
    tail_re: [[f64; 8]; 3],
    tail_im: [[f64; 8]; 3],
}

impl DirTables {
    /// Splits one direction's per-stage twiddles (execution order; the
    /// stage span equals the table length) into SoA long-stage planes
    /// and the three tail patterns.
    fn build(stages: &[Vec<Complex<f64>>]) -> Self {
        let mut long = Vec::new();
        let mut tail_idx = 0usize;
        let mut tail_span_log = [0usize; 3];
        let mut tail_re = [[0.0; 8]; 3];
        let mut tail_im = [[0.0; 8]; 3];
        for tw in stages {
            let span = tw.len();
            if span >= 8 {
                long.push((
                    span,
                    tw.iter().map(|w| w.re).collect(),
                    tw.iter().map(|w| w.im).collect(),
                ));
            } else {
                assert!(tail_idx < 3, "more than three sub-vector stages");
                for l in 0..8 {
                    tail_re[tail_idx][l] = tw[l % span].re;
                    tail_im[tail_idx][l] = tw[l % span].im;
                }
                tail_span_log[tail_idx] = span.trailing_zeros() as usize;
                tail_idx += 1;
            }
        }
        assert_eq!(tail_idx, 3, "expected exactly three sub-vector stages");
        Self {
            long,
            tail_span_log,
            tail_re,
            tail_im,
        }
    }
}

/// The SIMD layout of one `(slots, f64)` plan: SoA twiddle tables for
/// both directions plus a pool of split-plane scratch.
#[derive(Debug)]
pub(crate) struct SimdPlan {
    slots: usize,
    fwd: DirTables,
    inv: DirTables,
    /// The inverse transform's trailing `1/slots` scale, fused into the
    /// merge pass (same one multiply per component as the scalar loop).
    inv_scale: f64,
    /// Precomputed bit-reversal permutation (`brv[i] = bit_reverse(i)`),
    /// so the fused split/merge passes stream an index table instead of
    /// running the multi-op software `reverse_bits` per element.
    brv: Vec<u32>,
    pool: ScratchPool<f64>,
}

impl SimdPlan {
    /// Lays the generic plan's twiddle stages out for the SIMD kernel.
    ///
    /// # Panics
    ///
    /// Panics if `slots < MIN_SIMD_SLOTS`.
    pub(crate) fn build(
        slots: usize,
        fwd_stages: &[Vec<Complex<f64>>],
        inv_stages: &[Vec<Complex<f64>>],
    ) -> Self {
        assert!(slots >= MIN_SIMD_SLOTS, "SIMD plan needs ≥ 8 slots");
        let bits = slots.trailing_zeros();
        Self {
            slots,
            fwd: DirTables::build(fwd_stages),
            inv: DirTables::build(inv_stages),
            inv_scale: 1.0 / slots as f64,
            brv: (0..slots).map(|i| bit_reverse(i, bits) as u32).collect(),
            pool: ScratchPool::new(MAX_POOLED_PLANES, MAX_POOLED_PLANE_BYTES),
        }
    }
}

/// Forward transform. Bit-identical to the scalar planned kernel.
///
/// # Panics
///
/// Panics if the CPU lacks AVX-512F or `vals.len() != slots`.
pub(crate) fn forward(plan: &SimdPlan, vals: &mut [Complex<f64>]) {
    run(plan, vals, false);
}

/// Inverse transform (including the `1/slots` scale). Bit-identical to
/// the scalar planned kernel.
///
/// # Panics
///
/// Panics if the CPU lacks AVX-512F or `vals.len() != slots`.
pub(crate) fn inverse(plan: &SimdPlan, vals: &mut [Complex<f64>]) {
    run(plan, vals, true);
}

/// split → butterfly passes → merge, on pooled planes.
fn run(plan: &SimdPlan, vals: &mut [Complex<f64>], inverse: bool) {
    // A `target_feature` call on an unsupported CPU would be UB, so the
    // safe entry hard-asserts (same contract as `ntt_ifma`).
    assert!(available(), "AVX-512F not available on this CPU");
    assert_eq!(vals.len(), plan.slots, "length must equal slot count");
    let mut re = plan.pool.take(plan.slots);
    let mut im = plan.pool.take(plan.slots);
    if inverse {
        soa::split_complex(vals, &mut re, &mut im);
    } else {
        // The scalar kernel's in-place bit-reversal, fused into the copy.
        for ((r, i), &j) in re.iter_mut().zip(im.iter_mut()).zip(&plan.brv) {
            let z = vals[j as usize];
            *r = z.re;
            *i = z.im;
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the `available()` assert above proves AVX-512F, the
        // only hardware precondition of `butterflies`; both planes hold
        // `plan.slots` elements.
        unsafe { butterflies(plan, &mut re, &mut im, inverse) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        unreachable!("AVX-512 FFT kernel requires x86_64");
    }
    if inverse {
        // Bit-reversal and the `1/slots` scale fused into the merge (one
        // multiply per component, exactly as the scalar trailing loop).
        let scale = plan.inv_scale;
        for (dst, &j) in vals.iter_mut().zip(&plan.brv) {
            let j = j as usize;
            *dst = Complex::new(re[j] * scale, im[j] * scale);
        }
    } else {
        soa::merge_complex(&re, &im, vals);
    }
    plan.pool.put(re);
    plan.pool.put(im);
}

/// Every butterfly stage of one direction over the split planes: the
/// in-register tail (spans 1/2/4) and the vector-span stages, in
/// execution order.
///
/// # Safety
///
/// The CPU must support AVX-512F (the caller asserts `available()`
/// before dispatching here), and `re`/`im` must each hold `plan.slots`
/// elements.
#[cfg(target_arch = "x86_64")]
unsafe fn butterflies(plan: &SimdPlan, re: &mut [f64], im: &mut [f64], inverse: bool) {
    let slots = plan.slots;
    let dir = if inverse { &plan.inv } else { &plan.fwd };
    let (re, im) = (re.as_mut_ptr(), im.as_mut_ptr());
    // SAFETY: the planes hold `slots` elements, which is exactly the
    // `8·(slots/8)` tail and `16·(slots/16)` long-stage extents; the
    // caller guarantees AVX-512F.
    unsafe {
        if inverse {
            for (span, twr, twi) in &dir.long {
                kern::long_stage(re, im, *span, twr, twi, slots / 16, true);
            }
            kern::tail_pass(re, im, dir, slots / 8, true);
        } else {
            kern::tail_pass(re, im, dir, slots / 8, false);
            for (span, twr, twi) in &dir.long {
                kern::long_stage(re, im, *span, twr, twi, slots / 16, false);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod kern {
    use super::DirTables;
    use core::arch::x86_64::*;

    /// Lane pairing of one in-register layer: `idx_lo`/`idx_hi` gather
    /// each lane's butterfly operands with `vpermpd`, `hi_mask` selects
    /// which lanes receive the "hi" result — the same tables as
    /// `ntt_ifma::layer_perms`, applied to f64 lanes.
    struct LayerPerm {
        idx_lo: __m512i,
        idx_hi: __m512i,
        hi_mask: __mmask8,
    }

    /// Permutation tables indexed by `log2(span)` for spans 1, 2, 4.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX-512F (pure in-register table builds, no
    /// memory access — the feature is the only precondition).
    #[target_feature(enable = "avx512f")]
    unsafe fn layer_perms() -> [LayerPerm; 3] {
        // _mm512_set_epi64 lists lanes high-to-low.
        [
            LayerPerm {
                // span 1: adjacent pairs (u, v).
                idx_lo: _mm512_set_epi64(6, 6, 4, 4, 2, 2, 0, 0),
                idx_hi: _mm512_set_epi64(7, 7, 5, 5, 3, 3, 1, 1),
                hi_mask: 0b1010_1010,
            },
            LayerPerm {
                // span 2: blocks of 4 (u0 u1 v0 v1).
                idx_lo: _mm512_set_epi64(5, 4, 5, 4, 1, 0, 1, 0),
                idx_hi: _mm512_set_epi64(7, 6, 7, 6, 3, 2, 3, 2),
                hi_mask: 0b1100_1100,
            },
            LayerPerm {
                // span 4: one block of 8 (u0..u3 v0..v3).
                idx_lo: _mm512_set_epi64(3, 2, 1, 0, 3, 2, 1, 0),
                idx_hi: _mm512_set_epi64(7, 6, 5, 4, 7, 6, 5, 4),
                hi_mask: 0b1111_0000,
            },
        ]
    }

    /// `(ar + i·ai) · (wr + i·wi)` with the scalar kernel's exact
    /// operation order — four independent multiplies, then one sub and
    /// one add (paper Eq. 12), **no FMA** — so every lane is
    /// bit-identical to `Complex::mul_in`.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX-512F (register-only arithmetic, no memory
    /// access — the feature is the only precondition).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn cmul(ar: __m512d, ai: __m512d, wr: __m512d, wi: __m512d) -> (__m512d, __m512d) {
        let ac = _mm512_mul_pd(ar, wr);
        let bd = _mm512_mul_pd(ai, wi);
        let ad = _mm512_mul_pd(ar, wi);
        let bc = _mm512_mul_pd(ai, wr);
        (_mm512_sub_pd(ac, bd), _mm512_add_pd(ad, bc))
    }

    /// Runs the three sub-vector layers fully in registers for the
    /// first `blocks` 8-element blocks of both planes.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX-512F and plane length ≥ `8·blocks`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn tail_pass(
        re: *mut f64,
        im: *mut f64,
        dir: &DirTables,
        blocks: usize,
        inverse: bool,
    ) {
        // SAFETY: caller guarantees AVX-512F (the only precondition of
        // `layer_perms`).
        let perms = unsafe { layer_perms() };
        let mut w = [(_mm512_setzero_pd(), _mm512_setzero_pd()); 3];
        for (l, wl) in w.iter_mut().enumerate() {
            // SAFETY: each tail twiddle table holds exactly 8 lanes.
            *wl = unsafe {
                (
                    _mm512_loadu_pd(dir.tail_re[l].as_ptr()),
                    _mm512_loadu_pd(dir.tail_im[l].as_ptr()),
                )
            };
        }
        for blk in 0..blocks {
            // SAFETY: `blk < blocks` with caller-promised plane length
            // ≥ `8·blocks` keeps lanes `blk*8..blk*8+8` in bounds for
            // every load/store; `cmul` needs only the feature the caller
            // guarantees.
            unsafe {
                let pr = re.add(blk * 8);
                let pi = im.add(blk * 8);
                let mut vr = _mm512_loadu_pd(pr);
                let mut vi = _mm512_loadu_pd(pi);
                for (l, &(wr, wi)) in w.iter().enumerate() {
                    let p = &perms[dir.tail_span_log[l]];
                    let lo_r = _mm512_permutexvar_pd(p.idx_lo, vr);
                    let lo_i = _mm512_permutexvar_pd(p.idx_lo, vi);
                    let hi_r = _mm512_permutexvar_pd(p.idx_hi, vr);
                    let hi_i = _mm512_permutexvar_pd(p.idx_hi, vi);
                    if inverse {
                        // u = lo + hi; v = (lo − hi)·w (Gentleman–Sande).
                        let sr = _mm512_add_pd(lo_r, hi_r);
                        let si = _mm512_add_pd(lo_i, hi_i);
                        let dr = _mm512_sub_pd(lo_r, hi_r);
                        let di = _mm512_sub_pd(lo_i, hi_i);
                        let (tr, ti) = cmul(dr, di, wr, wi);
                        vr = _mm512_mask_blend_pd(p.hi_mask, sr, tr);
                        vi = _mm512_mask_blend_pd(p.hi_mask, si, ti);
                    } else {
                        // v = hi·w; u ± v (Cooley–Tukey).
                        let (tr, ti) = cmul(hi_r, hi_i, wr, wi);
                        let ar = _mm512_add_pd(lo_r, tr);
                        let ai = _mm512_add_pd(lo_i, ti);
                        let sr = _mm512_sub_pd(lo_r, tr);
                        let si = _mm512_sub_pd(lo_i, ti);
                        vr = _mm512_mask_blend_pd(p.hi_mask, ar, sr);
                        vi = _mm512_mask_blend_pd(p.hi_mask, ai, si);
                    }
                }
                _mm512_storeu_pd(pr, vr);
                _mm512_storeu_pd(pi, vi);
            }
        }
    }

    /// One vector-span stage over butterfly groups `0..groups`. Each
    /// group is eight consecutive butterflies of the stage's global
    /// butterfly index space (`b = block·span + j`); since `span % 8 ==
    /// 0` and groups are 8-aligned, a group never straddles a block
    /// boundary.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX-512F, plane length ≥ `16·groups`, and
    /// twiddle planes of length `span`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn long_stage(
        re: *mut f64,
        im: *mut f64,
        span: usize,
        twr: &[f64],
        twi: &[f64],
        groups: usize,
        inverse: bool,
    ) {
        // span is a power of two ≥ 8, so per-group block/offset math
        // reduces to shifts over the groups-per-block count.
        let gpb_log = (span / 8).trailing_zeros();
        for g in 0..groups {
            let blk = g >> gpb_log;
            let j = (g - (blk << gpb_log)) * 8;
            let base = blk * 2 * span + j;
            // SAFETY: `g < groups` with caller-promised plane length
            // ≥ `16·groups` puts both half-vectors (`base..base+8` and
            // `base+span..base+span+8`) in bounds; `j + 8 ≤ span` keeps
            // the twiddle window inside the `span`-element planes;
            // `cmul` needs only the feature the caller guarantees.
            unsafe {
                let plo_r = re.add(base);
                let plo_i = im.add(base);
                let phi_r = re.add(base + span);
                let phi_i = im.add(base + span);
                let lo_r = _mm512_loadu_pd(plo_r);
                let lo_i = _mm512_loadu_pd(plo_i);
                let hi_r = _mm512_loadu_pd(phi_r);
                let hi_i = _mm512_loadu_pd(phi_i);
                let wr = _mm512_loadu_pd(twr.as_ptr().add(j));
                let wi = _mm512_loadu_pd(twi.as_ptr().add(j));
                if inverse {
                    let sr = _mm512_add_pd(lo_r, hi_r);
                    let si = _mm512_add_pd(lo_i, hi_i);
                    let dr = _mm512_sub_pd(lo_r, hi_r);
                    let di = _mm512_sub_pd(lo_i, hi_i);
                    let (tr, ti) = cmul(dr, di, wr, wi);
                    _mm512_storeu_pd(plo_r, sr);
                    _mm512_storeu_pd(plo_i, si);
                    _mm512_storeu_pd(phi_r, tr);
                    _mm512_storeu_pd(phi_i, ti);
                } else {
                    let (tr, ti) = cmul(hi_r, hi_i, wr, wi);
                    _mm512_storeu_pd(plo_r, _mm512_add_pd(lo_r, tr));
                    _mm512_storeu_pd(plo_i, _mm512_add_pd(lo_i, ti));
                    _mm512_storeu_pd(phi_r, _mm512_sub_pd(lo_r, tr));
                    _mm512_storeu_pd(phi_i, _mm512_sub_pd(lo_i, ti));
                }
            }
        }
    }
}
