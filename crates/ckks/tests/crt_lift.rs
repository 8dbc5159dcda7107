//! Bit-identity of decode's exact CRT lift against the golden model.
//!
//! `RnsBasis::lift_centered` certifies a `u128` Garner candidate per
//! coefficient and falls back to the bigint combine otherwise;
//! `ScaleDivisor::apply_u128_ext` divides a `u128` magnitude by the
//! exact scale. Each is pinned here to the per-coefficient calls it
//! replaced (`combine_centered_big_with_product`, `apply_ext`), and
//! `CkksContext::decode` to a golden decode assembled from them.

use abc_ckks::params::{CkksParams, ScaleMode};
use abc_ckks::{CkksContext, EmbeddingEngine, EmbeddingPrecision, ExactScale, Plaintext};
use abc_float::{Complex, ExtF64, RealField};
use abc_math::{RnsBasis, UBig};
use abc_prng::Seed;
use abc_transform::SpecialFftEngine;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::OnceLock;

/// The basis of `CkksParams::bootstrappable(13)`: 24 primes, the first
/// 39 bits and the rest 36 bits.
fn bootstrappable_basis() -> &'static RnsBasis {
    static BASIS: OnceLock<RnsBasis> = OnceLock::new();
    BASIS.get_or_init(|| {
        let params = CkksParams::bootstrappable(13).expect("preset");
        CkksContext::new(params).expect("context").basis().clone()
    })
}

/// splitmix64: the per-case value stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_u128(&mut self) -> u128 {
        (u128::from(self.next()) << 64) | u128::from(self.next())
    }

    /// A uniformly random magnitude with exactly `bits` significant bits.
    fn magnitude(&mut self, bits: u32) -> u128 {
        let top = 1u128 << (bits - 1);
        top | (self.next_u128() & (top - 1))
    }
}

/// Products of every basis prefix that stays below 2^127; the last is
/// the lift's candidate window. Computed independently of the library.
fn window_prefix_products(basis: &RnsBasis) -> Vec<u128> {
    let mut products = Vec::new();
    let mut p = 1u128;
    for m in basis.moduli() {
        match p.checked_mul(u128::from(m.q())) {
            Some(next) if next < 1 << 127 => p = next,
            _ => break,
        }
        products.push(p);
    }
    products
}

/// The lift's output as `(negative, magnitude, via_u128_entry)`.
fn lift(basis: &RnsBasis, rows: &[Vec<u64>]) -> Vec<(bool, UBig, bool)> {
    basis.lift_centered(
        rows,
        |negative, mag| (negative, UBig::from(mag), true),
        |negative, mag| (negative, mag.clone(), false),
    )
}

/// Asserts every column of `rows` lifts exactly as the golden combine
/// does on the basis truncated to `rows.len()` primes, and takes the
/// `u128` entry exactly when the magnitude fits one.
fn assert_lift_is_golden(full: &RnsBasis, rows: &[Vec<u64>]) -> Result<(), TestCaseError> {
    let lvl = rows.len();
    let basis = full.truncated(lvl);
    let product = basis.product();
    let from_full = lift(full, rows);
    prop_assert_eq!(&from_full, &lift(&basis, rows), "prefix {}", lvl);
    let mut column = vec![0u64; lvl];
    for (j, (negative, mag, via_u128)) in from_full.into_iter().enumerate() {
        for (r, row) in column.iter_mut().zip(rows) {
            *r = row[j];
        }
        let golden = basis.combine_centered_big_with_product(&column, &product);
        prop_assert_eq!(
            &(negative, mag.clone()),
            &golden,
            "prefix {} column {}",
            lvl,
            j
        );
        prop_assert_eq!(via_u128, mag.bits() <= 128, "prefix {} column {}", lvl, j);
    }
    Ok(())
}

/// Residue rows (one per prime of `basis`) holding `values` as columns.
fn rows_of(basis: &RnsBasis, values: &[i128]) -> Vec<Vec<u64>> {
    basis
        .moduli()
        .iter()
        .map(|m| values.iter().map(|&x| m.from_i128(x)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn lift_matches_golden_combine_at_every_prefix(seed in any::<u64>()) {
        let full = bootstrappable_basis();
        prop_assert_eq!(full.len(), 24);
        let mut rng = Mix(seed);
        let mut values: Vec<i128> = vec![0, 1, -1];
        for bits in [63, 64, 105, 106, 107, 126, 127] {
            for _ in 0..2 {
                let v = rng.magnitude(bits) as i128;
                values.extend([v, -v]);
            }
        }
        // The ±P/2 edges of the full window and of every shorter prefix.
        let products = window_prefix_products(full);
        prop_assert_eq!(products.len(), 3);
        for p in products {
            let half = (p >> 1) as i128;
            for v in [half - 1, half, half + 1] {
                values.extend([v, -v]);
            }
        }
        let structured = rows_of(full, &values);
        for lvl in 1..=full.len() {
            let mut rows: Vec<Vec<u64>> = structured[..lvl].to_vec();
            for (i, (row, m)) in rows.iter_mut().zip(full.moduli()).enumerate() {
                // Uniform residues (all but certain to miss the window
                // past it, so they take the fallback) ...
                row.extend((0..8).map(|_| rng.next() % m.q()));
                // ... and one non-canonical residue word per column set.
                row.push(if i % 2 == 0 { m.q() + 5 } else { 5 });
            }
            assert_lift_is_golden(full, &rows)?;
        }
    }

    #[test]
    fn u128_divisor_entry_matches_apply_ext(seed in any::<u64>()) {
        let q0 = bootstrappable_basis().moduli()[0].q();
        let q1 = bootstrappable_basis().moduli()[1].q();
        let scales = [
            ExactScale::from_log2(36),
            ExactScale::from_log2(72),
            ExactScale::from_log2(72).div_prime(q0),
            ExactScale::from_log2(144).div_prime(q0).div_prime(q1),
            ExactScale::from_f64(1.5).expect("positive").mul(&ExactScale::from_log2(40)),
        ];
        let mut rng = Mix(seed);
        for scale in &scales {
            let divisor = scale.divisor();
            let mut mags = vec![0u128];
            for bits in 1..=128 {
                let top = 1u128 << (bits - 1);
                mags.extend([top, top | (top - 1), rng.magnitude(bits)]);
            }
            for mag in mags {
                for negative in [false, true] {
                    let got: ExtF64 = divisor.apply_u128_ext(negative, mag);
                    let want = divisor.apply_ext(negative, &UBig::from(mag));
                    prop_assert_eq!(got.hi().to_bits(), want.hi().to_bits(), "mag {}", mag);
                    prop_assert_eq!(got.lo().to_bits(), want.lo().to_bits(), "mag {}", mag);
                }
            }
        }
    }
}

/// Decode assembled from the per-coefficient golden calls: INTT, one
/// bigint combine per coefficient, `apply_ext`, the forward embedding.
fn golden_decode(ctx: &CkksContext, pt: &Plaintext) -> Vec<Complex> {
    fn on<F: RealField>(
        ctx: &CkksContext,
        engine: &SpecialFftEngine<F>,
        pt: &Plaintext,
    ) -> Vec<Complex> {
        let lvl = pt.num_primes();
        let mut res = pt.residues().to_vec();
        ctx.ntt_engine().inverse_all(&mut res);
        let basis = ctx.basis().truncated(lvl);
        let product = basis.product();
        let divisor = pt.exact_scale().divisor();
        let field = engine.plan().field();
        let mut column = vec![0u64; lvl];
        let coeffs: Vec<F::Real> = (0..ctx.params().n())
            .map(|j| {
                for (r, limb) in column.iter_mut().zip(&res) {
                    *r = limb[j];
                }
                let (negative, mag) = basis.combine_centered_big_with_product(&column, &product);
                field.from_ext(divisor.apply_ext(negative, &mag))
            })
            .collect();
        let mut vals = engine.plan().coeffs_to_slots(&coeffs);
        engine.forward(&mut vals);
        vals.into_iter().map(|v| v.to_f64_in(field)).collect()
    }
    match ctx.embedding() {
        EmbeddingEngine::F64(e) => on(ctx, e, pt),
        EmbeddingEngine::ExtF64(e) => on(ctx, e, pt),
        EmbeddingEngine::Fp55(e) => on(ctx, e, pt),
    }
}

fn assert_bit_identical(got: &[Complex], want: &[Complex], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (j, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.re.to_bits(), b.re.to_bits(), "{what}: slot {j} re");
        assert_eq!(a.im.to_bits(), b.im.to_bits(), "{what}: slot {j} im");
    }
}

#[test]
fn decode_is_bit_identical_to_golden_decode() {
    for precision in [
        EmbeddingPrecision::F64,
        EmbeddingPrecision::ExtF64,
        EmbeddingPrecision::Fp55,
    ] {
        // The bootstrappable shape (24 primes, double scale) at a small
        // ring so the golden model stays cheap.
        let params = CkksParams::builder()
            .log_n(10)
            .num_primes(24)
            .prime_bits(36)
            .scale_bits(36)
            .scale_mode(ScaleMode::DoublePair)
            .secret_hamming_weight(Some(64))
            .embedding_precision(precision)
            .build()
            .expect("params");
        let ctx = CkksContext::new(params).expect("context");
        let msg: Vec<Complex> = (0..ctx.params().slots())
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let (sk, pk) = ctx.keygen(Seed::from_u128(7));
        let (wrong_sk, _) = ctx.keygen(Seed::from_u128(8));
        let ct = ctx.encrypt(&ctx.encode(&msg).expect("encode"), &pk, Seed::from_u128(9));
        let cases = [
            ("full level", ctx.decrypt(&ct, &sk).expect("decrypt")),
            (
                "2 primes",
                ctx.decrypt(&ct.truncated(2), &sk).expect("decrypt"),
            ),
            ("wrong key", ctx.decrypt(&ct, &wrong_sk).expect("decrypt")),
        ];
        for (name, pt) in &cases {
            let what = format!("{precision:?} {name}");
            let golden = golden_decode(&ctx, pt);
            assert_bit_identical(&ctx.decode(pt).expect("decode"), &golden, &what);
            let batch = ctx.decode_batch(std::slice::from_ref(pt)).expect("batch");
            assert_bit_identical(&batch[0], &golden, &what);
        }
    }
}
