//! Residue number system bases and Garner CRT recombination.
//!
//! The client-side CKKS pipeline expands each encoded coefficient into
//! residues modulo every prime of the current level ("Expand RNS" in the
//! paper's Fig. 2a) and, on decryption, recombines residues back into a
//! centered integer ("Combine CRT").
//!
//! Two recombinations live here:
//!
//! * [`RnsBasis::combine_centered_big_with_product`] — the golden
//!   model: one heap-allocating [`UBig`] Garner combine per residue
//!   vector, exact for every input.
//! * [`RnsBasis::lift_centered`] — decode's exact lift of a whole
//!   residue matrix. Garner runs in `u128` over the *window*: the
//!   longest basis prefix whose product `P_k` is below 2^127 (3 primes
//!   of the bootstrappable preset). The result, centered against `P_k`,
//!   is a candidate `y`. Every prime past the window then checks
//!   `y mod q_i == r_i`. Because `|y| < P_k/2 ≤ Q/2`, CRT uniqueness
//!   makes an accepted `y` *the* centered value, bit-identical to the
//!   golden model. Coefficients that fail a check (magnitudes beyond
//!   the window, or wrong-key garbage) take the golden combine. All
//!   modular products are Shoup constant multiplications, so the pass
//!   has no hardware division and allocates nothing per coefficient.

use crate::bigint::UBig;
use crate::modulus::Modulus;
use crate::MathError;

/// An ordered RNS basis `q_0, …, q_{L}` of pairwise-coprime odd primes.
///
/// # Example
///
/// ```
/// use abc_math::{RnsBasis, primes::generate_ntt_primes};
///
/// # fn main() -> Result<(), abc_math::MathError> {
/// let basis = RnsBasis::new(generate_ntt_primes(36, 3, 1 << 14)?)?;
/// let residues = basis.decompose_i128(-42);
/// assert_eq!(basis.combine_centered(&residues), -42.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RnsBasis {
    moduli: Vec<Modulus>,
    /// Garner constants: `inv[j][i] = q_i^{-1} mod q_j` for `i < j`.
    garner_inv: Vec<Vec<u64>>,
    /// Window prefix products `P_0 = 1, P_1 = q_0, …, P_k` (all
    /// `< 2^127`); the window holds `k = window.len() - 1` primes.
    window: Vec<u128>,
    /// Garner steps of the window: `P_i^{-1} mod q_i` for `i < k`.
    window_inv: Vec<ShoupConst>,
    /// Per-prime word reducers of [`Self::lift_centered`].
    folds: Vec<Fold>,
}

/// Lift columns per block: the candidates of one block stay in L1
/// while every check prime streams its row slice past them.
const LIFT_BLOCK: usize = 256;

/// A constant `w < q` with its Shoup quotient `floor(w · 2^64 / q)`.
#[derive(Debug, Clone, Copy)]
struct ShoupConst {
    w: u64,
    w_shoup: u64,
}

impl ShoupConst {
    fn new(w: u64, q: u64) -> Self {
        Self {
            w,
            w_shoup: crate::shoup::shoup_precompute(w, q),
        }
    }

    /// `a · w mod q` in `[0, q)` for any `a`. The Shoup residue
    /// `a·w − floor(a·w_shoup / 2^64)·q` lies in `[0, 2q)`, which fits a
    /// `u64` for every valid modulus (`q < 2^63`); one conditional
    /// subtraction finishes it.
    #[inline(always)]
    fn mul(self, a: u64, q: u64) -> u64 {
        let hi = ((u128::from(a) * u128::from(self.w_shoup)) >> 64) as u64;
        let r = a.wrapping_mul(self.w).wrapping_sub(hi.wrapping_mul(q));
        if r >= q {
            r - q
        } else {
            r
        }
    }
}

/// Division-free reduction of words modulo one prime `q`.
#[derive(Debug, Clone, Copy)]
struct Fold {
    q: u64,
    /// `1`, to reduce a `u64`.
    one: ShoupConst,
    /// `2^64 mod q`, to fold the high word of a `u128`.
    two64: ShoupConst,
}

impl Fold {
    fn new(q: u64) -> Self {
        Self {
            q,
            one: ShoupConst::new(1, q),
            two64: ShoupConst::new(((1u128 << 64) % u128::from(q)) as u64, q),
        }
    }

    /// `w mod q` for any `u64`.
    #[inline(always)]
    fn reduce(self, w: u64) -> u64 {
        self.one.mul(w, self.q)
    }

    /// `x mod q` for any `u128`: `hi·(2^64 mod q) + lo`, each reduced.
    #[inline(always)]
    fn reduce_u128(self, x: u128) -> u64 {
        let s = self.two64.mul((x >> 64) as u64, self.q) + self.reduce(x as u64);
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }
}

impl RnsBasis {
    /// Builds a basis from raw prime values.
    ///
    /// # Errors
    ///
    /// * [`MathError::Empty`] for an empty list.
    /// * [`MathError::InvalidModulus`] if any modulus is invalid.
    /// * [`MathError::BasisNotCoprime`] if two moduli share a factor
    ///   (equal moduli included).
    pub fn new(primes: Vec<u64>) -> Result<Self, MathError> {
        if primes.is_empty() {
            return Err(MathError::Empty);
        }
        let moduli: Vec<Modulus> = primes
            .iter()
            .map(|&q| Modulus::new(q))
            .collect::<Result<_, _>>()?;
        for i in 0..primes.len() {
            for j in (i + 1)..primes.len() {
                if gcd(primes[i], primes[j]) != 1 {
                    return Err(MathError::BasisNotCoprime {
                        a: primes[i],
                        b: primes[j],
                    });
                }
            }
        }
        let mut garner_inv = Vec::with_capacity(moduli.len());
        for (j, mj) in moduli.iter().enumerate() {
            let mut row = Vec::with_capacity(j);
            for mi in &moduli[..j] {
                let qi_mod_qj = mj.reduce(mi.q());
                row.push(mj.inv(qi_mod_qj).expect("coprime moduli are invertible"));
            }
            garner_inv.push(row);
        }
        let mut window = vec![1u128];
        for m in &moduli {
            match window.last().and_then(|p| p.checked_mul(u128::from(m.q()))) {
                Some(p) if p < 1 << 127 => window.push(p),
                _ => break,
            }
        }
        let window_inv = moduli
            .iter()
            .zip(&window[..window.len() - 1])
            .map(|(m, &p)| {
                let p_mod_q = (p % u128::from(m.q())) as u64;
                let inv = m.inv(p_mod_q).expect("coprime moduli are invertible");
                ShoupConst::new(inv, m.q())
            })
            .collect();
        let folds = moduli.iter().map(|m| Fold::new(m.q())).collect();
        Ok(Self {
            moduli,
            garner_inv,
            window,
            window_inv,
            folds,
        })
    }

    /// The moduli of the basis, in order.
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// Number of primes in the basis (`L + 1` for level `L`).
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Whether the basis is empty (never true for a constructed basis).
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// A sub-basis containing only the first `count` primes.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds the basis size.
    pub fn truncated(&self, count: usize) -> Self {
        assert!(count >= 1 && count <= self.moduli.len());
        let k = (self.window.len() - 1).min(count);
        Self {
            moduli: self.moduli[..count].to_vec(),
            garner_inv: self.garner_inv[..count].to_vec(),
            window: self.window[..=k].to_vec(),
            window_inv: self.window_inv[..k].to_vec(),
            folds: self.folds[..count].to_vec(),
        }
    }

    /// Product of all moduli as a big integer.
    pub fn product(&self) -> UBig {
        let mut p = UBig::one();
        for m in &self.moduli {
            p = p.mul_u64(m.q());
        }
        p
    }

    /// Total bits of the modulus product (the "modulus budget").
    pub fn product_bits(&self) -> u32 {
        self.product().bits()
    }

    /// Decomposes a signed 128-bit integer into residues (paper "Expand
    /// RNS"): `out[i] = x mod q_i`, non-negative.
    pub fn decompose_i128(&self, x: i128) -> Vec<u64> {
        self.moduli.iter().map(|m| m.from_i128(x)).collect()
    }

    /// Garner (mixed-radix) recombination of one residue vector into the
    /// unique `x ∈ [0, Q)` with `x ≡ r_i (mod q_i)`.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the basis size.
    #[allow(clippy::needless_range_loop)] // Garner recurrence is positional (i < j)
    pub fn combine(&self, residues: &[u64]) -> UBig {
        assert_eq!(residues.len(), self.moduli.len());
        // Mixed-radix digits: x = v0 + v1·q0 + v2·q0·q1 + …
        let mut digits = Vec::with_capacity(residues.len());
        for j in 0..residues.len() {
            let mj = &self.moduli[j];
            let mut v = mj.reduce(residues[j]);
            // v = (r_j - (v0 + v1 q0 + ...)) * prod_inv mod q_j, evaluated
            // incrementally (Garner).
            for i in 0..j {
                let di = mj.reduce(digits[i]);
                v = mj.sub(v, di);
                v = mj.mul(v, self.garner_inv[j][i]);
                // Fold q_i into the running product implicitly: Garner's
                // recurrence v := (v - d_i) * q_i^{-1} applied in sequence.
            }
            digits.push(v);
        }
        // Evaluate the mixed-radix expansion with big integers.
        let mut acc = UBig::zero();
        let mut radix = UBig::one();
        for (j, &d) in digits.iter().enumerate() {
            acc = acc.add(&radix.mul_u64(d));
            radix = radix.mul_u64(self.moduli[j].q());
        }
        acc
    }

    /// Recombines residues and centers the result into `(-Q/2, Q/2]`,
    /// returned as `f64` (decode needs only the float value).
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the basis size.
    pub fn combine_centered(&self, residues: &[u64]) -> f64 {
        let q = self.product();
        let (negative, mag) = self.combine_centered_big_with_product(residues, &q);
        let v = mag.to_f64();
        if negative {
            -v
        } else {
            v
        }
    }

    /// Recombines residues and centers into `(-Q/2, Q/2]`, returned
    /// **exactly** as a sign and magnitude — the lossless form the
    /// double-scale decode path divides by the exact scale (the plain
    /// [`Self::combine_centered`] rounds to `f64` and cannot feed an
    /// exact-rational division).
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the basis size.
    pub fn combine_centered_big(&self, residues: &[u64]) -> (bool, UBig) {
        let q = self.product();
        self.combine_centered_big_with_product(residues, &q)
    }

    /// [`Self::combine_centered_big`] with the basis product precomputed
    /// by the caller (decode loops over `N` coefficients; the product
    /// only depends on the basis).
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the basis size.
    pub fn combine_centered_big_with_product(
        &self,
        residues: &[u64],
        product: &UBig,
    ) -> (bool, UBig) {
        let x = self.combine(residues);
        // x > Q/2  ⇔  2x > Q (Q is odd, so no tie).
        if x.mul_u64(2) > *product {
            (true, product.sub(&x))
        } else {
            (false, x)
        }
    }

    /// Exactly lifts every column of a residue matrix to its centered
    /// value in `(-Q/2, Q/2]`, `Q` being the product of the first
    /// `rows.len()` primes. `rows[i][j]` is coefficient `j`'s residue
    /// modulo `q_i`. Column `j` becomes `small(negative, magnitude)`
    /// when the magnitude fits a `u128`, else `big(negative, &magnitude)`.
    ///
    /// The sign and magnitude are bit-identical to
    /// [`Self::combine_centered_big_with_product`] on the same column
    /// and the truncated basis. See the module docs for the
    /// candidate-and-check scheme; only columns the `u128` window cannot
    /// certify pay for the golden combine.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, holds more rows than the basis has
    /// primes, or its rows differ in length.
    pub fn lift_centered<T>(
        &self,
        rows: &[Vec<u64>],
        mut small: impl FnMut(bool, u128) -> T,
        mut big: impl FnMut(bool, &UBig) -> T,
    ) -> Vec<T> {
        let lvl = rows.len();
        assert!(
            lvl >= 1 && lvl <= self.moduli.len(),
            "{lvl} residue rows for a {}-prime basis",
            self.moduli.len()
        );
        let n = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == n), "ragged residue matrix");
        let k = (self.window.len() - 1).min(lvl);
        let p_k = self.window[k];
        let (window_rows, check_rows) = rows.split_at(k);
        let mut negative = [false; LIFT_BLOCK];
        let mut magnitude = [0u128; LIFT_BLOCK];
        let mut certified = [true; LIFT_BLOCK];
        // Golden-model state, built on the first column that needs it.
        let mut fallback: Option<(RnsBasis, UBig, Vec<u64>)> = None;
        let mut out = Vec::with_capacity(n);
        for start in (0..n).step_by(LIFT_BLOCK) {
            let cols = start..n.min(start + LIFT_BLOCK);
            let len = cols.len();
            // Garner over the window: digit i lifts x < P_i to x < P_{i+1}.
            for (j, (neg, mag)) in negative
                .iter_mut()
                .zip(&mut magnitude)
                .take(len)
                .enumerate()
            {
                let mut x = u128::from(self.folds[0].reduce(window_rows[0][start + j]));
                for (i, row) in window_rows.iter().enumerate().skip(1) {
                    let fold = self.folds[i];
                    let v = self.moduli[i].sub(fold.reduce(row[start + j]), fold.reduce_u128(x));
                    x += u128::from(self.window_inv[i].mul(v, fold.q)) * self.window[i];
                }
                // Center against P_k (odd, so no tie at P_k/2).
                *neg = x > p_k >> 1;
                *mag = if *neg { p_k - x } else { x };
            }
            // Every prime past the window must agree with the candidate.
            certified[..len].fill(true);
            for (fold, row) in self.folds[k..lvl].iter().zip(check_rows) {
                let lanes = certified.iter_mut().zip(&negative).zip(&magnitude);
                for (((ok, &neg), &mag), &r) in lanes.zip(&row[cols.clone()]) {
                    let s = fold.reduce_u128(mag);
                    *ok &= r == if neg && s != 0 { fold.q - s } else { s };
                }
            }
            for (j, col) in cols.enumerate() {
                if certified[j] {
                    out.push(small(negative[j], magnitude[j]));
                    continue;
                }
                let (basis, product, residues) = fallback.get_or_insert_with(|| {
                    let basis = self.truncated(lvl);
                    let product = basis.product();
                    (basis, product, vec![0; lvl])
                });
                for (r, row) in residues.iter_mut().zip(rows) {
                    *r = row[col];
                }
                let (neg, mag) = basis.combine_centered_big_with_product(residues, product);
                out.push(match mag.to_u128() {
                    Some(v) => small(neg, v),
                    None => big(neg, &mag),
                });
            }
        }
        out
    }
}

/// Greatest common divisor.
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::generate_ntt_primes;

    fn basis(n: usize) -> RnsBasis {
        RnsBasis::new(generate_ntt_primes(36, n, 1 << 14).unwrap()).unwrap()
    }

    #[test]
    fn rejects_bad_bases() {
        assert!(matches!(RnsBasis::new(vec![]), Err(MathError::Empty)));
        assert!(matches!(
            RnsBasis::new(vec![97, 97]),
            Err(MathError::BasisNotCoprime { .. })
        ));
        assert!(matches!(
            RnsBasis::new(vec![15, 21]), // share factor 3
            Err(MathError::BasisNotCoprime { .. })
        ));
    }

    #[test]
    fn decompose_combine_roundtrip_small() {
        let b = basis(3);
        for x in [-1000i128, -1, 0, 1, 42, 1 << 40, -(1 << 40)] {
            let residues = b.decompose_i128(x);
            assert_eq!(b.combine_centered(&residues), x as f64, "x = {x}");
        }
    }

    #[test]
    fn combine_matches_product_structure() {
        let b = RnsBasis::new(vec![3, 5, 7]).unwrap();
        // x = 23: residues (2, 3, 2)
        let x = b.combine(&[2, 3, 2]);
        assert_eq!(x, UBig::from(23u64));
        assert_eq!(b.product(), UBig::from(105u64));
    }

    #[test]
    fn centered_negative() {
        let b = RnsBasis::new(vec![3, 5, 7]).unwrap();
        // -1 mod 105 = 104 -> residues (2, 4, 6)
        assert_eq!(b.combine_centered(&[2, 4, 6]), -1.0);
        // +52 = floor(105/2) stays positive
        let r: Vec<u64> = vec![52 % 3, 52 % 5, 52 % 7];
        assert_eq!(b.combine_centered(&r), 52.0);
        // 53 > 105/2 -> -52
        let r: Vec<u64> = vec![53 % 3, 53 % 5, 53 % 7];
        assert_eq!(b.combine_centered(&r), -52.0);
    }

    #[test]
    fn truncation() {
        let b = basis(5);
        let t = b.truncated(2);
        assert_eq!(t.len(), 2);
        let residues = t.decompose_i128(123456789);
        assert_eq!(t.combine_centered(&residues), 123456789.0);
    }

    #[test]
    fn product_bits_accumulate() {
        let b = basis(4);
        assert!(b.product_bits() >= 4 * 35 && b.product_bits() <= 4 * 36 + 1);
    }

    /// `lift_centered` with both entries mapped to `(negative, UBig)`.
    fn lift_big(b: &RnsBasis, rows: &[Vec<u64>]) -> Vec<(bool, UBig)> {
        b.lift_centered(rows, |n, m| (n, UBig::from(m)), |n, m| (n, m.clone()))
    }

    fn assert_lift_is_golden(b: &RnsBasis, rows: &[Vec<u64>]) {
        let golden = b.truncated(rows.len());
        let product = golden.product();
        for (j, got) in lift_big(b, rows).into_iter().enumerate() {
            let column: Vec<u64> = rows.iter().map(|r| r[j]).collect();
            let want = golden.combine_centered_big_with_product(&column, &product);
            assert_eq!(got, want, "column {j} = {column:?}");
        }
    }

    #[test]
    fn lift_is_golden_over_every_residue_of_a_tiny_basis() {
        // 3·5·7 = 105 < 2^127: the whole basis is the window.
        let b = RnsBasis::new(vec![3, 5, 7]).unwrap();
        let rows: Vec<Vec<u64>> = b
            .moduli()
            .iter()
            .map(|m| (0..105).map(|x| x % m.q()).collect())
            .collect();
        assert_lift_is_golden(&b, &rows);
        assert_lift_is_golden(&b, &rows[..2]);
    }

    #[test]
    fn lift_is_golden_on_moduli_near_2_63() {
        // Two 63-bit primes fill the window; the other two are checks.
        // Residue words up to u64::MAX stress the Shoup bound at q ≈ 2^63.
        let primes: Vec<u64> = (0..)
            .map(|i| (1u64 << 63) - 1 - 2 * i)
            .filter(|&q| crate::primes::is_prime(q))
            .take(4)
            .collect();
        let b = RnsBasis::new(primes).unwrap();
        let p2 = b.moduli()[0].q() as u128 * b.moduli()[1].q() as u128;
        let half = (p2 >> 1) as i128;
        let mut values = vec![0i128, 1, -1, 1 << 100, -(1 << 100)];
        for v in [half - 1, half, half + 1] {
            values.extend([v, -v]);
        }
        let mut rows: Vec<Vec<u64>> = b
            .moduli()
            .iter()
            .map(|m| values.iter().map(|&x| m.from_i128(x)).collect())
            .collect();
        for (i, row) in rows.iter_mut().enumerate() {
            row.extend([u64::MAX, u64::MAX - 7 * i as u64, 12345 << i]);
        }
        for lvl in 1..=b.len() {
            assert_lift_is_golden(&b, &rows[..lvl]);
        }
        // Fallback columns take the wide entry when they exceed u128.
        let wide = b.lift_centered(&rows, |_, _| false, |_, m| m.bits() > 128);
        assert!(wide.iter().any(|&w| w));
    }

    #[test]
    #[should_panic]
    fn lift_rejects_ragged_rows() {
        let b = basis(2);
        b.lift_centered(&[vec![1, 2], vec![3]], |_, m| m, |_, _| 0);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 31), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
    }
}
