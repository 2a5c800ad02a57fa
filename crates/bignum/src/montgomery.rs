//! Montgomery modular arithmetic context.
//!
//! A [`Montgomery`] context precomputes everything needed for fast repeated
//! multiplication and exponentiation modulo a fixed **odd** modulus `n`:
//! the Montgomery radix `R = 2^(64·k)` (where `k` is the limb count of
//! `n`), `R² mod n` for conversions, and `n' = -n⁻¹ mod 2^64` for the REDC
//! step. This is the workhorse behind Paillier encryption (`r^N mod N²`),
//! the server's homomorphic product, and primality testing.
//!
//! Products run on a kernel picked by the modulus width `k` (the
//! `kernel` submodule): at 4, 8 and 16 limbs — `p`, `p²` and `N²` of a
//! 512-bit key — on stack operands with width-specialised CIOS and SOS
//! bodies and a dedicated squaring; at every other width on the slice
//! kernel [`Montgomery::mont_mul`]. Every kernel returns the same value
//! bit for bit. A power or fold picks its kernel once, not per product.
//!
//! # Examples
//!
//! ```
//! use pps_bignum::{Montgomery, Uint};
//!
//! let n = Uint::from_u64(97);
//! let ctx = Montgomery::new(n).unwrap();
//! let r = ctx.pow(&Uint::from_u64(5), &Uint::from_u64(96)).unwrap();
//! assert_eq!(r, Uint::one()); // Fermat
//! ```

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::error::BignumError;
use crate::multiexp_plan::FixedExponentPlan;
use crate::uint::{cmp_limbs, Uint};

pub(crate) mod kernel;

use kernel::{with_kernel, Kernel};

/// Precomputed context for arithmetic modulo a fixed odd modulus.
#[derive(Clone, Debug)]
pub struct Montgomery {
    /// The modulus; odd, >= 3.
    n: Uint,
    /// Limb count of `n`; `R = 2^(64 * limbs)`.
    limbs: usize,
    /// `-n⁻¹ mod 2^64`.
    n_prime: u64,
    /// `R mod n` (the Montgomery form of 1).
    r_mod_n: Uint,
    /// `R² mod n`, used to convert into Montgomery form.
    r2_mod_n: Uint,
}

/// A value held in Montgomery form with respect to some context.
///
/// Thin wrapper to keep ordinary and Montgomery representations from being
/// mixed accidentally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MontElem(Uint);

impl MontElem {
    /// The normalized limbs: at most `k`, fewer when the top ones are zero.
    pub(crate) fn limbs(&self) -> &[u64] {
        self.0.limbs()
    }

    /// Wraps a kernel result, which is already below the modulus.
    pub(crate) fn from_limbs(limbs: Vec<u64>) -> Self {
        MontElem(Uint::from_limbs(limbs))
    }
}

// Compile-time audit: the client's parallel encryption engine
// (`pps-crypto`) shares one context read-only across scoped worker
// threads, and resume checkpoints carry a key's `Arc`-shared context
// between connection threads, so `Montgomery` must stay `Send + Sync`.
// All fields are owned `Uint`s (heap `Vec<u64>`) and plain integers — no
// interior mutability — and any future addition of e.g. a
// lazily-populated cache behind a `Cell`/`RefCell` would silently
// serialize or break those callers; this assertion turns that into a
// build failure.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Montgomery>();
    assert_send_sync::<MontElem>();
};

impl Montgomery {
    /// Builds a context for the odd modulus `n >= 3`.
    ///
    /// # Errors
    /// Returns [`BignumError::InvalidModulus`] for even or tiny moduli.
    pub fn new(n: Uint) -> Result<Self, BignumError> {
        if n.is_even() {
            return Err(BignumError::InvalidModulus(
                "Montgomery modulus must be odd",
            ));
        }
        if n.bit_len() < 2 {
            return Err(BignumError::InvalidModulus(
                "Montgomery modulus must be >= 3",
            ));
        }
        let limbs = n.limbs().len();
        let n0 = n.limbs()[0];
        let n_prime = inv_mod_2_64(n0).wrapping_neg();
        let r = Uint::one().shl(limbs * 64);
        let r_mod_n = r.rem_of(&n)?;
        let r2_mod_n = r_mod_n.mod_mul(&r_mod_n, &n)?;
        Ok(Montgomery {
            n,
            limbs,
            n_prime,
            r_mod_n,
            r2_mod_n,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Uint {
        &self.n
    }

    /// Limb count `k` of the modulus; `R = 2^(64·k)`, and every operand
    /// of the kernels is exactly `k` limbs. It picks the kernel.
    pub(crate) fn width(&self) -> usize {
        self.limbs
    }

    /// Converts an ordinary value (reduced mod `n` first) into Montgomery
    /// form.
    pub fn to_mont(&self, v: &Uint) -> MontElem {
        MontElem(with_kernel!(self, |kr| {
            let e = kr.enter(v);
            kr.to_uint(&e)
        }))
    }

    /// Whether every value in `values` is coprime to `n`, with one gcd
    /// for the whole slice. Each value is brought to `n`'s width by one
    /// Montgomery reduction (REDC: `v·R⁻¹ mod n`, defined for `v < n·R`,
    /// so for any value below `n²`; a wider value is reduced mod `n`
    /// first), and the results are chained with one product each. As
    /// `n` is odd, `R` is a unit mod `n`, so a prime factor of `n`
    /// divides the chain's result exactly when it divides one of the
    /// values. A Paillier ciphertext below `N²` is thus checked at `N`'s
    /// width, half of `N²`'s.
    pub fn all_coprime(&self, values: &[Uint]) -> bool {
        let product = with_kernel!(self, |kr| {
            let acc = unit_product(kr, values);
            kr.to_uint(&acc)
        });
        product.gcd(&self.n).is_one()
    }

    /// `v` itself when already below `n`, else `v mod n`.
    fn reduced<'a>(&self, v: &'a Uint) -> Cow<'a, Uint> {
        if v < &self.n {
            Cow::Borrowed(v)
        } else {
            Cow::Owned(v.rem_of(&self.n).expect("modulus != 0"))
        }
    }

    /// `v` itself when below `n·R`, the range of one Montgomery
    /// reduction, else `v mod n`.
    fn redc_input<'a>(&self, v: &'a Uint) -> Cow<'a, Uint> {
        let high = v.limbs().get(self.limbs..).unwrap_or_default();
        if cmp_limbs(high, self.n.limbs()) == Ordering::Less {
            Cow::Borrowed(v)
        } else {
            self.reduced(v)
        }
    }

    /// Converts back from Montgomery form to an ordinary value in `[0, n)`.
    pub fn from_mont(&self, v: &MontElem) -> Uint {
        with_kernel!(self, |kr| {
            let e = kr.load(v.limbs());
            kr.leave(e)
        })
    }

    /// The Montgomery form of 1.
    pub fn one(&self) -> MontElem {
        MontElem(self.r_mod_n.clone())
    }

    /// Montgomery product of two elements.
    pub fn mul(&self, a: &MontElem, b: &MontElem) -> MontElem {
        MontElem(with_kernel!(self, |kr| {
            let mut e = kr.load(a.limbs());
            kr.mul(&mut e, &kr.load(b.limbs()));
            kr.to_uint(&e)
        }))
    }

    /// Montgomery square. At 4, 8 and 16 limbs it runs the dedicated SOS
    /// squaring, which forms each cross product once; at other widths
    /// the slice kernel's general product.
    pub fn square(&self, a: &MontElem) -> MontElem {
        MontElem(with_kernel!(self, |kr| {
            let mut e = kr.load(a.limbs());
            kr.square(&mut e);
            kr.to_uint(&e)
        }))
    }

    /// `base^exp mod n` using 4-bit fixed-window exponentiation.
    ///
    /// # Errors
    /// Propagates reduction errors (none in practice for a valid context).
    pub fn pow(&self, base: &Uint, exp: &Uint) -> Result<Uint, BignumError> {
        Ok(FixedExponentPlan::new(exp).pow(self, base))
    }

    /// Exponentiation with a base already in Montgomery form; the result
    /// stays in Montgomery form. Useful when chaining many operations.
    ///
    /// Recodes `exp` and runs the one window loop,
    /// [`FixedExponentPlan::pow_mont`]; callers with a fixed exponent keep
    /// the plan instead.
    pub fn pow_mont(&self, base: &MontElem, exp: &Uint) -> MontElem {
        FixedExponentPlan::new(exp).pow_mont(self, base)
    }

    /// The slice kernel: CIOS (Montgomery multiplication with the
    /// reduction interleaved: one limb of `b` per round, and each round's
    /// `a·bᵢ` and `m·n` chains fused into one pass) at any width; leaves
    /// `a·b·R⁻¹ mod n` in `t[..k]`. The fixed-width kernels run at 4, 8
    /// and 16 limbs and are tested against it.
    ///
    /// `a` and `b` are exactly `k` limbs and below `n`; `t` is `k + 1`
    /// limbs of caller-owned scratch whose contents are overwritten. Each
    /// round keeps `t < 2n`, so the carry word `t[k]` is 0 or 1; it is set
    /// only when `n` is within a factor two of `R`.
    ///
    /// # Panics
    /// When a buffer has the wrong length (a caller bug).
    pub(crate) fn mont_mul(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let k = self.limbs;
        assert!(
            a.len() == k && b.len() == k && t.len() == k + 1,
            "Montgomery kernel buffers must be k, k and k + 1 limbs"
        );
        let n = &self.n.limbs()[..k];
        t.fill(0);
        for &bi in b {
            // t = (t + a·bi + m·n) / W with W = 2^64 and m chosen so the
            // low limb cancels; `c1` carries the a·bi chain, `c2` the m·n
            // chain.
            let s = u128::from(a[0]) * u128::from(bi) + u128::from(t[0]);
            let m = (s as u64).wrapping_mul(self.n_prime);
            let mut c1 = (s >> 64) as u64;
            let s = u128::from(m) * u128::from(n[0]) + u128::from(s as u64);
            let mut c2 = (s >> 64) as u64;
            for j in 1..k {
                let s = u128::from(a[j]) * u128::from(bi) + u128::from(t[j]) + u128::from(c1);
                c1 = (s >> 64) as u64;
                let s = u128::from(m) * u128::from(n[j]) + u128::from(s as u64) + u128::from(c2);
                c2 = (s >> 64) as u64;
                t[j - 1] = s as u64;
            }
            let s = u128::from(t[k]) + u128::from(c1) + u128::from(c2);
            t[k - 1] = s as u64;
            t[k] = (s >> 64) as u64;
        }
        let carry = t[k];
        reduce_once(&mut t[..k], carry, n);
    }

    /// The slice kernel's Montgomery reduction (REDC) at any width:
    /// leaves `t·R⁻¹ mod n` in `t[k..]` for a `t < n·R` given as `2k`
    /// limbs, overwriting the low half. `k` rounds each add the multiple
    /// of `n` that clears the lowest live limb; the sum stays below
    /// `2n·R`, so the carry out of the top limb, kept as the carry word,
    /// is 0 or 1. The fixed-width kernels' `redc` is the same loop and is
    /// tested against it.
    ///
    /// # Panics
    /// When `t` is not `2k` limbs (a caller bug).
    pub(crate) fn mont_redc(&self, t: &mut [u64]) {
        let k = self.limbs;
        assert_eq!(
            t.len(),
            2 * k,
            "Montgomery reduction buffer must be 2k limbs"
        );
        let n = &self.n.limbs()[..k];
        let mut top = 0u64;
        for i in 0..k {
            let m = t[i].wrapping_mul(self.n_prime);
            let mut c = 0u64;
            for j in 0..k {
                let s = u128::from(m) * u128::from(n[j]) + u128::from(t[i + j]) + u128::from(c);
                t[i + j] = s as u64;
                c = (s >> 64) as u64;
            }
            let s = u128::from(t[i + k]) + u128::from(c) + u128::from(top);
            t[i + k] = s as u64;
            top = (s >> 64) as u64;
        }
        reduce_once(&mut t[k..], top, n);
    }
}

/// The value `carry·R + t`, known to be below `2n`, reduced below `n` in
/// `t`: one conditional subtraction. When the carry word is set, the
/// borrow out of the low limbs cancels it.
fn reduce_once(t: &mut [u64], carry: u64, n: &[u64]) {
    let below_n = carry == 0
        && t.iter()
            .rev()
            .zip(n.iter().rev())
            .find(|(x, y)| x != y)
            .is_some_and(|(x, y)| x < y);
    if !below_n {
        let mut borrow = false;
        for (tj, &nj) in t.iter_mut().zip(n) {
            let (d, b1) = tj.overflowing_sub(nj);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *tj = d;
            borrow = b1 | b2;
        }
    }
}

/// The chain behind [`Montgomery::all_coprime`] on one kernel: from the
/// Montgomery form of 1, one REDC and one product per value, so `m`
/// values cost `m` products at the modulus width and nothing wider.
fn unit_product<K: Kernel>(kr: &mut K, values: &[Uint]) -> K::Elem {
    let mut acc = kr.one();
    for v in values {
        let v = kr.ctx().redc_input(v);
        let t = kr.redc(v.limbs());
        kr.mul(&mut acc, &t);
    }
    acc
}

/// Inverse of an odd `x` modulo 2^64, by Newton–Hensel lifting
/// (5 iterations double the valid bits from 5 to 64+).
pub(crate) fn inv_mod_2_64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // correct to 3 bits (x * x ≡ 1 mod 8 for odd x)
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn inv_mod_2_64_correct() {
        for x in [1u64, 3, 5, 0xdead_beef | 1, u64::MAX] {
            assert_eq!(x.wrapping_mul(inv_mod_2_64(x)), 1, "x={x}");
        }
    }

    #[test]
    fn rejects_bad_moduli() {
        assert!(Montgomery::new(Uint::from_u64(10)).is_err());
        assert!(Montgomery::new(Uint::zero()).is_err());
        assert!(Montgomery::new(Uint::one()).is_err());
        assert!(Montgomery::new(Uint::from_u64(3)).is_ok());
    }

    #[test]
    fn to_from_mont_round_trip() {
        let n = Uint::from_decimal("100000000000000000000000000000000000133").unwrap();
        let ctx = Montgomery::new(n.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let v = Uint::from_u128(rng.gen::<u128>()).rem_of(&n).unwrap();
            assert_eq!(ctx.from_mont(&ctx.to_mont(&v)), v);
        }
    }

    #[test]
    fn mul_matches_generic() {
        let n = Uint::from_decimal("170141183460469231731687303715884105727").unwrap(); // 2^127-1
        let ctx = Montgomery::new(n.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let a = Uint::from_u128(rng.gen()).rem_of(&n).unwrap();
            let b = Uint::from_u128(rng.gen()).rem_of(&n).unwrap();
            let got = ctx.from_mont(&ctx.mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
            assert_eq!(got, a.mod_mul(&b, &n).unwrap());
        }
    }

    #[test]
    fn pow_matches_generic() {
        let n = Uint::from_u64(1_000_000_007);
        let ctx = Montgomery::new(n.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let base = Uint::from_u64(rng.gen());
            let exp = Uint::from_u64(rng.gen::<u64>() >> rng.gen_range(0..60));
            assert_eq!(
                ctx.pow(&base, &exp).unwrap(),
                base.mod_pow(&exp, &n).unwrap(),
                "base={base} exp={exp}"
            );
        }
    }

    #[test]
    fn pow_edge_cases() {
        let n = Uint::from_u64(97);
        let ctx = Montgomery::new(n).unwrap();
        assert_eq!(
            ctx.pow(&Uint::from_u64(5), &Uint::zero()).unwrap(),
            Uint::one()
        );
        assert_eq!(
            ctx.pow(&Uint::zero(), &Uint::from_u64(5)).unwrap(),
            Uint::zero()
        );
        assert_eq!(
            ctx.pow(&Uint::from_u64(5), &Uint::one()).unwrap(),
            Uint::from_u64(5)
        );
        assert_eq!(
            ctx.pow(&Uint::from_u64(96), &Uint::from_u64(2)).unwrap(),
            Uint::one()
        );
    }

    #[test]
    fn pow_large_modulus() {
        // 512-bit odd modulus: exercise the multi-limb REDC path used by
        // Paillier with the paper's key size.
        let n = Uint::from_hex(
            "f3e9c1a75b20d4886e5a09f1c3b7d2594a6e8b0c7d1f2a3b4c5d6e7f8091a2b3\
             c4d5e6f708192a3b4c5d6e7f8091a2b3c4d5e6f708192a3b4c5d6e7f8091a2b5",
        )
        .unwrap();
        let ctx = Montgomery::new(n.clone()).unwrap();
        let base = Uint::from_u64(0xabcdef);
        let exp = Uint::from_u64(65_537);
        assert_eq!(
            ctx.pow(&base, &exp).unwrap(),
            base.mod_pow(&exp, &n).unwrap()
        );
    }

    #[test]
    fn pow_mont_chaining() {
        let n = Uint::from_u64(101);
        let ctx = Montgomery::new(n).unwrap();
        // (3^5)^2 == 3^10 via chained Montgomery ops.
        let b = ctx.to_mont(&Uint::from_u64(3));
        let p5 = ctx.pow_mont(&b, &Uint::from_u64(5));
        let p10 = ctx.pow_mont(&b, &Uint::from_u64(10));
        assert_eq!(ctx.mul(&p5, &p5), p10);
    }

    #[test]
    fn unit_check_takes_one_product_a_value_at_the_width_of_n() {
        // A 512-bit N (8 limbs) and 100 ciphertext-sized values below N²
        // (16 limbs): m values cost m reductions and m products, all on
        // the 8-limb kernel; nothing runs at N²'s 16 limbs.
        use kernel::{Counting, Fixed};
        let mut rng = StdRng::seed_from_u64(2026);
        let mut n = Uint::random_bits_exact(&mut rng, 512);
        n.set_bit(0, true);
        let ctx = Montgomery::new(n.clone()).unwrap();
        assert_eq!(ctx.width(), 8);
        let n2 = n.square();
        for m in [0usize, 1, 2, 100] {
            let values: Vec<Uint> = (0..m)
                .map(|_| Uint::random_below(&mut rng, &n2).unwrap())
                .collect();
            let mut kr = Counting::new(Fixed::<8, 16>::new(&ctx));
            let acc = unit_product(&mut kr, &values);
            assert_eq!(kr.products, m, "m={m}");
            assert_eq!(kr.reductions, m, "m={m}");
            let want = values.iter().all(|v| v.gcd(&n).is_one());
            assert_eq!(kr.to_uint(&acc).gcd(&n).is_one(), want);
            assert_eq!(ctx.all_coprime(&values), want);
        }
    }
}
