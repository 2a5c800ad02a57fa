//! Greatest common divisor, extended Euclid, modular inverse, and lcm.

use std::cmp::Ordering;

use crate::add::sub_in_place;
use crate::error::BignumError;
use crate::uint::{cmp_limbs, shr_in_place, Uint, LIMB_BITS};

/// A signed big integer, private to this module, used only to carry the
/// Bézout coefficients through the extended Euclidean algorithm.
#[derive(Clone, Debug)]
struct Int {
    negative: bool,
    mag: Uint,
}

impl Int {
    fn zero() -> Self {
        Int {
            negative: false,
            mag: Uint::zero(),
        }
    }

    fn one() -> Self {
        Int {
            negative: false,
            mag: Uint::one(),
        }
    }

    /// `self - q * other`, the update step of extended Euclid.
    fn sub_mul(&self, q: &Uint, other: &Int) -> Int {
        let prod = &other.mag * q;
        if prod.is_zero() {
            return self.clone();
        }
        // Sign of the term being added, i.e. of -(q * other).
        let term_negative = !other.negative;
        if self.negative == term_negative || self.mag.is_zero() {
            // Same sign (or self is zero): magnitudes add.
            Int {
                negative: term_negative,
                mag: &self.mag + &prod,
            }
        } else {
            // Opposite signs: subtract the smaller magnitude.
            let (mag, self_smaller) = self.mag.abs_diff(&prod);
            let negative = if self_smaller {
                term_negative
            } else {
                self.negative
            };
            Int {
                negative: negative && !mag.is_zero(),
                mag,
            }
        }
    }

    /// Canonical representative modulo `m` in `[0, m)`.
    fn rem_euclid(&self, m: &Uint) -> Result<Uint, BignumError> {
        let r = self.mag.rem_of(m)?;
        if self.negative && !r.is_zero() {
            Ok(m - &r)
        } else {
            Ok(r)
        }
    }
}

impl Uint {
    /// Greatest common divisor by the binary (Stein) algorithm.
    ///
    /// `gcd(0, b) = b` and `gcd(a, 0) = a`. The loop runs in place on two
    /// limb buffers, copies of the operands: each step subtracts the
    /// smaller odd value from the larger and shifts the difference's
    /// trailing zeros out, with no allocation.
    pub fn gcd(&self, rhs: &Uint) -> Uint {
        if self.is_zero() {
            return rhs.clone();
        }
        if rhs.is_zero() {
            return self.clone();
        }
        let az = self.trailing_zeros().expect("a != 0");
        let bz = rhs.trailing_zeros().expect("b != 0");
        let mut a = self.limbs.clone();
        let mut b = rhs.limbs.clone();
        shr_in_place(&mut a, az);
        shr_in_place(&mut b, bz);
        // Both odd from here on, so `b − a` is even and, for `b > a`,
        // nonzero.
        loop {
            match cmp_limbs(&a, &b) {
                Ordering::Equal => break,
                Ordering::Greater => std::mem::swap(&mut a, &mut b),
                Ordering::Less => {}
            }
            let borrowed = sub_in_place(&mut b, &a);
            debug_assert!(!borrowed, "b > a");
            let low = b.iter().position(|&l| l != 0).expect("b − a != 0");
            let zeros = low * LIMB_BITS + b[low].trailing_zeros() as usize;
            shr_in_place(&mut b, zeros);
        }
        Uint::from_limbs(a).shl(az.min(bz))
    }

    /// Least common multiple. `lcm(0, x) = 0`.
    pub fn lcm(&self, rhs: &Uint) -> Uint {
        if self.is_zero() || rhs.is_zero() {
            return Uint::zero();
        }
        let g = self.gcd(rhs);
        &(self / &g) * rhs
    }

    /// Extended Euclid: returns `(g, x mod m)` such that
    /// `g = gcd(self, m)` and `self·x ≡ g (mod m)`.
    ///
    /// # Errors
    /// Returns [`BignumError::InvalidModulus`] when `m < 2`.
    pub fn extended_gcd_mod(&self, m: &Uint) -> Result<(Uint, Uint), BignumError> {
        if m.is_zero() || m.is_one() {
            return Err(BignumError::InvalidModulus("modulus must be >= 2"));
        }
        let mut r0 = self.rem_of(m)?;
        let mut r1 = m.clone();
        let mut s0 = Int::one();
        let mut s1 = Int::zero();
        while !r1.is_zero() {
            let (q, r) = r0.div_rem(&r1)?;
            let s = s0.sub_mul(&q, &s1);
            r0 = std::mem::replace(&mut r1, r);
            s0 = std::mem::replace(&mut s1, s);
        }
        Ok((r0, s0.rem_euclid(m)?))
    }

    /// Modular inverse: the unique `x` in `[1, m)` with
    /// `self·x ≡ 1 (mod m)`.
    ///
    /// # Errors
    /// Returns [`BignumError::NoInverse`] when `gcd(self, m) != 1`, and
    /// [`BignumError::InvalidModulus`] when `m < 2`.
    pub fn mod_inverse(&self, m: &Uint) -> Result<Uint, BignumError> {
        let (g, x) = self.extended_gcd_mod(m)?;
        if g.is_one() {
            Ok(x)
        } else {
            Err(BignumError::NoInverse)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn u(v: u64) -> Uint {
        Uint::from_u64(v)
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(u(12).gcd(&u(18)), u(6));
        assert_eq!(u(17).gcd(&u(5)), u(1));
        assert_eq!(u(0).gcd(&u(5)), u(5));
        assert_eq!(u(5).gcd(&u(0)), u(5));
        assert_eq!(u(0).gcd(&u(0)), u(0));
        assert_eq!(u(48).gcd(&u(48)), u(48));
    }

    #[test]
    fn gcd_powers_of_two() {
        assert_eq!(u(1024).gcd(&u(640)), u(128));
        let a = Uint::one().shl(200);
        let b = Uint::one().shl(123);
        assert_eq!(a.gcd(&b), b);
    }

    #[test]
    fn gcd_large_known() {
        // gcd(fib(90), fib(87)) = fib(gcd(90,87)) = fib(3) = 2.
        let f90 = Uint::from_decimal("2880067194370816120").unwrap();
        let f87 = Uint::from_decimal("679891637638612258").unwrap();
        assert_eq!(f90.gcd(&f87), u(2));
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(u(4).lcm(&u(6)), u(12));
        assert_eq!(u(0).lcm(&u(6)), u(0));
        assert_eq!(u(7).lcm(&u(13)), u(91));
    }

    #[test]
    fn mod_inverse_small() {
        let m = u(97);
        for a in 1u64..97 {
            let inv = u(a).mod_inverse(&m).unwrap();
            assert_eq!(u(a).mod_mul(&inv, &m).unwrap(), u(1), "a={a}");
            assert!(inv < m && !inv.is_zero());
        }
    }

    #[test]
    fn mod_inverse_nonexistent() {
        assert_eq!(u(6).mod_inverse(&u(9)), Err(BignumError::NoInverse));
        assert_eq!(u(0).mod_inverse(&u(9)), Err(BignumError::NoInverse));
    }

    #[test]
    fn mod_inverse_invalid_modulus() {
        assert!(matches!(
            u(3).mod_inverse(&u(0)),
            Err(BignumError::InvalidModulus(_))
        ));
        assert!(matches!(
            u(3).mod_inverse(&u(1)),
            Err(BignumError::InvalidModulus(_))
        ));
    }

    #[test]
    fn mod_inverse_large() {
        // Inverse modulo a 128-bit prime, checked by multiplication.
        let p = Uint::from_decimal("340282366920938463463374607431768211297").unwrap();
        let a = Uint::from_decimal("123456789012345678901234567890").unwrap();
        let inv = a.mod_inverse(&p).unwrap();
        assert_eq!(a.mod_mul(&inv, &p).unwrap(), Uint::one());
    }

    #[test]
    fn extended_gcd_bezout() {
        // g = a*x mod m must hold for the returned coefficient.
        let a = u(240);
        let m = u(46 * 3 + 1); // 139, prime
        let (g, x) = a.extended_gcd_mod(&m).unwrap();
        assert_eq!(g, u(1));
        assert_eq!(a.mod_mul(&x, &m).unwrap(), g);
        // Non-coprime case still returns the gcd.
        let (g2, x2) = u(24).extended_gcd_mod(&u(36)).unwrap();
        assert_eq!(g2, u(12));
        assert_eq!(u(24).mod_mul(&x2, &u(36)).unwrap(), u(12));
    }

    /// The gcd by Euclid's remainder sequence (`div_rem`), the reference.
    fn euclid(a: &Uint, b: &Uint) -> Uint {
        let (mut a, mut b) = (a.clone(), b.clone());
        while !b.is_zero() {
            let r = a.div_rem(&b).unwrap().1;
            a = std::mem::replace(&mut b, r);
        }
        a
    }

    /// Strategy: a value of 0 to `max` random limbs.
    fn uint(max: usize) -> impl Strategy<Value = Uint> {
        prop::collection::vec(any::<u64>(), 0..=max).prop_map(Uint::from_limbs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn gcd_matches_euclid(
            a in uint(20),
            b in uint(20),
            c in uint(3),
            k in 0usize..200,
            case in 0usize..4,
        ) {
            let (a, b) = match case {
                0 => (a, b),
                // A shared factor `c·2^k`; from k = 64 on the loop drops
                // whole limbs.
                1 => ((&a * &c).shl(k), (&b * &c).shl(k)),
                2 => (a.clone(), a),
                // One operand divides the other.
                _ => (&a * &c, a),
            };
            let want = euclid(&a, &b);
            prop_assert_eq!(a.gcd(&b), want.clone());
            prop_assert_eq!(b.gcd(&a), want);
        }
    }
}
