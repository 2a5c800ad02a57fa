//! Addition and subtraction for [`Uint`].

use std::ops::{Add, AddAssign, Sub, SubAssign};

use crate::error::BignumError;
use crate::uint::Uint;

/// Adds `b` into `a` in place (limb vectors, carry-propagating).
fn add_in_place(a: &mut Vec<u64>, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    let mut carry = 0u64;
    for (i, &bl) in b.iter().enumerate() {
        let (s1, c1) = a[i].overflowing_add(bl);
        let (s2, c2) = s1.overflowing_add(carry);
        a[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    let mut i = b.len();
    while carry != 0 && i < a.len() {
        let (s, c) = a[i].overflowing_add(carry);
        a[i] = s;
        carry = c as u64;
        i += 1;
    }
    if carry != 0 {
        a.push(carry);
    }
}

/// Subtracts `b` from `a` in place; returns `true` if a borrow escaped
/// (i.e. `b > a`), in which case the contents of `a` are meaningless.
pub(crate) fn sub_in_place(a: &mut [u64], b: &[u64]) -> bool {
    debug_assert!(a.len() >= b.len());
    let mut borrow = 0u64;
    for (i, al) in a.iter_mut().enumerate() {
        let bl = b.get(i).copied().unwrap_or(0);
        let (d1, b1) = al.overflowing_sub(bl);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *al = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    borrow != 0
}

impl Uint {
    /// Checked subtraction: `self - rhs`.
    ///
    /// # Errors
    /// Returns [`BignumError::Underflow`] when `rhs > self` (the result
    /// would be negative, which `Uint` cannot represent).
    pub fn checked_sub(&self, rhs: &Uint) -> Result<Uint, BignumError> {
        if rhs > self {
            return Err(BignumError::Underflow);
        }
        let mut limbs = self.limbs.clone();
        let borrowed = sub_in_place(&mut limbs, &rhs.limbs);
        debug_assert!(!borrowed);
        Ok(Uint::from_limbs(limbs))
    }

    /// Saturating subtraction: `max(self - rhs, 0)`.
    pub fn saturating_sub(&self, rhs: &Uint) -> Uint {
        self.checked_sub(rhs).unwrap_or_else(|_| Uint::zero())
    }

    /// `|self - rhs|`, together with whether the true difference was
    /// negative. Useful for Karatsuba's middle term.
    pub(crate) fn abs_diff(&self, rhs: &Uint) -> (Uint, bool) {
        if self >= rhs {
            (self.checked_sub(rhs).expect("self >= rhs"), false)
        } else {
            (rhs.checked_sub(self).expect("rhs > self"), true)
        }
    }
}

impl Add<&Uint> for &Uint {
    type Output = Uint;

    fn add(self, rhs: &Uint) -> Uint {
        let mut limbs = self.limbs.clone();
        add_in_place(&mut limbs, &rhs.limbs);
        Uint::from_limbs(limbs)
    }
}

impl Add<Uint> for Uint {
    type Output = Uint;

    fn add(self, rhs: Uint) -> Uint {
        &self + &rhs
    }
}

impl AddAssign<&Uint> for Uint {
    fn add_assign(&mut self, rhs: &Uint) {
        add_in_place(&mut self.limbs, &rhs.limbs);
        self.normalize();
    }
}

impl Sub<&Uint> for &Uint {
    type Output = Uint;

    /// Panics on underflow; use [`Uint::checked_sub`] to handle it.
    fn sub(self, rhs: &Uint) -> Uint {
        self.checked_sub(rhs)
            .expect("Uint subtraction underflow; use checked_sub")
    }
}

impl Sub<Uint> for Uint {
    type Output = Uint;

    fn sub(self, rhs: Uint) -> Uint {
        &self - &rhs
    }
}

impl SubAssign<&Uint> for Uint {
    fn sub_assign(&mut self, rhs: &Uint) {
        *self = &*self - rhs;
    }
}

#[cfg(test)]
mod tests {
    use crate::uint::Uint;

    #[test]
    fn add_basic() {
        let a = Uint::from_u64(u64::MAX);
        let b = Uint::from_u64(1);
        assert_eq!(&a + &b, Uint::from_u128(1u128 << 64));
        assert_eq!(&a + &Uint::zero(), a);
        assert_eq!(&Uint::zero() + &Uint::zero(), Uint::zero());
    }

    #[test]
    fn add_carry_chain() {
        // All-ones across several limbs: adding 1 must ripple to a new limb.
        let a = Uint::from_limbs(vec![u64::MAX; 4]);
        let s = &a + &Uint::one();
        assert_eq!(s.limbs(), &[0, 0, 0, 0, 1]);
    }

    #[test]
    fn add_assign_matches_add() {
        let mut a = Uint::from_u128(u128::MAX);
        let b = Uint::from_u128(u128::MAX - 7);
        let expect = &a + &b;
        a += &b;
        assert_eq!(a, expect);
    }

    #[test]
    fn sub_basic() {
        let a = Uint::from_u128(1u128 << 64);
        let b = Uint::from_u64(1);
        assert_eq!(&a - &b, Uint::from_u64(u64::MAX));
        assert_eq!(&a - &a, Uint::zero());
    }

    #[test]
    fn sub_underflow_is_error() {
        assert!(Uint::zero().checked_sub(&Uint::one()).is_err());
        assert_eq!(Uint::zero().saturating_sub(&Uint::one()), Uint::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_operator_panics_on_underflow() {
        let _ = &Uint::one() - &Uint::from_u64(2);
    }

    #[test]
    fn abs_diff() {
        let a = Uint::from_u64(10);
        let b = Uint::from_u64(25);
        assert_eq!(a.abs_diff(&b), (Uint::from_u64(15), true));
        assert_eq!(b.abs_diff(&a), (Uint::from_u64(15), false));
        assert_eq!(a.abs_diff(&a), (Uint::zero(), false));
    }

    #[test]
    fn add_sub_round_trip_large() {
        let a = Uint::from_hex("ffffffffffffffffffffffffffffffffffffffff").unwrap();
        let b = Uint::from_hex("123456789abcdef0123456789abcdef012345678").unwrap();
        assert_eq!(&(&a + &b) - &b, a);
    }
}
