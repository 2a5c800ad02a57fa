//! Bitwise operations on [`Uint`].

use std::ops::{BitAnd, BitOr, BitXor};

use crate::uint::Uint;

impl BitAnd<&Uint> for &Uint {
    type Output = Uint;

    fn bitand(self, rhs: &Uint) -> Uint {
        let limbs = self
            .limbs()
            .iter()
            .zip(rhs.limbs())
            .map(|(a, b)| a & b)
            .collect();
        Uint::from_limbs(limbs)
    }
}

impl BitOr<&Uint> for &Uint {
    type Output = Uint;

    fn bitor(self, rhs: &Uint) -> Uint {
        let (long, short) = if self.limbs().len() >= rhs.limbs().len() {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let mut limbs = long.limbs().to_vec();
        for (i, b) in short.limbs().iter().enumerate() {
            limbs[i] |= b;
        }
        Uint::from_limbs(limbs)
    }
}

impl BitXor<&Uint> for &Uint {
    type Output = Uint;

    fn bitxor(self, rhs: &Uint) -> Uint {
        let (long, short) = if self.limbs().len() >= rhs.limbs().len() {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let mut limbs = long.limbs().to_vec();
        for (i, b) in short.limbs().iter().enumerate() {
            limbs[i] ^= b;
        }
        Uint::from_limbs(limbs)
    }
}

impl Uint {
    /// Number of set bits (population count).
    pub fn count_ones(&self) -> usize {
        self.limbs().iter().map(|l| l.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u128) -> Uint {
        Uint::from_u128(v)
    }

    #[test]
    fn and_or_xor_match_u128() {
        let pairs = [
            (0u128, 0u128),
            (0xff00, 0x0ff0),
            (u128::MAX, 0x1234_5678_9abc_def0),
            (u128::MAX, u128::MAX),
        ];
        for (a, b) in pairs {
            assert_eq!(&u(a) & &u(b), u(a & b), "and {a:x} {b:x}");
            assert_eq!(&u(a) | &u(b), u(a | b), "or {a:x} {b:x}");
            assert_eq!(&u(a) ^ &u(b), u(a ^ b), "xor {a:x} {b:x}");
        }
    }

    #[test]
    fn mixed_lengths() {
        let big = Uint::one().shl(200);
        let small = u(0xff);
        assert_eq!(&big & &small, Uint::zero());
        assert_eq!(&big | &small, &big + &small);
        assert_eq!(&big ^ &small, &big + &small);
        assert_eq!(&small | &big, &big + &small, "commutes");
    }

    #[test]
    fn xor_self_is_zero() {
        let v = Uint::from_hex("deadbeefcafebabe1234567890").unwrap();
        assert_eq!(&v ^ &v, Uint::zero());
        assert_eq!(&v & &v, v);
        assert_eq!(&v | &v, v);
    }

    #[test]
    fn count_ones() {
        assert_eq!(Uint::zero().count_ones(), 0);
        assert_eq!(u(0xff).count_ones(), 8);
        assert_eq!(Uint::one().shl(500).count_ones(), 1);
    }
}
