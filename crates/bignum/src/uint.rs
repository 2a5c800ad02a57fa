//! The [`Uint`] arbitrary-precision unsigned integer type.
//!
//! Representation: little-endian vector of `u64` limbs, kept *normalized*
//! (no most-significant zero limbs). Zero is the empty limb vector. All
//! public constructors and operations preserve this invariant.

use std::cmp::Ordering;
use std::fmt;

use crate::error::BignumError;

/// Number of bits per limb.
pub const LIMB_BITS: usize = 64;

/// An arbitrary-precision unsigned integer.
///
/// `Uint` is the workhorse of the whole workspace: Paillier keys,
/// ciphertexts, and every modular operation in the protocol are built on
/// it. It is heap-allocated and grows as needed; arithmetic is implemented
/// for borrowed operands so that hot loops can avoid needless clones.
///
/// # Examples
///
/// ```
/// use pps_bignum::Uint;
///
/// let a = Uint::from_u64(1 << 40);
/// let b = &a * &a;
/// assert_eq!(b, Uint::from_u128(1u128 << 80));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Uint {
    /// Little-endian limbs; invariant: `limbs.last() != Some(&0)`.
    pub(crate) limbs: Vec<u64>,
}

impl Uint {
    /// The constant zero.
    pub fn zero() -> Self {
        Uint { limbs: Vec::new() }
    }

    /// The constant one.
    pub fn one() -> Self {
        Uint { limbs: vec![1] }
    }

    /// Builds a `Uint` from a single 64-bit value.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Uint { limbs: vec![v] }
        }
    }

    /// Builds a `Uint` from a 128-bit value.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        if hi == 0 {
            Self::from_u64(lo)
        } else {
            Uint {
                limbs: vec![lo, hi],
            }
        }
    }

    /// Builds a `Uint` from little-endian limbs, normalizing.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Uint { limbs }
    }

    /// Read-only view of the little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// True iff the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (`0` for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * LIMB_BITS + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / LIMB_BITS, i % LIMB_BITS);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to `value`, growing the limb vector if needed.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        let (limb, off) = (i / LIMB_BITS, i % LIMB_BITS);
        if value {
            if self.limbs.len() <= limb {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= 1 << off;
        } else if limb < self.limbs.len() {
            self.limbs[limb] &= !(1 << off);
            self.normalize();
        }
    }

    /// Number of trailing zero bits; `None` for zero.
    pub fn trailing_zeros(&self) -> Option<usize> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i * LIMB_BITS + l.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Converts to `u64`, if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128`, if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }

    /// Serializes to big-endian bytes with no leading zeros (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        // Strip leading zero bytes introduced by limb padding.
        let first = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.drain(..first);
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padding with
    /// zeros.
    ///
    /// # Errors
    /// Returns [`BignumError::ValueTooLarge`] if the value needs more than
    /// `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Result<Vec<u8>, BignumError> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return Err(BignumError::ValueTooLarge {
                bits: self.bit_len(),
                capacity_bits: len * 8,
            });
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Ok(out)
    }

    /// Parses big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut buf = [0u8; 8];
            buf[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(buf));
        }
        Self::from_limbs(limbs)
    }

    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    ///
    /// # Errors
    /// Returns [`BignumError::InvalidDigit`] on non-hex characters and
    /// [`BignumError::Empty`] for the empty string.
    pub fn from_hex(s: &str) -> Result<Self, BignumError> {
        if s.is_empty() {
            return Err(BignumError::Empty);
        }
        let mut out = Self::zero();
        for c in s.chars() {
            let d = c.to_digit(16).ok_or(BignumError::InvalidDigit(c))? as u64;
            out = out.shl(4);
            if d != 0 {
                out = &out + &Uint::from_u64(d);
            }
        }
        Ok(out)
    }

    /// Formats as lowercase hexadecimal with no leading zeros (`"0"` for
    /// zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = format!("{:x}", self.limbs.last().unwrap());
        for &limb in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{limb:016x}"));
        }
        s
    }

    /// Parses a decimal string.
    ///
    /// # Errors
    /// Returns [`BignumError::InvalidDigit`] on non-decimal characters and
    /// [`BignumError::Empty`] for the empty string.
    pub fn from_decimal(s: &str) -> Result<Self, BignumError> {
        if s.is_empty() {
            return Err(BignumError::Empty);
        }
        let mut out = Self::zero();
        for c in s.chars() {
            let d = c.to_digit(10).ok_or(BignumError::InvalidDigit(c))? as u64;
            out = out.mul_u64(10);
            out = out.add_u64(d);
        }
        Ok(out)
    }

    /// Formats as a decimal string.
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(10).expect("10 != 0");
            digits.push(char::from(b'0' + r as u8));
            cur = q;
        }
        digits.iter().rev().collect()
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> Uint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / LIMB_BITS;
        let bit_shift = bits % LIMB_BITS;
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (LIMB_BITS - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        Self::from_limbs(limbs)
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> Uint {
        let mut limbs = self.limbs.clone();
        shr_in_place(&mut limbs, bits);
        Uint { limbs }
    }

    /// `self + v` for a single limb.
    pub fn add_u64(&self, v: u64) -> Uint {
        if v == 0 {
            return self.clone();
        }
        let mut limbs = self.limbs.clone();
        let mut carry = v;
        for l in limbs.iter_mut() {
            let (s, c) = l.overflowing_add(carry);
            *l = s;
            if !c {
                carry = 0;
                break;
            }
            carry = 1;
        }
        if carry != 0 {
            limbs.push(carry);
        }
        Self::from_limbs(limbs)
    }

    /// `self * v` for a single limb.
    pub fn mul_u64(&self, v: u64) -> Uint {
        if v == 0 || self.is_zero() {
            return Self::zero();
        }
        let mut limbs = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u64;
        for &l in &self.limbs {
            let prod = l as u128 * v as u128 + carry as u128;
            limbs.push(prod as u64);
            carry = (prod >> 64) as u64;
        }
        if carry != 0 {
            limbs.push(carry);
        }
        Self::from_limbs(limbs)
    }

    /// `(self / v, self % v)` for a single limb divisor.
    ///
    /// # Errors
    /// Returns [`BignumError::DivisionByZero`] when `v == 0`.
    pub fn div_rem_u64(&self, v: u64) -> Result<(Uint, u64), BignumError> {
        if v == 0 {
            return Err(BignumError::DivisionByZero);
        }
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u64;
        for (i, &l) in self.limbs.iter().enumerate().rev() {
            let cur = (rem as u128) << 64 | l as u128;
            q[i] = (cur / v as u128) as u64;
            rem = (cur % v as u128) as u64;
        }
        Ok((Self::from_limbs(q), rem))
    }

    /// Strips most-significant zero limbs (restores the invariant).
    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

/// Shifts the little-endian limbs `v` right by `bits` in place and drops
/// the zero limbs left on top.
pub(crate) fn shr_in_place(v: &mut Vec<u64>, bits: usize) {
    v.drain(..(bits / LIMB_BITS).min(v.len()));
    let bits = bits % LIMB_BITS;
    if bits != 0 {
        for i in 1..v.len() {
            v[i - 1] = (v[i - 1] >> bits) | (v[i] << (LIMB_BITS - bits));
        }
        if let Some(top) = v.last_mut() {
            *top >>= bits;
        }
    }
    while v.last() == Some(&0) {
        v.pop();
    }
}

/// Compares two normalized little-endian limb slices (no most-significant
/// zero limb) as the numbers they hold.
pub(crate) fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    a.len()
        .cmp(&b.len())
        .then_with(|| a.iter().rev().cmp(b.iter().rev()))
}

impl Ord for Uint {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_limbs(&self.limbs, &other.limbs)
    }
}

impl PartialOrd for Uint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uint(0x{})", self.to_hex())
    }
}

impl fmt::Display for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_decimal())
    }
}

impl fmt::LowerHex for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<u64> for Uint {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl From<u32> for Uint {
    fn from(v: u32) -> Self {
        Self::from_u64(v as u64)
    }
}

impl From<u128> for Uint {
    fn from(v: u128) -> Self {
        Self::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(Uint::zero().is_zero());
        assert!(Uint::one().is_one());
        assert!(!Uint::one().is_zero());
        assert_eq!(Uint::zero().bit_len(), 0);
        assert_eq!(Uint::one().bit_len(), 1);
        assert!(Uint::zero().is_even());
        assert!(Uint::one().is_odd());
    }

    #[test]
    fn normalization_strips_zero_limbs() {
        let u = Uint::from_limbs(vec![5, 0, 0]);
        assert_eq!(u.limbs(), &[5]);
        let z = Uint::from_limbs(vec![0, 0]);
        assert!(z.is_zero());
    }

    #[test]
    fn bit_len_across_limb_boundary() {
        assert_eq!(Uint::from_u64(u64::MAX).bit_len(), 64);
        assert_eq!(Uint::from_u128(1u128 << 64).bit_len(), 65);
        assert_eq!(Uint::from_u128(u128::MAX).bit_len(), 128);
    }

    #[test]
    fn bit_get_set() {
        let mut u = Uint::zero();
        u.set_bit(100, true);
        assert!(u.bit(100));
        assert!(!u.bit(99));
        assert_eq!(u.bit_len(), 101);
        u.set_bit(100, false);
        assert!(u.is_zero());
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(Uint::zero().trailing_zeros(), None);
        assert_eq!(Uint::one().trailing_zeros(), Some(0));
        assert_eq!(Uint::from_u128(1u128 << 77).trailing_zeros(), Some(77));
    }

    #[test]
    fn byte_round_trip() {
        let u = Uint::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        let b = u.to_bytes_be();
        assert_eq!(Uint::from_bytes_be(&b), u);
        // Leading zeros tolerated on parse.
        let mut padded = vec![0u8; 5];
        padded.extend_from_slice(&b);
        assert_eq!(Uint::from_bytes_be(&padded), u);
    }

    #[test]
    fn byte_padding() {
        let u = Uint::from_u64(0xabcd);
        let b = u.to_bytes_be_padded(4).unwrap();
        assert_eq!(b, vec![0, 0, 0xab, 0xcd]);
        assert!(u.to_bytes_be_padded(1).is_err());
        assert_eq!(Uint::zero().to_bytes_be_padded(2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn hex_round_trip() {
        for s in ["0", "1", "ff", "deadbeefcafebabe0123456789abcdef00"] {
            let u = Uint::from_hex(s).unwrap();
            assert_eq!(Uint::from_hex(&u.to_hex()).unwrap(), u);
        }
        assert_eq!(Uint::from_hex("00ff").unwrap().to_hex(), "ff");
        assert!(Uint::from_hex("").is_err());
        assert!(Uint::from_hex("xyz").is_err());
    }

    #[test]
    fn decimal_round_trip() {
        for s in [
            "0",
            "1",
            "18446744073709551616",
            "340282366920938463463374607431768211455",
        ] {
            let u = Uint::from_decimal(s).unwrap();
            assert_eq!(u.to_decimal(), s);
        }
        assert!(Uint::from_decimal("12a").is_err());
    }

    #[test]
    fn shifts() {
        let u = Uint::from_u64(1);
        assert_eq!(u.shl(64), Uint::from_u128(1u128 << 64));
        assert_eq!(u.shl(65).shr(65), u);
        assert_eq!(u.shl(3), Uint::from_u64(8));
        assert_eq!(Uint::from_u64(8).shr(3), u);
        assert_eq!(Uint::from_u64(8).shr(4), Uint::zero());
        assert_eq!(u.shl(0), u);
        assert_eq!(Uint::from_u128(u128::MAX).shr(128), Uint::zero());
    }

    #[test]
    fn small_arithmetic_helpers() {
        assert_eq!(
            Uint::from_u64(u64::MAX).add_u64(1),
            Uint::from_u128(1u128 << 64)
        );
        assert_eq!(
            Uint::from_u64(u64::MAX).mul_u64(u64::MAX),
            Uint::from_u128(u64::MAX as u128 * u64::MAX as u128)
        );
        let (q, r) = Uint::from_u128(1_000_000_000_007u128 * 3 + 2)
            .div_rem_u64(3)
            .unwrap();
        assert_eq!(q, Uint::from_u128(1_000_000_000_007));
        assert_eq!(r, 2);
        assert!(Uint::one().div_rem_u64(0).is_err());
    }

    #[test]
    fn ordering() {
        let a = Uint::from_u64(5);
        let b = Uint::from_u128(1u128 << 64);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn conversions() {
        assert_eq!(Uint::from(7u32).to_u64(), Some(7));
        assert_eq!(Uint::from_u128(u128::MAX).to_u64(), None);
        assert_eq!(Uint::from_u128(u128::MAX).to_u128(), Some(u128::MAX));
        assert_eq!(Uint::from_u128(u128::MAX).add_u64(1).to_u128(), None);
    }
}
