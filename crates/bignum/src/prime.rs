//! Primality testing (Miller–Rabin) and random prime generation.

use rand::RngCore;

use crate::error::BignumError;
use crate::montgomery::Montgomery;
use crate::uint::Uint;

/// Small primes used to pre-screen candidates before Miller–Rabin.
///
/// Trial division by these rejects ~88% of random odd composites at
/// negligible cost compared to a modular exponentiation.
const SMALL_PRIMES: &[u64] = &[
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349,
];

/// Deterministic Miller–Rabin witness set, sufficient for all `n < 2^64`
/// (Sinclair, 2011).
const DETERMINISTIC_BASES: &[u64] = &[2, 325, 9375, 28178, 450775, 9780504, 1795265022];

/// Number of random Miller–Rabin rounds for larger candidates; error
/// probability <= 4^-40.
const RANDOM_ROUNDS: usize = 40;

impl Uint {
    /// Probabilistic primality test.
    ///
    /// Deterministic for values below 2^64; otherwise small-prime trial
    /// division followed by 40 random-base Miller–Rabin rounds
    /// (error < 4⁻⁴⁰).
    pub fn is_prime(&self, rng: &mut dyn RngCore) -> bool {
        if self.bit_len() <= 1 {
            return false; // 0, 1
        }
        if let Some(v) = self.to_u64() {
            if v == 2 {
                return true;
            }
        }
        if self.is_even() {
            return false;
        }
        for &p in SMALL_PRIMES {
            let (_, r) = self.div_rem_u64(p).expect("p != 0");
            if r == 0 {
                return self.to_u64() == Some(p);
            }
        }
        let ctx = match Montgomery::new(self.clone()) {
            Ok(ctx) => ctx,
            Err(_) => return false,
        };
        let n_minus_1 = self - &Uint::one();
        let s = n_minus_1
            .trailing_zeros()
            .expect("n - 1 > 0 for odd n >= 3");
        let d = n_minus_1.shr(s);

        let passes = |base: &Uint| -> bool { miller_rabin_round(&ctx, base, &d, s, &n_minus_1) };

        if self.bit_len() <= 64 {
            DETERMINISTIC_BASES
                .iter()
                .all(|&b| passes(&Uint::from_u64(b)))
        } else {
            (0..RANDOM_ROUNDS).all(|_| {
                let base = Uint::random_range(rng, &Uint::from_u64(2), &n_minus_1)
                    .expect("n - 1 > 2 here");
                passes(&base)
            })
        }
    }

    /// Generates a random prime with exactly `bits` significant bits.
    ///
    /// # Errors
    /// Returns [`BignumError::PrimeGenerationFailed`] if no prime is found
    /// within a generous iteration budget (~40·bits candidates, far above
    /// the prime-number-theorem expectation of ~0.7·bits), and
    /// [`BignumError::EmptyRange`] for `bits < 2`.
    pub fn generate_prime(rng: &mut dyn RngCore, bits: usize) -> Result<Uint, BignumError> {
        if bits < 2 {
            return Err(BignumError::EmptyRange);
        }
        if bits == 2 {
            // Candidates are only 2 and 3; sample directly.
            return Ok(Uint::from_u64(if rng.next_u32() & 1 == 0 { 2 } else { 3 }));
        }
        let budget = 40 * bits.max(8);
        for _ in 0..budget {
            let mut candidate = Uint::random_bits_exact(rng, bits);
            candidate.set_bit(0, true); // force odd
            if candidate.is_prime(rng) {
                return Ok(candidate);
            }
        }
        Err(BignumError::PrimeGenerationFailed { bits })
    }
}

/// One Miller–Rabin round: returns `true` when `base` is *not* a witness
/// of compositeness.
fn miller_rabin_round(ctx: &Montgomery, base: &Uint, d: &Uint, s: usize, n_minus_1: &Uint) -> bool {
    let n = ctx.modulus();
    let base = base.rem_of(n).expect("modulus valid");
    if base.is_zero() || base.is_one() || &base == n_minus_1 {
        return true;
    }
    let mut x = ctx.pow(&base, d).expect("valid context");
    if x.is_one() || &x == n_minus_1 {
        return true;
    }
    for _ in 1..s {
        x = x.mod_mul(&x, n).expect("modulus != 0");
        if &x == n_minus_1 {
            return true;
        }
        if x.is_one() {
            return false; // nontrivial sqrt of 1
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    #[test]
    fn small_values() {
        let mut r = rng();
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 257, 65_537];
        let composites = [0u64, 1, 4, 6, 9, 15, 91, 341, 561, 65_535];
        for p in primes {
            assert!(Uint::from_u64(p).is_prime(&mut r), "{p} is prime");
        }
        for c in composites {
            assert!(!Uint::from_u64(c).is_prime(&mut r), "{c} is composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Fermat pseudoprimes to many bases; Miller–Rabin must catch them.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!Uint::from_u64(c).is_prime(&mut r), "{c} is Carmichael");
        }
    }

    #[test]
    fn strong_pseudoprimes_base_2_rejected() {
        let mut r = rng();
        // Strong pseudoprimes to base 2; deterministic base set must catch.
        for c in [2047u64, 3277, 4033, 4681, 8321, 15841, 29341] {
            assert!(!Uint::from_u64(c).is_prime(&mut r), "{c}");
        }
    }

    #[test]
    fn known_large_primes() {
        let mut r = rng();
        // 2^89 - 1 and 2^107 - 1 are Mersenne primes.
        for e in [89usize, 107] {
            let p = &Uint::one().shl(e) - &Uint::one();
            assert!(p.is_prime(&mut r), "2^{e} - 1");
        }
        // 2^101 - 1 is composite.
        let c = &Uint::one().shl(101) - &Uint::one();
        assert!(!c.is_prime(&mut r));
    }

    #[test]
    fn product_of_large_primes_is_composite() {
        let mut r = rng();
        let p = Uint::generate_prime(&mut r, 64).unwrap();
        let q = Uint::generate_prime(&mut r, 64).unwrap();
        assert!(!(&p * &q).is_prime(&mut r));
    }

    #[test]
    fn generate_prime_sizes() {
        let mut r = rng();
        for bits in [2usize, 3, 8, 16, 32, 64, 128, 256] {
            let p = Uint::generate_prime(&mut r, bits).unwrap();
            assert_eq!(p.bit_len(), bits, "bits={bits}");
            assert!(p.is_prime(&mut r));
        }
        assert!(Uint::generate_prime(&mut r, 1).is_err());
    }

    #[test]
    fn paillier_scale_prime() {
        // The paper uses 512-bit keys => two 256-bit primes.
        let mut r = rng();
        let p = Uint::generate_prime(&mut r, 256).unwrap();
        assert_eq!(p.bit_len(), 256);
        assert!(p.is_odd());
    }
}
