//! Primality testing (Miller–Rabin), random prime generation, and the
//! factors and generators of `Z*_s` for the Paillier key owner.

use std::sync::OnceLock;

use rand::RngCore;

use crate::error::BignumError;
use crate::montgomery::{inv_mod_2_64, Montgomery};
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

/// Trial division finds the factors of `s − 1` below `2^TRIAL_DIVISION_BITS`
/// ([`Uint::order_factors`]); [`Uint::generate_prime_with_large_factor`]
/// draws `s − 1 = 2·k·s′` with `k` below that bound, so only `s′` is left.
const TRIAL_DIVISION_BITS: usize = 17;

/// `⌈2^63.5⌉`, so `2^(b−½) ≤ TWO_POW_63_5_CEIL · 2^(b−64)`.
const TWO_POW_63_5_CEIL: u64 = 13_043_817_825_332_782_213;

/// The odd primes below `2^TRIAL_DIVISION_BITS`, in increasing order,
/// from a sieve built once per process: bit `i` is set when `2i + 1` is
/// composite (or 1), 8 KiB for the querier's lifetime.
fn trial_primes() -> impl Iterator<Item = u64> {
    static COMPOSITE: OnceLock<Vec<u64>> = OnceLock::new();
    let composite = COMPOSITE.get_or_init(|| {
        let odd = 1usize << (TRIAL_DIVISION_BITS - 1);
        let mut composite = vec![0u64; odd / 64];
        composite[0] = 1;
        for i in 1..odd {
            let p = 2 * i + 1;
            if p * p / 2 >= odd {
                break;
            }
            if composite[i / 64] >> (i % 64) & 1 == 0 {
                for j in (p * p / 2..odd).step_by(p) {
                    composite[j / 64] |= 1 << (j % 64);
                }
            }
        }
        composite
    });
    composite.iter().enumerate().flat_map(|(w, &word)| {
        let mut primes = !word;
        std::iter::from_fn(move || {
            (primes != 0).then(|| {
                let i = 64 * w + primes.trailing_zeros() as usize;
                primes &= primes - 1;
                2 * i as u64 + 1
            })
        })
    })
}

/// Whether the odd `d` divides the value with these limbs, by Hensel
/// (exact) division, two products a limb and no division: after the
/// last limb `value = d·Q − c·2^(64·k)` with `0 ≤ c ≤ d`, and `d` is
/// odd, so `d` divides the value exactly when it divides `c`.
fn divides(d: u64, d_inv: u64, limbs: &[u64]) -> bool {
    let mut c = 0u64;
    for &limb in limbs {
        let (x, borrow) = limb.overflowing_sub(c);
        let q = x.wrapping_mul(d_inv);
        c = ((u128::from(q) * u128::from(d)) >> 64) as u64 + u64::from(borrow);
    }
    c == 0 || c == d
}

/// Whether an odd prime below `bound` (at most `2^TRIAL_DIVISION_BITS`)
/// divides `v`, a value above `bound`.
fn has_factor_below(v: &Uint, bound: u64) -> bool {
    trial_primes()
        .take_while(|&p| p < bound)
        .any(|p| divides(p, inv_mod_2_64(p), v.limbs()))
}

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

    /// Generates a prime `s` of exactly `bits` bits whose `s − 1` the key
    /// owner can factor: `s = 2·k·s′ + 1`, with `s′` a prime of
    /// `bits − 17` bits, its top two bits set, and `k` drawn so that `s`
    /// lies in `[2^(bits−½), 2^bits)`. Then `k < 2^17`, so trial division
    /// ([`Uint::order_factors`]) finds every prime factor of `s − 1` but
    /// `s′`, and the product of two such primes has exactly the sum of
    /// their widths.
    ///
    /// `s′` passes [`Uint::is_prime`], and `s` is proven prime by
    /// Pocklington's criterion with base 2, which holds once `s′ > √s`
    /// (from 36 bits): one power where [`Uint::is_prime`] takes 40. An
    /// `s` below 36 bits takes [`Uint::is_prime`], deterministic there.
    /// A candidate `s′` above 64 bits, and every candidate `s`, is first
    /// sieved by the odd primes below `bits²/64` (at least `2^10`, at
    /// most `2^17`), which spares a modular power for about 40 % of the
    /// composites the small primes of [`Uint::is_prime`] let through at a
    /// 1024-bit `s`; the bound grows as a power's cost over a division's.
    /// On a 2-vCPU shared VM, a 2048-bit keygen's median read 1.4–2.1×
    /// that of two plain [`Uint::generate_prime`] draws without the sieve
    /// and the proof, and 0.9–1.4× with them.
    ///
    /// # Errors
    /// [`BignumError::EmptyRange`] below 20 bits;
    /// [`BignumError::PrimeGenerationFailed`] when no `k` within the
    /// iteration budget gives a prime.
    pub fn generate_prime_with_large_factor(
        rng: &mut dyn RngCore,
        bits: usize,
    ) -> Result<Uint, BignumError> {
        if bits < TRIAL_DIVISION_BITS + 3 {
            return Err(BignumError::EmptyRange);
        }
        let sieve_bound = (bits * bits / 64).clamp(1 << 10, 1 << TRIAL_DIVISION_BITS) as u64;
        let cofactor = loop {
            let mut c = Uint::random_bits_exact(rng, bits - TRIAL_DIVISION_BITS);
            c.set_bit(bits - TRIAL_DIVISION_BITS - 2, true);
            c.set_bit(0, true);
            let probable = if c.bit_len() <= 64 {
                c.is_prime(rng)
            } else {
                !has_factor_below(&c, sieve_bound) && c.is_prime(rng)
            };
            if probable {
                break c;
            }
        };
        // s = 2·k·s′ + 1 in [low, 2^bits − 1] for k in [k_low, k_high].
        let low = if bits >= 64 {
            Uint::from_u64(TWO_POW_63_5_CEIL).shl(bits - 64)
        } else {
            Uint::from_u64((TWO_POW_63_5_CEIL >> (64 - bits)) + 1)
        };
        let step = cofactor.shl(1);
        let k_low = (&(&low - &Uint::one()) + &(&step - &Uint::one()))
            .div_rem(&step)?
            .0;
        let k_high = (&Uint::one().shl(bits) - &Uint::from_u64(2))
            .div_rem(&step)?
            .0;
        let (k_low, k_high) = (
            k_low.to_u64().expect("k < 2^17"),
            k_high.to_u64().expect("k < 2^17"),
        );
        let pocklington = 2 * (cofactor.bit_len() - 1) >= bits;
        for _ in 0..40 * bits {
            let k = k_low + rng.next_u64() % (k_high - k_low + 1);
            let s = step.mul_u64(k).add_u64(1);
            if has_factor_below(&s, sieve_bound) {
                continue;
            }
            let prime = if pocklington {
                // s − 1 = 2k·s′ with s′ > √s: for the prime s′, base 2
                // proves s prime when 2^(s−1) ≡ 1 and
                // gcd(2^(2k) − 1, s) = 1.
                let ctx = Montgomery::new(s.clone())?;
                let x = ctx.pow(&Uint::from_u64(2), &Uint::from_u64(2 * k))?;
                ctx.pow(&x, &cofactor)?.is_one() && (&x - &Uint::one()).gcd(&s).is_one()
            } else {
                s.is_prime(rng)
            };
            if prime {
                return Ok(s);
            }
        }
        Err(BignumError::PrimeGenerationFailed { bits })
    }

    /// For a prime `s`, the distinct prime factors of `s − 1`, the order
    /// of `Z*_s`, smallest first: trial division below `2^17`, then a
    /// probable-prime test of the cofactor left over. `None` when that
    /// cofactor is composite: its factors are out of reach. Every prime
    /// from [`Uint::generate_prime_with_large_factor`] factors.
    pub fn order_factors(&self, rng: &mut dyn RngCore) -> Option<Vec<Uint>> {
        if self.bit_len() < 2 || self.is_even() {
            return None;
        }
        let order = self - &Uint::one();
        let twos = order.trailing_zeros()?;
        let mut rest = order.shr(twos);
        let mut factors = vec![Uint::from_u64(2)];
        for p in trial_primes() {
            // No factor below p is left, so a rest below p² is 1 or prime.
            if rest.limbs().len() == 1 && rest.limbs()[0] < p * p {
                break;
            }
            let p_inv = inv_mod_2_64(p);
            if divides(p, p_inv, rest.limbs()) {
                factors.push(Uint::from_u64(p));
                while divides(p, p_inv, rest.limbs()) {
                    rest = rest.div_rem_u64(p).expect("p != 0").0;
                }
            }
        }
        if !rest.is_one() {
            if !rest.is_prime(rng) {
                return None;
            }
            factors.push(rest);
        }
        Some(factors)
    }

    /// For a prime `s` and the distinct prime factors of `s − 1`
    /// ([`Uint::order_factors`]), the smallest generator `g ≥ 2` of
    /// `Z*_s`: the first with `g^((s−1)/ℓ) ≠ 1` for every factor `ℓ`.
    /// `None` when no `g` below `2^16` passes, which for a prime `s`
    /// and its full factorization does not happen.
    pub fn primitive_root(&self, order_factors: &[Uint]) -> Option<Uint> {
        let ctx = Montgomery::new(self.clone()).ok()?;
        let order = self - &Uint::one();
        let cofactors = order_factors
            .iter()
            .map(|l| order.div_rem(l).map(|(q, _)| q))
            .collect::<Result<Vec<_>, _>>()
            .ok()?;
        (2..1u64 << 16).map(Uint::from_u64).find(|g| {
            g < self
                && cofactors
                    .iter()
                    .all(|e| !ctx.pow(g, e).expect("valid context").is_one())
        })
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
    fn trial_primes_are_the_odd_primes_below_the_bound() {
        let primes: Vec<u64> = trial_primes().collect();
        assert_eq!(primes.len(), 12_250, "π(2^17) = 12 251, less the prime 2");
        assert_eq!(&primes[..5], [3, 5, 7, 11, 13]);
        assert_eq!(primes.last(), Some(&131_071));
        let mut r = rng();
        assert!(primes[..300]
            .iter()
            .all(|&p| Uint::from_u64(p).is_prime(&mut r)));
    }

    #[test]
    fn hensel_divisibility_matches_the_remainder() {
        let mut r = rng();
        for limbs in [1usize, 2, 4, 8, 16] {
            for _ in 0..50 {
                let v = Uint::random_below_bits(&mut r, 64 * limbs);
                for p in [3u64, 5, 7, 11, 131_071, 0xffff_ffff_ffff_ffc5] {
                    let (_, rem) = v.div_rem_u64(p).unwrap();
                    let multiple = v.mul_u64(p);
                    let inv = inv_mod_2_64(p);
                    assert_eq!(divides(p, inv, v.limbs()), rem == 0, "{v:?} mod {p}");
                    assert!(divides(p, inv, multiple.limbs()), "{multiple:?} mod {p}");
                }
            }
        }
    }

    #[test]
    fn primes_with_a_large_factor_have_their_width_and_factor() {
        let mut r = rng();
        for bits in [20usize, 32, 33, 36, 64, 65, 128, 256, 512] {
            for _ in 0..3 {
                let s = Uint::generate_prime_with_large_factor(&mut r, bits).unwrap();
                assert_eq!(s.bit_len(), bits, "bits={bits}");
                assert!(s.is_prime(&mut r), "bits={bits}");
                // s ≥ 2^(bits − ½): s² has 2·bits bits.
                assert_eq!(s.square().bit_len(), 2 * bits, "bits={bits}");
                // The factors are prime and account for all of s − 1.
                let factors = s.order_factors(&mut r).expect("s − 1 factors");
                let order = &s - &Uint::one();
                let mut rest = order.clone();
                for l in &factors {
                    assert!(l.is_prime(&mut r), "bits={bits}");
                    while rest.div_rem(l).unwrap().1.is_zero() {
                        rest = rest.div_rem(l).unwrap().0;
                    }
                }
                assert!(rest.is_one(), "bits={bits}");
                // Once s′ is above the trial bound it is the largest
                // factor: bits − 17 bits, top two set, and s − 1 = 2·k·s′
                // with k < 2^17.
                if bits - TRIAL_DIVISION_BITS > TRIAL_DIVISION_BITS {
                    let largest = factors.last().unwrap();
                    assert_eq!(largest.bit_len(), bits - TRIAL_DIVISION_BITS, "bits={bits}");
                    assert!(
                        largest.bit(bits - TRIAL_DIVISION_BITS - 2),
                        "top two bits set"
                    );
                    let (k, rem) = order.div_rem(&largest.shl(1)).unwrap();
                    assert!(rem.is_zero() && k.bit_len() <= TRIAL_DIVISION_BITS);
                }
            }
        }
        assert!(Uint::generate_prime_with_large_factor(&mut r, 19).is_err());
    }

    #[test]
    fn order_factors_of_known_primes() {
        let mut r = rng();
        let factored = |p: &Uint, r: &mut StdRng| -> Vec<u64> {
            p.order_factors(r)
                .unwrap()
                .iter()
                .map(|f| f.to_u64().unwrap())
                .collect()
        };
        for (p, want) in [
            (3u64, vec![2u64]),
            (7, vec![2, 3]),
            (11, vec![2, 5]),
            (13, vec![2, 3]),
            (65_537, vec![2]),
            (65_539, vec![2, 3, 11, 331]),
            (2_147_483_647, vec![2, 3, 7, 11, 31, 151, 331]),
        ] {
            assert_eq!(factored(&Uint::from_u64(p), &mut r), want, "p={p}");
        }
        // 2^89 − 1: the cofactor left over, 2 931 542 417, is prime.
        let m89 = &Uint::one().shl(89) - &Uint::one();
        assert_eq!(
            factored(&m89, &mut r),
            [2, 3, 5, 17, 23, 89, 353, 397, 683, 2113, 2_931_542_417]
        );
        // p − 1 = 4 · 131 101 · 131 113: the cofactor is composite and
        // every factor of it is above the trial bound.
        assert!(Uint::from_u64(68_756_181_653)
            .order_factors(&mut r)
            .is_none());
    }

    #[test]
    fn primitive_roots_of_known_primes() {
        let mut r = rng();
        for (p, root) in [
            (3u64, 2u64),
            (7, 3),
            (11, 2),
            (23, 5),
            (41, 6),
            (65_537, 3),
            (65_539, 2),
            (2_147_483_647, 7),
            (2_305_843_009_213_693_951, 37),
        ] {
            let p = Uint::from_u64(p);
            let factors = p.order_factors(&mut r).unwrap();
            assert_eq!(
                p.primitive_root(&factors),
                Some(Uint::from_u64(root)),
                "p={p:?}"
            );
        }
        let m89 = &Uint::one().shl(89) - &Uint::one();
        let factors = m89.order_factors(&mut r).unwrap();
        assert_eq!(m89.primitive_root(&factors), Some(Uint::from_u64(3)));
        // The check needs every factor: against {2} alone, 3 passes,
        // though its order modulo 41 is 8, not 40.
        let p = Uint::from_u64(41);
        assert_eq!(
            p.primitive_root(&[Uint::from_u64(2)]),
            Some(Uint::from_u64(3))
        );
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
