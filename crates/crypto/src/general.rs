//! Textbook Paillier with an arbitrary generator `g` — the scheme exactly
//! as published (EUROCRYPT '99), kept alongside the optimized `g = N + 1`
//! implementation in [`crate::paillier`] for two reasons:
//!
//! 1. **Cross-validation**: both schemes share a key structure; tests
//!    check that a general-`g` instance with `g = N + 1` produces
//!    ciphertexts the optimized decoder decrypts identically, and that
//!    homomorphic identities hold for random valid `g`.
//! 2. **Ablation**: the `g = N + 1` simplification replaces a full-width
//!    `g^m mod N²` exponentiation with one multiplication. The ablation
//!    bench (`cargo bench -p pps-bench`) quantifies what the paper's
//!    implementation gained by it.

use pps_bignum::{Montgomery, Uint};
use rand::RngCore;

use crate::error::CryptoError;
use crate::paillier::Ciphertext;

/// A textbook Paillier keypair with explicit generator `g`.
pub struct GeneralPaillier {
    /// Modulus `N = p·q`.
    n: Uint,
    /// `N²`.
    n_squared: Uint,
    /// Montgomery context over `N²`.
    mont: Montgomery,
    /// The generator `g ∈ Z*_{N²}`.
    g: Uint,
    /// `λ = lcm(p−1, q−1)`.
    lambda: Uint,
    /// `μ = L(g^λ mod N²)⁻¹ mod N`.
    mu: Uint,
}

impl GeneralPaillier {
    /// Builds an instance from primes `p`, `q` and generator `g`.
    ///
    /// # Errors
    /// [`CryptoError::KeyGeneration`] when `g` is not a valid generator
    /// (i.e. `L(g^λ)` is not invertible mod `N`) or the primes are bad.
    pub fn from_primes_and_g(p: Uint, q: Uint, g: Uint) -> Result<Self, CryptoError> {
        if p == q {
            return Err(CryptoError::KeyGeneration("p == q".into()));
        }
        let n = &p * &q;
        let n_squared = n.square();
        if g.is_zero() || g >= n_squared || !g.gcd(&n_squared).is_one() {
            return Err(CryptoError::KeyGeneration("g not in Z*_{N²}".into()));
        }
        let mont = Montgomery::new(n_squared.clone())
            .map_err(|e| CryptoError::KeyGeneration(e.to_string()))?;
        let p1 = &p - &Uint::one();
        let q1 = &q - &Uint::one();
        let lambda = p1.lcm(&q1);
        let g_lambda = mont.pow(&g, &lambda)?;
        let l = l_function(&g_lambda, &n)?;
        let mu = l
            .mod_inverse(&n)
            .map_err(|_| CryptoError::KeyGeneration("g has wrong order".into()))?;
        Ok(GeneralPaillier {
            n,
            n_squared,
            mont,
            g,
            lambda,
            mu,
        })
    }

    /// Generates an instance with a *random* valid generator: draws
    /// `g ∈ Z*_{N²}` until `L(g^λ)` is invertible (almost always on the
    /// first try).
    ///
    /// # Errors
    /// [`CryptoError::KeyGeneration`] on repeated failures.
    pub fn generate(modulus_bits: usize, rng: &mut dyn RngCore) -> Result<Self, CryptoError> {
        let half = modulus_bits / 2;
        for _ in 0..16 {
            let p = Uint::generate_prime(rng, half)
                .map_err(|e| CryptoError::KeyGeneration(e.to_string()))?;
            let q = Uint::generate_prime(rng, modulus_bits - half)
                .map_err(|e| CryptoError::KeyGeneration(e.to_string()))?;
            if p == q {
                continue;
            }
            let n = &p * &q;
            let n_squared = n.square();
            let g = Uint::random_coprime(rng, &n_squared)?;
            match Self::from_primes_and_g(p, q, g) {
                Ok(kp) => return Ok(kp),
                Err(_) => continue,
            }
        }
        Err(CryptoError::KeyGeneration(
            "no valid (p, q, g) found".into(),
        ))
    }

    /// The modulus `N`.
    pub fn n(&self) -> &Uint {
        &self.n
    }

    /// The generator.
    pub fn g(&self) -> &Uint {
        &self.g
    }

    /// Textbook encryption: `c = g^m · r^N mod N²` — *two* full-width
    /// exponentiations (vs one for `g = N + 1`).
    ///
    /// # Errors
    /// [`CryptoError::PlaintextOutOfRange`] for `m >= N`.
    pub fn encrypt(&self, m: &Uint, rng: &mut dyn RngCore) -> Result<Ciphertext, CryptoError> {
        if m >= &self.n {
            return Err(CryptoError::PlaintextOutOfRange);
        }
        let r = Uint::random_coprime(rng, &self.n)?;
        let gm = self.mont.pow(&self.g, m)?;
        let rn = self.mont.pow(&r, &self.n)?;
        Ok(Ciphertext::from_raw_unchecked(
            gm.mod_mul(&rn, &self.n_squared)?,
        ))
    }

    /// Textbook decryption: `m = L(c^λ mod N²) · μ mod N`.
    ///
    /// # Errors
    /// [`CryptoError::InvalidCiphertext`] for values outside `Z*_{N²}`.
    pub fn decrypt(&self, c: &Ciphertext) -> Result<Uint, CryptoError> {
        let c_lambda = self.mont.pow(c.raw(), &self.lambda)?;
        let l = l_function(&c_lambda, &self.n)?;
        Ok(l.mod_mul(&self.mu, &self.n)?)
    }

    /// Homomorphic addition (same operation as the optimized scheme).
    ///
    /// # Errors
    /// Propagates bignum errors.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, CryptoError> {
        Ok(Ciphertext::from_raw_unchecked(
            a.raw().mod_mul(b.raw(), &self.n_squared)?,
        ))
    }
}

/// `L(u) = (u − 1) / d` for `u ≡ 1 (mod d)`.
fn l_function(u: &Uint, d: &Uint) -> Result<Uint, CryptoError> {
    let minus1 = u
        .checked_sub(&Uint::one())
        .map_err(|_| CryptoError::InvalidCiphertext("L input is zero"))?;
    let (quot, rem) = minus1.div_rem(d)?;
    if !rem.is_zero() {
        return Err(CryptoError::InvalidCiphertext("L input not ≡ 1 mod d"));
    }
    Ok(quot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paillier::PaillierKeypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(808)
    }

    #[test]
    fn random_g_round_trip() {
        let mut r = rng();
        let kp = GeneralPaillier::generate(128, &mut r).unwrap();
        for m in [0u64, 1, 424_242, u32::MAX as u64] {
            let ct = kp.encrypt(&Uint::from_u64(m), &mut r).unwrap();
            assert_eq!(kp.decrypt(&ct).unwrap(), Uint::from_u64(m), "m={m}");
        }
    }

    #[test]
    fn random_g_homomorphism() {
        let mut r = rng();
        let kp = GeneralPaillier::generate(128, &mut r).unwrap();
        let a = kp.encrypt(&Uint::from_u64(1000), &mut r).unwrap();
        let b = kp.encrypt(&Uint::from_u64(337), &mut r).unwrap();
        let s = kp.add(&a, &b).unwrap();
        assert_eq!(kp.decrypt(&s).unwrap(), Uint::from_u64(1337));
    }

    #[test]
    fn g_equals_n_plus_1_matches_optimized_scheme() {
        // Same primes, g = N + 1: the optimized secret key must decrypt
        // general-scheme ciphertexts and vice versa.
        let mut r = rng();
        let p = Uint::generate_prime_with_large_factor(&mut r, 64).unwrap();
        let q = Uint::generate_prime_with_large_factor(&mut r, 64).unwrap();
        let optimized = PaillierKeypair::from_primes(p.clone(), q.clone()).unwrap();
        let n = &p * &q;
        let general = GeneralPaillier::from_primes_and_g(p, q, n.add_u64(1)).unwrap();

        let m = Uint::from_u64(987_654_321);
        let ct_general = general.encrypt(&m, &mut r).unwrap();
        assert_eq!(optimized.secret.decrypt(&ct_general).unwrap(), m);

        let ct_optimized = optimized.public.encrypt(&m, &mut r).unwrap();
        assert_eq!(general.decrypt(&ct_optimized).unwrap(), m);
    }

    #[test]
    fn invalid_g_rejected() {
        let mut r = rng();
        let p = Uint::generate_prime(&mut r, 32).unwrap();
        let q = Uint::generate_prime(&mut r, 32).unwrap();
        assert!(GeneralPaillier::from_primes_and_g(p.clone(), q.clone(), Uint::zero()).is_err());
        // g = N shares a factor with N².
        let n = &p * &q;
        assert!(GeneralPaillier::from_primes_and_g(p.clone(), q.clone(), n).is_err());
        // g = 1 has order 1: L(1) = 0 is not invertible.
        assert!(GeneralPaillier::from_primes_and_g(p, q, Uint::one()).is_err());
    }

    #[test]
    fn cross_scheme_homomorphic_mix() {
        // Ciphertexts from both schemes (same key material, g = N+1 vs
        // optimized) can be multiplied together and still decrypt to the
        // sum — they are literally the same group.
        let mut r = rng();
        let p = Uint::generate_prime_with_large_factor(&mut r, 64).unwrap();
        let q = Uint::generate_prime_with_large_factor(&mut r, 64).unwrap();
        let optimized = PaillierKeypair::from_primes(p.clone(), q.clone()).unwrap();
        let n = &p * &q;
        let general = GeneralPaillier::from_primes_and_g(p, q, n.add_u64(1)).unwrap();

        let a = general.encrypt(&Uint::from_u64(40), &mut r).unwrap();
        let b = optimized.public.encrypt_u64(2, &mut r).unwrap();
        let s = optimized.public.add(&a, &b).unwrap();
        assert_eq!(optimized.secret.decrypt(&s).unwrap(), Uint::from_u64(42));
    }
}
