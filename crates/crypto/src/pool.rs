//! Offline precomputation pools — the paper's §3.3 optimization.
//!
//! The client's bottleneck is the randomizer `r^N mod N²` inside each
//! index encryption. §3.3 observes the client can do this *offline*: even
//! before knowing which indices will be 0 and which 1, it encrypts "a
//! large number of 0s and a large number of 1s to use later", then the
//! online phase is a table lookup. The paper measures an ≈82 % reduction
//! in online runtime over the short-distance link.
//!
//! Two pool flavors are provided:
//!
//! * [`BitEncryptionPool`] — precomputed `E(0)`/`E(1)` ciphertexts,
//!   exactly the paper's scheme;
//! * [`RandomizerPool`] — precomputed `r^N` factors, which can encrypt
//!   *any* plaintext online at the cost of one cheap multiplication
//!   (a generalization useful for weighted queries).
//!
//! Both fill through the querier's own batch encryption,
//! [`PaillierKeypair::encrypt_batch_parallel`], so a fill costs what
//! encrypting the same vector online costs. A zero's ciphertext
//! `E(0; r) = r^N mod N²` is its randomizer, so the randomizer pool
//! fills with encryptions of zero.

use std::collections::VecDeque;

use pps_bignum::Uint;
use rand::RngCore;

use crate::error::CryptoError;
use crate::paillier::{Ciphertext, PaillierKeypair, PaillierPublicKey};

/// Refuses to fill a pool bound to `key` from another key's keypair.
fn check_key(key: &PaillierPublicKey, keypair: &PaillierKeypair) -> Result<(), CryptoError> {
    if &keypair.public != key {
        return Err(CryptoError::KeyMismatch);
    }
    Ok(())
}

/// Pool of precomputed encryptions of the bits 0 and 1.
pub struct BitEncryptionPool {
    key: PaillierPublicKey,
    zeros: VecDeque<Ciphertext>,
    ones: VecDeque<Ciphertext>,
}

impl BitEncryptionPool {
    /// Creates an empty pool bound to `key`.
    pub fn new(key: PaillierPublicKey) -> Self {
        BitEncryptionPool {
            key,
            zeros: VecDeque::new(),
            ones: VecDeque::new(),
        }
    }

    /// Precomputes `n_zeros` encryptions of 0, then `n_ones` of 1 (the
    /// offline phase), each batch through
    /// [`PaillierKeypair::encrypt_batch_parallel`] on up to `threads`
    /// workers.
    ///
    /// # Errors
    /// [`CryptoError::KeyMismatch`] when `keypair` is not the pool's key;
    /// otherwise propagates encryption errors.
    pub fn fill(
        &mut self,
        keypair: &PaillierKeypair,
        n_zeros: usize,
        n_ones: usize,
        threads: usize,
        rng: &mut dyn RngCore,
    ) -> Result<(), CryptoError> {
        check_key(&self.key, keypair)?;
        let zeros = keypair.encrypt_batch_parallel(&vec![Uint::zero(); n_zeros], threads, rng)?;
        let ones = keypair.encrypt_batch_parallel(&vec![Uint::one(); n_ones], threads, rng)?;
        self.zeros.extend(zeros);
        self.ones.extend(ones);
        Ok(())
    }

    /// Takes a precomputed encryption of `bit` (the online phase).
    ///
    /// # Errors
    /// [`CryptoError::PoolExhausted`] when the respective pool is empty.
    pub fn take(&mut self, bit: bool) -> Result<Ciphertext, CryptoError> {
        let (queue, name) = if bit {
            (&mut self.ones, "one")
        } else {
            (&mut self.zeros, "zero")
        };
        queue
            .pop_front()
            .ok_or(CryptoError::PoolExhausted { pool: name })
    }

    /// Remaining `(zeros, ones)` counts.
    pub fn remaining(&self) -> (usize, usize) {
        (self.zeros.len(), self.ones.len())
    }
}

/// Pool of precomputed `r^N mod N²` factors; each encrypts one arbitrary
/// plaintext online with a single modular multiplication.
pub struct RandomizerPool {
    key: PaillierPublicKey,
    randomizers: VecDeque<Uint>,
}

impl RandomizerPool {
    /// Creates an empty pool bound to `key`.
    pub fn new(key: PaillierPublicKey) -> Self {
        RandomizerPool {
            key,
            randomizers: VecDeque::new(),
        }
    }

    /// Precomputes `count` randomizer factors (the offline phase): the
    /// encryptions of `count` zeros through
    /// [`PaillierKeypair::encrypt_batch_parallel`] on up to `threads`
    /// workers.
    ///
    /// # Errors
    /// [`CryptoError::KeyMismatch`] when `keypair` is not the pool's key;
    /// otherwise propagates encryption errors.
    pub fn fill(
        &mut self,
        keypair: &PaillierKeypair,
        count: usize,
        threads: usize,
        rng: &mut dyn RngCore,
    ) -> Result<(), CryptoError> {
        check_key(&self.key, keypair)?;
        let zeros = keypair.encrypt_batch_parallel(&vec![Uint::zero(); count], threads, rng)?;
        self.randomizers.extend(zeros.into_iter().map(|ct| ct.0));
        Ok(())
    }

    /// Encrypts `m` using one pooled randomizer (cheap online phase).
    ///
    /// # Errors
    /// [`CryptoError::PoolExhausted`] when empty;
    /// [`CryptoError::PlaintextOutOfRange`] when `m >= N`.
    pub fn encrypt(&mut self, m: &Uint) -> Result<Ciphertext, CryptoError> {
        let rn = self
            .randomizers
            .pop_front()
            .ok_or(CryptoError::PoolExhausted { pool: "randomizer" })?;
        self.key.encrypt_with_randomizer(m, &rn)
    }

    /// Remaining randomizer count.
    pub fn remaining(&self) -> usize {
        self.randomizers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> PaillierKeypair {
        let mut rng = StdRng::seed_from_u64(31);
        PaillierKeypair::generate(128, &mut rng).unwrap()
    }

    #[test]
    fn bit_pool_decrypts_correctly() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(32);
        let mut pool = BitEncryptionPool::new(kp.public.clone());
        pool.fill(&kp, 3, 3, 1, &mut rng).unwrap();
        assert_eq!(pool.remaining(), (3, 3));
        let z = pool.take(false).unwrap();
        let o = pool.take(true).unwrap();
        assert_eq!(kp.secret.decrypt(&z).unwrap(), Uint::zero());
        assert_eq!(kp.secret.decrypt(&o).unwrap(), Uint::one());
        assert_eq!(pool.remaining(), (2, 2));
    }

    #[test]
    fn bit_pool_exhaustion() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(33);
        let mut pool = BitEncryptionPool::new(kp.public.clone());
        pool.fill(&kp, 1, 0, 1, &mut rng).unwrap();
        assert!(pool.take(false).is_ok());
        assert!(matches!(
            pool.take(false),
            Err(CryptoError::PoolExhausted { pool: "zero" })
        ));
        assert!(matches!(
            pool.take(true),
            Err(CryptoError::PoolExhausted { pool: "one" })
        ));
    }

    #[test]
    fn pooled_ciphertexts_are_distinct() {
        // Each pooled E(1) must carry fresh randomness or the server
        // could link repeated selections.
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(34);
        let mut pool = BitEncryptionPool::new(kp.public.clone());
        pool.fill(&kp, 0, 10, 1, &mut rng).unwrap();
        let mut seen = Vec::new();
        for _ in 0..10 {
            let c = pool.take(true).unwrap();
            assert!(!seen.contains(&c));
            seen.push(c);
        }
    }

    #[test]
    fn randomizer_pool_encrypts_arbitrary_values() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(35);
        let mut pool = RandomizerPool::new(kp.public.clone());
        pool.fill(&kp, 4, 1, &mut rng).unwrap();
        for m in [0u64, 7, 123_456, u32::MAX as u64] {
            let ct = pool.encrypt(&Uint::from_u64(m)).unwrap();
            assert_eq!(kp.secret.decrypt(&ct).unwrap(), Uint::from_u64(m));
        }
        assert!(matches!(
            pool.encrypt(&Uint::zero()),
            Err(CryptoError::PoolExhausted { .. })
        ));
    }

    #[test]
    fn fill_parallel_decrypts_correctly_any_thread_count() {
        // No pool draws the public `r^N`: at every thread count a fill
        // holds, bit for bit, what the keypair's batch returns for the
        // same plaintexts and seed.
        let kp = keypair();
        for threads in [0usize, 1, 2, 3, 8] {
            let seed = 40 + threads as u64;
            let mut pool = BitEncryptionPool::new(kp.public.clone());
            pool.fill(&kp, 5, 7, threads, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            assert_eq!(pool.remaining(), (5, 7));
            let mut rng = StdRng::seed_from_u64(seed);
            for (bit, len) in [(false, 5), (true, 7)] {
                let m = Uint::from_u64(bit.into());
                let want = kp
                    .encrypt_batch_parallel(&vec![m.clone(); len], threads, &mut rng)
                    .unwrap();
                for ct in &want {
                    let got = pool.take(bit).unwrap();
                    assert_eq!(&got, ct, "threads={threads}");
                    assert_eq!(kp.secret.decrypt(&got).unwrap(), m);
                }
            }
        }
    }

    #[test]
    fn randomizer_fill_parallel_encrypts() {
        let kp = keypair();
        for threads in [0usize, 1, 4] {
            let seed = 50 + threads as u64;
            let mut pool = RandomizerPool::new(kp.public.clone());
            pool.fill(&kp, 6, threads, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            assert_eq!(pool.remaining(), 6);
            let mut rng = StdRng::seed_from_u64(seed);
            let zeros = kp
                .encrypt_batch_parallel(&vec![Uint::zero(); 6], threads, &mut rng)
                .unwrap();
            for (m, zero) in (0..6u64).map(Uint::from_u64).zip(&zeros) {
                // E(m; r) = E(0; r)·(1 + mN): each pooled factor is the
                // keypair's encryption of zero from the same seed.
                let ct = pool.encrypt(&m).unwrap();
                assert_eq!(
                    ct,
                    kp.public.add_plain(zero, &m).unwrap(),
                    "threads={threads}"
                );
                assert_eq!(kp.secret.decrypt(&ct).unwrap(), m);
            }
        }
    }

    #[test]
    fn fill_under_another_key_is_refused() {
        let kp = keypair();
        let other = PaillierKeypair::generate(128, &mut StdRng::seed_from_u64(36)).unwrap();
        let mut rng = StdRng::seed_from_u64(37);
        let mut bits = BitEncryptionPool::new(kp.public.clone());
        let mut randomizers = RandomizerPool::new(kp.public.clone());
        assert_eq!(
            bits.fill(&other, 1, 1, 1, &mut rng).unwrap_err(),
            CryptoError::KeyMismatch
        );
        assert_eq!(
            randomizers.fill(&other, 1, 1, &mut rng).unwrap_err(),
            CryptoError::KeyMismatch
        );
        assert_eq!((bits.remaining(), randomizers.remaining()), ((0, 0), 0));
    }
}
