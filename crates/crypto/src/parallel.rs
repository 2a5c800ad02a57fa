//! The client-side parallel encryption engine.
//!
//! The paper's headline measurement is that client encryption dominates
//! end-to-end runtime — even over a 56 Kbps modem — and its §3.3 answer
//! (offline pools) only *moves* that cost. On a multi-core host the cost
//! can also be *divided*: index-vector encryption is embarrassingly
//! parallel (each `E(m; r)` is independent), so this module splits the
//! index vector into per-thread chunks on the client's side of the wire.
//!
//! [`ParallelEncryptor`] is a thin policy wrapper over
//! [`PaillierPublicKey::encrypt_batch_parallel`]: it pins a thread
//! count once so protocol layers can carry a single value around
//! instead of threading a knob through every call site. Determinism is
//! preserved — per-worker CSPRNG streams are seeded by drawing from the
//! caller's RNG in chunk order, so a fixed `(seed, threads)` pair
//! always produces the same ciphertext vector.

use pps_bignum::Uint;
use rand::RngCore;

use crate::error::CryptoError;
use crate::obs::EncryptMetrics;
use crate::paillier::{Ciphertext, PaillierPublicKey};

/// A public key bundled with a client-side thread-count policy.
///
/// Cheap to clone (the key is `Arc`-backed).
#[derive(Clone)]
pub struct ParallelEncryptor {
    key: PaillierPublicKey,
    threads: usize,
    metrics: Option<EncryptMetrics>,
}

impl std::fmt::Debug for ParallelEncryptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelEncryptor")
            .field("key", &self.key)
            .field("threads", &self.threads)
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

impl ParallelEncryptor {
    /// Wraps `key` with an explicit worker-thread count. `threads = 1`
    /// is the sequential engine (used by paper-fidelity figure runs).
    pub fn new(key: PaillierPublicKey, threads: usize) -> Self {
        ParallelEncryptor {
            key,
            threads: threads.max(1),
            metrics: None,
        }
    }

    /// Attaches [`EncryptMetrics`]: each worker chunk of every parallel
    /// batch records its wall time into the chunk histogram. Ciphertext
    /// output is unchanged.
    #[must_use]
    pub fn with_metrics(mut self, metrics: EncryptMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The worker-thread count this encryptor uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The key this encryptor encrypts under.
    pub fn key(&self) -> &PaillierPublicKey {
        &self.key
    }

    /// Encrypts a plaintext slice, preserving order. See
    /// [`PaillierPublicKey::encrypt_batch_parallel`].
    ///
    /// # Errors
    /// As [`PaillierPublicKey::encrypt`], on the first failing element.
    pub fn encrypt_batch(
        &self,
        ms: &[Uint],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Ciphertext>, CryptoError> {
        match &self.metrics {
            Some(metrics) => {
                let chunks = metrics.chunk_seconds.clone();
                let observe = move |elapsed: std::time::Duration| {
                    chunks.record_duration(elapsed);
                };
                self.key
                    .encrypt_batch_parallel_observed(ms, self.threads, rng, Some(&observe))
            }
            None => self.key.encrypt_batch_parallel(ms, self.threads, rng),
        }
    }

    /// Encrypts a `u64` weight slice — the protocol's index-vector
    /// shape — preserving order.
    ///
    /// # Errors
    /// As [`ParallelEncryptor::encrypt_batch`].
    pub fn encrypt_weights(
        &self,
        weights: &[u64],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Ciphertext>, CryptoError> {
        let ms: Vec<Uint> = weights.iter().map(|&w| Uint::from_u64(w)).collect();
        self.encrypt_batch(&ms, rng)
    }
}

/// Worker threads available on this host (`1` when the query fails).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paillier::PaillierKeypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> PaillierKeypair {
        let mut rng = StdRng::seed_from_u64(41);
        PaillierKeypair::generate(128, &mut rng).unwrap()
    }

    #[test]
    fn wrapper_matches_direct_call() {
        let kp = keypair();
        let enc = ParallelEncryptor::new(kp.public.clone(), 3);
        assert_eq!(enc.threads(), 3);
        let ms: Vec<Uint> = (0..20).map(Uint::from_u64).collect();
        let a = enc
            .encrypt_batch(&ms, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let b = kp
            .public
            .encrypt_batch_parallel(&ms, 3, &mut StdRng::seed_from_u64(5))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn weights_round_trip_in_order() {
        let kp = keypair();
        let enc = ParallelEncryptor::new(kp.public.clone(), host_parallelism());
        assert!(enc.threads() >= 1);
        let weights: Vec<u64> = (0..33).map(|i| i * 7).collect();
        let cts = enc
            .encrypt_weights(&weights, &mut StdRng::seed_from_u64(6))
            .unwrap();
        for (ct, &w) in cts.iter().zip(&weights) {
            assert_eq!(kp.secret.decrypt(ct).unwrap(), Uint::from_u64(w));
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let kp = keypair();
        let enc = ParallelEncryptor::new(kp.public.clone(), 0);
        assert_eq!(enc.threads(), 1);
    }

    #[test]
    fn chunk_metrics_record_without_changing_output() {
        use pps_obs::Registry;
        let kp = keypair();
        let registry = Registry::new();
        let metrics = crate::obs::EncryptMetrics::from_registry(&registry);
        let plain = ParallelEncryptor::new(kp.public.clone(), 2);
        let observed = ParallelEncryptor::new(kp.public.clone(), 2).with_metrics(metrics.clone());
        let ms: Vec<Uint> = (0..24).map(Uint::from_u64).collect();
        let a = plain
            .encrypt_batch(&ms, &mut StdRng::seed_from_u64(9))
            .unwrap();
        let b = observed
            .encrypt_batch(&ms, &mut StdRng::seed_from_u64(9))
            .unwrap();
        assert_eq!(a, b, "observer must not perturb the ciphertext stream");
        assert!(
            metrics.chunk_seconds.count() >= 1,
            "at least one chunk timing recorded"
        );
    }

    #[test]
    fn pooled_randomizers_encrypt() {
        let kp = keypair();
        let rns = kp
            .public
            .sample_randomizers_parallel(9, 2, &mut StdRng::seed_from_u64(7))
            .unwrap();
        assert_eq!(rns.len(), 9);
        for (i, rn) in rns.iter().enumerate() {
            let ct = kp
                .public
                .encrypt_with_randomizer(&Uint::from_u64(i as u64), rn)
                .unwrap();
            assert_eq!(kp.secret.decrypt(&ct).unwrap(), Uint::from_u64(i as u64));
        }
    }
}
