//! # pps-crypto
//!
//! Cryptographic primitives for the privacy-preserving statistics
//! workspace, built from scratch on [`pps_bignum`]:
//!
//! * **Paillier cryptosystem** ([`PaillierKeypair`], [`PaillierPublicKey`],
//!   [`PaillierSecretKey`], [`Ciphertext`]) — the additively homomorphic
//!   encryption scheme the paper's selected-sum protocol is built on,
//!   with `g = N+1` fast encryption and CRT-accelerated decryption;
//! * **precomputation pools** ([`BitEncryptionPool`], [`RandomizerPool`])
//!   — the paper's §3.3 offline-preprocessing optimization, with
//!   parallel fills and a non-blocking shared wrapper;
//! * **parallel client engine** ([`ParallelEncryptor`],
//!   [`PaillierPublicKey::encrypt_batch_parallel`]) — multi-core
//!   index-vector encryption with deterministic per-worker CSPRNG
//!   streams, attacking the client-side bottleneck the paper measures;
//! * **SHA-256 / HMAC / counter-mode PRG** ([`Sha256`], [`hmac_sha256`],
//!   [`CtrPrg`]) — support primitives for the garbled-circuit comparator
//!   and reproducible randomness, verified against FIPS/RFC vectors.
//!
//! # Example: the paper's homomorphic identity
//!
//! ```
//! use pps_bignum::Uint;
//! use pps_crypto::PaillierKeypair;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let kp = PaillierKeypair::generate(128, &mut rng).unwrap();
//!
//! // E(a) · E(b) = E(a + b)
//! let ea = kp.public.encrypt_u64(20, &mut rng).unwrap();
//! let eb = kp.public.encrypt_u64(22, &mut rng).unwrap();
//! let sum = kp.public.add(&ea, &eb).unwrap();
//! assert_eq!(kp.secret.decrypt(&sum).unwrap(), Uint::from_u64(42));
//!
//! // E(a)^c = E(a · c)
//! let prod = kp.public.mul_plain(&ea, &Uint::from_u64(3)).unwrap();
//! assert_eq!(kp.secret.decrypt(&prod).unwrap(), Uint::from_u64(60));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod general;
mod hmac;
mod keyio;
mod obs;
mod paillier;
mod parallel;
mod pool;
mod prg;
mod sha256;

pub use error::CryptoError;
pub use general::GeneralPaillier;
pub use hmac::{ct_eq, hmac_sha256};
pub use obs::{EncryptMetrics, PoolMetrics};
pub use paillier::{
    Ciphertext, CiphertextFold, PaillierKeypair, PaillierPublicKey, PaillierSecretKey,
    DEFAULT_KEY_BITS, MIN_KEY_BITS,
};
pub use parallel::{host_parallelism, ParallelEncryptor};
pub use pool::{BitEncryptionPool, RandomizerPool, SharedBitPool};
pub use prg::CtrPrg;
pub use sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};
