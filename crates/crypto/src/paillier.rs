//! The Paillier cryptosystem (Paillier, EUROCRYPT '99), as used by the
//! paper's private selected-sum protocol.
//!
//! We use the standard `g = N + 1` simplification, under which encryption
//! is `E(m; r) = (1 + mN) · r^N mod N²` — one full-width modular
//! exponentiation (`r^N`) per encryption, which is exactly the cost the
//! paper identifies as the client-side bottleneck.
//!
//! Homomorphic properties (all modulo `N²`):
//!
//! * `E(a) · E(b)     = E(a + b)`
//! * `E(a)^k          = E(a · k)`  for `k ∈ N`
//!
//! Decryption uses the CRT over `p²`/`q²`, roughly 4× faster than the
//! direct `L(c^λ mod N²)·μ mod N` form; both are implemented and tested
//! against each other.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pps_bignum::{
    BignumError, Crt2, FixedBaseComb, FixedExponentPlan, Montgomery, SessionFold, Uint,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::error::CryptoError;

/// Below this many plaintexts per worker the thread-spawn overhead
/// outweighs the parallel win (one 512-bit encryption is ~10⁵ ns; a
/// thread spawn is ~10⁴ ns, so even small chunks amortize, but chunks
/// of 1–3 just shuffle cache lines around).
const MIN_ENCRYPTIONS_PER_THREAD: usize = 4;

/// Derives one independent CSPRNG per worker chunk from the caller's
/// RNG by *stream splitting*: a fresh 256-bit seed is drawn from the
/// caller for each chunk, in chunk order. Deterministic — the same
/// caller RNG state and chunk count always yield the same seeds — and
/// forward-secure as long as the caller's RNG is itself a CSPRNG
/// (the workspace's `StdRng` is ChaCha12).
fn split_rng_streams(rng: &mut dyn RngCore, chunks: usize) -> Vec<StdRng> {
    (0..chunks)
        .map(|_| {
            let mut seed = [0u8; 32];
            rng.fill_bytes(&mut seed);
            StdRng::from_seed(seed)
        })
        .collect()
}

/// Draws one `r^N mod N²` randomizer from the given stream.
pub(crate) type Sampler<'a> = dyn Fn(&mut dyn RngCore) -> Result<Uint, CryptoError> + Sync + 'a;

/// One chunk of a parallel batch: its index range and its own stream.
type ChunkWork<'a, T> =
    dyn Fn(Range<usize>, &mut StdRng) -> Result<Vec<T>, CryptoError> + Sync + 'a;

/// Runs `work` over `len` items in the deterministic layout behind every
/// parallel batch: up to `threads` contiguous chunks (fewer when a chunk
/// would hold under [`MIN_ENCRYPTIONS_PER_THREAD`] items), each with its
/// own stream-split CSPRNG, spread over at most
/// [`crate::host_parallelism`] scoped workers. `on_chunk`, when given,
/// receives each chunk's wall time. Results come back in input order.
///
/// Seeds are drawn per *chunk*, before any spawning, so the output
/// depends only on (rng state, threads, len), never on scheduling or on
/// how many OS threads actually run. Spawning more workers than cores
/// used to *lose* to the sequential path (oversubscribed workers fight
/// for the same cores), so surplus chunks run on the existing workers,
/// in chunk order.
fn run_chunked<T: Send>(
    len: usize,
    threads: usize,
    rng: &mut dyn RngCore,
    on_chunk: Option<&(dyn Fn(Duration) + Sync)>,
    work: &ChunkWork<'_, T>,
) -> Result<Vec<T>, CryptoError> {
    let wanted = threads.max(1).min(len / MIN_ENCRYPTIONS_PER_THREAD).max(1);
    let chunk = len.div_ceil(wanted).max(1);
    let ranges: Vec<Range<usize>> = (0..len)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(len))
        .collect();
    let mut streams = split_rng_streams(rng, ranges.len());
    let timed = |range: &Range<usize>, stream: &mut StdRng| {
        let start = Instant::now();
        let result = work(range.clone(), stream);
        if let Some(observe) = on_chunk {
            observe(start.elapsed());
        }
        result
    };
    let workers = ranges.len().min(crate::parallel::host_parallelism());
    let groups: Vec<Result<Vec<Vec<T>>, CryptoError>> = if workers <= 1 {
        vec![ranges
            .iter()
            .zip(streams.iter_mut())
            .map(|(r, s)| timed(r, s))
            .collect()]
    } else {
        let timed = &timed;
        let per_worker = ranges.len().div_ceil(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .chunks(per_worker)
                .zip(streams.chunks_mut(per_worker))
                .map(|(group, group_streams)| {
                    s.spawn(move || {
                        group
                            .iter()
                            .zip(group_streams.iter_mut())
                            .map(|(r, stream)| timed(r, stream))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("encryption worker panicked"))
                .collect()
        })
    };
    let mut out = Vec::with_capacity(len);
    for group in groups {
        for part in group? {
            out.extend(part);
        }
    }
    Ok(out)
}

/// Smallest supported modulus size. 512 matches the paper; anything below
/// 64 breaks the message-space assumptions of the protocol layer.
pub const MIN_KEY_BITS: usize = 64;

/// Table memory the key owner's randomizer combs may hold, both primes
/// together: the most teeth whose `2^t` operands modulo `s²` fit half of
/// it, 8 at a 512-bit key (2 × 256 operands of 64 bytes) and 6 at 2048
/// bits. Two tables of 8 teeth per prime would buy ≈ 15 % more
/// encryption speed for twice the bytes (DESIGN.md, the key-owner
/// randomizer).
const COMB_BUDGET_BYTES: usize = 32 * 1024;

/// Default modulus size for non-reproduction use.
///
/// The paper's 512-bit keys are far below modern security margins; repro
/// harnesses pin 512 explicitly.
pub const DEFAULT_KEY_BITS: usize = 2048;

/// A Paillier public key: the modulus `N` plus precomputed contexts.
///
/// Cheap to clone (`Arc` internals); clones share the precomputed
/// Montgomery context for `N²`.
#[derive(Clone)]
pub struct PaillierPublicKey {
    inner: Arc<PublicInner>,
}

struct PublicInner {
    /// The modulus `N = p·q`.
    n: Uint,
    /// `N²`, the ciphertext modulus.
    n_squared: Uint,
    /// Montgomery context over `N²` for encryption and homomorphic ops.
    mont: Montgomery,
    /// Montgomery context over `N` for the batch check
    /// ([`PaillierPublicKey::validate_batch`]).
    mont_n: Montgomery,
    /// `N/2`, cached for signed decoding.
    half_n: Uint,
    /// The window recoding of the fixed exponent `N`, paid once per key
    /// and reused by every `r^N` randomizer sampling (and so by every
    /// pool fill) instead of re-scanning `N`'s bits per call.
    n_plan: FixedExponentPlan,
}

/// A Paillier ciphertext: an element of `Z*_{N²}`.
///
/// The wrapped value is kept in ordinary (non-Montgomery) form so that
/// ciphertexts are directly serializable.
#[derive(Clone, PartialEq, Eq)]
pub struct Ciphertext(pub(crate) Uint);

/// A Paillier secret key, with CRT acceleration state.
pub struct PaillierSecretKey {
    /// `λ = lcm(p-1, q-1)` — kept for the reference (non-CRT) decryption.
    lambda: Uint,
    /// `μ = (L(g^λ mod N²))⁻¹ mod N` — reference decryption.
    mu: Uint,
    /// Per-prime state for `p` and `q`, in that order.
    factors: [PrimeFactor; 2],
    /// CRT recombination over (p, q), for decryption.
    crt: Crt2,
    /// CRT recombination over (p², q²), for the randomizer.
    crt_squares: Crt2,
    /// The matching public key.
    public: PaillierPublicKey,
}

/// What the key owner precomputes for one prime factor `s` of `N`: CRT
/// decryption works modulo `s²`, and so does the randomizer sampler.
///
/// The sampler draws `s`'s half of `r^N mod N²`. For `r` uniform in
/// `Z*_N`, `r^N mod s²` is uniform on the subgroup `H_s` of order
/// `s − 1` of `Z*_{s²}`, the image of `x ↦ x^N` (onto, as
/// `gcd(N, φ(N)) = 1`). `H_s` is cyclic and `h_s = γ^s mod s²`
/// generates it for a generator `γ` of `Z*_s`, so `h_s^α` for `α`
/// uniform in `[0, s − 1)` has exactly the same distribution.
struct PrimeFactor {
    /// The prime `s`.
    prime: Uint,
    /// `s − 1`, the order of `H_s`.
    order: Uint,
    /// Montgomery context over `s²`.
    mont_s2: Montgomery,
    /// `h = L_s(g^{s-1} mod s²)⁻¹ mod s`, for `g = N + 1`.
    h: Uint,
    /// The comb of `h_s`, the generator of `H_s`.
    comb: FixedBaseComb,
}

impl PrimeFactor {
    /// The state for the prime `s`, with the Paillier generator `g` and a
    /// comb table of at most `comb_budget` bytes. The factors of `s − 1`
    /// that find `γ` are recovered here ([`Uint::order_factors`]), for
    /// generated and imported keys alike.
    ///
    /// # Errors
    /// [`CryptoError::KeyGeneration`] when `s − 1` leaves a composite
    /// cofactor after trial division, as a prime drawn before keygen drew
    /// `s = 2·k·s′ + 1` may: such a key must be re-keyed.
    fn new(s: &Uint, g: &Uint, comb_budget: usize) -> Result<Self, CryptoError> {
        let order = s - &Uint::one();
        let mont_s2 = Montgomery::new(s.square()).map_err(keygen_error)?;
        let gs = mont_s2.pow(g, &order)?;
        let h = l_function(&gs, s)?
            .mod_inverse(s)
            .map_err(|_| CryptoError::KeyGeneration("no CRT decryption constant".into()))?;
        let unfactored = || {
            CryptoError::KeyGeneration(format!(
                "for the {}-bit prime s, s − 1 leaves a composite cofactor after trial \
                 division below 2^17; re-key with `pps keygen`",
                s.bit_len()
            ))
        };
        // Random Miller–Rabin bases for the cofactor, as on key import.
        let factors = s
            .order_factors(&mut StdRng::from_entropy())
            .ok_or_else(unfactored)?;
        let gamma = s.primitive_root(&factors).ok_or_else(unfactored)?;
        let base = mont_s2.pow(&gamma, s)?;
        let comb = FixedBaseComb::new(&mont_s2, &base, order.bit_len(), comb_budget);
        Ok(PrimeFactor {
            prime: s.clone(),
            order,
            mont_s2,
            h,
            comb,
        })
    }

    /// `m mod s` for the ciphertext `c`: `L_s(c^{s-1} mod s²)·h mod s`.
    fn decrypt(&self, c: &Uint) -> Result<Uint, CryptoError> {
        let cs = self.mont_s2.pow(c, &self.order)?;
        Ok(l_function(&cs, &self.prime)?.mod_mul(&self.h, &self.prime)?)
    }

    /// `h_s^α mod s²` for a fresh `α` uniform in `[0, s − 1)`: `s`'s half
    /// of a randomizer.
    fn sample(&self, rng: &mut dyn RngCore) -> Result<Uint, CryptoError> {
        let alpha = Uint::random_below(rng, &self.order)?;
        Ok(self.comb.pow(&alpha)?)
    }
}

/// A freshly generated Paillier keypair.
pub struct PaillierKeypair {
    /// The public (encryption) key.
    pub public: PaillierPublicKey,
    /// The secret (decryption) key.
    pub secret: PaillierSecretKey,
}

impl PaillierKeypair {
    /// Generates a keypair whose modulus `N` has `modulus_bits` bits.
    ///
    /// The paper's experiments use `modulus_bits = 512`.
    ///
    /// # Errors
    /// [`CryptoError::KeyTooSmall`] below [`MIN_KEY_BITS`];
    /// [`CryptoError::KeyGeneration`] if prime generation fails.
    pub fn generate(modulus_bits: usize, rng: &mut dyn RngCore) -> Result<Self, CryptoError> {
        if modulus_bits < MIN_KEY_BITS {
            return Err(CryptoError::KeyTooSmall {
                bits: modulus_bits,
                min_bits: MIN_KEY_BITS,
            });
        }
        let half = modulus_bits / 2;
        loop {
            // Each prime lies in [2^(b−½), 2^b), so N has exactly the
            // requested width: "512-bit keys" means 512 bits on the wire.
            let p = Uint::generate_prime_with_large_factor(rng, half).map_err(keygen_error)?;
            let q = Uint::generate_prime_with_large_factor(rng, modulus_bits - half)
                .map_err(keygen_error)?;
            if p == q {
                continue;
            }
            let n = &p * &q;
            debug_assert_eq!(n.bit_len(), modulus_bits);
            // gcd(N, (p-1)(q-1)) == 1 is required for decryption and for
            // the randomizer's distribution; retry on the (rare)
            // violating pair.
            let p1 = &p - &Uint::one();
            let q1 = &q - &Uint::one();
            if !n.gcd(&(&p1 * &q1)).is_one() {
                continue;
            }
            return Self::from_primes(p, q);
        }
    }

    /// Builds a keypair from two distinct primes (used by tests with tiny
    /// fixed primes, by `generate`, and by key import, which checks
    /// primality first). Primality is not checked here:
    /// [`PaillierKeypair::encrypt`] is correct only for prime factors.
    ///
    /// # Errors
    /// [`CryptoError::KeyGeneration`] when the primes are equal, violate
    /// the `gcd(N, λ) = 1` requirement, or one's `s − 1` does not factor
    /// by trial division below `2^17` and one prime (primes from
    /// [`PaillierKeypair::generate`] always do).
    pub fn from_primes(p: Uint, q: Uint) -> Result<Self, CryptoError> {
        if p == q {
            return Err(CryptoError::KeyGeneration("p == q".into()));
        }
        let n = &p * &q;
        let n_squared = n.square();
        let mont = Montgomery::new(n_squared.clone()).map_err(keygen_error)?;
        let mont_n = Montgomery::new(n.clone()).map_err(keygen_error)?;
        let half_n = n.shr(1);
        let n_plan = FixedExponentPlan::new(&n);
        let public = PaillierPublicKey {
            inner: Arc::new(PublicInner {
                n: n.clone(),
                n_squared,
                mont,
                mont_n,
                half_n,
                n_plan,
            }),
        };

        let p1 = &p - &Uint::one();
        let q1 = &q - &Uint::one();
        let lambda = p1.lcm(&q1);

        // Reference decryption constants: μ = L(g^λ mod N²)^-1 mod N.
        let g_lambda = public.pow_g(&lambda)?;
        let mu = l_function(&g_lambda, &n)?
            .mod_inverse(&n)
            .map_err(|_| CryptoError::KeyGeneration("gcd(N, λ) != 1".into()))?;

        // CRT decryption constants and the randomizer combs.
        let g = n.add_u64(1);
        let comb_budget = COMB_BUDGET_BYTES / 2;
        let factors = [
            PrimeFactor::new(&p, &g, comb_budget)?,
            PrimeFactor::new(&q, &g, comb_budget)?,
        ];
        let crt = Crt2::new(p, q).map_err(keygen_error)?;
        let crt_squares = Crt2::new(
            factors[0].mont_s2.modulus().clone(),
            factors[1].mont_s2.modulus().clone(),
        )
        .map_err(keygen_error)?;

        let secret = PaillierSecretKey {
            lambda,
            mu,
            factors,
            crt,
            crt_squares,
            public: public.clone(),
        };
        Ok(PaillierKeypair { public, secret })
    }

    /// Encrypts `m ∈ [0, N)` with a randomizer drawn from the factors:
    /// ciphertexts distributed exactly as [`PaillierPublicKey::encrypt`]'s,
    /// though not equal to them from the same RNG state. Each prime's
    /// half of `r^N mod N²` is one comb power modulo `s²`, and one CRT
    /// step joins them: 126 Montgomery products at 8 limbs for a 512-bit
    /// key, against ≈ 641 at 16 limbs for the public `r^N`. The querier
    /// holds the keypair, so this is its path.
    ///
    /// # Errors
    /// [`CryptoError::PlaintextOutOfRange`] when `m >= N`, before any
    /// draw.
    pub fn encrypt(&self, m: &Uint, rng: &mut dyn RngCore) -> Result<Ciphertext, CryptoError> {
        self.public.check_plaintext(m)?;
        let rn = self.secret.sample_randomizer(rng)?;
        self.public.encrypt_with_randomizer(m, &rn)
    }

    /// [`PaillierPublicKey::encrypt_batch_parallel`] with the key owner's
    /// sampler: the same chunk layout and stream-split seeds, each chunk
    /// encrypted as [`PaillierKeypair::encrypt`] would from its stream.
    ///
    /// # Errors
    /// As [`PaillierKeypair::encrypt`], on the first failing element.
    pub fn encrypt_batch_parallel(
        &self,
        ms: &[Uint],
        threads: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Ciphertext>, CryptoError> {
        self.public
            .encrypt_chunked(ms, threads, rng, None, &|stream: &mut dyn RngCore| {
                self.secret.sample_randomizer(stream)
            })
    }
}

/// A bignum failure while deriving key material.
fn keygen_error(e: BignumError) -> CryptoError {
    CryptoError::KeyGeneration(e.to_string())
}

/// `L(u) = (u - 1) / d`, defined when `u ≡ 1 (mod d)`.
fn l_function(u: &Uint, d: &Uint) -> Result<Uint, CryptoError> {
    let minus1 = u
        .checked_sub(&Uint::one())
        .map_err(|_| CryptoError::InvalidCiphertext("L-function input is zero"))?;
    let (quot, rem) = minus1.div_rem(d)?;
    if !rem.is_zero() {
        return Err(CryptoError::InvalidCiphertext(
            "L-function input not ≡ 1 mod d",
        ));
    }
    Ok(quot)
}

impl PaillierPublicKey {
    /// Reconstructs a public key from a received modulus `N` — how the
    /// server materializes the client's key from the wire.
    ///
    /// # Errors
    /// [`CryptoError::Decode`] for even or too-small moduli (a valid
    /// Paillier `N` is a product of two odd primes).
    pub fn from_modulus(n: Uint) -> Result<Self, CryptoError> {
        if n.bit_len() < MIN_KEY_BITS {
            return Err(CryptoError::Decode("modulus too small"));
        }
        if n.is_even() {
            return Err(CryptoError::Decode("modulus must be odd"));
        }
        let unusable = |_| CryptoError::Decode("modulus not usable");
        let n_squared = n.square();
        let mont = Montgomery::new(n_squared.clone()).map_err(unusable)?;
        let mont_n = Montgomery::new(n.clone()).map_err(unusable)?;
        let half_n = n.shr(1);
        let n_plan = FixedExponentPlan::new(&n);
        Ok(PaillierPublicKey {
            inner: Arc::new(PublicInner {
                n,
                n_squared,
                mont,
                mont_n,
                half_n,
                n_plan,
            }),
        })
    }

    /// The modulus `N` (also the size of the message space).
    pub fn n(&self) -> &Uint {
        &self.inner.n
    }

    /// The ciphertext modulus `N²`.
    pub fn n_squared(&self) -> &Uint {
        &self.inner.n_squared
    }

    /// Modulus size in bits.
    pub fn key_bits(&self) -> usize {
        self.inner.n.bit_len()
    }

    /// Serialized size of one ciphertext in bytes (fixed-width `N²`).
    pub fn ciphertext_bytes(&self) -> usize {
        self.inner.n_squared.bit_len().div_ceil(8)
    }

    /// `g^m mod N²` for `g = N + 1`, via the binomial shortcut
    /// `(1 + N)^m = 1 + mN (mod N²)` — no exponentiation needed.
    fn pow_g(&self, m: &Uint) -> Result<Uint, CryptoError> {
        let m = m.rem_of(&self.inner.n)?;
        Ok((&m * &self.inner.n)
            .add_u64(1)
            .rem_of(&self.inner.n_squared)?)
    }

    /// Draws a fresh encryption randomizer `r ∈ Z*_N` and returns
    /// `r^N mod N²` — the expensive half of an encryption, reusable for
    /// offline precomputation. The fixed exponent `N` is recoded once
    /// per key ([`pps_bignum::FixedExponentPlan`]), so each call pays
    /// only the per-base work.
    pub fn sample_randomizer(&self, rng: &mut dyn RngCore) -> Result<Uint, CryptoError> {
        let r = Uint::random_coprime(rng, &self.inner.n)?;
        Ok(self.inner.n_plan.pow(&self.inner.mont, &r))
    }

    /// Encrypts `m ∈ [0, N)` with fresh randomness.
    ///
    /// # Errors
    /// [`CryptoError::PlaintextOutOfRange`] when `m >= N`, before any
    /// draw.
    pub fn encrypt(&self, m: &Uint, rng: &mut dyn RngCore) -> Result<Ciphertext, CryptoError> {
        self.check_plaintext(m)?;
        let rn = self.sample_randomizer(rng)?;
        self.encrypt_with_randomizer(m, &rn)
    }

    /// Refuses a plaintext outside `[0, N)`.
    fn check_plaintext(&self, m: &Uint) -> Result<(), CryptoError> {
        if m >= &self.inner.n {
            return Err(CryptoError::PlaintextOutOfRange);
        }
        Ok(())
    }

    /// Encrypts `m` using a precomputed `r^N mod N²` (see
    /// [`PaillierPublicKey::sample_randomizer`]). This is the fast online
    /// path of the paper's §3.3 preprocessing optimization.
    ///
    /// # Errors
    /// [`CryptoError::PlaintextOutOfRange`] when `m >= N`.
    pub fn encrypt_with_randomizer(
        &self,
        m: &Uint,
        r_to_n: &Uint,
    ) -> Result<Ciphertext, CryptoError> {
        self.check_plaintext(m)?;
        let gm = self.pow_g(m)?;
        Ok(Ciphertext(gm.mod_mul(r_to_n, &self.inner.n_squared)?))
    }

    /// Encrypts a `u64` convenience value.
    ///
    /// # Errors
    /// As [`PaillierPublicKey::encrypt`].
    pub fn encrypt_u64(&self, m: u64, rng: &mut dyn RngCore) -> Result<Ciphertext, CryptoError> {
        self.encrypt(&Uint::from_u64(m), rng)
    }

    /// Encrypts a slice of plaintexts sequentially with fresh randomness,
    /// preserving order. The baseline against which
    /// [`PaillierPublicKey::encrypt_batch_parallel`] is measured.
    ///
    /// # Errors
    /// As [`PaillierPublicKey::encrypt`], on the first failing element.
    pub fn encrypt_batch(
        &self,
        ms: &[Uint],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Ciphertext>, CryptoError> {
        ms.iter().map(|m| self.encrypt(m, rng)).collect()
    }

    /// Encrypts a slice of plaintexts across up to `threads` scoped
    /// worker threads, preserving input order.
    ///
    /// The slice is split into contiguous chunks — the chunk layout and
    /// per-chunk CSPRNG streams are a pure function of `(ms.len(),
    /// threads)` and the caller's RNG state (see the module's
    /// stream-splitting helper), so for a fixed caller RNG state and
    /// thread count the output is reproducible **on any host**. Workers
    /// share this key's Montgomery context for `N²` read-only
    /// (`Montgomery` is `Sync`; see the compile-time audit in
    /// `pps_bignum::montgomery`).
    ///
    /// The number of OS threads actually spawned is additionally capped
    /// at [`crate::host_parallelism`] — requesting more threads than
    /// cores used to *lose* to the sequential path (oversubscribed
    /// workers fight for the same cores) — with surplus chunks handed to
    /// the existing workers in order. Because seeds are bound to chunks,
    /// not threads, this clamp never changes the ciphertext stream.
    ///
    /// `threads <= 1`, or batches too small to amortize thread spawn,
    /// fall back to the sequential path *using the same stream-split
    /// seeding*, so results for a given `threads` value are identical
    /// whether or not the fallback triggers.
    ///
    /// # Errors
    /// As [`PaillierPublicKey::encrypt`], on the first failing element.
    pub fn encrypt_batch_parallel(
        &self,
        ms: &[Uint],
        threads: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Ciphertext>, CryptoError> {
        self.encrypt_batch_parallel_observed(ms, threads, rng, None)
    }

    /// [`PaillierPublicKey::encrypt_batch_parallel`] with an optional
    /// per-chunk observer: `on_chunk` is called once per worker chunk
    /// (including the sequential-fallback "chunk") with the wall time
    /// that chunk took. Ciphertext output is bit-identical with or
    /// without an observer — timing happens around, never inside, the
    /// deterministic encryption stream.
    ///
    /// # Errors
    /// As [`PaillierPublicKey::encrypt`], on the first failing element.
    pub fn encrypt_batch_parallel_observed(
        &self,
        ms: &[Uint],
        threads: usize,
        rng: &mut dyn RngCore,
        on_chunk: Option<&(dyn Fn(Duration) + Sync)>,
    ) -> Result<Vec<Ciphertext>, CryptoError> {
        self.encrypt_chunked(ms, threads, rng, on_chunk, &|stream: &mut dyn RngCore| {
            self.sample_randomizer(stream)
        })
    }

    /// The chunked encryption behind both parallel paths: `sample` draws
    /// each `r^N mod N²` (the public exponentiation, or the key owner's
    /// comb sampler), everything else is shared. A plaintext out of range
    /// is refused before its draw.
    pub(crate) fn encrypt_chunked(
        &self,
        ms: &[Uint],
        threads: usize,
        rng: &mut dyn RngCore,
        on_chunk: Option<&(dyn Fn(Duration) + Sync)>,
        sample: &Sampler<'_>,
    ) -> Result<Vec<Ciphertext>, CryptoError> {
        run_chunked(ms.len(), threads, rng, on_chunk, &|range, stream| {
            ms[range]
                .iter()
                .map(|m| {
                    self.check_plaintext(m)?;
                    self.encrypt_with_randomizer(m, &sample(stream)?)
                })
                .collect()
        })
    }

    /// Draws `count` precomputed `r^N mod N²` randomizer factors across
    /// up to `threads` scoped worker threads — the parallel offline
    /// phase behind [`crate::RandomizerPool::fill_parallel`]. Seeding
    /// and ordering follow the same deterministic stream-split rules as
    /// [`PaillierPublicKey::encrypt_batch_parallel`].
    ///
    /// # Errors
    /// As [`PaillierPublicKey::sample_randomizer`].
    pub fn sample_randomizers_parallel(
        &self,
        count: usize,
        threads: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Uint>, CryptoError> {
        run_chunked(count, threads, rng, None, &|range, stream| {
            range.map(|_| self.sample_randomizer(stream)).collect()
        })
    }

    /// Homomorphic addition: `E(a) ⊞ E(b) = E(a + b mod N)`.
    ///
    /// # Errors
    /// Propagates bignum errors (none for valid ciphertexts).
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, CryptoError> {
        Ok(Ciphertext(a.0.mod_mul(&b.0, &self.inner.n_squared)?))
    }

    /// Homomorphic addition of a plaintext constant:
    /// `E(a) ⊞ k = E(a + k mod N)` via `E(a)·g^k`.
    ///
    /// # Errors
    /// Propagates bignum errors.
    pub fn add_plain(&self, a: &Ciphertext, k: &Uint) -> Result<Ciphertext, CryptoError> {
        let gk = self.pow_g(k)?;
        Ok(Ciphertext(a.0.mod_mul(&gk, &self.inner.n_squared)?))
    }

    /// Homomorphic scalar multiplication: `E(a) ⊠ k = E(a·k mod N)` via
    /// `E(a)^k mod N²`. This is the server's per-element operation in the
    /// selected-sum protocol (`E(I_i)^{x_i}`).
    ///
    /// # Errors
    /// Propagates bignum errors.
    pub fn mul_plain(&self, a: &Ciphertext, k: &Uint) -> Result<Ciphertext, CryptoError> {
        Ok(Ciphertext(self.inner.mont.pow(&a.0, k)?))
    }

    /// A whole-batch fold in one call:
    /// `Π ctsᵢ^{weightsᵢ} = E(Σ weightsᵢ·mᵢ)`, computed with a shared
    /// squaring chain (Straus interleaving) — roughly 2–3× faster than
    /// folding element by element for short exponents. PIR's server
    /// folds with it; the selected-sum server, which folds one query in
    /// batches, keeps a [`CiphertextFold`] for the session
    /// ([`PaillierPublicKey::session_fold`]).
    ///
    /// # Errors
    /// Propagates bignum errors; never fails for valid ciphertexts.
    ///
    /// # Panics
    /// Panics when the slice lengths differ (caller bug).
    pub fn fold_product(
        &self,
        cts: &[Ciphertext],
        weights: &[Uint],
    ) -> Result<Ciphertext, CryptoError> {
        assert_eq!(
            cts.len(),
            weights.len(),
            "ciphertext/weight length mismatch"
        );
        let bases: Vec<Uint> = cts.iter().map(|c| c.0.clone()).collect();
        Ok(Ciphertext(self.inner.mont.multi_pow(&bases, weights)))
    }

    /// The server's fold of one query whose ciphertexts will be raised
    /// to `rows`, the database values the session folds: the bucket
    /// fold modulo `N²`, with its window chosen and its buckets
    /// allocated here.
    pub fn session_fold(&self, rows: &[u64]) -> CiphertextFold {
        CiphertextFold(SessionFold::new(&self.inner.mont, rows))
    }

    /// Homomorphic negation: `E(a) ↦ E(N - a) = E(-a mod N)`.
    ///
    /// # Errors
    /// [`CryptoError::InvalidCiphertext`] when the ciphertext is not
    /// invertible modulo `N²`.
    pub fn neg(&self, a: &Ciphertext) -> Result<Ciphertext, CryptoError> {
        let inv =
            a.0.mod_inverse(&self.inner.n_squared)
                .map_err(|_| CryptoError::InvalidCiphertext("not invertible mod N²"))?;
        Ok(Ciphertext(inv))
    }

    /// Re-randomizes a ciphertext: multiplies by a fresh `E(0)`, producing
    /// an unlinkable encryption of the same plaintext.
    ///
    /// # Errors
    /// Propagates bignum errors.
    pub fn rerandomize(
        &self,
        a: &Ciphertext,
        rng: &mut dyn RngCore,
    ) -> Result<Ciphertext, CryptoError> {
        let rn = self.sample_randomizer(rng)?;
        Ok(Ciphertext(a.0.mod_mul(&rn, &self.inner.n_squared)?))
    }

    /// The trivially valid encryption of zero with unit randomness
    /// (`E(0; 1) = 1`). Useful as a product accumulator seed.
    pub fn identity(&self) -> Ciphertext {
        Ciphertext(Uint::one())
    }

    /// Validates that a received value lies in `Z*_{N²}` — the check a
    /// careful implementation performs on every wire ciphertext.
    ///
    /// # Errors
    /// [`CryptoError::InvalidCiphertext`] for 0, values `>= N²`, or values
    /// sharing a factor with `N`.
    pub fn validate(&self, raw: &Uint) -> Result<Ciphertext, CryptoError> {
        if raw.is_zero() {
            return Err(CryptoError::InvalidCiphertext("zero"));
        }
        if raw >= &self.inner.n_squared {
            return Err(CryptoError::InvalidCiphertext("value >= N²"));
        }
        if !raw.gcd(&self.inner.n).is_one() {
            return Err(CryptoError::InvalidCiphertext("shares a factor with N"));
        }
        Ok(Ciphertext(raw.clone()))
    }

    /// Validates a batch of received values, accepting and rejecting
    /// exactly as [`PaillierPublicKey::validate`] on each would, with one
    /// gcd for the whole batch: a prime factor of `N` divides the product
    /// of the values modulo `N` exactly when it divides one of them.
    /// After the range check, [`Montgomery::all_coprime`] over `N` brings
    /// each value to `N`'s width with one Montgomery reduction and chains
    /// one product modulo `N` per value, instead of a gcd per value.
    ///
    /// # Errors
    /// The error [`PaillierPublicKey::validate`] gives for the first
    /// failing value: a failing batch is validated value by value.
    pub fn validate_batch(&self, raws: Vec<Uint>) -> Result<Vec<Ciphertext>, CryptoError> {
        if raws
            .iter()
            .all(|raw| !raw.is_zero() && raw < &self.inner.n_squared)
            && self.inner.mont_n.all_coprime(&raws)
        {
            return Ok(raws.into_iter().map(Ciphertext).collect());
        }
        raws.iter().map(|raw| self.validate(raw)).collect()
    }

    /// Interprets a decrypted value in `[0, N)` as signed, mapping the
    /// upper half of the message space to negative numbers. Needed when
    /// blinded values may wrap around `N`.
    ///
    /// # Errors
    /// [`CryptoError::SignedMagnitudeOverflow`] when the magnitude does
    /// not fit in `i128` — reachable with ≥ 2048-bit keys and plaintexts
    /// (e.g. large blinding values) more than 128 bits from either end of
    /// the message space.
    pub fn decode_signed(&self, m: &Uint) -> Result<i128, CryptoError> {
        if m > &self.inner.half_n {
            let mag = &self.inner.n - m;
            let mag = mag.to_u128().ok_or(CryptoError::SignedMagnitudeOverflow)?;
            if mag > i128::MAX as u128 + 1 {
                return Err(CryptoError::SignedMagnitudeOverflow);
            }
            Ok((mag as i128).wrapping_neg())
        } else {
            let mag = m.to_u128().ok_or(CryptoError::SignedMagnitudeOverflow)?;
            i128::try_from(mag).map_err(|_| CryptoError::SignedMagnitudeOverflow)
        }
    }
}

impl fmt::Debug for PaillierPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PaillierPublicKey({} bits)", self.key_bits())
    }
}

impl PartialEq for PaillierPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.inner.n == other.inner.n
    }
}

impl Eq for PaillierPublicKey {}

impl Ciphertext {
    /// The raw group element in `[0, N²)`.
    pub fn raw(&self) -> &Uint {
        &self.0
    }

    /// Wraps a raw group element without validation — for sibling modules
    /// that construct ciphertexts from already-reduced arithmetic.
    pub(crate) fn from_raw_unchecked(v: Uint) -> Self {
        Ciphertext(v)
    }

    /// Serializes as fixed-width big-endian bytes for the given key.
    ///
    /// # Errors
    /// [`CryptoError::Decode`] if the value somehow exceeds the key's
    /// ciphertext width (cannot happen for ciphertexts made by this key).
    pub fn to_bytes(&self, key: &PaillierPublicKey) -> Result<Vec<u8>, CryptoError> {
        self.0
            .to_bytes_be_padded(key.ciphertext_bytes())
            .map_err(|_| CryptoError::Decode("ciphertext wider than key"))
    }

    /// Parses and validates fixed-width bytes produced by
    /// [`Ciphertext::to_bytes`].
    ///
    /// # Errors
    /// [`CryptoError::Decode`] on wrong length;
    /// [`CryptoError::InvalidCiphertext`] if the value is not in `Z*_{N²}`.
    pub fn from_bytes(bytes: &[u8], key: &PaillierPublicKey) -> Result<Self, CryptoError> {
        if bytes.len() != key.ciphertext_bytes() {
            return Err(CryptoError::Decode("wrong ciphertext length"));
        }
        key.validate(&Uint::from_bytes_be(bytes))
    }
}

/// The server's fold of one query, `Π E(Iᵢ)^{xᵢ} = E(Σ xᵢ·Iᵢ)` over
/// ciphertexts that arrive in batches: a [`SessionFold`] modulo `N²`,
/// built by [`PaillierPublicKey::session_fold`]. Its buckets live as
/// long as it does.
pub struct CiphertextFold(SessionFold);

impl CiphertextFold {
    /// Folds one batch: `cts[i]` is raised to `values[i]`, its row's
    /// value.
    ///
    /// # Errors
    /// [`CryptoError::Bignum`] when a value is wider than the rows the
    /// fold was built for.
    ///
    /// # Panics
    /// When the slice lengths differ (caller bug).
    pub fn absorb(&mut self, cts: &[Ciphertext], values: &[u64]) -> Result<(), CryptoError> {
        Ok(self.0.absorb(cts.iter().map(Ciphertext::raw), values)?)
    }

    /// The fold of every batch absorbed so far, `E(Σ xᵢ·Iᵢ)`. Absorbing
    /// can go on afterwards.
    pub fn product(&self) -> Ciphertext {
        Ciphertext(self.0.product())
    }

    /// The bucket fold underneath: its window and bucket memory.
    pub fn buckets(&self) -> &SessionFold {
        &self.0
    }
}

impl fmt::Debug for Ciphertext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex = self.0.to_hex();
        let head = &hex[..hex.len().min(16)];
        write!(f, "Ciphertext(0x{head}…)")
    }
}

impl PaillierSecretKey {
    /// The matching public key.
    pub fn public(&self) -> &PaillierPublicKey {
        &self.public
    }

    /// The prime factors `(p, q)` — used by the key-serialization module.
    pub(crate) fn primes(&self) -> (&Uint, &Uint) {
        (&self.factors[0].prime, &self.factors[1].prime)
    }

    /// A randomizer distributed exactly as
    /// [`PaillierPublicKey::sample_randomizer`]'s `r^N mod N²`: each
    /// prime's half drawn from its comb (see `PrimeFactor`), then the CRT
    /// over `(p², q²)`. The work is a fixed count of products whatever
    /// the draws: 63 per prime at 8 limbs for a 512-bit key.
    ///
    /// # Errors
    /// Propagates bignum errors (none for a valid key).
    pub(crate) fn sample_randomizer(&self, rng: &mut dyn RngCore) -> Result<Uint, CryptoError> {
        let [fp, fq] = &self.factors;
        let (xp, xq) = (fp.sample(rng)?, fq.sample(rng)?);
        Ok(self.crt_squares.combine(&xp, &xq)?)
    }

    /// Decrypts via the CRT over `p²`/`q²` (the fast path).
    ///
    /// # Errors
    /// [`CryptoError::InvalidCiphertext`] for values outside `Z*_{N²}`.
    pub fn decrypt(&self, c: &Ciphertext) -> Result<Uint, CryptoError> {
        let [fp, fq] = &self.factors;
        Ok(self.crt.combine(&fp.decrypt(&c.0)?, &fq.decrypt(&c.0)?)?)
    }

    /// Reference decryption `m = L(c^λ mod N²)·μ mod N`; used in tests to
    /// cross-check the CRT path.
    ///
    /// # Errors
    /// As [`PaillierSecretKey::decrypt`].
    pub fn decrypt_reference(&self, c: &Ciphertext) -> Result<Uint, CryptoError> {
        let n = self.public.n();
        let c_lambda = self.public.inner.mont.pow(&c.0, &self.lambda)?;
        Ok(l_function(&c_lambda, n)?.mod_mul(&self.mu, n)?)
    }

    /// Decrypts and decodes as a signed value (upper half of the message
    /// space maps to negatives).
    ///
    /// # Errors
    /// As [`PaillierSecretKey::decrypt`], plus
    /// [`CryptoError::SignedMagnitudeOverflow`] when the decoded
    /// magnitude does not fit in `i128`.
    pub fn decrypt_signed(&self, c: &Ciphertext) -> Result<i128, CryptoError> {
        self.public.decode_signed(&self.decrypt(c)?)
    }
}

impl fmt::Debug for PaillierSecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PaillierSecretKey({} bits)", self.public.key_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// A small (128-bit) keypair for fast tests.
    fn small_keypair() -> PaillierKeypair {
        PaillierKeypair::generate(128, &mut rng()).unwrap()
    }

    #[test]
    fn round_trip_small_values() {
        let kp = small_keypair();
        let mut r = rng();
        for m in [0u64, 1, 2, 42, u32::MAX as u64, u64::MAX] {
            let ct = kp.public.encrypt_u64(m, &mut r).unwrap();
            assert_eq!(kp.secret.decrypt(&ct).unwrap(), Uint::from_u64(m), "m={m}");
        }
    }

    #[test]
    fn crt_matches_reference_decryption() {
        let kp = small_keypair();
        let mut r = rng();
        for m in [0u64, 1, 12345, u64::MAX] {
            let ct = kp.public.encrypt_u64(m, &mut r).unwrap();
            assert_eq!(
                kp.secret.decrypt(&ct).unwrap(),
                kp.secret.decrypt_reference(&ct).unwrap()
            );
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let kp = small_keypair();
        let mut r = rng();
        let c1 = kp.public.encrypt_u64(7, &mut r).unwrap();
        let c2 = kp.public.encrypt_u64(7, &mut r).unwrap();
        assert_ne!(c1, c2, "semantic security requires randomized encryption");
        assert_eq!(
            kp.secret.decrypt(&c1).unwrap(),
            kp.secret.decrypt(&c2).unwrap()
        );
    }

    #[test]
    fn plaintext_bounds_enforced() {
        let kp = small_keypair();
        let mut r = rng();
        let n = kp.public.n().clone();
        assert!(matches!(
            kp.public.encrypt(&n, &mut r),
            Err(CryptoError::PlaintextOutOfRange)
        ));
        let just_below = &n - &Uint::one();
        let ct = kp.public.encrypt(&just_below, &mut r).unwrap();
        assert_eq!(kp.secret.decrypt(&ct).unwrap(), just_below);
    }

    #[test]
    fn homomorphic_addition() {
        let kp = small_keypair();
        let mut r = rng();
        let a = kp.public.encrypt_u64(1000, &mut r).unwrap();
        let b = kp.public.encrypt_u64(337, &mut r).unwrap();
        let sum = kp.public.add(&a, &b).unwrap();
        assert_eq!(kp.secret.decrypt(&sum).unwrap(), Uint::from_u64(1337));
    }

    #[test]
    fn homomorphic_add_plain() {
        let kp = small_keypair();
        let mut r = rng();
        let a = kp.public.encrypt_u64(1000, &mut r).unwrap();
        let sum = kp.public.add_plain(&a, &Uint::from_u64(337)).unwrap();
        assert_eq!(kp.secret.decrypt(&sum).unwrap(), Uint::from_u64(1337));
    }

    #[test]
    fn homomorphic_scalar_mul() {
        let kp = small_keypair();
        let mut r = rng();
        let a = kp.public.encrypt_u64(7, &mut r).unwrap();
        let prod = kp.public.mul_plain(&a, &Uint::from_u64(600)).unwrap();
        assert_eq!(kp.secret.decrypt(&prod).unwrap(), Uint::from_u64(4200));
        // k = 0 gives E(0).
        let zero = kp.public.mul_plain(&a, &Uint::zero()).unwrap();
        assert_eq!(kp.secret.decrypt(&zero).unwrap(), Uint::zero());
    }

    #[test]
    fn selected_sum_shape() {
        // The exact server computation of the paper, in miniature:
        // Π E(I_i)^{x_i} = E(Σ I_i·x_i).
        let kp = small_keypair();
        let mut r = rng();
        let data = [10u64, 20, 30, 40, 50];
        let select = [1u64, 0, 1, 0, 1];
        let mut acc = kp.public.identity();
        for (x, i) in data.iter().zip(select.iter()) {
            let e_i = kp.public.encrypt_u64(*i, &mut r).unwrap();
            let term = kp.public.mul_plain(&e_i, &Uint::from_u64(*x)).unwrap();
            acc = kp.public.add(&acc, &term).unwrap();
        }
        assert_eq!(kp.secret.decrypt(&acc).unwrap(), Uint::from_u64(90));
    }

    #[test]
    fn negation_and_signed_decode() {
        let kp = small_keypair();
        let mut r = rng();
        let a = kp.public.encrypt_u64(25, &mut r).unwrap();
        let neg = kp.public.neg(&a).unwrap();
        assert_eq!(kp.secret.decrypt_signed(&neg).unwrap(), -25);
        // a + (-a) = 0.
        let z = kp.public.add(&a, &neg).unwrap();
        assert_eq!(kp.secret.decrypt(&z).unwrap(), Uint::zero());
    }

    #[test]
    fn signed_decode_overflow_is_an_error_not_a_panic() {
        // With a 128-bit key N² gives plaintexts up to 128 bits, but any
        // key has mid-space values whose signed magnitude exceeds i128
        // once the modulus is wide enough; emulate with a plaintext right
        // in the middle of the message space of a wider key.
        let mut r = StdRng::seed_from_u64(11);
        let kp = PaillierKeypair::generate(320, &mut r).unwrap();
        // m = floor(N/2) is on the positive side but ~319 bits.
        let mid = kp.public.n().shr(1);
        assert!(matches!(
            kp.public.decode_signed(&mid),
            Err(CryptoError::SignedMagnitudeOverflow)
        ));
        // A value just above half-N has a huge negative magnitude.
        let above = &mid + &Uint::from_u64(2);
        assert!(matches!(
            kp.public.decode_signed(&above),
            Err(CryptoError::SignedMagnitudeOverflow)
        ));
        // Small magnitudes still decode on both sides.
        assert_eq!(kp.public.decode_signed(&Uint::from_u64(40)).unwrap(), 40);
        let minus_3 = kp.public.n() - &Uint::from_u64(3);
        assert_eq!(kp.public.decode_signed(&minus_3).unwrap(), -3);
    }

    #[test]
    fn rerandomize_preserves_plaintext_changes_ciphertext() {
        let kp = small_keypair();
        let mut r = rng();
        let a = kp.public.encrypt_u64(99, &mut r).unwrap();
        let b = kp.public.rerandomize(&a, &mut r).unwrap();
        assert_ne!(a, b);
        assert_eq!(kp.secret.decrypt(&b).unwrap(), Uint::from_u64(99));
    }

    #[test]
    fn precomputed_randomizer_encryption() {
        let kp = small_keypair();
        let mut r = rng();
        let rn = kp.public.sample_randomizer(&mut r).unwrap();
        let ct = kp
            .public
            .encrypt_with_randomizer(&Uint::from_u64(5), &rn)
            .unwrap();
        assert_eq!(kp.secret.decrypt(&ct).unwrap(), Uint::from_u64(5));
    }

    #[test]
    fn ciphertext_byte_round_trip() {
        let kp = small_keypair();
        let mut r = rng();
        let ct = kp.public.encrypt_u64(123_456, &mut r).unwrap();
        let bytes = ct.to_bytes(&kp.public).unwrap();
        assert_eq!(bytes.len(), kp.public.ciphertext_bytes());
        let back = Ciphertext::from_bytes(&bytes, &kp.public).unwrap();
        assert_eq!(back, ct);
    }

    #[test]
    fn validation_rejects_garbage() {
        let kp = small_keypair();
        assert!(kp.public.validate(&Uint::zero()).is_err());
        assert!(kp.public.validate(kp.public.n_squared()).is_err());
        // A multiple of N shares a factor with N.
        assert!(kp.public.validate(kp.public.n()).is_err());
        assert!(kp.public.validate(&Uint::one()).is_ok());
        let short = vec![0u8; 3];
        assert!(Ciphertext::from_bytes(&short, &kp.public).is_err());
    }

    #[test]
    fn key_too_small_rejected() {
        assert!(matches!(
            PaillierKeypair::generate(32, &mut rng()),
            Err(CryptoError::KeyTooSmall { .. })
        ));
    }

    #[test]
    fn from_primes_rejects_equal() {
        let p = Uint::from_u64(65_537);
        assert!(PaillierKeypair::from_primes(p.clone(), p).is_err());
    }

    #[test]
    fn tiny_fixed_primes_work() {
        // p = 65537, q = 65539 (both prime), N ≈ 2^32.
        let kp =
            PaillierKeypair::from_primes(Uint::from_u64(65_537), Uint::from_u64(65_539)).unwrap();
        let mut r = rng();
        let ct = kp.public.encrypt_u64(1_000_000, &mut r).unwrap();
        assert_eq!(kp.secret.decrypt(&ct).unwrap(), Uint::from_u64(1_000_000));
    }

    #[test]
    fn paper_key_size_round_trip() {
        // 512-bit keys exactly as the paper's experiments.
        let mut r = rng();
        let kp = PaillierKeypair::generate(512, &mut r).unwrap();
        assert_eq!(kp.public.key_bits(), 512);
        assert_eq!(kp.public.ciphertext_bytes(), 128);
        let ct = kp.public.encrypt_u64(0xdead_beef, &mut r).unwrap();
        assert_eq!(kp.secret.decrypt(&ct).unwrap(), Uint::from_u64(0xdead_beef));
    }

    #[test]
    fn from_modulus_matches_original_key() {
        let kp = small_keypair();
        let mut r = rng();
        let reconstructed = PaillierPublicKey::from_modulus(kp.public.n().clone()).unwrap();
        assert_eq!(reconstructed, kp.public);
        // Encryptions under the reconstructed key decrypt with the
        // original secret key (the server-side flow).
        let ct = reconstructed.encrypt_u64(777, &mut r).unwrap();
        assert_eq!(kp.secret.decrypt(&ct).unwrap(), Uint::from_u64(777));
    }

    #[test]
    fn from_modulus_rejects_bad_values() {
        assert!(PaillierPublicKey::from_modulus(Uint::from_u64(15)).is_err()); // too small
        let even = Uint::one().shl(128);
        assert!(PaillierPublicKey::from_modulus(even).is_err());
    }

    #[test]
    fn session_fold_matches_straus() {
        let kp = small_keypair();
        let mut r = rng();
        let exps: Vec<u64> = (0..23).map(|i| (i * 37 + 5) % 997).collect();
        let cts: Vec<Ciphertext> = (0..23)
            .map(|i| kp.public.encrypt_u64(i % 2, &mut r).unwrap())
            .collect();
        let weights: Vec<Uint> = exps.iter().map(|&x| Uint::from_u64(x)).collect();
        let want = kp.public.fold_product(&cts, &weights).unwrap();
        let mut fold = kp.public.session_fold(&exps);
        for (c, x) in cts.chunks(5).zip(exps.chunks(5)) {
            fold.absorb(c, x).unwrap();
        }
        // The same group element, not merely the same plaintext.
        assert_eq!(fold.product(), want);
        // A value wider than the fold's rows is reported, not folded.
        let mut narrow = kp.public.session_fold(&[1, 2, 3]);
        assert!(narrow.absorb(&cts[..1], &[u64::MAX]).is_err());
    }

    #[test]
    fn oversubscribed_threads_preserve_the_ciphertext_stream() {
        // The documented invariant: the ciphertext stream is a pure
        // function of (rng state, threads, batch len). Reconstruct the
        // expected stream by hand from the same chunk/seed layout and
        // check the parallel path reproduces it for thread counts far
        // beyond any host's core count.
        let kp = small_keypair();
        let ms: Vec<Uint> = (0..48).map(Uint::from_u64).collect();
        for threads in [1usize, 2, 7, 64, 1024] {
            let wanted = threads.max(1).min(ms.len() / 4).max(1);
            let chunk = ms.len().div_ceil(wanted).max(1);
            let mut seed_rng = StdRng::seed_from_u64(99);
            let mut expected = Vec::new();
            for mc in ms.chunks(chunk) {
                let mut seed = [0u8; 32];
                seed_rng.fill_bytes(&mut seed);
                let mut stream = StdRng::from_seed(seed);
                expected.extend(kp.public.encrypt_batch(mc, &mut stream).unwrap());
            }
            let mut r = StdRng::seed_from_u64(99);
            let got = kp
                .public
                .encrypt_batch_parallel(&ms, threads, &mut r)
                .unwrap();
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn oversubscribed_threads_spawn_at_most_host_parallelism_workers() {
        use std::collections::HashSet;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let kp = small_keypair();
        let ms: Vec<Uint> = (0..96).map(Uint::from_u64).collect();
        let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let chunks = AtomicUsize::new(0);
        let observer = |_d: std::time::Duration| {
            ids.lock().unwrap().insert(std::thread::current().id());
            chunks.fetch_add(1, Ordering::SeqCst);
        };
        let mut r = rng();
        kp.public
            .encrypt_batch_parallel_observed(&ms, 1024, &mut r, Some(&observer))
            .unwrap();
        // 1024 requested threads clamp to 24 chunks (96 / 4): the chunk
        // layout — and so the seeded stream — survives the worker clamp.
        assert_eq!(chunks.load(Ordering::SeqCst), 24);
        let distinct = ids.lock().unwrap().len();
        assert!(
            distinct <= crate::parallel::host_parallelism().max(1),
            "spawned {distinct} workers on a {}-way host",
            crate::parallel::host_parallelism()
        );
    }

    #[test]
    fn oversubscribed_parallel_not_slower_than_sequential_beyond_noise() {
        // The satellite bug: requesting threads > host_parallelism used
        // to spawn one OS thread per chunk, all fighting for the same
        // cores, and lost to the plain sequential path
        // (BENCH_client_encrypt.json recorded 0.845× at n=100k on one
        // core). With the clamp the oversubscribed call does the same
        // work on at most `host_parallelism` threads; allow a generous
        // noise factor so the assertion stays robust on busy CI hosts.
        let kp = small_keypair();
        let ms: Vec<Uint> = (0..64).map(Uint::from_u64).collect();
        let best =
            |f: &dyn Fn() -> std::time::Duration| (0..3).map(|_| f()).min().expect("three runs");
        let sequential = best(&|| {
            let mut r = rng();
            let start = std::time::Instant::now();
            kp.public.encrypt_batch(&ms, &mut r).unwrap();
            start.elapsed()
        });
        let oversubscribed = best(&|| {
            let mut r = rng();
            let start = std::time::Instant::now();
            kp.public.encrypt_batch_parallel(&ms, 1024, &mut r).unwrap();
            start.elapsed()
        });
        assert!(
            oversubscribed <= sequential * 2,
            "oversubscribed parallel path took {oversubscribed:?} vs sequential {sequential:?}"
        );
    }

    #[test]
    fn comb_sampler_runs_126_products_at_8_limbs() {
        // Host-independent work gate. At a 512-bit key each prime's comb
        // has 8 teeth over s − 1's 256 bits: 32 columns, so 31 squarings
        // and 32 products modulo s² (8 limbs), 126 for both primes, in
        // 2 × 16 KiB of table. Weighted by limbs² (the kernel's cost per
        // product) that is ≈ 0.05 of the public r^N's ≈ 641 products at
        // 16 limbs; the sampler it replaced did ≈ 0.32.
        let kp = PaillierKeypair::generate(512, &mut StdRng::seed_from_u64(512)).unwrap();
        let weighted =
            |products: usize, ctx: &Montgomery| products * ctx.modulus().limbs().len().pow(2);
        let factors = &kp.secret.factors;
        let limbs: Vec<usize> = factors
            .iter()
            .map(|f| f.mont_s2.modulus().limbs().len())
            .collect();
        let products: Vec<usize> = factors.iter().map(|f| f.comb.products()).collect();
        assert_eq!((limbs, products), (vec![8, 8], vec![63, 63]));
        // 63 products are 32 columns over 256 bits: 8 teeth, 2^8 operands
        // of 8 limbs per prime, the whole budget for the two.
        let operand_bytes = 8 * std::mem::size_of::<u64>();
        assert_eq!(2 * (1 << 8) * operand_bytes, COMB_BUDGET_BYTES);
        let public = weighted(kp.public.inner.n_plan.products(), &kp.public.inner.mont);
        let comb: usize = factors
            .iter()
            .map(|f| weighted(f.comb.products(), &f.mont_s2))
            .sum();
        assert_eq!(comb, 126 * 64);
        assert!(
            comb * 100 <= public * 5,
            "comb sampler work {comb} vs public {public} (limb²-weighted products)"
        );
    }

    #[test]
    fn randomizer_bases_generate_the_order_s_minus_1_subgroup() {
        // The shapes of the properties suite's keys: 64 to 512 bits, odd
        // and even widths, and the fixed 65 537 · 65 539 and 7 · 11 keys.
        // h_s = γ^s mod s² has order exactly s − 1: h^(s−1) = 1 and
        // h^((s−1)/ℓ) ≠ 1 for every prime ℓ dividing s − 1.
        let mut r = StdRng::seed_from_u64(0x0c27);
        let mut keys: Vec<PaillierKeypair> = [64, 65, 127, 128, 256, 512]
            .iter()
            .map(|&bits| PaillierKeypair::generate(bits, &mut r).unwrap())
            .collect();
        for (p, q) in [(65_537, 65_539), (7, 11)] {
            keys.push(PaillierKeypair::from_primes(Uint::from_u64(p), Uint::from_u64(q)).unwrap());
        }
        for kp in &keys {
            for f in &kp.secret.factors {
                let h = f.comb.pow(&Uint::one()).unwrap();
                let order = |e: &Uint| f.mont_s2.pow(&h, e).unwrap();
                assert!(order(&f.order).is_one(), "s = {:?}", f.prime);
                for l in f.prime.order_factors(&mut r).unwrap() {
                    let (e, rem) = f.order.div_rem(&l).unwrap();
                    assert!(rem.is_zero());
                    assert!(!order(&e).is_one(), "s = {:?}, ℓ = {l:?}", f.prime);
                }
            }
        }
    }

    #[test]
    fn unfactorable_prime_is_refused_with_a_rekey_hint() {
        // 68 756 181 653 − 1 = 4 · 131 101 · 131 113: both odd factors are
        // above the trial bound, so the cofactor left over is composite.
        let refused =
            PaillierKeypair::from_primes(Uint::from_u64(68_756_181_653), Uint::from_u64(65_537));
        match refused {
            Err(CryptoError::KeyGeneration(why)) => assert!(why.contains("re-key"), "{why}"),
            other => panic!("expected a key-generation error, got {:?}", other.err()),
        }
    }

    #[test]
    fn wraparound_addition_mod_n() {
        // Adding past N wraps modulo N — documents the message-space edge.
        let kp =
            PaillierKeypair::from_primes(Uint::from_u64(65_537), Uint::from_u64(65_539)).unwrap();
        let mut r = rng();
        let n = kp.public.n().clone();
        let almost = &n - &Uint::one();
        let a = kp.public.encrypt(&almost, &mut r).unwrap();
        let b = kp.public.encrypt_u64(2, &mut r).unwrap();
        let sum = kp.public.add(&a, &b).unwrap();
        assert_eq!(kp.secret.decrypt(&sum).unwrap(), Uint::one());
    }
}
