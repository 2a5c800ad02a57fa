//! Property-based tests for the Paillier implementation: the homomorphic
//! identities the selected-sum protocol relies on, over random plaintexts.
//!
//! A single 128-bit keypair is generated once (key generation dominates
//! runtime) and shared across all cases.
//!
//! The key-owner cases check `PaillierKeypair::encrypt`, whose comb
//! sampler draws each randomizer `r^N mod N²` from the factors: its
//! draws cover the `N`-th residues uniformly, its ciphertexts decrypt and
//! keep both homomorphisms, and its parallel batches keep the public
//! path's chunk and seed layout. Its ciphertexts are distributed as the
//! public path's, not equal to them.

use std::collections::HashMap;
use std::sync::OnceLock;

use pps_bignum::Uint;
use pps_crypto::{CryptoError, PaillierKeypair};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn keypair() -> &'static PaillierKeypair {
    static KP: OnceLock<PaillierKeypair> = OnceLock::new();
    KP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xdecaf);
        PaillierKeypair::generate(128, &mut rng).unwrap()
    })
}

/// One key per shape the key-owner cases cover: 64 to 512 bits, odd and
/// even widths, one- and multi-limb factors, the fixed 65 537 · 65 539
/// key of the unit tests, and a toy 7 · 11 key whose 60 `N`-th residues
/// can be listed.
fn parity_keys() -> &'static [PaillierKeypair] {
    static KEYS: OnceLock<Vec<PaillierKeypair>> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x0c27);
        let mut keys: Vec<PaillierKeypair> = [64, 65, 127, 128, 256, 512]
            .iter()
            .map(|&bits| PaillierKeypair::generate(bits, &mut rng).unwrap())
            .collect();
        for (p, q) in [(65_537, 65_539), (7, 11)] {
            keys.push(PaillierKeypair::from_primes(Uint::from_u64(p), Uint::from_u64(q)).unwrap());
        }
        keys
    })
}

/// `m` reduced into the key's message space.
fn plaintext(kp: &PaillierKeypair, m: u64) -> Uint {
    Uint::from_u64(m).rem_of(kp.public.n()).unwrap()
}

#[test]
fn keypair_sampler_covers_the_n_th_residues_uniformly() {
    // For N = 7 · 11, r ↦ r^N mod N² maps Z*_N onto 60 residues, each
    // hit once; E(0) is the randomizer itself. 60 000 draws must land on
    // exactly those 60, each 1 000 times in expectation (σ ≈ 31).
    let kp = parity_keys().last().unwrap();
    assert_eq!(kp.public.n(), &Uint::from_u64(77));
    let n_squared = kp.public.n_squared();
    let residues: Vec<Uint> = (1..77u64)
        .filter(|r| r % 7 != 0 && r % 11 != 0)
        .map(|r| Uint::from_u64(r).mod_pow(kp.public.n(), n_squared).unwrap())
        .collect();
    let mut counts: HashMap<Uint, usize> = residues.iter().map(|x| (x.clone(), 0)).collect();
    assert_eq!(counts.len(), 60, "the N-th power map is one to one on Z*_N");
    let mut rng = StdRng::seed_from_u64(0x6000);
    for _ in 0..60_000 {
        let drawn = kp.encrypt(&Uint::zero(), &mut rng).unwrap().raw().clone();
        *counts
            .get_mut(&drawn)
            .expect("a draw off the N-th residues") += 1;
    }
    for (residue, &count) in &counts {
        assert!(
            (850..=1150).contains(&count),
            "{residue:?} drawn {count} times"
        );
    }
}

#[test]
fn keypair_encrypt_refuses_out_of_range_before_any_draw() {
    for kp in parity_keys() {
        let n = kp.public.n();
        let (mut used, mut fresh) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        for m in [n.clone(), n.add_u64(1)] {
            assert!(matches!(
                kp.encrypt(&m, &mut used),
                Err(CryptoError::PlaintextOutOfRange)
            ));
        }
        let batch = [Uint::one(), n.clone()];
        assert!(matches!(
            kp.encrypt_batch_parallel(&batch, 1, &mut used),
            Err(CryptoError::PlaintextOutOfRange)
        ));
        // The refused encryptions drew nothing from the caller's RNG;
        // the batch drew only its one chunk seed.
        let bits = kp.public.key_bits();
        let mut chunk = [0u8; 32];
        fresh.fill_bytes(&mut chunk);
        assert_eq!(used.next_u64(), fresh.next_u64(), "{bits} bits");
    }
}

#[test]
fn keypair_parallel_batches_reproduce_the_chunk_layout() {
    // The layout of `oversubscribed_threads_preserve_the_ciphertext_stream`
    // at every parity key: up to `threads` chunks of at least four, one
    // stream-split seed each, every chunk encrypted in order from its
    // own stream.
    for kp in parity_keys() {
        let ms: Vec<Uint> = (0..13u64)
            .map(|i| plaintext(kp, i * 0x9e37_79b9 + 1))
            .collect();
        for threads in [1usize, 2, 4] {
            let wanted = threads.min(ms.len() / 4).max(1);
            let mut seeds = StdRng::seed_from_u64(17);
            let mut want = Vec::new();
            for chunk in ms.chunks(ms.len().div_ceil(wanted)) {
                let mut seed = [0u8; 32];
                seeds.fill_bytes(&mut seed);
                let mut stream = StdRng::from_seed(seed);
                want.extend(chunk.iter().map(|m| kp.encrypt(m, &mut stream).unwrap()));
            }
            let mut rng = StdRng::seed_from_u64(17);
            let got = kp.encrypt_batch_parallel(&ms, threads, &mut rng).unwrap();
            let bits = kp.public.key_bits();
            assert_eq!(got, want, "{bits} bits, {threads} threads");
            assert_eq!(
                rng.next_u64(),
                seeds.next_u64(),
                "{bits} bits, {threads} threads"
            );
            for (ct, m) in got.iter().zip(&ms) {
                assert_eq!(&kp.secret.decrypt(ct).unwrap(), m);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn keypair_ciphertexts_round_trip_and_stay_homomorphic(
        a in any::<u64>(),
        b in any::<u64>(),
        k in any::<u32>(),
        seed in any::<u64>(),
    ) {
        for kp in parity_keys() {
            let n = kp.public.n();
            let (a, b) = (plaintext(kp, a), plaintext(kp, b));
            let mut rng = StdRng::seed_from_u64(seed);
            let ea = kp.encrypt(&a, &mut rng).unwrap();
            let eb = kp.encrypt(&b, &mut rng).unwrap();
            let bits = kp.public.key_bits();
            prop_assert_eq!((bits, kp.secret.decrypt(&ea).unwrap()), (bits, a.clone()));
            let sum = kp.public.add(&ea, &eb).unwrap();
            prop_assert_eq!(kp.secret.decrypt(&sum).unwrap(), a.mod_add(&b, n).unwrap());
            let k = Uint::from_u64(u64::from(k));
            let scaled = kp.public.mul_plain(&ea, &k).unwrap();
            prop_assert_eq!(kp.secret.decrypt(&scaled).unwrap(), a.mod_mul(&k, n).unwrap());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `validate_batch` accepts exactly the batches whose every value
    /// `validate` accepts, and otherwise returns the error of the first
    /// failing value. Random values below `N²` share a factor with the
    /// toy 7 · 11 key's `N` about one time in five; one value of each
    /// batch may be replaced by 0, `N²`, `N` or a ciphertext.
    #[test]
    fn validate_batch_agrees_with_validate(
        seed in any::<u64>(),
        len in 1usize..12,
        slot in any::<usize>(),
        kind in 0u8..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for kp in parity_keys() {
            let pk = &kp.public;
            let mut raws: Vec<Uint> = (0..len)
                .map(|_| Uint::random_below(&mut rng, pk.n_squared()).unwrap())
                .collect();
            raws[slot % len] = match kind {
                0 => Uint::zero(),
                1 => pk.n_squared().clone(),
                2 => pk.n().clone(),
                3 => pk.encrypt(&plaintext(kp, seed), &mut rng).unwrap().raw().clone(),
                _ => raws[slot % len].clone(),
            };
            let want: Result<Vec<_>, CryptoError> = raws.iter().map(|r| pk.validate(r)).collect();
            prop_assert_eq!(pk.validate_batch(raws), want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn round_trip(m in any::<u64>(), seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let ct = kp.public.encrypt_u64(m, &mut rng).unwrap();
        prop_assert_eq!(kp.secret.decrypt(&ct).unwrap(), Uint::from_u64(m));
    }

    #[test]
    fn additive_homomorphism(a in any::<u64>(), b in any::<u64>(), seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let ea = kp.public.encrypt_u64(a, &mut rng).unwrap();
        let eb = kp.public.encrypt_u64(b, &mut rng).unwrap();
        let sum = kp.public.add(&ea, &eb).unwrap();
        let expect = Uint::from_u128(a as u128 + b as u128);
        prop_assert_eq!(kp.secret.decrypt(&sum).unwrap(), expect);
    }

    #[test]
    fn scalar_homomorphism(a in any::<u32>(), k in any::<u32>(), seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let ea = kp.public.encrypt_u64(a as u64, &mut rng).unwrap();
        let prod = kp.public.mul_plain(&ea, &Uint::from_u64(k as u64)).unwrap();
        let expect = Uint::from_u128(a as u128 * k as u128);
        prop_assert_eq!(kp.secret.decrypt(&prod).unwrap(), expect);
    }

    #[test]
    fn add_plain_matches_add(a in any::<u64>(), k in any::<u64>(), seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let ea = kp.public.encrypt_u64(a, &mut rng).unwrap();
        let via_plain = kp.public.add_plain(&ea, &Uint::from_u64(k)).unwrap();
        let ek = kp.public.encrypt_u64(k, &mut rng).unwrap();
        let via_ct = kp.public.add(&ea, &ek).unwrap();
        prop_assert_eq!(
            kp.secret.decrypt(&via_plain).unwrap(),
            kp.secret.decrypt(&via_ct).unwrap()
        );
    }

    #[test]
    fn dot_product_identity(
        xs in prop::collection::vec(any::<u32>(), 1..12),
        sel in prop::collection::vec(any::<bool>(), 12),
        seed in any::<u64>(),
    ) {
        // Π E(I_i)^{x_i} = E(Σ I_i·x_i): the protocol's core identity.
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut acc = kp.public.identity();
        let mut expect: u128 = 0;
        for (i, &x) in xs.iter().enumerate() {
            let bit = sel[i % sel.len()];
            let e_i = kp.public.encrypt_u64(bit as u64, &mut rng).unwrap();
            let term = kp.public.mul_plain(&e_i, &Uint::from_u64(x as u64)).unwrap();
            acc = kp.public.add(&acc, &term).unwrap();
            if bit {
                expect += x as u128;
            }
        }
        prop_assert_eq!(kp.secret.decrypt(&acc).unwrap(), Uint::from_u128(expect));
    }

    #[test]
    fn rerandomization_unlinkable_same_plaintext(m in any::<u64>(), seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let ct = kp.public.encrypt_u64(m, &mut rng).unwrap();
        let rr = kp.public.rerandomize(&ct, &mut rng).unwrap();
        prop_assert_ne!(&rr, &ct);
        prop_assert_eq!(kp.secret.decrypt(&rr).unwrap(), Uint::from_u64(m));
    }

    #[test]
    fn signed_decode_negation(m in 1u64..=u64::MAX, seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let ct = kp.public.encrypt_u64(m, &mut rng).unwrap();
        let neg = kp.public.neg(&ct).unwrap();
        prop_assert_eq!(kp.secret.decrypt_signed(&neg).unwrap(), -(m as i128));
    }

    #[test]
    fn ciphertext_codec_round_trip(m in any::<u64>(), seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let ct = kp.public.encrypt_u64(m, &mut rng).unwrap();
        let bytes = ct.to_bytes(&kp.public).unwrap();
        let back = pps_crypto::Ciphertext::from_bytes(&bytes, &kp.public).unwrap();
        prop_assert_eq!(kp.secret.decrypt(&back).unwrap(), Uint::from_u64(m));
    }
}
