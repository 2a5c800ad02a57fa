//! Parallel/sequential parity and determinism for the querier's batch
//! encryption, `PaillierKeypair::encrypt_batch_parallel`, and the pool
//! fill built on it.
//!
//! The batch's contract has three load-bearing clauses:
//!
//! 1. **parity** — `encrypt_batch_parallel` decrypts to exactly the
//!    plaintexts a sequential loop would produce, for any batch size and
//!    thread count (including `threads = 0` and `1` and batches smaller
//!    than the thread count);
//! 2. **determinism** — per-worker CSPRNG streams are split off the
//!    caller's RNG, so a fixed `(seed, threads)` pair always yields the
//!    identical ciphertext vector, regardless of scheduling;
//! 3. **freshness** — every ciphertext in a batch carries independent
//!    randomness (no seed reuse across worker chunks).

use std::sync::OnceLock;

use pps_bignum::Uint;
use pps_crypto::{PaillierKeypair, RandomizerPool};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn keypair() -> &'static PaillierKeypair {
    static KP: OnceLock<PaillierKeypair> = OnceLock::new();
    KP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xfeed);
        PaillierKeypair::generate(128, &mut rng).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_decrypts_to_sequential_plaintexts(
        ms in prop::collection::vec(any::<u64>(), 0..40),
        threads in 0usize..10,
        seed in any::<u64>(),
    ) {
        let kp = keypair();
        let plain: Vec<Uint> = ms.iter().map(|&m| Uint::from_u64(m)).collect();
        let cts = kp
            .encrypt_batch_parallel(&plain, threads, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        prop_assert_eq!(cts.len(), plain.len());
        // Order-preserving: element i decrypts to plaintext i, exactly
        // what the sequential loop guarantees.
        for (ct, m) in cts.iter().zip(&plain) {
            prop_assert_eq!(&kp.secret.decrypt(ct).unwrap(), m);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed_and_threads(
        len in 0usize..30,
        threads in 0usize..8,
        seed in any::<u64>(),
    ) {
        let kp = keypair();
        let plain: Vec<Uint> = (0..len as u64).map(Uint::from_u64).collect();
        let run = |threads| {
            kp.encrypt_batch_parallel(&plain, threads, &mut StdRng::seed_from_u64(seed))
                .unwrap()
        };
        let a = run(threads);
        // Same seed + same thread count must reproduce ciphertexts, and
        // `threads = 0` runs as one thread.
        prop_assert_eq!(&a, &run(threads));
        prop_assert_eq!(a, run(threads.max(1)));
    }

    #[test]
    fn randomizer_sampling_deterministic_and_usable(
        count in 0usize..25,
        threads in 0usize..8,
        seed in any::<u64>(),
    ) {
        let kp = keypair();
        let fill = || {
            let mut pool = RandomizerPool::new(kp.public.clone());
            pool.fill(kp, count, threads, &mut StdRng::seed_from_u64(seed)).unwrap();
            pool
        };
        let (mut a, mut b) = (fill(), fill());
        prop_assert_eq!(a.remaining(), count);
        for _ in 0..count {
            let ct = a.encrypt(&Uint::from_u64(9)).unwrap();
            prop_assert_eq!(&ct, &b.encrypt(&Uint::from_u64(9)).unwrap());
            prop_assert_eq!(kp.secret.decrypt(&ct).unwrap(), Uint::from_u64(9));
        }
    }
}

#[test]
fn batch_smaller_than_thread_count() {
    let kp = keypair();
    // 2 plaintexts, 16 threads: must clamp, not panic or drop elements.
    let plain = vec![Uint::from_u64(5), Uint::from_u64(6)];
    let cts = kp
        .encrypt_batch_parallel(&plain, 16, &mut StdRng::seed_from_u64(1))
        .unwrap();
    assert_eq!(cts.len(), 2);
    assert_eq!(kp.secret.decrypt(&cts[0]).unwrap(), Uint::from_u64(5));
    assert_eq!(kp.secret.decrypt(&cts[1]).unwrap(), Uint::from_u64(6));
    // Empty batch: no threads spawned, empty result.
    let none = kp
        .encrypt_batch_parallel(&[], 8, &mut StdRng::seed_from_u64(2))
        .unwrap();
    assert!(none.is_empty());
}

#[test]
fn every_ciphertext_in_a_batch_is_distinct() {
    // Semantic security across worker chunks: identical plaintexts must
    // still produce pairwise-distinct ciphertexts, which fails if two
    // workers were ever seeded with the same stream.
    let kp = keypair();
    let plain = vec![Uint::one(); 64];
    let cts = kp
        .encrypt_batch_parallel(&plain, 8, &mut StdRng::seed_from_u64(3))
        .unwrap();
    for i in 0..cts.len() {
        for j in (i + 1)..cts.len() {
            assert_ne!(cts[i], cts[j], "ciphertexts {i} and {j} collide");
        }
    }
}

#[test]
fn plaintext_out_of_range_surfaces_from_workers() {
    let kp = keypair();
    let mut plain: Vec<Uint> = (0..20u64).map(Uint::from_u64).collect();
    plain.push(kp.public.n().clone()); // m >= N: invalid
    let err = kp
        .encrypt_batch_parallel(&plain, 4, &mut StdRng::seed_from_u64(4))
        .unwrap_err();
    assert!(matches!(err, pps_crypto::CryptoError::PlaintextOutOfRange));
}
