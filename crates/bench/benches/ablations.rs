//! Ablation benchmarks for the design choices the implementation makes:
//!
//! * modular reduction strategy (generic division vs Montgomery) on
//!   protocol-shaped exponentiations;
//! * `g = N + 1` fast Paillier encryption vs the textbook general-`g`
//!   scheme (the paper's OpenSSL implementation relies on the former);
//! * CRT vs reference Paillier decryption;
//! * classic 4-row garbling vs free-XOR on the selected-sum circuit;
//! * Karatsuba vs schoolbook multiplication around the threshold.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pps_bignum::{Montgomery, Uint};
use pps_crypto::{GeneralPaillier, PaillierKeypair};
use pps_gc::{garble, garble_free_xor, selected_sum_circuit};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn odd_modulus(rng: &mut StdRng, bits: usize) -> Uint {
    let mut n = Uint::random_bits_exact(rng, bits);
    n.set_bit(0, true);
    n
}

/// Reduction-strategy ablation: 1024-bit modpow with a 512-bit exponent,
/// the shape of a Paillier encryption at the paper's key size.
fn ablation_reduction_strategy(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let n = odd_modulus(&mut rng, 1024);
    let base = Uint::random_below(&mut rng, &n).unwrap();
    let exp = Uint::random_bits_exact(&mut rng, 512);

    let mut g = c.benchmark_group("ablation_modpow_1024");
    g.sample_size(10);
    g.bench_function("generic_division", |b| {
        b.iter(|| base.mod_pow(&exp, &n).unwrap());
    });
    let mont = Montgomery::new(n.clone()).unwrap();
    g.bench_function("montgomery", |b| {
        b.iter(|| mont.pow(&base, &exp).unwrap());
    });
    g.finish();
}

/// Encryption-scheme ablation: g = N+1 (one modpow) vs general g (two).
fn ablation_generator_choice(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    // Keygen's primes: the keypair's randomizer needs the factors of s − 1.
    let p = Uint::generate_prime_with_large_factor(&mut rng, 256).unwrap();
    let q = Uint::generate_prime_with_large_factor(&mut rng, 256).unwrap();
    let optimized = PaillierKeypair::from_primes(p.clone(), q.clone()).unwrap();
    let n = &p * &q;
    let general = GeneralPaillier::from_primes_and_g(p, q, n.add_u64(1)).unwrap();
    let m = Uint::from_u64(123_456);

    let mut g = c.benchmark_group("ablation_paillier_encrypt_512");
    g.sample_size(20);
    g.bench_function("g_equals_n_plus_1", |b| {
        b.iter(|| optimized.public.encrypt(&m, &mut rng).unwrap());
    });
    g.bench_function("general_g", |b| {
        b.iter(|| general.encrypt(&m, &mut rng).unwrap());
    });
    g.finish();
}

/// Decryption ablation: CRT over p²/q² vs direct L(c^λ)·μ.
fn ablation_decryption(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let kp = PaillierKeypair::generate(512, &mut rng).unwrap();
    let ct = kp.public.encrypt_u64(42, &mut rng).unwrap();

    let mut g = c.benchmark_group("ablation_paillier_decrypt_512");
    g.bench_function("crt", |b| {
        b.iter(|| kp.secret.decrypt(&ct).unwrap());
    });
    g.bench_function("reference", |b| {
        b.iter(|| kp.secret.decrypt_reference(&ct).unwrap());
    });
    g.finish();
}

/// Garbling ablation on the selected-sum circuit (XOR-heavy adders).
fn ablation_garbling(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_garbling_selected_sum_n32");
    g.sample_size(10);
    let (circuit, _) = selected_sum_circuit(32, 32);
    g.bench_function("classic_4row", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| garble(&circuit, &mut rng));
    });
    g.bench_function("free_xor", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| garble_free_xor(&circuit, &mut rng));
    });
    g.finish();
}

/// Server fold ablation: the paper's element-by-element loop vs the
/// session's bucket fold `pps serve` folds with.
fn ablation_server_fold(c: &mut Criterion) {
    use pps_protocol::messages::{Hello, IndexBatch};
    use pps_protocol::{Database, FoldStrategy, Selection, ServerSession, SumClient};

    let mut rng = StdRng::seed_from_u64(7);
    let n = 64;
    let db = Database::random_32bit(n, &mut rng).unwrap();
    let sel = Selection::random(n, 0.5, &mut rng).unwrap();
    let client = SumClient::generate(512, &mut rng).unwrap();
    let key = client.keypair().public.clone();
    let hello = Hello {
        modulus: key.n().clone(),
        total: n as u64,
        batch_size: n as u32,
        trace: None,
    }
    .encode()
    .unwrap();
    let cts: Vec<_> = sel
        .weights()
        .iter()
        .map(|&w| key.encrypt_u64(w, &mut rng).unwrap())
        .collect();
    let batch = IndexBatch {
        seq: 0,
        ciphertexts: cts,
    }
    .encode(&key)
    .unwrap();

    let mut g = c.benchmark_group("ablation_server_fold_n64_512bit");
    g.sample_size(20);
    for (name, fold) in [
        ("incremental", FoldStrategy::Incremental),
        ("precomputed", FoldStrategy::Precomputed),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut s = ServerSession::with_fold(&db, fold);
                s.on_frame(&hello).unwrap();
                s.on_frame(&batch).unwrap().unwrap()
            });
        });
    }
    g.finish();
}

/// Fold ablation at deployment scale: n = 10k–100k index ciphertexts
/// folded with the paper's loop and with Straus `fold_product` (PIR's
/// server fold), measured at the crypto layer; `fold_precompute` times
/// the session's bucket fold against both. A small pool of real
/// ciphertexts is cycled out to length n — the fold's cost depends only
/// on the count and exponent widths, not on ciphertext distinctness — so
/// setup stays seconds instead of minutes.
fn ablation_server_fold_scale(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    let kp = PaillierKeypair::generate(512, &mut rng).unwrap();
    let key = &kp.public;
    let pool: Vec<_> = (0..64)
        .map(|w| key.encrypt_u64(w & 1, &mut rng).unwrap())
        .collect();

    let mut g = c.benchmark_group("ablation_server_fold_scale_512bit");
    g.sample_size(10);
    for n in [10_000usize, 100_000] {
        let cts: Vec<_> = pool.iter().cycle().take(n).cloned().collect();
        let weights: Vec<Uint> = (0..n)
            .map(|_| Uint::from_u64(rand::Rng::gen::<u32>(&mut rng) as u64))
            .collect();
        g.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| {
                let mut acc = key.identity();
                for (ct, w) in cts.iter().zip(&weights) {
                    acc = key.add(&acc, &key.mul_plain(ct, w).unwrap()).unwrap();
                }
                acc
            });
        });
        g.bench_with_input(BenchmarkId::new("multiexp", n), &n, |b, _| {
            b.iter(|| key.fold_product(&cts, &weights).unwrap());
        });
    }
    g.finish();
}

/// Multiplication ablation around the Karatsuba threshold.
fn ablation_karatsuba(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let mut g = c.benchmark_group("ablation_mul_width");
    for limbs in [16usize, 32, 64, 128] {
        let a = Uint::from_limbs((0..limbs).map(|_| rand::Rng::gen(&mut rng)).collect());
        let b = Uint::from_limbs((0..limbs).map(|_| rand::Rng::gen(&mut rng)).collect());
        g.bench_with_input(
            BenchmarkId::from_parameter(limbs * 64),
            &limbs,
            |bench, _| {
                bench.iter(|| &a * &b);
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    ablation_reduction_strategy,
    ablation_generator_choice,
    ablation_decryption,
    ablation_garbling,
    ablation_server_fold,
    ablation_server_fold_scale,
    ablation_karatsuba
);
criterion_main!(benches);
