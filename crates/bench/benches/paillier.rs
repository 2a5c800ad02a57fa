//! Paillier operation benchmarks at the paper's 512-bit key size (plus
//! larger moderns), isolating the four protocol cost components.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pps_bignum::Uint;
use pps_crypto::{BitEncryptionPool, PaillierKeypair};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn keypair(bits: usize) -> PaillierKeypair {
    let mut rng = StdRng::seed_from_u64(bits as u64);
    PaillierKeypair::generate(bits, &mut rng).unwrap()
}

fn bench_encrypt(c: &mut Criterion) {
    let mut g = c.benchmark_group("paillier_encrypt");
    for bits in [512usize, 1024, 2048] {
        let kp = keypair(bits);
        let mut rng = StdRng::seed_from_u64(7);
        g.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, _| {
            b.iter(|| kp.public.encrypt_u64(1, &mut rng).unwrap());
        });
    }
    g.finish();
}

fn bench_encrypt_pooled(c: &mut Criterion) {
    // The §3.3 online path: a pool lookup instead of an exponentiation.
    let kp = keypair(512);
    let mut rng = StdRng::seed_from_u64(8);
    c.bench_function("paillier_encrypt_pooled_512", |b| {
        b.iter_batched(
            || {
                let mut pool = BitEncryptionPool::new(kp.public.clone());
                pool.fill(&kp, 0, 64, 1, &mut rng).unwrap();
                pool
            },
            |mut pool| {
                for _ in 0..64 {
                    let _ = pool.take(true).unwrap();
                }
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

fn bench_decrypt(c: &mut Criterion) {
    let mut g = c.benchmark_group("paillier_decrypt_crt");
    for bits in [512usize, 1024, 2048] {
        let kp = keypair(bits);
        let mut rng = StdRng::seed_from_u64(9);
        let ct = kp.public.encrypt_u64(123_456_789, &mut rng).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, _| {
            b.iter(|| kp.secret.decrypt(&ct).unwrap());
        });
    }
    g.finish();
}

fn bench_decrypt_reference_vs_crt(c: &mut Criterion) {
    let kp = keypair(512);
    let mut rng = StdRng::seed_from_u64(10);
    let ct = kp.public.encrypt_u64(42, &mut rng).unwrap();
    c.bench_function("paillier_decrypt_reference_512", |b| {
        b.iter(|| kp.secret.decrypt_reference(&ct).unwrap());
    });
}

fn bench_server_fold(c: &mut Criterion) {
    // The server's per-element work: E(I)^x · acc mod N², 32-bit x.
    let kp = keypair(512);
    let mut rng = StdRng::seed_from_u64(11);
    let e_i = kp.public.encrypt_u64(1, &mut rng).unwrap();
    let acc = kp.public.encrypt_u64(0, &mut rng).unwrap();
    let x = Uint::from_u64(0xdead_beef);
    c.bench_function("paillier_server_fold_512", |b| {
        b.iter(|| {
            let term = kp.public.mul_plain(&e_i, &x).unwrap();
            kp.public.add(&acc, &term).unwrap()
        });
    });
}

fn bench_keygen(c: &mut Criterion) {
    let mut g = c.benchmark_group("paillier_keygen");
    g.sample_size(10);
    for bits in [256usize, 512] {
        g.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            let mut rng = StdRng::seed_from_u64(12);
            b.iter(|| PaillierKeypair::generate(bits, &mut rng).unwrap());
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_encrypt,
    bench_encrypt_pooled,
    bench_decrypt,
    bench_decrypt_reference_vs_crt,
    bench_server_fold,
    bench_keygen
);
criterion_main!(benches);
