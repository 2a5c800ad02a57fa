//! Kernel probes: timed calls into the public functions of the bignum,
//! crypto and message layers on the workload's own key. Each probe runs
//! a fixed number of calls per round and reports the median round.

use std::hint::black_box;
use std::time::Instant;

use pps_bignum::{Montgomery, Uint};
use pps_protocol::messages::IndexBatch;
use pps_protocol::SumClient;
use rand::rngs::StdRng;

use crate::stats::median;

pub struct Probes {
    pub montmul_ns: f64,
    pub modpow_us: f64,
    pub encrypt_us: f64,
    pub decrypt_us: f64,
    pub keygen_s: f64,
    pub batch_encode_us: f64,
    pub batch_decode_us: f64,
}

/// Median over `rounds` rounds of the seconds one call of `f` takes,
/// each round timing `calls` calls.
fn per_call(rounds: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..rounds.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&times)
}

pub fn run(client: &SumClient, rounds: usize, rng: &mut StdRng) -> Result<Probes, String> {
    let key = &client.keypair().public;
    let e = |e: &dyn std::fmt::Display| e.to_string();

    // `N²`, the modulus every encryption and fold multiplies under.
    let mont = Montgomery::new(key.n_squared().clone()).map_err(|x| e(&x))?;
    let a = mont.to_mont(&key.sample_randomizer(rng).map_err(|x| e(&x))?);
    let mut acc = mont.to_mont(&key.sample_randomizer(rng).map_err(|x| e(&x))?);
    let montmul = per_call(rounds, 2000, || acc = mont.mul(black_box(&acc), &a));
    black_box(&acc);

    let base = Uint::random_coprime(rng, key.n()).map_err(|x| e(&x))?;
    let modpow = per_call(rounds, 10, || {
        black_box(
            mont.pow(black_box(&base), key.n())
                .expect("pow under a valid context"),
        );
    });

    let one = Uint::from_u64(1);
    let encrypt = per_call(rounds, 10, || {
        black_box(key.encrypt(black_box(&one), rng).expect("encrypt 1"));
    });

    let ct = key.encrypt(&one, rng).map_err(|x| e(&x))?;
    let decrypt = per_call(rounds, 20, || {
        black_box(
            client
                .keypair()
                .secret
                .decrypt(black_box(&ct))
                .expect("decrypt"),
        );
    });

    let keygen = per_call(rounds.min(3), 1, || {
        black_box(SumClient::generate(key.key_bits(), rng).expect("keygen"));
    });

    // One full batch of `pps query`'s default size.
    let batch = IndexBatch {
        seq: 0,
        ciphertexts: (0..100)
            .map(|_| key.encrypt(&one, rng))
            .collect::<Result<_, _>>()
            .map_err(|x| e(&x))?,
    };
    let frame = batch.encode(key).map_err(|x| e(&x))?;
    let encode = per_call(rounds, 20, || {
        black_box(batch.encode(key).expect("encode"));
    });
    let decode = per_call(rounds, 5, || {
        black_box(IndexBatch::decode(black_box(&frame), key).expect("decode"));
    });

    Ok(Probes {
        montmul_ns: montmul * 1e9,
        modpow_us: modpow * 1e6,
        encrypt_us: encrypt * 1e6,
        decrypt_us: decrypt * 1e6,
        keygen_s: keygen,
        batch_encode_us: encode * 1e6,
        batch_decode_us: decode * 1e6,
    })
}
