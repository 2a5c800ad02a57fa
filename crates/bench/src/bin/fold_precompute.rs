//! `fold_precompute` ablation: what does the session's bucket fold buy
//! the server's hot fold path?
//!
//! Three strategies fold the same encrypted index vector against the
//! same fixed database exponents `x_i`:
//!
//! * **incremental** — the paper's server inner loop: one `E(I_i)^{x_i}`
//!   scalar exponentiation plus one homomorphic add per row;
//! * **multiexp** — bit-serial Straus: the rows share one
//!   squaring chain but every base still pays per-bit multiplies;
//! * **precomputed** — [`pps_bignum::SessionFold`], the serving
//!   default: every base is multiplied into the Pippenger bucket of its
//!   row's digit in each window (≈ 1 modmul per base per window), and
//!   the buckets are reduced once, at the product. The windows cover the
//!   widest row's bits exactly in widths as equal as possible, their
//!   count chosen from the row count within a fixed bucket-memory
//!   budget: 7, 7, 6, 6 and 6 bits for 32-bit rows at 512-bit keys.
//!
//! Every fold is oracle-checked: the result is decrypted and compared
//! against the plaintext selected sum.
//!
//! A server folds one query as a stream of `IndexBatch`es into one set
//! of buckets. The `serving` rows therefore stream a query of n = 2000
//! rows through a `ServerSession` in batches of 100 rows (`pps query`'s
//! default), 10, 3, 2 and 1 rows, under the paper's `Incremental` loop
//! and under the default strategy, and report the median of several
//! replays of each, and the session time outside the fold: batch
//! decoding (the check of every ciphertext) and framing. The bucket
//! fold's cost per row should not depend on the batch length.
//!
//! To keep the runtime dominated by the thing being measured (the
//! fold), the index vector is encrypted with **one shared randomizer**
//! `r^N` — valid ciphertexts, cheap to mint. This is a bench-only
//! shortcut: it weakens nothing about the fold (the server never sees
//! randomizers) and the decryption oracle-check still passes.
//!
//! Results land in `BENCH_fold_precompute.json` (repo root, or
//! `--out PATH`), serialized through `pps_obs::JsonValue`.
//!
//! ```sh
//! cargo run --release -p pps-bench --bin fold_precompute
//! PPS_NS=1000 cargo run --release -p pps-bench --bin fold_precompute -- --key-bits 256
//! ```

use std::time::Instant;

use pps_bignum::Uint;
use pps_crypto::{Ciphertext, PaillierKeypair};
use pps_obs::JsonValue;
use pps_protocol::messages::{Hello, IndexBatch, Product};
use pps_protocol::{Database, FoldStrategy, ServerSession};
use pps_transport::Frame;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The server-side sweep: n = 10,000 and 100,000 database rows.
const DEFAULT_NS: &[usize] = &[10_000, 100_000];

/// The serving rows: rows per query, rows per `IndexBatch` (`pps
/// query`'s default first), and replays per strategy.
const SERVING_N: usize = 2000;
const SERVING_BATCHES: &[usize] = &[100, 10, 3, 2, 1];
const SERVING_REPLAYS: usize = 9;

const USAGE: &str = "usage: fold_precompute [--key-bits B] [--out PATH]
env: PPS_NS=comma,separated,sizes overrides the n sweep";

struct Row {
    n: usize,
    incremental_fold_secs: f64,
    multiexp_fold_secs: f64,
    precomputed_fold_secs: f64,
    chosen_window_bits: Vec<usize>,
    bucket_bytes: usize,
}

/// One strategy's replays of the streamed query: medians of the fold
/// time (`ServerStats::compute`) and of the session's wall time, which
/// adds batch decoding and validation.
struct ServingPoint {
    strategy: FoldStrategy,
    fold_secs: f64,
    session_secs: f64,
}

struct Serving {
    batch: usize,
    window_bits: Vec<usize>,
    points: Vec<ServingPoint>,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn parse_env_ns() -> Option<Vec<usize>> {
    let raw = std::env::var("PPS_NS").ok()?;
    let ns: Vec<usize> = raw
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .collect();
    (!ns.is_empty()).then_some(ns)
}

/// Pseudo-random 32-bit database exponents (Fibonacci hashing), the
/// regime the paper's experiments assume.
fn database_values(n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| (i as u32).wrapping_mul(0x9E37_79B1) as u64)
        .collect()
}

fn main() {
    let mut key_bits = 512usize;
    let mut out_path = String::from("BENCH_fold_precompute.json");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut grab = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}\n{USAGE}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--key-bits" => {
                key_bits = grab("--key-bits").parse().unwrap_or_else(|_| {
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                })
            }
            "--out" => out_path = grab("--out"),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let ns = parse_env_ns().unwrap_or_else(|| DEFAULT_NS.to_vec());

    println!("fold_precompute ablation: key = {key_bits} bits, n sweep = {ns:?}");

    let mut rng = StdRng::seed_from_u64(0x2004_f01d);
    let kp = PaillierKeypair::generate(key_bits, &mut rng).expect("keygen");
    let key = kp.public.clone();
    // Bench-only shortcut: one shared randomizer keeps ciphertext
    // minting cheap (the fold, not encryption, is under test).
    let rn = key.sample_randomizer(&mut rng).expect("randomizer");

    let mut rows = Vec::new();
    for &n in &ns {
        let values = database_values(n);
        // Alternating selection vector: I_i = i mod 2.
        let cts: Vec<Ciphertext> = (0..n)
            .map(|i| {
                key.encrypt_with_randomizer(&Uint::from_u64((i % 2) as u64), &rn)
                    .expect("encrypt")
            })
            .collect();
        let oracle: u128 = values
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as u128 % 2) * x as u128)
            .sum();
        let check = |ct: &Ciphertext, label: &str| {
            let sum = kp.secret.decrypt(ct).expect("decrypt").to_u128().unwrap();
            assert_eq!(
                sum, oracle,
                "{label} fold disagrees with the oracle at n={n}"
            );
        };

        // Incremental: the paper's per-row scalar-mul + homomorphic add.
        let (inc, incremental_fold_secs) = time(|| {
            let mut acc = key
                .encrypt_with_randomizer(&Uint::zero(), &rn)
                .expect("acc");
            for (ct, &x) in cts.iter().zip(&values) {
                let term = key.mul_plain(ct, &Uint::from_u64(x)).expect("mul_plain");
                acc = key.add(&acc, &term).expect("add");
            }
            acc
        });
        check(&inc, "incremental");

        // MultiExp: bit-serial Straus over the whole vector.
        let weights: Vec<Uint> = values.iter().map(|&x| Uint::from_u64(x)).collect();
        let (me, multiexp_fold_secs) = time(|| key.fold_product(&cts, &weights).expect("multiexp"));
        check(&me, "multiexp");

        // Precomputed: the session's bucket fold over the whole
        // vector, its window choice and allocation included.
        let ((pc, chosen_window_bits, bucket_bytes), precomputed_fold_secs) = time(|| {
            let mut fold = key.session_fold(&values);
            fold.absorb(&cts, &values).expect("absorb");
            let buckets = fold.buckets();
            (
                fold.product(),
                buckets.window_bits().to_vec(),
                buckets.bucket_bytes(),
            )
        });
        check(&pc, "precomputed");

        let row = Row {
            n,
            incremental_fold_secs,
            multiexp_fold_secs,
            precomputed_fold_secs,
            chosen_window_bits,
            bucket_bytes,
        };
        println!(
            "n = {:>6}: incremental {:>8.3}s | multiexp {:>8.3}s | precomputed {:>8.3}s \
             ({:.2}x vs multiexp, widths {:?}, {} bucket bytes)",
            row.n,
            row.incremental_fold_secs,
            row.multiexp_fold_secs,
            row.precomputed_fold_secs,
            row.multiexp_fold_secs / row.precomputed_fold_secs.max(1e-9),
            &row.chosen_window_bits,
            row.bucket_bytes,
        );
        rows.push(row);
    }

    let serving: Vec<Serving> = SERVING_BATCHES
        .iter()
        .map(|&batch| serving_row(&kp, &rn, batch))
        .collect();
    for s in &serving {
        for p in &s.points {
            println!(
                "serving n = {SERVING_N} in {}-row batches, {:?}: fold {:.4}s, session {:.4}s \
                 ({:.4}s outside the fold)",
                s.batch,
                p.strategy,
                p.fold_secs,
                p.session_secs,
                p.session_secs - p.fold_secs
            );
        }
    }

    let json = render_json(key_bits, &rows, &serving);
    std::fs::write(&out_path, &json).expect("write results");
    println!("\nwrote {out_path}");
}

/// Streams one n = [`SERVING_N`] query in `batch`-row batches through a
/// `ServerSession` under `Incremental` and under the default strategy,
/// alternating the two, and oracle-checks every product.
fn serving_row(kp: &PaillierKeypair, rn: &Uint, batch: usize) -> Serving {
    let key = &kp.public;
    let values = database_values(SERVING_N);
    let db = Database::new(values.clone()).expect("database");
    let oracle: u128 = values.iter().step_by(2).map(|&x| u128::from(x)).sum();
    let hello = Hello {
        modulus: key.n().clone(),
        total: SERVING_N as u64,
        batch_size: batch as u32,
        trace: None,
    }
    .encode()
    .expect("hello");
    let batches: Vec<Frame> = (0..SERVING_N)
        .step_by(batch)
        .enumerate()
        .map(|(seq, first)| {
            IndexBatch {
                seq: seq as u64,
                ciphertexts: (first..(first + batch).min(SERVING_N))
                    .map(|i| {
                        key.encrypt_with_randomizer(&Uint::from_u64(u64::from(i % 2 == 0)), rn)
                            .expect("encrypt")
                    })
                    .collect(),
            }
            .encode(key)
            .expect("batch")
        })
        .collect();
    let strategies = [FoldStrategy::Incremental, FoldStrategy::default()];
    let mut samples = vec![(Vec::new(), Vec::new()); strategies.len()];
    for _ in 0..SERVING_REPLAYS {
        for (strategy, (folds, sessions)) in strategies.iter().zip(&mut samples) {
            let mut session = ServerSession::with_fold(&db, *strategy);
            let start = Instant::now();
            session.on_frame(&hello).expect("hello accepted");
            let mut reply = None;
            for frame in &batches {
                reply = session.on_frame(frame).expect("batch accepted");
            }
            sessions.push(start.elapsed().as_secs_f64());
            folds.push(session.stats().compute.as_secs_f64());
            let product = Product::decode(&reply.expect("product"), key).expect("product");
            let sum = kp.secret.decrypt(&product.ciphertext).expect("decrypt");
            assert_eq!(
                sum.to_u128(),
                Some(oracle),
                "{strategy:?} serving fold disagrees with the oracle"
            );
        }
    }
    Serving {
        batch,
        window_bits: key.session_fold(&values).buckets().window_bits().to_vec(),
        points: strategies
            .iter()
            .zip(samples)
            .map(|(&strategy, (folds, sessions))| ServingPoint {
                strategy,
                fold_secs: median(folds),
                session_secs: median(sessions),
            })
            .collect(),
    }
}

fn serving_json(s: &Serving) -> JsonValue {
    JsonValue::object()
        .field("n", SERVING_N)
        .field("batch", s.batch)
        .field("replays", SERVING_REPLAYS)
        .field(
            "chosen_window_bits",
            JsonValue::array(s.window_bits.clone()),
        )
        .field(
            "strategies",
            JsonValue::array(s.points.iter().map(|p| {
                JsonValue::object()
                    .field("strategy", format!("{:?}", p.strategy))
                    .field("fold_secs", p.fold_secs)
                    .field("fold_ns_per_row", p.fold_secs * 1e9 / SERVING_N as f64)
                    .field("session_secs", p.session_secs)
                    .field("outside_fold_secs", p.session_secs - p.fold_secs)
            })),
        )
}

fn row_json(r: &Row) -> JsonValue {
    JsonValue::object()
        .field("n", r.n)
        .field("incremental_fold_secs", r.incremental_fold_secs)
        .field("multiexp_fold_secs", r.multiexp_fold_secs)
        .field("precomputed_fold_secs", r.precomputed_fold_secs)
        .field(
            "chosen_window_bits",
            JsonValue::array(r.chosen_window_bits.clone()),
        )
        .field(
            "speedup_vs_multiexp",
            r.multiexp_fold_secs / r.precomputed_fold_secs.max(1e-9),
        )
        .field(
            "speedup_vs_incremental",
            r.incremental_fold_secs / r.precomputed_fold_secs.max(1e-9),
        )
        .field("bucket_bytes", r.bucket_bytes)
}

/// The results file, serialized through the workspace's one JSON writer
/// (`pps_obs::JsonValue` — the workspace deliberately carries no serde).
fn render_json(key_bits: usize, rows: &[Row], serving: &[Serving]) -> String {
    pps_bench::report::envelope(
        "fold_precompute",
        JsonValue::object().field("key_bits", key_bits).field(
            "note",
            "every fold is oracle-checked against the plaintext selected sum; \
             precomputed is the session's bucket fold, window choice and allocation included",
        ),
    )
    .field("rows", JsonValue::array(rows.iter().map(row_json)))
    .field(
        "serving",
        JsonValue::array(serving.iter().map(serving_json)),
    )
    .render_pretty()
}
