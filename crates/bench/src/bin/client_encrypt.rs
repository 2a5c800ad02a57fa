//! `client_encrypt` ablation: where does the client's index-vector
//! encryption time go, and what do multi-core and precomputation buy?
//!
//! Five strategies over the same batch of 0/1 index plaintexts:
//!
//! * **sequential** — `PaillierPublicKey::encrypt` per element on one
//!   core: one fresh `r^N mod N²` exponentiation each, the paper's
//!   client as written and the path of anyone holding only `N`;
//! * **keypair** — `PaillierKeypair::encrypt` per element on one core,
//!   the `SumClient` path: ciphertexts distributed as the public path's,
//!   with `r^N` drawn from the secret factors by a fixed-base comb per
//!   prime and the CRT;
//! * **parallel** — `PaillierKeypair::encrypt_batch_parallel` across
//!   all host cores;
//! * **pool** — §3.3 preprocessing: a `RandomizerPool` filled offline
//!   through the keypair on one worker, then the cheap online
//!   `(1+mN)·r^N` multiply per element; fill and online phases are
//!   timed separately;
//! * **parallel pool fill** — the same offline fill across all host
//!   cores.
//!
//! Results land in `BENCH_client_encrypt.json` (repo root, or
//! `--out PATH`), serialized through `pps_obs::JsonValue` — the
//! workspace's one JSON writer (no serde). Alongside the per-`n` rows,
//! the file carries, for the smallest `n`, a full loopback `RunReport`
//! rendered with `RunReport::to_json` — the paper's four-component
//! decomposition in the same schema the CLI's `--trace json` prints.
//!
//! The JSON records `host_parallelism` because the parallel speedups
//! only apply on a multi-core host — on a single-core box the parallel
//! paths fall back to the sequential code and the speedup honestly
//! reports ≈1×.
//!
//! ```sh
//! cargo run --release -p pps-bench --bin client_encrypt
//! PPS_NS=1000,5000 cargo run --release -p pps-bench --bin client_encrypt -- --key-bits 256
//! ```

use std::time::Instant;

use pps_bignum::Uint;
use pps_crypto::{host_parallelism, PaillierKeypair, RandomizerPool};
use pps_obs::JsonValue;
use pps_protocol::{run_batched, Database, Selection, SumClient};
use pps_transport::LinkProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's client-side sweep: n = 1,000 … 100,000 selections.
const DEFAULT_NS: &[usize] = &[1_000, 10_000, 100_000];

const USAGE: &str = "usage: client_encrypt [--key-bits B] [--threads T] [--out PATH]
env: PPS_NS=comma,separated,sizes overrides the n sweep";

struct Row {
    n: usize,
    sequential_secs: f64,
    keypair_secs: f64,
    parallel_secs: f64,
    pool_fill_secs: f64,
    pool_online_secs: f64,
    parallel_pool_fill_secs: f64,
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

fn main() {
    let mut key_bits = 512usize;
    let mut threads = host_parallelism();
    let mut out_path = String::from("BENCH_client_encrypt.json");
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
            "--threads" => {
                threads = grab("--threads").parse().unwrap_or_else(|_| {
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
    let threads = threads.max(1);
    let ns = parse_env_ns().unwrap_or_else(|| DEFAULT_NS.to_vec());

    let host = host_parallelism();
    println!(
        "client_encrypt ablation: key = {key_bits} bits, threads = {threads}, \
         host parallelism = {host}, n sweep = {ns:?}"
    );
    if host < 2 {
        println!(
            "note: single-core host — parallel strategies fall back to the \
             sequential path, so speedups here are ≈1×; rerun on a ≥4-core \
             host for the headline numbers"
        );
    }

    let mut rng = StdRng::seed_from_u64(0x2004_c11e);
    let client = SumClient::new(PaillierKeypair::generate(key_bits, &mut rng).expect("keygen"));
    let owner = client.keypair();
    let key = &owner.public;

    let mut rows = Vec::new();
    for &n in &ns {
        // Alternating 0/1 plaintexts, the shape of a real index vector.
        let ms: Vec<Uint> = (0..n).map(|i| Uint::from_u64((i % 2) as u64)).collect();

        let (seq_cts, sequential_secs) = time(|| {
            ms.iter()
                .map(|m| key.encrypt(m, &mut rng).expect("seq"))
                .collect::<Vec<_>>()
        });
        let (owner_cts, keypair_secs) = time(|| {
            ms.iter()
                .map(|m| owner.encrypt(m, &mut rng).expect("keypair"))
                .collect::<Vec<_>>()
        });
        assert_eq!(seq_cts.len(), owner_cts.len());
        let (par_cts, parallel_secs) = time(|| {
            owner
                .encrypt_batch_parallel(&ms, threads, &mut rng)
                .expect("par")
        });
        assert_eq!(seq_cts.len(), par_cts.len());

        let mut pool = RandomizerPool::new(key.clone());
        let ((), pool_fill_secs) = time(|| pool.fill(owner, n, 1, &mut rng).expect("fill"));
        let (_, pool_online_secs) = time(|| {
            ms.iter()
                .map(|m| pool.encrypt(m).expect("online"))
                .collect::<Vec<_>>()
        });

        let mut par_pool = RandomizerPool::new(key.clone());
        let ((), parallel_pool_fill_secs) =
            time(|| par_pool.fill(owner, n, threads, &mut rng).expect("pfill"));
        assert_eq!(par_pool.remaining(), n);

        let row = Row {
            n,
            sequential_secs,
            keypair_secs,
            parallel_secs,
            pool_fill_secs,
            pool_online_secs,
            parallel_pool_fill_secs,
        };
        println!(
            "n = {:>6}: sequential {:>8.3}s | keypair {:>8.3}s ({:.2}x) | \
             keypair parallel({} thr) {:>8.3}s ({:.2}x) | \
             pool fill {:>8.3}s + online {:>7.3}s | parallel fill {:>8.3}s ({:.2}x)",
            row.n,
            row.sequential_secs,
            row.keypair_secs,
            row.sequential_secs / row.keypair_secs.max(1e-9),
            threads,
            row.parallel_secs,
            row.keypair_secs / row.parallel_secs.max(1e-9),
            row.pool_fill_secs,
            row.pool_online_secs,
            row.parallel_pool_fill_secs,
            row.pool_fill_secs / row.parallel_pool_fill_secs.max(1e-9),
        );
        rows.push(row);
    }

    // A full protocol run over a simulated loopback link for the
    // smallest n, reported in the same RunReport::to_json schema the
    // CLI's `--trace json` prints.
    let loopback = {
        let n = ns.iter().copied().min().expect("non-empty sweep");
        let db = Database::new((0..n as u64).map(|v| v % 1_000).collect()).expect("db");
        let selection =
            Selection::from_indices(n, &(0..n).step_by(2).collect::<Vec<_>>()).expect("selection");
        run_batched(
            &db,
            &selection,
            &client,
            LinkProfile::gigabit_lan(),
            100,
            &mut rng,
        )
        .expect("loopback run")
    };
    println!("loopback: {}", loopback.summary());

    let json = render_json(key_bits, threads, &rows, &loopback.to_json());
    std::fs::write(&out_path, &json).expect("write results");
    println!("\nwrote {out_path}");
}

fn row_json(r: &Row) -> JsonValue {
    JsonValue::object()
        .field("n", r.n)
        .field("sequential_secs", r.sequential_secs)
        .field("keypair_secs", r.keypair_secs)
        .field(
            "keypair_speedup",
            r.sequential_secs / r.keypair_secs.max(1e-9),
        )
        .field("parallel_secs", r.parallel_secs)
        .field(
            "parallel_speedup",
            r.keypair_secs / r.parallel_secs.max(1e-9),
        )
        .field("pool_fill_secs", r.pool_fill_secs)
        .field("pool_online_secs", r.pool_online_secs)
        .field("parallel_pool_fill_secs", r.parallel_pool_fill_secs)
        .field(
            "pool_fill_speedup",
            r.pool_fill_secs / r.parallel_pool_fill_secs.max(1e-9),
        )
}

/// The results file, serialized through the workspace's one JSON writer
/// (`pps_obs::JsonValue` — the workspace deliberately carries no serde)
/// and opened with the shared `BENCH_*.json` envelope.
fn render_json(key_bits: usize, threads: usize, rows: &[Row], loopback: &JsonValue) -> String {
    pps_bench::report::envelope(
        "client_encrypt",
        JsonValue::object()
            .field("key_bits", key_bits)
            .field("threads", threads)
            .field(
                "note",
                "sequential_secs is the public path, the paper's algorithm; every other \
                 column runs through the keypair. Parallel speedups (parallel_speedup against \
                 keypair_secs, pool_fill_speedup against pool_fill_secs) are meaningful only \
                 when host_parallelism >= 2",
            ),
    )
    .field("rows", JsonValue::array(rows.iter().map(row_json)))
    .field("loopback_report", loopback.clone())
    .render_pretty()
}
