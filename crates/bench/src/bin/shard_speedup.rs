//! `shard_speedup` ablation: what does horizontal sharding buy the
//! server side of a *networked* private sum?
//!
//! The paper's §3.5 multi-database experiment reports a ≈2.99× server
//! speedup at k = 3 — each database folds only its own partition, and
//! the folds run concurrently. This harness re-measures that claim over
//! the real deployment stack instead of the simulated link: for each
//! k ∈ {1, 2, 3} it binds k `require_shard_handshake()` TCP workers on
//! loopback, each owning one contiguous horizontal partition, fans one
//! query out with [`run_sharded_query`], checks the combined
//! blinded-partial total against the plaintext oracle, and reads every
//! worker's homomorphic fold time back out of its `pps_fold_seconds`
//! histogram.
//!
//! The headline number is **server-compute speedup**: the k = 1
//! worker's fold time divided by the *slowest* worker's fold time at
//! k — the wall-clock-relevant critical path, since the legs run
//! concurrently. Results land in `BENCH_shard_speedup.json` (repo root,
//! or `--out PATH`), serialized through `pps_obs::JsonValue` — the
//! workspace's one JSON writer (no serde) — alongside the fan-out
//! engine's own `pps_shard_legs_total` / `pps_shard_resumes_total`
//! counters for each run.
//!
//! Each k is measured [`RUNS_PER_K`] times (every run oracle-checked)
//! and the **median** run — by slowest-shard fold time — is reported,
//! so a single preemption spike on a time-sliced host cannot masquerade
//! as signal. Rows where `host_parallelism < k` carry a
//! `degraded_host: true` flag: there the k legs time-slice one CPU,
//! every fold's wall time absorbs preemption by the other legs, and the
//! measured speedup honestly lands near (or below) 1× — rerun on a
//! ≥4-core host for numbers comparable to the paper's.
//!
//! ```sh
//! cargo run --release -p pps-bench --bin shard_speedup
//! cargo run --release -p pps-bench --bin shard_speedup -- --key-bits 256 --n 300
//! ```

use std::sync::Arc;
use std::time::Instant;

use pps_crypto::host_parallelism;
use pps_obs::{names, JsonValue, Registry};
use pps_protocol::{
    run_sharded_query, Database, FoldStrategy, ServerObs, ShardObs, ShardQueryConfig, SumClient,
    TcpQueryConfig, TcpServer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's multi-database sweep point: k = 1 (the unsharded
/// baseline) up to k = 3, where Fig. 7 reports ≈2.99×.
const KS: &[usize] = &[1, 2, 3];

/// The paper's measured server speedup at k = 3.
const PAPER_K3_SPEEDUP: f64 = 2.99;

/// Oracle-checked runs per k; the median (by slowest-shard fold time)
/// is reported, so one scheduler preemption spike cannot pass as
/// signal.
const RUNS_PER_K: usize = 3;

const USAGE: &str = "usage: shard_speedup [--key-bits B] [--n N] [--out PATH]";

fn value(global: usize) -> u64 {
    global as u64 % 997
}

/// One oracle-checked measurement of a k-shard query.
struct Run {
    wall_secs: f64,
    fold_secs: Vec<f64>,
    legs: u64,
    resumes: u64,
}

impl Run {
    /// The critical path: the slowest worker's total fold time.
    fn max_fold_secs(&self) -> f64 {
        self.fold_secs.iter().copied().fold(0.0, f64::max)
    }
}

struct Row {
    k: usize,
    /// `host_parallelism < k`: the legs time-sliced one CPU, so the
    /// speedup is not comparable to the paper's multi-core number.
    degraded_host: bool,
    /// The median run, by [`Run::max_fold_secs`].
    median: Run,
    /// Every run's critical-path fold time, for dispersion.
    max_fold_secs_runs: Vec<f64>,
}

fn main() {
    let mut key_bits = 512usize;
    let mut n = 600usize;
    let mut out_path = String::from("BENCH_shard_speedup.json");
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
            "--n" => {
                n = grab("--n").parse().unwrap_or_else(|_| {
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
    let max_k = *KS.iter().max().expect("non-empty sweep");
    assert!(n >= max_k, "need at least one row per shard");

    let select: Vec<usize> = (0..n).step_by(2).collect();
    let oracle: u128 = select.iter().map(|&i| value(i) as u128).sum();

    let host = host_parallelism();
    println!(
        "shard_speedup ablation: key = {key_bits} bits, n = {n} rows, \
         {} selected, host parallelism = {host}, k sweep = {KS:?}",
        select.len()
    );
    if host < 2 {
        println!(
            "note: single-core host — the k legs time-slice one CPU, so the \
             measured speedup is ≈1x here; rerun on a ≥4-core host for \
             numbers comparable to the paper's"
        );
    }

    let mut rng = StdRng::seed_from_u64(0x2004_5a4d);
    let client = SumClient::generate(key_bits, &mut rng).expect("keygen");

    let mut rows = Vec::new();
    for &k in KS {
        let mut runs: Vec<Run> = (0..RUNS_PER_K)
            .map(|_| measure_once(k, n, &select, oracle, &client, &mut rng))
            .collect();
        // Median by the critical-path fold time: sort, take the middle.
        runs.sort_by(|a, b| a.max_fold_secs().total_cmp(&b.max_fold_secs()));
        let max_fold_secs_runs: Vec<f64> = runs.iter().map(Run::max_fold_secs).collect();
        let median = runs.remove(runs.len() / 2);
        let row = Row {
            k,
            degraded_host: host < k,
            median,
            max_fold_secs_runs,
        };
        println!(
            "k = {}: wall {:>7.3}s | slowest shard fold {:>7.3}s (median of {}: {:?}) | \
             legs {} resumes {}{}",
            row.k,
            row.median.wall_secs,
            row.median.max_fold_secs(),
            RUNS_PER_K,
            row.max_fold_secs_runs,
            row.median.legs,
            row.median.resumes,
            if row.degraded_host {
                " | degraded host"
            } else {
                ""
            },
        );
        rows.push(row);
    }

    let baseline = rows[0].median.max_fold_secs();
    for row in &rows[1..] {
        println!(
            "k = {}: server-compute speedup {:.2}x over k = 1",
            row.k,
            baseline / row.median.max_fold_secs().max(1e-9),
        );
    }
    if let Some(k3) = rows.iter().find(|r| r.k == 3) {
        println!(
            "paper (Fig. 7, simulated multi-DB) reports {PAPER_K3_SPEEDUP}x at k = 3; \
             measured here over real sockets: {:.2}x",
            baseline / k3.median.max_fold_secs().max(1e-9),
        );
    }

    let json = render_json(key_bits, n, select.len(), baseline, &rows);
    std::fs::write(&out_path, &json).expect("write results");
    println!("\nwrote {out_path}");
}

/// One k-shard query over fresh workers, oracle-checked, with every
/// worker's fold time read back out of its own registry.
fn measure_once(
    k: usize,
    n: usize,
    select: &[usize],
    oracle: u128,
    client: &SumClient,
    rng: &mut StdRng,
) -> Run {
    // Contiguous horizontal partitions; the last shard takes the
    // remainder so every global row is owned by exactly one worker.
    let base = n / k;
    let mut servers = Vec::with_capacity(k);
    let mut registries = Vec::with_capacity(k);
    for i in 0..k {
        let lo = i * base;
        let hi = if i == k - 1 { n } else { lo + base };
        let db = Arc::new(Database::new((lo..hi).map(value).collect()).expect("db"));
        let registry = Arc::new(Registry::new());
        let server = TcpServer::bind(db, "127.0.0.1:0", FoldStrategy::default())
            .expect("bind")
            .require_shard_handshake()
            .with_observability(ServerObs::new(Arc::clone(&registry)));
        registries.push(registry);
        servers.push(server);
    }
    let addrs: Vec<String> = servers
        .iter()
        .map(|s| s.local_addr().expect("addr").to_string())
        .collect();

    let fanout_registry = Arc::new(Registry::new());
    let obs = ShardObs::new(Arc::clone(&fanout_registry));
    let config = ShardQueryConfig {
        tcp: TcpQueryConfig {
            batch_size: 50,
            ..TcpQueryConfig::default()
        },
        value_bound: Some(997),
    };

    let wall_secs = std::thread::scope(|scope| {
        let handles: Vec<_> = servers
            .into_iter()
            .map(|s| scope.spawn(move || s.serve(Some(1))))
            .collect();
        let start = Instant::now();
        let outcome = run_sharded_query(&addrs, client, select, &config, Some(&obs), rng)
            .expect("sharded query");
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(outcome.sum, oracle, "blindings must cancel exactly");
        for h in handles {
            let stats = h.join().expect("server thread");
            assert_eq!(stats.sessions, 1);
            assert_eq!(stats.failed, 0);
        }
        wall
    });

    // Read each worker's homomorphic fold time back out of its own
    // registry (`Registry::histogram` is get-or-create, so this
    // returns the handle the server recorded into).
    let fold_secs: Vec<f64> = registries
        .iter()
        .map(|r| {
            r.histogram(names::FOLD_SECONDS, "")
                .snapshot()
                .sum()
                .as_secs_f64()
        })
        .collect();
    Run {
        wall_secs,
        fold_secs,
        legs: fanout_registry.counter(names::SHARD_LEGS_TOTAL, "").get(),
        resumes: fanout_registry
            .counter(names::SHARD_RESUMES_TOTAL, "")
            .get(),
    }
}

fn row_json(r: &Row, baseline: f64) -> JsonValue {
    JsonValue::object()
        .field("k", r.k)
        .field("degraded_host", r.degraded_host)
        .field("runs", r.max_fold_secs_runs.len())
        .field("wall_secs", r.median.wall_secs)
        .field(
            "fold_secs_per_shard",
            JsonValue::array(r.median.fold_secs.iter().map(|&s| JsonValue::from(s))),
        )
        .field("max_fold_secs", r.median.max_fold_secs())
        .field(
            "max_fold_secs_runs",
            JsonValue::array(r.max_fold_secs_runs.iter().map(|&s| JsonValue::from(s))),
        )
        .field(
            "server_compute_speedup",
            baseline / r.median.max_fold_secs().max(1e-9),
        )
        .field("shard_legs_total", r.median.legs)
        .field("shard_resumes_total", r.median.resumes)
}

/// The results file, serialized through the workspace's one JSON writer
/// (`pps_obs::JsonValue` — the workspace deliberately carries no serde).
fn render_json(key_bits: usize, n: usize, selected: usize, baseline: f64, rows: &[Row]) -> String {
    pps_bench::report::envelope(
        "shard_speedup",
        JsonValue::object()
            .field("key_bits", key_bits)
            .field("n", n)
            .field("selected", selected)
            .field("paper_k3_speedup", PAPER_K3_SPEEDUP)
            .field("runs_per_k", RUNS_PER_K)
            .field(
                "note",
                "server_compute_speedup divides the k=1 worker's median total \
                 homomorphic fold time by the slowest worker's fold time in the \
                 median run at k — the critical path, since shard legs run \
                 concurrently; every run is oracle-checked before it is recorded. \
                 Rows with degraded_host=true ran with host_parallelism < k and \
                 are not comparable to the paper's multi-core numbers",
            ),
    )
    .field(
        "rows",
        JsonValue::array(rows.iter().map(|r| row_json(r, baseline))),
    )
    .render_pretty()
}
