//! `server_throughput`: sessions/sec and tail latency for the
//! thread-per-connection server runtime under closed-loop load.
//!
//! The campaign: `--sessions` total loopback sessions driven
//! `--concurrency` at a time, every session replaying one pre-encoded
//! query (one small Paillier key, one `Hello`, one `IndexBatch`).
//! The reply is therefore bitwise identical across
//! sessions: a warm-up session decrypts it against the plaintext
//! selected sum (the oracle), and every other session byte-compares
//! its `Product` against that reference — a throughput number only
//! counts if the answers were right.
//!
//! Per-session latency is measured client-side, connect → product
//! read, under full load (it includes queueing inside the server, which
//! is the point). Results land in `BENCH_server_throughput.json` (repo
//! root, or `--out PATH`).
//!
//! ```sh
//! cargo run --release -p pps-bench --bin server_throughput
//! cargo run --release -p pps-bench --bin server_throughput -- --small
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pps_obs::JsonValue;
use pps_protocol::messages::{Hello, IndexBatch, MsgType};
use pps_protocol::{AggregateStats, Database, FoldStrategy, Selection, SumClient, TcpServer};
use pps_transport::{Frame, TcpWire, Wire};
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "usage: server_throughput [--sessions N] [--concurrency C] \
[--key-bits B] [--small] [--out PATH]
  --small  CI profile: 400 sessions, 100 concurrent";

/// One pre-encoded query and the decryption oracle that validates its
/// reply.
struct Campaign {
    client: SumClient,
    hello: Frame,
    batch: Frame,
    query_bytes: Vec<u8>,
    expected_sum: u128,
}

struct Row {
    wall_secs: f64,
    sessions_per_sec: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    stats: AggregateStats,
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    s
}

fn read_exactly(s: &mut TcpStream, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    s.read_exact(&mut buf).expect("read reply");
    buf
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The campaign: `sessions` total, `concurrency` in flight.
fn run_campaign(db_rows: &[u64], campaign: &Campaign, sessions: usize, concurrency: usize) -> Row {
    let server = TcpServer::bind(
        Arc::new(Database::new(db_rows.to_vec()).expect("db")),
        "127.0.0.1:0",
        FoldStrategy::Incremental,
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = std::thread::spawn(move || server.serve(Some(sessions)));

    // Warm-up session over the blocking wire (counts toward the total):
    // decrypt the product against the oracle and pin the exact reply
    // bytes every replayed session must see.
    let start = Instant::now();
    let (hello_ack_len, product_bytes) = {
        let mut wire = TcpWire::new(connect(addr));
        wire.send(campaign.hello.clone()).expect("send hello");
        let ack = wire.recv().expect("hello ack");
        assert_eq!(ack.msg_type, MsgType::HelloAck as u8);
        wire.send(campaign.batch.clone()).expect("send batch");
        let product = wire.recv().expect("product");
        assert_eq!(product.msg_type, MsgType::Product as u8);
        let (sum, _) = campaign.client.decrypt_product(&product).expect("decrypt");
        assert_eq!(sum.to_u128().unwrap(), campaign.expected_sum, "oracle sum");
        (ack.encoded_len(), product.encode().to_vec())
    };

    let mut latencies_ms: Vec<f64> = Vec::with_capacity(sessions);
    let mut completed = 1usize;
    while completed < sessions {
        let n = concurrency.min(sessions - completed);
        let mut chunk: Vec<(TcpStream, Instant)> = Vec::with_capacity(n);
        for _ in 0..n {
            let began = Instant::now();
            let mut s = connect(addr);
            s.write_all(&campaign.query_bytes).expect("write query");
            chunk.push((s, began));
        }
        for (mut s, began) in chunk {
            read_exactly(&mut s, hello_ack_len);
            let got = read_exactly(&mut s, product_bytes.len());
            assert_eq!(got, product_bytes, "product mismatch");
            latencies_ms.push(began.elapsed().as_secs_f64() * 1e3);
            completed += 1;
        }
    }
    let wall = start.elapsed();
    let stats = server_thread.join().expect("server thread");
    assert_eq!(stats.sessions, sessions, "every session completed");
    assert_eq!(stats.failed + stats.refused + stats.evicted, 0);

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Row {
        wall_secs: wall.as_secs_f64(),
        sessions_per_sec: sessions as f64 / wall.as_secs_f64(),
        p50_ms: percentile(&latencies_ms, 0.50),
        p95_ms: percentile(&latencies_ms, 0.95),
        p99_ms: percentile(&latencies_ms, 0.99),
        stats,
    }
}

fn main() {
    let mut sessions = 10_000usize;
    let mut concurrency = 1_000usize;
    let mut key_bits = 128usize;
    let mut out_path = String::from("BENCH_server_throughput.json");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut grab = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}\n{USAGE}");
                std::process::exit(2);
            })
        };
        let parse = |s: String| {
            s.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("{USAGE}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--sessions" => sessions = parse(grab("--sessions")),
            "--concurrency" => concurrency = parse(grab("--concurrency")),
            "--key-bits" => key_bits = parse(grab("--key-bits")),
            "--small" => {
                sessions = 400;
                concurrency = 100;
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
    let sessions = sessions.max(2);
    let concurrency = concurrency.max(1);

    let db_rows: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6];
    let select = [0usize, 2, 5, 7];
    let expected_sum: u128 = select.iter().map(|&i| db_rows[i] as u128).sum();

    println!(
        "server_throughput: {sessions} sessions, {concurrency} concurrent, \
         key = {key_bits} bits"
    );

    // Pre-encode the query once; every session replays these bytes.
    let mut rng = StdRng::seed_from_u64(0x2004_5e55);
    let client = SumClient::generate(key_bits, &mut rng).expect("keygen");
    let selection = Selection::from_indices(db_rows.len(), &select).expect("selection");
    let hello = Hello {
        modulus: client.keypair().public.n().clone(),
        total: selection.len() as u64,
        batch_size: selection.len() as u32,
        trace: None,
    }
    .encode()
    .expect("hello");
    let cts: Vec<_> = selection
        .weights()
        .iter()
        .map(|&w| {
            client
                .keypair()
                .public
                .encrypt_u64(w, &mut rng)
                .expect("encrypt")
        })
        .collect();
    let batch = IndexBatch {
        seq: 0,
        ciphertexts: cts,
    }
    .encode(&client.keypair().public)
    .expect("batch");
    let mut query_bytes = hello.encode().to_vec();
    query_bytes.extend_from_slice(&batch.encode());
    let campaign = Campaign {
        client,
        hello,
        batch,
        query_bytes,
        expected_sum,
    };

    let row = run_campaign(&db_rows, &campaign, sessions, concurrency);
    println!(
        "{:.1} sessions/s over {:.2}s | p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms | \
         peak_active {}",
        row.sessions_per_sec,
        row.wall_secs,
        row.p50_ms,
        row.p95_ms,
        row.p99_ms,
        row.stats.peak_active,
    );

    let json = render_json(sessions, concurrency, key_bits, &row);
    std::fs::write(&out_path, &json).expect("write results");
    println!("\nwrote {out_path}");
}

fn render_json(sessions: usize, concurrency: usize, key_bits: usize, row: &Row) -> String {
    pps_bench::report::envelope(
        "server_throughput",
        JsonValue::object()
            .field("sessions", sessions)
            .field("concurrency", concurrency)
            .field("key_bits", key_bits)
            .field(
                "note",
                "closed-loop load, loopback; every session's product is byte-checked against \
                 a decrypted oracle reply; latency is client-side connect-to-product under load",
            ),
    )
    .field(
        "rows",
        JsonValue::array(std::iter::once(
            JsonValue::object()
                .field("wall_secs", row.wall_secs)
                .field("sessions_per_sec", row.sessions_per_sec)
                .field("p50_ms", row.p50_ms)
                .field("p95_ms", row.p95_ms)
                .field("p99_ms", row.p99_ms)
                .field("peak_active", row.stats.peak_active)
                .field("queued", row.stats.queued)
                .field("sessions_completed", row.stats.sessions),
        )),
    )
    .render_pretty()
}
