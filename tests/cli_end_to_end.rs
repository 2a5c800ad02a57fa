//! End-to-end tests of the `pps` CLI plumbing: a real server thread on an
//! ephemeral TCP port, queried by the library entry points the binary
//! wraps.

use std::net::TcpListener;
use std::path::PathBuf;

use pps_cli::{
    load_values, run_keygen, run_multiclient_sim, run_query, run_server, QueryOptions, ServeOptions,
};
use pps_obs::JsonValue;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pps-cli-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Grabs an ephemeral port that is (momentarily) free.
fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap().to_string();
    drop(l);
    addr
}

fn spawn_server(values: Vec<u64>, addr: String, sessions: usize) {
    spawn_server_opts(
        values,
        addr,
        ServeOptions {
            max_sessions: Some(sessions),
            ..ServeOptions::default()
        },
    );
}

fn spawn_server_opts(values: Vec<u64>, addr: String, opts: ServeOptions) {
    let server_addr = addr.clone();
    std::thread::spawn(move || {
        let mut log = Vec::new();
        run_server(values, &server_addr, &opts, &mut log).unwrap();
    });
    // Wait for the listener to come up.
    for _ in 0..100 {
        if std::net::TcpStream::connect_timeout(
            &addr.parse().unwrap(),
            std::time::Duration::from_millis(50),
        )
        .is_ok()
        {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("server never came up on {addr}");
}

#[test]
fn serve_and_query_round_trip() {
    let addr = free_addr();
    // The probe connection in spawn_server consumes one session slot, so
    // allow two.
    spawn_server(vec![100, 200, 300, 400, 500], addr.clone(), 2);

    let mut rng = StdRng::seed_from_u64(1);
    let opts = QueryOptions {
        key_bits: 128,
        batch: 10,
        ..QueryOptions::default()
    };
    let outcome = run_query(&addr, &[0, 2, 4], &opts, &mut rng).unwrap();
    assert_eq!(outcome.sum, 900);
    assert_eq!(outcome.n, 5);
    assert_eq!(outcome.selected, 3);
    assert!(outcome.bytes.0 > 0 && outcome.bytes.1 > 0);
}

#[test]
fn precomputed_server_agrees() {
    let addr = free_addr();
    spawn_server((1..=50).collect(), addr.clone(), 2);
    let mut rng = StdRng::seed_from_u64(2);
    let opts = QueryOptions {
        key_bits: 128,
        batch: 16,
        client_threads: 2,
        ..QueryOptions::default()
    };
    let outcome = run_query(&addr, &[9, 19, 29], &opts, &mut rng).unwrap();
    // Rows 9, 19, 29 hold values 10, 20, 30.
    assert_eq!(outcome.sum, 60);
}

#[test]
fn stored_key_query() {
    let dir = temp_dir();
    let key_path = dir.join("client.key");
    let mut rng = StdRng::seed_from_u64(3);
    run_keygen(128, &key_path, &mut rng).unwrap();

    let addr = free_addr();
    spawn_server(vec![7, 11, 13], addr.clone(), 2);
    let opts = QueryOptions {
        key_bits: 0,
        key_file: Some(key_path.to_string_lossy().into_owned()),
        batch: 3,
        ..QueryOptions::default()
    };
    let outcome = run_query(&addr, &[1, 2], &opts, &mut rng).unwrap();
    assert_eq!(outcome.sum, 24);
}

#[test]
fn out_of_range_selection_fails_cleanly() {
    let addr = free_addr();
    spawn_server(vec![1, 2, 3], addr.clone(), 2);
    let mut rng = StdRng::seed_from_u64(4);
    let opts = QueryOptions {
        key_bits: 128,
        batch: 1,
        ..QueryOptions::default()
    };
    let err = run_query(&addr, &[5], &opts, &mut rng).unwrap_err();
    assert!(err.message.contains("out of range"), "{}", err.message);
}

#[test]
fn connection_refused_is_a_runtime_error() {
    let mut rng = StdRng::seed_from_u64(5);
    let opts = QueryOptions {
        key_bits: 128,
        batch: 1,
        ..QueryOptions::default()
    };
    let err = run_query("127.0.0.1:1", &[0], &opts, &mut rng).unwrap_err();
    assert_eq!(err.code, 1);
}

#[test]
fn sharded_query_round_trip() {
    // Three `pps shard-serve` workers, each owning one contiguous
    // horizontal partition of the global rows 1..=30; `pps query
    // --shards` fans out, combines the blinded partials, and recovers
    // the exact global sum.
    let shards: Vec<String> = (0..3)
        .map(|i| {
            let addr = free_addr();
            let lo = i * 10 + 1;
            // The probe connection in spawn_server_opts consumes one
            // session slot, so allow two.
            spawn_server_opts(
                (lo..lo + 10).collect(),
                addr.clone(),
                ServeOptions {
                    max_sessions: Some(2),
                    shard_only: true,
                    ..ServeOptions::default()
                },
            );
            addr
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(7);
    let opts = QueryOptions {
        key_bits: 128,
        batch: 4,
        shards,
        ..QueryOptions::default()
    };
    // Global rows 0, 10, 20, 29 hold values 1, 11, 21, 30.
    let outcome = run_query("", &[0, 10, 20, 29], &opts, &mut rng).unwrap();
    assert_eq!(outcome.sum, 63);
    assert_eq!(outcome.n, 30);
    assert_eq!(outcome.selected, 4);
    assert!(outcome.bytes.0 > 0 && outcome.bytes.1 > 0);
}

#[test]
fn traced_sharded_query_emits_merged_timeline_json() {
    // Three shard workers, each with a live obs endpoint, queried
    // through the full CLI surface: `pps query --shards ... --shard-obs
    // ... --trace json` must print one JSON document with the report,
    // the minted trace id, and the merged cross-process timeline.
    let mut shards = Vec::new();
    let mut obs = Vec::new();
    for i in 0..3u64 {
        let addr = free_addr();
        let obs_addr = free_addr();
        let lo = i * 10 + 1;
        spawn_server_opts(
            (lo..lo + 10).collect(),
            addr.clone(),
            ServeOptions {
                shard_only: true,
                metrics_addr: Some(obs_addr.clone()),
                ..ServeOptions::default()
            },
        );
        shards.push(addr);
        obs.push(obs_addr);
    }

    let args: Vec<String> = [
        "query",
        "--shards",
        &shards.join(","),
        "--shard-obs",
        &obs.join(","),
        "--select",
        "0,10,20,29",
        "--key-bits",
        "128",
        "--batch",
        "4",
        "--trace",
        "json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut out = Vec::new();
    pps_cli::run(&args, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();

    // The JSON document is pretty-rendered, so its closing brace sits
    // alone at the start of a line; the human summary follows it.
    let json_end = text.rfind("\n}").expect("pretty JSON document") + 2;
    let parsed = JsonValue::parse(&text[..json_end]).expect("valid JSON");
    assert!(text[json_end..].contains("private sum of 4 selected rows"));

    let trace_id = parsed
        .get("trace_id")
        .and_then(JsonValue::as_str)
        .expect("trace_id field");
    assert_eq!(trace_id.len(), 32, "128-bit lowercase hex id: {trace_id}");
    assert!(trace_id.chars().all(|c| c.is_ascii_hexdigit()));

    let report = parsed.get("report").expect("report object");
    let phases = report.get("phases").expect("phase decomposition");
    assert!(phases.get("server_compute").is_some(), "phase fields");

    let timeline = parsed.get("timeline").expect("timeline object");
    assert_eq!(
        timeline.get("processes").and_then(JsonValue::as_u64),
        Some(4),
        "client + 3 shard legs"
    );
    let entries = timeline
        .get("entries")
        .and_then(JsonValue::as_array)
        .expect("entries array");
    assert!(!entries.is_empty());
    for entry in entries {
        assert_eq!(
            entry
                .get("record")
                .and_then(|r| r.get("trace_id")?.as_str()),
            Some(trace_id),
            "every timeline record shares the query's trace id"
        );
    }
    let labels: std::collections::BTreeSet<&str> = entries
        .iter()
        .filter_map(|e| e.get("process_label").and_then(JsonValue::as_str))
        .collect();
    assert!(
        labels.contains("client")
            && labels.contains("shard0")
            && labels.contains("shard1")
            && labels.contains("shard2"),
        "all four processes contributed records: {labels:?}"
    );
}

#[test]
fn multiclient_sim_reports_oracle_checked_total() {
    let mut rng = StdRng::seed_from_u64(8);
    let mut out = Vec::new();
    run_multiclient_sim((1..=40).collect(), 4, 128, &mut rng, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("k=4 clients"), "{text}");
    assert!(text.contains("oracle-checked"), "{text}");
}

#[test]
fn value_file_to_server_pipeline() {
    let dir = temp_dir();
    let data = dir.join("data.txt");
    std::fs::write(&data, "# salaries\n1000\n2000\n3000\n").unwrap();
    let values = load_values(&data).unwrap();

    let addr = free_addr();
    spawn_server(values, addr.clone(), 2);
    let mut rng = StdRng::seed_from_u64(6);
    let opts = QueryOptions {
        key_bits: 128,
        client_threads: 4,
        ..QueryOptions::default()
    };
    let outcome = run_query(&addr, &[0, 2], &opts, &mut rng).unwrap();
    assert_eq!(outcome.sum, 4000);
}
