//! End-to-end exercises for the networked sharded-query subsystem
//! (PROTOCOL.md §11): `k` shard workers over real TCP sockets, each
//! owning one horizontal partition and answering only correlated-blinded
//! partial sums; the client fans one query out, combines the partials
//! mod `M`, and must recover the exact plaintext-oracle sum — while no
//! shard (and no wire observer) ever exposes an unblinded partial, and
//! a mid-stream disconnect on one leg resumes from that leg's own
//! checkpoint without re-issuing the others.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use pps_bignum::Uint;
use pps_obs::{MetricsServer, Registry};
use pps_protocol::{
    run_sharded_query, run_sharded_query_with, run_tcp_query_with_retry, Database, FoldStrategy,
    ProtocolError, ServerObs, ShardObs, ShardQueryConfig, SumClient, TcpQueryConfig, TcpServer,
};
use pps_transport::{Fault, FaultSchedule, FaultyStream, RetryPolicy, StreamWire, TransportError};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 48;
const K: usize = 3;
const ROWS_PER_SHARD: usize = N / K;
const BATCH: usize = 4; // 4 batches per 16-row shard leg

fn value(global: usize) -> u64 {
    global as u64 * 7 + 3
}

/// Shard `i`'s partition: global rows `[16i, 16i + 16)`.
fn shard_db(i: usize) -> Arc<Database> {
    let lo = i * ROWS_PER_SHARD;
    Arc::new(Database::new((lo..lo + ROWS_PER_SHARD).map(value).collect()).unwrap())
}

fn selection() -> Vec<usize> {
    (0..N).step_by(3).collect()
}

fn oracle() -> u128 {
    selection().iter().map(|&i| value(i) as u128).sum()
}

/// Plaintext partial of shard `i` — what its blinded answer must NOT be.
fn shard_oracle(i: usize) -> u128 {
    let lo = i * ROWS_PER_SHARD;
    selection()
        .iter()
        .filter(|&&g| g >= lo && g < lo + ROWS_PER_SHARD)
        .map(|&g| value(g) as u128)
        .sum()
}

fn config(policy: RetryPolicy) -> ShardQueryConfig {
    ShardQueryConfig {
        tcp: TcpQueryConfig {
            batch_size: BATCH,
            client_threads: 1,
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            retry: policy,
            ..TcpQueryConfig::default()
        },
        value_bound: Some(value(N - 1) + 1),
    }
}

/// A TCP connector whose first attempt's stream gets a fault schedule
/// injected under the framing layer.
fn faulty_leg(
    addr: SocketAddr,
    kill_first_write_at: Option<u64>,
) -> impl FnMut(u32) -> Result<StreamWire<FaultyStream<TcpStream>>, ProtocolError> + Send {
    move |attempt| {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ProtocolError::Transport(TransportError::Io(e.to_string())))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| ProtocolError::Transport(TransportError::Io(e.to_string())))?;
        let schedule = match (kill_first_write_at, attempt) {
            (Some(at), 1) => FaultSchedule::new().on_write(at, Fault::Disconnect),
            _ => FaultSchedule::new(),
        };
        Ok(FaultyStream::wire(stream, schedule))
    }
}

/// The headline property: a networked k=3 query over loopback returns
/// the exact plaintext-oracle sum, every per-leg partial arrives
/// blinded, and the shard counters land on a live `/metrics` endpoint.
#[test]
fn clean_three_shard_query_matches_oracle_with_blinded_partials() {
    let registry = Arc::new(Registry::new());
    let obs = ShardObs::new(Arc::clone(&registry));

    let servers: Vec<TcpServer> = (0..K)
        .map(|i| {
            TcpServer::bind(shard_db(i), "127.0.0.1:0", FoldStrategy::default())
                .unwrap()
                .require_shard_handshake()
        })
        .collect();
    let addrs: Vec<String> = servers
        .iter()
        .map(|s| s.local_addr().unwrap().to_string())
        .collect();

    let outcome = std::thread::scope(|scope| {
        let handles: Vec<_> = servers
            .into_iter()
            .map(|s| scope.spawn(move || s.serve(Some(1))))
            .collect();

        let mut rng = StdRng::seed_from_u64(71);
        let client = SumClient::generate(128, &mut rng).unwrap();
        let outcome = run_sharded_query(
            &addrs,
            &client,
            &selection(),
            &config(RetryPolicy::default()),
            Some(&obs),
            &mut rng,
        )
        .unwrap();
        for h in handles {
            let stats = h.join().unwrap();
            assert_eq!(stats.sessions, 1);
            assert_eq!(stats.failed, 0);
        }
        outcome
    });

    assert_eq!(outcome.sum, oracle(), "blindings must cancel exactly");
    assert_eq!(outcome.n, N, "global index space spans all shards");
    assert_eq!(outcome.selected, selection().len());
    assert_eq!(outcome.legs.len(), K);
    for leg in &outcome.legs {
        assert_eq!(leg.rows, ROWS_PER_SHARD);
        assert_eq!(leg.attempts, 1, "leg {}: clean run", leg.leg);
        assert_eq!(leg.resumed_attempts, 0);
        // Privacy: the decrypted per-shard answer is NOT the plaintext
        // partial — it is blinded (uniform in M = 2^126, so a collision
        // with the true partial is negligible).
        assert_ne!(
            leg.blinded_partial,
            Uint::from_u128(shard_oracle(leg.leg)),
            "leg {}: partial must arrive blinded",
            leg.leg
        );
    }

    let scrape = registry.render_prometheus();
    assert!(
        scrape.contains("pps_shard_legs_total 3\n"),
        "scrape says\n{scrape}"
    );
    assert!(scrape.contains("pps_shard_resumes_total 0\n"));

    // The same counters are visible on a live /metrics endpoint.
    let metrics = MetricsServer::start("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let mut http = TcpStream::connect(metrics.addr()).unwrap();
    write!(http, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut body = String::new();
    http.read_to_string(&mut body).unwrap();
    metrics.stop();
    assert!(
        body.contains("pps_shard_legs_total 3"),
        "/metrics says\n{body}"
    );
    assert!(body.contains("pps_shard_resumes_total 0"));
}

/// The chaos scenario: one leg's connection dies mid-stream; that leg —
/// and only that leg — reconnects and resumes from its own checkpoint.
/// The combined sum still matches the oracle, the untouched legs
/// re-send zero bytes, and the resumed leg undercuts a full re-issue by
/// at least one whole batch.
#[test]
fn killed_leg_resumes_alone_and_sum_still_matches_oracle() {
    let registry = Arc::new(Registry::new());
    let obs = ShardObs::new(Arc::clone(&registry));

    let servers: Vec<TcpServer> = (0..K)
        .map(|i| {
            TcpServer::bind(shard_db(i), "127.0.0.1:0", FoldStrategy::default())
                .unwrap()
                .require_shard_handshake()
                .with_observability(ServerObs::new(Arc::new(Registry::new())))
        })
        .collect();
    let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr().unwrap()).collect();

    let outcome = std::thread::scope(|scope| {
        let handles: Vec<_> = servers
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                // The killed leg's worker serves two connections: the
                // broken one and the resuming one.
                let sessions = if i == 1 { 2 } else { 1 };
                scope.spawn(move || s.serve(Some(sessions)))
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(72);
        let client = SumClient::generate(128, &mut rng).unwrap();
        // Leg 1 client write offsets on attempt 1: 0 = ShardHello,
        // 1 = SizeRequest, 2 = Hello, 3.. = batches. Killing write 4
        // guarantees batch 0 was fully delivered, so the resume has a
        // checkpoint strictly ahead of a fresh start.
        let legs = vec![
            faulty_leg(addrs[0], None),
            faulty_leg(addrs[1], Some(4)),
            faulty_leg(addrs[2], None),
        ];
        let outcome = run_sharded_query_with(
            legs,
            &client,
            &selection(),
            &config(RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_millis(50),
                max_delay: Duration::from_millis(200),
            }),
            Some(&obs),
            &mut rng,
        )
        .unwrap();

        let stats: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // The killed worker saw the broken session fail and the resumed
        // one complete; its neighbours saw one clean session each.
        assert_eq!(stats[1].failed, 1, "the killed connection");
        assert_eq!(stats[1].resumed, 1);
        assert_eq!(stats[1].sessions, 1, "the resumed session completed");
        for i in [0, 2] {
            assert_eq!(stats[i].sessions, 1, "worker {i} untouched");
            assert_eq!(stats[i].failed, 0);
            assert_eq!(stats[i].resumed, 0);
        }
        (outcome, client)
    });
    let (outcome, client) = outcome;

    assert_eq!(outcome.sum, oracle(), "resumed fan-out still exact");
    assert_eq!(outcome.legs[1].attempts, 2, "killed leg retried once");
    assert_eq!(
        outcome.legs[1].resumed_attempts, 1,
        "killed leg resumed, not re-issued"
    );
    for i in [0, 2] {
        assert_eq!(outcome.legs[i].attempts, 1, "leg {i} untouched");
        assert_eq!(
            outcome.legs[i].attempt_payload_bytes.len(),
            1,
            "leg {i} re-sent zero bytes"
        );
        assert_ne!(
            outcome.legs[i].blinded_partial,
            Uint::from_u128(shard_oracle(i)),
            "leg {i}: still blinded"
        );
    }
    // The resumed attempt undercuts a full re-issue by at least one
    // whole batch. Every leg's full attempt costs the same bytes (same
    // key, same rows, and at k=3 every ShardHello carries exactly two
    // seeds), so leg 0's clean attempt is the baseline.
    let full_bytes = outcome.legs[0].attempt_payload_bytes[0];
    let resent = *outcome.legs[1].attempt_payload_bytes.last().unwrap();
    let batch_payload = 12 + BATCH * client.keypair().public.ciphertext_bytes();
    assert!(
        resent + batch_payload <= full_bytes,
        "resumed leg re-sent {resent} bytes, which should undercut a full \
         re-issue ({full_bytes}) by at least one batch ({batch_payload})"
    );

    let scrape = registry.render_prometheus();
    assert!(
        scrape.contains("pps_shard_legs_total 3\n"),
        "scrape says\n{scrape}"
    );
    assert!(
        scrape.contains("pps_shard_resumes_total 1\n"),
        "scrape says\n{scrape}"
    );
}

/// A shard worker must refuse to answer unblinded: a plain (unsharded)
/// query against it fails instead of leaking a raw partial sum.
#[test]
fn shard_worker_rejects_plain_queries() {
    let server = TcpServer::bind(shard_db(0), "127.0.0.1:0", FoldStrategy::default())
        .unwrap()
        .require_shard_handshake();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve(Some(1)));

    let mut rng = StdRng::seed_from_u64(73);
    let client = SumClient::generate(128, &mut rng).unwrap();
    let err = run_tcp_query_with_retry(
        &addr.to_string(),
        &client,
        &[0, 1],
        &TcpQueryConfig {
            batch_size: BATCH,
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            retry: RetryPolicy::none(),
            ..TcpQueryConfig::default()
        },
        &mut rng,
    )
    .unwrap_err();
    // The server drops the session at the gate; the client surfaces it
    // as a dead connection (the server never ACKs the hello).
    assert!(
        matches!(err, ProtocolError::Transport(_)),
        "expected a transport failure, got {err:?}"
    );

    let stats = server_thread.join().unwrap();
    assert_eq!(stats.sessions, 0, "no session may complete unblinded");
    assert_eq!(stats.failed, 1);
}

/// The non-private baseline is the sharpest leak: `PlainIndices` in,
/// raw plaintext sum out, one index at a time. A shard worker must
/// refuse it on an unblinded session — the gate covers every query
/// entry point, not just `Hello`.
#[test]
fn shard_worker_rejects_plain_indices_without_handshake() {
    use pps_protocol::messages::PlainIndices;
    use pps_transport::{TcpWire, Wire};

    let server = TcpServer::bind(shard_db(0), "127.0.0.1:0", FoldStrategy::default())
        .unwrap()
        .require_shard_handshake();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve(Some(1)));

    let mut wire = TcpWire::connect(&addr.to_string()).unwrap();
    wire.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    wire.send(PlainIndices { indices: vec![0] }.encode().unwrap())
        .unwrap();
    // The worker hangs up instead of answering with a raw row value.
    assert!(
        wire.recv().is_err(),
        "an unblinded plaintext probe must get no reply"
    );

    let stats = server_thread.join().unwrap();
    assert_eq!(stats.sessions, 0);
    assert_eq!(stats.failed, 1);
}

/// Even *after* a valid shard handshake, `PlainIndices` stays refused:
/// the plaintext baseline never folds the blinding into its reply, so
/// answering it would read the partition out unblinded regardless.
#[test]
fn shard_worker_rejects_plain_indices_even_after_handshake() {
    use pps_protocol::messages::{PlainIndices, ShardHello};
    use pps_transport::{TcpWire, Wire};

    let server = TcpServer::bind(shard_db(0), "127.0.0.1:0", FoldStrategy::default())
        .unwrap()
        .require_shard_handshake();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve(Some(1)));

    let mut wire = TcpWire::connect(&addr.to_string()).unwrap();
    wire.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    wire.send(
        ShardHello {
            shard_index: 0,
            shard_count: 2,
            m_bits: 126,
            seeds_add: vec![vec![7u8; 32]],
            seeds_sub: vec![],
            trace: None,
        }
        .encode()
        .unwrap(),
    )
    .unwrap();
    wire.send(PlainIndices { indices: vec![0] }.encode().unwrap())
        .unwrap();
    assert!(
        wire.recv().is_err(),
        "a blinded session must still refuse the plaintext baseline"
    );

    let stats = server_thread.join().unwrap();
    assert_eq!(stats.sessions, 0);
    assert_eq!(stats.failed, 1);
}

/// A worker that claims an absurd partition size at discovery is
/// refused before its reply can wrap the client's offset arithmetic
/// and misroute the selection split.
#[test]
fn implausible_shard_size_is_a_config_error() {
    use pps_protocol::messages::SizeReply;
    use pps_transport::{TcpWire, Wire};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let worker = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut wire = TcpWire::new(stream);
        let _shard_hello = wire.recv().unwrap();
        let _size_request = wire.recv().unwrap();
        wire.send(SizeReply { n: u64::MAX }.encode().unwrap())
            .unwrap();
    });

    let mut rng = StdRng::seed_from_u64(74);
    let client = SumClient::generate(128, &mut rng).unwrap();
    let err = run_sharded_query(
        &[addr.to_string()],
        &client,
        &[0],
        &config(RetryPolicy::default()),
        None,
        &mut rng,
    )
    .unwrap_err();
    assert!(
        matches!(&err, ProtocolError::Config(msg) if msg.contains("cap")),
        "expected the size cap to trip, got {err:?}"
    );
    worker.join().unwrap();
}

/// With one shard there are no pairs, so `R_0 = 0`: the single leg's
/// decrypted partial is already the exact sum.
#[test]
fn single_shard_fanout_returns_the_exact_sum() {
    let server = TcpServer::bind(shard_db(0), "127.0.0.1:0", FoldStrategy::default())
        .unwrap()
        .require_shard_handshake();
    let addr = server.local_addr().unwrap().to_string();
    let select: Vec<usize> = (0..ROWS_PER_SHARD).step_by(3).collect();
    let expected: u128 = select.iter().map(|&g| value(g) as u128).sum();

    let outcome = std::thread::scope(|scope| {
        let handle = scope.spawn(move || server.serve(Some(1)));
        let mut rng = StdRng::seed_from_u64(75);
        let client = SumClient::generate(128, &mut rng).unwrap();
        let outcome = run_sharded_query(
            &[addr],
            &client,
            &select,
            &config(RetryPolicy::default()),
            None,
            &mut rng,
        )
        .unwrap();
        assert_eq!(handle.join().unwrap().failed, 0);
        outcome
    });

    assert_eq!(outcome.sum, expected);
    assert_eq!(outcome.legs.len(), 1);
    assert_eq!(
        outcome.legs[0].blinded_partial,
        Uint::from_u128(expected),
        "k = 1: no pairs, so nothing blinds the one partial"
    );
}

/// A `value_bound` whose worst case `n · bound` does not fit the
/// blinding modulus `M = 2^(key_bits − 2)` fails typed once the shard
/// sizes are known, before any leg streams an index batch: each worker
/// sees its `ShardHello` and `SizeRequest`, then the client hangs up.
#[test]
fn value_bound_beyond_the_blinding_modulus_fails_before_any_batch() {
    use pps_protocol::messages::{MsgType, SizeReply};
    use pps_transport::{TcpWire, Wire};

    let (addrs, workers): (Vec<String>, Vec<_>) = (0..2)
        .map(|_| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let worker = std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let mut wire = TcpWire::new(stream);
                let mut seen = vec![wire.recv().unwrap().msg_type];
                seen.push(wire.recv().unwrap().msg_type);
                wire.send(
                    SizeReply {
                        n: ROWS_PER_SHARD as u64,
                    }
                    .encode()
                    .unwrap(),
                )
                .unwrap();
                while let Ok(frame) = wire.recv() {
                    seen.push(frame.msg_type);
                }
                seen
            });
            (addr, worker)
        })
        .unzip();

    // A 64-bit key blinds mod 2^62; 32 rows of values below 2^60 can
    // reach 2^65, a 66-bit sum.
    let mut rng = StdRng::seed_from_u64(76);
    let client = SumClient::generate(64, &mut rng).unwrap();
    let available_bits = client.keypair().public.key_bits() - 2;
    let config = ShardQueryConfig {
        value_bound: Some(1 << 60),
        ..config(RetryPolicy::default())
    };
    let err = run_sharded_query(&addrs, &client, &[0, 20], &config, None, &mut rng).unwrap_err();
    assert!(
        matches!(
            err,
            ProtocolError::SumOverflow { needed_bits: 66, available_bits: a } if a == available_bits
        ),
        "{err:?}"
    );
    for worker in workers {
        assert_eq!(
            worker.join().unwrap(),
            vec![MsgType::ShardHello as u8, MsgType::SizeRequest as u8],
            "size discovery only: no index batch reached a worker"
        );
    }
}
