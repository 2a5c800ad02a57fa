//! Chaos campaign for session resumption and crash containment.
//!
//! Deterministic [`FaultSchedule`]s kill client connections mid-stream
//! at scripted write offsets across several seeds; the retrying client
//! must reconnect, present its session ticket, and continue from the
//! server's last acknowledged batch. Each scenario asserts three things
//! the paper's deployment story depends on: the resumed sum equals the
//! plaintext selected sum, the resumed attempt re-sends strictly fewer
//! index-vector bytes than a full re-issue, and the server's aggregate
//! accounting (failed / resumed / panicked / evicted checkpoints) stays
//! exact under fire.
//!
//! The database / selection / retry-config / faulty-query scaffolding
//! lives in [`pps_sim::harness::chaos`], shared with the
//! failure-injection suite and the simulator's own campaigns.
//!
//! [`FaultSchedule`]: pps_transport::FaultSchedule

use std::sync::{Arc, Mutex};
use std::time::Duration;

use pps_obs::Registry;
use pps_protocol::{
    run_tcp_query_with_retry, FoldStrategy, ResumptionConfig, ServerObs, SessionEvent, SumClient,
    TcpServer,
};
use pps_sim::harness::chaos::{config, database, expected_sum, faulty_query, selection, BATCH};
use pps_transport::{Fault, FaultSchedule, RetryPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The tentpole scenario: for several seeds, the first attempt's
/// connection dies at a scripted write offset after at least one batch
/// is through; the retry resumes and must (a) produce the plaintext
/// sum, (b) re-send strictly fewer payload bytes than a clean full
/// query — by at least one whole batch.
#[test]
fn scripted_disconnects_resume_with_fewer_bytes_resent() {
    for seed in [101u64, 202, 303, 404, 505] {
        // Client write ops: 0 = SizeRequest, 1 = Hello, 2.. = batches.
        // Offset ≥ 3 guarantees at least one batch was fully written
        // (and, the stream being dropped cleanly, delivered).
        let kill_at = 3 + seed % 7;

        let registry = Arc::new(Registry::new());
        let server = TcpServer::bind(database(), "127.0.0.1:0", FoldStrategy::default())
            .unwrap()
            .with_observability(ServerObs::new(Arc::clone(&registry)));
        let addr = server.local_addr().unwrap();
        let events = Mutex::new(Vec::new());
        let stats = std::thread::scope(|scope| {
            let server_thread = scope.spawn(|| {
                server.serve_with(Some(3), &|e| {
                    if let SessionEvent::Resumed { session } = e {
                        events.lock().unwrap().push(session);
                    }
                })
            });

            let mut rng = StdRng::seed_from_u64(seed);
            let client = SumClient::generate(128, &mut rng).unwrap();
            let cfg = config(RetryPolicy {
                max_attempts: 4,
                base_delay: Duration::from_millis(50),
                max_delay: Duration::from_millis(200),
            });

            // Baseline: a clean query's full payload cost.
            let clean =
                faulty_query(addr, &client, &cfg, &mut rng, |_| FaultSchedule::new()).unwrap();
            assert_eq!(clean.sum, expected_sum(), "seed {seed}: clean query");
            assert_eq!(clean.retry.attempts, 1);
            assert_eq!(clean.resumed_attempts, 0);
            let full_bytes = clean.attempt_payload_bytes[0];

            // Chaos: attempt 1 dies at the scripted write, attempt 2
            // resumes.
            let out = faulty_query(addr, &client, &cfg, &mut rng, |attempt| {
                if attempt == 1 {
                    FaultSchedule::new().on_write(kill_at, Fault::Disconnect)
                } else {
                    FaultSchedule::new()
                }
            })
            .unwrap();
            assert_eq!(out.sum, expected_sum(), "seed {seed}: resumed sum");
            assert_eq!(out.retry.attempts, 2, "seed {seed}");
            assert_eq!(
                out.resumed_attempts, 1,
                "seed {seed}: resumed, not re-issued"
            );

            let batch_payload = 12 + BATCH * client.keypair().public.ciphertext_bytes();
            let resent = *out.attempt_payload_bytes.last().unwrap();
            assert!(
                resent + batch_payload <= full_bytes,
                "seed {seed}: resumed attempt re-sent {resent} bytes, which should \
                 undercut a full re-issue ({full_bytes}) by at least one batch \
                 ({batch_payload})"
            );
            server_thread.join().unwrap()
        });

        assert_eq!(stats.sessions, 2, "seed {seed}: clean + resumed");
        assert_eq!(stats.failed, 1, "seed {seed}: the killed connection");
        assert_eq!(stats.resumed, 1, "seed {seed}");
        assert_eq!(stats.panicked, 0, "seed {seed}");
        assert_eq!(events.into_inner().unwrap().len(), 1, "seed {seed}");

        let scrape = registry.render_prometheus();
        assert!(
            scrape.contains("pps_sessions_resumed_total 1\n"),
            "seed {seed}: scrape says\n{scrape}"
        );
        assert!(
            scrape.contains("pps_sessions_failed_total 1\n"),
            "seed {seed}"
        );
        assert!(
            scrape.contains("pps_sessions_panicked_total 0\n"),
            "seed {seed}"
        );
    }
}

/// A checkpoint that outlives its TTL is pruned; the resume is refused
/// and the client falls back to a full re-issue on the same connection
/// — correctness is never hostage to the optimization.
#[test]
fn stale_checkpoint_falls_back_to_full_reissue() {
    let ttl = Duration::from_millis(40);
    let server = TcpServer::bind(database(), "127.0.0.1:0", FoldStrategy::default())
        .unwrap()
        .with_resumption(ResumptionConfig { capacity: 8, ttl });
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve(Some(2)));

    let mut rng = StdRng::seed_from_u64(9);
    let client = SumClient::generate(128, &mut rng).unwrap();
    // Backoff far beyond the TTL: by the time attempt 2 presents its
    // ticket, the checkpoint is gone.
    let cfg = config(RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::from_millis(250),
        max_delay: Duration::from_millis(250),
    });
    let out = faulty_query(addr, &client, &cfg, &mut rng, |attempt| {
        if attempt == 1 {
            FaultSchedule::new().on_write(4, Fault::Disconnect)
        } else {
            FaultSchedule::new()
        }
    })
    .unwrap();

    assert_eq!(out.sum, expected_sum());
    assert_eq!(out.retry.attempts, 2);
    assert_eq!(out.resumed_attempts, 0, "stale ticket must not resume");

    let stats = server_thread.join().unwrap();
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.resumed, 0);
    assert!(
        stats.checkpoints_evicted >= 1,
        "the expired checkpoint counts as evicted, got {}",
        stats.checkpoints_evicted
    );
}

/// Crash containment: a session thread that panics is recorded as
/// `Panicked`, releases its admission slot (the server would wedge here
/// before the catch_unwind boundary existed), and leaves concurrent
/// accounting intact — the retrying client still gets the right sum.
#[test]
fn panicked_session_is_contained_and_counted() {
    let registry = Arc::new(Registry::new());
    let server = TcpServer::bind(database(), "127.0.0.1:0", FoldStrategy::default())
        .unwrap()
        .with_observability(ServerObs::new(Arc::clone(&registry)))
        .with_admission(1, pps_protocol::Admission::Queue)
        .with_session_fault_hook(|session| {
            if session == 1 {
                panic!("injected chaos: session thread dies");
            }
        });
    let addr = server.local_addr().unwrap();

    let events = Mutex::new(Vec::new());
    let stats = std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| {
            server.serve_with(Some(2), &|e| {
                if let SessionEvent::Panicked { session } = e {
                    events.lock().unwrap().push(session);
                }
            })
        });

        let mut rng = StdRng::seed_from_u64(31);
        let client = SumClient::generate(128, &mut rng).unwrap();
        let cfg = config(RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(200),
        });
        // Session 1 panics server-side before speaking; the client sees
        // a dead connection and retries into session 2. With the
        // admission gate at one slot, this only works if the panicked
        // session released it.
        let out =
            run_tcp_query_with_retry(&addr.to_string(), &client, &selection(), &cfg, &mut rng)
                .unwrap();
        assert_eq!(out.sum, expected_sum());
        assert!(out.retry.attempts >= 2);
        server_thread.join().unwrap()
    });

    assert_eq!(stats.panicked, 1);
    assert_eq!(stats.sessions, 1, "the healthy session completed");
    assert_eq!(stats.failed, 0, "a panic is not a protocol failure");
    assert_eq!(events.into_inner().unwrap(), vec![1]);

    let scrape = registry.render_prometheus();
    assert!(
        scrape.contains("pps_sessions_panicked_total 1\n"),
        "scrape says\n{scrape}"
    );
    assert!(scrape.contains("pps_sessions_completed_total 1\n"));
}
