//! Fault-tolerance over real sockets: slow-loris eviction, stream
//! desync, bounded-queue admission, and whole-query retry across
//! injected connect refusals and mid-query disconnects. These are the
//! acceptance tests for the hardened runtime — a wedged or malicious
//! peer must cost the server one bounded thread, never the service, and
//! a client must survive the failures a real deployment throws at it.

use std::io::{Read as IoRead, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use pps_protocol::messages::{HelloAck, MsgType};
use pps_protocol::{
    run_tcp_query_with_retry, Database, FoldStrategy, ServerSession, SessionEvent, SessionLimits,
    SumClient, TcpQueryConfig, TcpServer,
};
use pps_transport::{RetryPolicy, TcpWire, Wire, FRAME_MAGIC};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn db4() -> Arc<Database> {
    Arc::new(Database::new(vec![10, 20, 30, 40]).unwrap())
}

/// Runs one healthy query and returns the sum.
fn healthy_query(addr: SocketAddr, select: &[usize], seed: u64) -> u128 {
    healthy_query_after(&Barrier::new(1), addr, select, seed)
}

/// [`healthy_query`], connecting once every party to `start` holds its
/// key.
fn healthy_query_after(start: &Barrier, addr: SocketAddr, select: &[usize], seed: u64) -> u128 {
    let mut rng = StdRng::seed_from_u64(seed);
    let client = SumClient::generate(128, &mut rng).unwrap();
    start.wait();
    let out = run_tcp_query_with_retry(
        &addr.to_string(),
        &client,
        select,
        &TcpQueryConfig::default(),
        &mut rng,
    )
    .unwrap();
    out.sum
}

/// Grabs an ephemeral port that is (momentarily) free.
fn free_addr() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    drop(l);
    addr
}

#[test]
fn slow_loris_is_evicted_while_healthy_client_is_served() {
    // A staller opens a session, sends a syntactically valid frame
    // header, then trickles one payload byte every 30 ms — fast enough
    // to defeat any per-read timeout, so only the whole-session
    // deadline can evict it. Meanwhile a healthy client on a second
    // connection must complete unharmed.
    let server = TcpServer::bind(db4(), "127.0.0.1:0", FoldStrategy::default())
        .unwrap()
        .with_limits(SessionLimits {
            read_timeout: Some(Duration::from_millis(250)),
            write_timeout: Some(Duration::from_secs(2)),
            session_deadline: Some(Duration::from_millis(400)),
        });
    let addr = server.local_addr().unwrap();

    let staller = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        // Frame header: magic, type 1 (hello), 64-byte payload to come.
        let mut header = FRAME_MAGIC.to_be_bytes().to_vec();
        header.push(1);
        header.extend_from_slice(&64u32.to_be_bytes());
        s.write_all(&header).unwrap();
        // Trickle; the server's eviction eventually turns writes into
        // errors. Cap the loop so a regression cannot hang the test.
        let start = Instant::now();
        for _ in 0..200 {
            std::thread::sleep(Duration::from_millis(30));
            if s.write_all(&[0]).is_err() {
                break;
            }
        }
        start.elapsed()
    });
    // Let the staller be accepted first, then run a healthy query.
    std::thread::sleep(Duration::from_millis(50));
    let healthy = std::thread::spawn(move || healthy_query(addr, &[1, 3], 9));

    let evictions = Mutex::new(Vec::new());
    let start = Instant::now();
    let stats = server.serve_with(Some(2), &|event| {
        if let SessionEvent::Evicted { error, .. } = event {
            evictions.lock().unwrap().push(error.to_string());
        }
    });
    let served_in = start.elapsed();

    assert_eq!(healthy.join().unwrap(), 60, "healthy client unharmed");
    assert_eq!(stats.sessions, 1, "only the healthy session completed");
    assert_eq!(stats.evicted, 1, "the staller was evicted");
    assert_eq!(stats.failed, 0, "eviction is not a protocol failure");
    let evictions = evictions.into_inner().unwrap();
    assert!(
        evictions.iter().any(|m| m.contains("timed out")),
        "eviction surfaced as a timeout: {evictions:?}"
    );
    assert!(
        served_in < Duration::from_secs(5),
        "eviction is prompt, not tied to the staller's patience ({served_in:?})"
    );
    // The staller's own thread observed the hangup and exited.
    let stalled_for = staller.join().unwrap();
    assert!(stalled_for < Duration::from_secs(7), "{stalled_for:?}");
}

#[test]
fn desync_over_tcp_fails_cleanly_and_server_keeps_going() {
    // Garbage where a frame header should be: the session must die with
    // a surfaced error (not a hang, not a misparse), the stats must
    // count it, and the next connection must be served normally.
    let server = TcpServer::bind(db4(), "127.0.0.1:0", FoldStrategy::default()).unwrap();
    let addr = server.local_addr().unwrap();

    let vandal = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x00, 0x01])
            .unwrap();
        // Wait for the server to hang up on us.
        let _ = std::io::Read::read(&mut s, &mut [0u8; 16]);
    });
    std::thread::sleep(Duration::from_millis(50));
    let healthy = std::thread::spawn(move || healthy_query(addr, &[0, 1], 13));

    let failures = Mutex::new(Vec::new());
    let stats = server.serve_with(Some(2), &|event| {
        if let SessionEvent::Failed { error, .. } = event {
            failures.lock().unwrap().push(error.to_string());
        }
    });
    vandal.join().unwrap();

    assert_eq!(healthy.join().unwrap(), 30, "later session served normally");
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.failed, 1, "desync killed exactly one session");
    let failures = failures.into_inner().unwrap();
    assert!(
        failures.iter().any(|m| m.contains("malformed")),
        "desync surfaced as malformed framing: {failures:?}"
    );
}

/// A test clock that never burns wall time on backoff: each sleep is
/// recorded instead of slept, and the *first* sleep doubles as a
/// synchronization gate — it signals the server thread to bind and
/// blocks until the listener is up. The first connect is therefore
/// refused deterministically (nothing is bound until after it fails)
/// and the retry succeeds deterministically, with no timing window on
/// either side.
#[derive(Debug)]
struct GateClock {
    go: std::sync::mpsc::Sender<()>,
    ready: Mutex<Option<std::sync::mpsc::Receiver<()>>>,
    slept: Mutex<Vec<Duration>>,
}

impl pps_obs::Clock for GateClock {
    fn now(&self) -> std::time::Instant {
        Instant::now()
    }

    fn sleep(&self, d: Duration) {
        self.slept.lock().unwrap().push(d);
        let _ = self.go.send(());
        if let Some(rx) = self.ready.lock().unwrap().take() {
            let _ = rx.recv();
        }
    }
}

#[test]
fn retry_recovers_from_first_connect_refusal_with_deterministic_backoff() {
    // Nothing listens on the target port until the client's first
    // backoff sleep fires, so attempt 1 is always refused at connect.
    // The retry loop backs off (deterministically, given the seeded
    // RNG, and without real sleeps — the injected clock records the
    // delays instead) and succeeds once the server appears.
    let addr = free_addr();
    let (go_tx, go_rx) = std::sync::mpsc::channel();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let clock = Arc::new(GateClock {
        go: go_tx,
        ready: Mutex::new(Some(ready_rx)),
        slept: Mutex::new(Vec::new()),
    });

    let server_thread = std::thread::spawn(move || {
        // Bind only once the first attempt has failed (its backoff
        // sleep signals `go`), then release the client.
        go_rx.recv().unwrap();
        let server = TcpServer::bind(db4(), &addr.to_string(), FoldStrategy::default()).unwrap();
        ready_tx.send(()).unwrap();
        server.serve(Some(1))
    });

    let policy = RetryPolicy {
        max_attempts: 6,
        base_delay: Duration::from_millis(150),
        max_delay: Duration::from_secs(1),
    };
    let mut rng = StdRng::seed_from_u64(11);
    let client = SumClient::generate(128, &mut rng).unwrap();
    // A refused connect consumes no randomness, so the first backoff is
    // exactly what the policy derives from this RNG state.
    let expected_first = policy.delay_for(0, &mut rng.clone());

    let config = TcpQueryConfig {
        retry: policy.clone(),
        clock: Arc::clone(&clock) as _,
        ..TcpQueryConfig::default()
    };
    let out =
        run_tcp_query_with_retry(&addr.to_string(), &client, &[0, 2], &config, &mut rng).unwrap();

    assert_eq!(out.sum, 40);
    assert!(out.retry.attempts >= 2, "first attempt must have failed");
    assert_eq!(out.retry.delays[0], expected_first, "backoff is seeded");
    for (k, d) in out.retry.delays.iter().enumerate() {
        let full = policy
            .base_delay
            .saturating_mul(1 << k)
            .min(policy.max_delay);
        assert!(
            *d <= full && *d >= full / 2,
            "delay {k} = {d:?} outside [{:?}, {full:?}]",
            full / 2
        );
    }
    assert_eq!(
        *clock.slept.lock().unwrap(),
        out.retry.delays,
        "every reported delay went through the injected clock (and \
         therefore cost the test no wall time)"
    );
    let stats = server_thread.join().unwrap();
    assert_eq!(stats.sessions, 1);
}

#[test]
fn retry_recovers_from_mid_query_disconnect() {
    // A flaky server accepts the first connection, reads one frame, and
    // hangs up mid-query; it serves the second connection properly. The
    // client's whole-query retry makes this invisible apart from the
    // attempt count.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let db = db4();

    let server_thread = std::thread::spawn(move || {
        // Connection 1: accept, read one frame, vanish.
        let (stream, _) = listener.accept().unwrap();
        let mut wire = TcpWire::new(stream);
        let _ = wire.recv();
        drop(wire);
        // Connection 2: drive a full protocol session, speaking the
        // resumable dialect's one addition — every Hello is answered
        // with a HelloAck before anything else.
        let (stream, _) = listener.accept().unwrap();
        let mut wire = TcpWire::new(stream);
        let mut session = ServerSession::new(&db);
        while !session.is_done() {
            let frame = wire.recv().unwrap();
            let is_hello = frame.msg_type == MsgType::Hello as u8;
            let reply = session.on_frame(&frame).unwrap();
            if is_hello {
                wire.send(HelloAck { session_id: 7 }.encode().unwrap())
                    .unwrap();
            }
            if let Some(reply) = reply {
                wire.send(reply).unwrap();
            }
        }
    });

    let config = TcpQueryConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(100),
        },
        ..TcpQueryConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(12);
    let client = SumClient::generate(128, &mut rng).unwrap();
    let out =
        run_tcp_query_with_retry(&addr.to_string(), &client, &[1, 2], &config, &mut rng).unwrap();

    assert_eq!(out.sum, 50);
    assert_eq!(out.retry.attempts, 2, "one disconnect, one success");
    assert_eq!(out.retry.delays.len(), 1);
    server_thread.join().unwrap();
}

#[test]
fn queued_admission_under_load_serves_every_client() {
    // Eight clients against a two-slot server: nobody is turned away in
    // Queue mode, everybody gets the right answer, and the concurrency
    // cap shows up as zero refusals.
    use pps_protocol::Admission;
    let server = TcpServer::bind(db4(), "127.0.0.1:0", FoldStrategy::default())
        .unwrap()
        .with_admission(2, Admission::Queue);
    let addr = server.local_addr().unwrap();

    let clients = std::thread::spawn(move || {
        // Every client holds its key before any connects, so the eight
        // sessions arrive together however long each keygen takes.
        let start = Barrier::new(8);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let start = &start;
                    scope.spawn(move || healthy_query_after(start, addr, &[0, 3], 40 + i))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        })
    });

    let stats = server.serve(Some(8));
    let sums = clients.join().unwrap();
    assert_eq!(sums, vec![50u128; 8]);
    assert_eq!(stats.sessions, 8);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.refused, 0);
    assert!(stats.queued >= 1, "someone waited in queue");
}

#[test]
fn full_queue_refuses_promptly_while_accept_loop_stays_live() {
    // One slot, Queue admission, queue capacity 2. A staller holds the
    // slot; two healthy clients fill the queue; a probe connection must
    // then be refused (EOF) long before the staller releases the slot.
    // Under the old accept-thread-blocking admission the probe would not
    // even be accepted until the staller finished.
    use pps_protocol::Admission;
    let server = TcpServer::bind(db4(), "127.0.0.1:0", FoldStrategy::default())
        .unwrap()
        .with_admission(1, Admission::Queue)
        .with_queue_capacity(2)
        .with_limits(SessionLimits {
            read_timeout: Some(Duration::from_secs(3)),
            write_timeout: Some(Duration::from_secs(3)),
            session_deadline: Some(Duration::from_secs(10)),
        });
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let server_thread = std::thread::spawn(move || server.serve(None));

    let hold_for = Duration::from_millis(1200);
    let staller = std::thread::spawn(move || {
        // Holds the single slot by connecting and then going quiet;
        // closing after `hold_for` frees it (as a failed session).
        let s = TcpStream::connect(addr).unwrap();
        std::thread::sleep(hold_for);
        drop(s);
    });
    std::thread::sleep(Duration::from_millis(150));

    // Two clients fill the bounded queue and wait for the slot.
    let queued: Vec<_> = (0..2)
        .map(|i| std::thread::spawn(move || healthy_query(addr, &[1, 2], 60 + i)))
        .collect();
    std::thread::sleep(Duration::from_millis(250));

    // The probe: with the slot held and the queue full, this
    // connection must be turned away promptly.
    let probe = std::thread::spawn(move || {
        let start = Instant::now();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 16];
        let n = s.read(&mut buf).unwrap_or(0);
        (n, start.elapsed())
    });

    let (n, refused_in) = probe.join().unwrap();
    assert_eq!(n, 0, "refusal is a clean close");
    assert!(
        refused_in < Duration::from_millis(600),
        "refusal must not wait for the slot-holder \
         (took {refused_in:?}, slot held for {hold_for:?})"
    );
    for (i, h) in queued.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), 50, "queued client {i}");
    }
    staller.join().unwrap();
    handle.shutdown();
    let stats = server_thread.join().unwrap();

    assert_eq!(stats.sessions, 2, "both queued clients served");
    assert_eq!(stats.refused, 1, "the probe");
    assert_eq!(stats.failed, 1, "the staller's dead session");
    assert_eq!(stats.queued, 2, "both clients waited in queue");
}

#[test]
fn graceful_shutdown_drains_and_reports() {
    // An unbounded CLI server with a shutdown timer: it must serve the
    // query issued before the timer fires, then return on its own.
    use pps_cli::{run_server, ServeOptions};
    let addr = free_addr();
    let server_thread = std::thread::spawn(move || {
        let mut log = Vec::new();
        let opts = ServeOptions {
            shutdown_after: Some(Duration::from_millis(600)),
            max_concurrent: Some(4),
            ..ServeOptions::default()
        };
        run_server(vec![7, 11, 13], &addr.to_string(), &opts, &mut log).unwrap();
        String::from_utf8(log).unwrap()
    });
    // Wait for the listener, then query while the server is alive.
    let mut sum = None;
    for _ in 0..50 {
        if TcpStream::connect_timeout(&addr, Duration::from_millis(50)).is_ok() {
            sum = Some(healthy_query(addr, &[0, 2], 77));
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(sum, Some(20), "query served before shutdown");
    let log = server_thread.join().unwrap();
    assert!(log.contains("served"), "aggregate report written: {log}");
}
