//! End-to-end observability: a live `/metrics` endpoint scraped during
//! a multi-client run must reconcile — exactly — with the span-bridged
//! `RunReport`s the same queries produce, and the lifecycle counters
//! must match the ground truth of what the clients actually did
//! (including the faulty ones).
//!
//! This is the acceptance test for the telemetry subsystem: client and
//! server share one [`Registry`] and one [`RingCollector`] (registration
//! is idempotent, so both halves resolve the same atomics), which is
//! exactly the loopback deployment where the merged spans carry all four
//! of the paper's phase components.

use std::io::Write as IoWrite;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pps_obs::{http, names, MetricsServer, Phase, Registry, RingCollector, TraceContext, Tracer};
use pps_protocol::{
    run_tcp_query_observed, run_tcp_query_with_retry, Database, FoldStrategy, PhaseTotals,
    QueryObs, ServerObs, SessionEvent, SessionLimits, SumClient, TcpQueryConfig, TcpServer,
};
use pps_transport::FRAME_MAGIC;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pulls `name{labels} value` out of a Prometheus text body.
fn sample(body: &str, series: &str) -> Option<f64> {
    body.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.trim().parse().ok()
    })
}

/// Every non-comment line must be `name[{labels}] <float>`.
fn assert_parses_as_prometheus_text(body: &str) {
    assert!(!body.is_empty());
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unsplittable sample line: {line:?}"));
        assert!(
            series.chars().next().unwrap().is_ascii_alphabetic(),
            "series name starts oddly: {line:?}"
        );
        assert!(
            value.parse::<f64>().is_ok(),
            "sample value is not a float: {line:?}"
        );
    }
}

fn scrape(addr: SocketAddr) -> String {
    let (status, body) = http::get(addr, "/metrics").expect("scrape");
    assert!(status.contains("200"), "{status}");
    body
}

#[test]
fn live_metrics_reconcile_with_span_bridged_reports() {
    // One registry, one ring: ServerObs and every QueryObs register the
    // same metric families and trace into the same span collector.
    let registry = Arc::new(Registry::new());
    let ring = Arc::new(RingCollector::new(4096));
    let server_obs = ServerObs::with_tracer(Arc::clone(&registry), Tracer::new(ring.clone()));

    let db = Arc::new(Database::new((0..32u64).collect()).unwrap());
    // The bucket fold: each session holds its own buckets, so there is no
    // shared per-database state to report on the scrape below.
    let server = TcpServer::bind(db, "127.0.0.1:0", FoldStrategy::Precomputed)
        .unwrap()
        .with_limits(SessionLimits {
            read_timeout: Some(Duration::from_millis(250)),
            write_timeout: Some(Duration::from_secs(2)),
            session_deadline: Some(Duration::from_secs(2)),
        })
        .with_observability(server_obs);
    let addr = server.local_addr().unwrap();
    let metrics = MetricsServer::start("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let metrics_addr = metrics.addr();

    // Ground truth the counters must reproduce: three healthy clients,
    // one staller (admitted, then starves its reads → evicted), one
    // vandal (garbage framing → failed). Five sessions in total.
    let evicted_seen = Arc::new(AtomicUsize::new(0));
    let failed_seen = Arc::new(AtomicUsize::new(0));

    let staller = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        // A syntactically valid frame header promising a payload that
        // never arrives: the per-read timeout must evict, not hang.
        let mut header = FRAME_MAGIC.to_be_bytes().to_vec();
        header.push(1);
        header.extend_from_slice(&64u32.to_be_bytes());
        s.write_all(&header).unwrap();
        std::thread::sleep(Duration::from_millis(600));
    });
    let vandal = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[0xBA, 0xD0, 0xF0, 0x0D, 1, 2, 3]).unwrap();
        let _ = std::io::Read::read(&mut s, &mut [0u8; 16]);
    });

    // Healthy clients, in parallel, each through its own QueryObs (the
    // shared registry hands every one the same underlying atomics).
    let selects: [&[usize]; 3] = [&[1, 2, 3], &[4, 5], &[10, 20, 30]];
    let clients: Vec<_> = selects
        .iter()
        .enumerate()
        .map(|(i, select)| {
            let registry = Arc::clone(&registry);
            let ring = ring.clone();
            let select = select.to_vec();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(900 + i as u64);
                let client = SumClient::generate(128, &mut rng).unwrap();
                let obs = QueryObs::with_collector(registry, ring);
                run_tcp_query_observed(
                    &addr.to_string(),
                    &client,
                    &select,
                    &TcpQueryConfig::default(),
                    &mut rng,
                    &obs,
                )
                .unwrap()
            })
        })
        .collect();

    // Scrape while the run is live — the endpoint serves concurrently
    // with the protocol sessions it measures.
    let live = scrape(metrics_addr);
    assert_parses_as_prometheus_text(&live);
    assert!(live.contains("pps_sessions_accepted_total"));

    let stats = {
        let evicted_seen = Arc::clone(&evicted_seen);
        let failed_seen = Arc::clone(&failed_seen);
        server.serve_with(Some(5), &move |event| match event {
            SessionEvent::Evicted { .. } => {
                evicted_seen.fetch_add(1, Ordering::Relaxed);
            }
            SessionEvent::Failed { .. } => {
                failed_seen.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        })
    };
    staller.join().unwrap();
    vandal.join().unwrap();
    let outcomes: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    // Ground truth: the sums are right and the aggregate classifies
    // every ending correctly.
    let sums: Vec<u128> = outcomes.iter().map(|(out, _)| out.sum).collect();
    assert_eq!(sums, vec![6, 9, 60]);
    assert_eq!(stats.sessions, 3);
    assert_eq!(stats.failed, 1, "the vandal is a protocol failure");
    assert_eq!(stats.evicted, 1, "the staller is an eviction");
    assert_eq!(stats.refused, 0);
    assert_eq!(stats.accept_errors, 0);
    assert_eq!(stats.unserved(), 2);
    assert_eq!(evicted_seen.load(Ordering::Relaxed), 1);
    assert_eq!(failed_seen.load(Ordering::Relaxed), 1);

    // The quiet registry must now scrape deterministically: two
    // back-to-back scrapes are byte-identical.
    let body = scrape(metrics_addr);
    assert_parses_as_prometheus_text(&body);
    assert_eq!(body, scrape(metrics_addr), "quiet scrapes are stable");

    // Lifecycle counters match the ground truth exactly.
    assert_eq!(sample(&body, "pps_sessions_accepted_total "), Some(5.0));
    assert_eq!(sample(&body, "pps_sessions_completed_total "), Some(3.0));
    assert_eq!(sample(&body, "pps_sessions_failed_total "), Some(1.0));
    assert_eq!(sample(&body, "pps_sessions_evicted_total "), Some(1.0));
    assert_eq!(sample(&body, "pps_sessions_refused_total "), Some(0.0));
    assert_eq!(sample(&body, "pps_sessions_active "), Some(0.0));
    // Resumption/containment families register eagerly and read zero in
    // a run with no disconnect-resume traffic and no panics.
    assert_eq!(sample(&body, "pps_sessions_resumed_total "), Some(0.0));
    assert_eq!(sample(&body, "pps_sessions_panicked_total "), Some(0.0));
    assert_eq!(sample(&body, "pps_checkpoints_evicted_total "), Some(0.0));
    assert_eq!(sample(&body, "pps_retry_attempts_total "), Some(3.0));
    assert_eq!(sample(&body, "pps_retry_failures_total "), Some(0.0));
    // No fold-plan family is exported.
    assert!(!body.contains("pps_fold_plan_"));
    assert!(sample(&body, "pps_wire_bytes_sent_total ").unwrap() > 0.0);
    assert!(sample(&body, "pps_wire_bytes_received_total ").unwrap() > 0.0);
    // Build identity rides on every ServerObs-backed scrape: version
    // from the workspace manifest, magic from the framing layer.
    let build_info = format!(
        "pps_build_info{{version=\"{}\",magic=\"{:#06x}\"}} 1",
        env!("CARGO_PKG_VERSION"),
        FRAME_MAGIC,
    );
    assert!(body.contains(&build_info), "{build_info} missing in scrape");
    assert_eq!(sample(&body, "pps_slow_queries_total "), Some(0.0));

    // The acceptance criterion: the per-phase histograms scraped from
    // the live endpoint sum to the same four-component breakdown the
    // span-bridged reports record. The registry histograms and the
    // bridge ingest the *same* `Duration` values, so the Duration-level
    // comparison is exact; the scrape adds only float formatting.
    let reports: Vec<_> = outcomes.iter().map(|(_, r)| r.clone()).collect();
    let merged = PhaseTotals::from_spans(ring.spans().iter());
    assert_eq!(
        merged.client_encrypt,
        reports.iter().map(|r| r.client_encrypt).sum(),
        "bridge and reports agree on client_encrypt"
    );
    assert_eq!(merged.comm, reports.iter().map(|r| r.comm).sum());
    assert_eq!(
        merged.client_decrypt,
        reports.iter().map(|r| r.client_decrypt).sum()
    );
    // Networked clients cannot see server compute; the server's own
    // spans carry it, and the client-observed comm (wire blocked time)
    // necessarily covers it.
    assert!(reports.iter().all(|r| r.server_compute == Duration::ZERO));
    assert!(merged.server_compute > Duration::ZERO);
    assert!(merged.comm >= merged.server_compute);

    for (phase, bridged) in [
        (Phase::ClientEncrypt, merged.client_encrypt),
        (Phase::Comm, merged.comm),
        (Phase::ServerCompute, merged.server_compute),
        (Phase::ClientDecrypt, merged.client_decrypt),
    ] {
        let hist = registry.phase_histogram(phase).snapshot();
        assert_eq!(
            hist.sum(),
            bridged,
            "registry histogram matches span bridge for {}",
            phase.label()
        );
        let series = format!(
            "pps_phase_duration_seconds_sum{{phase=\"{}\"}} ",
            phase.label()
        );
        let scraped = sample(&body, &series)
            .unwrap_or_else(|| panic!("no scraped sum for {}", phase.label()));
        assert!(
            (scraped - bridged.as_secs_f64()).abs() < 1e-9,
            "{}: scraped {scraped} vs bridged {}",
            phase.label(),
            bridged.as_secs_f64()
        );
        let count_series = format!(
            "pps_phase_duration_seconds_count{{phase=\"{}\"}} ",
            phase.label()
        );
        assert!(sample(&body, &count_series).unwrap() >= 1.0);
    }

    // One batch per healthy query at the default batch size, so the
    // encrypt histogram carries exactly one sample per client.
    assert_eq!(
        registry
            .phase_histogram(Phase::ClientEncrypt)
            .snapshot()
            .count,
        3
    );

    // /healthz serves alongside /metrics.
    let (status, health) = http::get(metrics_addr, "/healthz").unwrap();
    assert!(status.contains("200"), "{status}");
    assert!(health.contains(r#""status":"ok""#), "{health}");

    metrics.stop();
}

/// The server's wire counters — the counters behind the benchmark's
/// `transport.*` metrics — must equal the traffic the client reports
/// for the same query, exactly: every frame one side sends the other
/// receives, and both sides count payload bytes.
#[test]
fn server_wire_counters_match_client_traffic() {
    let registry = Arc::new(Registry::new());
    let db = Arc::new(Database::new(vec![10, 20, 30, 40]).unwrap());
    let server = TcpServer::bind(db, "127.0.0.1:0", FoldStrategy::default())
        .unwrap()
        .with_observability(ServerObs::new(Arc::clone(&registry)));
    let addr = server.local_addr().unwrap();

    let mut rng = StdRng::seed_from_u64(9);
    let client = SumClient::generate(128, &mut rng).unwrap();
    let outcome = std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| server.serve(Some(1)));
        let outcome = run_tcp_query_with_retry(
            &addr.to_string(),
            &client,
            &[1, 3],
            &TcpQueryConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(server_thread.join().unwrap().sessions, 1);
        outcome
    });
    assert_eq!(outcome.sum, 60);
    assert_eq!(outcome.retry.attempts, 1);

    // `Registry::counter` is find-or-insert, so these are the same
    // atomics the server's wire layer incremented.
    let counter = |name| registry.counter(name, "").get() as usize;
    let traffic = &outcome.traffic;
    assert!(traffic.messages_sent > 0 && traffic.messages_received > 0);
    assert_eq!(
        counter(names::WIRE_FRAMES_RECEIVED_TOTAL),
        traffic.messages_sent
    );
    assert_eq!(
        counter(names::WIRE_BYTES_RECEIVED_TOTAL),
        traffic.payload_bytes_sent
    );
    assert_eq!(
        counter(names::WIRE_FRAMES_SENT_TOTAL),
        traffic.messages_received
    );
    assert_eq!(
        counter(names::WIRE_BYTES_SENT_TOTAL),
        traffic.payload_bytes_received
    );
}

/// The caller's trace context reaches the server on the observed path
/// too: `TcpQueryConfig::trace` is announced on the `Hello` trailer, so
/// the server stamps it onto the session's `server_compute` record.
#[test]
fn observed_query_announces_the_callers_trace_context() {
    let ring = Arc::new(RingCollector::new(64));
    let server_obs = ServerObs::with_tracer(Arc::new(Registry::new()), Tracer::new(ring.clone()));
    let db = Arc::new(Database::new(vec![10, 20, 30, 40]).unwrap());
    let server = TcpServer::bind(db, "127.0.0.1:0", FoldStrategy::default())
        .unwrap()
        .with_observability(server_obs);
    let addr = server.local_addr().unwrap();

    let mut rng = StdRng::seed_from_u64(12);
    let client = SumClient::generate(128, &mut rng).unwrap();
    let config = TcpQueryConfig {
        trace: Some(TraceContext::new(0xabcdef, 3)),
        ..TcpQueryConfig::default()
    };
    let obs = QueryObs::new(Arc::new(Registry::new()));
    let (outcome, _) = std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| server.serve(Some(1)));
        let result =
            run_tcp_query_observed(&addr.to_string(), &client, &[0, 3], &config, &mut rng, &obs)
                .unwrap();
        assert_eq!(server_thread.join().unwrap().sessions, 1);
        result
    });
    assert_eq!(outcome.sum, 50);

    let spans = ring.spans();
    let compute = spans
        .iter()
        .find(|s| s.name == "server_compute")
        .expect("the server records its compute");
    assert_eq!(compute.trace.map(|t| t.trace_id), Some(0xabcdef));
}
