//! End-to-end distributed tracing (PROTOCOL.md §9.4): a sharded k=3
//! query over real TCP carries one wire-propagated trace context to
//! every worker, each worker's `TraceBuffer` serves its server-side
//! spans back over `GET /trace/<id>`, and the client assembles one
//! causally ordered cross-process timeline — client spans plus all
//! three legs' server-side fold spans, every record sharing the query's
//! trace id, phase sums reconciling against the `RunReport` bridge.
//!
//! The compatibility half of the contract is proved by bytes: with
//! tracing off (the default), every handshake frame encodes exactly the
//! pre-tracing layout, so v2 peers cannot tell the builds apart. The
//! cost half is a CI guard: the disabled-tracer path must be near-free.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pps_bignum::Uint;
use pps_obs::{
    Collector, JsonValue, MetricsServer, NullCollector, Record, Registry, TraceBuffer,
    TraceContext, Tracer,
};
use pps_protocol::messages::{Hello, Resume, ShardHello};
use pps_protocol::{
    run_sharded_query_traced, Database, FoldStrategy, PhaseTotals, ServerObs, ShardQueryConfig,
    SumClient, TcpQueryConfig, TcpServer, TracedShardQuery,
};
use pps_transport::RetryPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 12;
const K: usize = 3;
const ROWS_PER_SHARD: usize = N / K;

fn value(global: usize) -> u64 {
    global as u64 * 5 + 2
}

fn shard_db(i: usize) -> Arc<Database> {
    let lo = i * ROWS_PER_SHARD;
    Arc::new(Database::new((lo..lo + ROWS_PER_SHARD).map(value).collect()).unwrap())
}

fn selection() -> Vec<usize> {
    (0..N).step_by(2).collect()
}

fn oracle() -> u128 {
    selection().iter().map(|&i| value(i) as u128).sum()
}

fn config() -> ShardQueryConfig {
    ShardQueryConfig {
        tcp: TcpQueryConfig {
            batch_size: 2,
            client_threads: 1,
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            retry: RetryPolicy::default(),
            ..TcpQueryConfig::default()
        },
        value_bound: Some(value(N - 1) + 1),
    }
}

/// One traced k=3 query against real shard workers, each with its own
/// registry, trace buffer, and live obs endpoint.
fn run_traced_query(seed: u64) -> TracedShardQuery {
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    let mut obs_addrs = Vec::new();
    let mut metrics_servers = Vec::new();
    for i in 0..K {
        let registry = Arc::new(Registry::new());
        let traces = Arc::new(TraceBuffer::default());
        let tracer = Tracer::new(Arc::clone(&traces) as Arc<dyn Collector>);
        let obs = ServerObs::with_tracer(Arc::clone(&registry), tracer);
        let metrics =
            MetricsServer::start_with_traces("127.0.0.1:0", registry, Arc::clone(&traces)).unwrap();
        obs_addrs.push(metrics.addr());
        metrics_servers.push(metrics);
        let server = TcpServer::bind(shard_db(i), "127.0.0.1:0", FoldStrategy::default())
            .unwrap()
            .require_shard_handshake()
            .with_observability(obs);
        addrs.push(server.local_addr().unwrap().to_string());
        servers.push(server);
    }

    std::thread::scope(|scope| {
        let handles: Vec<_> = servers
            .into_iter()
            .map(|s| scope.spawn(move || s.serve(Some(1))))
            .collect();

        let mut rng = StdRng::seed_from_u64(seed);
        let client = SumClient::generate(128, &mut rng).unwrap();
        let traced = run_sharded_query_traced(
            &addrs,
            &obs_addrs,
            &client,
            &selection(),
            &config(),
            Arc::new(Registry::new()),
            &mut rng,
        )
        .unwrap();
        for h in handles {
            let stats = h.join().unwrap();
            assert_eq!(stats.sessions, 1, "one completed session per shard");
        }
        traced
    })
}

#[test]
fn traced_sharded_query_assembles_one_cross_process_timeline() {
    let tq = run_traced_query(4242);

    assert_eq!(tq.outcome.sum, oracle(), "tracing must not perturb the sum");
    assert_eq!(
        tq.legs_fetched, K,
        "every leg's server-side records fetched"
    );
    assert_eq!(tq.timeline.processes, K + 1);
    assert_eq!(
        tq.timeline.processes_seen(),
        K + 1,
        "client and all three legs contributed records"
    );

    // Every record on the timeline carries the query's trace id.
    for entry in &tq.timeline.entries {
        let trace = match &entry.record {
            Record::Span(s) => s.trace,
            Record::Event(e) => e.trace,
        };
        assert_eq!(
            trace.map(|c| c.trace_id),
            Some(tq.trace_id),
            "record from process {} missing the trace id",
            entry.process
        );
    }

    // Client-side structure: the query envelope plus one leg envelope
    // per shard.
    let client_spans: Vec<&str> = tq
        .timeline
        .entries
        .iter()
        .filter(|e| e.process == 0)
        .filter_map(|e| match &e.record {
            Record::Span(s) => Some(s.name.as_str()),
            Record::Event(_) => None,
        })
        .collect();
    assert!(client_spans.contains(&"sharded_query"));
    assert_eq!(
        client_spans.iter().filter(|n| **n == "shard_leg").count(),
        K,
        "one client leg envelope per shard: {client_spans:?}"
    );

    // Each leg's client spans are PROTOCOL.md §9.1's set, tagged with
    // the leg index: one `encrypt_batch` per batch (two batches of two
    // over a leg's four rows), one `wire_blocked`, one `decrypt`.
    for leg in 0..K as u64 {
        let leg_spans: Vec<&pps_obs::SpanRecord> = tq
            .timeline
            .entries
            .iter()
            .filter(|e| e.process == 0)
            .filter_map(|e| match &e.record {
                Record::Span(s) if s.session == Some(leg) && s.name != "shard_leg" => Some(s),
                _ => None,
            })
            .collect();
        let mut batches: Vec<u64> = leg_spans
            .iter()
            .filter(|s| s.name == "encrypt_batch")
            .filter_map(|s| s.batch)
            .collect();
        batches.sort_unstable();
        assert_eq!(batches, vec![0, 1], "leg {leg}: {leg_spans:?}");
        let named = |name: &str| leg_spans.iter().filter(|s| s.name == name).count();
        assert_eq!(named("wire_blocked"), 1, "leg {leg}");
        assert_eq!(named("decrypt"), 1, "leg {leg}");
        assert_eq!(leg_spans.len(), 4, "leg {leg}: nothing else");
    }

    // Server-side structure: each leg contributed its session envelope
    // and its fold work (the server_compute phase total).
    for leg in 0..K {
        let leg_spans: Vec<&str> = tq
            .timeline
            .entries
            .iter()
            .filter(|e| e.process == leg + 1)
            .filter_map(|e| match &e.record {
                Record::Span(s) => Some(s.name.as_str()),
                Record::Event(_) => None,
            })
            .collect();
        assert!(
            leg_spans.contains(&"session"),
            "leg {leg} session span: {leg_spans:?}"
        );
        assert!(
            leg_spans.contains(&"server_compute"),
            "leg {leg} fold span: {leg_spans:?}"
        );
    }

    // The four-component report is exactly the PhaseTotals bridge over
    // the merged timeline's spans.
    let totals = PhaseTotals::from_spans(tq.timeline.spans());
    assert_eq!(tq.report.client_encrypt, totals.client_encrypt);
    assert_eq!(tq.report.comm, totals.comm);
    assert_eq!(tq.report.server_compute, totals.server_compute);
    assert_eq!(tq.report.client_decrypt, totals.client_decrypt);
    assert!(
        tq.report.server_compute > Duration::ZERO,
        "server fold time crossed the process boundary into the report"
    );
    assert_eq!(tq.report.result, oracle());
    assert!(tq.report.pipelined_total.is_some(), "query envelope span");
}

#[test]
fn chrome_trace_export_has_one_track_per_process() {
    let tq = run_traced_query(999);
    let rendered = tq.timeline.to_chrome_trace().render();
    let parsed = JsonValue::parse(&rendered).expect("chrome export is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");

    let mut pids: Vec<u64> = events
        .iter()
        .filter_map(|e| e.get("pid").and_then(JsonValue::as_u64))
        .collect();
    pids.sort_unstable();
    pids.dedup();
    assert_eq!(pids, vec![0, 1, 2, 3], "client + 3 shard-leg tracks");

    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert_eq!(names, vec!["client", "shard0", "shard1", "shard2"]);

    // Complete events carry microsecond timestamps and durations.
    assert!(events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .all(|e| e.get("ts").and_then(JsonValue::as_f64).is_some()
            && e.get("dur").and_then(JsonValue::as_f64).is_some()));
}

/// With tracing off, every handshake message encodes exactly the
/// pre-tracing byte layout — a v2 peer sees identical bytes. With a
/// context attached, the only difference is the 24-byte trailer.
#[test]
fn untraced_handshake_frames_are_byte_identical_to_v2_layout() {
    let ctx = TraceContext::new(0xfeed_beef, 7);

    let hello = Hello {
        modulus: Uint::from_u64(0x0123_4567_89ab_cdef),
        total: 12,
        batch_size: 4,
        trace: None,
    };
    let mut expected = Vec::new();
    let m = hello.modulus.to_bytes_be();
    expected.extend_from_slice(&(m.len() as u16).to_be_bytes());
    expected.extend_from_slice(&m);
    expected.extend_from_slice(&12u64.to_be_bytes());
    expected.extend_from_slice(&4u32.to_be_bytes());
    let frame = hello.encode().unwrap();
    assert_eq!(&frame.payload[..], &expected[..], "hello v2 byte layout");
    let traced = Hello {
        trace: Some(ctx),
        ..hello
    }
    .encode()
    .unwrap();
    assert_eq!(traced.payload.len(), expected.len() + 24);

    let resume = Resume {
        session_id: 3,
        next_seq: 9,
        trace: None,
    };
    let mut expected = Vec::new();
    expected.extend_from_slice(&3u64.to_be_bytes());
    expected.extend_from_slice(&9u64.to_be_bytes());
    let frame = resume.encode().unwrap();
    assert_eq!(&frame.payload[..], &expected[..], "resume v2 byte layout");
    let traced = Resume {
        trace: Some(ctx),
        ..resume
    }
    .encode()
    .unwrap();
    assert_eq!(traced.payload.len(), expected.len() + 24);

    let shard = ShardHello {
        shard_index: 0,
        shard_count: 2,
        m_bits: 32,
        seeds_add: vec![vec![0xaa; 16]],
        seeds_sub: vec![],
        trace: None,
    };
    let mut expected = Vec::new();
    expected.extend_from_slice(&0u32.to_be_bytes());
    expected.extend_from_slice(&2u32.to_be_bytes());
    expected.extend_from_slice(&32u32.to_be_bytes());
    expected.extend_from_slice(&1u16.to_be_bytes());
    expected.extend_from_slice(&0u16.to_be_bytes());
    expected.extend_from_slice(&16u16.to_be_bytes());
    expected.extend_from_slice(&[0xaa; 16]);
    let frame = shard.encode().unwrap();
    assert_eq!(
        &frame.payload[..],
        &expected[..],
        "shard hello v2 byte layout"
    );
    let traced = ShardHello {
        trace: Some(ctx),
        ..shard
    }
    .encode()
    .unwrap();
    assert_eq!(traced.payload.len(), expected.len() + 24);
}

/// CI overhead guard: the disabled tracer (the default on every
/// un-instrumented server) and the NullCollector-backed tracer must
/// both be near-free — no allocation-heavy work on the untraced path.
#[test]
fn disabled_tracing_path_is_near_free() {
    const ITERS: u32 = 100_000;
    // Generous ceiling: 2µs per span+event pair. The real cost is a
    // couple of branches; the slack absorbs noisy shared CI runners.
    let budget = Duration::from_micros(2).checked_mul(ITERS).unwrap();

    for tracer in [
        Tracer::disabled(),
        Tracer::new(Arc::new(NullCollector) as Arc<dyn Collector>),
    ] {
        let start = Instant::now();
        for i in 0..ITERS {
            let span = tracer.span("fold").session(u64::from(i)).start();
            drop(span);
            tracer.event("tick", None, "");
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < budget,
            "untraced instrumentation cost {elapsed:?} for {ITERS} iterations (budget {budget:?})"
        );
    }
}
