//! Fault-tolerant TCP query client.
//!
//! [`run_tcp_query_with_retry`] executes one complete private
//! selected-sum query against a listening [`TcpServer`](crate::TcpServer):
//! connect, size discovery, encrypted index stream, product decryption —
//! all under configurable read/write deadlines — and retries any
//! *transport*-level failure (refused connect, disconnect mid-query,
//! expired deadline) under a [`RetryPolicy`], after an exponentially
//! backed-off, deterministically jittered sleep.
//! [`run_tcp_query_observed`] runs the same loop and records the paper's
//! client-side phases of the successful attempt (PROTOCOL.md §9.1).
//!
//! **Resume first, re-issue second.** The server acknowledges every
//! `Hello` with a session ID and checkpoints its fold state when the
//! connection ends before the product (PROTOCOL.md §10). A retrying
//! attempt therefore opens its fresh connection with
//! `Resume { session_id, .. }`: when the checkpoint survived, the server
//! replies with the next batch sequence number it expects and the
//! client re-encrypts and re-sends **only the unfolded tail** of the
//! index vector. Only when there is no checkpoint (TTL expiry, capacity
//! eviction, server restart, or a server that has not yet seen the old
//! connection end) does the client fall back to re-issuing the whole
//! query on the same connection.
//!
//! **Why re-issuing a whole query is safe:** the protocol is stateless
//! across sessions — the server keeps no record of a client between
//! connections (checkpoints are an optimization, never required for
//! correctness), and a fresh attempt re-encrypts the index vector under
//! fresh randomness, so a retried query is indistinguishable from a new
//! client and returns the same sum. Protocol-level errors (a malformed
//! reply, a key mismatch, an oracle disagreement) are **not** retried:
//! they signal a bug or an attack, not weather.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pps_bignum::Uint;
use pps_obs::{Collector, Phase, RingCollector, SpanRecord, TeeCollector, TraceContext, Tracer};
use pps_transport::{
    RetryPolicy, RetryStats, StreamWire, TcpWire, TimedWire, TrafficStats, TransportError, Wire,
};
use rand::RngCore;

use crate::client::{ClientSendStats, IndexSource, SumClient};
use crate::data::Selection;
use crate::error::ProtocolError;
use crate::messages::{Hello, HelloAck, Resume, ResumeAck, SizeReply, SizeRequest};
use crate::obs::{PhaseTotals, QueryObs};
use crate::report::{RunReport, Variant};

/// Configuration for a TCP query.
#[derive(Clone, Debug)]
pub struct TcpQueryConfig {
    /// Indices per batch message (the paper's §3.2 experiments use 100).
    pub batch_size: usize,
    /// Worker threads for client-side index encryption (1 = the
    /// sequential paper-fidelity path).
    pub client_threads: usize,
    /// Socket read deadline; `None` blocks forever.
    pub read_timeout: Option<Duration>,
    /// Socket write deadline.
    pub write_timeout: Option<Duration>,
    /// Retry policy applied by [`run_tcp_query_with_retry`] to the
    /// connect and to full-query re-issue.
    pub retry: RetryPolicy,
    /// Distributed trace context announced to the server as a trailer
    /// on `Hello`/`Resume` (and on `ShardHello` by the fan-out engine).
    /// `None` — the default — leaves the wire byte-identical to an
    /// untraced peer (PROTOCOL.md §9.4).
    pub trace: Option<TraceContext>,
    /// Time source for retry backoff sleeps. The real clock by default;
    /// tests and the deterministic simulator inject a
    /// [`VirtualClock`](pps_obs::VirtualClock) so backoff schedules are
    /// asserted instead of waited out.
    pub clock: pps_obs::SharedClock,
}

impl Default for TcpQueryConfig {
    /// Batch 100, single-threaded encryption, 30 s deadlines, default
    /// retry policy.
    fn default() -> Self {
        TcpQueryConfig {
            batch_size: 100,
            client_threads: 1,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            retry: RetryPolicy::default(),
            trace: None,
            clock: pps_obs::real_clock(),
        }
    }
}

/// Result of a TCP query, including what the retry loop did.
#[derive(Clone, Debug)]
pub struct TcpQueryOutcome {
    /// The private sum.
    pub sum: u128,
    /// Database size discovered from the server.
    pub n: usize,
    /// Rows selected.
    pub selected: usize,
    /// Traffic counters of the **successful** attempt.
    pub traffic: TrafficStats,
    /// Attempts made and backoffs slept (one attempt, no delays, when
    /// the first try succeeded).
    pub retry: RetryStats,
    /// Attempts that continued from a surviving server checkpoint
    /// instead of re-issuing the whole query.
    pub resumed_attempts: u32,
    /// Encrypted-payload bytes written to the wire by each attempt, in
    /// order (attempts that failed before connecting record no entry).
    /// A resumed attempt's entry is strictly smaller than a full
    /// re-issue whenever at least one batch had been acknowledged.
    pub attempt_payload_bytes: Vec<usize>,
}

/// A query outcome whose sum is still a full-width [`Uint`]. The shard
/// fan-out engine needs this: a *blinded* partial sum is uniform in the
/// blinding modulus `M = 2^(key_bits - 2)` and overflows `u128` for any
/// key wider than 130 bits, so the conversion to `u128` must wait until
/// the blindings have cancelled.
#[derive(Clone, Debug)]
pub(crate) struct RawQueryOutcome {
    pub(crate) sum: Uint,
    pub(crate) n: usize,
    pub(crate) selected: usize,
    pub(crate) traffic: TrafficStats,
    pub(crate) retry: RetryStats,
    pub(crate) resumed_attempts: u32,
    pub(crate) attempt_payload_bytes: Vec<usize>,
}

impl RawQueryOutcome {
    /// The outcome of an unblinded query, whose sum fits `u128`.
    fn into_outcome(self) -> Result<TcpQueryOutcome, ProtocolError> {
        let sum = self
            .sum
            .to_u128()
            .ok_or_else(|| ProtocolError::Config("sum exceeds 128 bits".into()))?;
        Ok(TcpQueryOutcome {
            sum,
            n: self.n,
            selected: self.selected,
            traffic: self.traffic,
            retry: self.retry,
            resumed_attempts: self.resumed_attempts,
            attempt_payload_bytes: self.attempt_payload_bytes,
        })
    }
}

/// A query whose size and selection are already known, so the attempt
/// loop skips size discovery. A shard leg uses this: the fan-out engine
/// discovers every shard's row count up front (it needs the global
/// offsets to split the selection) and each leg then queries its
/// pre-computed local selection.
pub(crate) struct PresetQuery {
    pub(crate) n: usize,
    pub(crate) selection: Selection,
}

/// Client-side instrumentation of the attempt loop: PROTOCOL.md §9.1's
/// client span set for the successful attempt and, for a traced
/// `pps query`, its histograms and counters. The traced single-server
/// query ([`run_tcp_query_observed`]) and the traced shard legs both
/// use it.
pub(crate) struct QueryTrace<'a> {
    /// Where the spans go (context-stamped when the query is traced).
    pub(crate) tracer: &'a Tracer,
    /// Session tag on every span: the leg index of a shard leg, `None`
    /// for a single server.
    pub(crate) session: Option<u64>,
    /// The phase histograms, retry counters and wire counters of
    /// [`run_tcp_query_observed`].
    pub(crate) obs: Option<&'a QueryObs>,
}

impl QueryTrace<'_> {
    /// Records the successful attempt: one `encrypt_batch` span per
    /// batch it streamed ([`Phase::ClientEncrypt`], tagged with the
    /// batch's sequence number, placed where that batch's encryption ran
    /// on the tracer's clock), `wire_blocked` ([`Phase::Comm`], the time
    /// blocked on socket send/recv) and `decrypt`
    /// ([`Phase::ClientDecrypt`]). The histograms read the same
    /// `Duration`s, so a `/metrics` scrape and a span-bridged
    /// [`RunReport`] agree exactly, not just within timer noise.
    fn record(&self, attempt: &Attempt, comm: Duration) {
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        // One reading of both clocks carries each batch's start onto the
        // tracer's timeline: as long before now as it began.
        let (now, now_ns) = (Instant::now(), self.tracer.now_ns());
        let sent = &attempt.sent;
        let batches = sent.per_batch_encrypt.iter().zip(&sent.per_batch_start);
        for (seq, (elapsed, started)) in (attempt.first_seq..).zip(batches) {
            let start_ns = now_ns.saturating_sub(ns(now.duration_since(*started)));
            self.tracer.record_span(SpanRecord {
                name: "encrypt_batch".to_string(),
                phase: Some(Phase::ClientEncrypt),
                session: self.session,
                batch: Some(seq),
                start_ns,
                end_ns: start_ns.saturating_add(ns(*elapsed)),
                trace: None, // stamped by the tracer's context
            });
        }
        self.tracer
            .record_phase_total("wire_blocked", Phase::Comm, self.session, comm);
        self.tracer.record_phase_total(
            "decrypt",
            Phase::ClientDecrypt,
            self.session,
            attempt.decrypt,
        );
        if let Some(obs) = self.obs {
            for elapsed in &attempt.sent.per_batch_encrypt {
                obs.client_encrypt.record_duration(*elapsed);
            }
            obs.comm.record_duration(comm);
            obs.client_decrypt.record_duration(attempt.decrypt);
        }
    }
}

/// Whether a failure is worth retrying: transient transport weather
/// (peer gone, deadline expired, OS-level socket error) yes; protocol,
/// crypto, and configuration errors no.
fn retryable(e: &ProtocolError) -> bool {
    matches!(
        e,
        ProtocolError::Transport(
            TransportError::Disconnected | TransportError::TimedOut | TransportError::Io(_)
        )
    )
}

/// Client-side query state that survives across attempts: the size and
/// selection discovered once, the resumption ticket granted by the
/// server's `HelloAck`, and how often resumption actually happened.
struct AttemptState {
    n: Option<usize>,
    selection: Option<Selection>,
    session: Option<u64>,
    resumed_attempts: u32,
}

fn index_source<'a>(config: &TcpQueryConfig, rng: &'a mut dyn RngCore) -> IndexSource<'a> {
    if config.client_threads > 1 {
        IndexSource::FreshParallel {
            rng,
            threads: config.client_threads,
        }
    } else {
        IndexSource::Fresh(rng)
    }
}

/// What a successful attempt streamed and decrypted.
struct Attempt {
    sum: Uint,
    /// Sequence number of the first batch this attempt streamed: 0 for a
    /// full query, the server's `next_seq` for a resumed one.
    first_seq: u64,
    sent: ClientSendStats,
    decrypt: Duration,
}

/// One attempt over an already-connected wire, resume-first: when a
/// previous attempt holds a session ticket, ask the server to continue
/// from its checkpoint; fall back to a full query (size discovery,
/// `Hello`, every batch) on the same connection when the checkpoint is
/// gone or this is the first attempt.
fn resumable_attempt(
    wire: &mut dyn Wire,
    client: &SumClient,
    select: &[usize],
    config: &TcpQueryConfig,
    rng: &mut dyn RngCore,
    state: &mut AttemptState,
) -> Result<Attempt, ProtocolError> {
    let mut first_seq = 0;
    if let Some(sid) = state.session {
        wire.send(
            Resume {
                session_id: sid,
                next_seq: 0,
                trace: config.trace,
            }
            .encode()?,
        )?;
        let ack = ResumeAck::decode(&wire.recv()?)?;
        if ack.granted {
            state.resumed_attempts += 1;
            first_seq = ack.next_seq;
        } else {
            // Checkpoint gone (TTL, capacity, restart). The server is
            // back at AwaitHello on this very connection; fall through
            // to a full re-issue without reconnecting.
            state.session = None;
        }
    }

    if state.session.is_none() {
        if state.n.is_none() {
            wire.send(SizeRequest.encode()?)?;
            let n = SizeReply::decode(&wire.recv()?)?.n as usize;
            state.selection = Some(Selection::from_indices(n, select)?);
            state.n = Some(n);
        }
        if config.batch_size == 0 {
            return Err(ProtocolError::Config("batch size must be positive".into()));
        }
        let selection = state.selection.as_ref().expect("set above");
        wire.send(
            Hello {
                modulus: client.keypair().public.n().clone(),
                total: selection.len() as u64,
                batch_size: config.batch_size.min(u32::MAX as usize) as u32,
                trace: config.trace,
            }
            .encode()?,
        )?;
        // Read the HelloAck eagerly — the ticket must be in hand *before*
        // the stream starts, or a disconnect mid-stream leaves nothing to
        // resume with.
        state.session = Some(HelloAck::decode(&wire.recv()?)?.session_id);
    }

    let selection = state
        .selection
        .as_ref()
        .expect("a ticket implies a prior Hello, which implies a selection");
    // Fresh randomness for every attempt's batches: a resumed tail is as
    // indistinguishable as a fresh query.
    let mut source = index_source(config, rng);
    let sent = client.stream_batches(wire, selection, config.batch_size, &mut source, first_seq)?;
    let (sum, decrypt) = client.receive_result(wire)?;
    Ok(Attempt {
        sum,
        first_seq,
        sent,
        decrypt,
    })
}

/// Runs one private selected-sum query over a stream transport built by
/// `connect`, retrying on transient transport failures according to
/// `config.retry` — resume-first, full re-issue as the fallback (see
/// the module docs).
///
/// `connect` is called once per attempt with the 1-based attempt number
/// and must return a connected, deadline-configured wire. This is the
/// engine under [`run_tcp_query_with_retry`]; it is public so fault
/// injection harnesses can drive it over instrumented streams.
///
/// # Errors
/// The final attempt's error when every attempt fails, or immediately
/// on a non-retryable (protocol/crypto/config) failure.
pub fn run_stream_query_with_resume<S, F>(
    connect: &mut F,
    client: &SumClient,
    select: &[usize],
    config: &TcpQueryConfig,
    rng: &mut dyn RngCore,
) -> Result<TcpQueryOutcome, ProtocolError>
where
    S: Read + Write,
    F: FnMut(u32) -> Result<StreamWire<S>, ProtocolError>,
{
    run_stream_query_raw(connect, client, select, config, rng, None, None)?.into_outcome()
}

/// The client's one attempt loop, under every query path: plain and
/// traced single-server queries, shard legs and the chaos harnesses.
/// The sum stays a full-width [`Uint`] (blinded shard partials don't
/// fit `u128`), an optional [`PresetQuery`] skips size discovery (the
/// fan-out engine already knows each shard's size and local selection),
/// and an optional [`QueryTrace`] records the successful attempt's
/// phases. Without one the loop emits nothing.
pub(crate) fn run_stream_query_raw<S, F>(
    connect: &mut F,
    client: &SumClient,
    select: &[usize],
    config: &TcpQueryConfig,
    rng: &mut dyn RngCore,
    preset: Option<PresetQuery>,
    trace: Option<&QueryTrace<'_>>,
) -> Result<RawQueryOutcome, ProtocolError>
where
    S: Read + Write,
    F: FnMut(u32) -> Result<StreamWire<S>, ProtocolError>,
{
    let (mut state, selected) = match preset {
        Some(p) => {
            let selected = p.selection.selected_count();
            (
                AttemptState {
                    n: Some(p.n),
                    selection: Some(p.selection),
                    session: None,
                    resumed_attempts: 0,
                },
                selected,
            )
        }
        None => (
            AttemptState {
                n: None,
                selection: None,
                session: None,
                resumed_attempts: 0,
            },
            select.len(),
        ),
    };
    let obs = trace.and_then(|t| t.obs);
    let mut retry = RetryStats::default();
    let mut attempt_payload_bytes = Vec::new();
    loop {
        retry.attempts += 1;
        if let Some(obs) = obs {
            obs.retry_attempts.inc();
        }
        let outcome = match connect(retry.attempts) {
            Ok(mut inner) => {
                if let Some(obs) = obs {
                    inner.set_metrics(obs.wire.clone());
                }
                let mut wire = TimedWire::new(inner);
                let r = resumable_attempt(&mut wire, client, select, config, rng, &mut state);
                attempt_payload_bytes.push(wire.stats().payload_bytes_sent);
                r.map(|attempt| (attempt, wire.blocked(), wire.stats()))
            }
            Err(e) => Err(e),
        };
        match outcome {
            Ok((attempt, comm, traffic)) => {
                if let Some(trace) = trace {
                    trace.record(&attempt, comm);
                }
                return Ok(RawQueryOutcome {
                    sum: attempt.sum,
                    n: state.n.unwrap_or(0),
                    selected,
                    traffic,
                    retry,
                    resumed_attempts: state.resumed_attempts,
                    attempt_payload_bytes,
                });
            }
            Err(e) => {
                let retryable = retryable(&e);
                if let (true, Some(obs)) = (retryable, obs) {
                    obs.retry_failures.inc();
                }
                if !retryable || retry.attempts >= config.retry.max_attempts.max(1) {
                    return Err(e);
                }
                let delay = config.retry.delay_for(retry.attempts - 1, rng);
                retry.delays.push(delay);
                config.clock.sleep(delay);
            }
        }
    }
}

fn tcp_connector<'a>(
    addr: &'a str,
    config: &'a TcpQueryConfig,
) -> impl FnMut(u32) -> Result<TcpWire, ProtocolError> + 'a {
    move |_attempt| {
        let mut wire = TcpWire::connect(addr)?;
        wire.set_read_timeout(config.read_timeout)?;
        wire.set_write_timeout(config.write_timeout)?;
        Ok(wire)
    }
}

/// Runs one private selected-sum query over TCP, retrying on transient
/// transport failures according to `config.retry` (one attempt under
/// [`RetryPolicy::none`]). A retry resumes from the server's last
/// acknowledged batch when its checkpoint survived, and re-issues the
/// **whole query** (fresh encryption — idempotent, see the module docs)
/// otherwise.
///
/// # Errors
/// The final attempt's error when every attempt fails, or immediately
/// on a non-retryable (protocol/crypto/config) failure.
pub fn run_tcp_query_with_retry(
    addr: &str,
    client: &SumClient,
    select: &[usize],
    config: &TcpQueryConfig,
    rng: &mut dyn RngCore,
) -> Result<TcpQueryOutcome, ProtocolError> {
    run_stream_query_with_resume(
        &mut tcp_connector(addr, config),
        client,
        select,
        config,
        rng,
    )
}

/// Runs one private selected-sum query over TCP with full telemetry:
/// the same attempt loop as [`run_tcp_query_with_retry`] — resume
/// first — that also counts every attempt and retryable failure in
/// `obs`, attaches `obs`'s wire counters to every connection, and
/// records the paper's client-side phases into `obs`'s histograms and
/// spans (PROTOCOL.md §9.1). It reconstructs a [`RunReport`] from
/// those spans via [`PhaseTotals`].
///
/// The phases and the report cover the **successful** attempt only, as
/// [`TcpQueryOutcome::traffic`] does: failed attempts emit no phase
/// spans. The report's `client_encrypt`, `comm`, and `client_decrypt`
/// come from this client's own spans. `server_compute` is zero unless
/// the collector behind `obs` also receives the server's spans
/// (loopback deployments sharing a collector get all four components;
/// across a real network the server's compute is invisible to the
/// client and is folded into `comm`, which measures total time blocked
/// on the wire).
///
/// # Errors
/// As [`run_tcp_query_with_retry`].
pub fn run_tcp_query_observed(
    addr: &str,
    client: &SumClient,
    select: &[usize],
    config: &TcpQueryConfig,
    rng: &mut dyn RngCore,
    obs: &QueryObs,
) -> Result<(TcpQueryOutcome, RunReport), ProtocolError> {
    // Private ring for the span→report bridge, teed into the caller's
    // collector so shared-collector deployments see the same spans.
    let ring = Arc::new(RingCollector::new(4096));
    let tracer = Tracer::new(Arc::new(TeeCollector::new(vec![
        Arc::clone(&ring) as Arc<dyn Collector>,
        Arc::clone(obs.collector()),
    ])));
    let trace = QueryTrace {
        tracer: &tracer,
        session: None,
        obs: Some(obs),
    };
    let outcome = run_stream_query_raw(
        &mut tcp_connector(addr, config),
        client,
        select,
        config,
        rng,
        None,
        Some(&trace),
    )?
    .into_outcome()?;
    let traffic = &outcome.traffic;
    let mut report = RunReport {
        variant: Variant::Batched,
        n: outcome.n,
        selected: outcome.selected,
        key_bits: client.keypair().public.key_bits(),
        link: format!("tcp:{addr}"),
        client_offline: Duration::ZERO,
        client_encrypt: Duration::ZERO,
        server_compute: Duration::ZERO,
        comm: Duration::ZERO,
        client_decrypt: Duration::ZERO,
        pipelined_total: None,
        bytes_to_server: traffic.payload_bytes_sent,
        bytes_to_client: traffic.payload_bytes_received,
        messages: traffic.messages_sent + traffic.messages_received,
        result: outcome.sum,
    };
    PhaseTotals::from_spans(ring.spans().iter()).apply(&mut report);
    Ok((outcome, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Database;
    use crate::server::FoldStrategy;
    use crate::tcp_server::TcpServer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn serve_one(values: Vec<u64>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let db = Arc::new(Database::new(values).unwrap());
        let server = TcpServer::bind(db, "127.0.0.1:0", FoldStrategy::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            server.serve(Some(1));
        });
        (addr, t)
    }

    #[test]
    fn query_round_trip() {
        let (addr, t) = serve_one(vec![10, 20, 30, 40]);
        let mut rng = StdRng::seed_from_u64(1);
        let client = SumClient::generate(128, &mut rng).unwrap();
        let config = TcpQueryConfig {
            retry: RetryPolicy::none(),
            ..TcpQueryConfig::default()
        };
        let out = run_tcp_query_with_retry(&addr.to_string(), &client, &[1, 3], &config, &mut rng)
            .unwrap();
        assert_eq!(out.sum, 60);
        assert_eq!(out.n, 4);
        assert_eq!(out.selected, 2);
        assert_eq!(out.retry.attempts, 1);
        assert!(out.retry.delays.is_empty());
        assert!(out.traffic.payload_bytes_sent > 0);
        t.join().unwrap();
    }

    #[test]
    fn dead_port_fails_without_retry_and_with_exhausted_retry() {
        let mut rng = StdRng::seed_from_u64(2);
        let client = SumClient::generate(128, &mut rng).unwrap();
        let config = TcpQueryConfig {
            retry: RetryPolicy {
                max_attempts: 2,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
            },
            ..TcpQueryConfig::default()
        };
        let single = TcpQueryConfig {
            retry: RetryPolicy::none(),
            ..config.clone()
        };
        let err =
            run_tcp_query_with_retry("127.0.0.1:1", &client, &[0], &single, &mut rng).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::Transport(TransportError::Io(_))
        ));
        let err =
            run_tcp_query_with_retry("127.0.0.1:1", &client, &[0], &config, &mut rng).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::Transport(TransportError::Io(_))
        ));
    }

    #[test]
    fn config_errors_are_not_retried() {
        // An out-of-range selection is discovered after size discovery;
        // retrying it would loop uselessly, so it must fail fast.
        let (addr, t) = serve_one(vec![1, 2]);
        let mut rng = StdRng::seed_from_u64(3);
        let client = SumClient::generate(128, &mut rng).unwrap();
        let config = TcpQueryConfig::default();
        let err = run_tcp_query_with_retry(&addr.to_string(), &client, &[7], &config, &mut rng)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Config(_)));
        // The server session saw a disconnect, not a second attempt;
        // serve(Some(1)) returns regardless.
        t.join().unwrap();
    }

    #[test]
    fn observed_query_bridges_spans_into_a_report() {
        use crate::obs::ServerObs;
        use pps_obs::Registry;

        let registry = Arc::new(Registry::new());
        // One collector shared by both ends: the loopback deployment
        // where the bridge can see all four phases.
        let shared = Arc::new(RingCollector::new(256));
        let server_obs = ServerObs::with_tracer(
            Arc::clone(&registry),
            Tracer::new(Arc::clone(&shared) as Arc<dyn Collector>),
        );
        let query_obs = QueryObs::with_collector(
            Arc::clone(&registry),
            Arc::clone(&shared) as Arc<dyn Collector>,
        );

        let db = Arc::new(Database::new(vec![5, 6, 7, 8]).unwrap());
        let server = TcpServer::bind(db, "127.0.0.1:0", FoldStrategy::default())
            .unwrap()
            .with_observability(server_obs);
        let addr = server.local_addr().unwrap();
        let server_thread = std::thread::spawn(move || server.serve(Some(1)));

        let mut rng = StdRng::seed_from_u64(17);
        let client = SumClient::generate(128, &mut rng).unwrap();
        let config = TcpQueryConfig {
            batch_size: 2,
            ..TcpQueryConfig::default()
        };
        let (out, report) = run_tcp_query_observed(
            &addr.to_string(),
            &client,
            &[0, 3],
            &config,
            &mut rng,
            &query_obs,
        )
        .unwrap();
        let stats = server_thread.join().unwrap();

        assert_eq!(out.sum, 13);
        assert_eq!(report.result, 13);
        assert_eq!(report.n, 4);
        assert_eq!(report.selected, 2);
        assert!(report.link.starts_with("tcp:127.0.0.1:"));
        assert!(report.client_encrypt > Duration::ZERO);
        assert!(report.comm > Duration::ZERO);
        assert!(report.client_decrypt > Duration::ZERO);
        // The client cannot see across the wire, so its own report has
        // no server component...
        assert_eq!(report.server_compute, Duration::ZERO);
        // ...but the client's wire-blocked time necessarily covers it.
        assert!(report.comm >= stats.compute);

        // The histograms carry the exact same durations the report does.
        assert_eq!(query_obs.client_encrypt.sum(), report.client_encrypt);
        assert_eq!(query_obs.comm.sum(), report.comm);
        assert_eq!(query_obs.client_decrypt.sum(), report.client_decrypt);
        assert_eq!(
            query_obs.client_encrypt.count() as usize,
            2,
            "one sample per batch (4 rows / batch_size 2)"
        );
        assert_eq!(out.retry.attempts, 1);
        assert_eq!(query_obs.retry_attempts.get(), 1);
        assert_eq!(query_obs.retry_failures.get(), 0);

        // The shared collector saw both ends: reconstructing from it
        // yields the full four-component decomposition.
        let merged = PhaseTotals::from_spans(shared.spans().iter());
        assert_eq!(merged.client_encrypt, report.client_encrypt);
        assert_eq!(merged.comm, report.comm);
        assert_eq!(merged.client_decrypt, report.client_decrypt);
        assert_eq!(merged.server_compute, stats.compute);
    }

    #[test]
    fn encryption_spans_sit_where_each_batch_ran() {
        use pps_obs::Registry;

        // Eight rows in batches of two: four encryption spans, in
        // sequence order, each ending before the next begins and before
        // the decryption starts, each exactly its batch's duration.
        let db = Arc::new(Database::new((1..=8).collect()).unwrap());
        let server = TcpServer::bind(db, "127.0.0.1:0", FoldStrategy::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let server_thread = std::thread::spawn(move || server.serve(Some(1)));
        let ring = Arc::new(RingCollector::new(64));
        let obs = QueryObs::with_collector(
            Arc::new(Registry::new()),
            Arc::clone(&ring) as Arc<dyn Collector>,
        );
        let mut rng = StdRng::seed_from_u64(29);
        let client = SumClient::generate(256, &mut rng).unwrap();
        let config = TcpQueryConfig {
            batch_size: 2,
            ..TcpQueryConfig::default()
        };
        let (out, report) = run_tcp_query_observed(
            &addr.to_string(),
            &client,
            &[0, 3, 4, 7],
            &config,
            &mut rng,
            &obs,
        )
        .unwrap();
        server_thread.join().unwrap();
        assert_eq!(out.sum, 1 + 4 + 5 + 8);

        let spans = ring.spans();
        let encrypts: Vec<_> = spans.iter().filter(|s| s.name == "encrypt_batch").collect();
        let seqs: Vec<u64> = encrypts.iter().filter_map(|s| s.batch).collect();
        assert_eq!(seqs, [0, 1, 2, 3]);
        for pair in encrypts.windows(2) {
            assert!(pair[0].end_ns <= pair[1].start_ns, "{pair:?} overlap");
        }
        let decrypt = spans.iter().find(|s| s.name == "decrypt").unwrap();
        assert!(encrypts.iter().all(|s| s.end_ns <= decrypt.start_ns));
        let total: u64 = encrypts.iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(u128::from(total), report.client_encrypt.as_nanos());
    }

    #[test]
    fn traced_query_resumes_and_records_only_the_successful_attempt() {
        use pps_obs::Registry;
        use pps_transport::{Fault, FaultSchedule, FaultyStream};
        use std::net::TcpStream;

        // 12 rows in batches of 2: six batches, every other row selected.
        let values: Vec<u64> = (0..12).map(|i| i * 3 + 1).collect();
        let select: Vec<usize> = (0..12).step_by(2).collect();
        let expected: u128 = select.iter().map(|&i| u128::from(values[i])).sum();
        let db = Arc::new(Database::new(values).unwrap());
        let server = TcpServer::bind(db, "127.0.0.1:0", FoldStrategy::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let server_thread = std::thread::spawn(move || server.serve(Some(2)));

        let mut rng = StdRng::seed_from_u64(23);
        let client = SumClient::generate(128, &mut rng).unwrap();
        let config = TcpQueryConfig {
            batch_size: 2,
            read_timeout: Some(Duration::from_secs(10)),
            retry: RetryPolicy {
                max_attempts: 3,
                // Long enough for the server to park the dead session
                // before the resume arrives.
                base_delay: Duration::from_millis(200),
                max_delay: Duration::from_millis(200),
            },
            ..TcpQueryConfig::default()
        };
        // Attempt 1's writes: 0 = SizeRequest, 1 = Hello, 2–4 = batches
        // 0–2; it dies on its fourth batch.
        let mut connect = |attempt: u32| {
            let stream = TcpStream::connect(addr)
                .map_err(|e| ProtocolError::Transport(TransportError::Io(e.to_string())))?;
            stream
                .set_read_timeout(config.read_timeout)
                .map_err(|e| ProtocolError::Transport(TransportError::Io(e.to_string())))?;
            let schedule = match attempt {
                1 => FaultSchedule::new().on_write(5, Fault::Disconnect),
                _ => FaultSchedule::new(),
            };
            Ok(FaultyStream::wire(stream, schedule))
        };
        let ring = Arc::new(RingCollector::new(64));
        let obs = QueryObs::with_collector(
            Arc::new(Registry::new()),
            Arc::clone(&ring) as Arc<dyn Collector>,
        );
        let tracer = Tracer::new(Arc::clone(obs.collector()));
        let trace = QueryTrace {
            tracer: &tracer,
            session: None,
            obs: Some(&obs),
        };
        let out = run_stream_query_raw(
            &mut connect,
            &client,
            &select,
            &config,
            &mut rng,
            None,
            Some(&trace),
        )
        .unwrap();
        server_thread.join().unwrap();

        assert_eq!(out.sum.to_u128(), Some(expected));
        assert_eq!(out.retry.attempts, 2);
        assert_eq!(out.resumed_attempts, 1, "resumed, not re-issued");
        let [first, second] = out.attempt_payload_bytes[..] else {
            panic!("two attempts: {:?}", out.attempt_payload_bytes);
        };
        assert!(second < first, "the resume re-sent only the tail");

        let spans = ring.spans();
        let named = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(named("wire_blocked"), 1);
        assert_eq!(named("decrypt"), 1);
        let batches: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "encrypt_batch")
            .filter_map(|s| s.batch)
            .collect();
        assert_eq!(
            batches,
            vec![3, 4, 5],
            "only the batches attempt 2 streamed"
        );
        assert_eq!(obs.client_encrypt.count(), 3);
        assert_eq!(obs.retry_attempts.get(), 2);
        assert_eq!(obs.retry_failures.get(), 1);
    }

    #[test]
    fn retryable_taxonomy() {
        assert!(retryable(&ProtocolError::Transport(
            TransportError::Disconnected
        )));
        assert!(retryable(&ProtocolError::Transport(
            TransportError::TimedOut
        )));
        assert!(retryable(&ProtocolError::Transport(TransportError::Io(
            "connection refused".into()
        ))));
        assert!(!retryable(&ProtocolError::Config("bad".into())));
        assert!(!retryable(&ProtocolError::Transport(
            TransportError::Malformed("bad magic")
        )));
        assert!(!retryable(&ProtocolError::UnexpectedMessage("x")));
    }
}
