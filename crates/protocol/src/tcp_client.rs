//! Fault-tolerant TCP query client.
//!
//! [`run_tcp_query`] executes one complete private selected-sum query
//! against a listening [`TcpServer`](crate::TcpServer): connect, size
//! discovery, encrypted index stream, product decryption — all under
//! configurable read/write deadlines. [`run_tcp_query_with_retry`] wraps
//! it in a [`RetryPolicy`]: any *transport*-level failure (refused
//! connect, disconnect mid-query, expired deadline) is retried from
//! scratch after an exponentially backed-off, deterministically
//! jittered sleep.
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
use std::time::Duration;

use pps_bignum::Uint;
use pps_obs::{Collector, Phase, RingCollector, SpanRecord, TeeCollector, TraceContext, Tracer};
use pps_transport::{
    RetryPolicy, RetryStats, StreamWire, TcpWire, TimedWire, TrafficStats, TransportError, Wire,
};
use rand::RngCore;

use crate::client::{IndexSource, SumClient};
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

/// A query whose size and selection are already known, so the attempt
/// loop skips size discovery. A shard leg uses this: the fan-out engine
/// discovers every shard's row count up front (it needs the global
/// offsets to split the selection) and each leg then queries its
/// pre-computed local selection.
pub(crate) struct PresetQuery {
    pub(crate) n: usize,
    pub(crate) selection: Selection,
}

/// Client-side span instrumentation for one shard leg: the tracer the
/// leg's phase spans go through (usually context-stamped by the traced
/// fan-out) and the leg index used as their session tag.
pub(crate) struct LegTrace<'a> {
    pub(crate) tracer: &'a Tracer,
    pub(crate) leg: u64,
}

impl LegTrace<'_> {
    /// Emits the leg's coarse three-phase decomposition for one
    /// successful attempt: the batch-streaming wall
    /// ([`Phase::ClientEncrypt`] — includes the writes it interleaves),
    /// the wait for the product minus its decryption ([`Phase::Comm`]),
    /// and the decryption itself ([`Phase::ClientDecrypt`]).
    fn record_phases(&self, stream_start: u64, stream_end: u64, decrypt: Duration) {
        let end = self.tracer.now_ns();
        let dec_ns = u64::try_from(decrypt.as_nanos())
            .unwrap_or(u64::MAX)
            .min(end.saturating_sub(stream_end));
        let span = |name: &str, phase, start_ns, end_ns| SpanRecord {
            name: name.to_string(),
            phase: Some(phase),
            session: Some(self.leg),
            batch: None,
            start_ns,
            end_ns,
            trace: None, // stamped by the tracer's context
        };
        self.tracer.record_span(span(
            "leg_encrypt_stream",
            Phase::ClientEncrypt,
            stream_start,
            stream_end,
        ));
        self.tracer
            .record_span(span("leg_wire_wait", Phase::Comm, stream_end, end - dec_ns));
        self.tracer
            .record_span(span("leg_decrypt", Phase::ClientDecrypt, end - dec_ns, end));
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

/// One attempt over an already-connected wire, resume-first: when a
/// previous attempt holds a session ticket, ask the server to continue
/// from its checkpoint; fall back to a full query (size discovery,
/// `Hello`, every batch) on the same connection when the checkpoint is
/// gone or this is the first attempt.
fn resumable_attempt<S: Read + Write>(
    wire: &mut StreamWire<S>,
    client: &SumClient,
    select: &[usize],
    config: &TcpQueryConfig,
    rng: &mut dyn RngCore,
    state: &mut AttemptState,
    leg: Option<&LegTrace<'_>>,
) -> Result<Uint, ProtocolError> {
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
            let selection = state
                .selection
                .as_ref()
                .expect("a ticket implies a prior Hello, which implies a selection");
            // Fresh randomness for the re-encrypted tail: the resumed
            // stream is as indistinguishable as a fresh query.
            let mut source = index_source(config, rng);
            let stream_start = leg.map(|l| l.tracer.now_ns());
            client.stream_batches(
                wire,
                selection,
                config.batch_size,
                &mut source,
                ack.next_seq,
            )?;
            let stream_end = leg.map(|l| l.tracer.now_ns());
            let (sum, decrypt) = client.receive_result(wire)?;
            if let (Some(l), Some(s), Some(e)) = (leg, stream_start, stream_end) {
                l.record_phases(s, e, decrypt);
            }
            return Ok(sum);
        }
        // Checkpoint gone (TTL, capacity, restart). The server is back
        // at AwaitHello on this very connection; fall through to a full
        // re-issue without reconnecting.
        state.session = None;
    }

    if state.n.is_none() {
        wire.send(SizeRequest.encode()?)?;
        let n = SizeReply::decode(&wire.recv()?)?.n as usize;
        state.selection = Some(Selection::from_indices(n, select)?);
        state.n = Some(n);
    }
    let selection = state.selection.as_ref().expect("set above");

    if config.batch_size == 0 {
        return Err(ProtocolError::Config("batch size must be positive".into()));
    }
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
    let mut source = index_source(config, rng);
    let stream_start = leg.map(|l| l.tracer.now_ns());
    client.stream_batches(wire, selection, config.batch_size, &mut source, 0)?;
    let stream_end = leg.map(|l| l.tracer.now_ns());
    let (sum, decrypt) = client.receive_result(wire)?;
    if let (Some(l), Some(s), Some(e)) = (leg, stream_start, stream_end) {
        l.record_phases(s, e, decrypt);
    }
    Ok(sum)
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
    let raw = run_stream_query_raw(connect, client, select, config, rng, None, None)?;
    let sum = raw
        .sum
        .to_u128()
        .ok_or_else(|| ProtocolError::Config("sum exceeds 128 bits".into()))?;
    Ok(TcpQueryOutcome {
        sum,
        n: raw.n,
        selected: raw.selected,
        traffic: raw.traffic,
        retry: raw.retry,
        resumed_attempts: raw.resumed_attempts,
        attempt_payload_bytes: raw.attempt_payload_bytes,
    })
}

/// The engine under [`run_stream_query_with_resume`]: same retry/resume
/// loop, but the sum stays a full-width [`Uint`] and an optional
/// [`PresetQuery`] skips size discovery. Shard legs use both: blinded
/// partials don't fit `u128`, and the fan-out engine already knows each
/// shard's size and local selection.
pub(crate) fn run_stream_query_raw<S, F>(
    connect: &mut F,
    client: &SumClient,
    select: &[usize],
    config: &TcpQueryConfig,
    rng: &mut dyn RngCore,
    preset: Option<PresetQuery>,
    leg: Option<&LegTrace<'_>>,
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
    let mut retry = RetryStats::default();
    let mut attempt_payload_bytes = Vec::new();
    loop {
        retry.attempts += 1;
        let outcome = match connect(retry.attempts) {
            Ok(mut wire) => {
                let r = resumable_attempt(&mut wire, client, select, config, rng, &mut state, leg);
                attempt_payload_bytes.push(wire.stats().payload_bytes_sent);
                r.map(|sum| (sum, wire.stats()))
            }
            Err(e) => Err(e),
        };
        match outcome {
            Ok((sum, traffic)) => {
                return Ok(RawQueryOutcome {
                    sum,
                    n: state.n.unwrap_or(0),
                    selected,
                    traffic,
                    retry,
                    resumed_attempts: state.resumed_attempts,
                    attempt_payload_bytes,
                });
            }
            Err(e) => {
                if !retryable(&e) || retry.attempts >= config.retry.max_attempts.max(1) {
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

/// Runs one private selected-sum query over TCP, without retry.
///
/// # Errors
/// Connection, transport, and protocol failures.
pub fn run_tcp_query(
    addr: &str,
    client: &SumClient,
    select: &[usize],
    config: &TcpQueryConfig,
    rng: &mut dyn RngCore,
) -> Result<TcpQueryOutcome, ProtocolError> {
    let single = TcpQueryConfig {
        retry: RetryPolicy {
            max_attempts: 1,
            ..config.retry
        },
        ..config.clone()
    };
    run_stream_query_with_resume(
        &mut tcp_connector(addr, config),
        client,
        select,
        &single,
        rng,
    )
}

/// Runs one private selected-sum query over TCP, retrying on transient
/// transport failures according to `config.retry`. A retry resumes from
/// the server's last acknowledged batch when its checkpoint survived,
/// and re-issues the **whole query** (fresh encryption — idempotent,
/// see the module docs) otherwise.
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

/// One *instrumented* query attempt: like [`attempt`], but over a
/// [`TimedWire`] (so time blocked on the socket is measured), with wire
/// byte counters attached, and — on success — the client-side phases
/// recorded into `obs` histograms and emitted as spans through `tracer`:
/// one `encrypt_batch` span per batch (tagged [`Phase::ClientEncrypt`]
/// with its batch id), one `wire_blocked` span ([`Phase::Comm`]), one
/// `decrypt` span ([`Phase::ClientDecrypt`]).
fn attempt_observed(
    addr: &str,
    client: &SumClient,
    select: &[usize],
    config: &TcpQueryConfig,
    rng: &mut dyn RngCore,
    obs: &QueryObs,
    tracer: &Tracer,
) -> Result<(u128, usize, TrafficStats), ProtocolError> {
    let mut inner = TcpWire::connect(addr)?;
    inner.set_metrics(obs.wire.clone());
    inner.set_read_timeout(config.read_timeout)?;
    inner.set_write_timeout(config.write_timeout)?;
    let mut wire = TimedWire::new(inner);

    wire.send(SizeRequest.encode()?)?;
    let n = SizeReply::decode(&wire.recv()?)?.n as usize;
    let selection = Selection::from_indices(n, select)?;

    let mut source = index_source(config, rng);
    let sent = client.send_query_traced(
        &mut wire,
        &selection,
        config.batch_size,
        &mut source,
        config.trace,
    )?;
    let (sum, decrypt) = client.receive_result(&mut wire)?;
    let comm = wire.blocked();

    // Record the paper's client-side phases from the same Durations the
    // span bridge will sum, so a /metrics scrape and a reconstructed
    // RunReport agree exactly (not just within timer noise).
    for (batch, elapsed) in sent.per_batch_encrypt.iter().enumerate() {
        obs.client_encrypt.record_duration(*elapsed);
        let end_ns = tracer.now_ns();
        let dur_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        tracer.record_span(SpanRecord {
            name: "encrypt_batch".to_string(),
            phase: Some(Phase::ClientEncrypt),
            session: None,
            batch: Some(batch as u64),
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
            trace: None,
        });
    }
    obs.comm.record_duration(comm);
    tracer.record_phase_total("wire_blocked", Phase::Comm, None, comm);
    obs.client_decrypt.record_duration(decrypt);
    tracer.record_phase_total("decrypt", Phase::ClientDecrypt, None, decrypt);

    let sum = sum
        .to_u128()
        .ok_or_else(|| ProtocolError::Config("sum exceeds 128 bits".into()))?;
    Ok((sum, n, wire.get_ref().stats()))
}

/// Runs one private selected-sum query over TCP with full telemetry:
/// retries as [`run_tcp_query_with_retry`] does, records the paper's
/// client-side phase decomposition into `obs`, and reconstructs a
/// [`RunReport`] from the spans of the successful attempt via
/// [`PhaseTotals`].
///
/// The report's `client_encrypt`, `comm`, and `client_decrypt` come
/// from this client's own spans. `server_compute` is zero unless the
/// collector behind `obs` also receives the server's spans (loopback
/// deployments sharing a collector get all four components; across a
/// real network the server's compute is invisible to the client and is
/// folded into `comm`, which measures total time blocked on the wire).
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
    let mut retry = RetryStats::default();
    loop {
        retry.attempts += 1;
        obs.retry_attempts.inc();
        match attempt_observed(addr, client, select, config, rng, obs, &tracer) {
            Ok((sum, n, traffic)) => {
                let mut report = RunReport {
                    variant: Variant::Batched,
                    n,
                    selected: select.len(),
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
                    result: sum,
                };
                PhaseTotals::from_spans(ring.spans().iter()).apply(&mut report);
                // The observed path keeps its span accounting simple by
                // re-issuing in full on retry, so it never resumes.
                let attempt_payload_bytes = vec![traffic.payload_bytes_sent];
                let outcome = TcpQueryOutcome {
                    sum,
                    n,
                    selected: select.len(),
                    traffic,
                    retry,
                    resumed_attempts: 0,
                    attempt_payload_bytes,
                };
                return Ok((outcome, report));
            }
            Err(e) => {
                let give_up = !retryable(&e) || retry.attempts >= config.retry.max_attempts.max(1);
                if retryable(&e) {
                    obs.retry_failures.inc();
                }
                if give_up {
                    return Err(e);
                }
                let delay = config.retry.delay_for(retry.attempts - 1, rng);
                retry.delays.push(delay);
                config.clock.sleep(delay);
            }
        }
    }
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
        let out = run_tcp_query(
            &addr.to_string(),
            &client,
            &[1, 3],
            &TcpQueryConfig::default(),
            &mut rng,
        )
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
        let err = run_tcp_query("127.0.0.1:1", &client, &[0], &config, &mut rng).unwrap_err();
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
