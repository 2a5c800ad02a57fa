//! Protocol-layer observability: server/client metric bundles and the
//! span→[`RunReport`] bridge.
//!
//! The paper's figures decompose every run into four components —
//! client encryption, communication, server computation, client
//! decryption. In-process runs record that decomposition directly into
//! a [`RunReport`]; a *networked* deployment cannot, because the two
//! halves live in different processes. This module closes the gap:
//!
//! * [`ServerObs`] — everything the [`TcpServer`](crate::TcpServer)
//!   runtime records: session lifecycle counters (accepted, completed,
//!   failed, refused, evicted, accept errors), an active-session gauge,
//!   session/fold duration histograms, the `server_compute` phase
//!   histogram, and shared wire counters.
//! * [`QueryObs`] — the client mirror: retry counters, the
//!   `client_encrypt`/`comm`/`client_decrypt` phase histograms, wire
//!   counters, and a span collector.
//! * [`PhaseTotals`] — folds a bag of phase-tagged spans back into the
//!   paper's four components, so a networked query reconstructs a
//!   [`RunReport`] from its spans ([`PhaseTotals::apply`]).
//!
//! When client and server run in one process over loopback and share a
//! collector, the merged spans carry **all four** phases and the bridge
//! yields a complete report. Over a real network the client's report has
//! `server_compute = 0` and its `comm` necessarily *includes* the
//! server's compute (the client cannot see across the wire); the server
//! publishes the true `server_compute` through its own registry.

use std::sync::Arc;
use std::time::Duration;

use pps_obs::{names, Collector, Counter, Gauge, Histogram, Phase, Registry, SpanRecord, Tracer};
use pps_transport::WireMetrics;

use crate::report::RunReport;

/// Metric handles the server runtime updates while serving sessions.
/// Cheap to clone; clones share every underlying atomic.
#[derive(Clone)]
pub struct ServerObs {
    registry: Arc<Registry>,
    tracer: Tracer,
    pub(crate) wire: WireMetrics,
    pub(crate) accepted: Arc<Counter>,
    pub(crate) completed: Arc<Counter>,
    pub(crate) failed: Arc<Counter>,
    pub(crate) refused: Arc<Counter>,
    pub(crate) evicted: Arc<Counter>,
    pub(crate) accept_errors: Arc<Counter>,
    pub(crate) resumed: Arc<Counter>,
    pub(crate) panicked: Arc<Counter>,
    pub(crate) checkpoints_evicted: Arc<Counter>,
    pub(crate) active: Arc<Gauge>,
    pub(crate) queued: Arc<Gauge>,
    pub(crate) session_seconds: Arc<Histogram>,
    pub(crate) queue_wait_seconds: Arc<Histogram>,
    pub(crate) fold_seconds: Arc<Histogram>,
    pub(crate) server_compute: Arc<Histogram>,
    pub(crate) slow_queries: Arc<Counter>,
}

impl ServerObs {
    /// Registers the server metric families in `registry`, with spans
    /// discarded. Use [`ServerObs::with_tracer`] to also collect spans.
    pub fn new(registry: Arc<Registry>) -> Self {
        Self::with_tracer(registry, Tracer::disabled())
    }

    /// Registers the server metric families in `registry` and emits
    /// session spans/events through `tracer`.
    pub fn with_tracer(registry: Arc<Registry>, tracer: Tracer) -> Self {
        let wire = WireMetrics::from_registry(&registry);
        // Info-style gauge: always 1, labels identify the build, so a
        // scrape (and /healthz) can correlate metric changes with
        // deploys and wire-compatibility with the frame magic.
        let magic = format!("{:#06x}", pps_transport::FRAME_MAGIC);
        registry
            .gauge_with_labels(
                names::BUILD_INFO,
                "build identity: crate version and protocol frame magic",
                &[("version", env!("CARGO_PKG_VERSION")), ("magic", &magic)],
            )
            .set(1);
        ServerObs {
            wire,
            accepted: registry.counter(
                names::SESSIONS_ACCEPTED_TOTAL,
                "sessions admitted by the server",
            ),
            completed: registry.counter(
                names::SESSIONS_COMPLETED_TOTAL,
                "sessions that ran the protocol to completion",
            ),
            failed: registry.counter(
                names::SESSIONS_FAILED_TOTAL,
                "sessions that ended in a non-eviction error",
            ),
            refused: registry.counter(
                names::SESSIONS_REFUSED_TOTAL,
                "connections refused by admission control",
            ),
            evicted: registry.counter(
                names::SESSIONS_EVICTED_TOTAL,
                "sessions evicted for exceeding their deadline",
            ),
            accept_errors: registry.counter(
                names::ACCEPT_ERRORS_TOTAL,
                "accept() failures (no session existed yet)",
            ),
            resumed: registry.counter(
                names::SESSIONS_RESUMED_TOTAL,
                "sessions continued from a stored checkpoint",
            ),
            panicked: registry.counter(
                names::SESSIONS_PANICKED_TOTAL,
                "sessions whose thread panicked (contained by catch_unwind)",
            ),
            checkpoints_evicted: registry.counter(
                names::CHECKPOINTS_EVICTED_TOTAL,
                "fold checkpoints dropped by capacity pressure or TTL expiry",
            ),
            active: registry.gauge(names::SESSIONS_ACTIVE, "sessions currently being served"),
            queued: registry.gauge(
                names::SESSIONS_QUEUED,
                "connections parked in the bounded admission queue",
            ),
            session_seconds: registry.histogram(
                names::SESSION_SECONDS,
                "end-to-end duration of completed sessions",
            ),
            queue_wait_seconds: registry.histogram(
                names::QUEUE_WAIT_SECONDS,
                "time spent in the admission queue before admission or eviction",
            ),
            fold_seconds: registry.histogram(
                names::FOLD_SECONDS,
                "server-side homomorphic fold time per batch",
            ),
            server_compute: registry.phase_histogram(Phase::ServerCompute),
            slow_queries: registry.counter(
                names::SLOW_QUERIES_TOTAL,
                "sessions whose wall time crossed the slow-query threshold",
            ),
            registry,
            tracer,
        }
    }

    /// The registry every handle was registered in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The tracer session spans are emitted through.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

/// Metric handles the TCP query client updates, plus the span collector
/// a traced query records its phases into.
#[derive(Clone)]
pub struct QueryObs {
    registry: Arc<Registry>,
    collector: Arc<dyn Collector>,
    pub(crate) wire: WireMetrics,
    pub(crate) retry_attempts: Arc<Counter>,
    pub(crate) retry_failures: Arc<Counter>,
    pub(crate) client_encrypt: Arc<Histogram>,
    pub(crate) comm: Arc<Histogram>,
    pub(crate) client_decrypt: Arc<Histogram>,
}

impl QueryObs {
    /// Registers the client metric families in `registry`, with spans
    /// discarded.
    pub fn new(registry: Arc<Registry>) -> Self {
        Self::with_collector(registry, Arc::new(pps_obs::NullCollector))
    }

    /// Registers the client metric families in `registry` and forwards
    /// every span a traced query records to `collector` (in addition to
    /// the query's internal ring, which feeds the report bridge).
    pub fn with_collector(registry: Arc<Registry>, collector: Arc<dyn Collector>) -> Self {
        QueryObs {
            wire: WireMetrics::from_registry(&registry),
            retry_attempts: registry.counter(
                names::RETRY_ATTEMPTS_TOTAL,
                "query attempts, including each first try",
            ),
            retry_failures: registry.counter(
                names::RETRY_FAILURES_TOTAL,
                "query attempts that failed with a retryable transport error",
            ),
            client_encrypt: registry.phase_histogram(Phase::ClientEncrypt),
            comm: registry.phase_histogram(Phase::Comm),
            client_decrypt: registry.phase_histogram(Phase::ClientDecrypt),
            registry,
            collector,
        }
    }

    /// The registry every handle was registered in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The collector traced-query spans are forwarded to.
    pub fn collector(&self) -> &Arc<dyn Collector> {
        &self.collector
    }
}

/// Metric handles the sharded fan-out engine updates: a counter per
/// launched shard leg, a counter per resumed leg attempt, and the
/// tracer per-leg `shard_leg` spans are emitted through.
#[derive(Clone)]
pub struct ShardObs {
    registry: Arc<Registry>,
    tracer: Tracer,
    pub(crate) legs: Arc<Counter>,
    pub(crate) resumes: Arc<Counter>,
}

impl ShardObs {
    /// Registers the shard metric families in `registry`, with spans
    /// discarded. Use [`ShardObs::with_tracer`] to also collect spans.
    pub fn new(registry: Arc<Registry>) -> Self {
        Self::with_tracer(registry, Tracer::disabled())
    }

    /// Registers the shard metric families in `registry` and emits one
    /// `shard_leg` span per leg through `tracer` (tagged with the leg
    /// index as its session id).
    pub fn with_tracer(registry: Arc<Registry>, tracer: Tracer) -> Self {
        ShardObs {
            legs: registry.counter(
                names::SHARD_LEGS_TOTAL,
                "shard legs launched by the fan-out engine",
            ),
            resumes: registry.counter(
                names::SHARD_RESUMES_TOTAL,
                "shard-leg attempts resumed from a server checkpoint",
            ),
            registry,
            tracer,
        }
    }

    /// The registry every handle was registered in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The tracer per-leg spans are emitted through.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

/// The paper's four-component decomposition, summed from phase-tagged
/// spans — the bridge from a span trace back to a [`RunReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Σ spans tagged [`Phase::ClientEncrypt`].
    pub client_encrypt: Duration,
    /// Σ spans tagged [`Phase::Comm`].
    pub comm: Duration,
    /// Σ spans tagged [`Phase::ServerCompute`].
    pub server_compute: Duration,
    /// Σ spans tagged [`Phase::ClientDecrypt`].
    pub client_decrypt: Duration,
    /// Σ spans tagged [`Phase::Offline`].
    pub offline: Duration,
}

impl PhaseTotals {
    /// Sums span durations per phase; untagged spans are ignored.
    pub fn from_spans<'a>(spans: impl IntoIterator<Item = &'a SpanRecord>) -> Self {
        let mut totals = PhaseTotals::default();
        for span in spans {
            let slot = match span.phase {
                Some(Phase::ClientEncrypt) => &mut totals.client_encrypt,
                Some(Phase::Comm) => &mut totals.comm,
                Some(Phase::ServerCompute) => &mut totals.server_compute,
                Some(Phase::ClientDecrypt) => &mut totals.client_decrypt,
                Some(Phase::Offline) => &mut totals.offline,
                None => continue,
            };
            *slot += span.duration();
        }
        totals
    }

    /// Writes the four online components (and the offline one) into
    /// `report`, leaving every non-timing field untouched.
    pub fn apply(&self, report: &mut RunReport) {
        report.client_encrypt = self.client_encrypt;
        report.comm = self.comm;
        report.server_compute = self.server_compute;
        report.client_decrypt = self.client_decrypt;
        report.client_offline = self.offline;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Variant;
    use pps_obs::RingCollector;

    fn span(phase: Phase, ns: u64) -> SpanRecord {
        SpanRecord {
            name: "s".into(),
            phase: Some(phase),
            session: None,
            batch: None,
            start_ns: 0,
            end_ns: ns,
            trace: None,
        }
    }

    #[test]
    fn phase_totals_sum_by_phase_and_apply() {
        let spans = vec![
            span(Phase::ClientEncrypt, 100),
            span(Phase::ClientEncrypt, 50),
            span(Phase::Comm, 30),
            span(Phase::ServerCompute, 20),
            span(Phase::ClientDecrypt, 5),
            span(Phase::Offline, 1000),
            SpanRecord {
                phase: None,
                ..span(Phase::Comm, 7)
            },
        ];
        let totals = PhaseTotals::from_spans(&spans);
        assert_eq!(totals.client_encrypt, Duration::from_nanos(150));
        assert_eq!(totals.comm, Duration::from_nanos(30));
        assert_eq!(totals.server_compute, Duration::from_nanos(20));
        assert_eq!(totals.client_decrypt, Duration::from_nanos(5));
        assert_eq!(totals.offline, Duration::from_nanos(1000));

        let mut report = RunReport {
            variant: Variant::Batched,
            n: 4,
            selected: 2,
            key_bits: 128,
            link: "test".into(),
            client_offline: Duration::ZERO,
            client_encrypt: Duration::ZERO,
            server_compute: Duration::ZERO,
            comm: Duration::ZERO,
            client_decrypt: Duration::ZERO,
            pipelined_total: None,
            bytes_to_server: 1,
            bytes_to_client: 2,
            messages: 3,
            result: 9,
        };
        totals.apply(&mut report);
        assert_eq!(report.client_encrypt, Duration::from_nanos(150));
        assert_eq!(report.total_sequential(), Duration::from_nanos(205));
        assert_eq!(report.client_offline, Duration::from_nanos(1000));
        assert_eq!(report.result, 9, "non-timing fields untouched");
    }

    #[test]
    fn obs_bundles_register_expected_families() {
        let registry = Arc::new(Registry::new());
        let server = ServerObs::new(Arc::clone(&registry));
        let client = QueryObs::new(Arc::clone(&registry));
        server.accepted.inc();
        client.retry_attempts.inc();
        client
            .client_encrypt
            .record_duration(Duration::from_millis(1));
        let text = registry.render_prometheus();
        assert!(text.contains("pps_sessions_accepted_total 1"));
        assert!(text.contains("pps_retry_attempts_total 1"));
        assert!(text.contains(r#"pps_phase_duration_seconds_bucket{phase="client_encrypt""#));
        // Both bundles share the one wire-counter family.
        server.wire.frames_sent.inc();
        client.wire.frames_sent.inc();
        assert_eq!(server.wire.frames_sent.get(), 2);
    }

    #[test]
    fn query_obs_forwards_to_collector() {
        let registry = Arc::new(Registry::new());
        let ring = Arc::new(RingCollector::new(8));
        let obs = QueryObs::with_collector(registry, ring.clone());
        let tracer = Tracer::new(Arc::clone(obs.collector()));
        tracer.span("x").phase(Phase::Comm).start().finish();
        assert_eq!(ring.spans().len(), 1);
    }
}
