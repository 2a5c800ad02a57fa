//! Canonical metric names shared by every instrumented layer.
//!
//! All names follow the Prometheus convention: a `pps_` namespace,
//! `_total` suffix on counters, `_seconds` suffix on duration
//! histograms, and labels reserved for low-cardinality dimensions (the
//! only label in use is `phase`). Centralizing them here keeps the
//! transport, protocol, CLI, and bench layers agreeing on what each
//! series means — and gives PROTOCOL.md §9 a single source of truth to
//! document.

/// Per-phase runtime histogram; labelled `phase` with one of
/// [`Phase::label`](crate::Phase::label)'s values. This is the
/// continuously-scraped analogue of `RunReport`'s four components.
pub const PHASE_DURATION_SECONDS: &str = "pps_phase_duration_seconds";

/// Frames written to the wire.
pub const WIRE_FRAMES_SENT_TOTAL: &str = "pps_wire_frames_sent_total";
/// Payload bytes written to the wire (frame bodies, excluding headers).
pub const WIRE_BYTES_SENT_TOTAL: &str = "pps_wire_bytes_sent_total";
/// Frames read from the wire.
pub const WIRE_FRAMES_RECEIVED_TOTAL: &str = "pps_wire_frames_received_total";
/// Payload bytes read from the wire.
pub const WIRE_BYTES_RECEIVED_TOTAL: &str = "pps_wire_bytes_received_total";
/// Read/write operations that hit a timeout or an expired deadline.
pub const WIRE_TIMEOUTS_TOTAL: &str = "pps_wire_timeouts_total";

/// Sessions admitted by the server (accept succeeded, admission passed).
pub const SESSIONS_ACCEPTED_TOTAL: &str = "pps_sessions_accepted_total";
/// Sessions that ran the protocol to completion.
pub const SESSIONS_COMPLETED_TOTAL: &str = "pps_sessions_completed_total";
/// Sessions that ended in a protocol error other than eviction.
pub const SESSIONS_FAILED_TOTAL: &str = "pps_sessions_failed_total";
/// Connections refused by admission control before the protocol began.
pub const SESSIONS_REFUSED_TOTAL: &str = "pps_sessions_refused_total";
/// Sessions evicted for exceeding their deadline (slow-loris defence).
pub const SESSIONS_EVICTED_TOTAL: &str = "pps_sessions_evicted_total";
/// Errors from `accept()` itself (no session existed yet).
pub const ACCEPT_ERRORS_TOTAL: &str = "pps_accept_errors_total";
/// Sessions that continued from a stored checkpoint after the client
/// reconnected with `Resume`.
pub const SESSIONS_RESUMED_TOTAL: &str = "pps_sessions_resumed_total";
/// Sessions whose thread panicked; the panic was contained by the
/// runtime's `catch_unwind` boundary.
pub const SESSIONS_PANICKED_TOTAL: &str = "pps_sessions_panicked_total";
/// Fold checkpoints dropped from the resumption table by capacity
/// pressure or TTL expiry (clean completions are not counted).
pub const CHECKPOINTS_EVICTED_TOTAL: &str = "pps_checkpoints_evicted_total";
/// Sessions currently being served.
pub const SESSIONS_ACTIVE: &str = "pps_sessions_active";
/// Connections currently parked in the bounded admission queue.
pub const SESSIONS_QUEUED: &str = "pps_sessions_queued";
/// Time connections spent in the admission queue before being admitted,
/// evicted, or dropped by shutdown.
pub const QUEUE_WAIT_SECONDS: &str = "pps_queue_wait_seconds";
/// End-to-end duration of completed sessions.
pub const SESSION_SECONDS: &str = "pps_session_seconds";

/// Client-side query attempts, including the first (so a clean run of
/// `n` queries records exactly `n`).
pub const RETRY_ATTEMPTS_TOTAL: &str = "pps_retry_attempts_total";
/// Attempts that failed with a retryable transport error.
pub const RETRY_FAILURES_TOTAL: &str = "pps_retry_failures_total";

/// Shard legs launched by the fan-out engine (one per shard per query,
/// so a clean `k`-shard query records exactly `k`).
pub const SHARD_LEGS_TOTAL: &str = "pps_shard_legs_total";
/// Shard-leg attempts that continued from a surviving server checkpoint
/// instead of re-issuing the leg's whole query.
pub const SHARD_RESUMES_TOTAL: &str = "pps_shard_resumes_total";

/// Server-side fold (homomorphic accumulation) time per batch.
pub const FOLD_SECONDS: &str = "pps_fold_seconds";

/// Info-style gauge, always `1`, whose labels identify the build: the
/// crate `version` and the protocol frame `magic` this binary speaks.
/// Scrapes join on it to correlate metric changes with deploys.
pub const BUILD_INFO: &str = "pps_build_info";

/// Whole traces evicted from the server's
/// [`TraceBuffer`](crate::TraceBuffer) (oldest-first) to admit newer
/// traces.
pub const TRACE_TRACES_EVICTED_TOTAL: &str = "pps_trace_traces_evicted_total";
/// Records dropped because their trace hit the per-trace record cap.
pub const TRACE_RECORDS_DROPPED_TOTAL: &str = "pps_trace_records_dropped_total";
/// Sessions whose end-to-end duration crossed the configured
/// slow-query threshold (see `with_slow_query_threshold`).
pub const SLOW_QUERIES_TOTAL: &str = "pps_slow_queries_total";
