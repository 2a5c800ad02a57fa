//! Concurrent multi-session server runtime over real TCP.
//!
//! [`ServerSession`] is a message-driven state machine with no opinion
//! about scheduling; this module supplies the deployment shape the paper
//! assumes for its multi-client experiments (§3.5): one listening socket,
//! one thread per accepted connection, all sessions sharing a single
//! immutable [`Database`] behind an [`Arc`]. Each connection drives its
//! own session to completion over the blocking
//! [`TcpWire`](pps_transport::TcpWire), so a slow client never stalls the
//! others, and per-session statistics are aggregated into an
//! [`AggregateStats`] reported when the accept loop ends.
//!
//! # Fault tolerance
//!
//! The paper's own long-distance runs (§3.1, a 56 Kbps Chicago↔Hoboken
//! modem link) are exactly the regime where real deployments stall and
//! half-close, so the runtime defends itself:
//!
//! * **Wire deadlines** — every session runs under [`SessionLimits`]:
//!   per-read and per-write socket timeouts plus a whole-session
//!   [`SessionDeadline`]. A slow-loris client that trickles bytes to
//!   defeat the per-read timeout still hits the session deadline; either
//!   way the session thread exits with
//!   [`TransportError::TimedOut`] instead of being pinned forever.
//! * **Admission control** — [`TcpServer::with_admission`] caps
//!   concurrent sessions; excess connections are either queued until a
//!   slot frees or refused with a clean close (counted in
//!   [`AggregateStats::refused`]).
//! * **Graceful shutdown** — a [`ShutdownHandle`] stops a
//!   `serve(None)` loop from another thread: it raises a flag and
//!   unblocks the accept call with a throwaway self-connection, then
//!   the runtime drains in-flight sessions before returning.
//! * **Accept backoff** — a persistently erroring listener backs off
//!   exponentially (50 ms doubling to ~1 s) and gives up after
//!   [`MAX_CONSECUTIVE_ACCEPT_ERRORS`] failures in a row.
//! * **Session resumption** — every `Hello` is answered with a
//!   `HelloAck { session_id }`. When a connection ends before the
//!   product (its read or write fails, or its deadline expires), the
//!   connection thread parks the session: its fold state is
//!   checkpointed into a bounded, TTL-evicted
//!   [`SessionTable`](crate::resume::SessionTable). A client that lost
//!   its connection sends `Resume { session_id, .. }` on a fresh
//!   connection and continues from the last folded batch instead of
//!   re-streaming the whole index vector (PROTOCOL.md §10). A session
//!   whose thread panics is not parked.
//! * **Panic isolation** — each session thread runs inside
//!   `catch_unwind`, and every stats/gate lock recovers from poison. A
//!   bug (or deliberately hostile input) that panics one session is
//!   counted as [`SessionEvent::Panicked`] while concurrent sessions,
//!   admission, and the final aggregate all stay intact.
//!
//! The figures harness deliberately does **not** use this runtime — the
//! simulated link is the measurement vehicle there — but the CLI's
//! `serve` subcommand and the concurrent end-to-end tests run on it.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pps_transport::{TcpWire, TransportError, Wire, WireMetrics};

use crate::data::Database;
use crate::error::ProtocolError;
use crate::flow::SessionFlow;
use crate::obs::ServerObs;
use crate::resume::{ResumptionConfig, SessionTable};
use crate::server::{FoldStrategy, ServerStats};

/// Locks a mutex, recovering from poison. Every value guarded in this
/// module (aggregate counters, the admission gate count) is valid at
/// every point a panic can unwind through, so inheriting the data is
/// always safe — and refusing would let one panicked session wedge
/// admission and final stats for the whole server (the exact failure
/// the crash-containment layer exists to prevent).
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Statistics aggregated across every session the runtime served.
///
/// Sessions that did not complete are split by cause — refused by
/// admission control, evicted on a deadline, or failed with any other
/// error — so a throughput report can distinguish an overloaded server
/// (refusals), a hostile or wedged client population (evictions), and
/// genuine protocol faults (failures).
#[derive(Clone, Debug, Default)]
pub struct AggregateStats {
    /// Sessions that ran to a clean protocol completion.
    pub sessions: usize,
    /// Sessions that ended in a transport or protocol error *other*
    /// than a deadline eviction (those are counted in `evicted`).
    pub failed: usize,
    /// Connections refused by admission control before a session
    /// started.
    pub refused: usize,
    /// Sessions evicted for exceeding a read timeout or the
    /// whole-session deadline ([`TransportError::TimedOut`]).
    pub evicted: usize,
    /// Sessions whose thread panicked. The panic was contained
    /// (`catch_unwind` + poison-recovering locks); every other counter
    /// in this struct is still exact.
    pub panicked: usize,
    /// Sessions that continued from a stored checkpoint after the
    /// client reconnected with `Resume`.
    pub resumed: usize,
    /// Fold checkpoints dropped by the session table under capacity
    /// pressure or TTL expiry (clean completions are not counted).
    pub checkpoints_evicted: u64,
    /// `accept()` failures (no session was ever assigned).
    pub accept_errors: usize,
    /// Connections that entered the bounded admission queue (whether
    /// they were later admitted, evicted while waiting, or dropped by
    /// shutdown).
    pub queued: usize,
    /// Highest number of simultaneously admitted sessions observed.
    pub peak_active: usize,
    /// Index ciphertexts folded across all completed sessions.
    pub folded: usize,
    /// Server compute time summed across completed sessions (exceeds
    /// wall time when sessions overlap on separate cores).
    pub compute: Duration,
    /// Wall-clock time the accept loop ran.
    pub wall: Duration,
}

impl AggregateStats {
    /// Folding throughput in index ciphertexts per second of server
    /// compute time. Zero when nothing was folded.
    pub fn throughput(&self) -> f64 {
        if self.compute.is_zero() {
            0.0
        } else {
            self.folded as f64 / self.compute.as_secs_f64()
        }
    }

    /// Connections that did not complete a session, by any cause:
    /// `failed + refused + evicted + panicked`.
    pub fn unserved(&self) -> usize {
        self.failed + self.refused + self.evicted + self.panicked
    }
}

/// Whether a session error is a deadline eviction (the runtime timed
/// the peer out) rather than a fault of the peer's own making.
fn is_eviction(error: &ProtocolError) -> bool {
    matches!(error, ProtocolError::Transport(TransportError::TimedOut))
}

/// The per-phase breakdown attached to a `slow_query` event: wall time,
/// fold compute, the remainder (wire wait + framing), and work volume.
fn slow_query_detail(wall: Duration, stats: &ServerStats) -> String {
    let wait = wall.saturating_sub(stats.compute);
    format!(
        "wall_ms={:.3} compute_ms={:.3} wire_wait_ms={:.3} folded={}",
        wall.as_secs_f64() * 1e3,
        stats.compute.as_secs_f64() * 1e3,
        wait.as_secs_f64() * 1e3,
        stats.folded,
    )
}

/// Per-session I/O limits enforced by the connection driver.
///
/// `None` disables the corresponding deadline (the pre-hardening
/// behavior); the defaults are deliberately generous so healthy clients
/// on slow links never trip them, while a wedged peer cannot pin a
/// server thread forever.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionLimits {
    /// Longest a single `recv` may wait for bytes before the session
    /// fails with [`TransportError::TimedOut`].
    pub read_timeout: Option<Duration>,
    /// Longest a single `send` may block on a full socket buffer.
    pub write_timeout: Option<Duration>,
    /// Wall-clock budget for the whole session, evicting slow-loris
    /// clients that trickle bytes to defeat the per-read timeout.
    pub session_deadline: Option<Duration>,
}

impl Default for SessionLimits {
    /// 30 s per read, 30 s per write, 5 min per session.
    fn default() -> Self {
        SessionLimits {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            session_deadline: Some(Duration::from_secs(300)),
        }
    }
}

impl SessionLimits {
    /// No deadlines at all (tests that deliberately stall need this).
    pub fn unlimited() -> Self {
        SessionLimits {
            read_timeout: None,
            write_timeout: None,
            session_deadline: None,
        }
    }
}

/// Tracks one session's wall-clock budget and derives the read timeout
/// to arm before each `recv`: the per-read limit, shortened to whatever
/// remains of the session deadline.
#[derive(Debug)]
pub struct SessionDeadline {
    expires: Option<Instant>,
    read_timeout: Option<Duration>,
    clock: pps_obs::SharedClock,
}

impl SessionDeadline {
    /// Starts the clock on a session governed by `limits`.
    pub fn new(limits: &SessionLimits) -> Self {
        Self::with_clock(limits, pps_obs::real_clock())
    }

    /// [`SessionDeadline::new`] against an injected time source, so a
    /// simulated session's budget expires in virtual time.
    pub fn with_clock(limits: &SessionLimits, clock: pps_obs::SharedClock) -> Self {
        SessionDeadline {
            expires: limits.session_deadline.map(|d| clock.now() + d),
            read_timeout: limits.read_timeout,
            clock,
        }
    }

    /// The absolute instant the session expires, if it has one — armed
    /// on the wire as a mid-frame receive deadline so a byte-trickling
    /// peer cannot reset the clock.
    pub fn expires_at(&self) -> Option<Instant> {
        self.expires
    }

    /// The timeout to arm before the next read.
    ///
    /// # Errors
    /// [`TransportError::TimedOut`] once the session deadline has
    /// passed — the caller must abandon the session, not read again.
    pub fn next_read_timeout(&self) -> Result<Option<Duration>, TransportError> {
        match self.expires {
            None => Ok(self.read_timeout),
            Some(deadline) => {
                let remaining = deadline.saturating_duration_since(self.clock.now());
                if remaining.is_zero() {
                    return Err(TransportError::TimedOut);
                }
                Ok(Some(
                    self.read_timeout.map_or(remaining, |t| t.min(remaining)),
                ))
            }
        }
    }
}

/// What to do with a new connection when every concurrency slot is
/// taken (see [`TcpServer::with_admission`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Close the connection immediately; the client observes a clean
    /// disconnect and may retry with backoff.
    Refuse,
    /// Hold the connection unserviced until a running session finishes.
    Queue,
}

/// Lifecycle notifications delivered to [`TcpServer::serve_with`]
/// observers. Events for different sessions arrive from different
/// threads, hence the `Sync` bound on the callback.
#[derive(Debug)]
pub enum SessionEvent<'a> {
    /// A connection was accepted and assigned a 1-based session id.
    Accepted {
        /// Session id (accept order).
        session: usize,
        /// Peer address, when the socket can report one.
        peer: Option<SocketAddr>,
    },
    /// The session ran to completion.
    Finished {
        /// Session id (accept order).
        session: usize,
        /// Final per-session statistics.
        stats: &'a ServerStats,
    },
    /// The session died with a non-eviction error (the server keeps
    /// accepting).
    Failed {
        /// Session id (accept order).
        session: usize,
        /// What went wrong.
        error: &'a ProtocolError,
    },
    /// The session was evicted for exceeding a read timeout or the
    /// whole-session deadline.
    Evicted {
        /// Session id (accept order).
        session: usize,
        /// The timeout error that evicted it.
        error: &'a ProtocolError,
    },
    /// The session's thread panicked; the panic was contained and the
    /// server keeps accepting.
    Panicked {
        /// Session id (accept order).
        session: usize,
    },
    /// The session continued from a stored checkpoint (the client
    /// reconnected with `Resume`). Fires before the session's terminal
    /// event; the same session id later finishes, fails, or is evicted.
    Resumed {
        /// Session id (accept order) of the *new* connection.
        session: usize,
    },
    /// Admission control turned the connection away before a session
    /// started (no session id is assigned).
    Refused {
        /// Peer address, when the socket can report one.
        peer: Option<SocketAddr>,
    },
    /// `accept()` itself failed. The server backs off (exponentially,
    /// 50 ms doubling to ~1 s) and keeps listening, but gives up after
    /// [`MAX_CONSECUTIVE_ACCEPT_ERRORS`] failures in a row (a listener
    /// stuck in a persistent error state would otherwise busy-loop).
    AcceptError {
        /// The accept error.
        error: &'a ProtocolError,
    },
}

/// Consecutive `accept()` failures after which the accept loop stops
/// instead of retrying; a healthy listener resets the count on every
/// successful accept.
pub const MAX_CONSECUTIVE_ACCEPT_ERRORS: usize = 8;

/// First backoff after a failed `accept()`; doubles per consecutive
/// failure up to [`ACCEPT_ERROR_BACKOFF_MAX`].
const ACCEPT_ERROR_BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Backoff ceiling for persistent accept errors.
const ACCEPT_ERROR_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Exponential accept-error backoff: 50 ms after the first failure,
/// doubling per consecutive failure, capped at ~1 s.
fn accept_backoff(consecutive_errors: usize) -> Duration {
    let doublings = consecutive_errors.saturating_sub(1).min(5) as u32;
    ACCEPT_ERROR_BACKOFF_BASE
        .saturating_mul(1u32 << doublings)
        .min(ACCEPT_ERROR_BACKOFF_MAX)
}

/// Stops a running [`TcpServer`] accept loop from another thread.
///
/// Cloneable and cheap; raising shutdown is idempotent. The handle
/// unblocks a pending blocking `accept()` with a throwaway loopback
/// connection, so `serve(None)` returns promptly instead of waiting for
/// the next real client.
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    wake: Arc<(Mutex<()>, Condvar)>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Raises the shutdown flag and pokes the listener awake. The
    /// server finishes draining in-flight sessions before its
    /// `serve`/`serve_with` call returns. Also interrupts an
    /// accept-error backoff wait, so shutdown is never delayed by the
    /// up-to-1 s exponential backoff.
    pub fn shutdown(&self) {
        if self.flag.swap(true, Ordering::SeqCst) {
            return; // already raised; one wake-up is enough
        }
        // Take the wake lock between raising the flag and notifying:
        // a backoff waiter checks the flag *under this lock*, so it
        // either sees the flag or is parked when the notify fires —
        // never the lost-wakeup window in between.
        drop(lock_recover(&self.wake.0));
        self.wake.1.notify_all();
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }
}

/// Default bound on the [`Admission::Queue`] admission queue. Beyond
/// this many waiting connections the server refuses instead — an
/// unbounded queue just converts overload into unbounded latency.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Connections the admission gate tracks: sessions holding a slot and
/// connections parked in the bounded queue waiting for one.
#[derive(Default)]
struct GateState {
    active: usize,
    queued: usize,
}

/// A concurrent selected-sum server over a shared database, with
/// per-session deadlines, admission control, and graceful shutdown.
/// Each accepted connection runs its session on its own thread.
pub struct TcpServer {
    listener: TcpListener,
    db: Arc<Database>,
    fold: FoldStrategy,
    limits: SessionLimits,
    max_concurrent: Option<usize>,
    admission: Admission,
    shutdown: Arc<AtomicBool>,
    shutdown_wake: Arc<(Mutex<()>, Condvar)>,
    obs: Option<ServerObs>,
    resumption: SessionTable,
    fault_hook: Option<Arc<dyn Fn(usize) + Send + Sync>>,
    require_shard: bool,
    queue_capacity: usize,
    slow_query_threshold: Option<Duration>,
    clock: pps_obs::SharedClock,
}

impl TcpServer {
    /// Binds a listening socket for `db` with default [`SessionLimits`]
    /// and no concurrency cap. Use `"127.0.0.1:0"` to let the OS pick an
    /// ephemeral port (see [`TcpServer::local_addr`]).
    ///
    /// # Errors
    /// [`ProtocolError::Transport`] when the bind fails.
    pub fn bind(db: Arc<Database>, addr: &str, fold: FoldStrategy) -> Result<Self, ProtocolError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| ProtocolError::Transport(TransportError::Io(e.to_string())))?;
        Ok(TcpServer {
            listener,
            db,
            fold,
            limits: SessionLimits::default(),
            max_concurrent: None,
            admission: Admission::Refuse,
            shutdown: Arc::new(AtomicBool::new(false)),
            shutdown_wake: Arc::new((Mutex::new(()), Condvar::new())),
            obs: None,
            resumption: SessionTable::default(),
            fault_hook: None,
            require_shard: false,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            slow_query_threshold: None,
            clock: pps_obs::real_clock(),
        })
    }

    /// Replaces the server's time source: session deadlines and the
    /// admission queue's deadline checks read this clock.
    /// The default is the real clock; a test or simulator can inject a
    /// [`VirtualClock`](pps_obs::VirtualClock) shared with every other
    /// component it drives. The resumption table keeps its own clock.
    #[must_use]
    pub fn with_clock(mut self, clock: pps_obs::SharedClock) -> Self {
        self.clock = clock;
        self
    }

    /// Bounds the [`Admission::Queue`] admission queue (default
    /// [`DEFAULT_QUEUE_CAPACITY`]). Connections arriving when the cap
    /// *and* the queue are both full are refused with a clean close.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Marks this server as a shard worker: until a `ShardHello`
    /// handshake (or a granted `Resume`, whose checkpoint carries its
    /// own blinding) installs a blinding, only the handshake, resume,
    /// and size-discovery frames are accepted — and `PlainIndices` is
    /// refused outright, blinded or not — so the worker never answers a
    /// query with an *unblinded* partial sum. (Any server — shard
    /// worker or not — accepts the handshake when offered; this flag
    /// makes it mandatory.)
    #[must_use]
    pub fn require_shard_handshake(mut self) -> Self {
        self.require_shard = true;
        self
    }

    /// Flags sessions whose wall time (accept to completion, queue wait
    /// included) reaches `threshold`: each one increments
    /// `pps_slow_queries_total` and emits a `slow_query` event — carrying
    /// the session's phase breakdown, stamped with the peer's trace
    /// context when it announced one — through the observability
    /// tracer. A no-op without [`TcpServer::with_observability`].
    #[must_use]
    pub fn with_slow_query_threshold(mut self, threshold: Duration) -> Self {
        self.slow_query_threshold = Some(threshold);
        self
    }

    /// Attaches a [`ServerObs`] bundle: session lifecycle counters, the
    /// active-session gauge, session/fold/`server_compute` histograms,
    /// wire byte counters, and per-session spans through its tracer.
    /// The registry behind the bundle can be scraped live (see
    /// `MetricsServer` in `pps-obs`) while the accept loop runs.
    #[must_use]
    pub fn with_observability(mut self, obs: ServerObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Replaces the per-session I/O limits.
    #[must_use]
    pub fn with_limits(mut self, limits: SessionLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Caps concurrent sessions at `max` and sets the policy for
    /// over-limit connections.
    #[must_use]
    pub fn with_admission(mut self, max: usize, policy: Admission) -> Self {
        self.max_concurrent = Some(max.max(1));
        self.admission = policy;
        self
    }

    /// Replaces the session-resumption bounds (checkpoint capacity and
    /// TTL). Resumption is always on; this only tunes how long and how
    /// many checkpoints survive.
    #[must_use]
    pub fn with_resumption(mut self, config: ResumptionConfig) -> Self {
        self.resumption = SessionTable::new(config);
        self
    }

    /// Installs a chaos hook called with the session id at the start of
    /// every session thread, *inside* the panic-isolation boundary. A
    /// hook that panics simulates a server-side bug for a chosen
    /// session; the crash-containment tests use this to prove a panic
    /// is contained to one session.
    #[must_use]
    pub fn with_session_fault_hook(mut self, hook: impl Fn(usize) + Send + Sync + 'static) -> Self {
        self.fault_hook = Some(Arc::new(hook));
        self
    }

    /// The bound address (the actual port, when bound to port 0).
    ///
    /// # Errors
    /// [`ProtocolError::Transport`] when the OS cannot report it.
    pub fn local_addr(&self) -> Result<SocketAddr, ProtocolError> {
        self.listener
            .local_addr()
            .map_err(|e| ProtocolError::Transport(TransportError::Io(e.to_string())))
    }

    /// A handle that stops this server's accept loop from any thread.
    ///
    /// # Errors
    /// [`ProtocolError::Transport`] when the bound address cannot be
    /// determined (needed for the accept wake-up).
    pub fn shutdown_handle(&self) -> Result<ShutdownHandle, ProtocolError> {
        let mut addr = self.local_addr()?;
        // The wake-up self-connection must target a routable address
        // even when bound to the wildcard.
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        Ok(ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
            wake: Arc::clone(&self.shutdown_wake),
            addr,
        })
    }

    /// Sleeps for `backoff` or until shutdown is raised, whichever
    /// comes first — the accept-error backoff must never delay a
    /// [`ShutdownHandle::shutdown`] (satellite fix: the old
    /// `thread::sleep` here ignored the flag for up to ~1 s).
    fn backoff_wait(&self, backoff: Duration) {
        let deadline = Instant::now() + backoff;
        let (lock, cv) = &*self.shutdown_wake;
        let mut guard = lock_recover(lock);
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let (g, _) = cv
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            guard = g;
        }
    }

    /// Serves sessions without observing their lifecycle. See
    /// [`TcpServer::serve_with`].
    pub fn serve(&self, max_sessions: Option<usize>) -> AggregateStats {
        self.serve_with(max_sessions, &|_| {})
    }

    /// Accepts connections until `max_sessions` have been accepted
    /// (`None` = forever, or until [`ShutdownHandle::shutdown`]),
    /// driving each against the shared database on its own thread,
    /// then waits for every in-flight session to finish and returns
    /// the aggregate. `on_event` fires as connections arrive and
    /// complete (from the accept loop and the session threads).
    ///
    /// A failed session (malformed frames, disconnect, expired
    /// deadline) is counted and reported, never fatal to the server.
    /// Connections over the concurrency cap are queued (in a bounded,
    /// deadline-aware queue) or refused per the [`Admission`] policy.
    /// A failed `accept()` is reported as [`SessionEvent::AcceptError`]
    /// and retried after an exponential, shutdown-interruptible
    /// backoff; [`MAX_CONSECUTIVE_ACCEPT_ERRORS`] failures in a row end
    /// the loop (returning whatever was aggregated) rather than
    /// spinning on a persistently broken listener.
    pub fn serve_with(
        &self,
        max_sessions: Option<usize>,
        on_event: &(dyn Fn(SessionEvent<'_>) + Sync),
    ) -> AggregateStats {
        let start = Instant::now();
        let checkpoints_evicted_before = self.resumption.evicted();
        let agg = Mutex::new(AggregateStats::default());
        // Admission gate: slot/queue counts + wakeup for queued waiters.
        let gate = (Mutex::new(GateState::default()), Condvar::new());
        // Concurrency high-water mark (gated or not).
        let active_now = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let mut accepted = 0usize;
            let mut accept_errors = 0usize;
            for stream in self.listener.incoming() {
                let stream = match stream {
                    Ok(s) => {
                        accept_errors = 0;
                        s
                    }
                    Err(e) => {
                        accept_errors += 1;
                        lock_recover(&agg).accept_errors += 1;
                        if let Some(obs) = &self.obs {
                            obs.accept_errors.inc();
                        }
                        let error = ProtocolError::Transport(TransportError::Io(e.to_string()));
                        on_event(SessionEvent::AcceptError { error: &error });
                        if accept_errors >= MAX_CONSECUTIVE_ACCEPT_ERRORS {
                            break;
                        }
                        self.backoff_wait(accept_backoff(accept_errors));
                        if self.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        continue;
                    }
                };
                // A shutdown request may arrive as the wake-up
                // connection itself; either way, stop before admitting.
                if self.shutdown.load(Ordering::SeqCst) {
                    drop(stream);
                    break;
                }
                // Admission decides *without ever blocking this thread*:
                // the old Queue path parked the lone accept thread on
                // the gate condvar, head-of-line-blocking every later
                // connection. Now a queued connection waits on its own
                // session thread and the queue itself is bounded.
                let mut wait_in_queue = false;
                if let Some(max) = self.max_concurrent {
                    let mut g = lock_recover(&gate.0);
                    if g.active >= max {
                        if self.admission == Admission::Refuse || g.queued >= self.queue_capacity {
                            drop(g);
                            let peer = stream.peer_addr().ok();
                            drop(stream); // clean close (FIN)
                            lock_recover(&agg).refused += 1;
                            if let Some(obs) = &self.obs {
                                obs.refused.inc();
                            }
                            on_event(SessionEvent::Refused { peer });
                            continue;
                        }
                        g.queued += 1;
                        wait_in_queue = true;
                    } else {
                        g.active += 1;
                    }
                }
                accepted += 1;
                let id = accepted;
                if wait_in_queue {
                    lock_recover(&agg).queued += 1;
                }
                let agg = &agg;
                let gate = &gate;
                let active_now = &active_now;
                let peak = &peak;
                let db = &*self.db;
                let fold = self.fold;
                let limits = &self.limits;
                let table = &self.resumption;
                let require_shard = self.require_shard;
                let max_concurrent = self.max_concurrent;
                let slow_query_threshold = self.slow_query_threshold;
                let obs = self.obs.as_ref();
                let fault_hook = self.fault_hook.clone();
                let shutdown = &self.shutdown;
                // The session clock starts at accept: a connection
                // waiting in the admission queue spends its own
                // deadline, so a queued slow-loris cannot outlive the
                // budget an admitted one gets.
                let deadline = SessionDeadline::with_clock(&self.limits, self.clock.clone());
                if let Some(obs) = obs {
                    obs.accepted.inc();
                    if wait_in_queue {
                        obs.queued.add(1);
                    }
                }
                scope.spawn(move || {
                    // Direct admissions already hold a gate slot taken
                    // on the accept thread; own it via RAII immediately
                    // so *every* exit path — including a panicking
                    // event observer — releases the slot and the active
                    // gauge exactly once.
                    let mut slot = if wait_in_queue {
                        None
                    } else {
                        Some(ActiveGuard::new(
                            obs,
                            max_concurrent.is_some().then_some(gate),
                            active_now,
                            peak,
                        ))
                    };
                    on_event(SessionEvent::Accepted {
                        session: id,
                        peer: stream.peer_addr().ok(),
                    });
                    let session_start = Instant::now();
                    if wait_in_queue {
                        let max = max_concurrent.expect("queued implies a concurrency cap");
                        let wait_start = Instant::now();
                        let outcome = wait_for_slot(gate, max, &deadline, shutdown);
                        if let Some(obs) = obs {
                            obs.queued.sub(1);
                            obs.queue_wait_seconds.record_duration(wait_start.elapsed());
                        }
                        match outcome {
                            QueueOutcome::Admitted => {
                                slot = Some(ActiveGuard::new(obs, Some(gate), active_now, peak));
                            }
                            QueueOutcome::Shutdown => {
                                // Admission was never granted; the
                                // connection is turned away cleanly.
                                lock_recover(agg).refused += 1;
                                if let Some(obs) = obs {
                                    obs.refused.inc();
                                }
                                on_event(SessionEvent::Refused {
                                    peer: stream.peer_addr().ok(),
                                });
                                return;
                            }
                            QueueOutcome::Expired => {
                                let error = ProtocolError::Transport(TransportError::TimedOut);
                                lock_recover(agg).evicted += 1;
                                if let Some(obs) = obs {
                                    obs.evicted.inc();
                                }
                                on_event(SessionEvent::Evicted {
                                    session: id,
                                    error: &error,
                                });
                                return;
                            }
                        }
                    }
                    let _slot = slot;
                    // Everything the session does — including the chaos
                    // hook and the span guard — runs inside the panic
                    // boundary, so an unwinding session can only reach
                    // the (poison-recovering) accounting below.
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        // Records on drop, so evicted/failed sessions
                        // get a span too.
                        let mut span =
                            obs.map(|o| o.tracer().span("session").session(id as u64).start());
                        if let Some(hook) = &fault_hook {
                            hook(id);
                        }
                        let wire_metrics = obs.map(|o| o.wire.clone());
                        let mut flow = SessionFlow::new(db, fold, table, require_shard);
                        let result =
                            drive_connection(&mut flow, stream, limits, deadline, wire_metrics);
                        if result.is_err() {
                            // The connection ended before the product:
                            // keep the fold for a `Resume`.
                            flow.park();
                        }
                        // Stamp the peer's announced trace context onto
                        // the session span so the client-side assembler
                        // can claim it by trace id.
                        let trace = flow.trace();
                        if let (Some(span), Some(ctx)) = (span.as_mut(), trace) {
                            span.set_trace(ctx);
                        }
                        (flow.resumed(), flow.stats().clone(), result, trace)
                    }));
                    match outcome {
                        Ok((resumed, stats, result, trace)) => {
                            if resumed {
                                lock_recover(agg).resumed += 1;
                                if let Some(obs) = obs {
                                    obs.resumed.inc();
                                }
                                on_event(SessionEvent::Resumed { session: id });
                            }
                            match result {
                                Ok(()) => {
                                    let wall = session_start.elapsed();
                                    let mut a = lock_recover(agg);
                                    a.sessions += 1;
                                    a.folded += stats.folded;
                                    a.compute += stats.compute;
                                    drop(a);
                                    if let Some(obs) = obs {
                                        obs.completed.inc();
                                        obs.session_seconds.record_duration(wall);
                                        for batch in &stats.per_batch_compute {
                                            obs.fold_seconds.record_duration(*batch);
                                        }
                                        // Propagate the peer's trace
                                        // context onto everything recorded
                                        // for this session.
                                        let tracer = match trace {
                                            Some(ctx) => obs.tracer().with_context(ctx),
                                            None => obs.tracer().clone(),
                                        };
                                        // The phase histogram and the span
                                        // bridge see the same Duration, so a
                                        // scrape and a reconstructed
                                        // RunReport agree exactly.
                                        obs.server_compute.record_duration(stats.compute);
                                        tracer.record_phase_total(
                                            "server_compute",
                                            pps_obs::Phase::ServerCompute,
                                            Some(id as u64),
                                            stats.compute,
                                        );
                                        if slow_query_threshold.is_some_and(|t| wall >= t) {
                                            obs.slow_queries.inc();
                                            tracer.event(
                                                "slow_query",
                                                Some(id as u64),
                                                slow_query_detail(wall, &stats),
                                            );
                                        }
                                    }
                                    on_event(SessionEvent::Finished {
                                        session: id,
                                        stats: &stats,
                                    });
                                }
                                Err(e) if is_eviction(&e) => {
                                    lock_recover(agg).evicted += 1;
                                    if let Some(obs) = obs {
                                        obs.evicted.inc();
                                    }
                                    on_event(SessionEvent::Evicted {
                                        session: id,
                                        error: &e,
                                    });
                                }
                                Err(e) => {
                                    lock_recover(agg).failed += 1;
                                    if let Some(obs) = obs {
                                        obs.failed.inc();
                                    }
                                    on_event(SessionEvent::Failed {
                                        session: id,
                                        error: &e,
                                    });
                                }
                            }
                        }
                        Err(_panic) => {
                            lock_recover(agg).panicked += 1;
                            if let Some(obs) = obs {
                                obs.panicked.inc();
                            }
                            on_event(SessionEvent::Panicked { session: id });
                        }
                    }
                });
                if max_sessions.is_some_and(|m| accepted >= m) {
                    break;
                }
            }
        });
        let mut stats = agg.into_inner().unwrap_or_else(|p| p.into_inner());
        stats.wall = start.elapsed();
        stats.peak_active = peak.load(Ordering::SeqCst);
        stats.checkpoints_evicted = self.resumption.evicted() - checkpoints_evicted_before;
        if let Some(obs) = &self.obs {
            obs.checkpoints_evicted.add(stats.checkpoints_evicted);
        }
        stats
    }
}

/// Why a queued connection's wait ended.
enum QueueOutcome {
    /// A slot freed; the session now holds it.
    Admitted,
    /// Shutdown was raised while waiting; admission is never granted.
    Shutdown,
    /// The session deadline (running since accept) expired in-queue.
    Expired,
}

/// Parks a queued session thread until a concurrency slot frees, the
/// server shuts down, or the session's own deadline (started at accept)
/// expires. On every outcome the queue count is released; on
/// [`QueueOutcome::Admitted`] the slot count has been taken.
fn wait_for_slot(
    gate: &(Mutex<GateState>, Condvar),
    max: usize,
    deadline: &SessionDeadline,
    shutdown: &AtomicBool,
) -> QueueOutcome {
    let mut g = lock_recover(&gate.0);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            g.queued -= 1;
            return QueueOutcome::Shutdown;
        }
        if deadline
            .expires_at()
            .is_some_and(|expires| deadline.clock.now() >= expires)
        {
            g.queued -= 1;
            return QueueOutcome::Expired;
        }
        if g.active < max {
            g.active += 1;
            g.queued -= 1;
            return QueueOutcome::Admitted;
        }
        // Bound each wait so shutdown and deadline stay responsive even
        // if a notification is missed.
        let mut wait = Duration::from_millis(50);
        if let Some(expires) = deadline.expires_at() {
            // Under a virtual clock the remaining budget never shrinks
            // by itself, so keep the bounded 50 ms poll as the wait —
            // the deadline check above re-reads virtual time each pass.
            if !deadline.clock.is_virtual() {
                wait = wait.min(expires.saturating_duration_since(deadline.clock.now()));
            }
        }
        let (next, _) = gate
            .1
            .wait_timeout(g, wait.max(Duration::from_millis(1)))
            .unwrap_or_else(|p| p.into_inner());
        g = next;
    }
}

/// RAII ownership of everything an admitted session holds: the active
/// gauge, the shared concurrency high-water counter, and (when gated)
/// its admission slot. Construction takes the gauge/counter; the gate
/// slot must already be held. Drop releases all of it exactly once, on
/// every exit path — clean completion, failure, eviction, a panicking
/// session, or a panicking event observer.
struct ActiveGuard<'a> {
    obs: Option<&'a ServerObs>,
    gate: Option<&'a (Mutex<GateState>, Condvar)>,
    active_now: &'a AtomicUsize,
}

impl<'a> ActiveGuard<'a> {
    fn new(
        obs: Option<&'a ServerObs>,
        gate: Option<&'a (Mutex<GateState>, Condvar)>,
        active_now: &'a AtomicUsize,
        peak: &'a AtomicUsize,
    ) -> Self {
        if let Some(obs) = obs {
            obs.active.add(1);
        }
        let now = active_now.fetch_add(1, Ordering::SeqCst) + 1;
        peak.fetch_max(now, Ordering::SeqCst);
        ActiveGuard {
            obs,
            gate,
            active_now,
        }
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.active_now.fetch_sub(1, Ordering::SeqCst);
        if let Some(obs) = self.obs {
            obs.active.sub(1);
        }
        if let Some(gate) = self.gate {
            lock_recover(&gate.0).active -= 1;
            gate.1.notify_all();
        }
    }
}

/// Pumps frames between the blocking wire and the [`SessionFlow`] until
/// the product has been sent, under `limits` and the caller's
/// `deadline` (started at accept, so time spent in the admission queue
/// counts against the session budget). The protocol surface — resume
/// tickets, checkpointing, shard gating — lives entirely in the flow;
/// this function owns only the I/O and the deadlines.
fn drive_connection(
    flow: &mut SessionFlow<'_>,
    stream: TcpStream,
    limits: &SessionLimits,
    deadline: SessionDeadline,
    metrics: Option<WireMetrics>,
) -> Result<(), ProtocolError> {
    let mut wire = TcpWire::new(stream);
    if let Some(metrics) = metrics {
        wire.set_metrics(metrics);
    }
    wire.set_write_timeout(limits.write_timeout)?;
    // Two-tier eviction: the per-read socket timeout (re-armed below)
    // catches silent stalls, while the absolute mid-frame deadline
    // catches tricklers that feed a byte per interval to reset it.
    wire.set_recv_deadline(deadline.expires_at());
    while !flow.is_done() {
        wire.set_read_timeout(deadline.next_read_timeout()?)?;
        let frame = wire.recv()?;
        let step = flow.on_frame(&frame)?;
        for reply in step.replies {
            wire.send(reply)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{IndexSource, SumClient};
    use crate::data::Selection;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn query(addr: SocketAddr, selection: &Selection, seed: u64) -> u128 {
        let mut rng = StdRng::seed_from_u64(seed);
        let client = SumClient::generate(128, &mut rng).unwrap();
        let mut wire = TcpWire::connect(&addr.to_string()).unwrap();
        let mut source = IndexSource::Fresh(&mut rng);
        client
            .send_query(&mut wire, selection, 16, &mut source)
            .unwrap();
        let (sum, _) = client.receive_result(&mut wire).unwrap();
        sum.to_u128().unwrap()
    }

    #[test]
    fn serves_sequential_sessions_and_aggregates() {
        let db = Arc::new(Database::new(vec![10, 20, 30, 40, 50]).unwrap());
        let server =
            TcpServer::bind(Arc::clone(&db), "127.0.0.1:0", FoldStrategy::default()).unwrap();
        let addr = server.local_addr().unwrap();

        let clients = std::thread::spawn(move || {
            let a = query(addr, &Selection::from_indices(5, &[0, 2]).unwrap(), 1);
            let b = query(addr, &Selection::from_indices(5, &[4]).unwrap(), 2);
            (a, b)
        });
        let stats = server.serve(Some(2));
        let (a, b) = clients.join().unwrap();
        assert_eq!(a, 40);
        assert_eq!(b, 50);
        assert_eq!(stats.sessions, 2);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.refused, 0);
        assert_eq!(stats.folded, 10, "both sessions stream all 5 indices");
        assert!(stats.peak_active >= 1);
        assert!(stats.throughput() > 0.0);
    }

    #[test]
    fn failed_session_is_counted_not_fatal() {
        let db = Arc::new(Database::new(vec![1, 2, 3]).unwrap());
        let server =
            TcpServer::bind(Arc::clone(&db), "127.0.0.1:0", FoldStrategy::default()).unwrap();
        let addr = server.local_addr().unwrap();

        let events = Mutex::new(Vec::new());
        let clients = std::thread::spawn(move || {
            // A rude client: connects and hangs up without a Hello.
            drop(TcpWire::connect(&addr.to_string()).unwrap());
            query(addr, &Selection::from_indices(3, &[1, 2]).unwrap(), 3)
        });
        let stats = server.serve_with(Some(2), &|e| {
            let tag = match e {
                SessionEvent::Accepted { .. } => "accepted",
                SessionEvent::Finished { .. } => "finished",
                SessionEvent::Failed { .. } => "failed",
                SessionEvent::Evicted { .. } => "evicted",
                SessionEvent::Panicked { .. } => "panicked",
                SessionEvent::Resumed { .. } => "resumed",
                SessionEvent::Refused { .. } => "refused",
                SessionEvent::AcceptError { .. } => "accept_error",
            };
            events.lock().unwrap().push(tag);
        });
        assert_eq!(clients.join().unwrap(), 5);
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.folded, 3);
        let events = events.into_inner().unwrap();
        assert_eq!(events.iter().filter(|t| **t == "accepted").count(), 2);
        assert_eq!(events.iter().filter(|t| **t == "finished").count(), 1);
        assert_eq!(events.iter().filter(|t| **t == "failed").count(), 1);
    }

    #[test]
    fn accept_backoff_is_exponential_and_capped() {
        assert_eq!(accept_backoff(1), Duration::from_millis(50));
        assert_eq!(accept_backoff(2), Duration::from_millis(100));
        assert_eq!(accept_backoff(3), Duration::from_millis(200));
        assert_eq!(accept_backoff(4), Duration::from_millis(400));
        assert_eq!(accept_backoff(5), Duration::from_millis(800));
        assert_eq!(accept_backoff(6), Duration::from_secs(1), "capped");
        assert_eq!(accept_backoff(100), Duration::from_secs(1));
        // Eight consecutive failures now wait > 3.5 s in total, versus
        // 400 ms with the old fixed 50 ms pause.
        let total: Duration = (1..MAX_CONSECUTIVE_ACCEPT_ERRORS).map(accept_backoff).sum();
        assert!(total > Duration::from_secs(3));
    }

    #[test]
    fn session_deadline_shrinks_read_timeout_then_expires() {
        let limits = SessionLimits {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: None,
            session_deadline: Some(Duration::from_millis(80)),
        };
        let deadline = SessionDeadline::new(&limits);
        let first = deadline.next_read_timeout().unwrap().unwrap();
        assert!(first <= Duration::from_millis(80), "clamped to remaining");
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(deadline.next_read_timeout(), Err(TransportError::TimedOut));
    }

    #[test]
    fn no_deadline_passes_read_timeout_through() {
        let deadline = SessionDeadline::new(&SessionLimits::unlimited());
        assert_eq!(deadline.next_read_timeout(), Ok(None));
        let limits = SessionLimits {
            read_timeout: Some(Duration::from_secs(7)),
            write_timeout: None,
            session_deadline: None,
        };
        assert_eq!(
            SessionDeadline::new(&limits).next_read_timeout(),
            Ok(Some(Duration::from_secs(7)))
        );
    }

    #[test]
    fn shutdown_stops_an_unbounded_serve() {
        let db = Arc::new(Database::new(vec![4, 5, 6]).unwrap());
        let server =
            TcpServer::bind(Arc::clone(&db), "127.0.0.1:0", FoldStrategy::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle().unwrap();
        assert!(!handle.flag.load(Ordering::SeqCst));

        let server_thread = std::thread::spawn(move || server.serve(None));
        // A real session completes while the server runs unbounded.
        let sum = query(addr, &Selection::from_indices(3, &[0, 2]).unwrap(), 9);
        assert_eq!(sum, 10);

        handle.shutdown();
        let stats = server_thread.join().unwrap();
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.failed, 0);
        assert!(handle.flag.load(Ordering::SeqCst));
        // Idempotent: a second call is a no-op, not a hang.
        handle.shutdown();
    }

    #[test]
    fn shutdown_before_serve_returns_immediately() {
        let db = Arc::new(Database::new(vec![1]).unwrap());
        let server =
            TcpServer::bind(Arc::clone(&db), "127.0.0.1:0", FoldStrategy::default()).unwrap();
        let handle = server.shutdown_handle().unwrap();
        handle.shutdown();
        let stats = server.serve(None);
        assert_eq!(stats.sessions, 0);
    }

    #[test]
    fn observed_server_records_counters_and_compute_histogram() {
        use crate::obs::ServerObs;
        use pps_obs::{Registry, RingCollector, Tracer};

        let registry = Arc::new(Registry::new());
        let ring = Arc::new(RingCollector::new(64));
        let obs = ServerObs::with_tracer(
            Arc::clone(&registry),
            Tracer::new(ring.clone() as Arc<dyn pps_obs::Collector>),
        );
        let db = Arc::new(Database::new(vec![10, 20, 30]).unwrap());
        let server = TcpServer::bind(Arc::clone(&db), "127.0.0.1:0", FoldStrategy::default())
            .unwrap()
            .with_observability(obs.clone());
        let addr = server.local_addr().unwrap();

        let clients = std::thread::spawn(move || {
            query(addr, &Selection::from_indices(3, &[0, 2]).unwrap(), 11)
        });
        let stats = server.serve(Some(1));
        assert_eq!(clients.join().unwrap(), 40);
        assert_eq!(stats.sessions, 1);

        assert_eq!(obs.accepted.get(), 1);
        assert_eq!(obs.completed.get(), 1);
        assert_eq!(obs.active.get(), 0, "gauge returns to zero");
        assert_eq!(obs.session_seconds.count(), 1);
        assert_eq!(
            obs.server_compute.sum(),
            stats.compute,
            "phase histogram carries the exact compute duration"
        );
        assert!(obs.wire.bytes_received.get() > 0);
        assert!(obs.wire.bytes_sent.get() > 0);

        // One session span plus one synthesized server_compute span.
        let spans = ring.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().any(|s| s.name == "session"));
        let compute_span = spans.iter().find(|s| s.name == "server_compute").unwrap();
        assert_eq!(compute_span.duration(), stats.compute);

        let text = registry.render_prometheus();
        assert!(text.contains("pps_sessions_completed_total 1"));
        assert!(text.contains(r#"pps_phase_duration_seconds_count{phase="server_compute"} 1"#));
    }

    #[test]
    fn dropped_connection_parks_one_checkpoint() {
        use crate::messages::{Hello, IndexBatch};

        let db = Arc::new(Database::new(vec![10, 20, 30, 40]).unwrap());
        let server =
            TcpServer::bind(Arc::clone(&db), "127.0.0.1:0", FoldStrategy::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(31);
            let kp = pps_crypto::PaillierKeypair::generate(128, &mut rng).unwrap();
            let mut wire = TcpWire::connect(&addr.to_string()).unwrap();
            let hello = Hello {
                modulus: kp.public.n().clone(),
                total: 4,
                batch_size: 2,
                trace: None,
            };
            wire.send(hello.encode().unwrap()).unwrap();
            wire.recv().unwrap(); // HelloAck
            let ciphertexts = (0..2)
                .map(|_| kp.public.encrypt_u64(1, &mut rng).unwrap())
                .collect();
            let batch = IndexBatch {
                seq: 0,
                ciphertexts,
            };
            wire.send(batch.encode(&kp.public).unwrap()).unwrap();
            // Hang up mid-stream, two rows short of the product.
        });
        let stats = server.serve(Some(1));
        client.join().unwrap();
        assert_eq!(stats.failed, 1);
        assert_eq!(server.resumption.len(), 1, "parked on disconnect");
    }

    /// Satellite regression: the active-session gauge must return to
    /// zero after a campaign that exercises every exit path — a refused
    /// connection, an evicted idler, a panicked session (chaos hook),
    /// and a clean completion. The old runtime incremented the gauge on
    /// the accept thread before spawning, so early-exit paths could
    /// leak or underflow it.
    #[test]
    fn active_gauge_returns_to_zero_after_mixed_outcomes() {
        use crate::obs::ServerObs;
        use pps_obs::Registry;
        use std::io::Read;

        let registry = Arc::new(Registry::new());
        let obs = ServerObs::new(Arc::clone(&registry));
        let db = Arc::new(Database::new(vec![10, 20, 30]).unwrap());
        let server = TcpServer::bind(Arc::clone(&db), "127.0.0.1:0", FoldStrategy::default())
            .unwrap()
            .with_observability(obs.clone())
            .with_admission(1, Admission::Refuse)
            .with_limits(SessionLimits {
                read_timeout: Some(Duration::from_millis(200)),
                write_timeout: Some(Duration::from_secs(5)),
                session_deadline: Some(Duration::from_secs(30)),
            })
            // Session 2 hits a server-side bug (contained panic).
            .with_session_fault_hook(|id| {
                if id == 2 {
                    panic!("chaos: session {id}");
                }
            });
        let addr = server.local_addr().unwrap();

        let clients = std::thread::spawn(move || {
            let wait_eof = |mut s: TcpStream| {
                let mut buf = [0u8; 16];
                while matches!(s.read(&mut buf), Ok(n) if n > 0) {}
            };
            // Session 1 admitted and idle: holds the only slot.
            let idler = TcpStream::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            // Over the cap with Refuse: turned away with a clean close.
            wait_eof(TcpStream::connect(addr).unwrap());
            // The idler trips the 200 ms read timeout: evicted.
            wait_eof(idler);
            // Session 2: the chaos hook panics it immediately.
            wait_eof(TcpStream::connect(addr).unwrap());
            std::thread::sleep(Duration::from_millis(200));
            // Session 3 completes normally.
            query(addr, &Selection::from_indices(3, &[0, 1]).unwrap(), 44)
        });
        let stats = server.serve(Some(3));
        assert_eq!(clients.join().unwrap(), 30);
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.refused, 1);
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.panicked, 1);
        assert_eq!(obs.active.get(), 0, "every exit path released the gauge");
        assert_eq!(obs.queued.get(), 0);
        let text = registry.render_prometheus();
        assert!(text.contains("pps_sessions_active 0"));
    }

    #[test]
    fn queue_admission_serves_everyone_eventually() {
        let db = Arc::new(Database::new(vec![7, 8, 9]).unwrap());
        let server = TcpServer::bind(Arc::clone(&db), "127.0.0.1:0", FoldStrategy::default())
            .unwrap()
            .with_admission(1, Admission::Queue);
        let addr = server.local_addr().unwrap();
        let sel = Selection::from_indices(3, &[0, 1, 2]).unwrap();

        let clients = std::thread::spawn(move || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..3)
                    .map(|i| {
                        let sel = &sel;
                        scope.spawn(move || query(addr, sel, 20 + i))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>()
            })
        });
        let stats = server.serve(Some(3));
        assert_eq!(clients.join().unwrap(), vec![24, 24, 24]);
        assert_eq!(stats.sessions, 3);
        assert_eq!(stats.refused, 0);
    }
}
