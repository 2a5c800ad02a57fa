//! The discrete-event campaign runner.
//!
//! One `BinaryHeap` of timestamped events, one [`VirtualClock`] shared
//! with every [`SessionTable`] and deadline, real [`SessionFlow`] state
//! machines on the server side, and scripted client actors on the other
//! end of a byte-accurate [`SimNet`]. Nothing on the simulated path
//! reads the wall clock or sleeps: a 2 000-client campaign that spans
//! minutes of virtual time runs in real milliseconds, and the same seed
//! replays the same event trace bit-for-bit — the trace hash and
//! metrics snapshot in the [`CampaignReport`] are the reproducibility
//! witnesses CI compares.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use pps_obs::{names, Counter, Gauge, Registry, VirtualClock};
use pps_protocol::messages::{HelloAck, MsgType, Resume, ResumeAck};
use pps_protocol::{
    Database, FoldStrategy, ResumptionConfig, SessionFlow, SessionTable, SumClient,
};
use pps_transport::{Frame, LinkProfile};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::actor::{build_script, prepend_shard_hello, Behavior};
use crate::net::{ConnId, Dir, SimNet};
use crate::oracle::{Oracle, Violation};
use crate::scenario::Scenario;
use crate::SimError;

/// Retries an honest client spends before giving up.
const MAX_RETRIES: u32 = 8;
/// First retry backoff; doubles per attempt, capped at [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(50);
/// Retry backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_secs(1);
/// Gap between a churner's scripted kill and its resume attempt.
const CHURN_PAUSE: Duration = Duration::from_millis(200);
/// Interval between slow-loris bytes.
const LORIS_TICK: Duration = Duration::from_millis(250);
/// Legs per blinded shard group.
pub const SHARD_LEGS: usize = 3;
/// Shared client keypairs (key generation dominates setup otherwise).
const KEY_POOL: usize = 4;

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// What a scheduled client wake-up does.
#[derive(Debug)]
enum Wake {
    /// Reconnect (fresh or resume).
    Retry,
    /// Churner: abruptly drop the current connection.
    Kill,
    /// Slow loris: emit the next single byte.
    Trickle,
}

/// The event alphabet.
#[derive(Debug)]
enum Ev {
    /// Client begins its first connection.
    Start { client: usize },
    /// The server decides admission for a connection.
    Accept { conn: ConnId },
    /// A byte chunk reaches an endpoint.
    Deliver { conn: ConnId, dir: Dir, data: Bytes },
    /// An endpoint observes the peer is gone.
    Hangup { conn: ConnId, at_server: bool },
    /// A client-side timer.
    Wake { client: usize, what: Wake },
    /// Session-deadline sweep for one connection.
    Deadline { conn: ConnId },
    /// A partition window opens or closes.
    Partition { window: usize, begin: bool },
}

struct Scheduled {
    t: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t, self.seq).cmp(&(other.t, other.seq))
    }
}

/// One campaign client.
struct ClientState {
    behavior: Behavior,
    key: usize,
    profile: LinkProfile,
    frames: Vec<Bytes>,
    kill_after: Option<usize>,
    kill_defers: u32,
    rng: StdRng,
    conn: Option<ConnId>,
    ticket: Option<u64>,
    inbox: BytesMut,
    attempts: u32,
    done: bool,
    loris_sent: usize,
    server: usize,
}

/// One accepted server-side connection. Like the real runtime's
/// thread per connection, every frame is serviced the moment it is
/// reassembled.
struct ServerConn<'a> {
    flow: SessionFlow<'a>,
    inbox: BytesMut,
    client: usize,
    server: usize,
    closed: bool,
}

/// The campaign's metric set, kept on a real [`Registry`] so the gauge
/// under test is the production `pps_sessions_active` metric.
struct SimMetrics {
    _registry: Registry,
    active: Arc<Gauge>,
    completions: Arc<Counter>,
    resumes: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    evictions: Arc<Counter>,
    refused: Arc<Counter>,
    retries: Arc<Counter>,
}

impl SimMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        SimMetrics {
            active: registry.gauge(names::SESSIONS_ACTIVE, "concurrently active sessions"),
            completions: registry.counter("pps_sim_completions_total", "honest completions"),
            resumes: registry.counter("pps_sim_resumes_total", "granted resumes"),
            protocol_errors: registry.counter(
                "pps_sim_protocol_errors_total",
                "rejected protocol violations",
            ),
            evictions: registry.counter("pps_sim_evictions_total", "deadline evictions"),
            refused: registry.counter("pps_sim_refused_total", "admission refusals"),
            retries: registry.counter("pps_sim_retries_total", "client reconnect attempts"),
            _registry: registry,
        }
    }

    /// Deterministic `name value` lines, sorted by name — the
    /// reproducibility witness alongside the trace hash.
    fn snapshot(&self, chunks: u64, resets: u64) -> String {
        let mut lines = vec![
            format!("{} {}", names::SESSIONS_ACTIVE, self.active.get()),
            format!("pps_sim_chunks_total {chunks}"),
            format!("pps_sim_completions_total {}", self.completions.get()),
            format!("pps_sim_evictions_total {}", self.evictions.get()),
            format!(
                "pps_sim_protocol_errors_total {}",
                self.protocol_errors.get()
            ),
            format!("pps_sim_refused_total {}", self.refused.get()),
            format!("pps_sim_resets_total {resets}"),
            format!("pps_sim_resumes_total {}", self.resumes.get()),
            format!("pps_sim_retries_total {}", self.retries.get()),
        ];
        lines.sort();
        lines.join("\n")
    }
}

/// The outcome of one campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Scenario name.
    pub scenario: String,
    /// Campaign seed.
    pub seed: u64,
    /// Total clients simulated (including shard legs).
    pub population: usize,
    /// Events processed.
    pub events: u64,
    /// Virtual time the campaign spanned.
    pub virtual_elapsed: Duration,
    /// Honest-class completions.
    pub completions: u64,
    /// FNV-1a hash over the full event trace — identical across runs of
    /// the same (scenario, seed).
    pub trace_hash: u64,
    /// Sorted `name value` metric lines at drain time.
    pub metrics_snapshot: String,
    /// Invariant violations (empty = campaign passed).
    pub violations: Vec<Violation>,
}

impl CampaignReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The one-command repro for this exact campaign.
    pub fn repro(&self) -> String {
        format!(
            "pps sim run --scenario {} --seed {}",
            self.scenario, self.seed
        )
    }

    /// Human-readable multi-line summary (CLI / CI output).
    pub fn render(&self) -> String {
        let mut out = format!(
            "scenario {} seed {}: {} clients, {} events, {:?} virtual, \
             {} completions, trace {:016x}\n",
            self.scenario,
            self.seed,
            self.population,
            self.events,
            self.virtual_elapsed,
            self.completions,
            self.trace_hash,
        );
        if self.ok() {
            out.push_str("oracle: all invariants held\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("oracle VIOLATION {v}\n"));
            }
            out.push_str(&format!("reproduce with: {}\n", self.repro()));
        }
        out
    }
}

/// Runs one campaign to completion and renders the oracle's verdict.
///
/// # Errors
/// Scenario-construction failures (bad database, key generation);
/// in-campaign anomalies are oracle violations, not errors.
pub fn run_campaign(scenario: &Scenario, seed: u64) -> Result<CampaignReport, SimError> {
    let clock = Arc::new(VirtualClock::new());
    let mut setup_rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE_F00D_D00D);

    let pool: Vec<SumClient> = (0..KEY_POOL)
        .map(|_| SumClient::generate(scenario.key_bits, &mut setup_rng))
        .collect::<Result<_, _>>()
        .map_err(|e| SimError(format!("keygen: {e}")))?;
    let m_bits = (pool[0].keypair().public.key_bits() - 2) as u32;

    let values = scenario.db_values();
    let total_sum: u64 = values.iter().sum();
    let mut dbs =
        vec![Database::new(values.clone()).map_err(|e| SimError(format!("database: {e}")))?];
    if scenario.shard_groups > 0 {
        for part in values.chunks(values.len().div_ceil(SHARD_LEGS)) {
            dbs.push(Database::new(part.to_vec()).map_err(|e| SimError(format!("shard db: {e}")))?);
        }
    }
    let tables: Vec<SessionTable> = (0..dbs.len())
        .map(|i| {
            SessionTable::deterministic(
                ResumptionConfig {
                    capacity: 4096,
                    ttl: scenario.resume_ttl,
                },
                seed ^ (0x7AB1E << 8) ^ i as u64,
                clock.clone(),
            )
        })
        .collect();

    let mut runner = Runner::new(scenario, seed, clock, &dbs, &tables, &pool)?;
    runner.oracle = Oracle::new(scenario.shard_groups, SHARD_LEGS, total_sum, m_bits);
    runner.populate(m_bits)?;
    runner.run();
    Ok(runner.finish())
}

struct Runner<'a> {
    scenario: &'a Scenario,
    seed: u64,
    clock: Arc<VirtualClock>,
    dbs: &'a [Database],
    tables: &'a [SessionTable],
    pool: &'a [SumClient],
    net: SimNet,
    heap: BinaryHeap<Reverse<Scheduled>>,
    next_seq: u64,
    now: u64,
    clients: Vec<ClientState>,
    conns: BTreeMap<ConnId, ServerConn<'a>>,
    conn_owner: BTreeMap<ConnId, usize>,
    active: Vec<usize>,
    metrics: SimMetrics,
    oracle: Oracle,
    hash: u64,
    events: u64,
}

impl<'a> Runner<'a> {
    fn new(
        scenario: &'a Scenario,
        seed: u64,
        clock: Arc<VirtualClock>,
        dbs: &'a [Database],
        tables: &'a [SessionTable],
        pool: &'a [SumClient],
    ) -> Result<Self, SimError> {
        Ok(Runner {
            scenario,
            seed,
            clock,
            dbs,
            tables,
            pool,
            net: SimNet::new(
                seed ^ 0x0E57_AB1E,
                scenario.drop_per_million,
                scenario.jitter_per_million,
            ),
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
            clients: Vec::new(),
            conns: BTreeMap::new(),
            conn_owner: BTreeMap::new(),
            active: vec![0; dbs.len()],
            metrics: SimMetrics::new(),
            oracle: Oracle::new(0, 0, 0, 62),
            hash: 0xCBF2_9CE4_8422_2325,
            events: 0,
        })
    }

    /// Builds every client's script and schedules the staggered starts.
    fn populate(&mut self, m_bits: u32) -> Result<(), SimError> {
        let p = self.scenario.population;
        let mut roster: Vec<Behavior> = Vec::new();
        roster.extend(std::iter::repeat_n(Behavior::Honest, p.honest));
        roster.extend(std::iter::repeat_n(Behavior::Churning, p.churning));
        roster.extend(std::iter::repeat_n(Behavior::Byzantine, p.byzantine));
        roster.extend(std::iter::repeat_n(
            Behavior::MalformedHello,
            p.malformed_hello,
        ));
        roster.extend(std::iter::repeat_n(
            Behavior::MalformedShard,
            p.malformed_shard,
        ));
        roster.extend(std::iter::repeat_n(Behavior::ReplayDup, p.replay_dup));
        roster.extend(std::iter::repeat_n(Behavior::ReplayGap, p.replay_gap));
        roster.extend(std::iter::repeat_n(Behavior::SlowLoris, p.slow_loris));

        for (id, behavior) in roster.iter().copied().enumerate() {
            let mut rng = StdRng::seed_from_u64(
                self.seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(id as u64 + 1),
            );
            let key = id % self.pool.len();
            let script = build_script(
                self.scenario,
                behavior,
                &self.pool[key],
                self.dbs[0].values(),
                &mut rng,
            )?;
            self.clients.push(ClientState {
                behavior,
                key,
                profile: self.scenario.links.profile_for(id),
                frames: script.frames,
                kill_after: script.kill_after,
                kill_defers: 0,
                rng,
                conn: None,
                ticket: None,
                inbox: BytesMut::new(),
                attempts: 0,
                done: false,
                loris_sent: 0,
                server: 0,
            });
            self.oracle.register(behavior, script.expected);
        }

        // Shard legs ride behind the main population; every leg of a
        // group shares one keypair so the partials recombine.
        for g in 0..self.scenario.shard_groups {
            let key = g % self.pool.len();
            let mut grng = StdRng::seed_from_u64(
                self.seed
                    .wrapping_mul(0xD192_ED03_A5A9_43B5)
                    .wrapping_add(g as u64 + 1),
            );
            let mut scripts = Vec::with_capacity(SHARD_LEGS);
            for leg in 0..SHARD_LEGS {
                scripts.push(build_script(
                    self.scenario,
                    Behavior::ShardLeg { group: g, leg },
                    &self.pool[key],
                    self.dbs[1 + leg].values(),
                    &mut grng,
                )?);
            }
            {
                let mut refs: Vec<&mut crate::actor::Script> = scripts.iter_mut().collect();
                prepend_shard_hello(&mut refs, m_bits, &mut grng)?;
            }
            for (leg, script) in scripts.into_iter().enumerate() {
                let id = self.clients.len();
                let behavior = Behavior::ShardLeg { group: g, leg };
                self.clients.push(ClientState {
                    behavior,
                    key,
                    profile: self.scenario.links.profile_for(id),
                    frames: script.frames,
                    kill_after: None,
                    kill_defers: 0,
                    rng: StdRng::seed_from_u64(
                        self.seed.wrapping_add((g * SHARD_LEGS + leg) as u64),
                    ),
                    conn: None,
                    ticket: None,
                    inbox: BytesMut::new(),
                    attempts: 0,
                    done: false,
                    loris_sent: 0,
                    server: 1 + leg,
                });
                self.oracle.register(behavior, None);
            }
        }

        // Staggered starts: 250 µs apart, deterministic by id.
        for id in 0..self.clients.len() {
            self.schedule(id as u64 * 250_000, Ev::Start { client: id });
        }
        // Partition windows.
        for (w, win) in self.scenario.partitions.iter().enumerate() {
            self.schedule(
                ns(win.start),
                Ev::Partition {
                    window: w,
                    begin: true,
                },
            );
            self.schedule(
                ns(win.end),
                Ev::Partition {
                    window: w,
                    begin: false,
                },
            );
        }
        Ok(())
    }

    fn schedule(&mut self, t: u64, ev: Ev) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { t, seq, ev }));
    }

    /// Appends one line to the FNV-1a trace hash.
    fn note(&mut self, line: &str) {
        for &b in self.now.to_be_bytes().iter() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        for &b in line.as_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn run(&mut self) {
        while let Some(Reverse(ev)) = self.heap.pop() {
            self.now = ev.t;
            self.clock.advance_to(Duration::from_nanos(ev.t));
            self.events += 1;
            self.handle(ev.ev);
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Start { client } => {
                self.note(&format!("start c{client}"));
                self.client_connect(client);
            }
            Ev::Accept { conn } => self.server_accept(conn),
            Ev::Deliver { conn, dir, data } => match dir {
                Dir::ToServer => self.server_deliver(conn, data),
                Dir::ToClient => self.client_deliver(conn, data),
            },
            Ev::Hangup { conn, at_server } => {
                if at_server {
                    if self.conns.get(&conn).is_some_and(|sc| !sc.closed) {
                        self.note(&format!("hangup s{conn}"));
                        self.close_server_conn(conn, true, false);
                    }
                } else if let Some(&id) = self.conn_owner.get(&conn) {
                    if self.clients[id].conn == Some(conn) {
                        self.note(&format!("hangup c{id}"));
                        self.client_handle_hangup(id);
                    }
                }
            }
            Ev::Wake { client, what } => self.client_wake(client, what),
            Ev::Deadline { conn } => {
                let evict = self
                    .conns
                    .get(&conn)
                    .is_some_and(|sc| !sc.closed && !sc.flow.is_done());
                if evict {
                    self.metrics.evictions.inc();
                    self.note(&format!("evict conn{conn}"));
                    self.close_server_conn(conn, false, true);
                }
            }
            Ev::Partition { window, begin } => self.partition_edge(window, begin),
        }
    }

    // ------------------------------------------------------------------
    // Client side
    // ------------------------------------------------------------------

    /// Latest end of any partition window blocking `id` right now.
    fn partition_block(&self, id: usize) -> Option<u64> {
        self.scenario
            .partitions
            .iter()
            .filter(|w| w.affects(id) && ns(w.start) <= self.now && self.now < ns(w.end))
            .map(|w| ns(w.end))
            .max()
    }

    fn client_connect(&mut self, id: usize) {
        if self.clients[id].done {
            return;
        }
        if let Some(end) = self.partition_block(id) {
            // The connect attempt times out into the partition; retry
            // just after the window closes (no attempt is charged — the
            // client never reached the server).
            let jitter = self.clients[id].rng.next_u32() as u64 % 100_000_000;
            self.note(&format!("blocked c{id}"));
            self.schedule(
                end + 1_000_000 + jitter,
                Ev::Wake {
                    client: id,
                    what: Wake::Retry,
                },
            );
            return;
        }
        let profile = self.clients[id].profile.clone();
        let (conn, lat) = self.net.connect(profile.clone(), self.now);
        self.conn_owner.insert(conn, id);
        self.clients[id].conn = Some(conn);
        self.clients[id].inbox = BytesMut::new();
        self.clients[id].loris_sent = 0;
        self.note(&format!("connect c{id} conn{conn}"));
        self.schedule(self.now + lat, Ev::Accept { conn });

        if self.clients[id].ticket.is_some() {
            self.send_resume(id);
            return;
        }
        match self.clients[id].behavior {
            Behavior::SlowLoris => {
                self.schedule(
                    self.now + 1,
                    Ev::Wake {
                        client: id,
                        what: Wake::Trickle,
                    },
                );
            }
            Behavior::Churning if self.clients[id].kill_after.is_some() => {
                let k = self.clients[id].kill_after.unwrap();
                if let Some(last) = self.send_script(id, 0, k) {
                    self.schedule(
                        last + ns(profile.latency),
                        Ev::Wake {
                            client: id,
                            what: Wake::Kill,
                        },
                    );
                }
            }
            _ => {
                let n = self.clients[id].frames.len();
                self.send_script(id, 0, n);
            }
        }
    }

    fn send_resume(&mut self, id: usize) {
        let Some(ticket) = self.clients[id].ticket else {
            return;
        };
        let frame = Resume {
            session_id: ticket,
            next_seq: 0, // the server's checkpoint, not this guess, is authoritative
            trace: None,
        }
        .encode()
        .expect("resume frame encodes");
        self.note(&format!("resume c{id}"));
        self.send_raw(id, frame.encode());
    }

    /// Sends script frames `[from, to)`; returns the last delivery time
    /// unless the connection reset underneath.
    fn send_script(&mut self, id: usize, from: usize, to: usize) -> Option<u64> {
        let mut last = self.now;
        for i in from..to.min(self.clients[id].frames.len()) {
            let data = self.clients[id].frames[i].clone();
            match self.send_raw(id, data) {
                Some(at) => last = at,
                None => return None,
            }
        }
        Some(last)
    }

    fn send_raw(&mut self, id: usize, data: Bytes) -> Option<u64> {
        let conn = self.clients[id].conn?;
        match self.net.send(conn, Dir::ToServer, data.len(), self.now) {
            Ok(at) => {
                self.schedule(
                    at,
                    Ev::Deliver {
                        conn,
                        dir: Dir::ToServer,
                        data,
                    },
                );
                Some(at)
            }
            Err(_) => {
                self.note(&format!("send-reset c{id}"));
                self.client_handle_hangup(id);
                None
            }
        }
    }

    fn client_handle_hangup(&mut self, id: usize) {
        if self.clients[id].done {
            return;
        }
        if let Some(conn) = self.clients[id].conn.take() {
            self.net.close(conn, true);
        }
        self.clients[id].inbox = BytesMut::new();
        self.clients[id].kill_after = None;
        if !self.clients[id].behavior.retries() {
            // One-shot adversarial client: the hangup is the expected
            // outcome; the oracle separately flags any completion.
            self.clients[id].done = true;
            return;
        }
        self.clients[id].attempts += 1;
        self.metrics.retries.inc();
        let attempts = self.clients[id].attempts;
        if attempts > MAX_RETRIES {
            self.note(&format!("give-up c{id}"));
            self.clients[id].done = true;
            self.oracle.gave_up(id);
            return;
        }
        let backoff = BACKOFF_BASE
            .saturating_mul(1 << (attempts - 1).min(10))
            .min(BACKOFF_CAP);
        let jitter = self.clients[id].rng.next_u32() as u64 % 20_000_000;
        self.schedule(
            self.now + ns(backoff) + jitter,
            Ev::Wake {
                client: id,
                what: Wake::Retry,
            },
        );
    }

    fn client_wake(&mut self, id: usize, what: Wake) {
        if self.clients[id].done {
            return;
        }
        match what {
            Wake::Retry => {
                if self.clients[id].conn.is_none() {
                    self.client_connect(id);
                }
            }
            Wake::Kill => {
                let Some(conn) = self.clients[id].conn else {
                    return;
                };
                if self.clients[id].kill_after.is_none() {
                    return;
                }
                if self.clients[id].ticket.is_none() && self.clients[id].kill_defers < 50 {
                    // The HelloAck (and with it the resume ticket) has
                    // not arrived yet; a real client cannot resume what
                    // it was never granted. Defer the kill briefly.
                    self.clients[id].kill_defers += 1;
                    self.schedule(
                        self.now + 2_000_000,
                        Ev::Wake {
                            client: id,
                            what: Wake::Kill,
                        },
                    );
                    return;
                }
                self.note(&format!("kill c{id}"));
                self.clients[id].kill_after = None;
                self.clients[id].conn = None;
                self.clients[id].inbox = BytesMut::new();
                self.net.close(conn, true);
                let lat = ns(self.clients[id].profile.latency);
                self.schedule(
                    self.now + lat,
                    Ev::Hangup {
                        conn,
                        at_server: true,
                    },
                );
                let jitter = self.clients[id].rng.next_u32() as u64 % 50_000_000;
                self.schedule(
                    self.now + ns(CHURN_PAUSE) + jitter,
                    Ev::Wake {
                        client: id,
                        what: Wake::Retry,
                    },
                );
            }
            Wake::Trickle => {
                let Some(conn) = self.clients[id].conn else {
                    return;
                };
                if !self.net.is_open(conn) {
                    return; // the hangup event will handle cleanup
                }
                let frame = self.clients[id].frames[0].clone();
                let pos = self.clients[id].loris_sent;
                if pos >= frame.len() {
                    return; // handshake exhausted; hold the slot silently
                }
                self.clients[id].loris_sent = pos + 1;
                let byte = frame.slice(pos..pos + 1);
                if self.send_raw(id, byte).is_some() {
                    self.schedule(
                        self.now + ns(LORIS_TICK),
                        Ev::Wake {
                            client: id,
                            what: Wake::Trickle,
                        },
                    );
                }
            }
        }
    }

    fn client_deliver(&mut self, conn: ConnId, data: Bytes) {
        if !self.net.delivery_allowed(conn) {
            return;
        }
        let Some(&id) = self.conn_owner.get(&conn) else {
            return;
        };
        if self.clients[id].done || self.clients[id].conn != Some(conn) {
            return;
        }
        self.clients[id].inbox.extend_from_slice(&data);
        loop {
            let decoded = Frame::decode(&mut self.clients[id].inbox);
            match decoded {
                Ok(Some(frame)) => self.client_frame(id, frame),
                Ok(None) => break,
                Err(e) => {
                    // A server must never send bytes the client cannot
                    // decode; surface it as an honest failure so the
                    // oracle flags the run.
                    self.note(&format!("client-decode-error c{id} {e}"));
                    self.clients[id].done = true;
                    self.oracle.gave_up(id);
                    break;
                }
            }
            if self.clients[id].done || self.clients[id].conn != Some(conn) {
                break;
            }
        }
    }

    fn client_frame(&mut self, id: usize, frame: Frame) {
        if frame.msg_type == MsgType::HelloAck as u8 {
            if let Ok(ack) = HelloAck::decode(&frame) {
                self.note(&format!("ticket c{id}"));
                self.clients[id].ticket = Some(ack.session_id);
            }
            return;
        }
        if frame.msg_type == MsgType::ResumeAck as u8 {
            let Ok(ack) = ResumeAck::decode(&frame) else {
                return;
            };
            let n = self.clients[id].frames.len();
            if ack.granted {
                self.note(&format!("resumed c{id} seq{}", ack.next_seq));
                let start = 1 + usize::try_from(ack.next_seq).unwrap_or(usize::MAX);
                if start < n {
                    self.send_script(id, start, n);
                } else {
                    // Nothing left to stream yet no product: fall back
                    // to a fresh query (the error path re-converges).
                    self.clients[id].ticket = None;
                    self.send_script(id, 0, n);
                }
            } else {
                self.note(&format!("resume-denied c{id}"));
                self.clients[id].ticket = None;
                self.send_script(id, 0, n);
            }
            return;
        }
        if frame.msg_type == MsgType::Product as u8 {
            let key = self.clients[id].key;
            match self.pool[key].decrypt_product(&frame) {
                Ok((sum, _)) => {
                    self.note(&format!("done c{id}"));
                    self.metrics.completions.inc();
                    match self.clients[id].behavior {
                        Behavior::ShardLeg { group, leg } => {
                            self.oracle.shard_partial(id, group, leg, sum);
                        }
                        _ => {
                            self.oracle.completed(id, sum.to_u64().unwrap_or(u64::MAX));
                        }
                    }
                    self.clients[id].done = true;
                    if let Some(conn) = self.clients[id].conn.take() {
                        self.net.close(conn, false);
                        let lat = ns(self.clients[id].profile.latency);
                        self.schedule(
                            self.now + lat,
                            Ev::Hangup {
                                conn,
                                at_server: true,
                            },
                        );
                    }
                }
                Err(e) => {
                    self.note(&format!("decrypt-error c{id} {e}"));
                    self.clients[id].done = true;
                    self.oracle.gave_up(id);
                }
            }
        }
        // Anything else (none today) is ignored by clients.
    }

    // ------------------------------------------------------------------
    // Server side
    // ------------------------------------------------------------------

    fn server_accept(&mut self, conn: ConnId) {
        if !self.net.is_open(conn) {
            return; // reset before the accept completed
        }
        let Some(&id) = self.conn_owner.get(&conn) else {
            return;
        };
        let server = self.clients[id].server;
        let cap = self.scenario.max_concurrent.unwrap_or(usize::MAX);
        if self.active[server] >= cap {
            self.metrics.refused.inc();
            self.note(&format!("refuse conn{conn}"));
            self.net.close(conn, true);
            let lat = ns(self.clients[id].profile.latency);
            self.schedule(
                self.now + lat,
                Ev::Hangup {
                    conn,
                    at_server: false,
                },
            );
            return;
        }
        self.note(&format!("accept conn{conn} s{server}"));
        self.active[server] += 1;
        self.metrics.active.add(1);
        self.conns.insert(
            conn,
            ServerConn {
                flow: SessionFlow::new(
                    &self.dbs[server],
                    FoldStrategy::default(),
                    &self.tables[server],
                    server > 0,
                ),
                inbox: BytesMut::new(),
                client: id,
                server,
                closed: false,
            },
        );
        if let Some(d) = self.scenario.session_deadline {
            self.schedule(self.now + ns(d), Ev::Deadline { conn });
        }
    }

    fn server_deliver(&mut self, conn: ConnId, data: Bytes) {
        if !self.net.delivery_allowed(conn) {
            return;
        }
        let Some(sc) = self.conns.get_mut(&conn) else {
            return;
        };
        if sc.closed {
            return;
        }
        sc.inbox.extend_from_slice(&data);
        loop {
            let Some(sc) = self.conns.get_mut(&conn) else {
                return;
            };
            if sc.closed {
                return;
            }
            match Frame::decode(&mut sc.inbox) {
                Ok(Some(frame)) => self.process_server_frame(conn, frame),
                Ok(None) => break,
                Err(e) => {
                    self.note(&format!("frame-error conn{conn} {e}"));
                    self.metrics.protocol_errors.inc();
                    self.close_server_conn(conn, false, true);
                    return;
                }
            }
        }
    }

    fn process_server_frame(&mut self, conn: ConnId, frame: Frame) {
        let Some(sc) = self.conns.get_mut(&conn) else {
            return;
        };
        if sc.closed {
            return;
        }
        let msg_type = frame.msg_type;
        match sc.flow.on_frame(&frame) {
            Ok(step) => {
                self.note(&format!("frame conn{conn} t{msg_type}"));
                if step.resumed_now {
                    self.metrics.resumes.inc();
                }
                for reply in step.replies {
                    if !self.server_send(conn, &reply) {
                        return;
                    }
                }
                let done = self
                    .conns
                    .get(&conn)
                    .is_some_and(|sc| !sc.closed && sc.flow.is_done());
                if done {
                    let sc = &self.conns[&conn];
                    if sc.server > 0 && !sc.flow.has_blinding() {
                        if let Behavior::ShardLeg { group, .. } = self.clients[sc.client].behavior {
                            self.oracle.unblinded_completion(group);
                        }
                    }
                    self.note(&format!("flow-done conn{conn}"));
                    self.close_server_conn(conn, true, false);
                }
            }
            Err(e) => {
                self.note(&format!("protocol-error conn{conn} t{msg_type} {e}"));
                self.metrics.protocol_errors.inc();
                self.close_server_conn(conn, false, true);
            }
        }
    }

    /// Sends one reply frame to the peer; returns false when the
    /// connection reset underneath (and closes it).
    fn server_send(&mut self, conn: ConnId, frame: &Frame) -> bool {
        let data = frame.encode();
        match self.net.send(conn, Dir::ToClient, data.len(), self.now) {
            Ok(at) => {
                self.schedule(
                    at,
                    Ev::Deliver {
                        conn,
                        dir: Dir::ToClient,
                        data,
                    },
                );
                true
            }
            Err(_) => {
                self.close_server_conn(conn, false, true);
                false
            }
        }
    }

    fn close_server_conn(&mut self, conn: ConnId, clean: bool, notify_client: bool) {
        let Some(sc) = self.conns.get_mut(&conn) else {
            return;
        };
        if sc.closed {
            return;
        }
        sc.closed = true;
        // The connection ended: a session short of its product keeps its
        // fold for a `Resume`, as `pps serve` does.
        sc.flow.park();
        let server = sc.server;
        let client = sc.client;
        self.active[server] -= 1;
        self.metrics.active.sub(1);
        self.net.close(conn, !clean);
        if notify_client {
            let lat = ns(self.clients[client].profile.latency);
            self.schedule(
                self.now + lat,
                Ev::Hangup {
                    conn,
                    at_server: false,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Partitions and the verdict
    // ------------------------------------------------------------------

    fn partition_edge(&mut self, window: usize, begin: bool) {
        self.note(&format!(
            "partition w{window} {}",
            if begin { "begin" } else { "end" }
        ));
        if !begin {
            return; // blocked clients rescheduled themselves past the end
        }
        let win = self.scenario.partitions[window];
        let cut: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, sc)| !sc.closed && win.affects(sc.client))
            .map(|(&c, _)| c)
            .collect();
        for conn in cut {
            self.net.partition_reset(conn);
            self.note(&format!("partition-reset conn{conn}"));
            self.close_server_conn(conn, false, true);
        }
    }

    fn finish(self) -> CampaignReport {
        let virtual_elapsed = self.clock.elapsed();
        // Advance virtual time past the resumption TTL: every
        // checkpoint must be gone (invariant 4).
        self.clock
            .advance(self.scenario.resume_ttl + Duration::from_secs(61));
        let leaked: usize = self.tables.iter().map(SessionTable::len).sum();
        let open_conns = self.conns.values().filter(|sc| !sc.closed).count();
        let violations = self
            .oracle
            .verdict(self.metrics.active.get(), open_conns, leaked);
        CampaignReport {
            scenario: self.scenario.name.to_string(),
            seed: self.seed,
            population: self.clients.len(),
            events: self.events,
            virtual_elapsed,
            completions: self.oracle.completions(),
            trace_hash: self.hash,
            metrics_snapshot: self.metrics.snapshot(self.net.chunks_sent, self.net.resets),
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str, population: usize) -> Scenario {
        Scenario::by_name(name).unwrap().with_population(population)
    }

    #[test]
    fn clean_lan_campaign_passes() {
        let report = run_campaign(&small("clean_lan", 8), 7).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.completions, 8);
    }

    #[test]
    fn churn_campaign_exercises_resume() {
        let report = run_campaign(&small("churn", 12), 21).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert!(
            report.metrics_snapshot.contains("pps_sim_resumes_total"),
            "snapshot lists resumes"
        );
        let resumes: u64 = report
            .metrics_snapshot
            .lines()
            .find(|l| l.starts_with("pps_sim_resumes_total"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(resumes > 0, "churners must resume:\n{}", report.render());
    }

    #[test]
    fn byzantine_campaign_is_contained() {
        let report = run_campaign(&small("byzantine", 16), 3).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert!(
            report
                .metrics_snapshot
                .contains("pps_sim_protocol_errors_total"),
            "{}",
            report.metrics_snapshot
        );
    }

    #[test]
    fn same_seed_same_trace_different_seed_different_trace() {
        let a = run_campaign(&small("churn", 8), 99).unwrap();
        let b = run_campaign(&small("churn", 8), 99).unwrap();
        let c = run_campaign(&small("churn", 8), 100).unwrap();
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.metrics_snapshot, b.metrics_snapshot);
        assert_eq!(a.events, b.events);
        assert_ne!(a.trace_hash, c.trace_hash);
    }

    #[test]
    fn shard_campaign_recombines_blinded_partials() {
        let report = run_campaign(&Scenario::by_name("shard").unwrap(), 5).unwrap();
        assert!(report.ok(), "{}", report.render());
    }

    #[test]
    fn slow_loris_is_evicted_and_slots_recover() {
        let report = run_campaign(&small("slow_loris", 12), 13).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert!(
            report
                .metrics_snapshot
                .lines()
                .any(|l| l.starts_with("pps_sim_evictions_total") && !l.ends_with(" 0")),
            "loris sessions must be evicted:\n{}",
            report.metrics_snapshot
        );
    }

    #[test]
    fn report_repro_string_replays_the_campaign() {
        let report = run_campaign(&small("clean_lan", 4), 42).unwrap();
        assert_eq!(report.repro(), "pps sim run --scenario clean_lan --seed 42");
    }
}
