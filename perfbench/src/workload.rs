//! The two workloads: the inputs each draws from the seed, the server
//! it runs against (built as `pps serve` builds it by default), and one
//! oracle-checked operation of each kind.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pps_obs::{Collector, Registry, RingCollector};
use pps_protocol::messages::MsgType;
use pps_protocol::{
    run_tcp_query_observed, run_tcp_query_with_retry, AggregateStats, Database, FoldStrategy,
    IndexSource, QueryObs, Selection, ServerObs, SessionEvent, ShutdownHandle, SumClient,
    TcpQueryConfig, TcpServer,
};
use pps_transport::{Frame, LinkProfile, RetryPolicy, SimLink, TcpWire, TransportError, Wire};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Socket deadline of one operation, the same as `pps query` uses.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Selections a `paper_query` run rotates through.
const PAPER_SELECTIONS: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperQuery,
    ReplaySaturate,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::PaperQuery, Workload::ReplaySaturate];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperQuery => "paper_query",
            Workload::ReplaySaturate => "replay_saturate",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Load threads, each holding at most one connection open.
    pub fn load_threads(self) -> usize {
        match self {
            Workload::PaperQuery => 1,
            Workload::ReplaySaturate => 2,
        }
    }
}

/// Input sizes of one benchmark profile. [`FULL`] is what the benchmark
/// measures; [`SMOKE`] runs the same code and checks on tiny inputs.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    pub key_bits: usize,
    /// Database rows of `paper_query` (the paper's n).
    pub paper_rows: usize,
    /// Database rows of `replay_saturate`.
    pub replay_rows: usize,
    /// Distinct pre-encrypted queries `replay_saturate` rotates through,
    /// so no per-ciphertext cache can answer a repeat.
    pub replay_queries: usize,
    /// Set-ups per measured run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Ops a measured window holds at least (1 or more): a window ends
    /// when both its time is up and this many ops were sent.
    pub min_ops: u64,
    /// Timed rounds per kernel probe; each probe reports the median.
    pub probe_rounds: usize,
}

pub const FULL: Profile = Profile {
    key_bits: 512,
    paper_rows: 1000,
    replay_rows: 2000,
    replay_queries: 4,
    setup_reps: 9,
    min_ops: 100,
    probe_rounds: 5,
};

pub const SMOKE: Profile = Profile {
    key_bits: 128,
    paper_rows: 8,
    replay_rows: 12,
    replay_queries: 2,
    setup_reps: 2,
    min_ops: 1,
    probe_rounds: 1,
};

/// An independent generator for one purpose (`stream`) of one seed.
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(1 << 20).wrapping_add(stream))
}

const STREAM_KEY: u64 = 1;
const STREAM_SELECT: u64 = 2;
const STREAM_ENCRYPT: u64 = 3;
const STREAM_WARM_UP: u64 = 4;
const STREAM_DB: u64 = 100;

/// The database of set-up `rep`: uniform 32-bit rows. Every set-up gets
/// its own rows, so no cache keyed on the data can carry one set-up's
/// work into the next.
pub fn db_values(seed: u64, rep: usize, rows: usize) -> Vec<u64> {
    let mut rng = rng_for(seed, STREAM_DB + rep as u64);
    (0..rows).map(|_| rng.gen_range(0..1u64 << 32)).collect()
}

/// Half the rows, drawn without replacement, as sorted indices.
fn half_of(rows: usize, rng: &mut StdRng) -> Vec<usize> {
    let take = rows / 2;
    let mut idx: Vec<usize> = (0..rows).collect();
    for i in 0..take {
        let j = rng.gen_range(i..rows);
        idx.swap(i, j);
    }
    idx.truncate(take);
    idx.sort_unstable();
    idx
}

/// One query replayed byte for byte: `Hello` followed by its
/// `IndexBatch` frames, and the selection it encrypts.
pub struct Replay {
    pub bytes: Vec<u8>,
    pub select: Vec<usize>,
}

/// Everything a run needs before a server exists: the querier's key and
/// the selections, pre-encrypted where the workload replays them.
pub struct Inputs {
    pub workload: Workload,
    pub client: SumClient,
    pub rows: usize,
    /// Row indices of each `pps query` (`paper_query`), used in turn.
    pub selections: Vec<Vec<usize>>,
    /// Pre-encoded queries (the replays), used in turn.
    pub queries: Vec<Replay>,
}

impl Inputs {
    pub fn generate(workload: Workload, profile: &Profile, seed: u64) -> Result<Inputs, String> {
        let client = SumClient::generate(profile.key_bits, &mut rng_for(seed, STREAM_KEY))
            .map_err(|e| format!("keygen: {e}"))?;
        let mut select_rng = rng_for(seed, STREAM_SELECT);
        let (rows, count) = match workload {
            Workload::PaperQuery => (profile.paper_rows, PAPER_SELECTIONS),
            Workload::ReplaySaturate => (profile.replay_rows, profile.replay_queries),
        };
        let selections: Vec<Vec<usize>> =
            (0..count).map(|_| half_of(rows, &mut select_rng)).collect();
        if workload == Workload::PaperQuery {
            return Ok(Inputs {
                workload,
                client,
                rows,
                selections,
                queries: Vec::new(),
            });
        }
        let mut encrypt_rng = rng_for(seed, STREAM_ENCRYPT);
        let queries = selections
            .into_iter()
            .map(|select| {
                let bytes = encode_query(&client, rows, &select, &mut encrypt_rng)?;
                Ok(Replay { bytes, select })
            })
            .collect::<Result<_, String>>()?;
        Ok(Inputs {
            workload,
            client,
            rows,
            selections: Vec::new(),
            queries,
        })
    }

    /// The plaintext answers to each selection or query over `values`.
    fn oracle_sums(&self, values: &[u64]) -> Vec<u128> {
        let sum = |select: &[usize]| select.iter().map(|&i| u128::from(values[i])).sum();
        if self.workload == Workload::PaperQuery {
            self.selections.iter().map(|s| sum(s)).collect()
        } else {
            self.queries.iter().map(|q| sum(&q.select)).collect()
        }
    }
}

/// The bytes `SumClient::send_query` writes for one query — `Hello` and
/// every `IndexBatch`, at `pps query`'s default batch size — captured
/// from an in-memory link. Encryption uses two threads: this is input
/// generation, not the measured path.
fn encode_query(
    client: &SumClient,
    rows: usize,
    select: &[usize],
    rng: &mut StdRng,
) -> Result<Vec<u8>, String> {
    let selection = Selection::from_indices(rows, select).map_err(|e| e.to_string())?;
    let (mut client_end, mut server_end) = SimLink::pair(LinkProfile::gigabit_lan());
    let mut source = IndexSource::FreshParallel { rng, threads: 2 };
    client
        .send_query(
            &mut client_end,
            &selection,
            TcpQueryConfig::default().batch_size,
            &mut source,
        )
        .map_err(|e| format!("encode query: {e}"))?;
    let mut bytes = Vec::new();
    while let Ok(frame) = server_end.recv() {
        bytes.extend_from_slice(&frame.encode());
    }
    Ok(bytes)
}

/// What the traced run needs from the server's event stream: the peer
/// port of every session (to match it to the op that opened it) and the
/// exact fold time of every batch.
#[derive(Default)]
pub struct ServerLog {
    inner: Mutex<LogInner>,
}

#[derive(Default)]
struct LogInner {
    peers: HashMap<u64, u16>,
    batches: Vec<Duration>,
}

impl ServerLog {
    fn record(&self, event: &SessionEvent<'_>) {
        let mut log = self.inner.lock().expect("server log lock");
        match event {
            SessionEvent::Accepted {
                session,
                peer: Some(peer),
            } => {
                log.peers.insert(*session as u64, peer.port());
            }
            SessionEvent::Finished { stats, .. } => {
                log.batches.extend_from_slice(&stats.per_batch_compute);
            }
            _ => {}
        }
    }

    pub fn peer_ports(&self) -> HashMap<u64, u16> {
        self.inner.lock().expect("server log lock").peers.clone()
    }

    pub fn batch_seconds(&self) -> Vec<f64> {
        let log = self.inner.lock().expect("server log lock");
        log.batches.iter().map(Duration::as_secs_f64).collect()
    }
}

/// A running in-process server on an ephemeral loopback port, bound
/// exactly as `pps serve` binds by default: default fold strategy, no
/// engine, worker, admission or limit override.
pub struct Deployment {
    pub addr: SocketAddr,
    handle: ShutdownHandle,
    thread: JoinHandle<AggregateStats>,
}

impl Deployment {
    pub fn start(
        values: Vec<u64>,
        obs: Option<ServerObs>,
        log: Option<Arc<ServerLog>>,
    ) -> Result<Deployment, String> {
        let db = Arc::new(Database::new(values).map_err(|e| e.to_string())?);
        let mut server = TcpServer::bind(db, "127.0.0.1:0", FoldStrategy::default())
            .map_err(|e| format!("bind: {e}"))?;
        if let Some(obs) = obs {
            server = server.with_observability(obs);
        }
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.shutdown_handle().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || match log {
            Some(log) => server.serve_with(None, &|event| log.record(&event)),
            None => server.serve(None),
        });
        Ok(Deployment {
            addr,
            handle,
            thread,
        })
    }

    /// Shuts the server down, drains its sessions and returns their
    /// aggregate.
    pub fn stop(self) -> Result<AggregateStats, String> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())
    }
}

/// The correct answer to each selection or query of a deployment:
/// plaintext sums for `pps query`, and for replays the exact `Product`
/// frame the warm-up decrypted and checked against the plaintext sum.
pub enum Answers {
    Sums(Vec<u128>),
    Products(Vec<Frame>),
}

/// A deployment that passed its warm-up.
pub struct Ready {
    pub deployment: Deployment,
    pub answers: Answers,
    /// Sessions the warm-up opened.
    pub warmups: usize,
}

/// Starts a server over set-up `rep`'s database and runs the warm-up:
/// one query for `paper_query`, one pass over the distinct queries for
/// the replays (each reply decrypted and checked against the oracle).
pub fn set_up(inputs: &Inputs, seed: u64, rep: usize) -> Result<Ready, String> {
    let values = db_values(seed, rep, inputs.rows);
    let sums = inputs.oracle_sums(&values);
    let deployment = Deployment::start(values, None, None)?;
    let warm = warm_up(inputs, &deployment, sums, seed);
    match warm {
        Ok((answers, warmups)) => Ok(Ready {
            deployment,
            answers,
            warmups,
        }),
        Err(e) => {
            let _ = deployment.stop();
            Err(e)
        }
    }
}

fn warm_up(
    inputs: &Inputs,
    deployment: &Deployment,
    sums: Vec<u128>,
    seed: u64,
) -> Result<(Answers, usize), String> {
    if inputs.workload == Workload::PaperQuery {
        let mut rng = rng_for(seed, STREAM_WARM_UP);
        let op = paper_query(deployment.addr, inputs, &sums, 0, &mut rng, None);
        return match op.outcome {
            Outcome::Ok => Ok((Answers::Sums(sums), 1)),
            other => Err(format!("warm-up query: {other:?}")),
        };
    }
    let mut products = Vec::with_capacity(inputs.queries.len());
    for (query, &expected) in inputs.queries.iter().zip(&sums) {
        let (op, product) = replay_query(deployment.addr, &query.bytes, None, false);
        let product = match (op.outcome, product) {
            (Outcome::Ok, Some(product)) => product,
            (other, _) => return Err(format!("warm-up replay: {other:?}")),
        };
        let (sum, _) = inputs
            .client
            .decrypt_product(&product)
            .map_err(|e| format!("warm-up decrypt: {e}"))?;
        if sum.to_u128() != Some(expected) {
            return Err(format!("warm-up replay: sum {sum:?} != oracle {expected}"));
        }
        products.push(product);
    }
    Ok((Answers::Products(products), inputs.queries.len()))
}

/// How an operation ended. Anything but `Ok` counts as failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// The server answered, but not with the oracle's answer.
    Wrong(String),
    /// Connect, transport or protocol error.
    Error(String),
}

/// A client-side span of one op, on the monotonic clock.
#[derive(Clone, Debug)]
pub struct ClientSpan {
    pub name: String,
    pub start: Instant,
    pub end: Instant,
}

/// One operation as the load generator saw it.
pub struct Op {
    /// When the client started it (connect).
    pub start: Instant,
    /// When the last byte of the answer arrived.
    pub end: Instant,
    pub outcome: Outcome,
    /// Bytes on the wire in both directions, frame headers included.
    pub wire_bytes: usize,
    /// The client's local port, when the benchmark opened the socket.
    pub port: Option<u16>,
    /// Client encrypt / comm / decrypt seconds (traced `pps query`).
    pub phases: Option<[f64; 3]>,
    /// Client-side spans (traced runs only).
    pub spans: Vec<ClientSpan>,
}

/// One `pps query` call: `run_tcp_query_with_retry` with the default
/// configuration, or — traced — `run_tcp_query_observed` with its spans
/// collected into `spans`. `k` picks the selection.
pub fn paper_query(
    addr: SocketAddr,
    inputs: &Inputs,
    sums: &[u128],
    k: u64,
    rng: &mut StdRng,
    traced: Option<&Arc<Registry>>,
) -> Op {
    let i = k as usize % inputs.selections.len();
    let addr = addr.to_string();
    let select = &inputs.selections[i];
    // What `pps query` runs with by default: batch 100, one encryption
    // thread, one attempt (`--retries 0`).
    let config = TcpQueryConfig {
        retry: RetryPolicy::none(),
        ..TcpQueryConfig::default()
    };
    let start = Instant::now();
    let (result, phases, spans) = match traced {
        None => (
            run_tcp_query_with_retry(&addr, &inputs.client, select, &config, rng),
            None,
            Vec::new(),
        ),
        Some(registry) => {
            let ring = Arc::new(RingCollector::new(1024));
            let obs = QueryObs::with_collector(
                Arc::clone(registry),
                Arc::clone(&ring) as Arc<dyn Collector>,
            );
            let called = Instant::now();
            match run_tcp_query_observed(&addr, &inputs.client, select, &config, rng, &obs) {
                Ok((outcome, report)) => {
                    let phases = [
                        report.client_encrypt.as_secs_f64(),
                        report.comm.as_secs_f64(),
                        report.client_decrypt.as_secs_f64(),
                    ];
                    // The query's tracer starts its clock inside the
                    // call; rebasing on the call's start is exact to a
                    // few microseconds.
                    let spans = ring
                        .spans()
                        .into_iter()
                        .map(|s| ClientSpan {
                            name: s.name,
                            start: called + Duration::from_nanos(s.start_ns),
                            end: called + Duration::from_nanos(s.end_ns),
                        })
                        .collect();
                    (Ok(outcome), Some(phases), spans)
                }
                Err(e) => (Err(e), None, Vec::new()),
            }
        }
    };
    let end = Instant::now();
    let (outcome, wire_bytes) = match result {
        Ok(out) if out.sum == sums[i] => (
            Outcome::Ok,
            out.traffic.wire_bytes_sent + out.traffic.wire_bytes_received,
        ),
        Ok(out) => (
            Outcome::Wrong(format!("sum {} != oracle {}", out.sum, sums[i])),
            0,
        ),
        Err(e) => (Outcome::Error(e.to_string()), 0),
    };
    Op {
        start,
        end,
        outcome,
        wire_bytes,
        port: None,
        phases,
        spans,
    }
}

/// One replayed query on a fresh connection: write the pre-encoded
/// bytes, read `HelloAck` and `Product`, and byte-compare the product
/// with `expected` when given. Returns the product frame too, for the
/// warm-up to decrypt.
pub fn replay_query(
    addr: SocketAddr,
    query: &[u8],
    expected: Option<&Frame>,
    traced: bool,
) -> (Op, Option<Frame>) {
    let start = Instant::now();
    let mut spans = Vec::new();
    let mut mark = |name: &str, from: Instant| {
        let now = Instant::now();
        if traced {
            spans.push(ClientSpan {
                name: name.to_string(),
                start: from,
                end: now,
            });
        }
        now
    };
    let mut port = None;
    let mut end = start;
    let result = (|| -> Result<(Frame, usize), TransportError> {
        let io = |e: std::io::Error| TransportError::Io(e.to_string());
        let stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream.set_read_timeout(Some(OP_TIMEOUT)).map_err(io)?;
        stream.set_write_timeout(Some(OP_TIMEOUT)).map_err(io)?;
        port = Some(stream.local_addr().map_err(io)?.port());
        let connected = mark("connect", start);
        let mut wire = TcpWire::new(stream);
        let mut writer: &TcpStream = wire.get_ref();
        writer.write_all(query).map_err(io)?;
        let sent = mark("send_query", connected);
        let ack = wire.recv()?;
        let product = wire.recv()?;
        end = mark("await_product", sent);
        if ack.msg_type != MsgType::HelloAck as u8 || product.msg_type != MsgType::Product as u8 {
            return Err(TransportError::Malformed("expected HelloAck then Product"));
        }
        // Wait for the server to close first, so TIME_WAIT lands on its
        // side rather than on the client's ephemeral ports.
        match wire.recv() {
            Err(TransportError::Disconnected) => {}
            Ok(_) => return Err(TransportError::Malformed("frame after Product")),
            Err(e) => return Err(e),
        }
        let bytes = query.len() + ack.encoded_len() + product.encoded_len();
        Ok((product, bytes))
    })();
    let (outcome, wire_bytes, product) = match result {
        Ok((product, bytes)) => match expected {
            Some(reference) if *reference != product => (
                Outcome::Wrong("product differs from the checked reference".into()),
                0,
                Some(product),
            ),
            _ => (Outcome::Ok, bytes, Some(product)),
        },
        Err(e) => {
            end = Instant::now();
            (Outcome::Error(e.to_string()), 0, None)
        }
    };
    let op = Op {
        start,
        end,
        outcome,
        wire_bytes,
        port,
        phases: None,
        spans,
    };
    (op, product)
}
