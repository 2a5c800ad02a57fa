//! # pps-cli
//!
//! A deployable command-line tool for the private selected-sum protocol
//! over real TCP:
//!
//! ```sh
//! # Terminal 1 — a server over a value file (one u64 per line):
//! pps serve --data salaries.txt --listen 127.0.0.1:7070
//!
//! # Terminal 2 — a private query for rows 1, 4 and 6:
//! pps query --addr 127.0.0.1:7070 --select 1,4,6 --key-bits 512
//!
//! # Key management:
//! pps keygen --bits 2048 --out client.key
//! pps query --addr 127.0.0.1:7070 --select 0,2 --key client.key
//! ```
//!
//! The binary is a thin `main`; everything here is library code so the
//! argument parser, file loader, and both endpoints are unit- and
//! integration-tested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::net::ToSocketAddrs;
use std::path::Path;
use std::time::Duration;

use pps_crypto::{PaillierKeypair, PaillierSecretKey};
use pps_obs::{names, JsonValue, MetricsServer, Registry, TraceBuffer, TraceContext, Tracer};
use pps_protocol::{
    fetch_trace, run_multiclient, run_sharded_query, run_sharded_query_traced,
    run_tcp_query_observed, run_tcp_query_with_retry, Admission, Database, FoldStrategy, QueryObs,
    ResumptionConfig, RunReport, Selection, ServerObs, SessionEvent, SessionLimits,
    ShardQueryConfig, SumClient, TcpQueryConfig, TcpServer, TraceTimeline,
};
use pps_transport::{LinkProfile, RetryPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Exit-style error for the CLI: message for stderr plus a process code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    fn runtime(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Parsed command.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// Serve a database over TCP.
    Serve {
        /// Value file path (one u64 per line), or None with `random`.
        data: Option<String>,
        /// Generate this many random 32-bit values instead of a file.
        random: Option<usize>,
        /// Listen address.
        listen: String,
        /// Serve at most this many sessions, then exit (None = forever).
        max_sessions: Option<usize>,
        /// Cap on simultaneously active sessions (None = unbounded).
        max_concurrent: Option<usize>,
        /// What to do with connections over the `max_concurrent` cap.
        admission: Admission,
        /// Whole-session wall-clock budget in seconds (0 = no limits at
        /// all, None = defaults).
        session_timeout: Option<u64>,
        /// Trigger a graceful shutdown this many seconds after start.
        shutdown_after: Option<u64>,
        /// Serve a Prometheus `/metrics` + `/healthz` endpoint here.
        metrics_addr: Option<String>,
        /// Fold-checkpoint lifetime in seconds (None = default 120).
        resume_ttl: Option<u64>,
        /// Fold-checkpoint table capacity (None = default 1024).
        resume_capacity: Option<usize>,
        /// Serve as a shard worker: require the sharded-query handshake
        /// (PROTOCOL.md §11) before any query, and refuse plaintext
        /// baselines outright, so every partial this worker returns is
        /// blinded.
        shard: bool,
        /// Flag sessions whose wall time reaches this many milliseconds
        /// as slow queries (counter + traced event with the phase
        /// breakdown).
        slow_query_ms: Option<u64>,
    },
    /// Issue one private selected-sum query.
    Query {
        /// Server address.
        addr: String,
        /// Selected row indices.
        select: Vec<usize>,
        /// Everything else.
        opts: QueryOptions,
    },
    /// Generate and store a keypair.
    Keygen {
        /// Modulus size.
        bits: usize,
        /// Output path for the secret key bytes.
        out: String,
    },
    /// Simulate the §3.5 multi-client blinded protocol in process
    /// (Fig. 8 reproduction).
    MultiClient {
        /// Value file path, or None with `random`.
        data: Option<String>,
        /// Generate this many random 32-bit values instead of a file.
        random: Option<usize>,
        /// Number of cooperating clients.
        k: usize,
        /// Key size for the shared ephemeral key.
        key_bits: usize,
    },
    /// Run one deterministic simulation campaign and render its
    /// invariant verdict (exit 1 on any violation).
    SimRun {
        /// Scenario name from the registry (`pps sim list`).
        scenario: String,
        /// Campaign seed; same (scenario, seed) replays the campaign
        /// bit-identically.
        seed: u64,
        /// Rescale the scenario's population to roughly this many
        /// clients (None = the registry's full population).
        population: Option<usize>,
    },
    /// List the simulation scenario registry.
    SimList,
    /// Fetch one trace's records from a server's obs endpoint.
    TraceDump {
        /// The server's obs HTTP address (its `--metrics-addr`).
        obs: String,
        /// The trace id, as 1–32 hex digits.
        id: String,
        /// How to render the fetched records.
        format: TraceDumpFormat,
    },
    /// Print usage.
    Help,
}

/// How `pps trace dump` renders the fetched records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceDumpFormat {
    /// The raw `GET /trace/<id>` body: one JSON record per line.
    Jsonl,
    /// A time-ordered human-readable table.
    Pretty,
    /// Chrome trace-event JSON (loadable in Perfetto).
    Chrome,
}

/// How `pps query --trace` renders the per-phase timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// The [`RunReport::to_json`] object, pretty-printed.
    Json,
    /// A human-readable phase table with proportional bars.
    Pretty,
}

/// Knobs for [`run_query`] beyond the address and selection.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOptions {
    /// Key size for an ephemeral key.
    pub key_bits: usize,
    /// Path to a stored secret key (overrides `key_bits`).
    pub key_file: Option<String>,
    /// Batch size for streaming.
    pub batch: usize,
    /// Worker threads for client-side index encryption (1 = sequential
    /// paper-fidelity path; 0 = one per host core).
    pub client_threads: usize,
    /// Extra attempts after a transient transport failure (0 = single
    /// shot).
    pub retries: u32,
    /// Record the paper's phase decomposition and render it.
    pub trace: Option<TraceFormat>,
    /// Shard worker addresses, in partition order. Non-empty switches
    /// the query to the sharded fan-out engine (`--addr` is ignored).
    pub shards: Vec<String>,
    /// The shards' obs HTTP addresses, in the same order as `shards`.
    /// Required for a traced sharded query: the trace assembler fetches
    /// each leg's server-side spans from here.
    pub shard_obs: Vec<String>,
}

impl Default for QueryOptions {
    /// Default key size, batch 100, sequential encryption, single shot,
    /// no trace.
    fn default() -> Self {
        QueryOptions {
            key_bits: pps_crypto::DEFAULT_KEY_BITS,
            key_file: None,
            batch: 100,
            client_threads: 1,
            retries: 0,
            trace: None,
            shards: Vec::new(),
            shard_obs: Vec::new(),
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
pps — private selected-sum queries over TCP

USAGE:
  pps serve  --data FILE | --random N   [--listen ADDR] [--max-sessions K]
             [--max-concurrent K] [--admission queue|refuse] [--session-timeout SECS] [--shutdown-after SECS]
             [--metrics-addr HOST:PORT] [--resume-ttl SECS] [--resume-capacity K]
             [--slow-query-ms MS]
  pps shard-serve  (same flags as serve; serves one horizontal partition
             as a shard worker)
  pps query  --addr ADDR | --shards A1,A2,... --select i,j,k [--key-bits B | --key FILE] [--batch SIZE]
             [--client-threads T|auto] [--retries N] [--trace json|pretty]
             [--shard-obs O1,O2,...]
  pps trace dump --obs HOST:PORT --id HEX [--format jsonl|pretty|chrome]
  pps sim run  --scenario NAME [--seed S] [--population N]
  pps sim list
  pps multiclient --data FILE | --random N [--k K] [--key-bits B]
  pps keygen --bits B --out FILE
  pps help

Serve hardening: --max-concurrent caps simultaneously active sessions
(excess connections queue, or are refused with --admission refuse);
--session-timeout bounds each session's wall clock (0 disables every
deadline); --shutdown-after drains and exits gracefully after N seconds.
The server folds each query into one set of Pippenger buckets (55 KiB at
512-bit keys), allocated at the query's first batch, whatever its batch
sizes, and reduces them once, at the product.
Serve telemetry: --metrics-addr exposes GET /metrics (Prometheus text
format: session lifecycle counters, wire bytes, per-phase latency
histograms) and GET /healthz (JSON) while the server runs.
Session resumption: when a connection ends before the product, the
server checkpoints the session; a client that reconnects within
--resume-ttl seconds of that (default 120) continues from the last batch
the server folded; --resume-capacity bounds the checkpoint table
(default 1024).
Query --retries N resumes from the server's checkpoint when one
survives, and re-issues the whole query up to N extra times on
transient transport failures otherwise, with exponential backoff.
--trace records the paper's four-component phase decomposition of the
query and prints it as JSON or as a timeline table. With --shards it
runs the query *distributed-traced*: a trace id is minted, carried to
every worker inside the wire handshake, and stamped onto each worker's
server-side spans; --shard-obs (one obs address per shard, in order)
lets the client fetch those spans back and merge everything into one
cross-process timeline. --slow-query-ms flags sessions whose wall time
crosses the threshold (counter + traced slow_query event carrying the
phase breakdown); pps trace dump fetches one trace's records from a
server's obs endpoint (jsonl, pretty table, or Chrome trace-event JSON
for Perfetto).
Sharded queries: shard-serve runs a worker that answers only blinded
partial sums (it rejects clients that skip the §11 shard handshake);
query --shards fans one query out over the listed workers — --select
takes global row indices over the concatenated partitions, each leg
retries and resumes independently, and the partials combine to the
exact sum with no worker revealing its share.
multiclient reproduces the paper's §3.5 simulation in process: k
cooperating clients over a modeled gigabit link, verified against the
plaintext oracle.
Simulation campaigns: pps sim run drives a named population-scale
scenario (pps sim list) through the deterministic discrete-event
harness — real protocol state machines over a simulated network with
the paper's two link profiles — and checks the invariant oracle; the
same --scenario/--seed pair replays any campaign bit-identically, and
every reported violation carries that repro command. Exit status 1
when any invariant breaks.
";

/// The `--name [value]` pairs after a subcommand. Every lookup marks
/// the name as read, so a flag the subcommand never reads — a
/// misspelling, or an option that no longer exists — is reported by
/// [`Flags::first_unread`] instead of being silently ignored.
struct Flags {
    pairs: Vec<(String, Option<String>, Cell<bool>)>,
}

impl Flags {
    /// Whether `--name` was given, marking it as read.
    fn has(&self, name: &str) -> bool {
        let mut found = false;
        for (key, _, read) in &self.pairs {
            if key == name {
                read.set(true);
                found = true;
            }
        }
        found
    }

    /// The value given with `--name`, marking it as read.
    fn get(&self, name: &str) -> Option<String> {
        self.has(name);
        self.pairs
            .iter()
            .find(|(key, _, _)| key == name)
            .and_then(|(_, value, _)| value.clone())
    }

    /// The first flag no lookup has read.
    fn first_unread(&self) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(_, _, read)| !read.get())
            .map(|(key, _, _)| key.as_str())
    }
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
/// [`CliError`] with usage text for any malformed invocation, including
/// a flag the subcommand does not take.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let sub = it.next().map(String::as_str).unwrap_or("help");
    let mut flags = Flags { pairs: Vec::new() };
    let mut rest: Vec<&String> = it.collect();
    // `trace` and `sim` take an action word before their flags
    // (pps trace dump ..., pps sim run ...).
    let action =
        if (sub == "trace" || sub == "sim") && rest.first().is_some_and(|a| !a.starts_with("--")) {
            Some(rest.remove(0).to_string())
        } else {
            None
        };
    let mut i = 0;
    while i < rest.len() {
        let k = rest[i]
            .strip_prefix("--")
            .ok_or_else(|| CliError::usage(format!("unexpected argument {}\n{USAGE}", rest[i])))?;
        let v = rest
            .get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .map(|v| v.to_string());
        i += 1 + v.is_some() as usize;
        flags.pairs.push((k.to_string(), v, Cell::new(false)));
    }
    let command = parse_command(sub, action.as_deref(), &flags)?;
    match flags.first_unread() {
        Some(name) => Err(CliError::usage(format!(
            "{sub}: unrecognized flag --{name}\n{USAGE}"
        ))),
        None => Ok(command),
    }
}

/// Builds the [`Command`] for subcommand `sub` (and its action word, for
/// `trace` and `sim`) from its flags.
fn parse_command(sub: &str, action: Option<&str>, flags: &Flags) -> Result<Command, CliError> {
    let get = |name: &str| flags.get(name);
    match sub {
        "serve" | "shard-serve" => {
            let data = get("data");
            let random = get("random")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| CliError::usage("bad --random"))
                })
                .transpose()?;
            if data.is_some() == random.is_some() {
                return Err(CliError::usage(format!(
                    "serve needs exactly one of --data or --random\n{USAGE}"
                )));
            }
            let max_concurrent = get("max-concurrent")
                .map(|v| {
                    v.parse::<usize>()
                        .ok()
                        .filter(|&k| k > 0)
                        .ok_or_else(|| CliError::usage("bad --max-concurrent"))
                })
                .transpose()?;
            let admission = match get("admission").as_deref() {
                None | Some("queue") => Admission::Queue,
                Some("refuse") => Admission::Refuse,
                Some(other) => {
                    return Err(CliError::usage(format!("unknown admission policy {other}")))
                }
            };
            Ok(Command::Serve {
                data,
                random,
                listen: get("listen").unwrap_or_else(|| "127.0.0.1:7070".into()),
                max_sessions: get("max-sessions")
                    .map(|v| v.parse().map_err(|_| CliError::usage("bad --max-sessions")))
                    .transpose()?,
                max_concurrent,
                admission,
                session_timeout: get("session-timeout")
                    .map(|v| {
                        v.parse()
                            .map_err(|_| CliError::usage("bad --session-timeout"))
                    })
                    .transpose()?,
                shutdown_after: get("shutdown-after")
                    .map(|v| {
                        v.parse()
                            .map_err(|_| CliError::usage("bad --shutdown-after"))
                    })
                    .transpose()?,
                metrics_addr: get("metrics-addr"),
                resume_ttl: get("resume-ttl")
                    .map(|v| v.parse().map_err(|_| CliError::usage("bad --resume-ttl")))
                    .transpose()?,
                resume_capacity: get("resume-capacity")
                    .map(|v| {
                        v.parse::<usize>()
                            .ok()
                            .filter(|&k| k > 0)
                            .ok_or_else(|| CliError::usage("bad --resume-capacity"))
                    })
                    .transpose()?,
                shard: sub == "shard-serve",
                slow_query_ms: get("slow-query-ms")
                    .map(|v| {
                        v.parse::<u64>()
                            .map_err(|_| CliError::usage("bad --slow-query-ms"))
                    })
                    .transpose()?,
            })
        }
        "query" => {
            let shards: Vec<String> = get("shards")
                .map(|v| {
                    v.split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect()
                })
                .unwrap_or_default();
            let addr = match (get("addr"), shards.is_empty()) {
                (Some(addr), _) => addr,
                (None, false) => String::new(),
                (None, true) => {
                    return Err(CliError::usage("query needs --addr or --shards"));
                }
            };
            let select = get("select")
                .ok_or_else(|| CliError::usage("query needs --select i,j,k"))?
                .split(',')
                .map(|s| s.trim().parse::<usize>())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| CliError::usage("bad --select list"))?;
            if select.is_empty() {
                return Err(CliError::usage("--select must name at least one row"));
            }
            let key_bits = get("key-bits")
                .map(|v| v.parse().map_err(|_| CliError::usage("bad --key-bits")))
                .transpose()?
                .unwrap_or(pps_crypto::DEFAULT_KEY_BITS);
            let batch = get("batch")
                .map(|v| v.parse().map_err(|_| CliError::usage("bad --batch")))
                .transpose()?
                .unwrap_or(100);
            if batch == 0 {
                return Err(CliError::usage("--batch must be positive"));
            }
            let client_threads = match get("client-threads").as_deref() {
                None => 1,
                Some("auto") => pps_crypto::host_parallelism(),
                Some(v) => {
                    let t: usize = v
                        .parse()
                        .map_err(|_| CliError::usage("bad --client-threads"))?;
                    if t == 0 {
                        pps_crypto::host_parallelism()
                    } else {
                        t
                    }
                }
            };
            let trace = match get("trace").as_deref() {
                None => None,
                Some("json") => Some(TraceFormat::Json),
                Some("pretty") => Some(TraceFormat::Pretty),
                Some(other) => {
                    return Err(CliError::usage(format!("unknown trace format {other}")))
                }
            };
            let shard_obs: Vec<String> = get("shard-obs")
                .map(|v| {
                    v.split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect()
                })
                .unwrap_or_default();
            if !shard_obs.is_empty() && shard_obs.len() != shards.len() {
                return Err(CliError::usage(format!(
                    "--shard-obs lists {} addresses but --shards lists {}",
                    shard_obs.len(),
                    shards.len()
                )));
            }
            if trace.is_some() && !shards.is_empty() && shard_obs.is_empty() {
                return Err(CliError::usage(
                    "a traced sharded query needs --shard-obs (one obs address per shard, \
                     in shard order) to fetch the workers' spans",
                ));
            }
            Ok(Command::Query {
                addr,
                select,
                opts: QueryOptions {
                    key_bits,
                    key_file: get("key"),
                    batch,
                    client_threads,
                    retries: get("retries")
                        .map(|v| v.parse().map_err(|_| CliError::usage("bad --retries")))
                        .transpose()?
                        .unwrap_or(0),
                    trace,
                    shards,
                    shard_obs,
                },
            })
        }
        "multiclient" => {
            let data = get("data");
            let random = get("random")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| CliError::usage("bad --random"))
                })
                .transpose()?;
            if data.is_some() == random.is_some() {
                return Err(CliError::usage(format!(
                    "multiclient needs exactly one of --data or --random\n{USAGE}"
                )));
            }
            let k = get("k")
                .map(|v| {
                    v.parse::<usize>()
                        .ok()
                        .filter(|&k| k > 0)
                        .ok_or_else(|| CliError::usage("bad --k"))
                })
                .transpose()?
                .unwrap_or(3);
            let key_bits = get("key-bits")
                .map(|v| v.parse().map_err(|_| CliError::usage("bad --key-bits")))
                .transpose()?
                .unwrap_or(pps_crypto::DEFAULT_KEY_BITS);
            Ok(Command::MultiClient {
                data,
                random,
                k,
                key_bits,
            })
        }
        "keygen" => {
            let bits = get("bits")
                .ok_or_else(|| CliError::usage("keygen needs --bits"))?
                .parse()
                .map_err(|_| CliError::usage("bad --bits"))?;
            let out = get("out").ok_or_else(|| CliError::usage("keygen needs --out"))?;
            Ok(Command::Keygen { bits, out })
        }
        "trace" => match action {
            Some("dump") => {
                let obs = get("obs").ok_or_else(|| CliError::usage("trace dump needs --obs"))?;
                let id = get("id").ok_or_else(|| CliError::usage("trace dump needs --id"))?;
                if TraceContext::parse_trace_id(&id).is_none() {
                    return Err(CliError::usage(format!("bad --id {id:?}: expect hex")));
                }
                let format = match get("format").as_deref() {
                    None | Some("jsonl") => TraceDumpFormat::Jsonl,
                    Some("pretty") => TraceDumpFormat::Pretty,
                    Some("chrome") => TraceDumpFormat::Chrome,
                    Some(other) => {
                        return Err(CliError::usage(format!("unknown dump format {other}")))
                    }
                };
                Ok(Command::TraceDump { obs, id, format })
            }
            _ => Err(CliError::usage(format!(
                "trace needs an action (dump)\n{USAGE}"
            ))),
        },
        "sim" => match action {
            Some("run") => {
                let scenario =
                    get("scenario").ok_or_else(|| CliError::usage("sim run needs --scenario"))?;
                let seed = get("seed")
                    .map(|v| v.parse::<u64>().map_err(|_| CliError::usage("bad --seed")))
                    .transpose()?
                    .unwrap_or(0);
                let population = get("population")
                    .map(|v| {
                        v.parse::<usize>()
                            .ok()
                            .filter(|&p| p > 0)
                            .ok_or_else(|| CliError::usage("bad --population"))
                    })
                    .transpose()?;
                Ok(Command::SimRun {
                    scenario,
                    seed,
                    population,
                })
            }
            Some("list") => Ok(Command::SimList),
            _ => Err(CliError::usage(format!(
                "sim needs an action (run, list)\n{USAGE}"
            ))),
        },
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(CliError::usage(format!("unknown command {other}\n{USAGE}"))),
    }
}

/// Loads a value file: one unsigned integer per line; blank lines and
/// `#` comments ignored.
///
/// # Errors
/// [`CliError`] on I/O failure or unparseable lines.
pub fn load_values(path: &Path) -> Result<Vec<u64>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {}: {e}", path.display())))?;
    let mut values = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let v = line.parse::<u64>().map_err(|_| {
            CliError::runtime(format!(
                "{}:{}: not a u64: {line:?}",
                path.display(),
                lineno + 1
            ))
        })?;
        values.push(v);
    }
    if values.is_empty() {
        return Err(CliError::runtime(format!("{}: no values", path.display())));
    }
    Ok(values)
}

/// Runtime knobs for [`run_server`] beyond the database: session count,
/// concurrency cap, deadlines, shutdown timer.
#[derive(Clone, Debug, Default)]
pub struct ServeOptions {
    /// Serve at most this many sessions, then exit (None = forever).
    pub max_sessions: Option<usize>,
    /// Cap on simultaneously active sessions (None = unbounded).
    pub max_concurrent: Option<usize>,
    /// Policy for connections arriving over the cap.
    pub admission: Option<Admission>,
    /// Per-session I/O limits (None = [`SessionLimits::default`]).
    pub limits: Option<SessionLimits>,
    /// Trigger a graceful shutdown after this long.
    pub shutdown_after: Option<Duration>,
    /// Serve `GET /metrics` (Prometheus text) and `GET /healthz` (JSON)
    /// on this address while the accept loop runs.
    pub metrics_addr: Option<String>,
    /// Bounds for the session-resumption checkpoint table (None =
    /// [`ResumptionConfig::default`]: 1024 checkpoints, 120 s TTL).
    pub resumption: Option<ResumptionConfig>,
    /// Serve as a shard worker: reject any query frame that arrives
    /// without the §11 shard handshake (and plaintext baselines
    /// unconditionally), so no partial ever leaves this server
    /// unblinded.
    pub shard_only: bool,
    /// Flag sessions whose wall time reaches this threshold as slow
    /// queries (counter + traced `slow_query` event).
    pub slow_query_threshold: Option<Duration>,
}

/// Runs the concurrent server: accepts connections and serves one
/// protocol session per connection on its own thread, all sessions
/// sharing the same database. Returns after `max_sessions` connections
/// have been accepted and drained, after the `shutdown_after` timer
/// fires (draining active sessions first), or never — logging
/// per-session lines as they finish and an aggregate report on
/// shutdown.
///
/// # Errors
/// [`CliError`] on bind failure; per-session errors are logged and do
/// not kill the server.
pub fn run_server(
    values: Vec<u64>,
    listen: &str,
    opts: &ServeOptions,
    log: &mut (dyn std::io::Write + Send),
) -> Result<(), CliError> {
    let db = std::sync::Arc::new(
        pps_protocol::Database::new(values)
            .map_err(|e| CliError::runtime(format!("bad database: {e}")))?,
    );
    let mut server = TcpServer::bind(std::sync::Arc::clone(&db), listen, FoldStrategy::default())
        .map_err(|e| CliError::runtime(format!("cannot bind {listen}: {e}")))?;
    if let Some(limits) = opts.limits.clone() {
        server = server.with_limits(limits);
    }
    if let Some(max) = opts.max_concurrent {
        server = server.with_admission(max, opts.admission.unwrap_or(Admission::Queue));
    }
    if let Some(resumption) = opts.resumption {
        server = server.with_resumption(resumption);
    }
    if opts.shard_only {
        server = server.require_shard_handshake();
    }
    if let Some(threshold) = opts.slow_query_threshold {
        server = server.with_slow_query_threshold(threshold);
    }
    let metrics = match opts.metrics_addr.as_deref() {
        Some(addr) => {
            let registry = std::sync::Arc::new(Registry::new());
            // Traced sessions record into the trace buffer, which the
            // metrics endpoint serves back per trace id under
            // GET /trace/<id>; its overflow counts are scrapeable.
            let traces = std::sync::Arc::new(TraceBuffer::default().with_counters(
                registry.counter(
                    names::TRACE_TRACES_EVICTED_TOTAL,
                    "whole traces evicted from the trace buffer to admit newer ones",
                ),
                registry.counter(
                    names::TRACE_RECORDS_DROPPED_TOTAL,
                    "trace records dropped because their trace hit the record cap",
                ),
            ));
            let tracer = Tracer::new(
                std::sync::Arc::clone(&traces) as std::sync::Arc<dyn pps_obs::Collector>
            );
            server = server.with_observability(ServerObs::with_tracer(
                std::sync::Arc::clone(&registry),
                tracer,
            ));
            Some(
                MetricsServer::start_with_traces(addr, registry, traces).map_err(|e| {
                    CliError::runtime(format!("cannot bind metrics on {addr}: {e}"))
                })?,
            )
        }
        None => None,
    };
    let local = server
        .local_addr()
        .map_err(|e| CliError::runtime(e.to_string()))?;
    let shard_tag = if opts.shard_only {
        " as shard worker"
    } else {
        ""
    };
    let _ = writeln!(log, "serving {} rows on {local}{shard_tag}", db.len());
    if let Some(metrics) = &metrics {
        let _ = writeln!(log, "metrics on http://{}/metrics", metrics.addr());
    }

    // The shutdown timer runs detached: if the session budget empties
    // first, its eventual wake-up self-connect hits a dead port and is
    // ignored.
    if let Some(after) = opts.shutdown_after {
        let handle = server
            .shutdown_handle()
            .map_err(|e| CliError::runtime(e.to_string()))?;
        std::thread::spawn(move || {
            std::thread::sleep(after);
            handle.shutdown();
        });
    }

    // Session threads report through the event callback; the writer is
    // shared behind a mutex so their lines never interleave mid-row.
    let log = std::sync::Mutex::new(log);
    let stats = server.serve_with(opts.max_sessions, &|event| {
        let mut log = log.lock().expect("log lock");
        match event {
            SessionEvent::Accepted { .. } => {}
            SessionEvent::Finished { session, stats } => {
                let _ = writeln!(
                    log,
                    "session {session}: folded {} indices in {:?}",
                    stats.folded, stats.compute
                );
            }
            SessionEvent::Failed { session, error } => {
                let _ = writeln!(log, "session {session} failed: {error}");
            }
            SessionEvent::Evicted { session, error } => {
                let _ = writeln!(log, "session {session} evicted: {error}");
            }
            SessionEvent::Panicked { session } => {
                let _ = writeln!(log, "session {session} panicked (contained)");
            }
            SessionEvent::Resumed { session } => {
                let _ = writeln!(log, "session {session} resumed from checkpoint");
            }
            SessionEvent::Refused { peer } => {
                let peer = peer.map(|p| format!(" from {p}")).unwrap_or_default();
                let _ = writeln!(log, "refused connection{peer}: at capacity");
            }
            SessionEvent::AcceptError { error } => {
                let _ = writeln!(log, "accept failed: {error}");
            }
        }
    });
    let log = log.into_inner().expect("log lock");
    let _ = writeln!(
        log,
        "served {} sessions ({} failed, {} refused, {} evicted, {} panicked, {} accept errors, {} resumed, {} checkpoints evicted): {} indices folded in {:?} compute, {:?} wall, {:.0} indices/s",
        stats.sessions,
        stats.failed,
        stats.refused,
        stats.evicted,
        stats.panicked,
        stats.accept_errors,
        stats.resumed,
        stats.checkpoints_evicted,
        stats.folded,
        stats.compute,
        stats.wall,
        stats.throughput(),
    );
    if let Some(metrics) = metrics {
        metrics.stop();
    }
    Ok(())
}

/// Result of one CLI query.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The private sum.
    pub sum: u128,
    /// Database size discovered from the server.
    pub n: usize,
    /// Rows requested.
    pub selected: usize,
    /// Bytes sent / received.
    pub bytes: (usize, usize),
    /// Connection/query attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// The phase decomposition, when [`QueryOptions::trace`] asked for
    /// one.
    pub report: Option<RunReport>,
    /// The distributed trace id, when the query ran traced and sharded.
    pub trace_id: Option<u128>,
    /// The merged cross-process timeline of a traced sharded query.
    pub timeline: Option<TraceTimeline>,
}

/// Runs one query against a listening server, re-issuing the whole
/// query (with exponential backoff) up to [`QueryOptions::retries`]
/// extra times on transient transport failures. With a trace format
/// set, the query runs instrumented and the outcome carries a
/// [`RunReport`] of the paper's phase decomposition.
///
/// # Errors
/// [`CliError`] on connection, key, or protocol failure.
pub fn run_query(
    addr: &str,
    select: &[usize],
    opts: &QueryOptions,
    rng: &mut StdRng,
) -> Result<QueryOutcome, CliError> {
    let client = match opts.key_file.as_deref() {
        Some(path) => {
            let bytes = std::fs::read(path)
                .map_err(|e| CliError::runtime(format!("cannot read key: {e}")))?;
            SumClient::new(
                PaillierSecretKey::keypair_from_bytes(&bytes)
                    .map_err(|e| CliError::runtime(format!("bad key file: {e}")))?,
            )
        }
        None => SumClient::generate(opts.key_bits, rng)
            .map_err(|e| CliError::runtime(format!("keygen failed: {e}")))?,
    };

    let config = TcpQueryConfig {
        batch_size: opts.batch,
        client_threads: opts.client_threads,
        retry: RetryPolicy {
            max_attempts: opts.retries.saturating_add(1),
            ..RetryPolicy::default()
        },
        ..TcpQueryConfig::default()
    };
    if !opts.shards.is_empty() {
        let config = ShardQueryConfig {
            tcp: config,
            value_bound: None,
        };
        let (outcome, report, trace_id, timeline) = if opts.trace.is_some() {
            let obs_addrs: Vec<std::net::SocketAddr> = opts
                .shard_obs
                .iter()
                .map(|a| {
                    a.to_socket_addrs()
                        .ok()
                        .and_then(|mut it| it.next())
                        .ok_or_else(|| CliError::runtime(format!("bad obs address {a}")))
                })
                .collect::<Result<_, _>>()?;
            let traced = run_sharded_query_traced(
                &opts.shards,
                &obs_addrs,
                &client,
                select,
                &config,
                std::sync::Arc::new(Registry::new()),
                rng,
            )
            .map_err(|e| CliError::runtime(format!("query failed: {e}")))?;
            (
                traced.outcome,
                Some(traced.report),
                Some(traced.trace_id),
                Some(traced.timeline),
            )
        } else {
            let outcome = run_sharded_query(&opts.shards, &client, select, &config, None, rng)
                .map_err(|e| CliError::runtime(format!("query failed: {e}")))?;
            (outcome, None, None, None)
        };
        let attempts = outcome.legs.iter().map(|l| l.attempts).max().unwrap_or(1);
        let bytes = outcome.legs.iter().fold((0, 0), |acc, l| {
            (
                acc.0 + l.traffic.payload_bytes_sent,
                acc.1 + l.traffic.payload_bytes_received,
            )
        });
        return Ok(QueryOutcome {
            sum: outcome.sum,
            n: outcome.n,
            selected: outcome.selected,
            bytes,
            attempts,
            report,
            trace_id,
            timeline,
        });
    }
    let (outcome, report) = if opts.trace.is_some() {
        let obs = QueryObs::new(std::sync::Arc::new(Registry::new()));
        let (outcome, report) = run_tcp_query_observed(addr, &client, select, &config, rng, &obs)
            .map_err(|e| CliError::runtime(format!("query failed: {e}")))?;
        (outcome, Some(report))
    } else {
        let outcome = run_tcp_query_with_retry(addr, &client, select, &config, rng)
            .map_err(|e| CliError::runtime(format!("query failed: {e}")))?;
        (outcome, None)
    };
    Ok(QueryOutcome {
        sum: outcome.sum,
        n: outcome.n,
        selected: outcome.selected,
        bytes: (
            outcome.traffic.payload_bytes_sent,
            outcome.traffic.payload_bytes_received,
        ),
        attempts: outcome.retry.attempts,
        report,
        trace_id: None,
        timeline: None,
    })
}

/// Renders a traced query's output for one [`TraceFormat`]: the plain
/// single-server report shape when there is no timeline, or the
/// sharded `{report, trace_id, timeline}` object / report table plus
/// cross-process timeline otherwise.
fn render_traced_output(format: TraceFormat, outcome: &QueryOutcome) -> Option<String> {
    let report = outcome.report.as_ref()?;
    Some(match (format, &outcome.timeline) {
        (TraceFormat::Json, Some(timeline)) => JsonValue::object()
            .field("report", report.to_json())
            .field(
                "trace_id",
                TraceContext::new(outcome.trace_id.unwrap_or(0), 0).trace_id_hex(),
            )
            .field("timeline", timeline.to_json())
            .render_pretty(),
        (TraceFormat::Json, None) => report.to_json().render_pretty(),
        (TraceFormat::Pretty, Some(timeline)) => {
            format!("{}{}", render_trace(report), timeline.render_pretty())
        }
        (TraceFormat::Pretty, None) => render_trace(report),
    })
}

/// Fetches one trace from a server's obs endpoint and renders it.
///
/// # Errors
/// [`CliError`] on a bad address, an unreachable endpoint, or an
/// unknown trace id.
pub fn run_trace_dump(
    obs: &str,
    id: &str,
    format: TraceDumpFormat,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let addr = obs
        .to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .ok_or_else(|| CliError::runtime(format!("bad obs address {obs}")))?;
    let trace_id = TraceContext::parse_trace_id(id)
        .ok_or_else(|| CliError::usage(format!("bad trace id {id:?}")))?;
    let records = fetch_trace(addr, trace_id)
        .map_err(|e| CliError::runtime(format!("trace fetch failed: {e}")))?;
    if records.is_empty() {
        return Err(CliError::runtime(format!(
            "trace {id} not found on {obs} (unknown, evicted, or never traced)"
        )));
    }
    match format {
        TraceDumpFormat::Jsonl => {
            for record in &records {
                let json = match record {
                    pps_obs::Record::Span(s) => s.to_json(),
                    pps_obs::Record::Event(e) => e.to_json(),
                };
                let _ = writeln!(out, "{}", json.render());
            }
        }
        TraceDumpFormat::Pretty => {
            // A single server's view: every record on one process track.
            let timeline = TraceTimeline::assemble(trace_id, records, Vec::new());
            let _ = out.write_all(timeline.render_pretty().as_bytes());
        }
        TraceDumpFormat::Chrome => {
            let timeline = TraceTimeline::assemble(trace_id, records, Vec::new());
            let _ = out.write_all(timeline.to_chrome_trace().render_pretty().as_bytes());
        }
    }
    Ok(())
}

/// Renders a traced query's phase decomposition as an aligned table
/// with proportional bars — the paper's four components plus totals.
pub fn render_trace(report: &RunReport) -> String {
    let phases = [
        ("client_encrypt", report.client_encrypt),
        ("comm", report.comm),
        ("server_compute", report.server_compute),
        ("client_decrypt", report.client_decrypt),
    ];
    let longest = phases
        .iter()
        .map(|(_, d)| d.as_secs_f64())
        .fold(0.0_f64, f64::max);
    let mut out = format!(
        "phase timeline — {} (n={}, m={}, {}-bit key)\n",
        report.link, report.n, report.selected, report.key_bits
    );
    for (name, duration) in phases {
        let secs = duration.as_secs_f64();
        let width = if longest > 0.0 {
            ((secs / longest) * 40.0).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "  {name:<16} {secs:>12.6}s  {}\n",
            "#".repeat(width)
        ));
    }
    out.push_str(&format!(
        "  {:<16} {:>12.6}s\n",
        "online total",
        report.total_online().as_secs_f64()
    ));
    if !report.client_offline.is_zero() {
        out.push_str(&format!(
            "  {:<16} {:>12.6}s\n",
            "offline",
            report.client_offline.as_secs_f64()
        ));
    }
    out
}

/// Runs the §3.5 multi-client blinded protocol in process: `k`
/// cooperating clients, each holding one contiguous shard of a random
/// half-density selection, over a modeled gigabit link. The library
/// verifies the combined ring total against the plaintext oracle, so
/// success implies correctness.
///
/// # Errors
/// [`CliError`] on a bad database, a degenerate split (`k` larger than
/// the row count), or a key too narrow to blind.
pub fn run_multiclient_sim(
    values: Vec<u64>,
    k: usize,
    key_bits: usize,
    rng: &mut StdRng,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let db = Database::new(values).map_err(|e| CliError::runtime(format!("bad database: {e}")))?;
    let n = db.len();
    let selection = Selection::random(n, 0.5, rng)
        .map_err(|e| CliError::runtime(format!("bad selection: {e}")))?;
    let report = run_multiclient(
        &db,
        &selection,
        k,
        key_bits,
        LinkProfile::gigabit_lan(),
        rng,
    )
    .map_err(|e| CliError::runtime(format!("multiclient failed: {e}")))?;
    let _ = writeln!(
        out,
        "multi-client blinded sum: k={k} clients, {n} rows, {} selected, {key_bits}-bit key",
        selection.selected_count(),
    );
    let _ = writeln!(
        out,
        "result {} (oracle-checked); parallel online {:?}, ring pass {:?}",
        report.aggregate.result,
        report.aggregate.total_online(),
        report.ring_comm,
    );
    Ok(())
}

/// Generates a keypair and writes the secret bytes to `out`.
///
/// # Errors
/// [`CliError`] on keygen or I/O failure.
pub fn run_keygen(bits: usize, out: &Path, rng: &mut StdRng) -> Result<(), CliError> {
    let kp = PaillierKeypair::generate(bits, rng)
        .map_err(|e| CliError::runtime(format!("keygen failed: {e}")))?;
    std::fs::write(out, kp.secret.to_bytes())
        .map_err(|e| CliError::runtime(format!("cannot write {}: {e}", out.display())))?;
    Ok(())
}

/// Resolves the `--data FILE | --random N` pair parse_args validated.
fn resolve_values(data: Option<String>, random: Option<usize>) -> Result<Vec<u64>, CliError> {
    match (data, random) {
        (Some(path), None) => load_values(Path::new(&path)),
        (None, Some(n)) => {
            let mut rng = StdRng::from_entropy();
            Ok((0..n)
                .map(|_| rand::Rng::gen::<u32>(&mut rng) as u64)
                .collect())
        }
        _ => unreachable!("parse_args enforces exactly one source"),
    }
}

/// Entry point shared by `main` and the integration tests.
///
/// # Errors
/// [`CliError`] carrying the process exit code.
pub fn run(args: &[String], out: &mut (dyn std::io::Write + Send)) -> Result<(), CliError> {
    match parse_args(args)? {
        Command::Help => {
            let _ = out.write_all(USAGE.as_bytes());
            Ok(())
        }
        Command::Keygen { bits, out: path } => {
            let mut rng = StdRng::from_entropy();
            run_keygen(bits, Path::new(&path), &mut rng)?;
            let _ = writeln!(out, "wrote {bits}-bit secret key to {path}");
            Ok(())
        }
        Command::Serve {
            data,
            random,
            listen,
            max_sessions,
            max_concurrent,
            admission,
            session_timeout,
            shutdown_after,
            metrics_addr,
            resume_ttl,
            resume_capacity,
            shard,
            slow_query_ms,
        } => {
            let values = resolve_values(data, random)?;
            let limits = session_timeout.map(|secs| {
                if secs == 0 {
                    SessionLimits::unlimited()
                } else {
                    SessionLimits {
                        session_deadline: Some(Duration::from_secs(secs)),
                        ..SessionLimits::default()
                    }
                }
            });
            let resumption = match (resume_ttl, resume_capacity) {
                (None, None) => None,
                (ttl, capacity) => {
                    let default = ResumptionConfig::default();
                    Some(ResumptionConfig {
                        ttl: ttl.map(Duration::from_secs).unwrap_or(default.ttl),
                        capacity: capacity.unwrap_or(default.capacity),
                    })
                }
            };
            let opts = ServeOptions {
                max_sessions,
                max_concurrent,
                admission: Some(admission),
                limits,
                shutdown_after: shutdown_after.map(Duration::from_secs),
                metrics_addr,
                resumption,
                shard_only: shard,
                slow_query_threshold: slow_query_ms.map(Duration::from_millis),
            };
            run_server(values, &listen, &opts, out)
        }
        Command::MultiClient {
            data,
            random,
            k,
            key_bits,
        } => {
            let values = resolve_values(data, random)?;
            let mut rng = StdRng::from_entropy();
            run_multiclient_sim(values, k, key_bits, &mut rng, out)
        }
        Command::SimRun {
            scenario,
            seed,
            population,
        } => {
            let report = pps_sim::harness::run_named(&scenario, seed, population)
                .map_err(|e| CliError::usage(e.to_string()))?;
            let _ = out.write_all(report.render().as_bytes());
            if report.ok() {
                Ok(())
            } else {
                Err(CliError {
                    message: format!(
                        "{} invariant violation(s); repro: {}",
                        report.violations.len(),
                        report.repro()
                    ),
                    code: 1,
                })
            }
        }
        Command::SimList => {
            for s in pps_sim::Scenario::registry() {
                let _ = writeln!(
                    out,
                    "{:<12} {:>5} clients  {}",
                    s.name,
                    s.population.total() + s.shard_groups * pps_sim::run::SHARD_LEGS,
                    s.about
                );
            }
            Ok(())
        }
        Command::TraceDump { obs, id, format } => run_trace_dump(&obs, &id, format, out),
        Command::Query { addr, select, opts } => {
            let mut rng = StdRng::from_entropy();
            let outcome = run_query(&addr, &select, &opts, &mut rng)?;
            if let Some(text) = opts.trace.and_then(|f| render_traced_output(f, &outcome)) {
                let _ = out.write_all(text.as_bytes());
            }
            let _ = writeln!(
                out,
                "private sum of {} selected rows (of {}): {}",
                outcome.selected, outcome.n, outcome.sum
            );
            let _ = writeln!(
                out,
                "traffic: {} B up, {} B down",
                outcome.bytes.0, outcome.bytes.1
            );
            if outcome.attempts > 1 {
                let _ = writeln!(out, "succeeded after {} attempts", outcome.attempts);
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_serve() {
        let c = parse_args(&args("serve --random 100 --listen 0.0.0.0:9")).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                data: None,
                random: Some(100),
                listen: "0.0.0.0:9".into(),
                max_sessions: None,
                max_concurrent: None,
                admission: Admission::Queue,
                session_timeout: None,
                shutdown_after: None,
                metrics_addr: None,
                resume_ttl: None,
                resume_capacity: None,
                shard: false,
                slow_query_ms: None,
            }
        );
        assert!(parse_args(&args("serve")).is_err(), "needs a data source");
        assert!(
            parse_args(&args("serve --data f --random 5")).is_err(),
            "not both"
        );
        // One fold: the removed `--fold` is refused as an unread flag.
        let err = parse_args(&args("serve --random 5 --fold incremental")).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--fold"), "{}", err.message);
    }

    #[test]
    fn parse_serve_hardening_flags() {
        match parse_args(&args(
            "serve --random 8 --max-concurrent 4 --admission refuse --session-timeout 60 --shutdown-after 120",
        ))
        .unwrap()
        {
            Command::Serve {
                max_concurrent,
                admission,
                session_timeout,
                shutdown_after,
                ..
            } => {
                assert_eq!(max_concurrent, Some(4));
                assert_eq!(admission, Admission::Refuse);
                assert_eq!(session_timeout, Some(60));
                assert_eq!(shutdown_after, Some(120));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("serve --random 8 --max-concurrent 0")).is_err());
        assert!(parse_args(&args("serve --random 8 --max-concurrent x")).is_err());
        assert!(parse_args(&args("serve --random 8 --admission sometimes")).is_err());
        assert!(parse_args(&args("serve --random 8 --session-timeout x")).is_err());
        assert!(parse_args(&args("serve --random 8 --shutdown-after x")).is_err());
    }

    #[test]
    fn parse_rejects_flags_the_subcommand_does_not_read() {
        for (line, flag) in [
            ("serve --random 8 --engine event", "--engine"),
            ("serve --random 8 --workers 2", "--workers"),
            ("shard-serve --random 8 --engine event", "--engine"),
            ("serve --random 8 --max-sesions 1", "--max-sesions"),
            ("sim run --scenario byzantine --engine threaded", "--engine"),
            ("multiclient --random 8 --blinded", "--blinded"),
            ("sim list --seed 3", "--seed"),
        ] {
            let err = parse_args(&args(line)).unwrap_err();
            assert_eq!(err.code, 2, "{line}");
            assert!(err.message.contains(flag), "{line}: {}", err.message);
        }
        // The first unread flag is the one named.
        let err = parse_args(&args("serve --random 8 --enigne x --workers 2")).unwrap_err();
        assert!(err.message.contains("--enigne"), "{}", err.message);
    }

    #[test]
    fn parse_resume_flags() {
        match parse_args(&args(
            "serve --random 8 --resume-ttl 45 --resume-capacity 64",
        ))
        .unwrap()
        {
            Command::Serve {
                resume_ttl,
                resume_capacity,
                ..
            } => {
                assert_eq!(resume_ttl, Some(45));
                assert_eq!(resume_capacity, Some(64));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("serve --random 8 --resume-ttl x")).is_err());
        assert!(parse_args(&args("serve --random 8 --resume-capacity 0")).is_err());
        assert!(parse_args(&args("serve --random 8 --resume-capacity x")).is_err());
    }

    #[test]
    fn parse_metrics_addr() {
        match parse_args(&args("serve --random 8 --metrics-addr 127.0.0.1:9100")).unwrap() {
            Command::Serve { metrics_addr, .. } => {
                assert_eq!(metrics_addr.as_deref(), Some("127.0.0.1:9100"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_trace() {
        match parse_args(&args("query --addr a:1 --select 1 --trace json")).unwrap() {
            Command::Query { opts, .. } => assert_eq!(opts.trace, Some(TraceFormat::Json)),
            other => panic!("{other:?}"),
        }
        match parse_args(&args("query --addr a:1 --select 1 --trace pretty")).unwrap() {
            Command::Query { opts, .. } => assert_eq!(opts.trace, Some(TraceFormat::Pretty)),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("query --addr a:1 --select 1 --trace yaml")).is_err());
    }

    #[test]
    fn parse_query() {
        let c = parse_args(&args(
            "query --addr 1.2.3.4:5 --select 1,2,3 --key-bits 512",
        ))
        .unwrap();
        match c {
            Command::Query { addr, select, opts } => {
                assert_eq!(addr, "1.2.3.4:5");
                assert_eq!(select, vec![1, 2, 3]);
                assert_eq!(opts.key_bits, 512);
                assert_eq!(opts.key_file, None);
                assert_eq!(opts.batch, 100);
                assert_eq!(opts.client_threads, 1, "paper-fidelity default");
                assert_eq!(opts.retries, 0, "single shot unless asked");
                assert_eq!(opts.trace, None);
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&args("query --addr a:1 --select 1 --retries 3")).unwrap() {
            Command::Query { opts, .. } => assert_eq!(opts.retries, 3),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("query --addr a:1 --select 1 --retries x")).is_err());
        assert!(parse_args(&args("query --select 1")).is_err(), "needs addr");
        assert!(
            parse_args(&args("query --addr a:1")).is_err(),
            "needs select"
        );
        assert!(parse_args(&args("query --addr a:1 --select x")).is_err());
        assert!(parse_args(&args("query --addr a:1 --select 1 --batch 0")).is_err());
    }

    #[test]
    fn parse_client_threads() {
        match parse_args(&args("query --addr a:1 --select 1 --client-threads 6")).unwrap() {
            Command::Query { opts, .. } => assert_eq!(opts.client_threads, 6),
            other => panic!("{other:?}"),
        }
        // "auto" and 0 both resolve to the host's core count (>= 1).
        for spec in ["auto", "0"] {
            match parse_args(&args(&format!(
                "query --addr a:1 --select 1 --client-threads {spec}"
            )))
            .unwrap()
            {
                Command::Query { opts, .. } => {
                    assert_eq!(opts.client_threads, pps_crypto::host_parallelism())
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(parse_args(&args("query --addr a:1 --select 1 --client-threads x")).is_err());
    }

    #[test]
    fn parse_shard_serve() {
        match parse_args(&args("shard-serve --random 16 --max-sessions 3")).unwrap() {
            Command::Serve {
                shard,
                max_sessions,
                ..
            } => {
                assert!(shard, "shard-serve sets the worker flag");
                assert_eq!(max_sessions, Some(3), "shares serve's flags");
            }
            other => panic!("{other:?}"),
        }
        let err = parse_args(&args("shard-serve --random 16 --fold incremental")).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--fold"), "{}", err.message);
        match parse_args(&args("serve --random 16")).unwrap() {
            Command::Serve { shard, .. } => assert!(!shard),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("shard-serve")).is_err(), "needs a source");
    }

    #[test]
    fn parse_shards() {
        match parse_args(&args("query --shards a:1,b:2,c:3 --select 0,5")).unwrap() {
            Command::Query { addr, opts, .. } => {
                assert_eq!(opts.shards, vec!["a:1", "b:2", "c:3"]);
                assert_eq!(addr, "", "--addr not needed with --shards");
            }
            other => panic!("{other:?}"),
        }
        // --addr still accepted alongside (and ignored by the engine).
        match parse_args(&args("query --addr x:9 --shards a:1 --select 0")).unwrap() {
            Command::Query { addr, opts, .. } => {
                assert_eq!(addr, "x:9");
                assert_eq!(opts.shards, vec!["a:1"]);
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse_args(&args("query --select 0")).is_err(),
            "needs --addr or --shards"
        );
    }

    #[test]
    fn parse_traced_sharded_query() {
        // A traced sharded query pairs each shard with its obs address.
        match parse_args(&args(
            "query --shards a:1,b:2 --shard-obs a:91,b:92 --select 0 --trace json",
        ))
        .unwrap()
        {
            Command::Query { opts, .. } => {
                assert_eq!(opts.trace, Some(TraceFormat::Json));
                assert_eq!(opts.shards, vec!["a:1", "b:2"]);
                assert_eq!(opts.shard_obs, vec!["a:91", "b:92"]);
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse_args(&args("query --shards a:1 --select 0 --trace json")).is_err(),
            "traced sharded query needs --shard-obs"
        );
        assert!(
            parse_args(&args(
                "query --shards a:1,b:2 --shard-obs a:91 --select 0 --trace json"
            ))
            .is_err(),
            "--shard-obs must pair up with --shards"
        );
        // Untraced sharded queries don't need obs addresses.
        assert!(parse_args(&args("query --shards a:1 --select 0")).is_ok());
    }

    #[test]
    fn parse_slow_query_flag() {
        match parse_args(&args("serve --random 8 --slow-query-ms 250")).unwrap() {
            Command::Serve { slow_query_ms, .. } => assert_eq!(slow_query_ms, Some(250)),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("serve --random 8 --slow-query-ms x")).is_err());
    }

    #[test]
    fn parse_trace_dump() {
        match parse_args(&args("trace dump --obs 127.0.0.1:9100 --id abc123")).unwrap() {
            Command::TraceDump { obs, id, format } => {
                assert_eq!(obs, "127.0.0.1:9100");
                assert_eq!(id, "abc123");
                assert_eq!(format, TraceDumpFormat::Jsonl);
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&args("trace dump --obs a:1 --id ff --format chrome")).unwrap() {
            Command::TraceDump { format, .. } => assert_eq!(format, TraceDumpFormat::Chrome),
            other => panic!("{other:?}"),
        }
        match parse_args(&args("trace dump --obs a:1 --id ff --format pretty")).unwrap() {
            Command::TraceDump { format, .. } => assert_eq!(format, TraceDumpFormat::Pretty),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("trace")).is_err(), "needs an action");
        assert!(
            parse_args(&args("trace dump --obs a:1")).is_err(),
            "needs id"
        );
        assert!(
            parse_args(&args("trace dump --id ff")).is_err(),
            "needs obs"
        );
        assert!(parse_args(&args("trace dump --obs a:1 --id zz")).is_err());
        assert!(parse_args(&args("trace dump --obs a:1 --id ff --format yaml")).is_err());
    }

    #[test]
    fn parse_sim() {
        match parse_args(&args("sim run --scenario mixed --seed 7")).unwrap() {
            Command::SimRun {
                scenario,
                seed,
                population,
            } => {
                assert_eq!(scenario, "mixed");
                assert_eq!(seed, 7);
                assert_eq!(population, None);
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&args("sim run --scenario clean_lan --population 16")).unwrap() {
            Command::SimRun {
                seed, population, ..
            } => {
                assert_eq!(seed, 0, "seed defaults to 0");
                assert_eq!(population, Some(16));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(parse_args(&args("sim list")).unwrap(), Command::SimList);
        assert!(parse_args(&args("sim")).is_err(), "needs an action");
        assert!(parse_args(&args("sim run")).is_err(), "needs --scenario");
        assert!(parse_args(&args("sim run --scenario x --population 0")).is_err());
    }

    #[test]
    fn parse_multiclient_and_multidb() {
        assert_eq!(
            parse_args(&args("multiclient --random 24 --k 4 --key-bits 128")).unwrap(),
            Command::MultiClient {
                data: None,
                random: Some(24),
                k: 4,
                key_bits: 128,
            }
        );
        match parse_args(&args("multiclient --random 24")).unwrap() {
            Command::MultiClient { k, key_bits, .. } => {
                assert_eq!(k, 3, "paper-style default fan-out");
                assert_eq!(key_bits, pps_crypto::DEFAULT_KEY_BITS);
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&args("multiclient --data f.txt")).unwrap() {
            Command::MultiClient { data, .. } => assert_eq!(data.as_deref(), Some("f.txt")),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("multiclient")).is_err(), "needs a source");
        assert!(parse_args(&args("multiclient --data f --random 5")).is_err());
        // `multidb` is not a subcommand; `query --shards` is the
        // multi-database path.
        let err = parse_args(&args("multidb --random 24 --k 2 --blinded")).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown command"), "{}", err.message);
        assert!(parse_args(&args("multiclient --random 8 --k 0")).is_err());
        assert!(parse_args(&args("multiclient --random 8 --k x")).is_err());
    }

    #[test]
    fn parse_keygen_and_help() {
        let c = parse_args(&args("keygen --bits 256 --out k.bin")).unwrap();
        assert_eq!(
            c,
            Command::Keygen {
                bits: 256,
                out: "k.bin".into()
            }
        );
        assert!(parse_args(&args("keygen --bits x --out k")).is_err());
        assert_eq!(parse_args(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert!(parse_args(&args("frobnicate")).is_err());
    }

    #[test]
    fn render_trace_shows_each_phase() {
        let report = RunReport {
            variant: pps_protocol::Variant::Batched,
            n: 100,
            selected: 3,
            key_bits: 512,
            link: "tcp:1.2.3.4:5".into(),
            client_offline: Duration::ZERO,
            client_encrypt: Duration::from_millis(400),
            server_compute: Duration::from_millis(100),
            comm: Duration::from_millis(200),
            client_decrypt: Duration::from_millis(10),
            pipelined_total: None,
            bytes_to_server: 1,
            bytes_to_client: 2,
            messages: 3,
            result: 42,
        };
        let text = render_trace(&report);
        assert!(text.contains("tcp:1.2.3.4:5"));
        for phase in ["client_encrypt", "comm", "server_compute", "client_decrypt"] {
            assert!(text.contains(phase), "missing {phase} in:\n{text}");
        }
        assert!(text.contains("online total"));
        // Bars scale with the longest phase: encrypt gets the full bar.
        assert!(text.contains(&"#".repeat(40)));
        // Offline row only appears when there was offline work.
        assert!(!text.contains("offline"));
    }

    #[test]
    fn load_values_parses_and_validates() {
        let dir = std::env::temp_dir().join("pps-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("values.txt");
        std::fs::write(&path, "# comment\n10\n\n 20 \n30\n").unwrap();
        assert_eq!(load_values(&path).unwrap(), vec![10, 20, 30]);

        let bad = dir.join("bad.txt");
        std::fs::write(&bad, "10\nnope\n").unwrap();
        assert!(load_values(&bad).is_err());

        let empty = dir.join("empty.txt");
        std::fs::write(&empty, "# nothing\n").unwrap();
        assert!(load_values(&empty).is_err());

        assert!(load_values(Path::new("/definitely/not/here")).is_err());
    }
}
