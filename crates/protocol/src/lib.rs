//! # pps-protocol
//!
//! The paper's primary contribution: **private selected-sum computation**
//! — an instance of selective private function evaluation (Canetti et
//! al.) experimentally analyzed by Subramaniam, Wright & Yang
//! (SDM/VLDB 2004).
//!
//! A server holds a database of `n` numbers; a client holds a private
//! 0/1 (or integer-weighted) selection vector. The client learns
//! `Σ I_i·x_i` and nothing else about the database; the server learns
//! nothing about the selection. The protocol (paper Fig. 1):
//!
//! ```text
//! Client                              Server
//!   E(I_1), …, E(I_n)  ───────────▶
//!                                     v = Π E(I_i)^{x_i} mod N²
//!                      ◀───────────  v
//!   D(v) = Σ I_i·x_i
//! ```
//!
//! This crate implements the protocol plus all four optimizations the
//! paper evaluates, the two non-private baselines it contrasts with, and
//! the four-component timing breakdown its figures plot:
//!
//! * [`run_basic`] — §3.1, the direct implementation;
//! * [`run_batched`] — §3.2, chunked streaming with pipeline overlap;
//! * [`run_preprocessed`] — §3.3, offline `E(0)`/`E(1)` pools;
//! * [`run_combined`] — §3.4, both;
//! * [`run_multiclient`] — §3.5, `k` clients with blinded partial sums;
//! * [`run_plain_baseline`] / [`run_download_baseline`] — §2's trivial
//!   non-private alternatives;
//! * [`run_weighted`] — the weighted-sum generalization the paper
//!   sketches in §2;
//! * [`TcpServer`] — the concurrent deployment runtime: one thread per
//!   accepted TCP connection, all sessions sharing one database, with
//!   per-session deadlines, admission control, and graceful shutdown;
//! * [`run_tcp_query_with_retry`] — the fault-tolerant client: a full
//!   query over a real socket, re-issued with exponential backoff on
//!   transient transport failures, resuming from the server's last
//!   acknowledged batch when a checkpoint survives
//!   ([`SessionTable`], PROTOCOL.md §10); [`run_tcp_query_observed`]
//!   runs the same attempt loop and records the paper's client-side
//!   phases (PROTOCOL.md §9.1);
//! * [`run_sharded_query`] — §3.5 over real sockets: `k` concurrent
//!   shard legs, each answering with a correlated-blinded partial that
//!   the client combines mod `M` (PROTOCOL.md §11), with per-leg
//!   retry and resume.
//!
//! # Quick start
//!
//! ```
//! use pps_protocol::{run_basic, Database, Selection, SumClient};
//! use pps_transport::LinkProfile;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let db = Database::new(vec![10, 20, 30, 40, 50]).unwrap();
//! let sel = Selection::from_indices(5, &[0, 2, 4]).unwrap();
//! let client = SumClient::generate(128, &mut rng).unwrap();
//!
//! let report = run_basic(&db, &sel, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
//! assert_eq!(report.result, 90); // 10 + 30 + 50, computed privately
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod cost;
mod data;
mod error;
pub mod flow;
pub mod messages;
mod multiclient;
mod obs;
mod perturb;
mod report;
pub mod resume;
mod run;
mod server;
mod shard;
mod tcp_client;
mod tcp_server;
mod trace;

pub use client::{ClientSendStats, IndexSource, SumClient};
pub use cost::{measure_encrypt_secs, CostModel, JAVA_SLOWDOWN, PAPER_ENCRYPT_SECS};
pub use data::{check_message_space, Database, Selection};
pub use error::ProtocolError;
pub use flow::{FlowStep, SessionFlow};
pub use multiclient::{run_multiclient, ClientLeg, MultiClientReport};
pub use obs::{PhaseTotals, QueryObs, ServerObs, ShardObs};
pub use perturb::{flip_probability_for_epsilon, run_randomized_response, PerturbedReport};
pub use report::{RunReport, Variant};
pub use resume::{ResumptionConfig, SessionTable};
pub use run::{
    run_basic, run_batched, run_combined, run_download_baseline, run_plain_baseline,
    run_preprocessed, run_weighted, RunConfig,
};
pub use server::{FoldCheckpoint, FoldStrategy, ServerSession, ServerStats};
pub use shard::{
    deal_pairwise_seeds, leg_blinding, pair_blinding, run_sharded_query, run_sharded_query_with,
    LegSeeds, ShardLegReport, ShardQueryConfig, ShardQueryOutcome, MIN_BLINDING_KEY_BITS,
};
pub use tcp_client::{
    run_stream_query_with_resume, run_tcp_query_observed, run_tcp_query_with_retry, TcpQueryConfig,
    TcpQueryOutcome,
};
pub use tcp_server::{
    Admission, AggregateStats, SessionDeadline, SessionEvent, SessionLimits, ShutdownHandle,
    TcpServer, DEFAULT_QUEUE_CAPACITY, MAX_CONSECUTIVE_ACCEPT_ERRORS,
};
pub use trace::{
    fetch_trace, parse_trace_jsonl, run_sharded_query_traced, TimelineEntry, TraceTimeline,
    TracedShardQuery,
};
