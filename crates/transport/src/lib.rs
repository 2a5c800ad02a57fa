//! # pps-transport
//!
//! Network substrate for the privacy-preserving statistics workspace.
//!
//! The paper's experiments ran over two physical media we cannot
//! reproduce — a 2004 HPC cluster switch and a Chicago↔Hoboken 56 Kbps
//! dial-up modem — so communication is **simulated**. This crate provides:
//!
//! * [`LinkProfile`] — analytic models of the paper's media (plus custom
//!   ones): message delivery time = latency + bytes·8/bandwidth;
//! * [`Frame`] — a minimal length-prefixed wire format with byte-exact
//!   accounting, so the communication component of every figure reflects
//!   real serialized protocol bytes;
//! * [`Wire`] with two implementations: [`SimLink`] (in-memory,
//!   virtual clock, sequential orchestration) and [`TcpWire`] (framing
//!   over a real socket, with read/write deadlines);
//! * [`pipeline_makespan`] — flow-shop makespan model for the §3.2
//!   batching/pipelining experiment;
//! * fault tolerance: [`RetryPolicy`] (exponential backoff with
//!   deterministic jitter for reconnect/re-query) and the
//!   [`FaultyStream`] test wrapper that injects stalls, EINTR,
//!   timeouts, disconnects, truncation, and bit corruption underneath
//!   the production framing code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod faulty;
mod frame;
mod obs;
mod pipeline;
mod profile;
mod retry;
mod tcp;
mod wire;

pub use error::TransportError;
pub use faulty::{Fault, FaultSchedule, FaultyStream, FaultyWire, ScriptedStream};
pub use frame::{Frame, FRAME_MAGIC, HEADER_LEN, MAX_PAYLOAD};
pub use obs::{TimedWire, WireMetrics};
pub use pipeline::pipeline_makespan;
pub use profile::LinkProfile;
pub use retry::{RetryPolicy, RetryStats};
pub use tcp::{StreamWire, TcpWire};
pub use wire::{SimLink, TrafficStats, Wire};
