//! # pps-sim — deterministic population-scale simulation harness
//!
//! A seed-reproducible discrete-event simulator that drives the *real*
//! protocol state machines ([`SessionFlow`](pps_protocol::SessionFlow)
//! on the server side, real frame encoders on the client side) through
//! a simulated network, at populations far beyond what socket-based
//! integration tests can afford.
//!
//! The pieces:
//!
//! * [`scenario`] — named campaign shapes: population mixes, the
//!   paper's two link profiles (gigabit LAN, 56 Kbps modem), partition
//!   windows, fault dials, and server limits;
//! * [`actor`] — client behavior classes (honest, churning, byzantine
//!   frame-corrupting, malformed handshakes, seq replayers, slow-loris,
//!   blinded shard legs) and the deterministic script builder;
//! * [`net`] — the in-memory network: per-link latency/bandwidth
//!   serialization, seeded jitter and drops, partitions;
//! * [`run`] — the discrete-event runner itself: a virtual clock, an
//!   event heap ordered by `(time, seq)`, and a server that, like the
//!   real thread-per-connection runtime, services every frame the
//!   moment it is reassembled;
//! * [`oracle`] — the invariant oracle that renders the campaign
//!   verdict (sum correctness, adversary containment, slot/checkpoint
//!   hygiene, shard-blinding discipline);
//! * [`harness`] — shared helpers for tests and CI, including the
//!   repro entry point behind `pps sim run --scenario <s> --seed <n>`.
//!
//! Everything on the simulated path is deterministic: all randomness
//! flows from the campaign seed, time is a [`VirtualClock`]
//! (no real `Instant::now()` or `thread::sleep` is consulted), and two
//! runs with the same `(scenario, seed)` produce bit-identical
//! event traces and metrics snapshots — which is what makes every
//! oracle violation a one-command repro.
//!
//! [`VirtualClock`]: pps_obs::VirtualClock

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod harness;
pub mod net;
pub mod oracle;
pub mod run;
pub mod scenario;

pub use actor::Behavior;
pub use net::SimNet;
pub use oracle::{Oracle, Violation};
pub use run::{run_campaign, CampaignReport};
pub use scenario::{LinkMix, Population, Scenario};

/// Simulator-level error (unknown scenario, campaign setup failure).
#[derive(Clone, Debug)]
pub struct SimError(pub String);

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sim error: {}", self.0)
    }
}

impl std::error::Error for SimError {}
