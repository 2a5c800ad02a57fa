//! Shared scenario-runner helpers for tests and CI.
//!
//! Three layers, smallest to largest:
//!
//! * [`proto`] — fixtures for protocol-level failure-injection tests
//!   (one database, one client, deterministic rng, canned frames);
//! * [`chaos`] — scaffolding for real-socket chaos tests: the canonical
//!   48-row database, selection, expected plaintext sum, retry configs,
//!   and a fault-schedule query driver over real TCP;
//! * campaign helpers — run a named simulator scenario and assert a
//!   campaign is bit-reproducible.

use crate::run::{run_campaign, CampaignReport};
use crate::scenario::Scenario;
use crate::SimError;

/// Runs a named scenario, optionally rescaling its population (the CI
/// matrix uses small populations; `pps sim run` uses the registry's).
///
/// # Errors
/// Unknown scenario name, or scenario-construction failure.
pub fn run_named(
    name: &str,
    seed: u64,
    population: Option<usize>,
) -> Result<CampaignReport, SimError> {
    let mut scenario =
        Scenario::by_name(name).ok_or_else(|| SimError(format!("unknown scenario `{name}`")))?;
    if let Some(p) = population {
        scenario = scenario.with_population(p);
    }
    run_campaign(&scenario, seed)
}

/// Runs the campaign twice and asserts the event trace and metrics
/// snapshot are bit-identical — the reproducibility contract behind
/// every violation's repro string.
///
/// # Panics
/// When the two runs differ, with both hashes in the message.
///
/// # Errors
/// Propagates scenario-construction failures.
pub fn assert_reproducible(
    name: &str,
    seed: u64,
    population: Option<usize>,
) -> Result<CampaignReport, SimError> {
    let a = run_named(name, seed, population)?;
    let b = run_named(name, seed, population)?;
    assert_eq!(
        a.trace_hash, b.trace_hash,
        "campaign `{name}` seed {seed} is not trace-reproducible"
    );
    assert_eq!(
        a.metrics_snapshot, b.metrics_snapshot,
        "campaign `{name}` seed {seed} is not metrics-reproducible"
    );
    assert_eq!(a.events, b.events);
    Ok(a)
}

/// Fixtures for protocol-level failure-injection tests.
pub mod proto {
    use pps_protocol::messages::Hello;
    use pps_protocol::{Database, SumClient};
    use pps_transport::Frame;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The canonical four-row fixture: `[10, 20, 30, 40]`, a 128-bit
    /// client, and a seeded rng.
    pub fn fixture() -> (Database, SumClient, StdRng) {
        let mut rng = StdRng::seed_from_u64(66);
        let db = Database::new(vec![10, 20, 30, 40]).unwrap();
        let client = SumClient::generate(128, &mut rng).unwrap();
        (db, client, rng)
    }

    /// A well-formed `Hello` for `client` announcing `total` indices in
    /// batches of four.
    pub fn hello_frame(client: &SumClient, total: u64) -> Frame {
        Hello {
            modulus: client.keypair().public.n().clone(),
            total,
            batch_size: 4,
            trace: None,
        }
        .encode()
        .unwrap()
    }
}

/// Scaffolding for chaos tests over real TCP sockets with scripted
/// [`FaultSchedule`]s under the framing layer.
///
/// [`FaultSchedule`]: pps_transport::FaultSchedule
pub mod chaos {
    use std::net::{SocketAddr, TcpStream};
    use std::sync::Arc;
    use std::time::Duration;

    use pps_protocol::{
        run_stream_query_with_resume, Database, ProtocolError, SumClient, TcpQueryConfig,
        TcpQueryOutcome,
    };
    use pps_transport::{FaultSchedule, FaultyStream, RetryPolicy, StreamWire, TransportError};
    use rand::rngs::StdRng;

    /// Rows in the canonical chaos database.
    pub const N: usize = 48;
    /// Batch size the chaos queries stream with (12 batches per query).
    pub const BATCH: usize = 4;

    /// The canonical 48-row database: `value(i) = 7i + 3`.
    pub fn database() -> Arc<Database> {
        Arc::new(Database::new((0..N as u64).map(|i| i * 7 + 3).collect()).unwrap())
    }

    /// Every third row.
    pub fn selection() -> Vec<usize> {
        (0..N).step_by(3).collect()
    }

    /// The plaintext sum [`selection`] must decrypt to.
    pub fn expected_sum() -> u128 {
        selection().iter().map(|&i| (i as u128) * 7 + 3).sum()
    }

    /// A chaos-test query config: small batches, 10 s socket timeouts,
    /// the given retry policy.
    pub fn config(policy: RetryPolicy) -> TcpQueryConfig {
        TcpQueryConfig {
            batch_size: BATCH,
            client_threads: 1,
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            retry: policy,
            ..TcpQueryConfig::default()
        }
    }

    /// Runs one resumable query against `addr` where the `attempt`-th
    /// connection gets `schedule(attempt)` injected under the framing
    /// layer — the shared driver for scripted-disconnect scenarios.
    ///
    /// # Errors
    /// Whatever the query ultimately fails with once retries are
    /// exhausted.
    pub fn faulty_query(
        addr: SocketAddr,
        client: &SumClient,
        cfg: &TcpQueryConfig,
        rng: &mut StdRng,
        schedule: impl Fn(u32) -> FaultSchedule,
    ) -> Result<TcpQueryOutcome, ProtocolError> {
        let read_timeout = cfg.read_timeout;
        let mut connect =
            |attempt: u32| -> Result<StreamWire<FaultyStream<TcpStream>>, ProtocolError> {
                let stream = TcpStream::connect(addr)
                    .map_err(|e| ProtocolError::Transport(TransportError::Io(e.to_string())))?;
                stream
                    .set_read_timeout(read_timeout)
                    .map_err(|e| ProtocolError::Transport(TransportError::Io(e.to_string())))?;
                Ok(FaultyStream::wire(stream, schedule(attempt)))
            };
        run_stream_query_with_resume(&mut connect, client, &selection(), cfg, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_named_rejects_unknown_scenarios() {
        assert!(run_named("nope", 1, None).is_err());
    }

    #[test]
    fn reproducibility_helper_passes_for_a_small_campaign() {
        let report = assert_reproducible("clean_lan", 3, Some(4)).unwrap();
        assert!(report.ok(), "{}", report.render());
    }

    #[test]
    fn chaos_fixture_sums_agree() {
        let db = chaos::database();
        let want: u128 = chaos::selection()
            .iter()
            .map(|&i| u128::from(db.values()[i]))
            .sum();
        assert_eq!(chaos::expected_sum(), want);
    }
}
