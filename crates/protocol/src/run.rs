//! Single-client protocol orchestrators.
//!
//! Each `run_*` function executes one protocol variant end to end over a
//! virtual-clock [`SimLink`], verifies the result against the plaintext
//! oracle, and returns the paper's four-component [`RunReport`].
//! Computation is *measured* (real wall time of the actual cryptographic
//! work on this machine); communication is *simulated* by the link model.

use std::time::{Duration, Instant};

use pps_crypto::{BitEncryptionPool, RandomizerPool};
use pps_transport::{pipeline_makespan, LinkProfile, SimLink, TransportError, Wire};
use rand::RngCore;

use crate::client::{ClientSendStats, IndexSource, SumClient};
use crate::data::{check_message_space, Database, Selection};
use crate::error::ProtocolError;
use crate::messages::{Dump, PlainIndices, PlainSum};
use crate::report::{RunReport, Variant};
use crate::server::ServerSession;

/// Shared configuration for a protocol run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Link model for the simulated communication component.
    pub link: LinkProfile,
    /// Indices per batch message. The unoptimized protocol uses one batch
    /// holding the whole vector; the paper's §3.2 experiments use 100.
    pub batch_size: usize,
}

impl RunConfig {
    /// Unbatched configuration over `link` (whole index vector in one
    /// message — the §3.1 shape).
    pub fn unbatched(link: LinkProfile) -> Self {
        RunConfig {
            link,
            batch_size: usize::MAX,
        }
    }

    /// Batched configuration (the paper's §3.2 experiments use 100).
    pub fn batched(link: LinkProfile, batch_size: usize) -> Self {
        RunConfig { link, batch_size }
    }

    fn effective_batch(&self, n: usize) -> usize {
        self.batch_size.min(n).max(1)
    }
}

/// Drains every queued frame into the server session, forwarding any
/// reply, until the queue is empty.
pub(crate) fn pump_server(
    server: &mut ServerSession<'_>,
    wire: &mut SimLink,
) -> Result<(), ProtocolError> {
    loop {
        match wire.recv() {
            Ok(frame) => {
                if let Some(reply) = server.on_frame(&frame)? {
                    wire.send(reply)?;
                }
            }
            Err(TransportError::Empty) => return Ok(()),
            Err(e) => return Err(e.into()),
        }
    }
}

/// Common tail: assemble the report and verify against the oracle.
#[allow(clippy::too_many_arguments)]
fn finish_report(
    variant: Variant,
    db: &Database,
    selection: &Selection,
    client: &SumClient,
    config: &RunConfig,
    send_stats: ClientSendStats,
    client_offline: Duration,
    server: &ServerSession<'_>,
    client_wire: &SimLink,
    sum: pps_bignum::Uint,
    decrypt: Duration,
    pipelined_total: Option<Duration>,
) -> Result<RunReport, ProtocolError> {
    let expected = db.oracle_sum(selection)?;
    let got = sum
        .to_u128()
        .ok_or_else(|| ProtocolError::Config("decrypted sum exceeds 128 bits".into()))?;
    if got != expected {
        return Err(ProtocolError::Config(format!(
            "protocol result {got} disagrees with oracle {expected}"
        )));
    }
    let stats = client_wire.stats();
    Ok(RunReport {
        variant,
        n: db.len(),
        selected: selection.selected_count(),
        key_bits: client.keypair().public.key_bits(),
        link: config.link.name.to_string(),
        client_offline,
        client_encrypt: send_stats.encrypt,
        server_compute: server.stats().compute,
        comm: client_wire.virtual_elapsed(),
        client_decrypt: decrypt,
        pipelined_total,
        bytes_to_server: stats.payload_bytes_sent,
        bytes_to_client: stats.payload_bytes_received,
        messages: stats.messages_sent + stats.messages_received,
        result: got,
    })
}

/// Computes the overlapped makespan of a batched run from measured
/// per-batch client/server times and modeled per-batch link times, then
/// adds the constant-size product reply and final decryption.
fn batched_makespan(
    send_stats: &ClientSendStats,
    server: &ServerSession<'_>,
    config: &RunConfig,
    decrypt: Duration,
    reply_bytes: usize,
) -> Duration {
    let link_times: Vec<Duration> = send_stats
        .per_batch_bytes
        .iter()
        .map(|&b| config.link.message_time(b))
        .collect();
    let stages = [
        send_stats.per_batch_encrypt.clone(),
        link_times,
        server.stats().per_batch_compute.clone(),
    ];
    pipeline_makespan(&stages) + config.link.message_time(reply_bytes) + decrypt
}

/// Core driver shared by all single-client private variants.
#[allow(clippy::too_many_arguments)]
fn run_private(
    variant: Variant,
    db: &Database,
    selection: &Selection,
    client: &SumClient,
    config: &RunConfig,
    source: &mut IndexSource<'_>,
    client_offline: Duration,
    pipelined: bool,
) -> Result<RunReport, ProtocolError> {
    if selection.len() != db.len() {
        return Err(ProtocolError::Config(format!(
            "selection length {} != database length {}",
            selection.len(),
            db.len()
        )));
    }
    check_message_space(db, selection, client.keypair().public.n())?;

    let (mut cw, mut sw) = SimLink::pair(config.link.clone());
    let batch = config.effective_batch(db.len());
    let send_stats = client.send_query(&mut cw, selection, batch, source)?;

    let mut server = ServerSession::new(db);
    pump_server(&mut server, &mut sw)?;

    let reply = cw.recv()?;
    let reply_bytes = reply.encoded_len();
    let (sum, decrypt) = client.decrypt_product(&reply)?;

    let pipelined_total =
        pipelined.then(|| batched_makespan(&send_stats, &server, config, decrypt, reply_bytes));

    finish_report(
        variant,
        db,
        selection,
        client,
        config,
        send_stats,
        client_offline,
        &server,
        &cw,
        sum,
        decrypt,
        pipelined_total,
    )
}

/// §3.1 — the direct implementation with no optimizations: the client
/// encrypts every index online and ships the whole vector.
///
/// # Errors
/// Configuration, crypto, and transport failures; result/oracle mismatch.
pub fn run_basic(
    db: &Database,
    selection: &Selection,
    client: &SumClient,
    link: LinkProfile,
    rng: &mut dyn RngCore,
) -> Result<RunReport, ProtocolError> {
    let config = RunConfig::unbatched(link);
    let mut source = IndexSource::Fresh(rng);
    run_private(
        Variant::Basic,
        db,
        selection,
        client,
        &config,
        &mut source,
        Duration::ZERO,
        false,
    )
}

/// §3.2 — batching / pipeline parallelism: the index vector is processed
/// and shipped in chunks (the paper uses 100), and the report's
/// `pipelined_total` holds the overlapped makespan.
///
/// # Errors
/// As [`run_basic`].
pub fn run_batched(
    db: &Database,
    selection: &Selection,
    client: &SumClient,
    link: LinkProfile,
    batch_size: usize,
    rng: &mut dyn RngCore,
) -> Result<RunReport, ProtocolError> {
    let config = RunConfig::batched(link, batch_size);
    let mut source = IndexSource::Fresh(rng);
    run_private(
        Variant::Batched,
        db,
        selection,
        client,
        &config,
        &mut source,
        Duration::ZERO,
        true,
    )
}

/// §3.3 — preprocessing the index vector: encryptions of 0/1 are drawn
/// from an offline pool; the pool-filling time is reported as
/// `client_offline` and excluded from the online total, exactly as the
/// paper accounts it.
///
/// # Errors
/// As [`run_basic`]; also pool exhaustion if `selection` needs more
/// ciphertexts than were precomputed.
pub fn run_preprocessed(
    db: &Database,
    selection: &Selection,
    client: &SumClient,
    link: LinkProfile,
    rng: &mut dyn RngCore,
) -> Result<RunReport, ProtocolError> {
    let config = RunConfig::unbatched(link);
    let (mut pool, offline) = fill_pool_for(selection, client, rng)?;
    let mut source = IndexSource::BitPool(&mut pool);
    run_private(
        Variant::Preprocessed,
        db,
        selection,
        client,
        &config,
        &mut source,
        offline,
        false,
    )
}

/// §3.4 — batching and preprocessing combined (the paper's ≈94 %
/// reduction).
///
/// # Errors
/// As [`run_preprocessed`].
pub fn run_combined(
    db: &Database,
    selection: &Selection,
    client: &SumClient,
    link: LinkProfile,
    batch_size: usize,
    rng: &mut dyn RngCore,
) -> Result<RunReport, ProtocolError> {
    let config = RunConfig::batched(link, batch_size);
    let (mut pool, offline) = fill_pool_for(selection, client, rng)?;
    let mut source = IndexSource::BitPool(&mut pool);
    run_private(
        Variant::Combined,
        db,
        selection,
        client,
        &config,
        &mut source,
        offline,
        true,
    )
}

/// Weighted-sum variant: arbitrary integer weights with pooled `r^N`
/// randomizers (generalizes §3.3 beyond 0/1 selections).
///
/// # Errors
/// As [`run_basic`].
pub fn run_weighted(
    db: &Database,
    selection: &Selection,
    client: &SumClient,
    link: LinkProfile,
    rng: &mut dyn RngCore,
) -> Result<RunReport, ProtocolError> {
    let config = RunConfig::unbatched(link);
    let start = Instant::now();
    let mut pool = RandomizerPool::new(client.keypair().public.clone());
    pool.fill(client.keypair(), selection.len(), 1, rng)?;
    let offline = start.elapsed();
    let mut source = IndexSource::RandomizerPool(&mut pool);
    run_private(
        Variant::Preprocessed,
        db,
        selection,
        client,
        &config,
        &mut source,
        offline,
        false,
    )
}

fn fill_pool_for(
    selection: &Selection,
    client: &SumClient,
    rng: &mut dyn RngCore,
) -> Result<(BitEncryptionPool, Duration), ProtocolError> {
    let ones = selection.selected_count();
    let zeros = selection.len() - ones;
    let start = Instant::now();
    let mut pool = BitEncryptionPool::new(client.keypair().public.clone());
    pool.fill(client.keypair(), zeros, ones, 1, rng)?;
    Ok((pool, start.elapsed()))
}

/// §2's trivial non-private baseline: plaintext indices up, plaintext sum
/// down. Fast, but the server learns the client's selection.
///
/// # Errors
/// Configuration and transport failures.
pub fn run_plain_baseline(
    db: &Database,
    selection: &Selection,
    link: LinkProfile,
) -> Result<RunReport, ProtocolError> {
    if selection.len() != db.len() {
        return Err(ProtocolError::Config(
            "selection/database length mismatch".into(),
        ));
    }
    if selection.max_weight() > 1 {
        return Err(ProtocolError::Config(
            "plain baseline supports 0/1 selections only".into(),
        ));
    }
    let (mut cw, mut sw) = SimLink::pair(link.clone());

    let start = Instant::now();
    let indices: Vec<u64> = selection
        .weights()
        .iter()
        .enumerate()
        .filter(|(_, &w)| w != 0)
        .map(|(i, _)| i as u64)
        .collect();
    let prep = start.elapsed();
    cw.send(PlainIndices { indices }.encode()?)?;

    let mut server = ServerSession::new(db);
    pump_server(&mut server, &mut sw)?;

    let reply = cw.recv()?;
    let start = Instant::now();
    let sum = PlainSum::decode(&reply)?.sum;
    let decode = start.elapsed();

    let expected = db.oracle_sum(selection)?;
    if sum != expected {
        return Err(ProtocolError::Config("baseline sum mismatch".into()));
    }
    let stats = cw.stats();
    Ok(RunReport {
        variant: Variant::PlainIndices,
        n: db.len(),
        selected: selection.selected_count(),
        key_bits: 0,
        link: link.name.to_string(),
        client_offline: Duration::ZERO,
        client_encrypt: prep,
        server_compute: server.stats().compute,
        comm: cw.virtual_elapsed(),
        client_decrypt: decode,
        pipelined_total: None,
        bytes_to_server: stats.payload_bytes_sent,
        bytes_to_client: stats.payload_bytes_received,
        messages: stats.messages_sent + stats.messages_received,
        result: sum,
    })
}

/// §2's other trivial baseline: the server dumps the database and the
/// client sums locally. Fast, but the client learns everything.
///
/// # Errors
/// Configuration and transport failures.
pub fn run_download_baseline(
    db: &Database,
    selection: &Selection,
    link: LinkProfile,
) -> Result<RunReport, ProtocolError> {
    if selection.len() != db.len() {
        return Err(ProtocolError::Config(
            "selection/database length mismatch".into(),
        ));
    }
    let (mut cw, mut sw) = SimLink::pair(link.clone());
    let mut server = ServerSession::new(db);
    sw.send(server.dump()?)?;

    let frame = cw.recv()?;
    let start = Instant::now();
    let dump = Dump::decode(&frame)?;
    let sum: u128 = dump
        .values
        .iter()
        .zip(selection.weights())
        .map(|(&x, &w)| x as u128 * w as u128)
        .sum();
    let client_time = start.elapsed();

    let expected = db.oracle_sum(selection)?;
    if sum != expected {
        return Err(ProtocolError::Config("baseline sum mismatch".into()));
    }
    let stats = cw.stats();
    Ok(RunReport {
        variant: Variant::DownloadAll,
        n: db.len(),
        selected: selection.selected_count(),
        key_bits: 0,
        link: link.name.to_string(),
        client_offline: Duration::ZERO,
        client_encrypt: client_time,
        server_compute: server.stats().compute,
        comm: cw.virtual_elapsed(),
        client_decrypt: Duration::ZERO,
        pipelined_total: None,
        bytes_to_server: stats.payload_bytes_sent,
        bytes_to_client: stats.payload_bytes_received,
        messages: stats.messages_sent + stats.messages_received,
        result: sum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (Database, Selection, SumClient, StdRng) {
        let mut rng = StdRng::seed_from_u64(1234);
        let db = Database::random(n, 1000, &mut rng).unwrap();
        let sel = Selection::random(n, 0.5, &mut rng).unwrap();
        let client = SumClient::generate(128, &mut rng).unwrap();
        (db, sel, client, rng)
    }

    #[test]
    fn basic_run_report() {
        let (db, sel, client, mut rng) = setup(40);
        let r = run_basic(&db, &sel, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
        assert_eq!(r.n, 40);
        assert_eq!(r.variant, Variant::Basic);
        assert_eq!(r.result, db.oracle_sum(&sel).unwrap());
        assert!(r.client_encrypt > Duration::ZERO);
        assert!(r.server_compute > Duration::ZERO);
        assert!(r.comm > Duration::ZERO);
        assert!(r.pipelined_total.is_none());
        // One hello + one batch + one product.
        assert_eq!(r.messages, 3);
        // Upstream bytes dominated by n fixed-width ciphertexts.
        assert!(r.bytes_to_server >= 40 * client.keypair().public.ciphertext_bytes());
        assert!(r.bytes_to_client >= client.keypair().public.ciphertext_bytes());
    }

    #[test]
    fn batched_run_overlaps() {
        let (db, sel, client, mut rng) = setup(60);
        let r = run_batched(&db, &sel, &client, LinkProfile::gigabit_lan(), 10, &mut rng).unwrap();
        assert_eq!(r.variant, Variant::Batched);
        let pipelined = r.pipelined_total.expect("batched reports a makespan");
        assert!(pipelined <= r.total_sequential());
        assert_eq!(r.result, db.oracle_sum(&sel).unwrap());
        // 60/10 batches + hello + product.
        assert_eq!(r.messages, 8);
    }

    #[test]
    fn preprocessed_run_shifts_cost_offline() {
        let (db, sel, client, mut rng) = setup(40);
        let basic = run_basic(&db, &sel, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
        let prep =
            run_preprocessed(&db, &sel, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
        assert_eq!(prep.result, basic.result);
        assert!(prep.client_offline > Duration::ZERO);
        // The paper's ≈82% effect: online client time collapses.
        assert!(
            prep.client_encrypt < basic.client_encrypt / 4,
            "online encrypt {:?} should be far below fresh {:?}",
            prep.client_encrypt,
            basic.client_encrypt
        );
    }

    #[test]
    fn combined_run() {
        let (db, sel, client, mut rng) = setup(50);
        let r = run_combined(&db, &sel, &client, LinkProfile::gigabit_lan(), 10, &mut rng).unwrap();
        assert_eq!(r.variant, Variant::Combined);
        assert!(r.client_offline > Duration::ZERO);
        assert!(r.pipelined_total.is_some());
        assert_eq!(r.result, db.oracle_sum(&sel).unwrap());
    }

    #[test]
    fn weighted_run() {
        let mut rng = StdRng::seed_from_u64(4321);
        let db = Database::new(vec![10, 20, 30, 40]).unwrap();
        let sel = Selection::weighted(vec![1, 0, 2, 3]);
        let client = SumClient::generate(128, &mut rng).unwrap();
        let r = run_weighted(&db, &sel, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
        assert_eq!(r.result, 10 + 60 + 120);
    }

    #[test]
    fn baselines() {
        let (db, sel, _, _) = setup(30);
        let plain = run_plain_baseline(&db, &sel, LinkProfile::gigabit_lan()).unwrap();
        assert_eq!(plain.result, db.oracle_sum(&sel).unwrap());
        assert_eq!(plain.key_bits, 0);
        let dl = run_download_baseline(&db, &sel, LinkProfile::gigabit_lan()).unwrap();
        assert_eq!(dl.result, plain.result);
        // Download ships the whole database; plain ships only indices.
        assert!(dl.bytes_to_client > plain.bytes_to_server);
        // Weighted selections are rejected by the plain baseline.
        let w = Selection::weighted(vec![2; 30]);
        assert!(run_plain_baseline(&db, &w, LinkProfile::gigabit_lan()).is_err());
    }

    #[test]
    fn length_mismatch_rejected() {
        let (db, _, client, mut rng) = setup(10);
        let bad = Selection::from_bits(&[true; 5]);
        assert!(run_basic(&db, &bad, &client, LinkProfile::gigabit_lan(), &mut rng).is_err());
        assert!(run_plain_baseline(&db, &bad, LinkProfile::gigabit_lan()).is_err());
        assert!(run_download_baseline(&db, &bad, LinkProfile::gigabit_lan()).is_err());
    }

    #[test]
    fn message_space_guard_trips() {
        // A 64-bit key cannot hold sums of huge values.
        let mut rng = StdRng::seed_from_u64(5);
        let client = SumClient::generate(64, &mut rng).unwrap();
        let db = Database::new(vec![u64::MAX / 2; 8]).unwrap();
        let sel = Selection::from_bits(&[true; 8]);
        assert!(matches!(
            run_basic(&db, &sel, &client, LinkProfile::gigabit_lan(), &mut rng),
            Err(ProtocolError::SumOverflow { .. })
        ));
    }

    #[test]
    fn modem_link_inflates_comm() {
        let (db, sel, client, mut rng) = setup(20);
        let lan = run_basic(&db, &sel, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
        let modem = run_basic(&db, &sel, &client, LinkProfile::modem_56k(), &mut rng).unwrap();
        assert!(
            modem.comm > lan.comm * 100,
            "56k comm must dwarf gigabit comm"
        );
        assert_eq!(modem.result, lan.result);
    }
}
