//! Multi-client private sum with blinded partial sums — §3.5 / Fig. 8.
//!
//! `k` cooperating clients each hold the index weights for `1/k` of the
//! database and want their *joint* selected sum without any of them (or
//! the server) learning the partial sums. Protocol:
//!
//! **Phase 1** — each client `C_i` runs the single-client protocol on its
//! shard under its own key. The server blinds each partial product by
//! homomorphically adding a random `R_i`, where `Σ R_i ≡ 0 (mod M)` for a
//! public blinding modulus `M`; `C_i` therefore decrypts only the blinded
//! partial sum `P_i + R_i`.
//!
//! **Phase 2** — a ring pass: `C_1` sends its blinded value to `C_2`, each
//! `C_i` adds its own and forwards, and `C_k` obtains
//! `Σ(P_i + R_i) ≡ Σ P_i (mod M)` — the true sum, with all blinding
//! cancelled — and broadcasts it.
//!
//! `M` must satisfy `M + max_sum < min_i N_i` so that no blinded partial
//! wraps the Paillier message space (we pick `M = 2^(min key bits − 2)`),
//! and `max_sum < M` so the final reduction is exact.

use std::time::{Duration, Instant};

use pps_bignum::Uint;
use pps_transport::{LinkProfile, SimLink, Wire};
use rand::RngCore;

use crate::client::{IndexSource, SumClient};
use crate::data::{Database, Selection};
use crate::error::ProtocolError;
use crate::messages::{RingPartial, RingTotal};
use crate::report::{RunReport, Variant};
use crate::run::RunConfig;
use crate::server::ServerSession;

/// Per-client component timings from a multi-client run.
#[derive(Clone, Debug)]
pub struct ClientLeg {
    /// Rows in this client's shard.
    pub shard_len: usize,
    /// Online encryption time.
    pub encrypt: Duration,
    /// Server compute time for this shard.
    pub server_compute: Duration,
    /// Simulated communication time for this leg.
    pub comm: Duration,
    /// Decryption time of the blinded partial.
    pub decrypt: Duration,
}

impl ClientLeg {
    /// Sequential wall time of this leg.
    pub fn total(&self) -> Duration {
        self.encrypt + self.server_compute + self.comm + self.decrypt
    }
}

/// Result of a multi-client run.
#[derive(Clone, Debug)]
pub struct MultiClientReport {
    /// Aggregate report (parallel wall-clock model; see [`run_multiclient`]).
    pub aggregate: RunReport,
    /// Per-client legs.
    pub legs: Vec<ClientLeg>,
    /// Virtual time of the phase-2 ring pass.
    pub ring_comm: Duration,
}

/// Splits `n` rows into `k` contiguous shards (the last takes the
/// remainder).
fn shard_ranges(n: usize, k: usize) -> Vec<(usize, usize)> {
    let base = n / k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = if i == k - 1 { n - start } else { base };
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Runs the §3.5 protocol with `k` clients over `link`.
///
/// The clients operate in parallel in the real protocol; this driver runs
/// them sequentially and models parallel wall time as the *maximum* leg
/// plus the ring-combination overhead, which is how the paper's ≈k-fold
/// speed-up arises.
///
/// # Errors
/// Configuration, crypto, and transport failures; result/oracle mismatch.
pub fn run_multiclient(
    db: &Database,
    selection: &Selection,
    k: usize,
    key_bits: usize,
    link: LinkProfile,
    rng: &mut dyn RngCore,
) -> Result<MultiClientReport, ProtocolError> {
    if k == 0 {
        return Err(ProtocolError::Config("need at least one client".into()));
    }
    if db.len() < k {
        return Err(ProtocolError::Config(format!(
            "database of {} rows cannot be split across {k} clients",
            db.len()
        )));
    }
    if selection.len() != db.len() {
        return Err(ProtocolError::Config(
            "selection/database length mismatch".into(),
        ));
    }
    // `M = 2^(min_bits − 2)` below: with no floor on the requested key
    // width the subtraction underflows (and `shl` then aborts on an
    // absurd shift) instead of failing typed.
    if key_bits < crate::shard::MIN_BLINDING_KEY_BITS {
        return Err(ProtocolError::Config(format!(
            "key width {key_bits} bits is too small for a blinding modulus \
             (need at least {})",
            crate::shard::MIN_BLINDING_KEY_BITS
        )));
    }

    // Each client generates its own key, "independently and in parallel".
    let clients: Vec<SumClient> = (0..k)
        .map(|_| SumClient::generate(key_bits, rng))
        .collect::<Result<_, _>>()?;

    // Public blinding modulus M = 2^(min key bits - 2).
    let min_bits = clients
        .iter()
        .map(|c| c.keypair().public.key_bits())
        .min()
        .expect("k >= 1");
    let m = Uint::one().shl(min_bits - 2);

    // Worst-case sum must stay below M (and below every N_i with M of
    // headroom, which min_bits - 2 guarantees).
    let worst = (db.len() as u128)
        .checked_mul(db.bound() as u128)
        .and_then(|v| v.checked_mul(selection.max_weight().max(1) as u128))
        .map(Uint::from_u128);
    match worst {
        Some(w) if w < m => {}
        _ => {
            return Err(ProtocolError::SumOverflow {
                needed_bits: worst.map_or(129, |w| w.bit_len()),
                available_bits: min_bits - 2,
            })
        }
    }

    // Server draws blindings with Σ R_i ≡ 0 (mod M).
    let mut blindings = Vec::with_capacity(k);
    let mut acc = Uint::zero();
    for _ in 0..k - 1 {
        let r = Uint::random_below(rng, &m).map_err(pps_crypto::CryptoError::from)?;
        acc = acc.mod_add(&r, &m).map_err(pps_crypto::CryptoError::from)?;
        blindings.push(r);
    }
    blindings.push(acc.mod_neg(&m).map_err(pps_crypto::CryptoError::from)?);

    // Phase 1: each client learns its blinded partial sum.
    let ranges = shard_ranges(db.len(), k);
    let mut legs = Vec::with_capacity(k);
    let mut blinded_partials = Vec::with_capacity(k);
    let mut total_bytes_up = 0usize;
    let mut total_bytes_down = 0usize;
    let mut total_messages = 0usize;

    for (i, client) in clients.iter().enumerate() {
        let (lo, hi) = ranges[i];
        let shard_db = Database::new(db.values()[lo..hi].to_vec())?;
        let shard_sel = Selection::weighted(selection.weights()[lo..hi].to_vec());

        let (mut cw, mut sw) = SimLink::pair(link.clone());
        let config = RunConfig::unbatched(link.clone());
        let mut source = IndexSource::Fresh(rng);
        let send_stats = client.send_query(
            &mut cw,
            &shard_sel,
            config.batch_size.min(shard_sel.len()).max(1),
            &mut source,
        )?;

        let mut server = ServerSession::with_blinding(&shard_db, blindings[i].clone());
        crate::run::pump_server(&mut server, &mut sw)?;

        let reply = cw.recv()?;
        let (blinded, decrypt) = client.decrypt_product(&reply)?;
        // No wraparound by construction (P_i + R_i < N_i), so reducing
        // mod M yields (P_i + R_i) mod M exactly.
        blinded_partials.push(blinded.rem_of(&m).map_err(pps_crypto::CryptoError::from)?);

        let stats = cw.stats();
        total_bytes_up += stats.payload_bytes_sent;
        total_bytes_down += stats.payload_bytes_received;
        total_messages += stats.messages_sent + stats.messages_received;
        legs.push(ClientLeg {
            shard_len: hi - lo,
            encrypt: send_stats.encrypt,
            server_compute: server.stats().compute,
            comm: cw.virtual_elapsed(),
            decrypt,
        });
    }

    // Phase 2: ring combination C_1 → C_2 → … → C_k, then broadcast.
    let (mut ring_a, mut ring_b) = SimLink::pair(link.clone());
    let ring_start = Instant::now();
    let mut running = blinded_partials[0].clone();
    for partial in blinded_partials.iter().skip(1) {
        ring_a.send(
            RingPartial {
                running: running.clone(),
            }
            .encode()?,
        )?;
        let frame = ring_b.recv()?;
        let received = RingPartial::decode(&frame)?.running;
        running = received
            .mod_add(partial, &m)
            .map_err(pps_crypto::CryptoError::from)?;
    }
    // Broadcast the total to the other k-1 clients.
    let total_frame = RingTotal {
        total: running.clone(),
    }
    .encode()?;
    for _ in 0..k.saturating_sub(1) {
        ring_a.send(total_frame.clone())?;
        let _ = ring_b.recv()?;
    }
    let ring_cpu = ring_start.elapsed();
    let ring_comm = ring_a.virtual_elapsed();
    let ring_stats = ring_a.stats();
    total_bytes_up += ring_stats.payload_bytes_sent;
    total_messages += ring_stats.messages_sent;

    // Verify against the oracle.
    let expected = db.oracle_sum(selection)?;
    let got = running
        .to_u128()
        .ok_or_else(|| ProtocolError::Config("combined sum exceeds 128 bits".into()))?;
    if got != expected {
        return Err(ProtocolError::Config(format!(
            "multi-client result {got} disagrees with oracle {expected}"
        )));
    }

    // Parallel wall-clock model: the k legs run concurrently, so each
    // component is the max across legs; the ring pass is serial on top.
    let max = |f: fn(&ClientLeg) -> Duration| legs.iter().map(f).max().unwrap_or_default();
    let aggregate = RunReport {
        variant: Variant::MultiClient { k },
        n: db.len(),
        selected: selection.selected_count(),
        key_bits,
        link: link.name.to_string(),
        client_offline: Duration::ZERO,
        client_encrypt: max(|l| l.encrypt),
        server_compute: max(|l| l.server_compute),
        comm: max(|l| l.comm) + ring_comm,
        client_decrypt: max(|l| l.decrypt) + ring_cpu,
        pipelined_total: None,
        bytes_to_server: total_bytes_up,
        bytes_to_client: total_bytes_down,
        messages: total_messages,
        result: got,
    };

    Ok(MultiClientReport {
        aggregate,
        legs,
        ring_comm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (Database, Selection, StdRng) {
        let mut rng = StdRng::seed_from_u64(777);
        let db = Database::random(n, 1000, &mut rng).unwrap();
        let sel = Selection::random(n, 0.4, &mut rng).unwrap();
        (db, sel, rng)
    }

    #[test]
    fn shard_ranges_cover() {
        assert_eq!(shard_ranges(10, 3), vec![(0, 3), (3, 6), (6, 10)]);
        assert_eq!(shard_ranges(9, 3), vec![(0, 3), (3, 6), (6, 9)]);
        assert_eq!(shard_ranges(5, 1), vec![(0, 5)]);
        assert_eq!(
            shard_ranges(5, 5),
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        );
    }

    #[test]
    fn three_clients_match_oracle() {
        let (db, sel, mut rng) = setup(30);
        let r = run_multiclient(&db, &sel, 3, 128, LinkProfile::gigabit_lan(), &mut rng).unwrap();
        assert_eq!(r.aggregate.result, db.oracle_sum(&sel).unwrap());
        assert_eq!(r.legs.len(), 3);
        assert_eq!(r.legs.iter().map(|l| l.shard_len).sum::<usize>(), 30);
        assert_eq!(r.aggregate.variant, Variant::MultiClient { k: 3 });
    }

    #[test]
    fn single_client_degenerate_case() {
        let (db, sel, mut rng) = setup(12);
        let r = run_multiclient(&db, &sel, 1, 128, LinkProfile::gigabit_lan(), &mut rng).unwrap();
        assert_eq!(r.aggregate.result, db.oracle_sum(&sel).unwrap());
    }

    #[test]
    fn uneven_shards() {
        // 10 rows across 4 clients: shards of 2,2,2,4.
        let (db, sel, mut rng) = setup(10);
        let r = run_multiclient(&db, &sel, 4, 128, LinkProfile::gigabit_lan(), &mut rng).unwrap();
        assert_eq!(r.aggregate.result, db.oracle_sum(&sel).unwrap());
        assert_eq!(r.legs[3].shard_len, 4);
    }

    #[test]
    fn parallel_model_speedup() {
        // The aggregate encrypt time is the max leg, i.e. ≈ 1/k of the
        // total encryption work — the source of Fig. 9's ≈3× gain.
        let (db, sel, mut rng) = setup(30);
        let r = run_multiclient(&db, &sel, 3, 128, LinkProfile::gigabit_lan(), &mut rng).unwrap();
        let total_encrypt: Duration = r.legs.iter().map(|l| l.encrypt).sum();
        assert!(r.aggregate.client_encrypt < total_encrypt);
    }

    #[test]
    fn rejects_bad_configs() {
        let (db, sel, mut rng) = setup(6);
        assert!(run_multiclient(&db, &sel, 0, 128, LinkProfile::gigabit_lan(), &mut rng).is_err());
        assert!(run_multiclient(&db, &sel, 7, 128, LinkProfile::gigabit_lan(), &mut rng).is_err());
        let short = Selection::from_bits(&[true; 3]);
        assert!(
            run_multiclient(&db, &short, 2, 128, LinkProfile::gigabit_lan(), &mut rng).is_err()
        );
    }

    #[test]
    fn tiny_key_is_a_config_error_not_a_panic() {
        // Regression: `min_bits - 2` underflowed for degenerate key
        // widths. The request must die as a typed Config error before
        // any key is generated.
        let (db, sel, mut rng) = setup(6);
        for bits in [0usize, 1, 2, 8] {
            match run_multiclient(&db, &sel, 2, bits, LinkProfile::gigabit_lan(), &mut rng) {
                Err(ProtocolError::Config(msg)) => {
                    assert!(msg.contains("too small"), "bits={bits}: {msg}")
                }
                other => panic!("bits={bits}: expected Config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn one_row_per_client_degenerate_split() {
        // db.len() == k: every shard is a single row, the other
        // degenerate split besides k = 1.
        let (db, sel, mut rng) = setup(4);
        let r = run_multiclient(&db, &sel, 4, 128, LinkProfile::gigabit_lan(), &mut rng).unwrap();
        assert_eq!(r.aggregate.result, db.oracle_sum(&sel).unwrap());
        assert_eq!(r.legs.len(), 4);
        assert!(r.legs.iter().all(|l| l.shard_len == 1));
    }

    #[test]
    fn overflow_guard() {
        let mut rng = StdRng::seed_from_u64(9);
        let db = Database::new(vec![u64::MAX / 2; 4]).unwrap();
        let sel = Selection::from_bits(&[true; 4]);
        assert!(matches!(
            run_multiclient(&db, &sel, 2, 64, LinkProfile::gigabit_lan(), &mut rng),
            Err(ProtocolError::SumOverflow { .. })
        ));
    }

    #[test]
    fn blinding_sums_to_zero_mod_m() {
        // Statistical check via the protocol itself: many runs, all exact.
        let (db, sel, mut rng) = setup(9);
        for _ in 0..3 {
            let r =
                run_multiclient(&db, &sel, 3, 128, LinkProfile::gigabit_lan(), &mut rng).unwrap();
            assert_eq!(r.aggregate.result, db.oracle_sum(&sel).unwrap());
        }
    }
}
