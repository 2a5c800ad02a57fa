//! Networked sharded queries: blinded partial sums over `k` parallel
//! TCP shard legs (§3.5's multi-database extension).
//!
//! Each shard worker owns one horizontal partition of the database and
//! answers the ordinary streaming protocol — except that the very first
//! message on every connection is a [`ShardHello`] carrying the
//! pairwise blinding seeds for that worker's position in the fan-out.
//! The worker folds its correlated blinding
//! `R_i = Σ_{j>i} r_ij − Σ_{j<i} r_ji (mod M)` into its accumulator, so
//! the value it returns is uniform in `M = 2^(key_bits − 2)` to anyone
//! who is missing even one of its pairwise seeds: no single worker or
//! transport observer learns another partition's true partial. Over
//! all `k` workers the blindings telescope to `Σ R_i ≡ 0 (mod M)` —
//! summing the decrypted partials mod `M` cancels every blinding and
//! yields the true selected sum, with **no worker-to-worker traffic at
//! query time** (the paper's key §3.5 property).
//!
//! **Fault tolerance is per leg.** Every leg runs the PR 3/PR 5 retry
//! and resume machinery independently: when one shard's connection dies
//! mid-stream, only that leg reconnects and continues from its own
//! server-side checkpoint (which carries the blinding, so a resumed
//! partial is still blinded); the other legs are untouched and re-send
//! zero bytes.
//!
//! **Trust model.** The client distributes the pairwise seeds at query
//! time, standing in for the out-of-band pairwise enrollment the paper
//! assumes between servers. That shortcut has a real cost: because the
//! client dealt **every** seed, it can recompute each worker's `R_i`
//! ([`leg_blinding`] is deterministic in the seeds) and unblind each
//! partial by itself — in this deployment the blinding provides **no
//! privacy against the client**. What it does protect is the workers
//! from *each other* and from transport observers: worker `i` misses
//! the pairwise seeds it is not party to, so worker `j`'s partial is
//! uniform in `M` from its point of view, and a coalition must reach
//! `k − 1` workers (plus the wire) before the remaining partial falls.
//! The paper's stronger bound — partials hidden even from the querier,
//! colluding with up to `k − 1` servers — requires the servers to
//! establish the pairwise seeds out-of-band among themselves; the wire
//! protocol already carries everything else needed for that
//! deployment, only the seed dealer ([`deal_pairwise_seeds`]) changes.
//! The `k = 1` degenerate fan-out has no pairs and therefore
//! `R_0 = 0`: the one partial *is* the total, which the client learns
//! anyway.

use std::io::{Read, Write};

use pps_bignum::Uint;
use pps_crypto::{CryptoError, CtrPrg};
use pps_transport::{StreamWire, TcpWire, TrafficStats, Wire};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::client::SumClient;
use crate::data::Selection;
use crate::error::ProtocolError;
use crate::messages::{ShardHello, SizeReply, SizeRequest};
use crate::obs::ShardObs;
use crate::tcp_client::{
    run_stream_query_raw, PresetQuery, QueryTrace, RawQueryOutcome, TcpQueryConfig,
};

/// Width in bytes of each pairwise blinding seed the dealer draws.
const SEED_BYTES: usize = 32;

/// Narrowest key a blinded fan-out accepts: the blinding modulus is
/// `M = 2^(key_bits − 2)`, and below this floor `M` has no room for any
/// actual sum (and the subtraction itself would underflow at 0/1 bits).
pub const MIN_BLINDING_KEY_BITS: usize = 16;

/// One leg's share of the pairwise blinding seeds: the two lists its
/// [`ShardHello`] carries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LegSeeds {
    /// Seeds of the leg's pairs `(i, j)`, `j > i`: their shares are added.
    pub seeds_add: Vec<Vec<u8>>,
    /// Seeds of the pairs `(j, i)`, `j < i`: their shares are subtracted.
    pub seeds_sub: Vec<Vec<u8>>,
}

/// Deals the pairwise blinding seeds of a `k`-leg fan-out, one
/// [`LegSeeds`] per leg. One seed is drawn per pair `i < j`, in
/// row-major order (`(0, 1), (0, 2), …, (1, 2), …`), and handed to both
/// legs of the pair, so the `k` net blindings [`leg_blinding`] derives
/// cancel mod `M`.
pub fn deal_pairwise_seeds(k: usize, rng: &mut dyn RngCore) -> Vec<LegSeeds> {
    let mut legs = vec![LegSeeds::default(); k];
    for i in 0..k {
        for j in i + 1..k {
            let mut seed = vec![0u8; SEED_BYTES];
            rng.fill_bytes(&mut seed);
            legs[j].seeds_sub.push(seed.clone());
            legs[i].seeds_add.push(seed);
        }
    }
    legs
}

/// Derives the blinding value shared by legs `i < j` from their pair
/// seed: both endpoints compute the identical `r_ij ∈ [0, M)`.
///
/// # Errors
/// Propagates bignum sampling failures (a zero modulus).
pub fn pair_blinding(seed: &[u8], m: &Uint) -> Result<Uint, ProtocolError> {
    let mut prg = CtrPrg::new(seed);
    Uint::random_below(&mut prg, m).map_err(bignum)
}

/// Computes one worker's net blinding `R_i` from the two seed lists its
/// `ShardHello` carries: shares derived from `seeds_add` are added,
/// shares from `seeds_sub` subtracted (mod `M`). A worker never sees
/// the seeds of pairs it is not part of.
///
/// # Errors
/// Propagates bignum sampling/arithmetic failures.
pub fn leg_blinding(
    seeds_add: &[Vec<u8>],
    seeds_sub: &[Vec<u8>],
    m: &Uint,
) -> Result<Uint, ProtocolError> {
    let mut r = Uint::zero();
    for seed in seeds_add {
        let share = pair_blinding(seed, m)?;
        r = r.mod_add(&share, m).map_err(bignum)?;
    }
    for seed in seeds_sub {
        let share = pair_blinding(seed, m)?;
        let neg = share.mod_neg(m).map_err(bignum)?;
        r = r.mod_add(&neg, m).map_err(bignum)?;
    }
    Ok(r)
}

/// Upper bound on the row count a single shard may claim at size
/// discovery. `SizeReply.n` is attacker-controlled (a malicious or
/// buggy worker can report anything); an implausible size is refused
/// instead of being folded into the offset arithmetic.
const MAX_SHARD_ROWS: u64 = 1 << 40;

/// Configuration for a sharded query.
#[derive(Clone, Debug, Default)]
pub struct ShardQueryConfig {
    /// Per-leg transport configuration: batch size, deadlines, and the
    /// retry policy each leg applies independently.
    pub tcp: TcpQueryConfig,
    /// When the client knows the servers' value bound, the engine
    /// pre-checks that the worst-case total `n_total · bound` fits the
    /// blinding modulus `M = 2^(key_bits − 2)` and fails with
    /// [`ProtocolError::SumOverflow`] before streaming anything. `None`
    /// skips the check (the sum is still correct mod `M`).
    pub value_bound: Option<u64>,
}

/// What one shard leg did: its blinded partial and its retry history.
#[derive(Clone, Debug)]
pub struct ShardLegReport {
    /// Leg index `i` in the fan-out, `0 ≤ i < k`.
    pub leg: usize,
    /// Rows this shard reported owning at size discovery.
    pub rows: usize,
    /// The decrypted **blinded** partial `(data_i + R_i)` — uniform in
    /// `M` for `k > 1` to any party missing one of leg `i`'s pairwise
    /// seeds. The seed-dealing client itself can reconstruct `R_i` and
    /// unblind it (see the module-level trust model).
    pub blinded_partial: Uint,
    /// Attempts this leg made (1 = clean).
    pub attempts: u32,
    /// Attempts that continued from a surviving server checkpoint
    /// instead of re-issuing the leg's whole query.
    pub resumed_attempts: u32,
    /// Encrypted-payload bytes written by each of this leg's attempts,
    /// in order.
    pub attempt_payload_bytes: Vec<usize>,
    /// Traffic counters of this leg's successful attempt.
    pub traffic: TrafficStats,
}

/// Result of a sharded query.
#[derive(Clone, Debug)]
pub struct ShardQueryOutcome {
    /// The private selected sum, with every blinding cancelled.
    pub sum: u128,
    /// Total rows across all shards (the global index space).
    pub n: usize,
    /// Rows selected (global indices requested).
    pub selected: usize,
    /// Per-leg reports, in leg order.
    pub legs: Vec<ShardLegReport>,
}

fn bignum(e: pps_bignum::BignumError) -> ProtocolError {
    ProtocolError::Crypto(CryptoError::from(e))
}

/// Everything one leg needs, assembled before the fan-out so the
/// spawned threads stay simple.
struct LegPlan<S, F> {
    leg: usize,
    connect: F,
    /// The discovery connection, reused as attempt 1's wire.
    wire: StreamWire<S>,
    hello: pps_transport::Frame,
    rows: usize,
    local: Vec<usize>,
    rng_seed: [u8; 32],
}

fn run_leg<S, F>(
    mut plan: LegPlan<S, F>,
    client: &SumClient,
    config: &TcpQueryConfig,
    tracer: Option<&pps_obs::Tracer>,
) -> Result<RawQueryOutcome, ProtocolError>
where
    S: Read + Write,
    F: FnMut(u32) -> Result<StreamWire<S>, ProtocolError>,
{
    let preset = PresetQuery {
        n: plan.rows,
        selection: Selection::from_indices(plan.rows, &plan.local)?,
    };
    let trace = tracer.map(|tracer| QueryTrace {
        tracer,
        session: Some(plan.leg as u64),
        obs: None,
    });
    let mut first = Some(plan.wire);
    let inner = &mut plan.connect;
    let hello = &plan.hello;
    // Attempt 1 reuses the discovery connection (its ShardHello is
    // already installed); every reconnect re-opens the handshake so the
    // fresh server session is blinded before any other message.
    let mut connect = move |attempt: u32| -> Result<StreamWire<S>, ProtocolError> {
        if let Some(wire) = first.take() {
            return Ok(wire);
        }
        let mut wire = inner(attempt)?;
        wire.send(hello.clone())?;
        Ok(wire)
    };
    let mut rng = StdRng::from_seed(plan.rng_seed);
    run_stream_query_raw(
        &mut connect,
        client,
        &[],
        config,
        &mut rng,
        Some(preset),
        trace.as_ref(),
    )
}

/// Runs one private selected-sum query fanned out over `legs.len()`
/// shard workers, each reached through its own connector. `select`
/// holds **global** row indices over the concatenation of the shards'
/// partitions in leg order; the engine discovers each shard's size,
/// splits the selection, and runs the `k` legs concurrently — each with
/// independent retry/resume — before combining the blinded partials
/// mod `M = 2^(key_bits − 2)`.
///
/// Each connector is called once per attempt of its leg with the
/// 1-based attempt number, exactly as
/// [`run_stream_query_with_resume`](crate::run_stream_query_with_resume)
/// does; fault-injection harnesses drive this directly over
/// instrumented streams.
///
/// # Errors
/// [`ProtocolError::Config`] on an empty fan-out, a key too narrow to
/// blind, or an out-of-range global index;
/// [`ProtocolError::SumOverflow`] when `value_bound` shows the
/// worst-case total cannot fit the blinding modulus; otherwise the
/// first failing leg's error.
pub fn run_sharded_query_with<S, F>(
    legs: Vec<F>,
    client: &SumClient,
    select: &[usize],
    config: &ShardQueryConfig,
    obs: Option<&ShardObs>,
    rng: &mut dyn RngCore,
) -> Result<ShardQueryOutcome, ProtocolError>
where
    S: Read + Write + Send,
    F: FnMut(u32) -> Result<StreamWire<S>, ProtocolError> + Send,
{
    let k = legs.len();
    if k == 0 {
        return Err(ProtocolError::Config(
            "sharded query needs at least one shard".into(),
        ));
    }
    let key_bits = client.keypair().public.key_bits();
    if key_bits < MIN_BLINDING_KEY_BITS {
        return Err(ProtocolError::Config(format!(
            "key width {key_bits} bits is too small for a blinding modulus \
             (need at least {MIN_BLINDING_KEY_BITS})"
        )));
    }
    let m_bits = key_bits - 2;
    let m = Uint::one().shl(m_bits);

    let hellos: Vec<pps_transport::Frame> = deal_pairwise_seeds(k, rng)
        .into_iter()
        .enumerate()
        .map(
            |(
                i,
                LegSeeds {
                    seeds_add,
                    seeds_sub,
                },
            )| {
                ShardHello {
                    shard_index: i as u32,
                    shard_count: k as u32,
                    m_bits: m_bits as u32,
                    seeds_add,
                    seeds_sub,
                    trace: config.tcp.trace,
                }
                .encode()
                .map_err(ProtocolError::from)
            },
        )
        .collect::<Result<_, _>>()?;

    // Phase A — sequential size discovery. Each leg's first connection
    // opens with its ShardHello (so a `require_shard` worker accepts
    // it) and asks for the shard's row count; the connection is kept
    // and becomes attempt 1 of the streaming phase.
    let mut wires = Vec::with_capacity(k);
    let mut shard_rows = Vec::with_capacity(k);
    let mut legs = legs;
    for (i, connect) in legs.iter_mut().enumerate() {
        let mut wire = connect(1)?;
        wire.send(hellos[i].clone())?;
        wire.send(SizeRequest.encode()?)?;
        let reported = SizeReply::decode(&wire.recv()?)?.n;
        // The reply is worker-controlled: cap it before it enters the
        // offset arithmetic below, where a huge value would wrap in
        // release builds and silently misroute the selection split.
        if reported > MAX_SHARD_ROWS {
            return Err(ProtocolError::Config(format!(
                "shard {i} claims {reported} rows, above the \
                 {MAX_SHARD_ROWS}-row cap"
            )));
        }
        wires.push(wire);
        shard_rows.push(reported as usize);
    }

    // Partition offsets and the global row count, with the accumulation
    // checked: even capped sizes must not be allowed to wrap the total.
    let mut offsets = Vec::with_capacity(k);
    let mut acc = 0usize;
    for (i, &rows) in shard_rows.iter().enumerate() {
        offsets.push(acc);
        acc = acc
            .checked_add(rows)
            .ok_or_else(|| ProtocolError::Config(format!("shard sizes overflow at shard {i}")))?;
    }
    let n_total = acc;

    if let Some(bound) = config.value_bound {
        // Mirror of check_message_space, against the blinding modulus:
        // the client has no database to hand the real check, but it
        // knows the shard sizes and (optionally) the value bound.
        let needed_bits = match (n_total as u128).checked_mul(bound as u128) {
            Some(w) => Uint::from_u128(w).bit_len(),
            None => 129,
        };
        if needed_bits > m_bits {
            return Err(ProtocolError::SumOverflow {
                needed_bits,
                available_bits: m_bits,
            });
        }
    }

    // Split the global selection into per-shard local index lists.
    let mut locals: Vec<Vec<usize>> = vec![Vec::new(); k];
    for &g in select {
        if g >= n_total {
            return Err(ProtocolError::Config(format!(
                "index {g} out of range 0..{n_total}"
            )));
        }
        let leg = offsets.partition_point(|&o| o <= g) - 1;
        locals[leg].push(g - offsets[leg]);
    }

    // Per-leg rng seeds drawn before the fan-out: the engine takes one
    // &mut rng but each thread needs its own independent stream. Seeds
    // are full-width (256-bit) — the leg rng drives the Paillier
    // encryption randomness, whose entropy must not collapse to 64
    // bits below the key's security level.
    let plans: Vec<LegPlan<S, F>> = {
        let mut plans = Vec::with_capacity(k);
        let mut locals = locals.into_iter();
        let mut wires = wires.into_iter();
        let mut hellos = hellos.into_iter();
        for (i, connect) in legs.into_iter().enumerate() {
            plans.push(LegPlan {
                leg: i,
                connect,
                wire: wires.next().expect("one wire per leg"),
                hello: hellos.next().expect("one hello per leg"),
                rows: shard_rows[i],
                local: locals.next().expect("one split per leg"),
                rng_seed: {
                    let mut seed = [0u8; 32];
                    rng.fill_bytes(&mut seed);
                    seed
                },
            });
        }
        plans
    };

    // Phase B — the fan-out: k concurrent legs, each independently
    // retrying/resuming over its own connection.
    let tcp = &config.tcp;
    let raws: Vec<(usize, Result<RawQueryOutcome, ProtocolError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .into_iter()
            .map(|plan| {
                if let Some(o) = obs {
                    o.legs.inc();
                }
                let leg = plan.leg;
                scope.spawn(move || {
                    let span =
                        obs.map(|o| o.tracer().span("shard_leg").session(leg as u64).start());
                    let r = run_leg(plan, client, tcp, obs.map(|o| o.tracer()));
                    drop(span);
                    (leg, r)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard leg panicked"))
            .collect()
    });

    let mut reports = Vec::with_capacity(k);
    let mut total = Uint::zero();
    for (leg, raw) in raws {
        let raw = raw?;
        if let Some(o) = obs {
            o.resumes.add(u64::from(raw.resumed_attempts));
        }
        total = total
            .mod_add(&raw.sum.rem_of(&m).map_err(bignum)?, &m)
            .map_err(bignum)?;
        reports.push(ShardLegReport {
            leg,
            rows: raw.n,
            blinded_partial: raw.sum,
            attempts: raw.retry.attempts,
            resumed_attempts: raw.resumed_attempts,
            attempt_payload_bytes: raw.attempt_payload_bytes,
            traffic: raw.traffic,
        });
    }

    let sum = total
        .to_u128()
        .ok_or_else(|| ProtocolError::Config("sum exceeds 128 bits".into()))?;
    Ok(ShardQueryOutcome {
        sum,
        n: n_total,
        selected: select.len(),
        legs: reports,
    })
}

/// Runs one sharded query over real TCP: one worker address per shard,
/// in partition order. Each leg connects with the deadlines and retry
/// policy in `config.tcp`.
///
/// # Errors
/// As [`run_sharded_query_with`]; per-leg connection failures are
/// retried under the leg's retry policy before surfacing.
pub fn run_sharded_query(
    addrs: &[String],
    client: &SumClient,
    select: &[usize],
    config: &ShardQueryConfig,
    obs: Option<&ShardObs>,
    rng: &mut dyn RngCore,
) -> Result<ShardQueryOutcome, ProtocolError> {
    let legs: Vec<_> = addrs
        .iter()
        .map(|addr| {
            let tcp = config.tcp.clone();
            move |_attempt: u32| -> Result<TcpWire, ProtocolError> {
                let mut wire = TcpWire::connect(addr)?;
                wire.set_read_timeout(tcp.read_timeout)?;
                wire.set_write_timeout(tcp.write_timeout)?;
                Ok(wire)
            }
        })
        .collect();
    run_sharded_query_with(legs, client, select, config, obs, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_crypto::PaillierKeypair;

    #[test]
    fn pairwise_seeds_are_symmetric() {
        let m = Uint::one().shl(60);
        let a = pair_blinding(b"shared-seed-42", &m).unwrap();
        let b = pair_blinding(b"shared-seed-42", &m).unwrap();
        assert_eq!(a, b, "both endpoints derive the same share");
        let c = pair_blinding(b"different-seed", &m).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn blindings_cancel_for_many_servers() {
        let mut rng = StdRng::seed_from_u64(506);
        let m = Uint::one().shl(100);
        for k in [1usize, 2, 3, 5, 8] {
            let legs = deal_pairwise_seeds(k, &mut rng);
            let mut acc = Uint::zero();
            for (i, leg) in legs.iter().enumerate() {
                // Leg i subtracts exactly the seed leg j < i adds for
                // their pair, so only the two of them ever hold it.
                assert_eq!(leg.seeds_add.len(), k - i - 1, "k={k}");
                assert_eq!(leg.seeds_sub.len(), i, "k={k}");
                for (j, seed) in leg.seeds_sub.iter().enumerate() {
                    assert_eq!(
                        seed,
                        &legs[j].seeds_add[i - j - 1],
                        "k={k}: pair ({j}, {i})"
                    );
                }
                let r = leg_blinding(&leg.seeds_add, &leg.seeds_sub, &m).unwrap();
                acc = acc.mod_add(&r, &m).unwrap();
            }
            assert_eq!(acc, Uint::zero(), "k={k}");
        }
    }

    #[test]
    fn dealer_draws_one_seed_per_pair_in_row_major_order() {
        // The draw order fixes the ShardHello bytes a given rng state
        // produces; it must not move.
        let mut dealt = StdRng::seed_from_u64(9);
        let legs = deal_pairwise_seeds(4, &mut dealt);
        let mut manual = StdRng::seed_from_u64(9);
        for (i, leg) in legs.iter().enumerate() {
            for (j, dealt_seed) in (i + 1..).zip(&leg.seeds_add) {
                let mut seed = vec![0u8; SEED_BYTES];
                manual.fill_bytes(&mut seed);
                assert_eq!(dealt_seed, &seed, "pair ({i}, {j})");
            }
        }
        assert_eq!(dealt.next_u64(), manual.next_u64(), "no extra draws");
    }

    #[test]
    fn key_below_the_blinding_floor_is_a_config_error() {
        // N = 11 · 13 = 143: an 8-bit modulus leaves no room for M.
        let keypair = PaillierKeypair::from_primes(Uint::from_u64(11), Uint::from_u64(13)).unwrap();
        let client = SumClient::new(keypair);
        assert!(client.keypair().public.key_bits() < MIN_BLINDING_KEY_BITS);
        let mut rng = StdRng::seed_from_u64(2);
        // The check runs before any leg connects.
        let err = run_sharded_query(
            &["127.0.0.1:1".to_string()],
            &client,
            &[0],
            &ShardQueryConfig::default(),
            None,
            &mut rng,
        )
        .unwrap_err();
        assert!(
            matches!(&err, ProtocolError::Config(msg) if msg.contains("too small")),
            "{err:?}"
        );
    }

    #[test]
    fn empty_fanout_is_a_config_error() {
        let mut rng = StdRng::seed_from_u64(1);
        let client = SumClient::generate(128, &mut rng).unwrap();
        let err = run_sharded_query(
            &[],
            &client,
            &[0],
            &ShardQueryConfig::default(),
            None,
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, ProtocolError::Config(_)));
    }

    #[test]
    fn selection_split_respects_shard_offsets() {
        // Exercised indirectly end to end; here, check the arithmetic
        // of partition_point on a representative offset table.
        let offsets = [0usize, 16, 32];
        let pick = |g: usize| offsets.partition_point(|&o| o <= g) - 1;
        assert_eq!(pick(0), 0);
        assert_eq!(pick(15), 0);
        assert_eq!(pick(16), 1);
        assert_eq!(pick(31), 1);
        assert_eq!(pick(32), 2);
        assert_eq!(pick(47), 2);
    }
}
