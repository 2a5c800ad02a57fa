//! Client actors: the behavior classes a campaign population mixes.
//!
//! Every actor's wire behavior is captured up-front as a *script* — the
//! exact frames it will send, already encoded to bytes — built
//! deterministically from the campaign seed. Adversarial classes build
//! an honest script first and then sabotage it (corrupt bytes, replay a
//! sequence number, drop one), so the attack surface is exactly the
//! honest protocol's wire image, not a synthetic approximation. The
//! runner then plays scripts against real [`SessionFlow`] state
//! machines over the simulated network.
//!
//! [`SessionFlow`]: pps_protocol::SessionFlow

use bytes::Bytes;
use pps_bignum::Uint;
use pps_protocol::messages::{Hello, IndexBatch, ShardHello};
use pps_protocol::{deal_pairwise_seeds, SumClient};
use rand::rngs::StdRng;
use rand::RngCore;

use crate::scenario::Scenario;
use crate::SimError;

/// A campaign client's behavior class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Behavior {
    /// Runs the protocol cleanly; must complete with the correct sum.
    Honest,
    /// Disconnects mid-stream after a scripted number of frames, then
    /// reconnects and resumes from the server's checkpoint.
    Churning,
    /// Corrupts one frame's bytes (magic flip, unknown type, length
    /// inflation, or payload garbage).
    Byzantine,
    /// Sends a structurally invalid `Hello`.
    MalformedHello,
    /// Sends a `ShardHello` whose geometry cannot telescope to zero.
    MalformedShard,
    /// Replays a duplicate batch sequence number.
    ReplayDup,
    /// Skips a batch sequence number.
    ReplayGap,
    /// Trickles its handshake one byte at a time, forever.
    SlowLoris,
    /// One leg of a blinded shard group (see `Scenario::shard_groups`).
    ShardLeg {
        /// Which shard group this leg belongs to.
        group: usize,
        /// Position of this leg within the group (0-based).
        leg: usize,
    },
}

impl Behavior {
    /// Short class label used in traces and oracle reports.
    pub fn label(self) -> &'static str {
        match self {
            Behavior::Honest => "honest",
            Behavior::Churning => "churn",
            Behavior::Byzantine => "byzantine",
            Behavior::MalformedHello => "malformed_hello",
            Behavior::MalformedShard => "malformed_shard",
            Behavior::ReplayDup => "replay_dup",
            Behavior::ReplayGap => "replay_gap",
            Behavior::SlowLoris => "slow_loris",
            Behavior::ShardLeg { .. } => "shard_leg",
        }
    }

    /// Whether this class must *fail* to obtain a sum. The oracle
    /// treats a completion by an adversarial client as a violation.
    pub fn is_adversarial(self) -> bool {
        !matches!(
            self,
            Behavior::Honest | Behavior::Churning | Behavior::ShardLeg { .. }
        )
    }

    /// Whether the runner should reconnect this client after a hangup.
    /// Adversarial classes are one-shot: the server's rejection is the
    /// outcome under test.
    pub fn retries(self) -> bool {
        !self.is_adversarial()
    }
}

/// A client's precomputed wire script.
pub struct Script {
    /// Encoded frames, in send order. `frames[0]` is the handshake
    /// (`Hello`, or `ShardHello` for shard legs — see
    /// [`prepend_shard_hello`]); the rest are `IndexBatch` frames.
    pub frames: Vec<Bytes>,
    /// The plaintext selected sum an honest completion must decrypt to.
    pub expected: Option<u64>,
    /// Churners: how many frames to send before the scripted kill.
    pub kill_after: Option<usize>,
}

/// Builds the frame script for one client. `db_values` is the database
/// of the server this client targets (the main database, or one shard
/// partition for a [`Behavior::ShardLeg`]).
///
/// # Errors
/// Encoding or encryption failures (none occur for well-formed
/// scenarios; surfaced rather than panicking so a bad scenario fails
/// with a report).
pub fn build_script(
    scenario: &Scenario,
    behavior: Behavior,
    client: &SumClient,
    db_values: &[u64],
    rng: &mut StdRng,
) -> Result<Script, SimError> {
    let n = db_values.len();
    // 0/1 selection vector; shard legs select every row so the group
    // total is the whole-table sum, which the oracle recomputes.
    let mut weights = vec![0u64; n];
    if matches!(behavior, Behavior::ShardLeg { .. }) {
        weights.fill(1);
    } else {
        for w in weights.iter_mut() {
            *w = u64::from(rng.next_u32().is_multiple_of(2));
        }
        if weights.iter().all(|&w| w == 0) {
            weights[rng.next_u32() as usize % n] = 1;
        }
    }
    let expected: u64 = weights.iter().zip(db_values).map(|(w, v)| w * v).sum();

    let public = &client.keypair().public;
    let hello = Hello {
        modulus: public.n().clone(),
        total: n as u64,
        batch_size: scenario.batch_size.min(u32::MAX as usize) as u32,
        trace: None,
    }
    .encode()
    .map_err(|e| SimError(format!("hello encode: {e}")))?;

    let mut frames = vec![hello.encode()];
    for (seq, chunk) in weights.chunks(scenario.batch_size).enumerate() {
        let cts = chunk
            .iter()
            .map(|&w| client.keypair().encrypt(&Uint::from_u64(w), rng))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| SimError(format!("encrypt: {e}")))?;
        let frame = IndexBatch {
            seq: seq as u64,
            ciphertexts: cts,
        }
        .encode(public)
        .map_err(|e| SimError(format!("batch encode: {e}")))?;
        frames.push(frame.encode());
    }

    let mut script = Script {
        frames,
        expected: Some(expected),
        kill_after: None,
    };
    sabotage(&mut script, behavior, rng)?;
    Ok(script)
}

/// Applies the behavior class's deviation to an honest script.
fn sabotage(script: &mut Script, behavior: Behavior, rng: &mut StdRng) -> Result<(), SimError> {
    let n_frames = script.frames.len();
    match behavior {
        Behavior::Honest | Behavior::ShardLeg { .. } => {}
        Behavior::Churning => {
            // Send the Hello plus at least one batch, leave at least
            // one batch unsent, so the resume actually has a tail.
            if n_frames < 3 {
                return Err(SimError(
                    "churn scenario needs at least two batches per query".into(),
                ));
            }
            script.kill_after = Some(2 + rng.next_u32() as usize % (n_frames - 2));
            return Ok(());
        }
        Behavior::Byzantine => {
            let target = 1 + rng.next_u32() as usize % (n_frames - 1);
            let mut bytes = script.frames[target].to_vec();
            match rng.next_u32() % 4 {
                // Magic flip: the decoder must kill the stream.
                0 => bytes[0] ^= 0x80,
                // Unknown message type: decodes, then the session
                // rejects it.
                1 => bytes[2] = 0xEE,
                // Length inflation past the frame cap.
                2 => bytes[3..7].copy_from_slice(&0xFFFF_FFFFu32.to_be_bytes()),
                // Payload garbage: ciphertext validation must reject.
                _ => {
                    for b in bytes.iter_mut().skip(7) {
                        *b = (rng.next_u32() & 0xFF) as u8;
                    }
                }
            }
            script.frames[target] = Bytes::from(bytes);
        }
        Behavior::MalformedHello => {
            // A syntactically valid frame whose Hello payload is
            // truncated garbage.
            let frame = pps_transport::Frame::new(
                pps_protocol::messages::MsgType::Hello as u8,
                Bytes::from_static(&[0xDE, 0xAD]),
            )
            .map_err(|e| SimError(format!("malformed hello: {e}")))?;
            script.frames = vec![frame.encode()];
        }
        Behavior::MalformedShard => {
            // Geometry violation: index ≥ count. Encoding doesn't check
            // geometry (only the server-side decode does), which is
            // exactly the hostile-client path under test.
            let frame = ShardHello {
                shard_index: 7,
                shard_count: 3,
                m_bits: 64,
                seeds_add: Vec::new(),
                seeds_sub: Vec::new(),
                trace: None,
            }
            .encode()
            .map_err(|e| SimError(format!("malformed shard: {e}")))?;
            script.frames = vec![frame.encode()];
        }
        Behavior::ReplayDup => {
            // Batch 0 twice: the second copy's seq is stale and the
            // server must refuse to double-fold.
            let dup = script.frames[1].clone();
            script.frames.insert(2, dup);
        }
        Behavior::ReplayGap => {
            // Drop a middle batch: the successor's seq arrives early.
            if n_frames < 4 {
                return Err(SimError(
                    "replay-gap needs at least three batches per query".into(),
                ));
            }
            script.frames.remove(2);
        }
        Behavior::SlowLoris => {
            // Only the handshake is ever (partially) sent.
            script.frames.truncate(1);
        }
    }
    if behavior.is_adversarial() {
        script.expected = None;
    }
    Ok(())
}

/// Builds the `k` pairwise-seeded `ShardHello` frames for one shard
/// group, with the seeds [`deal_pairwise_seeds`] deals, and prepends each
/// to the matching leg's script.
///
/// # Errors
/// Encoding failures (cannot occur for valid geometry).
pub fn prepend_shard_hello(
    scripts: &mut [&mut Script],
    m_bits: u32,
    rng: &mut StdRng,
) -> Result<(), SimError> {
    let k = scripts.len();
    let legs = deal_pairwise_seeds(k, rng);
    for (i, (script, seeds)) in scripts.iter_mut().zip(legs).enumerate() {
        let frame = ShardHello {
            shard_index: i as u32,
            shard_count: k as u32,
            m_bits,
            seeds_add: seeds.seeds_add,
            seeds_sub: seeds.seeds_sub,
            trace: None,
        }
        .encode()
        .map_err(|e| SimError(format!("shard hello encode: {e}")))?;
        script.frames.insert(0, frame.encode());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_transport::Frame;
    use rand::SeedableRng;

    fn scenario() -> Scenario {
        crate::scenario::Scenario::by_name("byzantine").unwrap()
    }

    fn client() -> SumClient {
        let mut rng = StdRng::seed_from_u64(5);
        SumClient::generate(64, &mut rng).unwrap()
    }

    #[test]
    fn honest_script_is_hello_plus_batches() {
        let sc = scenario();
        let c = client();
        let values = sc.db_values();
        let mut rng = StdRng::seed_from_u64(11);
        let script = build_script(&sc, Behavior::Honest, &c, &values, &mut rng).unwrap();
        assert_eq!(script.frames.len(), 1 + sc.db_rows.div_ceil(sc.batch_size));
        assert!(script.expected.is_some());
        // Every frame round-trips through the real decoder.
        let mut buf = bytes::BytesMut::new();
        for f in &script.frames {
            buf.extend_from_slice(f);
        }
        let mut count = 0;
        while let Some(_f) = Frame::decode(&mut buf).unwrap() {
            count += 1;
        }
        assert_eq!(count, script.frames.len());
    }

    #[test]
    fn scripts_are_deterministic_per_seed() {
        let sc = scenario();
        let c = client();
        let values = sc.db_values();
        let a = build_script(
            &sc,
            Behavior::Byzantine,
            &c,
            &values,
            &mut StdRng::seed_from_u64(3),
        )
        .unwrap();
        let b = build_script(
            &sc,
            Behavior::Byzantine,
            &c,
            &values,
            &mut StdRng::seed_from_u64(3),
        )
        .unwrap();
        assert_eq!(a.frames, b.frames);
    }

    #[test]
    fn byzantine_scripts_differ_from_honest() {
        let sc = scenario();
        let c = client();
        let values = sc.db_values();
        let mut rng = StdRng::seed_from_u64(7);
        let honest = build_script(&sc, Behavior::Honest, &c, &values, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let byz = build_script(&sc, Behavior::Byzantine, &c, &values, &mut rng).unwrap();
        assert_ne!(honest.frames, byz.frames);
        assert!(byz.expected.is_none());
    }

    #[test]
    fn shard_hellos_decode_with_valid_geometry() {
        let sc = scenario();
        let c = client();
        let values = sc.db_values();
        let mut rng = StdRng::seed_from_u64(9);
        let mut s0 = build_script(
            &sc,
            Behavior::ShardLeg { group: 0, leg: 0 },
            &c,
            &values,
            &mut rng,
        )
        .unwrap();
        let mut s1 = build_script(
            &sc,
            Behavior::ShardLeg { group: 0, leg: 1 },
            &c,
            &values,
            &mut rng,
        )
        .unwrap();
        let mut s2 = build_script(
            &sc,
            Behavior::ShardLeg { group: 0, leg: 2 },
            &c,
            &values,
            &mut rng,
        )
        .unwrap();
        prepend_shard_hello(&mut [&mut s0, &mut s1, &mut s2], 62, &mut rng).unwrap();
        for (i, s) in [&s0, &s1, &s2].iter().enumerate() {
            let mut buf = bytes::BytesMut::from(&s.frames[0][..]);
            let frame = Frame::decode(&mut buf).unwrap().unwrap();
            let sh = ShardHello::decode(&frame).unwrap();
            assert_eq!(sh.shard_index, i as u32);
            assert_eq!(sh.shard_count, 3);
        }
    }
}
