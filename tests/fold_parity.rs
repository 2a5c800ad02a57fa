//! Fold parity: for random databases, selections, and batch
//! geometries, both server folds — the paper's incremental loop and the
//! precomputed per-database plan — decrypt to the **bit-identical**
//! selected sum, which equals the plaintext oracle. The same encrypted
//! frames are replayed into each fold's session, so any divergence is
//! the fold's fault, not the randomness's.
//!
//! Also proves the resume story for the plan: a checkpoint taken
//! mid-stream under the plan resumes correctly — through the same
//! shared plan, through a freshly built plan, and across folds in both
//! directions (the checkpoint is fold-agnostic by construction, so
//! cross-fold resume is *correct*, not rejected).

use std::sync::{Arc, OnceLock};

use pps_bignum::MultiExpPlan;
use pps_crypto::PaillierKeypair;
use pps_protocol::messages::{Hello, IndexBatch, Product};
use pps_protocol::{Database, Selection, ServerSession};
use pps_transport::Frame;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One keypair for the whole suite (keygen dwarfs every case).
fn keypair() -> &'static PaillierKeypair {
    static KP: OnceLock<PaillierKeypair> = OnceLock::new();
    KP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xf01d_9a41);
        PaillierKeypair::generate(128, &mut rng).unwrap()
    })
}

/// Encrypts `bits` once and chunks the stream into `batch`-sized
/// frames — the identical byte-for-byte input for every strategy.
fn encode_query(bits: &[u64], batch: usize, rng: &mut StdRng) -> Vec<Frame> {
    let kp = keypair();
    let hello = Hello {
        modulus: kp.public.n().clone(),
        total: bits.len() as u64,
        batch_size: batch as u32,
        trace: None,
    }
    .encode()
    .unwrap();
    let cts: Vec<_> = bits
        .iter()
        .map(|&b| kp.public.encrypt_u64(b, rng).unwrap())
        .collect();
    std::iter::once(hello)
        .chain(cts.chunks(batch).enumerate().map(|(seq, chunk)| {
            IndexBatch {
                seq: seq as u64,
                ciphertexts: chunk.to_vec(),
            }
            .encode(&kp.public)
            .unwrap()
        }))
        .collect()
}

/// A fresh session folding through `plan`, or the paper's loop.
fn session(db: &Database, plan: Option<Arc<MultiExpPlan>>) -> ServerSession<'_> {
    match plan {
        Some(plan) => ServerSession::with_fold_plan(db, plan).unwrap(),
        None => ServerSession::new(db),
    }
}

/// Replays pre-encoded frames into a fresh session and returns the
/// decrypted sum (as the raw decrypted `Uint`, so equality between
/// folds is bit-level, not merely numeric-after-truncation).
fn replay(db: &Database, frames: &[Frame], plan: Option<Arc<MultiExpPlan>>) -> (u128, Vec<u8>) {
    let kp = keypair();
    let mut session = session(db, plan);
    let mut reply = None;
    for frame in frames {
        reply = session.on_frame(frame).unwrap();
    }
    let product = Product::decode(&reply.expect("last batch completes"), &kp.public).unwrap();
    let sum = kp.secret.decrypt(&product.ciphertext).unwrap();
    (sum.to_u128().unwrap(), sum.to_bytes_be())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_fold_strategies_decrypt_to_the_identical_oracle_sum(
        values in prop::collection::vec(0u64..1_000_000, 1..48),
        seed in any::<u64>(),
        batch in 1usize..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = Database::new(values.clone()).unwrap();
        let bits: Vec<u64> = (0..values.len()).map(|_| rng.gen_range(0u64..2)).collect();
        let oracle = db.oracle_sum(&Selection::weighted(bits.clone())).unwrap();
        let frames = encode_query(&bits, batch, &mut rng);

        let plan = Arc::new(MultiExpPlan::build(db.values()));
        let (inc, inc_bytes) = replay(&db, &frames, None);
        let (pre, pre_bytes) = replay(&db, &frames, Some(plan));

        prop_assert_eq!(inc, oracle);
        prop_assert_eq!(pre, oracle);
        // Bit-identical plaintexts, not merely equal u128 projections.
        prop_assert_eq!(&pre_bytes, &inc_bytes);
    }

    /// A checkpoint taken under the plan mid-stream resumes correctly —
    /// under the same shared plan, a freshly built plan, or the paper's
    /// loop — and so does a loop checkpoint under the plan; every
    /// resumed path decrypts to the oracle sum.
    #[test]
    fn precomputed_checkpoints_resume_correctly_and_cross_strategy(
        values in prop::collection::vec(0u64..1_000_000, 4..32),
        seed in any::<u64>(),
    ) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let db = Database::new(values.clone()).unwrap();
        let bits: Vec<u64> = (0..values.len()).map(|_| rng.gen_range(0u64..2)).collect();
        let oracle = db.oracle_sum(&Selection::weighted(bits.clone())).unwrap();
        let batch = (values.len() / 2).max(1);
        let frames = encode_query(&bits, batch, &mut rng);
        prop_assume!(frames.len() >= 3); // hello + at least two batches

        // Drive the first batch under `first`, then checkpoint.
        let checkpoint = |first| {
            let mut s = session(&db, first);
            s.on_frame(&frames[0]).unwrap();
            s.on_frame(&frames[1]).unwrap();
            s.checkpoint().expect("mid-stream checkpoint")
        };
        let finish = |mut session: ServerSession<'_>| {
            let mut reply = None;
            for frame in &frames[2..] {
                reply = session.on_frame(frame).unwrap();
            }
            let product =
                Product::decode(&reply.expect("final batch replies"), &kp.public).unwrap();
            kp.secret
                .decrypt(&product.ciphertext)
                .unwrap()
                .to_u128()
                .unwrap()
        };
        let plan = Arc::new(MultiExpPlan::build(db.values()));
        let cp = checkpoint(Some(Arc::clone(&plan)));

        // Plan → the same shared plan (the TcpServer path).
        let shared = ServerSession::resume(&db, Some(Arc::clone(&plan)), cp.clone()).unwrap();
        prop_assert_eq!(finish(shared), oracle);

        // Plan → a plan freshly built from the database.
        let fresh = Arc::new(MultiExpPlan::build(db.values()));
        let rebuilt = ServerSession::resume(&db, Some(fresh), cp.clone()).unwrap();
        prop_assert_eq!(finish(rebuilt), oracle);

        // Plan → loop: the checkpoint carries only accumulator and
        // cursor, so either fold may continue it.
        let crossed = ServerSession::resume(&db, None, cp).unwrap();
        prop_assert_eq!(finish(crossed), oracle);

        // And the reverse direction: loop → plan.
        let back = ServerSession::resume(&db, Some(plan), checkpoint(None)).unwrap();
        prop_assert_eq!(finish(back), oracle);
    }
}
