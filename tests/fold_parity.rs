//! Fold parity: for random databases, selections, and batch
//! geometries, both server folds — the paper's incremental loop and the
//! session's bucket fold — reply with the **bit-identical** product,
//! which decrypts to the plaintext oracle. The same encrypted frames are
//! replayed into each fold's session, so any divergence is the fold's
//! fault, not the randomness's.
//!
//! Also proves the resume story for the bucket fold: a checkpoint taken
//! mid-stream under it resumes correctly, under the bucket fold again
//! and across folds in both directions (the checkpoint is fold-agnostic
//! by construction, so cross-fold resume is *correct*, not rejected).

use std::sync::OnceLock;

use pps_crypto::PaillierKeypair;
use pps_protocol::messages::{Hello, IndexBatch, Product};
use pps_protocol::{Database, FoldStrategy, Selection, ServerSession};
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

/// Replays pre-encoded frames into a fresh session folding with `fold`
/// and returns the decrypted sum and the product's bytes, so equality
/// between folds is bit-level, not merely numeric.
fn replay(db: &Database, frames: &[Frame], fold: FoldStrategy) -> (u128, Vec<u8>) {
    let kp = keypair();
    let mut session = ServerSession::with_fold(db, fold);
    let mut reply = None;
    for frame in frames {
        reply = session.on_frame(frame).unwrap();
    }
    let product = Product::decode(&reply.expect("last batch completes"), &kp.public).unwrap();
    let sum = kp.secret.decrypt(&product.ciphertext).unwrap();
    let bytes = product.ciphertext.to_bytes(&kp.public).unwrap();
    (sum.to_u128().unwrap(), bytes)
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

        let (inc, inc_bytes) = replay(&db, &frames, FoldStrategy::Incremental);
        let (pre, pre_bytes) = replay(&db, &frames, FoldStrategy::Precomputed);

        prop_assert_eq!(inc, oracle);
        prop_assert_eq!(pre, oracle);
        // Bit-identical products, not merely equal plaintexts.
        prop_assert_eq!(&pre_bytes, &inc_bytes);
    }

    /// A checkpoint taken mid-stream under the bucket fold resumes
    /// correctly under the bucket fold or the paper's loop, and so does a
    /// loop checkpoint under the bucket fold; every resumed path decrypts
    /// to the oracle sum.
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
            let mut s = ServerSession::with_fold(&db, first);
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
        let (inc, pre) = (FoldStrategy::Incremental, FoldStrategy::Precomputed);
        let cp = checkpoint(pre);

        // Buckets → buckets rebuilt for the remaining rows (the TcpServer
        // path).
        let again = ServerSession::resume(&db, pre, cp.clone()).unwrap();
        prop_assert_eq!(finish(again), oracle);

        // Buckets → loop: the checkpoint carries only the product so far
        // and the cursor, so either fold may continue it.
        let crossed = ServerSession::resume(&db, inc, cp).unwrap();
        prop_assert_eq!(finish(crossed), oracle);

        // And the reverse direction: loop → buckets.
        let back = ServerSession::resume(&db, pre, checkpoint(inc)).unwrap();
        prop_assert_eq!(finish(back), oracle);
    }
}
