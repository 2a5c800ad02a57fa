//! The database server's side of the selected-sum protocol.
//!
//! The server is message-driven: [`ServerSession::on_frame`] consumes one
//! frame and optionally produces a reply frame. This single state machine
//! serves both orchestration styles — the sequential virtual-clock driver
//! and real concurrent threads over a blocking wire — and records
//! per-batch compute times for the pipeline analysis of §3.2.

use std::time::{Duration, Instant};

use pps_crypto::{Ciphertext, CiphertextFold, PaillierPublicKey};
use pps_transport::{Frame, MAX_PAYLOAD};

use crate::data::Database;
use crate::error::ProtocolError;
use crate::messages::{Dump, Hello, IndexBatch, MsgType, PlainIndices, PlainSum, Product};

/// Per-session server statistics.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Total time spent folding batches into the product (excludes wire
    /// waits).
    pub compute: Duration,
    /// Per-batch compute times, aligned with arrival order.
    pub per_batch_compute: Vec<Duration>,
    /// Number of index ciphertexts folded so far.
    pub folded: usize,
}

/// State of one private-sum session.
enum State {
    /// Waiting for the client's `Hello`.
    AwaitHello,
    /// Streaming batches.
    Receiving {
        key: PaillierPublicKey,
        expected: u64,
        /// Announced batch size: an upper bound on any one batch.
        batch_size: u32,
        /// Running homomorphic product `Π E(I_i)^{x_i}`: every row under
        /// the paper's loop; under the bucket fold, the rows folded before
        /// a resume, the rest waiting in `fold`.
        accumulator: Ciphertext,
        /// The bucket fold of the rows since `Hello` (or the resume),
        /// allocated when the first batch after either arrives; `None`
        /// before it and under the paper's loop. Boxed: it is most of
        /// the state's size.
        fold: Option<Box<CiphertextFold>>,
        /// Next database row to consume.
        cursor: usize,
        /// Next-expected batch sequence number (strictly monotone).
        next_seq: u64,
    },
    /// Product sent; session complete.
    Done,
}

/// A point-in-time snapshot of a mid-stream session: the partial
/// homomorphic product plus the next-expected batch sequence number.
///
/// A serving runtime stores one of these in its session table when a
/// connection ends before the product (the flow *parks*,
/// [`crate::SessionFlow::park`]); a client that lost its connection
/// resumes via [`ServerSession::resume`] and continues from the last
/// folded batch instead of re-sending the whole index vector.
#[derive(Clone, Debug)]
pub struct FoldCheckpoint {
    /// The client's Paillier public key.
    pub key: PaillierPublicKey,
    /// Announced total number of index weights.
    pub expected: u64,
    /// Announced batch size (upper bound on any one batch).
    pub batch_size: u32,
    /// Running homomorphic product `Π E(I_i)^{x_i}` so far, the bucket
    /// fold's rows included.
    pub accumulator: Ciphertext,
    /// Next database row to consume.
    pub cursor: usize,
    /// Next-expected batch sequence number.
    pub next_seq: u64,
    /// Statistics accumulated so far, carried across the resume so the
    /// final report covers the whole logical session.
    pub stats: ServerStats,
    /// §3.5 blinding installed on the session, if any. Carried in the
    /// checkpoint so a *resumed* shard leg still blinds its product —
    /// dropping it here would hand the reconnecting client an unblinded
    /// partial sum.
    pub blinding: Option<pps_bignum::Uint>,
}

/// How a session folds each batch of `E(I_i)` into its product: the
/// choice [`crate::TcpServer::bind`] and [`ServerSession::with_fold`]
/// make.
///
/// Both folds produce the same product bytes, so the choice never shows
/// on the wire, in checkpoints or in shard blinding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FoldStrategy {
    /// Element by element: `acc ← acc · E(I_i)^{x_i}` — the paper's loop,
    /// kept as the reference the bucket fold is checked against.
    Incremental,
    /// One set of Pippenger buckets per session
    /// ([`pps_bignum::SessionFold`]): each batch costs one modular
    /// multiplication per ciphertext per window, whatever its length,
    /// and the buckets are reduced once, when the last batch arrives.
    /// The window is chosen once per session from its row count and
    /// widest row, within a fixed bucket-memory budget. The default:
    /// every `TcpServer` bound with `FoldStrategy::default()` (`pps
    /// serve`, `pps shard-serve`) and the simulator fold this way.
    #[default]
    Precomputed,
}

/// The server side of one protocol session over a fixed database.
///
/// Batches fold with the session's [`FoldStrategy`]. Under
/// [`FoldStrategy::Precomputed`] the session holds one set of buckets
/// from its first batch to the product and reduces them once, with the
/// last batch; [`ServerSession::checkpoint`] reduces them into a
/// snapshot mid-stream without consuming them. A session past `Hello`
/// (or a resume) holds no buckets until a batch arrives, so a client
/// that stalls there pins no bucket memory.
pub struct ServerSession<'db> {
    db: &'db Database,
    state: State,
    stats: ServerStats,
    /// How batches fold into the product.
    fold: FoldStrategy,
    /// Optional blinding added to the product before replying (the
    /// multi-client protocol, §3.5): `E(R_i)` is multiplied in.
    blinding: Option<pps_bignum::Uint>,
}

impl<'db> ServerSession<'db> {
    /// Creates a session over `db` that folds with the paper's loop,
    /// [`FoldStrategy::Incremental`]: the in-process paper runners, the
    /// local client run and `pps-stats` measure the protocol as the paper
    /// states it. Serving runtimes pick their fold with
    /// [`ServerSession::with_fold`].
    pub fn new(db: &'db Database) -> Self {
        Self::with_fold(db, FoldStrategy::Incremental)
    }

    /// Creates a session over `db` that folds with `fold`. Under
    /// [`FoldStrategy::Precomputed`] the buckets are allocated when the
    /// first batch arrives and freed with the product.
    pub fn with_fold(db: &'db Database, fold: FoldStrategy) -> Self {
        ServerSession {
            db,
            state: State::AwaitHello,
            stats: ServerStats::default(),
            fold,
            blinding: None,
        }
    }

    /// Creates a session that blinds its product by adding the plaintext
    /// `r` homomorphically (multi-client phase 1).
    pub fn with_blinding(db: &'db Database, r: pps_bignum::Uint) -> Self {
        let mut s = Self::new(db);
        s.blinding = Some(r);
        s
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// True once the product has been produced.
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    /// True while the session is pristine: no `Hello` consumed yet.
    pub fn is_awaiting_hello(&self) -> bool {
        matches!(self.state, State::AwaitHello)
    }

    /// The next-expected batch sequence number, when mid-stream.
    pub fn next_seq(&self) -> Option<u64> {
        match &self.state {
            State::Receiving { next_seq, .. } => Some(*next_seq),
            _ => None,
        }
    }

    /// Snapshots the fold state for the session table. `Some` only while
    /// mid-stream: a pristine or completed session has nothing worth
    /// resuming. Under the bucket fold this reduces the buckets into the
    /// snapshot's accumulator, without consuming them, so the session
    /// can fold on.
    pub fn checkpoint(&self) -> Option<FoldCheckpoint> {
        let State::Receiving {
            key,
            expected,
            batch_size,
            accumulator,
            fold,
            cursor,
            next_seq,
        } = &self.state
        else {
            return None;
        };
        let accumulator = match fold {
            // Two ciphertexts of one key always multiply; were they not
            // to, there would be nothing sound to resume.
            Some(fold) => key.add(accumulator, &fold.product()).ok()?,
            None => accumulator.clone(),
        };
        Some(FoldCheckpoint {
            key: key.clone(),
            expected: *expected,
            batch_size: *batch_size,
            accumulator,
            cursor: *cursor,
            next_seq: *next_seq,
            stats: self.stats.clone(),
            blinding: self.blinding.clone(),
        })
    }

    /// Rebuilds a mid-stream session from a checkpoint taken against the
    /// same database, folding the rest with `fold`. The checkpoint is
    /// validated — a snapshot from a different database (or a forged
    /// one) is rejected rather than folded forward. It snapshots only the
    /// homomorphic product and the stream position, so a checkpoint taken
    /// under either fold resumes soundly under the other. The bucket fold
    /// allocates its buckets, with a window chosen for the rows that
    /// remain, when the first batch after the resume arrives.
    ///
    /// # Errors
    /// [`ProtocolError::Config`] when the checkpoint's announced total
    /// does not match `db`; [`ProtocolError::InvalidInput`] when its
    /// cursor or batch size is out of bounds.
    pub fn resume(
        db: &'db Database,
        fold: FoldStrategy,
        cp: FoldCheckpoint,
    ) -> Result<Self, ProtocolError> {
        if cp.expected as usize != db.len() {
            return Err(ProtocolError::Config(format!(
                "checkpoint expects {} indices for a database of {}",
                cp.expected,
                db.len()
            )));
        }
        if cp.batch_size == 0 {
            return Err(ProtocolError::InvalidInput("checkpoint batch size zero"));
        }
        if cp.cursor >= cp.expected as usize {
            return Err(ProtocolError::InvalidInput(
                "checkpoint cursor out of bounds",
            ));
        }
        Ok(ServerSession {
            db,
            state: State::Receiving {
                key: cp.key,
                expected: cp.expected,
                batch_size: cp.batch_size,
                accumulator: cp.accumulator,
                fold: None,
                cursor: cp.cursor,
                next_seq: cp.next_seq,
            },
            stats: cp.stats,
            fold,
            blinding: cp.blinding,
        })
    }

    /// Installs a §3.5 blinding value on a pristine session — the
    /// networked shard handshake arrives before `Hello`, after which the
    /// blinding travels with every checkpoint.
    ///
    /// # Errors
    /// [`ProtocolError::UnexpectedMessage`] once the session has started
    /// or when a blinding is already installed: re-keying the blinding
    /// mid-stream would break the telescoping cancellation.
    pub fn set_blinding(&mut self, r: pps_bignum::Uint) -> Result<(), ProtocolError> {
        if !matches!(self.state, State::AwaitHello) {
            return Err(ProtocolError::UnexpectedMessage(
                "shard handshake mid-session",
            ));
        }
        if self.blinding.is_some() {
            return Err(ProtocolError::UnexpectedMessage(
                "duplicate shard handshake",
            ));
        }
        self.blinding = Some(r);
        Ok(())
    }

    /// Whether a §3.5 blinding value is installed.
    pub fn has_blinding(&self) -> bool {
        self.blinding.is_some()
    }

    /// Consumes one frame; returns a reply frame when the protocol calls
    /// for one.
    ///
    /// # Errors
    /// Protocol violations, malformed messages, and invalid ciphertexts
    /// are all rejected.
    pub fn on_frame(&mut self, frame: &Frame) -> Result<Option<Frame>, ProtocolError> {
        match frame.msg_type {
            t if t == MsgType::Hello as u8 => self.on_hello(frame),
            t if t == MsgType::IndexBatch as u8 => self.on_batch(frame),
            t if t == MsgType::PlainIndices as u8 => self.on_plain(frame),
            t if t == MsgType::SizeRequest as u8 => {
                crate::messages::SizeRequest::decode(frame)?;
                if !matches!(self.state, State::AwaitHello) {
                    return Err(ProtocolError::UnexpectedMessage("size request mid-session"));
                }
                Ok(Some(
                    crate::messages::SizeReply {
                        n: self.db.len() as u64,
                    }
                    .encode()?,
                ))
            }
            _ => Err(ProtocolError::UnexpectedMessage(
                "server cannot handle this message",
            )),
        }
    }

    fn on_hello(&mut self, frame: &Frame) -> Result<Option<Frame>, ProtocolError> {
        if !matches!(self.state, State::AwaitHello) {
            return Err(ProtocolError::UnexpectedMessage("duplicate hello"));
        }
        let hello = Hello::decode(frame)?;
        if hello.total as usize != self.db.len() {
            return Err(ProtocolError::Config(format!(
                "client announced {} indices for a database of {}",
                hello.total,
                self.db.len()
            )));
        }
        if hello.batch_size == 0 {
            return Err(ProtocolError::Config("batch size must be positive".into()));
        }
        let key = PaillierPublicKey::from_modulus(hello.modulus)?;
        // An announced batch size whose encoded batch cannot fit in one
        // frame is unservable: every full batch would be rejected by the
        // frame cap, so refuse the session up front.
        let encoded_batch = (hello.batch_size as usize)
            .checked_mul(key.ciphertext_bytes())
            .and_then(|b| b.checked_add(12));
        if encoded_batch.is_none_or(|b| b > MAX_PAYLOAD) {
            return Err(ProtocolError::InvalidInput(
                "batch size exceeds frame capacity",
            ));
        }
        if hello.total == 0 {
            // Empty database: there is nothing to receive, and no batch
            // will ever arrive to trigger the finalize check — reply with
            // the identity product (the selected sum over zero rows)
            // immediately.
            let product = key.identity();
            return Ok(Some(self.finalize(&key, product)?));
        }
        self.state = State::Receiving {
            accumulator: key.identity(),
            fold: None,
            key,
            expected: hello.total,
            batch_size: hello.batch_size,
            cursor: 0,
            next_seq: 0,
        };
        Ok(None)
    }

    /// Applies the optional blinding, encodes the product reply, and
    /// moves the session to `Done`.
    fn finalize(
        &mut self,
        key: &PaillierPublicKey,
        mut product: Ciphertext,
    ) -> Result<Frame, ProtocolError> {
        if let Some(r) = &self.blinding {
            let start = Instant::now();
            product = key.add_plain(&product, r)?;
            self.stats.compute += start.elapsed();
        }
        let reply = Product {
            ciphertext: product,
        }
        .encode(key)?;
        self.state = State::Done;
        Ok(reply)
    }

    fn on_batch(&mut self, frame: &Frame) -> Result<Option<Frame>, ProtocolError> {
        let State::Receiving {
            key,
            expected,
            batch_size,
            accumulator,
            fold,
            cursor,
            next_seq,
        } = &mut self.state
        else {
            return Err(ProtocolError::UnexpectedMessage(
                "batch before hello or after done",
            ));
        };
        // Decode validates every ciphertext (range + invertibility) and
        // rejects zero-length batches before anything touches the fold.
        let batch = IndexBatch::decode(frame, key)?;
        if batch.seq != *next_seq {
            // Strict monotonicity: a duplicate would double-fold a chunk
            // into the accumulator, a gap would misalign weights with
            // database rows. Both are unrecoverable for this stream.
            return Err(ProtocolError::InvalidInput(
                "batch sequence number out of order",
            ));
        }
        if batch.ciphertexts.len() > *batch_size as usize {
            return Err(ProtocolError::InvalidInput(
                "batch larger than announced batch size",
            ));
        }
        if *cursor + batch.ciphertexts.len() > *expected as usize {
            return Err(ProtocolError::InvalidInput("more indices than announced"));
        }
        *next_seq += 1;

        if self.fold == FoldStrategy::Precomputed && fold.is_none() {
            // The first batch since `Hello` or the resume: the buckets
            // cover every row that remains.
            *fold = Some(Box::new(key.session_fold(&self.db.values()[*cursor..])));
        }
        let start = Instant::now();
        let rows = &self.db.values()[*cursor..*cursor + batch.ciphertexts.len()];
        match fold {
            // One product per ciphertext per window into the session's
            // buckets; they are reduced once, after the last batch.
            Some(fold) => fold.absorb(&batch.ciphertexts, rows)?,
            None => {
                // The paper's server inner loop: for each received E(I_i),
                // raise to the database value x_i and fold into the
                // running product.
                for (ct, &x) in batch.ciphertexts.iter().zip(rows) {
                    let term = key.mul_plain(ct, &pps_bignum::Uint::from_u64(x))?;
                    *accumulator = key.add(accumulator, &term)?;
                }
            }
        }
        *cursor += batch.ciphertexts.len();
        let last = *cursor == *expected as usize;
        if let (true, Some(fold)) = (last, &fold) {
            *accumulator = key.add(accumulator, &fold.product())?;
        }
        let elapsed = start.elapsed();
        self.stats.compute += elapsed;
        self.stats.per_batch_compute.push(elapsed);
        self.stats.folded += batch.ciphertexts.len();

        if last {
            // Apply multi-client blinding, if configured, then reply.
            let key = key.clone();
            let product = accumulator.clone();
            return Ok(Some(self.finalize(&key, product)?));
        }
        Ok(None)
    }

    /// The trivial non-private baseline: plaintext indices in, plaintext
    /// sum out. (Violates client privacy; implemented as the comparison
    /// point of §2.)
    fn on_plain(&mut self, frame: &Frame) -> Result<Option<Frame>, ProtocolError> {
        let req = PlainIndices::decode(frame)?;
        let start = Instant::now();
        let mut sum: u128 = 0;
        for &i in &req.indices {
            let v = self
                .db
                .values()
                .get(i as usize)
                .ok_or(ProtocolError::UnexpectedMessage("plain index out of range"))?;
            sum += *v as u128;
        }
        self.stats.compute += start.elapsed();
        self.state = State::Done;
        Ok(Some(PlainSum { sum }.encode()?))
    }

    /// The other trivial baseline: dump the whole database (violates
    /// database privacy).
    pub fn dump(&mut self) -> Result<Frame, ProtocolError> {
        self.state = State::Done;
        Ok(Dump {
            values: self.db.values().to_vec(),
        }
        .encode()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Selection;
    use pps_crypto::PaillierKeypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (PaillierKeypair, Database, StdRng) {
        let mut rng = StdRng::seed_from_u64(55);
        let kp = PaillierKeypair::generate(128, &mut rng).unwrap();
        let db = Database::new(vec![10, 20, 30, 40, 50]).unwrap();
        (kp, db, rng)
    }

    fn hello(kp: &PaillierKeypair, total: u64, batch: u32) -> Frame {
        Hello {
            modulus: kp.public.n().clone(),
            total,
            batch_size: batch,
            trace: None,
        }
        .encode()
        .unwrap()
    }

    fn batch_frame(kp: &PaillierKeypair, seq: u64, bits: &[u64], rng: &mut StdRng) -> Frame {
        let cts = bits
            .iter()
            .map(|&b| kp.public.encrypt_u64(b, rng).unwrap())
            .collect();
        IndexBatch {
            seq,
            ciphertexts: cts,
        }
        .encode(&kp.public)
        .unwrap()
    }

    #[test]
    fn full_session_computes_selected_sum() {
        let (kp, db, mut rng) = setup();
        let mut s = ServerSession::new(&db);
        assert!(s.on_frame(&hello(&kp, 5, 5)).unwrap().is_none());
        let reply = s
            .on_frame(&batch_frame(&kp, 0, &[1, 0, 1, 0, 1], &mut rng))
            .unwrap()
            .expect("final batch yields product");
        let product = Product::decode(&reply, &kp.public).unwrap();
        let sum = kp.secret.decrypt(&product.ciphertext).unwrap();
        assert_eq!(sum.to_u64(), Some(90));
        assert!(s.is_done());
        assert_eq!(s.stats().folded, 5);
    }

    #[test]
    fn batched_session() {
        let (kp, db, mut rng) = setup();
        let mut s = ServerSession::new(&db);
        s.on_frame(&hello(&kp, 5, 2)).unwrap();
        assert!(s
            .on_frame(&batch_frame(&kp, 0, &[1, 1], &mut rng))
            .unwrap()
            .is_none());
        assert!(s
            .on_frame(&batch_frame(&kp, 1, &[0, 0], &mut rng))
            .unwrap()
            .is_none());
        let reply = s
            .on_frame(&batch_frame(&kp, 2, &[1], &mut rng))
            .unwrap()
            .unwrap();
        let product = Product::decode(&reply, &kp.public).unwrap();
        assert_eq!(
            kp.secret.decrypt(&product.ciphertext).unwrap().to_u64(),
            Some(80)
        );
        assert_eq!(s.stats().per_batch_compute.len(), 3);
    }

    #[test]
    fn weighted_selection() {
        let (kp, db, mut rng) = setup();
        let sel = Selection::weighted(vec![1, 2, 3, 0, 0]);
        let mut s = ServerSession::new(&db);
        s.on_frame(&hello(&kp, 5, 5)).unwrap();
        let reply = s
            .on_frame(&batch_frame(&kp, 0, sel.weights(), &mut rng))
            .unwrap()
            .unwrap();
        let product = Product::decode(&reply, &kp.public).unwrap();
        // 1·10 + 2·20 + 3·30 = 140.
        assert_eq!(
            kp.secret.decrypt(&product.ciphertext).unwrap().to_u64(),
            Some(140)
        );
    }

    #[test]
    fn rejects_protocol_violations() {
        let (kp, db, mut rng) = setup();
        let mut s = ServerSession::new(&db);
        // Batch before hello.
        assert!(s.on_frame(&batch_frame(&kp, 2, &[1], &mut rng)).is_err());
        s.on_frame(&hello(&kp, 5, 5)).unwrap();
        // Duplicate hello.
        assert!(s.on_frame(&hello(&kp, 5, 5)).is_err());
        // Too many indices.
        assert!(s.on_frame(&batch_frame(&kp, 0, &[1; 6], &mut rng)).is_err());
    }

    #[test]
    fn rejects_count_mismatch_and_zero_batch() {
        let (kp, db, _) = setup();
        let mut s = ServerSession::new(&db);
        assert!(s.on_frame(&hello(&kp, 99, 5)).is_err());
        let mut s2 = ServerSession::new(&db);
        assert!(s2.on_frame(&hello(&kp, 5, 0)).is_err());
    }

    #[test]
    fn plain_baseline() {
        let (_, db, _) = setup();
        let mut s = ServerSession::new(&db);
        let req = PlainIndices {
            indices: vec![0, 2, 4],
        }
        .encode()
        .unwrap();
        let reply = s.on_frame(&req).unwrap().unwrap();
        assert_eq!(PlainSum::decode(&reply).unwrap().sum, 90);
        // Out-of-range index rejected.
        let mut s2 = ServerSession::new(&db);
        let bad = PlainIndices { indices: vec![99] }.encode().unwrap();
        assert!(s2.on_frame(&bad).is_err());
    }

    #[test]
    fn size_discovery() {
        use crate::messages::{SizeReply, SizeRequest};
        let (kp, db, _) = setup();
        let mut s = ServerSession::new(&db);
        let reply = s.on_frame(&SizeRequest.encode().unwrap()).unwrap().unwrap();
        assert_eq!(SizeReply::decode(&reply).unwrap().n, 5);
        // Still answerable before hello, and the session proceeds normally.
        s.on_frame(&hello(&kp, 5, 5)).unwrap();
        // But not mid-session.
        assert!(s.on_frame(&SizeRequest.encode().unwrap()).is_err());
    }

    #[test]
    fn dump_baseline() {
        let (_, db, _) = setup();
        let mut s = ServerSession::new(&db);
        let f = s.dump().unwrap();
        assert_eq!(Dump::decode(&f).unwrap().values, db.values());
    }

    #[test]
    fn rejects_empty_batch() {
        let (kp, db, mut rng) = setup();
        let mut s = ServerSession::new(&db);
        s.on_frame(&hello(&kp, 5, 5)).unwrap();
        // A zero-length batch must be rejected, not silently accepted —
        // it would never advance the cursor.
        let empty = batch_frame(&kp, 0, &[], &mut rng);
        assert!(matches!(
            s.on_frame(&empty),
            Err(ProtocolError::InvalidInput("empty index batch"))
        ));
        // The session stays usable: a real batch still completes it.
        let reply = s
            .on_frame(&batch_frame(&kp, 0, &[1, 0, 1, 0, 1], &mut rng))
            .unwrap()
            .unwrap();
        let product = Product::decode(&reply, &kp.public).unwrap();
        assert_eq!(
            kp.secret.decrypt(&product.ciphertext).unwrap().to_u64(),
            Some(90)
        );
    }

    #[test]
    fn hello_for_empty_database_finalizes_immediately() {
        let (kp, _, _) = setup();
        let db = Database::empty();
        let mut s = ServerSession::new(&db);
        // total == 0 matches the empty database; the server must reply
        // with the identity product at once instead of waiting for
        // batches that will never come.
        let reply = s
            .on_frame(&hello(&kp, 0, 5))
            .unwrap()
            .expect("empty-database hello must produce an immediate product");
        assert!(s.is_done());
        let product = Product::decode(&reply, &kp.public).unwrap();
        assert_eq!(
            kp.secret.decrypt(&product.ciphertext).unwrap().to_u64(),
            Some(0)
        );
        // Blinding still applies to the empty sum.
        let mut blinded = ServerSession::with_blinding(&db, pps_bignum::Uint::from_u64(77));
        let reply = blinded.on_frame(&hello(&kp, 0, 5)).unwrap().unwrap();
        let product = Product::decode(&reply, &kp.public).unwrap();
        assert_eq!(
            kp.secret.decrypt(&product.ciphertext).unwrap().to_u64(),
            Some(77)
        );
    }

    #[test]
    fn blinded_session() {
        let (kp, db, mut rng) = setup();
        let r = pps_bignum::Uint::from_u64(1_000_000);
        let mut s = ServerSession::with_blinding(&db, r);
        s.on_frame(&hello(&kp, 5, 5)).unwrap();
        let reply = s
            .on_frame(&batch_frame(&kp, 0, &[1, 0, 1, 0, 1], &mut rng))
            .unwrap()
            .unwrap();
        let product = Product::decode(&reply, &kp.public).unwrap();
        // Decrypted value is the blinded partial sum.
        assert_eq!(
            kp.secret.decrypt(&product.ciphertext).unwrap().to_u64(),
            Some(1_000_090)
        );
    }

    #[test]
    fn rejects_non_monotone_sequence_numbers() {
        let (kp, db, mut rng) = setup();
        // A replayed (duplicate) sequence number would double-fold.
        let mut s = ServerSession::new(&db);
        s.on_frame(&hello(&kp, 5, 2)).unwrap();
        s.on_frame(&batch_frame(&kp, 0, &[1, 0], &mut rng)).unwrap();
        assert!(matches!(
            s.on_frame(&batch_frame(&kp, 0, &[0, 1], &mut rng)),
            Err(ProtocolError::InvalidInput(
                "batch sequence number out of order"
            ))
        ));
        // A gap would misalign weights with database rows.
        let mut s = ServerSession::new(&db);
        s.on_frame(&hello(&kp, 5, 2)).unwrap();
        assert!(matches!(
            s.on_frame(&batch_frame(&kp, 1, &[1, 0], &mut rng)),
            Err(ProtocolError::InvalidInput(
                "batch sequence number out of order"
            ))
        ));
    }

    #[test]
    fn rejects_batch_larger_than_announced_batch_size() {
        let (kp, db, mut rng) = setup();
        let mut s = ServerSession::new(&db);
        s.on_frame(&hello(&kp, 5, 2)).unwrap();
        assert!(matches!(
            s.on_frame(&batch_frame(&kp, 0, &[1, 0, 1], &mut rng)),
            Err(ProtocolError::InvalidInput(
                "batch larger than announced batch size"
            ))
        ));
    }

    #[test]
    fn rejects_batch_size_beyond_frame_capacity() {
        let (kp, db, _) = setup();
        let mut s = ServerSession::new(&db);
        // At 128-bit keys a ciphertext is 32 bytes, so u32::MAX per batch
        // could never be framed under MAX_PAYLOAD (64 MiB).
        assert!(matches!(
            s.on_frame(&hello(&kp, 5, u32::MAX)),
            Err(ProtocolError::InvalidInput(
                "batch size exceeds frame capacity"
            ))
        ));
    }

    #[test]
    fn checkpoint_resume_round_trip_preserves_the_fold() {
        let (kp, db, mut rng) = setup();
        let mut s = ServerSession::new(&db);
        s.on_frame(&hello(&kp, 5, 2)).unwrap();
        assert!(s.checkpoint().is_some(), "mid-stream sessions checkpoint");
        s.on_frame(&batch_frame(&kp, 0, &[1, 1], &mut rng)).unwrap();
        let cp = s.checkpoint().expect("checkpoint after first batch");
        assert_eq!(cp.cursor, 2);
        assert_eq!(cp.next_seq, 1);
        drop(s); // the original connection died here

        let mut resumed = ServerSession::resume(&db, FoldStrategy::Incremental, cp).unwrap();
        assert_eq!(resumed.next_seq(), Some(1));
        assert!(resumed
            .on_frame(&batch_frame(&kp, 1, &[0, 0], &mut rng))
            .unwrap()
            .is_none());
        let reply = resumed
            .on_frame(&batch_frame(&kp, 2, &[1], &mut rng))
            .unwrap()
            .unwrap();
        let product = Product::decode(&reply, &kp.public).unwrap();
        // Rows 0, 1, 4 → 10 + 20 + 50: the pre-disconnect fold survived.
        assert_eq!(
            kp.secret.decrypt(&product.ciphertext).unwrap().to_u64(),
            Some(80)
        );
        // Stats carried across the resume cover the whole session.
        assert_eq!(resumed.stats().folded, 5);
        assert_eq!(resumed.stats().per_batch_compute.len(), 3);
    }

    #[test]
    fn checkpoint_carries_blinding_across_resume() {
        // A resumed shard leg must stay blinded: the checkpoint carries
        // R and the rebuilt session applies it at finalize. (Resume used
        // to hardcode `blinding: None`, silently unblinding the leg.)
        let (kp, db, mut rng) = setup();
        let r = pps_bignum::Uint::from_u64(7_000);
        let mut s = ServerSession::with_blinding(&db, r);
        s.on_frame(&hello(&kp, 5, 2)).unwrap();
        s.on_frame(&batch_frame(&kp, 0, &[1, 1], &mut rng)).unwrap();
        let cp = s.checkpoint().unwrap();
        assert!(cp.blinding.is_some(), "checkpoint snapshots the blinding");
        drop(s);

        let mut resumed = ServerSession::resume(&db, FoldStrategy::Incremental, cp).unwrap();
        assert!(resumed.has_blinding());
        resumed
            .on_frame(&batch_frame(&kp, 1, &[0, 0], &mut rng))
            .unwrap();
        let reply = resumed
            .on_frame(&batch_frame(&kp, 2, &[1], &mut rng))
            .unwrap()
            .unwrap();
        let product = Product::decode(&reply, &kp.public).unwrap();
        // Rows 0, 1, 4 → 10 + 20 + 50, plus the blinding 7000.
        assert_eq!(
            kp.secret.decrypt(&product.ciphertext).unwrap().to_u64(),
            Some(7_080)
        );
    }

    #[test]
    fn set_blinding_only_on_pristine_sessions() {
        let (kp, db, mut rng) = setup();
        let mut s = ServerSession::new(&db);
        s.set_blinding(pps_bignum::Uint::from_u64(1)).unwrap();
        assert!(s.has_blinding());
        assert!(matches!(
            s.set_blinding(pps_bignum::Uint::from_u64(2)),
            Err(ProtocolError::UnexpectedMessage(
                "duplicate shard handshake"
            ))
        ));
        s.on_frame(&hello(&kp, 5, 2)).unwrap();
        s.on_frame(&batch_frame(&kp, 0, &[1, 1], &mut rng)).unwrap();
        let mut started = ServerSession::new(&db);
        started.on_frame(&hello(&kp, 5, 2)).unwrap();
        assert!(matches!(
            started.set_blinding(pps_bignum::Uint::from_u64(3)),
            Err(ProtocolError::UnexpectedMessage(
                "shard handshake mid-session"
            ))
        ));
    }

    #[test]
    fn pristine_and_done_sessions_do_not_checkpoint() {
        let (kp, db, mut rng) = setup();
        let mut s = ServerSession::new(&db);
        assert!(s.checkpoint().is_none(), "nothing to resume before hello");
        s.on_frame(&hello(&kp, 5, 5)).unwrap();
        s.on_frame(&batch_frame(&kp, 0, &[1, 0, 1, 0, 1], &mut rng))
            .unwrap()
            .unwrap();
        assert!(s.is_done());
        assert!(s.checkpoint().is_none(), "done sessions have no remainder");
    }

    #[test]
    fn precomputed_fold_matches_incremental() {
        let (kp, db, mut rng) = setup();
        let frame = batch_frame(&kp, 0, &[1, 0, 1, 1, 0], &mut rng);
        let mut products = Vec::new();
        for fold in [FoldStrategy::Incremental, FoldStrategy::Precomputed] {
            let mut s = ServerSession::with_fold(&db, fold);
            s.on_frame(&hello(&kp, 5, 5)).unwrap();
            let reply = s.on_frame(&frame).unwrap().unwrap();
            products.push(Product::decode(&reply, &kp.public).unwrap().ciphertext);
        }
        // The same group element from both folds, not merely the same sum.
        assert_eq!(products[0], products[1]);
        assert_eq!(kp.secret.decrypt(&products[1]).unwrap().to_u64(), Some(80));
    }

    #[test]
    fn precomputed_fold_batched_session() {
        // Batches of two, two and one row, each folded into the same
        // buckets; a one-row batch costs only its scatter.
        let (kp, db, mut rng) = setup();
        let mut s = ServerSession::with_fold(&db, FoldStrategy::Precomputed);
        assert_eq!(s.fold, FoldStrategy::Precomputed);
        s.on_frame(&hello(&kp, 5, 2)).unwrap();
        s.on_frame(&batch_frame(&kp, 0, &[1, 0], &mut rng)).unwrap();
        s.on_frame(&batch_frame(&kp, 1, &[0, 1], &mut rng)).unwrap();
        let reply = s
            .on_frame(&batch_frame(&kp, 2, &[1], &mut rng))
            .unwrap()
            .unwrap();
        let product = Product::decode(&reply, &kp.public).unwrap();
        // Rows 0, 3, 4 → 10 + 40 + 50.
        assert_eq!(
            kp.secret.decrypt(&product.ciphertext).unwrap().to_u64(),
            Some(100)
        );
        assert_eq!(s.stats().per_batch_compute.len(), 3);
    }

    #[test]
    fn precomputed_checkpoint_resumes_under_the_bucket_fold() {
        let (kp, db, mut rng) = setup();
        let mut s = ServerSession::with_fold(&db, FoldStrategy::Precomputed);
        s.on_frame(&hello(&kp, 5, 2)).unwrap();
        s.on_frame(&batch_frame(&kp, 0, &[1, 1], &mut rng)).unwrap();
        let cp = s.checkpoint().expect("mid-stream checkpoint");
        // The snapshot holds the buckets' product so far: rows 0 and 1.
        assert_eq!(
            kp.secret.decrypt(&cp.accumulator).unwrap().to_u64(),
            Some(30)
        );
        // Taking it left the session folding on.
        assert!(s
            .on_frame(&batch_frame(&kp, 1, &[0, 0], &mut rng))
            .unwrap()
            .is_none());
        drop(s); // the original connection died here

        let mut resumed =
            ServerSession::resume(&db, FoldStrategy::Precomputed, cp.clone()).unwrap();
        assert_eq!(resumed.fold, FoldStrategy::Precomputed);
        resumed
            .on_frame(&batch_frame(&kp, 1, &[0, 0], &mut rng))
            .unwrap();
        let reply = resumed
            .on_frame(&batch_frame(&kp, 2, &[1], &mut rng))
            .unwrap()
            .unwrap();
        let product = Product::decode(&reply, &kp.public).unwrap();
        // Rows 0, 1, 4 → 10 + 20 + 50: the pre-disconnect fold survived.
        assert_eq!(
            kp.secret.decrypt(&product.ciphertext).unwrap().to_u64(),
            Some(80)
        );

        // The checkpoint must cover the database it resumes against.
        let other = Database::new(vec![1, 2, 3]).unwrap();
        assert!(matches!(
            ServerSession::resume(&other, FoldStrategy::Precomputed, cp),
            Err(ProtocolError::Config(_))
        ));
    }

    #[test]
    fn buckets_are_allocated_at_the_first_batch() {
        // A client that stalls after `Hello`, or after a resume, must pin
        // no bucket memory (PROTOCOL.md §8).
        let (kp, db, mut rng) = setup();
        let holds_buckets =
            |s: &ServerSession<'_>| matches!(&s.state, State::Receiving { fold: Some(_), .. });
        let mut s = ServerSession::with_fold(&db, FoldStrategy::Precomputed);
        s.on_frame(&hello(&kp, 5, 2)).unwrap();
        assert!(!holds_buckets(&s), "past Hello, no batch yet");
        s.on_frame(&batch_frame(&kp, 0, &[1, 1], &mut rng)).unwrap();
        assert!(holds_buckets(&s), "the first batch allocates them");
        let cp = s.checkpoint().unwrap();
        drop(s);

        let mut resumed = ServerSession::resume(&db, FoldStrategy::Precomputed, cp).unwrap();
        assert!(!holds_buckets(&resumed), "resumed, no batch yet");
        resumed
            .on_frame(&batch_frame(&kp, 1, &[0, 0], &mut rng))
            .unwrap();
        assert!(holds_buckets(&resumed));
        let reply = resumed
            .on_frame(&batch_frame(&kp, 2, &[1], &mut rng))
            .unwrap()
            .unwrap();
        assert!(!holds_buckets(&resumed), "freed with the product");
        let product = Product::decode(&reply, &kp.public).unwrap();
        // Rows 0, 1, 4 → 10 + 20 + 50.
        assert_eq!(
            kp.secret.decrypt(&product.ciphertext).unwrap().to_u64(),
            Some(80)
        );
    }

    #[test]
    fn cross_strategy_resume_is_correct() {
        // A checkpoint snapshots only the homomorphic product and stream
        // position — nothing fold-specific — so a session may checkpoint
        // under the buckets and resume under the loop, and back.
        let (kp, _, mut rng) = setup();
        let db = Database::new(vec![10, 20, 30, 40, 50, 60]).unwrap();
        let (inc, pre) = (FoldStrategy::Incremental, FoldStrategy::Precomputed);
        for (first, second) in [(pre, inc), (inc, pre)] {
            let mut s = ServerSession::with_fold(&db, first);
            s.on_frame(&hello(&kp, 6, 3)).unwrap();
            s.on_frame(&batch_frame(&kp, 0, &[1, 1, 0], &mut rng))
                .unwrap();
            let cp = s.checkpoint().unwrap();
            drop(s);

            let mut resumed = ServerSession::resume(&db, second, cp).unwrap();
            let reply = resumed
                .on_frame(&batch_frame(&kp, 1, &[0, 1, 1], &mut rng))
                .unwrap()
                .unwrap();
            let product = Product::decode(&reply, &kp.public).unwrap();
            // Rows 0, 1, 4, 5 → 10 + 20 + 50 + 60.
            assert_eq!(
                kp.secret.decrypt(&product.ciphertext).unwrap().to_u64(),
                Some(140),
                "checkpoint resumed across folds ({first:?} → {second:?})"
            );
        }
    }

    #[test]
    fn serving_defaults_to_the_plan_while_new_keeps_the_papers_loop() {
        let (_, db, _) = setup();
        assert_eq!(FoldStrategy::default(), FoldStrategy::Precomputed);
        assert_eq!(ServerSession::new(&db).fold, FoldStrategy::Incremental);
    }

    #[test]
    fn resume_validates_the_checkpoint_against_the_database() {
        let (kp, db, mut rng) = setup();
        let mut s = ServerSession::new(&db);
        s.on_frame(&hello(&kp, 5, 2)).unwrap();
        s.on_frame(&batch_frame(&kp, 0, &[1, 1], &mut rng)).unwrap();
        let cp = s.checkpoint().unwrap();

        // Wrong database size.
        let other = Database::new(vec![1, 2, 3]).unwrap();
        assert!(matches!(
            ServerSession::resume(&other, FoldStrategy::Incremental, cp.clone()),
            Err(ProtocolError::Config(_))
        ));
        // Forged cursor beyond the announced total.
        let mut forged = cp.clone();
        forged.cursor = 99;
        assert!(matches!(
            ServerSession::resume(&db, FoldStrategy::Incremental, forged),
            Err(ProtocolError::InvalidInput(_))
        ));
        // Forged zero batch size.
        let mut forged = cp;
        forged.batch_size = 0;
        assert!(matches!(
            ServerSession::resume(&db, FoldStrategy::Incremental, forged),
            Err(ProtocolError::InvalidInput(_))
        ));
    }
}
