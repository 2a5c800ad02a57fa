//! The scheduler-independent per-frame protocol surface.
//!
//! Every server speaks the same resumable dialect: `Hello` is
//! acknowledged with a session ticket, the fold state is checkpointed
//! when a connection ends before the product (the flow *parks*),
//! `Resume` restores a stored checkpoint, `ShardHello` installs a §3.5
//! blinding, and a shard-gated worker refuses anything unblinded.
//! [`SessionFlow`] captures that surface as one frame-in/frames-out step
//! function so its callers cannot drift: the TCP runtime pumps it from a
//! blocking wire on each connection's thread, and the `pps-sim` harness
//! pumps it from simulated wires.

use pps_obs::TraceContext;
use pps_transport::Frame;

use crate::data::Database;
use crate::error::ProtocolError;
use crate::messages::{Hello, HelloAck, MsgType, Resume, ResumeAck, ShardHello};
use crate::resume::SessionTable;
use crate::server::{FoldStrategy, ServerSession, ServerStats};
use crate::shard::leg_blinding;

/// What one [`SessionFlow::on_frame`] step produced: zero or more reply
/// frames (sent in order) and whether this step granted a resume.
#[derive(Debug, Default)]
pub struct FlowStep {
    /// Replies to write to the peer, in order.
    pub replies: Vec<Frame>,
    /// This step restored a checkpoint (fire `SessionEvent::Resumed`).
    pub resumed_now: bool,
}

/// One connection's protocol state machine: a [`ServerSession`] plus the
/// runtime concerns layered on top of it (resume tickets, checkpoint
/// storage, shard gating). Pure message-in/messages-out — no I/O, no
/// clocks — so any scheduler can drive it: the TCP runtime pumps it
/// from sockets, and the `pps-sim` discrete-event harness pumps it from
/// simulated wires (which is why the type is public).
///
/// A flow stores its checkpoint only when the runtime pumping it reports
/// that the connection ended before the product
/// ([`SessionFlow::park`]): under the bucket fold a checkpoint costs a
/// bucket reduction, too much to pay after every frame.
pub struct SessionFlow<'a> {
    session: ServerSession<'a>,
    db: &'a Database,
    /// How this session, and a session it resumes, folds.
    fold: FoldStrategy,
    table: &'a SessionTable,
    require_shard: bool,
    ticket: Option<u64>,
    resumed: bool,
    trace: Option<TraceContext>,
}

impl<'a> SessionFlow<'a> {
    /// A flow awaiting its first frame, folding with `fold`.
    pub fn new(
        db: &'a Database,
        fold: FoldStrategy,
        table: &'a SessionTable,
        require_shard: bool,
    ) -> Self {
        SessionFlow {
            session: ServerSession::with_fold(db, fold),
            db,
            fold,
            table,
            require_shard,
            ticket: None,
            resumed: false,
            trace: None,
        }
    }

    /// Whether the protocol ran to completion (the product was
    /// produced); the connection should flush and close.
    pub fn is_done(&self) -> bool {
        self.session.is_done()
    }

    /// Whether any step granted a `Resume`.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// The distributed trace context the peer announced on its
    /// handshake (`Hello`, `ShardHello`, or `Resume` trailer), if any —
    /// the runtime stamps it onto this session's spans and events.
    pub fn trace(&self) -> Option<TraceContext> {
        self.trace
    }

    /// The session's accumulated statistics.
    pub fn stats(&self) -> &ServerStats {
        self.session.stats()
    }

    /// Whether a §3.5 blinding is installed on the underlying session.
    /// The simulation harness's invariant oracle uses this to check a
    /// shard worker never reaches the reply step unblinded.
    pub fn has_blinding(&self) -> bool {
        self.session.has_blinding()
    }

    /// Stores the session's checkpoint under its ticket, when the
    /// connection ended before the product: the runtime calls this once
    /// the wire has failed or closed. A pristine or finished flow, or
    /// one already parked, stores nothing. The checkpoint's TTL runs
    /// from here.
    pub fn park(&mut self) {
        let Some(id) = self.ticket.take() else {
            return;
        };
        if let Some(cp) = self.session.checkpoint() {
            self.table.store(id, cp);
        }
    }

    /// Feeds one frame through the full runtime dialect: shard
    /// handshake and gate, resume grant/denial, hello acknowledgement
    /// and the protocol step itself. Nothing is checkpointed here; a
    /// granted resume has taken its checkpoint out of the table, so a
    /// second `Resume` for the same id is refused while this flow
    /// lives.
    ///
    /// # Errors
    /// Any protocol violation; the caller must close the connection
    /// (the flow is not recoverable after an error).
    pub fn on_frame(&mut self, frame: &Frame) -> Result<FlowStep, ProtocolError> {
        let mut step = FlowStep::default();
        if frame.msg_type == MsgType::ShardHello as u8 {
            // Shard handshake: derive this worker's correlated blinding
            // from the pairwise seeds and install it before the session
            // starts. No reply — the client pipelines its next message
            // immediately. On a *resume*, the restored checkpoint's own
            // blinding (the same value — seeds are per-query)
            // supersedes this fresh session.
            let sh = ShardHello::decode(frame)?;
            self.trace = sh.trace.or(self.trace);
            let m = pps_bignum::Uint::one().shl(sh.m_bits as usize);
            let r = leg_blinding(&sh.seeds_add, &sh.seeds_sub, &m)?;
            self.session.set_blinding(r)?;
            return Ok(step);
        }
        if self.require_shard {
            let allowed = match frame.msg_type {
                // Always acceptable: the handshake itself, a resume
                // (its checkpoint carries the session's blinding), and
                // size discovery (reveals only the row count).
                t if t == MsgType::ShardHello as u8 => true,
                t if t == MsgType::Resume as u8 => true,
                t if t == MsgType::SizeRequest as u8 => true,
                // Never acceptable: the plaintext baseline replies with
                // the raw partition sum and the blinding never touches
                // that path — per-index probes would read the whole
                // partition out unblinded.
                t if t == MsgType::PlainIndices as u8 => false,
                // Everything else only once a blinding is installed.
                _ => self.session.has_blinding(),
            };
            if !allowed {
                return Err(ProtocolError::UnexpectedMessage(
                    "shard worker accepts only blinded queries",
                ));
            }
        }
        if frame.msg_type == MsgType::Resume as u8 {
            if !self.session.is_awaiting_hello() {
                return Err(ProtocolError::UnexpectedMessage("resume mid-session"));
            }
            let req = Resume::decode(frame)?;
            self.trace = req.trace.or(self.trace);
            // `take` makes the grant exclusive; a checkpoint that fails
            // validation against this database is discarded, not
            // granted.
            let restored = self
                .table
                .take(req.session_id)
                .and_then(|cp| ServerSession::resume(self.db, self.fold, cp).ok());
            match restored {
                Some(restored) => {
                    self.session = restored;
                    self.resumed = true;
                    step.resumed_now = true;
                    self.ticket = Some(req.session_id);
                    let next_seq = self.session.next_seq().unwrap_or(0);
                    step.replies.push(
                        ResumeAck {
                            granted: true,
                            next_seq,
                        }
                        .encode()?,
                    );
                }
                None => {
                    // Stale / evicted / unknown, or not parked yet (its
                    // connection has not been seen to end): the client
                    // falls back to a fresh Hello on this connection.
                    step.replies.push(
                        ResumeAck {
                            granted: false,
                            next_seq: 0,
                        }
                        .encode()?,
                    );
                }
            }
            return Ok(step);
        }
        let fresh_hello =
            frame.msg_type == MsgType::Hello as u8 && self.session.is_awaiting_hello();
        if fresh_hello {
            // Peek the trace trailer before the session consumes the
            // frame. The double decode is confined to the one Hello per
            // session and costs microseconds against the session's
            // crypto; a decode error surfaces from on_frame below.
            if let Ok(hello) = Hello::decode(frame) {
                self.trace = hello.trace.or(self.trace);
            }
        }
        let reply = self.session.on_frame(frame)?;
        if fresh_hello {
            let id = self.table.allocate();
            self.ticket = Some(id);
            step.replies.push(HelloAck { session_id: id }.encode()?);
        }
        if let Some(reply) = reply {
            step.replies.push(reply);
        }
        Ok(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{IndexBatch, Product};
    use pps_crypto::PaillierKeypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        kp: PaillierKeypair,
        db: Database,
        table: SessionTable,
        rng: StdRng,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(77);
        let kp = PaillierKeypair::generate(128, &mut rng).unwrap();
        Fixture {
            kp,
            db: Database::new(vec![10, 20, 30, 40, 50]).unwrap(),
            table: SessionTable::default(),
            rng,
        }
    }

    impl Fixture {
        fn flow(&self) -> SessionFlow<'_> {
            SessionFlow::new(&self.db, FoldStrategy::default(), &self.table, false)
        }

        fn hello(&self) -> Frame {
            Hello {
                modulus: self.kp.public.n().clone(),
                total: 5,
                batch_size: 2,
                trace: None,
            }
            .encode()
            .unwrap()
        }

        fn batch(&mut self, seq: u64, bits: &[u64]) -> Frame {
            let ciphertexts = bits
                .iter()
                .map(|&b| self.kp.public.encrypt_u64(b, &mut self.rng).unwrap())
                .collect();
            IndexBatch { seq, ciphertexts }
                .encode(&self.kp.public)
                .unwrap()
        }

        fn resume(&self, session_id: u64) -> Frame {
            Resume {
                session_id,
                next_seq: 0,
                trace: None,
            }
            .encode()
            .unwrap()
        }
    }

    /// Starts a flow with `Hello` and returns its ticket.
    fn start(flow: &mut SessionFlow<'_>, hello: &Frame) -> u64 {
        let step = flow.on_frame(hello).unwrap();
        HelloAck::decode(&step.replies[0]).unwrap().session_id
    }

    fn granted(step: &FlowStep) -> ResumeAck {
        ResumeAck::decode(&step.replies[0]).unwrap()
    }

    #[test]
    fn mid_stream_flow_stores_nothing_until_park() {
        let mut f = fixture();
        let (hello, b0, b1) = (f.hello(), f.batch(0, &[1, 1]), f.batch(1, &[0, 1]));
        let mut flow = f.flow();
        start(&mut flow, &hello);
        flow.on_frame(&b0).unwrap();
        flow.on_frame(&b1).unwrap();
        assert!(f.table.is_empty(), "a live session keeps no checkpoint");
        flow.park();
        assert_eq!(f.table.len(), 1);
    }

    #[test]
    fn park_stores_one_checkpoint_at_the_next_batch() {
        let mut f = fixture();
        let (hello, b0) = (f.hello(), f.batch(0, &[1, 1]));
        let mut flow = f.flow();
        let id = start(&mut flow, &hello);
        flow.on_frame(&b0).unwrap();
        flow.park();
        flow.park();
        assert_eq!(f.table.len(), 1, "one checkpoint however often parked");
        let cp = f.table.take(id).expect("stored under the session's ticket");
        assert_eq!((cp.next_seq, cp.cursor), (1, 2));
        // The checkpoint holds the bucket fold's product so far.
        let sum = f.kp.secret.decrypt(&cp.accumulator).unwrap();
        assert_eq!(sum.to_u64(), Some(30));
    }

    #[test]
    fn park_on_pristine_or_finished_flow_stores_nothing() {
        let mut f = fixture();
        let hello = f.hello();
        let batches = [f.batch(0, &[1, 0]), f.batch(1, &[0, 0]), f.batch(2, &[1])];
        let mut pristine = f.flow();
        pristine.park();
        assert!(f.table.is_empty());

        let mut flow = f.flow();
        start(&mut flow, &hello);
        for b in &batches {
            flow.on_frame(b).unwrap();
        }
        assert!(flow.is_done());
        flow.park();
        assert!(
            f.table.is_empty(),
            "a finished session has nothing to resume"
        );
    }

    #[test]
    fn second_resume_for_a_live_resumed_flow_is_refused() {
        let mut f = fixture();
        let (hello, b0) = (f.hello(), f.batch(0, &[1, 1]));
        let mut first = f.flow();
        let id = start(&mut first, &hello);
        first.on_frame(&b0).unwrap();
        // Before the first connection is seen to end, there is nothing
        // to resume.
        let mut early = f.flow();
        assert!(!granted(&early.on_frame(&f.resume(id)).unwrap()).granted);
        first.park();

        let mut resumed = f.flow();
        let step = resumed.on_frame(&f.resume(id)).unwrap();
        assert!(step.resumed_now);
        assert_eq!(granted(&step).next_seq, 1);
        // While the resumed flow lives, a second Resume for the id finds
        // nothing: the grant took the checkpoint out of the table.
        let mut second = f.flow();
        assert!(!granted(&second.on_frame(&f.resume(id)).unwrap()).granted);
        assert!(!second.resumed());
    }

    #[test]
    fn resumed_flow_that_finishes_leaves_the_table_empty() {
        let mut f = fixture();
        let hello = f.hello();
        let batches = [f.batch(0, &[1, 0]), f.batch(1, &[0, 0]), f.batch(2, &[1])];
        let mut first = f.flow();
        let id = start(&mut first, &hello);
        first.on_frame(&batches[0]).unwrap();
        first.park();

        let mut resumed = f.flow();
        resumed.on_frame(&f.resume(id)).unwrap();
        resumed.on_frame(&batches[1]).unwrap();
        let step = resumed.on_frame(&batches[2]).unwrap();
        assert!(resumed.is_done());
        let product = Product::decode(&step.replies[0], &f.kp.public).unwrap();
        // Rows 0 and 4: 10 + 50.
        let sum = f.kp.secret.decrypt(&product.ciphertext).unwrap();
        assert_eq!(sum.to_u64(), Some(60));
        resumed.park();
        assert!(f.table.is_empty());
    }
}
