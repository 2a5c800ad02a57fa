//! The scheduler-independent per-frame protocol surface.
//!
//! Every server speaks the same resumable dialect: `Hello` is
//! acknowledged with a session ticket, fold state is checkpointed after
//! every acknowledged batch, `Resume` restores a stored checkpoint,
//! `ShardHello` installs a §3.5 blinding, and a shard-gated worker
//! refuses anything unblinded. [`SessionFlow`] captures that surface as
//! one frame-in/frames-out step function so its callers cannot drift:
//! the TCP runtime pumps it from a blocking wire on each connection's
//! thread, and the `pps-sim` harness pumps it from simulated wires.

use std::sync::Arc;

use pps_bignum::MultiExpPlan;
use pps_obs::TraceContext;
use pps_transport::Frame;

use crate::data::Database;
use crate::error::ProtocolError;
use crate::messages::{Hello, HelloAck, MsgType, Resume, ResumeAck, ShardHello};
use crate::resume::SessionTable;
use crate::server::{ServerSession, ServerStats};
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
pub struct SessionFlow<'a> {
    session: ServerSession<'a>,
    db: &'a Database,
    /// The shared plan every session and resume folds through; `None`
    /// folds with the paper's loop.
    plan: Option<Arc<MultiExpPlan>>,
    table: &'a SessionTable,
    require_shard: bool,
    ticket: Option<u64>,
    resumed: bool,
    trace: Option<TraceContext>,
}

impl<'a> SessionFlow<'a> {
    /// A flow awaiting its first frame, folding through `plan` — built
    /// from this very database by the serve loop — or, with `None`, the
    /// paper's loop.
    ///
    /// # Panics
    /// When `plan` does not cover `db` (a caller bug: the plan would
    /// weight rows wrong).
    pub fn new(
        db: &'a Database,
        plan: Option<Arc<MultiExpPlan>>,
        table: &'a SessionTable,
        require_shard: bool,
    ) -> Self {
        let session = match &plan {
            Some(plan) => ServerSession::with_fold_plan(db, Arc::clone(plan))
                .expect("plan was built from this database"),
            None => ServerSession::new(db),
        };
        SessionFlow {
            session,
            db,
            plan,
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

    /// Feeds one frame through the full runtime dialect: shard
    /// handshake and gate, resume grant/denial, hello acknowledgement,
    /// the protocol step itself, and checkpointing. On the step that
    /// completes the session the checkpoint is spent (removed), not
    /// left to TTL eviction.
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
                .and_then(|cp| ServerSession::resume(self.db, self.plan.clone(), cp).ok());
            match restored {
                Some(restored) => {
                    self.session = restored;
                    self.resumed = true;
                    step.resumed_now = true;
                    self.ticket = Some(req.session_id);
                    let next_seq = self.session.next_seq().unwrap_or(0);
                    // Re-store at once: a disconnect between the grant
                    // and the next batch must not lose the checkpointed
                    // work.
                    if let Some(cp) = self.session.checkpoint() {
                        self.table.store(req.session_id, cp);
                    }
                    step.replies.push(
                        ResumeAck {
                            granted: true,
                            next_seq,
                        }
                        .encode()?,
                    );
                }
                None => {
                    // Stale / evicted / unknown: the client falls back
                    // to a fresh Hello on this connection.
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
        if let (Some(id), Some(cp)) = (self.ticket, self.session.checkpoint()) {
            self.table.store(id, cp);
        }
        if let Some(reply) = reply {
            step.replies.push(reply);
        }
        if self.session.is_done() {
            // Clean completion: the checkpoint is spent, not evicted.
            if let Some(id) = self.ticket.take() {
                self.table.remove(id);
            }
        }
        Ok(step)
    }
}
