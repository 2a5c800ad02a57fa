//! Protocol messages and their byte-exact wire codecs.
//!
//! Every message serializes to a [`Frame`] so the transport layer counts
//! the same bytes a real deployment would ship. Ciphertexts are encoded
//! fixed-width (the width of `N²`), exactly as the OpenSSL-based
//! implementation in the paper would have sent them.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use pps_bignum::Uint;
use pps_crypto::{Ciphertext, PaillierPublicKey};
use pps_obs::{TraceContext, TRACE_CONTEXT_WIRE_LEN};
use pps_transport::{Frame, TransportError};

use crate::error::ProtocolError;

/// Decodes the optional distributed-tracing trailer (PROTOCOL.md §9.4)
/// that [`Hello`], [`Resume`], and [`ShardHello`] may carry: either the
/// payload ends exactly where the base layout ends (no context — the
/// v2 wire image, byte-identical to pre-tracing peers) or exactly
/// [`TRACE_CONTEXT_WIRE_LEN`] bytes follow. Anything else is malformed.
fn decode_trace_trailer(
    p: &mut Bytes,
    msg: &'static str,
) -> Result<Option<TraceContext>, TransportError> {
    match p.remaining() {
        0 => Ok(None),
        TRACE_CONTEXT_WIRE_LEN => {
            let bytes = p.copy_to_bytes(TRACE_CONTEXT_WIRE_LEN);
            Ok(TraceContext::from_wire_bytes(&bytes))
        }
        _ => Err(TransportError::Malformed(msg)),
    }
}

/// Appends the trailer [`decode_trace_trailer`] reads. Encoding `None`
/// appends nothing, keeping the frame byte-identical to the pre-tracing
/// layout.
fn encode_trace_trailer(buf: &mut BytesMut, trace: Option<TraceContext>) {
    if let Some(ctx) = trace {
        buf.put_slice(&ctx.to_wire_bytes());
    }
}

/// Frame type discriminants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// Client → server: session setup (public key, element count, batch
    /// size).
    Hello = 1,
    /// Client → server: a batch of encrypted index weights.
    IndexBatch = 2,
    /// Server → client: the homomorphic product (encrypted sum).
    Product = 3,
    /// Client → server (non-private baseline): plaintext indices.
    PlainIndices = 4,
    /// Server → client (non-private baseline): plaintext sum.
    PlainSum = 5,
    /// Server → client (download-all baseline): raw database values.
    Dump = 6,
    /// Client ↔ client (multi-client phase 2): running blinded sum.
    RingPartial = 7,
    /// Client → clients (multi-client phase 2): final combined sum.
    RingTotal = 8,
    /// Client → server: database-size discovery (empty payload).
    SizeRequest = 9,
    /// Server → client: database size as a u64.
    SizeReply = 10,
    /// Server → client: session ID assigned at `Hello` (resumable
    /// runtimes only; in-process drivers never send it).
    HelloAck = 11,
    /// Client → server: reconnect and continue a checkpointed session.
    Resume = 12,
    /// Server → client: resume verdict plus the authoritative
    /// next-expected batch sequence number.
    ResumeAck = 13,
    /// Client → shard worker: sharded-query handshake (§3.5 networked) —
    /// shard position, blinding-modulus width, and the pairwise blinding
    /// seeds this worker needs to derive its correlated blinding `R_i`.
    /// Sent before anything else on every connection to a shard.
    ShardHello = 14,
}

impl MsgType {
    fn from_u8(v: u8) -> Result<Self, TransportError> {
        Ok(match v {
            1 => Self::Hello,
            2 => Self::IndexBatch,
            3 => Self::Product,
            4 => Self::PlainIndices,
            5 => Self::PlainSum,
            6 => Self::Dump,
            7 => Self::RingPartial,
            8 => Self::RingTotal,
            9 => Self::SizeRequest,
            10 => Self::SizeReply,
            11 => Self::HelloAck,
            12 => Self::Resume,
            13 => Self::ResumeAck,
            14 => Self::ShardHello,
            _ => return Err(TransportError::Malformed("unknown message type")),
        })
    }
}

/// Session setup sent by the client before streaming encrypted indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Paillier modulus `N` (the public key under `g = N + 1`).
    pub modulus: Uint,
    /// Total number of index weights that will follow.
    pub total: u64,
    /// Number of indices per [`IndexBatch`].
    pub batch_size: u32,
    /// Optional distributed-tracing context (PROTOCOL.md §9.4).
    /// `None` encodes byte-identically to the pre-tracing layout.
    pub trace: Option<TraceContext>,
}

impl Hello {
    /// Encodes to a frame:
    /// `[modulus_len u16][modulus][total u64][batch u32][trace 24B?]`.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] when the modulus is too wide for
    /// the u16 length prefix (a silent `as u16` cast here used to
    /// truncate the length and corrupt the frame); otherwise propagates
    /// frame-size errors (cannot occur for real keys).
    pub fn encode(&self) -> Result<Frame, TransportError> {
        let m = self.modulus.to_bytes_be();
        if m.len() > u16::MAX as usize {
            return Err(TransportError::Malformed(
                "hello modulus exceeds u16 length prefix",
            ));
        }
        let mut buf = BytesMut::with_capacity(2 + m.len() + 12 + TRACE_CONTEXT_WIRE_LEN);
        buf.put_u16(m.len() as u16);
        buf.put_slice(&m);
        buf.put_u64(self.total);
        buf.put_u32(self.batch_size);
        encode_trace_trailer(&mut buf, self.trace);
        Frame::new(MsgType::Hello as u8, buf.freeze())
    }

    /// Decodes from a frame payload.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] on truncation or trailing bytes
    /// (anything after `batch_size` other than exactly one trace
    /// trailer).
    pub fn decode(frame: &Frame) -> Result<Self, TransportError> {
        expect_type(frame, MsgType::Hello)?;
        let mut p = frame.payload.clone();
        if p.remaining() < 2 {
            return Err(TransportError::Malformed("hello truncated"));
        }
        let mlen = p.get_u16() as usize;
        if p.remaining() < mlen + 12 {
            return Err(TransportError::Malformed("hello truncated"));
        }
        let modulus = Uint::from_bytes_be(&p.copy_to_bytes(mlen));
        let total = p.get_u64();
        let batch_size = p.get_u32();
        let trace = decode_trace_trailer(&mut p, "hello trailing bytes")?;
        Ok(Hello {
            modulus,
            total,
            batch_size,
            trace,
        })
    }
}

/// A batch of fixed-width encrypted index weights.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexBatch {
    /// 0-based batch sequence number within the session. The server
    /// enforces strict monotonicity (`seq == next expected`) so a
    /// resumed or replayed stream can never double-fold a chunk.
    pub seq: u64,
    /// Ciphertexts `E(I_i)` for a contiguous range of indices.
    pub ciphertexts: Vec<Ciphertext>,
}

impl IndexBatch {
    /// Encodes to a frame: `[seq u64][count u32][ct bytes fixed-width]…`.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] when the batch holds more
    /// ciphertexts than the u32 count field can carry (the silent
    /// `as u32` cast here used to truncate the count and desynchronize
    /// the stream); frame-size errors for absurdly large batches.
    pub fn encode(&self, key: &PaillierPublicKey) -> Result<Frame, TransportError> {
        if self.ciphertexts.len() > u32::MAX as usize {
            return Err(TransportError::Malformed(
                "index batch count exceeds u32 field",
            ));
        }
        let w = key.ciphertext_bytes();
        let mut buf = BytesMut::with_capacity(12 + w * self.ciphertexts.len());
        buf.put_u64(self.seq);
        buf.put_u32(self.ciphertexts.len() as u32);
        for ct in &self.ciphertexts {
            let bytes = ct
                .to_bytes(key)
                .map_err(|_| TransportError::Malformed("ciphertext wider than key"))?;
            buf.put_slice(&bytes);
        }
        Frame::new(MsgType::IndexBatch as u8, buf.freeze())
    }

    /// Decodes and *validates* each ciphertext (membership in `Z*_{N²}`,
    /// i.e. `0 < c < N²` with `gcd(c, N) = 1`), with one gcd for the whole
    /// batch ([`PaillierPublicKey::validate_batch`]).
    ///
    /// # Errors
    /// * [`ProtocolError::Transport`] ([`TransportError::Malformed`]) on
    ///   truncation or a length/count mismatch;
    /// * [`ProtocolError::InvalidInput`] on a zero-ciphertext batch — an
    ///   empty batch folds nothing and can only stall the stream;
    /// * [`ProtocolError::Crypto`] when a ciphertext is out of range — a
    ///   careful server must reject these rather than fold them into its
    ///   product.
    pub fn decode(frame: &Frame, key: &PaillierPublicKey) -> Result<Self, ProtocolError> {
        expect_type(frame, MsgType::IndexBatch)?;
        let mut p = frame.payload.clone();
        if p.remaining() < 12 {
            return Err(TransportError::Malformed("batch truncated").into());
        }
        let seq = p.get_u64();
        let count = p.get_u32() as usize;
        if count == 0 {
            return Err(ProtocolError::InvalidInput("empty index batch"));
        }
        let w = key.ciphertext_bytes();
        let body = count
            .checked_mul(w)
            .ok_or(ProtocolError::InvalidInput("index batch count overflows"))?;
        if p.remaining() != body {
            return Err(TransportError::Malformed("batch length mismatch").into());
        }
        let raws = p.chunk().chunks_exact(w).map(Uint::from_bytes_be).collect();
        let ciphertexts = key.validate_batch(raws)?;
        Ok(IndexBatch { seq, ciphertexts })
    }
}

/// Session ID assignment, sent by resumable server runtimes immediately
/// after accepting a [`Hello`]. The ID is the client's ticket for
/// [`Resume`] after a disconnect. In-process drivers skip this message
/// entirely, and `SumClient::receive_result` tolerates (ignores) it, so
/// both deployments speak the same client code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelloAck {
    /// Server-assigned, unguessable session identifier (never zero).
    pub session_id: u64,
}

impl HelloAck {
    /// Encodes as 8 big-endian bytes.
    ///
    /// # Errors
    /// None in practice.
    pub fn encode(&self) -> Result<Frame, TransportError> {
        Frame::new(
            MsgType::HelloAck as u8,
            self.session_id.to_be_bytes().to_vec(),
        )
    }

    /// Decodes.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] on wrong length.
    pub fn decode(frame: &Frame) -> Result<Self, TransportError> {
        expect_type(frame, MsgType::HelloAck)?;
        let b: [u8; 8] = frame.payload[..]
            .try_into()
            .map_err(|_| TransportError::Malformed("hello ack wrong length"))?;
        Ok(HelloAck {
            session_id: u64::from_be_bytes(b),
        })
    }
}

/// Reconnect request: continue the checkpointed session `session_id`
/// from batch `next_seq`. Must be the first message on a fresh
/// connection; the server's [`ResumeAck`] carries the authoritative
/// resume point (the server may have acked more than the client saw).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resume {
    /// The session ID from [`HelloAck`].
    pub session_id: u64,
    /// The client's guess at the next batch sequence number.
    pub next_seq: u64,
    /// Optional distributed-tracing context (PROTOCOL.md §9.4).
    pub trace: Option<TraceContext>,
}

impl Resume {
    /// Encodes as `[session_id u64][next_seq u64][trace 24B?]`.
    ///
    /// # Errors
    /// None in practice.
    pub fn encode(&self) -> Result<Frame, TransportError> {
        let mut buf = BytesMut::with_capacity(16 + TRACE_CONTEXT_WIRE_LEN);
        buf.put_u64(self.session_id);
        buf.put_u64(self.next_seq);
        encode_trace_trailer(&mut buf, self.trace);
        Frame::new(MsgType::Resume as u8, buf.freeze())
    }

    /// Decodes.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] on wrong length (16 bytes, or
    /// 16 plus one trace trailer).
    pub fn decode(frame: &Frame) -> Result<Self, TransportError> {
        expect_type(frame, MsgType::Resume)?;
        let mut p = frame.payload.clone();
        if p.remaining() < 16 {
            return Err(TransportError::Malformed("resume wrong length"));
        }
        let session_id = p.get_u64();
        let next_seq = p.get_u64();
        let trace = decode_trace_trailer(&mut p, "resume wrong length")?;
        Ok(Resume {
            session_id,
            next_seq,
            trace,
        })
    }
}

/// Resume verdict. When `granted`, the client streams batches starting
/// at `next_seq`; when refused (checkpoint expired, evicted, or never
/// existed), the client falls back to a fresh [`Hello`] on the same
/// connection and `next_seq` is zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumeAck {
    /// Whether the checkpoint was found and restored.
    pub granted: bool,
    /// The server's next-expected batch sequence number.
    pub next_seq: u64,
}

impl ResumeAck {
    /// Encodes as `[granted u8][next_seq u64]`.
    ///
    /// # Errors
    /// None in practice.
    pub fn encode(&self) -> Result<Frame, TransportError> {
        let mut buf = BytesMut::with_capacity(9);
        buf.put_u8(u8::from(self.granted));
        buf.put_u64(self.next_seq);
        Frame::new(MsgType::ResumeAck as u8, buf.freeze())
    }

    /// Decodes.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] on wrong length or a granted byte
    /// that is neither 0 nor 1.
    pub fn decode(frame: &Frame) -> Result<Self, TransportError> {
        expect_type(frame, MsgType::ResumeAck)?;
        let b: [u8; 9] = frame.payload[..]
            .try_into()
            .map_err(|_| TransportError::Malformed("resume ack wrong length"))?;
        let granted = match b[0] {
            0 => false,
            1 => true,
            _ => return Err(TransportError::Malformed("resume ack bad flag")),
        };
        Ok(ResumeAck {
            granted,
            next_seq: u64::from_be_bytes(b[1..].try_into().unwrap()),
        })
    }
}

/// The server's reply: one ciphertext holding the (possibly blinded)
/// encrypted sum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Product {
    /// `E(Σ I_i·x_i)` (plus blinding in the multi-client protocol).
    pub ciphertext: Ciphertext,
}

impl Product {
    /// Encodes to a frame of one fixed-width ciphertext.
    ///
    /// # Errors
    /// Frame-size errors (cannot occur for real keys).
    pub fn encode(&self, key: &PaillierPublicKey) -> Result<Frame, TransportError> {
        let bytes = self
            .ciphertext
            .to_bytes(key)
            .map_err(|_| TransportError::Malformed("ciphertext wider than key"))?;
        Frame::new(MsgType::Product as u8, bytes)
    }

    /// Decodes and validates.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] on length or validity failures.
    pub fn decode(frame: &Frame, key: &PaillierPublicKey) -> Result<Self, TransportError> {
        expect_type(frame, MsgType::Product)?;
        let ct = Ciphertext::from_bytes(&frame.payload, key)
            .map_err(|_| TransportError::Malformed("invalid product ciphertext"))?;
        Ok(Product { ciphertext: ct })
    }
}

/// Plaintext index list — the trivial non-private baseline (§2): the
/// client reveals exactly which rows it wants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlainIndices {
    /// Selected row indices.
    pub indices: Vec<u64>,
}

impl PlainIndices {
    /// Encodes as `[count u32][index u64]…`.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] when the index count exceeds the
    /// u32 count field; frame-size errors for absurd counts.
    pub fn encode(&self) -> Result<Frame, TransportError> {
        if self.indices.len() > u32::MAX as usize {
            return Err(TransportError::Malformed("index count exceeds u32 field"));
        }
        let mut buf = BytesMut::with_capacity(4 + 8 * self.indices.len());
        buf.put_u32(self.indices.len() as u32);
        for &i in &self.indices {
            buf.put_u64(i);
        }
        Frame::new(MsgType::PlainIndices as u8, buf.freeze())
    }

    /// Decodes.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] on truncation.
    pub fn decode(frame: &Frame) -> Result<Self, TransportError> {
        expect_type(frame, MsgType::PlainIndices)?;
        let mut p = frame.payload.clone();
        if p.remaining() < 4 {
            return Err(TransportError::Malformed("indices truncated"));
        }
        let count = p.get_u32() as usize;
        if p.remaining() != count * 8 {
            return Err(TransportError::Malformed("indices length mismatch"));
        }
        Ok(PlainIndices {
            indices: (0..count).map(|_| p.get_u64()).collect(),
        })
    }
}

/// Plaintext sum reply for the non-private baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlainSum {
    /// The sum of the requested rows.
    pub sum: u128,
}

impl PlainSum {
    /// Encodes as 16 big-endian bytes.
    ///
    /// # Errors
    /// None in practice.
    pub fn encode(&self) -> Result<Frame, TransportError> {
        Frame::new(MsgType::PlainSum as u8, self.sum.to_be_bytes().to_vec())
    }

    /// Decodes.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] on wrong length.
    pub fn decode(frame: &Frame) -> Result<Self, TransportError> {
        expect_type(frame, MsgType::PlainSum)?;
        let b: [u8; 16] = frame.payload[..]
            .try_into()
            .map_err(|_| TransportError::Malformed("plain sum wrong length"))?;
        Ok(PlainSum {
            sum: u128::from_be_bytes(b),
        })
    }
}

/// Full database dump — the other trivial baseline (§2): the server
/// reveals everything and the client sums locally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dump {
    /// All database values.
    pub values: Vec<u64>,
}

impl Dump {
    /// Encodes as `[count u32][value u64]…`.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] when the value count exceeds the
    /// u32 count field; [`TransportError::FrameTooLarge`] for databases
    /// beyond the frame cap (~8M values).
    pub fn encode(&self) -> Result<Frame, TransportError> {
        if self.values.len() > u32::MAX as usize {
            return Err(TransportError::Malformed("dump count exceeds u32 field"));
        }
        let mut buf = BytesMut::with_capacity(4 + 8 * self.values.len());
        buf.put_u32(self.values.len() as u32);
        for &v in &self.values {
            buf.put_u64(v);
        }
        Frame::new(MsgType::Dump as u8, buf.freeze())
    }

    /// Decodes.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] on truncation.
    pub fn decode(frame: &Frame) -> Result<Self, TransportError> {
        expect_type(frame, MsgType::Dump)?;
        let mut p = frame.payload.clone();
        if p.remaining() < 4 {
            return Err(TransportError::Malformed("dump truncated"));
        }
        let count = p.get_u32() as usize;
        if p.remaining() != count * 8 {
            return Err(TransportError::Malformed("dump length mismatch"));
        }
        Ok(Dump {
            values: (0..count).map(|_| p.get_u64()).collect(),
        })
    }
}

/// Running blinded sum passed around the client ring in phase 2 of the
/// multi-client protocol (§3.5). Values are residues modulo the shared
/// blinding modulus `M`, encoded as variable-width `Uint`s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingPartial {
    /// Running total `Σ_{j<=i} (P_j + R_j) mod M`.
    pub running: Uint,
}

impl RingPartial {
    /// Encodes as `[len u16][bytes]`.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] when the residue is too wide for
    /// the u16 length prefix.
    pub fn encode(&self) -> Result<Frame, TransportError> {
        Frame::new(MsgType::RingPartial as u8, encode_uint(&self.running)?)
    }

    /// Decodes.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] on truncation.
    pub fn decode(frame: &Frame) -> Result<Self, TransportError> {
        expect_type(frame, MsgType::RingPartial)?;
        Ok(RingPartial {
            running: decode_uint(&frame.payload)?,
        })
    }
}

/// Final unblinded total broadcast by the last ring client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingTotal {
    /// `Σ P_i mod M` — the true selected sum.
    pub total: Uint,
}

impl RingTotal {
    /// Encodes as `[len u16][bytes]`.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] when the total is too wide for the
    /// u16 length prefix.
    pub fn encode(&self) -> Result<Frame, TransportError> {
        Frame::new(MsgType::RingTotal as u8, encode_uint(&self.total)?)
    }

    /// Decodes.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] on truncation.
    pub fn decode(frame: &Frame) -> Result<Self, TransportError> {
        expect_type(frame, MsgType::RingTotal)?;
        Ok(RingTotal {
            total: decode_uint(&frame.payload)?,
        })
    }
}

/// Database-size discovery, for clients (e.g. the CLI) that connect
/// without prior knowledge of `n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SizeRequest;

impl SizeRequest {
    /// Encodes (empty payload).
    ///
    /// # Errors
    /// None in practice.
    pub fn encode(&self) -> Result<Frame, TransportError> {
        Frame::new(MsgType::SizeRequest as u8, Vec::new())
    }

    /// Decodes.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] on a non-empty payload.
    pub fn decode(frame: &Frame) -> Result<Self, TransportError> {
        expect_type(frame, MsgType::SizeRequest)?;
        if !frame.payload.is_empty() {
            return Err(TransportError::Malformed("size request carries no payload"));
        }
        Ok(SizeRequest)
    }
}

/// Reply to [`SizeRequest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SizeReply {
    /// Number of database rows.
    pub n: u64,
}

impl SizeReply {
    /// Encodes as 8 big-endian bytes.
    ///
    /// # Errors
    /// None in practice.
    pub fn encode(&self) -> Result<Frame, TransportError> {
        Frame::new(MsgType::SizeReply as u8, self.n.to_be_bytes().to_vec())
    }

    /// Decodes.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] on wrong length.
    pub fn decode(frame: &Frame) -> Result<Self, TransportError> {
        expect_type(frame, MsgType::SizeReply)?;
        let b: [u8; 8] = frame.payload[..]
            .try_into()
            .map_err(|_| TransportError::Malformed("size reply wrong length"))?;
        Ok(SizeReply {
            n: u64::from_be_bytes(b),
        })
    }
}

/// Hard cap on the blinding-modulus width a [`ShardHello`] may request.
/// Generous against any real Paillier key (≤ a few thousand bits) while
/// keeping a hostile handshake from making the server allocate a huge
/// `M = 2^m_bits`.
pub const MAX_SHARD_M_BITS: u32 = 16_384;

/// Hard cap on the shard count a [`ShardHello`] may claim.
pub const MAX_SHARD_COUNT: u32 = 4_096;

/// Widest pairwise blinding seed a [`ShardHello`] may carry.
pub const MAX_SHARD_SEED_BYTES: usize = 64;

/// Sharded-query handshake (§3.5, networked): sent by the fan-out
/// engine as the very first message on every connection to a shard
/// worker, before `Resume`, `SizeRequest`, or `Hello`.
///
/// The worker derives its correlated blinding
/// `R_i = Σ_{j>i} r_ij − Σ_{j<i} r_ji (mod M)` from the pairwise seeds:
/// `seeds_add` holds the seeds for pairs `(i, j)` with `j > i` (added)
/// and `seeds_sub` the seeds for pairs `(j, i)` with `j < i`
/// (subtracted), with `M = 2^m_bits`. Over all `k` workers the
/// blindings telescope to `Σ R_i ≡ 0 (mod M)`, so the combined partials
/// yield the true sum while each individual `Product` stays blinded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardHello {
    /// This worker's position `i` in the fan-out, `0 ≤ i < k`.
    pub shard_index: u32,
    /// Total number of shards `k` in the query.
    pub shard_count: u32,
    /// Blinding-modulus width: `M = 2^m_bits` (the engine uses
    /// `key_bits − 2` so every blinded partial fits the message space).
    pub m_bits: u32,
    /// Seeds for pairs `(i, j)`, `j > i`, ascending in `j` — their
    /// derived blindings are *added* to `R_i`. Length `k − 1 − i`.
    pub seeds_add: Vec<Vec<u8>>,
    /// Seeds for pairs `(j, i)`, `j < i`, ascending in `j` — their
    /// derived blindings are *subtracted*. Length `i`.
    pub seeds_sub: Vec<Vec<u8>>,
    /// Optional distributed-tracing context (PROTOCOL.md §9.4) shared
    /// by every leg of the sharded query.
    pub trace: Option<TraceContext>,
}

impl ShardHello {
    /// Encodes to a frame:
    /// `[index u32][count u32][m_bits u32][n_add u16][n_sub u16][seed_len u16][seed]…[trace 24B?]`
    /// with `seeds_add` first, then `seeds_sub`, all the same width.
    ///
    /// # Errors
    /// [`TransportError::Malformed`] when the seed lists are too long
    /// for their u16 count fields or their widths are inconsistent.
    pub fn encode(&self) -> Result<Frame, TransportError> {
        let n_add = self.seeds_add.len();
        let n_sub = self.seeds_sub.len();
        if n_add > u16::MAX as usize || n_sub > u16::MAX as usize {
            return Err(TransportError::Malformed(
                "shard hello seed count exceeds u16 field",
            ));
        }
        let seed_len = self
            .seeds_add
            .first()
            .or(self.seeds_sub.first())
            .map_or(0, Vec::len);
        if seed_len > MAX_SHARD_SEED_BYTES {
            return Err(TransportError::Malformed("shard hello seed too wide"));
        }
        if self
            .seeds_add
            .iter()
            .chain(&self.seeds_sub)
            .any(|s| s.len() != seed_len)
        {
            return Err(TransportError::Malformed(
                "shard hello seeds differ in width",
            ));
        }
        let mut buf =
            BytesMut::with_capacity(18 + seed_len * (n_add + n_sub) + TRACE_CONTEXT_WIRE_LEN);
        buf.put_u32(self.shard_index);
        buf.put_u32(self.shard_count);
        buf.put_u32(self.m_bits);
        buf.put_u16(n_add as u16);
        buf.put_u16(n_sub as u16);
        buf.put_u16(seed_len as u16);
        for seed in self.seeds_add.iter().chain(&self.seeds_sub) {
            buf.put_slice(seed);
        }
        encode_trace_trailer(&mut buf, self.trace);
        Frame::new(MsgType::ShardHello as u8, buf.freeze())
    }

    /// Decodes and validates the shard geometry: `index < count ≤`
    /// [`MAX_SHARD_COUNT`], `0 < m_bits ≤` [`MAX_SHARD_M_BITS`],
    /// `n_add = k − 1 − i`, `n_sub = i`, and a sane seed width (zero
    /// only when there are no seeds, i.e. `k = 1`).
    ///
    /// # Errors
    /// [`TransportError::Malformed`] on truncation or any geometry
    /// violation — a worker must reject an inconsistent handshake
    /// rather than answer with blinding that cannot telescope to zero.
    pub fn decode(frame: &Frame) -> Result<Self, TransportError> {
        expect_type(frame, MsgType::ShardHello)?;
        let mut p = frame.payload.clone();
        if p.remaining() < 18 {
            return Err(TransportError::Malformed("shard hello truncated"));
        }
        let shard_index = p.get_u32();
        let shard_count = p.get_u32();
        let m_bits = p.get_u32();
        let n_add = p.get_u16() as usize;
        let n_sub = p.get_u16() as usize;
        let seed_len = p.get_u16() as usize;
        if shard_count == 0 || shard_count > MAX_SHARD_COUNT || shard_index >= shard_count {
            return Err(TransportError::Malformed("shard hello bad geometry"));
        }
        if m_bits == 0 || m_bits > MAX_SHARD_M_BITS {
            return Err(TransportError::Malformed(
                "shard hello blinding width out of range",
            ));
        }
        if n_add != (shard_count - 1 - shard_index) as usize || n_sub != shard_index as usize {
            return Err(TransportError::Malformed(
                "shard hello seed counts disagree with geometry",
            ));
        }
        let total_seeds = n_add + n_sub;
        if seed_len > MAX_SHARD_SEED_BYTES || (total_seeds > 0 && seed_len == 0) {
            return Err(TransportError::Malformed("shard hello bad seed width"));
        }
        let seed_bytes = total_seeds * seed_len;
        if p.remaining() < seed_bytes {
            return Err(TransportError::Malformed("shard hello length mismatch"));
        }
        let mut take = |count: usize| -> Vec<Vec<u8>> {
            (0..count)
                .map(|_| p.copy_to_bytes(seed_len).to_vec())
                .collect()
        };
        let seeds_add = take(n_add);
        let seeds_sub = take(n_sub);
        let trace = decode_trace_trailer(&mut p, "shard hello length mismatch")?;
        Ok(ShardHello {
            shard_index,
            shard_count,
            m_bits,
            seeds_add,
            seeds_sub,
            trace,
        })
    }
}

fn encode_uint(v: &Uint) -> Result<Bytes, TransportError> {
    let b = v.to_bytes_be();
    if b.len() > u16::MAX as usize {
        return Err(TransportError::Malformed("uint exceeds u16 length prefix"));
    }
    let mut buf = BytesMut::with_capacity(2 + b.len());
    buf.put_u16(b.len() as u16);
    buf.put_slice(&b);
    Ok(buf.freeze())
}

fn decode_uint(payload: &Bytes) -> Result<Uint, TransportError> {
    let mut p = payload.clone();
    if p.remaining() < 2 {
        return Err(TransportError::Malformed("uint truncated"));
    }
    let len = p.get_u16() as usize;
    if p.remaining() != len {
        return Err(TransportError::Malformed("uint length mismatch"));
    }
    Ok(Uint::from_bytes_be(&p.copy_to_bytes(len)))
}

fn expect_type(frame: &Frame, want: MsgType) -> Result<(), TransportError> {
    let got = MsgType::from_u8(frame.msg_type)?;
    if got != want {
        return Err(TransportError::Malformed("unexpected message type"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_crypto::PaillierKeypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> PaillierKeypair {
        let mut rng = StdRng::seed_from_u64(77);
        PaillierKeypair::generate(128, &mut rng).unwrap()
    }

    #[test]
    fn hello_round_trip() {
        let kp = key();
        let h = Hello {
            modulus: kp.public.n().clone(),
            total: 100_000,
            batch_size: 100,
            trace: None,
        };
        let f = h.encode().unwrap();
        assert_eq!(Hello::decode(&f).unwrap(), h);
    }

    #[test]
    fn hello_truncation_rejected() {
        let kp = key();
        let h = Hello {
            modulus: kp.public.n().clone(),
            total: 5,
            batch_size: 1,
            trace: None,
        };
        let f = h.encode().unwrap();
        for cut in [0usize, 1, 5, f.payload.len() - 1] {
            let bad = Frame::new(MsgType::Hello as u8, f.payload.slice(..cut)).unwrap();
            assert!(Hello::decode(&bad).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn index_batch_round_trip() {
        let kp = key();
        let mut rng = StdRng::seed_from_u64(78);
        let cts: Vec<_> = (0..5)
            .map(|i| kp.public.encrypt_u64(i % 2, &mut rng).unwrap())
            .collect();
        let b = IndexBatch {
            seq: 42,
            ciphertexts: cts.clone(),
        };
        let f = b.encode(&kp.public).unwrap();
        let back = IndexBatch::decode(&f, &kp.public).unwrap();
        assert_eq!(back.seq, 42);
        assert_eq!(back.ciphertexts, cts);
        // Wire size: 8-byte seq + 4-byte count + fixed-width ciphertexts.
        assert_eq!(f.payload.len(), 12 + 5 * kp.public.ciphertext_bytes());
    }

    #[test]
    fn index_batch_invalid_ciphertext_rejected_as_crypto_error() {
        let kp = key();
        let w = kp.public.ciphertext_bytes();
        // seq = 0, count = 1, ciphertext bytes all zero (0 is not in
        // Z*_{N²}): the rejection must be *typed* so callers can tell
        // hostile ciphertexts from framing noise.
        let mut buf = BytesMut::new();
        buf.put_u64(0);
        buf.put_u32(1);
        buf.put_slice(&vec![0u8; w]);
        let f = Frame::new(MsgType::IndexBatch as u8, buf.freeze()).unwrap();
        assert!(matches!(
            IndexBatch::decode(&f, &kp.public),
            Err(ProtocolError::Crypto(_))
        ));
    }

    #[test]
    fn index_batch_length_mismatch_rejected() {
        let kp = key();
        let mut buf = BytesMut::new();
        buf.put_u64(0);
        buf.put_u32(2); // claims two, provides zero
        let f = Frame::new(MsgType::IndexBatch as u8, buf.freeze()).unwrap();
        assert!(matches!(
            IndexBatch::decode(&f, &kp.public),
            Err(ProtocolError::Transport(TransportError::Malformed(_)))
        ));
    }

    #[test]
    fn empty_index_batch_rejected_as_invalid_input() {
        let kp = key();
        let mut buf = BytesMut::new();
        buf.put_u64(3);
        buf.put_u32(0);
        let f = Frame::new(MsgType::IndexBatch as u8, buf.freeze()).unwrap();
        assert!(matches!(
            IndexBatch::decode(&f, &kp.public),
            Err(ProtocolError::InvalidInput("empty index batch"))
        ));
    }

    #[test]
    fn resume_messages_round_trip() {
        let ack = HelloAck {
            session_id: 0xfeed_beef_dead_cafe,
        };
        assert_eq!(HelloAck::decode(&ack.encode().unwrap()).unwrap(), ack);
        let r = Resume {
            session_id: 7,
            next_seq: 1234,
            trace: None,
        };
        assert_eq!(Resume::decode(&r.encode().unwrap()).unwrap(), r);
        for granted in [false, true] {
            let ra = ResumeAck {
                granted,
                next_seq: 99,
            };
            assert_eq!(ResumeAck::decode(&ra.encode().unwrap()).unwrap(), ra);
        }
    }

    #[test]
    fn resume_messages_reject_malformed_payloads() {
        let bad = Frame::new(MsgType::HelloAck as u8, vec![1u8; 7]).unwrap();
        assert!(HelloAck::decode(&bad).is_err());
        let bad = Frame::new(MsgType::Resume as u8, vec![1u8; 15]).unwrap();
        assert!(Resume::decode(&bad).is_err());
        let bad = Frame::new(MsgType::ResumeAck as u8, vec![1u8; 10]).unwrap();
        assert!(ResumeAck::decode(&bad).is_err());
        // A granted flag outside {0, 1} is corruption, not a verdict.
        let mut buf = BytesMut::new();
        buf.put_u8(2);
        buf.put_u64(0);
        let bad = Frame::new(MsgType::ResumeAck as u8, buf.freeze()).unwrap();
        assert!(ResumeAck::decode(&bad).is_err());
    }

    #[test]
    fn product_round_trip() {
        let kp = key();
        let mut rng = StdRng::seed_from_u64(79);
        let ct = kp.public.encrypt_u64(4242, &mut rng).unwrap();
        let p = Product { ciphertext: ct };
        let f = p.encode(&kp.public).unwrap();
        assert_eq!(Product::decode(&f, &kp.public).unwrap(), p);
    }

    #[test]
    fn plain_messages_round_trip() {
        let pi = PlainIndices {
            indices: vec![3, 1, 4, 1, 5],
        };
        assert_eq!(PlainIndices::decode(&pi.encode().unwrap()).unwrap(), pi);
        let ps = PlainSum { sum: u128::MAX - 7 };
        assert_eq!(PlainSum::decode(&ps.encode().unwrap()).unwrap(), ps);
        let d = Dump {
            values: (0..100).collect(),
        };
        assert_eq!(Dump::decode(&d.encode().unwrap()).unwrap(), d);
    }

    #[test]
    fn ring_messages_round_trip() {
        let rp = RingPartial {
            running: Uint::from_u128(0xdead_beef_cafe),
        };
        assert_eq!(RingPartial::decode(&rp.encode().unwrap()).unwrap(), rp);
        let rt = RingTotal {
            total: Uint::zero(),
        };
        assert_eq!(RingTotal::decode(&rt.encode().unwrap()).unwrap(), rt);
    }

    #[test]
    fn size_messages_round_trip() {
        let req = SizeRequest;
        assert_eq!(SizeRequest::decode(&req.encode().unwrap()).unwrap(), req);
        let rep = SizeReply { n: 123_456 };
        assert_eq!(SizeReply::decode(&rep.encode().unwrap()).unwrap(), rep);
        // Payload discipline.
        let bad = Frame::new(MsgType::SizeRequest as u8, vec![1u8]).unwrap();
        assert!(SizeRequest::decode(&bad).is_err());
        let bad = Frame::new(MsgType::SizeReply as u8, vec![1u8; 3]).unwrap();
        assert!(SizeReply::decode(&bad).is_err());
    }

    #[test]
    fn hello_oversized_modulus_rejected_not_truncated() {
        // Regression: `put_u16(m.len() as u16)` used to silently wrap a
        // >64 KiB modulus length and corrupt the frame. It must now be
        // a typed encode error.
        let h = Hello {
            modulus: Uint::from_bytes_be(&vec![1u8; u16::MAX as usize + 1]),
            total: 1,
            batch_size: 1,
            trace: None,
        };
        assert!(matches!(
            h.encode(),
            Err(TransportError::Malformed(
                "hello modulus exceeds u16 length prefix"
            ))
        ));
    }

    #[test]
    fn ring_oversized_residue_rejected_not_truncated() {
        // Same truncation class via the shared uint codec's u16 prefix.
        let rp = RingPartial {
            running: Uint::from_bytes_be(&vec![1u8; u16::MAX as usize + 1]),
        };
        assert!(matches!(
            rp.encode(),
            Err(TransportError::Malformed("uint exceeds u16 length prefix"))
        ));
    }

    fn seeds(n: usize, tag: u8) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![tag ^ i as u8; 32]).collect()
    }

    #[test]
    fn shard_hello_round_trip() {
        // Middle worker of k = 4: one seed subtracted (pair with worker
        // 0), two added (pairs with workers 2 and 3).
        let sh = ShardHello {
            shard_index: 1,
            shard_count: 4,
            m_bits: 126,
            seeds_add: seeds(2, 0xaa),
            seeds_sub: seeds(1, 0x55),
            trace: None,
        };
        let f = sh.encode().unwrap();
        assert_eq!(ShardHello::decode(&f).unwrap(), sh);
        // k = 1 degenerate: no seeds at all, zero seed width.
        let solo = ShardHello {
            shard_index: 0,
            shard_count: 1,
            m_bits: 126,
            seeds_add: Vec::new(),
            seeds_sub: Vec::new(),
            trace: None,
        };
        let f = solo.encode().unwrap();
        assert_eq!(ShardHello::decode(&f).unwrap(), solo);
    }

    #[test]
    fn shard_hello_rejects_bad_geometry() {
        let good = ShardHello {
            shard_index: 1,
            shard_count: 3,
            m_bits: 126,
            seeds_add: seeds(1, 1),
            seeds_sub: seeds(1, 2),
            trace: None,
        };
        let tamper = |f: &mut Vec<u8>, at: usize, v: u8| f[at] = v;
        let base = good.encode().unwrap().payload.to_vec();
        // index ≥ count (byte 3 is the low byte of shard_index).
        let mut bad = base.clone();
        tamper(&mut bad, 3, 7);
        let f = Frame::new(MsgType::ShardHello as u8, bad).unwrap();
        assert!(ShardHello::decode(&f).is_err());
        // m_bits = 0.
        let mut bad = base.clone();
        for b in &mut bad[8..12] {
            *b = 0;
        }
        let f = Frame::new(MsgType::ShardHello as u8, bad).unwrap();
        assert!(ShardHello::decode(&f).is_err());
        // Seed counts that disagree with the claimed geometry.
        let mut bad = base.clone();
        tamper(&mut bad, 13, 2); // n_add = 2 but k − 1 − i = 1
        let f = Frame::new(MsgType::ShardHello as u8, bad).unwrap();
        assert!(ShardHello::decode(&f).is_err());
        // Truncated seed bytes.
        let f = Frame::new(MsgType::ShardHello as u8, base[..base.len() - 1].to_vec()).unwrap();
        assert!(ShardHello::decode(&f).is_err());
        // Inconsistent widths refuse to encode.
        let mut lop = good;
        lop.seeds_sub[0].truncate(16);
        assert!(lop.encode().is_err());
    }

    #[test]
    fn trace_trailer_round_trips_on_handshake_messages() {
        let kp = key();
        let ctx = TraceContext::new(0x1122_3344_5566_7788_99aa_bbcc_ddee_ff00, 17);
        let h = Hello {
            modulus: kp.public.n().clone(),
            total: 64,
            batch_size: 8,
            trace: Some(ctx),
        };
        assert_eq!(Hello::decode(&h.encode().unwrap()).unwrap(), h);
        let r = Resume {
            session_id: 9,
            next_seq: 3,
            trace: Some(ctx),
        };
        assert_eq!(Resume::decode(&r.encode().unwrap()).unwrap(), r);
        let sh = ShardHello {
            shard_index: 0,
            shard_count: 2,
            m_bits: 126,
            seeds_add: seeds(1, 0x11),
            seeds_sub: Vec::new(),
            trace: Some(ctx),
        };
        assert_eq!(ShardHello::decode(&sh.encode().unwrap()).unwrap(), sh);
    }

    #[test]
    fn absent_trace_context_is_byte_identical_to_v2_layout() {
        // The compatibility guarantee (PROTOCOL.md §9.4): encoding with
        // `trace: None` must add zero bytes, so an untraced client is
        // indistinguishable on the wire from a pre-tracing one, and the
        // traced form is exactly the untraced bytes plus one 24-byte
        // trailer.
        let kp = key();
        let ctx = TraceContext::new(5, 6);
        let untraced = Hello {
            modulus: kp.public.n().clone(),
            total: 10,
            batch_size: 2,
            trace: None,
        };
        let traced = Hello {
            trace: Some(ctx),
            ..untraced.clone()
        };
        let u = untraced.encode().unwrap().payload;
        let t = traced.encode().unwrap().payload;
        assert_eq!(t.len(), u.len() + TRACE_CONTEXT_WIRE_LEN);
        assert_eq!(&t[..u.len()], &u[..]);
        assert_eq!(&t[u.len()..], &ctx.to_wire_bytes()[..]);

        let untraced = Resume {
            session_id: 1,
            next_seq: 2,
            trace: None,
        };
        let u = untraced.encode().unwrap().payload;
        assert_eq!(u.len(), 16, "v2 resume layout unchanged");
        let t = Resume {
            trace: Some(ctx),
            ..untraced
        }
        .encode()
        .unwrap()
        .payload;
        assert_eq!(&t[..16], &u[..]);

        let untraced = ShardHello {
            shard_index: 0,
            shard_count: 2,
            m_bits: 126,
            seeds_add: seeds(1, 9),
            seeds_sub: Vec::new(),
            trace: None,
        };
        let u = untraced.encode().unwrap().payload;
        let t = ShardHello {
            trace: Some(ctx),
            ..untraced.clone()
        }
        .encode()
        .unwrap()
        .payload;
        assert_eq!(t.len(), u.len() + TRACE_CONTEXT_WIRE_LEN);
        assert_eq!(&t[..u.len()], &u[..]);
    }

    #[test]
    fn partial_trace_trailer_rejected() {
        let kp = key();
        let h = Hello {
            modulus: kp.public.n().clone(),
            total: 10,
            batch_size: 2,
            trace: Some(TraceContext::new(1, 2)),
        };
        let full = h.encode().unwrap().payload.to_vec();
        for cut in 1..TRACE_CONTEXT_WIRE_LEN {
            let bad = Frame::new(MsgType::Hello as u8, full[..full.len() - cut].to_vec()).unwrap();
            assert!(Hello::decode(&bad).is_err(), "cut={cut}");
        }
        let r = Resume {
            session_id: 1,
            next_seq: 2,
            trace: Some(TraceContext::new(1, 2)),
        };
        let full = r.encode().unwrap().payload.to_vec();
        let bad = Frame::new(MsgType::Resume as u8, full[..full.len() - 1].to_vec()).unwrap();
        assert!(Resume::decode(&bad).is_err());
    }

    #[test]
    fn wrong_type_rejected() {
        let ps = PlainSum { sum: 1 }.encode().unwrap();
        assert!(PlainIndices::decode(&ps).is_err());
        let weird = Frame::new(99, Vec::new()).unwrap();
        assert!(Hello::decode(&weird).is_err());
    }
}
