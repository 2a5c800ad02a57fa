//! The querying client's side of the selected-sum protocol.
//!
//! The client prepares encrypted index weights from an [`IndexSource`] —
//! either fresh online encryption (the unoptimized path of §3.1) or the
//! offline pools of §3.3 — streams them in batches, and decrypts the
//! returned product.

use std::time::{Duration, Instant};

use pps_bignum::Uint;
use pps_crypto::{BitEncryptionPool, Ciphertext, CryptoError, PaillierKeypair, RandomizerPool};
use pps_transport::{Frame, Wire};
use rand::RngCore;

use crate::data::Selection;
use crate::error::ProtocolError;
use crate::messages::{Hello, IndexBatch, MsgType, Product};

/// Where the client's encrypted index weights come from.
///
/// Every source encrypts with the querier's keypair
/// ([`PaillierKeypair::encrypt`]), online or, for the pools, in their
/// offline fill: ciphertexts distributed as the public key's
/// encryption's, with `r^N` drawn from the secret factors.
pub enum IndexSource<'a> {
    /// Encrypt each weight online with fresh randomness (§3.1; the cost
    /// the paper identifies as the bottleneck).
    Fresh(&'a mut dyn RngCore),
    /// Encrypt each batch online across multiple worker threads — the
    /// multi-core attack on the §3.1 bottleneck. `threads = 1` behaves
    /// like a stream-split [`IndexSource::Fresh`]; paper-fidelity figure
    /// runs pin `threads = 1`.
    FreshParallel {
        /// Seed RNG; per-worker CSPRNG streams are derived from it
        /// deterministically.
        rng: &'a mut dyn RngCore,
        /// Worker-thread cap per batch.
        threads: usize,
    },
    /// Draw precomputed `E(0)`/`E(1)` from an offline pool (§3.3).
    /// Only valid for 0/1 selections.
    BitPool(&'a mut BitEncryptionPool),
    /// Encrypt arbitrary weights online using precomputed `r^N` factors —
    /// a weighted-query generalization of the §3.3 idea.
    RandomizerPool(&'a mut RandomizerPool),
}

impl IndexSource<'_> {
    /// Produces the ciphertexts for one whole batch, in order. For
    /// [`IndexSource::FreshParallel`] the batch is encrypted across
    /// worker threads in one call — this is where the §3.2 pipeline
    /// (batches overlap the wire) composes with intra-batch parallelism;
    /// the other sources go weight by weight.
    fn produce_batch(
        &mut self,
        keypair: &PaillierKeypair,
        weights: &[u64],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        let ms = || weights.iter().map(|&w| Uint::from_u64(w));
        match self {
            IndexSource::Fresh(rng) => ms().map(|m| Ok(keypair.encrypt(&m, *rng)?)).collect(),
            IndexSource::FreshParallel { rng, threads } => {
                Ok(keypair.encrypt_batch_parallel(&ms().collect::<Vec<_>>(), *threads, *rng)?)
            }
            IndexSource::BitPool(pool) => weights
                .iter()
                .map(|&w| match w {
                    0 => Ok(pool.take(false)?),
                    1 => Ok(pool.take(true)?),
                    _ => Err(ProtocolError::Crypto(CryptoError::PlaintextOutOfRange)),
                })
                .collect(),
            IndexSource::RandomizerPool(pool) => ms().map(|m| Ok(pool.encrypt(&m)?)).collect(),
        }
    }
}

/// Client-side timing of the send phase.
#[derive(Clone, Debug, Default)]
pub struct ClientSendStats {
    /// Total online index-preparation time (encryption or pool lookups,
    /// excluding wire operations).
    pub encrypt: Duration,
    /// Per-batch preparation times, for the pipeline model.
    pub per_batch_encrypt: Vec<Duration>,
    /// When each batch's preparation began, so a trace can place its
    /// span where it ran.
    pub per_batch_start: Vec<Instant>,
    /// Per-batch encoded payload sizes in bytes.
    pub per_batch_bytes: Vec<usize>,
}

/// The client of the selected-sum protocol.
pub struct SumClient {
    keypair: PaillierKeypair,
}

impl SumClient {
    /// Wraps a keypair. The paper uses 512-bit keys.
    pub fn new(keypair: PaillierKeypair) -> Self {
        SumClient { keypair }
    }

    /// Generates a fresh keypair of `key_bits`.
    ///
    /// # Errors
    /// Propagates key-generation failures.
    pub fn generate(key_bits: usize, rng: &mut dyn RngCore) -> Result<Self, ProtocolError> {
        Ok(SumClient {
            keypair: PaillierKeypair::generate(key_bits, rng)?,
        })
    }

    /// The client's keypair.
    pub fn keypair(&self) -> &PaillierKeypair {
        &self.keypair
    }

    /// Sends the query: a `Hello` followed by `⌈n / batch_size⌉` batches
    /// of encrypted weights drawn from `source`.
    ///
    /// # Errors
    /// Configuration, crypto, and transport failures.
    pub fn send_query(
        &self,
        wire: &mut dyn Wire,
        selection: &Selection,
        batch_size: usize,
        source: &mut IndexSource<'_>,
    ) -> Result<ClientSendStats, ProtocolError> {
        if batch_size == 0 {
            return Err(ProtocolError::Config("batch size must be positive".into()));
        }
        if selection.is_empty() {
            return Err(ProtocolError::Config("selection must not be empty".into()));
        }
        let hello = Hello {
            modulus: self.keypair.public.n().clone(),
            total: selection.len() as u64,
            batch_size: batch_size.min(u32::MAX as usize) as u32,
            trace: None,
        };
        wire.send(hello.encode()?)?;
        self.stream_batches(wire, selection, batch_size, source, 0)
    }

    /// Streams the index batches for `selection`, starting at batch
    /// sequence number `from_seq` (batches below it are skipped without
    /// being encrypted). `from_seq = 0` streams the whole query; a
    /// resuming client passes the `next_seq` granted by the server's
    /// `ResumeAck` so only the unacknowledged tail is re-encrypted and
    /// re-sent (PROTOCOL.md §10).
    ///
    /// # Errors
    /// Configuration, crypto, and transport failures.
    pub fn stream_batches(
        &self,
        wire: &mut dyn Wire,
        selection: &Selection,
        batch_size: usize,
        source: &mut IndexSource<'_>,
        from_seq: u64,
    ) -> Result<ClientSendStats, ProtocolError> {
        if batch_size == 0 {
            return Err(ProtocolError::Config("batch size must be positive".into()));
        }
        let mut stats = ClientSendStats::default();
        for (seq, chunk) in selection.weights().chunks(batch_size).enumerate() {
            let seq = seq as u64;
            if seq < from_seq {
                continue;
            }
            let start = Instant::now();
            let cts = source.produce_batch(&self.keypair, chunk)?;
            let frame = IndexBatch {
                seq,
                ciphertexts: cts,
            }
            .encode(&self.keypair.public)?;
            let elapsed = start.elapsed();
            stats.encrypt += elapsed;
            stats.per_batch_encrypt.push(elapsed);
            stats.per_batch_start.push(start);
            stats.per_batch_bytes.push(frame.encoded_len());
            wire.send(frame)?;
        }
        Ok(stats)
    }

    /// Receives the product frame and decrypts the selected sum,
    /// skipping any `HelloAck` frames still buffered ahead of it (the
    /// resumable server acknowledges every `Hello` with a session ID;
    /// callers that don't resume may simply ignore it).
    ///
    /// Returns `(sum, decrypt_time)`.
    ///
    /// # Errors
    /// Transport and decryption failures.
    pub fn receive_result(&self, wire: &mut dyn Wire) -> Result<(Uint, Duration), ProtocolError> {
        loop {
            let frame = wire.recv()?;
            if frame.msg_type == MsgType::HelloAck as u8 {
                continue;
            }
            return self.decrypt_product(&frame);
        }
    }

    /// Decrypts a product frame (split out for drivers that already hold
    /// the frame).
    ///
    /// # Errors
    /// Malformed frames and decryption failures.
    pub fn decrypt_product(&self, frame: &Frame) -> Result<(Uint, Duration), ProtocolError> {
        let product = Product::decode(frame, &self.keypair.public)?;
        let start = Instant::now();
        let sum = self.keypair.secret.decrypt(&product.ciphertext)?;
        Ok((sum, start.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Database;
    use crate::server::ServerSession;
    use pps_transport::{LinkProfile, SimLink, TransportError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn client() -> SumClient {
        let mut rng = StdRng::seed_from_u64(91);
        SumClient::generate(128, &mut rng).unwrap()
    }

    /// Drives client + server sequentially over a SimLink pair.
    fn drive(
        client: &SumClient,
        db: &Database,
        sel: &Selection,
        batch: usize,
        source: &mut IndexSource<'_>,
    ) -> Uint {
        let (mut cw, mut sw) = SimLink::pair(LinkProfile::gigabit_lan());
        client.send_query(&mut cw, sel, batch, source).unwrap();
        let mut server = ServerSession::new(db);
        loop {
            match sw.recv() {
                Ok(frame) => {
                    if let Some(reply) = server.on_frame(&frame).unwrap() {
                        sw.send(reply).unwrap();
                    }
                }
                Err(TransportError::Empty) => break,
                Err(e) => panic!("unexpected transport error: {e}"),
            }
        }
        let (sum, _) = client.receive_result(&mut cw).unwrap();
        sum
    }

    #[test]
    fn fresh_source_end_to_end() {
        let c = client();
        let mut rng = StdRng::seed_from_u64(92);
        let db = Database::new(vec![1, 2, 3, 4, 5, 6]).unwrap();
        let sel = Selection::from_bits(&[true, true, false, false, true, false]);
        let mut src = IndexSource::Fresh(&mut rng);
        assert_eq!(drive(&c, &db, &sel, 2, &mut src).to_u64(), Some(8));
    }

    #[test]
    fn fresh_parallel_source_end_to_end() {
        let c = client();
        let db = Database::new(vec![1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let sel = Selection::from_bits(&[true, false, true, false, true, false, true, false]);
        for threads in [1usize, 2, 4] {
            let mut rng = StdRng::seed_from_u64(90);
            let mut src = IndexSource::FreshParallel {
                rng: &mut rng,
                threads,
            };
            assert_eq!(
                drive(&c, &db, &sel, 3, &mut src).to_u64(),
                Some(16),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn bit_pool_source_end_to_end() {
        let c = client();
        let mut rng = StdRng::seed_from_u64(93);
        let db = Database::new(vec![100, 200, 300]).unwrap();
        let sel = Selection::from_bits(&[false, true, true]);
        let mut pool = BitEncryptionPool::new(c.keypair().public.clone());
        pool.fill(c.keypair(), 2, 2, 1, &mut rng).unwrap();
        let mut src = IndexSource::BitPool(&mut pool);
        assert_eq!(drive(&c, &db, &sel, 3, &mut src).to_u64(), Some(500));
    }

    #[test]
    fn bit_pool_rejects_weights() {
        let c = client();
        let mut rng = StdRng::seed_from_u64(94);
        let mut pool = BitEncryptionPool::new(c.keypair().public.clone());
        pool.fill(c.keypair(), 1, 1, 1, &mut rng).unwrap();
        let mut src = IndexSource::BitPool(&mut pool);
        assert!(matches!(
            src.produce_batch(c.keypair(), &[1, 7]),
            Err(ProtocolError::Crypto(CryptoError::PlaintextOutOfRange))
        ));
    }

    #[test]
    fn randomizer_pool_source_end_to_end() {
        let c = client();
        let mut rng = StdRng::seed_from_u64(95);
        let db = Database::new(vec![10, 20, 30]).unwrap();
        let sel = Selection::weighted(vec![2, 0, 5]);
        let mut pool = RandomizerPool::new(c.keypair().public.clone());
        pool.fill(c.keypair(), 3, 1, &mut rng).unwrap();
        let mut src = IndexSource::RandomizerPool(&mut pool);
        assert_eq!(drive(&c, &db, &sel, 3, &mut src).to_u64(), Some(170));
    }

    #[test]
    fn send_stats_track_batches() {
        let c = client();
        let mut rng = StdRng::seed_from_u64(96);
        let sel = Selection::from_bits(&[true; 10]);
        let (mut cw, _sw) = SimLink::pair(LinkProfile::gigabit_lan());
        let mut src = IndexSource::Fresh(&mut rng);
        let stats = c.send_query(&mut cw, &sel, 3, &mut src).unwrap();
        assert_eq!(stats.per_batch_encrypt.len(), 4, "10 indices / 3 per batch");
        assert!(stats.encrypt > Duration::ZERO);
        let w = c.keypair().public.ciphertext_bytes();
        assert!(stats.per_batch_bytes[0] >= 3 * w);
    }

    #[test]
    fn config_validation() {
        let c = client();
        let mut rng = StdRng::seed_from_u64(97);
        let (mut cw, _sw) = SimLink::pair(LinkProfile::gigabit_lan());
        let sel = Selection::from_bits(&[true]);
        let mut src = IndexSource::Fresh(&mut rng);
        assert!(c.send_query(&mut cw, &sel, 0, &mut src).is_err());
        let empty = Selection::from_bits(&[]);
        assert!(c.send_query(&mut cw, &empty, 1, &mut src).is_err());
    }
}
