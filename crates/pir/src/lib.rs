//! # pps-pir
//!
//! Single-server **computational private information retrieval** from the
//! Paillier cryptosystem — the communication-sublinear building block
//! behind the "sublinear-communication solutions" for selective private
//! function evaluation that the paper's §2 attributes to Canetti et al.
//! (The paper implements and measures the *linear*-communication
//! protocol; this crate supplies the other branch of that design space so
//! the trade-off is reproducible.)
//!
//! Construction (Kushilevitz–Ostrovsky shape, one level of recursion):
//! the database of `n` values is arranged as an `r × c` matrix with
//! `r ≈ c ≈ √n`. To fetch item `(row, col)` the client sends `r`
//! Paillier encryptions `E(b₁)…E(b_r)` of the row indicator; the server
//! returns, for every column `j`, `Π_i E(bᵢ)^{x_{i,j}} = E(x_{row,j})` —
//! `c` ciphertexts. Total traffic is `O(√n)` ciphertexts instead of the
//! linear protocol's `O(n)` upstream or the trivial download's `O(n)`
//! downstream.
//!
//! Privacy: the server sees only semantically secure ciphertexts (it
//! learns neither row nor column — the client receives the whole
//! encrypted row and keeps its column choice local). The client learns
//! the `√n` values of one matrix row, not just one item — the standard
//! leakage of this construction, inherited by the SPFE protocols built
//! on it, and documented here rather than hidden.
//!
//! # Example
//!
//! ```
//! use pps_crypto::PaillierKeypair;
//! use pps_pir::{PirClient, PirServer};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(4);
//! let values: Vec<u64> = (0..100).map(|i| i * i).collect();
//! let server = PirServer::new(values).unwrap();
//!
//! let kp = PaillierKeypair::generate(128, &mut rng).unwrap();
//! let client = PirClient::new(&kp);
//! let query = client.query(server.shape(), 37, &mut rng).unwrap();
//! let reply = server.answer(&query).unwrap();
//! assert_eq!(client.extract(&query, &reply).unwrap(), 37 * 37);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

use pps_bignum::Uint;
use pps_crypto::{Ciphertext, CryptoError, PaillierKeypair, PaillierPublicKey};
use rand::RngCore;

/// Errors surfaced by PIR operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PirError {
    /// Empty database or impossible geometry.
    Config(String),
    /// Requested index out of range.
    IndexOutOfRange {
        /// Requested item index.
        index: usize,
        /// Database size.
        n: usize,
    },
    /// Underlying cryptographic failure.
    Crypto(CryptoError),
    /// The reply did not match the query geometry.
    ShapeMismatch,
}

impl fmt::Display for PirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(why) => write!(f, "invalid PIR configuration: {why}"),
            Self::IndexOutOfRange { index, n } => {
                write!(f, "index {index} out of range for {n} items")
            }
            Self::Crypto(e) => write!(f, "crypto error: {e}"),
            Self::ShapeMismatch => write!(f, "reply shape does not match query"),
        }
    }
}

impl std::error::Error for PirError {}

impl From<CryptoError> for PirError {
    fn from(e: CryptoError) -> Self {
        Self::Crypto(e)
    }
}

/// Matrix geometry of a PIR database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PirShape {
    /// Total items (before padding).
    pub n: usize,
    /// Matrix rows (`≈ √n`).
    pub rows: usize,
    /// Matrix columns (`≈ √n`).
    pub cols: usize,
}

impl PirShape {
    /// Near-square geometry for `n` items.
    ///
    /// # Errors
    /// [`PirError::Config`] for `n == 0`.
    pub fn for_items(n: usize) -> Result<Self, PirError> {
        if n == 0 {
            return Err(PirError::Config("database must not be empty".into()));
        }
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);
        Ok(PirShape { n, rows, cols })
    }

    /// `(row, col)` of item `index`, row-major.
    ///
    /// # Errors
    /// [`PirError::IndexOutOfRange`] beyond `n`.
    pub fn locate(&self, index: usize) -> Result<(usize, usize), PirError> {
        if index >= self.n {
            return Err(PirError::IndexOutOfRange { index, n: self.n });
        }
        Ok((index / self.cols, index % self.cols))
    }
}

/// The PIR server: the database in matrix layout.
pub struct PirServer {
    shape: PirShape,
    /// Row-major matrix, zero-padded to `rows × cols`.
    matrix: Vec<u64>,
}

impl PirServer {
    /// Builds a server over `values`.
    ///
    /// # Errors
    /// [`PirError::Config`] for an empty database.
    pub fn new(values: Vec<u64>) -> Result<Self, PirError> {
        let shape = PirShape::for_items(values.len())?;
        let mut matrix = values;
        matrix.resize(shape.rows * shape.cols, 0);
        Ok(PirServer { shape, matrix })
    }

    /// The matrix geometry (public parameter the client needs).
    pub fn shape(&self) -> PirShape {
        self.shape
    }

    /// Answers a query: for each column `j`, `Π_i E(bᵢ)^{x_{i,j}}`.
    ///
    /// # Errors
    /// [`PirError::ShapeMismatch`] when the query has the wrong number of
    /// row selectors; crypto errors otherwise.
    pub fn answer(&self, query: &PirQuery) -> Result<PirReply, PirError> {
        if query.row_selectors.len() != self.shape.rows {
            return Err(PirError::ShapeMismatch);
        }
        let start = Instant::now();
        let mut columns = Vec::with_capacity(self.shape.cols);
        for j in 0..self.shape.cols {
            let weights: Vec<Uint> = (0..self.shape.rows)
                .map(|i| Uint::from_u64(self.matrix[i * self.shape.cols + j]))
                .collect();
            columns.push(query.key.fold_product(&query.row_selectors, &weights)?);
        }
        Ok(PirReply {
            columns,
            server_time: start.elapsed(),
        })
    }
}

/// A PIR query: encrypted row indicator plus the public key.
pub struct PirQuery {
    /// `E(b₁)…E(b_rows)`, `bᵢ = [i == row]`.
    pub row_selectors: Vec<Ciphertext>,
    /// The client's public key (travels with the query).
    pub key: PaillierPublicKey,
    /// The column the client privately wants (never sent; used by
    /// [`PirClient::extract`]).
    col: usize,
    /// Client-side encryption time for reporting.
    pub encrypt_time: Duration,
}

impl PirQuery {
    /// Serialized size in bytes: one fixed-width ciphertext per row plus
    /// the modulus.
    pub fn wire_bytes(&self) -> usize {
        self.row_selectors.len() * self.key.ciphertext_bytes() + self.key.n().to_bytes_be().len()
    }
}

/// A PIR reply: one encrypted value per column.
pub struct PirReply {
    /// `E(x_{row,j})` for every column `j`.
    pub columns: Vec<Ciphertext>,
    /// Server compute time for reporting.
    pub server_time: Duration,
}

impl PirReply {
    /// Serialized size in bytes under `key`.
    pub fn wire_bytes(&self, key: &PaillierPublicKey) -> usize {
        self.columns.len() * key.ciphertext_bytes()
    }
}

/// The PIR client (borrows the querying party's keypair).
pub struct PirClient<'k> {
    keypair: &'k PaillierKeypair,
}

impl<'k> PirClient<'k> {
    /// Wraps a keypair.
    pub fn new(keypair: &'k PaillierKeypair) -> Self {
        PirClient { keypair }
    }

    /// Builds a query for item `index` of a database with `shape`.
    ///
    /// # Errors
    /// [`PirError::IndexOutOfRange`] beyond the shape; crypto errors.
    pub fn query(
        &self,
        shape: PirShape,
        index: usize,
        rng: &mut dyn RngCore,
    ) -> Result<PirQuery, PirError> {
        let (row, col) = shape.locate(index)?;
        let start = Instant::now();
        let mut row_selectors = Vec::with_capacity(shape.rows);
        for i in 0..shape.rows {
            let bit = Uint::from_u64((i == row) as u64);
            row_selectors.push(self.keypair.public.encrypt(&bit, rng)?);
        }
        Ok(PirQuery {
            row_selectors,
            key: self.keypair.public.clone(),
            col,
            encrypt_time: start.elapsed(),
        })
    }

    /// Decrypts the privately selected item from a reply.
    ///
    /// # Errors
    /// [`PirError::ShapeMismatch`] when the reply lacks the queried
    /// column; crypto errors.
    pub fn extract(&self, query: &PirQuery, reply: &PirReply) -> Result<u64, PirError> {
        let ct = reply
            .columns
            .get(query.col)
            .ok_or(PirError::ShapeMismatch)?;
        let v = self.keypair.secret.decrypt(ct)?;
        v.to_u64().ok_or_else(|| {
            PirError::Config("retrieved value exceeds u64 (database stored wider values?)".into())
        })
    }

    /// Decrypts the entire fetched row — the construction's actual
    /// leakage surface, exposed honestly.
    ///
    /// # Errors
    /// Crypto errors.
    pub fn extract_row(&self, reply: &PirReply) -> Result<Vec<u64>, PirError> {
        reply
            .columns
            .iter()
            .map(|ct| {
                self.keypair
                    .secret
                    .decrypt(ct)?
                    .to_u64()
                    .ok_or_else(|| PirError::Config("retrieved value exceeds u64".into()))
            })
            .collect()
    }
}

/// End-to-end convenience run with full accounting.
#[derive(Clone, Debug)]
pub struct PirReport {
    /// Database size.
    pub n: usize,
    /// Matrix geometry used.
    pub shape: PirShape,
    /// The retrieved value.
    pub value: u64,
    /// Upstream bytes (query).
    pub bytes_up: usize,
    /// Downstream bytes (reply).
    pub bytes_down: usize,
    /// Client encryption time.
    pub encrypt_time: Duration,
    /// Server fold time.
    pub server_time: Duration,
}

/// Retrieves `values[index]` privately and reports costs.
///
/// # Errors
/// Any query/answer/extract failure; a mismatch against the plaintext
/// value is also an error (correctness oracle).
pub fn run_pir(
    values: &[u64],
    index: usize,
    keypair: &PaillierKeypair,
    rng: &mut dyn RngCore,
) -> Result<PirReport, PirError> {
    let expected = *values.get(index).ok_or(PirError::IndexOutOfRange {
        index,
        n: values.len(),
    })?;
    let server = PirServer::new(values.to_vec())?;
    let client = PirClient::new(keypair);
    let query = client.query(server.shape(), index, rng)?;
    let reply = server.answer(&query)?;
    let value = client.extract(&query, &reply)?;
    if value != expected {
        return Err(PirError::Config(format!(
            "retrieved {value} but database holds {expected}"
        )));
    }
    Ok(PirReport {
        n: values.len(),
        shape: server.shape(),
        value,
        bytes_up: query.wire_bytes(),
        bytes_down: reply.wire_bytes(&keypair.public),
        encrypt_time: query.encrypt_time,
        server_time: reply.server_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn keypair(rng: &mut StdRng) -> PaillierKeypair {
        PaillierKeypair::generate(128, rng).unwrap()
    }

    #[test]
    fn shape_geometry() {
        let s = PirShape::for_items(100).unwrap();
        assert_eq!((s.rows, s.cols), (10, 10));
        let s = PirShape::for_items(10).unwrap();
        assert!(s.rows * s.cols >= 10);
        let s = PirShape::for_items(1).unwrap();
        assert_eq!((s.rows, s.cols), (1, 1));
        assert!(PirShape::for_items(0).is_err());
    }

    #[test]
    fn locate_round_trips() {
        let s = PirShape::for_items(37).unwrap();
        for i in 0..37 {
            let (r, c) = s.locate(i).unwrap();
            assert_eq!(r * s.cols + c, i);
            assert!(r < s.rows && c < s.cols);
        }
        assert!(s.locate(37).is_err());
    }

    #[test]
    fn retrieves_every_position() {
        let mut rng = StdRng::seed_from_u64(1);
        let kp = keypair(&mut rng);
        let values: Vec<u64> = (0..23).map(|i| 1000 + i).collect();
        let server = PirServer::new(values.clone()).unwrap();
        let client = PirClient::new(&kp);
        for (i, &expected) in values.iter().enumerate() {
            let q = client.query(server.shape(), i, &mut rng).unwrap();
            let reply = server.answer(&q).unwrap();
            assert_eq!(client.extract(&q, &reply).unwrap(), expected, "index {i}");
        }
    }

    #[test]
    fn row_leakage_is_exactly_one_row() {
        let mut rng = StdRng::seed_from_u64(2);
        let kp = keypair(&mut rng);
        let values: Vec<u64> = (0..16).collect();
        let server = PirServer::new(values).unwrap();
        let client = PirClient::new(&kp);
        // Item 6 is row 1 (cols = 4): the fetched row is [4, 5, 6, 7].
        let q = client.query(server.shape(), 6, &mut rng).unwrap();
        let reply = server.answer(&q).unwrap();
        assert_eq!(client.extract_row(&reply).unwrap(), vec![4, 5, 6, 7]);
    }

    #[test]
    fn queries_are_semantically_hidden() {
        // Two queries for different rows are indistinguishable in shape
        // and (with overwhelming probability) in every ciphertext.
        let mut rng = StdRng::seed_from_u64(3);
        let kp = keypair(&mut rng);
        let server = PirServer::new((0..25).collect()).unwrap();
        let client = PirClient::new(&kp);
        let q1 = client.query(server.shape(), 0, &mut rng).unwrap();
        let q2 = client.query(server.shape(), 24, &mut rng).unwrap();
        assert_eq!(q1.row_selectors.len(), q2.row_selectors.len());
        for (a, b) in q1.row_selectors.iter().zip(&q2.row_selectors) {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn sublinear_communication() {
        // Traffic must grow like √n: quadrupling n doubles the bytes.
        let mut rng = StdRng::seed_from_u64(4);
        let kp = keypair(&mut rng);
        let small: Vec<u64> = (0..64).collect();
        let large: Vec<u64> = (0..256).collect();
        let rs = run_pir(&small, 10, &kp, &mut rng).unwrap();
        let rl = run_pir(&large, 10, &kp, &mut rng).unwrap();
        let total_s = rs.bytes_up + rs.bytes_down;
        let total_l = rl.bytes_up + rl.bytes_down;
        let ratio = total_l as f64 / total_s as f64;
        assert!((1.6..2.4).contains(&ratio), "√n scaling violated: {ratio}");
        // And far below a full dump of 256 × 8 B? At tiny n ciphertext
        // width dominates; the asymptotic win is the ratio above.
        assert!(total_l < 256 * kp.public.ciphertext_bytes());
    }

    #[test]
    fn padded_tail_reads_zero() {
        // 7 items in a 3×3 matrix: the padding cells decrypt to 0 and do
        // not disturb real retrievals.
        let mut rng = StdRng::seed_from_u64(5);
        let kp = keypair(&mut rng);
        let values = vec![9u64, 8, 7, 6, 5, 4, 3];
        let r = run_pir(&values, 6, &kp, &mut rng).unwrap();
        assert_eq!(r.value, 3);
    }

    #[test]
    fn wrong_shape_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let kp = keypair(&mut rng);
        let server = PirServer::new((0..25).collect()).unwrap();
        let other = PirServer::new((0..100).collect()).unwrap();
        let client = PirClient::new(&kp);
        // Query built for the 100-item shape has 10 selectors; the
        // 25-item server expects 5.
        let q = client.query(other.shape(), 3, &mut rng).unwrap();
        assert!(matches!(server.answer(&q), Err(PirError::ShapeMismatch)));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let kp = keypair(&mut rng);
        assert!(matches!(
            run_pir(&[1, 2, 3], 3, &kp, &mut rng),
            Err(PirError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn random_databases_random_indices() {
        let mut rng = StdRng::seed_from_u64(8);
        let kp = keypair(&mut rng);
        for _ in 0..5 {
            let n = rng.gen_range(1..80);
            let values: Vec<u64> = (0..n).map(|_| rng.gen::<u32>() as u64).collect();
            let idx = rng.gen_range(0..n);
            let r = run_pir(&values, idx, &kp, &mut rng).unwrap();
            assert_eq!(r.value, values[idx]);
        }
    }
}
