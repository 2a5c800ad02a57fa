//! A deterministic pseudorandom generator in SHA-256 counter mode.
//!
//! `block_i = SHA256(seed ‖ i)`. Deterministic expansion from a seed is
//! what the garbled-circuit engine needs for label derivation, and a
//! seeded `RngCore` adapter makes whole protocol runs reproducible in
//! tests and benchmarks.

use rand::RngCore;

use crate::sha256::{Sha256, DIGEST_LEN};

/// Counter-mode PRG over SHA-256.
pub struct CtrPrg {
    seed: Vec<u8>,
    counter: u64,
    /// Unconsumed bytes from the current block.
    buf: [u8; DIGEST_LEN],
    buf_pos: usize,
}

impl CtrPrg {
    /// Creates a PRG from an arbitrary-length seed.
    pub fn new(seed: &[u8]) -> Self {
        CtrPrg {
            seed: seed.to_vec(),
            counter: 0,
            buf: [0; DIGEST_LEN],
            buf_pos: DIGEST_LEN,
        }
    }

    /// Fills `out` with pseudorandom bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for byte in out.iter_mut() {
            if self.buf_pos == DIGEST_LEN {
                self.refill();
            }
            *byte = self.buf[self.buf_pos];
            self.buf_pos += 1;
        }
    }

    fn refill(&mut self) {
        let mut h = Sha256::new();
        h.update(&self.seed);
        h.update(&self.counter.to_be_bytes());
        self.buf = h.finalize();
        self.counter += 1;
        self.buf_pos = 0;
    }
}

impl RngCore for CtrPrg {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill(&mut b);
        u32::from_be_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_be_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.fill(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let (mut a, mut b) = ([0u8; 100], [0u8; 100]);
        CtrPrg::new(b"seed").fill(&mut a);
        CtrPrg::new(b"seed").fill(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn seed_sensitivity() {
        let (mut a, mut b) = ([0u8; 32], [0u8; 32]);
        CtrPrg::new(b"seed-a").fill(&mut a);
        CtrPrg::new(b"seed-b").fill(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn chunking_irrelevant() {
        let mut whole = [0u8; 100];
        CtrPrg::new(b"x").fill(&mut whole);
        let mut pieces = [0u8; 100];
        let mut two = CtrPrg::new(b"x");
        let (head, tail) = pieces.split_at_mut(33);
        two.fill(head);
        two.fill(tail);
        assert_eq!(whole, pieces);
    }

    #[test]
    fn output_is_balanced() {
        // Crude sanity check: bit frequency near 50% over 64 KiB.
        let mut bytes = vec![0u8; 65_536];
        CtrPrg::new(b"balance").fill(&mut bytes);
        let ones: u64 = bytes.iter().map(|b| b.count_ones() as u64).sum();
        let total = 65_536 * 8;
        let ratio = ones as f64 / total as f64;
        assert!((0.49..0.51).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn rng_core_adapter() {
        let mut prg = CtrPrg::new(b"rng");
        let a = prg.next_u64();
        let b = prg.next_u64();
        assert_ne!(a, b);
        let mut dest = [0u8; 16];
        prg.fill_bytes(&mut dest);
        assert_ne!(dest, [0u8; 16]);
    }
}
