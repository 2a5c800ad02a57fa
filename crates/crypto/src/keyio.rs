//! Key serialization: stable byte encodings for storing or transmitting
//! Paillier keys.
//!
//! Formats (all big-endian, length-prefixed):
//!
//! ```text
//! public : "PPK1" ‖ len(N) u16 ‖ N
//! secret : "PSK1" ‖ len(p) u16 ‖ p ‖ len(q) u16 ‖ q
//! ```
//!
//! The secret encoding stores only the primes — everything else (λ, μ,
//! CRT constants, Montgomery contexts) is deterministically recomputed on
//! import, which keeps the format minimal and forward-compatible.

use pps_bignum::Uint;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::CryptoError;
use crate::paillier::{PaillierKeypair, PaillierPublicKey, PaillierSecretKey};

const PUBLIC_MAGIC: &[u8; 4] = b"PPK1";
const SECRET_MAGIC: &[u8; 4] = b"PSK1";

fn put_uint(out: &mut Vec<u8>, v: &Uint) {
    let b = v.to_bytes_be();
    out.extend_from_slice(&(b.len() as u16).to_be_bytes());
    out.extend_from_slice(&b);
}

fn get_uint(buf: &mut &[u8]) -> Result<Uint, CryptoError> {
    if buf.len() < 2 {
        return Err(CryptoError::Decode("truncated length"));
    }
    let len = u16::from_be_bytes([buf[0], buf[1]]) as usize;
    *buf = &buf[2..];
    if buf.len() < len {
        return Err(CryptoError::Decode("truncated value"));
    }
    let v = Uint::from_bytes_be(&buf[..len]);
    *buf = &buf[len..];
    Ok(v)
}

impl PaillierPublicKey {
    /// Serializes the public key.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(6 + self.n().limbs().len() * 8);
        out.extend_from_slice(PUBLIC_MAGIC);
        put_uint(&mut out, self.n());
        out
    }

    /// Deserializes a public key produced by
    /// [`PaillierPublicKey::to_bytes`].
    ///
    /// # Errors
    /// [`CryptoError::Decode`] on bad magic, truncation, trailing bytes,
    /// or an invalid modulus.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let rest = bytes
            .strip_prefix(PUBLIC_MAGIC)
            .ok_or(CryptoError::Decode("bad public key magic"))?;
        let mut rest = rest;
        let n = get_uint(&mut rest)?;
        if !rest.is_empty() {
            return Err(CryptoError::Decode("trailing bytes in public key"));
        }
        Self::from_modulus(n)
    }
}

impl PaillierSecretKey {
    /// Serializes the secret key (the two primes; derived material is
    /// recomputed on import).
    pub fn to_bytes(&self) -> Vec<u8> {
        let (p, q) = self.primes();
        let mut out = Vec::new();
        out.extend_from_slice(SECRET_MAGIC);
        put_uint(&mut out, p);
        put_uint(&mut out, q);
        out
    }

    /// Deserializes a full keypair from bytes produced by
    /// [`PaillierSecretKey::to_bytes`].
    ///
    /// # Errors
    /// [`CryptoError::Decode`] on structural problems;
    /// [`CryptoError::KeyGeneration`] if a factor is not prime (the
    /// key owner's CRT encryption is correct only for primes), the
    /// primes do not form a valid keypair, or a prime's `s − 1` does not
    /// factor (a key written before keygen drew `s = 2·k·s′ + 1` may
    /// not; re-key it).
    pub fn keypair_from_bytes(bytes: &[u8]) -> Result<PaillierKeypair, CryptoError> {
        let rest = bytes
            .strip_prefix(SECRET_MAGIC)
            .ok_or(CryptoError::Decode("bad secret key magic"))?;
        let mut rest = rest;
        let p = get_uint(&mut rest)?;
        let q = get_uint(&mut rest)?;
        if !rest.is_empty() {
            return Err(CryptoError::Decode("trailing bytes in secret key"));
        }
        // Random Miller–Rabin bases, so a crafted composite cannot aim at
        // a known witness set.
        let mut rng = StdRng::from_entropy();
        if !p.is_prime(&mut rng) || !q.is_prime(&mut rng) {
            return Err(CryptoError::KeyGeneration(
                "secret key factor is not prime".into(),
            ));
        }
        PaillierKeypair::from_primes(p, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> PaillierKeypair {
        let mut rng = StdRng::seed_from_u64(909);
        PaillierKeypair::generate(128, &mut rng).unwrap()
    }

    #[test]
    fn public_round_trip() {
        let kp = keypair();
        let bytes = kp.public.to_bytes();
        let back = PaillierPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(back, kp.public);
    }

    #[test]
    fn secret_round_trip_preserves_decryption() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(910);
        let ct = kp.public.encrypt_u64(31337, &mut rng).unwrap();

        let bytes = kp.secret.to_bytes();
        let restored = PaillierSecretKey::keypair_from_bytes(&bytes).unwrap();
        assert_eq!(restored.public, kp.public);
        assert_eq!(restored.secret.decrypt(&ct).unwrap(), Uint::from_u64(31337));
    }

    #[test]
    fn corrupt_encodings_rejected() {
        let kp = keypair();
        let mut pub_bytes = kp.public.to_bytes();
        pub_bytes[0] ^= 0xff;
        assert!(PaillierPublicKey::from_bytes(&pub_bytes).is_err());

        let sec = kp.secret.to_bytes();
        assert!(PaillierSecretKey::keypair_from_bytes(&sec[..sec.len() - 1]).is_err());
        assert!(PaillierPublicKey::from_bytes(b"PPK1").is_err());
        let mut trailing = kp.public.to_bytes();
        trailing.push(0);
        assert!(PaillierPublicKey::from_bytes(&trailing).is_err());
    }

    #[test]
    fn composite_factor_rejected_on_import() {
        // 15 = 3·5 passes every check `from_primes` makes, so only the
        // primality test keeps it out of a loaded key.
        let (p, q) = (Uint::from_u64(65_537), Uint::from_u64(15));
        assert!(PaillierKeypair::from_primes(p.clone(), q.clone()).is_ok());
        let mut bytes = SECRET_MAGIC.to_vec();
        put_uint(&mut bytes, &p);
        put_uint(&mut bytes, &q);
        assert!(matches!(
            PaillierSecretKey::keypair_from_bytes(&bytes),
            Err(CryptoError::KeyGeneration(_))
        ));
    }

    #[test]
    fn unfactorable_prime_is_refused_on_import() {
        // 68 756 181 653 is prime, but its p − 1 = 4 · 131 101 · 131 113
        // leaves a composite cofactor above the trial bound: a key from
        // before keygen drew p = 2·k·p′ + 1 can look like this.
        let (p, q) = (Uint::from_u64(68_756_181_653), Uint::from_u64(65_539));
        let mut bytes = SECRET_MAGIC.to_vec();
        put_uint(&mut bytes, &p);
        put_uint(&mut bytes, &q);
        assert!(matches!(
            PaillierSecretKey::keypair_from_bytes(&bytes),
            Err(CryptoError::KeyGeneration(_))
        ));
    }

    #[test]
    fn secret_bytes_do_not_leak_into_public() {
        let kp = keypair();
        assert_ne!(kp.public.to_bytes()[..4], kp.secret.to_bytes()[..4]);
    }
}
