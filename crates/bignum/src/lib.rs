//! # pps-bignum
//!
//! Arbitrary-precision unsigned integer arithmetic, built from scratch as
//! the substrate for the privacy-preserving statistics workspace
//! (reproduction of Subramaniam–Wright–Yang, *Experimental Analysis of
//! Privacy-Preserving Statistics Computation*, SDM/VLDB 2004).
//!
//! The paper's entire cost profile is 512-bit modular arithmetic — Paillier
//! key generation, per-element encryption (`r^N mod N²`), the server's
//! homomorphic product, and decryption — so this crate provides exactly
//! the primitives those need:
//!
//! * [`Uint`] — little-endian `u64`-limb unsigned integers with schoolbook
//!   + Karatsuba multiplication and Knuth Algorithm D division;
//! * modular arithmetic (generic, any modulus) and [`Montgomery`] contexts
//!   (odd moduli, several times faster for repeated work);
//! * [`Uint::gcd`] / [`Uint::mod_inverse`] via binary GCD and extended
//!   Euclid;
//! * Miller–Rabin primality and prime generation ([`Uint::is_prime`],
//!   [`Uint::generate_prime`]);
//! * [`Crt2`] Chinese-Remainder recombination (fast Paillier decryption);
//! * uniform random sampling over ranges and multiplicative groups.
//!
//! # Example: textbook RSA round trip
//!
//! ```
//! use pps_bignum::{Montgomery, Uint};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let p = Uint::generate_prime(&mut rng, 128).unwrap();
//! let q = Uint::generate_prime(&mut rng, 128).unwrap();
//! let n = &p * &q;
//! let phi = &(&p - &Uint::one()) * &(&q - &Uint::one());
//! let e = Uint::from_u64(65_537);
//! let d = e.mod_inverse(&phi).unwrap();
//!
//! let ctx = Montgomery::new(n).unwrap();
//! let msg = Uint::from_u64(42);
//! let ct = ctx.pow(&msg, &e).unwrap();
//! assert_eq!(ctx.pow(&ct, &d).unwrap(), msg);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod add;
mod bits;
mod crt;
mod div;
mod error;
mod gcd;
mod modular;
mod montgomery;
mod mul;
mod multiexp;
mod multiexp_plan;
mod prime;
mod rand;
mod uint;

pub use crt::{crt_combine, Crt2};
pub use error::BignumError;
pub use montgomery::{MontElem, Montgomery};
pub use mul::KARATSUBA_THRESHOLD;
pub use multiexp_plan::{FixedBaseComb, FixedExponentPlan, SessionFold};
pub use uint::{Uint, LIMB_BITS};
