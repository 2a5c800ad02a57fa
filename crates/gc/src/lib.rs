//! # pps-gc
//!
//! A semi-honest **Yao garbled-circuit engine**, built as the
//! general-secure-computation comparator for the selected-sum protocol.
//!
//! The paper (§2) positions its linear homomorphic protocol against
//! general SMC, citing Fairplay's ≈15 minutes for a 1,000-element
//! database [14, 16]. Fairplay is closed 2004 software, so this crate
//! implements the same construction from scratch:
//!
//! * [`CircuitBuilder`] — boolean circuits (AND/OR/XOR), ripple-carry
//!   adders, muxes, and [`selected_sum_circuit`], the compiled
//!   selected-sum function;
//! * [`garble`] / [`evaluate`] — classic point-and-permute garbling with
//!   a SHA-256 row KDF and 128-bit labels;
//! * [`ot_request`] / [`ot_reply`] / [`ot_receive`] — 1-of-2 oblivious
//!   transfer from Paillier (one OT per client selection bit);
//! * [`run_gc_selected_sum`] — the end-to-end protocol with full
//!   time/byte accounting ([`GcReport`]).
//!
//! # Example
//!
//! ```
//! use pps_crypto::PaillierKeypair;
//! use pps_gc::run_gc_selected_sum;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! // The OT key must exceed the 128-bit label width (512 in the paper).
//! let kp = PaillierKeypair::generate(192, &mut rng).unwrap();
//! let report = run_gc_selected_sum(
//!     &[10, 20, 30],            // server's values
//!     &[true, false, true],     // client's private selection
//!     8,                        // bits per value
//!     &kp,
//!     &mut rng,
//! ).unwrap();
//! assert_eq!(report.result, 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod circuit;
mod error;
mod freexor;
mod garble;
mod ot;
mod run;

pub use builder::{pack_selected_sum_garbler_values, selected_sum_circuit, CircuitBuilder};
pub use circuit::{bits_to_u128, Circuit, Gate, GateOp, WireId};
pub use error::GcError;
pub use freexor::{evaluate_free_xor, garble_free_xor, FreeXorCircuit};
pub use garble::{evaluate, garble, GarbledCircuit, GarblerSecrets, Label, WirePair, LABEL_LEN};
pub use ot::{ot_receive, ot_reply, ot_request, OtReply, OtRequest};
pub use run::{run_gc_selected_sum, GcReport};
