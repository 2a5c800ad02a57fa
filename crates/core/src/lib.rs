//! # pps — privacy-preserving statistics computation
//!
//! A from-scratch Rust implementation and experimental reproduction of
//!
//! > Subramaniam, Wright & Yang, *Experimental Analysis of
//! > Privacy-Preserving Statistics Computation*, Workshop on Secure Data
//! > Management (SDM), VLDB 2004.
//!
//! A **client** privately computes the sum (and mean, variance, weighted
//! average, …) of a selected subset of numbers held by a remote
//! **server**: the server never learns which rows were selected, and the
//! client learns nothing beyond the requested aggregate. The protocol
//! encrypts the client's 0/1 index vector under Paillier; the server
//! computes `Π E(I_i)^{x_i} = E(Σ I_i·x_i)` homomorphically.
//!
//! This facade re-exports the workspace's layers:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`bignum`] | `pps-bignum` | arbitrary-precision arithmetic, Montgomery, primes |
//! | [`crypto`] | `pps-crypto` | Paillier, preprocessing pools, SHA-256/HMAC/PRG |
//! | [`transport`] | `pps-transport` | simulated links (gigabit LAN, 56 Kbps modem), framing |
//! | [`protocol`] | `pps-protocol` | the selected-sum protocol + all paper optimizations |
//! | [`stats`] | `pps-stats` | private count/mean/variance/weighted-mean layer |
//! | [`gc`] | `pps-gc` | Yao garbled-circuit comparator (the Fairplay stand-in) |
//! | [`pir`] | `pps-pir` | sublinear-communication private retrieval (SPFE's other branch) |
//!
//! The most common entry points are re-exported at the top level and in
//! [`prelude`].
//!
//! # Quick start
//!
//! ```
//! use pps::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//!
//! // Server data and the client's private selection.
//! let db = Database::new(vec![120, 250, 310, 80, 440]).unwrap();
//! let sel = Selection::from_indices(5, &[1, 2, 4]).unwrap();
//!
//! // 512-bit keys as in the paper (use 2048+ in production).
//! let client = SumClient::generate(512, &mut rng).unwrap();
//! let report = run_basic(&db, &sel, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
//!
//! assert_eq!(report.result, 250 + 310 + 440);
//! println!("{}", report.summary());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pps_bignum as bignum;
pub use pps_crypto as crypto;
pub use pps_gc as gc;
pub use pps_pir as pir;
pub use pps_protocol as protocol;
pub use pps_stats as stats;
pub use pps_transport as transport;

pub use pps_protocol::{
    run_basic, run_batched, run_combined, run_download_baseline, run_multiclient,
    run_plain_baseline, run_preprocessed, run_weighted, Database, ProtocolError, RunReport,
    Selection, SumClient, Variant,
};
pub use pps_stats::{private_moments, private_weighted_mean, run_stats_query, StatsReport, Wants};
pub use pps_transport::LinkProfile;

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use pps_bignum::Uint;
    pub use pps_crypto::{PaillierKeypair, PaillierPublicKey, PaillierSecretKey};
    pub use pps_protocol::{
        run_basic, run_batched, run_combined, run_multiclient, run_preprocessed, Database,
        RunReport, Selection, SumClient, Variant,
    };
    pub use pps_stats::{private_moments, private_weighted_mean, StatsReport, Wants};
    pub use pps_transport::LinkProfile;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn facade_end_to_end() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let db = Database::new(vec![1, 2, 3]).unwrap();
        let sel = Selection::from_bits(&[true, true, false]);
        let client = SumClient::generate(128, &mut rng).unwrap();
        let r = crate::run_basic(&db, &sel, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
        assert_eq!(r.result, 3);
    }
}
