//! Hardware/language cost calibration.
//!
//! The paper's absolute numbers come from 2004 hardware (2 GHz Pentium
//! III, 500 MHz UltraSparc) and two language stacks (C++/OpenSSL, and a
//! Java version "around five times slower", §3). Our measurements come
//! from one modern machine, so a [`CostModel`] rescales *compute*
//! components to the paper's era while leaving the (already simulated)
//! communication component untouched. This is what lets the harness
//! reproduce the computation-vs-communication crossovers of Figs. 3 and 6
//! at the paper's operating point.
//!
//! Calibration anchor: Fig. 2 reports ≈20 minutes for n = 100,000
//! unoptimized over a fast LAN, almost all of it client encryption —
//! ≈12 ms per 512-bit Paillier encryption on the 2 GHz P-III.

use std::time::{Duration, Instant};

use pps_bignum::Uint;
use pps_crypto::PaillierPublicKey;
use rand::RngCore;

use crate::report::RunReport;

/// Per-encryption time implied by the paper's Fig. 2 (2 GHz P-III,
/// C++/OpenSSL, 512-bit keys): 20 min / 100,000 ≈ 12 ms.
pub const PAPER_ENCRYPT_SECS: f64 = 0.012;

/// The paper's observed Java/C++ performance ratio (§3).
pub const JAVA_SLOWDOWN: f64 = 5.0;

/// Multiplicative rescaling of compute components.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Factor applied to all compute components (1.0 = this machine).
    pub cpu_slowdown: f64,
    /// Additional language factor (1.0 = C++/Rust, 5.0 = the paper's
    /// Java implementation).
    pub language_factor: f64,
}

impl CostModel {
    /// No rescaling: report times as measured on this machine.
    pub fn modern() -> Self {
        CostModel {
            cpu_slowdown: 1.0,
            language_factor: 1.0,
        }
    }

    /// Rescales to the paper's 2 GHz Pentium-III / C++ testbed by
    /// measuring this machine's Paillier encryption throughput against
    /// the paper's implied 12 ms/encryption.
    ///
    /// The measurement times [`PaillierPublicKey::encrypt`], the paper's
    /// per-encryption algorithm (a full-width `r^N mod N²`). The querier
    /// encrypts with its keypair's faster comb sampler, so the rescaled
    /// columns show that gain instead of absorbing it into the factor;
    /// Figs. 2–3 also print the paper's algorithm at this measured time.
    pub fn paper_cpp(key: &PaillierPublicKey, rng: &mut dyn RngCore) -> Self {
        let measured = measure_encrypt_secs(key, rng);
        CostModel {
            cpu_slowdown: PAPER_ENCRYPT_SECS / measured,
            language_factor: 1.0,
        }
    }

    /// Combined compute scale factor.
    pub fn factor(&self) -> f64 {
        self.cpu_slowdown * self.language_factor
    }

    /// Scales one compute duration.
    pub fn scale(&self, d: Duration) -> Duration {
        Duration::from_secs_f64(d.as_secs_f64() * self.factor())
    }

    /// Rescales the compute components of a report; communication time
    /// (already simulated at the target link speed) is left unchanged.
    pub fn apply(&self, r: &RunReport) -> RunReport {
        let mut out = r.clone();
        out.client_offline = self.scale(r.client_offline);
        out.client_encrypt = self.scale(r.client_encrypt);
        out.server_compute = self.scale(r.server_compute);
        out.client_decrypt = self.scale(r.client_decrypt);
        out.pipelined_total = None; // stale after rescaling; recompute if needed
        out
    }
}

/// Measures the per-encryption wall time for `key` (median-of-runs over a
/// small sample; key generation excluded).
pub fn measure_encrypt_secs(key: &PaillierPublicKey, rng: &mut dyn RngCore) -> f64 {
    let m = Uint::one();
    // Warm up.
    for _ in 0..3 {
        let _ = key.encrypt(&m, rng).expect("encryption works");
    }
    let samples = 11;
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        let _ = key.encrypt(&m, rng).expect("encryption works");
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    times[samples / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Variant;
    use pps_crypto::PaillierKeypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn modern_is_identity() {
        let m = CostModel::modern();
        assert_eq!(m.factor(), 1.0);
        assert_eq!(m.scale(Duration::from_secs(3)), Duration::from_secs(3));
    }

    #[test]
    fn scaling_math() {
        let m = CostModel {
            cpu_slowdown: 10.0,
            language_factor: 5.0,
        };
        assert_eq!(m.factor(), 50.0);
        assert_eq!(
            m.scale(Duration::from_millis(2)),
            Duration::from_millis(100)
        );
    }

    #[test]
    fn calibration_is_positive_and_sane() {
        let mut rng = StdRng::seed_from_u64(8);
        let kp = PaillierKeypair::generate(256, &mut rng).unwrap();
        let measured = measure_encrypt_secs(&kp.public, &mut rng);
        assert!(measured > 0.0 && measured < 1.0, "measured = {measured}");
        let model = CostModel::paper_cpp(&kp.public, &mut rng);
        assert!(model.cpu_slowdown > 0.0);
    }

    #[test]
    fn apply_rescales_compute_not_comm() {
        let r = RunReport {
            variant: Variant::Basic,
            n: 10,
            selected: 5,
            key_bits: 128,
            link: "t".into(),
            client_offline: Duration::from_secs(1),
            client_encrypt: Duration::from_secs(1),
            server_compute: Duration::from_secs(1),
            comm: Duration::from_secs(1),
            client_decrypt: Duration::from_secs(1),
            pipelined_total: Some(Duration::from_secs(9)),
            bytes_to_server: 0,
            bytes_to_client: 0,
            messages: 0,
            result: 0,
        };
        let m = CostModel {
            cpu_slowdown: 2.0,
            language_factor: 1.0,
        };
        let s = m.apply(&r);
        assert_eq!(s.client_encrypt, Duration::from_secs(2));
        assert_eq!(s.server_compute, Duration::from_secs(2));
        assert_eq!(s.client_decrypt, Duration::from_secs(2));
        assert_eq!(s.client_offline, Duration::from_secs(2));
        assert_eq!(s.comm, Duration::from_secs(1), "comm untouched");
        assert_eq!(s.pipelined_total, None, "stale pipeline total dropped");
    }
}
