//! Run reports: the paper's four-component runtime breakdown.
//!
//! Every figure in the paper plots some subset of **client encryption
//! time**, **server computation time**, **communication time**, and
//! **client decryption time** against the database size. A [`RunReport`]
//! records exactly those components (plus byte counts and the offline
//! preprocessing time, which the paper excludes from "online" totals).

use std::fmt;
use std::time::Duration;

use pps_obs::JsonValue;

/// Which protocol variant produced a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Non-private baseline: client sends plaintext indices (§2).
    PlainIndices,
    /// Non-private baseline: server dumps the database (§2).
    DownloadAll,
    /// The basic private protocol of Fig. 1 (§3.1).
    Basic,
    /// Batched/pipelined index streaming (§3.2).
    Batched,
    /// Offline-preprocessed index encryptions (§3.3).
    Preprocessed,
    /// Batching + preprocessing combined (§3.4).
    Combined,
    /// `k` cooperating clients with blinded partial sums (§3.5).
    MultiClient {
        /// Number of cooperating clients.
        k: usize,
    },
    /// One client over `k` distributed database partitions with
    /// correlated server-side blinding (§1 extension).
    MultiDatabase {
        /// Number of partitions/servers.
        k: usize,
    },
}

impl Variant {
    /// Stable machine-readable identifier (used as the `variant` field
    /// of [`RunReport::to_json`]).
    pub fn slug(&self) -> String {
        match self {
            Self::PlainIndices => "plain_indices".into(),
            Self::DownloadAll => "download_all".into(),
            Self::Basic => "basic".into(),
            Self::Batched => "batched".into(),
            Self::Preprocessed => "preprocessed".into(),
            Self::Combined => "combined".into(),
            Self::MultiClient { k } => format!("multi_client_{k}"),
            Self::MultiDatabase { k } => format!("multi_database_{k}"),
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PlainIndices => write!(f, "plain-indices baseline"),
            Self::DownloadAll => write!(f, "download-all baseline"),
            Self::Basic => write!(f, "private sum (no optimizations)"),
            Self::Batched => write!(f, "private sum + batching"),
            Self::Preprocessed => write!(f, "private sum + preprocessing"),
            Self::Combined => write!(f, "private sum + batching + preprocessing"),
            Self::MultiClient { k } => write!(f, "private sum, {k} clients"),
            Self::MultiDatabase { k } => write!(f, "private sum over {k} distributed databases"),
        }
    }
}

/// Timing and traffic breakdown of one protocol execution.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Protocol variant.
    pub variant: Variant,
    /// Database size `n`.
    pub n: usize,
    /// Number of selected rows `m`.
    pub selected: usize,
    /// Paillier modulus size in bits (512 in the paper).
    pub key_bits: usize,
    /// Link profile name.
    pub link: String,
    /// Offline client precomputation (not part of the online total).
    pub client_offline: Duration,
    /// Online client encryption / index-preparation time.
    pub client_encrypt: Duration,
    /// Server homomorphic-product time.
    pub server_compute: Duration,
    /// Communication time (virtual, from the link model).
    pub comm: Duration,
    /// Client decryption time (constant in `n`).
    pub client_decrypt: Duration,
    /// Overlapped makespan for pipelined variants (`None` when the
    /// variant is strictly sequential).
    pub pipelined_total: Option<Duration>,
    /// Payload bytes sent client → server.
    pub bytes_to_server: usize,
    /// Payload bytes sent server → client.
    pub bytes_to_client: usize,
    /// Total messages exchanged.
    pub messages: usize,
    /// The computed (and verified) selected sum.
    pub result: u128,
}

impl RunReport {
    /// Sum of the online components with no overlap — the runtime of a
    /// strictly sequential execution (Figs. 2, 3, 5, 6).
    pub fn total_sequential(&self) -> Duration {
        self.client_encrypt + self.server_compute + self.comm + self.client_decrypt
    }

    /// Online runtime: the pipelined makespan when the variant overlaps
    /// stages, the sequential total otherwise (the "overall runtime"
    /// curves of Figs. 4, 7, 9).
    pub fn total_online(&self) -> Duration {
        self.pipelined_total
            .unwrap_or_else(|| self.total_sequential())
    }

    /// The report as a JSON object — the workspace's one serialized
    /// report shape, shared by the CLI's `--trace json` output and the
    /// bench harness's `BENCH_*.json` files. Durations are fractional
    /// seconds; the four online components appear under `phases` using
    /// the paper's phase labels.
    pub fn to_json(&self) -> JsonValue {
        let phases = JsonValue::object()
            .field("client_encrypt", JsonValue::seconds(self.client_encrypt))
            .field("comm", JsonValue::seconds(self.comm))
            .field("server_compute", JsonValue::seconds(self.server_compute))
            .field("client_decrypt", JsonValue::seconds(self.client_decrypt))
            .field("offline", JsonValue::seconds(self.client_offline));
        JsonValue::object()
            .field("variant", self.variant.slug())
            .field("variant_label", self.variant.to_string())
            .field("n", self.n as u64)
            .field("selected", self.selected as u64)
            .field("key_bits", self.key_bits as u64)
            .field("link", self.link.as_str())
            .field("phases", phases)
            .field(
                "total_sequential_seconds",
                JsonValue::seconds(self.total_sequential()),
            )
            .field(
                "total_online_seconds",
                JsonValue::seconds(self.total_online()),
            )
            .field(
                "pipelined_total_seconds",
                self.pipelined_total.map(JsonValue::seconds),
            )
            .field("bytes_to_server", self.bytes_to_server as u64)
            .field("bytes_to_client", self.bytes_to_client as u64)
            .field("messages", self.messages as u64)
            .field("result", self.result.to_string())
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} | n={} m={} | enc {:.3}s srv {:.3}s comm {:.3}s dec {:.4}s | online {:.3}s | {} B up, {} B down",
            self.variant,
            self.n,
            self.selected,
            self.client_encrypt.as_secs_f64(),
            self.server_compute.as_secs_f64(),
            self.comm.as_secs_f64(),
            self.client_decrypt.as_secs_f64(),
            self.total_online().as_secs_f64(),
            self.bytes_to_server,
            self.bytes_to_client,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            variant: Variant::Basic,
            n: 1000,
            selected: 500,
            key_bits: 512,
            link: "test".into(),
            client_offline: Duration::from_secs(9),
            client_encrypt: Duration::from_secs(4),
            server_compute: Duration::from_secs(2),
            comm: Duration::from_secs(1),
            client_decrypt: Duration::from_millis(10),
            pipelined_total: None,
            bytes_to_server: 128_000,
            bytes_to_client: 128,
            messages: 3,
            result: 12345,
        }
    }

    #[test]
    fn totals() {
        let r = report();
        assert_eq!(r.total_sequential(), Duration::from_millis(7010));
        assert_eq!(r.total_online(), r.total_sequential());
    }

    #[test]
    fn pipelined_total_overrides() {
        let mut r = report();
        r.pipelined_total = Some(Duration::from_secs(5));
        assert_eq!(r.total_online(), Duration::from_secs(5));
        // Sequential view is unchanged.
        assert_eq!(r.total_sequential(), Duration::from_millis(7010));
    }

    #[test]
    fn variant_display() {
        assert_eq!(Variant::Basic.to_string(), "private sum (no optimizations)");
        assert!(Variant::MultiClient { k: 3 }.to_string().contains('3'));
    }

    #[test]
    fn summary_contains_components() {
        let s = report().summary();
        assert!(s.contains("n=1000"));
        assert!(s.contains("128000 B up"));
    }

    #[test]
    fn to_json_round_trips_the_breakdown() {
        let text = report().to_json().render();
        assert!(text.contains(r#""variant":"basic""#));
        assert!(text.contains(r#""n":1000"#));
        assert!(text.contains(r#""client_encrypt":4.0"#));
        assert!(text.contains(r#""offline":9.0"#));
        assert!(text.contains(r#""total_sequential_seconds":7.01"#));
        assert!(text.contains(r#""pipelined_total_seconds":null"#));
        assert!(text.contains(r#""result":"12345""#));

        let mut r = report();
        r.variant = Variant::MultiClient { k: 3 };
        r.pipelined_total = Some(Duration::from_secs(5));
        let text = r.to_json().render();
        assert!(text.contains(r#""variant":"multi_client_3""#));
        assert!(text.contains(r#""pipelined_total_seconds":5.0"#));
    }
}
