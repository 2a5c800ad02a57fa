//! The common envelope every `BENCH_*.json` results file shares, plus
//! the summarizer behind the `bench_report` binary.
//!
//! Each results writer (`client_encrypt`, `fold_precompute`,
//! `shard_speedup`) opens its document with the same four fields so
//! tooling can read any results file without per-bench casing:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "bench": "shard_speedup",
//!   "host_parallelism": 8,
//!   "meta": { "key_bits": 512, "note": "...", ... },
//!   ...payload (rows / histograms)...
//! }
//! ```
//!
//! `meta` carries the run's scalar configuration — whatever the bench
//! needs to make its numbers comparable across checkouts (key sizes,
//! session counts, free-form caveats). Payload fields stay bench-
//! specific and live beside the envelope, not inside it, so existing
//! row shapes did not have to move.

use pps_obs::JsonValue;

/// Version of the shared envelope. Bump when a field is renamed or
/// moved; readers refuse documents from a future schema rather than
/// misreading them.
pub const SCHEMA_VERSION: u64 = 1;

/// Opens a results document with the common envelope. Callers chain
/// their payload fields onto the returned object and render it.
pub fn envelope(bench: &str, meta: JsonValue) -> JsonValue {
    JsonValue::object()
        .field("schema_version", SCHEMA_VERSION)
        .field("bench", bench)
        .field("host_parallelism", pps_crypto::host_parallelism() as u64)
        .field("meta", meta)
}

/// One parsed results file, reduced to what the trajectory table shows.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSummary {
    /// The `bench` field.
    pub bench: String,
    /// Envelope schema the file was written under (0 = legacy file
    /// predating the envelope).
    pub schema_version: u64,
    /// Cores the writing host offered.
    pub host_parallelism: u64,
    /// Headline numbers, one formatted line per metric.
    pub headlines: Vec<String>,
}

/// Reduces one parsed results document to its summary. Returns `None`
/// when the document does not carry a recognizable `bench` field or
/// claims a future schema this reader would misinterpret.
pub fn summarize(doc: &JsonValue) -> Option<BenchSummary> {
    let bench = doc.get("bench")?.as_str()?.to_string();
    let schema_version = doc
        .get("schema_version")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    if schema_version > SCHEMA_VERSION {
        return None;
    }
    let host_parallelism = doc
        .get("host_parallelism")
        .and_then(JsonValue::as_u64)
        .unwrap_or(1);
    let headlines = match bench.as_str() {
        "client_encrypt" => client_encrypt_headlines(doc),
        "fold_precompute" => fold_precompute_headlines(doc),
        "shard_speedup" => shard_speedup_headlines(doc),
        _ => Vec::new(),
    };
    Some(BenchSummary {
        bench,
        schema_version,
        host_parallelism,
        headlines,
    })
}

/// The row with the largest value under `key` — benches report their
/// headline at the biggest problem size they ran.
fn largest_row<'a>(doc: &'a JsonValue, rows: &str, key: &str) -> Option<&'a JsonValue> {
    doc.get(rows)?
        .as_array()?
        .iter()
        .max_by_key(|r| r.get(key).and_then(JsonValue::as_u64).unwrap_or(0))
}

fn client_encrypt_headlines(doc: &JsonValue) -> Vec<String> {
    let Some(row) = largest_row(doc, "rows", "n") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    if let (Some(n), Some(seq)) = (
        row.get("n").and_then(JsonValue::as_u64),
        row.get("sequential_secs").and_then(JsonValue::as_f64),
    ) {
        out.push(format!("n={n}: sequential encrypt {seq:.2} s"));
        if let Some(owner) = row.get("keypair_secs").and_then(JsonValue::as_f64) {
            out.push(format!("n={n}: keypair encrypt {owner:.2} s"));
        }
        if let Some(speedup) = row.get("parallel_speedup").and_then(JsonValue::as_f64) {
            out.push(format!("n={n}: parallel speedup {speedup:.2}x"));
        }
    }
    out
}

fn fold_precompute_headlines(doc: &JsonValue) -> Vec<String> {
    let Some(row) = largest_row(doc, "rows", "n") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    if let (Some(n), Some(fold)) = (
        row.get("n").and_then(JsonValue::as_u64),
        row.get("precomputed_fold_secs").and_then(JsonValue::as_f64),
    ) {
        out.push(format!("n={n}: precomputed fold {fold:.3} s"));
        if let Some(speedup) = row
            .get("speedup_vs_incremental")
            .and_then(JsonValue::as_f64)
        {
            out.push(format!("n={n}: {speedup:.1}x vs incremental"));
        }
    }
    out
}

fn shard_speedup_headlines(doc: &JsonValue) -> Vec<String> {
    let Some(row) = largest_row(doc, "rows", "k") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    if let (Some(k), Some(speedup)) = (
        row.get("k").and_then(JsonValue::as_u64),
        row.get("server_compute_speedup")
            .and_then(JsonValue::as_f64),
    ) {
        let degraded = row
            .get("degraded_host")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false);
        let caveat = if degraded { " (degraded host)" } else { "" };
        out.push(format!(
            "k={k}: server_compute speedup {speedup:.2}x{caveat}"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_opens_with_the_shared_fields() {
        let doc = envelope(
            "fold_precompute",
            JsonValue::object().field("key_bits", 512u64),
        )
        .field("rows", JsonValue::Array(Vec::new()));
        let parsed = JsonValue::parse(&doc.render()).unwrap();
        assert_eq!(
            parsed.get("schema_version").and_then(JsonValue::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(
            parsed.get("bench").and_then(JsonValue::as_str),
            Some("fold_precompute")
        );
        assert!(parsed
            .get("host_parallelism")
            .and_then(JsonValue::as_u64)
            .is_some_and(|p| p >= 1));
        assert_eq!(
            parsed
                .get("meta")
                .and_then(|m| m.get("key_bits"))
                .and_then(JsonValue::as_u64),
            Some(512)
        );
    }

    #[test]
    fn summarize_reads_an_enveloped_shard_file() {
        let doc =
            envelope("shard_speedup", JsonValue::object()).field(
                "rows",
                JsonValue::array([(1u64, 1.0, false), (3u64, 2.7, false)].iter().map(
                    |(k, s, d)| {
                        JsonValue::object()
                            .field("k", *k)
                            .field("server_compute_speedup", *s)
                            .field("degraded_host", *d)
                    },
                )),
            );
        let summary = summarize(&doc).unwrap();
        assert_eq!(summary.bench, "shard_speedup");
        assert_eq!(summary.schema_version, SCHEMA_VERSION);
        assert_eq!(
            summary.headlines,
            vec!["k=3: server_compute speedup 2.70x".to_string()]
        );
    }

    #[test]
    fn summarize_tolerates_legacy_files_and_refuses_future_schemas() {
        let legacy = JsonValue::object().field("bench", "client_encrypt").field(
            "rows",
            JsonValue::array(std::iter::once(
                JsonValue::object()
                    .field("n", 1000u64)
                    .field("sequential_secs", 0.56),
            )),
        );
        let summary = summarize(&legacy).unwrap();
        assert_eq!(summary.schema_version, 0, "legacy file, no envelope");
        assert_eq!(summary.headlines.len(), 1);

        let future = JsonValue::object()
            .field("schema_version", SCHEMA_VERSION + 1)
            .field("bench", "client_encrypt");
        assert!(summarize(&future).is_none(), "never misread a newer schema");
    }
}
