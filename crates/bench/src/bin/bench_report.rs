//! `bench_report` — the cross-run trajectory table.
//!
//! Reads every `BENCH_*.json` results file (the three writers share one
//! envelope, see `pps_bench::report`) and prints each bench's headline
//! numbers side by side, so successive checkouts can compare their
//! recorded results at a glance:
//!
//! ```text
//! cargo run -p pps-bench --bin bench_report            # repo root files
//! cargo run -p pps-bench --bin bench_report -- a.json  # explicit files
//! ```

use pps_bench::report::{summarize, SCHEMA_VERSION};
use pps_obs::JsonValue;

const DEFAULT_FILES: [&str; 3] = [
    "BENCH_client_encrypt.json",
    "BENCH_fold_precompute.json",
    "BENCH_shard_speedup.json",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paths: Vec<String> = if args.is_empty() {
        DEFAULT_FILES.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };

    println!("bench results trajectory (envelope schema {SCHEMA_VERSION})");
    println!("{:-<72}", "");
    let mut shown = 0usize;
    for path in &paths {
        let body = match std::fs::read_to_string(path) {
            Ok(body) => body,
            Err(_) => {
                println!("{path}: missing (bench not run on this checkout)");
                continue;
            }
        };
        let Ok(doc) = JsonValue::parse(&body) else {
            println!("{path}: unreadable (not valid JSON)");
            continue;
        };
        let Some(summary) = summarize(&doc) else {
            println!("{path}: unrecognized or future-schema results file");
            continue;
        };
        let schema = if summary.schema_version == 0 {
            "legacy".to_string()
        } else {
            format!("v{}", summary.schema_version)
        };
        println!(
            "{:<20} {:<8} {} cores",
            summary.bench, schema, summary.host_parallelism
        );
        if summary.headlines.is_empty() {
            println!("    (no headline rows recorded)");
        }
        for line in &summary.headlines {
            println!("    {line}");
        }
        shown += 1;
    }
    println!("{:-<72}", "");
    println!("{shown}/{} results files summarized", paths.len());
}
