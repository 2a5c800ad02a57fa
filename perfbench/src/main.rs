//! `benchmark`: the end-to-end benchmark of the path a deployed
//! `pps serve` / `pps query` pair runs, at the paper's 512-bit keys,
//! over loopback TCP.
//!
//! Every workload runs an in-process `TcpServer` bound the way
//! `pps serve` binds by default (`FoldStrategy::default()`, no engine,
//! worker, admission or limit override), so a later change of a
//! default is measured without editing the benchmark. Load comes from
//! the same process, on at most two threads holding at most two
//! connections; traffic crosses the host loopback, not a real link.
//!
//! # Running
//!
//! ```sh
//! # one workload, as BENCHMARK.json's `command` is run
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_query --seed 1 --seconds 40 --trace 0
//! # every workload, each in its own child process; writes DIR/results.json
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --seed 1 --out runs/a1
//! # two sets of runs, judged per (workload, metric) against the bounds
//! cargo run --release --manifest-path perfbench/Cargo.toml -- compare runs/a runs/b
//! ```
//!
//! A run prints one line per metric (value, unit, sample count) and
//! ends with one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. It exits 1 when any op failed or any check disagreed.
//! `--smoke` runs the same code and checks on tiny inputs.
//!
//! The benchmark is a package of its own, outside the repository's
//! workspace, so the workspace's `cargo test` does not reach it. Its
//! tests — every workload on the smoke profile, the limits of
//! `BENCHMARK.json`, and the release profile matching the repository's —
//! run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//!
//! # Workloads
//!
//! Database rows are uniform 32-bit values and selections pick half the
//! rows, all drawn from `--seed`. Each run sets up `FULL.setup_reps`
//! times (a fresh server and database each time, with a warm-up that is
//! oracle-checked) and reports the median as `setup_s`; the last set-up
//! serves the measured window. Inputs — the querier's key and the
//! pre-encrypted replay queries — are made before set-up and not timed.
//!
//! Both workloads are closed loops. A window lasts `--seconds` and
//! should hold at least `FULL.min_ops` (100) ops: when the time is up
//! before that, the window runs on until the hundredth op, but not past
//! 1.5 × `--seconds`, so a slow phase of the host cannot stretch a run
//! without bound. At the 40 s of `BENCHMARK.json` `paper_query` needs
//! about 51 s for 100 ops on an uncontended host and stops at 60 s with
//! 60–90 ops on a contended one. A faster build fits more ops into the
//! same time; that moves no median, and throughput divides by the
//! window's own length.
//!
//! | workload | load | why |
//! |---|---|---|
//! | `paper_query` | 1 querier; the `pps query` call (`run_tcp_query_with_retry`, batch 100, one encryption thread, one attempt), n = 1000 | the paper's headline path; client encryption is most of it, so it moves with bignum and crypto work and hardly with the serving runtime |
//! | `replay_saturate` | 2 connections, each replaying one of 4 pre-encrypted n = 2000 queries (`Hello` + 20 `IndexBatch`) after the other | server capacity in queries per second with no client crypto in the loop: fold, batch decode and the serving runtime set it |
//!
//! The replayed queries rotate, so no per-ciphertext cache can answer a
//! repeat.
//!
//! Two workloads were measured and left out, because their latency does
//! not repeat on a shared two-vCPU VM:
//!
//! - `replay_open`, the same replays arriving at a fixed 6/s (half of
//!   `replay_saturate`'s capacity), latency from each arrival's due
//!   time. Its median latency spread 13 % and 31 % over two sets of ten
//!   seeds, wider than the largest bound allowed (25 %). Between
//!   arrivals the vCPUs idle, and an op that starts on an idle vCPU runs
//!   slower by an amount that follows the host's load: at 3/s the same
//!   query took a median 0.176 s, against 0.144 s back to back.
//! - `session_churn`, one-row queries on a new connection each, about
//!   10 000 sessions/s: a 150 µs session is mostly thread wake-ups, and
//!   its latency and throughput spread 15–27 %, with set-up time
//!   drifting 39 % between two sets.
//!
//! Both were measured on wall-clock times, before times were stated at
//! a reference speed. A third workload would also break the time budget
//! (two sets of ten runs per workload, plus a few, within an hour): it
//! would leave under 50 s a run, set-up and inputs included, too short
//! for 100 `pps query` calls. So no workload isolates per-session
//! runtime cost or queueing under independent arrivals.
//!
//! # Checks
//!
//! `paper_query` checks every decrypted sum against the plaintext sum
//! over the seed's database. `replay_saturate` byte-compares every
//! `Product` with the reply the warm-up decrypted and checked against
//! that sum. A wrong answer, an error or a timeout fails the op; a
//! failed op counts as taking at least the 30 s op deadline, so it
//! misses every latency limit. The client's counts are cross-checked
//! with the server's `AggregateStats` (completed sessions and
//! `unserved()`).
//!
//! # End-to-end metrics (untraced run)
//!
//! `setup_s`, `latency_p50_s` and `latency_p90_s` (nearest rank),
//! `throughput_ops_s` (answered ops per second of the window),
//! `wire_bytes_per_op` (both directions, frame headers included) and
//! `peak_rss_mib` (`VmHWM` of the run's process). Failed ops are
//! reported as `failed` out of `attempted`, not as a metric: a failure
//! ratio reads 0 on a good run.
//!
//! Times and rates are stated at a reference speed, not read off the
//! wall clock (see the `reference` module). On a shared host each vCPU
//! runs at full speed in some seconds and up to twice as slowly in
//! others, as other tenants come and go; a run's wall-clock latency
//! follows the share of slow seconds it happened to get, and over ten
//! seeds its median spread 16–28 %. So each load thread times a fixed
//! burst of the benchmark's own arithmetic before its first op and
//! after every op, and each op's latency is divided by the slowdown of
//! the bursts nearest it. Throughput is multiplied by the op-time-weighted
//! slowdown of the window, and each set-up's time divided by the
//! slowdown of the bursts around it. On an uncontended host the bursts
//! take [`reference::BURST_S`] and the stated times equal the wall
//! clock's. The wall-clock latency, throughput and set-up time and the
//! slowdown are printed on stderr.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The traced run spends half the window and half the ops untraced (the
//! base of `obs.tracing_overhead`) and half with the client and the
//! server (`ServerObs::with_tracer`) recording spans into memory; it
//! then runs the kernel probes and writes `DIR/trace/<workload>.jsonl`
//! and `DIR/trace/<workload>.chrome.json`. Nothing is instrumented
//! inside the program: the numbers come from timed calls into public
//! functions, the program's existing registry counters, its session
//! events, and its spans. Its times are wall-clock times, except the
//! two latencies behind `obs.tracing_overhead`, which are stated at the
//! reference speed like the end-to-end ones. Which end-to-end metric
//! each should move:
//!
//! | per-layer metric | should move |
//! |---|---|
//! | `bignum.montmul_ns`, `bignum.modpow_us` (`Montgomery::mul`, `pow(r, N)` mod N²) | `latency_p50_s` @ both |
//! | `crypto.encrypt_us`, `crypto.decrypt_us`, `crypto.keygen_s` | encrypt: latency and throughput @ `paper_query`; decrypt: nothing (one call per query, a control); keygen: nothing (inputs are untimed) |
//! | `crypto.kernel_explained` = encrypt_us × n ÷ `client.encrypt_s` | share of client encryption time that is arithmetic; 0 @ `replay_saturate`, whose client encrypts nothing in the loop |
//! | `client.encrypt_s`, `client.comm_s`, `client.decrypt_s` (per op; `RunReport` of `run_tcp_query_observed`, or the whole replayed op as comm) | `latency_p50_s` @ `paper_query` |
//! | `messages.batch_encode_us`, `messages.batch_decode_us` (100 ciphertexts; decode includes the per-ciphertext gcd check) | latency and throughput @ `replay_saturate` |
//! | `transport.frames_per_op`, `transport.bytes_up_per_op`, `transport.bytes_down_per_op` (server `pps_wire_*_total`, payload bytes) | `wire_bytes_per_op` @ both; exact counts |
//! | `server.compute_s_per_op`, `server.fold_ns_per_row` (`AggregateStats`), `server.fold_batch_s_p50` (each batch's fold time) | latency and throughput @ `replay_saturate`; nothing @ `paper_query`, where the fold overlaps client encryption |
//! | `server.session_s_p50` (`session` spans) | `latency_p50_s` @ `replay_saturate` |
//! | `tcp_server.peak_active` | `throughput_ops_s` @ `replay_saturate` |
//! | `obs.tracing_overhead` (traced ÷ untraced `latency_p50_s` − 1, both reported) | nothing; how much to discount traced numbers |
//! | `selftime.op_s` (op time outside every client and server span under it), `selftime.session_s` (session time outside `server_compute`: decode, framing, wire wait) | whichever layer a later change claims its saving in |
//!
//! Self time of every span name is printed, per op, after a traced run.
//! Left out: a fold-plan hit ratio (the default `Incremental` fold
//! consults no plan, so hits and builds both read 0; it belongs here
//! once `Precomputed` is the default) and the admission-queue numbers
//! (queue wait, queued, unserved), which a server without a concurrency
//! cap never moves; `unserved()` serves as the cross-check instead.
//!
//! # Baseline
//!
//! Two sets of ten runs, E (seeds 1–10) and F (seeds 11–20), one after
//! the other with 40 s windows, on a shared VM with two vCPUs
//! (`available_parallelism` = 2). Medians of each set, and the spread of
//! the set (quartile distance over the median, as Python's
//! `statistics.quantiles(values, n=4)` gives the quartiles):
//!
//! | workload / metric | E | F | spread E / F |
//! |---|---|---|---|
//! | `paper_query` `setup_s` | 0.474 s | 0.469 s | 8.2 % / 13.3 % |
//! | `paper_query` `latency_p50_s` | 0.457 s | 0.444 s | 7.3 % / 4.6 % |
//! | `paper_query` `latency_p90_s` | 0.567 s | 0.568 s | 6.8 % / 7.2 % |
//! | `paper_query` `throughput_ops_s` | 2.17 ops/s | 2.19 ops/s | 4.3 % / 5.6 % |
//! | `paper_query` wall-clock latency p50 (not gated) | 0.795 s | 0.646 s | 22.0 % / 21.9 % |
//! | `replay_saturate` `setup_s` | 0.508 s | 0.480 s | 21.0 % / 20.2 % |
//! | `replay_saturate` `latency_p50_s` | 0.136 s | 0.135 s | 2.8 % / 2.5 % |
//! | `replay_saturate` `latency_p90_s` | 0.163 s | 0.163 s | 3.0 % / 3.3 % |
//! | `replay_saturate` `throughput_ops_s` | 14.6 ops/s | 14.8 ops/s | 2.5 % / 2.4 % |
//! | `replay_saturate` wall-clock latency p50 (not gated) | 0.247 s | 0.205 s | 15.8 % / 27.7 % |
//!
//! `wire_bytes_per_op` read 128 447 (`paper_query`) and 256 615
//! (`replay_saturate`) in every run; `peak_rss_mib` read 3.2–3.6 and
//! 4.6–5.1 MiB, spread under 5 %. The host's slowdown against
//! [`reference::BURST_S`] ranged from 1.15 to 2.00 between runs, so the
//! wall-clock numbers spread four to ten times wider than the stated
//! ones. Every time and rate keeps the bound of 0.25: the stated
//! `paper_query` latency still spreads 4.6–7.3 %, because the program and
//! the reference do not slow by exactly the same factor when contention
//! changes (the scaled `paper_query` latency of single runs reads up to
//! 23 % above the set's median), and a bound must hold three times
//! the spread. In a contended phase a `paper_query` window reaches its
//! 1.5 × limit at 60–90 ops.
//!
//! The older `server_throughput` bin (128-bit keys, 1k closed-loop
//! clients on few cores, so its latency is queueing) is superseded by
//! these workloads but left in place.

mod compare;
mod drive;
mod probes;
mod reference;
mod report;
mod stats;
mod trace;
mod workload;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use pps_obs::JsonValue;

use crate::report::Spec;
use crate::workload::{Profile, Workload, FULL, SMOKE};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--out DIR] [--smoke]
       benchmark compare A B
  without --workload every workload runs, each in its own child process,
  and DIR/results.json (default .bench_out) collects them";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    /// Length of the measured window.
    seconds: f64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

/// Parses the command line; the window defaults to `run_seconds` (half
/// a second for `--smoke`).
fn parse(args: &[String], run_seconds: f64) -> Result<Args, String> {
    let mut seconds = None;
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: run_seconds,
        trace: false,
        out: PathBuf::from(".bench_out"),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    parsed.seconds = seconds.unwrap_or(if parsed.smoke { 0.5 } else { run_seconds });
    Ok(parsed)
}

/// Runs one workload in this process and prints its lines and result.
fn run_one(workload: Workload, args: &Args, spec: &Spec) -> Result<bool, String> {
    let profile: &Profile = if args.smoke { &SMOKE } else { &FULL };
    let window = Duration::from_secs_f64(args.seconds);
    eprintln!(
        "{}: seed {}, {} s window, host parallelism {}",
        workload.name(),
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = if args.trace {
        drive::traced(
            workload,
            profile,
            args.seed,
            window,
            &args.out.join("trace"),
        )?
    } else {
        drive::measure(workload, profile, args.seed, window)?
    };
    for line in report.lines(spec) {
        println!("{line}");
    }
    println!("{}", report.to_json(spec)?.render());
    Ok(report.correct)
}

/// Runs every workload, each in a child process of its own (so peak RSS
/// and process-wide caches cannot carry over), and collects their
/// results into `DIR/results.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut workloads = JsonValue::object();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut summary = JsonValue::object();
    for workload in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut last = String::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| e.to_string())?;
            if !last.is_empty() {
                println!("{last}");
            }
            last = line;
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        let result = JsonValue::parse(&last)
            .map_err(|e| format!("{}: no result line ({e}); exit {status}", workload.name()))?;
        correct &=
            status.success() && result.get("correct").and_then(JsonValue::as_bool) == Some(true);
        attempted += result
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        failed += result
            .get("failed")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        if let Some(JsonValue::Object(metrics)) = result.get("metrics") {
            for (name, value) in metrics {
                summary = summary.field(&format!("{}.{name}", workload.name()), value.clone());
            }
        }
        workloads = workloads.field(workload.name(), result);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results = JsonValue::object()
        .field("seed", args.seed)
        .field("trace", args.trace)
        .field("smoke", args.smoke)
        .field("seconds", args.seconds)
        .field("nproc", nproc)
        .field("workloads", workloads);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join("results.json");
    std::fs::write(&path, results.render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    println!(
        "{}",
        JsonValue::object()
            .field("correct", correct)
            .field("attempted", attempted)
            .field("failed", failed)
            .field("metrics", summary)
            .render()
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = match Spec::load() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        match &argv[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref(), &spec).map(|regressed| !regressed),
            _ => Err(USAGE.to_string()),
        }
    } else {
        match parse(&argv, spec.run_seconds) {
            Ok(args) => match args.workload {
                Some(w) => run_one(w, &args, &spec),
                None => run_all(&args),
            },
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn assert_emits(report: &report::Report, declared: &[report::MetricSpec], spec: &Spec) {
        assert!(report.correct, "{} failed its checks", report.workload);
        assert_eq!(report.failed, 0, "{}", report.workload);
        assert!(report.attempted >= 1, "{}", report.workload);
        let json = report.to_json(spec).expect("every metric is declared");
        let metrics = json.get("metrics").expect("metrics");
        for m in declared {
            let got = metrics
                .get(&m.name)
                .unwrap_or_else(|| panic!("{} does not emit {}", report.workload, m.name));
            assert_eq!(
                got.get("unit").and_then(JsonValue::as_str),
                Some(m.unit.as_str())
            );
            let value = got.get("value").and_then(JsonValue::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{} {}",
                report.workload,
                m.name
            );
        }
        assert_eq!(report.metrics.len(), declared.len(), "{}", report.workload);
    }

    #[test]
    fn spec_is_within_the_benchmark_limits() {
        let spec = Spec::load().unwrap();
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!(spec.end_to_end.len() <= 16);
        assert!(spec.per_layer.len() <= 128);
        for name in spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
        {
            assert!(valid_name(name), "{name}");
        }
        let declared: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        let built: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, built);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }

    /// The `[profile.release]` lines of a manifest, comments and blank
    /// lines left out.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The benchmark compiles the program as the repository's own release
    /// profile does, so a change there must be copied here.
    #[test]
    fn release_profile_matches_the_repository() {
        let dir = env!("CARGO_MANIFEST_DIR");
        let read = |path: String| std::fs::read_to_string(&path).expect(&path);
        let ours = read(format!("{dir}/Cargo.toml"));
        let repo = read(format!("{dir}/../Cargo.toml"));
        assert!(!release_profile(&repo).is_empty());
        assert_eq!(release_profile(&ours), release_profile(&repo));
    }

    /// Every workload, untraced and traced, on the smoke profile: every
    /// declared metric comes out with its unit and no op fails.
    #[test]
    fn smoke_runs_every_workload() {
        let spec = Spec::load().unwrap();
        // Next to the test binary, inside the build directory.
        let dir = std::env::current_exe()
            .unwrap()
            .with_file_name(format!("smoke-trace-{}", std::process::id()));
        for workload in Workload::ALL {
            let measured = drive::measure(workload, &SMOKE, 3, Duration::from_millis(300)).unwrap();
            assert_emits(&measured, &spec.end_to_end, &spec);
            let traced =
                drive::traced(workload, &SMOKE, 3, Duration::from_millis(600), &dir).unwrap();
            assert_emits(&traced, &spec.per_layer, &spec);
            for file in ["jsonl", "chrome.json"] {
                assert!(dir.join(format!("{}.{file}", workload.name())).is_file());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
