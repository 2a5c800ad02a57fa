//! Load generation and the two kinds of run: the measured run that
//! yields the end-to-end metrics, and the traced run that yields the
//! per-layer metrics. End-to-end numbers never come from a traced run.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pps_obs::{names, Registry, RingCollector, Tracer};
use pps_protocol::{AggregateStats, ServerObs};
use rand::rngs::StdRng;

use crate::probes;
use crate::reference;
use crate::report::Report;
use crate::stats::{median, nearest_rank, sorted};
use crate::trace::{Clock, Timeline};
use crate::workload::{
    db_values, paper_query, replay_query, rng_for, set_up, Answers, Deployment, Inputs, Op,
    Outcome, Profile, ServerLog, Workload, OP_TIMEOUT,
};

/// One op as measured.
pub struct Sample {
    pub index: u64,
    pub worker: usize,
    pub op: Op,
    /// How much slower than [`reference::BURST_S`] the reference bursts
    /// nearest the op ran on its load thread.
    pub slowdown: f64,
}

impl Sample {
    /// Wall-clock seconds from the op's start to the last answer byte.
    fn wall(&self) -> f64 {
        self.op
            .end
            .saturating_duration_since(self.op.start)
            .as_secs_f64()
    }

    /// The op's latency at the reference speed. A failed op counts as
    /// taking at least [`OP_TIMEOUT`], so it misses every latency limit.
    fn latency(&self) -> f64 {
        let scaled = self.wall() / self.slowdown;
        if self.op.outcome == Outcome::Ok {
            scaled
        } else {
            scaled.max(OP_TIMEOUT.as_secs_f64())
        }
    }
}

/// What a run keeps of its ops: counts and sums, every op's latency,
/// and — in traced runs only — every op in full.
struct Tally {
    attempted: usize,
    /// Ops that ended in an error (connect, transport or protocol).
    errors: usize,
    /// Ops answered, but not with the oracle's answer.
    wrong: usize,
    wire_bytes: u64,
    start: Instant,
    last_end: Instant,
    /// Latencies at the reference speed.
    latencies: Vec<f64>,
    /// Wall-clock latencies, printed beside the scaled ones.
    wall_latencies: Vec<f64>,
    /// Sum of the ops' wall-clock seconds, and of the same seconds at
    /// the reference speed: their ratio is the run's op-time-weighted
    /// slowdown.
    wall_s: f64,
    scaled_s: f64,
    causes: Vec<(String, usize)>,
    /// Every op, when the run keeps them (traced runs).
    samples: Option<Vec<Sample>>,
}

impl Tally {
    fn new(start: Instant, keep_ops: bool) -> Tally {
        Tally {
            attempted: 0,
            errors: 0,
            wrong: 0,
            wire_bytes: 0,
            start,
            last_end: start,
            latencies: Vec::new(),
            wall_latencies: Vec::new(),
            wall_s: 0.0,
            scaled_s: 0.0,
            causes: Vec::new(),
            samples: keep_ops.then(Vec::new),
        }
    }

    fn record(&mut self, sample: Sample) {
        self.attempted += 1;
        let wall = sample.wall();
        self.wall_s += wall;
        self.scaled_s += wall / sample.slowdown;
        self.wall_latencies.push(wall);
        self.last_end = self.last_end.max(sample.op.end);
        let cause = match &sample.op.outcome {
            Outcome::Ok => {
                self.wire_bytes += sample.op.wire_bytes as u64;
                None
            }
            Outcome::Wrong(why) => {
                self.wrong += 1;
                Some(format!("wrong answer: {why}"))
            }
            Outcome::Error(why) => {
                self.errors += 1;
                Some(format!("error: {why}"))
            }
        };
        if let Some(cause) = cause {
            match self.causes.iter_mut().find(|(c, _)| *c == cause) {
                Some(row) => row.1 += 1,
                None => self.causes.push((cause, 1)),
            }
        }
        self.latencies.push(sample.latency());
        if let Some(samples) = &mut self.samples {
            samples.push(sample);
        }
    }

    fn failed(&self) -> usize {
        self.errors + self.wrong
    }

    fn ok(&self) -> usize {
        self.attempted - self.failed()
    }

    /// Nearest-rank quantile of the latencies at the reference speed.
    fn latency(&self, q: f64) -> f64 {
        nearest_rank(&sorted(&self.latencies), q)
    }

    /// How much slower than the reference speed the run's ops ran,
    /// weighted by their time.
    fn slowdown(&self) -> f64 {
        if self.scaled_s > 0.0 {
            self.wall_s / self.scaled_s
        } else {
            1.0
        }
    }

    /// Answered ops per wall-clock second, from the window's start to
    /// the last answer.
    fn wall_throughput(&self) -> f64 {
        let elapsed = self.last_end.saturating_duration_since(self.start);
        self.ok() as f64 / elapsed.as_secs_f64().max(1e-9)
    }

    /// Answered ops per second at the reference speed: the window's
    /// length scaled down by the same slowdown as the ops in it.
    fn throughput(&self) -> f64 {
        self.wall_throughput() * self.slowdown()
    }

    /// One line of the run's wall-clock numbers next to the slowdown
    /// they were scaled by.
    fn report_wall_clock(&self, workload: Workload) {
        eprintln!(
            "{}: wall clock: latency p50 {:.6} s, throughput {:.4} ops/s; host slowdown {:.3} \
             (reference bursts against {:.2} ms)",
            workload.name(),
            nearest_rank(&sorted(&self.wall_latencies), 0.5),
            self.wall_throughput(),
            self.slowdown(),
            reference::BURST_S * 1e3,
        );
    }

    fn wire_bytes_per_op(&self) -> f64 {
        self.wire_bytes as f64 / self.ok().max(1) as f64
    }

    /// Prints each distinct cause of failure once, with its count.
    fn report_failures(&self, workload: Workload) {
        for (cause, count) in &self.causes {
            eprintln!("{}: {count} op(s) failed: {cause}", workload.name());
        }
    }
}

/// How long a stretch of load lasts: `window`, then on until `min_ops`
/// ops (1 or more) were sent, but never past [`OVERRUN`] × `window`, so
/// a slow phase of the host cannot stretch a run without bound.
#[derive(Clone, Copy)]
struct Length {
    window: Duration,
    min_ops: u64,
}

const OVERRUN: f64 = 1.5;

/// Runs ops in a closed loop on `threads` load threads, each sending
/// its next op when its previous one ends, on one connection at a time.
/// Op `k` is the `k`-th op started across all threads.
///
/// Each thread times a reference burst before its first op and after
/// every op; an op's slowdown is [`reference::slowdown`] of its
/// thread's bursts.
fn generate_load(
    threads: usize,
    length: Length,
    seed: u64,
    keep_ops: bool,
    op: &(dyn Fn(&mut StdRng, u64) -> Op + Sync),
) -> Tally {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + length.window;
    let cutoff = start + length.window.mul_f64(OVERRUN);
    let tally = Mutex::new(Tally::new(start, keep_ops));
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let (next, tally) = (&next, &tally);
            scope.spawn(move || {
                let mut rng = rng_for(seed, 1000 + worker as u64);
                // `bursts[j]` is timed right before this thread's op `j`,
                // `bursts[j + 1]` right after it.
                let mut bursts = vec![reference::burst()];
                let mut ops = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let now = Instant::now();
                    if now >= cutoff || (k >= length.min_ops && now >= deadline) {
                        break;
                    }
                    ops.push((k, op(&mut rng, k)));
                    bursts.push(reference::burst());
                }
                let mut tally = tally.lock().expect("tally lock");
                for (j, (index, op)) in ops.into_iter().enumerate() {
                    tally.record(Sample {
                        index,
                        worker,
                        op,
                        slowdown: reference::slowdown(&bursts, j),
                    });
                }
            });
        }
    });
    tally.into_inner().expect("tally lock")
}

/// Runs `inputs`' workload against a ready server for `length`.
fn run_phase(
    inputs: &Inputs,
    addr: std::net::SocketAddr,
    answers: &Answers,
    seed: u64,
    length: Length,
    traced: Option<&Arc<Registry>>,
) -> Result<Tally, String> {
    let threads = inputs.workload.load_threads();
    let keep = traced.is_some();
    match (inputs.workload, answers) {
        (Workload::PaperQuery, Answers::Sums(sums)) => {
            Ok(generate_load(threads, length, seed, keep, &|rng, k| {
                paper_query(addr, inputs, sums, k, rng, traced)
            }))
        }
        (Workload::ReplaySaturate, Answers::Products(products)) => {
            Ok(generate_load(threads, length, seed, keep, &|_, k| {
                let i = k as usize % inputs.queries.len();
                replay_query(addr, &inputs.queries[i].bytes, Some(&products[i]), keep).0
            }))
        }
        _ => Err("answers do not match the workload".to_string()),
    }
}

/// The server's own account must agree with the client's: every op
/// that got an answer (right or wrong) and every warm-up is a completed
/// session, and every op that errored is an unserved one.
fn cross_check(
    tally: Option<&Tally>,
    stats: &AggregateStats,
    warmups: usize,
) -> Result<(), String> {
    let (attempted, errors) = tally.map_or((0, 0), |t| (t.attempted, t.errors));
    let answered = attempted - errors;
    if stats.sessions != warmups + answered || stats.unserved() != errors {
        return Err(format!(
            "server counted {} completed / {} unserved sessions; client saw {answered} \
             answered ops + {warmups} warm-ups and {errors} errors",
            stats.sessions,
            stats.unserved(),
        ));
    }
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The measured run: `setup_reps` set-ups (each with its warm-up; the
/// last one stays up), then `window` of load and at least `min_ops`
/// ops, every answer checked.
pub fn measure(
    workload: Workload,
    profile: &Profile,
    seed: u64,
    window: Duration,
) -> Result<Report, String> {
    let inputs = Inputs::generate(workload, profile, seed)?;
    let mut problems = Vec::new();
    // Wall-clock seconds of each set-up, with a reference burst timed
    // before the first and after each.
    let (mut setup_wall, mut bursts) = (Vec::new(), vec![reference::burst()]);
    let mut ready = None;
    for rep in 0..profile.setup_reps.max(1) {
        let started = Instant::now();
        let r = set_up(&inputs, seed, rep)?;
        setup_wall.push(started.elapsed().as_secs_f64());
        bursts.push(reference::burst());
        if rep + 1 < profile.setup_reps {
            let stats = r.deployment.stop()?;
            if let Err(e) = cross_check(None, &stats, r.warmups) {
                problems.push(format!("set-up {rep}: {e}"));
            }
        } else {
            ready = Some(r);
        }
    }
    let ready = ready.expect("at least one set-up");
    let setup_times: Vec<f64> = setup_wall
        .iter()
        .enumerate()
        .map(|(j, wall)| wall / reference::slowdown(&bursts, j))
        .collect();
    let length = Length {
        window,
        min_ops: profile.min_ops,
    };
    let tally = run_phase(
        &inputs,
        ready.deployment.addr,
        &ready.answers,
        seed,
        length,
        None,
    )?;
    let stats = ready.deployment.stop()?;
    if let Err(e) = cross_check(Some(&tally), &stats, ready.warmups) {
        problems.push(e);
    }
    tally.report_failures(workload);
    for p in &problems {
        eprintln!("{}: {p}", workload.name());
    }

    let samples = tally.attempted;
    tally.report_wall_clock(workload);
    eprintln!(
        "{}: wall clock: set-up median {:.6} s",
        workload.name(),
        median(&setup_wall)
    );
    let mut report = Report {
        workload: workload.name(),
        correct: tally.failed() == 0 && problems.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed(),
        metrics: Vec::new(),
    };
    report.push("setup_s", median(&setup_times), setup_times.len());
    report.push("latency_p50_s", tally.latency(0.5), samples);
    report.push("latency_p90_s", tally.latency(0.9), samples);
    report.push("throughput_ops_s", tally.throughput(), tally.ok());
    report.push("wire_bytes_per_op", tally.wire_bytes_per_op(), tally.ok());
    report.push("peak_rss_mib", peak_rss_mib()?, 1);
    Ok(report)
}

/// The traced run: half the window and half the ops untraced (the
/// tracing-overhead base), half traced with client and server spans
/// collected in memory, then the kernel probes. Writes the spans under
/// `trace_dir`.
pub fn traced(
    workload: Workload,
    profile: &Profile,
    seed: u64,
    window: Duration,
    trace_dir: &Path,
) -> Result<Report, String> {
    let inputs = Inputs::generate(workload, profile, seed)?;
    let half = Length {
        window: window / 2,
        min_ops: profile.min_ops.div_ceil(2),
    };

    let ready = set_up(&inputs, seed, 0)?;
    let untraced = run_phase(
        &inputs,
        ready.deployment.addr,
        &ready.answers,
        seed,
        half,
        None,
    )?;
    let stats = ready.deployment.stop()?;
    let mut problems = Vec::new();
    if let Err(e) = cross_check(Some(&untraced), &stats, ready.warmups) {
        problems.push(e);
    }

    // The same database and answers, now with the server's spans and
    // metrics going to an in-memory ring and registry.
    let registry = Arc::new(Registry::new());
    let ring = Arc::new(RingCollector::new(1 << 20));
    let tracer = Tracer::new(Arc::clone(&ring) as Arc<dyn pps_obs::Collector>);
    let log = Arc::new(ServerLog::default());
    let deployment = Deployment::start(
        db_values(seed, 0, inputs.rows),
        Some(ServerObs::with_tracer(
            Arc::clone(&registry),
            tracer.clone(),
        )),
        Some(Arc::clone(&log)),
    )?;
    let clock = Clock {
        instant: Instant::now(),
        ns: tracer.now_ns(),
    };
    // Client metric families live apart from the server's, so the
    // server's wire counters see only the server's traffic.
    let client_registry = Arc::new(Registry::new());
    let traced = run_phase(
        &inputs,
        deployment.addr,
        &ready.answers,
        seed,
        half,
        Some(&client_registry),
    )?;
    let stats = deployment.stop()?;
    if let Err(e) = cross_check(Some(&traced), &stats, 0) {
        problems.push(e);
    }
    if ring.dropped() > 0 {
        problems.push(format!("span ring dropped {} records", ring.dropped()));
    }
    let probes = probes::run(&inputs.client, profile.probe_rounds, &mut rng_for(seed, 7))?;

    let samples = traced.samples.as_deref().unwrap_or_default();
    let timeline = Timeline::assemble(samples, ring.spans(), &log.peer_ports(), clock);
    timeline.write(trace_dir, workload.name())?;
    let self_time = timeline.self_time_per_op();
    for (name, per_op, count) in &self_time {
        println!(
            "{:<16} self time {:<20} {:>12.6} s/op ({count} spans)",
            workload.name(),
            name,
            per_op
        );
    }

    untraced.report_failures(workload);
    traced.report_failures(workload);
    for p in &problems {
        eprintln!("{}: {p}", workload.name());
    }
    let failed = untraced.failed() + traced.failed();
    let mut report = Report {
        workload: workload.name(),
        correct: failed == 0 && problems.is_empty(),
        attempted: untraced.attempted + traced.attempted,
        failed,
        metrics: Vec::new(),
    };
    let ok: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.op.outcome == Outcome::Ok)
        .collect();
    let n_ok = ok.len();
    let per_op = |total: f64| total / n_ok.max(1) as f64;

    report.push("bignum.montmul_ns", probes.montmul_ns, profile.probe_rounds);
    report.push("bignum.modpow_us", probes.modpow_us, profile.probe_rounds);
    report.push("crypto.encrypt_us", probes.encrypt_us, profile.probe_rounds);
    report.push("crypto.decrypt_us", probes.decrypt_us, profile.probe_rounds);
    report.push(
        "crypto.keygen_s",
        probes.keygen_s,
        profile.probe_rounds.min(3),
    );

    // Client phases: the `RunReport` of each observed `pps query`; a
    // replayed query encrypts and decrypts nothing, and its whole op is
    // time on the wire.
    let phase = |i: usize| {
        per_op(
            ok.iter()
                .map(|s| match s.op.phases {
                    Some(p) => p[i],
                    None if i == 1 => s.op.end.duration_since(s.op.start).as_secs_f64(),
                    None => 0.0,
                })
                .sum(),
        )
    };
    let (encrypt_s, comm_s, decrypt_s) = (phase(0), phase(1), phase(2));
    // How much of the client's encryption phase the encryption kernel
    // alone explains; the rest is framing, allocation and scheduling.
    let explained = if encrypt_s > 0.0 {
        probes.encrypt_us * 1e-6 * inputs.rows as f64 / encrypt_s
    } else {
        0.0
    };
    report.push("crypto.kernel_explained", explained, n_ok);
    report.push("client.encrypt_s", encrypt_s, n_ok);
    report.push("client.comm_s", comm_s, n_ok);
    report.push("client.decrypt_s", decrypt_s, n_ok);
    report.push(
        "messages.batch_encode_us",
        probes.batch_encode_us,
        profile.probe_rounds,
    );
    report.push(
        "messages.batch_decode_us",
        probes.batch_decode_us,
        profile.probe_rounds,
    );

    let sessions = stats.sessions.max(1) as f64;
    let counter = |name: &str| registry.counter(name, "").get() as f64;
    report.push(
        "transport.frames_per_op",
        (counter(names::WIRE_FRAMES_RECEIVED_TOTAL) + counter(names::WIRE_FRAMES_SENT_TOTAL))
            / sessions,
        stats.sessions,
    );
    report.push(
        "transport.bytes_up_per_op",
        counter(names::WIRE_BYTES_RECEIVED_TOTAL) / sessions,
        stats.sessions,
    );
    report.push(
        "transport.bytes_down_per_op",
        counter(names::WIRE_BYTES_SENT_TOTAL) / sessions,
        stats.sessions,
    );

    report.push(
        "server.compute_s_per_op",
        stats.compute.as_secs_f64() / sessions,
        stats.sessions,
    );
    report.push(
        "server.fold_ns_per_row",
        stats.compute.as_secs_f64() * 1e9 / stats.folded.max(1) as f64,
        stats.folded,
    );
    // Zero when no op reached the server (the run then fails anyway).
    let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let batches = log.batch_seconds();
    report.push("server.fold_batch_s_p50", p50(&batches), batches.len());
    let sessions_s = timeline.durations("session");
    report.push("server.session_s_p50", p50(&sessions_s), sessions_s.len());
    report.push("tcp_server.peak_active", stats.peak_active as f64, 1);

    let (untraced_p50, traced_p50) = (untraced.latency(0.5), traced.latency(0.5));
    report.push(
        "obs.untraced_latency_p50_s",
        untraced_p50,
        untraced.attempted,
    );
    report.push("obs.traced_latency_p50_s", traced_p50, traced.attempted);
    report.push(
        "obs.tracing_overhead",
        traced_p50 / untraced_p50 - 1.0,
        traced.attempted,
    );

    for (metric, span) in [("selftime.op_s", "op"), ("selftime.session_s", "session")] {
        let (per_op, count) = self_time
            .iter()
            .find(|(name, _, _)| name == span)
            .map_or((0.0, 0), |(_, t, c)| (*t, *c));
        report.push(metric, per_op, count);
    }
    Ok(report)
}
