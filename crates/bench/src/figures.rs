//! Regeneration of every results figure in the paper (Figs. 2–7, 9, plus
//! the §2 general-SMC comparison).
//!
//! Computation is measured on this machine; communication comes from the
//! virtual-clock link models; a calibrated [`CostModel`] additionally
//! rescales compute to the paper's 2004 testbeds so the *shape* claims
//! (who dominates, what the optimizations save, where crossovers sit)
//! can be compared at the paper's own operating point.

use std::time::Duration;

use pps_gc::run_gc_selected_sum;
use pps_protocol::{
    run_basic, run_batched, run_combined, run_download_baseline, run_multiclient,
    run_plain_baseline, run_preprocessed, CostModel, Database, RunReport, Selection, SumClient,
    PAPER_ENCRYPT_SECS,
};
use pps_transport::LinkProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::{minutes, secs, FigureTable};

/// Estimated slowdown of the paper's long-distance client (500 MHz
/// UltraSparc) relative to its short-distance client (2 GHz P-III).
/// Figures 3/6 apply this on top of the base calibration.
pub const ULTRASPARC_FACTOR: f64 = 5.0;

/// The paper's batch size for the §3.2 experiments.
pub const PAPER_BATCH: usize = 100;

/// Fraction of rows selected in the synthetic workloads.
const SELECT_P: f64 = 0.5;

/// Shared state across figure runs: one client keypair (the paper reuses
/// its key across experiments) and a calibrated cost model.
pub struct Harness {
    /// The querying client (512-bit keys by default, as in the paper).
    pub client: SumClient,
    /// Calibration to the paper's 2 GHz P-III / C++ testbed.
    pub paper_model: CostModel,
    /// Deterministic RNG for reproducible workloads.
    pub rng: StdRng,
}

impl Harness {
    /// Builds a harness with `key_bits` keys (512 reproduces the paper).
    ///
    /// # Panics
    /// Panics if key generation fails (effectively never).
    pub fn new(key_bits: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let client = SumClient::generate(key_bits, &mut rng).expect("key generation");
        let paper_model = CostModel::paper_cpp(&client.keypair().public, &mut rng);
        Harness {
            client,
            paper_model,
            rng,
        }
    }

    fn workload(&mut self, n: usize) -> (Database, Selection) {
        let db = Database::random_32bit(n, &mut self.rng).expect("n > 0");
        let sel = Selection::random(n, SELECT_P, &mut self.rng).expect("valid p");
        (db, sel)
    }

    /// Paper-scale total (compute rescaled, communication as simulated).
    fn paper_total(&self, r: &RunReport, client_extra: f64) -> Duration {
        self.paper_total_with(r, r.client_encrypt, client_extra)
    }

    /// [`Harness::paper_total`] with `encrypt` as the client's
    /// encryption time.
    fn paper_total_with(&self, r: &RunReport, encrypt: Duration, client_extra: f64) -> Duration {
        let f = self.paper_model.factor();
        Duration::from_secs_f64(
            encrypt.as_secs_f64() * f * client_extra
                + r.server_compute.as_secs_f64() * f
                + r.client_decrypt.as_secs_f64() * f * client_extra
                + r.comm.as_secs_f64(),
        )
    }

    /// The paper's algorithm's encryption time for the run `r`: one
    /// public-key encryption (a full-width `r^N mod N²`) per row, at the
    /// time the calibration measured here ([`CostModel::paper_cpp`]).
    /// The querier encrypts with its keypair's faster sampler, so its
    /// own `client_encrypt` is this system's time, not the paper's.
    fn paper_encrypt(&self, r: &RunReport) -> Duration {
        Duration::from_secs_f64(r.n as f64 * PAPER_ENCRYPT_SECS / self.paper_model.cpu_slowdown)
    }
}

fn component_row(h: &Harness, r: &RunReport, client_extra: f64) -> Vec<String> {
    vec![
        r.n.to_string(),
        secs(r.client_encrypt),
        secs(r.server_compute),
        secs(r.comm),
        secs(r.client_decrypt),
        secs(r.total_sequential()),
        minutes(h.paper_total(r, client_extra)),
    ]
}

/// [`component_row`] plus the paper's-algorithm line of Figs. 2–3: its
/// encryption time here and its paper-scale total.
fn paper_algorithm_row(h: &Harness, r: &RunReport, client_extra: f64) -> Vec<String> {
    let encrypt = h.paper_encrypt(r);
    let mut row = component_row(h, r, client_extra);
    row.push(secs(encrypt));
    row.push(minutes(h.paper_total_with(r, encrypt, client_extra)));
    row
}

/// The columns of [`paper_algorithm_row`].
const PAPER_ALGORITHM_COLS: [&str; 9] = [
    "n",
    "enc(s)",
    "server(s)",
    "comm(s)",
    "dec(s)",
    "total(s)",
    "paper-scale(min)",
    "paper-alg enc(s)",
    "paper-alg paper-scale(min)",
];

/// Paper-scale compute of a Fig. 3 run whose client encrypted for
/// `encrypt`: client work on the UltraSparc, server on the P-III.
fn fig3_compute(h: &Harness, r: &RunReport, encrypt: Duration) -> f64 {
    let f = h.paper_model.factor();
    (encrypt.as_secs_f64() + r.client_decrypt.as_secs_f64()) * f * ULTRASPARC_FACTOR
        + r.server_compute.as_secs_f64() * f
}

const COMPONENT_COLS: [&str; 7] = [
    "n",
    "enc(s)",
    "server(s)",
    "comm(s)",
    "dec(s)",
    "total(s)",
    "paper-scale(min)",
];

/// Fig. 2 — components of overall runtime, no optimizations, short
/// distance (gigabit LAN, both parties on 2 GHz P-IIIs). The last two
/// columns are the paper's algorithm, whose client encrypts each row
/// with the public-key `r^N`; the paper's claims are judged on them.
pub fn fig2(h: &mut Harness, ns: &[usize]) -> FigureTable {
    let mut t = FigureTable::new(
        "Fig. 2: runtime components, no optimizations, short distance (gigabit LAN)",
        &PAPER_ALGORITHM_COLS,
    );
    let mut last = None;
    for &n in ns {
        let (db, sel) = h.workload(n);
        let r = run_basic(&db, &sel, &h.client, LinkProfile::gigabit_lan(), &mut h.rng)
            .expect("fig2 run");
        t.row(paper_algorithm_row(h, &r, 1.0));
        last = Some(r);
    }
    t.note("paper: linear in n; client encryption dominates; ≈20 min at n=100,000");
    t.note(format!(
        "calibration: {:.2} ms/encryption measured here vs 12 ms on the paper's P-III (factor {:.1}x)",
        12.0 / h.paper_model.cpu_slowdown,
        h.paper_model.cpu_slowdown
    ));
    t.note("paper-alg columns: the paper's algorithm, one public-key encryption per row at the calibration's time; enc(s) is this system's keypair sampler");
    if let Some(r) = last {
        let paper = h.paper_encrypt(&r).as_secs_f64();
        let rest = [r.server_compute, r.comm, r.client_decrypt].map(|d| d.as_secs_f64());
        let largest_rest = rest.iter().copied().fold(0.0, f64::max);
        let ours = r.client_encrypt.as_secs_f64();
        t.note(format!(
            "verdict at n={}: paper's algorithm encrypts for {paper:.2}s against at most {largest_rest:.2}s for any other component — client encryption {}",
            r.n,
            if paper > largest_rest { "dominates (matches the paper)" } else { "does NOT dominate" }
        ));
        t.note(format!(
            "this system at n={}: encryption {ours:.2}s against at most {largest_rest:.2}s — it {}",
            r.n,
            if ours > largest_rest {
                "still dominates"
            } else {
                "no longer dominates"
            }
        ));
    }
    t
}

/// Fig. 3 — same protocol over the 56 Kbps Chicago↔Hoboken modem, client
/// on a 500 MHz UltraSparc.
pub fn fig3(h: &mut Harness, ns: &[usize]) -> FigureTable {
    let mut t = FigureTable::new(
        "Fig. 3: runtime components, no optimizations, long distance (56 Kbps modem)",
        &PAPER_ALGORITHM_COLS,
    );
    for &n in ns {
        let (db, sel) = h.workload(n);
        let r = run_basic(&db, &sel, &h.client, LinkProfile::modem_56k(), &mut h.rng)
            .expect("fig3 run");
        t.row(paper_algorithm_row(h, &r, ULTRASPARC_FACTOR));
    }
    t.note("paper: communication grows but computation still prevails (UltraSparc client)");
    t.note(format!(
        "paper-scale column applies a {ULTRASPARC_FACTOR}x UltraSparc factor to client compute"
    ));
    // Make the headline claim checkable: at paper scale, does computation
    // still dominate the 56 Kbps communication? The claim is about the
    // paper's algorithm; this system's faster querier gets its own line.
    if let Some(&n) = ns.last() {
        let (db, sel) = h.workload(n);
        let r = run_basic(&db, &sel, &h.client, LinkProfile::modem_56k(), &mut h.rng)
            .expect("fig3 verdict run");
        let comm = r.comm.as_secs_f64();
        let paper = fig3_compute(h, &r, h.paper_encrypt(&r));
        t.note(format!(
            "paper-scale verdict at n={n}, paper's algorithm: compute {paper:.0}s vs comm {comm:.0}s — computation {}",
            if paper > comm { "prevails (matches the paper)" } else { "does NOT prevail" }
        ));
        let ours = fig3_compute(h, &r, r.client_encrypt);
        t.note(format!(
            "paper-scale verdict at n={n}, this system (keypair sampler): compute {ours:.0}s vs comm {comm:.0}s — computation {}",
            if ours > comm { "prevails" } else { "no longer prevails: the modem dominates" }
        ));
    }
    t
}

/// Fig. 4 — overall runtime with vs without batching the index vector
/// (batch = 100), short distance.
pub fn fig4(h: &mut Harness, ns: &[usize]) -> FigureTable {
    let mut t = FigureTable::new(
        "Fig. 4: overall runtime with and without batching (chunk = 100), short distance",
        &["n", "unbatched(s)", "batched(s)", "reduction(%)"],
    );
    for &n in ns {
        let (db, sel) = h.workload(n);
        let plain = run_basic(&db, &sel, &h.client, LinkProfile::gigabit_lan(), &mut h.rng)
            .expect("fig4 basic");
        let batched = run_batched(
            &db,
            &sel,
            &h.client,
            LinkProfile::gigabit_lan(),
            PAPER_BATCH,
            &mut h.rng,
        )
        .expect("fig4 batched");
        let a = plain.total_sequential().as_secs_f64();
        let b = batched.total_online().as_secs_f64();
        t.row(vec![
            n.to_string(),
            format!("{a:.3}"),
            format!("{b:.3}"),
            format!("{:.1}", 100.0 * (1.0 - b / a)),
        ]);
    }
    t.note("paper: ≈10% reduction from overlapping client/link/server stages");
    t
}

/// Fig. 5 — runtime components after preprocessing the index vector,
/// short distance (the 64 Gbps cluster switch).
pub fn fig5(h: &mut Harness, ns: &[usize]) -> FigureTable {
    let mut t = FigureTable::new(
        "Fig. 5: runtime components with preprocessed index vector, short distance",
        &COMPONENT_COLS,
    );
    for &n in ns {
        let (db, sel) = h.workload(n);
        let r = run_preprocessed(
            &db,
            &sel,
            &h.client,
            LinkProfile::cluster_switch(),
            &mut h.rng,
        )
        .expect("fig5 run");
        t.row(component_row(h, &r, 1.0));
    }
    t.note("paper: ≈82% online reduction; server computation becomes the dominant factor");
    t.note("offline pool-fill time excluded from online totals (as in the paper)");
    t
}

/// Fig. 6 — preprocessing over the 56 Kbps modem: communication becomes
/// the dominant component.
pub fn fig6(h: &mut Harness, ns: &[usize]) -> FigureTable {
    let mut t = FigureTable::new(
        "Fig. 6: runtime components with preprocessed index vector, long distance (56 Kbps)",
        &[
            "n",
            "enc(s)",
            "server(s)",
            "comm(s)",
            "dec(s)",
            "comm share(%)",
            "paper comm share(%)",
        ],
    );
    for &n in ns {
        let (db, sel) = h.workload(n);
        let r = run_preprocessed(&db, &sel, &h.client, LinkProfile::modem_56k(), &mut h.rng)
            .expect("fig6 run");
        let total = r.total_sequential().as_secs_f64();
        let paper_total = h.paper_total(&r, ULTRASPARC_FACTOR).as_secs_f64();
        t.row(vec![
            r.n.to_string(),
            secs(r.client_encrypt),
            secs(r.server_compute),
            secs(r.comm),
            secs(r.client_decrypt),
            format!("{:.1}", 100.0 * r.comm.as_secs_f64() / total),
            format!("{:.1}", 100.0 * r.comm.as_secs_f64() / paper_total),
        ]);
    }
    t.note("paper: with client encryption gone, the 56 Kbps link dominates the runtime");
    t
}

/// Fig. 7 — batching + preprocessing combined vs no optimizations.
pub fn fig7(h: &mut Harness, ns: &[usize]) -> FigureTable {
    let mut t = FigureTable::new(
        "Fig. 7: combined batching + preprocessing vs no optimizations, short distance",
        &[
            "n",
            "unoptimized(s)",
            "combined(s)",
            "reduction(%)",
            "paper-alg unoptimized(s)",
            "paper-alg reduction(%)",
        ],
    );
    for &n in ns {
        let (db, sel) = h.workload(n);
        let plain = run_basic(
            &db,
            &sel,
            &h.client,
            LinkProfile::cluster_switch(),
            &mut h.rng,
        )
        .expect("fig7 basic");
        let combined = run_combined(
            &db,
            &sel,
            &h.client,
            LinkProfile::cluster_switch(),
            PAPER_BATCH,
            &mut h.rng,
        )
        .expect("fig7 combined");
        let a = plain.total_sequential().as_secs_f64();
        let b = combined.total_online().as_secs_f64();
        // The paper's unoptimized client encrypts every row online with
        // the public key.
        let paper = a - plain.client_encrypt.as_secs_f64() + h.paper_encrypt(&plain).as_secs_f64();
        t.row(vec![
            n.to_string(),
            format!("{a:.3}"),
            format!("{b:.3}"),
            format!("{:.1}", 100.0 * (1.0 - b / a)),
            format!("{paper:.3}"),
            format!("{:.1}", 100.0 * (1.0 - b / paper)),
        ]);
    }
    t.note("paper: ≈94% reduction in overall online runtime");
    t.note("paper-alg columns: the unoptimized run with one public-key encryption per row at the calibration's time, the paper's algorithm; the paper's claim is its reduction, and unoptimized(s) is this system's keypair sampler");
    t
}

/// Fig. 9 — multi-client secret sharing (k = 3) vs a single client.
pub fn fig9(h: &mut Harness, ns: &[usize]) -> FigureTable {
    let mut t = FigureTable::new(
        "Fig. 9: single client vs 3 clients with blinded partial sums",
        &[
            "n",
            "1 client(s)",
            "3 clients(s)",
            "speed-up(x)",
            "ring overhead(ms)",
        ],
    );
    let key_bits = h.client.keypair().public.key_bits();
    for &n in ns {
        let (db, sel) = h.workload(n);
        let single = run_basic(&db, &sel, &h.client, LinkProfile::gigabit_lan(), &mut h.rng)
            .expect("fig9 single");
        let multi = run_multiclient(
            &db,
            &sel,
            3,
            key_bits,
            LinkProfile::gigabit_lan(),
            &mut h.rng,
        )
        .expect("fig9 multi");
        let a = single.total_sequential().as_secs_f64();
        let b = multi.aggregate.total_online().as_secs_f64();
        t.row(vec![
            n.to_string(),
            format!("{a:.3}"),
            format!("{b:.3}"),
            format!("{:.2}", a / b),
            format!("{:.3}", multi.ring_comm.as_secs_f64() * 1e3),
        ]);
    }
    t.note("paper: ≈2.99x for k = 3 (3-fold minus combination overhead; Java implementation)");
    t.note("the paper's absolute Fig. 9 numbers carry an additional ≈5x Java/C++ factor (§3)");
    t
}

/// §2 context — the general-SMC (garbled-circuit) comparator vs the
/// homomorphic protocol, with a Fairplay-style extrapolation to n = 1000.
pub fn smc(h: &mut Harness, ns: &[usize]) -> FigureTable {
    let mut t = FigureTable::new(
        "§2: general SMC (garbled circuits) vs the homomorphic selected-sum protocol",
        &[
            "n",
            "GC gates",
            "GC bytes",
            "GC time(s)",
            "HE time(s)",
            "HE bytes",
            "GC/HE time",
        ],
    );
    let mut last: Option<(usize, f64)> = None;
    for &n in ns {
        let (db, sel) = h.workload(n);
        let bits: Vec<bool> = sel.weights().iter().map(|&w| w == 1).collect();
        let gc = run_gc_selected_sum(db.values(), &bits, 32, h.client.keypair(), &mut h.rng)
            .expect("gc run");
        let he = run_basic(&db, &sel, &h.client, LinkProfile::gigabit_lan(), &mut h.rng)
            .expect("he run");
        let gt = gc.total_time().as_secs_f64();
        let ht = he.total_sequential().as_secs_f64();
        t.row(vec![
            n.to_string(),
            gc.gates.to_string(),
            gc.total_bytes().to_string(),
            format!("{gt:.3}"),
            format!("{ht:.3}"),
            (he.bytes_to_server + he.bytes_to_client).to_string(),
            format!("{:.1}", gt / ht),
        ]);
        last = Some((n, gt));
    }
    if let Some((n, gt)) = last {
        let per_elem = gt / n as f64;
        let at_1000 = per_elem * 1000.0;
        // Fairplay was a Java interpreter; apply both calibration factors.
        let paper_scale = at_1000 * h.paper_model.cpu_slowdown * pps_protocol::JAVA_SLOWDOWN;
        t.note(format!(
            "extrapolated GC cost at n=1000: {at_1000:.1}s here ≈ {:.1} min at 2004 CPU speeds \
             with the Java factor (paper cites Fairplay needing ≥15 min for n=1,000 [16])",
            paper_scale / 60.0
        ));
        t.note(
            "the byte gap is the structural story: ~15 KB of garbled tables per 32-bit element \
             vs one 128-byte ciphertext for the homomorphic protocol",
        );
    }
    t
}

/// Ablation (§3.2 discussion): sweep of the batch size. The paper notes
/// "the optimal chunk size will depend on the relative communication and
/// computation speeds" — this table locates the optimum for a given n
/// and link.
pub fn ablation_batch(h: &mut Harness, n: usize, link: LinkProfile) -> FigureTable {
    let mut t = FigureTable::new(
        format!("§3.2 ablation: batch size sweep, n = {n}, {}", link.name),
        &["batch", "makespan(s)", "comm(s)", "messages"],
    );
    let (db, sel) = h.workload(n);
    for batch in [1usize, 10, 50, 100, 500, 1000, n] {
        if batch > n {
            continue;
        }
        let r = run_batched(&db, &sel, &h.client, link.clone(), batch, &mut h.rng)
            .expect("batch ablation run");
        t.row(vec![
            batch.to_string(),
            secs(r.total_online()),
            secs(r.comm),
            r.messages.to_string(),
        ]);
    }
    t.note("small batches pay per-message latency; one huge batch forfeits overlap");
    t.note("paper uses batch = 100 for its §3.2 experiments");
    t
}

/// §2 context — sublinear-communication retrieval: the O(√n) PIR
/// building block behind the "sublinear-communication solutions" the
/// paper attributes to Canetti et al., against the linear protocol's
/// O(n) traffic and the trivial download's O(n) reply.
pub fn pir(h: &mut Harness, ns: &[usize]) -> FigureTable {
    let mut t = FigureTable::new(
        "§2: sublinear PIR vs linear selected-sum vs trivial download (bytes on the wire)",
        &[
            "n",
            "PIR bytes",
            "selected-sum bytes",
            "download bytes",
            "PIR/linear",
        ],
    );
    for &n in ns {
        let (db, sel) = h.workload(n);
        let pir_report =
            pps_pir::run_pir(db.values(), n / 2, h.client.keypair(), &mut h.rng).expect("pir run");
        let linear = run_basic(&db, &sel, &h.client, LinkProfile::gigabit_lan(), &mut h.rng)
            .expect("linear run");
        let download =
            run_download_baseline(&db, &sel, LinkProfile::gigabit_lan()).expect("download run");
        let pir_bytes = pir_report.bytes_up + pir_report.bytes_down;
        let lin_bytes = linear.bytes_to_server + linear.bytes_to_client;
        t.row(vec![
            n.to_string(),
            pir_bytes.to_string(),
            lin_bytes.to_string(),
            (download.bytes_to_server + download.bytes_to_client).to_string(),
            format!("{:.4}", pir_bytes as f64 / lin_bytes as f64),
        ]);
    }
    t.note("PIR traffic grows like √n; both alternatives grow like n");
    t.note("PIR retrieves one item (leaking its √n-item matrix row to the client); the linear protocol computes arbitrary selected sums — different functionality at different communication costs");
    t
}

/// §4 future work: "methods that give up some quantifiable amount of
/// privacy in order to achieve significant performance improvements" —
/// randomized response on the index vector vs the exact cryptographic
/// protocol, across per-bit local-DP budgets ε.
pub fn futurework(h: &mut Harness, n: usize) -> FigureTable {
    let mut t = FigureTable::new(
        format!("§4 future work: perturbation (ε-LDP) vs exact crypto, n = {n}"),
        &[
            "mechanism",
            "ε",
            "flip p",
            "time(s)",
            "bytes",
            "rel err(%)",
            "pred sd(%)",
        ],
    );
    let (db, sel) = h.workload(n);
    let exact =
        run_basic(&db, &sel, &h.client, LinkProfile::gigabit_lan(), &mut h.rng).expect("exact run");
    t.row(vec![
        "Paillier (exact)".into(),
        "∞ (crypto)".into(),
        "-".into(),
        secs(exact.total_sequential()),
        (exact.bytes_to_server + exact.bytes_to_client).to_string(),
        "0.0".into(),
        "0.0".into(),
    ]);
    for eps in [4.0f64, 2.0, 1.0, 0.5] {
        let r = pps_protocol::run_randomized_response(
            &db,
            &sel,
            eps,
            LinkProfile::gigabit_lan(),
            &mut h.rng,
        )
        .expect("perturbed run");
        t.row(vec![
            "randomized response".into(),
            format!("{eps:.1}"),
            format!("{:.3}", r.flip_probability),
            secs(r.compute + r.comm),
            r.bytes.to_string(),
            format!("{:.2}", 100.0 * r.relative_error),
            format!(
                "{:.2}",
                100.0 * r.predicted_std_dev / r.true_sum.max(1) as f64
            ),
        ]);
    }
    t.note("perturbation removes all cryptography (orders of magnitude faster/lighter)");
    t.note("the price: per-bit plausible deniability instead of semantic security, plus estimator noise");
    t.note("rel err is one draw per ε; pred sd is the estimator's standard deviation, the error to expect");
    t
}

/// Extra (not a paper figure): the §2 non-private baselines against the
/// private protocol — what privacy costs.
pub fn baselines(h: &mut Harness, ns: &[usize]) -> FigureTable {
    let mut t = FigureTable::new(
        "§2 baselines: non-private alternatives vs the private protocol (gigabit LAN)",
        &[
            "n",
            "plain-idx(s)",
            "download(s)",
            "private(s)",
            "plain B",
            "download B",
            "private B",
        ],
    );
    for &n in ns {
        let (db, sel) = h.workload(n);
        let plain = run_plain_baseline(&db, &sel, LinkProfile::gigabit_lan()).expect("plain");
        let dl = run_download_baseline(&db, &sel, LinkProfile::gigabit_lan()).expect("download");
        let private = run_basic(&db, &sel, &h.client, LinkProfile::gigabit_lan(), &mut h.rng)
            .expect("private");
        t.row(vec![
            n.to_string(),
            secs(plain.total_sequential()),
            secs(dl.total_sequential()),
            secs(private.total_sequential()),
            (plain.bytes_to_server + plain.bytes_to_client).to_string(),
            (dl.bytes_to_server + dl.bytes_to_client).to_string(),
            (private.bytes_to_server + private.bytes_to_client).to_string(),
        ]);
    }
    t.note("plain-indices leaks the client's selection; download-all leaks the database");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tiny harness shared by the smoke tests (keygen is the
    /// expensive part).
    fn harness() -> Harness {
        Harness::new(128, 99)
    }

    #[test]
    fn fig2_smoke() {
        let mut h = harness();
        let t = fig2(&mut h, &[20, 40]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], "20");
        assert!(t.render().contains("Fig. 2"));
        // The paper's algorithm's line: n public encryptions at the
        // calibration's time, and a verdict on it and on this system.
        let per_encryption = PAPER_ENCRYPT_SECS / h.paper_model.cpu_slowdown;
        let paper_enc: f64 = t.rows[1][7].parse().unwrap();
        assert!(
            (paper_enc - 40.0 * per_encryption).abs() < 1e-3,
            "{paper_enc}"
        );
        assert!(t
            .notes
            .iter()
            .any(|n| n.starts_with("verdict") && n.contains("paper's algorithm")));
        assert!(t.notes.iter().any(|n| n.starts_with("this system")));
    }

    #[test]
    fn fig3_comm_exceeds_fig2_comm() {
        let mut h = harness();
        let lan = fig2(&mut h, &[30]);
        let modem = fig3(&mut h, &[30]);
        let lan_comm: f64 = lan.rows[0][3].parse().unwrap();
        let modem_comm: f64 = modem.rows[0][3].parse().unwrap();
        assert!(modem_comm > lan_comm * 100.0, "{modem_comm} vs {lan_comm}");
    }

    #[test]
    fn fig4_produces_both_series() {
        // Timing magnitudes are noisy in debug builds under parallel test
        // load, so assert structure, parseability, and the hard upper
        // bound only.
        let mut h = harness();
        let t = fig4(&mut h, &[60]);
        let unbatched: f64 = t.rows[0][1].parse().unwrap();
        let batched: f64 = t.rows[0][2].parse().unwrap();
        let red: f64 = t.rows[0][3].parse().unwrap();
        assert!(unbatched > 0.0 && batched > 0.0);
        assert!(red < 100.0, "reduction={red}");
    }

    #[test]
    fn fig5_and_fig7_preprocessing_wins() {
        // A 400-row run takes ≈ 20 ms in a debug build, and a descheduled
        // phase can double one side of a pair, so single pairs read
        // anywhere from −60 % to 80 % on a loaded 2-vCPU host: judge the
        // median of 15 alternated pairs, which read 33–41 % over 50 sets,
        // alone and beside one or two busy processes.
        let mut h = harness();
        let f7 = fig7(&mut h, &[400; 15]);
        let median = |col: usize| {
            let mut v: Vec<f64> = f7.rows.iter().map(|r| r[col].parse().unwrap()).collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        // The paper's claim, on the paper's algorithm: its unoptimized
        // client pays a public-key encryption per row.
        let paper_red = median(5);
        assert!(
            paper_red > 40.0,
            "combined optimizations must cut most of the paper's runtime, got {paper_red}%"
        );
        // This system's querier encrypts ≈ 12× faster than that, so
        // preprocessing saves it less: ≈ 36 % here, 28–44 % at the
        // paper's scale (figures_full.txt).
        let red = median(3);
        assert!(
            red > 20.0,
            "preprocessing must cut a fifth of this system's runtime, got {red}%"
        );
        let f5 = fig5(&mut h, &[400]);
        // enc(s) far below total: lookups only.
        let enc: f64 = f5.rows[0][1].parse().unwrap();
        let total: f64 = f5.rows[0][5].parse().unwrap();
        assert!(enc < total / 2.0, "enc {enc} vs total {total}");
    }

    #[test]
    fn fig6_comm_dominates() {
        let mut h = harness();
        let t = fig6(&mut h, &[40]);
        let share: f64 = t.rows[0][5].parse().unwrap();
        assert!(
            share > 80.0,
            "modem comm share should dominate, got {share}%"
        );
    }

    #[test]
    fn fig9_speedup_positive() {
        // Structural check only: the absolute speed-up is asserted by the
        // release-mode integration suite, not here under debug-build
        // timing noise.
        let mut h = harness();
        let t = fig9(&mut h, &[45]);
        let speedup: f64 = t.rows[0][3].parse().unwrap();
        assert!(
            speedup > 0.0,
            "speed-up must parse positive, got {speedup}x"
        );
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn smc_gc_slower_than_he() {
        // GC label OT needs keys wider than the 128-bit labels.
        let mut h = Harness::new(192, 99);
        let t = smc(&mut h, &[8, 16]);
        for row in &t.rows {
            let ratio: f64 = row[6].parse().unwrap();
            assert!(ratio > 1.0, "GC must be slower: {ratio}");
        }
        assert!(t.notes[0].contains("n=1000"));
    }

    #[test]
    fn batch_ablation_sweeps() {
        let mut h = harness();
        let t = ablation_batch(&mut h, 60, LinkProfile::gigabit_lan());
        // 1, 10, 50 and the n=60 row.
        assert_eq!(t.rows.len(), 4);
        // Message count strictly decreases as batches grow.
        let msgs: Vec<usize> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(msgs.windows(2).all(|w| w[0] > w[1]), "{msgs:?}");
    }

    #[test]
    fn baselines_cheaper_than_private() {
        let mut h = harness();
        let t = baselines(&mut h, &[50]);
        let plain: f64 = t.rows[0][1].parse().unwrap();
        let private: f64 = t.rows[0][3].parse().unwrap();
        assert!(plain < private);
    }
}
