//! Smoke tests for the figure-regeneration harness: every figure runs end
//! to end on a miniature sweep and produces structurally valid tables.
//! (Absolute timing claims are checked in release mode by the harness
//! itself; these tests assert structure and the link-model invariants
//! that are deterministic even in debug builds.)

use pps_bench::figures::{self, Harness};

fn harness() -> Harness {
    Harness::new(128, 42)
}

#[test]
fn every_figure_renders() {
    let mut h = harness();
    let ns = [16usize, 32];
    let tables = [
        figures::fig2(&mut h, &ns),
        figures::fig3(&mut h, &ns),
        figures::fig4(&mut h, &ns),
        figures::fig5(&mut h, &ns),
        figures::fig6(&mut h, &ns),
        figures::fig7(&mut h, &ns),
        figures::fig9(&mut h, &ns),
        figures::baselines(&mut h, &ns),
    ];
    for t in &tables {
        assert_eq!(t.rows.len(), 2, "{}", t.title);
        assert!(
            !t.notes.is_empty(),
            "{} needs paper-comparison notes",
            t.title
        );
        let rendered = t.render();
        assert!(rendered.contains("=="));
        // Every cell parses back out of the render.
        for row in &t.rows {
            for cell in row {
                assert!(rendered.contains(cell.as_str()));
            }
        }
    }
}

#[test]
fn smc_figure_renders() {
    // GC OT labels need > 128-bit keys.
    let mut h = Harness::new(192, 43);
    let t = figures::smc(&mut h, &[4, 8]);
    assert_eq!(t.rows.len(), 2);
    assert!(t.notes.iter().any(|n| n.contains("Fairplay")));
}

#[test]
fn figures_scale_linearly_in_traffic() {
    // Deterministic invariant: over the 56 Kbps modem (fig3) the comm
    // component is serialization-dominated, so it scales linearly with n.
    // (Over gigabit LAN at tiny n, per-message latency dominates instead,
    // which is why this checks the modem figure.)
    let mut h = harness();
    let t = figures::fig3(&mut h, &[50, 100]);
    let comm_small: f64 = t.rows[0][3].parse().unwrap();
    let comm_large: f64 = t.rows[1][3].parse().unwrap();
    // Doubling n adds exactly one batch's worth of ciphertext bytes:
    // Δcomm = 50 ciphertexts × 8 bits/byte ÷ 56 kbps (latency and the
    // constant messages cancel in the difference).
    let ct_bytes = 2 * 128 / 8; // 128-bit key → 256-bit N² → 32 B
    let expected_delta = (50 * ct_bytes * 8) as f64 / 56e3;
    let delta = comm_large - comm_small;
    assert!(
        (delta - expected_delta).abs() < 0.05 * expected_delta + 0.01,
        "Δcomm {delta} vs model {expected_delta}"
    );
}

#[test]
fn modem_figures_dominated_by_comm() {
    let mut h = harness();
    let t = figures::fig6(&mut h, &[30]);
    let share: f64 = t.rows[0][5].parse().unwrap();
    assert!(
        share > 50.0,
        "56 Kbps must dominate a preprocessed run, got {share}%"
    );
}

#[test]
fn fig3_verdict_note_present() {
    let mut h = harness();
    let t = figures::fig3(&mut h, &[20]);
    assert!(t.notes.iter().any(|n| n.contains("verdict")));
    // One verdict on the paper's algorithm, one on this system.
    for line in ["paper's algorithm", "this system"] {
        assert!(
            t.notes
                .iter()
                .any(|n| n.contains("verdict") && n.contains(line)),
            "no verdict for {line}"
        );
    }
}
