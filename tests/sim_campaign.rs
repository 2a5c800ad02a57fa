//! Simulation-campaign integration suite: the CI matrix over every
//! registry scenario, the bit-reproducibility contract, and the
//! 2k-client mixed campaign acceptance bar.
//!
//! Every assertion message carries the campaign's one-command repro
//! (`pps sim run --scenario <s> --seed <n>`), so a red CI line is
//! replayable locally without reading the test.

use pps_sim::harness::{assert_reproducible, run_named};

const SEED: u64 = 2026;

/// CI population for the per-scenario matrix: large enough that every
/// behavior class is represented, small enough to stay fast in debug
/// builds.
const MATRIX_POP: usize = 24;

#[test]
fn matrix_every_scenario_passes_the_oracle() {
    for scenario in pps_sim::Scenario::registry() {
        let report =
            run_named(scenario.name, SEED, Some(MATRIX_POP)).expect("registry scenario must run");
        println!(
            "{} — {} events, {} completions",
            report.repro(),
            report.events,
            report.completions
        );
        assert!(
            report.ok(),
            "invariant violation(s); repro: {}\n{}",
            report.repro(),
            report.render()
        );
    }
}

#[test]
fn campaigns_are_bit_reproducible() {
    // Same (scenario, seed) ⇒ identical event trace, metrics snapshot,
    // and event count — the double-run from the acceptance bar.
    // Distinct seeds must *not* collide, or the trace hash proves
    // nothing.
    let a = assert_reproducible("mixed", SEED, Some(48)).unwrap();
    let b = run_named("mixed", SEED + 1, Some(48)).unwrap();
    assert_ne!(
        a.trace_hash, b.trace_hash,
        "different seeds produced the same trace"
    );
}

#[test]
fn mixed_2k_campaign_passes_oracle() {
    // The full acceptance campaign: 2000 clients mixing churn,
    // byzantine classes, slow-loris floods, and a partition window,
    // alternating the paper's two link profiles. Run at full scale in
    // release (CI runs this suite with --release); debug builds scale
    // to 400 so the suite stays usable locally.
    let population = if cfg!(debug_assertions) { 400 } else { 2000 };
    let report = run_named("mixed", SEED, Some(population)).unwrap();
    println!("{}", report.render());
    assert!(
        report.ok(),
        "invariant violation(s); repro: {}\n{}",
        report.repro(),
        report.render()
    );
    assert!(
        report.population >= population,
        "population under-scaled: {}",
        report.population
    );
    // A healthy campaign completes every honest-class client.
    assert!(
        report.completions > 0,
        "no completions at all; repro: {}",
        report.repro()
    );
}
