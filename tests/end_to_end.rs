//! End-to-end integration: every protocol variant against the plaintext
//! oracle, over both the virtual-clock driver and real concurrent
//! threads, at the paper's 512-bit key size.

use pps::prelude::*;
use pps::transport::LinkProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(n: usize, seed: u64, key_bits: usize) -> (Database, Selection, SumClient, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = Database::random_32bit(n, &mut rng).expect("n > 0");
    let sel = Selection::random(n, 0.5, &mut rng).expect("valid p");
    let client = SumClient::generate(key_bits, &mut rng).expect("keygen");
    (db, sel, client, rng)
}

#[test]
fn paper_key_size_basic_run() {
    // The paper's exact configuration: 512-bit keys, 32-bit values.
    let (db, sel, client, mut rng) = setup(300, 1, 512);
    let r = pps::run_basic(&db, &sel, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
    assert_eq!(r.result, db.oracle_sum(&sel).unwrap());
    assert_eq!(r.key_bits, 512);
    // One 128-byte ciphertext per element upstream (plus hello/framing).
    assert!(r.bytes_to_server >= 300 * 128);
    assert!(r.bytes_to_server < 300 * 128 + 1200);
}

#[test]
fn all_variants_agree_on_one_workload() {
    let (db, sel, client, mut rng) = setup(240, 2, 256);
    let link = LinkProfile::gigabit_lan;
    let expected = db.oracle_sum(&sel).unwrap();

    let basic = pps::run_basic(&db, &sel, &client, link(), &mut rng).unwrap();
    let batched = pps::run_batched(&db, &sel, &client, link(), 50, &mut rng).unwrap();
    let prep = pps::run_preprocessed(&db, &sel, &client, link(), &mut rng).unwrap();
    let combined = pps::run_combined(&db, &sel, &client, link(), 50, &mut rng).unwrap();
    let plain = pps::run_plain_baseline(&db, &sel, link()).unwrap();
    let download = pps::run_download_baseline(&db, &sel, link()).unwrap();

    for (name, r) in [
        ("basic", &basic),
        ("batched", &batched),
        ("preprocessed", &prep),
        ("combined", &combined),
        ("plain", &plain),
        ("download", &download),
    ] {
        assert_eq!(r.result, expected, "{name} disagrees with the oracle");
        assert_eq!(r.n, 240, "{name} row count");
    }

    // Same encrypted-index traffic for all private single-client variants
    // (framing differs across batch counts, ciphertext payload does not).
    let w = client.keypair().public.ciphertext_bytes();
    for r in [&basic, &batched, &prep, &combined] {
        assert!(r.bytes_to_server >= 240 * w);
    }
}

#[test]
fn batch_size_does_not_change_result() {
    let (db, sel, client, mut rng) = setup(97, 4, 256);
    let expected = db.oracle_sum(&sel).unwrap();
    for batch in [1usize, 2, 7, 50, 96, 97, 1000] {
        let r = pps::run_batched(
            &db,
            &sel,
            &client,
            LinkProfile::gigabit_lan(),
            batch,
            &mut rng,
        )
        .unwrap();
        assert_eq!(r.result, expected, "batch={batch}");
    }
}

#[test]
fn extreme_selections() {
    let (db, _, client, mut rng) = setup(80, 5, 256);
    let none = Selection::from_bits(&[false; 80]);
    let all = Selection::from_bits(&[true; 80]);
    let r0 = pps::run_basic(&db, &none, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
    assert_eq!(r0.result, 0);
    let r1 = pps::run_basic(&db, &all, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
    assert_eq!(
        r1.result,
        db.values().iter().map(|&v| v as u128).sum::<u128>()
    );
}

#[test]
fn single_element_database() {
    let mut rng = StdRng::seed_from_u64(6);
    let db = Database::new(vec![777]).unwrap();
    let client = SumClient::generate(128, &mut rng).unwrap();
    let yes = Selection::from_bits(&[true]);
    let no = Selection::from_bits(&[false]);
    let ry = pps::run_basic(&db, &yes, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
    assert_eq!(ry.result, 777);
    let rn = pps::run_basic(&db, &no, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
    assert_eq!(rn.result, 0);
}

#[test]
fn weighted_queries_end_to_end() {
    let mut rng = StdRng::seed_from_u64(7);
    let db = Database::new(vec![100, 200, 300, 400]).unwrap();
    let client = SumClient::generate(256, &mut rng).unwrap();
    let weights = Selection::weighted(vec![3, 0, 1, 10]);
    let r =
        pps::run_weighted(&db, &weights, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
    assert_eq!(r.result, 300 + 300 + 4000);
}

#[test]
fn comm_component_tracks_link_profile() {
    let (db, sel, client, mut rng) = setup(64, 8, 256);
    let lan = pps::run_basic(&db, &sel, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
    let switch =
        pps::run_basic(&db, &sel, &client, LinkProfile::cluster_switch(), &mut rng).unwrap();
    let modem = pps::run_basic(&db, &sel, &client, LinkProfile::modem_56k(), &mut rng).unwrap();
    assert!(switch.comm < lan.comm);
    assert!(lan.comm < modem.comm);
    // Identical payloads regardless of the link.
    assert_eq!(lan.bytes_to_server, modem.bytes_to_server);
}

#[test]
fn key_size_sweep() {
    // The protocol works across key sizes; ciphertext width scales.
    let mut rng = StdRng::seed_from_u64(9);
    let db = Database::new(vec![5, 10, 15]).unwrap();
    let sel = Selection::from_bits(&[true, false, true]);
    let mut widths = Vec::new();
    for bits in [128usize, 256, 512, 1024] {
        let client = SumClient::generate(bits, &mut rng).unwrap();
        let r = pps::run_basic(&db, &sel, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
        assert_eq!(r.result, 20, "bits={bits}");
        widths.push(r.bytes_to_server);
    }
    assert!(
        widths.windows(2).all(|w| w[0] < w[1]),
        "traffic grows with key size"
    );
}
