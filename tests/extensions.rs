//! Integration tests for the extension features beyond the paper's core
//! experiments: the real TCP transport, bivariate statistics, free-XOR
//! garbling, and key serialization — each exercised across crate
//! boundaries.

use pps::prelude::*;
use pps::protocol::{IndexSource, ServerSession};
use pps::stats::{private_paired_moments, PairedDatabase};
use pps::transport::{LinkProfile, TcpWire, Wire};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn full_protocol_over_real_tcp_sockets() {
    // The same state machines that run over simulated links run over a
    // real TCP loopback connection with a threaded server.
    let mut rng = StdRng::seed_from_u64(9000);
    let db = Database::random_32bit(120, &mut rng).unwrap();
    let sel = Selection::random(120, 0.5, &mut rng).unwrap();
    let client = SumClient::generate(256, &mut rng).unwrap();
    let expected = db.oracle_sum(&sel).unwrap();

    let (mut cw, mut sw) = TcpWire::pair_loopback().unwrap();
    let db_server = db.clone();
    let server_thread = std::thread::spawn(move || {
        let mut server = ServerSession::new(&db_server);
        while !server.is_done() {
            let frame = sw.recv().unwrap();
            if let Some(reply) = server.on_frame(&frame).unwrap() {
                sw.send(reply).unwrap();
            }
        }
        sw.stats().payload_bytes_received
    });

    let mut source = IndexSource::Fresh(&mut rng);
    client.send_query(&mut cw, &sel, 30, &mut source).unwrap();
    let (sum, _) = client.receive_result(&mut cw).unwrap();
    assert_eq!(sum.to_u128().unwrap(), expected);

    let server_bytes = server_thread.join().unwrap();
    assert_eq!(
        server_bytes,
        cw.stats().payload_bytes_sent,
        "bytes counted identically at both socket endpoints"
    );
}

#[test]
fn covariance_agrees_with_univariate_queries() {
    // sum_x from the paired query must equal the plain private sum of x.
    let mut rng = StdRng::seed_from_u64(9002);
    let n = 50;
    let x: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
    let y: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
    let sel = Selection::random(n, 0.5, &mut rng).unwrap();
    let client = SumClient::generate(192, &mut rng).unwrap();

    let paired = PairedDatabase::new(x.clone(), y).unwrap();
    let r = private_paired_moments(&paired, &sel, &client, LinkProfile::gigabit_lan(), &mut rng)
        .unwrap();

    let db_x = Database::new(x).unwrap();
    let single =
        pps::run_basic(&db_x, &sel, &client, LinkProfile::gigabit_lan(), &mut rng).unwrap();
    assert_eq!(r.sum_x, single.result);
    assert_eq!(r.count, sel.selected_count() as u128);
    if let Some(corr) = r.correlation() {
        assert!((-1.0..=1.0).contains(&corr));
    }
}

#[test]
fn free_xor_and_classic_gc_agree_and_free_xor_is_smaller() {
    use pps::gc::{
        evaluate, evaluate_free_xor, garble, garble_free_xor, pack_selected_sum_garbler_values,
        selected_sum_circuit, Label,
    };
    let mut rng = StdRng::seed_from_u64(9003);
    let n = 10;
    let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4096)).collect();
    let sel: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    let (circuit, _) = selected_sum_circuit(n, 12);
    let gv = pack_selected_sum_garbler_values(&values, 12, &circuit);

    let (classic, s1) = garble(&circuit, &mut rng);
    let gl1 = s1.garbler_input_labels(&circuit, &gv).unwrap();
    let el1: Vec<Label> = sel
        .iter()
        .enumerate()
        .map(|(i, &v)| s1.evaluator_input_pair(&circuit, i).select(v))
        .collect();
    let out_classic = evaluate(&circuit, &classic, &gl1, &el1).unwrap();

    let (fx, s2) = garble_free_xor(&circuit, &mut rng);
    let gl2 = s2.garbler_input_labels(&circuit, &gv).unwrap();
    let el2: Vec<Label> = sel
        .iter()
        .enumerate()
        .map(|(i, &v)| s2.evaluator_input_pair(&circuit, i).select(v))
        .collect();
    let out_fx = evaluate_free_xor(&circuit, &fx, &gl2, &el2).unwrap();

    assert_eq!(out_classic, out_fx);
    // A full adder is 2 XOR + 2 AND + 1 OR (40% XOR), so the tables
    // shrink by roughly the XOR fraction of the circuit.
    assert_eq!(fx.tables.len(), circuit.nonlinear_gates());
    let ratio = fx.wire_size() as f64 / classic.wire_size() as f64;
    assert!(
        ratio < 0.75,
        "free-XOR must drop the XOR tables, ratio={ratio}"
    );
}

#[test]
fn serialized_keys_survive_a_protocol_round_trip() {
    use pps::crypto::{PaillierPublicKey, PaillierSecretKey};
    let mut rng = StdRng::seed_from_u64(9004);
    let original = SumClient::generate(192, &mut rng).unwrap();

    // Ship the public key as bytes (as a real deployment would), restore,
    // and verify a server built from the restored key interoperates.
    let pub_bytes = original.keypair().public.to_bytes();
    let restored_pub = PaillierPublicKey::from_bytes(&pub_bytes).unwrap();
    assert_eq!(&restored_pub, &original.keypair().public);

    // Restore the full keypair from secret bytes and run the protocol.
    let sec_bytes = original.keypair().secret.to_bytes();
    let restored = SumClient::new(PaillierSecretKey::keypair_from_bytes(&sec_bytes).unwrap());

    let db = Database::new(vec![11, 22, 33]).unwrap();
    let sel = Selection::from_bits(&[true, false, true]);
    let r = pps::run_basic(&db, &sel, &restored, LinkProfile::gigabit_lan(), &mut rng).unwrap();
    assert_eq!(r.result, 44);
}

#[test]
fn general_paillier_interops_with_protocol_key() {
    use pps::bignum::Uint;
    use pps::crypto::GeneralPaillier;
    let mut rng = StdRng::seed_from_u64(9005);
    let gp = GeneralPaillier::generate(128, &mut rng).unwrap();
    // Round trip through the general scheme.
    let ct = gp.encrypt(&Uint::from_u64(777), &mut rng).unwrap();
    assert_eq!(gp.decrypt(&ct).unwrap(), Uint::from_u64(777));
}
