//! Failure injection: malformed frames, invalid ciphertexts, protocol
//! violations, overflow guards, and disconnects. A privacy-preserving
//! server must *reject* anomalous input — folding a non-group element
//! into the product or accepting a desynchronized stream silently would
//! be a correctness and security bug.
//!
//! The canonical database / client / frame fixtures live in
//! [`pps_sim::harness::proto`], shared with the simulator's byzantine
//! campaigns — `setup()` here is the same fixture those campaigns
//! attack at population scale.

use pps::prelude::*;
use pps::protocol::messages::{Hello, IndexBatch, MsgType, PlainIndices};
use pps::protocol::{ProtocolError, ServerSession};
use pps::transport::{Frame, LinkProfile, SimLink, TransportError};
use pps_bignum::Uint;
use pps_sim::harness::proto::{fixture as setup, hello_frame};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn server_rejects_zero_ciphertext() {
    // 0 is not in Z*_{N²}; a malicious client could use degenerate values
    // to corrupt the product. Decode must refuse.
    let (db, client, _) = setup();
    let key = &client.keypair().public;
    let mut server = ServerSession::new(&db);
    server.on_frame(&hello_frame(&client, 4)).unwrap();

    let w = key.ciphertext_bytes();
    // [seq u64 = 0][count u32 = 4][4 all-zero ciphertexts]
    let mut payload = vec![0u8; 12 + 4 * w];
    payload[8..12].copy_from_slice(&4u32.to_be_bytes());
    let frame = Frame::new(MsgType::IndexBatch as u8, payload).unwrap();
    let err = server.on_frame(&frame).unwrap_err();
    assert!(
        matches!(err, ProtocolError::Crypto(_)),
        "a non-group element must be rejected as a typed crypto error, got {err:?}"
    );
}

#[test]
fn server_rejects_ciphertext_sharing_factor_with_n() {
    let (_db, client, _) = setup();
    let key = client.keypair().public.clone();
    // N itself shares a factor with N — invalid group element.
    let n_bytes = key.n().to_bytes_be_padded(key.ciphertext_bytes()).unwrap();
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_be_bytes());
    payload.extend_from_slice(&1u32.to_be_bytes());
    payload.extend_from_slice(&n_bytes);
    let frame = Frame::new(MsgType::IndexBatch as u8, payload).unwrap();
    assert!(IndexBatch::decode(&frame, &key).is_err());
}

#[test]
fn server_rejects_truncated_batch() {
    let (db, client, mut rng) = setup();
    let key = &client.keypair().public;
    let mut server = ServerSession::new(&db);
    server.on_frame(&hello_frame(&client, 4)).unwrap();

    let ct = key.encrypt_u64(1, &mut rng).unwrap();
    let good = IndexBatch {
        seq: 0,
        ciphertexts: vec![ct],
    }
    .encode(key)
    .unwrap();
    // Chop ten bytes off the end.
    let truncated = Frame::new(
        MsgType::IndexBatch as u8,
        good.payload.slice(..good.payload.len() - 10),
    )
    .unwrap();
    assert!(server.on_frame(&truncated).is_err());
}

#[test]
fn server_rejects_overcount_and_double_hello() {
    let (db, client, mut rng) = setup();
    let key = &client.keypair().public;
    let mut server = ServerSession::new(&db);
    server.on_frame(&hello_frame(&client, 4)).unwrap();
    assert!(
        server.on_frame(&hello_frame(&client, 4)).is_err(),
        "double hello"
    );

    let cts: Vec<_> = (0..5)
        .map(|_| key.encrypt_u64(0, &mut rng).unwrap())
        .collect();
    let frame = IndexBatch {
        seq: 0,
        ciphertexts: cts,
    }
    .encode(key)
    .unwrap();
    assert!(
        server.on_frame(&frame).is_err(),
        "five indices for a four-row database"
    );
}

#[test]
fn server_rejects_unknown_message_types() {
    let (db, _, _) = setup();
    let mut server = ServerSession::new(&db);
    for t in [0u8, 3, 5, 6, 99, 255] {
        let frame = Frame::new(t, vec![1, 2, 3]).unwrap();
        assert!(
            server.on_frame(&frame).is_err(),
            "type {t} must be rejected"
        );
    }
}

#[test]
fn server_rejects_wrong_total_announcement() {
    let (db, client, _) = setup();
    let mut server = ServerSession::new(&db);
    assert!(server.on_frame(&hello_frame(&client, 3)).is_err());
    let mut server2 = ServerSession::new(&db);
    assert!(server2.on_frame(&hello_frame(&client, 1_000_000)).is_err());
}

#[test]
fn server_rejects_even_modulus() {
    let (db, _, _) = setup();
    let mut server = ServerSession::new(&db);
    let bad = Hello {
        modulus: Uint::one().shl(128),
        total: 4,
        batch_size: 4,
        trace: None,
    }
    .encode()
    .unwrap();
    assert!(server.on_frame(&bad).is_err());
}

#[test]
fn plain_baseline_rejects_out_of_range_index() {
    let (db, _, _) = setup();
    let mut server = ServerSession::new(&db);
    let req = PlainIndices {
        indices: vec![0, 4],
    }
    .encode()
    .unwrap();
    assert!(server.on_frame(&req).is_err());
}

#[test]
fn frame_desync_detected() {
    use bytes::BytesMut;
    let good = Frame::new(2, vec![7u8; 8]).unwrap().encode();
    // Drop the first byte: magic check must fire rather than misparse.
    let mut buf = BytesMut::from(&good[1..]);
    assert!(matches!(
        Frame::decode(&mut buf),
        Err(TransportError::Malformed(_)) | Ok(None)
    ));
}

#[test]
fn disconnect_mid_protocol_is_an_error_not_a_hang() {
    let (db, client, mut rng) = setup();
    let sel = Selection::from_bits(&[true, false, true, false]);
    let (mut cw, sw) = SimLink::pair(LinkProfile::gigabit_lan());
    let mut source = pps::protocol::IndexSource::Fresh(&mut rng);
    client.send_query(&mut cw, &sel, 4, &mut source).unwrap();
    drop(sw); // server vanishes
    assert!(matches!(
        client.receive_result(&mut cw),
        Err(ProtocolError::Transport(TransportError::Disconnected))
    ));
    let _ = db;
}

#[test]
fn overflow_guard_refuses_oversized_sums() {
    // n · max < N must hold; otherwise the decrypted sum silently wraps,
    // which database privacy makes undetectable. The library refuses.
    let mut rng = StdRng::seed_from_u64(67);
    let client = SumClient::generate(64, &mut rng).unwrap();
    let db = Database::new(vec![u64::MAX / 4; 16]).unwrap();
    let sel = Selection::from_bits(&[true; 16]);
    assert!(matches!(
        pps::run_basic(&db, &sel, &client, LinkProfile::gigabit_lan(), &mut rng),
        Err(ProtocolError::SumOverflow { .. })
    ));
}

#[test]
fn pool_exhaustion_is_an_error() {
    use pps_crypto::BitEncryptionPool;
    let (_, client, mut rng) = setup();
    let mut pool = BitEncryptionPool::new(client.keypair().public.clone());
    pool.fill(1, 1, &mut rng).unwrap();
    let sel = Selection::from_bits(&[true, true, false, false]); // needs 2 ones, 2 zeros
    let (mut cw, _sw) = SimLink::pair(LinkProfile::gigabit_lan());
    let mut source = pps::protocol::IndexSource::BitPool(&mut pool);
    assert!(client.send_query(&mut cw, &sel, 4, &mut source).is_err());
}
