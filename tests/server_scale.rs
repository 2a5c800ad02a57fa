//! Scale smoke test for the server runtime: ten thousand loopback
//! sessions, with a hold phase that keeps two thousand sessions (and so
//! two thousand session threads) simultaneously open — the acceptance
//! proof for the ≥ 1k-concurrent-sessions criterion.
//!
//! Every session replays the same pre-encoded query (one 128-bit key,
//! one `Hello`, one `IndexBatch`), so the server's `Product` reply is
//! bitwise identical across sessions: one warm-up session decrypts it
//! against the plaintext selected sum (the oracle), and the other
//! 9 999 sessions byte-compare their reply against that reference.

use std::io::{Read as IoRead, Write as IoWrite};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use pps_protocol::messages::{Hello, IndexBatch, MsgType};
use pps_protocol::{Database, FoldStrategy, Selection, SumClient, TcpServer};
use pps_transport::{TcpWire, Wire};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOTAL_SESSIONS: usize = 10_000;
const HOLD_CONCURRENT: usize = 2_000;
const CHUNK: usize = 256;

/// One pre-encoded session: the bytes every client writes, and the
/// reply bytes every client must read back.
struct Replay {
    hello: Vec<u8>,
    batch: Vec<u8>,
    hello_ack_len: usize,
    product: Vec<u8>,
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s
}

/// Reads exactly `len` bytes (a whole frame of known width).
fn read_frame_bytes(s: &mut TcpStream, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    s.read_exact(&mut buf).unwrap();
    buf
}

#[test]
fn ten_thousand_sessions_with_two_thousand_held_open() {
    let db_rows: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6];
    let select = [0usize, 2, 5, 7];
    let expected: u64 = select.iter().map(|&i| db_rows[i]).sum(); // 3+4+9+6

    let mut rng = StdRng::seed_from_u64(4242);
    let client = SumClient::generate(128, &mut rng).unwrap();
    let selection = Selection::from_indices(db_rows.len(), &select).unwrap();

    // Pre-encode the whole query once; every session replays these bytes.
    let hello_frame = Hello {
        modulus: client.keypair().public.n().clone(),
        total: selection.len() as u64,
        batch_size: selection.len() as u32,
        trace: None,
    }
    .encode()
    .unwrap();
    let cts: Vec<_> = selection
        .weights()
        .iter()
        .map(|&w| client.keypair().public.encrypt_u64(w, &mut rng).unwrap())
        .collect();
    let batch_frame = IndexBatch {
        seq: 0,
        ciphertexts: cts,
    }
    .encode(&client.keypair().public)
    .unwrap();

    let server = TcpServer::bind(
        Arc::new(Database::new(db_rows).unwrap()),
        "127.0.0.1:0",
        FoldStrategy::default(),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.serve(Some(TOTAL_SESSIONS)));

    // Warm-up session over the blocking wire: the oracle. Decrypt the
    // product and pin the exact reply bytes every replay must see.
    let replay = {
        let mut wire = TcpWire::new(connect(addr));
        wire.send(hello_frame.clone()).unwrap();
        let ack = wire.recv().unwrap();
        assert_eq!(ack.msg_type, MsgType::HelloAck as u8);
        wire.send(batch_frame.clone()).unwrap();
        let product = wire.recv().unwrap();
        assert_eq!(product.msg_type, MsgType::Product as u8);
        let (sum, _) = client.decrypt_product(&product).unwrap();
        assert_eq!(sum.to_u128().unwrap(), expected as u128, "oracle sum");
        Replay {
            hello: hello_frame.encode().to_vec(),
            batch: batch_frame.encode().to_vec(),
            hello_ack_len: ack.encoded_len(),
            product: product.encode().to_vec(),
        }
    };

    // Hold phase: open HOLD_CONCURRENT sessions, send only the Hello,
    // and collect every HelloAck before releasing any batch. Once the
    // last ack is in, all HOLD_CONCURRENT sessions are provably active
    // on the server at once — none can complete without its batch.
    let mut held: Vec<TcpStream> = Vec::with_capacity(HOLD_CONCURRENT);
    for _ in 0..HOLD_CONCURRENT {
        let mut s = connect(addr);
        s.write_all(&replay.hello).unwrap();
        held.push(s);
    }
    for s in &mut held {
        read_frame_bytes(s, replay.hello_ack_len);
    }
    // Release: every held session finishes and must return the exact
    // reference product.
    for s in &mut held {
        s.write_all(&replay.batch).unwrap();
    }
    let mut completed = 1; // the warm-up
    for mut s in held {
        let got = read_frame_bytes(&mut s, replay.product.len());
        assert_eq!(got, replay.product, "held session product mismatch");
        completed += 1;
    }

    // Rolling chunks for the remaining sessions: write the whole query,
    // then read both replies back, CHUNK sessions in flight at a time.
    while completed < TOTAL_SESSIONS {
        let n = CHUNK.min(TOTAL_SESSIONS - completed);
        let mut chunk: Vec<TcpStream> = Vec::with_capacity(n);
        for _ in 0..n {
            let mut s = connect(addr);
            s.write_all(&replay.hello).unwrap();
            s.write_all(&replay.batch).unwrap();
            chunk.push(s);
        }
        for mut s in chunk {
            read_frame_bytes(&mut s, replay.hello_ack_len);
            let got = read_frame_bytes(&mut s, replay.product.len());
            assert_eq!(got, replay.product, "replayed session product mismatch");
            completed += 1;
        }
    }

    let stats = server_thread.join().unwrap();
    assert_eq!(stats.sessions, TOTAL_SESSIONS, "every session completed");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.evicted, 0);
    assert_eq!(stats.refused, 0);
    assert_eq!(stats.panicked, 0);
    assert!(
        stats.peak_active >= 1_000,
        "the hold phase kept at least 1k sessions concurrently active \
         (observed peak {})",
        stats.peak_active
    );
}
