//! Concurrent server-runtime tests: one [`TcpServer`] over loopback,
//! several real client threads with distinct private selections, every
//! result checked against the plaintext oracle. (The folds' parity with
//! each other is `fold_parity`'s job.)

use std::net::SocketAddr;
use std::sync::Arc;

use pps_protocol::{Database, FoldStrategy, IndexSource, Selection, SumClient, TcpServer};
use pps_transport::TcpWire;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs one full private query against a listening server and returns
/// the decrypted sum.
fn query(addr: SocketAddr, selection: &Selection, batch: usize, seed: u64) -> u128 {
    let mut rng = StdRng::seed_from_u64(seed);
    let client = SumClient::generate(128, &mut rng).unwrap();
    let mut wire = TcpWire::connect(&addr.to_string()).unwrap();
    let mut source = IndexSource::Fresh(&mut rng);
    client
        .send_query(&mut wire, selection, batch, &mut source)
        .unwrap();
    let (sum, _) = client.receive_result(&mut wire).unwrap();
    sum.to_u128().unwrap()
}

#[test]
fn four_concurrent_sessions_with_distinct_selections() {
    let mut rng = StdRng::seed_from_u64(42);
    let n = 96;
    let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..10_000)).collect();
    let db = Arc::new(Database::new(values).unwrap());

    // The default fold: each session keeps its own buckets.
    let server = TcpServer::bind(Arc::clone(&db), "127.0.0.1:0", FoldStrategy::default()).unwrap();
    let addr = server.local_addr().unwrap();

    // Four clients, each selecting a different residue class mod 4, plus
    // one selecting everything: distinct answers, overlapping coverage.
    let selections: Vec<Selection> = (0..4)
        .map(|r| {
            let idx: Vec<usize> = (0..n).filter(|i| i % 4 == r).collect();
            Selection::from_indices(n, &idx).unwrap()
        })
        .chain([Selection::from_indices(n, &(0..n).collect::<Vec<_>>()).unwrap()])
        .collect();
    let oracles: Vec<u128> = selections
        .iter()
        .map(|s| db.oracle_sum(s).unwrap())
        .collect();

    let clients = std::thread::spawn(move || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = selections
                .iter()
                .enumerate()
                .map(|(i, sel)| scope.spawn(move || query(addr, sel, 32, 100 + i as u64)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<u128>>()
        })
    });

    let stats = server.serve(Some(5));
    let sums = clients.join().unwrap();

    assert_eq!(sums, oracles, "every session returns its oracle sum");
    assert_eq!(stats.sessions, 5);
    assert_eq!(stats.failed, 0);
    // Every client streams one ciphertext per database row, so the
    // folded counts must sum to sessions × n.
    assert_eq!(stats.folded, 5 * n);
    assert!(stats.throughput() > 0.0);
    assert!(stats.compute <= stats.wall + stats.compute, "sanity");
}

#[test]
fn sessions_overlap_in_time() {
    // A slow client connects first and stalls mid-stream; a fast client
    // connects second and must complete while the first is still open —
    // the thread-per-connection runtime must not serialize them.
    let db = Arc::new(Database::new(vec![5, 6, 7, 8]).unwrap());
    let server = TcpServer::bind(Arc::clone(&db), "127.0.0.1:0", FoldStrategy::default()).unwrap();
    let addr = server.local_addr().unwrap();

    let slow = std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(7);
        let client = SumClient::generate(128, &mut rng).unwrap();
        let mut wire = TcpWire::connect(&addr.to_string()).unwrap();
        let sel = Selection::from_indices(4, &[0, 3]).unwrap();
        // Hold the connection open, silent, while the fast client runs.
        std::thread::sleep(std::time::Duration::from_millis(300));
        let mut source = IndexSource::Fresh(&mut rng);
        client.send_query(&mut wire, &sel, 2, &mut source).unwrap();
        let (sum, _) = client.receive_result(&mut wire).unwrap();
        sum.to_u128().unwrap()
    });
    // Give the slow client time to be accepted first.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let fast = std::thread::spawn(move || {
        let start = std::time::Instant::now();
        let sum = query(addr, &Selection::from_indices(4, &[1, 2]).unwrap(), 4, 8);
        (sum, start.elapsed())
    });

    let stats = server.serve(Some(2));
    let slow_sum = slow.join().unwrap();
    let (fast_sum, fast_elapsed) = fast.join().unwrap();
    assert_eq!(slow_sum, 13);
    assert_eq!(fast_sum, 13);
    assert_eq!(stats.sessions, 2);
    assert!(
        fast_elapsed < std::time::Duration::from_millis(300),
        "fast session finished in {fast_elapsed:?}, so it was not queued \
         behind the stalled one"
    );
}
