//! Black-box tests of the compiled `pps` binary: real process spawns,
//! real argv, real sockets.

use std::io::Read;
use std::net::TcpListener;
use std::process::{Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_pps")
}

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pps-bin-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap().to_string();
    drop(l);
    addr
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = Command::new(bin()).arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("serve"));
    assert!(text.contains("query"));
}

#[test]
fn bad_arguments_exit_2() {
    let out = Command::new(bin()).arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown command"));

    // `multidb` is not a subcommand; `query --shards` is the multi-database path.
    let out = Command::new(bin())
        .args(["multidb", "--random", "8"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown command"));

    let out = Command::new(bin())
        .args(["query", "--select", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // A flag the subcommand does not read is refused, not ignored.
    let out = Command::new(bin())
        .args([
            "sim",
            "run",
            "--scenario",
            "byzantine",
            "--engine",
            "threaded",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("--engine"));

    // The server has one fold; the removed `--fold` is an unread flag.
    let out = Command::new(bin())
        .args(["serve", "--random", "8", "--fold", "incremental"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("--fold"));
}

#[test]
fn keygen_writes_a_loadable_key() {
    let dir = temp_dir();
    let key = dir.join("k.bin");
    let out = Command::new(bin())
        .args(["keygen", "--bits", "128", "--out", key.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&key).unwrap();
    assert_eq!(&bytes[..4], b"PSK1");
    assert!(pps_crypto::PaillierSecretKey::keypair_from_bytes(&bytes).is_ok());
}

#[test]
fn serve_and_query_binaries_end_to_end() {
    let dir = temp_dir();
    let data = dir.join("data.txt");
    std::fs::write(&data, "11\n22\n33\n44\n").unwrap();
    let addr = free_addr();

    let mut server = Command::new(bin())
        .args([
            "serve",
            "--data",
            data.to_str().unwrap(),
            "--listen",
            &addr,
            "--max-sessions",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    // Wait for the listener, then query with the real client binary.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let query_out = loop {
        let out = Command::new(bin())
            .args([
                "query",
                "--addr",
                &addr,
                "--select",
                "0,3",
                "--key-bits",
                "128",
            ])
            .output()
            .unwrap();
        if out.status.success() {
            break out;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "query never succeeded: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    };

    let text = String::from_utf8(query_out.stdout).unwrap();
    assert!(
        text.contains("private sum of 2 selected rows (of 4): 55"),
        "{text}"
    );

    let status = server.wait().unwrap();
    assert!(status.success());
    let mut server_log = String::new();
    server
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut server_log)
        .unwrap();
    assert!(server_log.contains("serving 4 rows"), "{server_log}");
}
