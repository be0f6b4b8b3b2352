//! Chaos tests over real sockets and real processes: a resumable upload
//! torn at every byte of its wire bytes, and `kill -9`.
//!
//! The invariant throughout: every *acknowledged* sample lands in the
//! final sketch exactly once, however the connection or the process
//! dies. Because a scenario's samples fold in sequence order on a single
//! shard worker, "exactly once" is checkable bit-for-bit against an
//! offline fold of the same corpus. Crash states of the log itself are
//! enumerated from seeds by the schedule explorer in `shard.rs`.

use std::io::{self, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use latlab_analysis::{EventClass, LatencySketch};
use latlab_serve::protocol::{write_seq_end_frame, write_seq_frame};
use latlab_serve::{
    fold_corpus, slam::synthetic_corpus, upload, upload_resumable, IngestClient, PutHeader,
    QueryClient, ResumeOpts, ServeConfig, Server, ShardConfig, UploadOutcome,
};

const SERVE: &str = env!("CARGO_BIN_EXE_serve");

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static N: AtomicU32 = AtomicU32::new(0);
        let path = std::env::temp_dir().join(format!(
            "latlab-chaos-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn put(scenario: &str, client: &str) -> PutHeader {
    PutHeader {
        client: client.to_owned(),
        scenario: scenario.to_owned(),
        class: Some(EventClass::Keystroke),
        resume: true,
        resume_base: None,
    }
}

fn encoded(sketch: &LatencySketch) -> Vec<u8> {
    let mut out = Vec::new();
    sketch.encode(&mut out);
    out
}

fn health_counter(health: &str, key: &str) -> u64 {
    health
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
        .unwrap_or_else(|| panic!("{key} missing from HEALTH: {health}"))
        .parse()
        .unwrap_or_else(|_| panic!("{key} not numeric in HEALTH: {health}"))
}

/// Runs `upload_resumable` against a relay that forwards its first
/// connection's first `cut` bytes to the server, then closes it, and
/// relays the reconnect whole.
fn upload_cut_at(
    server: std::net::SocketAddr,
    header: &PutHeader,
    corpus: &[u8],
    frame_len: usize,
    cut: usize,
) -> (UploadOutcome, u64) {
    let relay = TcpListener::bind("127.0.0.1:0").expect("bind relay");
    let at = relay.local_addr().expect("relay addr");
    let opts = ResumeOpts {
        max_reconnects: 1,
        read_timeout: Duration::from_secs(5),
        reconnect_backoff: Duration::ZERO,
    };
    // The server answers the header line only once it is through, so
    // the client hears nothing of a cut inside it.
    let greeted = cut > header.render().len() + 1;
    std::thread::scope(|scope| {
        let client = scope.spawn(|| upload_resumable(at, header, corpus, frame_len, &opts));
        let (mut from_client, _) = relay.accept().expect("accept");
        let mut to_server = TcpStream::connect(server).expect("connect");
        let mut back = (
            to_server.try_clone().unwrap(),
            from_client.try_clone().unwrap(),
        );
        let replies = scope.spawn(move || match greeted {
            true => io::copy(&mut back.0, &mut back.1),
            false => io::copy(&mut back.0, &mut io::sink()),
        });
        // Forwarded as it arrives: the header must reach the server
        // before the client, awaiting its greeting, sends any frame.
        let mut prefix = (&mut from_client).take(cut as u64);
        io::copy(&mut prefix, &mut to_server).expect("forward the prefix");
        assert_eq!(prefix.limit(), 0, "cut {cut}: the client sent too little");
        // The client may retry only once the server has closed this
        // connection, and so has queued all it read: a `Begin` read late
        // would take the stream over from the retry's.
        to_server
            .shutdown(Shutdown::Write)
            .expect("close the torn attempt");
        let _ = replies.join();
        let _ = from_client.shutdown(Shutdown::Both);
        drop(from_client);
        // The reconnect, relayed whole both ways.
        let (from_client, _) = relay.accept().expect("accept the reconnect");
        let to_server = TcpStream::connect(server).expect("connect");
        let mut up = (
            from_client.try_clone().unwrap(),
            to_server.try_clone().unwrap(),
        );
        let mut down = (to_server, from_client);
        let frames = scope.spawn(move || {
            let _ = io::copy(&mut up.0, &mut up.1);
            let _ = up.1.shutdown(Shutdown::Write);
        });
        let _ = io::copy(&mut down.0, &mut down.1);
        let _ = down.1.shutdown(Shutdown::Write);
        frames.join().expect("relay");
        let r = client
            .join()
            .expect("uploader")
            .expect("upload past the cut");
        (r.outcome, r.reconnects)
    })
}

#[test]
fn a_resumable_upload_cut_at_every_wire_offset_resumes_exactly_once() {
    let server = Server::start(ServeConfig {
        bind: "127.0.0.1:0".to_owned(),
        shard: ShardConfig {
            shards: 2,
            queue_depth: 64,
            publish_every: 1_000,
        },
        read_timeout: Duration::from_secs(5),
        busy_retry: Duration::from_millis(100),
        wal: None,
    })
    .expect("start server");
    let corpus = synthetic_corpus(200, 0xc07, 20);
    let frame_len = 64;
    let exact = fold_corpus(&corpus, frame_len, EventClass::Keystroke, false);
    // Every strict prefix of the first attempt's wire bytes: the header
    // line, each seq frame, and the end frame.
    // One scenario per cut, all named alike so every header is as long.
    let header = |cut: usize| put(&format!("cut{cut:05}"), "c");
    let mut wire = format!("{}\n", header(0).render()).into_bytes();
    for (i, frame) in corpus.chunks(frame_len).enumerate() {
        write_seq_frame(&mut wire, i as u64 + 1, frame).unwrap();
    }
    write_seq_end_frame(&mut wire, corpus.len().div_ceil(frame_len) as u64 + 1).unwrap();
    for cut in 0..wire.len() {
        let (outcome, reconnects) =
            upload_cut_at(server.local_addr(), &header(cut), &corpus, frame_len, cut);
        match outcome {
            UploadOutcome::Done { records, .. } => assert_eq!(records, exact.records, "cut {cut}"),
            other => panic!("cut {cut}: {other:?}"),
        }
        assert_eq!(reconnects, 1, "cut {cut}");
    }
    assert!(wire.len() > 500, "only {} wire bytes", wire.len());
    // Exactly once, bit for bit: each scenario folds on one worker in
    // seq order, so a duplicate or a lost frame changes the image.
    let (_, merged) = server.join();
    for cut in 0..wire.len() {
        let sketch = &merged[&format!("cut{cut:05}")];
        assert_eq!(encoded(sketch), encoded(&exact.sketch), "cut {cut}");
    }
}

fn spawn_serve(wal: &std::path::Path, port_file: &std::path::Path) -> (Child, String) {
    let _ = std::fs::remove_file(port_file);
    let child = Command::new(SERVE)
        .args([
            "--bind",
            "127.0.0.1:0",
            "--shards",
            "2",
            "--read-timeout-ms",
            "2000",
            "--wal",
            wal.to_str().expect("utf8 wal path"),
            "--port-file",
            port_file.to_str().expect("utf8 port path"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(port_file) {
            if !s.is_empty() {
                break s;
            }
        }
        assert!(Instant::now() < deadline, "server never published its port");
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, addr)
}

#[test]
fn kill_nine_restart_recovers_every_acknowledged_sample() {
    let tmp = TempDir::new("kill9");
    let wal = tmp.0.join("wal");
    let port_file = tmp.0.join("addr");
    let blob = synthetic_corpus(20_000, 0x9111, 40);
    let frame_len = 8 * 1024;
    let frames = blob.len().div_ceil(frame_len) as u64;
    let exact = fold_corpus(&blob, frame_len, EventClass::Keystroke, false);

    // Round 1: upload, get DONE (= logged and flushed), then SIGKILL.
    let (mut child, addr) = spawn_serve(&wal, &port_file);
    let outcome = upload(&*addr, &put("fig5", "c0"), &blob, frame_len).expect("upload");
    assert!(matches!(outcome, UploadOutcome::Done { .. }), "{outcome:?}");
    child.kill().expect("kill -9");
    child.wait().expect("reap");

    // Round 2: recovery replays the log; the sketch and the resume
    // watermark are exactly what was acknowledged.
    let (mut child, addr) = spawn_serve(&wal, &port_file);
    let mut q = QueryClient::connect(&*addr).expect("query connect");
    let health = q.roundtrip("HEALTH").expect("health");
    assert!(
        health_counter(&health, "recovered_frames") > 0,
        "restart after kill -9 replayed nothing: {health}"
    );
    assert_eq!(
        health_counter(&health, "recovered_samples"),
        exact.samples,
        "{health}"
    );
    let client = IngestClient::connect(&*addr, &put("fig5", "c0")).expect("resume connect");
    assert_eq!(client.watermark(), frames + 1, "watermark lost in recovery");
    drop(client);
    assert_eq!(q.roundtrip("SHUTDOWN").expect("shutdown"), "draining");
    drop(q);
    assert!(child.wait().expect("drain exit").success());

    // Round 3: the drain checkpointed everything — nothing replays, yet
    // the scenario is fully there, and a clean SHUTDOWN still works.
    let (mut child, addr) = spawn_serve(&wal, &port_file);
    let mut q = QueryClient::connect(&*addr).expect("query connect");
    let health = q.roundtrip("HEALTH").expect("health");
    assert_eq!(
        health_counter(&health, "recovered_frames"),
        0,
        "clean restart replayed the log: {health}"
    );
    let p99 = q.pctl("fig5", 0.99).expect("pctl io").expect("pctl value");
    let truth = exact.sketch.quantile(0.99).expect("exact p99");
    assert!(
        (p99 - truth).abs() < 1e-3,
        "recovered p99 {p99} vs exact {truth}"
    );
    assert_eq!(q.roundtrip("SHUTDOWN").expect("shutdown"), "draining");
    drop(q);
    assert!(child.wait().expect("final exit").success());
}
