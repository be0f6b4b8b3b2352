//! Deterministic chaos tests: the ingest path under injected network
//! faults and real `kill -9`.
//!
//! The invariant throughout: every *acknowledged* sample lands in the
//! final sketch exactly once, no matter how many resets, torn writes,
//! duplicated frames, or process deaths happen along the way. Because a
//! scenario's samples fold in sequence order on a single shard worker,
//! "exactly once" is checkable bit-for-bit against an offline fold of
//! the same corpus.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use latlab_analysis::{EventClass, LatencySketch};
use latlab_serve::{
    fold_corpus, slam::synthetic_corpus, upload, upload_resumable, FaultConfig, FaultProxy,
    IngestClient, PutHeader, QueryClient, ResumeOpts, ServeConfig, Server, ShardConfig,
    UploadOutcome, WalConfig,
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

#[test]
fn resumable_uploads_survive_injected_faults_exactly_once() {
    let tmp = TempDir::new("proxy");
    let server = Server::start(ServeConfig {
        bind: "127.0.0.1:0".to_owned(),
        shard: ShardConfig {
            shards: 2,
            queue_depth: 64,
            publish_every: 1_000,
        },
        read_timeout: Duration::from_secs(2),
        busy_retry: Duration::from_millis(100),
        wal: Some(WalConfig::new(&tmp.0)),
    })
    .expect("start server");

    // Aggressive, seeded fault rates: with ~40 frames per upload, every
    // run injects resets (half of them torn mid-frame) and duplicates.
    let proxy = FaultProxy::start(
        "127.0.0.1:0",
        server.local_addr(),
        FaultConfig {
            seed: 0x7e57_c4a5,
            reset_one_in: 12,
            duplicate_one_in: 10,
            delay_one_in: 16,
            delay: Duration::from_millis(1),
        },
    )
    .expect("start proxy");
    let via = proxy.local_addr();

    const CLIENTS: usize = 3;
    let corpus: Vec<Vec<u8>> = (0..CLIENTS)
        .map(|i| synthetic_corpus(20_000, 0xc0de + i as u64, 40))
        .collect();
    let frame_len = 8 * 1024;
    let opts = ResumeOpts {
        max_reconnects: 200,
        read_timeout: Duration::from_secs(5),
        reconnect_backoff: Duration::from_millis(1),
    };

    let handles: Vec<_> = corpus
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, blob)| {
            let opts = opts.clone();
            std::thread::spawn(move || {
                upload_resumable(
                    via,
                    &put(&format!("chaos{i}"), &format!("c{i}")),
                    &blob,
                    frame_len,
                    &opts,
                )
                .expect("upload past injected faults")
            })
        })
        .collect();
    let mut reconnects = 0u64;
    for (i, h) in handles.into_iter().enumerate() {
        let r = h.join().expect("uploader panicked");
        match r.outcome {
            UploadOutcome::Done { records, .. } => {
                let exact = fold_corpus(&corpus[i], frame_len, EventClass::Keystroke, false);
                assert_eq!(records, exact.records, "client {i} DONE records");
            }
            other => panic!("client {i} not acknowledged: {other:?}"),
        }
        reconnects += r.reconnects;
    }

    let resets = proxy.stats().resets.load(Ordering::Relaxed);
    let duplicated = proxy.stats().duplicated.load(Ordering::Relaxed);
    assert!(resets > 0, "seeded config injected no resets");
    assert!(duplicated > 0, "seeded config duplicated no frames");
    assert!(
        reconnects > 0,
        "clients saw {resets} resets but never reconnected"
    );
    proxy.stop();

    // Exactly-once, bit-for-bit: each scenario folds on one worker in
    // sequence order, so duplicates or re-sent tails would change the
    // encoding.
    let (_, merged) = server.join();
    for (i, blob) in corpus.iter().enumerate() {
        let exact = fold_corpus(blob, frame_len, EventClass::Keystroke, false);
        let sketch = merged
            .get(&format!("chaos{i}"))
            .unwrap_or_else(|| panic!("scenario chaos{i} missing"));
        assert_eq!(
            encoded(sketch),
            encoded(&exact.sketch),
            "client {i}: sketch is not the exact fold"
        );
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
